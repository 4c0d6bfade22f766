//! The threaded MAC layer implementation.
//!
//! Real OS threads and channels stand in for radios: one thread per
//! node, one "ether" thread standing in for the shared medium. The
//! ether owns *timing* (jittered deliveries, wall-clock deadlines) but
//! delegates every *semantic* decision — which confirmations gate an
//! ack, which broadcast a planned crash interrupts and after how many
//! deliveries, which acks a node's death releases — to the shared
//! [`BcastLedger`] in `amacl-model`. The discrete-event engine drives
//! the very same ledger, so the two backends cannot drift apart on the
//! model's delivery/ack/crash contract; they differ only in how time
//! passes.
//!
//! [`MacRuntime`] also implements the backend-agnostic
//! [`MacLayer`] trait, so any [`Process`] can run here or on the
//! simulator through one interface.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use amacl_model::ids::{NodeId, Slot};
use amacl_model::mac::{Admission, BcastLedger, MacLayer, MacReport};
use amacl_model::proc::{NodeCell, Process, Value};
use amacl_model::sim::crash::CrashSpec;
use amacl_model::sim::time::Time;
use amacl_model::topo::Topology;

/// A mid-broadcast crash to inject into a threaded run: the node dies
/// during its `nth` broadcast (0-indexed), after exactly `delivered`
/// neighbors received it — the partial-delivery failure mode the model
/// allows (paper Section 2).
#[derive(Clone, Copy, Debug)]
pub struct RuntimeCrash {
    /// Node to crash.
    pub slot: usize,
    /// Which of its broadcasts to interrupt.
    pub nth_broadcast: u64,
    /// Neighbor deliveries to allow before the crash.
    pub delivered: usize,
}

/// A timed crash to inject into a threaded run: the node dies `at` a
/// wall-clock offset from the run start, whatever it is doing — the
/// threaded counterpart of [`CrashSpec::AtTime`]. Deliveries of the
/// node's in-flight broadcasts that have not left the ether yet are
/// cancelled, matching the engine's semantics.
#[derive(Clone, Copy, Debug)]
pub struct TimedCrash {
    /// Node to crash.
    pub slot: usize,
    /// Wall-clock offset from the run start.
    pub at: Duration,
}

/// Configuration for a [`MacRuntime`] run.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Maximum per-delivery jitter the ether injects.
    pub max_jitter: Duration,
    /// Seed for the jitter and for per-node process randomness.
    pub seed: u64,
    /// Wall-clock budget; undecided nodes after this long are reported
    /// as such.
    pub timeout: Duration,
    /// Mid-broadcast crashes to inject (at most one per node).
    pub crashes: Vec<RuntimeCrash>,
    /// Timed crashes to inject (at most one per node).
    pub timed_crashes: Vec<TimedCrash>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            max_jitter: Duration::from_micros(500),
            seed: 0,
            timeout: Duration::from_secs(20),
            crashes: Vec::new(),
            timed_crashes: Vec::new(),
        }
    }
}

impl RuntimeConfig {
    /// Routes engine [`CrashSpec`]s into this threaded configuration:
    /// mid-broadcast crashes map structurally, timed crashes map with
    /// `tick` as the wall-clock length of one virtual tick. This is
    /// how one crash plan drives both backends in a cross-check.
    pub fn with_crash_specs(mut self, specs: &[CrashSpec], tick: Duration) -> Self {
        for spec in specs {
            match *spec {
                CrashSpec::AtTime { slot, time } => self.timed_crashes.push(TimedCrash {
                    slot: slot.index(),
                    at: tick.saturating_mul(u32::try_from(time.ticks()).unwrap_or(u32::MAX)),
                }),
                CrashSpec::MidBroadcast {
                    slot,
                    nth_broadcast,
                    delivered,
                } => self.crashes.push(RuntimeCrash {
                    slot: slot.index(),
                    nth_broadcast,
                    delivered,
                }),
            }
        }
        self
    }
}

/// Outcome of a threaded run.
#[derive(Clone, Debug)]
pub struct RuntimeReport {
    /// Per-slot decided values (`None` = undecided at timeout).
    pub decisions: Vec<Option<Value>>,
    /// Wall-clock times of each decision, relative to the start.
    pub decision_latency: Vec<Option<Duration>>,
    /// Total broadcasts accepted by the ether.
    pub broadcasts: u64,
    /// Total deliveries performed.
    pub deliveries: u64,
    /// Whether every node decided before the timeout.
    pub all_decided: bool,
    /// Total wall-clock duration of the run.
    pub elapsed: Duration,
}

impl RuntimeReport {
    /// Distinct decided values, sorted.
    pub fn decided_values(&self) -> Vec<Value> {
        let mut v: Vec<Value> = self.decisions.iter().flatten().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Converts to the backend-neutral [`MacReport`] shape.
    pub fn to_mac_report(&self) -> MacReport {
        MacReport {
            backend: "threads",
            decisions: self.decisions.clone(),
            all_decided: self.all_decided,
            broadcasts: self.broadcasts,
            deliveries: self.deliveries,
        }
    }
}

enum NodeEvent<M> {
    Deliver { msg: M, bcast: u64 },
    Ack,
    Stop,
}

enum EtherMsg<M> {
    Broadcast { from: usize, msg: M },
    Confirm { bcast: u64, by: usize },
    Stop,
}

struct DecisionNote {
    slot: usize,
    value: Value,
    at: Instant,
}

/// The threaded MAC runtime. Create one per run.
pub struct MacRuntime {
    topo: Topology,
    cfg: RuntimeConfig,
}

impl MacRuntime {
    /// Creates a runtime over the given topology.
    pub fn new(topo: Topology, cfg: RuntimeConfig) -> Self {
        Self { topo, cfg }
    }

    /// Runs one process per topology slot (ids equal slot indices)
    /// until every node decides or the timeout expires.
    pub fn run<P>(&self, mut init: impl FnMut(Slot) -> P) -> RuntimeReport
    where
        P: Process + Send,
        P::Msg: Send,
    {
        let n = self.topo.len();
        let start = Instant::now();

        let (ether_tx, ether_rx) = unbounded::<EtherMsg<P::Msg>>();
        let mut inbox_txs = Vec::with_capacity(n);
        let mut inbox_rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded::<NodeEvent<P::Msg>>();
            inbox_txs.push(tx);
            inbox_rxs.push(rx);
        }
        let (dec_tx, dec_rx) = bounded::<DecisionNote>(n.max(1));

        let broadcasts = Arc::new(AtomicU64::new(0));
        let deliveries = Arc::new(AtomicU64::new(0));

        // --- Ether thread.
        let ether_handle = {
            let topo = self.topo.clone();
            let inboxes = inbox_txs.clone();
            let cfg = self.cfg.clone();
            let broadcasts = Arc::clone(&broadcasts);
            let deliveries = Arc::clone(&deliveries);
            thread::spawn(move || {
                ether_loop(
                    &topo,
                    &cfg,
                    start,
                    &inboxes,
                    &ether_rx,
                    &broadcasts,
                    &deliveries,
                )
            })
        };

        // --- Node threads.
        let mut node_handles = Vec::with_capacity(n);
        for (slot, inbox) in inbox_rxs.into_iter().enumerate() {
            let mut proc_ = init(Slot(slot));
            let ether = ether_tx.clone();
            let decisions = dec_tx.clone();
            let seed = self.cfg.seed ^ (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            node_handles.push(thread::spawn(move || {
                node_loop(slot, &mut proc_, seed, &inbox, &ether, &decisions, start);
            }));
        }
        drop(dec_tx);

        // --- Collect decisions until every non-crashed node decided or
        // the timeout expires. (A node may decide before its scheduled
        // crash; only never-crashing nodes count toward completion.)
        let will_crash: Vec<bool> = {
            let mut v = vec![false; n];
            for c in &self.cfg.crashes {
                v[c.slot] = true;
            }
            for c in &self.cfg.timed_crashes {
                v[c.slot] = true;
            }
            v
        };
        let expected = will_crash.iter().filter(|c| !**c).count();
        let mut decisions: Vec<Option<Value>> = vec![None; n];
        let mut latency: Vec<Option<Duration>> = vec![None; n];
        let deadline = start + self.cfg.timeout;
        let mut decided = 0;
        while decided < expected {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match dec_rx.recv_timeout(deadline - now) {
                Ok(note) => {
                    if decisions[note.slot].is_none() {
                        decisions[note.slot] = Some(note.value);
                        latency[note.slot] = Some(note.at - start);
                        if !will_crash[note.slot] {
                            decided += 1;
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }

        // --- Shut everything down.
        let _ = ether_tx.send(EtherMsg::Stop);
        for tx in &inbox_txs {
            let _ = tx.send(NodeEvent::Stop);
        }
        for h in node_handles {
            let _ = h.join();
        }
        let _ = ether_handle.join();

        RuntimeReport {
            all_decided: decided == expected,
            decisions,
            decision_latency: latency,
            broadcasts: broadcasts.load(Ordering::Relaxed),
            deliveries: deliveries.load(Ordering::Relaxed),
            elapsed: start.elapsed(),
        }
    }
}

impl<P> MacLayer<P> for MacRuntime
where
    P: Process + Send,
    P::Msg: Send,
{
    fn backend_name(&self) -> &'static str {
        "threads"
    }

    fn execute(&mut self, init: &mut dyn FnMut(Slot) -> P) -> MacReport {
        self.run(init).to_mac_report()
    }
}

/// One node's event loop: process deliveries and acks in arrival order,
/// forwarding broadcast requests to the ether and decisions to the
/// collector.
fn node_loop<P>(
    slot: usize,
    proc_: &mut P,
    seed: u64,
    inbox: &Receiver<NodeEvent<P::Msg>>,
    ether: &Sender<EtherMsg<P::Msg>>,
    decisions: &Sender<DecisionNote>,
    start: Instant,
) where
    P: Process,
{
    let id = NodeId(slot as u64);
    let mut cell: NodeCell<P::Msg> = NodeCell::new(seed);
    let mut busy = false;
    let mut reported = false;

    let now_ticks = || Time(start.elapsed().as_micros() as u64);

    macro_rules! after_handler {
        () => {
            if let Some(msg) = cell.outbox.take() {
                busy = true;
                let _ = ether.send(EtherMsg::Broadcast { from: slot, msg });
            }
            if !reported {
                if let Some(d) = cell.decision {
                    reported = true;
                    let _ = decisions.send(DecisionNote {
                        slot,
                        value: d.value,
                        at: Instant::now(),
                    });
                }
            }
        };
    }

    {
        let mut ctx = cell.ctx(id, now_ticks(), busy);
        proc_.on_start(&mut ctx);
    }
    after_handler!();

    while let Ok(event) = inbox.recv() {
        match event {
            NodeEvent::Deliver { msg, bcast } => {
                {
                    let mut ctx = cell.ctx(id, now_ticks(), busy);
                    proc_.on_receive(msg, &mut ctx);
                }
                after_handler!();
                let _ = ether.send(EtherMsg::Confirm { bcast, by: slot });
            }
            NodeEvent::Ack => {
                busy = false;
                {
                    let mut ctx = cell.ctx(id, now_ticks(), busy);
                    proc_.on_ack(&mut ctx);
                }
                after_handler!();
            }
            NodeEvent::Stop => break,
        }
    }
}

struct PendingDelivery<M> {
    due: Instant,
    seq: u64,
    to: usize,
    msg: M,
    bcast: u64,
}

impl<M> PartialEq for PendingDelivery<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}
impl<M> Eq for PendingDelivery<M> {}
impl<M> PartialOrd for PendingDelivery<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for PendingDelivery<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: min-heap on (due, seq).
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// The shared ether: wall-clock jitter and channel transport around
/// the model semantics in [`BcastLedger`].
fn ether_loop<M: Clone>(
    topo: &Topology,
    cfg: &RuntimeConfig,
    start: Instant,
    inboxes: &[Sender<NodeEvent<M>>],
    rx: &Receiver<EtherMsg<M>>,
    broadcasts: &AtomicU64,
    deliveries: &AtomicU64,
) {
    let n = topo.len();
    let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(0x5EED));
    let mut heap: BinaryHeap<PendingDelivery<M>> = BinaryHeap::new();
    let mut ledger = BcastLedger::new(n);
    for c in &cfg.crashes {
        ledger.arm_watch(c.slot, c.nth_broadcast, c.delivered);
    }
    // Timed-crash deadlines, soonest LAST (so firing pops from the
    // back). Per-broadcast sender ids let a crash cancel the dead
    // node's still-queued deliveries, mirroring the engine's
    // cancel-on-crash semantics.
    let mut timed: Vec<(Instant, usize)> = cfg
        .timed_crashes
        .iter()
        .map(|c| (start + c.at, c.slot))
        .collect();
    timed.sort_by(|a, b| b.cmp(a));
    let mut bcast_sender: Vec<usize> = Vec::new();
    let mut next_bcast = 0u64;
    let mut seq = 0u64;

    // Kills `node`: marks it crashed in the ledger, stops its thread,
    // and delivers any acks its death releases (acks wait for
    // non-faulty neighbors only).
    let crash_node = |ledger: &mut BcastLedger, node: usize| {
        if !ledger.mark_crashed(node) {
            return;
        }
        let _ = inboxes[node].send(NodeEvent::Stop);
        for (_bcast, sender) in ledger.release_obligations_of(node) {
            let _ = inboxes[sender].send(NodeEvent::Ack);
        }
    };

    let mut schedule = |heap: &mut BinaryHeap<PendingDelivery<M>>,
                        rng: &mut SmallRng,
                        to: usize,
                        msg: M,
                        bcast: u64| {
        let jitter_us = if cfg.max_jitter.is_zero() {
            0
        } else {
            rng.gen_range(0..cfg.max_jitter.as_micros() as u64)
        };
        heap.push(PendingDelivery {
            due: Instant::now() + Duration::from_micros(jitter_us),
            seq,
            to,
            msg,
            bcast,
        });
        seq += 1;
    };

    loop {
        // Fire due timed crashes and flush due deliveries in deadline
        // order — the order matters because a crash cancels the dead
        // sender's still-queued deliveries (the engine's
        // cancel-on-crash semantics: a broadcast cut off by AtTime
        // reaches nobody else).
        let now = Instant::now();
        loop {
            let next_crash = timed.last().map(|&(due, _)| due);
            let next_deliv = heap.peek().map(|d| d.due);
            match (next_crash, next_deliv) {
                (Some(c), d) if c <= now && d.is_none_or(|d| c <= d) => {
                    let (_, slot) = timed.pop().expect("peeked");
                    crash_node(&mut ledger, slot);
                    let kept: Vec<PendingDelivery<M>> = std::mem::take(&mut heap)
                        .into_vec()
                        .into_iter()
                        .filter(|d| bcast_sender[d.bcast as usize] != slot)
                        .collect();
                    heap = BinaryHeap::from(kept);
                }
                (_, Some(due)) if due <= now => {
                    let d = heap.pop().expect("peeked");
                    if ledger.is_crashed(d.to) {
                        // A dead receiver never confirms; its
                        // obligation is excused, which may complete
                        // the sender's ack.
                        if let Some(sender) = ledger.confirm(d.bcast, d.to) {
                            let _ = inboxes[sender].send(NodeEvent::Ack);
                        }
                        continue;
                    }
                    deliveries.fetch_add(1, Ordering::Relaxed);
                    let _ = inboxes[d.to].send(NodeEvent::Deliver {
                        msg: d.msg,
                        bcast: d.bcast,
                    });
                }
                _ => break,
            }
        }
        // Wait for traffic or the next deadline.
        let deadline = match (
            timed.last().map(|&(due, _)| due),
            heap.peek().map(|d| d.due),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let timeout = deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50));
        let msg = match rx.recv_timeout(timeout) {
            Ok(m) => m,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        match msg {
            EtherMsg::Broadcast { from, msg } => {
                if ledger.is_crashed(from) {
                    continue;
                }
                broadcasts.fetch_add(1, Ordering::Relaxed);
                let bcast = next_bcast;
                next_bcast += 1;
                debug_assert_eq!(bcast_sender.len() as u64, bcast);
                bcast_sender.push(from);
                let alive_neighbors: Vec<usize> = topo
                    .neighbors(Slot(from))
                    .iter()
                    .map(|s| s.index())
                    .filter(|&v| !ledger.is_crashed(v))
                    .collect();

                match ledger.admit_broadcast(from, bcast) {
                    Admission::CrashImmediately => {
                        // The planned crash interrupts before any
                        // delivery: nobody receives, nobody acks.
                        crash_node(&mut ledger, from);
                    }
                    Admission::PartialThenCrash { delivered } => {
                        // The sender dies now and is never acked; at
                        // most `delivered` neighbors receive. The
                        // prefix is taken over ALL neighbors — a slot
                        // falling on a dead receiver is consumed and
                        // lost at the flush above, matching the
                        // engine, where a scheduled delivery to a dead
                        // receiver also consumes its countdown slot.
                        crash_node(&mut ledger, from);
                        for &to in topo.neighbors(Slot(from)).iter().take(delivered) {
                            schedule(&mut heap, &mut rng, to.index(), msg.clone(), bcast);
                        }
                    }
                    Admission::Deliver => {
                        let awaiting = alive_neighbors.iter().copied().collect();
                        if ledger.register_ack_obligation(bcast, from, awaiting) {
                            // Degenerate: nothing to deliver, ack
                            // immediately.
                            let _ = inboxes[from].send(NodeEvent::Ack);
                            continue;
                        }
                        for &to in &alive_neighbors {
                            schedule(&mut heap, &mut rng, to, msg.clone(), bcast);
                        }
                    }
                }
            }
            EtherMsg::Confirm { bcast, by } => {
                if let Some(sender) = ledger.confirm(bcast, by) {
                    let _ = inboxes[sender].send(NodeEvent::Ack);
                }
            }
            EtherMsg::Stop => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amacl_model::msg::Payload;
    use amacl_model::proc::Context;

    #[derive(Clone, Debug)]
    struct Token(u64);
    impl Payload for Token {
        fn id_count(&self) -> usize {
            1
        }
    }

    /// Floods a token once; decides the minimum origin value seen after
    /// its own broadcast completes and it has heard all peers (clique
    /// only, n known).
    struct MinOnce {
        n: usize,
        own: u64,
        seen: std::collections::BTreeSet<u64>,
        acked: bool,
    }

    impl Process for MinOnce {
        type Msg = Token;
        fn on_start(&mut self, ctx: &mut Context<'_, Token>) {
            self.seen.insert(self.own);
            ctx.broadcast(Token(self.own));
        }
        fn on_receive(&mut self, msg: Token, ctx: &mut Context<'_, Token>) {
            self.seen.insert(msg.0);
            self.maybe_decide(ctx);
        }
        fn on_ack(&mut self, ctx: &mut Context<'_, Token>) {
            self.acked = true;
            self.maybe_decide(ctx);
        }
    }

    impl MinOnce {
        fn maybe_decide(&mut self, ctx: &mut Context<'_, Token>) {
            if self.acked && self.seen.len() == self.n && ctx.decided().is_none() {
                ctx.decide(*self.seen.iter().next().unwrap());
            }
        }
    }

    fn cfg(seed: u64) -> RuntimeConfig {
        RuntimeConfig {
            max_jitter: Duration::from_micros(200),
            seed,
            timeout: Duration::from_secs(10),
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn clique_flood_decides_min() {
        let n = 5;
        let rt = MacRuntime::new(Topology::clique(n), cfg(1));
        let report = rt.run(|s| MinOnce {
            n,
            own: 10 + s.index() as u64,
            seen: Default::default(),
            acked: false,
        });
        assert!(report.all_decided, "undecided: {:?}", report.decisions);
        assert_eq!(report.decided_values(), vec![10]);
        assert_eq!(report.broadcasts, n as u64);
        assert_eq!(report.deliveries, (n * (n - 1)) as u64);
    }

    /// Relay flood over a clique: forwards the minimum seen, re-sending
    /// whenever it learns a smaller value; decides after `rounds` acks.
    struct RelayMin {
        best: u64,
        rounds_left: u64,
        dirty: bool,
    }

    impl Process for RelayMin {
        type Msg = Token;
        fn on_start(&mut self, ctx: &mut Context<'_, Token>) {
            ctx.broadcast(Token(self.best));
        }
        fn on_receive(&mut self, msg: Token, ctx: &mut Context<'_, Token>) {
            if msg.0 < self.best {
                self.best = msg.0;
                self.dirty = true;
            }
            if self.dirty && !ctx.is_busy() {
                self.dirty = false;
                ctx.broadcast(Token(self.best));
            }
        }
        fn on_ack(&mut self, ctx: &mut Context<'_, Token>) {
            self.rounds_left = self.rounds_left.saturating_sub(1);
            if self.rounds_left == 0 {
                ctx.decide(self.best);
            } else {
                ctx.broadcast(Token(self.best));
            }
        }
    }

    /// What a [`GatherMin`] has heard: a bitmask of the slots whose
    /// values it holds, and the least of them.
    #[derive(Clone, Debug)]
    struct Heard {
        slots: u64,
        min: u64,
    }
    impl Payload for Heard {
        fn id_count(&self) -> usize {
            0
        }
    }

    /// Gather flood for multihop: relays whenever its set of heard
    /// slots grows, and decides once, the minimum, when all `n` are in
    /// — so no value can arrive after its decision.
    struct GatherMin {
        n: usize,
        heard: Heard,
        dirty: bool,
    }

    impl GatherMin {
        fn relay(&mut self, ctx: &mut Context<'_, Heard>) {
            if self.dirty && !ctx.is_busy() {
                self.dirty = false;
                ctx.broadcast(self.heard.clone());
            }
            if self.heard.slots.count_ones() as usize == self.n && ctx.decided().is_none() {
                ctx.decide(self.heard.min);
            }
        }
    }

    impl Process for GatherMin {
        type Msg = Heard;
        fn on_start(&mut self, ctx: &mut Context<'_, Heard>) {
            self.relay(ctx);
        }
        fn on_receive(&mut self, msg: Heard, ctx: &mut Context<'_, Heard>) {
            if msg.slots & !self.heard.slots != 0 {
                self.heard.slots |= msg.slots;
                self.heard.min = self.heard.min.min(msg.min);
                self.dirty = true;
            }
            self.relay(ctx);
        }
        fn on_ack(&mut self, ctx: &mut Context<'_, Heard>) {
            self.relay(ctx);
        }
    }

    #[test]
    fn multihop_relay_converges_on_a_line() {
        let n = 6;
        let rt = MacRuntime::new(Topology::line(n), cfg(2));
        let report = rt.run(|s| GatherMin {
            n,
            heard: Heard {
                slots: 1 << s.index(),
                min: 100 - s.index() as u64,
            },
            dirty: true,
        });
        assert!(report.all_decided, "{:?}", report.decisions);
        assert_eq!(report.decided_values(), vec![100 - (n as u64 - 1)]);
    }

    /// Records how its broadcasts interleave with its ack, proving the
    /// ack-after-all-processing discipline.
    struct AckProbe {
        got_ack: bool,
    }

    impl Process for AckProbe {
        type Msg = Token;
        fn on_start(&mut self, ctx: &mut Context<'_, Token>) {
            ctx.broadcast(Token(ctx.id().raw()));
            // A second attempt while busy must be discarded.
            assert!(!ctx.broadcast(Token(99)).is_accepted());
        }
        fn on_receive(&mut self, _msg: Token, _ctx: &mut Context<'_, Token>) {}
        fn on_ack(&mut self, ctx: &mut Context<'_, Token>) {
            self.got_ack = true;
            ctx.decide(0);
        }
    }

    #[test]
    fn acks_arrive_and_busy_broadcasts_are_discarded() {
        let rt = MacRuntime::new(Topology::ring(4), cfg(3));
        let report = rt.run(|_| AckProbe { got_ack: false });
        assert!(report.all_decided);
        assert_eq!(report.broadcasts, 4);
    }

    #[test]
    fn mid_broadcast_crash_stops_the_node_and_frees_peers() {
        // Node 0 crashes during its first broadcast with only one
        // delivery. Peers must still receive acks (their obligation
        // toward the dead node is released) and finish their rounds.
        let n = 4;
        let mut config = cfg(9);
        config.crashes = vec![RuntimeCrash {
            slot: 0,
            nth_broadcast: 0,
            delivered: 1,
        }];
        let rt = MacRuntime::new(Topology::clique(n), config);
        let report = rt.run(|s| RelayMin {
            best: 50 + s.index() as u64,
            rounds_left: 6,
            dirty: false,
        });
        assert!(report.all_decided, "{:?}", report.decisions);
        assert!(report.decisions[0].is_none(), "crashed node decided");
        // Exactly one neighbor heard the crashed node's value (50, the
        // global minimum); because survivors relay their best value,
        // all of them converge on it anyway.
        let survivors: std::collections::BTreeSet<u64> =
            report.decisions[1..].iter().flatten().copied().collect();
        assert_eq!(
            survivors,
            std::collections::BTreeSet::from([50]),
            "survivors did not converge on the partially-delivered minimum"
        );
    }

    #[test]
    fn timed_crash_kills_the_node_and_frees_peers() {
        // Node 0 dies at a wall-clock instant effectively before it
        // can act (the ether fires the deadline on its first pass, so
        // node 0's broadcast is refused). Survivors must still
        // receive acks and converge; node 0 never decides.
        let n = 5;
        let mut config = cfg(21);
        config.timed_crashes = vec![TimedCrash {
            slot: 0,
            at: Duration::ZERO,
        }];
        let rt = MacRuntime::new(Topology::clique(n), config);
        let report = rt.run(|s| RelayMin {
            best: 30 + s.index() as u64,
            rounds_left: 6,
            dirty: false,
        });
        assert!(report.all_decided, "{:?}", report.decisions);
        assert!(report.decisions[0].is_none(), "crashed node decided");
        let survivors: std::collections::BTreeSet<u64> =
            report.decisions[1..].iter().flatten().copied().collect();
        // Node 0's value (30, the global minimum) dies with it when
        // its broadcast is refused; survivors converge on 31. If the
        // race admits the broadcast first, cancellation may still let
        // 30 through to a prefix — either way agreement holds.
        assert_eq!(survivors.len(), 1, "disagreement: {:?}", report.decisions);
        assert!(
            survivors
                .iter()
                .next()
                .is_some_and(|v| *v == 30 || *v == 31),
            "unexpected value: {survivors:?}"
        );
    }

    #[test]
    fn crash_specs_route_into_the_runtime_config() {
        use amacl_model::ids::Slot;

        let config = RuntimeConfig::default().with_crash_specs(
            &[
                CrashSpec::AtTime {
                    slot: Slot(1),
                    time: Time(3),
                },
                CrashSpec::MidBroadcast {
                    slot: Slot(2),
                    nth_broadcast: 1,
                    delivered: 2,
                },
            ],
            Duration::from_millis(1),
        );
        assert_eq!(config.timed_crashes.len(), 1);
        assert_eq!(config.timed_crashes[0].slot, 1);
        assert_eq!(config.timed_crashes[0].at, Duration::from_millis(3));
        assert_eq!(config.crashes.len(), 1);
        assert_eq!(config.crashes[0].slot, 2);
        assert_eq!(config.crashes[0].nth_broadcast, 1);
        assert_eq!(config.crashes[0].delivered, 2);
    }

    #[test]
    fn zero_jitter_configuration_works() {
        let rt = MacRuntime::new(
            Topology::clique(3),
            RuntimeConfig {
                max_jitter: Duration::ZERO,
                ..cfg(4)
            },
        );
        let report = rt.run(|s| MinOnce {
            n: 3,
            own: s.index() as u64,
            seen: Default::default(),
            acked: false,
        });
        assert!(report.all_decided);
        assert_eq!(report.decided_values(), vec![0]);
    }

    #[test]
    fn runtime_runs_through_the_mac_layer_trait() {
        let mut rt = MacRuntime::new(Topology::clique(4), cfg(7));
        let layer: &mut dyn MacLayer<MinOnce> = &mut rt;
        assert_eq!(layer.backend_name(), "threads");
        let report = layer.execute(&mut |s| MinOnce {
            n: 4,
            own: 20 + s.index() as u64,
            seen: Default::default(),
            acked: false,
        });
        assert!(report.all_decided);
        assert_eq!(report.backend, "threads");
        assert_eq!(report.decided_values(), vec![20]);
        assert_eq!(report.agreement_value(), Some(20));
    }
}
