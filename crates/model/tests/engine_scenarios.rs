//! Engine-level integration scenarios: scheduler/crash/overlay
//! interplay, pause-resume semantics, and metric accounting.

use amacl_model::msg::Payload;
use amacl_model::prelude::*;
use amacl_model::proc::Context;
use amacl_model::sim::conformance::check_trace;
use amacl_model::topo::unreliable::UnreliableOverlay;

/// Flood-and-count probe used throughout.
struct Probe {
    relay: bool,
    relayed: bool,
    received: u64,
    acks: u64,
}

impl Probe {
    fn new(start: bool) -> Self {
        Self {
            relay: start,
            relayed: false,
            received: 0,
            acks: 0,
        }
    }
}

#[derive(Clone, Debug)]
struct Tok;
impl Payload for Tok {
    fn id_count(&self) -> usize {
        0
    }
}

impl Process for Probe {
    type Msg = Tok;
    fn on_start(&mut self, ctx: &mut Context<'_, Tok>) {
        if self.relay {
            self.relayed = true;
            ctx.broadcast(Tok);
        }
    }
    fn on_receive(&mut self, _m: Tok, ctx: &mut Context<'_, Tok>) {
        self.received += 1;
        if !self.relayed {
            self.relayed = true;
            ctx.broadcast(Tok);
        }
    }
    fn on_ack(&mut self, _ctx: &mut Context<'_, Tok>) {
        self.acks += 1;
    }
}

#[test]
fn max_delay_wavefront_is_exactly_hop_times_f_ack() {
    for f_ack in [1u64, 3, 9] {
        let mut sim = SimBuilder::new(Topology::line(7), |s| Probe::new(s.index() == 0))
            .scheduler(MaxDelayScheduler::new(f_ack))
            .trace(true)
            .stop_when_all_decided(false)
            .build();
        sim.run();
        // Node i first receives the wave at exactly i * f_ack.
        let mut first_recv = [None; 7];
        for ev in sim.trace().events() {
            if let amacl_model::sim::trace::TraceEvent::Deliver { time, to, .. } = ev {
                first_recv[to.index()].get_or_insert(*time);
            }
        }
        for i in 1..7u64 {
            assert_eq!(
                first_recv[i as usize],
                Some(Time(i * f_ack)),
                "F_ack={f_ack}, node {i}"
            );
        }
    }
}

#[test]
fn run_until_is_idempotent_at_the_same_time() {
    let mut sim = SimBuilder::new(Topology::line(5), |s| Probe::new(s.index() == 0))
        .scheduler(SynchronousScheduler::new(1))
        .stop_when_all_decided(false)
        .build();
    sim.run_until(Time(2));
    let received_at_2: Vec<u64> = (0..5).map(|i| sim.process(Slot(i)).received).collect();
    sim.run_until(Time(2));
    let received_again: Vec<u64> = (0..5).map(|i| sim.process(Slot(i)).received).collect();
    assert_eq!(received_at_2, received_again);
    assert_eq!(sim.now(), Time(2));
    // And time never goes backwards.
    sim.run_until(Time(1));
    assert_eq!(sim.now(), Time(2));
}

#[test]
fn unreliable_overlay_delivers_probabilistically() {
    // With p = 1 every overlay edge fires on every broadcast; with
    // p = 0 none do.
    let base = Topology::line(4);
    let overlay = UnreliableOverlay::new(&base, &[(0, 2), (0, 3)]);
    for (p, expect_extra) in [(1.0, true), (0.0, false)] {
        let mut sim = SimBuilder::new(base.clone(), |s| Probe::new(s.index() == 0))
            .scheduler(SynchronousScheduler::new(1))
            .unreliable(overlay.clone(), p)
            .stop_when_all_decided(false)
            .build();
        let report = sim.run();
        if expect_extra {
            assert!(
                report.metrics.unreliable_deliveries > 0,
                "p=1 delivered nothing"
            );
            // Nodes 2 and 3 heard node 0 directly despite no edge.
            assert!(sim.process(Slot(2)).received >= 2);
        } else {
            assert_eq!(report.metrics.unreliable_deliveries, 0);
        }
    }
}

#[test]
fn unreliable_deliveries_do_not_gate_acks() {
    // Even at p = 1, the ack schedule is unchanged: overlay targets are
    // not neighbors.
    let base = Topology::line(3);
    let overlay = UnreliableOverlay::new(&base, &[(0, 2)]);
    let mut sim = SimBuilder::new(base, |s| Probe::new(s.index() == 0))
        .scheduler(MaxDelayScheduler::new(4))
        .unreliable(overlay.clone(), 1.0)
        .trace(true)
        .stop_when_all_decided(false)
        .build();
    sim.run();
    let audit = check_trace(sim.topology(), sim.trace(), Some(4), Some(&overlay));
    audit.assert_ok();
}

#[test]
fn edge_delay_cut_plus_crash_interact_cleanly() {
    // A cut delays node 0's messages; node 0 also crashes before the
    // release. Nothing from node 0 is ever delivered, and the rest of
    // the run conforms.
    let topo = Topology::clique(4);
    let all: Vec<Slot> = topo.slots().collect();
    let mut sim = SimBuilder::new(topo, |s| Probe::new(s.index() == 0))
        .scheduler(EdgeDelayScheduler::new(
            SynchronousScheduler::new(1),
            vec![DirectedCut::new([Slot(0)], all, Time(100))],
        ))
        .crashes(CrashPlan::new(vec![CrashSpec::AtTime {
            slot: Slot(0),
            time: Time(10),
        }]))
        .trace(true)
        .stop_when_all_decided(false)
        .max_time(Time(500))
        .build();
    let report = sim.run();
    assert_eq!(report.metrics.crashes, 1);
    assert_eq!(
        report.metrics.deliveries, 0,
        "the cut + crash silenced node 0"
    );
    for i in 1..4 {
        assert_eq!(sim.process(Slot(i)).received, 0);
    }
    let audit = check_trace(sim.topology(), sim.trace(), None, None);
    audit.assert_ok();
}

#[test]
fn metrics_account_broadcasts_deliveries_acks_consistently() {
    for seed in 0..10u64 {
        let topo = Topology::random_connected(9, 0.25, seed);
        let degree_sum: u64 = topo.slots().map(|s| topo.degree(s) as u64).sum();
        let mut sim = SimBuilder::new(topo, |s| Probe::new(s.index() == 0))
            .scheduler(RandomScheduler::new(5, seed))
            .stop_when_all_decided(false)
            .build();
        let report = sim.run();
        // Everyone broadcasts exactly once (initiator at start, others
        // on first receive), so deliveries equal the degree sum and
        // acks equal n.
        assert_eq!(report.metrics.broadcasts, 9, "seed {seed}");
        assert_eq!(report.metrics.acks, 9, "seed {seed}");
        assert_eq!(report.metrics.deliveries, degree_sum, "seed {seed}");
        assert_eq!(report.metrics.busy_discards, 0, "seed {seed}");
    }
}

#[test]
fn scripted_scheduler_orders_cross_node_races_exactly() {
    // Slot 1's broadcast outruns slot 0's: node 2 (adjacent to both)
    // hears 1 first even though 0 started in the same instant.
    struct Order {
        start: bool,
        log: Vec<Time>,
    }
    #[derive(Clone, Debug)]
    struct T2;
    impl Payload for T2 {
        fn id_count(&self) -> usize {
            0
        }
    }
    impl Process for Order {
        type Msg = T2;
        fn on_start(&mut self, ctx: &mut Context<'_, T2>) {
            if self.start {
                ctx.broadcast(T2);
            }
        }
        fn on_receive(&mut self, _m: T2, ctx: &mut Context<'_, T2>) {
            self.log.push(ctx.now());
        }
        fn on_ack(&mut self, _ctx: &mut Context<'_, T2>) {}
    }
    let topo = Topology::from_edges(3, &[(0, 2), (1, 2)]);
    let mut sim = SimBuilder::new(topo, |s| Order {
        start: s.index() < 2,
        log: Vec::new(),
    })
    .scheduler(
        ScriptedScheduler::new(1)
            .delay(Slot(0), 0, 9)
            .delay(Slot(1), 0, 2),
    )
    .stop_when_all_decided(false)
    .build();
    sim.run();
    assert_eq!(sim.process(Slot(2)).log, vec![Time(2), Time(9)]);
}

/// No payload outlives its delivery run. A flood relays one shared
/// `Arc` on clique(64): node 9 crashes at t = 50 while every delivery
/// to it is held back to t = 100 — so each run that reaches node 9
/// ends on a crashed receiver, the last event of the execution — and
/// node 5 crashes after 20 deliveries of its broadcast, which voids
/// the rest of its runs. Once the engine is quiescent, every copy the
/// runs held must be gone while the simulation is still alive: at
/// every shard count, and through the worker pool.
#[test]
fn no_payload_outlives_its_run() {
    use std::sync::Arc;

    #[derive(Clone, Debug)]
    struct Held(Arc<()>);
    impl Payload for Held {
        fn id_count(&self) -> usize {
            0
        }
    }
    struct Relay {
        seed: Option<Arc<()>>,
        relayed: bool,
    }
    impl Process for Relay {
        type Msg = Held;
        fn on_start(&mut self, ctx: &mut Context<'_, Held>) {
            if let Some(a) = self.seed.take() {
                self.relayed = true;
                ctx.broadcast(Held(a));
            }
        }
        fn on_receive(&mut self, m: Held, ctx: &mut Context<'_, Held>) {
            if !self.relayed {
                self.relayed = true;
                ctx.broadcast(Held(m.0));
            }
        }
        fn on_ack(&mut self, _ctx: &mut Context<'_, Held>) {}
    }

    let n = 64;
    for (shards, pool) in [(1, None), (2, None), (4, None), (4, Some(2))] {
        let label = format!("S={shards} pool={pool:?}");
        let token = Arc::new(());
        let all: Vec<Slot> = (0..n).map(Slot).collect();
        let builder = SimBuilder::new(Topology::clique(n), |s| Relay {
            seed: (s.index() == 0).then(|| token.clone()),
            relayed: false,
        })
        .scheduler(EdgeDelayScheduler::new(
            RandomScheduler::new(8, 3),
            vec![DirectedCut::new(all, [Slot(9)], Time(100))],
        ))
        .crashes(CrashPlan::new(vec![
            CrashSpec::AtTime {
                slot: Slot(9),
                time: Time(50),
            },
            CrashSpec::MidBroadcast {
                slot: Slot(5),
                nth_broadcast: 0,
                delivered: 20,
            },
        ]))
        .stop_when_all_decided(false)
        .shards(shards);
        let mut sim = match pool {
            Some(workers) => builder.threads(4).debug_force_pool_workers(workers),
            None => builder,
        }
        .build();
        let report = sim.run();
        assert_eq!(report.outcome, RunOutcome::Quiescent, "{label}");
        assert_eq!(report.metrics.crashes, 2, "{label}");
        assert!(report.metrics.queue_cancellations > 0, "{label}");
        assert!(report.metrics.payload_clones > 0, "{label}");
        assert_eq!(
            Arc::strong_count(&token),
            1,
            "{label}: a payload outlived its run"
        );
    }
}
