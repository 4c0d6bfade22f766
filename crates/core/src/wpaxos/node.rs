//! The assembled wPAXOS node: Paxos logic wired to the support
//! services through the broadcast multiplexer (Algorithm 5).

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use amacl_model::ids::NodeId;
use amacl_model::prelude::*;

use super::msgs::{AcceptorMsg, ProposalNum, ProposerMsg, RespKind, WMsg};
use super::paxos::{Acceptor, Proposer, ProposerAction, Response};
use super::services::{AcceptorQueue, ChangeService, LeaderService, ProposerFlood, TreeService};
use super::WpaxosConfig;

/// Instrumentation counters exposed for the analysis experiments
/// (Lemma 4.2's count invariant, Lemma 4.4's tag bound, and the E8
/// ablations).
#[derive(Clone, Debug, Default)]
pub struct WpaxosStats {
    /// Change-service notifications that ran `UpdateQ` (local changes
    /// plus accepted remote announcements).
    pub change_updates: u64,
    /// Affirmative responses *generated* by this node's acceptor, per
    /// proposition — the `a(p)` side of Lemma 4.2.
    pub affirmative_generated: BTreeMap<(ProposalNum, RespKind), u64>,
    /// Responses *counted* by this node's proposer, per proposition —
    /// the `c(p)` side of Lemma 4.2.
    pub responses_counted: BTreeMap<(ProposalNum, RespKind), u64>,
    /// Responses dropped because no parent toward the proposer was
    /// known yet (only possible before the tree stabilizes; safety is
    /// unaffected, per Lemma 4.2).
    pub responses_dropped_no_parent: u64,
}

/// One wPAXOS node. Construct with [`WpaxosNode::new`] or the
/// [`wpaxos_node`](super::wpaxos_node) helper, then run it in a
/// [`Sim`].
#[derive(Clone, Debug)]
pub struct WpaxosNode {
    input: Value,
    cfg: WpaxosConfig,
    inner: Option<Inner>,
    stats: WpaxosStats,
    /// Reusable fixed-point work stack for
    /// [`Self::process_proposer_msg`] — empty between messages, kept
    /// for its capacity so the per-delivery hot path never allocates.
    work_stack: Vec<ProposerMsg>,
}

/// State that exists only once the node knows its own id (assigned by
/// the MAC layer at start).
#[derive(Clone, Debug)]
struct Inner {
    me: NodeId,
    leader: LeaderService,
    change: ChangeService,
    tree: TreeService,
    pflood: ProposerFlood,
    aqueue: AcceptorQueue,
    acceptor: Acceptor,
    proposer: Proposer,
    decided: Option<Value>,
    /// Largest proposal number observed from the current leader; the
    /// acceptor queue is pruned to it (the paper's queue invariant).
    best_leader_pn: Option<ProposalNum>,
    /// Flood-mode dedup of relayed responses by (origin, proposition,
    /// kind).
    flood_seen: BTreeSet<(u64, u64, u64, RespKind)>,
}

impl WpaxosNode {
    /// Creates a node with the given input value and configuration.
    pub fn new(input: Value, cfg: WpaxosConfig) -> Self {
        Self {
            input,
            cfg,
            inner: None,
            stats: WpaxosStats::default(),
            work_stack: Vec::new(),
        }
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> &WpaxosStats {
        &self.stats
    }

    /// Current leader estimate `Ω`, once started.
    pub fn omega(&self) -> Option<NodeId> {
        self.inner.as_ref().map(|i| i.leader.omega())
    }

    /// The value this node has decided, if any.
    pub fn decided_value(&self) -> Option<Value> {
        self.inner.as_ref().and_then(|i| i.decided)
    }

    /// Number of Paxos proposals this node has started.
    pub fn proposals_started(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.proposer.proposals_started())
    }

    /// Largest proposal tag observed (Lemma 4.4 instrumentation).
    pub fn max_tag_seen(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.proposer.max_tag_seen())
    }

    /// Best-known hop distance to `root`'s tree, once started.
    pub fn dist_to(&self, root: NodeId) -> Option<u32> {
        self.inner.as_ref().and_then(|i| i.tree.dist_of(root))
    }

    /// Current parent toward `root`, once started.
    pub fn parent_of(&self, root: NodeId) -> Option<NodeId> {
        self.inner.as_ref().and_then(|i| i.tree.parent_of(root))
    }

    fn inner(&mut self) -> &mut Inner {
        self.inner.as_mut().expect("node started")
    }

    /// Records a local change (`Ω` or a `dist` entry updated): bumps
    /// the change service and, when this node believes itself leader,
    /// generates a new proposal (Algorithm 3's `UpdateQ`).
    fn local_change(&mut self, ctx: &mut Context<'_, WMsg>) {
        let ts = ctx.timestamp();
        let me = self.inner().me;
        self.inner().change.local_change(ts, me);
        self.stats.change_updates += 1;
        self.maybe_generate(ctx);
    }

    /// `GenerateNewPAXOSProposal` gate: only the self-believed leader,
    /// and only before deciding.
    fn maybe_generate(&mut self, ctx: &mut Context<'_, WMsg>) {
        let inner = self.inner();
        if inner.decided.is_some() || inner.leader.omega() != inner.me {
            return;
        }
        let me = inner.me;
        let action = inner.proposer.on_change(me);
        self.handle_action(action, ctx);
    }

    fn handle_action(&mut self, action: ProposerAction, ctx: &mut Context<'_, WMsg>) {
        match action {
            ProposerAction::None => {}
            ProposerAction::Emit(m) => self.process_proposer_msg(m, ctx),
            ProposerAction::Decide(v) => self.adopt_decision(v, ctx),
        }
    }

    fn adopt_decision(&mut self, value: Value, ctx: &mut Context<'_, WMsg>) {
        let inner = self.inner();
        if inner.decided.is_none() {
            inner.decided = Some(value);
            ctx.decide(value);
        }
    }

    /// Tracks the largest proposal number seen from the current leader
    /// and prunes stale queued responses (the paper's acceptor-queue
    /// invariant).
    fn note_pn(&mut self, pn: ProposalNum) {
        let inner = self.inner();
        inner.proposer.observe_pn(pn);
        if pn.id == inner.leader.omega() && inner.best_leader_pn.is_none_or(|b| pn > b) {
            inner.best_leader_pn = Some(pn);
            inner.aqueue.prune_except(pn);
        }
    }

    /// Processes a prepare/propose/decide, whether received from the
    /// network or emitted by the local proposer: flood-forward it, let
    /// the local acceptor answer, and route the answer. Proposer
    /// reactions (e.g. a majority completing) are processed to a fixed
    /// point — on a singleton network a proposal races from prepare to
    /// decision entirely locally.
    fn process_proposer_msg(&mut self, first: ProposerMsg, ctx: &mut Context<'_, WMsg>) {
        // Reuse the node's scratch stack (this function never
        // re-enters itself: `Emit` actions are pushed, not dispatched,
        // and `handle_action` is only called for the other variants).
        let mut work = std::mem::take(&mut self.work_stack);
        debug_assert!(work.is_empty());
        work.push(first);
        while let Some(pm) = work.pop() {
            if let ProposerMsg::Decide { value } = pm {
                self.adopt_decision(value, ctx);
                continue;
            }
            let pn = pm.pn().expect("prepare/propose carries a pn");
            self.note_pn(pn);
            let omega = self.inner().leader.omega();
            self.inner().pflood.offer(pm, omega);
            let response = self.inner().acceptor.handle(&pm);
            let Some(resp) = response else { continue };
            if resp.kind.is_affirmative() {
                *self
                    .stats
                    .affirmative_generated
                    .entry((resp.about, resp.kind))
                    .or_insert(0) += 1;
            }
            let me = self.inner().me;
            if resp.about.id == me {
                // Our own acceptor answering our own proposition:
                // deliver directly to the proposer role.
                let action = self.count_response(resp.about, resp.kind, 1, resp.prev, resp.hint);
                if let ProposerAction::Emit(m) = action {
                    work.push(m);
                } else {
                    self.handle_action(action, ctx);
                }
            } else {
                self.route_response(resp);
            }
        }
        self.work_stack = work;
    }

    /// Feeds an aggregated response to the local proposer, recording
    /// `c(p)` for the Lemma 4.2 check.
    fn count_response(
        &mut self,
        about: ProposalNum,
        kind: RespKind,
        count: u64,
        prev: Option<(ProposalNum, Value)>,
        hint: Option<ProposalNum>,
    ) -> ProposerAction {
        *self
            .stats
            .responses_counted
            .entry((about, kind))
            .or_insert(0) += count;
        let inner = self.inner();
        let me = inner.me;
        let still_leader = inner.leader.omega() == me;
        inner
            .proposer
            .on_response(about, kind, count, prev, hint, me, still_leader)
    }

    /// Queues a freshly generated local response toward its proposer.
    fn route_response(&mut self, resp: Response) {
        let me = self.inner().me;
        if self.cfg.route_via_tree {
            match self.inner().tree.parent_of(resp.about.id) {
                Some(parent) => self.inner().aqueue.push(AcceptorMsg {
                    dest: parent,
                    about: resp.about,
                    kind: resp.kind,
                    count: 1,
                    prev: resp.prev,
                    hint: resp.hint,
                    origin: None,
                }),
                None => self.stats.responses_dropped_no_parent += 1,
            }
        } else {
            let key = (me.raw(), resp.about.tag, resp.about.id.raw(), resp.kind);
            self.inner().flood_seen.insert(key);
            self.inner().aqueue.push(AcceptorMsg {
                dest: resp.about.id,
                about: resp.about,
                kind: resp.kind,
                count: 1,
                prev: resp.prev,
                hint: resp.hint,
                origin: Some(me),
            });
        }
    }

    /// Handles a received in-transit acceptor response: consume it if
    /// we are its proposer, relay it otherwise.
    fn handle_acceptor_msg(&mut self, am: AcceptorMsg, ctx: &mut Context<'_, WMsg>) {
        let me = self.inner().me;
        if self.cfg.route_via_tree {
            if am.dest != me {
                return; // unicast discipline: not addressed to us
            }
            if am.about.id == me {
                let action = self.count_response(am.about, am.kind, am.count, am.prev, am.hint);
                self.handle_action(action, ctx);
            } else {
                match self.inner().tree.parent_of(am.about.id) {
                    Some(parent) => self.inner().aqueue.push(AcceptorMsg { dest: parent, ..am }),
                    None => self.stats.responses_dropped_no_parent += 1,
                }
            }
        } else {
            let origin = am.origin.expect("flood-mode responses carry origins");
            let key = (origin.raw(), am.about.tag, am.about.id.raw(), am.kind);
            if !self.inner().flood_seen.insert(key) {
                return; // already relayed / counted
            }
            if am.about.id == me {
                let action = self.count_response(am.about, am.kind, 1, am.prev, am.hint);
                self.handle_action(action, ctx);
            } else {
                self.inner().aqueue.push(am);
            }
        }
    }

    /// The broadcast service (Algorithm 5): pack one message from each
    /// non-empty queue and broadcast, unless a broadcast is already
    /// outstanding. A decided node announces the decision in every
    /// message it sends.
    fn maybe_send(&mut self, ctx: &mut Context<'_, WMsg>) {
        if ctx.is_busy() {
            return;
        }
        let inner = self.inner.as_mut().expect("node started");
        let proposer_part = match inner.decided {
            Some(value) => Some(ProposerMsg::Decide { value }),
            None => inner.pflood.pop(),
        };
        let msg = WMsg {
            sender: Some(inner.me),
            leader: inner.leader.pop(),
            change: inner.change.pop(),
            search: inner.tree.pop(),
            proposer: proposer_part,
            acceptor: inner.aqueue.pop(),
        };
        if !msg.is_empty() {
            ctx.broadcast(msg);
        }
    }
}

impl Process for WpaxosNode {
    type Msg = WMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, WMsg>) {
        let me = ctx.id();
        self.inner = Some(Inner {
            me,
            leader: LeaderService::new(me),
            change: ChangeService::new(),
            tree: TreeService::new(me, self.cfg.leader_priority),
            pflood: ProposerFlood::new(),
            aqueue: AcceptorQueue::new(self.cfg.aggregate),
            acceptor: Acceptor::new(),
            proposer: Proposer::new(self.input, self.cfg.n as u64),
            decided: None,
            best_leader_pn: None,
            flood_seen: BTreeSet::new(),
        });
        // Initialization sets Ω and dist[me]: a change event, which at
        // a self-believed leader also generates the first proposal.
        self.local_change(ctx);
        self.maybe_send(ctx);
    }

    fn on_receive(&mut self, msg: WMsg, ctx: &mut Context<'_, WMsg>) {
        if self.inner.is_none() {
            return; // not started (cannot happen in the simulator)
        }
        let sender = msg.sender.expect("wPAXOS messages carry the sender id");

        if let Some(lid) = msg.leader {
            if self.inner().leader.receive(lid) {
                let omega = self.inner().leader.omega();
                self.inner().tree.on_leader_change(omega);
                self.inner().pflood.on_leader_change(omega);
                self.inner().best_leader_pn = None;
                self.local_change(ctx);
            }
        }

        if let Some(cm) = msg.change {
            if self.inner().change.receive(cm) {
                self.stats.change_updates += 1;
                self.maybe_generate(ctx);
            }
        }

        if let Some(sm) = msg.search {
            let omega = self.inner().leader.omega();
            if self.inner().tree.receive(sm, sender, omega)
                && (!self.cfg.leader_scoped_changes || sm.root == omega)
            {
                self.local_change(ctx);
            }
        }

        if let Some(pm) = msg.proposer {
            self.process_proposer_msg(pm, ctx);
        }

        if let Some(am) = msg.acceptor {
            self.handle_acceptor_msg(am, ctx);
        }

        self.maybe_send(ctx);
    }

    fn on_ack(&mut self, ctx: &mut Context<'_, WMsg>) {
        if self.inner.is_some() {
            self.maybe_send(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_consensus;
    use crate::wpaxos::wpaxos_node;

    fn run_wpaxos(
        topo: Topology,
        inputs: &[Value],
        scheduler: impl Scheduler + 'static,
    ) -> (Sim<WpaxosNode>, RunReport) {
        let n = topo.len();
        assert_eq!(inputs.len(), n);
        let iv = inputs.to_vec();
        let mut sim = SimBuilder::new(topo, |s| wpaxos_node(iv[s.index()], n))
            .scheduler(scheduler)
            .message_id_budget(10)
            .build();
        let report = sim.run();
        (sim, report)
    }

    #[test]
    fn singleton_decides_its_own_value() {
        let (_, report) = run_wpaxos(Topology::clique(1), &[5], SynchronousScheduler::new(1));
        let check = check_consensus(&[5], &report, &[]);
        check.assert_ok();
        assert_eq!(check.decided, Some(5));
    }

    #[test]
    fn pair_reaches_consensus() {
        let inputs = [3, 8];
        let (_, report) = run_wpaxos(Topology::line(2), &inputs, SynchronousScheduler::new(1));
        check_consensus(&inputs, &report, &[]).assert_ok();
    }

    #[test]
    fn line_reaches_consensus_synchronously() {
        let inputs: Vec<Value> = (0..8).map(|i| i % 2).collect();
        let (_, report) = run_wpaxos(Topology::line(8), &inputs, SynchronousScheduler::new(1));
        check_consensus(&inputs, &report, &[]).assert_ok();
    }

    #[test]
    fn clique_reaches_consensus_under_random_schedulers() {
        for seed in 0..15 {
            let inputs: Vec<Value> = (0..6).map(|i| (i as u64 + seed) % 2).collect();
            let (_, report) =
                run_wpaxos(Topology::clique(6), &inputs, RandomScheduler::new(4, seed));
            let check = check_consensus(&inputs, &report, &[]);
            assert!(check.ok(), "seed {seed}: {:?}", check.violation);
        }
    }

    #[test]
    fn grid_reaches_consensus_under_random_schedulers() {
        for seed in 0..8 {
            let inputs: Vec<Value> = (0..12).map(|i| (i as u64) % 2).collect();
            let (_, report) =
                run_wpaxos(Topology::grid(4, 3), &inputs, RandomScheduler::new(3, seed));
            let check = check_consensus(&inputs, &report, &[]);
            assert!(check.ok(), "seed {seed}: {:?}", check.violation);
        }
    }

    #[test]
    fn random_topologies_reach_consensus() {
        for seed in 0..10 {
            let topo = Topology::random_connected(10, 0.15, seed);
            let inputs: Vec<Value> = (0..10).map(|i| (i as u64 + seed) % 2).collect();
            let (_, report) = run_wpaxos(topo, &inputs, RandomScheduler::new(3, seed * 7 + 1));
            let check = check_consensus(&inputs, &report, &[]);
            assert!(check.ok(), "seed {seed}: {:?}", check.violation);
        }
    }

    #[test]
    fn leader_stabilizes_to_max_id() {
        let (sim, report) = run_wpaxos(
            Topology::line(5),
            &[0, 1, 0, 1, 0],
            SynchronousScheduler::new(1),
        );
        assert!(report.all_decided());
        for i in 0..5 {
            assert_eq!(
                sim.process(Slot(i)).omega(),
                Some(NodeId(4)),
                "slot {i} leader"
            );
        }
    }

    #[test]
    fn tree_routes_point_toward_leader() {
        let (sim, _) = run_wpaxos(
            Topology::line(6),
            &[1, 0, 1, 0, 1, 0],
            SynchronousScheduler::new(1),
        );
        // On a line with ids equal to slots, the leader is node 5; each
        // node's parent toward 5 is its right neighbor.
        for i in 0..5 {
            assert_eq!(
                sim.process(Slot(i)).parent_of(NodeId(5)),
                Some(NodeId(i as u64 + 1)),
                "slot {i} parent"
            );
            assert_eq!(sim.process(Slot(i)).dist_to(NodeId(5)), Some(5 - i as u32));
        }
    }

    #[test]
    fn lemma_4_2_counts_never_exceed_generated() {
        // c(p) <= a(p) for every affirmative proposition, even under
        // random schedulers with shifting trees.
        for seed in 0..12 {
            let topo = Topology::random_connected(9, 0.2, seed);
            let inputs: Vec<Value> = (0..9).map(|i| (i as u64) % 2).collect();
            let (sim, _) = run_wpaxos(topo, &inputs, RandomScheduler::new(4, seed + 100));
            let mut generated: BTreeMap<(ProposalNum, RespKind), u64> = BTreeMap::new();
            let mut counted: BTreeMap<(ProposalNum, RespKind), u64> = BTreeMap::new();
            for i in 0..9 {
                let stats = sim.process(Slot(i)).stats();
                for (k, v) in &stats.affirmative_generated {
                    *generated.entry(*k).or_insert(0) += v;
                }
                for (k, v) in &stats.responses_counted {
                    if k.1.is_affirmative() {
                        *counted.entry(*k).or_insert(0) += v;
                    }
                }
            }
            for (k, c) in &counted {
                // Only the proposition's own proposer counts it, and
                // it must never exceed what acceptors generated.
                let a = generated.get(k).copied().unwrap_or(0);
                assert!(c <= &a, "seed {seed}: c({k:?}) = {c} > a = {a}");
            }
        }
    }

    #[test]
    fn lemma_4_4_tags_stay_polynomial() {
        // Tags are bounded by total change events, far below n^3 here.
        let (sim, _) = run_wpaxos(
            Topology::random_connected(12, 0.2, 5),
            &(0..12).map(|i| i % 2).collect::<Vec<_>>(),
            RandomScheduler::new(3, 11),
        );
        for i in 0..12 {
            let tag = sim.process(Slot(i)).max_tag_seen();
            assert!(tag <= 12 * 12 * 12, "slot {i} tag {tag} blew up");
        }
    }

    #[test]
    fn message_id_budget_holds_at_scale() {
        // The id budget (enforced by the harness) must not depend on n.
        for n in [4usize, 16, 32] {
            let inputs: Vec<Value> = (0..n).map(|i| (i as u64) % 2).collect();
            let (sim, report) = run_wpaxos(
                Topology::random_connected(n, 0.1, 42),
                &inputs,
                RandomScheduler::new(3, 9),
            );
            assert!(report.all_decided(), "n={n}");
            assert!(sim.metrics().max_message_ids <= 10);
        }
    }

    #[test]
    fn flooded_responses_config_still_safe() {
        for seed in 0..6 {
            let inputs: Vec<Value> = (0..7).map(|i| (i as u64) % 2).collect();
            let iv = inputs.clone();
            let mut sim = SimBuilder::new(Topology::star(7), |s| {
                WpaxosNode::new(iv[s.index()], WpaxosConfig::new(7).flooded_responses())
            })
            .scheduler(RandomScheduler::new(3, seed))
            .message_id_budget(10)
            .build();
            let report = sim.run();
            let check = check_consensus(&inputs, &report, &[]);
            assert!(check.ok(), "seed {seed}: {:?}", check.violation);
        }
    }

    #[test]
    fn ablated_configs_still_reach_consensus() {
        for cfg in [
            WpaxosConfig::new(8).without_aggregation(),
            WpaxosConfig::new(8).without_leader_priority(),
        ] {
            let inputs: Vec<Value> = (0..8).map(|i| (i as u64) % 2).collect();
            let iv = inputs.clone();
            let mut sim = SimBuilder::new(Topology::grid(4, 2), |s| {
                WpaxosNode::new(iv[s.index()], cfg)
            })
            .scheduler(RandomScheduler::new(4, 3))
            .build();
            let report = sim.run();
            check_consensus(&inputs, &report, &[]).assert_ok();
        }
    }

    #[test]
    fn id_permutation_does_not_break_consensus() {
        // Ids assigned in reverse of topology position: the leader is
        // now at slot 0 of the line.
        let inputs: Vec<Value> = vec![1, 0, 1, 0, 1];
        let iv = inputs.clone();
        let mut sim = SimBuilder::new(Topology::line(5), |s| wpaxos_node(iv[s.index()], 5))
            .ids((0..5).rev().map(|i| NodeId(i as u64)).collect())
            .scheduler(RandomScheduler::new(3, 2))
            .build();
        let report = sim.run();
        check_consensus(&inputs, &report, &[]).assert_ok();
        // Everyone stabilized to the max id, which sits at slot 0.
        assert_eq!(sim.process(Slot(3)).omega(), Some(NodeId(4)));
        assert_eq!(sim.id_of(Slot(0)), NodeId(4));
    }

    #[test]
    fn decision_time_scales_with_diameter_not_n() {
        // Same n, different diameters: the star (D=2) decides much
        // faster than the line (D=n-1) under the max-delay adversary.
        let n = 24;
        let f_ack = 4;
        let inputs: Vec<Value> = (0..n).map(|i| (i as u64) % 2).collect();
        let (_, line_report) =
            run_wpaxos(Topology::line(n), &inputs, MaxDelayScheduler::new(f_ack));
        let (_, star_report) =
            run_wpaxos(Topology::star(n), &inputs, MaxDelayScheduler::new(f_ack));
        assert!(line_report.all_decided() && star_report.all_decided());
        let line_t = line_report.max_decision_time().unwrap().ticks();
        let star_t = star_report.max_decision_time().unwrap().ticks();
        assert!(
            star_t * 3 < line_t,
            "star {star_t} not much faster than line {line_t}"
        );
    }
}
