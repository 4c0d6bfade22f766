//! Every algorithm in `amacl_core`, across the engine-identity grid.
//!
//! The paper's upper bounds hold on any MAC layer, and the engine's
//! queue core, shard count and worker threads are execution knobs
//! only. This table runs every `Process` the core crate ships — with
//! a timed crash for the two crash-tolerant extensions — on every
//! configuration of [`engine_grid`](amacl_checker::grid::engine_grid)
//! and demands the reference's trace and run report back, event for
//! event and counter for counter.

use amacl_checker::grid::check_engine_grid;
use amacl_core::baselines::anonymous_flood::SyncFloodMin;
use amacl_core::baselines::flood_gather::FloodGather;
use amacl_core::baselines::quiesce::IdFloodQuiesce;
use amacl_core::extensions::ben_or::BenOr;
use amacl_core::extensions::fd_paxos::FdPaxos;
use amacl_core::multivalued::BitwiseTwoPhase;
use amacl_core::tree_gather::TreeGather;
use amacl_core::two_phase::TwoPhase;
use amacl_core::wpaxos::{WpaxosConfig, WpaxosNode};
use amacl_model::prelude::*;
use amacl_model::sim::conformance::compare_traces;
use amacl_model::sim::trace::Trace;

/// What an engine configuration must reproduce: the full trace, plus
/// the run report minus the counters that legitimately vary with the
/// configuration (shard bookkeeping, arena custody, pool policy,
/// worker timers, calendar overflows).
#[derive(PartialEq, Debug)]
struct Observed {
    trace: Trace,
    outcome: RunOutcome,
    end_time: Time,
    decisions: Vec<Option<Decision>>,
    counters: [u64; 11],
    per_slot_broadcasts: Vec<u64>,
}

impl Observed {
    fn new(report: RunReport, trace: Trace) -> Self {
        let m = &report.metrics;
        Self {
            trace,
            outcome: report.outcome,
            end_time: report.end_time,
            counters: [
                m.broadcasts,
                m.busy_discards,
                m.deliveries,
                m.unreliable_deliveries,
                m.acks,
                m.crashes,
                m.events,
                m.queue_pushes,
                m.queue_cancellations,
                m.max_message_ids as u64,
                m.total_message_ids,
            ],
            per_slot_broadcasts: m.per_slot_broadcasts.clone(),
            decisions: report.decisions,
        }
    }
}

fn diff(reference: &Observed, other: &Observed) -> Option<String> {
    if let Some(d) = compare_traces("reference", &reference.trace, "grid", &other.trace) {
        return Some(d.to_string());
    }
    (reference != other).then(|| {
        format!(
            "run reports differ: {:?} {:?} {:?} {:?} vs {:?} {:?} {:?} {:?}",
            reference.outcome,
            reference.end_time,
            reference.decisions,
            reference.counters,
            other.outcome,
            other.end_time,
            other.decisions,
            other.counters,
        )
    })
}

/// One row of the table: an algorithm on a topology under a seeded
/// random adversary, runnable on any engine configuration.
struct Case {
    name: &'static str,
    run: Box<dyn Fn(&EngineConfig) -> Observed>,
}

fn case<P: Process + 'static>(
    name: &'static str,
    topo: Topology,
    f_ack: u64,
    crashes: Vec<CrashSpec>,
    init: impl Fn(Slot) -> P + 'static,
) -> Case {
    Case {
        name,
        run: Box::new(move |cfg| {
            // The grid config is applied as given, seed included.
            let mut sim = SimBuilder::new(topo.clone(), &init)
                .config(cfg.clone())
                .crashes(CrashPlan::new(crashes.clone()))
                .scheduler(RandomScheduler::new(f_ack, 7))
                .trace(true)
                .build();
            let report = sim.run();
            Observed::new(report, sim.trace().clone())
        }),
    }
}

fn alt(s: Slot) -> Value {
    (s.index() % 2) as Value
}

fn timed_crash(slot: usize, time: u64) -> Vec<CrashSpec> {
    vec![CrashSpec::AtTime {
        slot: Slot(slot),
        time: Time(time),
    }]
}

fn cases() -> Vec<Case> {
    vec![
        case("two-phase", Topology::clique(6), 4, vec![], |s| {
            TwoPhase::new(alt(s))
        }),
        // Slot 2's first broadcast stops after 11 of its 23
        // deliveries: at S = 2 and S = 4 the voided remainder is split
        // across shards, one queued run head on each.
        case(
            "two-phase/mid-broadcast",
            Topology::clique(24),
            4,
            vec![CrashSpec::MidBroadcast {
                slot: Slot(2),
                nth_broadcast: 0,
                delivered: 11,
            }],
            |s| TwoPhase::new(alt(s)),
        ),
        case("bitwise", Topology::clique(5), 4, vec![], |s| {
            BitwiseTwoPhase::new((s.index() * 3 % 8) as Value, 3)
        }),
        case("wpaxos", Topology::grid(3, 3), 4, vec![], |s| {
            WpaxosNode::new(alt(s), WpaxosConfig::new(9))
        }),
        case("tree-gather", Topology::line(7), 3, vec![], |s| {
            TreeGather::new(alt(s), 7)
        }),
        case("flood-gather", Topology::ring(8), 3, vec![], |s| {
            FloodGather::new(alt(s), 8)
        }),
        // Two of each input on four nodes: no report quorum holds a
        // strict majority, so round 1 always ends in coin flips.
        case("ben-or", Topology::clique(4), 4, vec![], |s| {
            BenOr::new(alt(s), 4)
        }),
        case(
            "ben-or/crash",
            Topology::clique(4),
            4,
            timed_crash(3, 5),
            |s| BenOr::new(alt(s), 4),
        ),
        case("fd-paxos", Topology::clique(5), 4, vec![], |s| {
            FdPaxos::new(alt(s), 5, 4)
        }),
        case(
            "fd-paxos/crash",
            Topology::clique(5),
            4,
            timed_crash(0, 5),
            |s| FdPaxos::new(alt(s), 5, 4),
        ),
        case("sync-flood-min", Topology::line(6), 2, vec![], |s| {
            SyncFloodMin::new(alt(s), 6)
        }),
        case("id-flood-quiesce", Topology::line(6), 2, vec![], |s| {
            IdFloodQuiesce::new(alt(s), 12)
        }),
    ]
}

#[test]
fn every_algorithm_is_identical_across_the_engine_grid() {
    for case in cases() {
        let (reference, verdict) = check_engine_grid(None, &[], &case.run, diff);
        assert!(
            reference.decisions.iter().any(Option::is_some),
            "{}: nobody decided, so the comparison would be vacuous",
            case.name
        );
        if let Err(d) = verdict {
            panic!("{}: {d}", case.name);
        }
    }
}
