//! Byte-identity fixtures for the memory-lean engine layout.
//!
//! Two families of golden digests. The wPAXOS hashes were recorded
//! from the pre-arena engine over a deterministic family of random
//! workload descriptors (n <= 23, timed crashes only). The Two-Phase
//! hashes were recorded from the per-delivery queue layout on wide
//! cliques (fan-out 32 and 63) with no crash, a timed crash, and a
//! broadcast cut off mid-run, so the per-broadcast delivery runs are
//! pinned where they matter: wide fan-out and a sender crash that
//! voids the unfired part of a run. Every run
//! folds the rendered trace, the run report (outcome, decisions,
//! deterministic metrics), and the
//! decision-latency histogram into one FNV-1a digest; the tests demand
//! that the engine reproduces those digests bit for bit
//! across both queue cores × shards {1, 2, 3, 7} × threads {1, 4}.
//!
//! Rerecording (only legitimate when a PR *intends* an observable
//! behavior change): `AMACL_CAPTURE_FIXTURES=1 cargo test -p
//! amacl-bench --test identity_fixtures -- --nocapture` prints the
//! replacement table.

use amacl_core::two_phase::TwoPhase;
use amacl_core::wpaxos::{WpaxosConfig, WpaxosNode};
use amacl_model::prelude::*;
use amacl_model::sim::trace::TraceEvent;

/// One deterministic workload descriptor, expanded from the LCG in
/// [`descriptors`].
#[derive(Clone, Copy, Debug)]
struct Descriptor {
    n: usize,
    topo_seed: u64,
    edge_p: f64,
    f_ack: u64,
    sched_seed: u64,
    engine_seed: u64,
    /// Crash one node at this virtual time (0 = no crash).
    crash_at: u64,
}

/// Splitmix64 — the deterministic descriptor generator (no
/// `rand`, so the fixture family can never drift with a shim change).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn descriptors() -> Vec<Descriptor> {
    let mut s = 0xA11C_E5ED_u64;
    (0..6)
        .map(|_| {
            let r = splitmix(&mut s);
            Descriptor {
                // 8..=23 nodes: enough for 7 shards to be meaningful,
                // small enough that 96 runs stay fast.
                n: 8 + (r % 16) as usize,
                topo_seed: splitmix(&mut s),
                edge_p: 0.25 + (splitmix(&mut s) % 50) as f64 / 100.0,
                f_ack: 3 + (splitmix(&mut s) % 6),
                sched_seed: splitmix(&mut s),
                engine_seed: splitmix(&mut s),
                crash_at: splitmix(&mut s) % 3 * 7,
            }
        })
        .collect()
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Builds one descriptor's traced wPAXOS simulation at `(core, shards,
/// threads)`.
fn build(d: Descriptor, core: QueueCoreKind, shards: usize, threads: usize) -> Sim<WpaxosNode> {
    let topo = Topology::random_connected(d.n, d.edge_p, d.topo_seed);
    let cfg = WpaxosConfig::new(d.n);
    let inputs: Vec<Value> = (0..d.n).map(|i| (i % 2) as Value).collect();
    let plan = if d.crash_at > 0 {
        CrashPlan::new(vec![CrashSpec::AtTime {
            slot: Slot(d.n / 2),
            time: Time(d.crash_at),
        }])
    } else {
        CrashPlan::none()
    };
    SimBuilder::new(topo, |s| WpaxosNode::new(inputs[s.index()], cfg))
        .scheduler(RandomScheduler::new(d.f_ack, d.sched_seed))
        .queue_core(core)
        .shards(shards)
        .threads(threads)
        .seed(d.engine_seed)
        .crashes(plan)
        .message_id_budget(10)
        .trace(true)
        .build()
}

/// Runs one descriptor at `(core, shards, threads)` and digests it.
fn run_digest(d: Descriptor, core: QueueCoreKind, shards: usize, threads: usize) -> u64 {
    digest(&mut build(d, core, shards, threads))
}

/// Runs `sim` and digests
/// everything the byte-identity contract covers: the rendered trace,
/// the report, and the decision-latency histogram. Shard/thread
/// bookkeeping counters (cross-shard deliveries, window advances,
/// bucket overflows) legitimately vary per
/// configuration and are excluded — exactly like the engine's own
/// identity tests.
fn digest<P: Process>(sim: &mut Sim<P>) -> u64 {
    let report = sim.run();

    let mut h = FNV_OFFSET;
    for ev in sim.trace().events() {
        fnv(&mut h, format!("{ev:?}").as_bytes());
    }
    fnv(&mut h, format!("{:?}", report.outcome).as_bytes());
    fnv(&mut h, format!("{:?}", report.end_time).as_bytes());
    fnv(&mut h, format!("{:?}", report.decisions).as_bytes());
    let m = &report.metrics;
    fnv(
        &mut h,
        format!(
            "{} {} {} {} {} {} {} {} {} {} {} {:?}",
            m.broadcasts,
            m.busy_discards,
            m.deliveries,
            m.unreliable_deliveries,
            m.acks,
            m.crashes,
            m.events,
            m.queue_pushes,
            m.queue_cancellations,
            m.max_message_ids,
            m.total_message_ids,
            m.per_slot_broadcasts,
        )
        .as_bytes(),
    );
    // Decision-latency histogram: decide-time tick counts in time
    // order (every latency quantile is a function of exactly this).
    let mut histo: Vec<u64> = sim
        .trace()
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Decide { time, .. } => Some(time.ticks()),
            _ => None,
        })
        .collect();
    histo.sort_unstable();
    fnv(&mut h, format!("{histo:?}").as_bytes());
    h
}

/// Golden digests, one per descriptor, recorded from the pre-arena
/// engine. Every `(core, shards, threads)` combination must reproduce
/// its descriptor's digest exactly.
const FIXTURES: &[u64] = &[
    0x56C2B347F3E1F5AE,
    0x1C1AD92C8AD7241A,
    0xCF860B480FFA4811,
    0x12F6BADC46A990E8,
    0xDE9A2B3C7BFA23DE,
    0xFD34EA55ADC7C306,
];

const SHARD_GRID: &[usize] = &[1, 2, 3, 7];
const THREAD_GRID: &[usize] = &[1, 4];

#[test]
fn arena_engine_matches_prearena_fixtures() {
    let capture = std::env::var("AMACL_CAPTURE_FIXTURES").is_ok();
    let descs = descriptors();
    let mut recorded = Vec::new();
    for (i, &d) in descs.iter().enumerate() {
        let reference = run_digest(d, QueueCoreKind::Heap, 1, 1);
        recorded.push(reference);
        if !capture {
            assert_eq!(
                reference, FIXTURES[i],
                "descriptor {i} ({d:?}) diverged from the recorded pre-arena digest"
            );
        }
        for core in QueueCoreKind::all() {
            for &s in SHARD_GRID {
                for &t in THREAD_GRID {
                    let got = run_digest(d, core, s, t);
                    assert_eq!(
                        got, reference,
                        "descriptor {i} ({d:?}) diverged at core={core} shards={s} threads={t}"
                    );
                }
            }
        }
    }
    if capture {
        println!("const FIXTURES: &[u64] = &[");
        for h in &recorded {
            println!("    0x{h:016X},");
        }
        println!("];");
        panic!("capture mode: fixtures printed above, not asserted");
    }
    assert_eq!(descs.len(), FIXTURES.len());
}

/// One Two-Phase fixture: a clique, and which crash (if any) it runs
/// under. Fan-out is `n - 1`, so every broadcast schedules 32 or 63
/// deliveries plus its ack.
#[derive(Clone, Copy, Debug)]
enum TpCrash {
    None,
    /// Slot `n / 2` crashes at tick 5, inside its phase-1 broadcast.
    AtTime,
    /// Slot 1's phase-1 broadcast reaches `(n - 1) / 2` of its
    /// neighbours; the sender crashes and the rest is voided.
    MidBroadcast,
}

const TP_CASES: &[(usize, TpCrash)] = &[
    (33, TpCrash::None),
    (33, TpCrash::AtTime),
    (33, TpCrash::MidBroadcast),
    (64, TpCrash::None),
    (64, TpCrash::AtTime),
    (64, TpCrash::MidBroadcast),
];

/// Builds one traced Two-Phase fixture run at `(core, shards,
/// threads)`: alternating inputs, `F_ack` 8.
fn build_two_phase(
    (n, crash): (usize, TpCrash),
    core: QueueCoreKind,
    shards: usize,
    threads: usize,
) -> Sim<TwoPhase> {
    let specs = match crash {
        TpCrash::None => vec![],
        TpCrash::AtTime => vec![CrashSpec::AtTime {
            slot: Slot(n / 2),
            time: Time(5),
        }],
        TpCrash::MidBroadcast => vec![CrashSpec::MidBroadcast {
            slot: Slot(1),
            nth_broadcast: 0,
            delivered: (n - 1) / 2,
        }],
    };
    SimBuilder::new(Topology::clique(n), |s| {
        TwoPhase::new((s.index() % 2) as Value)
    })
    .scheduler(RandomScheduler::new(8, 0x7E0 + n as u64))
    .queue_core(core)
    .shards(shards)
    .threads(threads)
    .seed(n as u64)
    .crashes(CrashPlan::new(specs))
    .message_id_budget(10)
    .trace(true)
    .build()
}

/// Golden Two-Phase digests, one per [`TP_CASES`] row, recorded from
/// the per-delivery queue layout (one queue entry per delivery).
const TWO_PHASE_FIXTURES: &[u64] = &[
    0x4648E5E722B4718A,
    0x4B83B89AF2ACDC85,
    0x4C683FBDECFD86B7,
    0x2139BA58F3FB5347,
    0xE0D6EC1793E9AC63,
    0xB9D05CACA1F3D9FA,
];

#[test]
fn two_phase_matches_recorded_fixtures() {
    let capture = std::env::var("AMACL_CAPTURE_FIXTURES").is_ok();
    let mut recorded = Vec::new();
    for (i, &case) in TP_CASES.iter().enumerate() {
        let mut sim = build_two_phase(case, QueueCoreKind::Heap, 1, 1);
        let reference = digest(&mut sim);
        recorded.push(reference);
        // Each crash plan must really fire, and the mid-broadcast one
        // must void part of a run, or the row pins nothing.
        let m = sim.metrics();
        let deg = case.0 as u64 - 1;
        match case.1 {
            TpCrash::None => assert_eq!(m.crashes, 0),
            TpCrash::AtTime => assert_eq!(m.crashes, 1, "case {i}"),
            TpCrash::MidBroadcast => {
                assert_eq!(m.crashes, 1, "case {i}");
                assert_eq!(m.queue_cancellations, deg - deg / 2 + 1, "case {i}");
            }
        }
        if !capture {
            assert_eq!(
                reference, TWO_PHASE_FIXTURES[i],
                "two-phase case {i} ({case:?}) diverged from the recorded digest"
            );
        }
        for core in QueueCoreKind::all() {
            for &s in SHARD_GRID {
                for &t in THREAD_GRID {
                    let got = digest(&mut build_two_phase(case, core, s, t));
                    assert_eq!(
                        got, reference,
                        "two-phase case {i} ({case:?}) diverged at core={core} shards={s} threads={t}"
                    );
                }
            }
        }
    }
    if capture {
        println!("const TWO_PHASE_FIXTURES: &[u64] = &[");
        for h in &recorded {
            println!("    0x{h:016X},");
        }
        println!("];");
        panic!("capture mode: fixtures printed above, not asserted");
    }
    assert_eq!(TP_CASES.len(), TWO_PHASE_FIXTURES.len());
}

/// Payload copies are custody-protocol facts, not noise. Each run
/// owns one copy of its broadcast's payload: every delivery to a live
/// receiver clones it except the run's last entry, which moves it, and
/// a broadcast clones it once more per other shard it crosses into. So
/// `payload_clones` is one per live delivery that is not its run's
/// last entry plus one per cross-shard run, and `payload_moves` one
/// per run whose last receiver is live. Both are functions of
/// (descriptor, shards) alone — pinned here exactly for descriptor 0,
/// and equal at every thread count.
#[test]
fn payload_clones_are_pinned_per_shard_count() {
    let d = descriptors()[0];
    for (shards, clones, moves) in [(1usize, 1615u64, 300u64), (4, 1776, 1052)] {
        for &threads in THREAD_GRID {
            let m = build(d, QueueCoreKind::Heap, shards, threads).run().metrics;
            assert_eq!(
                (m.payload_clones, m.payload_moves),
                (clones, moves),
                "descriptor 0 at S={shards} T={threads}"
            );
        }
    }
}
