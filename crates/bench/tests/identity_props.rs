//! Property tests for the byte-identity theorem under the memory-lean
//! engine layout (payload arena + structure-of-arrays queues + binary
//! trace ring).
//!
//! The fixed-descriptor goldens live in `identity_fixtures.rs` and pin
//! today's engine to the digests recorded from the pre-arena tree.
//! These properties extend the same digest comparison to *randomized*
//! workload descriptors: for any descriptor the shim's deterministic
//! sampler draws, every `(queue core, shards, threads)` configuration
//! across heap/calendar × shards {1, 2, 3, 7} × T ∈ {1, 4} must
//! reproduce the serial heap reference digest bit for bit. A
//! payload-custody bug that happens to dodge the six recorded
//! descriptors (a cancellation race at one topology, a refcount slip
//! at one crash time) has to dodge every sampled one too.
//!
//! `T = 4` runs twice: as configured (which steps inline on a
//! single-core machine) and with two pool workers forced on, so the
//! barrier protocol itself is under the property on every CI host.

use amacl_core::wpaxos::{WpaxosConfig, WpaxosNode};
use amacl_model::prelude::*;
use proptest::prelude::*;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Runs one sampled workload at `(core, shards, threads)` and digests
/// the identity surface: rendered trace, outcome, decisions, and the
/// deterministic metrics (shard bookkeeping and arena counters vary
/// legitimately per configuration and stay out, exactly as in the
/// recorded fixtures).
#[allow(clippy::too_many_arguments)]
fn run_digest(
    n: usize,
    topo_seed: u64,
    edge_p: f64,
    f_ack: u64,
    sched_seed: u64,
    engine_seed: u64,
    crash_at: u64,
    core: QueueCoreKind,
    shards: usize,
    threads: usize,
    force_pool: bool,
) -> u64 {
    let topo = Topology::random_connected(n, edge_p, topo_seed);
    let cfg = WpaxosConfig::new(n);
    let inputs: Vec<Value> = (0..n).map(|i| (i % 2) as Value).collect();
    let plan = if crash_at > 0 {
        CrashPlan::new(vec![CrashSpec::AtTime {
            slot: Slot(n / 2),
            time: Time(crash_at),
        }])
    } else {
        CrashPlan::none()
    };
    let mut builder = SimBuilder::new(topo, |s| WpaxosNode::new(inputs[s.index()], cfg))
        .scheduler(RandomScheduler::new(f_ack, sched_seed))
        .queue_core(core)
        .shards(shards)
        .threads(threads)
        .seed(engine_seed)
        .crashes(plan)
        .message_id_budget(10)
        .trace(true);
    if force_pool {
        builder = builder.debug_force_pool_workers(2);
    }
    let mut sim = builder.build();
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
    h
}

proptest! {
    // Each case runs 1 + 2 x 4 x 3 = 25 engine executions on an
    // 8..=20-node network; 10 cases keep the binary in libtest-second
    // territory while still sampling well past the six goldens.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random descriptor, full grid: every configuration reproduces
    /// the serial heap digest bit for bit.
    #[test]
    fn random_workloads_are_byte_identical_across_the_grid(
        n in 8usize..=20,
        topo_seed in any::<u64>(),
        edge_centi_p in 25u64..=75,
        f_ack in 3u64..=8,
        sched_seed in any::<u64>(),
        engine_seed in any::<u64>(),
        crash_at in 0u64..=14,
    ) {
        let edge_p = edge_centi_p as f64 / 100.0;
        let reference = run_digest(
            n, topo_seed, edge_p, f_ack, sched_seed, engine_seed, crash_at,
            QueueCoreKind::Heap, 1, 1, false,
        );
        for core in QueueCoreKind::all() {
            for &shards in &[1usize, 2, 3, 7] {
                for &(threads, force_pool) in &[(1usize, false), (4, false), (4, true)] {
                    let got = run_digest(
                        n, topo_seed, edge_p, f_ack, sched_seed, engine_seed, crash_at,
                        core, shards, threads, force_pool,
                    );
                    prop_assert_eq!(
                        got, reference,
                        "n={} topo_seed={} crash_at={} diverged at core={} shards={} threads={} \
                         force_pool={}",
                        n, topo_seed, crash_at, core, shards, threads, force_pool
                    );
                }
            }
        }
    }
}
