//! # `amacl-checker`: exhaustive model checking for the abstract MAC layer
//!
//! The paper's guarantees quantify over *every* message scheduler: "the
//! scheduler" may deliver the in-flight messages in any order and
//! acknowledge completed broadcasts at any point. Randomized and
//! scripted schedulers (in [`amacl_model`]) sample that space; this
//! crate *enumerates* it. For small networks, [`MacExplorer`] walks
//! every reachable execution of a
//! [`Process`](amacl_model::proc::Process) implementation — every
//! delivery interleaving, every ack placement, and optionally every
//! crash placement up to a budget — and checks the consensus
//! properties in every state it visits:
//!
//! * **agreement** and **validity** are checked in *every* reachable
//!   state (safety must never be violated, even transiently);
//! * **termination** is checked in every *quiescent* state (a state
//!   with no enabled delivery or ack is one the scheduler can make
//!   permanent, so an undecided live node there is a genuine liveness
//!   failure — the scheduler has run out of fairness obligations).
//!
//! There is one machine. Every search here forks a
//! [`MacMachine`](amacl_model::machine::MacMachine), which asks the
//! [`BcastLedger`](amacl_model::mac::BcastLedger) — the bookkeeping
//! the discrete-event engine and the threaded runtime share — each
//! delivery, ack and crash question, so a verdict is about the object
//! production code runs on. The bivalence explorer in
//! `amacl-lowerbounds` searches the same machine restricted to the
//! FLP argument's valid steps; it looks for the *existence* of
//! adversarial extensions, this crate verifies the *absence* of bad
//! states.
//!
//! A clean exhaustive run is a machine-checked proof of the algorithm's
//! correctness *for that network and those inputs* — stronger than any
//! number of randomized trials. A failure comes with the exact
//! scheduler choice sequence that produced it, replayable with
//! [`MacExplorer::replay`]. Truncated runs (state or depth cap) are
//! reported as such rather than silently passing.
//!
//! * [`explore`] — the search: fingerprint-dedup walks in depth-first
//!   or breadth-first (shortest counterexample) order, and dynamic
//!   partial-order reduction that does not re-explore commuting
//!   deliveries ([`Reduction`], [`SearchOrder`]).
//! * [`fuzz`](mod@fuzz) — for instances too large to cover, random
//!   walks over the same unrestricted-adversary branching structure —
//!   strictly more adversarial than the delay-based `RandomScheduler`
//!   (which cannot starve a node indefinitely or decouple order from
//!   time), while scaling far past the exhaustive walk.
//! * [`explore_mac`] — plain-data instance descriptors (with seeded
//!   ledger bugs for mutation-testing the search) and the lowering of
//!   every counterexample into a [`Scenario`] that joins the sweep
//!   catalogue, closing the loop from search to regression suite.
//! * [`crosscheck`] — orthogonally, validates the *executors* against
//!   each other: the same algorithm runs on the discrete-event engine
//!   and the threaded runtime through the shared
//!   [`MacLayer`](amacl_model::mac::MacLayer) trait, and any mismatch
//!   is reported as the first diverging slot with both backends' views.
//! * [`scenario`] / [`workload`] — the named adversarial scenario
//!   catalogue behind `amacl sweep` and the open-loop load generator
//!   behind `amacl load`.
//! * [`grid`] — the engine-identity grid: the one list of engine
//!   configurations every sweep row, load row and identity test must
//!   reproduce byte for byte, and the driver that checks it.
//!
//! ## Scope
//!
//! The machine treats executions as untimed event sequences — all
//! callbacks observe clock value zero — which merges states that
//! differ only in timing and matches the paper's safety arguments
//! (they never appeal to real time). Algorithms whose *logic* reads
//! the clock (e.g. failure-detector timeouts) or draws random bits
//! should be checked with randomized schedulers instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crosscheck;
pub mod explore;
pub mod explore_mac;
pub mod fuzz;
pub mod grid;
pub mod scenario;
pub mod workload;

pub use crosscheck::{cross_check, cross_check_algo, CrossCheckConfig, CrossCheckOutcome};
pub use explore::{
    MacExploreConfig, MacExploreOutcome, MacExplorer, MacViolation, Reduction, SearchOrder,
    ViolationKind,
};
pub use explore_mac::MacExploreDescriptor;
pub use fuzz::{FuzzConfig, FuzzOutcome};
pub use scenario::{
    sweep_scenario, AlgoVisitor, Scenario, ScenarioAlgo, ScenarioInputs, ScenarioSched,
    ScenarioTopo, SweepOutcome, SweepRow,
};
pub use workload::{
    render_load_rows, run_load, sweep_load, ArrivalKind, LatencyHistogram, LoadRun, LoadScenario,
    LoadSweepRow, WorkloadSpec,
};
