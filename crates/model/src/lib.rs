//! # `amacl-model`: the abstract MAC layer model
//!
//! This crate implements the *abstract MAC layer* model of
//! Kuhn, Lynch, and Newport (as used by Newport, *Consensus with an
//! Abstract MAC Layer*, PODC 2014). The model captures the guarantees
//! provided by most wireless MAC layers while hiding their low-level
//! details behind a nondeterministic message scheduler:
//!
//! * Nodes communicate by **acknowledged local broadcast**: a message
//!   broadcast by node `u` is eventually received by every non-faulty
//!   neighbor of `u` in a fixed topology graph `G`, after which `u`
//!   receives an *ack*.
//! * Broadcasts are **not atomic**: different neighbors may receive the
//!   message at different times (e.g., due to the hidden terminal
//!   problem), and a node that crashes mid-broadcast may have delivered
//!   its message to only a subset of its neighbors.
//! * A node that attempts to broadcast while a broadcast is already
//!   outstanding has the extra message **discarded**.
//! * Message delivery order and timing are chosen by an adversarial
//!   **scheduler**, subject to an upper bound `F_ack` on the time from
//!   broadcast to ack. `F_ack` exists but is *unknown to the nodes*.
//! * Local (non-communication) computation takes zero time; all
//!   nondeterminism lives in the scheduler.
//!
//! The crate provides:
//!
//! * [`topo`] — topology graphs, including the worst-case constructions
//!   from the paper's lower bounds (Figures 1 and 2),
//! * [`proc`] — the [`Process`](proc::Process) trait that algorithms
//!   implement, and the [`Context`](proc::Context) handle through which
//!   they broadcast and decide,
//! * [`sim`] — a deterministic discrete-event simulator that executes
//!   processes under a pluggable [`Scheduler`](sim::sched::Scheduler),
//!   with crash injection (including mid-broadcast partial delivery),
//!   tracing, and metrics,
//! * [`mac`] — the backend-agnostic [`MacLayer`](mac::MacLayer) trait
//!   (one `Process` implementation, many execution substrates) and the
//!   [`BcastLedger`](mac::BcastLedger) delivery/ack/crash bookkeeping
//!   shared by the simulator and the threaded runtime in
//!   `amacl-runtime`,
//! * [`machine`] — the forkable [`MacMachine`](machine::MacMachine):
//!   one global state plus every scheduler move the ledger enables
//!   from it, which the exhaustive checker, the schedule fuzzer and
//!   the FLP valid-step explorer all search.
//!
//! ## Quick example
//!
//! ```
//! use amacl_model::prelude::*;
//!
//! /// A process that broadcasts once and decides its own input.
//! struct Trivial(u64);
//!
//! #[derive(Clone, Debug)]
//! struct Ping;
//! impl Payload for Ping {
//!     fn id_count(&self) -> usize { 0 }
//! }
//!
//! impl Process for Trivial {
//!     type Msg = Ping;
//!     fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
//!         ctx.broadcast(Ping);
//!     }
//!     fn on_receive(&mut self, _msg: Ping, _ctx: &mut Context<'_, Ping>) {}
//!     fn on_ack(&mut self, ctx: &mut Context<'_, Ping>) {
//!         ctx.decide(self.0);
//!     }
//! }
//!
//! let topo = Topology::clique(4);
//! let mut sim = SimBuilder::new(topo, |slot| Trivial(slot.index() as u64))
//!     .scheduler(SynchronousScheduler::new(1))
//!     .build();
//! let report = sim.run();
//! assert!(report.all_decided());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ids;
pub mod mac;
pub mod machine;
pub mod msg;
pub mod proc;
pub mod sim;
pub mod topo;

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::ids::{NodeId, Slot};
    pub use crate::mac::{MacLayer, MacReport, SchedulerFactory, SimBackend};
    pub use crate::msg::Payload;
    pub use crate::proc::{Context, Decision, NodeCell, Process, Value};
    pub use crate::sim::config::EngineConfig;
    pub use crate::sim::crash::{CrashPlan, CrashSpec};
    pub use crate::sim::engine::{RunOutcome, RunReport, Sim, SimBuilder};
    pub use crate::sim::queue::{
        CalendarCore, EventId, EventQueue, HeapCore, QueueCore, QueueCoreKind, ScheduledEvent,
    };
    pub use crate::sim::sched::{
        dual::DualBoundScheduler,
        partition::{DirectedCut, EdgeDelayScheduler},
        random::RandomScheduler,
        scripted::ScriptedScheduler,
        stall::MaxDelayScheduler,
        sync::SynchronousScheduler,
        BroadcastPlan, Scheduler,
    };
    pub use crate::sim::shard::{ShardCount, ShardMap, ThreadCount};
    pub use crate::sim::time::{Time, Timestamp};
    pub use crate::topo::Topology;
}
