//! The process abstraction: what an algorithm implements to run in the
//! abstract MAC layer model.
//!
//! A [`Process`] is a deterministic (or seeded-randomized) state
//! machine driven entirely by three callbacks, matching the model's
//! assumption that local computation takes zero time and all
//! nondeterminism lives in the scheduler:
//!
//! * [`Process::on_start`] — once, at time zero;
//! * [`Process::on_receive`] — when a neighbor's broadcast is delivered;
//! * [`Process::on_ack`] — when the node's own outstanding broadcast
//!   has been delivered to every non-faulty neighbor.
//!
//! Inside a callback the process interacts with the world only through
//! its [`Context`]: it may [`broadcast`](Context::broadcast) (at most
//! one outstanding message; extras are discarded, per the model) and
//! [`decide`](Context::decide) (irrevocably).

use rand::rngs::SmallRng;

use crate::ids::NodeId;
use crate::msg::Payload;
use crate::sim::time::{Time, Timestamp};

/// A consensus input/output value.
///
/// The paper studies binary consensus (`{0, 1}`), which strengthens its
/// lower bounds; the implementation accepts any `u64` so the upper
/// bounds can also be exercised with larger value spaces.
pub type Value = u64;

/// The result of asking the MAC layer to broadcast.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BroadcastOutcome {
    /// The message was handed to the MAC layer; an ack will follow.
    Accepted,
    /// A broadcast was already outstanding; the message was discarded
    /// (Section 2: "those extra messages are discarded").
    Discarded,
}

impl BroadcastOutcome {
    /// `true` for [`BroadcastOutcome::Accepted`].
    pub fn is_accepted(self) -> bool {
        matches!(self, BroadcastOutcome::Accepted)
    }
}

/// An algorithm running at one node.
///
/// `Send` is required (on the process and its messages) so the
/// thread-per-shard parallel stepper can hand each shard's processes
/// to a worker thread; node programs are plain owned data, so this
/// costs implementations nothing.
pub trait Process: Send + 'static {
    /// The message type this algorithm broadcasts.
    type Msg: Clone + std::fmt::Debug + Payload + Send + 'static;

    /// Called once when the execution begins.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>);

    /// Called when a message broadcast by some neighbor is delivered.
    ///
    /// The model does not reveal the sender; algorithms that need
    /// sender identity must embed it in the message (anonymous
    /// algorithms must not).
    fn on_receive(&mut self, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>);

    /// Called when this node's outstanding broadcast completes: every
    /// non-faulty neighbor has received it.
    fn on_ack(&mut self, ctx: &mut Context<'_, Self::Msg>);
}

/// Handle through which a process interacts with the MAC layer during
/// a callback.
pub struct Context<'a, M> {
    pub(crate) id: NodeId,
    pub(crate) now: Time,
    pub(crate) busy: bool,
    pub(crate) outbox: &'a mut Option<M>,
    pub(crate) decision: &'a mut Option<Decision>,
    pub(crate) ts_seq: &'a mut u64,
    pub(crate) busy_discards: &'a mut u64,
    pub(crate) rng: &'a mut SmallRng,
}

/// Per-node mutable state for *external* process drivers.
///
/// The built-in simulator drives processes itself; other executors —
/// the lower-bound step machine, the threaded MAC runtime — need to
/// run [`Process`] callbacks too. A `NodeCell` owns the per-node state
/// a [`Context`] borrows and mints contexts on demand. Cloning a cell
/// forks it exactly — RNG stream included — which is what lets
/// [`MacMachine`](crate::machine::MacMachine) branch an execution.
#[derive(Clone, Debug)]
pub struct NodeCell<M> {
    /// Message the last callback asked to broadcast, if any.
    pub outbox: Option<M>,
    /// The node's decision, if made.
    pub decision: Option<Decision>,
    /// Timestamp sequence counter.
    pub ts_seq: u64,
    /// Count of busy-discarded broadcast attempts.
    pub busy_discards: u64,
    /// Node-local randomness.
    pub rng: SmallRng,
}

impl<M> NodeCell<M> {
    /// Creates a cell with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        use rand::SeedableRng;
        Self {
            outbox: None,
            decision: None,
            ts_seq: 0,
            busy_discards: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Mints a context for one callback invocation. `busy` reflects
    /// whether the node currently has an outstanding broadcast; any
    /// broadcast request lands in [`NodeCell::outbox`] for the driver
    /// to collect afterward.
    pub fn ctx(&mut self, id: NodeId, now: Time, busy: bool) -> Context<'_, M> {
        Context {
            id,
            now,
            busy,
            outbox: &mut self.outbox,
            decision: &mut self.decision,
            ts_seq: &mut self.ts_seq,
            busy_discards: &mut self.busy_discards,
            rng: &mut self.rng,
        }
    }
}

/// A recorded irrevocable decision.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Decision {
    /// The decided value.
    pub value: Value,
    /// Virtual time at which the decide action was performed.
    pub time: Time,
}

impl<'a, M> Context<'a, M> {
    /// This node's unique id.
    ///
    /// Anonymous algorithms (Section 3.2) simply never call this.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Local clock reading (virtual time).
    ///
    /// The simulator exposes a consistent clock; algorithms must not
    /// assume any relationship between clock readings and `F_ack`,
    /// which remains unknown to them.
    pub fn now(&self) -> Time {
        self.now
    }

    /// A fresh, strictly increasing, globally unique timestamp.
    ///
    /// Used by wPAXOS's change service (Algorithm 3, `time stamp()`).
    /// Ordered lexicographically by `(time, node id, per-node seq)`, so
    /// later events at the same node always compare larger, and ties
    /// across nodes break deterministically.
    pub fn timestamp(&mut self) -> Timestamp {
        let ts = Timestamp {
            time: self.now,
            node: self.id.raw(),
            seq: *self.ts_seq,
        };
        *self.ts_seq += 1;
        ts
    }

    /// Requests a broadcast of `msg` to all neighbors.
    ///
    /// Returns [`BroadcastOutcome::Discarded`] (and drops the message)
    /// if a broadcast is already outstanding — including one issued
    /// earlier in the same callback.
    pub fn broadcast(&mut self, msg: M) -> BroadcastOutcome {
        if self.busy {
            *self.busy_discards += 1;
            BroadcastOutcome::Discarded
        } else {
            self.busy = true;
            *self.outbox = Some(msg);
            BroadcastOutcome::Accepted
        }
    }

    /// `true` while a broadcast is outstanding (no ack yet), including
    /// one issued earlier in the current callback.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Performs the irrevocable decide action.
    ///
    /// Calling it again with the same value is a no-op (algorithms that
    /// flood decisions may re-learn their own decision); calling it
    /// with a *different* value panics, as that is a local-algorithm
    /// bug rather than an agreement violation between nodes.
    pub fn decide(&mut self, value: Value) {
        match *self.decision {
            None => {
                *self.decision = Some(Decision {
                    value,
                    time: self.now,
                });
            }
            Some(d) => {
                assert_eq!(
                    d.value, value,
                    "node {} attempted to re-decide {} after deciding {}",
                    self.id, value, d.value
                );
            }
        }
    }

    /// The value this node has decided, if any.
    pub fn decided(&self) -> Option<Value> {
        self.decision.map(|d| d.value)
    }

    /// Node-local seeded randomness, for randomized algorithms
    /// (e.g. the Ben-Or extension). Deterministic per (simulation seed,
    /// node).
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx<'a>(
        outbox: &'a mut Option<u8>,
        decision: &'a mut Option<Decision>,
        ts_seq: &'a mut u64,
        discards: &'a mut u64,
        rng: &'a mut SmallRng,
    ) -> Context<'a, u8> {
        Context {
            id: NodeId(7),
            now: Time(42),
            busy: false,
            outbox,
            decision,
            ts_seq,
            busy_discards: discards,
            rng,
        }
    }

    #[test]
    fn broadcast_once_then_discard() {
        let mut outbox = None;
        let mut decision = None;
        let mut seq = 0;
        let mut disc = 0;
        let mut rng = SmallRng::seed_from_u64(0);
        let mut c = ctx(&mut outbox, &mut decision, &mut seq, &mut disc, &mut rng);
        assert!(c.broadcast(1).is_accepted());
        assert!(c.is_busy());
        assert_eq!(c.broadcast(2), BroadcastOutcome::Discarded);
        assert_eq!(outbox, Some(1));
        assert_eq!(disc, 1);
    }

    #[test]
    fn decide_is_idempotent_for_same_value() {
        let mut outbox = None;
        let mut decision = None;
        let mut seq = 0;
        let mut disc = 0;
        let mut rng = SmallRng::seed_from_u64(0);
        let mut c = ctx(&mut outbox, &mut decision, &mut seq, &mut disc, &mut rng);
        assert_eq!(c.decided(), None);
        c.decide(1);
        c.decide(1);
        assert_eq!(c.decided(), Some(1));
        assert_eq!(decision.unwrap().time, Time(42));
    }

    #[test]
    #[should_panic(expected = "re-decide")]
    fn conflicting_decide_panics() {
        let mut outbox = None;
        let mut decision = None;
        let mut seq = 0;
        let mut disc = 0;
        let mut rng = SmallRng::seed_from_u64(0);
        let mut c = ctx(&mut outbox, &mut decision, &mut seq, &mut disc, &mut rng);
        c.decide(0);
        c.decide(1);
    }

    #[test]
    fn timestamps_strictly_increase() {
        let mut outbox = None;
        let mut decision = None;
        let mut seq = 0;
        let mut disc = 0;
        let mut rng = SmallRng::seed_from_u64(0);
        let mut c = ctx(&mut outbox, &mut decision, &mut seq, &mut disc, &mut rng);
        let t1 = c.timestamp();
        let t2 = c.timestamp();
        assert!(t2 > t1);
        assert_eq!(t1.node, 7);
    }
}
