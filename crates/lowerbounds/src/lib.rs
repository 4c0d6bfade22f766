//! # `amacl-lowerbounds`: the paper's lower bounds as executable code
//!
//! Newport's paper proves four lower bounds for consensus in the
//! abstract MAC layer model. Each proof constructs an adversary — a
//! topology, a scheduler, sometimes a crash — and argues by
//! indistinguishability. This crate turns each construction into code
//! that *runs* and mechanically checks the invariant the proof rests
//! on:
//!
//! * [`step`] / [`bivalence`] — **Theorem 3.2** (no deterministic
//!   consensus with one crash): a step machine implementing the proof's
//!   *valid step* semantics (as a restriction of the ledger-backed
//!   [`MacMachine`](amacl_model::machine::MacMachine) the model checker
//!   searches), plus an exhaustive explorer that verifies
//!   bivalent initial configurations exist, finds the *critical
//!   configurations* whose absence Lemma 3.1 proves for any
//!   crash-tolerant algorithm, and exhibits the stuck schedules where a
//!   crash strands a live node.
//! * [`crash_demo`] — a concrete mid-broadcast crash schedule under
//!   which Two-Phase Consensus loses termination, showing why the
//!   paper's upper bounds assume crash freedom.
//! * [`anonymity`] — **Theorem 3.3** (unique ids required): runs an
//!   anonymous algorithm on Figure 1's Networks A and B, checks the
//!   `S_u` state-copy indistinguishability of Lemma 3.6 step by step,
//!   and exhibits the agreement violation.
//! * [`unknown_n`] — **Theorem 3.9** (knowledge of `n` required in
//!   multihop networks): runs an id-using, `n`-free algorithm on
//!   Figure 2's `K_D` under the semi-synchronous scheduler and exhibits
//!   the split decision.
//! * [`time_lb`] — **Theorem 3.10** (`Ω(D * F_ack)` time): measures
//!   that correct algorithms never decide before `floor(D/2) * F_ack`
//!   under the max-delay adversary, and shows the partition violation
//!   for an algorithm that tries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anonymity;
pub mod bivalence;
pub mod crash_demo;
pub mod step;
pub mod time_lb;
pub mod unknown_n;
