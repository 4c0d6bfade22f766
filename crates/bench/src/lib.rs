//! # `amacl-bench`: the experiment harness
//!
//! Shared measurement code behind the [`tables`](../src/bin/tables.rs)
//! binary that regenerates every experiment series in `EXPERIMENTS.md`.
//!
//! The paper is a theory paper: its "results" are asymptotic claims and
//! worst-case constructions rather than numbered tables of a testbed.
//! Each `eN` module here corresponds to one row of the experiment index
//! in `DESIGN.md` and produces the series whose *shape* the paper
//! predicts (who wins, by what factor, where the gaps open).
//!
//! The crate holds the paper experiments E1–E15 and nothing else:
//! how fast the engine runs on a given host is measured by the
//! repository benchmark (`BENCHMARK.json`, `benchmark/`), the one perf
//! contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
