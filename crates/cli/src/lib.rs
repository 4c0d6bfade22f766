//! # `amacl-cli`: command-line driver for the `amacl` workspace
//!
//! Exposes the library's algorithms, topologies, schedulers, crash
//! injection, conformance auditing, and the exhaustive model checker
//! behind one binary:
//!
//! ```text
//! amacl run   --algo wpaxos --topo grid:6x4 --sched random:4:42
//! amacl run   --algo two-phase --topo clique:8 --sched max-delay:16 --trace
//! amacl run   --algo fd-paxos --topo clique:5 --crash slot=0,bcast=1,delivered=2
//! amacl check --algo two-phase --topo clique:3 --inputs 0,1,1 --crash-budget 1
//! amacl fuzz  --algo wpaxos --topo grid:3x3 --walks 200
//! amacl topo  --topo barbell:6:3
//! ```
//!
//! Everything is plain-text specs (`family:params`), parsed by
//! [`spec`] into the checker's instance descriptors
//! (`amacl_checker::scenario`); [`exec`] maps a parsed
//! [`Command`](spec::Command) onto the library and renders a report.
//! The crate is a thin, well-tested shim: all semantics — the
//! algorithm table and the instance rules included — live in the
//! workspace libraries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
mod parallel;
pub mod spec;

/// Parses `args` (without the program name) and executes the command,
/// returning the rendered report.
///
/// # Errors
///
/// Returns a usage/parse/execution error message intended for stderr.
pub fn run_cli(args: &[String]) -> Result<String, String> {
    let cmd = spec::Command::parse(args)?;
    exec::execute(cmd)
}

/// The top-level usage text.
pub const USAGE: &str = "\
amacl — consensus with an abstract MAC layer (Newport, PODC 2014)

USAGE:
  amacl run   --algo <ALGO> --topo <TOPO> [--sched <SCHED>] [--inputs <INPUTS>]
              [--crash <CRASH>]... [--trace] [--audit] [--id-budget <N>]
              [--queue heap|calendar] [--shards <S>] [--threads <T>]
  amacl check --algo <ALGO> --topo <TOPO> [--inputs <INPUTS>]
              [--crash-budget <N>] [--max-states <N>] [--bfs]
  amacl fuzz  --algo <ALGO> --topo <TOPO> [--inputs <INPUTS>]
              [--crash-budget <N>] [--walks <N>] [--seed <S>]
  amacl topo  --topo <TOPO>
  amacl crosscheck --algo <ALGO> --topo <TOPO> [--inputs <INPUTS>]
              [--sched <SCHED>] [--crash <CRASH>]... [--f-ack <N>]
              [--seed <S>] [--jitter-us <N>] [--timeout-ms <N>] [--strict]
              [--queue heap|calendar] [--shards <S>] [--threads <T>]
  amacl explore --algo <ALGO> --topo <TOPO> [--inputs <INPUTS>]
              [--crash-budget <N>] [--max-states <N>] [--max-depth <N>]
              [--naive] [--mutate none|ack-early|drop-releases]
  amacl sweep [--smoke] [--scenario <NAME>] [--seeds <N>] [--list]
  amacl load  [--scenario <NAME>] [--arrival det|poisson] [--rate <R>]
              [--duration <TICKS>] [--seed <S>] [--list]
              [--queue heap|calendar] [--shards <S>] [--threads <T>]

ALGO:    two-phase | wpaxos | tree-gather | flood-gather | bitwise:<bits>
         | ben-or | fd-paxos[:<initial-timeout>]
         run takes every ALGO; crosscheck all but fd-paxos (its timeouts
         are clock-scale dependent); check, fuzz and explore the untimed
         ones: all but ben-or (random bits) and fd-paxos (reads the clock).
         two-phase, bitwise, ben-or and fd-paxos are single-hop (clique
         only); two-phase and ben-or are binary; ben-or needs n >= 3.
         Every verb refuses a bad instance with the same message.
TOPO:    clique:<n> | line:<n> | ring:<n> | star:<n> | grid:<w>x<h>
         | torus:<w>x<h> | hypercube:<dim> | binary-tree:<levels>
         | barbell:<k>:<bridge> | star-of-lines:<arms>:<len>
         | caterpillar:<spine>:<legs> | lollipop:<k>:<tail>
         | random:<n>:<p>:<seed> | random-tree:<n>:<seed>
SCHED:   sync:<F_ack> | max-delay:<F_ack> | random:<F_ack>:<seed>
         | dual:<F_prog>:<F_ack>:<seed>          (default: random:4:42)
INPUTS:  alt | const:<v> | random:<seed>[:<max>] | <v0>,<v1>,...
         (default: alt — alternating 0,1,0,1,...)
CRASH:   slot=<s>,time=<t>  |  slot=<s>,bcast=<nth>,delivered=<k>

`check` explores EVERY schedule (and crash placement within the budget)
for the instance and reports either full verification or a violating
schedule — with `--bfs`, a shortest one. It walks the same ledger-backed
machine `explore` does, deduplicating converged states. wPAXOS never
quiesces, so termination is never judged on it: clique:2
closes with safety proven, larger instances report TRUNCATED.

`fuzz` runs random walks over the same unrestricted scheduler space at
sizes `check` cannot cover (same algorithms), judging every state a
walk passes through.

`crosscheck` runs the same algorithm on BOTH execution backends — the
discrete-event engine and the threaded runtime — through the shared
`MacLayer` trait, verifies agreement/termination/validity on each, and
reports the first diverging slot with both backends' views. `--sched`
picks the engine-side adversary; `--crash` injects the same crash plan
into both backends (timed crashes map onto wall-clock deadlines on the
threaded side). `--strict` additionally demands bit-identical decisions
(sound only for crash-free, input-determined instances, e.g. uniform
inputs). `--queue` pins the engine's event-queue core (default: heap).

`explore` model-checks the MacLayer seam itself: it enumerates every
delivery/ack/crash interleaving of the shared broadcast ledger (DPOR
with sleep sets by default; `--naive` for plain DFS + state dedup) and
judges agreement/validity/termination in every reachable state.
`--mutate` seeds a deliberate ledger bug (`ack-early` confirms
broadcasts before all deliveries land; `drop-releases` leaks the ack
obligations of crashed nodes) — the explorer must then find a
violating schedule, and the command lowers it into a scripted-scheduler
+ crash-plan scenario and proves the round trip: the lowered scenario
sweeps clean on the real backends, so it can be enrolled in the
catalogue verbatim (`explored-ack-early-witness` is one such entry).
A violation found with NO mutation is instead a genuine property of
the algorithm (e.g. two-phase is not crash tolerant); since such a
stall is existential — one backend's timing may escape the exact
interleaving — its round trip gates on engine byte-identity across
the engine grid plus safety, and reports whether the engine
reproduces the stall. Any topology works; wPAXOS's untimed ballot space
is far too large to cover exhaustively from n = 3 on — expect
truncation.

`sweep` runs the named adversarial scenario catalogue — healing
partitions (single and multi-cut, line and torus), quorum-member timed
crashes, crash storms at the f = minority boundary (cliques and random
trees), partial-delivery crashes, slow-ack/fast-progress skew (grids
and hypercubes), scripted worst-case interleavings — on both backends,
fanned out over worker threads, and fails on any divergence or
property violation. Every row additionally runs the engine on every
configuration of the ENGINE GRID (both queue cores, the sharded
engine, the parallel stepper) and fails unless every report is
byte-identical to the serial-heap reference; the row ends in `engine
grid identical` or `DIVERGED at <config>`, and the cross-shard
counters (cross-shard deliveries, window advances, load skew) are
printed as aligned columns. `--smoke` is the bounded subset CI runs on
every PR; `--list` prints the catalogue.

`load` drives an OPEN-LOOP sustained workload: client requests arrive
continuously at a target rate (`--arrival det` evenly spaced, `poisson`
exponential inter-arrival; `--rate` requests per 1000 ticks over
`--duration` ticks), queue at a single proposer, and are decided by a
pipeline of consensus instances over the bitwise machinery against one
long-lived engine. It reports submit-to-decide latency histograms
(p50/p99/p999/max) and sustained decisions per kilotick. By default
every scenario — steady state, a follower crash mid-run, a partition
building backlog before healing — is swept across the engine grid
and fails unless the trace, the histogram, and every per-request
latency are byte-identical; with an engine flag the run is pinned to
that configuration and only the latency surface is reported.

`--queue/--shards/--threads` select the engine on run, crosscheck and
load through one shared parser; an unset flag keeps the serial-heap
default. `--shards` executes the engine sharded (the conservative
time-window coordinator; identical results by construction, surfaced
so the claim is checkable from the CLI); `--threads` steps windows on
a persistent worker pool (results stay byte-identical); a typo in any
flag is rejected rather than silently ignored, with the same message
everywhere.
";
