//! Argument parsing. The instance specs (`--algo`, `--topo`,
//! `--sched`, `--inputs`) parse straight into the checker's instance
//! descriptors, the vocabulary the scenarios and the explorer share.

use amacl_checker::scenario::{
    parse_num as num, ScenarioAlgo, ScenarioInputs, ScenarioSched, ScenarioTopo,
};
use amacl_checker::workload::ArrivalKind;
use amacl_model::prelude::*;

/// Parses `slot=2,time=5` or `slot=2,bcast=1,delivered=0`.
pub fn parse_crash(s: &str) -> Result<CrashSpec, String> {
    let mut slot = None;
    let mut time = None;
    let mut bcast = None;
    let mut delivered = None;
    for part in s.split(',') {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("bad crash field `{part}` in `{s}`"))?;
        let v: u64 = v
            .trim()
            .parse()
            .map_err(|_| format!("bad number in crash field `{part}`"))?;
        match k.trim() {
            "slot" => slot = Some(v as usize),
            "time" => time = Some(v),
            "bcast" => bcast = Some(v),
            "delivered" => delivered = Some(v as usize),
            _ => return Err(format!("unknown crash field `{k}` in `{s}`")),
        }
    }
    let slot = slot.ok_or_else(|| format!("crash `{s}` needs slot=<s>"))?;
    match (time, bcast, delivered) {
        (Some(t), None, None) => Ok(CrashSpec::AtTime {
            slot: Slot(slot),
            time: Time(t),
        }),
        (None, Some(nth), Some(k)) => Ok(CrashSpec::MidBroadcast {
            slot: Slot(slot),
            nth_broadcast: nth,
            delivered: k,
        }),
        _ => Err(format!(
            "crash `{s}` needs either time=<t> or bcast=<n>,delivered=<k>"
        )),
    }
}

/// The engine-selection flags (`--queue`, `--shards`, `--threads`)
/// shared by `run`, `crosscheck` and `load`.
/// Parsing lives at one site (the private `EngineFlags::parse`), so
/// `--shards 0`, `--threads 0`, and typos are rejected with
/// identical messages everywhere, and resolution lives at one site
/// ([`EngineFlags::resolve`]): each given flag overrides the
/// serial-heap default.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EngineFlags {
    /// `--queue heap|calendar` (`None`: heap).
    pub queue: Option<QueueCoreKind>,
    /// `--shards <n>` (`None`: serial).
    pub shards: Option<usize>,
    /// `--threads <n>` (`None`: single-threaded).
    pub threads: Option<usize>,
}

impl EngineFlags {
    /// Parses the three optional engine flags through the `FromStr`
    /// impls of [`QueueCoreKind`], [`ShardCount`] and [`ThreadCount`].
    fn parse(opts: &mut Opts) -> Result<Self, String> {
        let queue = match opts.optional("--queue") {
            Some(s) => Some(s.parse::<QueueCoreKind>()?),
            None => None,
        };
        let shards = match opts.optional("--shards") {
            Some(s) => Some(
                s.parse::<ShardCount>()
                    .map_err(|e| format!("--shards: {e}"))?
                    .get(),
            ),
            None => None,
        };
        let threads = match opts.optional("--threads") {
            Some(s) => Some(
                s.parse::<ThreadCount>()
                    .map_err(|e| format!("--threads: {e}"))?
                    .get(),
            ),
            None => None,
        };
        Ok(Self {
            queue,
            shards,
            threads,
        })
    }

    /// Resolves the flags into a full engine configuration: each
    /// given flag overrides the corresponding [`EngineConfig::default`]
    /// knob.
    pub fn resolve(self) -> EngineConfig {
        let mut cfg = EngineConfig::default();
        if let Some(q) = self.queue {
            cfg = cfg.queue_core(q);
        }
        if let Some(s) = self.shards {
            cfg = cfg.shards(s);
        }
        if let Some(t) = self.threads {
            cfg = cfg.threads(t);
        }
        cfg
    }
}

/// A fully parsed invocation.
#[derive(Clone, Debug)]
pub enum Command {
    /// `amacl run ...`
    Run {
        /// Algorithm.
        algo: ScenarioAlgo,
        /// Topology.
        topo: ScenarioTopo,
        /// Scheduler, with the seed its spec carries.
        sched: (ScenarioSched, u64),
        /// Input assignment.
        inputs: ScenarioInputs,
        /// Crashes to inject.
        crashes: Vec<CrashSpec>,
        /// Print decide/crash trace events.
        trace: bool,
        /// Replay the trace through the conformance checker.
        audit: bool,
        /// Per-message id budget override.
        id_budget: Option<usize>,
        /// Engine selection (`--queue/--shards/--threads`).
        engine: EngineFlags,
    },
    /// `amacl check ...`
    Check {
        /// Algorithm (must be untimed).
        algo: ScenarioAlgo,
        /// Topology.
        topo: ScenarioTopo,
        /// Input assignment.
        inputs: ScenarioInputs,
        /// Crash moves the explored scheduler may take.
        crash_budget: usize,
        /// State cap.
        max_states: usize,
        /// Breadth-first search (minimal counterexample schedules).
        bfs: bool,
    },
    /// `amacl fuzz ...`
    Fuzz {
        /// Algorithm (must be untimed).
        algo: ScenarioAlgo,
        /// Topology.
        topo: ScenarioTopo,
        /// Input assignment.
        inputs: ScenarioInputs,
        /// Crash moves each walk's scheduler may take.
        crash_budget: usize,
        /// Number of random walks.
        walks: usize,
        /// RNG seed.
        seed: u64,
    },
    /// `amacl topo ...`
    Topo {
        /// Topology to describe.
        topo: ScenarioTopo,
    },
    /// `amacl crosscheck ...`: the same algorithm on the discrete-event
    /// engine and the threaded runtime, diffed through the shared
    /// `MacLayer` trait.
    CrossCheck {
        /// Algorithm.
        algo: ScenarioAlgo,
        /// Topology.
        topo: ScenarioTopo,
        /// Input assignment.
        inputs: ScenarioInputs,
        /// Engine-side adversary with the seed its spec carries
        /// (`None`: seeded random under `f_ack`).
        sched: Option<(ScenarioSched, u64)>,
        /// Engine scheduler bound (used when `sched` is `None`).
        f_ack: u64,
        /// Crashes injected on both backends.
        crashes: Vec<CrashSpec>,
        /// Seed for both backends.
        seed: u64,
        /// Runtime delivery jitter, microseconds.
        jitter_us: u64,
        /// Runtime wall-clock budget, milliseconds.
        timeout_ms: u64,
        /// Demand bit-identical per-slot decisions (only sound for
        /// input-determined algorithms).
        strict: bool,
        /// Engine selection (`--queue/--shards/--threads`).
        engine: EngineFlags,
    },
    /// `amacl explore ...`: DPOR model checking of the delivery/ack/
    /// crash interleavings behind the `MacLayer` seam, with violating
    /// schedules lowered into sweep-ready scenarios.
    Explore {
        /// Algorithm (must be untimed).
        algo: ScenarioAlgo,
        /// Topology.
        topo: ScenarioTopo,
        /// Input assignment.
        inputs: ScenarioInputs,
        /// Crash moves the explored scheduler may take.
        crash_budget: usize,
        /// State cap.
        max_states: usize,
        /// Depth cap.
        max_depth: usize,
        /// Plain DFS + state dedup instead of DPOR.
        naive: bool,
        /// Seeded ledger bug (`none` | `ack-early` | `drop-releases`).
        mutate: Option<String>,
    },
    /// `amacl sweep ...`: the named adversarial scenario catalogue on
    /// both backends, fanned out over worker threads.
    Sweep {
        /// Run the bounded CI subset instead of the full catalogue.
        smoke: bool,
        /// Run only the named scenario.
        scenario: Option<String>,
        /// Seeds per scenario.
        seeds: usize,
        /// List the catalogue and exit.
        list: bool,
    },
    /// `amacl load ...`: open-loop sustained consensus under a target
    /// arrival rate, with submit→decide latency SLO reporting
    /// (p50/p99/p999) and the serial/sharded/threaded identity proofs.
    Load {
        /// Run only the named scenario (`None`: full catalogue).
        scenario: Option<String>,
        /// Arrival process override (`det` | `poisson`).
        arrival: Option<ArrivalKind>,
        /// Target-rate override, requests per 1000 ticks.
        rate: Option<u64>,
        /// Arrival-window override, ticks.
        duration: Option<u64>,
        /// Workload seed override.
        seed: Option<u64>,
        /// List the catalogue and exit.
        list: bool,
        /// Engine selection. Without any engine flag, every scenario
        /// is swept across the engine grid; with one, the run is
        /// pinned to the resolved configuration and only the latency
        /// surface is reported.
        engine: EngineFlags,
    },
}

impl Command {
    /// Parses the argument vector (without the program name).
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let Some((verb, rest)) = args.split_first() else {
            return Err(crate::USAGE.to_string());
        };
        let mut opts = Opts::scan(rest)?;
        let cmd = match verb.as_str() {
            "run" => Command::Run {
                algo: ScenarioAlgo::parse(&opts.required("--algo")?)?,
                topo: ScenarioTopo::parse(&opts.required("--topo")?)?,
                sched: ScenarioSched::parse(
                    &opts.optional("--sched").unwrap_or("random:4:42".into()),
                )?,
                inputs: inputs(&mut opts)?,
                crashes: crashes(&mut opts)?,
                trace: opts.flag("--trace"),
                audit: opts.flag("--audit"),
                id_budget: opts.optional_num("--id-budget")?,
                engine: EngineFlags::parse(&mut opts)?,
            },
            "check" => Command::Check {
                algo: ScenarioAlgo::parse(&opts.required("--algo")?)?,
                topo: ScenarioTopo::parse(&opts.required("--topo")?)?,
                inputs: inputs(&mut opts)?,
                crash_budget: opts.num_or("--crash-budget", 0)?,
                max_states: opts.num_or("--max-states", 2_000_000)?,
                bfs: opts.flag("--bfs"),
            },
            "fuzz" => Command::Fuzz {
                algo: ScenarioAlgo::parse(&opts.required("--algo")?)?,
                topo: ScenarioTopo::parse(&opts.required("--topo")?)?,
                inputs: inputs(&mut opts)?,
                crash_budget: opts.num_or("--crash-budget", 0)?,
                walks: opts.num_or("--walks", 100)?,
                seed: opts.num_or("--seed", 0)?,
            },
            "topo" => Command::Topo {
                topo: ScenarioTopo::parse(&opts.required("--topo")?)?,
            },
            "crosscheck" => Command::CrossCheck {
                algo: ScenarioAlgo::parse(&opts.required("--algo")?)?,
                topo: ScenarioTopo::parse(&opts.required("--topo")?)?,
                inputs: inputs(&mut opts)?,
                sched: opts
                    .optional("--sched")
                    .map(|s| ScenarioSched::parse(&s))
                    .transpose()?,
                crashes: crashes(&mut opts)?,
                f_ack: match opts.num_or("--f-ack", 4)? {
                    0 => return Err("`--f-ack`: F_ack must be at least 1".into()),
                    f => f,
                },
                seed: opts.num_or("--seed", 0)?,
                jitter_us: opts.num_or("--jitter-us", 200)?,
                timeout_ms: opts.num_or("--timeout-ms", 10_000)?,
                strict: opts.flag("--strict"),
                engine: EngineFlags::parse(&mut opts)?,
            },
            "explore" => Command::Explore {
                algo: ScenarioAlgo::parse(&opts.required("--algo")?)?,
                topo: ScenarioTopo::parse(&opts.required("--topo")?)?,
                inputs: inputs(&mut opts)?,
                crash_budget: opts.num_or("--crash-budget", 0)?,
                max_states: opts.num_or("--max-states", 500_000)?,
                max_depth: opts.num_or("--max-depth", 10_000)?,
                naive: opts.flag("--naive"),
                mutate: opts.optional("--mutate"),
            },
            "sweep" => Command::Sweep {
                smoke: opts.flag("--smoke"),
                scenario: opts.optional("--scenario"),
                seeds: opts.num_or("--seeds", 2)?,
                list: opts.flag("--list"),
            },
            "load" => Command::Load {
                scenario: opts.optional("--scenario"),
                arrival: opts.optional("--arrival").map(|s| s.parse()).transpose()?,
                rate: opts.optional_num("--rate")?,
                duration: opts.optional_num("--duration")?,
                seed: opts.optional_num("--seed")?,
                list: opts.flag("--list"),
                engine: EngineFlags::parse(&mut opts)?,
            },
            "help" | "--help" | "-h" => return Err(crate::USAGE.to_string()),
            other => return Err(format!("unknown command `{other}`\n\n{}", crate::USAGE)),
        };
        opts.finish()?;
        Ok(cmd)
    }
}

/// Minimal `--key value` / `--flag` scanner with leftovers detection.
struct Opts {
    pairs: Vec<(String, Option<String>)>,
    used: Vec<bool>,
}

impl Opts {
    fn scan(args: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                return Err(format!("unexpected argument `{a}`"));
            }
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => Some(it.next().unwrap().clone()),
                _ => None,
            };
            pairs.push((a.clone(), value));
        }
        let used = vec![false; pairs.len()];
        Ok(Self { pairs, used })
    }

    fn take(&mut self, key: &str) -> Option<Option<String>> {
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            if !self.used[i] && k == key {
                self.used[i] = true;
                return Some(v.clone());
            }
        }
        None
    }

    fn required(&mut self, key: &str) -> Result<String, String> {
        self.take(key)
            .flatten()
            .ok_or_else(|| format!("missing required option `{key} <value>`"))
    }

    fn optional(&mut self, key: &str) -> Option<String> {
        self.take(key).flatten()
    }

    /// `key`'s number, if given.
    fn optional_num<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, String> {
        self.optional(key).map(|s| num(&s, key)).transpose()
    }

    /// `key`'s number, or `default` when absent.
    fn num_or<T: std::str::FromStr>(&mut self, key: &str, default: T) -> Result<T, String> {
        Ok(self.optional_num(key)?.unwrap_or(default))
    }

    fn all(&mut self, key: &str) -> Vec<String> {
        let mut out = Vec::new();
        while let Some(Some(v)) = self.take(key) {
            out.push(v);
        }
        out
    }

    fn flag(&mut self, key: &str) -> bool {
        self.take(key).is_some()
    }

    fn finish(self) -> Result<(), String> {
        for (i, (k, _)) in self.pairs.iter().enumerate() {
            if !self.used[i] {
                return Err(format!("unknown or duplicate option `{k}`"));
            }
        }
        Ok(())
    }
}

/// Every `--crash`.
fn crashes(opts: &mut Opts) -> Result<Vec<CrashSpec>, String> {
    opts.all("--crash").iter().map(|s| parse_crash(s)).collect()
}

/// `--inputs`, defaulting to `alt`.
fn inputs(opts: &mut Opts) -> Result<ScenarioInputs, String> {
    ScenarioInputs::parse(&opts.optional("--inputs").unwrap_or("alt".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn algo_specs_parse() {
        assert_eq!(
            ScenarioAlgo::parse("two-phase").unwrap(),
            ScenarioAlgo::TwoPhase
        );
        assert_eq!(
            ScenarioAlgo::parse("bitwise:16").unwrap(),
            ScenarioAlgo::Bitwise(16)
        );
        assert_eq!(
            ScenarioAlgo::parse("fd-paxos").unwrap(),
            ScenarioAlgo::FdPaxos(4)
        );
        assert_eq!(
            ScenarioAlgo::parse("fd-paxos:9").unwrap(),
            ScenarioAlgo::FdPaxos(9)
        );
        assert!(ScenarioAlgo::parse("raft").is_err());
        assert!(ScenarioAlgo::parse("two-phase:3").is_err());
        for name in ["two-phase", "wpaxos", "bitwise:16", "ben-or", "fd-paxos:9"] {
            assert_eq!(ScenarioAlgo::parse(name).unwrap().name(), name);
        }
    }

    #[test]
    fn topo_specs_parse_and_build() {
        let build = |s: &str| ScenarioTopo::parse(s).unwrap().build();
        assert_eq!(build("clique:5").len(), 5);
        assert_eq!(build("grid:4x3").len(), 12);
        assert_eq!(build("hypercube:3").len(), 8);
        assert_eq!(build("barbell:4:2").len(), 10);
        let r = build("random:10:0.3:7");
        assert_eq!(r.len(), 10);
        assert!(r.is_connected());
        assert!(ScenarioTopo::parse("grid:4").is_err());
        assert!(ScenarioTopo::parse("blob:4").is_err());
        // Every family prints back the spec it was parsed from.
        for spec in [
            "clique:5",
            "line:3",
            "ring:4",
            "star:6",
            "grid:4x3",
            "torus:3x4",
            "hypercube:3",
            "binary-tree:3",
            "barbell:4:2",
            "star-of-lines:3:2",
            "caterpillar:3:2",
            "lollipop:4:3",
            "random:10:0.3:7",
            "random-tree:9:5",
        ] {
            assert_eq!(ScenarioTopo::parse(spec).unwrap().to_string(), spec);
        }
    }

    #[test]
    fn sched_specs_parse() {
        assert_eq!(
            ScenarioSched::parse("sync:2").unwrap(),
            (ScenarioSched::Sync { f_ack: 2 }, 0)
        );
        assert_eq!(
            ScenarioSched::parse("random:4:42").unwrap(),
            (ScenarioSched::Random { f_ack: 4 }, 42)
        );
        let (dual, seed) = ScenarioSched::parse("dual:2:8:1").unwrap();
        assert_eq!(
            (&dual, seed),
            (
                &ScenarioSched::Dual {
                    f_prog: 2,
                    f_ack: 8
                },
                1
            )
        );
        assert_eq!(dual.f_ack(), 8);
        assert_eq!(dual.spec(seed), "dual:2:8:1");
        assert!(ScenarioSched::parse("sync").is_err());
    }

    #[test]
    fn input_specs_materialize() {
        let inputs = |s: &str, n: usize| ScenarioInputs::parse(s).unwrap().materialize(n);
        assert_eq!(inputs("alt", 4), vec![0, 1, 0, 1]);
        assert_eq!(inputs("const:7", 3), vec![7, 7, 7]);
        assert_eq!(inputs("0,1,1", 3), vec![0, 1, 1]);
        assert!(inputs("random:9:15", 100).iter().all(|&v| v <= 15));
        assert!(ScenarioInputs::parse("x,y").is_err());
        // A list of the wrong length is the algorithm check's to refuse.
        let err = ScenarioAlgo::Wpaxos
            .check(&Topology::clique(3), &inputs("0,1", 3))
            .unwrap_err();
        assert!(err.contains("2 inputs given"), "{err}");
    }

    #[test]
    fn crash_specs_parse() {
        assert_eq!(
            parse_crash("slot=2,time=5").unwrap(),
            CrashSpec::AtTime {
                slot: Slot(2),
                time: Time(5)
            }
        );
        assert_eq!(
            parse_crash("slot=1,bcast=0,delivered=2").unwrap(),
            CrashSpec::MidBroadcast {
                slot: Slot(1),
                nth_broadcast: 0,
                delivered: 2
            }
        );
        assert!(parse_crash("slot=1").is_err());
        assert!(parse_crash("time=5").is_err());
        assert!(parse_crash("slot=1,time=2,bcast=0").is_err());
    }

    #[test]
    fn command_parse_run_with_defaults() {
        let cmd = Command::parse(&argv("run --algo two-phase --topo clique:4")).unwrap();
        match cmd {
            Command::Run {
                algo,
                sched,
                inputs,
                crashes,
                trace,
                audit,
                ..
            } => {
                assert_eq!(algo, ScenarioAlgo::TwoPhase);
                assert_eq!(sched, (ScenarioSched::Random { f_ack: 4 }, 42));
                assert_eq!(inputs, ScenarioInputs::Alternating);
                assert!(crashes.is_empty());
                assert!(!trace && !audit);
            }
            _ => panic!("expected Run"),
        }
    }

    #[test]
    fn command_parse_repeated_crashes() {
        let cmd = Command::parse(&argv(
            "run --algo ben-or --topo clique:5 --crash slot=0,time=1 --crash slot=1,bcast=0,delivered=1",
        ))
        .unwrap();
        match cmd {
            Command::Run { crashes, .. } => assert_eq!(crashes.len(), 2),
            _ => panic!("expected Run"),
        }
    }

    #[test]
    fn command_rejects_unknown_options() {
        let err =
            Command::parse(&argv("run --algo two-phase --topo clique:4 --bogus 1")).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        let err = Command::parse(&argv("fly --algo two-phase")).unwrap_err();
        assert!(err.contains("unknown command"), "{err}");
    }

    #[test]
    fn command_parse_sweep() {
        let cmd = Command::parse(&argv("sweep --smoke --seeds 3")).unwrap();
        match cmd {
            Command::Sweep {
                smoke,
                seeds,
                scenario,
                list,
            } => {
                assert!(smoke && !list);
                assert_eq!(seeds, 3);
                assert_eq!(scenario, None);
            }
            _ => panic!("expected Sweep"),
        }
        let cmd = Command::parse(&argv("sweep --scenario partition-heal")).unwrap();
        match cmd {
            Command::Sweep {
                smoke,
                seeds,
                scenario,
                ..
            } => {
                assert!(!smoke);
                assert_eq!(seeds, 2);
                assert_eq!(scenario.as_deref(), Some("partition-heal"));
            }
            _ => panic!("expected Sweep"),
        }
    }

    /// Every sweep row runs the whole engine grid, so the engine flags
    /// have nothing to select there.
    #[test]
    fn sweep_refuses_engine_flags() {
        for (flag, value) in [
            ("--shards", "2"),
            ("--threads", "2"),
            ("--queue", "calendar"),
        ] {
            let err = Command::parse(&argv(&format!("sweep --smoke {flag} {value}"))).unwrap_err();
            assert_eq!(err, format!("unknown or duplicate option `{flag}`"));
        }
    }

    /// Sizes and bounds the builders and schedulers cannot realize are
    /// parse errors, never panics.
    #[test]
    fn out_of_range_specs_are_errors() {
        for topo in [
            "random:6:1.5:7",
            "random:6:-0.1:7",
            "random:0:0.5:7",
            "grid:0x3",
            "torus:2x4",
            "clique:0",
            "line:0",
            "ring:2",
            "star:1",
            "hypercube:0",
            "hypercube:17",
            "binary-tree:0",
            "barbell:0:2",
            "star-of-lines:2:0",
            "caterpillar:0:1",
            "lollipop:0:3",
            "random-tree:0:1",
        ] {
            let err =
                Command::parse(&argv(&format!("run --algo wpaxos --topo {topo}"))).expect_err(topo);
            assert!(err.starts_with(&format!("`{topo}`: ")), "{err}");
        }
        for sched in [
            "sync:0",
            "max-delay:0",
            "random:0:1",
            "dual:0:4:1",
            "dual:9:4:1",
        ] {
            let err = Command::parse(&argv(&format!(
                "run --algo wpaxos --topo clique:3 --sched {sched}"
            )))
            .expect_err(sched);
            assert!(err.starts_with(&format!("`{sched}`: ")), "{err}");
        }
        let err = Command::parse(&argv("crosscheck --algo wpaxos --topo clique:3 --f-ack 0"))
            .unwrap_err();
        assert!(err.contains("F_ack must be at least 1"), "{err}");
    }

    #[test]
    fn shards_option_rejects_zero_and_garbage() {
        let err = Command::parse(&argv("run --algo wpaxos --topo line:4 --shards 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = Command::parse(&argv("load --shards many")).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        let cmd = Command::parse(&argv("run --algo wpaxos --topo line:4 --shards 4")).unwrap();
        match cmd {
            Command::Run { engine, .. } => assert_eq!(engine.shards, Some(4)),
            _ => panic!("expected Run"),
        }
    }

    #[test]
    fn threads_option_rejects_zero_and_garbage() {
        let err = Command::parse(&argv("run --algo wpaxos --topo line:4 --threads 0")).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        assert!(err.contains("at least 1"), "{err}");
        let err = Command::parse(&argv("load --threads lots")).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        let cmd = Command::parse(&argv(
            "crosscheck --algo wpaxos --topo line:4 --shards 2 --threads 2",
        ))
        .unwrap();
        match cmd {
            Command::CrossCheck { engine, .. } => assert_eq!(engine.threads, Some(2)),
            _ => panic!("expected CrossCheck"),
        }
    }

    #[test]
    fn retired_wake_policy_option_is_an_unknown_option_everywhere() {
        // Assembled so a repo-wide search for the retired knob's name
        // stays empty.
        let flag = ["--window", "batch"].join("-");
        for cmd in [
            "run --algo wpaxos --topo line:4 --threads 2",
            "crosscheck --algo wpaxos --topo line:4",
            "sweep --smoke",
            "load",
        ] {
            let err = Command::parse(&argv(&format!("{cmd} {flag} 8"))).unwrap_err();
            assert_eq!(
                err,
                format!("unknown or duplicate option `{flag}`"),
                "{cmd}"
            );
        }
    }

    #[test]
    fn command_parse_load() {
        let cmd = Command::parse(&argv(
            "load --scenario load-steady-state --arrival det --rate 8 --duration 5000 --seed 3",
        ))
        .unwrap();
        match cmd {
            Command::Load {
                scenario,
                arrival,
                rate,
                duration,
                seed,
                list,
                engine,
            } => {
                assert_eq!(scenario.as_deref(), Some("load-steady-state"));
                assert_eq!(arrival, Some(ArrivalKind::Deterministic));
                assert_eq!(rate, Some(8));
                assert_eq!(duration, Some(5000));
                assert_eq!(seed, Some(3));
                assert!(!list);
                assert_eq!(engine, EngineFlags::default());
            }
            _ => panic!("expected Load"),
        }
    }

    #[test]
    fn load_flags_share_the_engine_parser() {
        // The same parse site serves every subcommand, so `load`
        // rejects `--shards 0` and `--queue` typos with the exact
        // messages `run`/`crosscheck` produce.
        let err = Command::parse(&argv("load --shards 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = Command::parse(&argv("load --queue fifo")).unwrap_err();
        assert!(err.contains("unknown queue core"), "{err}");
        let err = Command::parse(&argv("load --threads some")).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        let err = Command::parse(&argv("load --arrival psoison")).unwrap_err();
        assert!(err.contains("unknown arrival process"), "{err}");
        let cmd = Command::parse(&argv("load --queue calendar --shards 2 --threads 4")).unwrap();
        match cmd {
            Command::Load { engine, .. } => {
                assert_eq!(engine.queue, Some(QueueCoreKind::Calendar));
                assert_eq!(engine.shards, Some(2));
                assert_eq!(engine.threads, Some(4));
            }
            _ => panic!("expected Load"),
        }
    }

    #[test]
    fn engine_flags_resolve_prefers_explicit_values() {
        let cfg = EngineFlags {
            queue: Some(QueueCoreKind::Calendar),
            shards: Some(3),
            threads: Some(2),
        }
        .resolve();
        assert_eq!(cfg.queue_core, QueueCoreKind::Calendar);
        assert_eq!(cfg.shards.get(), 3);
        assert_eq!(cfg.threads.get(), 2);
        // Unset flags fall back to the serial-heap default.
        assert_eq!(EngineFlags::default().resolve(), EngineConfig::default());
    }

    #[test]
    fn command_parse_crosscheck_with_sched_and_crash() {
        let cmd = Command::parse(&argv(
            "crosscheck --algo wpaxos --topo clique:5 --sched dual:2:8:7 --crash slot=0,time=3",
        ))
        .unwrap();
        match cmd {
            Command::CrossCheck { sched, crashes, .. } => {
                assert_eq!(
                    sched,
                    Some((
                        ScenarioSched::Dual {
                            f_prog: 2,
                            f_ack: 8
                        },
                        7
                    ))
                );
                assert_eq!(crashes.len(), 1);
            }
            _ => panic!("expected CrossCheck"),
        }
    }

    #[test]
    fn command_parse_explore() {
        let cmd = Command::parse(&argv(
            "explore --algo two-phase --topo clique:2 --inputs 0,1 --mutate ack-early",
        ))
        .unwrap();
        match cmd {
            Command::Explore {
                algo,
                crash_budget,
                max_states,
                max_depth,
                naive,
                mutate,
                ..
            } => {
                assert_eq!(algo, ScenarioAlgo::TwoPhase);
                assert_eq!(crash_budget, 0);
                assert_eq!(max_states, 500_000);
                assert_eq!(max_depth, 10_000);
                assert!(!naive);
                assert_eq!(mutate.as_deref(), Some("ack-early"));
            }
            _ => panic!("expected Explore"),
        }
        let cmd = Command::parse(&argv(
            "explore --algo wpaxos --topo ring:4 --crash-budget 1 --max-states 99 --naive",
        ))
        .unwrap();
        match cmd {
            Command::Explore {
                crash_budget,
                max_states,
                naive,
                mutate,
                ..
            } => {
                assert_eq!(crash_budget, 1);
                assert_eq!(max_states, 99);
                assert!(naive);
                assert_eq!(mutate, None);
            }
            _ => panic!("expected Explore"),
        }
    }

    #[test]
    fn command_parse_check() {
        let cmd = Command::parse(&argv(
            "check --algo two-phase --topo clique:3 --inputs 0,1,1 --crash-budget 1",
        ))
        .unwrap();
        match cmd {
            Command::Check {
                crash_budget,
                max_states,
                ..
            } => {
                assert_eq!(crash_budget, 1);
                assert_eq!(max_states, 2_000_000);
            }
            _ => panic!("expected Check"),
        }
    }
}
