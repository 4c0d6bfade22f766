//! Plain-text specs (`family:params`) and argument parsing.

use amacl_checker::workload::ArrivalKind;
use amacl_model::prelude::*;

/// Which algorithm to run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum AlgoSpec {
    /// Algorithm 1 (single-hop, binary, no knowledge of `n`).
    TwoPhase,
    /// wPAXOS (multihop, needs `n`).
    Wpaxos,
    /// The §4.2 "simpler alternative" on the same services.
    TreeGather,
    /// Flood-and-gather baseline.
    FloodGather,
    /// Bitwise multi-valued composition with the given width.
    Bitwise(u32),
    /// Randomized Ben-Or (binary, f = 1).
    BenOr,
    /// Failure-detector-guided Paxos with the given initial timeout.
    FdPaxos(u64),
}

impl AlgoSpec {
    /// Parses `two-phase`, `bitwise:16`, `fd-paxos:8`, ...
    pub fn parse(s: &str) -> Result<Self, String> {
        let (head, tail) = split_head(s);
        match head {
            "two-phase" => no_params(tail, s).map(|()| AlgoSpec::TwoPhase),
            "wpaxos" => no_params(tail, s).map(|()| AlgoSpec::Wpaxos),
            "tree-gather" => no_params(tail, s).map(|()| AlgoSpec::TreeGather),
            "flood-gather" => no_params(tail, s).map(|()| AlgoSpec::FloodGather),
            "bitwise" => Ok(AlgoSpec::Bitwise(one_param(tail, s)?)),
            "ben-or" => no_params(tail, s).map(|()| AlgoSpec::BenOr),
            "fd-paxos" => Ok(match tail {
                None => AlgoSpec::FdPaxos(4),
                Some(_) => AlgoSpec::FdPaxos(one_param(tail, s)?),
            }),
            _ => Err(format!("unknown algorithm `{s}`")),
        }
    }

    /// Short human label.
    pub fn name(&self) -> String {
        match self {
            AlgoSpec::TwoPhase => "two-phase".into(),
            AlgoSpec::Wpaxos => "wpaxos".into(),
            AlgoSpec::TreeGather => "tree-gather".into(),
            AlgoSpec::FloodGather => "flood-gather".into(),
            AlgoSpec::Bitwise(b) => format!("bitwise:{b}"),
            AlgoSpec::BenOr => "ben-or".into(),
            AlgoSpec::FdPaxos(t) => format!("fd-paxos:{t}"),
        }
    }
}

/// Which topology to build.
#[derive(Clone, PartialEq, Debug)]
pub struct TopoSpec {
    /// The original spec text (for reports).
    pub text: String,
    topo: Topology,
}

impl TopoSpec {
    /// Parses `clique:8`, `grid:4x3`, `random:12:0.2:7`, ...
    ///
    /// Sizes the builders cannot realize (an empty clique, a 2-ring,
    /// `p` outside `[0, 1]`, ...) are rejected here, so no input makes
    /// a builder panic.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (head, tail) = split_head(s);
        let at_least = |v: usize, min: usize| -> Result<usize, String> {
            need(v >= min, s, &format!("sizes must be at least {min}")).map(|()| v)
        };
        let dim = |v: usize| -> Result<usize, String> {
            need((1..=16).contains(&v), s, "the parameter must be in 1..=16").map(|()| v)
        };
        let topo = match head {
            "clique" => Topology::clique(at_least(one_param(tail, s)?, 1)?),
            "line" => Topology::line(at_least(one_param(tail, s)?, 1)?),
            "ring" => Topology::ring(at_least(one_param(tail, s)?, 3)?),
            "star" => Topology::star(at_least(one_param(tail, s)?, 2)?),
            "grid" => {
                let (w, h) = wh_param(tail, s)?;
                Topology::grid(at_least(w, 1)?, at_least(h, 1)?)
            }
            "torus" => {
                let (w, h) = wh_param(tail, s)?;
                Topology::torus(at_least(w, 3)?, at_least(h, 3)?)
            }
            "hypercube" => Topology::hypercube(dim(one_param(tail, s)?)?),
            "binary-tree" => Topology::binary_tree(dim(one_param(tail, s)?)?),
            "barbell" => {
                let (k, bridge) = two_params(tail, s)?;
                Topology::barbell(at_least(k, 1)?, bridge)
            }
            "star-of-lines" => {
                let (arms, len) = two_params(tail, s)?;
                Topology::star_of_lines(at_least(arms, 1)?, at_least(len, 1)?)
            }
            "caterpillar" => {
                let (spine, legs) = two_params(tail, s)?;
                Topology::caterpillar(at_least(spine, 1)?, legs)
            }
            "lollipop" => {
                let (k, t) = two_params(tail, s)?;
                Topology::lollipop(at_least(k, 1)?, t)
            }
            "random" => {
                let parts = params(tail, s, 3)?;
                let n: usize = num(&parts[0], s)?;
                let p: f64 = parts[1]
                    .parse()
                    .map_err(|_| format!("bad probability in `{s}`"))?;
                need((0.0..=1.0).contains(&p), s, "p must be in [0, 1]")?;
                let seed: u64 = num(&parts[2], s)?;
                Topology::random_connected(at_least(n, 1)?, p, seed)
            }
            "random-tree" => {
                let (n, seed) = two_params::<usize, u64>(tail, s)?;
                Topology::random_tree(at_least(n, 1)?, seed)
            }
            _ => return Err(format!("unknown topology `{s}`")),
        };
        Ok(Self {
            text: s.to_string(),
            topo,
        })
    }

    /// The built topology.
    pub fn build(&self) -> Topology {
        self.topo.clone()
    }
}

/// Which scheduler adversary to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedSpec {
    /// Lockstep rounds of `F_ack` ticks.
    Sync(u64),
    /// Every broadcast takes the full `F_ack`.
    MaxDelay(u64),
    /// Seeded random delays.
    Random(u64, u64),
    /// Deliveries within `F_prog`, acks within `F_ack`.
    Dual(u64, u64, u64),
}

impl SchedSpec {
    /// Parses `sync:2`, `random:4:42`, `dual:2:8:7`, ...
    ///
    /// Every bound must be at least 1, and `F_prog` must not exceed
    /// `F_ack`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (head, tail) = split_head(s);
        let spec = match head {
            "sync" => SchedSpec::Sync(one_param(tail, s)?),
            "max-delay" => SchedSpec::MaxDelay(one_param(tail, s)?),
            "random" => {
                let (f, seed) = two_params(tail, s)?;
                SchedSpec::Random(f, seed)
            }
            "dual" => {
                let parts = params(tail, s, 3)?;
                let (f_prog, f_ack) = (num(&parts[0], s)?, num(&parts[1], s)?);
                need(f_prog >= 1, s, "F_prog must be at least 1")?;
                need(f_prog <= f_ack, s, "F_prog must not exceed F_ack")?;
                SchedSpec::Dual(f_prog, f_ack, num(&parts[2], s)?)
            }
            _ => return Err(format!("unknown scheduler `{s}`")),
        };
        need(spec.f_ack() >= 1, s, "F_ack must be at least 1")?;
        Ok(spec)
    }

    /// The `F_ack` bound this spec honors.
    pub fn f_ack(&self) -> u64 {
        match *self {
            SchedSpec::Sync(f) | SchedSpec::MaxDelay(f) | SchedSpec::Random(f, _) => f,
            SchedSpec::Dual(_, f_ack, _) => f_ack,
        }
    }

    /// Builds the boxed scheduler.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match *self {
            SchedSpec::Sync(f) => Box::new(SynchronousScheduler::new(f)),
            SchedSpec::MaxDelay(f) => Box::new(MaxDelayScheduler::new(f)),
            SchedSpec::Random(f, seed) => Box::new(RandomScheduler::new(f, seed)),
            SchedSpec::Dual(f_prog, f_ack, seed) => {
                Box::new(DualBoundScheduler::new(f_prog, f_ack, seed))
            }
        }
    }
}

/// How to assign initial values.
#[derive(Clone, PartialEq, Debug)]
pub enum InputSpec {
    /// `0,1,0,1,...`
    Alternating,
    /// Everyone starts with `v`.
    Const(Value),
    /// Seeded uniform draw from `0..=max`.
    Random {
        /// RNG seed.
        seed: u64,
        /// Inclusive maximum value.
        max: Value,
    },
    /// Explicit per-slot values.
    Explicit(Vec<Value>),
}

impl InputSpec {
    /// Parses `alt`, `const:3`, `random:7`, `random:7:15`, or a CSV
    /// list like `0,1,1`.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s == "alt" {
            return Ok(InputSpec::Alternating);
        }
        let (head, tail) = split_head(s);
        match head {
            "const" => return Ok(InputSpec::Const(one_param(tail, s)?)),
            "random" => {
                let parts = params(tail, s, usize::MAX)?;
                return match parts.len() {
                    1 => Ok(InputSpec::Random {
                        seed: num(&parts[0], s)?,
                        max: 1,
                    }),
                    2 => Ok(InputSpec::Random {
                        seed: num(&parts[0], s)?,
                        max: num(&parts[1], s)?,
                    }),
                    _ => Err(format!("`{s}`: expected random:<seed>[:<max>]")),
                };
            }
            _ => {}
        }
        let values: Result<Vec<Value>, _> = s.split(',').map(|p| p.trim().parse()).collect();
        values
            .map(InputSpec::Explicit)
            .map_err(|_| format!("bad inputs `{s}`"))
    }

    /// Materializes `n` inputs.
    ///
    /// # Errors
    ///
    /// Fails if an explicit list's length does not match `n`.
    pub fn materialize(&self, n: usize) -> Result<Vec<Value>, String> {
        match self {
            InputSpec::Alternating => Ok((0..n).map(|i| (i % 2) as Value).collect()),
            InputSpec::Const(v) => Ok(vec![*v; n]),
            InputSpec::Random { seed, max } => {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::SmallRng::seed_from_u64(*seed);
                Ok((0..n).map(|_| rng.gen_range(0..=*max)).collect())
            }
            InputSpec::Explicit(v) => {
                if v.len() == n {
                    Ok(v.clone())
                } else {
                    Err(format!(
                        "{} inputs given for a topology of {n} nodes",
                        v.len()
                    ))
                }
            }
        }
    }
}

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
        algo: AlgoSpec,
        /// Topology.
        topo: TopoSpec,
        /// Scheduler.
        sched: SchedSpec,
        /// Input assignment.
        inputs: InputSpec,
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
        /// Algorithm (must be checker-compatible).
        algo: AlgoSpec,
        /// Topology.
        topo: TopoSpec,
        /// Input assignment.
        inputs: InputSpec,
        /// Crash moves the explored scheduler may take.
        crash_budget: usize,
        /// State cap.
        max_states: usize,
        /// Breadth-first search (minimal counterexample schedules).
        bfs: bool,
    },
    /// `amacl fuzz ...`
    Fuzz {
        /// Algorithm (must be deterministic and clock-oblivious).
        algo: AlgoSpec,
        /// Topology.
        topo: TopoSpec,
        /// Input assignment.
        inputs: InputSpec,
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
        topo: TopoSpec,
    },
    /// `amacl crosscheck ...`: the same algorithm on the discrete-event
    /// engine and the threaded runtime, diffed through the shared
    /// `MacLayer` trait.
    CrossCheck {
        /// Algorithm.
        algo: AlgoSpec,
        /// Topology.
        topo: TopoSpec,
        /// Input assignment.
        inputs: InputSpec,
        /// Engine-side adversary (`None`: seeded random under
        /// `f_ack`).
        sched: Option<SchedSpec>,
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
        /// Algorithm (must be scenario-compatible: two-phase, wpaxos).
        algo: AlgoSpec,
        /// Topology (must have a scenario-descriptor form).
        topo: TopoSpec,
        /// Input assignment.
        inputs: InputSpec,
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
                algo: AlgoSpec::parse(&opts.required("--algo")?)?,
                topo: TopoSpec::parse(&opts.required("--topo")?)?,
                sched: SchedSpec::parse(&opts.optional("--sched").unwrap_or("random:4:42".into()))?,
                inputs: InputSpec::parse(&opts.optional("--inputs").unwrap_or("alt".into()))?,
                crashes: opts
                    .all("--crash")
                    .iter()
                    .map(|s| parse_crash(s))
                    .collect::<Result<_, _>>()?,
                trace: opts.flag("--trace"),
                audit: opts.flag("--audit"),
                id_budget: match opts.optional("--id-budget") {
                    Some(s) => Some(num(&s, "--id-budget")?),
                    None => None,
                },
                engine: EngineFlags::parse(&mut opts)?,
            },
            "check" => Command::Check {
                algo: AlgoSpec::parse(&opts.required("--algo")?)?,
                topo: TopoSpec::parse(&opts.required("--topo")?)?,
                inputs: InputSpec::parse(&opts.optional("--inputs").unwrap_or("alt".into()))?,
                crash_budget: match opts.optional("--crash-budget") {
                    Some(s) => num(&s, "--crash-budget")?,
                    None => 0,
                },
                max_states: match opts.optional("--max-states") {
                    Some(s) => num(&s, "--max-states")?,
                    None => 2_000_000,
                },
                bfs: opts.flag("--bfs"),
            },
            "fuzz" => Command::Fuzz {
                algo: AlgoSpec::parse(&opts.required("--algo")?)?,
                topo: TopoSpec::parse(&opts.required("--topo")?)?,
                inputs: InputSpec::parse(&opts.optional("--inputs").unwrap_or("alt".into()))?,
                crash_budget: match opts.optional("--crash-budget") {
                    Some(s) => num(&s, "--crash-budget")?,
                    None => 0,
                },
                walks: match opts.optional("--walks") {
                    Some(s) => num(&s, "--walks")?,
                    None => 100,
                },
                seed: match opts.optional("--seed") {
                    Some(s) => num(&s, "--seed")?,
                    None => 0,
                },
            },
            "topo" => Command::Topo {
                topo: TopoSpec::parse(&opts.required("--topo")?)?,
            },
            "crosscheck" => Command::CrossCheck {
                algo: AlgoSpec::parse(&opts.required("--algo")?)?,
                topo: TopoSpec::parse(&opts.required("--topo")?)?,
                inputs: InputSpec::parse(&opts.optional("--inputs").unwrap_or("alt".into()))?,
                sched: match opts.optional("--sched") {
                    Some(s) => Some(SchedSpec::parse(&s)?),
                    None => None,
                },
                crashes: opts
                    .all("--crash")
                    .iter()
                    .map(|s| parse_crash(s))
                    .collect::<Result<_, _>>()?,
                f_ack: match opts.optional("--f-ack") {
                    Some(s) => {
                        let f: u64 = num(&s, "--f-ack")?;
                        need(f >= 1, "--f-ack", "F_ack must be at least 1")?;
                        f
                    }
                    None => 4,
                },
                seed: match opts.optional("--seed") {
                    Some(s) => num(&s, "--seed")?,
                    None => 0,
                },
                jitter_us: match opts.optional("--jitter-us") {
                    Some(s) => num(&s, "--jitter-us")?,
                    None => 200,
                },
                timeout_ms: match opts.optional("--timeout-ms") {
                    Some(s) => num(&s, "--timeout-ms")?,
                    None => 10_000,
                },
                strict: opts.flag("--strict"),
                engine: EngineFlags::parse(&mut opts)?,
            },
            "explore" => Command::Explore {
                algo: AlgoSpec::parse(&opts.required("--algo")?)?,
                topo: TopoSpec::parse(&opts.required("--topo")?)?,
                inputs: InputSpec::parse(&opts.optional("--inputs").unwrap_or("alt".into()))?,
                crash_budget: match opts.optional("--crash-budget") {
                    Some(s) => num(&s, "--crash-budget")?,
                    None => 0,
                },
                max_states: match opts.optional("--max-states") {
                    Some(s) => num(&s, "--max-states")?,
                    None => 500_000,
                },
                max_depth: match opts.optional("--max-depth") {
                    Some(s) => num(&s, "--max-depth")?,
                    None => 10_000,
                },
                naive: opts.flag("--naive"),
                mutate: opts.optional("--mutate"),
            },
            "sweep" => Command::Sweep {
                smoke: opts.flag("--smoke"),
                scenario: opts.optional("--scenario"),
                seeds: match opts.optional("--seeds") {
                    Some(s) => num(&s, "--seeds")?,
                    None => 2,
                },
                list: opts.flag("--list"),
            },
            "load" => Command::Load {
                scenario: opts.optional("--scenario"),
                arrival: match opts.optional("--arrival") {
                    Some(s) => Some(s.parse()?),
                    None => None,
                },
                rate: match opts.optional("--rate") {
                    Some(s) => Some(num(&s, "--rate")?),
                    None => None,
                },
                duration: match opts.optional("--duration") {
                    Some(s) => Some(num(&s, "--duration")?),
                    None => None,
                },
                seed: match opts.optional("--seed") {
                    Some(s) => Some(num(&s, "--seed")?),
                    None => None,
                },
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

// --- tiny param helpers -------------------------------------------------

fn split_head(s: &str) -> (&str, Option<&str>) {
    match s.split_once(':') {
        Some((h, t)) => (h, Some(t)),
        None => (s, None),
    }
}

/// `Ok` when `ok`, else an error naming the spec and the broken rule.
fn need(ok: bool, spec: &str, rule: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("`{spec}`: {rule}"))
    }
}

fn no_params(tail: Option<&str>, full: &str) -> Result<(), String> {
    match tail {
        None => Ok(()),
        Some(_) => Err(format!("`{full}` takes no parameters")),
    }
}

fn params(tail: Option<&str>, full: &str, want: usize) -> Result<Vec<String>, String> {
    let tail = tail.ok_or_else(|| format!("`{full}` needs parameters"))?;
    let parts: Vec<String> = tail.split(':').map(str::to_string).collect();
    if want != usize::MAX && parts.len() != want {
        return Err(format!("`{full}`: expected {want} parameter(s)"));
    }
    Ok(parts)
}

fn num<T: std::str::FromStr>(s: &str, ctx: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("bad number `{s}` in `{ctx}`"))
}

fn one_param<T: std::str::FromStr>(tail: Option<&str>, full: &str) -> Result<T, String> {
    let parts = params(tail, full, 1)?;
    num(&parts[0], full)
}

fn two_params<A: std::str::FromStr, B: std::str::FromStr>(
    tail: Option<&str>,
    full: &str,
) -> Result<(A, B), String> {
    let parts = params(tail, full, 2)?;
    Ok((num(&parts[0], full)?, num(&parts[1], full)?))
}

fn wh_param(tail: Option<&str>, full: &str) -> Result<(usize, usize), String> {
    let parts = params(tail, full, 1)?;
    let (w, h) = parts[0]
        .split_once('x')
        .ok_or_else(|| format!("`{full}`: expected <w>x<h>"))?;
    Ok((num(w, full)?, num(h, full)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn algo_specs_parse() {
        assert_eq!(AlgoSpec::parse("two-phase").unwrap(), AlgoSpec::TwoPhase);
        assert_eq!(
            AlgoSpec::parse("bitwise:16").unwrap(),
            AlgoSpec::Bitwise(16)
        );
        assert_eq!(AlgoSpec::parse("fd-paxos").unwrap(), AlgoSpec::FdPaxos(4));
        assert_eq!(AlgoSpec::parse("fd-paxos:9").unwrap(), AlgoSpec::FdPaxos(9));
        assert!(AlgoSpec::parse("raft").is_err());
        assert!(AlgoSpec::parse("two-phase:3").is_err());
    }

    #[test]
    fn topo_specs_parse_and_build() {
        assert_eq!(TopoSpec::parse("clique:5").unwrap().build().len(), 5);
        assert_eq!(TopoSpec::parse("grid:4x3").unwrap().build().len(), 12);
        assert_eq!(TopoSpec::parse("hypercube:3").unwrap().build().len(), 8);
        assert_eq!(TopoSpec::parse("barbell:4:2").unwrap().build().len(), 10);
        let r = TopoSpec::parse("random:10:0.3:7").unwrap().build();
        assert_eq!(r.len(), 10);
        assert!(r.is_connected());
        assert!(TopoSpec::parse("grid:4").is_err());
        assert!(TopoSpec::parse("blob:4").is_err());
    }

    #[test]
    fn sched_specs_parse() {
        assert_eq!(SchedSpec::parse("sync:2").unwrap(), SchedSpec::Sync(2));
        assert_eq!(
            SchedSpec::parse("random:4:42").unwrap(),
            SchedSpec::Random(4, 42)
        );
        assert_eq!(
            SchedSpec::parse("dual:2:8:1").unwrap(),
            SchedSpec::Dual(2, 8, 1)
        );
        assert_eq!(SchedSpec::parse("dual:2:8:1").unwrap().f_ack(), 8);
        assert!(SchedSpec::parse("sync").is_err());
    }

    #[test]
    fn input_specs_materialize() {
        assert_eq!(
            InputSpec::parse("alt").unwrap().materialize(4).unwrap(),
            vec![0, 1, 0, 1]
        );
        assert_eq!(
            InputSpec::parse("const:7").unwrap().materialize(3).unwrap(),
            vec![7, 7, 7]
        );
        assert_eq!(
            InputSpec::parse("0,1,1").unwrap().materialize(3).unwrap(),
            vec![0, 1, 1]
        );
        assert!(InputSpec::parse("0,1").unwrap().materialize(3).is_err());
        let r = InputSpec::parse("random:9:15")
            .unwrap()
            .materialize(100)
            .unwrap();
        assert!(r.iter().all(|&v| v <= 15));
        assert!(InputSpec::parse("x,y").is_err());
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
                assert_eq!(algo, AlgoSpec::TwoPhase);
                assert_eq!(sched, SchedSpec::Random(4, 42));
                assert_eq!(inputs, InputSpec::Alternating);
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
                assert_eq!(sched, Some(SchedSpec::Dual(2, 8, 7)));
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
                assert_eq!(algo, AlgoSpec::TwoPhase);
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
