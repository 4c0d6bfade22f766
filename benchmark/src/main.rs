//! `amacl-benchmark`: the engine's one benchmark.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one campaign
//!   and prints, as the last line of standard output, one JSON object
//!   `{correct, attempted, failed, metrics}` — end-to-end metrics with
//!   `--trace 0`, per-layer metrics with `--trace 1`.
//! * Without `--workload` it runs every workload, each in a fresh
//!   child process, and prints one table; `--trace` adds the per-layer
//!   run and the tracing overhead; `--repeat N` runs N sets and checks
//!   that they agree within the bounds.
//! * `--check` runs every assertion at tiny sizes in a few seconds.
//!
//! See `README.md` for what each metric means and how to read the
//! trace files.

mod campaign;
mod manifest;
mod probe;
mod replay;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use campaign::{Campaign, Outcome, MIN_PASSES};
use manifest::{END_TO_END, PER_LAYER, RUN_SECONDS};
use workloads::{host_cores, Workload, FULL, SHARDS, TINY};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

const USAGE: &str = "usage: amacl-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--repeat [N]] [--check] [--emit-manifest]";

/// Parsed command line.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    check: bool,
    emit_manifest: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        check: false,
        emit_manifest: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload = Some(Workload::from_name(&name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=600.0).contains(s))
                    .ok_or_else(|| format!("bad --seconds `{v}` (0..=600)"))?;
            }
            // A bare `--repeat` is the agreement check: two sets.
            "--repeat" => {
                args.repeat = match it.peek().and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if (1..=16).contains(&n) => {
                        it.next();
                        n
                    }
                    Some(n) => return Err(format!("bad --repeat `{n}` (1..=16)")),
                    None => 2,
                };
            }
            // The driver passes `--trace 0|1`; by hand a bare `--trace`
            // reads better.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--check" => args.check = true,
            "--emit-manifest" => args.emit_manifest = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// First line of a command's standard output, or `unknown`.
fn first_line_of(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's commit, or `unknown` when the checkout is not a git
/// repository (git may not look for one above it).
fn git_commit() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    first_line_of(
        Command::new("git")
            .args(["-C", root, "rev-parse", "--short", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", format!("{root}/..")),
    )
}

/// What actually ran, for the head of every block of rows.
fn config_line(w: Workload, seed: u64) -> String {
    let (shards, threads) = w.sharding();
    format!(
        "workload={} seed={seed} host_cores={} shards={shards} threads_requested={threads} \
         effective_workers={} queue_core={} commit={} rustc=\"{}\"",
        w.name(),
        host_cores(),
        w.effective_workers(),
        amacl_model::sim::config::EngineConfig::default()
            .queue_core
            .name(),
        git_commit(),
        first_line_of(Command::new("rustc").arg("--version")),
    )
}

/// The workload's row label: the sharded one names the workers that
/// really ran, never the number requested.
fn label(w: Workload) -> String {
    match w.sharding() {
        (1, _) => w.name().to_owned(),
        (shards, _) => format!("{}[S={shards},T={}]", w.name(), w.effective_workers()),
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|m| m.0 == name)
        .map_or("?", |m| m.1)
}

/// The final line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct,
        o.attempted.max(1),
        o.failed
    );
    for (i, (name, value)) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{}` prints the shortest text that reads back to the same
        // f64: every digit measured, none invented.
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            unit_of(name)
        );
    }
    s.push_str("}}");
    s
}

/// One campaign's printed output, read back.
#[derive(Debug, PartialEq)]
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    digests: Vec<String>,
}

impl ChildResult {
    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.1)
    }
}

/// Reads a [`result_json`] line back (no digests: those are printed
/// on lines of their own).
fn parse_result(line: &str) -> Option<ChildResult> {
    let after = |key: &str| {
        let at = line.find(key)? + key.len();
        Some(line[at..].trim_start())
    };
    let number = |s: &str| {
        let end = s
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(s.len());
        s[..end].parse::<f64>().ok()
    };
    let correct = after("\"correct\":")?.starts_with("true");
    let attempted = number(after("\"attempted\":")?)? as u64;
    let failed = number(after("\"failed\":")?)? as u64;
    let mut metrics = Vec::new();
    let mut rest = after("\"metrics\": {")?;
    while let Some(open) = rest.find('"') {
        let name_end = open + 1 + rest[open + 1..].find('"')?;
        let name = &rest[open + 1..name_end];
        let value_at = rest[name_end..].find("\"value\":")? + name_end + "\"value\":".len();
        metrics.push((name.to_owned(), number(rest[value_at..].trim_start())?));
        rest = &rest[value_at + rest[value_at..].find('}')? + 1..];
    }
    Some(ChildResult {
        correct,
        attempted,
        failed,
        metrics,
        digests: Vec::new(),
    })
}

/// Writes the spans of a traced campaign to
/// `benchmark/out/trace-<workload>.json`.
fn write_trace(w: Workload, config: &str, o: &Outcome) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/trace-{}.json", w.name());
    let mut s = format!(
        "{{\"config\": \"{}\",\n \"passes\": {},\n \"spans_dropped\": {},\n \"spans\": [\n",
        config.replace('"', "'"),
        o.passes,
        o.spans.dropped()
    );
    for (i, span) in o.spans.spans().iter().enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        let parent = span
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = write!(
            s,
            "{sep}  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"run\": {}}}",
            span.name, span.start_ns, span.end_ns, span.run
        );
    }
    s.push_str("\n ]}\n");
    std::fs::write(&path, s)?;
    Ok(path)
}

/// Runs one campaign and prints it; the JSON result is the last line.
fn run_one(w: Workload, args: &Args) -> ExitCode {
    let outcome = campaign::run(&Campaign {
        workload: w,
        sizes: FULL,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        min_passes: MIN_PASSES,
    });
    let config = config_line(w, args.seed);
    println!("# {config}");
    println!(
        "# passes={} seconds={} trace={}",
        outcome.passes,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (i, d) in outcome.digests.iter().enumerate() {
        println!("digest {i} {d:016x}");
    }
    for (name, value) in &outcome.metrics {
        println!("{:<34} {:>18.6} {}", name, value, unit_of(name));
    }
    println!(
        "failed_share {} / {} operations",
        outcome.failed, outcome.attempted
    );
    if args.trace {
        match write_trace(w, &config, &outcome) {
            Ok(path) => println!("# spans written to {path}"),
            Err(e) => eprintln!("warning: trace file not written: {e}"),
        }
    }
    for p in &outcome.problems {
        println!("PROBLEM: {p}");
    }
    println!("{}", result_json(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one campaign in a fresh process (so `peak_rss_mb` is the
/// workload's own), waits for it, and parses what it printed.
fn spawn_campaign(w: Workload, args: &Args, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Failed checks and the traced run's share breakdown go through
    // to the table.
    for line in stdout
        .lines()
        .filter(|l| l.starts_with("PROBLEM") || l.starts_with("# engine.run_s breakdown"))
    {
        println!("{}: {line}", label(w));
    }
    let last = stdout.lines().last().unwrap_or("");
    let mut result = parse_result(last).ok_or_else(|| {
        format!(
            "{}: no result line (exit {:?}): {}",
            w.name(),
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    result.correct &= out.status.success();
    result.digests = stdout
        .lines()
        .filter(|l| l.starts_with("digest "))
        .map(str::to_owned)
        .collect();
    Ok(result)
}

/// One table row per metric of a campaign.
fn print_rows(w: Workload, result: &ChildResult) {
    for (name, value) in &result.metrics {
        println!(
            "{:<32} {:<34} {:>18.6} {}",
            label(w),
            name,
            value,
            unit_of(name)
        );
    }
}

/// One full set: every workload untraced, and traced too with
/// `--trace`. Prints the rows; returns the untraced results and
/// whether everything was correct.
fn run_set(args: &Args) -> Result<(Vec<ChildResult>, bool), String> {
    let mut ok = true;
    let mut results = Vec::new();
    for w in Workload::ALL {
        println!("# {}", config_line(w, args.seed));
        let e2e = spawn_campaign(w, args, false)?;
        print_rows(w, &e2e);
        println!(
            "{:<32} {:<34} {:>18.6} ratio ({} of {} operations)",
            label(w),
            "failed_share",
            e2e.failed as f64 / e2e.attempted.max(1) as f64,
            e2e.failed,
            e2e.attempted
        );
        ok &= e2e.correct && e2e.failed == 0;
        if args.trace {
            let layers = spawn_campaign(w, args, true)?;
            print_rows(w, &layers);
            // Same seed, so the first passes are the same simulations.
            if layers.digests != e2e.digests {
                println!("PROBLEM: {}: traced and untraced digests differ", w.name());
                ok = false;
            }
            println!(
                "{:<32} {:<34} {:>18.6} % (traced vs untraced events_per_sec)",
                label(w),
                "tracing_overhead_pct",
                (1.0 - layers.get("engine.events_per_sec") / e2e.get("events_per_sec")) * 100.0
            );
            ok &= layers.correct;
        }
        results.push(e2e);
    }
    let of = |w: Workload| &results[Workload::ALL.iter().position(|x| *x == w).expect("listed")];
    let (serial, sharded) = (of(Workload::Wpaxos), of(Workload::WpaxosSharded));
    if serial.digests != sharded.digests {
        println!("PROBLEM: serial and sharded wpaxos campaigns differ in events or decisions");
        ok = false;
    }
    println!(
        "{:<32} {:<34} {:>18.6} ratio (events_per_sec, sharded / serial, this set)",
        label(Workload::WpaxosSharded),
        "shard.speedup_vs_serial",
        sharded.get("events_per_sec") / serial.get("events_per_sec")
    );
    Ok((results, ok))
}

/// Metrics that are functions of the seed alone: equal between sets.
const EXACT: [&str; 2] = ["decide_ticks_p50", "decide_ticks_p99"];

/// `--repeat N`: N sets of the same build must agree within each
/// metric's bound (exactly, for the deterministic ones).
fn run_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut sets = Vec::new();
    for i in 0..args.repeat {
        println!("## set {} of {}", i + 1, args.repeat);
        let (results, set_ok) = run_set(args)?;
        ok &= set_ok;
        sets.push(results);
    }
    if args.repeat < 2 {
        return Ok(ok);
    }
    println!("## agreement between {} sets", args.repeat);
    for (wi, w) in Workload::ALL.iter().enumerate() {
        for m in &END_TO_END {
            let values: Vec<f64> = sets.iter().map(|s| s[wi].get(m.name)).collect();
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = (hi - lo) / lo.abs();
            let exact = EXACT.contains(&m.name);
            let agree = if exact { hi == lo } else { spread <= m.bound };
            ok &= agree;
            println!(
                "{:<32} {:<20} {:?} spread {:.4} bound {} {}",
                label(*w),
                m.name,
                values,
                spread,
                if exact {
                    "exact".to_owned()
                } else {
                    m.bound.to_string()
                },
                if agree { "ok" } else { "DISAGREE" }
            );
        }
        let same = sets
            .iter()
            .all(|s| s[wi].digests == sets[0][wi].digests && s[wi].failed == sets[0][wi].failed);
        if !same {
            println!(
                "PROBLEM: {}: digests or failures differ between sets",
                w.name()
            );
            ok = false;
        }
    }
    Ok(ok)
}

/// `--check`: every assertion of the full command, at tiny sizes.
fn check(seed: u64) -> bool {
    let mut all_ok = true;
    let mut digests = Vec::new();
    for w in Workload::ALL {
        let mut ok = true;
        let mut per_mode = Vec::new();
        for traced in [false, true] {
            let o = campaign::run(&Campaign {
                workload: w,
                sizes: TINY,
                seed,
                seconds: 0.0,
                traced,
                min_passes: 2,
            });
            for p in &o.problems {
                println!("PROBLEM: {} trace={}: {p}", w.name(), u8::from(traced));
            }
            let complete = o.metrics.len()
                == if traced {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                }
                && o.metrics.iter().all(|m| m.1.is_finite());
            if !complete {
                println!("PROBLEM: {}: a metric is missing or not finite", w.name());
            }
            ok &= o.correct && o.failed == 0 && complete;
            per_mode.push(o.digests);
        }
        let same = per_mode[0] == per_mode[1];
        if !same {
            println!(
                "PROBLEM: {}: traced and untraced campaigns differ",
                w.name()
            );
        }
        ok &= same;
        println!(
            "check {:<24} {}",
            w.name(),
            if ok { "ok" } else { "FAILED" }
        );
        all_ok &= ok;
        digests.push(per_mode.swap_remove(0));
    }
    if digests[0] != digests[1] {
        println!("PROBLEM: serial and sharded wpaxos campaigns differ");
        all_ok = false;
    }
    all_ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.emit_manifest {
        print!("{}", manifest::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.check {
        return if check(args.seed) {
            println!(
                "all checks passed (shards={SHARDS}, host_cores={})",
                host_cores()
            );
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if let Some(w) = args.workload {
        return run_one(w, &args);
    }
    match run_all(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let o = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            problems: vec![],
            metrics: vec![("setup_s", 0.015625), ("events_per_sec", 1.0584e6)],
            digests: vec![],
            notes: vec![],
            passes: 3,
            spans: probe::Spans::new(),
        };
        let line = result_json(&o);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.015625, \"unit\": \"s\"}"));
        assert_eq!(
            parse_result(&line),
            Some(ChildResult {
                correct: true,
                attempted: 12,
                failed: 0,
                metrics: vec![
                    ("setup_s".to_owned(), 0.015625),
                    ("events_per_sec".to_owned(), 1.0584e6)
                ],
                digests: vec![],
            })
        );
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let parse = |s: &str| {
            let argv: Vec<String> = s.split_whitespace().map(str::to_owned).collect();
            parse_args(&argv)
        };
        assert!(parse("--trace").unwrap().trace);
        assert!(parse("--trace 1").unwrap().trace);
        assert!(!parse("--trace 0").unwrap().trace);
        let a = parse("--workload openloop-clique4 --seed 7 --seconds 3 --trace 0").unwrap();
        assert_eq!(a.workload, Some(Workload::OpenLoop));
        assert_eq!((a.seed, a.seconds), (7, 3.0));
        assert!(parse("--trace --check").unwrap().check);
        assert_eq!(parse("--repeat").unwrap().repeat, 2);
        assert_eq!(parse("--repeat 3 --trace").unwrap().repeat, 3);
        assert!(parse("--repeat 0").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds -1").is_err());
    }
}
