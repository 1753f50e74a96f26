//! End-to-end and per-layer benchmark of the delinearization pipeline.
//!
//! ```text
//! perfbench --workload <riceps|dense|cold-solve|serve> --seed N --seconds S
//!           --trace <0|1> --serve-bin PATH
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is 1 when any output
//! check failed. See `README.md` beside this package for every metric and
//! workload.

mod batch;
mod oracle;
mod serving;
mod speed;
mod stats;
mod traced;
mod units;

use delin_dep::budget::{BudgetSpec, DEFAULT_NODE_LIMIT};
use delin_vic::batch::{BatchConfig, BatchStats, RetryPolicy};
use delin_vic::cache::KeyMode;
use delin_vic::deps::TestChoice;
use stats::Tail;
use std::path::PathBuf;
use traced::Layers;

/// Worker threads for every parallel pass and for the daemon: the machine
/// this benchmark was sized on has two cores. Pinned, never "auto", so the
/// figures do not move with the host.
pub const WORKERS: usize = 2;

/// Set-ups per run, `setup_s` being their median: five, or three where
/// one set-up's warm-up pass alone takes over a second (`riceps`).
pub const SETUPS: usize = 5;

/// The highest tail percentile any workload reports.
pub const TAIL_TOP: f64 = stats::TAIL_LADDER[0];

/// The workloads, as `--workload` names them.
pub const WORKLOADS: [&str; 4] = ["riceps", "dense", "cold-solve", "serve"];

/// The end-to-end metrics every `--trace 0` run prints.
pub const END_TO_END: [&str; 8] = [
    "setup_s",
    "units_per_s",
    "unit_p50_ms",
    "unit_tail_ms",
    "peak_rss_mb",
    "independent_pairs",
    "vectorized_stmts",
    "clean_share",
];

/// Dependence tests whose charged attempts get their own layer metric;
/// attempts by any other test land in `dep.attempts.other`.
pub const TESTS: [&str; 1] = ["delinearization"];

/// The per-layer metrics every `--trace 1` run prints.
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "frontend.parser.ms",
        "frontend.parser.bytes",
        "frontend.rewrite.ms",
        "frontend.induction.count",
        "frontend.linearize.count",
        "frontend.access.ms",
        "frontend.access.sites",
        "vic.deps.ms",
        "vic.deps.pairs",
        "vic.deps.edges",
        "vic.deps.test_ms",
        "vic.deps.enum_fold_ms",
        "vic.cache.distinct",
        "vic.cache.hit_ratio",
        "vic.cache.warm_deps_ms",
        "dep.solve_ms",
        "dep.solver_nodes",
        "dep.refine_queries",
        "dep.subtree_reuses",
        "dep.decided_per_attempt",
        "core.decided.delinearization",
        "vic.codegen.ms",
        "vic.codegen.edges_in",
        "vic.codegen.vectorized",
        "vic.render.ms",
        "vic.render.bytes",
        "vic.batch.busy_share",
        "vic.serve.wire_ms",
        "vic.serve.response_bytes",
        "vic.serve.overloaded",
        "trace.report_ms",
        "trace.coverage_pct",
        "trace.overhead_pct",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    names.extend(TESTS.iter().map(|t| format!("dep.attempts.{t}")));
    names.push("dep.attempts.other".to_string());
    names
}

/// The pinned engine configuration: every knob whose default would read
/// the environment is set here instead.
pub fn config(workers: usize) -> BatchConfig {
    BatchConfig {
        choice: TestChoice::DelinearizationFirst,
        workers,
        unit_parallelism: workers,
        shared_cache: true,
        cache: true,
        keying: KeyMode::Fp,
        incremental: true,
        arena: true,
        induction: true,
        linearize: true,
        infer_loop_assumptions: true,
        cache_cap: 0,
        cache_file: None,
        budget: BudgetSpec { node_limit: DEFAULT_NODE_LIMIT, deadline_ms: None, cancel: None },
        retry: RetryPolicy { max_retries: 1, escalation: 4 },
        chaos: None,
    }
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.retain(|(n, ..)| n != name);
        self.0.push((name.to_string(), value, unit));
    }

    /// The tail latency of a sample in arrival order, by the chunk rule of
    /// [`stats::tail`], with the percentile and the sample counts printed
    /// beside it.
    pub fn tail(&mut self, name: &str, samples_ms: &[f64], spec: Tail, out: &mut Outcome) {
        let chunk = spec.chunk;
        match stats::tail(samples_ms, spec) {
            Some((p, v, chunks)) => {
                println!(
                    "{name}: p{p}, median over {chunks} chunks of {chunk} samples ({} samples)",
                    samples_ms.len()
                );
                self.put(name, v, "ms");
            }
            None => {
                out.check(false, "too few latency samples for a tail percentile");
                self.put(name, f64::NAN, "ms");
            }
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, ..)| n == name).map(|m| m.1)
    }
}

/// Attempts, failures and failed checks of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records `attempted` units, `failed` of them not clean.
    pub fn attempt(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok && !self.errors.iter().any(|e| e == what) {
            eprintln!("perfbench: check failed: {what}");
            self.errors.push(what.to_string());
        }
    }

    /// Records a pass: each unit is one attempt, failed unless clean, and
    /// every unit fails when the corpus report's digest differs from the
    /// first pass's.
    pub fn pass(&mut self, what: &str, reference: &mut Option<u64>, stats: &BatchStats) {
        let units = stats.units.len();
        let clean = stats.units.iter().filter(|u| batch::is_clean(u)).count();
        let d = batch::stats_digest(stats);
        let same = *reference.get_or_insert(d) == d;
        self.attempt(units, if same { units - clean } else { units });
        self.check(same, &format!("{what}: corpus report digest differs"));
    }

    /// Share of attempted units that came back clean.
    pub fn clean_share(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// FNV-1a over bytes: a stable digest for determinism checks.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Peak resident set (VmHWM) of a process, in MB: `"self"` or a pid.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Per-layer metrics from traced passes: medians over the passes, plus
/// coverage (layer self times over the traced pass's wall time) and
/// tracing overhead (traced minus duplicated work, against the untraced
/// serial pass).
pub fn layer_metrics(runs: &[(f64, Layers)], untraced_ms: &[f64], out: &mut Outcome) -> Metrics {
    let per_run: Vec<Metrics> = runs.iter().map(|(wall, l)| one_run(*wall, l)).collect();
    let mut m = Metrics::new();
    for (name, _, unit) in &per_run[0].0 {
        let values: Vec<f64> = per_run.iter().filter_map(|r| r.get(name)).collect();
        m.put(name, stats::median(&values), unit);
    }
    let traced: Vec<f64> =
        runs.iter().map(|(wall, l)| wall - l.duplicate_ns() as f64 / 1e6).collect();
    let untraced = stats::median(untraced_ms);
    m.put("trace.overhead_pct", (stats::median(&traced) - untraced) / untraced * 100.0, "%");
    let coverage = m.get("trace.coverage_pct").unwrap_or(0.0);
    println!("traced: {} passes, layer self times cover {coverage:.2}% of the pass", runs.len());
    out.check((95.0..=101.0).contains(&coverage), "layer self times do not cover the traced pass");
    m
}

fn one_run(wall_ms: f64, l: &Layers) -> Metrics {
    let mut m = Metrics::new();
    let self_times = l.self_times_ms();
    for (name, ms) in &self_times {
        m.put(name, *ms, "ms");
    }
    let s = &l.stats;
    let test_ms = s.test_nanos as f64 / 1e6;
    let distinct = l.charged.len();
    m.put("frontend.parser.bytes", l.parse_bytes as f64, "bytes");
    m.put("frontend.induction.count", l.inductions as f64, "count");
    m.put("frontend.linearize.count", l.linearizations as f64, "count");
    m.put("frontend.access.sites", l.access_sites as f64, "count");
    m.put("vic.deps.pairs", s.pairs_tested as f64, "count");
    m.put("vic.deps.edges", l.edges as f64, "count");
    m.put("vic.deps.test_ms", test_ms, "ms");
    m.put("vic.deps.enum_fold_ms", self_times["vic.deps.ms"] - test_ms, "ms");
    m.put("vic.cache.distinct", distinct as f64, "count");
    m.put("vic.cache.hit_ratio", 1.0 - distinct as f64 / s.pairs_tested.max(1) as f64, "ratio");
    m.put("dep.solve_ms", self_times["vic.deps.ms"] - self_times["vic.cache.warm_deps_ms"], "ms");
    m.put("dep.solver_nodes", s.solver_nodes as f64, "count");
    m.put("dep.refine_queries", s.refine_queries as f64, "count");
    m.put("dep.subtree_reuses", s.subtree_reuses as f64, "count");
    let attempts: usize = s.attempts_by.values().sum();
    m.put("dep.decided_per_attempt", s.cache_misses as f64 / attempts.max(1) as f64, "ratio");
    let mut other = 0;
    for (test, n) in &s.attempts_by {
        if !TESTS.contains(test) {
            other += n;
        }
    }
    for t in TESTS {
        m.put(&format!("dep.attempts.{t}"), *s.attempts_by.get(t).unwrap_or(&0) as f64, "count");
    }
    m.put("dep.attempts.other", other as f64, "count");
    m.put(
        "core.decided.delinearization",
        *s.decided_by.get("delinearization").unwrap_or(&0) as f64,
        "count",
    );
    m.put("vic.codegen.edges_in", l.edges as f64, "count");
    m.put("vic.codegen.vectorized", l.vectorized as f64, "count");
    m.put("vic.render.bytes", l.render_bytes as f64, "bytes");
    m.put("vic.batch.busy_share", 0.0, "ratio");
    m.put("vic.serve.wire_ms", 0.0, "ms");
    m.put("vic.serve.response_bytes", 0.0, "bytes");
    m.put("vic.serve.overloaded", 0.0, "count");
    let covered: f64 = self_times.values().sum();
    m.put("trace.coverage_pct", covered / wall_ms * 100.0, "%");
    m
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut serve_bin) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num =
            |v: &str| v.parse::<u64>().map_err(|_| format!("{flag} needs a number, got {v:?}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)? as f64),
            "--trace" => trace = Some(num(&value)? != 0),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(1.0),
        trace: trace.unwrap_or(false),
        serve_bin,
    })
}

fn main() {
    // The engine's `Default` impls read DELIN_* knobs; the configuration
    // is pinned in code instead, and the daemon is spawned without them.
    // Done before any thread starts.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DELIN_") {
            std::env::remove_var(&key);
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    let metrics = run(&args, &mut out);

    let expected: Vec<String> = if args.trace {
        per_layer_names()
    } else {
        END_TO_END.iter().map(|s| s.to_string()).collect()
    };
    let mut json = String::new();
    for name in &expected {
        let (value, unit) = match metrics.0.iter().find(|(n, ..)| n == name) {
            Some((_, v, u)) => (*v, *u),
            None => (f64::NAN, "none"),
        };
        out.check(value.is_finite(), &format!("metric {name} was not measured"));
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name} = {value} {unit}");
        if !json.is_empty() {
            json.push(',');
        }
        json.push_str(&format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    let correct = out.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.attempted.max(1),
        out.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

fn run(args: &Args, out: &mut Outcome) -> Metrics {
    let seed = args.seed;
    let gen = move || -> Vec<delin_vic::batch::BatchUnit> {
        match args.workload.as_str() {
            "riceps" => units::riceps(seed),
            "dense" => units::dense(seed),
            _ => units::cold_solve(seed),
        }
    };
    if args.workload == "serve" {
        let Some(bin) = &args.serve_bin else {
            out.check(false, "--serve-bin is required for the serve workload");
            return Metrics::new();
        };
        return serving::run(bin, seed, args.seconds, args.trace, out);
    }
    if args.trace {
        return batch::traced_run(&gen(), args.seconds, out).0;
    }
    // Latency samples every run makes, the tail's chunk: five RiCEPS
    // passes of 8 units (p75), three `dense` passes and five `cold-solve`
    // passes, both capped at p95. A `dense` unit takes under a
    // millisecond, so one host preemption of a few ms puts it past p98:
    // above p95 its tail measures the shared host's scheduler. The
    // `cold-solve` p99 is the fourth-slowest of its 400 nests, so it moves
    // 15-20% with the seed; p95 is the twentieth.
    let (setups, tail, sample) = match args.workload.as_str() {
        "riceps" => (3, Tail { chunk: 40, top: TAIL_TOP }, Some(100)),
        "dense" => (SETUPS, Tail { chunk: 3_000, top: 95.0 }, Some(20)),
        _ => (SETUPS, Tail { chunk: 2_000, top: 95.0 }, None),
    };
    batch::end_to_end(gen, setups, args.seconds, tail, sample, seed, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_match_the_benchmark_file() {
        let names: Vec<String> = WORKLOADS
            .iter()
            .chain(END_TO_END.iter())
            .map(|s| s.to_string())
            .chain(per_layer_names())
            .collect();
        for n in &names {
            assert!(is_name(n), "{n:?} is not [A-Za-z0-9_.-]+");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "names are used once");

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let file = delin_vic::json::parse(&text).expect("BENCHMARK.json parses");
        let obj = file.as_obj().expect("an object");
        let listed = |key: &str| -> Vec<String> {
            match &obj[key] {
                delin_vic::json::Json::Arr(items) => items
                    .iter()
                    .map(|i| i.as_obj().expect("entry")["name"].as_str().expect("name").to_string())
                    .collect(),
                _ => panic!("{key} is a list"),
            }
        };
        assert_eq!(listed("workloads"), WORKLOADS);
        assert_eq!(listed("end_to_end"), END_TO_END);
        assert_eq!(listed("per_layer"), per_layer_names());
    }
}
