//! The batch workloads (`riceps`, `dense`, `cold-solve`) through
//! `BatchRunner::run_jobs`.

use crate::oracle::{self, Check};
use crate::speed::Speed;
use crate::stats::{median, Tail};
use crate::traced::{self, Layers};
use crate::units::Rng;
use crate::{config, digest, peak_rss_mb, Metrics, Outcome, WORKERS};
use delin_frontend::parser::parse_program;
use delin_vic::batch::{BatchJob, BatchRunner, BatchStats, BatchUnit, UnitOutcome, UnitReport};
use delin_vic::cache::VerdictCache;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One pass of a unit set through the batch engine.
pub struct Pass {
    /// Wall time of the whole `run_jobs` call, in seconds.
    pub wall_s: f64,
    /// Per-unit latency, pull to sink, in ms (arrival order).
    pub latencies_ms: Vec<f64>,
    /// The corpus report.
    pub stats: BatchStats,
}

/// Did a unit come back analyzed, with no budget-degraded pair?
pub fn is_clean(report: &UnitReport) -> bool {
    report.outcome == UnitOutcome::Analyzed && report.stats.degraded_pairs == 0
}

/// Runs `units` once on `workers` workers against a fresh shared cache.
/// Each unit's latency runs from the moment a worker pulls it from the job
/// iterator to the sink call for its tag.
pub fn pass(units: &[BatchUnit], workers: usize, want_edges: bool) -> Pass {
    let runner = BatchRunner::new(config(workers));
    let base = Instant::now();
    let pulled: Vec<AtomicU64> = units.iter().map(|_| AtomicU64::new(0)).collect();
    let done: Vec<AtomicU64> = units.iter().map(|_| AtomicU64::new(0)).collect();
    let jobs = units.iter().enumerate().map(|(i, u)| {
        let job = BatchJob { unit: u.clone(), budget: None, want_edges, tag: i as u64 };
        pulled[i].store(base.elapsed().as_nanos() as u64, Ordering::Relaxed);
        job
    });
    let t = Instant::now();
    let stats = runner.run_jobs(jobs, true, |tag, _| {
        done[tag as usize].store(base.elapsed().as_nanos() as u64, Ordering::Relaxed);
    });
    let wall_s = t.elapsed().as_secs_f64();
    let latencies_ms = pulled
        .iter()
        .zip(&done)
        .map(|(p, d)| {
            d.load(Ordering::Relaxed).saturating_sub(p.load(Ordering::Relaxed)) as f64 / 1e6
        })
        .collect();
    Pass { wall_s, latencies_ms, stats }
}

/// The end-to-end run: set up `setups_wanted` times (generate the units,
/// one untimed warm-up pass), then time fresh-cache passes for `seconds`
/// and until a tail chunk of unit latencies is in.
pub fn end_to_end(
    gen: impl Fn() -> Vec<BatchUnit>,
    setups_wanted: usize,
    seconds: f64,
    tail: Tail,
    oracle_sample: Option<usize>,
    seed: u64,
    out: &mut Outcome,
) -> Metrics {
    let mut setups = Vec::new();
    let mut setup_speed = Speed::default();
    let mut units = Vec::new();
    let mut reference: Option<u64> = None;
    let mut rss = f64::NAN;
    setup_speed.sample();
    for _ in 0..setups_wanted {
        let t = Instant::now();
        units = gen();
        let warm = pass(&units, WORKERS, false);
        let elapsed = t.elapsed().as_secs_f64();
        // The footprint of a batch user's process: one generated unit set
        // and one pass. Later passes only add allocator fragmentation.
        if rss.is_nan() {
            rss = peak_rss_mb("self");
        }
        setups.push(elapsed / setup_speed.sample());
        out.pass("warm-up pass", &mut reference, &warm.stats);
    }

    let mut speed = Speed::default();
    let mut rates = Vec::new();
    let mut latencies = Vec::new();
    let mut last = None;
    speed.sample();
    let start = Instant::now();
    while latencies.len() < tail.chunk || start.elapsed().as_secs_f64() < seconds {
        let p = pass(&units, WORKERS, false);
        let f = speed.sample();
        out.pass("timed pass", &mut reference, &p.stats);
        rates.push(units.len() as f64 / p.wall_s * f);
        latencies.extend(p.latencies_ms.iter().map(|l| l / f));
        last = Some(p);
    }
    let last = last.expect("at least one timed pass");
    let totals = last.stats.verdict_totals();

    verify_claims(&units, oracle_sample, seed, &mut reference, out);

    println!(
        "timed: {} passes of {} units in {:.2} s, {} latency samples; \
         host slowdown {:.3} (set-up {:.3})",
        rates.len(),
        units.len(),
        start.elapsed().as_secs_f64(),
        latencies.len(),
        speed.median_factor(),
        setup_speed.median_factor()
    );
    let mut m = Metrics::new();
    m.put("setup_s", median(&setups), "s");
    m.put("units_per_s", median(&rates), "1/s");
    m.put("unit_p50_ms", median(&latencies), "ms");
    m.tail("unit_tail_ms", &latencies, tail, out);
    m.put("peak_rss_mb", rss, "MB");
    m.put("independent_pairs", totals.proven_independent as f64, "count");
    m.put("vectorized_stmts", last.stats.vectorized_statements as f64, "count");
    m.put("clean_share", out.clean_share(), "ratio");
    m
}

/// Refutes independence claims: one extra pass collects the edges, and the
/// oracle enumerates every concrete pair (`sample: None`) or a seeded
/// sample of that many pairs per unit.
pub fn verify_claims(
    units: &[BatchUnit],
    sample: Option<usize>,
    seed: u64,
    reference: &mut Option<u64>,
    out: &mut Outcome,
) {
    let p = pass(units, WORKERS, true);
    let mut rng = Rng::new(seed, 0x0a11);
    let mut total = Check::default();
    let mut refuted_units = 0;
    let by_name: HashMap<&str, &BatchUnit> = units.iter().map(|u| (u.name.as_str(), u)).collect();
    for report in &p.stats.units {
        let unit = by_name[report.name.as_str()];
        let program = parse_program(&unit.source).expect("workload units parse");
        let c = oracle::check(&program, &report.dep_edges, sample.map(|n| (n, &mut rng)));
        refuted_units += usize::from(c.refuted > 0);
        total.add(c);
    }
    println!(
        "oracle: {} concrete pairs enumerated, {} dependent, {} refuted independence claims",
        total.pairs, total.dependent, total.refuted
    );
    out.pass("oracle pass", reference, &p.stats);
    out.attempt(0, refuted_units);
    out.check(total.pairs > 0, "the oracle found no concrete pair to enumerate");
    out.check(total.refuted == 0, "an independence claim was refuted by enumeration");
}

/// The traced run: alternate untraced serial passes with traced ones for
/// `seconds`, after one 2-worker pass for the digest checks and the busy
/// share. Layer metrics are medians over the traced passes; also returns
/// each unit's pipeline time in ms from the last traced pass.
pub fn traced_run(units: &[BatchUnit], seconds: f64, out: &mut Outcome) -> (Metrics, Vec<f64>) {
    let mut reference = None;
    let parallel = pass(units, WORKERS, false);
    out.pass("workers=2 pass", &mut reference, &parallel.stats);
    let busy: f64 = parallel.latencies_ms.iter().sum::<f64>() / 1e3;
    let busy_share = busy / (WORKERS as f64 * parallel.wall_s);

    let mut untraced = Vec::new();
    let mut runs: Vec<(f64, Layers)> = Vec::new();
    let mut unit_ms = Vec::new();
    let start = Instant::now();
    while runs.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let serial = pass(units, 1, false);
        out.pass("workers=1 pass", &mut reference, &serial.stats);
        untraced.push(serial.wall_s * 1e3);

        let (wall_ms, layers, stats, per_unit) = traced_pass(units);
        out.pass("traced pass", &mut reference, &stats);
        out.check(layers.warm_mismatches == 0, "a warm graph rebuild changed the edges");
        runs.push((wall_ms, layers));
        unit_ms = per_unit;
    }
    let mut m = crate::layer_metrics(&runs, &untraced, out);
    m.put("vic.batch.busy_share", busy_share, "ratio");
    (m, unit_ms)
}

/// One traced serial pass, in arrival order, against a fresh shared cache
/// that the units share as a batch or a daemon shares it: wall time in ms,
/// the layers, the corpus report assembled as the batch engine would, and
/// each unit's pipeline time in ms (without the work only tracing does).
pub fn traced_pass(units: &[BatchUnit]) -> (f64, Layers, BatchStats, Vec<f64>) {
    let config = config(1);
    let cache = VerdictCache::shared_with_cap(config.keying, config.cache_cap);
    let mut layers = Layers::default();
    let mut reports = Vec::with_capacity(units.len());
    let mut unit_ms = Vec::with_capacity(units.len());
    let t = Instant::now();
    for u in units {
        let (duplicate, t_unit) = (layers.duplicate_ns(), Instant::now());
        reports.push(traced::unit(u, &config, &cache, &mut layers));
        let own = t_unit.elapsed().as_nanos() - (layers.duplicate_ns() - duplicate);
        unit_ms.push(own as f64 / 1e6);
    }
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    (wall_ms, layers, aggregate(reports), unit_ms)
}

/// Assembles a corpus report from unit reports exactly as
/// `BatchRunner::run_jobs` does for an owned, unbounded shared cache, so
/// its render can be compared byte for byte.
pub fn aggregate(mut reports: Vec<UnitReport>) -> BatchStats {
    reports.sort_by(|a, b| (&a.name, a.edges_fp, a.edges).cmp(&(&b.name, b.edges_fp, b.edges)));
    let mut totals = delin_vic::deps::DepStats::default();
    let mut charged = HashSet::new();
    for r in &reports {
        totals.merge(&r.stats);
        charged.extend(r.charged_keys.iter().copied());
    }
    let distinct = charged.len();
    BatchStats {
        unit_count: reports.len(),
        parse_failures: reports.iter().filter(|r| r.parse_error().is_some()).count(),
        failed_units: reports
            .iter()
            .filter(|r| matches!(r.outcome, UnitOutcome::Failed { .. }))
            .count(),
        stream_failures: 0,
        cross_unit_hits: totals.cache_misses.saturating_sub(distinct),
        totals,
        distinct_problems: Some(distinct),
        vectorized_statements: reports.iter().map(|r| r.vectorized_statements).sum(),
        cache_capacity: 0,
        cache_evictions: 0,
        persistent_loaded: 0,
        persistent_hits: 0,
        persistent_saved: 0,
        persist_error: None,
        units: reports,
    }
}

/// The digest every pass of one unit set must share.
pub fn stats_digest(stats: &BatchStats) -> u64 {
    digest(stats.render().as_bytes())
}
