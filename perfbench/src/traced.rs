//! The traced pass: one unit at a time through the pipeline's public
//! stages, each call timed from here. Spans inside the program are a later
//! change; these spans sit at the module boundaries the batch engine calls
//! in the same order (`delin_vic::pipeline::run_pipeline_in`).

use delin_frontend::access::collect_accesses;
use delin_frontend::affine::infer_bound_assumptions;
use delin_frontend::induction::substitute_inductions;
use delin_frontend::linearize::linearize_aliased;
use delin_frontend::parser::parse_program;
use delin_vic::batch::{fingerprint_edges, BatchConfig, BatchUnit, UnitOutcome, UnitReport};
use delin_vic::cache::VerdictCache;
use delin_vic::codegen::vectorize;
use delin_vic::deps::{build_dependence_graph_in, DepStats, EngineConfig};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// Self times and counts of the layers, summed over the units of a pass.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub parse_ns: u128,
    pub parse_bytes: usize,
    pub rewrite_ns: u128,
    pub inductions: usize,
    pub linearizations: usize,
    pub access_ns: u128,
    pub access_sites: usize,
    /// The cold graph build, against the pass's shared cache.
    pub deps_ns: u128,
    pub edges: usize,
    /// The same graph rebuilt once the cache holds every problem it poses.
    pub warm_deps_ns: u128,
    pub codegen_ns: u128,
    pub vectorized: usize,
    pub render_ns: u128,
    pub render_bytes: usize,
    /// Edge fingerprinting and report assembly between the stages.
    pub report_ns: u128,
    /// Canonical problems charged to the units; its size is the pass's
    /// distinct problem count.
    pub charged: HashSet<u64>,
    /// Units whose warm rebuild changed the graph (must stay 0).
    pub warm_mismatches: usize,
    /// Engine statistics of the cold builds.
    pub stats: DepStats,
}

impl Layers {
    /// Every self time, in ms, by the layer metric that reports it.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, f64> {
        let ms = |ns: u128| ns as f64 / 1e6;
        BTreeMap::from([
            ("frontend.parser.ms", ms(self.parse_ns)),
            ("frontend.rewrite.ms", ms(self.rewrite_ns)),
            ("frontend.access.ms", ms(self.access_ns)),
            ("vic.deps.ms", ms(self.deps_ns)),
            ("vic.cache.warm_deps_ms", ms(self.warm_deps_ns)),
            ("vic.codegen.ms", ms(self.codegen_ns)),
            ("vic.render.ms", ms(self.render_ns)),
            ("trace.report_ms", ms(self.report_ns)),
        ])
    }

    /// Work the traced pass does that an untraced pass does not: the
    /// standalone access collection (the graph build collects accesses
    /// again itself) and the warm rebuild.
    pub fn duplicate_ns(&self) -> u128 {
        self.access_ns + self.warm_deps_ns
    }
}

/// Runs one unit through the traced stages under `config` (engine workers
/// 1, as the batch engine runs each unit when units fill the workers)
/// against the pass's shared `cache`, adding to `layers`. Returns the unit
/// report the batch engine would produce.
pub fn unit(
    unit: &BatchUnit,
    config: &BatchConfig,
    cache: &VerdictCache,
    layers: &mut Layers,
) -> UnitReport {
    let t = Instant::now();
    let parsed = parse_program(&unit.source);
    layers.parse_ns += t.elapsed().as_nanos();
    layers.parse_bytes += unit.source.len();
    let mut program = match parsed {
        Ok(p) => p,
        Err(e) => return empty(unit, UnitOutcome::ParseError(e.to_string())),
    };

    let t = Instant::now();
    if config.induction {
        let (p, reports) = substitute_inductions(&program);
        program = p;
        layers.inductions += reports.len();
    }
    if config.linearize {
        for (a, b) in program.equivalences.clone() {
            if let Ok((p, _)) = linearize_aliased(&program, &a, &b) {
                program = p;
                layers.linearizations += 1;
            }
        }
    }
    let assumptions = if config.infer_loop_assumptions {
        infer_bound_assumptions(&program, &unit.assumptions)
    } else {
        unit.assumptions.clone()
    };
    layers.rewrite_ns += t.elapsed().as_nanos();

    let t = Instant::now();
    layers.access_sites += collect_accesses(&program, &assumptions).len();
    layers.access_ns += t.elapsed().as_nanos();

    let engine = EngineConfig {
        choice: config.choice,
        workers: 1,
        cache: config.cache,
        keying: config.keying,
        incremental: config.incremental,
        arena: config.arena,
        cache_cap: config.cache_cap,
        budget: config.budget.clone(),
        chaos: None,
    };
    let t = Instant::now();
    let graph = build_dependence_graph_in(&program, &assumptions, &engine, Some(cache));
    layers.deps_ns += t.elapsed().as_nanos();

    let t = Instant::now();
    let warm = build_dependence_graph_in(&program, &assumptions, &engine, Some(cache));
    layers.warm_deps_ns += t.elapsed().as_nanos();
    layers.warm_mismatches += usize::from(warm.edges != graph.edges);

    let t = Instant::now();
    let result = vectorize(&program, &graph);
    layers.codegen_ns += t.elapsed().as_nanos();
    layers.edges += graph.edges.len();
    layers.vectorized += result.vectorized_statements;

    let t = Instant::now();
    layers.render_bytes += result.render().len();
    layers.render_ns += t.elapsed().as_nanos();

    let t = Instant::now();
    layers.stats.merge(&graph.stats);
    layers.charged.extend(graph.charged_keys.iter().copied());
    let report = UnitReport {
        name: unit.name.clone(),
        outcome: UnitOutcome::Analyzed,
        edges: graph.edges.len(),
        edges_fp: fingerprint_edges(&graph.edges),
        vectorized_statements: result.vectorized_statements,
        stats: graph.stats,
        charged_keys: graph.charged_keys,
        dep_edges: Vec::new(),
    };
    layers.report_ns += t.elapsed().as_nanos();
    report
}

fn empty(unit: &BatchUnit, outcome: UnitOutcome) -> UnitReport {
    UnitReport {
        name: unit.name.clone(),
        outcome,
        edges: 0,
        edges_fp: 0,
        vectorized_statements: 0,
        stats: DepStats::default(),
        charged_keys: Vec::new(),
        dep_edges: Vec::new(),
    }
}
