//! The end-to-end VIC pipeline.
//!
//! parse → induction-variable substitution → linearization of
//! `EQUIVALENCE`-aliased arrays → dependence analysis → Allen–Kennedy
//! vectorization → FORTRAN-90-style output.

use crate::cache::{KeyMode, VerdictCache};
use crate::chaos::ChaosCtx;
use crate::codegen::{vectorize, VectorizeResult};
use crate::deps::{
    build_dependence_graph_in, workers_from_env, DepGraph, DepStats, EngineConfig, TestChoice,
};
use delin_dep::budget::BudgetSpec;
use delin_frontend::ast::Program;
use delin_frontend::induction::{substitute_inductions, InductionReport};
use delin_frontend::linearize::{linearize_aliased, LinearizeReport};
use delin_frontend::parser::{parse_program, ParseError};
use delin_numeric::Assumptions;
use std::fmt;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Which dependence tests run.
    pub choice: TestChoice,
    /// Apply induction-variable substitution.
    pub induction: bool,
    /// Linearize `EQUIVALENCE`-aliased arrays first.
    pub linearize: bool,
    /// Symbolic assumptions (e.g. `N ≥ 2`).
    pub assumptions: Assumptions,
    /// Derive additional symbol bounds from loop bounds under the premise
    /// that loops execute at least once (safe for vectorization).
    pub infer_loop_assumptions: bool,
    /// Worker threads for the dependence-pair worklist; `0` means one per
    /// available CPU, `1` forces the serial path. Any count produces
    /// identical edges and verdict statistics.
    pub workers: usize,
    /// Memoize verdicts of canonicalized dependence problems.
    pub cache: bool,
    /// Verdict-cache key representation (see [`KeyMode`]): structural
    /// fingerprints by default, rendered strings as the A/B baseline. Pure
    /// perf knob.
    pub keying: KeyMode,
    /// Incremental exact solving (see [`EngineConfig::incremental`]): a
    /// pure perf knob, identical edges and verdicts either way. On by
    /// default.
    pub incremental: bool,
    /// Arena miss path (see [`EngineConfig::arena`]): per-worker scratch
    /// reuse for problems and solver buffers. Pure perf knob, identical
    /// edges and verdicts either way. On by default.
    pub arena: bool,
    /// Verdict-cache entry capacity (see [`EngineConfig::cache_cap`]);
    /// `0` = unbounded. The default reads `DELIN_CACHE_CAP`. Ignored when
    /// a shared cache is passed in.
    pub cache_cap: usize,
    /// Resource budget for dependence analysis (armed once per run; see
    /// [`EngineConfig::budget`]). The default reads `DELIN_DEADLINE_MS`.
    pub budget: BudgetSpec,
    /// Deterministic fault injection (see [`crate::chaos`]); `None` unless
    /// the `chaos` feature is on and a plan was requested.
    pub chaos: Option<ChaosCtx>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            choice: TestChoice::DelinearizationFirst,
            induction: true,
            linearize: true,
            assumptions: Assumptions::new(),
            infer_loop_assumptions: true,
            workers: workers_from_env(),
            cache: true,
            keying: KeyMode::Fp,
            incremental: true,
            arena: true,
            cache_cap: crate::cache::cache_cap_from_env(),
            budget: BudgetSpec::default(),
            chaos: None,
        }
    }
}

/// A pipeline error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The source did not parse.
    Parse(ParseError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ParseError> for PipelineError {
    fn from(e: ParseError) -> Self {
        PipelineError::Parse(e)
    }
}

/// What the pipeline did.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Rendered vector output.
    pub vector_code: String,
    /// Dependence statistics.
    pub stats: DepStats,
    /// Vectorization result (counts and code tree).
    pub vectorization: VectorizeResult,
    /// Induction variables substituted.
    pub inductions: Vec<InductionReport>,
    /// Linearizations performed.
    pub linearizations: Vec<LinearizeReport>,
    /// The dependence graph the vectorizer ran on (its `stats` field equals
    /// [`PipelineReport::stats`]).
    pub graph: DepGraph,
}

/// Runs the whole pipeline on mini-FORTRAN source.
///
/// # Errors
///
/// Returns [`PipelineError::Parse`] when the source does not parse;
/// transformation failures (e.g. un-linearizable aliases) are skipped with
/// the affected arrays left untouched, keeping the pipeline total.
pub fn run_pipeline(src: &str, config: &PipelineConfig) -> Result<PipelineReport, PipelineError> {
    run_pipeline_in(src, config, None)
}

/// Like [`run_pipeline`], but dependence verdicts may be memoized in a
/// `shared` cross-unit cache (see [`crate::batch`]). With `shared: None`
/// the pipeline behaves exactly as before, using a private per-run cache
/// when `config.cache` is set.
///
/// # Errors
///
/// Returns [`PipelineError::Parse`] when the source does not parse.
pub fn run_pipeline_in(
    src: &str,
    config: &PipelineConfig,
    shared: Option<&VerdictCache>,
) -> Result<PipelineReport, PipelineError> {
    let (program, graph, inductions, linearizations) = analyze(src, config, shared)?;
    let vectorization = vectorize(&program, &graph);
    Ok(PipelineReport {
        vector_code: vectorization.render(),
        stats: graph.stats.clone(),
        vectorization,
        inductions,
        linearizations,
        graph,
    })
}

/// Everything [`run_pipeline_in`] does before vectorization: the
/// transformed program and its dependence graph, with the front end's
/// reports.
pub(crate) fn analyze(
    src: &str,
    config: &PipelineConfig,
    shared: Option<&VerdictCache>,
) -> Result<(Program, DepGraph, Vec<InductionReport>, Vec<LinearizeReport>), PipelineError> {
    let mut program = parse_program(src)?;
    let mut inductions = Vec::new();
    if config.induction {
        let (p, reports) = substitute_inductions(&program);
        program = p;
        inductions = reports;
    }
    let mut linearizations = Vec::new();
    if config.linearize {
        // Process EQUIVALENCE pairs; failures leave the program unchanged.
        let pairs = program.equivalences.clone();
        for (a, b) in pairs {
            if let Ok((p, report)) = linearize_aliased(&program, &a, &b) {
                program = p;
                linearizations.push(report);
            }
        }
    }
    let assumptions = if config.infer_loop_assumptions {
        delin_frontend::affine::infer_bound_assumptions(&program, &config.assumptions)
    } else {
        config.assumptions.clone()
    };
    let engine = EngineConfig {
        choice: config.choice,
        workers: config.workers,
        cache: config.cache,
        keying: config.keying,
        incremental: config.incremental,
        arena: config.arena,
        cache_cap: config.cache_cap,
        budget: config.budget.clone(),
        chaos: config.chaos.clone(),
    };
    let graph = build_dependence_graph_in(&program, &assumptions, &engine, shared);
    Ok((program, graph, inductions, linearizations))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline_on_motivating_example() {
        let report = run_pipeline(
            "
            REAL C(0:99)
            DO 1 i = 0, 4
            DO 1 j = 0, 9
        1   C(i + 10*j) = C(i + 10*j + 5)
            END
        ",
            &PipelineConfig::default(),
        )
        .unwrap();
        assert_eq!(report.vectorization.vectorized_statements, 1);
        assert!(report.stats.proven_independent >= 1);
    }

    #[test]
    fn equivalence_program_goes_through_linearization() {
        let report = run_pipeline(
            "
            REAL A(0:9,0:9), B(0:4,0:19)
            EQUIVALENCE (A, B)
            DO 1 i = 0, 4
            DO 1 j = 0, 9
        1   A(i, j) = B(i, 2*j + 1)
            END
        ",
            &PipelineConfig::default(),
        )
        .unwrap();
        assert_eq!(report.linearizations.len(), 1);
        // A(i,j) = B(i, 2j+1) linearizes to A_B(i + 10j) = A_B(i + 5(2j+1))
        // = A_B(i + 10j + 5): the motivating example again — independent,
        // fully vectorized.
        assert_eq!(report.vectorization.vectorized_statements, 1);
        assert_eq!(report.vectorization.vector_dimensions, 2);
    }

    #[test]
    fn induction_program_parallelizes_b_statement() {
        let report = run_pipeline(
            "
            REAL B(0:999), C(0:99)
            IB = -1
            DO 1 I = 0, 9
            DO 1 J = 0, 9
            DO 1 K = 0, 9
              IB = IB + 1
              C(J) = C(J) + 1
        1   B(IB) = B(IB) + Q
            END
        ",
            &PipelineConfig::default(),
        )
        .unwrap();
        assert_eq!(report.inductions.len(), 1);
        // The B statement becomes B(K + 10*J + 100*I) — self-independent
        // across iterations (all distinct), so it vectorizes in all three
        // dimensions. The C statement carries a K-loop recurrence.
        assert!(report.vectorization.vectorized_statements >= 1);
        let text = &report.vector_code;
        assert!(text.contains("B("), "{text}");
    }

    #[test]
    fn parse_errors_surface() {
        let e = run_pipeline("DO = ", &PipelineConfig::default()).unwrap_err();
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn battery_only_is_more_conservative() {
        let src = "
            REAL C(0:99)
            DO 1 i = 0, 4
            DO 1 j = 0, 9
        1   C(i + 10*j) = C(i + 10*j + 5)
            END
        ";
        let with = run_pipeline(src, &PipelineConfig::default()).unwrap();
        let without = run_pipeline(
            src,
            &PipelineConfig { choice: TestChoice::BatteryOnly, ..PipelineConfig::default() },
        )
        .unwrap();
        assert!(
            with.vectorization.vectorized_statements > without.vectorization.vectorized_statements
        );
    }
}
