//! Golden pin of the generated vector code.
//!
//! The batch and serve goldens carry counts only, so a change that reorders
//! the statements of the rendered FORTRAN-90 output would pass them. This
//! file pins the code itself: one line per RiCEPS unit (at 400 lines) under
//! both the VIC configuration and the battery-only baseline —
//! `name stmts vectorized dims fnv1a64(render)` — followed by the full
//! render of the Fig. 3 (Allen–Kennedy 1987) program. Regenerate with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_vector_code
//! ```

use delin_bench::experiments::fig3_source;
use delinearization::corpus::stream::riceps_units;
use delinearization::dep::budget::BudgetSpec;
use delinearization::numeric::Assumptions;
use delinearization::vic::cache::KeyMode;
use delinearization::vic::deps::TestChoice;
use delinearization::vic::pipeline::{run_pipeline, PipelineConfig, PipelineReport};
use std::fmt::Write as _;

const GOLDEN_PATH: &str = "tests/golden/vector_code.txt";

/// Every knob explicit so no `DELIN_*` variable can leak into the bytes.
fn pinned_config(choice: TestChoice, assumptions: Assumptions) -> PipelineConfig {
    PipelineConfig {
        choice,
        induction: true,
        linearize: true,
        assumptions,
        infer_loop_assumptions: true,
        workers: 1,
        cache: true,
        keying: KeyMode::Fp,
        incremental: true,
        arena: true,
        cache_cap: 0,
        budget: BudgetSpec::nodes_only(1_000_000),
        chaos: None,
    }
}

/// 64-bit FNV-1a over the rendered code.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn run(src: &str, choice: TestChoice, assumptions: Assumptions) -> PipelineReport {
    run_pipeline(src, &pinned_config(choice, assumptions)).expect("pinned source parses")
}

fn pinned_code() -> String {
    let mut out = String::new();
    for choice in [TestChoice::DelinearizationFirst, TestChoice::BatteryOnly] {
        let _ = writeln!(out, "# riceps_units(Some(400)), {choice:?}");
        for unit in riceps_units(Some(400)) {
            let report = run(&unit.source, choice, unit.assumptions.clone());
            let v = &report.vectorization;
            let _ = writeln!(
                out,
                "{} {} {} {} {:016x}",
                unit.name,
                v.total_statements,
                v.vectorized_statements,
                v.vector_dimensions,
                fnv1a64(report.vector_code.as_bytes())
            );
        }
    }
    let _ = writeln!(out, "# fig3, DelinearizationFirst");
    out.push_str(
        &run(fig3_source(), TestChoice::DelinearizationFirst, Assumptions::new()).vector_code,
    );
    out
}

#[test]
fn vector_code_matches_golden() {
    let code = pinned_code();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &code).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {GOLDEN_PATH} ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test --test golden_vector_code"
        )
    });
    for (i, (got, want)) in code.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "vector code diverges from golden at line {}; regenerate with \
             UPDATE_GOLDEN=1 cargo test --test golden_vector_code",
            i + 1
        );
    }
    assert_eq!(code.len(), golden.len(), "vector code length diverges from golden");
}
