//! Golden pin of the full batch report over the RiCEPS corpus.
//!
//! The batch engine's determinism contract says the rendered report is a
//! pure function of the unit set and the (env-independent) configuration —
//! so the whole render can be checked in and diffed. Any intentional change
//! to verdicts, counters, or report formatting shows up as a reviewable
//! diff of `tests/golden/riceps_batch_report.txt`; regenerate with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_report
//! ```

use delinearization::corpus::stream::riceps_units;
use delinearization::dep::budget::BudgetSpec;
use delinearization::vic::batch::{BatchConfig, BatchRunner, BatchUnit, RetryPolicy};
use delinearization::vic::cache::KeyMode;
use delinearization::vic::deps::TestChoice;

const GOLDEN_PATH: &str = "tests/golden/riceps_batch_report.txt";

/// The pinned run: every knob explicit so no environment variable
/// (`DELIN_WORKERS`, `DELIN_CACHE_CAP`, `DELIN_DEADLINE_MS`,
/// `DELIN_CHAOS_SEED`) can leak into the golden bytes. This is the
/// `batch_corpus` default corpus shape (size-reduced RiCEPS) minus the
/// generated units, serial, incremental solving on.
fn pinned_report() -> String {
    let units: Vec<BatchUnit> = riceps_units(Some(400)).collect();
    let config = BatchConfig {
        choice: TestChoice::DelinearizationFirst,
        workers: 1,
        unit_parallelism: 0,
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
        budget: BudgetSpec::nodes_only(1_000_000),
        retry: RetryPolicy::default(),
        chaos: None,
    };
    BatchRunner::new(config).run(units).render()
}

#[test]
fn riceps_batch_report_matches_golden() {
    let report = pinned_report();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &report).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {GOLDEN_PATH} ({e}); regenerate with UPDATE_GOLDEN=1 cargo test --test golden_report"));
    if report != golden {
        for (i, (got, want)) in report.lines().zip(golden.lines()).enumerate() {
            if got != want {
                panic!(
                    "batch report diverges from golden at line {}:\n  got:  {got}\n  want: {want}\n\
                     regenerate with UPDATE_GOLDEN=1 cargo test --test golden_report",
                    i + 1
                );
            }
        }
        panic!(
            "batch report length diverges from golden ({} vs {} bytes); \
             regenerate with UPDATE_GOLDEN=1 cargo test --test golden_report",
            report.len(),
            golden.len()
        );
    }
}

/// The pinned artifact must actually exercise the incremental solver: the
/// corpus totals carry the refinement counters, and at least one unit row
/// reports saved nodes.
#[test]
fn golden_report_exercises_incremental_counters() {
    let report = pinned_report();
    assert!(
        report.contains("incremental: refines="),
        "pinned report lost the incremental totals line:\n{report}"
    );
    assert!(report.contains(" saved="), "no unit row reports subtree reuse:\n{report}");
}
