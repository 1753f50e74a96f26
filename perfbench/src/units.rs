//! The workloads' program units, all drawn from the `--seed` argument.
//!
//! The program under test only ever sees the generated [`BatchUnit`]s; the
//! seed stays on this side.

use delin_corpus::stream::{dense_unit, generated_unit, refinement_unit, riceps_units};
use delin_vic::batch::BatchUnit;

/// SplitMix64: a tiny seeded generator, so unit streams depend on the seed
/// and on nothing else.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo + 1) as u64;
        lo + (self.next_u64() % span) as i64
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Lines per RiCEPS program in the `riceps` workload. The full-size suite
/// takes minutes per pass; 800 lines keeps a pass near a second while
/// Allen–Kennedy vectorization stays the dominant layer.
pub const RICEPS_LINES: usize = 800;
/// Units in one `dense` pass.
pub const DENSE_UNITS: usize = 1000;
/// Units in one `cold-solve` pass.
pub const COLD_UNITS: usize = 400;
/// Statements per `cold-solve` nest.
pub const COLD_STATEMENTS: usize = 4;

/// The eight RiCEPS stand-ins, in a seed-permuted arrival order.
pub fn riceps(seed: u64) -> Vec<BatchUnit> {
    let mut units: Vec<BatchUnit> = riceps_units(Some(RICEPS_LINES)).collect();
    Rng::new(seed, 1).shuffle(&mut units);
    units
}

/// The `dense` workload: many small pair-dense units.
pub fn dense(seed: u64) -> Vec<BatchUnit> {
    (0..DENSE_UNITS).map(|i| dense_unit(seed, i)).collect()
}

/// The `cold-solve` workload.
pub fn cold_solve(seed: u64) -> Vec<BatchUnit> {
    (0..COLD_UNITS).map(|i| cold_unit(seed, i)).collect()
}

/// The `index`-th `cold-solve` unit: a 3-deep nest of
/// [`COLD_STATEMENTS`] statements over one hand-linearized array.
///
/// Row stride, plane stride, trip counts and offsets are all drawn per
/// unit, so most reference pairs pose a canonical problem no earlier unit
/// posed: the verdict cache mostly inserts. The `I` range covers half to
/// all of a row, and sometimes one element more, so rows can overlap and
/// most pairs within a half need the solver. The statements split into
/// two halves a whole nest extent apart, so every pair across the halves
/// is independent by construction, and a test that loses precision shows
/// in `independent_pairs`.
pub fn cold_unit(seed: u64, index: usize) -> BatchUnit {
    let mut rng = Rng::new(seed, 0x0c01_d000 + index as u64);
    let row = rng.range(6, 16);
    let rows = rng.range(3, 7);
    let plane = row * rows + rng.range(0, 2);
    let ui = rng.range(row / 2, row + 1);
    let uj = rng.range(1, rows - 1);
    let uk = rng.range(1, 3);
    let half = plane * (uk + 2);
    let mut source =
        format!("REAL W(0:999999)\nDO 1 K = 0, {uk}\nDO 1 J = 0, {uj}\nDO 1 I = 0, {ui}\n");
    for s in 0..COLD_STATEMENTS {
        let base = if s < COLD_STATEMENTS / 2 { 0 } else { half };
        let w = base + rng.range(0, 2 * row);
        let r = base + rng.range(0, 2 * row);
        // Only the last statement carries the terminal label: a labelled
        // statement closes the nest.
        let label = if s + 1 == COLD_STATEMENTS { "1 " } else { "" };
        source.push_str(&format!(
            "{label}W(I + {row}*J + {plane}*K + {w}) = W(I + {row}*J + {plane}*K + {r}) + 1\n"
        ));
    }
    source.push_str("END\n");
    BatchUnit::new(format!("cold/{index:05}"), source)
}

/// The `index`-th request of the `serve` workload. Fresh indices keep the
/// daemon's long-lived cache taking both hits (dense, refinement and the
/// eight small RiCEPS programs repeat canonical problems) and inserts
/// (generated and cold-solve units mostly do not).
pub fn serve_unit(seed: u64, index: usize) -> BatchUnit {
    let mut unit = match index % 10 {
        0..=2 => dense_unit(seed, index),
        3 | 4 => generated_unit(seed, index),
        5 | 6 => refinement_unit(seed, index),
        7 | 8 => cold_unit(seed, index),
        _ => {
            let k = (index / 10 + seed as usize) % 8;
            riceps_units(Some(120)).nth(k).expect("eight RiCEPS programs")
        }
    };
    unit.name = format!("serve/{index:07}/{}", unit.name);
    unit
}

#[cfg(test)]
mod tests {
    use super::*;
    use delin_vic::batch::BatchRunner;

    #[test]
    fn cold_solve_is_seed_deterministic_and_mostly_new_problems() {
        let a: Vec<BatchUnit> = (0..60).map(|i| cold_unit(7, i)).collect();
        let b: Vec<BatchUnit> = (0..60).map(|i| cold_unit(7, i)).collect();
        let c: Vec<BatchUnit> = (0..60).map(|i| cold_unit(8, i)).collect();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((&x.name, &x.source), (&y.name, &y.source));
        }
        assert!(a.iter().zip(&c).any(|(x, y)| x.source != y.source), "seed must matter");

        let stats = BatchRunner::new(crate::config(1)).run(a);
        let pairs = stats.verdict_totals().pairs_tested;
        let distinct = stats.distinct_problems.expect("shared cache");
        assert_eq!(pairs, 60 * 26, "4 writes and 4 reads give 26 tested pairs per nest");
        assert!(
            distinct * 100 >= pairs * 30,
            "cold-solve must mostly insert new problems: {distinct} distinct of {pairs}"
        );
        assert_eq!(stats.verdict_totals().degraded_pairs, 0);
        assert_eq!(stats.parse_failures + stats.failed_units, 0);
    }

    #[test]
    fn riceps_order_depends_on_seed_only() {
        let names = |seed| riceps(seed).into_iter().map(|u| u.name).collect::<Vec<_>>();
        assert_eq!(names(3), names(3));
        let mut sorted = names(3);
        sorted.sort();
        let mut other = names(4);
        other.sort();
        assert_eq!(sorted, other, "the seed permutes, never changes, the RiCEPS set");
    }

    #[test]
    fn serve_units_parse() {
        for i in 0..20 {
            let u = serve_unit(5, i);
            delin_frontend::parse_program(&u.source).unwrap_or_else(|e| panic!("{}: {e}", u.name));
        }
    }
}
