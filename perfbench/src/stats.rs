//! Small statistics helpers: medians, quartiles and the tail-percentile rule.

/// The percentiles the tail rule picks from, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p)]
}

/// Zero-based nearest-rank index of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon absorbs binary rounding of decimal percentiles (99.9).
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// How a workload's tail is taken: the chunk size every run is guaranteed
/// to reach and the highest rung of [`TAIL_LADDER`] it may report.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub chunk: usize,
    pub top: f64,
}

/// The tail of a latency sample kept in arrival order. The sample is cut
/// into consecutive chunks of `chunk` samples, the size every run is
/// guaranteed to reach; the percentile is the highest on [`TAIL_LADDER`],
/// up to `top`, that leaves at least [`TAIL_BEYOND`] samples beyond it
/// within a chunk, and the value is its median over the full chunks. Returns
/// `(percentile, value, chunks)`, or `None` when the sample is shorter
/// than one chunk or even the median leaves too few beyond. Fixing the
/// rung by the guaranteed size keeps the percentile the same from run to
/// run, and the median over chunks keeps one stalled stretch of a run from
/// setting the figure.
pub fn tail(samples: &[f64], Tail { chunk, top }: Tail) -> Option<(f64, f64, usize)> {
    if chunk == 0 || samples.len() < chunk {
        return None;
    }
    let p =
        *TAIL_LADDER.iter().find(|&&p| p <= top && chunk - 1 - rank(chunk, p) >= TAIL_BEYOND)?;
    let values: Vec<f64> =
        samples.chunks_exact(chunk).map(|c| percentile(&sorted(c.to_vec()), p)).collect();
    Some((p, median(&values), values.len()))
}

/// Median of an unsorted sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sorts a sample ascending in place and returns it.
fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let exact =
            |n| tail(&ramp(n), Tail { chunk: n, top: TAIL_LADDER[0] }).map(|(p, v, _)| (p, v));
        // 20 samples: p50 is the 10th, leaving exactly 10 beyond it; p75
        // (the 15th) would leave only 5.
        assert_eq!(exact(20), Some((50.0, 10.0)));
        // 19 samples cannot support any rung.
        assert_eq!(exact(19), None);
        // 40 samples: p75 is the 30th, 10 beyond.
        assert_eq!(exact(40), Some((75.0, 30.0)));
        // 100 samples: p90 is the 90th, 10 beyond; p95 would leave 5.
        assert_eq!(exact(100), Some((90.0, 90.0)));
        assert_eq!(exact(199), Some((90.0, 180.0)));
        assert_eq!(exact(200), Some((95.0, 190.0)));
        assert_eq!(exact(1000), Some((99.0, 990.0)));
        assert_eq!(exact(10_000), Some((99.9, 9990.0)));
        for n in [20, 57, 333, 4_321, 25_000] {
            let s = ramp(n);
            let (p, v) = exact(n).expect("enough samples");
            assert!(s.iter().filter(|&&x| x > v).count() >= TAIL_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn tail_is_the_median_chunk_at_the_guaranteed_rung() {
        // Chunks 1..=40, 41..=80 (the last 16 samples make no full chunk):
        // p75 of each is 30 and 70.
        assert_eq!(tail(&ramp(96), Tail { chunk: 40, top: 99.9 }), Some((75.0, 50.0, 2)));
        assert_eq!(tail(&ramp(120), Tail { chunk: 40, top: 99.9 }), Some((75.0, 70.0, 3)));
        // One stalled chunk does not set the figure.
        let mut stalled = vec![1.0; 3000];
        stalled.extend(vec![50.0; 1000]);
        stalled.extend(vec![1.0; 2000]);
        assert_eq!(tail(&stalled, Tail { chunk: 1000, top: 99.9 }), Some((99.0, 1.0, 6)));
        // Falling short of the guarantee is no tail at all.
        assert_eq!(tail(&ramp(39), Tail { chunk: 40, top: 99.9 }), None);
    }

    #[test]
    fn tail_stops_at_the_top_rung() {
        // 3000 samples support p99 (the 2970th); a top of p95 reports the
        // 2850th instead, and a top between rungs takes the rung below it.
        assert_eq!(tail(&ramp(3000), Tail { chunk: 3000, top: 99.9 }), Some((99.0, 2970.0, 1)));
        assert_eq!(tail(&ramp(3000), Tail { chunk: 3000, top: 95.0 }), Some((95.0, 2850.0, 1)));
        assert_eq!(tail(&ramp(3000), Tail { chunk: 3000, top: 97.0 }), Some((95.0, 2850.0, 1)));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&ramp(10), 50.0), 5.0);
        assert_eq!(percentile(&ramp(10), 100.0), 10.0);
        assert_eq!(percentile(&ramp(10), 0.0), 1.0);
    }
}
