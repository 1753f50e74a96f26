//! Host-speed calibration.
//!
//! On a shared virtual machine the same work runs 1.3–1.6× slower for
//! seconds or minutes at a time. A run therefore times a fixed kernel —
//! benchmark code, unchanged from commit to commit — before and after each
//! measured pass, and scales the pass to the reference host speed: its
//! times are divided, and its rates multiplied, by the mean of the two
//! kernel times over [`REFERENCE_MS`]. Each kernel time is the fastest of
//! [`KERNEL_RUNS`] runs, since a momentary stall only ever slows a run.

use crate::units::Rng;
use crate::{digest, stats, WORKERS};
use std::collections::BTreeMap;
use std::time::Instant;

/// The kernel's time on the reference host, a 2-vCPU virtual machine.
pub const REFERENCE_MS: f64 = 12.0;

/// Kernel runs per sample.
pub const KERNEL_RUNS: usize = 3;

/// Kernel times taken between the passes of one phase of a run.
#[derive(Debug, Default)]
pub struct Speed(Vec<f64>);

impl Speed {
    /// Times the kernel once more and returns how much slower than the
    /// reference host the span since the previous sample ran: the mean of
    /// the two kernel times over [`REFERENCE_MS`] (this sample alone for
    /// the first).
    pub fn sample(&mut self) -> f64 {
        let now = (0..KERNEL_RUNS).map(|_| kernel_ms()).fold(f64::INFINITY, f64::min);
        let before = self.0.last().copied().unwrap_or(now);
        self.0.push(now);
        (before + now) / 2.0 / REFERENCE_MS
    }

    /// The phase's median slowdown against the reference host.
    pub fn median_factor(&self) -> f64 {
        stats::median(&self.0) / REFERENCE_MS
    }
}

/// Runs the kernel on [`WORKERS`] threads at once, as the measured passes
/// run, and returns the wall time in ms. The kernel mixes what the
/// pipeline does most: ordered-map inserts, small string building,
/// sorting and hashing.
pub fn kernel_ms() -> f64 {
    fn kernel(seed: u64) -> u64 {
        let mut rng = Rng::new(seed, 0x5eed);
        let mut map = BTreeMap::new();
        let mut text = String::new();
        for i in 0..KERNEL_STEPS {
            let k = rng.next_u64() % 50_000;
            *map.entry(k).or_insert(0u64) += i;
            if i % 4 == 0 {
                text.push_str(&format!("{k:x};"));
            }
        }
        let mut keys: Vec<u64> = map.keys().copied().collect();
        keys.sort_unstable_by(|a, b| b.cmp(a));
        keys.len() as u64 ^ digest(text.as_bytes())
    }
    let t = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS as u64).map(|k| scope.spawn(move || kernel(k))).collect();
        for h in handles {
            std::hint::black_box(h.join().expect("calibration kernel panicked"));
        }
    });
    t.elapsed().as_secs_f64() * 1e3
}

/// Kernel iterations per thread.
const KERNEL_STEPS: u64 = 50_000;
