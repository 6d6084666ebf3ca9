//! Experiment harness for the DCLUE reproduction: figure regeneration
//! binaries live under `src/bin/`, and this library provides the tiny
//! dependency-free micro-benchmark runner the `benches/` targets use
//! (the environment is fully offline, so Criterion is not available;
//! the runner keeps the same "name + ns/iter" reporting shape).

use std::time::{Duration, Instant};

/// Minimal wall-clock benchmark runner.
///
/// Each benchmark closure is warmed once, then run in geometrically
/// growing batches until the batch takes long enough to time reliably;
/// the per-iteration mean of the final batch is reported. A substring
/// filter (first non-flag CLI argument) selects benchmarks, mirroring
/// the usual `cargo bench <filter>` workflow.
pub struct Bench {
    filter: Option<String>,
    /// Target duration of the timed batch.
    pub target: Duration,
}

impl Default for Bench {
    fn default() -> Self {
        Bench {
            filter: None,
            target: Duration::from_millis(200),
        }
    }
}

impl Bench {
    /// Build from `std::env::args`, taking the first non-flag argument
    /// as a substring filter (flags like `--bench` that cargo passes
    /// are ignored).
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Bench {
            filter,
            ..Bench::default()
        }
    }

    /// Time `f`, printing `name  <ns>/iter (<iters> iters)`.
    pub fn bench_function<F: FnMut()>(&self, name: &str, mut f: F) {
        if let Some(flt) = &self.filter {
            if !name.contains(flt.as_str()) {
                return;
            }
        }
        f(); // warm-up
        let mut iters: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            let dt = t0.elapsed();
            if dt >= self.target || iters >= 1 << 22 {
                let per = dt.as_nanos() as f64 / iters as f64;
                println!("{name:<40} {per:>14.1} ns/iter  ({iters} iters)");
                return;
            }
            // Grow towards the target in one or two more steps.
            let scale = (self.target.as_secs_f64() / dt.as_secs_f64().max(1e-9))
                .ceil()
                .clamp(2.0, 64.0);
            iters = (iters as f64 * scale) as u64;
        }
    }
}
