//! Order statistics, per-round summaries, and a timing loop.

use std::time::Instant;

/// The `p`-quantile (0..=1) of `values` by nearest rank; NaN when empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Median nanoseconds per call of `f`. Each of `samples` samples runs `f`
/// enough times to last at least ~0.2 ms, so calls far below the clock's
/// resolution still time accurately.
pub fn ns_per_call(samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    f();
    let one = ns_since(t).max(1.0);
    let iters = ((200_000.0 / one).ceil() as usize).clamp(1, 1 << 20);
    let per_sample: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            ns_since(t) / iters as f64
        })
        .collect();
    median(&per_sample)
}

/// Rounds a measured phase is cut into for [`by_rounds`].
pub const ROUNDS: usize = 5;

/// One timed operation of a load phase.
pub struct Op {
    /// Start, in seconds since the phase began.
    pub at_s: f64,
    pub ns: f64,
    /// Rows the operation completed correctly (0 when it failed).
    pub rows: u64,
}

/// Throughput (rows/s), p50 and p99 latency (ns) of a phase of
/// `duration_s`: each taken per round of `rounds` equal slices, then the
/// median across rounds, so one disturbed slice cannot move the result.
pub fn by_rounds(ops: &[Op], duration_s: f64, rounds: usize) -> (f64, f64, f64) {
    let len = duration_s / rounds as f64;
    let mut slices: Vec<Vec<&Op>> = (0..rounds).map(|_| Vec::new()).collect();
    for op in ops {
        slices[((op.at_s / len) as usize).min(rounds - 1)].push(op);
    }
    let (mut rate, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    for slice in slices.iter().filter(|s| !s.is_empty()) {
        let ns: Vec<f64> = slice.iter().map(|op| op.ns).collect();
        rate.push(slice.iter().map(|op| op.rows).sum::<u64>() as f64 / len);
        p50.push(quantile(&ns, 0.50));
        p99.push(quantile(&ns, 0.99));
    }
    (median(&rate), median(&p50), median(&p99))
}
