//! Metric names and units, the result line, and the host fingerprint.
//!
//! The two tables below are the benchmark's schema; `BENCHMARK.json` at the
//! repository root lists the same names and units, and the self-test pins
//! the two together.

use crate::Args;

/// End-to-end metrics (`--trace 0`), as a user of the system sees them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("fit_s", "s"),
    ("target_aucpr", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), one group per workspace crate.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.loopback_rtt_us", "us"),
    ("serve.http.read_us", "us"),
    ("serve.http.write_us", "us"),
    ("serve.json.parse_us", "us"),
    ("serve.json.parse_ns_per_value", "ns"),
    ("serve.batcher.queue_wait_us", "us"),
    ("serve.batcher.queue_wait_p99_us", "us"),
    ("serve.batcher.coalesce_us", "us"),
    ("serve.serialize_us", "us"),
    ("serve.batcher.submit_us", "us"),
    ("serve.batcher.batch_fill", "rows"),
    ("serve.registry.resolve_ns", "ns"),
    ("serve.request_unexplained_share", "ratio"),
    ("serve.registry.swap_ms", "ms"),
    ("serve.admin_swap_ms", "ms"),
    ("obs.scrape_ms", "ms"),
    ("obs.tracing_overhead_share", "ratio"),
    ("nn.engine.batch_us", "us"),
    ("nn.engine.share", "ratio"),
    ("linalg.f32.gemm_gflops", "GFLOP/s"),
    ("linalg.f64.gemm_us", "us"),
    ("linalg.gemm.dispatch_naive", "count"),
    ("linalg.gemm.dispatch_small", "count"),
    ("linalg.gemm.dispatch_blocked", "count"),
    ("nn.train_step_us", "us"),
    ("nn.step.forward_share", "ratio"),
    ("nn.step.backward_share", "ratio"),
    ("nn.step.backward_gemm_share", "ratio"),
    ("nn.step.reduce_share", "ratio"),
    ("core.select_s", "s"),
    ("core.clf_s", "s"),
    ("cluster.kmeans_ms", "ms"),
    ("runtime.dispatch_us", "us"),
    ("runtime.pool_queue_wait_us", "us"),
    ("store.save_ms", "ms"),
    ("store.load_mmap_ms", "ms"),
    ("store.mmap_copied_bytes", "bytes"),
    ("data.generate_s", "s"),
];

/// One run's outcome.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (requests, fits, scoring batches, swaps).
    pub attempted: u64,
    /// Operations that failed: non-200, transport error, or a result that
    /// does not match its in-process expectation.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Renders the result line for the metric table `--trace` selects.
    /// Every metric of the table must have been measured and be finite.
    pub fn into_line(self, trace: bool) -> Result<String, String> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let value = self
                .values
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite ({value})"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// The commit the working directory is at, read from `.git` when present
/// (an exported tree has none).
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Prints the host fingerprint: f32 numbers from a scalar-fallback host
/// measure a different program, so every result carries it.
pub fn print_fingerprint(args: &Args) {
    let features = targad_linalg::cpu_features();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"avx2\": {}, \"fma\": {}, \"kernel_path\": \"{}\", \"git_rev\": \"{}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        features.avx2,
        features.fma,
        targad_linalg::kernel_path().name(),
        git_rev()
    );
}
