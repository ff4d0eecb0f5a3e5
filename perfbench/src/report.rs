//! Result collection, summary statistics and the output line.

use std::fmt::Write as _;

/// End-to-end metrics: every untraced run reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("samples_per_s", "samples/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: every traced run reports each of them. A layer a
/// workload never enters reports 0 (e.g. wire bytes in process).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("nn.fwd_ms", "ms"),
    ("nn.bwd_ms", "ms"),
    ("nn.layer.fc0.fwd_us", "us"),
    ("nn.layer.fc0.bwd_us", "us"),
    ("nn.layer.fc1.fwd_us", "us"),
    ("nn.layer.fc1.bwd_us", "us"),
    ("nn.layer.fc2.fwd_us", "us"),
    ("nn.layer.fc2.bwd_us", "us"),
    ("nn.layer.fc3.fwd_us", "us"),
    ("nn.layer.fc3.bwd_us", "us"),
    ("nn.layer.relu.fwd_us", "us"),
    ("nn.layer.relu.bwd_us", "us"),
    ("nn.loss_us", "us"),
    ("nn.chain_glue_us", "us"),
    ("nn.layer_sum_frac", "ratio"),
    ("nn.infer_us_per_batch", "us"),
    ("kernel.gemm_ms", "ms"),
    ("kernel.gemm_nt_ms", "ms"),
    ("kernel.gemm_tn_ms", "ms"),
    ("kernel.bmm_ms", "ms"),
    ("kernel.flops_per_step", "count"),
    ("kernel.gflops", "GFLOP/s"),
    ("kernel.share_of_nn", "ratio"),
    ("trainer.self_ms", "ms"),
    ("wire.recv_wait_ms", "ms"),
    ("wire.send_ms", "ms"),
    ("wire.bytes_recv_per_step", "B"),
    ("wire.bytes_sent_per_step", "B"),
    ("wire.msgs_per_step", "count"),
    ("wire.msgs_sent_per_step", "count"),
    ("wire.msgs_recv_per_step", "count"),
    ("wire.shard_bytes_per_step", "B"),
    ("wire.telemetry_bytes_per_step", "B"),
    ("orchestrator.self_ms", "ms"),
    ("worker.step_us", "us"),
    ("serve.rows_per_batch", "rows"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.stage_busy_frac", "ratio"),
    ("loadgen.late_ms_p99", "ms"),
    ("trace.step_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (optimizer steps or requests).
    pub attempted: u64,
    /// Operations that failed (diverged steps, comms errors, shed or
    /// rejected requests).
    pub failed: u64,
    /// Failed correctness checks, each with its reason.
    pub failures: Vec<String>,
    /// Metrics for the output line, by name.
    pub metrics: Vec<(String, f64)>,
    /// Informational figures printed above the output line.
    pub info: Vec<(String, f64, String)>,
}

impl Report {
    /// Records a correctness check; a failed one marks the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            println!("check ok: {what}");
        } else {
            println!("CHECK FAILED: {what}");
            self.failures.push(what);
        }
    }

    /// Sets an output-line metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.retain(|(n, _)| n != name);
        self.metrics.push((name.to_string(), value));
    }

    /// Adds a printed figure.
    pub fn info(&mut self, name: &str, value: f64, unit: &str) {
        self.info.push((name.to_string(), value, unit.to_string()));
    }

    /// Prints the figures and the final JSON line for the metric set
    /// `spec`; metrics absent from the report are reported as 0.
    pub fn emit(&self, spec: &[(&str, &str)]) {
        for (name, value, unit) in &self.info {
            println!("{name} = {value} {unit}");
        }
        for (name, _) in &self.metrics {
            assert!(spec.iter().any(|(n, _)| n == name), "metric {name} is not declared");
        }
        let mut metrics = String::new();
        for (i, (name, unit)) in spec.iter().enumerate() {
            let value =
                self.metrics.iter().find(|(n, _)| n == name).map_or(0.0, |&(_, value)| value);
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            if i > 0 {
                metrics.push_str(", ");
            }
            write!(metrics, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}").unwrap();
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed
        );
    }
}

/// Nearest-rank quantile of unsorted values (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 when the
/// platform does not expose it.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
