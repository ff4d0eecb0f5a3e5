//! End-to-end benchmark of the PipeMare reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the public entry points, checks its
//! outputs, prints informational figures and, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set; with `--trace 1` an
//! untraced and a traced variant run side by side and the metrics are
//! the per-layer attribution. See `perfbench/README.md`.

mod report;
mod serve;
mod train;
mod wrap;

use report::{Report, END_TO_END, PER_LAYER};

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether to run the traced (per-layer) variant.
    pub trace: bool,
}

/// Runs one workload and reports its metrics and checks.
type Workload = fn(&Args) -> Report;

/// The workloads, by name.
const WORKLOADS: &[(&str, Workload)] = &[
    ("train_inproc_mlp", train::inproc_mlp),
    ("train_tcp_mlp", train::tcp_mlp),
    ("train_inproc_transformer", train::inproc_transformer),
    ("serve_open_mlp", serve::serve_open_mlp),
];

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(&(_, run)) = WORKLOADS.iter().find(|(name, _)| *name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!("perfbench: unknown workload {:?}; one of {names:?}", args.workload);
        std::process::exit(2);
    };
    println!(
        "host nproc={} simd={} kernel_pool_threads={} commit={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        pipemare_tensor::kernels::simd_level().name(),
        pipemare_tensor::pool::global().threads(),
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
    );
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let report = run(&args);
    report.emit(if args.trace { PER_LAYER } else { END_TO_END });
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}
