//! The training workloads: in-process `PipelineTrainer` on the MLP and
//! the Transformer, and `DistributedTrainer` over TCP stage workers.

use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pipemare_comms::{
    channel, run_stage_worker, CommsError, DistRunReport, DistributedTrainer, SparseMode,
    StageWorkerReport, TcpTransport, Transport,
};
use pipemare_core::{dist_config, PipelineTrainer, TrainConfig};
use pipemare_data::{split_microbatches, MinibatchIter, SyntheticImages, SyntheticTranslation};
use pipemare_nn::{ImageBatch, Mlp, SeqBatch, TrainModel, Transformer, TransformerConfig};
use pipemare_optim::{ConstantLr, OptimizerKind, T1Rescheduler};
use pipemare_telemetry::{MetricsRegistry, SpanKind};
use pipemare_tensor::{
    install_kernel_metrics, uninstall_kernel_metrics, KernelKind, KernelMetrics,
};

use crate::report::{median, peak_rss_mib, quantile, Report};
use crate::wrap::{LayeredMlp, PassTimes, TimedTrain, TimedTransport, WireSnapshot, WireTimes};
use crate::Args;

/// MLP layer widths: 256-512-512-512-10, 662,026 parameters.
pub const MLP_WIDTHS: [usize; 5] = [256, 512, 512, 512, 10];
/// Pipeline stages `P`.
const STAGES: usize = 4;
/// Microbatches per minibatch `N`.
const N_MICRO: usize = 4;
/// Rows per MLP microbatch.
const MLP_MICRO_ROWS: usize = 32;
/// Sentences per Transformer microbatch.
const SEQ_MICRO_ROWS: usize = 8;
/// Distinct minibatches generated per run; steps cycle through them.
const POOL_STEPS: usize = 32;
/// Leading steps of every run that are trained but not timed.
const WARM_STEPS: usize = 3;
/// Fewest timed steps an untraced run takes (so ≥ 10 lie beyond p90).
const MIN_TIMED_STEPS: usize = 100;
/// Fewest timed steps each trainer of a traced run takes.
const MIN_TRACED_STEPS: usize = 20;
/// Trainer constructions per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Timed steps per block of the `samples_per_s` and `latency_ms_p90`
/// medians: one pass over the minibatch pool, so that every block holds
/// the same inputs (Transformer step time depends on sentence lengths).
const BLOCK: usize = POOL_STEPS;
/// Losses averaged into `loss_final`.
const LOSS_TAIL: usize = 10;

fn mlp_cfg() -> TrainConfig {
    let mut cfg = TrainConfig::pipemare(
        STAGES,
        N_MICRO,
        OptimizerKind::Momentum { beta: 0.9, weight_decay: 0.0 },
        Box::new(ConstantLr(0.01)),
        T1Rescheduler::new(50),
        0.1,
    );
    cfg.warmup_steps = 2;
    cfg
}

fn transformer_cfg() -> TrainConfig {
    let mut cfg = TrainConfig::pipemare(
        STAGES,
        N_MICRO,
        OptimizerKind::transformer_adamw(0.0),
        Box::new(ConstantLr(1e-3)),
        T1Rescheduler::new(50),
        0.1,
    );
    cfg.warmup_steps = 2;
    cfg.grad_clip = Some(25.0);
    cfg
}

/// Learnable synthetic 10-class data: 1×16×16 prototype images plus
/// noise, as `POOL_STEPS` minibatches of `N_MICRO` microbatches.
pub fn mlp_minibatches(seed: u64) -> Vec<Vec<ImageBatch>> {
    let rows = POOL_STEPS * N_MICRO * MLP_MICRO_ROWS;
    let ds = SyntheticImages {
        classes: 10,
        channels: 1,
        size: 16,
        train: rows,
        test: 1,
        noise: 0.7,
        seed,
    }
    .generate();
    let mut it = MinibatchIter::new(rows, N_MICRO * MLP_MICRO_ROWS, seed ^ 0x5eed);
    (0..POOL_STEPS)
        .map(|_| {
            split_microbatches(&it.next_batch(), N_MICRO)
                .iter()
                .map(|idx| {
                    let (x, y) = ds.train_batch(idx);
                    ImageBatch { x, y }
                })
                .collect()
        })
        .collect()
}

/// Encoder-decoder Transformer: dim 64, 4 heads, ff 128, 2+2 layers.
fn transformer(vocab: usize) -> Transformer {
    Transformer::new(TransformerConfig {
        src_vocab: vocab,
        tgt_vocab: vocab,
        dim: 64,
        heads: 4,
        ff_dim: 128,
        enc_layers: 2,
        dec_layers: 2,
        label_smoothing: 0.1,
    })
}

/// The Transformer and synthetic reverse-translation minibatches of
/// 12–16 token sentences.
fn transformer_workload(seed: u64) -> (Transformer, Vec<Vec<SeqBatch>>) {
    let per_step = N_MICRO * SEQ_MICRO_ROWS;
    let ds = SyntheticTranslation {
        vocab: 24,
        min_len: 12,
        max_len: 16,
        train: POOL_STEPS * per_step,
        test: 1,
        reverse: true,
        seed,
    }
    .generate();
    let model = transformer(ds.total_vocab);
    let mut it = MinibatchIter::new(ds.train_len(), per_step, seed ^ 0x5eed);
    let pool = (0..POOL_STEPS)
        .map(|_| {
            split_microbatches(&it.next_batch(), N_MICRO).iter().map(|idx| ds.batch(idx)).collect()
        })
        .collect();
    (model, pool)
}

/// Uniform microbatch weights.
fn micro_weights() -> Vec<f32> {
    vec![1.0 / N_MICRO as f32; N_MICRO]
}

/// Samples per minibatch.
fn samples_per_step(micro_rows: usize) -> f64 {
    (N_MICRO * micro_rows) as f64
}

/// What a run of optimizer steps produced.
#[derive(Default)]
struct StepLog {
    /// Loss of every step, untimed warm-up steps included.
    losses: Vec<f32>,
    /// Wall time of each timed step, ms.
    step_ms: Vec<f64>,
    /// Probe snapshots before each timed step and after the last one
    /// (traced lanes only).
    snaps: Vec<Snap>,
    /// Steps that reported divergence.
    diverged: u64,
    /// The error that stopped the run early, if any.
    error: Option<String>,
}

impl StepLog {
    /// Timed samples ÷ summed timed step wall time.
    fn samples_per_s(&self, micro_rows: usize) -> f64 {
        samples_per_step(micro_rows) * self.step_ms.len() as f64
            / (self.step_ms.iter().sum::<f64>() / 1e3)
    }

    /// `samples_per_s` of each run of `BLOCK` consecutive timed steps,
    /// medianed, so that a burst of host noise moves only a few blocks.
    fn samples_per_s_block_median(&self, micro_rows: usize) -> f64 {
        let rates: Vec<f64> = self
            .step_ms
            .chunks_exact(BLOCK)
            .map(|b| samples_per_step(micro_rows) * b.len() as f64 / (b.iter().sum::<f64>() / 1e3))
            .collect();
        median(&rates)
    }

    fn loss_final(&self) -> f64 {
        let tail = &self.losses[self.losses.len().saturating_sub(LOSS_TAIL)..];
        tail.iter().map(|&l| l as f64).sum::<f64>() / tail.len() as f64
    }
}

/// One optimizer step of some trainer: `(loss, diverged)`.
type StepFn<'a> = Box<dyn FnMut(usize) -> Result<(f32, bool), String> + 'a>;

/// A trainer driven by [`drive`]; `probes` marks a traced lane.
struct Lane<'a> {
    step: StepFn<'a>,
    probes: Option<&'a Probes<'a>>,
}

/// Steps every lane in turn, the same step index on each: `WARM_STEPS`
/// untimed, then timed until `seconds` of wall time and at least
/// `min_steps` timed steps per lane have passed. Interleaving the
/// untraced and traced lanes of a traced run exposes both to the same
/// host conditions. Kernel instrumentation is on only inside traced
/// steps.
fn drive(seconds: f64, min_steps: usize, lanes: Vec<Lane<'_>>) -> Vec<StepLog> {
    let mut lanes: Vec<(Lane, StepLog)> =
        lanes.into_iter().map(|l| (l, StepLog::default())).collect();
    let mut timed_start = None;
    'steps: for i in 0.. {
        if i == WARM_STEPS {
            timed_start = Some(Instant::now());
        }
        if let Some(t0) = timed_start {
            let elapsed = t0.elapsed().as_secs_f64();
            let enough = lanes.iter().all(|(_, log)| log.step_ms.len() >= min_steps);
            if (elapsed >= seconds && enough) || elapsed >= 3.0 * seconds {
                break;
            }
        }
        for (lane, log) in &mut lanes {
            let timed = timed_start.is_some();
            if let (true, Some(p)) = (timed, lane.probes) {
                log.snaps.push(p.snap());
            }
            let _kernels = lane.probes.map(Probes::enable_kernels);
            let t0 = Instant::now();
            let result = (lane.step)(i);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            match result {
                Ok((loss, diverged)) => {
                    log.losses.push(loss);
                    log.diverged += diverged as u64;
                    if timed {
                        log.step_ms.push(ms);
                    }
                }
                Err(e) => {
                    log.error = Some(e);
                    log.snaps.pop();
                    break 'steps;
                }
            }
        }
    }
    lanes
        .into_iter()
        .map(|(lane, mut log)| {
            if let (false, Some(p)) = (log.snaps.is_empty(), lane.probes) {
                log.snaps.push(p.snap());
            }
            log
        })
        .collect()
}

/// A step function training `trainer` on the minibatch pool.
fn inproc_step<'a, M: TrainModel>(
    mut trainer: PipelineTrainer<'a, M>,
    pool: &'a [Vec<M::Batch>],
) -> StepFn<'a> {
    let weights = micro_weights();
    Box::new(move |i| {
        let st = trainer.train_minibatch(&pool[i % pool.len()], &weights);
        Ok((st.loss, st.diverged))
    })
}

/// Median set-up time in seconds over the measured run's own set-up
/// (`first`) and `SETUP_REPS - 1` more runs of `setup`. The repetitions
/// come after the run and its `peak_rss_mib` reading, so their
/// allocations cannot raise the reported peak.
fn median_setup(first: Duration, mut setup: impl FnMut() -> Duration) -> f64 {
    let mut times = vec![first.as_secs_f64()];
    times.extend((1..SETUP_REPS).map(|_| setup().as_secs_f64()));
    median(&times)
}

/// Times `f`, returning its result and how long it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// End-to-end metrics and the checks every training run makes.
fn training_report(r: &mut Report, log: &StepLog, micro_rows: usize, setup_s: f64, rss: f64) {
    r.attempted = log.losses.len() as u64 + log.error.is_some() as u64;
    r.failed = log.diverged + log.error.is_some() as u64;
    r.check(log.error.is_none(), format!("no step failed ({:?})", log.error));
    r.check(
        log.step_ms.len() >= MIN_TIMED_STEPS,
        format!("{} timed steps >= {MIN_TIMED_STEPS}", log.step_ms.len()),
    );
    if log.step_ms.len() < BLOCK {
        return;
    }
    let sps = log.samples_per_s_block_median(micro_rows);
    let p50 = quantile(&log.step_ms, 0.5);
    let p90 = quantile(&log.step_ms, 0.9);
    let p90_blocks =
        median(&log.step_ms.chunks_exact(BLOCK).map(|b| quantile(b, 0.9)).collect::<Vec<_>>());
    let loss_final = log.loss_final();
    r.metric("samples_per_s", sps);
    r.metric("latency_ms_p50", p50);
    r.metric("latency_ms_p90", p90_blocks);
    r.metric("setup_s", setup_s);
    r.metric("peak_rss_mib", rss);
    r.info("samples_per_s", sps, "samples/s");
    r.info("samples_per_s_whole_run", log.samples_per_s(micro_rows), "samples/s");
    r.info("step_ms_p50", p50, "ms");
    r.info("step_ms_p90", p90, "ms");
    r.info("step_ms_p90_block_median", p90_blocks, "ms");
    r.info("loss_final", loss_final, "nats");
    r.info("failed_frac", r.failed as f64 / r.attempted.max(1) as f64, "ratio");
    r.info("setup_s", setup_s, "s");
    r.info("peak_rss_mib", rss, "MiB");
    r.info("timed_steps", log.step_ms.len() as f64, "steps");
    r.check(log.diverged == 0, format!("no step diverged ({} did)", log.diverged));
    r.check(
        loss_final < log.losses[0] as f64,
        format!("loss_final {loss_final:.4} < first-step loss {:.4}", log.losses[0]),
    );
}

/// Checks shared by every traced run, whose lanes are `[untraced, traced]`.
fn check_traced(r: &mut Report, plain: &StepLog, traced: &StepLog) {
    r.attempted = (plain.losses.len() + traced.losses.len()) as u64;
    r.failed = traced.diverged + plain.diverged;
    r.check(
        plain.error.is_none() && traced.error.is_none(),
        format!("no step failed ({:?})", plain.error.as_ref().or(traced.error.as_ref())),
    );
    r.check(traced.diverged == 0 && plain.diverged == 0, "no step diverged");
    check_same_losses(r, "traced vs untraced run", &traced.losses, &plain.losses);
}

/// Asserts that two loss sequences agree bit for bit on their common
/// prefix.
fn check_same_losses(r: &mut Report, what: &str, a: &[f32], b: &[f32]) {
    let n = a.len().min(b.len());
    let same = a[..n].iter().zip(&b[..n]).all(|(x, y)| x.to_bits() == y.to_bits());
    r.check(same && n > 0, format!("{what}: losses of the first {n} steps are bit-identical"));
}

/// Per-layer counters sampled around every traced step.
#[derive(Clone, Debug, Default)]
struct Snap {
    nn_fwd_ns: u64,
    nn_bwd_ns: u64,
    /// `(fwd, bwd)` ns per linear layer, then the ReLUs, then the whole
    /// chain; empty when the model is not layer-wrapped.
    layers: Vec<(u64, u64)>,
    loss_ns: u64,
    /// Summed µs of gemm, gemm_nt, gemm_tn and bmm.
    kernel_us: [f64; 4],
    flops: u64,
    wire: WireSnapshot,
}

/// The GEMM-family kernels and the per-layer metric of each.
pub const KERNELS: [(KernelKind, &str); 4] = [
    (KernelKind::Gemm, "kernel.gemm_ms"),
    (KernelKind::GemmNt, "kernel.gemm_nt_ms"),
    (KernelKind::GemmTn, "kernel.gemm_tn_ms"),
    (KernelKind::Bmm, "kernel.bmm_ms"),
];

/// The probes a traced run reads.
struct Probes<'a> {
    nn: Arc<PassTimes>,
    layered: Option<&'a LayeredMlp>,
    registry: MetricsRegistry,
    kernels: KernelMetrics,
    wire: Option<Arc<WireTimes>>,
}

/// Turns kernel instrumentation off when dropped.
struct KernelsOn;

impl Drop for KernelsOn {
    fn drop(&mut self) {
        uninstall_kernel_metrics();
    }
}

impl<'a> Probes<'a> {
    fn new(
        nn: Arc<PassTimes>,
        layered: Option<&'a LayeredMlp>,
        wire: Option<Arc<WireTimes>>,
    ) -> Self {
        let registry = MetricsRegistry::new();
        let kernels = install_kernel_metrics(&registry);
        uninstall_kernel_metrics();
        Probes { nn, layered, registry, kernels, wire }
    }

    /// Records kernel calls into this lane's registry until the guard
    /// drops (the instruments are the same on every call).
    fn enable_kernels(&self) -> KernelsOn {
        install_kernel_metrics(&self.registry);
        KernelsOn
    }

    fn snap(&self) -> Snap {
        let layers = self.layered.map_or(Vec::new(), |m| {
            let mut v: Vec<(u64, u64)> =
                m.linear.iter().map(|t| (t.fwd_ns(), t.bwd_ns())).collect();
            v.push((m.relu.fwd_ns(), m.relu.bwd_ns()));
            v.push((m.chain_times.fwd_ns(), m.chain_times.bwd_ns()));
            v
        });
        Snap {
            nn_fwd_ns: self.nn.fwd_ns(),
            nn_bwd_ns: self.nn.bwd_ns(),
            layers,
            loss_ns: self.layered.map_or(0, |m| m.loss_ns.load(Ordering::Relaxed)),
            kernel_us: KERNELS.map(|(k, _)| self.kernels.latency(k).snapshot().sum),
            flops: self.kernels.flops.get(),
            wire: self.wire.as_ref().map_or_else(WireSnapshot::default, |w| w.snapshot()),
        }
    }
}

/// Per-layer metrics of a traced run from its snapshots, plus the
/// exact-count and accounting checks.
fn traced_report(r: &mut Report, log: &StepLog, micro_rows: usize, untraced_sps: f64) {
    if log.step_ms.is_empty() {
        return;
    }
    let steps = log.step_ms.len() as f64;
    let (first, last) = (&log.snaps[0], &log.snaps[log.snaps.len() - 1]);
    let step_ms = log.step_ms.iter().sum::<f64>() / steps;
    let nn_fwd = (last.nn_fwd_ns - first.nn_fwd_ns) as f64 / 1e6 / steps;
    let nn_bwd = (last.nn_bwd_ns - first.nn_bwd_ns) as f64 / 1e6 / steps;
    let nn_ms = nn_fwd + nn_bwd;
    r.metric("nn.fwd_ms", nn_fwd);
    r.metric("nn.bwd_ms", nn_bwd);
    r.metric("trace.step_ms", step_ms);
    r.metric("trace.overhead_frac", 1.0 - log.samples_per_s(micro_rows) / untraced_sps);

    if !first.layers.is_empty() {
        let names = ["fc0", "fc1", "fc2", "fc3", "relu"];
        let mut layer_ms = 0.0;
        for (i, name) in names.iter().enumerate() {
            let fwd = (last.layers[i].0 - first.layers[i].0) as f64 / 1e3 / steps;
            let bwd = (last.layers[i].1 - first.layers[i].1) as f64 / 1e3 / steps;
            r.metric(&format!("nn.layer.{name}.fwd_us"), fwd);
            r.metric(&format!("nn.layer.{name}.bwd_us"), bwd);
            layer_ms += (fwd + bwd) / 1e3;
        }
        let loss_ms = (last.loss_ns - first.loss_ns) as f64 / 1e6 / steps;
        r.metric("nn.loss_us", loss_ms * 1e3);
        let chain = names.len();
        let chain_ms = ((last.layers[chain].0 - first.layers[chain].0)
            + (last.layers[chain].1 - first.layers[chain].1)) as f64
            / 1e6
            / steps;
        // Sequential's own work between its layers: zeroing the full
        // gradient buffer and copying every layer's slice into it.
        let glue_ms = chain_ms - layer_ms;
        r.metric("nn.chain_glue_us", glue_ms * 1e3);
        r.metric("nn.layer_sum_frac", (layer_ms + loss_ms) / nn_ms);
        let frac = (layer_ms + loss_ms + glue_ms) / nn_ms;
        r.check(
            (0.95..=1.0).contains(&frac),
            format!(
                "layers + loss + chain glue sum to {:.1}% of nn.fwd_ms + nn.bwd_ms \
                 (layers + loss alone: {:.1}%)",
                frac * 100.0,
                (layer_ms + loss_ms) / nn_ms * 100.0
            ),
        );
    }

    let mut kernel_ms = 0.0;
    for (i, (_, name)) in KERNELS.iter().enumerate() {
        let ms = (last.kernel_us[i] - first.kernel_us[i]) / 1e3 / steps;
        kernel_ms += ms;
        r.metric(name, ms);
    }
    // Flops per step over one pass of the minibatch pool (or every
    // traced step when fewer ran), so the count repeats exactly.
    let per_step: Vec<u64> = log.snaps.windows(2).map(|w| w[1].flops - w[0].flops).collect();
    let mut cycle: Vec<Option<u64>> = vec![None; POOL_STEPS];
    let mut repeats = true;
    for (j, &f) in per_step.iter().enumerate() {
        let slot = &mut cycle[(WARM_STEPS + j) % POOL_STEPS];
        repeats &= *slot.get_or_insert(f) == f;
    }
    r.check(repeats, "steps on the same minibatch issue exactly the same flops");
    let seen: Vec<u64> = cycle.into_iter().flatten().collect();
    r.metric("kernel.flops_per_step", seen.iter().sum::<u64>() as f64 / seen.len() as f64);
    let total_flops = (last.flops - first.flops) as f64;
    r.metric("kernel.gflops", total_flops / (kernel_ms * steps / 1e3) / 1e9);
    r.metric("kernel.share_of_nn", kernel_ms / nn_ms);

    if first.wire == WireSnapshot::default() && last.wire == WireSnapshot::default() {
        r.metric("trainer.self_ms", step_ms - nn_ms);
        r.check(step_ms >= nn_ms, "nn time fits inside the step time");
        return;
    }
    let w = last.wire.since(&first.wire);
    let recv_ms = w.recv_ns as f64 / 1e6 / steps;
    let send_ms = w.send_ns as f64 / 1e6 / steps;
    r.metric("wire.recv_wait_ms", recv_ms);
    r.metric("wire.send_ms", send_ms);
    r.metric("wire.bytes_recv_per_step", w.bytes_recv as f64 / steps);
    r.metric("wire.bytes_sent_per_step", w.bytes_sent as f64 / steps);
    r.metric("wire.msgs_per_step", (w.msgs_sent + w.msgs_recv) as f64 / steps);
    r.metric("wire.msgs_sent_per_step", w.msgs_sent as f64 / steps);
    r.metric("wire.msgs_recv_per_step", w.msgs_recv as f64 / steps);
    r.metric("wire.shard_bytes_per_step", w.shard_bytes as f64 / steps);
    r.metric("wire.telemetry_bytes_per_step", w.telemetry_bytes as f64 / steps);
    let self_ms = step_ms - nn_ms - recv_ms - send_ms;
    r.metric("orchestrator.self_ms", self_ms);
    r.check(self_ms >= 0.0, "nn and wire time fit inside the step time");
    // Exact per-step counts at P=4, N=4: 2 shard fetches per microbatch
    // (4 + 4 frames each way), then gradient, commit and flush rounds.
    let per: Vec<WireSnapshot> =
        log.snaps.windows(2).map(|s| s[1].wire.since(&s[0].wire)).collect();
    r.check(
        per.iter().all(|d| d.msgs_sent == 44 && d.msgs_recv == 48),
        "every step sends 44 and receives 48 messages",
    );
    r.check(
        per.iter()
            .all(|d| d.bytes_sent == per[0].bytes_sent && d.shard_bytes == per[0].shard_bytes),
        format!(
            "every step sends {} B and moves {} B of shards",
            per[0].bytes_sent, per[0].shard_bytes
        ),
    );
}

/// `train_inproc_mlp`: `PipelineTrainer` on the MLP.
pub fn inproc_mlp(args: &Args) -> Report {
    let pool = mlp_minibatches(args.seed);
    let model = Mlp::new(&MLP_WIDTHS);
    let mut r = Report::default();
    if !args.trace {
        let (trainer, first) = timed(|| PipelineTrainer::new(&model, mlp_cfg(), args.seed));
        let step = inproc_step(trainer, &pool);
        let logs = drive(args.seconds, MIN_TIMED_STEPS, vec![Lane { step, probes: None }]);
        let rss = peak_rss_mib();
        let setup_s =
            median_setup(first, || timed(|| PipelineTrainer::new(&model, mlp_cfg(), args.seed)).1);
        training_report(&mut r, &logs[0], MLP_MICRO_ROWS, setup_s, rss);
        return r;
    }
    let timed = TimedTrain::new(LayeredMlp::new(&MLP_WIDTHS));
    let probes = Probes::new(timed.times(), Some(timed.inner()), None);
    let logs = drive(
        args.seconds,
        MIN_TRACED_STEPS,
        vec![
            Lane {
                step: inproc_step(PipelineTrainer::new(&model, mlp_cfg(), args.seed), &pool),
                probes: None,
            },
            Lane {
                step: inproc_step(PipelineTrainer::new(&timed, mlp_cfg(), args.seed), &pool),
                probes: Some(&probes),
            },
        ],
    );
    check_traced(&mut r, &logs[0], &logs[1]);
    traced_report(&mut r, &logs[1], MLP_MICRO_ROWS, logs[0].samples_per_s(MLP_MICRO_ROWS));
    r
}

/// `train_inproc_transformer`: `PipelineTrainer` on the Transformer.
pub fn inproc_transformer(args: &Args) -> Report {
    let (model, pool) = transformer_workload(args.seed);
    let mut r = Report::default();
    r.info("transformer_params", model.param_len() as f64, "params");
    if !args.trace {
        let new_trainer = || PipelineTrainer::new(&model, transformer_cfg(), args.seed);
        let (trainer, first) = timed(new_trainer);
        let step = inproc_step(trainer, &pool);
        let logs = drive(args.seconds, MIN_TIMED_STEPS, vec![Lane { step, probes: None }]);
        let rss = peak_rss_mib();
        let setup_s = median_setup(first, || timed(new_trainer).1);
        training_report(&mut r, &logs[0], SEQ_MICRO_ROWS, setup_s, rss);
        return r;
    }
    let timed = TimedTrain::new(transformer(model.config().src_vocab));
    let probes = Probes::new(timed.times(), None, None);
    let logs = drive(
        args.seconds,
        MIN_TRACED_STEPS,
        vec![
            Lane {
                step: inproc_step(
                    PipelineTrainer::new(&model, transformer_cfg(), args.seed),
                    &pool,
                ),
                probes: None,
            },
            Lane {
                step: inproc_step(
                    PipelineTrainer::new(&timed, transformer_cfg(), args.seed),
                    &pool,
                ),
                probes: Some(&probes),
            },
        ],
    );
    check_traced(&mut r, &logs[0], &logs[1]);
    traced_report(&mut r, &logs[1], SEQ_MICRO_ROWS, logs[0].samples_per_s(SEQ_MICRO_ROWS));
    r
}

type WorkerJoin = JoinHandle<Result<StageWorkerReport, CommsError>>;

/// Starts one stage worker per stage on its own thread, each behind a
/// fresh 127.0.0.1 listener; returns their addresses and join handles.
fn spawn_tcp_workers() -> (Vec<String>, Vec<WorkerJoin>) {
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for _ in 0..STAGES {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        addrs.push(listener.local_addr().expect("listener address").to_string());
        handles.push(std::thread::spawn(move || {
            let (stream, _) = listener.accept()?;
            let (tx, rx) = channel(Box::new(TcpTransport::new(stream)?))?;
            run_stage_worker(tx, rx)
        }));
    }
    (addrs, handles)
}

/// Connects, handshakes and distributes the initial shards: the
/// distributed trainer's set-up.
fn connect_tcp<'m, M: TrainModel>(
    model: &'m M,
    seed: u64,
    addrs: &[String],
    wire: Option<&Arc<WireTimes>>,
) -> Result<DistributedTrainer<'m, M>, CommsError> {
    let dcfg = dist_config(mlp_cfg(), SparseMode::Dense, Some(Duration::from_secs(60)))?;
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    for addr in addrs {
        let tcp: Box<dyn Transport> = Box::new(TcpTransport::connect(addr)?);
        transports.push(match wire {
            Some(w) => Box::new(TimedTransport::new(tcp, Arc::clone(w))),
            None => tcp,
        });
    }
    DistributedTrainer::connect(model, dcfg, seed, transports)
}

fn join_workers(handles: Vec<WorkerJoin>) -> Result<(), String> {
    for h in handles {
        h.join().map_err(|_| "stage worker panicked".to_string())?.map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// A distributed trainer and the threads of its TCP stage workers.
struct TcpSession<'m, M: TrainModel> {
    trainer: DistributedTrainer<'m, M>,
    workers: Vec<WorkerJoin>,
    /// How long `connect_tcp` took: the set-up.
    setup: Duration,
}

impl<'m, M: TrainModel> TcpSession<'m, M> {
    /// Starts the workers, then connects.
    fn start(model: &'m M, seed: u64, wire: Option<&Arc<WireTimes>>) -> Result<Self, String> {
        let (addrs, workers) = spawn_tcp_workers();
        let (trainer, setup) = timed(|| connect_tcp(model, seed, &addrs, wire));
        let trainer = trainer.map_err(|e| e.to_string())?;
        Ok(TcpSession { trainer, workers, setup })
    }

    fn step<'s>(&'s mut self, pool: &'s [Vec<M::Batch>]) -> StepFn<'s> {
        let weights = micro_weights();
        Box::new(move |i| {
            self.trainer
                .train_minibatch(&pool[i % pool.len()], &weights)
                .map(|st| (st.loss, st.diverged))
                .map_err(|e| e.to_string())
        })
    }

    /// Gathers the final weights, shuts the workers down and joins them.
    fn finish(mut self) -> Result<(Vec<f32>, DistRunReport), String> {
        let params = self.trainer.gather_params().map_err(|e| e.to_string())?;
        let report = self.trainer.shutdown().map_err(|e| e.to_string())?;
        join_workers(self.workers)?;
        Ok((params, report))
    }
}

/// `train_tcp_mlp`: `DistributedTrainer` over four TCP stage workers.
pub fn tcp_mlp(args: &Args) -> Report {
    let pool = mlp_minibatches(args.seed);
    let model = Mlp::new(&MLP_WIDTHS);
    let mut r = Report::default();
    if !args.trace {
        let mut session = match TcpSession::start(&model, args.seed, None) {
            Ok(s) => s,
            Err(e) => {
                r.check(false, format!("TCP set-up: {e}"));
                return r;
            }
        };
        let logs = drive(
            args.seconds,
            MIN_TIMED_STEPS,
            vec![Lane { step: session.step(&pool), probes: None }],
        );
        let log = &logs[0];
        let rss = peak_rss_mib();
        let first = session.setup;
        let finished = session.finish();
        r.check(finished.is_ok(), format!("TCP shutdown ({:?})", finished.as_ref().err()));
        let params = finished.map(|(p, _)| p).unwrap_or_default();
        let setup_s = median_setup(first, || {
            let s = TcpSession::start(&model, args.seed, None).expect("tcp set-up");
            let setup = s.setup;
            s.finish().expect("tcp shutdown");
            setup
        });
        training_report(&mut r, log, MLP_MICRO_ROWS, setup_s, rss);
        // Untimed reference: the in-process trainer on the same seed,
        // data and step count must land on bit-identical weights.
        let weights = micro_weights();
        let mut reference = PipelineTrainer::new(&model, mlp_cfg(), args.seed);
        let ref_losses: Vec<f32> = (0..log.losses.len())
            .map(|i| reference.train_minibatch(&pool[i % pool.len()], &weights).loss)
            .collect();
        check_same_losses(&mut r, "TCP vs in-process trainer", &log.losses, &ref_losses);
        let same = params.len() == reference.params().len()
            && params.iter().zip(reference.params()).all(|(a, b)| a.to_bits() == b.to_bits());
        r.check(
            same,
            format!(
                "final params after {} steps are bit-identical to the in-process trainer",
                log.losses.len()
            ),
        );
        return r;
    }
    let timed = TimedTrain::new(Mlp::new(&MLP_WIDTHS));
    let wire = Arc::new(WireTimes::default());
    let probes = Probes::new(timed.times(), None, Some(Arc::clone(&wire)));
    let sessions = TcpSession::start(&model, args.seed, None)
        .and_then(|a| Ok((a, TcpSession::start(&timed, args.seed, Some(&wire))?)));
    let (mut plain, mut traced) = match sessions {
        Ok(s) => s,
        Err(e) => {
            r.check(false, format!("TCP set-up: {e}"));
            return r;
        }
    };
    let logs = drive(
        args.seconds,
        MIN_TRACED_STEPS,
        vec![
            Lane { step: plain.step(&pool), probes: None },
            Lane { step: traced.step(&pool), probes: Some(&probes) },
        ],
    );
    check_traced(&mut r, &logs[0], &logs[1]);
    traced_report(&mut r, &logs[1], MLP_MICRO_ROWS, logs[0].samples_per_s(MLP_MICRO_ROWS));
    let finished = plain.finish().and(traced.finish());
    r.check(finished.is_ok(), format!("TCP shutdown ({:?})", finished.as_ref().err()));
    if let Ok((_, rep)) = finished {
        // Worker-side update time: the slowest stage's Step span per
        // optimizer step, over the timed steps.
        let mut per_step = vec![0u64; logs[1].losses.len()];
        for e in &rep.events {
            if e.kind == SpanKind::Step && (e.track as usize) < STAGES {
                if let Some(slot) = per_step.get_mut(e.microbatch as usize) {
                    *slot = (*slot).max(e.dur_us);
                }
            }
        }
        let timed_steps = &per_step[WARM_STEPS.min(per_step.len())..];
        r.metric(
            "worker.step_us",
            timed_steps.iter().sum::<u64>() as f64 / timed_steps.len().max(1) as f64,
        );
        let totals = wire.snapshot();
        r.check(
            totals.bytes_sent == rep.sent.bytes && totals.bytes_recv == rep.recv.bytes,
            "wire wrapper byte totals equal the trainer's own WireStats",
        );
    }
    r
}
