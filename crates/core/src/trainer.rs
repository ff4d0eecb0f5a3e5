//! The pipeline-parallel trainer.

use rand::rngs::StdRng;
use rand::SeedableRng;

use pipemare_nn::TrainModel;
use pipemare_optim::clip_grad_norm;
use pipemare_pipeline::{PassKind, PipelineClock, StagePartition, StageShard};

use std::cell::OnceCell;
use std::sync::Arc;

use pipemare_telemetry::{
    HealthEvent, HealthEventKind, HealthMonitor, Recorder, Severity, SpanKind, StageObservation,
    StepObservation,
};

use crate::checkpoint::TrainerState;
use crate::config::{TrainConfig, TrainMode};
use crate::health::{AnomalyPolicy, HealthHook};
use crate::metrics::TrainerMetrics;
use crate::stats::StepStats;

/// Per-stage diagnostic record returned by
/// [`PipelineTrainer::stage_report`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StageInfo {
    /// Stage index (0-based).
    pub stage: usize,
    /// Parameters assigned to the stage.
    pub params: usize,
    /// Nominal forward delay in optimizer steps.
    pub tau_fwd: f64,
    /// Nominal backward delay in optimizer steps.
    pub tau_bkwd: f64,
    /// T2 decay γ for this stage (0 when T2 is off).
    pub gamma: f64,
}

/// Trains a [`TrainModel`] under pipeline-parallel delay semantics.
///
/// The trainer drives one in-memory [`StageShard`] per stage — the same
/// per-stage state machine a distributed stage worker holds. Per
/// microbatch it reads each stage's (delayed, possibly T2-corrected)
/// forward and backward weights from its shard, runs the model's forward
/// and backward passes on them, and accumulates the two-argument
/// gradient `∇f(u_fwd, u_bkwd)` — exactly the simulation strategy the
/// paper describes in App. C.4. It then stages the update on every shard
/// and commits it, or reverts it everywhere when any weight went
/// non-finite.
pub struct PipelineTrainer<'m, M: TrainModel> {
    model: &'m M,
    cfg: TrainConfig,
    partition: StagePartition,
    clock: PipelineClock,
    shards: Vec<StageShard>,
    /// The latest committed weights as one vector, gathered from the
    /// shards on the first [`PipelineTrainer::params`] call after a step.
    latest: OnceCell<Vec<f32>>,
    /// Per-pass read buffers, kept across steps: each stage's range holds
    /// the values its shard last delivered for that pass, so a read the
    /// shard reports unchanged costs no copy.
    fwd_buf: Vec<f32>,
    bkwd_buf: Vec<f32>,
    /// Empty unless recompute is configured.
    recomp_buf: Vec<f32>,
    step: usize,
    diverged: bool,
    hogwild_rng: StdRng,
    metrics: Option<TrainerMetrics>,
    health: Option<HealthHook>,
    /// Latched by [`AnomalyPolicy::Halt`]; freezes further updates.
    halted: bool,
    /// Previous step's (pre-clip) gradient, for the λ̂ secant estimate.
    prev_grad: Option<Vec<f32>>,
    /// Previous step's forward-version weights, for the λ̂ secant
    /// denominator.
    prev_fwd: Option<Vec<f32>>,
}

impl<'m, M: TrainModel> PipelineTrainer<'m, M> {
    /// Creates a trainer with freshly initialized parameters.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent with the model (e.g.
    /// more stages than parameters).
    pub fn new(model: &'m M, cfg: TrainConfig, init_seed: u64) -> Self {
        let units: Vec<(usize, usize)> =
            model.weight_units().iter().map(|u| (u.offset, u.len)).collect();
        let total = model.param_len();
        let partition = cfg.partition(&units, total);
        let clock = cfg.clock();
        let mut rng = StdRng::seed_from_u64(init_seed);
        let mut params = vec![0.0f32; total];
        model.init_params(&mut params, &mut rng);
        let shards = (0..cfg.stages)
            .map(|s| {
                let (lo, hi) = partition.range(s);
                StageShard::new(cfg.shard_spec(&partition, s), params[lo..hi].to_vec())
                    .expect("a stage partition yields valid shard specs")
            })
            .collect();
        let hogwild_rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9);
        let recomp_len = if cfg.recompute.is_some() { total } else { 0 };
        PipelineTrainer {
            model,
            cfg,
            partition,
            clock,
            shards,
            latest: OnceCell::new(),
            fwd_buf: vec![0.0; total],
            bkwd_buf: vec![0.0; total],
            recomp_buf: vec![0.0; recomp_len],
            step: 0,
            diverged: false,
            hogwild_rng,
            metrics: None,
            health: None,
            halted: false,
            prev_grad: None,
            prev_fwd: None,
        }
    }

    /// Attaches metrics instruments; every subsequent
    /// [`PipelineTrainer::train_minibatch`] records into them.
    pub fn set_metrics(&mut self, metrics: TrainerMetrics) {
        self.metrics = Some(metrics);
    }

    /// Attaches a health hook; every subsequent
    /// [`PipelineTrainer::train_minibatch`] feeds the hook's
    /// [`HealthMonitor`] a per-stage [`StepObservation`] and applies the
    /// hook's snapshot/halt policy to the events that come back.
    ///
    /// # Panics
    ///
    /// Panics if the monitor was built for a different stage count.
    pub fn set_health(&mut self, hook: HealthHook) {
        assert_eq!(
            hook.monitor.n_stages(),
            self.cfg.stages,
            "health monitor stage count must match the trainer"
        );
        self.health = Some(hook);
    }

    /// The attached health monitor, if any.
    pub fn health_monitor(&self) -> Option<&Arc<HealthMonitor>> {
        self.health.as_ref().map(|h| &h.monitor)
    }

    /// Whether the anomaly policy has halted training.
    pub fn health_halted(&self) -> bool {
        self.halted
    }

    /// The latest (most up-to-date) parameter vector.
    pub fn params(&self) -> &[f32] {
        self.latest.get_or_init(|| self.shards.iter().flat_map(|sh| sh.latest()).copied().collect())
    }

    /// ‖w‖₂ of the latest weights, summed in parameter order.
    fn param_norm(&self) -> f32 {
        let weights = self.shards.iter().flat_map(|sh| sh.latest());
        weights.map(|&w| w as f64 * w as f64).sum::<f64>().sqrt() as f32
    }

    /// Optimizer steps completed.
    pub fn steps_done(&self) -> usize {
        self.step
    }

    /// Whether training has hit non-finite weights.
    pub fn diverged(&self) -> bool {
        self.diverged
    }

    /// The stage partition in use.
    pub fn partition(&self) -> &StagePartition {
        &self.partition
    }

    /// The pipeline clock in use.
    pub fn clock(&self) -> &PipelineClock {
        &self.clock
    }

    /// Fraction of parameters on each stage (used by the memory model).
    pub fn stage_fracs(&self) -> Vec<f64> {
        let total = self.partition.total_params() as f64;
        (0..self.cfg.stages).map(|s| self.partition.stage_len(s) as f64 / total).collect()
    }

    /// Whether step `t` is still in the synchronous (T3) warmup phase.
    pub fn in_warmup(&self) -> bool {
        self.cfg.in_warmup(self.step)
    }

    /// Snapshots everything needed to resume this run exactly: the whole
    /// weight-version window (delayed reads look backwards), the
    /// optimizer's moment buffers and step counter, and the T2 EWMA
    /// velocity δ — each gathered across the stage shards into full
    /// vectors. Persist it with [`crate::checkpoint::save_state`].
    pub fn state(&self) -> TrainerState {
        let gather = |part: &dyn Fn(&StageShard) -> &[f32]| -> Vec<f32> {
            self.shards.iter().flat_map(|sh| part(sh).iter().copied()).collect()
        };
        // Every shard holds the same versions: they commit in lockstep.
        let windows: Vec<_> = self.shards.iter().map(|sh| sh.history().snapshot()).collect();
        let history = (0..windows[0].len())
            .map(|i| (windows[0][i].0, windows.iter().flat_map(|w| w[i].1.clone()).collect()))
            .collect();
        TrainerState {
            step: self.step,
            diverged: self.diverged,
            opt_steps: self.shards[0].optimizer().steps(),
            history,
            delta: gather(&|sh| sh.delta()),
            opt_m: gather(&|sh| sh.optimizer().state().0),
            opt_v: gather(&|sh| sh.optimizer().state().1),
        }
    }

    /// Restores a snapshot from [`PipelineTrainer::state`] into a trainer
    /// built with the same model and configuration. Deterministic
    /// pipeline modes continue bit-identically to the uninterrupted run;
    /// Hogwild mode restarts its delay-sampling stream.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's shapes don't match this trainer (a
    /// checkpoint from a different model, optimizer, or pipeline).
    pub fn restore(&mut self, state: TrainerState) {
        let total = self.partition.total_params();
        assert_eq!(state.delta.len(), total, "restore: δ length mismatch");
        for (_, p) in &state.history {
            assert_eq!(p.len(), total, "restore: parameter length mismatch");
        }
        assert_eq!(
            state.history.last().map(|(v, _)| *v),
            Some(state.step),
            "restore: history is out of step with the step counter"
        );
        // Optimizers without a moment buffer checkpoint it empty.
        let part = |v: &[f32], lo: usize, hi: usize| {
            assert!(v.is_empty() || v.len() == total, "restore: optimizer state length mismatch");
            v.get(lo..hi).map_or_else(Vec::new, <[f32]>::to_vec)
        };
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let (lo, hi) = self.partition.range(s);
            let versions = state.history.iter().map(|(v, w)| (*v, w[lo..hi].to_vec())).collect();
            let opt = (part(&state.opt_m, lo, hi), part(&state.opt_v, lo, hi), state.opt_steps);
            shard
                .restore(versions, state.delta[lo..hi].to_vec(), opt)
                .expect("restore: shard shapes checked above");
        }
        self.latest.take();
        self.step = state.step;
        self.diverged = state.diverged;
    }

    /// Per-stage diagnostics: `(params, τ_fwd, τ_bkwd, γ)` for each stage
    /// under the configured method. Useful for inspecting a pipeline
    /// before training.
    pub fn stage_report(&self) -> Vec<StageInfo> {
        (0..self.cfg.stages)
            .map(|s| {
                let (tau_fwd, tau_bkwd) = self.cfg.nominal_taus(s);
                StageInfo {
                    stage: s,
                    params: self.partition.stage_len(s),
                    tau_fwd,
                    tau_bkwd,
                    gamma: self.shards[s].spec().gamma,
                }
            })
            .collect()
    }

    /// Runs one optimizer step on a minibatch already split into
    /// microbatches. `micro_weights[n]` is the fraction of minibatch
    /// samples in microbatch `n` (the per-microbatch mean losses/gradients
    /// are combined with these weights).
    ///
    /// # Panics
    ///
    /// Panics if `micro.len()` differs from the configured `n_micro` or
    /// the weights don't match.
    pub fn train_minibatch(&mut self, micro: &[M::Batch], micro_weights: &[f32]) -> StepStats {
        assert_eq!(
            micro.len(),
            self.cfg.n_micro,
            "expected {} microbatches, got {}",
            self.cfg.n_micro,
            micro.len()
        );
        assert_eq!(micro.len(), micro_weights.len());
        // Clock read only when metrics are attached — the bare trainer's
        // hot path is unchanged.
        let started = self.metrics.as_ref().map(|_| std::time::Instant::now());
        // Flight-recorder step span: one clock read at the start, one at
        // the end — the ring write itself is lock-free.
        let flight_t0 = self.health.as_ref().and_then(|h| h.flight.as_ref()).map(|f| f.now_us());
        let t = self.step;
        let sync_phase = self.cfg.in_warmup(t);
        let total = self.partition.total_params();

        if self.diverged || self.halted {
            // Once diverged (or halted by the anomaly policy), report
            // without updating (runners stop early).
            self.step += 1;
            let base_lr = self.cfg.schedule.lr(t);
            let param_norm = if self.diverged { f32::INFINITY } else { self.param_norm() };
            if let (Some(m), Some(s)) = (&self.metrics, started) {
                m.record_step(s, f32::NAN, base_lr, 0.0, 0.0, param_norm, false, self.diverged);
            }
            return StepStats {
                step: t,
                loss: f32::NAN,
                param_norm,
                base_lr,
                diverged: self.diverged,
            };
        }

        // Hogwild: one sampled delay per stage per optimizer step.
        let hog_delays: Option<Vec<usize>> = match (&self.cfg.mode, sync_phase) {
            (TrainMode::Hogwild(h), false) => {
                Some((0..self.cfg.stages).map(|s| h.sample(s, &mut self.hogwild_rng)).collect())
            }
            _ => None,
        };
        let hog = hog_delays.as_deref();
        // This step replaces the latest weights; drop the gathered copy
        // before the passes allocate.
        self.latest.take();

        let mut grad = vec![0.0f32; total];
        let mut loss_acc = 0.0f32;
        let recompute = self.cfg.recomputes(t);

        for (n, batch) in micro.iter().enumerate() {
            read_pass(&mut self.shards, &mut self.fwd_buf, t, n, PassKind::Fwd, hog);
            let (loss, cache) = if recompute {
                // Recompute simulation: the loss comes from the true
                // forward pass, but the activations the backward pass
                // consumes are recomputed under a different (fresher)
                // delayed version — optionally T2-corrected toward the
                // forward version (App. D).
                let (loss, _) = self.model.forward_loss(&self.fwd_buf, batch);
                read_pass(&mut self.shards, &mut self.recomp_buf, t, n, PassKind::Recomp, hog);
                let (_, cache) = self.model.forward_loss(&self.recomp_buf, batch);
                (loss, cache)
            } else {
                self.model.forward_loss(&self.fwd_buf, batch)
            };
            loss_acc += micro_weights[n] * loss;
            read_pass(&mut self.shards, &mut self.bkwd_buf, t, n, PassKind::Bkwd, hog);
            let g = self.model.backward(&self.bkwd_buf, &cache);
            for (acc, &gi) in grad.iter_mut().zip(g.iter()) {
                *acc += micro_weights[n] * gi;
            }
        }

        // The health monitor's curvature secant wants the raw gradient of
        // the loss — clipping rescales it and would bias λ̂ — so capture
        // it before the clip. Only paid when a hook is attached.
        let health_grad = self.health.as_ref().map(|_| grad.clone());

        let mut clipped = false;
        if let Some(clip) = self.cfg.grad_clip {
            clipped = clip_grad_norm(&mut grad, clip) > clip;
        }

        // Stage the update on every shard, then commit it everywhere —
        // or, if any gradient or staged weight is non-finite, revert it
        // everywhere, keeping the last finite weights.
        let base_lr = self.cfg.schedule.lr(t);
        let grad_finite = grad.iter().all(|g| g.is_finite());
        let mut finite = grad_finite;
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let (lo, hi) = self.partition.range(s);
            let lr = base_lr * self.cfg.t1_scale(s, t);
            finite &= shard.apply_grad(t, lr, grad_finite, &grad[lo..hi]).expect("staged in order");
        }
        self.diverged |= !finite;
        for shard in &mut self.shards {
            shard.commit(t, finite).expect("committed in order");
        }
        let param_norm = self.param_norm();
        self.step += 1;
        if let (Some(m), Some(s)) = (&self.metrics, started) {
            let delta_norm = if self.cfg.t2_decay.is_some() {
                let deltas = self.shards.iter().flat_map(|sh| sh.delta());
                deltas.map(|&d| d as f64 * d as f64).sum::<f64>().sqrt()
            } else {
                0.0
            };
            let stage0_lr = if grad_finite { base_lr * self.cfg.t1_scale(0, t) } else { base_lr };
            m.record_step(
                s,
                loss_acc,
                base_lr,
                stage0_lr as f64,
                delta_norm,
                param_norm,
                clipped,
                self.diverged,
            );
        }
        // Record the step span before observe_health so a black-box dump
        // triggered by this step's anomaly includes the step itself. The
        // driver track (`stages`) mirrors the threaded executor's layout.
        if let Some(t0) = flight_t0 {
            let flight =
                self.health.as_ref().and_then(|h| h.flight.as_ref()).expect("flight_t0 set");
            let t1 = flight.now_us();
            flight.record_span(SpanKind::Step, self.cfg.stages as u32, 0, t as u32, t0, t1);
        }
        if let Some(hg) = health_grad {
            self.observe_health(t, sync_phase, loss_acc, &hg, base_lr);
        }
        StepStats { step: t, loss: loss_acc, param_norm, base_lr, diverged: self.diverged }
    }

    /// Feeds the attached [`HealthMonitor`] one observation for the step
    /// just completed and applies the hook's snapshot/halt policy to the
    /// events it raises.
    ///
    /// `grad` is the pre-clip minibatch gradient, and the forward buffer
    /// holds the last microbatch's forward weights: successive differences of
    /// the two give the monitor its curvature secant
    /// λ̂ ≈ ‖g_t − g_{t−1}‖ / ‖u_t − u_{t−1}‖ per stage. Using the
    /// forward version (rather than `w_new − w_old`) keeps the
    /// denominator on the same weight trajectory the gradient was
    /// evaluated on, so the estimate stays unbiased even while the
    /// iterates grow.
    fn observe_health(
        &mut self,
        t: usize,
        sync_phase: bool,
        loss: f32,
        grad: &[f32],
        base_lr: f32,
    ) {
        let Some(hook) = &self.health else { return };
        let monitor = Arc::clone(&hook.monitor);
        let fwd = &self.fwd_buf;
        let slice_norm = |v: &[f32], lo: usize, hi: usize| -> f64 {
            v[lo..hi].iter().map(|&x| x as f64 * x as f64).sum::<f64>().sqrt()
        };
        let diff_norm = |a: &[f32], b: &[f32], lo: usize, hi: usize| -> f64 {
            a[lo..hi]
                .iter()
                .zip(b[lo..hi].iter())
                .map(|(&x, &y)| (x as f64 - y as f64) * (x as f64 - y as f64))
                .sum::<f64>()
                .sqrt()
        };
        let t2_on = self.cfg.t2_decay.is_some();
        let mut stages = Vec::with_capacity(self.cfg.stages);
        for s in 0..self.cfg.stages {
            let (lo, hi) = self.partition.range(s);
            let (grad_diff_norm, fwd_diff_norm) = match (&self.prev_grad, &self.prev_fwd) {
                (Some(pg), Some(pf)) => (diff_norm(grad, pg, lo, hi), diff_norm(fwd, pf, lo, hi)),
                _ => (f64::NAN, f64::NAN),
            };
            // During T3 warmup every read is synchronous, so the margin
            // is judged at τ = 0; afterwards at the nominal delays.
            let (tau_fwd, tau_bkwd) =
                if sync_phase { (0.0, 0.0) } else { self.cfg.nominal_taus(s) };
            let shard = &self.shards[s];
            stages.push(StageObservation {
                grad_norm: slice_norm(grad, lo, hi),
                grad_diff_norm,
                fwd_diff_norm,
                weight_norm: slice_norm(shard.latest(), 0, hi - lo),
                delta_norm: if t2_on { slice_norm(shard.delta(), 0, hi - lo) } else { 0.0 },
                alpha: base_lr as f64 * self.cfg.t1_scale(s, t) as f64,
                tau_fwd,
                tau_bkwd,
                gamma: shard.spec().gamma,
            });
        }
        let obs = StepObservation {
            step: t,
            loss: loss as f64,
            grad_norm: slice_norm(grad, 0, grad.len()),
            diverged: self.diverged,
            stages,
        };
        let events = monitor.observe(&obs);
        self.prev_grad = Some(grad.to_vec());
        self.prev_fwd = Some(self.fwd_buf.clone());

        let worst = events.iter().map(|e| e.severity).max();
        let hook = self.health.as_ref().expect("hook checked above");
        // A firing live alert (see `HealthHook::arm_on_alerts`) counts
        // as hitting the snapshot gate; consume the latch either way.
        let alert_armed = hook.alert_armed.swap(false, std::sync::atomic::Ordering::SeqCst);
        let gate_hit = worst.is_some_and(|w| w >= hook.snapshot_severity) || alert_armed;
        let want_snapshot = !hook.snapshot_taken && hook.snapshot_dir.is_some() && gate_hit;
        // Black-box dump rides the same severity gate as the snapshot but
        // is independently enabled, so bounded flight recording works
        // without checkpointing and vice versa.
        let want_black_box = !hook.black_box_taken
            && hook.flight.is_some()
            && hook.black_box_dir.is_some()
            && gate_hit;
        let want_halt =
            hook.policy == AnomalyPolicy::Halt && worst.is_some_and(|w| w >= hook.halt_severity);
        if want_snapshot {
            // The state already includes this step's update (and, on
            // divergence, the preserved last-finite weights), so resuming
            // from it replays the rest of the run bit-identically.
            let state = self.state();
            let dir = self.health.as_ref().and_then(|h| h.snapshot_dir.clone()).unwrap();
            let path = dir.join(format!("anomaly_step{}.ckpt", state.step));
            let saved = std::fs::create_dir_all(&dir)
                .map_err(crate::checkpoint::CheckpointError::from)
                .and_then(|()| crate::checkpoint::save_state(&path, &state));
            match saved {
                Ok(()) => {
                    self.health.as_mut().expect("hook checked above").snapshot_taken = true;
                    monitor.record_snapshot(t, &path.display().to_string());
                }
                Err(e) => monitor.record_event(HealthEvent {
                    step: t,
                    stage: None,
                    kind: HealthEventKind::Snapshot,
                    severity: Severity::Warn,
                    value: f64::NAN,
                    threshold: f64::NAN,
                    message: format!("snapshot-on-anomaly failed: {e}"),
                }),
            }
        }
        if want_black_box {
            let hook = self.health.as_ref().expect("hook checked above");
            let flight = Arc::clone(hook.flight.as_ref().expect("gated above"));
            let dir = hook.black_box_dir.clone().expect("gated above");
            let window_us = hook.black_box_window_us;
            // Whatever the rings still hold from the trailing window:
            // trainer step spans plus any executor stage spans recorded
            // into the same shared recorder.
            let dump = flight.recent(window_us);
            let path = dir.join(format!("blackbox_step{t}.jsonl"));
            match pipemare_telemetry::write_jsonl(&dump, &path) {
                Ok(()) => {
                    self.health.as_mut().expect("hook checked above").black_box_taken = true;
                    monitor.record_black_box(t, &path.display().to_string(), dump.len());
                }
                Err(e) => monitor.record_event(HealthEvent {
                    step: t,
                    stage: None,
                    kind: HealthEventKind::BlackBoxDump,
                    severity: Severity::Warn,
                    value: f64::NAN,
                    threshold: f64::NAN,
                    message: format!("black-box dump failed: {e}"),
                }),
            }
        }
        if want_halt && !self.halted {
            self.halted = true;
            monitor.record_event(HealthEvent {
                step: t,
                stage: None,
                kind: HealthEventKind::Halt,
                severity: Severity::Info,
                value: f64::NAN,
                threshold: f64::NAN,
                message: format!("anomaly policy halted training after step {t}"),
            });
        }
    }
}

/// Reads pass `pass` of `(step, micro)` from every shard into its range
/// of `buf`, copying only the stages whose read changed since that pass's
/// last one. `hogwild` holds the step's sampled delays.
fn read_pass(
    shards: &mut [StageShard],
    buf: &mut [f32],
    step: usize,
    micro: usize,
    pass: PassKind,
    hogwild: Option<&[usize]>,
) {
    for (s, shard) in shards.iter_mut().enumerate() {
        let plan = shard
            .plan_if_changed(step, micro, pass, hogwild.map(|d| d[s]))
            .expect("the trainer reads its shards at their committed step");
        if let Some(plan) = plan {
            let (lo, hi) = (shard.spec().lo, shard.spec().hi);
            shard.read_into(plan, &mut buf[lo..hi]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemare_nn::{ImageBatch, Mlp};
    use pipemare_optim::{ConstantLr, OptimizerKind, T1Rescheduler};
    use pipemare_pipeline::Method;
    use pipemare_tensor::Tensor;

    fn blob_micro(seed: u64, n_micro: usize, per_micro: usize) -> (Vec<ImageBatch>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut micro = Vec::new();
        for _ in 0..n_micro {
            let mut x = Tensor::randn(&[per_micro, 4], &mut rng);
            let mut y = Vec::new();
            for i in 0..per_micro {
                let label = i % 2;
                for j in 0..4 {
                    x.data_mut()[i * 4 + j] += if label == 0 { 3.0 } else { -3.0 };
                }
                y.push(label);
            }
            micro.push(ImageBatch { x, y });
        }
        let w = vec![1.0 / n_micro as f32; n_micro];
        (micro, w)
    }

    fn sgd() -> OptimizerKind {
        OptimizerKind::Sgd { weight_decay: 0.0 }
    }

    #[test]
    fn gpipe_matches_sequential_sgd_exactly() {
        // GPipe is synchronous: training through the pipeline trainer must
        // equal plain full-batch SGD step for step.
        let model = Mlp::new(&[4, 6, 2]);
        let cfg = TrainConfig::gpipe(3, 2, sgd(), Box::new(ConstantLr(0.05)));
        let mut trainer = PipelineTrainer::new(&model, cfg, 7);
        // Sequential reference with identical init.
        let mut rng = StdRng::seed_from_u64(7);
        let mut ref_params = vec![0.0; model.param_len()];
        model.init_params(&mut ref_params, &mut rng);
        assert_eq!(trainer.params(), ref_params.as_slice());
        let (micro, w) = blob_micro(1, 2, 4);
        for _ in 0..5 {
            trainer.train_minibatch(&micro, &w);
            // Reference: weighted mean of per-microbatch gradients.
            let mut grad = vec![0.0f32; model.param_len()];
            for (b, &wn) in micro.iter().zip(w.iter()) {
                let (_, cache) = model.forward_loss(&ref_params, b);
                let g = model.backward(&ref_params, &cache);
                for (acc, &gi) in grad.iter_mut().zip(g.iter()) {
                    *acc += wn * gi;
                }
            }
            for (p, g) in ref_params.iter_mut().zip(grad.iter()) {
                *p -= 0.05 * g;
            }
        }
        for (a, b) in trainer.params().iter().zip(ref_params.iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn pipemare_first_step_matches_sync_then_diverges_from_it() {
        // At t = 0 all versions clamp to 0, so step 0 equals the sync
        // step; afterwards delayed reads differ.
        let model = Mlp::new(&[4, 6, 2]);
        let mk = |method| {
            let mut cfg = TrainConfig::gpipe(3, 2, sgd(), Box::new(ConstantLr(0.05)));
            cfg.mode = TrainMode::Pipeline(method);
            cfg
        };
        let mut sync = PipelineTrainer::new(&model, mk(Method::GPipe), 3);
        let mut asyn = PipelineTrainer::new(&model, mk(Method::PipeMare), 3);
        let (micro, w) = blob_micro(2, 2, 4);
        sync.train_minibatch(&micro, &w);
        asyn.train_minibatch(&micro, &w);
        assert_eq!(sync.params(), asyn.params(), "step 0 must coincide");
        for _ in 0..4 {
            sync.train_minibatch(&micro, &w);
            asyn.train_minibatch(&micro, &w);
        }
        assert_ne!(sync.params(), asyn.params(), "delayed reads must change training");
    }

    #[test]
    fn pipedream_differs_from_both_gpipe_and_pipemare() {
        let model = Mlp::new(&[4, 6, 2]);
        let mk = |method| {
            let mut cfg = TrainConfig::gpipe(3, 2, sgd(), Box::new(ConstantLr(0.05)));
            cfg.mode = TrainMode::Pipeline(method);
            cfg
        };
        let run = |method| {
            let mut tr = PipelineTrainer::new(&model, mk(method), 3);
            let (micro, w) = blob_micro(2, 2, 4);
            for _ in 0..6 {
                tr.train_minibatch(&micro, &w);
            }
            tr.params().to_vec()
        };
        let g = run(Method::GPipe);
        let d = run(Method::PipeDream);
        let m = run(Method::PipeMare);
        assert_ne!(g, d);
        assert_ne!(d, m);
    }

    #[test]
    fn warmup_steps_run_synchronously() {
        // With warmup covering the whole run, PipeMare equals GPipe.
        let model = Mlp::new(&[4, 6, 2]);
        let mut cfg = TrainConfig::pipemare(
            3,
            2,
            sgd(),
            Box::new(ConstantLr(0.05)),
            T1Rescheduler::new(10),
            0.135,
        );
        cfg.warmup_steps = 100;
        let mut pm = PipelineTrainer::new(&model, cfg, 5);
        let mut gp = PipelineTrainer::new(
            &model,
            TrainConfig::gpipe(3, 2, sgd(), Box::new(ConstantLr(0.05))),
            5,
        );
        let (micro, w) = blob_micro(4, 2, 4);
        for _ in 0..8 {
            pm.train_minibatch(&micro, &w);
            gp.train_minibatch(&micro, &w);
        }
        assert_eq!(pm.params(), gp.params());
        assert!(pm.in_warmup());
    }

    #[test]
    fn t1_shrinks_early_steps() {
        // With T1, early async steps move early-stage weights less.
        let model = Mlp::new(&[4, 6, 2]);
        let base = |t1| {
            let mut cfg = TrainConfig::gpipe(3, 1, sgd(), Box::new(ConstantLr(0.1)));
            cfg.mode = TrainMode::Pipeline(Method::PipeMare);
            cfg.t1 = t1;
            cfg
        };
        let (micro, w) = blob_micro(5, 1, 8);
        let step_of = |cfg| {
            let mut tr = PipelineTrainer::new(&model, cfg, 9);
            let before = tr.params().to_vec();
            tr.train_minibatch(&micro, &w);
            let after = tr.params().to_vec();
            // Stage 0 range:
            let (lo, hi) = tr.partition().range(0);
            before[lo..hi]
                .iter()
                .zip(after[lo..hi].iter())
                .map(|(a, b)| (a - b).abs() as f64)
                .sum::<f64>()
        };
        let plain = step_of(base(None));
        let rescheduled = step_of(base(Some(T1Rescheduler::new(100))));
        // τ_fwd of stage 0 with P = 3, N = 1 is 5 → first step / 5.
        assert!(
            rescheduled < plain * 0.5,
            "T1 should shrink the first step: {rescheduled} vs {plain}"
        );
    }

    #[test]
    fn t2_changes_training_trajectory() {
        let model = Mlp::new(&[4, 6, 2]);
        let run = |t2: Option<f64>| {
            let mut cfg = TrainConfig::gpipe(3, 2, sgd(), Box::new(ConstantLr(0.05)));
            cfg.mode = TrainMode::Pipeline(Method::PipeMare);
            cfg.t2_decay = t2;
            let mut tr = PipelineTrainer::new(&model, cfg, 3);
            let (micro, w) = blob_micro(2, 2, 4);
            for _ in 0..6 {
                tr.train_minibatch(&micro, &w);
            }
            tr.params().to_vec()
        };
        assert_ne!(run(None), run(Some(0.5)));
    }

    #[test]
    fn divergence_is_detected_and_latched() {
        // An absurd learning rate blows up the weights; the trainer must
        // flag it and stop updating.
        let model = Mlp::new(&[4, 6, 2]);
        let cfg = TrainConfig::naive_async(3, 1, sgd(), Box::new(ConstantLr(1e8)));
        let mut tr = PipelineTrainer::new(&model, cfg, 3);
        let (micro, w) = blob_micro(2, 1, 4);
        let mut saw_divergence = false;
        for _ in 0..20 {
            let stats = tr.train_minibatch(&micro, &w);
            if stats.diverged {
                saw_divergence = true;
                break;
            }
        }
        assert!(saw_divergence, "expected divergence under lr = 1e8");
        assert!(tr.diverged());
        // Parameters stay finite (last good version preserved).
        assert!(tr.params().iter().all(|p| p.is_finite()));
    }

    #[test]
    fn stage_report_reflects_configuration() {
        let model = Mlp::new(&[4, 6, 2]);
        let cfg = TrainConfig::pipemare(
            2,
            2,
            sgd(),
            Box::new(ConstantLr(0.05)),
            T1Rescheduler::new(10),
            0.135,
        );
        let tr = PipelineTrainer::new(&model, cfg, 1);
        let report = tr.stage_report();
        assert_eq!(report.len(), 2);
        // P = 2, N = 2: τ_fwd = 1.5 and 0.5; PipeMare τ_bkwd = 0.
        assert!((report[0].tau_fwd - 1.5).abs() < 1e-12);
        assert!((report[1].tau_fwd - 0.5).abs() < 1e-12);
        assert_eq!(report[0].tau_bkwd, 0.0);
        // T2 active: γ = D^{1/τ}.
        assert!((report[0].gamma - 0.135f64.powf(1.0 / 1.5)).abs() < 1e-9);
        // Params cover the model.
        let total: usize = report.iter().map(|r| r.params).sum();
        assert_eq!(total, model.param_len());
        // GPipe report shows zero delays.
        let g = PipelineTrainer::new(
            &model,
            TrainConfig::gpipe(2, 2, sgd(), Box::new(ConstantLr(0.05))),
            1,
        );
        assert!(g.stage_report().iter().all(|r| r.tau_fwd == 0.0 && r.tau_bkwd == 0.0));
    }

    #[test]
    fn state_roundtrip_resumes_async_run_bit_identically() {
        use crate::checkpoint::{load_state, save_state};
        use crate::config::RecomputeCfg;
        use pipemare_optim::OptimizerKind;
        // Full feature load: PipeMare + T1 + T2 + recompute + momentum,
        // so the snapshot must carry δ and the moment buffer to resume.
        let model = Mlp::new(&[4, 6, 2]);
        let mk = || {
            let mut cfg = TrainConfig::pipemare(
                3,
                2,
                OptimizerKind::resnet_momentum(1e-4),
                Box::new(ConstantLr(0.05)),
                T1Rescheduler::new(20),
                0.135,
            );
            cfg.recompute = Some(RecomputeCfg::new(2).with_t2());
            cfg
        };
        let (micro, w) = blob_micro(8, 2, 4);
        let mut full = PipelineTrainer::new(&model, mk(), 13);
        for _ in 0..6 {
            full.train_minibatch(&micro, &w);
        }
        let path =
            std::env::temp_dir().join(format!("pipemare_trainer_state_{}", std::process::id()));
        save_state(&path, &full.state()).unwrap();
        let state = load_state(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(state.delta.iter().any(|&d| d != 0.0), "δ must survive the round trip");
        assert!(state.opt_m.iter().any(|&m| m != 0.0), "momentum must survive");
        assert!(state.history.len() > 1, "async resume needs the version window");
        let mut resumed = PipelineTrainer::new(&model, mk(), 99);
        resumed.restore(state);
        assert_eq!(resumed.steps_done(), 6);
        for _ in 0..6 {
            let a = full.train_minibatch(&micro, &w);
            let b = resumed.train_minibatch(&micro, &w);
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            assert_eq!(full.params(), resumed.params());
        }
    }

    #[test]
    fn app_d_gamma_widens_gap_at_late_stages() {
        use crate::config::RecomputeCfg;
        // P = 4, N = 2, two segments of size 2. Stage 3: τ_fwd = 0.5 but
        // τ_recomp = 2(2 − 1)/2 = 1.0 → the recompute discrepancy
        // dominates and γ must follow it (App. D).
        let model = Mlp::new(&[4, 6, 2]);
        let mk = |rc: Option<RecomputeCfg>| {
            let mut cfg = TrainConfig::pipemare(
                4,
                2,
                sgd(),
                Box::new(ConstantLr(0.05)),
                T1Rescheduler::new(20),
                0.135,
            );
            cfg.recompute = rc;
            cfg
        };
        let plain = PipelineTrainer::new(&model, mk(None), 1);
        let rc = PipelineTrainer::new(&model, mk(Some(RecomputeCfg::new(2).with_t2())), 1);
        let uncorrected = PipelineTrainer::new(&model, mk(Some(RecomputeCfg::new(2))), 1);
        let g = |tr: &PipelineTrainer<Mlp>| {
            tr.stage_report().iter().map(|r| r.gamma).collect::<Vec<_>>()
        };
        // Early stages: τ_fwd dominates, γ unchanged. Stage 0 has
        // τ_fwd = 3.5 vs τ_recomp = 2.0.
        assert_eq!(g(&plain)[0], g(&rc)[0]);
        // Last stage: τ_recomp = 1.0 > τ_fwd = 0.5.
        assert!((g(&rc)[3] - 0.135f64.powf(1.0 / 1.0)).abs() < 1e-12);
        assert!((g(&plain)[3] - 0.135f64.powf(1.0 / 0.5)).abs() < 1e-12);
        // Without the rc.t2 flag the gap stays τ_fwd.
        assert_eq!(g(&plain), g(&uncorrected));
    }

    #[test]
    fn hogwild_mode_trains() {
        use pipemare_pipeline::HogwildDelays;
        let model = Mlp::new(&[4, 6, 2]);
        let mut cfg = TrainConfig::gpipe(3, 1, sgd(), Box::new(ConstantLr(0.02)));
        cfg.mode = TrainMode::Hogwild(HogwildDelays::from_pipeline_profile(3, 1));
        let mut tr = PipelineTrainer::new(&model, cfg, 11);
        let (micro, w) = blob_micro(6, 1, 8);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..60 {
            let stats = tr.train_minibatch(&micro, &w);
            first_loss.get_or_insert(stats.loss);
            last_loss = stats.loss;
        }
        assert!(!tr.diverged());
        assert!(
            last_loss < first_loss.unwrap() * 0.5,
            "hogwild failed to learn: {first_loss:?} -> {last_loss}"
        );
    }
}
