//! Training configuration and per-step statistics, shared by every
//! trainer that drives [`crate::StageShard`]s: the in-process
//! `PipelineTrainer` and the distributed orchestrator.
//!
//! The per-stage quantities derived from a config — the T2 decay γ, the
//! T1 learning-rate multiplier, the recompute delay slots, the nominal
//! delays — are defined here once, so both drivers read them from the
//! same code.

use pipemare_optim::{LrSchedule, OptimizerKind, T1Rescheduler};
use pipemare_tensor::StoragePrecision;
use pipemare_theory::gamma_from_d;

use crate::shard::ShardSpec;
use crate::{HogwildDelays, Method, PipelineClock, StagePartition};

/// How weight versions are delayed during training.
#[derive(Clone, Debug)]
pub enum TrainMode {
    /// Deterministic pipeline delays (GPipe / PipeDream / PipeMare).
    Pipeline(Method),
    /// Hogwild!-style stochastic delays (App. E): each stage's whole
    /// gradient is computed at a randomly delayed weight version.
    Hogwild(HogwildDelays),
}

impl TrainMode {
    /// The underlying pipeline method, if deterministic.
    pub fn method(&self) -> Option<Method> {
        match self {
            TrainMode::Pipeline(m) => Some(*m),
            TrainMode::Hogwild(_) => None,
        }
    }
}

/// PipeMare Recompute simulation (App. D): backward passes consume
/// activations recomputed under a third, differently delayed weight
/// version.
#[derive(Clone, Copy, Debug)]
pub struct RecomputeCfg {
    /// Number of gradient-checkpoint segments the stages are grouped
    /// into (the paper sweeps e.g. {2, 4, 17} on ResNet).
    pub segments: usize,
    /// Whether the T2-for-recompute correction is applied to the
    /// recomputed-activation weights.
    pub t2: bool,
}

impl RecomputeCfg {
    /// Recompute with `segments` checkpoint segments and no T2-for-
    /// recompute correction.
    pub fn new(segments: usize) -> Self {
        assert!(segments >= 1, "need at least one checkpoint segment");
        RecomputeCfg { segments, t2: false }
    }

    /// The App. D near-memory-optimal configuration for a `stages`-stage
    /// pipeline: segments of size ≈ √P (the memory model's
    /// `optimal_segment`), with the T2 correction enabled.
    pub fn optimal(stages: usize) -> Self {
        let seg = crate::ActivationModel { p: stages }.optimal_segment();
        RecomputeCfg { segments: stages.div_ceil(seg), t2: true }
    }

    /// Enables the T2-for-recompute correction.
    pub fn with_t2(mut self) -> Self {
        self.t2 = true;
        self
    }

    /// The stage-group size `S` implied by the segment count for a
    /// `stages`-stage pipeline (ceil division; the last segment may be
    /// short).
    pub fn segment_size(&self, stages: usize) -> usize {
        stages.div_ceil(self.segments.max(1)).max(1)
    }
}

/// Full training configuration, for in-process and distributed runs
/// alike.
pub struct TrainConfig {
    /// Delay semantics.
    pub mode: TrainMode,
    /// Number of pipeline stages `P`.
    pub stages: usize,
    /// Microbatches per minibatch `N`.
    pub n_micro: usize,
    /// Optimizer update rule.
    pub optimizer: OptimizerKind,
    /// Base learning-rate schedule (indexed by optimizer step).
    pub schedule: Box<dyn LrSchedule>,
    /// T1 learning-rate rescheduling (None disables).
    pub t1: Option<T1Rescheduler>,
    /// T2 discrepancy correction: the global decay hyperparameter `D`
    /// (None disables).
    pub t2_decay: Option<f64>,
    /// T3: number of *optimizer steps* run synchronously (GPipe-style)
    /// before switching to the asynchronous mode. The runners convert
    /// warmup epochs to steps.
    pub warmup_steps: usize,
    /// Global gradient-norm clip (None disables).
    pub grad_clip: Option<f32>,
    /// Recompute delay simulation (None disables).
    pub recompute: Option<RecomputeCfg>,
    /// Partition stages by equal *element* counts instead of the paper's
    /// equal *weight-unit* counts (ablation of the partitioning scheme).
    pub partition_by_elements: bool,
    /// Storage precision for the delayed (non-latest) weight-history
    /// versions. [`StoragePrecision::F32`] (the default) is bit-exact;
    /// [`StoragePrecision::Bf16`] halves the history footprint at one
    /// RNE rounding per stored weight (see the health monitor's
    /// `quant_eps` for how the margins account for it).
    pub weight_storage: StoragePrecision,
    /// Seed for Hogwild delay sampling.
    pub seed: u64,
}

impl TrainConfig {
    /// A synchronous (GPipe) baseline configuration.
    pub fn gpipe(
        stages: usize,
        n_micro: usize,
        optimizer: OptimizerKind,
        schedule: Box<dyn LrSchedule>,
    ) -> Self {
        TrainConfig {
            mode: TrainMode::Pipeline(Method::GPipe),
            stages,
            n_micro,
            optimizer,
            schedule,
            t1: None,
            t2_decay: None,
            warmup_steps: 0,
            grad_clip: None,
            recompute: None,
            partition_by_elements: false,
            weight_storage: StoragePrecision::F32,
            seed: 0,
        }
    }

    /// A PipeDream (weight-stashing) configuration.
    pub fn pipedream(
        stages: usize,
        n_micro: usize,
        optimizer: OptimizerKind,
        schedule: Box<dyn LrSchedule>,
    ) -> Self {
        TrainConfig {
            mode: TrainMode::Pipeline(Method::PipeDream),
            ..TrainConfig::gpipe(stages, n_micro, optimizer, schedule)
        }
    }

    /// A full PipeMare configuration (T1 + T2; add `warmup_steps` for T3).
    pub fn pipemare(
        stages: usize,
        n_micro: usize,
        optimizer: OptimizerKind,
        schedule: Box<dyn LrSchedule>,
        t1: T1Rescheduler,
        t2_decay: f64,
    ) -> Self {
        TrainConfig {
            mode: TrainMode::Pipeline(Method::PipeMare),
            t1: Some(t1),
            t2_decay: Some(t2_decay),
            ..TrainConfig::gpipe(stages, n_micro, optimizer, schedule)
        }
    }

    /// Naive asynchronous training: PipeMare delays with none of the
    /// techniques (used by the divergence studies, Figure 7).
    pub fn naive_async(
        stages: usize,
        n_micro: usize,
        optimizer: OptimizerKind,
        schedule: Box<dyn LrSchedule>,
    ) -> Self {
        TrainConfig {
            mode: TrainMode::Pipeline(Method::PipeMare),
            ..TrainConfig::gpipe(stages, n_micro, optimizer, schedule)
        }
    }

    /// The pipeline clock for this geometry.
    pub fn clock(&self) -> PipelineClock {
        PipelineClock::new(self.stages, self.n_micro)
    }

    /// Splits a model of `total` parameters, laid out as weight `units`
    /// (`(offset, len)`), into the configured stages.
    pub fn partition(&self, units: &[(usize, usize)], total: usize) -> StagePartition {
        if self.partition_by_elements {
            StagePartition::by_elements(total, self.stages)
        } else {
            StagePartition::from_units(units, total, self.stages)
        }
    }

    /// Whether step `t` is still in the synchronous (T3) warmup.
    pub fn in_warmup(&self, t: usize) -> bool {
        t < self.warmup_steps
    }

    /// Whether step `t` replays activations under the recompute version
    /// (App. D): recompute is configured and the step is asynchronous
    /// PipeMare.
    pub fn recomputes(&self, t: usize) -> bool {
        self.recompute.is_some()
            && !self.in_warmup(t)
            && self.mode.method() == Some(Method::PipeMare)
    }

    /// Nominal `(τ_fwd, τ_bkwd)` of stage `s` in optimizer steps: Table
    /// 1's delays for a pipeline method, the stage's mean sampled delay
    /// (both ways) for Hogwild.
    pub fn nominal_taus(&self, s: usize) -> (f64, f64) {
        let clock = self.clock();
        match &self.mode {
            TrainMode::Pipeline(m) => {
                (clock.nominal_tau_fwd_for(*m, s), clock.nominal_tau_bkwd(*m, s))
            }
            TrainMode::Hogwild(h) => (h.means[s], h.means[s]),
        }
    }

    /// Stage `s`'s T2 decay `γ = D^{1/gap}` (0 when T2 is off). The gap
    /// is the nominal fractional delay τ_fwd − τ_bkwd (PipeMare's
    /// τ_bkwd is 0; the other modes get no correction). With recompute +
    /// T2 the backward also consumes activations delayed by τ_recomp, so
    /// App. D widens the gap to max(τ_fwd, τ_recomp); at late stages
    /// τ_recomp dominates and γ genuinely changes.
    pub fn gamma(&self, s: usize) -> f64 {
        let gap = match self.mode {
            TrainMode::Pipeline(Method::PipeMare) => {
                let clock = self.clock();
                let tau_fwd = clock.nominal_tau_fwd(s);
                match self.recompute {
                    Some(rc) if rc.t2 => {
                        tau_fwd.max(clock.nominal_tau_recomp(rc.segment_size(self.stages), s))
                    }
                    _ => tau_fwd,
                }
            }
            _ => 0.0,
        };
        self.t2_decay.map_or(0.0, |d| gamma_from_d(d, gap))
    }

    /// The T1 learning-rate multiplier for stage `s` at optimizer step
    /// `t`: 1 during warmup and for methods without a delay to rescale;
    /// otherwise the rescheduler at the async step count, over the
    /// stage's forward delay (PipeMare) or mean sampled delay (Hogwild).
    pub fn t1_scale(&self, s: usize, t: usize) -> f32 {
        let Some(t1) = &self.t1 else { return 1.0 };
        if self.in_warmup(t) {
            return 1.0;
        }
        let tau = match &self.mode {
            TrainMode::Pipeline(Method::PipeMare) => self.clock().nominal_tau_fwd(s),
            TrainMode::Hogwild(h) => h.means[s],
            TrainMode::Pipeline(_) => return 1.0,
        };
        t1.scale(t - self.warmup_steps, tau)
    }

    /// Everything stage `s`'s [`crate::StageShard`] needs, over its
    /// range of `partition`.
    pub fn shard_spec(&self, partition: &StagePartition, s: usize) -> ShardSpec {
        let (lo, hi) = partition.range(s);
        ShardSpec {
            stage: s,
            stages: self.stages,
            n_micro: self.n_micro,
            method: self.mode.method(),
            param_len: partition.total_params(),
            lo,
            hi,
            opt: self.optimizer,
            t2_decay: self.t2_decay,
            gamma: self.gamma(s),
            // Stage j of a recompute segment replays 2(S−j) slots before
            // its backward pass (App. A.2/D).
            recomp_slots: self
                .recompute
                .map(|rc| self.clock().recomp_delay_slots(rc.segment_size(self.stages), s)),
            recomp_t2: self.recompute.is_some_and(|rc| rc.t2),
            warmup_steps: self.warmup_steps,
            weight_storage: self.weight_storage,
        }
    }
}

/// Statistics of one optimizer step.
#[derive(Clone, Copy, Debug)]
pub struct StepStats {
    /// Optimizer step index.
    pub step: usize,
    /// Mean training loss over the minibatch.
    pub loss: f32,
    /// L2 norm of the parameters after the step (Figure 7's diagnostic;
    /// ∞ once diverged).
    pub param_norm: f32,
    /// Base learning rate used (before T1 per-stage scaling).
    pub base_lr: f32,
    /// Whether the trainer has diverged.
    pub diverged: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemare_optim::ConstantLr;

    fn sgd() -> OptimizerKind {
        OptimizerKind::Sgd { weight_decay: 0.0 }
    }

    #[test]
    fn constructors_set_modes() {
        let g = TrainConfig::gpipe(4, 2, sgd(), Box::new(ConstantLr(0.1)));
        assert_eq!(g.mode.method(), Some(Method::GPipe));
        assert!(g.t1.is_none() && g.t2_decay.is_none());
        let p = TrainConfig::pipemare(
            4,
            2,
            sgd(),
            Box::new(ConstantLr(0.1)),
            T1Rescheduler::new(100),
            0.135,
        );
        assert_eq!(p.mode.method(), Some(Method::PipeMare));
        assert!(p.t1.is_some() && p.t2_decay.is_some());
        let d = TrainConfig::pipedream(4, 2, sgd(), Box::new(ConstantLr(0.1)));
        assert_eq!(d.mode.method(), Some(Method::PipeDream));
        let h = TrainMode::Hogwild(HogwildDelays::from_pipeline_profile(4, 2));
        assert_eq!(h.method(), None);
    }

    #[test]
    fn recompute_cfg_segment_size() {
        let rc = RecomputeCfg::new(2);
        assert!(!rc.t2);
        assert!(rc.with_t2().t2);
        assert_eq!(rc.segment_size(4), 2);
        assert_eq!(rc.segment_size(9), 5, "ceil division leaves a short tail segment");
        assert_eq!(RecomputeCfg::new(1).segment_size(3), 3);
        // optimal(P) picks segments of size ≈ √P and turns the
        // correction on.
        let opt = RecomputeCfg::optimal(16);
        assert!(opt.t2);
        assert_eq!(opt.segment_size(16), 4);
    }

    #[test]
    fn t1_scale_is_one_in_warmup_and_for_undelayed_methods() {
        let mut cfg = TrainConfig::pipemare(
            3,
            1,
            sgd(),
            Box::new(ConstantLr(0.1)),
            T1Rescheduler::new(100),
            0.135,
        );
        cfg.warmup_steps = 2;
        assert_eq!(cfg.t1_scale(0, 1), 1.0, "warmup steps are synchronous");
        // First async step at stage 0: τ_fwd = 5 with P = 3, N = 1.
        assert_eq!(cfg.t1_scale(0, 2), T1Rescheduler::new(100).scale(0, 5.0));
        cfg.mode = TrainMode::Pipeline(Method::PipeDream);
        assert_eq!(cfg.t1_scale(0, 2), 1.0);
        cfg.mode = TrainMode::Hogwild(HogwildDelays::from_pipeline_profile(3, 1));
        assert_eq!(cfg.t1_scale(1, 3), T1Rescheduler::new(100).scale(1, 3.0));
    }
}
