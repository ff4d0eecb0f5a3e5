//! One pipeline stage's weight shard: PipeMare's per-stage state
//! machine (App. C.4).
//!
//! A [`StageShard`] owns one stage's slice of the parameter vector: its
//! weight-version history, optimizer slice and T2 velocity δ. For every
//! pass of every microbatch it picks the version the stage reads (the
//! synchronous warmup, the Table 1 delays, the recompute slots, or a
//! driver-sampled Hogwild delay), extrapolates it along δ when T2
//! applies, and it applies updates through stage-then-commit so a driver
//! can revert a diverged step across all shards at once.
//!
//! This is the only implementation of that rule. The in-process
//! `PipelineTrainer` drives one shard per stage in memory and each
//! distributed stage worker holds one, so the two trainers differ only
//! in how the shard's reads and updates travel.

use pipemare_optim::{Optimizer, OptimizerKind};
use pipemare_tensor::StoragePrecision;

use crate::{Method, PipelineClock, WeightHistory};

/// Which pass a weight read serves. Determines the version and the T2
/// correction the shard applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PassKind {
    /// Forward pass: delayed version per the pipeline clock.
    Fwd,
    /// Backward pass: bkwd version plus T2 discrepancy correction.
    Bkwd,
    /// Recompute replay: recompute-slot version plus its T2 term.
    Recomp,
    /// Latest committed weights, uncorrected (final gather, serving).
    Latest,
}

/// Everything one stage's shard needs: pipeline geometry, its range of
/// the parameter vector, the optimizer, and the stage's T2/recompute
/// parameters (derived by [`crate::TrainConfig::shard_spec`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ShardSpec {
    /// This shard's stage id, `0..stages`.
    pub stage: usize,
    /// Total pipeline stages.
    pub stages: usize,
    /// Microbatches per minibatch.
    pub n_micro: usize,
    /// Pipeline method; `None` is Hogwild, whose driver passes each
    /// step's sampled delay to the reads.
    pub method: Option<Method>,
    /// Full model parameter count.
    pub param_len: usize,
    /// Shard start offset into the full parameter vector.
    pub lo: usize,
    /// Shard end offset (exclusive).
    pub hi: usize,
    /// Optimizer run on this shard.
    pub opt: OptimizerKind,
    /// T2 decay `D` (None disables discrepancy correction).
    pub t2_decay: Option<f64>,
    /// This stage's γ for the δ velocity buffer.
    pub gamma: f64,
    /// Recompute delay slots for this stage (None = no recomputation).
    pub recomp_slots: Option<usize>,
    /// Whether recompute replay applies its own T2 term.
    pub recomp_t2: bool,
    /// Steps of synchronous warmup (T3).
    pub warmup_steps: usize,
    /// Storage precision of the non-latest weight-history versions.
    pub weight_storage: StoragePrecision,
}

/// Why a shard refused a config or a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// The spec or the initial weights are inconsistent.
    Config(String),
    /// A request arrived at the wrong point: stale step, double stage,
    /// out-of-range microbatch, wrong length.
    Protocol(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Config(m) => write!(f, "shard config: {m}"),
            ShardError::Protocol(m) => write!(f, "shard protocol: {m}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// A resolved read: the stored version to serve and, when a T2
/// correction applies, the gap to extrapolate it along δ.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReadPlan {
    version: usize,
    gap: Option<f64>,
}

/// Everything that determines a read's bits: the stored version (and
/// whether it is held as bf16 — a commit demotes the previous latest)
/// plus, for a T2-corrected pass, the gap and the δ it was extrapolated
/// along.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ReadKey {
    version: usize,
    bf16: bool,
    /// `(gap bits, committed steps when δ was read)`.
    correction: Option<(u64, usize)>,
}

/// One pipeline stage's shard of the model: weight-version history,
/// optimizer state, and T2 velocity, all shard-sized.
pub struct StageShard {
    spec: ShardSpec,
    clock: PipelineClock,
    history: WeightHistory,
    opt: Optimizer,
    /// T2 velocity buffer δ for this shard.
    delta: Vec<f32>,
    /// Post-optimizer weights awaiting commit (for step `committed`).
    staged: Option<Vec<f32>>,
    /// Next step this shard expects (= number of committed steps).
    committed: usize,
    /// Identity of the read last delivered per training pass (`Fwd`,
    /// `Bkwd`, `Recomp`), for [`StageShard::plan_if_changed`].
    delivered: [Option<ReadKey>; 3],
}

impl StageShard {
    /// Checks a spec without building anything.
    pub fn validate(spec: &ShardSpec) -> Result<(), ShardError> {
        if spec.stage >= spec.stages {
            return Err(ShardError::Config(format!(
                "stage id {} out of range for {} stages",
                spec.stage, spec.stages
            )));
        }
        if spec.n_micro == 0 || spec.stages == 0 {
            return Err(ShardError::Config("stages and n_micro must be positive".into()));
        }
        if spec.lo >= spec.hi || spec.hi > spec.param_len {
            return Err(ShardError::Config(format!(
                "shard bounds [{}, {}) invalid for param_len {}",
                spec.lo, spec.hi, spec.param_len
            )));
        }
        Ok(())
    }

    /// Validates the spec and seeds the shard with its initial weights
    /// (version 0).
    pub fn new(spec: ShardSpec, init: Vec<f32>) -> Result<Self, ShardError> {
        Self::validate(&spec)?;
        let len = spec.hi - spec.lo;
        if init.len() != len {
            return Err(ShardError::Config(format!(
                "init shard has {} values, shard bounds promise {len}",
                init.len()
            )));
        }
        let clock = PipelineClock::new(spec.stages, spec.n_micro);
        let history =
            WeightHistory::with_precision(clock.history_depth() + 1, init, spec.weight_storage);
        Ok(StageShard {
            opt: Optimizer::new(spec.opt, len),
            delta: vec![0.0; len],
            staged: None,
            committed: 0,
            delivered: [None; 3],
            spec,
            clock,
            history,
        })
    }

    /// The spec this shard was built from.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Number of committed optimizer steps.
    pub fn committed_steps(&self) -> usize {
        self.committed
    }

    fn len(&self) -> usize {
        self.spec.hi - self.spec.lo
    }

    /// The latest committed shard values.
    pub fn latest(&self) -> &[f32] {
        self.history.latest()
    }

    /// The weight-version window (for checkpoints).
    pub fn history(&self) -> &WeightHistory {
        &self.history
    }

    /// The T2 velocity δ.
    pub fn delta(&self) -> &[f32] {
        &self.delta
    }

    /// The shard's optimizer (for checkpoints).
    pub fn optimizer(&self) -> &Optimizer {
        &self.opt
    }

    fn check_step(&self, step: usize, what: &str) -> Result<(), ShardError> {
        if step != self.committed {
            return Err(ShardError::Protocol(format!(
                "stage {}: {what} for step {step} but shard is at step {}",
                self.spec.stage, self.committed
            )));
        }
        Ok(())
    }

    /// Resolves one pass of `(step, micro)` to the version it reads and
    /// its T2 extrapolation gap. `hogwild` is this stage's sampled delay
    /// for the step, required by a Hogwild shard outside warmup and
    /// ignored otherwise. [`PassKind::Latest`] is step-free: a serving
    /// frontend reads whatever is committed without tracking the step.
    pub fn plan(
        &self,
        step: usize,
        micro: usize,
        pass: PassKind,
        hogwild: Option<usize>,
    ) -> Result<ReadPlan, ShardError> {
        if pass == PassKind::Latest {
            return Ok(ReadPlan { version: self.history.latest_version(), gap: None });
        }
        self.check_step(step, "fetch")?;
        let (t, n, s) = (step, micro, self.spec.stage);
        if n >= self.spec.n_micro {
            return Err(ShardError::Protocol(format!(
                "stage {s}: microbatch {n} out of range ({} per step)",
                self.spec.n_micro
            )));
        }
        let sync = t < self.spec.warmup_steps;
        let t2_on = self.spec.t2_decay.is_some();
        let delayed = |version: fn(&PipelineClock, Method, usize, usize, usize) -> usize| {
            Ok(match (sync, self.spec.method, hogwild) {
                (true, _, _) => t,
                (false, Some(m), _) => version(&self.clock, m, t, n, s),
                (false, None, Some(d)) => t.saturating_sub(d),
                (false, None, None) => {
                    return Err(ShardError::Protocol(format!(
                        "stage {s}: Hogwild read at step {t} without a sampled delay"
                    )))
                }
            })
        };
        let (version, gap) = match pass {
            PassKind::Fwd => (delayed(PipelineClock::fwd_version)?, None),
            PassKind::Bkwd => {
                // T2: extrapolate toward the forward version along δ
                // (τ_bkwd = 0 for PipeMare, so the gap is τ_fwd).
                let t2 = !sync && self.spec.method == Some(Method::PipeMare) && t2_on;
                (delayed(PipelineClock::bkwd_version)?, t2.then(|| self.clock.nominal_tau_fwd(s)))
            }
            PassKind::Recomp => {
                let slots = self.spec.recomp_slots.ok_or_else(|| {
                    ShardError::Protocol(format!(
                        "stage {s}: recompute fetch but no recompute configured"
                    ))
                })?;
                let n_micro = self.spec.n_micro;
                let m = (t * n_micro + n) as i64 - slots as i64;
                let version = m.div_euclid(n_micro as i64).clamp(0, t as i64) as usize;
                let gap = if self.spec.recomp_t2 && t2_on {
                    let g = self.clock.nominal_tau_fwd(s) - slots as f64 / n_micro as f64;
                    (g > 0.0).then_some(g)
                } else {
                    None
                };
                (version, gap)
            }
            PassKind::Latest => unreachable!("handled above"),
        };
        Ok(ReadPlan { version, gap })
    }

    /// [`StageShard::plan`] for a reader that keeps the values it last
    /// received per training pass: `None` when the planned read has the
    /// same bits as the one last delivered for `pass` (the reader's copy
    /// is still exact), otherwise the plan, remembered as the pass's new
    /// last-delivered read. [`PassKind::Latest`] always plans and leaves
    /// the per-pass memory alone.
    pub fn plan_if_changed(
        &mut self,
        step: usize,
        micro: usize,
        pass: PassKind,
        hogwild: Option<usize>,
    ) -> Result<Option<ReadPlan>, ShardError> {
        let plan = self.plan(step, micro, pass, hogwild)?;
        let slot = match pass {
            PassKind::Fwd => 0,
            PassKind::Bkwd => 1,
            PassKind::Recomp => 2,
            PassKind::Latest => return Ok(Some(plan)),
        };
        let key = ReadKey {
            version: self.history.resolve(plan.version),
            bf16: self.history.stored_bf16(plan.version).is_some(),
            // δ changes only at commit, so the commit count dates it.
            correction: plan.gap.map(|g| (g.to_bits(), self.committed)),
        };
        if self.delivered[slot] == Some(key) {
            return Ok(None);
        }
        self.delivered[slot] = Some(key);
        Ok(Some(plan))
    }

    /// Writes the planned values into `out` (shard-sized).
    ///
    /// # Panics
    ///
    /// Panics if `out` is not the shard's length.
    pub fn read_into(&self, plan: ReadPlan, out: &mut [f32]) {
        self.history.read_into(plan.version, out);
        if let Some(gap) = plan.gap {
            for (b, &d) in out.iter_mut().zip(self.delta.iter()) {
                *b -= gap as f32 * d;
            }
        }
    }

    /// The planned values as a new vector.
    pub fn read(&self, plan: ReadPlan) -> Vec<f32> {
        let mut out = vec![0.0; self.len()];
        self.read_into(plan, &mut out);
        out
    }

    /// The raw bf16 storage of an uncorrected plan whose version is held
    /// as bf16: widening it reproduces [`StageShard::read`] exactly, so a
    /// transport can ship these bits at half the bytes.
    pub fn stored_bf16(&self, plan: ReadPlan) -> Option<&[u16]> {
        if plan.gap.is_some() {
            return None;
        }
        self.history.stored_bf16(plan.version)
    }

    /// Runs the optimizer on this shard's slice of the minibatch
    /// gradient at learning rate `lr` and stages the result. Returns
    /// whether the staged shard is entirely finite.
    ///
    /// `apply = false` (the driver saw a non-finite gradient) stages the
    /// old weights untouched and leaves the optimizer's step counter
    /// alone.
    pub fn apply_grad(
        &mut self,
        step: usize,
        lr: f32,
        apply: bool,
        grad: &[f32],
    ) -> Result<bool, ShardError> {
        self.check_step(step, "apply_grad")?;
        if self.staged.is_some() {
            return Err(ShardError::Protocol(format!(
                "stage {}: step {step} already staged and uncommitted",
                self.spec.stage
            )));
        }
        if grad.len() != self.len() {
            return Err(ShardError::Protocol(format!(
                "stage {}: gradient has {} values, shard holds {}",
                self.spec.stage,
                grad.len(),
                self.len()
            )));
        }
        let mut w = self.history.latest().to_vec();
        if apply {
            self.opt.begin_step();
            self.opt.step_range(&mut w, grad, 0, grad.len(), lr);
        }
        let finite = w.iter().all(|x| x.is_finite());
        self.staged = Some(w);
        Ok(finite)
    }

    /// The staged (uncommitted) shard values, if any.
    pub fn staged(&self) -> Option<&[f32]> {
        self.staged.as_deref()
    }

    /// Commits (`keep = true`) or reverts (`keep = false`) the staged
    /// step, advancing the shard to version `step + 1` either way and
    /// updating δ ← γδ + (1−γ)(w_new − w_old) from the realized change —
    /// a revert therefore decays δ by γ. Optimizer moment buffers are
    /// never rolled back.
    pub fn commit(&mut self, step: usize, keep: bool) -> Result<(), ShardError> {
        self.check_step(step, "commit")?;
        let staged = self.staged.take().ok_or_else(|| {
            ShardError::Protocol(format!(
                "stage {}: commit for step {step} with nothing staged",
                self.spec.stage
            ))
        })?;
        let old = self.history.latest();
        let pushed = if keep { staged } else { old.to_vec() };
        if self.spec.t2_decay.is_some() {
            let g = self.spec.gamma as f32;
            for ((d, &new), &old) in self.delta.iter_mut().zip(&pushed).zip(old) {
                *d = g * *d + (1.0 - g) * (new - old);
            }
        }
        self.history.push(step + 1, pushed);
        self.committed = step + 1;
        Ok(())
    }

    /// Replaces the shard's state with a checkpointed one: the weight
    /// window (oldest first, shard-sized, the newest at the committed
    /// step), δ, and the optimizer's `(m, v, steps)`. Every pass's
    /// last-delivered read is forgotten, so the next read of each pass
    /// is delivered in full.
    ///
    /// # Panics
    ///
    /// Panics if `versions` is empty, not consecutively numbered, or
    /// longer than the shard's window.
    pub fn restore(
        &mut self,
        versions: Vec<(usize, Vec<f32>)>,
        delta: Vec<f32>,
        (m, v, opt_steps): (Vec<f32>, Vec<f32>, usize),
    ) -> Result<(), ShardError> {
        let len = self.len();
        if delta.len() != len || versions.iter().any(|(_, w)| w.len() != len) {
            return Err(ShardError::Config(format!(
                "stage {}: checkpoint shapes do not match a {len}-value shard",
                self.spec.stage
            )));
        }
        let capacity = self.clock.history_depth() + 1;
        self.history = WeightHistory::from_versions_with_precision(
            capacity,
            versions,
            self.spec.weight_storage,
        );
        self.opt.restore_state(m, v, opt_steps);
        self.delta = delta;
        self.committed = self.history.latest_version();
        self.staged = None;
        self.delivered = [None; 3];
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(stage: usize, warmup: usize) -> ShardSpec {
        ShardSpec {
            stage,
            stages: 3,
            n_micro: 2,
            method: Some(Method::PipeMare),
            param_len: 12,
            lo: 4 * stage,
            hi: 4 * stage + 4,
            opt: OptimizerKind::Sgd { weight_decay: 0.0 },
            t2_decay: None,
            gamma: 0.0,
            recomp_slots: None,
            recomp_t2: false,
            warmup_steps: warmup,
            weight_storage: StoragePrecision::F32,
        }
    }

    fn fetch(st: &StageShard, step: usize, micro: usize, pass: PassKind) -> Vec<f32> {
        st.read(st.plan(step, micro, pass, None).unwrap())
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut bad = spec(0, 0);
        bad.hi = 100;
        assert!(matches!(StageShard::new(bad, vec![0.0; 96]), Err(ShardError::Config(_))));
        assert!(matches!(StageShard::new(spec(0, 0), vec![0.0; 3]), Err(ShardError::Config(_))));
        assert!(matches!(StageShard::new(spec(5, 0), vec![0.0; 4]), Err(ShardError::Config(_))));
    }

    #[test]
    fn a_huge_stage_count_builds_without_reserving_its_window() {
        // The retained window scales with the stage count, but only the
        // versions actually pushed are allocated.
        let mut huge = spec(0, 0);
        huge.stages = u32::MAX as usize;
        huge.lo = 0;
        huge.hi = 1;
        huge.param_len = 1;
        let mut st = StageShard::new(huge, vec![0.5]).unwrap();
        assert_eq!(fetch(&st, 0, 0, PassKind::Fwd), vec![0.5]);
        assert!(st.apply_grad(0, 0.1, true, &[1.0]).unwrap());
        st.commit(0, true).unwrap();
        assert_eq!(st.history().snapshot().len(), 2);
    }

    #[test]
    fn sgd_step_stage_commit_advances_versions() {
        let mut st = StageShard::new(spec(0, 0), vec![1.0; 4]).unwrap();
        assert!(st.apply_grad(0, 0.5, true, &[1.0, 2.0, 0.0, -1.0]).unwrap());
        assert_eq!(st.staged(), Some(&[0.5, 0.0, 1.0, 1.5][..]));
        st.commit(0, true).unwrap();
        assert_eq!(st.latest(), &[0.5, 0.0, 1.0, 1.5]);
        assert_eq!(st.committed_steps(), 1);
    }

    #[test]
    fn revert_keeps_old_weights_but_advances_the_clock() {
        let mut st = StageShard::new(spec(0, 0), vec![1.0; 4]).unwrap();
        assert!(!st.apply_grad(0, 1e30, true, &[1e30; 4]).unwrap());
        st.commit(0, false).unwrap();
        assert_eq!(st.latest(), &[1.0; 4]);
        assert_eq!(st.committed_steps(), 1);
    }

    #[test]
    fn stale_step_and_double_stage_are_protocol_errors() {
        let mut st = StageShard::new(spec(0, 0), vec![1.0; 4]).unwrap();
        assert!(matches!(st.plan(3, 0, PassKind::Fwd, None), Err(ShardError::Protocol(_))));
        assert!(matches!(st.plan(0, 2, PassKind::Fwd, None), Err(ShardError::Protocol(_))));
        st.apply_grad(0, 0.1, true, &[0.0; 4]).unwrap();
        assert!(matches!(st.apply_grad(0, 0.1, true, &[0.0; 4]), Err(ShardError::Protocol(_))));
        assert!(matches!(st.commit(1, true), Err(ShardError::Protocol(_))));
    }

    #[test]
    fn warmup_fetch_is_synchronous() {
        // During warmup every pass reads the latest version regardless of
        // the pipeline clock.
        let mut st = StageShard::new(spec(0, 10), vec![1.0; 4]).unwrap();
        st.apply_grad(0, 0.5, true, &[1.0; 4]).unwrap();
        st.commit(0, true).unwrap();
        let fwd = fetch(&st, 1, 0, PassKind::Fwd);
        assert_eq!(fwd, vec![0.5; 4]);
        assert_eq!(fwd, fetch(&st, 1, 1, PassKind::Bkwd));
    }

    #[test]
    fn async_fetch_reads_delayed_versions() {
        // Stage 0 of P = 3, N = 2 has delay_slots = 5; at t = 1, n = 0 the
        // fwd version is max(0, (2·1+0−5)) div 2 → 0, i.e. still the
        // initial weights, while the bkwd version is t itself.
        let mut st = StageShard::new(spec(0, 0), vec![1.0; 4]).unwrap();
        st.apply_grad(0, 0.5, true, &[1.0; 4]).unwrap();
        st.commit(0, true).unwrap();
        assert_eq!(fetch(&st, 1, 0, PassKind::Fwd), vec![1.0; 4], "stage 0 forward must lag");
        assert_eq!(fetch(&st, 1, 0, PassKind::Bkwd), vec![0.5; 4], "PipeMare bkwd is fresh");
    }

    #[test]
    fn hogwild_reads_the_sampled_delay_and_requires_one() {
        let mut hog = spec(1, 0);
        hog.method = None;
        let mut st = StageShard::new(hog, vec![1.0; 4]).unwrap();
        for t in 0..3 {
            st.apply_grad(t, 0.5, true, &[1.0; 4]).unwrap();
            st.commit(t, true).unwrap();
        }
        // Latest is version 3 = 1 − 3·0.5; a delay of 2 reads version 1.
        let read = |st: &StageShard, pass, d| st.read(st.plan(3, 0, pass, Some(d)).unwrap());
        assert_eq!(read(&st, PassKind::Fwd, 2), vec![0.5; 4]);
        assert_eq!(read(&st, PassKind::Bkwd, 2), vec![0.5; 4], "one version both ways");
        assert_eq!(read(&st, PassKind::Fwd, 9), vec![1.0; 4], "saturates at version 0");
        assert!(matches!(st.plan(3, 0, PassKind::Fwd, None), Err(ShardError::Protocol(_))));
    }

    #[test]
    fn t2_delta_tracks_weight_velocity_and_corrects_bkwd() {
        let mut c = spec(0, 0);
        c.t2_decay = Some(0.5);
        // γ = d^{1/τ_fwd}, stage 0, P=3, N=2 → τ_fwd = 5/2.
        let tau = 2.5f64;
        c.gamma = 0.5f64.powf(1.0 / tau);
        let mut st = StageShard::new(c, vec![1.0; 4]).unwrap();
        st.apply_grad(0, 0.5, true, &[1.0; 4]).unwrap();
        st.commit(0, true).unwrap();
        // δ = (1−γ)(0.5 − 1.0).
        let g = 0.5f64.powf(1.0 / tau) as f32;
        let expect_delta = (1.0 - g) * -0.5;
        assert_eq!(st.delta(), &[expect_delta; 4]);
        let bkwd = fetch(&st, 1, 0, PassKind::Bkwd);
        // bkwd = latest − τ_fwd·δ (δ negative → correction pushes ahead).
        let expect = 0.5 - tau as f32 * expect_delta;
        assert!((bkwd[0] - expect).abs() < 1e-6, "{} vs {expect}", bkwd[0]);
    }

    /// Applies one conditional read the way a driver does (a changed
    /// plan overwrites `held`, an unchanged one keeps it), checks `held`
    /// equals an unconditional read bit for bit, and returns whether the
    /// read was delivered.
    fn receive(
        st: &mut StageShard,
        held: &mut Vec<f32>,
        step: usize,
        micro: usize,
        pass: PassKind,
    ) -> bool {
        let delivered = match st.plan_if_changed(step, micro, pass, None).unwrap() {
            Some(plan) => {
                *held = st.read(plan);
                true
            }
            None => false,
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let want = fetch(st, step, micro, pass);
        assert_eq!(bits(held), bits(&want), "step {step} micro {micro} {pass:?}");
        delivered
    }

    fn t2_spec(stage: usize) -> ShardSpec {
        let mut c = spec(stage, 0);
        c.t2_decay = Some(0.5);
        c.gamma = 0.5f64.powf(1.0 / PipelineClock::new(3, 2).nominal_tau_fwd(stage));
        c
    }

    #[test]
    fn bf16_demotion_redelivers_a_version_first_read_as_f32() {
        // Stage 2 of P = 3, N = 2 has delay_slots = 1: microbatch 1 reads
        // the latest version (f32), and microbatch 0 of the next step
        // reads the same version after the commit demoted it to bf16.
        let mut c = spec(2, 0);
        c.weight_storage = StoragePrecision::Bf16;
        let mut st = StageShard::new(c, vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        let mut held = Vec::new();
        assert!(receive(&mut st, &mut held, 0, 0, PassKind::Fwd));
        assert!(!receive(&mut st, &mut held, 0, 1, PassKind::Fwd), "same f32 version 0");
        let f32_v0 = held.clone();
        st.apply_grad(0, 0.5, true, &[1.0; 4]).unwrap();
        st.commit(0, true).unwrap();
        assert!(receive(&mut st, &mut held, 1, 0, PassKind::Fwd), "v0 demoted to bf16");
        assert_ne!(held, f32_v0, "demotion rounds these values, so a stale copy would differ");
        let plan = st.plan(1, 0, PassKind::Fwd, None).unwrap();
        let bits = st.stored_bf16(plan).expect("delayed version is bf16-stored");
        assert_eq!(pipemare_tensor::bf16::decode_slice(bits), held);
        assert!(receive(&mut st, &mut held, 1, 1, PassKind::Fwd), "v1 is the f32 latest");
        st.apply_grad(1, 0.5, true, &[1.0; 4]).unwrap();
        st.commit(1, true).unwrap();
        assert!(receive(&mut st, &mut held, 2, 0, PassKind::Fwd), "v1 demoted to bf16");
    }

    #[test]
    fn t2_corrected_bkwd_redelivers_after_every_commit_including_a_revert() {
        let mut st = StageShard::new(t2_spec(0), vec![1.0; 4]).unwrap();
        let mut held = Vec::new();
        assert!(receive(&mut st, &mut held, 0, 0, PassKind::Bkwd));
        assert!(!receive(&mut st, &mut held, 0, 1, PassKind::Bkwd), "δ fixed within a step");
        st.apply_grad(0, 0.5, true, &[1.0; 4]).unwrap();
        st.commit(0, true).unwrap();
        assert!(receive(&mut st, &mut held, 1, 0, PassKind::Bkwd));
        assert!(!receive(&mut st, &mut held, 1, 1, PassKind::Bkwd));
        let before_revert = held.clone();
        // A revert keeps the weights but decays δ by γ: the corrected
        // read changes, so it must be delivered.
        st.apply_grad(1, 1e30, true, &[1e30; 4]).unwrap();
        st.commit(1, false).unwrap();
        assert_eq!(st.latest(), &[0.5; 4], "revert restores the committed weights");
        assert!(receive(&mut st, &mut held, 2, 0, PassKind::Bkwd));
        assert_ne!(held, before_revert, "decayed δ moves the corrected read");
        assert!(!receive(&mut st, &mut held, 2, 1, PassKind::Bkwd));
    }

    #[test]
    fn t2_corrected_recompute_redelivers_when_delta_moves_under_a_fixed_version() {
        // Stage 0, 3 recompute slots: gap = τ_fwd − 3/2 = 1 > 0, and both
        // (t=1, n=1) and (t=2, n=0) read version 0 — only δ differs.
        let mut c = t2_spec(0);
        c.recomp_slots = Some(3);
        c.recomp_t2 = true;
        let mut st = StageShard::new(c, vec![1.0; 4]).unwrap();
        let mut held = Vec::new();
        assert!(receive(&mut st, &mut held, 0, 0, PassKind::Recomp));
        st.apply_grad(0, 0.5, true, &[1.0; 4]).unwrap();
        st.commit(0, true).unwrap();
        assert!(receive(&mut st, &mut held, 1, 0, PassKind::Recomp), "δ moved at commit");
        assert!(!receive(&mut st, &mut held, 1, 1, PassKind::Recomp));
        st.apply_grad(1, 0.5, true, &[1.0; 4]).unwrap();
        st.commit(1, true).unwrap();
        assert!(receive(&mut st, &mut held, 2, 0, PassKind::Recomp), "same version, new δ");
    }

    #[test]
    fn latest_is_always_planned_and_leaves_pass_slots_alone() {
        let mut st = StageShard::new(spec(0, 0), vec![1.0; 4]).unwrap();
        let mut held = Vec::new();
        assert!(receive(&mut st, &mut held, 0, 0, PassKind::Fwd));
        for _ in 0..2 {
            let plan = st.plan_if_changed(7, 0, PassKind::Latest, None).unwrap();
            assert_eq!(st.read(plan.expect("latest always plans")), st.latest());
        }
        assert!(!receive(&mut st, &mut held, 0, 1, PassKind::Fwd), "Fwd slot survives Latest");
    }

    #[test]
    fn restore_reinstates_the_window_and_forgets_deliveries() {
        let mut a = StageShard::new(t2_spec(0), vec![1.0; 4]).unwrap();
        let mut held = Vec::new();
        for t in 0..3 {
            receive(&mut a, &mut held, t, 0, PassKind::Bkwd);
            a.apply_grad(t, 0.5, true, &[1.0; 4]).unwrap();
            a.commit(t, true).unwrap();
        }
        let mut b = StageShard::new(t2_spec(0), vec![9.0; 4]).unwrap();
        receive(&mut b, &mut held, 0, 0, PassKind::Fwd);
        let (m, v, steps) = a.optimizer().state();
        b.restore(a.history().snapshot(), a.delta().to_vec(), (m.to_vec(), v.to_vec(), steps))
            .unwrap();
        assert_eq!(b.committed_steps(), 3);
        assert_eq!(b.latest(), a.latest());
        assert!(receive(&mut b, &mut held, 3, 0, PassKind::Fwd), "restore forgets deliveries");
        assert_eq!(fetch(&b, 3, 1, PassKind::Bkwd), fetch(&a, 3, 1, PassKind::Bkwd));
        let short = vec![(0, vec![0.0; 3])];
        assert!(matches!(
            b.restore(short, vec![0.0; 4], (Vec::new(), Vec::new(), 0)),
            Err(ShardError::Config(_))
        ));
    }
}
