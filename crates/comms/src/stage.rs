//! Worker-side weight-shard state machine.
//!
//! A [`ShardStage`] owns one stage's slice of the parameter vector: its
//! version history, optimizer slice, and T2 velocity buffer δ. It
//! answers [`crate::protocol::PassKind`] fetches with exactly the
//! delayed/corrected weight versions the in-process
//! `PipelineTrainer` would assemble, and applies optimizer updates via
//! a stage-then-commit protocol so the orchestrator can revert a
//! diverged step across all shards atomically.
//!
//! Bit-identity contract: every floating-point operation here mirrors
//! `pipemare_core::PipelineTrainer::train_minibatch` operation for
//! operation (same f64→f32 casts, same element order), so a distributed
//! run with pinned seeds reproduces the in-process run bit for bit.

use pipemare_optim::Optimizer;
use pipemare_pipeline::{Method, PipelineClock, WeightHistory};

use crate::codec::TensorPayload;
use crate::error::CommsError;
use crate::protocol::{PassKind, StageConfig, PROTOCOL_VERSION};

/// One pipeline stage's shard of the model: weight-version history,
/// optimizer state, and T2 velocity, all shard-sized.
pub struct ShardStage {
    cfg: StageConfig,
    clock: PipelineClock,
    history: WeightHistory,
    opt: Optimizer,
    /// T2 velocity buffer δ for this shard.
    delta: Vec<f32>,
    /// Post-optimizer weights awaiting commit: `(step, values)`.
    staged: Option<(u64, Vec<f32>)>,
    /// Next step this shard expects (= number of committed steps).
    committed: u64,
    /// Identity of the payload last shipped per training pass (`Fwd`,
    /// `Bkwd`, `Recomp`), for [`ShardStage::fetch_if_changed`].
    shipped: [Option<ShipKey>; 3],
}

/// Everything that determines a served payload's bits: the stored
/// version (and whether it is held as bf16 — a commit demotes the
/// previous latest) plus, for a T2-corrected pass, the gap and the δ it
/// was extrapolated along.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ShipKey {
    version: usize,
    bf16: bool,
    /// `(gap bits, committed steps when δ was read)`.
    correction: Option<(u64, u64)>,
}

impl ShardStage {
    /// Validates a handshake config without committing any state — the
    /// worker runs this at Hello time, before the init shard arrives, so
    /// version/shape mismatches are reported in the handshake reply.
    pub fn validate(cfg: &StageConfig) -> Result<(), CommsError> {
        if cfg.protocol != PROTOCOL_VERSION {
            return Err(CommsError::Handshake(format!(
                "protocol mismatch: orchestrator speaks v{}, worker speaks v{}",
                cfg.protocol, PROTOCOL_VERSION
            )));
        }
        if cfg.stage >= cfg.stages {
            return Err(CommsError::Handshake(format!(
                "stage id {} out of range for {} stages",
                cfg.stage, cfg.stages
            )));
        }
        if cfg.n_micro == 0 || cfg.stages == 0 {
            return Err(CommsError::Handshake("stages and n_micro must be positive".into()));
        }
        if cfg.shard_lo >= cfg.shard_hi || cfg.shard_hi > cfg.param_len {
            return Err(CommsError::Handshake(format!(
                "shard bounds [{}, {}) invalid for param_len {}",
                cfg.shard_lo, cfg.shard_hi, cfg.param_len
            )));
        }
        Ok(())
    }

    /// Validates the handshake config and seeds the shard with its
    /// initial weights (version 0).
    pub fn new(cfg: StageConfig, init: Vec<f32>) -> Result<Self, CommsError> {
        Self::validate(&cfg)?;
        let shard_len = (cfg.shard_hi - cfg.shard_lo) as usize;
        if init.len() != shard_len {
            return Err(CommsError::Handshake(format!(
                "init shard has {} values, shard bounds promise {}",
                init.len(),
                shard_len
            )));
        }
        let clock = PipelineClock::new(cfg.stages as usize, cfg.n_micro as usize);
        let history =
            WeightHistory::with_precision(clock.history_depth() + 1, init, cfg.weight_storage);
        let opt = Optimizer::new(cfg.opt, shard_len);
        Ok(ShardStage {
            delta: vec![0.0; shard_len],
            staged: None,
            committed: 0,
            shipped: [None; 3],
            cfg,
            clock,
            history,
            opt,
        })
    }

    /// This shard's stage id.
    pub fn stage(&self) -> u32 {
        self.cfg.stage
    }

    /// Number of committed optimizer steps.
    pub fn committed_steps(&self) -> u64 {
        self.committed
    }

    /// Shard length in parameters.
    pub fn len(&self) -> usize {
        (self.cfg.shard_hi - self.cfg.shard_lo) as usize
    }

    /// Whether the shard is empty (never true for a valid config).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The latest committed shard values.
    pub fn latest(&self) -> &[f32] {
        self.history.latest()
    }

    fn check_step(&self, step: u64, what: &str) -> Result<(), CommsError> {
        if step != self.committed {
            return Err(CommsError::Protocol(format!(
                "stage {}: {what} for step {step} but shard is at step {}",
                self.cfg.stage, self.committed
            )));
        }
        Ok(())
    }

    /// Resolves one pass to `(weight version, T2 extrapolation gap)`:
    /// the version selection and correction decision the in-process
    /// trainer would make. A `None` gap means the stored version is
    /// served untouched.
    fn plan(
        &self,
        step: u64,
        micro: u32,
        pass: PassKind,
    ) -> Result<(usize, Option<f64>), CommsError> {
        // Latest is step-free: a serving frontend fetches whatever is
        // committed right now without tracking the worker's step, so
        // the step/micro echo is not validated for it.
        if pass != PassKind::Latest {
            self.check_step(step, "fetch")?;
            if micro >= self.cfg.n_micro {
                return Err(CommsError::Protocol(format!(
                    "stage {}: microbatch {micro} out of range ({} per step)",
                    self.cfg.stage, self.cfg.n_micro
                )));
            }
        }
        let t = step as usize;
        let n = micro as usize;
        let s = self.cfg.stage as usize;
        let sync_phase = step < self.cfg.warmup_steps;
        let t2_on = self.cfg.t2_decay.is_some();
        match pass {
            PassKind::Latest => Ok((self.history.latest_version(), None)),
            PassKind::Fwd => {
                let version =
                    if sync_phase { t } else { self.clock.fwd_version(self.cfg.method, t, n, s) };
                Ok((version, None))
            }
            PassKind::Bkwd => {
                let version =
                    if sync_phase { t } else { self.clock.bkwd_version(self.cfg.method, t, n, s) };
                // T2: extrapolate toward the forward version along δ
                // (τ_bkwd = 0 for PipeMare, so the gap is τ_fwd).
                let gap = (!sync_phase && self.cfg.method == Method::PipeMare && t2_on)
                    .then(|| self.clock.nominal_tau_fwd(s));
                Ok((version, gap))
            }
            PassKind::Recomp => {
                let slots = self.cfg.recomp_slots.ok_or_else(|| {
                    CommsError::Protocol(format!(
                        "stage {}: recompute fetch but no recompute configured",
                        self.cfg.stage
                    ))
                })? as usize;
                let n_micro = self.cfg.n_micro as usize;
                let m = (t * n_micro + n) as i64 - slots as i64;
                let version = m.div_euclid(n_micro as i64).clamp(0, t as i64) as usize;
                let gap = if self.cfg.recomp_t2 && t2_on {
                    let g = self.clock.nominal_tau_fwd(s) - slots as f64 / n_micro as f64;
                    (g > 0.0).then_some(g)
                } else {
                    None
                };
                Ok((version, gap))
            }
        }
    }

    /// The stored `version`, extrapolated `gap` steps back along δ when
    /// a T2 correction applies.
    fn corrected(&self, version: usize, gap: Option<f64>) -> Vec<f32> {
        let mut out = self.history.get(version).into_owned();
        if let Some(gap) = gap {
            for (b, &d) in out.iter_mut().zip(self.delta.iter()) {
                *b -= gap as f32 * d;
            }
        }
        out
    }

    /// Serves the shard values for one pass of `(step, micro)`,
    /// applying the version selection and T2 corrections the in-process
    /// trainer would.
    pub fn fetch(&self, step: u64, micro: u32, pass: PassKind) -> Result<Vec<f32>, CommsError> {
        let (version, gap) = self.plan(step, micro, pass)?;
        Ok(self.corrected(version, gap))
    }

    fn payload(&self, version: usize, gap: Option<f64>) -> TensorPayload {
        if gap.is_none() {
            if let Some(bits) = self.history.stored_bf16(version) {
                return TensorPayload::DenseBf16(bits.to_vec());
            }
        }
        TensorPayload::Dense(self.corrected(version, gap))
    }

    /// [`ShardStage::fetch`] as a wire payload, for a link that keeps
    /// the last payload it received per training pass. Returns `None`
    /// when the planned payload is the one this stage last shipped for
    /// `pass` (the receiver's copy is still exact); otherwise the
    /// payload, remembered as the pass's new last-shipped identity.
    /// [`PassKind::Latest`] always ships and leaves the per-pass memory
    /// alone.
    ///
    /// Uncorrected fetches of bf16-stored versions ship the stored bits
    /// verbatim ([`TensorPayload::DenseBf16`], half the bytes); widening
    /// on the orchestrator side is exact, so every payload decodes to
    /// the identical f32 vector [`ShardStage::fetch`] returns.
    pub fn fetch_if_changed(
        &mut self,
        step: u64,
        micro: u32,
        pass: PassKind,
    ) -> Result<Option<TensorPayload>, CommsError> {
        let (version, gap) = self.plan(step, micro, pass)?;
        let slot = match pass {
            PassKind::Fwd => 0,
            PassKind::Bkwd => 1,
            PassKind::Recomp => 2,
            PassKind::Latest => return Ok(Some(self.payload(version, gap))),
        };
        let key = ShipKey {
            version: self.history.resolve(version),
            bf16: self.history.stored_bf16(version).is_some(),
            // δ changes only at commit, so the commit count dates it.
            correction: gap.map(|g| (g.to_bits(), self.committed)),
        };
        if self.shipped[slot] == Some(key) {
            return Ok(None);
        }
        self.shipped[slot] = Some(key);
        Ok(Some(self.payload(version, gap)))
    }

    /// Runs the optimizer on this shard's slice of the minibatch
    /// gradient and stages the result. Returns `(sq_norm, finite)`: the
    /// staged shard's Σx² and whether it is entirely finite.
    ///
    /// `apply = false` (the orchestrator saw a non-finite gradient)
    /// stages the old weights untouched and leaves the optimizer's step
    /// counter alone, matching the in-process trainer's skip.
    pub fn apply_grad(
        &mut self,
        step: u64,
        lr: f32,
        apply: bool,
        grad: &[f32],
    ) -> Result<(f64, bool), CommsError> {
        self.check_step(step, "apply_grad")?;
        if self.staged.is_some() {
            return Err(CommsError::Protocol(format!(
                "stage {}: step {step} already staged and uncommitted",
                self.cfg.stage
            )));
        }
        if grad.len() != self.len() {
            return Err(CommsError::Protocol(format!(
                "stage {}: gradient has {} values, shard holds {}",
                self.cfg.stage,
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
        let sq_norm = w.iter().map(|&x| x as f64 * x as f64).sum::<f64>();
        self.staged = Some((step, w));
        Ok((sq_norm, finite))
    }

    /// Commits (`keep = true`) or reverts (`keep = false`) the staged
    /// step, advancing the shard to version `step + 1` either way and
    /// updating δ from the realized weight change — a revert therefore
    /// decays δ by γ, exactly like the trainer's divergence path.
    /// Optimizer moment buffers are never rolled back (the trainer
    /// doesn't either). Returns the committed shard's Σx².
    pub fn commit(&mut self, step: u64, keep: bool) -> Result<f64, CommsError> {
        self.check_step(step, "commit")?;
        let (staged_step, staged_w) = self.staged.take().ok_or_else(|| {
            CommsError::Protocol(format!(
                "stage {}: commit for step {step} with nothing staged",
                self.cfg.stage
            ))
        })?;
        debug_assert_eq!(staged_step, step);
        let old = self.history.latest().to_vec();
        let pushed = if keep { staged_w } else { old.clone() };
        if self.cfg.t2_decay.is_some() {
            let g = self.cfg.gamma as f32;
            for i in 0..pushed.len() {
                self.delta[i] = g * self.delta[i] + (1.0 - g) * (pushed[i] - old[i]);
            }
        }
        let sq_norm = pushed.iter().map(|&x| x as f64 * x as f64).sum::<f64>();
        self.history.push(step as usize + 1, pushed);
        self.committed = step + 1;
        Ok(sq_norm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemare_optim::OptimizerKind;

    fn cfg(stage: u32, warmup: u64) -> StageConfig {
        StageConfig {
            protocol: PROTOCOL_VERSION,
            stage,
            stages: 3,
            n_micro: 2,
            method: Method::PipeMare,
            param_len: 12,
            shard_lo: 4 * stage as u64,
            shard_hi: 4 * stage as u64 + 4,
            opt: OptimizerKind::Sgd { weight_decay: 0.0 },
            t2_decay: None,
            gamma: 0.0,
            recomp_slots: None,
            recomp_t2: false,
            warmup_steps: warmup,
            weight_storage: pipemare_tensor::StoragePrecision::F32,
        }
    }

    #[test]
    fn handshake_validation_rejects_bad_configs() {
        let mut bad = cfg(0, 0);
        bad.protocol = PROTOCOL_VERSION + 1;
        assert!(matches!(ShardStage::new(bad, vec![0.0; 4]), Err(CommsError::Handshake(_))));
        let mut bad = cfg(0, 0);
        bad.shard_hi = 100;
        assert!(matches!(ShardStage::new(bad, vec![0.0; 96]), Err(CommsError::Handshake(_))));
        assert!(matches!(ShardStage::new(cfg(0, 0), vec![0.0; 3]), Err(CommsError::Handshake(_))));
        assert!(matches!(ShardStage::new(cfg(5, 0), vec![0.0; 4]), Err(CommsError::Handshake(_))));
    }

    #[test]
    fn sgd_step_stage_commit_advances_versions() {
        let mut st = ShardStage::new(cfg(0, 0), vec![1.0; 4]).unwrap();
        let (sq, finite) = st.apply_grad(0, 0.5, true, &[1.0, 2.0, 0.0, -1.0]).unwrap();
        assert!(finite);
        // staged: [0.5, 0.0, 1.0, 1.5] → Σx² = 0.25 + 0 + 1 + 2.25.
        assert!((sq - 3.5).abs() < 1e-12);
        st.commit(0, true).unwrap();
        assert_eq!(st.latest(), &[0.5, 0.0, 1.0, 1.5]);
        assert_eq!(st.committed_steps(), 1);
    }

    #[test]
    fn revert_keeps_old_weights_but_advances_the_clock() {
        let mut st = ShardStage::new(cfg(0, 0), vec![1.0; 4]).unwrap();
        st.apply_grad(0, 1e30, true, &[1e30; 4]).unwrap();
        let sq = st.commit(0, false).unwrap();
        assert_eq!(st.latest(), &[1.0; 4]);
        assert!((sq - 4.0).abs() < 1e-12);
        assert_eq!(st.committed_steps(), 1);
    }

    #[test]
    fn stale_step_and_double_stage_are_protocol_errors() {
        let mut st = ShardStage::new(cfg(0, 0), vec![1.0; 4]).unwrap();
        assert!(matches!(st.fetch(3, 0, PassKind::Fwd), Err(CommsError::Protocol(_))));
        st.apply_grad(0, 0.1, true, &[0.0; 4]).unwrap();
        assert!(matches!(st.apply_grad(0, 0.1, true, &[0.0; 4]), Err(CommsError::Protocol(_))));
        assert!(matches!(st.commit(1, true), Err(CommsError::Protocol(_))));
    }

    #[test]
    fn warmup_fetch_is_synchronous() {
        // During warmup every pass reads the latest version regardless of
        // the pipeline clock.
        let mut st = ShardStage::new(cfg(0, 10), vec![1.0; 4]).unwrap();
        st.apply_grad(0, 0.5, true, &[1.0; 4]).unwrap();
        st.commit(0, true).unwrap();
        let fwd = st.fetch(1, 0, PassKind::Fwd).unwrap();
        let bkwd = st.fetch(1, 1, PassKind::Bkwd).unwrap();
        assert_eq!(fwd, vec![0.5; 4]);
        assert_eq!(fwd, bkwd);
    }

    #[test]
    fn async_fetch_reads_delayed_versions() {
        // Stage 0 of P = 3, N = 2 has delay_slots = 5; at t = 1, n = 0 the
        // fwd version is max(0, (2·1+0−5)) div 2 → 0, i.e. still the
        // initial weights, while the bkwd version is t itself.
        let mut st = ShardStage::new(cfg(0, 0), vec![1.0; 4]).unwrap();
        st.apply_grad(0, 0.5, true, &[1.0; 4]).unwrap();
        st.commit(0, true).unwrap();
        let fwd = st.fetch(1, 0, PassKind::Fwd).unwrap();
        let bkwd = st.fetch(1, 0, PassKind::Bkwd).unwrap();
        assert_eq!(fwd, vec![1.0; 4], "stage 0 forward must lag");
        assert_eq!(bkwd, vec![0.5; 4], "PipeMare backward reads fresh weights");
    }

    #[test]
    fn bf16_shard_ships_stored_bits_for_delayed_fetches() {
        let mut c = cfg(0, 0);
        c.weight_storage = pipemare_tensor::StoragePrecision::Bf16;
        let init = vec![0.1f32, 0.2, 0.3, 0.4];
        let mut st = ShardStage::new(c, init).unwrap();
        st.apply_grad(0, 0.5, true, &[1.0; 4]).unwrap();
        st.commit(0, true).unwrap();
        // Latest is still the exact f32 master.
        match st.fetch_if_changed(1, 0, PassKind::Latest).unwrap().unwrap() {
            TensorPayload::Dense(v) => assert_eq!(v, st.latest()),
            other => panic!("latest must be dense f32, got {other:?}"),
        }
        // Stage 0's forward at t=1 lags to version 0, which was demoted
        // to bf16 at commit — the payload carries the raw bits, and
        // widening reproduces fetch() exactly.
        let fetched = st.fetch(1, 0, PassKind::Fwd).unwrap();
        match st.fetch_if_changed(1, 0, PassKind::Fwd).unwrap().unwrap() {
            TensorPayload::DenseBf16(bits) => {
                assert_eq!(pipemare_tensor::bf16::decode_slice(&bits), fetched);
            }
            other => panic!("delayed fetch must ship bf16, got {other:?}"),
        }
    }

    #[test]
    fn t2_delta_tracks_weight_velocity_and_corrects_bkwd() {
        let mut c = cfg(0, 0);
        c.t2_decay = Some(0.5);
        // γ = d^{1/τ_fwd}, stage 0, P=3, N=2 → τ_fwd = 5/2.
        let tau = 2.5f64;
        c.gamma = 0.5f64.powf(1.0 / tau);
        let mut st = ShardStage::new(c, vec![1.0; 4]).unwrap();
        st.apply_grad(0, 0.5, true, &[1.0; 4]).unwrap();
        st.commit(0, true).unwrap();
        // δ = (1−γ)(0.5 − 1.0).
        let g = 0.5f64.powf(1.0 / tau) as f32;
        let expect_delta = (1.0 - g) * -0.5;
        let bkwd = st.fetch(1, 0, PassKind::Bkwd).unwrap();
        // bkwd = latest − τ_fwd·δ (δ negative → correction pushes ahead).
        let expect = 0.5 - tau as f32 * expect_delta;
        assert!((bkwd[0] - expect).abs() < 1e-6, "{} vs {expect}", bkwd[0]);
    }

    /// Applies one conditional reply the way the orchestrator does (a
    /// shipped payload replaces `held`, an unchanged reply keeps it),
    /// checks `held` equals `fetch()` bit for bit, and returns whether
    /// the payload shipped.
    fn receive(
        st: &mut ShardStage,
        held: &mut Vec<f32>,
        step: u64,
        micro: u32,
        pass: PassKind,
    ) -> bool {
        let shipped = match st.fetch_if_changed(step, micro, pass).unwrap() {
            Some(payload) => {
                *held = payload.into_dense();
                true
            }
            None => false,
        };
        let want = st.fetch(step, micro, pass).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(held), bits(&want), "step {step} micro {micro} {pass:?}");
        shipped
    }

    fn t2_cfg(stage: u32) -> StageConfig {
        let mut c = cfg(stage, 0);
        c.t2_decay = Some(0.5);
        c.gamma = 0.5f64.powf(1.0 / PipelineClock::new(3, 2).nominal_tau_fwd(stage as usize));
        c
    }

    #[test]
    fn bf16_demotion_reships_a_version_first_shipped_as_f32() {
        // Stage 2 of P = 3, N = 2 has delay_slots = 1: microbatch 1 reads
        // the latest version (f32), and microbatch 0 of the next step
        // reads the same version after the commit demoted it to bf16.
        let mut c = cfg(2, 0);
        c.weight_storage = pipemare_tensor::StoragePrecision::Bf16;
        let mut st = ShardStage::new(c, vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        let mut held = Vec::new();
        assert!(receive(&mut st, &mut held, 0, 0, PassKind::Fwd));
        assert!(!receive(&mut st, &mut held, 0, 1, PassKind::Fwd), "same f32 version 0");
        let f32_v0 = held.clone();
        st.apply_grad(0, 0.5, true, &[1.0; 4]).unwrap();
        st.commit(0, true).unwrap();
        assert!(receive(&mut st, &mut held, 1, 0, PassKind::Fwd), "v0 demoted to bf16");
        assert_ne!(held, f32_v0, "demotion rounds these values, so a stale copy would differ");
        assert!(receive(&mut st, &mut held, 1, 1, PassKind::Fwd), "v1 is the f32 latest");
        st.apply_grad(1, 0.5, true, &[1.0; 4]).unwrap();
        st.commit(1, true).unwrap();
        assert!(receive(&mut st, &mut held, 2, 0, PassKind::Fwd), "v1 demoted to bf16");
    }

    #[test]
    fn t2_corrected_bkwd_reships_after_every_commit_including_a_revert() {
        let mut st = ShardStage::new(t2_cfg(0), vec![1.0; 4]).unwrap();
        let mut held = Vec::new();
        assert!(receive(&mut st, &mut held, 0, 0, PassKind::Bkwd));
        assert!(!receive(&mut st, &mut held, 0, 1, PassKind::Bkwd), "δ fixed within a step");
        st.apply_grad(0, 0.5, true, &[1.0; 4]).unwrap();
        st.commit(0, true).unwrap();
        assert!(receive(&mut st, &mut held, 1, 0, PassKind::Bkwd));
        assert!(!receive(&mut st, &mut held, 1, 1, PassKind::Bkwd));
        let before_revert = held.clone();
        // A revert keeps the weights but decays δ by γ: the corrected
        // payload changes, so it must ship.
        st.apply_grad(1, 1e30, true, &[1e30; 4]).unwrap();
        st.commit(1, false).unwrap();
        assert_eq!(st.latest(), &[0.5; 4], "revert restores the committed weights");
        assert!(receive(&mut st, &mut held, 2, 0, PassKind::Bkwd));
        assert_ne!(held, before_revert, "decayed δ moves the corrected payload");
        assert!(!receive(&mut st, &mut held, 2, 1, PassKind::Bkwd));
    }

    #[test]
    fn t2_corrected_recompute_reships_when_delta_moves_under_a_fixed_version() {
        // Stage 0, 3 recompute slots: gap = τ_fwd − 3/2 = 1 > 0, and both
        // (t=1, n=1) and (t=2, n=0) read version 0 — only δ differs.
        let mut c = t2_cfg(0);
        c.recomp_slots = Some(3);
        c.recomp_t2 = true;
        let mut st = ShardStage::new(c, vec![1.0; 4]).unwrap();
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
    fn latest_always_ships_in_full_and_leaves_pass_slots_alone() {
        let mut st = ShardStage::new(cfg(0, 0), vec![1.0; 4]).unwrap();
        let mut held = Vec::new();
        assert!(receive(&mut st, &mut held, 0, 0, PassKind::Fwd));
        for _ in 0..2 {
            match st.fetch_if_changed(0, 0, PassKind::Latest).unwrap() {
                Some(TensorPayload::Dense(v)) => assert_eq!(v, st.latest()),
                other => panic!("latest must ship dense f32, got {other:?}"),
            }
        }
        assert!(!receive(&mut st, &mut held, 0, 1, PassKind::Fwd), "Fwd slot survives Latest");
    }
}
