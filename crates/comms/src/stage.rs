//! The wire side of a stage worker's [`StageShard`].
//!
//! The shard itself — version selection, T2 extrapolation, the δ update
//! and stage/commit — lives in `pipemare-pipeline` and is the same state
//! machine the in-process `PipelineTrainer` drives, so a distributed run
//! with pinned seeds reproduces the in-process run bit for bit (the
//! reference oracle in the root package's `tests/trainer_reference.rs`
//! pins that shared math independently). This module only translates:
//! the handshake [`StageConfig`] to and from a [`ShardSpec`], shard
//! errors to [`CommsError`], and planned reads to wire payloads.

use pipemare_optim::OptimizerKind;
use pipemare_pipeline::{Method, ShardError, ShardSpec, StageShard};
use pipemare_tensor::StoragePrecision;

use crate::codec::TensorPayload;
use crate::error::CommsError;
use crate::protocol::{PassKind, StageConfig, PROTOCOL_VERSION};

impl From<ShardError> for CommsError {
    fn from(e: ShardError) -> Self {
        match e {
            ShardError::Config(m) => CommsError::Handshake(m),
            ShardError::Protocol(m) => CommsError::Protocol(m),
        }
    }
}

/// The handshake config that carries `spec` to a worker.
///
/// # Panics
///
/// Panics on a Hogwild spec (no method): the distributed trainer
/// rejects Hogwild before any handshake.
pub fn stage_config(spec: &ShardSpec) -> StageConfig {
    StageConfig {
        protocol: PROTOCOL_VERSION,
        stage: spec.stage as u32,
        stages: spec.stages as u32,
        n_micro: spec.n_micro as u32,
        method: spec.method.expect("the distributed trainer rejects Hogwild"),
        param_len: spec.param_len as u64,
        shard_lo: spec.lo as u64,
        shard_hi: spec.hi as u64,
        opt: spec.opt,
        t2_decay: spec.t2_decay,
        gamma: spec.gamma,
        recomp_slots: spec.recomp_slots.map(|s| s as u32),
        recomp_t2: spec.recomp_t2,
        warmup_steps: spec.warmup_steps as u64,
        weight_storage: spec.weight_storage,
    }
}

/// The handshake for a plain weight host: stage `stage` of `stages`
/// holding `[lo, hi)` of `param_len` parameters under SGD, with no T2,
/// recompute or warmup — serving's weight workers and token mode's
/// placeholder shards.
pub fn host_stage_config(
    method: Method,
    (stage, stages): (usize, usize),
    n_micro: usize,
    (lo, hi): (usize, usize),
    param_len: usize,
) -> StageConfig {
    stage_config(&ShardSpec {
        stage,
        stages,
        n_micro,
        method: Some(method),
        param_len,
        lo,
        hi,
        opt: OptimizerKind::Sgd { weight_decay: 0.0 },
        t2_decay: None,
        gamma: 0.0,
        recomp_slots: None,
        recomp_t2: false,
        warmup_steps: 0,
        weight_storage: StoragePrecision::F32,
    })
}

/// The shard spec a handshake config describes.
pub fn shard_spec(cfg: &StageConfig) -> ShardSpec {
    ShardSpec {
        stage: cfg.stage as usize,
        stages: cfg.stages as usize,
        n_micro: cfg.n_micro as usize,
        method: Some(cfg.method),
        param_len: cfg.param_len as usize,
        lo: cfg.shard_lo as usize,
        hi: cfg.shard_hi as usize,
        opt: cfg.opt,
        t2_decay: cfg.t2_decay,
        gamma: cfg.gamma,
        recomp_slots: cfg.recomp_slots.map(|s| s as usize),
        recomp_t2: cfg.recomp_t2,
        warmup_steps: cfg.warmup_steps as usize,
        weight_storage: cfg.weight_storage,
    }
}

/// Validates a handshake config without building anything — the worker
/// runs this at Hello time, before the init shard arrives, so version
/// and shape mismatches are reported in the handshake reply.
pub fn validate(cfg: &StageConfig) -> Result<(), CommsError> {
    if cfg.protocol != PROTOCOL_VERSION {
        return Err(CommsError::Handshake(format!(
            "protocol mismatch: orchestrator speaks v{}, worker speaks v{}",
            cfg.protocol, PROTOCOL_VERSION
        )));
    }
    Ok(StageShard::validate(&shard_spec(cfg))?)
}

/// One pass's read as a wire payload, for a link that keeps the last
/// payload it received per training pass: `None` when the shard's read
/// is unchanged since it last shipped for `pass`.
///
/// Uncorrected reads of bf16-stored versions ship the stored bits
/// verbatim ([`TensorPayload::DenseBf16`], half the bytes); widening on
/// the orchestrator side is exact, so every payload decodes to the
/// identical f32 values the in-process trainer reads.
pub fn fetch_if_changed(
    shard: &mut StageShard,
    step: u64,
    micro: u32,
    pass: PassKind,
) -> Result<Option<TensorPayload>, CommsError> {
    let Some(plan) = shard.plan_if_changed(step as usize, micro as usize, pass, None)? else {
        return Ok(None);
    };
    Ok(Some(match shard.stored_bf16(plan) {
        Some(bits) => TensorPayload::DenseBf16(bits.to_vec()),
        None => TensorPayload::Dense(shard.read(plan)),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(stage: u32) -> StageConfig {
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
            warmup_steps: 0,
            weight_storage: StoragePrecision::F32,
        }
    }

    fn shard(c: StageConfig, init: Vec<f32>) -> Result<StageShard, CommsError> {
        validate(&c)?;
        Ok(StageShard::new(shard_spec(&c), init)?)
    }

    #[test]
    fn handshake_validation_rejects_bad_configs() {
        let mut bad = cfg(0);
        bad.protocol = PROTOCOL_VERSION + 1;
        assert!(matches!(shard(bad, vec![0.0; 4]), Err(CommsError::Handshake(_))));
        let mut bad = cfg(0);
        bad.shard_hi = 100;
        assert!(matches!(shard(bad, vec![0.0; 96]), Err(CommsError::Handshake(_))));
        assert!(matches!(shard(cfg(0), vec![0.0; 3]), Err(CommsError::Handshake(_))));
        assert!(matches!(shard(cfg(5), vec![0.0; 4]), Err(CommsError::Handshake(_))));
    }

    #[test]
    fn stage_config_round_trips_through_the_shard_spec() {
        let mut c = cfg(1);
        c.recomp_slots = Some(3);
        c.t2_decay = Some(0.5);
        c.gamma = 0.25;
        c.warmup_steps = 4;
        assert_eq!(stage_config(&shard_spec(&c)), c);
    }

    #[test]
    fn stale_step_is_a_protocol_error() {
        let mut st = shard(cfg(0), vec![1.0; 4]).unwrap();
        assert!(matches!(
            fetch_if_changed(&mut st, 3, 0, PassKind::Fwd),
            Err(CommsError::Protocol(_))
        ));
    }

    #[test]
    fn bf16_shard_ships_stored_bits_for_delayed_fetches() {
        let mut c = cfg(0);
        c.weight_storage = StoragePrecision::Bf16;
        let mut st = shard(c, vec![0.1f32, 0.2, 0.3, 0.4]).unwrap();
        st.apply_grad(0, 0.5, true, &[1.0; 4]).unwrap();
        st.commit(0, true).unwrap();
        // Latest is still the exact f32 master.
        match fetch_if_changed(&mut st, 1, 0, PassKind::Latest).unwrap().unwrap() {
            TensorPayload::Dense(v) => assert_eq!(v, st.latest()),
            other => panic!("latest must be dense f32, got {other:?}"),
        }
        // Stage 0's forward at t=1 lags to version 0, which was demoted
        // to bf16 at commit — the payload carries the raw bits, and
        // widening reproduces the shard's read exactly.
        let fetched = st.read(st.plan(1, 0, PassKind::Fwd, None).unwrap());
        match fetch_if_changed(&mut st, 1, 0, PassKind::Fwd).unwrap().unwrap() {
            TensorPayload::DenseBf16(bits) => {
                assert_eq!(pipemare_tensor::bf16::decode_slice(&bits), fetched);
            }
            other => panic!("delayed fetch must ship bf16, got {other:?}"),
        }
        assert!(fetch_if_changed(&mut st, 1, 1, PassKind::Fwd).unwrap().is_none(), "same v0");
    }
}
