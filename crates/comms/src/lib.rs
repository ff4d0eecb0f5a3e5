//! Multi-process distributed pipeline for the PipeMare stack, over a
//! real transport.
//!
//! Everything the in-process trainer simulates with a [`pipemare_pipeline::PipelineClock`]
//! — delayed weight versions, T2-corrected reads, two-phase commits —
//! this crate runs across real process boundaries:
//!
//! * [`codec`]: a hand-rolled length-prefixed binary wire format (the
//!   workspace has no serde): framed [`codec::TensorPayload`]s carrying
//!   dense or sparse-encoded (threshold / top-k index+value) tensors,
//!   with every malformed input surfacing as a typed
//!   [`error::CodecError`], never a panic.
//! * [`protocol`]: the [`protocol::Message`] set — versioned handshake
//!   with shape/config validation, shard fetches, gradient/commit
//!   two-phase steps, flush barriers, telemetry batches, token-mode
//!   latency pipelining, shutdown.
//! * [`transport`]: blocking [`transport::Sender`]/[`transport::Receiver`]
//!   over a [`transport::Transport`] trait with TCP (`TcpTransport`,
//!   configurable receive timeout) and in-process loopback
//!   ([`transport::loopback_pair`]) implementations, plus wire-byte
//!   accounting ([`transport::WireStats`]).
//! * [`stage`]: the wire side of a worker's
//!   [`pipemare_pipeline::StageShard`] — the same per-stage state machine
//!   (weight-version history, optimizer slice, T2 δ) the in-process
//!   trainer drives, so both read exactly the same versions.
//! * [`worker`]: [`worker::run_stage_worker`] — the message-driven
//!   stage loop (training and token modes).
//! * [`orchestrator`]: [`orchestrator::DistributedTrainer`] (bit-identical
//!   to `PipelineTrainer` under pinned seeds), the token-pipeline hub,
//!   and loopback worker spawning. The `orchestrator` binary wires it
//!   all together end to end.
//!
//! Failures are diagnosable by construction: a dead or wedged worker
//! surfaces as [`error::CommsError::WorkerLost`] carrying the stage id
//! and the last step that worker acknowledged.

pub mod codec;
pub mod error;
pub mod orchestrator;
pub mod protocol;
pub mod stage;
pub mod transport;
pub mod worker;

pub use codec::{SparseMode, TensorPayload, MAX_FRAME};
pub use error::{CodecError, CommsError};
pub use orchestrator::{
    handshake_worker, run_token_pipeline, spawn_loopback_workers, token_stage_config, DistConfig,
    DistRunReport, DistributedTrainer, TokenPipelineReport, WorkerHandle, WorkerLink,
};
pub use protocol::{Message, PassKind, RejectReason, StageConfig, PROTOCOL_VERSION};
pub use transport::{
    channel, loopback_pair, FrameRx, FrameTx, LoopbackTransport, Receiver, Sender, TcpTransport,
    Transport, WireStats,
};
pub use worker::{
    run_stage_worker, run_stage_worker_opts, run_stage_worker_stats, StageWorkerReport,
    WorkerOptions,
};
