//! Training configuration: defined in `pipemare-pipeline` next to the
//! [`pipemare_pipeline::StageShard`] state it configures, and re-exported
//! here at its original path.

pub use pipemare_pipeline::{RecomputeCfg, TrainConfig, TrainMode};
