//! Where serving weights come from: a static snapshot, or live
//! `PassKind::Latest` fetches from the training stage workers.
//!
//! The second mode is the asynchronous-pipeline payoff: the same
//! workers that hold versioned shards for PipeMare training answer
//! step-free `Latest` fetches, so a serving frontend can refresh its
//! parameter vector mid-training without pausing either side.

use std::time::Duration;

use pipemare_comms::stage::host_stage_config;
use pipemare_comms::{handshake_worker, CommsError, Message, PassKind, Transport, WorkerLink};
use pipemare_nn::ServeSplit;
use pipemare_pipeline::Method;
use pipemare_telemetry::TraceRecorder;

/// Supplies the full parameter vector on demand.
pub trait WeightSource: Send {
    /// Writes the freshest available parameters into `out`.
    fn fetch_latest(&mut self, out: &mut [f32]) -> Result<(), CommsError>;

    /// Releases whatever backs the source (e.g. tells shard workers to
    /// exit). Best-effort; the default does nothing.
    fn shutdown(self: Box<Self>) {}
}

/// A frozen snapshot — serving a trained checkpoint.
pub struct StaticWeights;

impl WeightSource for StaticWeights {
    fn fetch_latest(&mut self, _out: &mut [f32]) -> Result<(), CommsError> {
        Ok(())
    }
}

/// Live weights assembled from per-stage shard workers over comms
/// links: each refresh sends a step-free `FetchShard { pass: Latest }`
/// to every worker and splices the replies into the full vector.
pub struct ShardWeightSource {
    links: Vec<WorkerLink>,
    splits: Vec<ServeSplit>,
}

impl ShardWeightSource {
    /// Handshakes one worker per split and seeds each with its shard of
    /// `init` (the workers become plain weight hosts; nothing stops a
    /// trainer from driving the same workers through a second link).
    ///
    /// # Panics
    ///
    /// Panics if `transports.len() != splits.len()` or `init` is not
    /// the full parameter vector.
    pub fn connect(
        transports: Vec<Box<dyn Transport>>,
        splits: Vec<ServeSplit>,
        init: &[f32],
        param_len: usize,
        recv_timeout: Option<Duration>,
    ) -> Result<Self, CommsError> {
        assert_eq!(transports.len(), splits.len(), "one transport per stage split");
        assert_eq!(init.len(), param_len, "init must be the full parameter vector");
        let clock = TraceRecorder::with_tracks(splits.len() + 1);
        let mut links = Vec::with_capacity(splits.len());
        for (s, transport) in transports.into_iter().enumerate() {
            let (lo, hi) = (splits[s].param_lo, splits[s].param_hi);
            let cfg = host_stage_config(Method::GPipe, (s, splits.len()), 1, (lo, hi), param_len);
            let mut link = handshake_worker(transport, cfg, recv_timeout, &clock)?;
            link.send(&Message::InitShard { params: init[lo..hi].to_vec() })?;
            links.push(link);
        }
        Ok(ShardWeightSource { links, splits })
    }
}

impl WeightSource for ShardWeightSource {
    fn fetch_latest(&mut self, out: &mut [f32]) -> Result<(), CommsError> {
        for (s, link) in self.links.iter_mut().enumerate() {
            let (lo, hi) = (self.splits[s].param_lo, self.splits[s].param_hi);
            link.send(&Message::FetchShard { step: 0, micro: 0, pass: PassKind::Latest })?;
            match link.recv()? {
                Message::Shard { pass: PassKind::Latest, data, .. } => {
                    if data.dense_len() != hi - lo {
                        return Err(CommsError::Protocol(format!(
                            "stage {s}: latest shard has {} values, expected {}",
                            data.dense_len(),
                            hi - lo
                        )));
                    }
                    out[lo..hi].copy_from_slice(&data.into_dense());
                }
                other => {
                    return Err(CommsError::Protocol(format!(
                        "stage {s}: expected latest Shard, got {}",
                        other.name()
                    )))
                }
            }
        }
        Ok(())
    }

    /// Sends `Shutdown` to every worker and drains the telemetry + ack
    /// replies. Errors on workers that already died are ignored —
    /// shutdown is best-effort by design.
    fn shutdown(mut self: Box<Self>) {
        for link in &mut self.links {
            if link.send(&Message::Shutdown).is_err() {
                continue;
            }
            // The worker ships a final Telemetry batch before its ack.
            loop {
                match link.recv() {
                    Ok(Message::ShutdownAck { .. }) | Err(_) => break,
                    Ok(_) => continue,
                }
            }
        }
    }
}
