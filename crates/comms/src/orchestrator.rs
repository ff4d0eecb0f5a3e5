//! The orchestrator: drives N stage workers over any transport.
//!
//! Topology is a star — the orchestrator holds one link per worker and
//! every exchange on a link is strictly request/reply, so the protocol
//! cannot deadlock. Two drivers live here:
//!
//! * [`DistributedTrainer`] — the distributed counterpart of
//!   `pipemare_core::PipelineTrainer`, taking the same `TrainConfig`.
//!   Model compute (forward/backward) stays on the driver, exactly like
//!   the paper's App. C.4 simulation; each worker holds its stage's
//!   `StageShard` — the state the in-process trainer drives in memory —
//!   serving delayed/T2-corrected versions of it and running the
//!   optimizer. A two-phase stage/commit step keeps all shards atomic
//!   under divergence. With pinned seeds the final weights are
//!   bit-identical to the in-process trainer.
//! * [`run_token_pipeline`] — the distributed counterpart of
//!   `run_threaded_pipeline_traced`: microbatch tokens hop between
//!   workers through the hub, reproducing the latency pipeline (and its
//!   telemetry span multiset) across real transports.
//!
//! Worker telemetry streams back in [`Message::Telemetry`] batches; the
//! orchestrator re-tracks each worker onto its stage id, shifts its
//! timestamps by the NTP-lite clock offset measured at handshake, and
//! merges everything into one trace `pmtrace` can summarize.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use pipemare_nn::TrainModel;
use pipemare_optim::clip_grad_norm;
use pipemare_pipeline::{Method, StagePartition, StepStats, TrainConfig};
use pipemare_telemetry::{
    events_from_jsonl_string, merge_worker_events, sort_events, LiveStore, MetricsRegistry,
    Recorder, SpanKind, TraceEvent, TraceRecorder, NO_MICROBATCH,
};

use crate::codec::{SparseMode, TensorPayload};
use crate::error::CommsError;
use crate::protocol::{Message, PassKind, StageConfig, PROTOCOL_VERSION};
use crate::transport::{channel, Transport, WireStats};

/// Configuration for a [`DistributedTrainer`] run: the training
/// config an in-process `PipelineTrainer` takes, plus how the wire
/// carries it.
pub struct DistConfig {
    /// The training run itself. Hogwild mode is rejected by
    /// [`DistributedTrainer::connect`].
    pub train: TrainConfig,
    /// How gradients are encoded on the wire. [`SparseMode::Dense`] and
    /// [`SparseMode::DropZeros`] are bit-lossless; threshold/top-k trade
    /// fidelity for wire bytes.
    pub sparse_grads: SparseMode,
    /// Receive timeout on every worker link (None blocks forever).
    pub recv_timeout: Option<Duration>,
}

/// Everything a finished distributed run hands back.
#[derive(Clone, Debug)]
pub struct DistRunReport {
    /// The merged trace: every worker's events re-tracked onto its stage
    /// id and clock-shifted into driver time, plus the driver's own
    /// events on track `stages`, sorted by `(ts_us, track)`.
    pub events: Vec<TraceEvent>,
    /// Steps each worker reported committed at shutdown.
    pub worker_steps: Vec<u64>,
    /// Total driver→worker traffic.
    pub sent: WireStats,
    /// Total worker→driver traffic.
    pub recv: WireStats,
}

/// One orchestrator↔worker link: message handles plus the bookkeeping
/// that makes failures diagnosable (stage id, last acked step, clock
/// offset).
pub struct WorkerLink {
    sender: crate::transport::Sender,
    receiver: crate::transport::Receiver,
    stage: u32,
    last_acked: Option<u64>,
    /// Worker clock minus driver clock, microseconds.
    offset_us: i64,
}

impl WorkerLink {
    fn lost(&self, cause: CommsError) -> CommsError {
        CommsError::WorkerLost {
            stage: self.stage,
            last_acked_step: self.last_acked,
            cause: Box::new(cause),
        }
    }

    /// The stage id this link talks to.
    pub fn stage(&self) -> u32 {
        self.stage
    }

    /// Sends one message, wrapping transport failures into
    /// [`CommsError::WorkerLost`] with this link's diagnostics.
    pub fn send(&mut self, msg: &Message) -> Result<(), CommsError> {
        match self.sender.send(msg) {
            Ok(()) => Ok(()),
            Err(e) => Err(self.lost(e)),
        }
    }

    /// Receives one message; a worker-side [`Message::Error`] surfaces
    /// as [`CommsError::Remote`], transport failures as `WorkerLost`.
    pub fn recv(&mut self) -> Result<Message, CommsError> {
        match self.receiver.recv() {
            Ok(Message::Error { message, .. }) => {
                Err(CommsError::Remote { stage: self.stage, message })
            }
            Ok(msg) => Ok(msg),
            Err(e) => Err(self.lost(e)),
        }
    }

    fn protocol(&self, what: &str, got: &Message) -> CommsError {
        CommsError::Protocol(format!("stage {}: expected {what}, got {}", self.stage, got.name()))
    }

    /// Receives the worker's telemetry batch and merges it into `merged`,
    /// re-tracked onto this link's stage and shifted into driver time,
    /// folding the merged events into `live` as well.
    fn merge_telemetry(
        &mut self,
        merged: &mut Vec<TraceEvent>,
        live: &LiveStore,
    ) -> Result<(), CommsError> {
        match self.recv()? {
            Message::Telemetry { jsonl, .. } => {
                let events = events_from_jsonl_string(&jsonl).map_err(|e| {
                    CommsError::Protocol(format!("stage {}: bad telemetry: {e}", self.stage))
                })?;
                let from = merged.len();
                merge_worker_events(merged, &events, self.stage, self.offset_us);
                live.ingest(&merged[from..]);
                Ok(())
            }
            other => Err(self.protocol("Telemetry", &other)),
        }
    }
}

/// Performs the hello exchange on a fresh transport: sends the stage
/// config, validates the ack, and estimates the worker's clock offset
/// from the request/reply midpoint (NTP-lite).
pub fn handshake_worker(
    transport: Box<dyn Transport>,
    cfg: StageConfig,
    recv_timeout: Option<Duration>,
    driver_clock: &TraceRecorder,
) -> Result<WorkerLink, CommsError> {
    let stage = cfg.stage;
    let (sender, mut receiver) = channel(transport)?;
    receiver.set_timeout(recv_timeout)?;
    let mut link = WorkerLink { sender, receiver, stage, last_acked: None, offset_us: 0 };
    let t_d0 = driver_clock.now_us();
    link.send(&Message::Hello(cfg))?;
    let ack = link.recv()?;
    let t_d1 = driver_clock.now_us();
    match ack {
        Message::HelloAck { protocol, stage: s, clock_us } => {
            if protocol != PROTOCOL_VERSION {
                return Err(CommsError::Handshake(format!(
                    "stage {stage}: worker speaks protocol v{protocol}, driver v{PROTOCOL_VERSION}"
                )));
            }
            if s != stage {
                return Err(CommsError::Handshake(format!(
                    "worker identified as stage {s}, expected {stage}"
                )));
            }
            // Assume symmetric latency: the worker sampled its clock at
            // roughly the midpoint of our send/recv interval.
            link.offset_us = clock_us as i64 - ((t_d0 + t_d1) / 2) as i64;
            Ok(link)
        }
        other => Err(link.protocol("HelloAck", &other)),
    }
}

/// The distributed pipeline trainer: one worker per stage over any
/// transport, driven by this struct on the orchestrator side.
pub struct DistributedTrainer<'m, M: TrainModel> {
    model: &'m M,
    cfg: DistConfig,
    partition: StagePartition,
    links: Vec<WorkerLink>,
    recorder: Arc<TraceRecorder>,
    registry: Arc<MetricsRegistry>,
    live: Arc<LiveStore>,
    merged: Vec<TraceEvent>,
    step: usize,
    diverged: bool,
    flush_seq: u64,
    /// Per-pass assembly buffers, kept across steps: each stage's range
    /// holds the payload its worker last shipped for that pass, so a
    /// [`Message::ShardUnchanged`] reply leaves the range as it is.
    fwd_buf: Vec<f32>,
    bkwd_buf: Vec<f32>,
    /// Empty unless recompute is configured.
    recomp_buf: Vec<f32>,
}

impl<'m, M: TrainModel> DistributedTrainer<'m, M> {
    /// Connects to one worker per stage (handshake + initial shard
    /// distribution). `init_seed` seeds parameter initialization exactly
    /// like `PipelineTrainer::new`, so the same seed produces the same
    /// starting weights.
    ///
    /// # Panics
    ///
    /// Hogwild mode has no distributed counterpart (its stochastic delays
    /// are sampled driver-side per step, which the shard protocol does
    /// not carry) and is rejected with [`CommsError::Unsupported`].
    ///
    /// # Panics
    ///
    /// Panics if `transports.len() != cfg.train.stages` or a dimension
    /// is zero.
    pub fn connect(
        model: &'m M,
        cfg: DistConfig,
        init_seed: u64,
        transports: Vec<Box<dyn Transport>>,
    ) -> Result<Self, CommsError> {
        let train = &cfg.train;
        if train.mode.method().is_none() {
            return Err(CommsError::Unsupported(
                "Hogwild delays are not supported by the distributed trainer".to_string(),
            ));
        }
        assert_eq!(transports.len(), train.stages, "one transport per stage");
        assert!(train.stages > 0 && train.n_micro > 0);
        let units: Vec<(usize, usize)> =
            model.weight_units().iter().map(|u| (u.offset, u.len)).collect();
        let total = model.param_len();
        let partition = train.partition(&units, total);
        let mut rng = StdRng::seed_from_u64(init_seed);
        let mut params = vec![0.0f32; total];
        model.init_params(&mut params, &mut rng);
        let recorder = Arc::new(TraceRecorder::with_tracks(train.stages + 1));
        let registry = Arc::new(MetricsRegistry::new());
        let mut links = Vec::with_capacity(train.stages);
        for (s, transport) in transports.into_iter().enumerate() {
            let sc = crate::stage::stage_config(&train.shard_spec(&partition, s));
            let mut link = handshake_worker(transport, sc, cfg.recv_timeout, &recorder)?;
            // Mirror this link's wire counters into live gauges so a
            // stats scrape sees per-stage traffic without touching the
            // links themselves.
            link.sender.bind_gauges(&registry, &format!("wire.stage{s}"));
            link.receiver.bind_gauges(&registry, &format!("wire.stage{s}"));
            let (lo, hi) = partition.range(s);
            link.send(&Message::InitShard { params: params[lo..hi].to_vec() })?;
            links.push(link);
        }
        let live = Arc::new(
            LiveStore::new("orchestrator", train.stages).with_registry(Arc::clone(&registry)),
        );
        let recomp_len = if train.recompute.is_some() { total } else { 0 };
        Ok(DistributedTrainer {
            model,
            cfg,
            partition,
            links,
            recorder,
            registry,
            live,
            merged: Vec::new(),
            step: 0,
            diverged: false,
            flush_seq: 0,
            fwd_buf: vec![0.0; total],
            bkwd_buf: vec![0.0; total],
            recomp_buf: vec![0.0; recomp_len],
        })
    }

    /// The driver's live stats store (role `orchestrator`): every
    /// worker's spans, folded into per-stage rows as each telemetry
    /// batch merges, plus `wire.stage{s}.*` traffic gauges. Hook it to a
    /// [`pipemare_telemetry::StatsEndpoint`] /
    /// [`pipemare_telemetry::StoreTicker`] to let `pmtop` watch a run.
    pub fn live_store(&self) -> Arc<LiveStore> {
        Arc::clone(&self.live)
    }

    /// The driver-side metrics registry backing [`Self::live_store`].
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// Per-stage handshake clock offsets (worker clock µs minus driver
    /// clock µs, one per link). `pmquery` uses these — written as
    /// `OFFSET` files next to each worker's journal — to merge
    /// multi-process journals onto the driver timebase, the same
    /// convention `merge_worker_events` uses for traces.
    pub fn clock_offsets(&self) -> Vec<i64> {
        self.links.iter().map(|l| l.offset_us).collect()
    }

    /// Optimizer steps completed.
    pub fn steps_done(&self) -> usize {
        self.step
    }

    /// Whether training has hit non-finite weights or gradients.
    pub fn diverged(&self) -> bool {
        self.diverged
    }

    /// The stage partition in use.
    pub fn partition(&self) -> &StagePartition {
        &self.partition
    }

    /// Fetches every stage's shard for one pass and assembles the full
    /// parameter vector into `buf`. The request goes to every stage
    /// before any reply is read, so the workers plan, copy and encode
    /// concurrently. A [`Message::ShardUnchanged`] reply keeps the
    /// stage's range of `buf`: it must hold the payload that worker last
    /// shipped for `pass`, which the persistent per-pass buffers do.
    fn fetch_into(
        links: &mut [WorkerLink],
        partition: &StagePartition,
        buf: &mut [f32],
        step: u64,
        micro: u32,
        pass: PassKind,
    ) -> Result<(), CommsError> {
        for link in links.iter_mut() {
            link.send(&Message::FetchShard { step, micro, pass })?;
        }
        for (s, link) in links.iter_mut().enumerate() {
            let (lo, hi) = partition.range(s);
            match link.recv()? {
                Message::Shard { step: st, micro: mi, pass: pa, data, .. }
                    if st == step && mi == micro && pa == pass =>
                {
                    if data.dense_len() != hi - lo {
                        return Err(CommsError::Protocol(format!(
                            "stage {s}: shard has {} values, expected {}",
                            data.dense_len(),
                            hi - lo
                        )));
                    }
                    buf[lo..hi].copy_from_slice(&data.into_dense());
                }
                Message::ShardUnchanged { step: st, micro: mi, pass: pa, .. }
                    if st == step && mi == micro && pa == pass && pass != PassKind::Latest => {}
                other => return Err(link.protocol("matching Shard", &other)),
            }
        }
        Ok(())
    }

    /// Drains every worker's telemetry and merges it into the combined
    /// trace (a streaming flush barrier). Every stage is asked before
    /// any reply is read; replies merge in stage order.
    fn flush_telemetry(&mut self) -> Result<(), CommsError> {
        self.flush_seq += 1;
        let id = self.flush_seq;
        for link in &mut self.links {
            link.send(&Message::Flush { id })?;
        }
        for link in &mut self.links {
            link.merge_telemetry(&mut self.merged, &self.live)?;
            match link.recv()? {
                Message::FlushAck { id: got, .. } if got == id => {}
                other => return Err(link.protocol("FlushAck", &other)),
            }
        }
        Ok(())
    }

    /// Runs one optimizer step on a minibatch of `n_micro` microbatches,
    /// mirroring `PipelineTrainer::train_minibatch` bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the microbatch count or weight count is wrong.
    pub fn train_minibatch(
        &mut self,
        micro: &[M::Batch],
        micro_weights: &[f32],
    ) -> Result<StepStats, CommsError> {
        let train = &self.cfg.train;
        assert_eq!(micro.len(), train.n_micro, "microbatch count mismatch");
        assert_eq!(micro.len(), micro_weights.len());
        let t = self.step;
        let total = self.partition.total_params();
        let base_lr = train.schedule.lr(t);
        let span_t0 = self.recorder.now_us();

        if self.diverged {
            self.step += 1;
            return Ok(StepStats {
                step: t,
                loss: f32::NAN,
                param_norm: f32::INFINITY,
                base_lr,
                diverged: true,
            });
        }

        let mut grad = vec![0.0f32; total];
        let mut loss_acc = 0.0f32;
        let recompute_pass = train.recomputes(t);

        let (links, partition) = (&mut self.links, &self.partition);
        for (n, batch) in micro.iter().enumerate() {
            let (step, mb) = (t as u64, n as u32);
            Self::fetch_into(links, partition, &mut self.fwd_buf, step, mb, PassKind::Fwd)?;
            let (loss, cache) = if recompute_pass {
                // Loss from the true forward; backward consumes the
                // recompute-version activations (App. D), exactly like
                // the in-process trainer's simulation.
                let (loss, _) = self.model.forward_loss(&self.fwd_buf, batch);
                Self::fetch_into(
                    links,
                    partition,
                    &mut self.recomp_buf,
                    step,
                    mb,
                    PassKind::Recomp,
                )?;
                let (_, cache) = self.model.forward_loss(&self.recomp_buf, batch);
                (loss, cache)
            } else {
                self.model.forward_loss(&self.fwd_buf, batch)
            };
            loss_acc += micro_weights[n] * loss;
            Self::fetch_into(links, partition, &mut self.bkwd_buf, step, mb, PassKind::Bkwd)?;
            let g = self.model.backward(&self.bkwd_buf, &cache);
            for (acc, &gi) in grad.iter_mut().zip(g.iter()) {
                *acc += micro_weights[n] * gi;
            }
        }

        if let Some(clip) = self.cfg.train.grad_clip {
            clip_grad_norm(&mut grad, clip);
        }
        let grad_finite = grad.iter().all(|g| g.is_finite());
        let stages = self.cfg.train.stages;

        // Phase 1: ship gradient shards; workers stage the update.
        for s in 0..stages {
            let (lo, hi) = self.partition.range(s);
            let lr = base_lr * self.cfg.train.t1_scale(s, t);
            let data = TensorPayload::from_dense(&grad[lo..hi], self.cfg.sparse_grads);
            self.links[s].send(&Message::GradShard {
                step: t as u64,
                lr,
                apply: grad_finite,
                // The step's causal trace id (step is 0-based; trace 0
                // means "absent"): the worker stamps its Step span with
                // it, chaining the update across processes.
                trace: t as u64 + 1,
                data,
            })?;
        }
        let mut finite = grad_finite;
        for s in 0..stages {
            match self.links[s].recv()? {
                Message::StepAck { step, finite: f, .. } if step == t as u64 => {
                    self.links[s].last_acked = Some(step);
                    finite &= f;
                }
                other => return Err(self.links[s].protocol("StepAck", &other)),
            }
        }

        // Phase 2: commit or revert everywhere.
        let keep = finite;
        if !keep {
            self.diverged = true;
        }
        let mut sq_norm = 0.0f64;
        for s in 0..stages {
            self.links[s].send(&Message::Commit { step: t as u64, keep })?;
        }
        for s in 0..stages {
            match self.links[s].recv()? {
                Message::CommitAck { step, sq_norm: sq, .. } if step == t as u64 => {
                    sq_norm += sq;
                }
                other => return Err(self.links[s].protocol("CommitAck", &other)),
            }
        }
        self.step += 1;
        self.recorder.record_span_traced(
            SpanKind::Step,
            stages as u32,
            0,
            t as u32,
            t as u64 + 1,
            span_t0,
            self.recorder.now_us(),
        );
        self.flush_telemetry()?;
        Ok(StepStats {
            step: t,
            loss: loss_acc,
            param_norm: sq_norm.sqrt() as f32,
            base_lr,
            diverged: self.diverged,
        })
    }

    /// Gathers the latest committed full parameter vector.
    pub fn gather_params(&mut self) -> Result<Vec<f32>, CommsError> {
        let mut out = vec![0.0f32; self.partition.total_params()];
        let step = self.step as u64;
        Self::fetch_into(&mut self.links, &self.partition, &mut out, step, 0, PassKind::Latest)?;
        Ok(out)
    }

    /// Shuts every worker down, collects their final telemetry, and
    /// returns the merged run report.
    pub fn shutdown(mut self) -> Result<DistRunReport, CommsError> {
        let mut worker_steps = Vec::with_capacity(self.links.len());
        for link in &mut self.links {
            link.send(&Message::Shutdown)?;
        }
        for link in &mut self.links {
            link.merge_telemetry(&mut self.merged, &self.live)?;
            match link.recv()? {
                Message::ShutdownAck { last_step, .. } => worker_steps.push(last_step),
                other => return Err(link.protocol("ShutdownAck", &other)),
            }
        }
        let mut events = self.merged;
        events.extend(self.recorder.events());
        sort_events(&mut events);
        let mut sent = WireStats::default();
        let mut recv = WireStats::default();
        for link in &self.links {
            let s = link.sender.stats();
            let r = link.receiver.stats();
            sent.bytes += s.bytes;
            sent.msgs += s.msgs;
            recv.bytes += r.bytes;
            recv.msgs += r.msgs;
        }
        Ok(DistRunReport { events, worker_steps, sent, recv })
    }
}

// ---------------------------------------------------------------------------
// Worker spawning helpers
// ---------------------------------------------------------------------------

/// Join handle for a spawned stage-worker thread.
pub type WorkerHandle =
    std::thread::JoinHandle<Result<crate::worker::StageWorkerReport, CommsError>>;

/// Spawns `stages` in-process stage workers over loopback transports.
/// Returns the driver-side transports (index = stage) and the worker
/// thread handles to join after shutdown.
pub fn spawn_loopback_workers(stages: usize) -> (Vec<Box<dyn Transport>>, Vec<WorkerHandle>) {
    let mut transports: Vec<Box<dyn Transport>> = Vec::with_capacity(stages);
    let mut handles = Vec::with_capacity(stages);
    for _ in 0..stages {
        let (driver_end, worker_end) = crate::transport::loopback_pair();
        transports.push(Box::new(driver_end));
        handles.push(std::thread::spawn(move || {
            let (tx, rx) = channel(Box::new(worker_end))?;
            crate::worker::run_stage_worker(tx, rx)
        }));
    }
    (transports, handles)
}

// ---------------------------------------------------------------------------
// Token pipeline (latency simulation over the wire)
// ---------------------------------------------------------------------------

/// Result of a distributed token-pipeline run.
#[derive(Clone, Debug)]
pub struct TokenPipelineReport {
    /// Total wall-clock time of the token phase.
    pub elapsed: Duration,
    /// Microbatches fully processed (forward + backward).
    pub microbatches: usize,
    /// Microbatches per second.
    pub throughput: f64,
    /// Merged trace (workers re-tracked + clock-shifted, driver on track
    /// `stages`), sorted.
    pub events: Vec<TraceEvent>,
}

/// Builds the minimal valid [`StageConfig`] a token-mode worker needs
/// (token mode carries no weights; the shard fields are placeholders
/// that still pass handshake validation).
pub fn token_stage_config(method: Method, stages: usize, n_micro: usize, s: usize) -> StageConfig {
    crate::stage::host_stage_config(method, (s, stages), n_micro, (s, s + 1), stages)
}

/// Drives `minibatches × n_micro` microbatch tokens through `stages`
/// remote workers, reproducing `run_threaded_pipeline_traced`'s
/// injection policy (GPipe drains per minibatch; the async methods keep
/// at most `stages + 1` tokens in flight, the depth the in-process
/// executor's bounded channels allow) and its telemetry span multiset.
///
/// # Panics
///
/// Panics if `transports.len() != stages` or any dimension is zero.
pub fn run_token_pipeline(
    transports: Vec<Box<dyn Transport>>,
    method: Method,
    stages: usize,
    n_micro: usize,
    minibatches: usize,
    work_per_stage: Duration,
    recv_timeout: Option<Duration>,
) -> Result<TokenPipelineReport, CommsError> {
    assert_eq!(transports.len(), stages, "one transport per stage");
    assert!(stages > 0 && n_micro > 0 && minibatches > 0);
    let total = n_micro * minibatches;
    let recorder = TraceRecorder::with_tracks(stages + 1);
    let driver_track = stages as u32;

    // Handshake + mode switch on every link, then split each into a hub
    // sender (kept here) and a reader thread feeding one central channel
    // — token traffic is not request/reply, so receives must not block
    // the routing loop.
    let mut offsets = Vec::with_capacity(stages);
    let mut senders = Vec::with_capacity(stages);
    let (agg_tx, agg_rx) = crossbeam_channel::unbounded::<(u32, Result<Message, CommsError>)>();
    let mut reader_handles = Vec::with_capacity(stages);
    for (s, transport) in transports.into_iter().enumerate() {
        let sc = token_stage_config(method, stages, n_micro, s);
        let mut link = handshake_worker(transport, sc, recv_timeout, &recorder)?;
        link.send(&Message::TokenMode {
            total: total as u64,
            is_last: s + 1 == stages,
            work_us: work_per_stage.as_micros() as u64,
        })?;
        offsets.push(link.offset_us);
        let WorkerLink { sender, mut receiver, stage, .. } = link;
        senders.push(sender);
        let agg = agg_tx.clone();
        reader_handles.push(std::thread::spawn(move || loop {
            match receiver.recv() {
                Ok(msg) => {
                    let done = matches!(msg, Message::ShutdownAck { .. });
                    if agg.send((stage, Ok(msg))).is_err() || done {
                        return receiver;
                    }
                }
                // A timeout on an idle link is not an event; real
                // connection loss is fatal and surfaces to the hub.
                Err(CommsError::Timeout) => continue,
                Err(e) => {
                    let _ = agg.send((stage, Err(e)));
                    return receiver;
                }
            }
        }));
    }
    drop(agg_tx);

    let send_to = |senders: &mut Vec<crate::transport::Sender>,
                   s: usize,
                   msg: &Message|
     -> Result<(), CommsError> {
        senders[s].send(msg).map_err(|e| CommsError::WorkerLost {
            stage: s as u32,
            last_acked_step: None,
            cause: Box::new(e),
        })
    };

    let start = Instant::now();
    let mut injected = 0usize;
    let mut completed = 0usize;
    // The in-process executor's bounded(1) forward channels cap the
    // in-flight depth; mirror that so injection does not flood slow
    // workers.
    let in_flight_cap = stages + 1;
    let mut next_minibatch_gate = if method == Method::GPipe { n_micro } else { total };
    let mut flush_start = recorder.now_us();
    while completed < total {
        while injected < total
            && injected - completed < in_flight_cap
            && injected < next_minibatch_gate
        {
            send_to(&mut senders, 0, &Message::Token { backward: false, id: injected as u64 })?;
            recorder.record_instant(SpanKind::Inject, driver_track, 0, injected as u32);
            injected += 1;
        }
        let (stage, msg) = agg_rx.recv().map_err(|_| CommsError::Closed)?;
        let msg = msg.map_err(|e| CommsError::WorkerLost {
            stage,
            last_acked_step: None,
            cause: Box::new(e),
        })?;
        match msg {
            Message::Token { backward: false, id } => {
                // A forward token leaving stage `stage` enters the next
                // stage (the last stage turns around internally and never
                // emits forward tokens).
                send_to(&mut senders, stage as usize + 1, &Message::Token { backward: false, id })?;
            }
            Message::Token { backward: true, id } => {
                if stage == 0 {
                    completed += 1;
                    if method == Method::GPipe && completed == next_minibatch_gate {
                        recorder.record_span(
                            SpanKind::Flush,
                            driver_track,
                            0,
                            NO_MICROBATCH,
                            flush_start,
                            recorder.now_us(),
                        );
                        flush_start = recorder.now_us();
                        next_minibatch_gate = (next_minibatch_gate + n_micro).min(total);
                    }
                } else {
                    send_to(
                        &mut senders,
                        stage as usize - 1,
                        &Message::Token { backward: true, id },
                    )?;
                }
            }
            other => {
                return Err(CommsError::Protocol(format!(
                    "stage {stage}: unexpected {} during token routing",
                    other.name()
                )))
            }
        }
    }
    // Final drain span, mirroring the executor's end-of-run flush.
    recorder.record_span(
        SpanKind::Flush,
        driver_track,
        0,
        NO_MICROBATCH,
        flush_start,
        recorder.now_us(),
    );
    let elapsed = start.elapsed();

    // Shut down: workers reply Telemetry + ShutdownAck through the
    // reader threads.
    for s in 0..stages {
        send_to(&mut senders, s, &Message::Shutdown)?;
    }
    let mut merged: Vec<TraceEvent> = Vec::new();
    let mut acked = vec![false; stages];
    while acked.iter().any(|&a| !a) {
        let (stage, msg) = agg_rx.recv().map_err(|_| CommsError::Closed)?;
        match msg {
            Ok(Message::Telemetry { jsonl, .. }) => {
                let events = events_from_jsonl_string(&jsonl).map_err(|e| {
                    CommsError::Protocol(format!("stage {stage}: bad telemetry: {e}"))
                })?;
                merge_worker_events(&mut merged, &events, stage, offsets[stage as usize]);
            }
            Ok(Message::ShutdownAck { .. }) => acked[stage as usize] = true,
            // Stray tokens from a pipeline that was already drained, or a
            // late flush ack: ignore.
            Ok(_) => {}
            Err(e) => {
                return Err(CommsError::WorkerLost {
                    stage,
                    last_acked_step: None,
                    cause: Box::new(e),
                })
            }
        }
    }
    for h in reader_handles {
        let _ = h.join();
    }
    merged.extend(recorder.events());
    sort_events(&mut merged);
    Ok(TokenPipelineReport {
        elapsed,
        microbatches: total,
        throughput: total as f64 / elapsed.as_secs_f64(),
        events: merged,
    })
}
