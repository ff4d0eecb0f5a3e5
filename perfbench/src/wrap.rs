//! Timing wrappers around the repository's public traits.
//!
//! Every wrapper delegates each call to the wrapped value unchanged and
//! only adds wall-clock accounting around it, so wrapped and unwrapped
//! runs produce bit-identical results (asserted by the tests below).
//! Counters are cumulative atomics; callers read them before and after
//! a step and attribute the difference to that step.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;

use pipemare_comms::protocol::decode_message;
use pipemare_comms::transport::TransportHalves;
use pipemare_comms::{CommsError, FrameRx, FrameTx, Transport};
use pipemare_nn::{
    cross_entropy_logits, Activation, Cache, CrossEntropyCfg, ImageBatch, InferModel, Layer,
    Linear, Sequential, ServeSplit, TrainModel, WeightUnit,
};
use pipemare_tensor::Tensor;

/// Nanoseconds elapsed since `t0`.
fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Cumulative forward and backward nanoseconds of one wrapped unit.
#[derive(Debug, Default)]
pub struct PassTimes {
    fwd_ns: AtomicU64,
    bwd_ns: AtomicU64,
}

impl PassTimes {
    /// Total forward nanoseconds so far.
    pub fn fwd_ns(&self) -> u64 {
        self.fwd_ns.load(Ordering::Relaxed)
    }

    /// Total backward nanoseconds so far.
    pub fn bwd_ns(&self) -> u64 {
        self.bwd_ns.load(Ordering::Relaxed)
    }
}

/// A [`TrainModel`] that times `forward_loss` and `backward`.
pub struct TimedTrain<M> {
    inner: M,
    times: Arc<PassTimes>,
}

impl<M> TimedTrain<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        TimedTrain { inner, times: Arc::new(PassTimes::default()) }
    }

    /// The shared counters.
    pub fn times(&self) -> Arc<PassTimes> {
        Arc::clone(&self.times)
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: TrainModel> TrainModel for TimedTrain<M> {
    type Batch = M::Batch;

    fn param_len(&self) -> usize {
        self.inner.param_len()
    }

    fn init_params(&self, out: &mut [f32], rng: &mut StdRng) {
        self.inner.init_params(out, rng)
    }

    fn weight_units(&self) -> Vec<WeightUnit> {
        self.inner.weight_units()
    }

    fn forward_loss(&self, params: &[f32], batch: &M::Batch) -> (f32, Cache) {
        let t0 = Instant::now();
        let out = self.inner.forward_loss(params, batch);
        self.times.fwd_ns.fetch_add(ns_since(t0), Ordering::Relaxed);
        out
    }

    fn backward(&self, params: &[f32], cache: &Cache) -> Vec<f32> {
        let t0 = Instant::now();
        let out = self.inner.backward(params, cache);
        self.times.bwd_ns.fetch_add(ns_since(t0), Ordering::Relaxed);
        out
    }
}

/// Most serving stages a [`TimedInfer`] keeps separate counters for.
pub const MAX_SERVE_STAGES: usize = 16;

/// An [`InferModel`] that times `infer_split` per serving stage.
pub struct TimedInfer<M> {
    inner: M,
    splits: Mutex<Vec<ServeSplit>>,
    busy_ns: [AtomicU64; MAX_SERVE_STAGES],
    calls: [AtomicU64; MAX_SERVE_STAGES],
}

impl<M> TimedInfer<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        TimedInfer {
            inner,
            splits: Mutex::new(Vec::new()),
            busy_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            calls: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Total `infer_split` nanoseconds per stage, for the splits handed
    /// out by the last `serve_splits` call.
    pub fn busy_ns(&self) -> Vec<u64> {
        let n = self.splits.lock().unwrap().len();
        self.busy_ns[..n].iter().map(|a| a.load(Ordering::Relaxed)).collect()
    }

    /// `infer_split` calls per stage (one per batch per stage).
    pub fn calls(&self) -> Vec<u64> {
        let n = self.splits.lock().unwrap().len();
        self.calls[..n].iter().map(|a| a.load(Ordering::Relaxed)).collect()
    }

    fn stage_of(&self, split: &ServeSplit) -> usize {
        let splits = self.splits.lock().unwrap();
        splits.iter().position(|s| s == split).expect("split was handed out by serve_splits")
    }
}

impl<M: InferModel> InferModel for TimedInfer<M> {
    fn param_len(&self) -> usize {
        self.inner.param_len()
    }

    fn input_len(&self) -> usize {
        self.inner.input_len()
    }

    fn output_len(&self) -> usize {
        self.inner.output_len()
    }

    fn prepare_input(&self, x: &Tensor) -> Tensor {
        self.inner.prepare_input(x)
    }

    fn infer(&self, params: &[f32], x: &Tensor) -> Tensor {
        self.inner.infer(params, x)
    }

    fn serve_splits(&self, stages: usize) -> Vec<ServeSplit> {
        assert!(stages <= MAX_SERVE_STAGES, "at most {MAX_SERVE_STAGES} serving stages");
        let splits = self.inner.serve_splits(stages);
        *self.splits.lock().unwrap() = splits.clone();
        splits
    }

    fn infer_split(&self, params: &[f32], split: &ServeSplit, x: &Tensor) -> Tensor {
        let stage = self.stage_of(split);
        let t0 = Instant::now();
        let out = self.inner.infer_split(params, split, x);
        self.busy_ns[stage].fetch_add(ns_since(t0), Ordering::Relaxed);
        self.calls[stage].fetch_add(1, Ordering::Relaxed);
        out
    }
}

/// A [`Layer`] that times its forward and backward passes. Several
/// wrappers may share one [`PassTimes`] (e.g. every ReLU of a chain).
pub struct TimedLayer<L> {
    inner: L,
    times: Arc<PassTimes>,
}

impl<L> TimedLayer<L> {
    /// Wraps `inner`, accumulating into `times`.
    pub fn new(inner: L, times: Arc<PassTimes>) -> Self {
        TimedLayer { inner, times }
    }
}

impl<L: Layer> Layer for TimedLayer<L> {
    fn param_len(&self) -> usize {
        self.inner.param_len()
    }

    fn init_params(&self, out: &mut [f32], rng: &mut StdRng) {
        self.inner.init_params(out, rng)
    }

    fn forward(&self, params: &[f32], x: &Tensor) -> (Tensor, Cache) {
        let t0 = Instant::now();
        let out = self.inner.forward(params, x);
        self.times.fwd_ns.fetch_add(ns_since(t0), Ordering::Relaxed);
        out
    }

    fn forward_no_cache(&self, params: &[f32], x: &Tensor) -> Tensor {
        let t0 = Instant::now();
        let out = self.inner.forward_no_cache(params, x);
        self.times.fwd_ns.fetch_add(ns_since(t0), Ordering::Relaxed);
        out
    }

    fn backward(&self, params: &[f32], cache: &Cache, dy: &Tensor) -> (Tensor, Vec<f32>) {
        let t0 = Instant::now();
        let out = self.inner.backward(params, cache, dy);
        self.times.bwd_ns.fetch_add(ns_since(t0), Ordering::Relaxed);
        out
    }

    fn weight_units(&self) -> Vec<WeightUnit> {
        self.inner.weight_units()
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        self.inner.output_shape(input)
    }
}

/// The ReLU MLP classifier rebuilt as a [`Sequential`] of timing-wrapped
/// layers: the same chain, names, loss and cache layout as
/// [`pipemare_nn::Mlp`], so it trains bit-identically while attributing
/// time to each linear layer, the ReLUs and the loss.
pub struct LayeredMlp {
    chain: TimedLayer<Sequential>,
    in_features: usize,
    /// One entry per linear layer, in chain order.
    pub linear: Vec<Arc<PassTimes>>,
    /// Shared by every ReLU of the chain.
    pub relu: Arc<PassTimes>,
    /// The whole chain: its layers plus `Sequential`'s own work
    /// (gradient-buffer assembly and activation hand-off).
    pub chain_times: Arc<PassTimes>,
    /// Loss (softmax cross-entropy and its logit gradient) nanoseconds.
    pub loss_ns: Arc<AtomicU64>,
}

impl LayeredMlp {
    /// Builds the chain for `widths`, mirroring `Mlp::new`.
    pub fn new(widths: &[usize]) -> Self {
        assert!(widths.len() >= 2, "an MLP needs input and output widths");
        let relu = Arc::new(PassTimes::default());
        let mut linear = Vec::new();
        let mut chain = Sequential::new();
        for i in 0..widths.len() - 1 {
            let times = Arc::new(PassTimes::default());
            linear.push(Arc::clone(&times));
            let fc = TimedLayer::new(Linear::new(widths[i], widths[i + 1]), times);
            chain = chain.push_named(&format!("fc{i}"), fc);
            if i + 2 < widths.len() {
                chain = chain.push(TimedLayer::new(Activation::relu(), Arc::clone(&relu)));
            }
        }
        let chain_times = Arc::new(PassTimes::default());
        LayeredMlp {
            chain: TimedLayer::new(chain, Arc::clone(&chain_times)),
            in_features: widths[0],
            linear,
            relu,
            chain_times,
            loss_ns: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl TrainModel for LayeredMlp {
    type Batch = ImageBatch;

    fn param_len(&self) -> usize {
        self.chain.param_len()
    }

    fn init_params(&self, out: &mut [f32], rng: &mut StdRng) {
        self.chain.init_params(out, rng);
    }

    fn weight_units(&self) -> Vec<WeightUnit> {
        self.chain.weight_units()
    }

    fn forward_loss(&self, params: &[f32], batch: &ImageBatch) -> (f32, Cache) {
        let b = batch.x.shape()[0];
        let flat = batch.x.reshape(&[b, batch.x.len() / b]);
        assert_eq!(flat.shape()[1], self.in_features, "input feature mismatch");
        let (logits, chain_cache) = self.chain.forward(params, &flat);
        let t0 = Instant::now();
        let (loss, dlogits) = cross_entropy_logits(&logits, &batch.y, CrossEntropyCfg::default());
        self.loss_ns.fetch_add(ns_since(t0), Ordering::Relaxed);
        let mut cache = Cache::new();
        cache.children.push(chain_cache);
        cache.tensors.push(dlogits);
        (loss, cache)
    }

    fn backward(&self, params: &[f32], cache: &Cache) -> Vec<f32> {
        self.chain.backward(params, cache.child(0), cache.tensor(0)).1
    }
}

/// Cumulative traffic through one or more [`TimedTransport`]s.
#[derive(Debug, Default)]
pub struct WireTimes {
    send_ns: AtomicU64,
    recv_ns: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_recv: AtomicU64,
    msgs_sent: AtomicU64,
    msgs_recv: AtomicU64,
    shard_bytes: AtomicU64,
    telemetry_bytes: AtomicU64,
    /// Message name per leading tag byte, learned by decoding the first
    /// frame seen with each tag.
    names: Mutex<Vec<Option<&'static str>>>,
}

/// A point-in-time copy of [`WireTimes`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WireSnapshot {
    /// Nanoseconds spent inside `send_frame`.
    pub send_ns: u64,
    /// Nanoseconds spent blocked inside `recv_frame`.
    pub recv_ns: u64,
    /// Payload bytes sent (length prefixes excluded).
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
    /// Frames sent.
    pub msgs_sent: u64,
    /// Frames received.
    pub msgs_recv: u64,
    /// Payload bytes of `Shard` frames, either direction.
    pub shard_bytes: u64,
    /// Payload bytes of `Telemetry` frames, either direction.
    pub telemetry_bytes: u64,
}

impl WireSnapshot {
    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &WireSnapshot) -> WireSnapshot {
        WireSnapshot {
            send_ns: self.send_ns - earlier.send_ns,
            recv_ns: self.recv_ns - earlier.recv_ns,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            bytes_recv: self.bytes_recv - earlier.bytes_recv,
            msgs_sent: self.msgs_sent - earlier.msgs_sent,
            msgs_recv: self.msgs_recv - earlier.msgs_recv,
            shard_bytes: self.shard_bytes - earlier.shard_bytes,
            telemetry_bytes: self.telemetry_bytes - earlier.telemetry_bytes,
        }
    }
}

impl WireTimes {
    /// Current totals.
    pub fn snapshot(&self) -> WireSnapshot {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        WireSnapshot {
            send_ns: get(&self.send_ns),
            recv_ns: get(&self.recv_ns),
            bytes_sent: get(&self.bytes_sent),
            bytes_recv: get(&self.bytes_recv),
            msgs_sent: get(&self.msgs_sent),
            msgs_recv: get(&self.msgs_recv),
            shard_bytes: get(&self.shard_bytes),
            telemetry_bytes: get(&self.telemetry_bytes),
        }
    }

    /// Attributes a frame's bytes to its message kind.
    fn classify(&self, payload: &[u8]) {
        let Some(&tag) = payload.first() else { return };
        let name = {
            let mut names = self.names.lock().unwrap();
            if names.is_empty() {
                names.resize(256, None);
            }
            *names[tag as usize]
                .get_or_insert_with(|| decode_message(payload).map_or("invalid", |m| m.name()))
        };
        let bytes = payload.len() as u64;
        match name {
            "Shard" => self.shard_bytes.fetch_add(bytes, Ordering::Relaxed),
            "Telemetry" => self.telemetry_bytes.fetch_add(bytes, Ordering::Relaxed),
            _ => 0,
        };
    }
}

/// A [`Transport`] whose halves time and count every frame.
pub struct TimedTransport {
    inner: Box<dyn Transport>,
    times: Arc<WireTimes>,
}

impl TimedTransport {
    /// Wraps `inner`, accumulating into `times`.
    pub fn new(inner: Box<dyn Transport>, times: Arc<WireTimes>) -> Self {
        TimedTransport { inner, times }
    }
}

impl Transport for TimedTransport {
    fn split(self: Box<Self>) -> Result<TransportHalves, CommsError> {
        let (tx, rx) = self.inner.split()?;
        Ok((
            Box::new(TimedTx { inner: tx, times: Arc::clone(&self.times) }),
            Box::new(TimedRx { inner: rx, times: self.times }),
        ))
    }
}

struct TimedTx {
    inner: Box<dyn FrameTx>,
    times: Arc<WireTimes>,
}

impl FrameTx for TimedTx {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), CommsError> {
        let t0 = Instant::now();
        let out = self.inner.send_frame(payload);
        self.times.send_ns.fetch_add(ns_since(t0), Ordering::Relaxed);
        if out.is_ok() {
            self.times.bytes_sent.fetch_add(payload.len() as u64, Ordering::Relaxed);
            self.times.msgs_sent.fetch_add(1, Ordering::Relaxed);
            self.times.classify(payload);
        }
        out
    }
}

struct TimedRx {
    inner: Box<dyn FrameRx>,
    times: Arc<WireTimes>,
}

impl FrameRx for TimedRx {
    fn recv_frame(&mut self) -> Result<Vec<u8>, CommsError> {
        let t0 = Instant::now();
        let out = self.inner.recv_frame();
        self.times.recv_ns.fetch_add(ns_since(t0), Ordering::Relaxed);
        if let Ok(payload) = &out {
            self.times.bytes_recv.fetch_add(payload.len() as u64, Ordering::Relaxed);
            self.times.msgs_recv.fetch_add(1, Ordering::Relaxed);
            self.times.classify(payload);
        }
        out
    }

    fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), CommsError> {
        self.inner.set_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemare_comms::{channel, loopback_pair, Message, PassKind, TensorPayload};
    use pipemare_nn::Mlp;
    use rand::SeedableRng;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn image_batch(seed: u64, rows: usize, cols: usize) -> ImageBatch {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(&[rows, cols], &mut rng);
        ImageBatch { x, y: (0..rows).map(|i| i % 10).collect() }
    }

    fn init<M: TrainModel>(m: &M, seed: u64) -> Vec<f32> {
        let mut p = vec![0.0; m.param_len()];
        m.init_params(&mut p, &mut StdRng::seed_from_u64(seed));
        p
    }

    #[test]
    fn timed_train_is_bit_identical_and_counts_time() {
        let plain = Mlp::new(&[12, 16, 10]);
        let timed = TimedTrain::new(Mlp::new(&[12, 16, 10]));
        let p = init(&plain, 1);
        assert_eq!(bits(&p), bits(&init(&timed, 1)));
        assert_eq!(plain.weight_units(), timed.weight_units());
        let batch = image_batch(2, 8, 12);
        let (l0, c0) = TrainModel::forward_loss(&plain, &p, &batch);
        let (l1, c1) = timed.forward_loss(&p, &batch);
        assert_eq!(l0.to_bits(), l1.to_bits());
        assert_eq!(bits(&plain.backward(&p, &c0)), bits(&timed.backward(&p, &c1)));
        let times = timed.times();
        assert!(times.fwd_ns() > 0 && times.bwd_ns() > 0);
    }

    #[test]
    fn timed_infer_is_bit_identical_per_split() {
        let plain = Mlp::new(&[12, 16, 16, 10]);
        let timed = TimedInfer::new(Mlp::new(&[12, 16, 16, 10]));
        let p = init(&plain, 3);
        let x = image_batch(4, 5, 12).x;
        let splits = timed.serve_splits(2);
        assert_eq!(splits, InferModel::serve_splits(&plain, 2));
        let (mut a, mut b) = (x.clone(), x.clone());
        for s in &splits {
            a = plain.infer_split(&p, s, &a);
            b = timed.infer_split(&p, s, &b);
        }
        assert_eq!(bits(a.data()), bits(b.data()));
        assert_eq!(bits(b.data()), bits(plain.logits(&p, &x).data()));
        assert_eq!(timed.calls(), vec![1, 1]);
        assert!(timed.busy_ns().iter().all(|&ns| ns > 0));
    }

    #[test]
    fn timed_layer_is_bit_identical() {
        let plain = Linear::new(6, 4);
        let times = Arc::new(PassTimes::default());
        let timed = TimedLayer::new(Linear::new(6, 4), Arc::clone(&times));
        let mut rng = StdRng::seed_from_u64(5);
        let mut p = vec![0.0; plain.param_len()];
        plain.init_params(&mut p, &mut rng);
        let x = Tensor::randn(&[3, 6], &mut rng);
        let dy = Tensor::randn(&[3, 4], &mut rng);
        let (y0, c0) = plain.forward(&p, &x);
        let (y1, c1) = timed.forward(&p, &x);
        assert_eq!(bits(y0.data()), bits(y1.data()));
        assert_eq!(bits(timed.forward_no_cache(&p, &x).data()), bits(y0.data()));
        let (dx0, dp0) = plain.backward(&p, &c0, &dy);
        let (dx1, dp1) = timed.backward(&p, &c1, &dy);
        assert_eq!(bits(dx0.data()), bits(dx1.data()));
        assert_eq!(bits(&dp0), bits(&dp1));
        assert!(times.fwd_ns() > 0 && times.bwd_ns() > 0);
    }

    #[test]
    fn layered_mlp_reproduces_mlp_training_bit_for_bit() {
        use pipemare_core::{PipelineTrainer, TrainConfig};
        use pipemare_optim::{ConstantLr, OptimizerKind, T1Rescheduler};
        let widths = [16, 24, 24, 10];
        let cfg = || {
            let mut c = TrainConfig::pipemare(
                3,
                2,
                OptimizerKind::Momentum { beta: 0.9, weight_decay: 0.0 },
                Box::new(ConstantLr(0.05)),
                T1Rescheduler::new(10),
                0.1,
            );
            c.warmup_steps = 1;
            c
        };
        let plain = Mlp::new(&widths);
        let layered = LayeredMlp::new(&widths);
        assert_eq!(TrainModel::weight_units(&plain), layered.weight_units());
        let mut a = PipelineTrainer::new(&plain, cfg(), 7);
        let mut b = PipelineTrainer::new(&layered, cfg(), 7);
        for step in 0..6u64 {
            let micro = vec![image_batch(step * 2, 8, 16), image_batch(step * 2 + 1, 8, 16)];
            let la = a.train_minibatch(&micro, &[0.5, 0.5]).loss;
            let lb = b.train_minibatch(&micro, &[0.5, 0.5]).loss;
            assert_eq!(la.to_bits(), lb.to_bits(), "step {step} loss differs");
        }
        assert_eq!(bits(a.params()), bits(b.params()));
        assert!(layered.linear.iter().all(|t| t.fwd_ns() > 0 && t.bwd_ns() > 0));
        assert!(layered.relu.fwd_ns() > 0 && layered.loss_ns.load(Ordering::Relaxed) > 0);
        let layers_bwd: u64 =
            layered.linear.iter().map(|t| t.bwd_ns()).sum::<u64>() + layered.relu.bwd_ns();
        assert!(layered.chain_times.bwd_ns() >= layers_bwd, "the chain encloses its layers");
    }

    #[test]
    fn timed_transport_delivers_identical_frames_and_counts_them() {
        let times = Arc::new(WireTimes::default());
        let (a, b) = loopback_pair();
        let timed: Box<dyn Transport> = Box::new(TimedTransport::new(Box::new(a), times.clone()));
        let (mut tx, mut rx) = channel(timed).unwrap();
        let (mut peer_tx, mut peer_rx) = channel(Box::new(b)).unwrap();
        let fetch = Message::FetchShard { step: 3, micro: 1, pass: PassKind::Fwd };
        tx.send(&fetch).unwrap();
        let got = peer_rx.recv().unwrap();
        assert_eq!(
            pipemare_comms::protocol::encode_message(&got),
            pipemare_comms::protocol::encode_message(&fetch)
        );
        let shard = Message::Shard {
            step: 3,
            micro: 1,
            pass: PassKind::Fwd,
            stage: 0,
            trace: 0,
            data: TensorPayload::Dense(vec![1.5, -0.0, f32::NAN]),
        };
        peer_tx.send(&shard).unwrap();
        let got = rx.recv().unwrap();
        let want = pipemare_comms::protocol::encode_message(&shard);
        assert_eq!(pipemare_comms::protocol::encode_message(&got), want);
        let snap = times.snapshot();
        assert_eq!((snap.msgs_sent, snap.msgs_recv), (1, 1));
        assert_eq!(snap.bytes_sent, tx.stats().bytes);
        assert_eq!(snap.bytes_recv, rx.stats().bytes);
        assert_eq!(snap.shard_bytes, want.len() as u64);
        assert_eq!(snap.telemetry_bytes, 0);
    }
}
