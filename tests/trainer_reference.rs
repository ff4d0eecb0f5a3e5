//! An independent full-vector reference for PipeMare's per-stage update
//! (App. C.4), checked bit for bit against `PipelineTrainer`.
//!
//! The reference keeps its own list of weight versions (bf16-rounding
//! every version once it stops being the latest, when bf16 storage is
//! on), picks each stage's forward/backward/recompute version from the
//! Table 1 delay formulas, extrapolates along its own δ, and reverts a
//! non-finite step. It shares only the model, the optimizer rule, the
//! clip and the T1 schedule with the trainer, so a change to the shared
//! per-stage state machine that both distributed and in-process training
//! run shows up here.

use rand::rngs::StdRng;
use rand::SeedableRng;

use pipemare::core::{PipelineTrainer, RecomputeCfg, TrainConfig, TrainMode};
use pipemare::nn::{ImageBatch, Mlp, TrainModel};
use pipemare::optim::{clip_grad_norm, ConstantLr, Optimizer, OptimizerKind, T1Rescheduler};
use pipemare::pipeline::{HogwildDelays, Method};
use pipemare::tensor::{StoragePrecision, Tensor};

const SEED: u64 = 7;
const STAGES: usize = 3;
const N_MICRO: usize = 2;

/// Round to the nearest bf16, ties to even (finite inputs), widened back.
fn bf16_round(x: f32) -> f32 {
    if !x.is_finite() {
        return x;
    }
    let bits = x.to_bits();
    let rounded = bits.wrapping_add(0x7fff + ((bits >> 16) & 1)) & 0xffff_0000;
    f32::from_bits(rounded)
}

/// Copies of the schedule-independent pieces of a `TrainConfig`.
struct Spec {
    mode: TrainMode,
    optimizer: OptimizerKind,
    lr: f32,
    t1: Option<T1Rescheduler>,
    t2_decay: Option<f64>,
    warmup: usize,
    clip: Option<f32>,
    recompute: Option<RecomputeCfg>,
    storage: StoragePrecision,
    seed: u64,
}

impl Spec {
    fn base(mode: TrainMode, lr: f32) -> Self {
        Spec {
            mode,
            optimizer: OptimizerKind::Sgd { weight_decay: 0.0 },
            lr,
            t1: None,
            t2_decay: None,
            warmup: 0,
            clip: None,
            recompute: None,
            storage: StoragePrecision::F32,
            seed: 0,
        }
    }

    fn pipemare(lr: f32) -> Self {
        Spec {
            t1: Some(T1Rescheduler::new(10)),
            t2_decay: Some(0.5),
            ..Spec::base(TrainMode::Pipeline(Method::PipeMare), lr)
        }
    }

    fn train_config(&self) -> TrainConfig {
        let mut cfg =
            TrainConfig::gpipe(STAGES, N_MICRO, self.optimizer, Box::new(ConstantLr(self.lr)));
        cfg.mode = self.mode.clone();
        cfg.t1 = self.t1;
        cfg.t2_decay = self.t2_decay;
        cfg.warmup_steps = self.warmup;
        cfg.grad_clip = self.clip;
        cfg.recompute = self.recompute;
        cfg.weight_storage = self.storage;
        cfg.seed = self.seed;
        cfg
    }
}

/// The reference stepper: one full parameter vector per version.
struct Reference<'m> {
    model: &'m Mlp,
    spec: Spec,
    ranges: Vec<(usize, usize)>,
    /// `(version, weights)`, oldest first; only the last is unrounded.
    versions: Vec<(usize, Vec<f32>)>,
    /// Versions retained: the deepest forward delay in steps, plus two.
    window: usize,
    delta: Vec<f32>,
    gammas: Vec<f64>,
    opt: Optimizer,
    rng: StdRng,
    step: usize,
    diverged: bool,
}

impl<'m> Reference<'m> {
    fn new(model: &'m Mlp, spec: Spec, ranges: Vec<(usize, usize)>) -> Self {
        let mut init = vec![0.0f32; model.param_len()];
        model.init_params(&mut init, &mut StdRng::seed_from_u64(SEED));
        let n = init.len();
        let gammas = (0..STAGES)
            .map(|s| {
                let gap = match spec.mode {
                    TrainMode::Pipeline(Method::PipeMare) => {
                        let fwd = Self::tau_fwd(s);
                        match spec.recompute {
                            Some(rc) if rc.t2 => fwd.max(Self::recomp_slots(&spec, s) as f64 / 2.0),
                            _ => fwd,
                        }
                    }
                    _ => 0.0,
                };
                match spec.t2_decay {
                    Some(d) if gap > 1e-9 && d > 0.0 => d.powf(1.0 / gap),
                    _ => 0.0,
                }
            })
            .collect();
        let rng = StdRng::seed_from_u64(spec.seed ^ 0x9e37_79b9);
        Reference {
            model,
            opt: Optimizer::new(spec.optimizer, n),
            spec,
            ranges,
            versions: vec![(0, init)],
            window: (2 * STAGES - 1).div_ceil(N_MICRO) + 2,
            delta: vec![0.0; n],
            gammas,
            rng,
            step: 0,
            diverged: false,
        }
    }

    /// Forward-read distance of stage `s` in microbatch slots.
    fn slots(s: usize) -> usize {
        2 * (STAGES - 1 - s) + 1
    }

    fn tau_fwd(s: usize) -> f64 {
        Self::slots(s) as f64 / N_MICRO as f64
    }

    fn recomp_slots(spec: &Spec, s: usize) -> usize {
        let seg = STAGES.div_ceil(spec.recompute.expect("recompute on").segments);
        2 * (seg - s % seg)
    }

    /// `⌊(tN + n − slots)/N⌋`, clamped into `[0, t]`.
    fn delayed(t: usize, n: usize, slots: usize) -> usize {
        let m = (t * N_MICRO + n) as i64 - slots as i64;
        m.div_euclid(N_MICRO as i64).clamp(0, t as i64) as usize
    }

    /// Stage `s`'s slice of `version`, clamped to the retained window.
    fn read(&self, version: usize, s: usize, out: &mut [f32]) {
        let (oldest, latest) = (self.versions[0].0, self.versions[self.versions.len() - 1].0);
        let v = version.clamp(oldest, latest);
        let (lo, hi) = self.ranges[s];
        out[lo..hi].copy_from_slice(&self.versions[v - oldest].1[lo..hi]);
    }

    fn extrapolate(&self, s: usize, gap: f64, out: &mut [f32]) {
        let (lo, hi) = self.ranges[s];
        for (w, &d) in out[lo..hi].iter_mut().zip(&self.delta[lo..hi]) {
            *w -= gap as f32 * d;
        }
    }

    fn train(&mut self, micro: &[ImageBatch], weights: &[f32]) -> f32 {
        let t = self.step;
        self.step += 1;
        if self.diverged {
            return f32::NAN;
        }
        let sync = t < self.spec.warmup;
        let method = self.spec.mode.method();
        let t2 = self.spec.t2_decay.is_some();
        let hogwild: Option<Vec<usize>> = match (&self.spec.mode, sync) {
            (TrainMode::Hogwild(h), false) => {
                Some((0..STAGES).map(|s| h.sample(s, &mut self.rng)).collect())
            }
            _ => None,
        };
        let n_params = self.delta.len();
        let mut grad = vec![0.0f32; n_params];
        let mut loss = 0.0f32;
        let mut fwd = vec![0.0f32; n_params];
        let mut bkwd = vec![0.0f32; n_params];
        let mut recomp = vec![0.0f32; n_params];
        for (n, batch) in micro.iter().enumerate() {
            for s in 0..STAGES {
                let (vf, vb) = match (sync, &hogwild, method) {
                    (true, _, _) => (t, t),
                    (false, Some(d), _) => (t.saturating_sub(d[s]), t.saturating_sub(d[s])),
                    (false, None, Some(Method::GPipe)) => (t, t),
                    (false, None, Some(Method::PipeDream)) => {
                        let v = Self::delayed(t, n, Self::slots(s));
                        (v, v)
                    }
                    (false, None, _) => (Self::delayed(t, n, Self::slots(s)), t),
                };
                self.read(vf, s, &mut fwd);
                self.read(vb, s, &mut bkwd);
                if !sync && method == Some(Method::PipeMare) && t2 {
                    self.extrapolate(s, Self::tau_fwd(s), &mut bkwd);
                }
            }
            let recompute = !sync && method == Some(Method::PipeMare);
            let (l, cache) = match self.spec.recompute.filter(|_| recompute) {
                Some(rc) => {
                    for s in 0..STAGES {
                        let slots = Self::recomp_slots(&self.spec, s);
                        self.read(Self::delayed(t, n, slots), s, &mut recomp);
                        let gap = Self::tau_fwd(s) - slots as f64 / N_MICRO as f64;
                        if rc.t2 && t2 && gap > 0.0 {
                            self.extrapolate(s, gap, &mut recomp);
                        }
                    }
                    let (l, _) = self.model.forward_loss(&fwd, batch);
                    (l, self.model.forward_loss(&recomp, batch).1)
                }
                None => self.model.forward_loss(&fwd, batch),
            };
            loss += weights[n] * l;
            for (acc, g) in grad.iter_mut().zip(self.model.backward(&bkwd, &cache)) {
                *acc += weights[n] * g;
            }
        }
        if let Some(c) = self.spec.clip {
            clip_grad_norm(&mut grad, c);
        }
        let old = self.versions.last().expect("never empty").1.clone();
        let mut new = old.clone();
        let grad_finite = grad.iter().all(|g| g.is_finite());
        if grad_finite {
            self.opt.begin_step();
            let t_async = t.saturating_sub(self.spec.warmup);
            for s in 0..STAGES {
                let scale = match (&self.spec.t1, sync, &self.spec.mode) {
                    (Some(t1), false, TrainMode::Pipeline(Method::PipeMare)) => {
                        t1.scale(t_async, Self::tau_fwd(s))
                    }
                    (Some(t1), false, TrainMode::Hogwild(h)) => t1.scale(t_async, h.means[s]),
                    _ => 1.0,
                };
                let (lo, hi) = self.ranges[s];
                self.opt.step_range(&mut new, &grad, lo, hi, self.spec.lr * scale);
            }
        }
        if !grad_finite || !new.iter().all(|w| w.is_finite()) {
            self.diverged = true;
            new = old.clone();
        }
        if t2 {
            for (s, &(lo, hi)) in self.ranges.iter().enumerate() {
                let g = self.gammas[s] as f32;
                for i in lo..hi {
                    self.delta[i] = g * self.delta[i] + (1.0 - g) * (new[i] - old[i]);
                }
            }
        }
        if self.spec.storage == StoragePrecision::Bf16 {
            let last = &mut self.versions.last_mut().expect("never empty").1;
            last.iter_mut().for_each(|w| *w = bf16_round(*w));
        }
        self.versions.push((t + 1, new));
        if self.versions.len() > self.window {
            self.versions.remove(0);
        }
        loss
    }

    fn params(&self) -> &[f32] {
        &self.versions.last().expect("never empty").1
    }
}

fn blobs(seed: u64) -> Vec<ImageBatch> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..N_MICRO)
        .map(|_| {
            let mut x = Tensor::randn(&[6, 8], &mut rng);
            let y: Vec<usize> = (0..6).map(|i| i % 2).collect();
            for i in 0..6 {
                let shift = if i % 2 == 0 { 3.0 } else { -3.0 };
                for j in 0..4 {
                    x.data_mut()[i * 8 + j] += shift;
                }
            }
            ImageBatch { x, y }
        })
        .collect()
}

/// Runs the trainer and the reference side by side for `steps` steps;
/// returns whether the run diverged.
fn check(label: &str, spec: Spec, steps: usize) -> bool {
    let model = Mlp::new(&[8, 16, 12, 10, 2]);
    let mut trainer = PipelineTrainer::new(&model, spec.train_config(), SEED);
    let ranges = (0..STAGES).map(|s| trainer.partition().range(s)).collect();
    let mut reference = Reference::new(&model, spec, ranges);
    let weights = [0.5f32; N_MICRO];
    for t in 0..steps {
        let micro = blobs(SEED + 1 + t as u64);
        let got = trainer.train_minibatch(&micro, &weights).loss;
        let want = reference.train(&micro, &weights);
        assert_eq!(got.to_bits(), want.to_bits(), "{label}: step {t} loss {got} vs {want}");
    }
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(trainer.params()), bits(reference.params()), "{label}: final params");
    assert_eq!(trainer.diverged(), reference.diverged, "{label}: divergence flag");
    reference.diverged
}

#[test]
fn gpipe_matches_the_reference() {
    check("gpipe", Spec::base(TrainMode::Pipeline(Method::GPipe), 0.05), 8);
}

#[test]
fn pipedream_matches_the_reference() {
    check("pipedream", Spec::base(TrainMode::Pipeline(Method::PipeDream), 0.05), 8);
}

#[test]
fn pipemare_t1_t2_with_warmup_matches_the_reference() {
    let spec = Spec {
        optimizer: OptimizerKind::Momentum { beta: 0.9, weight_decay: 0.0 },
        warmup: 2,
        ..Spec::pipemare(0.05)
    };
    check("pipemare t1+t2+warmup", spec, 10);
}

#[test]
fn pipemare_recompute_t2_adam_clip_matches_the_reference() {
    let spec = Spec {
        optimizer: OptimizerKind::Adam { beta1: 0.9, beta2: 0.999, eps: 1e-8 },
        clip: Some(0.5),
        recompute: Some(RecomputeCfg::new(2).with_t2()),
        ..Spec::pipemare(0.01)
    };
    check("pipemare recompute(t2) adam clip", spec, 10);
}

#[test]
fn bf16_storage_matches_the_reference() {
    let spec = Spec { storage: StoragePrecision::Bf16, ..Spec::pipemare(0.05) };
    check("bf16 storage", spec, 10);
}

#[test]
fn hogwild_matches_the_reference() {
    let mode = TrainMode::Hogwild(HogwildDelays::from_pipeline_profile(STAGES, N_MICRO));
    let spec = Spec {
        t1: Some(T1Rescheduler::new(10)),
        t2_decay: Some(0.5),
        warmup: 1,
        seed: 5,
        ..Spec::base(mode, 0.05)
    };
    check("hogwild", spec, 12);
}

#[test]
fn diverging_naive_async_run_matches_the_reference() {
    let spec = Spec::base(TrainMode::Pipeline(Method::PipeMare), 1e3);
    assert!(check("diverging naive async", spec, 12), "lr 1e3 must diverge within 12 steps");
}
