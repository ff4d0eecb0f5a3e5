//! The serving workload: a `Server` over the MLP driven by a one-
//! connection open-loop generator that records how late it sent.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use pipemare_comms::{channel, Message, RejectReason, TensorPayload, Transport};
use pipemare_core::serve_checkpoint;
use pipemare_nn::{Mlp, TrainModel};
use pipemare_serve::{DynRecorder, ServeConfig, Server};
use pipemare_telemetry::{FlightRecorder, MetricsRegistry, SpanKind};
use pipemare_tensor::{install_kernel_metrics, uninstall_kernel_metrics, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{median, peak_rss_mib, quantile, Report};
use crate::train::{mlp_minibatches, KERNELS, MLP_WIDTHS};
use crate::wrap::TimedInfer;
use crate::Args;

/// Offered load, requests per second (single-row requests): a third of
/// the ~24k req/s knee, leaving headroom for host contention.
const RATE: f64 = 8_000.0;
/// Server starts per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// Every `SAMPLE_EVERY`-th response is checked against `Mlp::logits`.
const SAMPLE_EVERY: u64 = 61;
/// An untraced run is invalid when the generator fell behind its
/// schedule: a median send lateness above this means the offered load,
/// not the server, shaped the figures.
const LATE_P50_LIMIT_MS: f64 = 0.5;
/// ... as does a realized send rate below this share of `RATE`.
const MIN_RATE_SHARE: f64 = 0.99;

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        stages: 2,
        max_batch_rows: 32,
        deadline: Duration::from_millis(2),
        queue_cap: 1024,
        refresh_every: None,
        conn_recv_timeout: Some(Duration::from_millis(100)),
    }
}

/// splitmix64: a seed-reproducible integer stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Poisson arrivals at `RATE`: cumulative offsets in ns.
fn schedule(seed: u64, seconds: f64) -> Vec<u64> {
    let n = (RATE * seconds) as usize;
    let mut state = seed ^ 0xa076_1d64_78bd_642f;
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            t += -(1.0 - u).ln() / RATE * 1e9;
            t as u64
        })
        .collect()
}

/// What one open-loop run observed.
struct LoadOutcome {
    sent: u64,
    served: u64,
    shed: u64,
    rejected: u64,
    /// Requests that got no answer because the connection failed.
    errors: u64,
    /// Latency of each served request from its scheduled arrival, µs.
    latency_us: Vec<f64>,
    /// `latency_us` split by the second of the schedule the request was
    /// due in.
    latency_us_by_second: Vec<Vec<f64>>,
    /// How late each request was sent relative to its schedule, µs.
    late_us: Vec<f64>,
    /// First scheduled arrival to last response, seconds.
    elapsed_s: f64,
    /// First scheduled arrival to the last send, seconds.
    send_span_s: f64,
    /// `(request id, logits)` of every sampled response.
    samples: Vec<(u64, Vec<f32>)>,
}

/// Offers `schedule.len()` single-row requests over one connection: a
/// paced sender thread and a receiver thread, so a slow server cannot
/// throttle the offered rate.
fn open_loop(server: &Server, rows: &Arc<Vec<Vec<f32>>>, arrivals: Vec<u64>) -> LoadOutcome {
    let transport: Box<dyn Transport> = Box::new(server.connect_loopback());
    let (mut tx, mut rx) = channel(transport).expect("open-loop connection");
    rx.set_timeout(Some(Duration::from_secs(30))).expect("timeout is settable");
    let arrivals = Arc::new(arrivals);
    let n = arrivals.len();
    let epoch = Instant::now() + Duration::from_millis(5);

    let sender = {
        let arrivals = Arc::clone(&arrivals);
        let rows = Arc::clone(rows);
        thread::spawn(move || {
            let mut late_us = Vec::with_capacity(arrivals.len());
            let mut sent = 0u64;
            for (id, &at) in arrivals.iter().enumerate() {
                let target = epoch + Duration::from_nanos(at);
                if let Some(wait) = target.checked_duration_since(Instant::now()) {
                    thread::sleep(wait);
                }
                late_us
                    .push(Instant::now().saturating_duration_since(target).as_nanos() as f64 / 1e3);
                let row = &rows[id % rows.len()];
                let msg = Message::Infer {
                    id: id as u64,
                    trace: id as u64 + 1,
                    rows: 1,
                    cols: row.len() as u32,
                    data: TensorPayload::Dense(row.clone()),
                };
                if tx.send(&msg).is_err() {
                    break;
                }
                sent += 1;
            }
            let span = Instant::now().saturating_duration_since(epoch).as_secs_f64();
            // Hand the send half back so the connection stays open until
            // every response has arrived.
            (tx, sent, late_us, span)
        })
    };

    let receiver = {
        let arrivals = Arc::clone(&arrivals);
        thread::spawn(move || {
            let mut out = LoadOutcome {
                sent: 0,
                served: 0,
                shed: 0,
                rejected: 0,
                errors: 0,
                latency_us: Vec::with_capacity(n),
                latency_us_by_second: Vec::new(),
                late_us: Vec::new(),
                elapsed_s: 0.0,
                send_span_s: 0.0,
                samples: Vec::new(),
            };
            for _ in 0..n {
                match rx.recv() {
                    Ok(Message::InferResult { id, data, .. }) => {
                        let scheduled = epoch + Duration::from_nanos(arrivals[id as usize]);
                        let lat = Instant::now().saturating_duration_since(scheduled);
                        let us = lat.as_nanos() as f64 / 1e3;
                        out.latency_us.push(us);
                        let second = (arrivals[id as usize] / 1_000_000_000) as usize;
                        if out.latency_us_by_second.len() <= second {
                            out.latency_us_by_second.resize(second + 1, Vec::new());
                        }
                        out.latency_us_by_second[second].push(us);
                        out.served += 1;
                        if id % SAMPLE_EVERY == 0 {
                            out.samples.push((id, data.into_dense()));
                        }
                    }
                    Ok(Message::InferReject { reason: RejectReason::QueueFull, .. }) => {
                        out.shed += 1
                    }
                    Ok(_) => out.rejected += 1,
                    Err(_) => break,
                }
            }
            out.elapsed_s = Instant::now().saturating_duration_since(epoch).as_secs_f64();
            out
        })
    };

    let (tx, sent, late_us, send_span_s) = sender.join().expect("open-loop sender panicked");
    let mut out = receiver.join().expect("open-loop receiver panicked");
    drop(tx);
    out.sent = sent;
    out.late_us = late_us;
    out.send_span_s = send_span_s;
    out.errors = sent - out.served - out.shed - out.rejected;
    out
}

/// Request rows: real inputs of the synthetic image task.
fn request_rows(seed: u64) -> Vec<Vec<f32>> {
    mlp_minibatches(seed)
        .iter()
        .flatten()
        .flat_map(|b| {
            let cols = b.x.len() / b.y.len();
            b.x.data().chunks(cols).map(<[f32]>::to_vec).collect::<Vec<_>>()
        })
        .collect()
}

/// Checks shared by both modes and the lateness validity rule.
fn check_load(r: &mut Report, model: &Mlp, params: &[f32], rows: &[Vec<f32>], out: &LoadOutcome) {
    let mut mismatched = 0;
    for (id, got) in &out.samples {
        let row = &rows[*id as usize % rows.len()];
        let want = model.logits(params, &Tensor::from_vec(row.clone(), &[1, row.len()]));
        let same = got.len() == want.len()
            && got.iter().zip(want.data()).all(|(a, b)| a.to_bits() == b.to_bits());
        mismatched += !same as usize;
    }
    r.check(
        mismatched == 0 && !out.samples.is_empty(),
        format!("{} sampled responses equal Mlp::logits bit for bit", out.samples.len()),
    );
    r.check(out.errors == 0, format!("no transport errors ({} requests unanswered)", out.errors));
}

/// The validity rule: a generator that fell behind its schedule makes
/// the run invalid rather than a measurement of slow serving. Short
/// stalls that delay sender and server alike are not falling behind;
/// they show up in the latency, which counts from the schedule.
fn check_generator(r: &mut Report, out: &LoadOutcome) {
    if out.late_us.is_empty() {
        r.check(false, "the generator sent requests");
        return;
    }
    let late_p50 = quantile(&out.late_us, 0.5) / 1e3;
    let rate = out.sent as f64 / out.send_span_s;
    r.check(
        late_p50 <= LATE_P50_LIMIT_MS && rate >= MIN_RATE_SHARE * RATE,
        format!(
            "generator kept its schedule: median send lateness {late_p50:.3} ms \
             (limit {LATE_P50_LIMIT_MS}), sent {rate:.0} req/s (limit {:.0})",
            MIN_RATE_SHARE * RATE
        ),
    );
}

fn served_rps(out: &LoadOutcome) -> f64 {
    out.served as f64 / out.elapsed_s
}

/// The median over whole seconds of the schedule of each second's `q`
/// latency quantile, ms: one noisy second cannot move it.
fn per_second_median_ms(out: &LoadOutcome, q: f64) -> f64 {
    let per_second: Vec<f64> = out
        .latency_us_by_second
        .iter()
        .filter(|w| w.len() as f64 >= RATE / 2.0)
        .map(|w| quantile(w, q) / 1e3)
        .collect();
    median(&per_second)
}

/// `serve_open_mlp`: the MLP served over two stages at 8k req/s.
pub fn serve_open_mlp(args: &Args) -> Report {
    let model = Arc::new(Mlp::new(&MLP_WIDTHS));
    let mut params = vec![0.0f32; TrainModel::param_len(model.as_ref())];
    TrainModel::init_params(model.as_ref(), &mut params, &mut StdRng::seed_from_u64(args.seed));
    let rows = Arc::new(request_rows(args.seed));
    let mut r = Report::default();

    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let mut setup = Vec::new();
    let mut start = || {
        let p = params.clone();
        let t0 = Instant::now();
        let (server, _recorder) =
            serve_checkpoint(Arc::clone(&model), p, serve_cfg()).expect("server starts");
        setup.push(t0.elapsed().as_secs_f64());
        server
    };
    let server = start();
    let plain = open_loop(&server, &rows, schedule(args.seed, seconds));
    let rss = peak_rss_mib();
    let stats = server.shutdown();
    // More starts for the `setup_s` median, after the peak-RSS reading so
    // their parameter copies cannot raise it.
    for _ in 1..if args.trace { 1 } else { SETUP_REPS } {
        start().shutdown();
    }
    check_load(&mut r, &model, &params, &rows, &plain);
    r.check(
        stats.served_requests == plain.served,
        format!("server counted {} served, client {}", stats.served_requests, plain.served),
    );
    r.attempted = plain.sent;
    r.failed = plain.shed + plain.rejected + plain.errors;
    if plain.latency_us.is_empty() {
        r.check(false, "the server answered requests");
        return r;
    }
    let p50 = quantile(&plain.latency_us, 0.5) / 1e3;
    let p99 = quantile(&plain.latency_us, 0.99) / 1e3;

    if !args.trace {
        check_generator(&mut r, &plain);
        let setup_s = median(&setup);
        r.metric("samples_per_s", served_rps(&plain));
        r.metric("latency_ms_p50", p50);
        let p90 = per_second_median_ms(&plain, 0.9);
        r.metric("latency_ms_p90", p90);
        r.info("latency_ms_p90_per_second_median", p90, "ms");
        r.info("latency_ms_p99_per_second_median", per_second_median_ms(&plain, 0.99), "ms");
        r.metric("setup_s", setup_s);
        r.metric("peak_rss_mib", rss);
        r.info("latency_ms_p50", p50, "ms");
        r.info("latency_ms_p99", p99, "ms");
        r.info("served_rps", served_rps(&plain), "req/s");
        r.info("offered_rps", RATE, "req/s");
        r.info("failed_frac", r.failed as f64 / r.attempted.max(1) as f64, "ratio");
        r.info("setup_s", setup_s, "s");
        r.info("peak_rss_mib", rss, "MiB");
        r.info("loadgen_late_ms_p50", quantile(&plain.late_us, 0.5) / 1e3, "ms");
        r.info("loadgen_late_ms_p99", quantile(&plain.late_us, 0.99) / 1e3, "ms");
        r.info(
            "rows_per_batch",
            stats.batch_rows.iter().map(|&b| b as f64).sum::<f64>() / stats.batches.max(1) as f64,
            "rows",
        );
        return r;
    }

    // Traced phase: the same server behind a timing InferModel wrapper,
    // kernel instrumentation, and a flight recorder large enough to keep
    // every request's queue-wait span.
    let arrivals = schedule(args.seed, seconds);
    let timed = Arc::new(TimedInfer::new(Mlp::new(&MLP_WIDTHS)));
    let cfg = serve_cfg();
    let recorder = Arc::new(FlightRecorder::new(cfg.stages + 1, arrivals.len() * 3 / 2 + 4096));
    let registry = MetricsRegistry::new();
    let kernels = install_kernel_metrics(&registry);
    let server = Server::start(
        Arc::clone(&timed),
        params.clone(),
        cfg,
        None,
        Arc::clone(&recorder) as DynRecorder,
    )
    .expect("traced server starts");
    let out = open_loop(&server, &rows, arrivals);
    let stats = server.shutdown();
    uninstall_kernel_metrics();
    check_load(&mut r, &model, &params, &rows, &out);
    r.failed += out.shed + out.rejected + out.errors;
    r.attempted += out.sent;
    if out.latency_us.is_empty() {
        r.check(false, "the traced server answered requests");
        return r;
    }

    let batches = stats.batches.max(1) as f64;
    let busy = timed.busy_ns();
    r.check(
        timed.calls().iter().all(|&c| c == stats.batches),
        format!("every stage ran each of the {} batches once", stats.batches),
    );
    let wall_ns = out.elapsed_s * 1e9;
    r.metric(
        "serve.rows_per_batch",
        stats.batch_rows.iter().map(|&b| b as f64).sum::<f64>() / batches,
    );
    let waits: Vec<f64> = recorder
        .snapshot()
        .iter()
        .filter(|e| e.kind == SpanKind::QueueWaitFwd)
        .map(|e| e.dur_us as f64 / 1e3)
        .collect();
    r.check(
        waits.len() as u64 == out.served && recorder.overwritten() == 0,
        format!("flight recorder kept {} queue-wait spans for {} served", waits.len(), out.served),
    );
    if !waits.is_empty() {
        r.metric("serve.queue_wait_ms_p50", quantile(&waits, 0.5));
        r.metric("serve.queue_wait_ms_p99", quantile(&waits, 0.99));
    }
    let busy_max = busy.iter().copied().max().unwrap_or(0) as f64;
    r.metric("serve.stage_busy_frac", busy_max / wall_ns);
    let infer_us = busy.iter().sum::<u64>() as f64 / 1e3 / batches;
    r.metric("nn.infer_us_per_batch", infer_us);
    r.metric("loadgen.late_ms_p99", quantile(&out.late_us, 0.99) / 1e3);
    let mut kernel_ms = 0.0;
    for (kind, name) in KERNELS {
        let ms = kernels.latency(kind).snapshot().sum / 1e3 / batches;
        kernel_ms += ms;
        r.metric(name, ms);
    }
    let flops = kernels.flops.get() as f64;
    r.metric("kernel.flops_per_step", flops / batches);
    r.metric("kernel.gflops", flops / (kernel_ms * batches / 1e3) / 1e9);
    r.metric("kernel.share_of_nn", kernel_ms / (infer_us / 1e3));
    r.metric("trace.step_ms", quantile(&out.latency_us, 0.5) / 1e3);
    r.metric("trace.overhead_frac", quantile(&out.latency_us, 0.5) / 1e3 / p50 - 1.0);
    r.info("untraced_latency_ms_p50", p50, "ms");
    r.info("traced_latency_ms_p50", quantile(&out.latency_us, 0.5) / 1e3, "ms");
    r.info("untraced_served_rps", served_rps(&plain), "req/s");
    r.info("traced_served_rps", served_rps(&out), "req/s");
    r
}
