//! `StageFold` against a naive reference, and every view of it against
//! the others: the fold's τ samples equal a quadratic pairing written
//! straight from the definition, a `LiveStore` replayed over a recorded
//! flight trace equals the offline windows over the same cutoffs, and a
//! single window equals `PipelineTimelineSummary`.

use std::sync::Arc;

use proptest::prelude::*;

use pipemare_telemetry::analyze::windowed_stats;
use pipemare_telemetry::fold::{end_order, fold_windows};
use pipemare_telemetry::{
    FlightRecorder, LiveStore, PipelineTimelineSummary, Recorder, SpanKind, StageFold, StageLive,
    TraceEvent,
};

const KINDS: [SpanKind; 6] = [
    SpanKind::Forward,
    SpanKind::Backward,
    SpanKind::Recompute,
    SpanKind::QueueWaitFwd,
    SpanKind::QueueWaitBkwd,
    // A driver span stamped with a stage id: never part of a stage row.
    SpanKind::Step,
];

/// Random non-overlapping spans per stage with strictly increasing
/// starts, microbatch ids drawn from a small set so they repeat.
/// Each tuple is `(stage, kind, microbatch, gap, duration)`.
fn build(stages: u32, raw: &[(u32, usize, u32, u64, u64)]) -> Vec<TraceEvent> {
    let mut next = vec![0u64; stages as usize];
    let mut events: Vec<TraceEvent> = raw
        .iter()
        .map(|&(s, k, mb, gap, dur)| {
            let s = s % stages;
            let ts = next[s as usize] + gap;
            next[s as usize] = ts + dur;
            let kind = KINDS[k];
            let track = if kind == SpanKind::Step { stages } else { s };
            TraceEvent { kind, track, stage: s, microbatch: mb, ts_us: ts, dur_us: dur, trace: 0 }
        })
        .collect();
    events.sort_by_key(|e| (e.ts_us, e.track));
    events
}

fn trace() -> impl Strategy<Value = Vec<TraceEvent>> {
    (1u32..5, prop::collection::vec((0u32..4, 0usize..6, 0u32..4, 1u64..30, 0u64..20), 0..160))
        .prop_map(|(stages, raw)| build(stages, &raw))
}

/// The τ samples of stage `s` by the definition, quadratically: each
/// backward pairs with the latest earlier unpaired forward (replay) of
/// its microbatch; the sample is `own` plus the other backwards started
/// in `[that start, this backward's start)`. `(τ_fwd, τ_recomp)` per
/// backward, in start order.
fn reference_tau(events: &[TraceEvent], s: u32) -> Vec<(Option<u64>, Option<u64>)> {
    let own: Vec<&TraceEvent> = events.iter().filter(|e| e.stage == s).collect();
    let mut used = vec![false; own.len()];
    let mut out = Vec::new();
    for (i, b) in own.iter().enumerate().filter(|(_, e)| e.kind == SpanKind::Backward) {
        let mut sample = |kind: SpanKind, own_update: u64| {
            let j = (0..i)
                .rev()
                .find(|&j| !used[j] && own[j].kind == kind && own[j].microbatch == b.microbatch)?;
            used[j] = true;
            let between = own
                .iter()
                .enumerate()
                .filter(|&(k, e)| {
                    k != i
                        && e.kind == SpanKind::Backward
                        && e.ts_us >= own[j].ts_us
                        && e.ts_us < b.ts_us
                })
                .count() as u64;
            Some(own_update + between)
        };
        let fwd = sample(SpanKind::Forward, 1);
        let recomp = sample(SpanKind::Recompute, 0);
        if fwd.is_some() || recomp.is_some() {
            out.push((fwd, recomp));
        }
    }
    out
}

fn mean(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<u64>() as f64 / xs.len() as f64
    }
}

fn row_bits(row: &StageLive) -> String {
    format!("{row:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The fold pairs exactly the samples the definition gives.
    #[test]
    fn fold_tau_samples_equal_the_reference(events in trace()) {
        let mut fold = StageFold::default();
        let mut got: Vec<Vec<(Option<u64>, Option<u64>)>> = vec![Vec::new(); 4];
        for e in end_order(&events) {
            if let Some(t) = fold.push(e) {
                got[t.stage as usize].push((t.fwd, t.recomp));
            }
        }
        for s in 0..4u32 {
            prop_assert_eq!(&got[s as usize], &reference_tau(&events, s));
        }
    }

    /// A live store fed the recorded trace tick by tick samples the
    /// same rows as the offline windows closed at the same cutoffs.
    #[test]
    fn live_store_replay_equals_offline_windows(
        events in trace(),
        raw_cuts in prop::collection::vec(0u64..1_000, 1..8),
    ) {
        let stages = 4;
        let end = events.iter().map(|e| e.ts_us + e.dur_us).max().unwrap_or(0);
        let mut cuts: Vec<u64> = raw_cuts.iter().map(|c| c * (end + 1) / 1_000).collect();
        cuts.sort_unstable();
        cuts.push(end);

        let flight = Arc::new(FlightRecorder::new(stages as usize + 1, 4096));
        let store = LiveStore::new("replay", stages as usize).with_events(flight.clone());
        let mut pending = end_order(&events).into_iter().peekable();
        let mut live = Vec::new();
        for &cut in &cuts {
            while let Some(e) = pending.next_if(|e| e.ts_us + e.dur_us <= cut) {
                flight.record(*e);
            }
            store.sample();
            live.push(store.latest().unwrap());
        }

        let mut k = 0;
        fold_windows(&events, &cuts, |w, fold| {
            k = w + 1;
            let sample = &live[w];
            let want: Vec<String> = (0..stages)
                .map(|s| row_bits(&StageLive::from_window(s, &fold.stage(s), sample.window_us.max(1))))
                .collect();
            let got: Vec<String> = sample.stages.iter().map(row_bits).collect();
            assert_eq!(got, want, "window {w} of cuts {cuts:?}");
        });
        prop_assert_eq!(k, cuts.len());
    }

    /// One window over the whole trace is the summary, and both match
    /// totals and τ means computed straight from the definitions.
    #[test]
    fn single_window_equals_the_summary(events in trace()) {
        let summary = PipelineTimelineSummary::from_events(&events);
        let n = events
            .iter()
            .filter(|e| matches!(e.kind, SpanKind::Forward | SpanKind::Backward))
            .map(|e| e.stage as usize + 1)
            .max()
            .unwrap_or(0);
        prop_assert_eq!(summary.stages.len(), n);
        if n == 0 {
            prop_assert!(windowed_stats(&events, 1).is_empty());
            return Ok(());
        }
        let start = events.iter().map(|e| e.ts_us).min().unwrap();
        let span = events.iter().map(|e| e.ts_us + e.dur_us).max().unwrap() - start;
        let mut utils = Vec::new();
        for st in &summary.stages {
            let total = |kind| -> u64 {
                events.iter().filter(|e| e.stage == st.stage && e.kind == kind).map(|e| e.dur_us).sum()
            };
            prop_assert_eq!(st.fwd_us, total(SpanKind::Forward));
            prop_assert_eq!(st.bkwd_us, total(SpanKind::Backward));
            prop_assert_eq!(st.recomp_us, total(SpanKind::Recompute));
            prop_assert_eq!(st.wait_fwd_us, total(SpanKind::QueueWaitFwd));
            prop_assert_eq!(st.wait_bkwd_us, total(SpanKind::QueueWaitBkwd));
            let busy = st.fwd_us + st.bkwd_us + st.recomp_us;
            let util = if span == 0 { 0.0 } else { (busy as f64 / span as f64).min(1.0) };
            prop_assert_eq!(st.utilization.to_bits(), util.to_bits());
            utils.push(util);
            let tau = reference_tau(&events, st.stage);
            let fwd: Vec<u64> = tau.iter().filter_map(|t| t.0).collect();
            let recomp: Vec<u64> = tau.iter().filter_map(|t| t.1).collect();
            prop_assert_eq!(st.measured_delay_slots.to_bits(), mean(&fwd).to_bits());
            prop_assert_eq!(st.measured_recomp_delay_slots.to_bits(), mean(&recomp).to_bits());
        }
        let bubble = 1.0 - utils.iter().sum::<f64>() / n as f64;
        prop_assert_eq!(summary.bubble_fraction.to_bits(), bubble.to_bits());

        let window = &windowed_stats(&events, 1)[0];
        prop_assert_eq!(window.t0_us, 0);
        for st in &summary.stages {
            let s = st.stage as usize;
            let or_zero = |t: f64| if t.is_nan() { 0.0 } else { t };
            prop_assert_eq!(or_zero(window.tau_fwd[s]).to_bits(), st.measured_delay_slots.to_bits());
            prop_assert_eq!(
                or_zero(window.tau_recomp[s]).to_bits(),
                st.measured_recomp_delay_slots.to_bits()
            );
        }
        if span > 0 {
            prop_assert_eq!(window.bubble_fraction.to_bits(), summary.bubble_fraction.to_bits());
        }
    }
}
