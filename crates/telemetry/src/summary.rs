//! Derived pipeline timeline analysis.
//!
//! The whole-trace view of a [`StageFold`]: per-stage utilization, the
//! overall bubble fraction, and a measured per-stage forward delay to
//! compare against the paper's nominal `τ_fwd,i = (2(P−i)+1)/N`. This
//! is how a perf PR proves its win: record, summarize, diff against the
//! model.

use crate::event::TraceEvent;
use crate::fold::{fold_windows, StageFold};
use crate::json::Value;

/// Per-stage aggregate of one recorded run.
#[derive(Clone, Debug, PartialEq)]
pub struct StageTimeline {
    /// Stage index.
    pub stage: u32,
    /// Microseconds of forward compute.
    pub fwd_us: u64,
    /// Microseconds of backward compute.
    pub bkwd_us: u64,
    /// Microseconds of replay (recompute) forward compute.
    pub recomp_us: u64,
    /// Microseconds spent blocked waiting on either queue
    /// (`wait_fwd_us + wait_bkwd_us`).
    pub wait_us: u64,
    /// Microseconds spent blocked waiting for forward input.
    pub wait_fwd_us: u64,
    /// Microseconds spent blocked waiting for backward input.
    pub wait_bkwd_us: u64,
    /// Fraction of the run span this stage spent computing.
    pub utilization: f64,
    /// Measured mean forward delay in microbatch slots: the number of
    /// weight updates (backward starts at this stage, its own included)
    /// between a microbatch's forward start and its backward start, as
    /// [`crate::fold`] defines it. Comparable to the nominal
    /// `2(P−1−s)+1` slots; divide by `N` for optimizer steps.
    pub measured_delay_slots: f64,
    /// Measured mean recompute delay in microbatch slots: the number of
    /// backward starts at this stage between a microbatch's replay start
    /// and its backward start. Comparable to the nominal `2(S − s mod S)`
    /// of App. D (divide by `N` for τ_recomp in optimizer steps); 0 when
    /// the stage never replays.
    pub measured_recomp_delay_slots: f64,
}

/// Aggregate view of one recorded pipeline run.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineTimelineSummary {
    /// Per-stage aggregates, indexed by stage.
    pub stages: Vec<StageTimeline>,
    /// Wall-clock span of the recorded events (first start to last end),
    /// microseconds.
    pub span_us: u64,
    /// Microbatches that completed a backward at stage 0 (== microbatches
    /// fully processed).
    pub microbatches: usize,
    /// `1 −` mean stage utilization: the fraction of stage-time lost to
    /// pipeline bubbles, fill/drain, and queueing.
    pub bubble_fraction: f64,
}

impl PipelineTimelineSummary {
    /// Builds a summary from a recorded event stream: one
    /// [`StageFold`] window over the whole trace.
    ///
    /// Stages are discovered from `Forward`/`Backward` events; traces
    /// with no compute events produce an empty summary.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut summary = None;
        fold_windows(events, &[u64::MAX], |_, fold| summary = Some(Self::from_fold(fold)));
        summary.expect("one window")
    }

    /// The summary view of a fold's open window.
    fn from_fold(fold: &StageFold) -> Self {
        let n_stages = fold.compute_stages().last().map_or(0, |s| s + 1);
        let span_us = fold.span.filter(|_| n_stages > 0).map_or(0, |(lo, hi)| hi - lo);
        // τ means read 0 (not NaN) on stages without a sample.
        let stages: Vec<StageTimeline> = (0..n_stages)
            .map(|s| {
                let w = fold.stage(s);
                StageTimeline {
                    stage: s,
                    fwd_us: w.fwd.sum,
                    bkwd_us: w.bkwd.sum,
                    recomp_us: w.recomp.sum,
                    wait_us: w.wait_us(),
                    wait_fwd_us: w.wait_fwd_us,
                    wait_bkwd_us: w.wait_bkwd_us,
                    utilization: w.util(span_us),
                    measured_delay_slots: w.tau_fwd.mean().max(0.0),
                    measured_recomp_delay_slots: w.tau_recomp.mean().max(0.0),
                }
            })
            .collect();
        let util_sum: f64 = stages.iter().map(|st| st.utilization).sum();
        PipelineTimelineSummary {
            bubble_fraction: if n_stages == 0 { 0.0 } else { 1.0 - util_sum / n_stages as f64 },
            stages,
            span_us,
            microbatches: fold.stage(0).bkwd.count as usize,
        }
    }

    /// The throughput model's bubble fraction for a `P`-stage pipeline
    /// with `N` microbatches per minibatch under GPipe-style flushes:
    /// `1 − N/(N+P−1) = (P−1)/(N+P−1)`.
    pub fn nominal_gpipe_bubble_fraction(stages: usize, n_micro: usize) -> f64 {
        assert!(stages > 0 && n_micro > 0);
        (stages as f64 - 1.0) / (n_micro as f64 + stages as f64 - 1.0)
    }

    /// The paper's nominal forward delay in microbatch slots for stage
    /// `s` of a `P`-stage pipeline: `2(P−1−s)+1`.
    pub fn nominal_delay_slots(stages: usize, s: usize) -> f64 {
        assert!(s < stages);
        2.0 * (stages - 1 - s) as f64 + 1.0
    }

    /// App. D's nominal recompute delay in microbatch slots for stage `s`
    /// under segmented recomputation with segment size `seg`:
    /// `2(S − s mod S)` — what
    /// [`StageTimeline::measured_recomp_delay_slots`] is compared to on
    /// stages that replay.
    pub fn nominal_recomp_delay_slots(seg: usize, s: usize) -> f64 {
        assert!(seg > 0);
        2.0 * (seg - s % seg) as f64
    }

    /// JSON rendering (used by experiment logs and the trace example).
    pub fn to_json(&self) -> Value {
        let stages = self
            .stages
            .iter()
            .map(|st| {
                Value::obj()
                    .set("stage", st.stage as u64)
                    .set("fwd_us", st.fwd_us)
                    .set("bkwd_us", st.bkwd_us)
                    .set("recomp_us", st.recomp_us)
                    .set("wait_us", st.wait_us)
                    .set("wait_fwd_us", st.wait_fwd_us)
                    .set("wait_bkwd_us", st.wait_bkwd_us)
                    .set("utilization", st.utilization)
                    .set("measured_delay_slots", st.measured_delay_slots)
                    .set("measured_recomp_delay_slots", st.measured_recomp_delay_slots)
            })
            .collect();
        Value::obj()
            .set("span_us", self.span_us)
            .set("microbatches", self.microbatches)
            .set("bubble_fraction", self.bubble_fraction)
            .set("stages", Value::Arr(stages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{SpanKind, NO_MICROBATCH};

    fn span(kind: SpanKind, stage: u32, mb: u32, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent { kind, track: stage, stage, microbatch: mb, ts_us: ts, dur_us: dur, trace: 0 }
    }

    #[test]
    fn empty_trace_is_empty_summary() {
        let s = PipelineTimelineSummary::from_events(&[]);
        assert!(s.stages.is_empty());
        assert_eq!(s.microbatches, 0);
    }

    #[test]
    fn utilization_and_bubble_fraction() {
        // One stage busy 60 of 100 us.
        let events =
            vec![span(SpanKind::Forward, 0, 0, 0, 20), span(SpanKind::Backward, 0, 0, 60, 40)];
        let s = PipelineTimelineSummary::from_events(&events);
        assert_eq!(s.span_us, 100);
        assert_eq!(s.stages.len(), 1);
        assert!((s.stages[0].utilization - 0.6).abs() < 1e-12);
        assert!((s.bubble_fraction - 0.4).abs() < 1e-12);
        assert_eq!(s.microbatches, 1);
    }

    #[test]
    fn wait_time_is_tracked_separately() {
        let events = vec![
            span(SpanKind::QueueWaitFwd, 0, NO_MICROBATCH, 0, 30),
            span(SpanKind::Forward, 0, 0, 30, 10),
            span(SpanKind::QueueWaitBkwd, 0, NO_MICROBATCH, 40, 20),
            span(SpanKind::Backward, 0, 0, 60, 20),
        ];
        let s = PipelineTimelineSummary::from_events(&events);
        assert_eq!(s.stages[0].wait_us, 50);
        assert_eq!(s.stages[0].wait_fwd_us, 30);
        assert_eq!(s.stages[0].wait_bkwd_us, 20);
        assert_eq!(s.stages[0].fwd_us, 10);
        assert_eq!(s.stages[0].bkwd_us, 20);
    }

    #[test]
    fn measured_delay_counts_interleaved_backwards() {
        // Stage 0 of a 2-stage-like trace: fwd(0), fwd(1), bkwd(0),
        // bkwd(1), bkwd(2) with fwd(2) after two backwards.
        let events = vec![
            span(SpanKind::Forward, 0, 0, 0, 5),
            span(SpanKind::Forward, 0, 1, 10, 5),
            span(SpanKind::Backward, 0, 0, 20, 5),
            span(SpanKind::Backward, 0, 1, 30, 5),
            span(SpanKind::Forward, 0, 2, 40, 5),
            span(SpanKind::Backward, 0, 2, 50, 5),
        ];
        let s = PipelineTimelineSummary::from_events(&events);
        // mb0: one other backward in [0, 20)? none → 1 slot (own update).
        // mb1: bkwd(0) at 20 ∈ [10, 30) → 2 slots.
        // mb2: none between 40 and 50 → 1 slot.
        assert!((s.stages[0].measured_delay_slots - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn nominal_models_match_paper() {
        assert!((PipelineTimelineSummary::nominal_gpipe_bubble_fraction(4, 2) - 0.6).abs() < 1e-12);
        assert_eq!(PipelineTimelineSummary::nominal_delay_slots(4, 0), 7.0);
        assert_eq!(PipelineTimelineSummary::nominal_delay_slots(4, 3), 1.0);
        // App. D: segment size 4 → boundary replays 8 slots early, the
        // segment's last stage only 2.
        assert_eq!(PipelineTimelineSummary::nominal_recomp_delay_slots(4, 0), 8.0);
        assert_eq!(PipelineTimelineSummary::nominal_recomp_delay_slots(4, 3), 2.0);
        assert_eq!(PipelineTimelineSummary::nominal_recomp_delay_slots(3, 7), 4.0);
    }

    #[test]
    fn recompute_spans_are_aggregated_and_measured() {
        // Stage 0: replay of mb2 starts at 35; backwards of mb0 (40) and
        // mb1 (50) land before mb2's backward at 60 → 2 measured slots.
        let events = vec![
            span(SpanKind::Forward, 0, 0, 0, 5),
            span(SpanKind::Forward, 0, 1, 10, 5),
            span(SpanKind::Forward, 0, 2, 20, 5),
            span(SpanKind::Recompute, 0, 2, 35, 5),
            span(SpanKind::Backward, 0, 0, 40, 5),
            span(SpanKind::Backward, 0, 1, 50, 5),
            span(SpanKind::Backward, 0, 2, 60, 5),
        ];
        let s = PipelineTimelineSummary::from_events(&events);
        assert_eq!(s.stages[0].recomp_us, 5);
        assert!((s.stages[0].measured_recomp_delay_slots - 2.0).abs() < 1e-12);
        // Replay time counts as compute, not bubble.
        assert_eq!(s.stages[0].fwd_us + s.stages[0].bkwd_us + s.stages[0].recomp_us, 35);
        let j = s.to_json();
        let row = &j.get("stages").unwrap().as_arr().unwrap()[0];
        assert!(row.get("recomp_us").is_some());
        assert!(row.get("measured_recomp_delay_slots").is_some());
    }

    #[test]
    fn to_json_has_stage_rows() {
        let events = vec![
            span(SpanKind::Forward, 0, 0, 0, 10),
            span(SpanKind::Backward, 0, 0, 10, 10),
            span(SpanKind::Forward, 1, 0, 5, 10),
            span(SpanKind::Backward, 1, 0, 15, 10),
        ];
        let s = PipelineTimelineSummary::from_events(&events);
        let j = s.to_json();
        assert_eq!(j.get("stages").unwrap().as_arr().unwrap().len(), 2);
        let text = j.to_pretty();
        assert!(crate::json::parse(&text).is_ok());
    }
}
