//! The one per-stage fold behind every timeline statistic.
//!
//! Events go into a [`StageFold`] one at a time; the timeline summary
//! (one window over a trace), `pmtrace drift` (consecutive windows),
//! each live sample (the window between two ticks) and the health
//! monitor's τ histograms are views of it. The definitions:
//!
//! * **Window**: an event belongs to the window `(t0, t1]` that holds
//!   its end; the first window also holds its own start. Events are
//!   recorded when they end, so a live tick never revises a window.
//! * **Rows**: only Forward, Backward, Recompute, QueueWaitFwd and
//!   QueueWaitBkwd spans count toward a stage's row.
//! * **Utilization**: a compute span's whole duration counts in its
//!   window; util = busy ÷ window, capped at 1; bubble = 1 − mean util.
//! * **τ**: each backward start of microbatch `m` on stage `s` pairs
//!   with the latest forward (τ_fwd) or replay (τ_recomp) of `m` on `s`
//!   that started at or before it and that no earlier backward paired
//!   with. The sample is `own + |other backward starts on s in
//!   [start, backward start)|`, with `own` 1 for τ_fwd and 0 for
//!   τ_recomp, and lands in the backward's window. Ids may repeat:
//!   distributed workers number microbatches `0..N` every step.
//!
//! A stage's spans never overlap, so one ordered pass per stage computes
//! τ. Unpaired forwards and replays carry across windows, at most
//! [`MAX_PENDING`] per stage: serving's forwards never get a backward.

use std::collections::{BTreeMap, VecDeque};

use crate::event::{SpanKind, TraceEvent};

/// Most unpaired forwards (and replays) a stage keeps; past it the
/// oldest is forgotten.
pub const MAX_PENDING: usize = 1 << 10;

/// A running sum and count (span µs, or τ slots).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Total {
    /// Sum of the values.
    pub sum: u64,
    /// Number of values.
    pub count: u64,
}

impl Total {
    fn add(&mut self, v: u64) {
        self.sum += v;
        self.count += 1;
    }

    /// `sum / count`, NaN when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One stage's totals over one window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageWindow {
    /// Forward spans (µs).
    pub fwd: Total,
    /// Backward spans (µs).
    pub bkwd: Total,
    /// Replay spans (µs).
    pub recomp: Total,
    /// Forward-queue wait, µs.
    pub wait_fwd_us: u64,
    /// Backward-queue wait, µs.
    pub wait_bkwd_us: u64,
    /// Stage-span events folded.
    pub events: u64,
    /// τ_fwd samples (slots).
    pub tau_fwd: Total,
    /// τ_recomp samples (slots).
    pub tau_recomp: Total,
}

impl StageWindow {
    /// Total queue wait, µs.
    pub fn wait_us(&self) -> u64 {
        self.wait_fwd_us + self.wait_bkwd_us
    }

    /// Compute time ÷ `window_us`, capped at 1 (0 for an empty window).
    pub fn util(&self, window_us: u64) -> f64 {
        let busy = self.fwd.sum + self.bkwd.sum + self.recomp.sum;
        if window_us == 0 {
            0.0
        } else {
            (busy as f64 / window_us as f64).min(1.0)
        }
    }
}

/// The delays one backward closed, in slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TauSample {
    /// The backward's stage.
    pub stage: u32,
    /// τ_fwd, if a forward was waiting.
    pub fwd: Option<u64>,
    /// τ_recomp, if a replay was waiting.
    pub recomp: Option<u64>,
}

/// Unpaired starts, oldest first: `(microbatch, backward starts before
/// it)`.
type Pending = VecDeque<(u32, u64)>;

#[derive(Debug, Default)]
struct StageState {
    window: StageWindow,
    /// Backward starts on this stage so far, across windows.
    bkwd_starts: u64,
    fwd: Pending,
    recomp: Pending,
}

fn remember(pending: &mut Pending, mb: u32, bkwd_starts: u64) {
    if pending.len() == MAX_PENDING {
        pending.pop_front();
    }
    pending.push_back((mb, bkwd_starts));
}

fn pair(pending: &mut Pending, mb: u32, bkwd_starts: u64, own: u64) -> Option<u64> {
    let i = pending.iter().rposition(|&(m, _)| m == mb)?;
    pending.remove(i).map(|(_, before)| own + bkwd_starts - before)
}

/// The incremental per-stage accumulator (see the module docs).
#[derive(Debug, Default)]
pub struct StageFold {
    stages: BTreeMap<u32, StageState>,
    /// `(earliest start, latest end)` of every event in the open window.
    pub span: Option<(u64, u64)>,
}

impl StageFold {
    /// Folds one event into the open window; each stage's events must
    /// come in start order. Returns the τ samples a backward closed.
    pub fn push(&mut self, e: &TraceEvent) -> Option<TauSample> {
        let end = e.ts_us.saturating_add(e.dur_us);
        self.span = Some(self.span.map_or((e.ts_us, end), |(a, b)| (a.min(e.ts_us), b.max(end))));
        if !matches!(
            e.kind,
            SpanKind::Forward
                | SpanKind::Backward
                | SpanKind::Recompute
                | SpanKind::QueueWaitFwd
                | SpanKind::QueueWaitBkwd
        ) {
            return None;
        }
        let st = self.stages.entry(e.stage).or_default();
        let w = &mut st.window;
        w.events += 1;
        match e.kind {
            SpanKind::Forward => {
                w.fwd.add(e.dur_us);
                remember(&mut st.fwd, e.microbatch, st.bkwd_starts);
            }
            SpanKind::Recompute => {
                w.recomp.add(e.dur_us);
                remember(&mut st.recomp, e.microbatch, st.bkwd_starts);
            }
            SpanKind::QueueWaitFwd => w.wait_fwd_us += e.dur_us,
            SpanKind::QueueWaitBkwd => w.wait_bkwd_us += e.dur_us,
            _ => {
                w.bkwd.add(e.dur_us);
                let fwd = pair(&mut st.fwd, e.microbatch, st.bkwd_starts, 1);
                let recomp = pair(&mut st.recomp, e.microbatch, st.bkwd_starts, 0);
                st.bkwd_starts += 1;
                fwd.inspect(|&t| w.tau_fwd.add(t));
                recomp.inspect(|&t| w.tau_recomp.add(t));
                let sample = TauSample { stage: e.stage, fwd, recomp };
                return (fwd.is_some() || recomp.is_some()).then_some(sample);
            }
        }
        None
    }

    /// Stage `s`'s totals in the open window (zero when it saw nothing).
    pub fn stage(&self, s: u32) -> StageWindow {
        self.stages.get(&s).map(|st| st.window).unwrap_or_default()
    }

    /// Stages with a forward or backward in the open window, ascending.
    pub fn compute_stages(&self) -> impl Iterator<Item = u32> + '_ {
        let busy = |st: &StageState| st.window.fwd.count + st.window.bkwd.count > 0;
        self.stages.iter().filter(move |(_, st)| busy(st)).map(|(&s, _)| s)
    }

    /// Closes the open window: totals reset, unpaired starts carry over,
    /// and stages with none are forgotten.
    pub fn end_window(&mut self) {
        self.span = None;
        self.stages.retain(|_, st| !st.fwd.is_empty() || !st.recomp.is_empty());
        self.stages.values_mut().for_each(|st| st.window = StageWindow::default());
    }
}

/// `events` in the order a fold takes them: by end, then start (stable,
/// so each stage keeps its start order).
pub fn end_order(events: &[TraceEvent]) -> Vec<&TraceEvent> {
    let mut order: Vec<&TraceEvent> = events.iter().collect();
    order.sort_by_key(|e| (e.ts_us.saturating_add(e.dur_us), e.ts_us));
    order
}

/// Folds `events` into windows closed at the ascending `cuts`: window
/// `k` holds the events ending in `(cuts[k−1], cuts[k]]`, the first one
/// every event ending by `cuts[0]`, and later events are left out.
/// `view(k, fold)` reads each window before the next one opens.
pub fn fold_windows(events: &[TraceEvent], cuts: &[u64], mut view: impl FnMut(usize, &StageFold)) {
    let mut fold = StageFold::default();
    let mut order = end_order(events).into_iter().peekable();
    for (k, &cut) in cuts.iter().enumerate() {
        while let Some(e) = order.next_if(|e| e.ts_us.saturating_add(e.dur_us) <= cut) {
            fold.push(e);
        }
        view(k, &fold);
        fold.end_window();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, mb: u32, ts: u64) -> TraceEvent {
        TraceEvent { kind, track: 0, stage: 0, microbatch: mb, ts_us: ts, dur_us: 5, trace: 0 }
    }

    #[test]
    fn tau_pairs_restarting_ids_within_their_step() {
        // Two steps of a stage-0 trace whose microbatch ids restart at 0
        // every step, as the distributed workers number them.
        let mut events = Vec::new();
        for base in [0, 100] {
            events.push(span(SpanKind::Forward, 0, base));
            events.push(span(SpanKind::Forward, 1, base + 10));
            events.push(span(SpanKind::Backward, 0, base + 20));
            events.push(span(SpanKind::Backward, 1, base + 30));
        }
        let s = crate::PipelineTimelineSummary::from_events(&events);
        // Per step: mb0 → 1 slot, mb1 → 2 slots (bkwd(0) in between),
        // the same as the schedule gives with unique ids.
        assert!((s.stages[0].measured_delay_slots - 1.5).abs() < 1e-12, "{s:?}");
    }

    #[test]
    fn only_stage_kinds_count_toward_rows() {
        let mut fold = StageFold::default();
        fold.push(&span(SpanKind::Step, 0, 0));
        fold.push(&span(SpanKind::Flush, 0, 10));
        assert_eq!(fold.stage(0).events, 0);
        assert_eq!(fold.span, Some((0, 15)));
        fold.push(&span(SpanKind::QueueWaitFwd, 0, 20));
        assert_eq!(fold.stage(0).events, 1);
        assert_eq!(fold.compute_stages().count(), 0);
    }

    #[test]
    fn pending_forwards_carry_across_windows_and_stay_bounded() {
        let mut fold = StageFold::default();
        fold.push(&span(SpanKind::Forward, 0, 0));
        fold.end_window();
        let t = fold.push(&span(SpanKind::Backward, 0, 10)).unwrap();
        assert_eq!((t.fwd, t.recomp), (Some(1), None));
        assert_eq!(fold.stage(0).tau_fwd, Total { sum: 1, count: 1 });
        fold.end_window();
        // Forwards that never get a backward (serving) are capped.
        for mb in 0..2 * MAX_PENDING as u32 {
            fold.push(&span(SpanKind::Forward, mb, 20 + 10 * mb as u64));
        }
        assert_eq!(fold.stages[&0].fwd.len(), MAX_PENDING);
        // A forgotten forward pairs with nothing; a kept one still does.
        assert_eq!(fold.push(&span(SpanKind::Backward, 0, 1 << 20)), None);
        let last = 2 * MAX_PENDING as u32 - 1;
        assert_eq!(fold.push(&span(SpanKind::Backward, last, 1 << 21)).unwrap().fwd, Some(2));
    }

    #[test]
    fn windows_split_by_end_and_the_first_holds_its_start() {
        let events = vec![
            span(SpanKind::Forward, 0, 0),   // ends 5
            span(SpanKind::Backward, 0, 10), // ends 15
            TraceEvent { dur_us: 0, ..span(SpanKind::QueueWaitFwd, 0, 0) },
        ];
        let mut counts = Vec::new();
        fold_windows(&events, &[5, 10, 15], |_, f| counts.push(f.stage(0).events));
        assert_eq!(counts, vec![2, 0, 1]);
    }
}
