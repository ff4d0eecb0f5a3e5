//! The `pmtop` render engine: turns live-store scrape payloads into
//! the per-stage dashboard table.
//!
//! All rendering is pure `Value → String` so the table is unit-testable
//! without sockets; the `pmtop` binary is a thin polling loop around
//! [`crate::scrape::scrape_once`] + [`render`]. The columns mirror what
//! the PipeMare analysis cares about live: per-stage utilization,
//! compute-phase means, measured-vs-nominal τ delay, the health
//! monitor's α-margin, serving queue depth / shed counters, and wire
//! throughput gauges.

use crate::analyze::pct_delta;
use crate::json::Value;

fn num(v: Option<&Value>) -> f64 {
    v.and_then(Value::as_f64).unwrap_or(f64::NAN)
}

fn metric_field(snap: &Value, name: &str, field: &str) -> f64 {
    num(snap.get("metrics").and_then(|m| m.get(name)).and_then(|m| m.get(field)))
}

fn counter_delta(snap: &Value, name: &str) -> f64 {
    num(snap.get("counters_delta").and_then(|d| d.get(name)))
}

fn fmt(v: f64, prec: usize) -> String {
    if v.is_finite() {
        format!("{v:.prec$}")
    } else {
        "-".to_string()
    }
}

fn fmt_bytes(v: f64) -> String {
    if !v.is_finite() {
        "-".to_string()
    } else if v >= 1e9 {
        format!("{:.2} GB", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2} MB", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1} KB", v / 1e3)
    } else {
        format!("{v:.0} B")
    }
}

/// Renders one endpoint's scrape payload as the live dashboard block:
/// header, per-stage table, and the serving / wire lines when those
/// metrics are present.
pub fn render(label: &str, snap: &Value) -> String {
    let mut out = String::new();
    let role = snap.get("role").and_then(Value::as_str).unwrap_or("?");
    let seq = num(snap.get("seq"));
    out.push_str(&format!(
        "== {label}   role {role}   seq {}   window {} ms   sample cost {} µs (max {}) ==\n",
        fmt(seq, 0),
        fmt(num(snap.get("window_us")) / 1000.0, 1),
        fmt(num(snap.get("sample_cost_us")), 0),
        fmt(num(snap.get("max_sample_cost_us")), 0),
    ));
    if seq == 0.0 {
        out.push_str("(no sample yet — ticker has not fired)\n");
    }
    let stages = snap.get("stages").and_then(Value::as_arr).unwrap_or(&[]);
    if !stages.is_empty() {
        out.push_str(
            "stage   util%   fwd_µs   bkwd_µs  recomp_µs   wait_µs   \
             tau meas/nom   alpha_margin\n",
        );
        for st in stages {
            let s = num(st.get("stage"));
            let margin =
                metric_field(snap, &format!("health.stage{}.alpha_margin", s as u64), "value");
            out.push_str(&format!(
                "{:>5}   {:>5}   {:>6}   {:>7}   {:>8}   {:>7}   {:>12}   {:>12}\n",
                fmt(s, 0),
                fmt(100.0 * num(st.get("util")), 1),
                fmt(num(st.get("fwd_us")), 1),
                fmt(num(st.get("bkwd_us")), 1),
                fmt(num(st.get("recomp_us")), 1),
                fmt(num(st.get("wait_us")), 0),
                format!("{}/{}", fmt(num(st.get("tau")), 2), fmt(num(st.get("tau_nominal")), 1)),
                if margin.is_finite() { format!("{margin:+.3}") } else { "-".to_string() },
            ));
        }
    }
    out.push_str(&serve_line(snap));
    out.push_str(&wire_line(snap));
    out.push_str(&alerts_pane(snap));
    out
}

/// The ALERTS pane from the payload's `"alerts"` array; empty when the
/// endpoint has no alert engine or nothing is firing.
fn alerts_pane(snap: &Value) -> String {
    let Some(Value::Arr(alerts)) = snap.get("alerts") else {
        return String::new();
    };
    if alerts.is_empty() {
        return String::new();
    }
    let mut out = format!("ALERTS ({} firing)\n", alerts.len());
    for a in alerts {
        let rule = a.get("rule").and_then(Value::as_str).unwrap_or("?");
        let label = a.get("label").and_then(Value::as_str).unwrap_or("");
        let severity = a.get("severity").and_then(Value::as_str).unwrap_or("?");
        let scope = if label.is_empty() { String::new() } else { format!(" [{label}]") };
        out.push_str(&format!(
            "  {:<8} {rule}{scope}   value {}   since {} s\n",
            severity.to_uppercase(),
            fmt(num(a.get("value")), 3),
            fmt(num(a.get("since_ts_us")) / 1e6, 1),
        ));
    }
    out
}

/// The serving line (queue depth, accepted/shed with per-window deltas,
/// batch-size p50); empty when the endpoint exports no `serve.*`
/// metrics.
fn serve_line(snap: &Value) -> String {
    let depth = metric_field(snap, "serve.queue_depth", "value");
    let accepted = metric_field(snap, "serve.accepted", "value");
    if !depth.is_finite() && !accepted.is_finite() {
        return String::new();
    }
    let shed = metric_field(snap, "serve.shed", "value");
    let window_s = num(snap.get("window_us")) / 1e6;
    let shed_delta = counter_delta(snap, "serve.shed");
    let shed_rate = if window_s > 0.0 && shed_delta.is_finite() {
        format!("{:.1}/s", shed_delta / window_s)
    } else {
        "-".to_string()
    };
    format!(
        "serve: queue depth {}   accepted {} (+{})   shed {} ({})   batch rows p50 {}\n",
        fmt(depth, 0),
        fmt(accepted, 0),
        fmt(counter_delta(snap, "serve.accepted"), 0),
        fmt(shed, 0),
        shed_rate,
        fmt(metric_field(snap, "serve.batch_rows", "p50"), 1),
    )
}

/// The wire-throughput line from `wire.*` gauges; empty when absent.
fn wire_line(snap: &Value) -> String {
    let Some(Value::Obj(metrics)) = snap.get("metrics") else {
        return String::new();
    };
    let sum = |suffix: &str| {
        let mut total = 0.0;
        let mut any = false;
        for (name, m) in metrics {
            if name.starts_with("wire.") && name.ends_with(suffix) {
                total += num(m.get("value"));
                any = true;
            }
        }
        if any {
            total
        } else {
            f64::NAN
        }
    };
    let (txb, rxb) = (sum(".tx_bytes"), sum(".rx_bytes"));
    if !txb.is_finite() && !rxb.is_finite() {
        return String::new();
    }
    format!(
        "wire: tx {} ({} frames)   rx {} ({} frames)\n",
        fmt_bytes(txb),
        fmt(sum(".tx_frames"), 0),
        fmt_bytes(rxb),
        fmt(sum(".rx_frames"), 0),
    )
}

/// Renders several endpoints' payloads, one block each.
pub fn render_many(snaps: &[(String, Value)]) -> String {
    let mut out = String::new();
    for (i, (label, snap)) in snaps.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&render(label, snap));
    }
    out
}

/// Run-vs-run delta: the current scrape against a saved baseline
/// payload, reusing the `pmtrace diff` percentage rendering. Compares
/// per-stage utilization/τ and every counter both sides share.
pub fn render_delta(label: &str, cur: &Value, base: &Value) -> String {
    format!("== pmtop delta: {label} (baseline -> current) ==\n")
        + &delta_text(&delta_json(cur, base))
}

/// Renders a [`delta_json`] object as its stage and counter tables
/// (`pmtop --baseline`, `pmquery diff`).
pub fn delta_text(delta: &Value) -> String {
    let mut out = String::new();
    let rows = |key| delta.get(key).and_then(Value::as_arr).unwrap_or(&[]).to_vec();
    let stages = rows("stages");
    if !stages.is_empty() {
        out.push_str("stage   util base->cur        tau base->cur\n");
    }
    for st in &stages {
        let f = |k| num(st.get(k));
        out.push_str(&format!(
            "{:>5}   {:>5} -> {:<5} ({})   {:>5} -> {:<5}\n",
            f("stage") as u64,
            fmt(f("util_base"), 3),
            fmt(f("util_cur"), 3),
            pct_delta(f("util_base"), f("util_cur")),
            fmt(f("tau_base"), 2),
            fmt(f("tau_cur"), 2),
        ));
    }
    let Some(Value::Obj(counters)) = delta.get("counters") else { return out };
    if !counters.is_empty() {
        out.push_str("counter                      base -> cur\n");
    }
    for (name, c) in counters {
        let (b, c) = (num(c.get("base")), num(c.get("cur")));
        out.push_str(&format!(
            "{name:<26} {:>7} -> {:<7} ({})\n",
            fmt(b, 0),
            fmt(c, 0),
            pct_delta(b, c)
        ));
    }
    out
}

/// Machine-readable variant of [`render_delta`]: the same per-stage
/// and shared-counter comparison as a JSON object, emitted by
/// `pmtop --json --baseline` and `pmquery diff --json` for scripted
/// regression checks. Rows pair by stage id, so a worker's single
/// own-stage row keeps its stage.
pub fn delta_json(cur: &Value, base: &Value) -> Value {
    let rows = |side: &Value| -> Vec<Value> {
        side.get("stages").and_then(Value::as_arr).map(<[Value]>::to_vec).unwrap_or_default()
    };
    let (cur_rows, base_rows) = (rows(cur), rows(base));
    let mut ids: Vec<u64> =
        cur_rows.iter().chain(&base_rows).map(|r| num(r.get("stage")) as u64).collect();
    ids.sort_unstable();
    ids.dedup();
    let field = |side: &[Value], id: u64, key: &str| {
        num(side.iter().find(|r| num(r.get("stage")) as u64 == id).and_then(|r| r.get(key)))
    };
    let stages = ids
        .into_iter()
        .map(|id| {
            Value::obj()
                .set("stage", id)
                .set("util_base", field(&base_rows, id, "util"))
                .set("util_cur", field(&cur_rows, id, "util"))
                .set("tau_base", field(&base_rows, id, "tau"))
                .set("tau_cur", field(&cur_rows, id, "tau"))
        })
        .collect();
    let mut counters = Value::obj();
    if let (Some(Value::Obj(cm)), Some(bm)) = (cur.get("metrics"), base.get("metrics")) {
        for (name, m) in cm {
            if m.get("type").and_then(Value::as_str) != Some("counter") {
                continue;
            }
            let b = num(bm.get(name).and_then(|v| v.get("value")));
            if !b.is_finite() {
                continue;
            }
            counters = counters
                .set(name.as_str(), Value::obj().set("base", b).set("cur", num(m.get("value"))));
        }
    }
    Value::obj().set("stages", Value::Arr(stages)).set("counters", counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_payload() -> Value {
        json::parse(
            r#"{"role":"worker-1","n_stages":2,"seq":9,"ts_us":900000,
                "window_us":250000,"sample_cost_us":42,"max_sample_cost_us":80,
                "stages":[
                  {"stage":0,"util":0.93,"fwd_us":40.5,"bkwd_us":81.0,
                   "recomp_us":null,"wait_us":1200,"tau":2.98,"tau_nominal":3.0,
                   "tau_pairs":12,"events":48},
                  {"stage":1,"util":0.88,"fwd_us":39.0,"bkwd_us":80.0,
                   "recomp_us":22.0,"wait_us":800,"tau":1.05,"tau_nominal":1.0,
                   "tau_pairs":12,"events":50}],
                "metrics":{
                  "health.stage0.alpha_margin":{"type":"gauge","value":0.113},
                  "serve.accepted":{"type":"counter","value":1200},
                  "serve.shed":{"type":"counter","value":17},
                  "serve.queue_depth":{"type":"gauge","value":3},
                  "serve.batch_rows":{"type":"histogram","count":10,"sum":60,
                    "mean":6.0,"p50":6.0,"p99":8.0,"bounds":[8.0],"counts":[10]},
                  "wire.peer0.tx_bytes":{"type":"gauge","value":1500000},
                  "wire.peer0.rx_bytes":{"type":"gauge","value":900000},
                  "wire.peer0.tx_frames":{"type":"gauge","value":5300},
                  "wire.peer0.rx_frames":{"type":"gauge","value":4100}},
                "counters_delta":{"serve.accepted":40,"serve.shed":2}}"#,
        )
        .unwrap()
    }

    #[test]
    fn render_shows_stages_health_serve_and_wire() {
        let text = render("127.0.0.1:9100", &sample_payload());
        assert!(text.contains("role worker-1"), "{text}");
        assert!(text.contains("seq 9"), "{text}");
        // Stage 0: util 93.0%, τ 2.98/3.0, α-margin +0.113.
        assert!(text.contains("93.0"), "{text}");
        assert!(text.contains("2.98/3.0"), "{text}");
        assert!(text.contains("+0.113"), "{text}");
        // Stage 1 has no margin gauge and no recomp → dashes, not 0.
        assert!(
            text.lines().any(|l| l.trim_start().starts_with('1') && l.ends_with('-')),
            "{text}"
        );
        assert!(text.contains("queue depth 3"), "{text}");
        assert!(text.contains("accepted 1200 (+40)"), "{text}");
        assert!(text.contains("shed 17"), "{text}");
        assert!(text.contains("batch rows p50 6.0"), "{text}");
        assert!(text.contains("tx 1.50 MB (5300 frames)"), "{text}");
        assert!(text.contains("rx 900.0 KB (4100 frames)"), "{text}");
    }

    #[test]
    fn render_degrades_on_empty_payload() {
        let empty = json::parse(
            r#"{"role":"idle","n_stages":0,"seq":0,"ts_us":0,"window_us":0,
                "sample_cost_us":0,"max_sample_cost_us":0,"stages":[]}"#,
        )
        .unwrap();
        let text = render("e", &empty);
        assert!(text.contains("no sample yet"), "{text}");
        assert!(!text.contains("serve:"), "{text}");
        assert!(!text.contains("wire:"), "{text}");
    }

    #[test]
    fn alerts_pane_lists_firing_rules() {
        let mut p = sample_payload();
        p = p.set(
            "alerts",
            Value::Arr(vec![
                json::parse(
                    r#"{"rule":"alpha_margin_floor","label":"stage1",
                        "severity":"critical","since_ts_us":750000,"value":0.42}"#,
                )
                .unwrap(),
                json::parse(
                    r#"{"rule":"shed_burn","label":"",
                        "severity":"warn","since_ts_us":500000,"value":0.31}"#,
                )
                .unwrap(),
            ]),
        );
        let text = render("w", &p);
        assert!(text.contains("ALERTS (2 firing)"), "{text}");
        assert!(text.contains("CRITICAL alpha_margin_floor [stage1]"), "{text}");
        assert!(text.contains("WARN     shed_burn   value 0.310"), "{text}");
        // Empty array → no pane at all.
        let quiet = sample_payload().set("alerts", Value::Arr(Vec::new()));
        assert!(!render("w", &quiet).contains("ALERTS"), "quiet payload renders no pane");
    }

    #[test]
    fn render_many_concatenates_blocks() {
        let p = sample_payload();
        let text = render_many(&[("a".to_string(), p.clone()), ("b".to_string(), p)]);
        assert!(text.contains("== a "), "{text}");
        assert!(text.contains("== b "), "{text}");
    }

    #[test]
    fn delta_mode_reports_percentage_changes() {
        let cur = sample_payload();
        let mut base = sample_payload();
        // Baseline had lower load on stage 0 and fewer accepts.
        if let Some(Value::Arr(stages)) = base.get("stages").cloned() {
            let s0 = stages[0].clone().set("util", 0.465);
            base = base.set("stages", Value::Arr(vec![s0, stages[1].clone()]));
        }
        if let Some(m) = base.get("metrics").cloned() {
            base = base.set(
                "metrics",
                m.set("serve.accepted", Value::obj().set("type", "counter").set("value", 600u64)),
            );
        }
        let text = render_delta("worker", &cur, &base);
        assert!(text.contains("+100.0%"), "{text}");
        assert!(text.contains("serve.accepted"), "{text}");
        assert!(text.contains("600"), "{text}");
    }
}
