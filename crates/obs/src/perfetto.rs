//! Chrome trace-event / Perfetto JSON export.
//!
//! Renders one or more [`CausalTracer`]s as a single
//! `{"traceEvents":[...]}` document loadable by `ui.perfetto.dev` or
//! `chrome://tracing`. Each tracer becomes one Perfetto *process*
//! (`pid` = point index, named by its label); each sim track becomes a
//! *thread* (`tid` 0 is the cluster-wide track, `tid` n+1 is
//! accelerator n).
//!
//! Mapping:
//!
//! * slices and instants → `"ph":"X"` complete events (instants with
//!   `dur` 0) with sim-time timestamps in fractional microseconds at
//!   nanosecond precision;
//! * async lifecycle spans → `"ph":"b"`/`"e"` pairs sharing the span id;
//! * causal links → `"ph":"s"`/`"f"` flow arrows from the cause slice
//!   to the effect slice; the effect's args also carry `"cause"` so the
//!   linkage survives tools that ignore flows.
//!
//! Every field is derived from sim state and dense ids, so the exported
//! bytes are identical for any `--threads` and distinct across seeds
//! (the `trace_id` rides in `otherData` and every event's args carry
//! dense ids derived from it).

use std::collections::HashMap;

use crate::causal::{CausalTracer, SpanId, SpanRec, CLUSTER_TRACK};

/// Escapes a string for direct inclusion inside JSON quotes.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Sim nanoseconds → trace-event microseconds with ns precision.
fn ts(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn tid(track: u32) -> u64 {
    if track == CLUSTER_TRACK {
        0
    } else {
        u64::from(track) + 1
    }
}

/// Builds the deterministic `args` object for a span.
fn args(span: &SpanRec, cause: Option<u64>) -> String {
    let mut a = format!("{{\"span\":{},\"subject\":{}", span.id.0, span.subject);
    if let Some(p) = span.parent {
        a.push_str(&format!(",\"parent\":{}", p.0));
    }
    if span.detail.bytes > 0 {
        a.push_str(&format!(",\"bytes\":{}", span.detail.bytes));
    }
    if !span.detail.reason.is_empty() {
        a.push_str(&format!(",\"reason\":\"{}\"", esc(span.detail.reason)));
    }
    if let Some(seq) = span.detail.audit_seq {
        a.push_str(&format!(",\"audit_seq\":{seq}"));
    }
    if span.detail.required {
        a.push_str(",\"required\":1");
    }
    if let Some(c) = cause {
        a.push_str(&format!(",\"cause\":{c}"));
    }
    a.push('}');
    a
}

/// Exports labelled tracers as one Chrome trace-event JSON document.
/// Point order is the caller's (grid) order, so output is reproducible.
pub fn chrome_trace(points: &[(String, &CausalTracer)]) -> String {
    let mut ev: Vec<String> = Vec::new();
    let mut flow_id = 0u64;

    for (pid, (label, tracer)) in points.iter().enumerate() {
        ev.push(format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            esc(label)
        ));
        let mut tracks: Vec<u32> = tracer.spans().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        for track in tracks {
            let name = if track == CLUSTER_TRACK {
                "cluster".to_string()
            } else {
                format!("accel {track}")
            };
            ev.push(format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{},\
                 \"args\":{{\"name\":\"{name}\"}}}}",
                tid(track)
            ));
        }

        // Indexed once per tracer, so the export is linear in spans plus
        // links: the retained spans by id (for the flow endpoints) and
        // the first recorded cause of each effect (it rides in the
        // effect's args). Only looked up, never iterated, so hash order
        // cannot reach the bytes.
        let by_id: HashMap<SpanId, &SpanRec> = tracer.spans().map(|s| (s.id, s)).collect();
        let mut first_cause: HashMap<SpanId, u64> = HashMap::new();
        for l in tracer.links() {
            first_cause.entry(l.effect).or_insert(l.cause.0);
        }

        for span in tracer.spans() {
            let name = span.kind.label();
            let cat = span.kind.category();
            let t0 = span.begin.as_nanos();
            let t1 = span.end.as_nanos();
            let a = args(span, first_cause.get(&span.id).copied());
            if span.is_async {
                // b/e pair share the span id; ids are scoped per cat+pid.
                ev.push(format!(
                    "{{\"ph\":\"b\",\"cat\":\"{cat}\",\"name\":\"{name}\",\"id\":\"{}\",\
                     \"pid\":{pid},\"tid\":{},\"ts\":{},\"args\":{a}}}",
                    span.id.0,
                    tid(span.track),
                    ts(t0)
                ));
                ev.push(format!(
                    "{{\"ph\":\"e\",\"cat\":\"{cat}\",\"name\":\"{name}\",\"id\":\"{}\",\
                     \"pid\":{pid},\"tid\":{},\"ts\":{}}}",
                    span.id.0,
                    tid(span.track),
                    ts(t1)
                ));
            } else {
                ev.push(format!(
                    "{{\"ph\":\"X\",\"cat\":\"{cat}\",\"name\":\"{name}\",\"pid\":{pid},\
                     \"tid\":{},\"ts\":{},\"dur\":{},\"args\":{a}}}",
                    tid(span.track),
                    ts(t0),
                    ts(t1 - t0)
                ));
            }
        }

        for link in tracer.links() {
            let (Some(cause), Some(effect)) = (by_id.get(&link.cause), by_id.get(&link.effect))
            else {
                continue; // an endpoint fell out of the bounded ring
            };
            ev.push(format!(
                "{{\"ph\":\"s\",\"cat\":\"flow\",\"name\":\"causal\",\"id\":{flow_id},\
                 \"pid\":{pid},\"tid\":{},\"ts\":{}}}",
                tid(cause.track),
                ts(cause.begin.as_nanos())
            ));
            ev.push(format!(
                "{{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"flow\",\"name\":\"causal\",\
                 \"id\":{flow_id},\"pid\":{pid},\"tid\":{},\"ts\":{}}}",
                tid(effect.track),
                ts(effect.begin.as_nanos())
            ));
            flow_id += 1;
        }
    }

    let ids: Vec<String> = points
        .iter()
        .map(|(_, t)| format!("\"{:#018x}\"", t.trace_id().0))
        .collect();
    format!(
        "{{\"traceEvents\":[\n{}\n],\"otherData\":{{\"trace_ids\":[{}]}}}}\n",
        ev.join(",\n"),
        ids.join(",")
    )
}

/// Exports one tracer (convenience for single-run callers).
pub fn single(label: &str, tracer: &CausalTracer) -> String {
    chrome_trace(&[(label.to_string(), tracer)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::{Detail, SpanKind, TraceId};
    use mrm_sim::time::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn sample() -> CausalTracer {
        let mut tr = CausalTracer::new(TraceId::derive(5));
        let s = tr.async_begin(t(100), SpanKind::Session, 0, 1);
        let it = tr.begin(t(1_500), SpanKind::DecodeIter, 0, 1);
        let rec = tr.instant(
            t(2_000),
            SpanKind::Recovery,
            0,
            9,
            Detail {
                bytes: 64,
                reason: "uncorrectable-read",
                audit_seq: Some(3),
                required: false,
            },
        );
        let drop = tr.instant(
            t(2_000),
            SpanKind::Drop,
            0,
            9,
            Detail {
                bytes: 64,
                reason: "uncorrectable-read",
                audit_seq: Some(4),
                required: true,
            },
        );
        tr.link(rec, drop);
        tr.end(t(2_500), it);
        let _ = s;
        tr.async_end(t(3_000), SpanKind::Session, 1, Detail::default());
        tr
    }

    #[test]
    fn export_is_deterministic_and_carries_links() {
        let a = single("point", &sample());
        let b = single("point", &sample());
        assert_eq!(a, b);
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ph\":\"b\""));
        assert!(a.contains("\"ph\":\"s\""));
        assert!(a.contains("\"ph\":\"f\""));
        assert!(a.contains("\"cause\":"));
        assert!(a.contains("\"audit_seq\":4"));
        assert!(a.contains("\"required\":1"));
        // ts is µs with ns precision: 1500 ns → 1.500.
        assert!(a.contains("\"ts\":1.500"));
    }

    #[test]
    fn seeds_produce_distinct_bytes() {
        let t1 = CausalTracer::new(TraceId::derive(1));
        let t2 = CausalTracer::new(TraceId::derive(2));
        assert_ne!(single("p", &t1), single("p", &t2));
    }

    #[test]
    fn labels_are_escaped() {
        let tr = CausalTracer::new(TraceId::derive(1));
        let out = single("a\"b\\c", &tr);
        assert!(out.contains("a\\\"b\\\\c"));
    }
}
