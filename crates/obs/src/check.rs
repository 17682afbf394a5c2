//! Dependency-free structural validation of exported Chrome traces.
//!
//! CI's `obs-smoke` job byte-compares trace JSON across thread counts;
//! this module is the complementary *shape* check: the file must parse,
//! be a `{"traceEvents":[...]}` document, every event must carry the
//! fields its phase requires, async `b`/`e` pairs must balance, and
//! every flow start must meet a flow finish. [`validate_chrome_trace`]
//! returns the tally on success so callers can assert content-level
//! expectations (e.g. "every required drop carries a cause link").

use std::collections::HashMap;

use serde::Value;

/// Event tally from a validated trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events.
    pub events: u64,
    /// `"X"` complete slices (instants have `dur` 0).
    pub slices: u64,
    /// Async `b`/`e` pairs.
    pub async_pairs: u64,
    /// Flow `s`→`f` arrows.
    pub flows: u64,
    /// `"M"` metadata events.
    pub metadata: u64,
    /// Drop events flagged `required` in args.
    pub required_drops: u64,
    /// Required drop events whose args carry a `cause` span.
    pub required_drops_with_cause: u64,
}

fn is_num(v: &Value) -> bool {
    matches!(v, Value::U64(_) | Value::I64(_) | Value::F64(_))
}

/// A flow id. A string that spells a number the way the number prints
/// is that number, so ids match by their text.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum FlowId<'a> {
    Num(u64),
    Str(&'a str),
}

impl<'a> FlowId<'a> {
    fn of(v: &'a Value) -> Option<Self> {
        match v {
            Value::U64(n) => Some(FlowId::Num(*n)),
            Value::Str(s) => Some(match s.parse::<u64>() {
                Ok(n) if n.to_string() == *s => FlowId::Num(n),
                _ => FlowId::Str(s),
            }),
            _ => None,
        }
    }
}

/// Takes one open event under `key`; false if none is open.
fn close<K: Eq + std::hash::Hash>(open: &mut HashMap<K, u64>, key: K) -> bool {
    match open.get_mut(&key) {
        Some(n) if *n > 0 => {
            *n -= 1;
            true
        }
        _ => false,
    }
}

/// Validates Chrome trace-event JSON produced by [`crate::perfetto`].
/// Returns the event tally, or a message naming the first violation.
pub fn validate_chrome_trace(json: &str) -> Result<TraceStats, String> {
    let doc: Value = serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e}"))?;
    let Value::Array(events) = doc.field("traceEvents") else {
        return Err("top level must be an object with a traceEvents array".to_string());
    };

    let mut stats = TraceStats::default();
    // Open async `b` events per (cat, id), and open flow `s` events per id.
    let mut async_open: HashMap<(&str, &str), u64> = HashMap::new();
    let mut flow_open: HashMap<FlowId, u64> = HashMap::new();

    for (i, ev) in events.iter().enumerate() {
        let at = |msg: &str| format!("traceEvents[{i}]: {msg}");
        let Value::Object(_) = ev else {
            return Err(at("event must be an object"));
        };
        let ph = ev.field("ph").as_str().map_err(|_| at("missing ph"))?;
        let name = ev.field("name").as_str().map_err(|_| at("missing name"))?;
        if !is_num(ev.field("pid")) || !is_num(ev.field("tid")) {
            return Err(at("missing numeric pid/tid"));
        }
        if ph != "M" && !is_num(ev.field("ts")) {
            return Err(at("missing numeric ts"));
        }
        stats.events += 1;
        match ph {
            "X" => {
                if !is_num(ev.field("dur")) {
                    return Err(at("X event missing dur"));
                }
                stats.slices += 1;
                let args = ev.field("args");
                if name == "drop" && *args.field("required") == Value::U64(1) {
                    stats.required_drops += 1;
                    if is_num(args.field("cause")) {
                        stats.required_drops_with_cause += 1;
                    }
                }
            }
            "b" | "e" => {
                let cat = ev
                    .field("cat")
                    .as_str()
                    .map_err(|_| at("async event missing cat"))?;
                let id = ev
                    .field("id")
                    .as_str()
                    .map_err(|_| at("async event missing string id"))?;
                if ph == "b" {
                    *async_open.entry((cat, id)).or_default() += 1;
                } else if close(&mut async_open, (cat, id)) {
                    stats.async_pairs += 1;
                } else {
                    return Err(at("async e without matching b"));
                }
            }
            "s" | "f" => {
                let Some(id) = FlowId::of(ev.field("id")) else {
                    return Err(at("flow event missing id"));
                };
                if ph == "s" {
                    *flow_open.entry(id).or_default() += 1;
                } else if close(&mut flow_open, id) {
                    stats.flows += 1;
                } else {
                    return Err(at("flow f without matching s"));
                }
            }
            "M" => stats.metadata += 1,
            other => return Err(at(&format!("unsupported phase {other:?}"))),
        }
    }
    let unclosed: u64 = async_open.values().sum();
    if unclosed > 0 {
        return Err(format!("{unclosed} async b events never closed"));
    }
    let unfinished: u64 = flow_open.values().sum();
    if unfinished > 0 {
        return Err(format!("{unfinished} flow s events never finished"));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::{CausalTracer, Detail, SpanKind, TraceId};
    use crate::perfetto;
    use mrm_sim::time::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn validates_exporter_output() {
        let mut tr = CausalTracer::new(TraceId::derive(9));
        tr.async_begin(t(0), SpanKind::Session, 0, 1);
        let rec = tr.instant(t(5), SpanKind::Recovery, 0, 2, Detail::default());
        let drop = tr.instant(
            t(5),
            SpanKind::Drop,
            0,
            2,
            Detail {
                required: true,
                ..Detail::default()
            },
        );
        tr.link(rec, drop);
        tr.async_end(t(9), SpanKind::Session, 1, Detail::default());
        let json = perfetto::single("p", &tr);
        let stats = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(stats.async_pairs, 1);
        assert_eq!(stats.flows, 1);
        assert_eq!(stats.required_drops, 1);
        assert_eq!(stats.required_drops_with_cause, 1);
        assert!(stats.slices >= 2);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        let unbalanced = "{\"traceEvents\":[{\"ph\":\"b\",\"cat\":\"c\",\"id\":\"1\",\
                          \"name\":\"n\",\"pid\":0,\"tid\":0,\"ts\":0}]}";
        assert!(validate_chrome_trace(unbalanced)
            .unwrap_err()
            .contains("never closed"));
    }

    /// A document of events given as `(ph, cat, id)`, `id` as JSON text.
    fn doc(events: &[(&str, &str, &str)]) -> String {
        let evs: Vec<String> = events
            .iter()
            .map(|(ph, cat, id)| {
                format!(
                    "{{\"ph\":\"{ph}\",\"cat\":\"{cat}\",\"id\":{id},\
                     \"name\":\"n\",\"pid\":0,\"tid\":0,\"ts\":0}}"
                )
            })
            .collect();
        format!("{{\"traceEvents\":[{}]}}", evs.join(","))
    }

    #[test]
    fn pairs_match_by_key_and_open_events_are_counted() {
        let ok = doc(&[
            ("b", "c", "\"1\""),
            ("b", "c", "\"1\""),
            ("b", "d", "\"1\""),
            ("e", "c", "\"1\""),
            ("s", "flow", "7"),
            ("f", "flow", "\"7\""),
            ("e", "d", "\"1\""),
            ("e", "c", "\"1\""),
        ]);
        let stats = validate_chrome_trace(&ok).expect("balanced");
        assert_eq!((stats.async_pairs, stats.flows), (3, 1));
        let wrong_cat = doc(&[("b", "c", "\"1\""), ("e", "d", "\"1\"")]);
        assert_eq!(
            validate_chrome_trace(&wrong_cat).unwrap_err(),
            "traceEvents[1]: async e without matching b"
        );
        // "07" does not spell 7 the way 7 prints.
        let padded = doc(&[("s", "flow", "7"), ("f", "flow", "\"07\"")]);
        assert_eq!(
            validate_chrome_trace(&padded).unwrap_err(),
            "traceEvents[1]: flow f without matching s"
        );
        let open = doc(&[
            ("b", "c", "\"1\""),
            ("b", "c", "\"1\""),
            ("s", "flow", "3"),
            ("s", "flow", "3"),
            ("e", "c", "\"1\""),
        ]);
        assert_eq!(
            validate_chrome_trace(&open).unwrap_err(),
            "1 async b events never closed"
        );
        let unfinished = doc(&[("s", "flow", "3"), ("s", "flow", "3"), ("f", "flow", "3")]);
        assert_eq!(
            validate_chrome_trace(&unfinished).unwrap_err(),
            "1 flow s events never finished"
        );
    }
}
