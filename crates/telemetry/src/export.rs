//! The JSON Lines time-series exporter.
//!
//! All output is deterministic: snapshots serialize with fixed field order
//! (see [`Snapshot`]) and metrics render in registration order, so two runs
//! of the same instrumentation path produce byte-identical exports — the
//! property the sweep determinism tests assert.

use std::fmt::Write as _;

use serde::{Serialize, Value};

use crate::registry::Snapshot;

/// Renders snapshots as JSON Lines with `tags` prepended to every line's
/// object — the way sweep harnesses label each grid point's series (e.g.
/// `{"experiment": "e9", "point": 3, ...}`).
pub fn jsonl_tagged(snapshots: &[Snapshot], tags: &[(&str, Value)]) -> String {
    let mut out = String::new();
    for s in snapshots {
        let mut entries: Vec<(String, Value)> = tags
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        match s.to_value() {
            Value::Object(fields) => entries.extend(fields),
            other => entries.push(("snapshot".to_string(), other)),
        }
        let line = serde_json::to_string(&Value::Object(entries)).unwrap_or_default();
        let _ = writeln!(out, "{line}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use mrm_sim::time::SimTime;

    fn sample_registry() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        let c = r.counter("gc_moves");
        r.add(c, 7);
        let g = r.gauge("tier_occupancy");
        r.set(g, 0.5);
        let h = r.histogram("latency_ms");
        for x in 1..=100 {
            r.observe(h, f64::from(x));
        }
        r
    }

    #[test]
    fn jsonl_tagged_prepends_tags() {
        let r = sample_registry();
        let snaps = vec![
            r.snapshot(SimTime::from_secs(1)),
            r.snapshot(SimTime::from_secs(2)),
        ];
        let text = jsonl_tagged(
            &snaps,
            &[
                ("experiment", Value::Str("e9".to_string())),
                ("point", Value::U64(3)),
            ],
        );
        // One parseable, fully tagged object per snapshot.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v: Value = serde_json::from_str(line).unwrap();
            assert_eq!(v.field("experiment").as_str().unwrap(), "e9");
            assert_eq!(v.field("point"), &Value::U64(3));
            assert!(matches!(v.field("sim_time_ns"), Value::U64(_)));
        }
        assert!(
            text.starts_with("{\"experiment\":\"e9\",\"point\":3,"),
            "{text}"
        );
    }
}
