//! Point events recorded into the telemetry event ring.

use mrm_sim::trace::{csv_field, TraceRecord};

/// A named point event with one numeric payload (bytes moved, class index,
/// duration…), timestamped by the [`Trace`](mrm_sim::trace::Trace) it
/// is pushed into.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TelemetryEvent {
    /// Event name (e.g. `"gc"`, `"migrate"`, `"dcm_reconfig"`).
    pub name: &'static str,
    /// Numeric payload; meaning is event-specific.
    pub value: f64,
}

impl TraceRecord for TelemetryEvent {
    fn csv_header() -> &'static str {
        "event,value"
    }
    fn csv_row(&self) -> String {
        // Event names are free-form: quote per RFC 4180 so a name with a
        // comma cannot shift every column after it.
        format!("{},{}", csv_field(self.name), self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_csv_shape() {
        assert_eq!(TelemetryEvent::csv_header(), "event,value");
        let ev = TelemetryEvent {
            name: "migrate",
            value: 4096.0,
        };
        assert_eq!(ev.csv_row(), "migrate,4096");
    }

    #[test]
    fn event_csv_quotes_names_with_commas() {
        let ev = TelemetryEvent {
            name: "migrate,escalated",
            value: 1.0,
        };
        // The comma is inside one quoted field: the row still has exactly
        // two CSV columns.
        assert_eq!(ev.csv_row(), "\"migrate,escalated\",1");
    }
}
