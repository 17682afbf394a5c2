//! Trace recording and replay.
//!
//! The substitution rule (DESIGN.md §2) replaces the Azure production
//! traces with samplers fitted to the published statistics — but a serious
//! memory-systems artifact must also accept *real* traces when a user has
//! them. This module defines a minimal request-trace format
//! (`arrival_s,kind,prompt_tokens,output_tokens` CSV) and its parser, a
//! recorder that captures generated traffic as a trace, and a replayer
//! that feeds either back — so any experiment can run from either a
//! sampler or a file.

use mrm_sim::rng::SimRng;
use mrm_sim::time::{SimDuration, SimTime};

use crate::traces::{TraceKind, TraceMix};

/// One recorded request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEntry {
    /// Arrival time since trace start.
    pub arrival: SimDuration,
    /// Population label.
    pub kind: TraceKind,
    /// Prompt tokens.
    pub prompt_tokens: u32,
    /// Output tokens.
    pub output_tokens: u32,
}

/// Errors from trace parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceParseError {
    /// Wrong number of fields on a line.
    FieldCount {
        /// 1-based line number.
        line: usize,
    },
    /// A field failed to parse.
    BadField {
        /// 1-based line number.
        line: usize,
        /// Field name.
        field: &'static str,
    },
    /// Arrivals are not non-decreasing.
    OutOfOrder {
        /// 1-based line number.
        line: usize,
    },
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceParseError::FieldCount { line } => write!(f, "line {line}: expected 4 fields"),
            TraceParseError::BadField { line, field } => {
                write!(f, "line {line}: cannot parse field `{field}`")
            }
            TraceParseError::OutOfOrder { line } => {
                write!(f, "line {line}: arrivals must be non-decreasing")
            }
        }
    }
}

impl std::error::Error for TraceParseError {}

/// A recorded (or loaded) request trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RequestTrace {
    entries: Vec<TraceEntry>,
}

impl RequestTrace {
    /// An empty trace.
    pub fn new() -> Self {
        RequestTrace::default()
    }

    /// Records a trace by sampling `n` requests from a [`TraceMix`].
    pub fn record(mix: &TraceMix, n: usize, rng: &mut SimRng) -> Self {
        let mut entries = Vec::with_capacity(n);
        let mut t = SimDuration::ZERO;
        for _ in 0..n {
            t += mix.next_interarrival(rng);
            let (kind, prompt, output) = mix.sample_request(rng);
            entries.push(TraceEntry {
                arrival: t,
                kind,
                prompt_tokens: prompt,
                output_tokens: output,
            });
        }
        RequestTrace { entries }
    }

    /// The entries, arrival-ordered.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Trace duration (arrival of the last request).
    pub fn duration(&self) -> SimDuration {
        self.entries
            .last()
            .map(|e| e.arrival)
            .unwrap_or(SimDuration::ZERO)
    }

    /// Parses the CSV format `arrival_s,kind,prompt_tokens,output_tokens`
    /// (header line optional).
    pub fn from_csv(csv: &str) -> Result<Self, TraceParseError> {
        let mut entries = Vec::new();
        let mut last = SimDuration::ZERO;
        for (i, raw) in csv.lines().enumerate() {
            let line = i + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with("arrival_s") {
                continue;
            }
            let fields: Vec<&str> = trimmed.split(',').collect();
            if fields.len() != 4 {
                return Err(TraceParseError::FieldCount { line });
            }
            let secs: f64 = fields[0].parse().map_err(|_| TraceParseError::BadField {
                line,
                field: "arrival_s",
            })?;
            let kind = match fields[1] {
                "conversation" => TraceKind::Conversation,
                "coding" => TraceKind::Coding,
                _ => {
                    return Err(TraceParseError::BadField {
                        line,
                        field: "kind",
                    })
                }
            };
            let prompt: u32 = fields[2].parse().map_err(|_| TraceParseError::BadField {
                line,
                field: "prompt_tokens",
            })?;
            let output: u32 = fields[3].parse().map_err(|_| TraceParseError::BadField {
                line,
                field: "output_tokens",
            })?;
            let arrival = SimDuration::from_secs_f64(secs);
            if arrival < last {
                return Err(TraceParseError::OutOfOrder { line });
            }
            last = arrival;
            entries.push(TraceEntry {
                arrival,
                kind,
                prompt_tokens: prompt,
                output_tokens: output,
            });
        }
        Ok(RequestTrace { entries })
    }

    /// Iterates `(absolute arrival time, entry)` from a given start time —
    /// the replay interface a simulation consumes.
    pub fn replay_from(&self, start: SimTime) -> impl Iterator<Item = (SimTime, TraceEntry)> + '_ {
        self.entries.iter().map(move |e| (start + e.arrival, *e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace(n: usize) -> RequestTrace {
        let mix = TraceMix::splitwise_default(4096, 10.0);
        let mut rng = SimRng::seed_from(77);
        RequestTrace::record(&mix, n, &mut rng)
    }

    #[test]
    fn record_produces_ordered_arrivals() {
        let t = sample_trace(500);
        assert_eq!(t.len(), 500);
        for w in t.entries().windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        // Rate is near the configured 10/s.
        let rate = t.len() as f64 / t.duration().as_secs_f64();
        assert!((rate - 10.0).abs() < 1.5, "rate {rate}");
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert_eq!(
            RequestTrace::from_csv("1.0,conversation,100").unwrap_err(),
            TraceParseError::FieldCount { line: 1 }
        );
        assert_eq!(
            RequestTrace::from_csv("x,conversation,100,10").unwrap_err(),
            TraceParseError::BadField {
                line: 1,
                field: "arrival_s"
            }
        );
        assert_eq!(
            RequestTrace::from_csv("1.0,email,100,10").unwrap_err(),
            TraceParseError::BadField {
                line: 1,
                field: "kind"
            }
        );
        assert_eq!(
            RequestTrace::from_csv("2.0,coding,100,10\n1.0,coding,100,10").unwrap_err(),
            TraceParseError::OutOfOrder { line: 2 }
        );
    }

    #[test]
    fn header_and_blank_lines_are_skipped() {
        let csv = "arrival_s,kind,prompt_tokens,output_tokens\n\n0.5,coding,1930,13\n";
        let t = RequestTrace::from_csv(csv).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.entries()[0].kind, TraceKind::Coding);
    }

    #[test]
    fn replay_offsets_arrivals() {
        let t = sample_trace(10);
        let start = SimTime::from_secs(100);
        let replayed: Vec<_> = t.replay_from(start).collect();
        assert_eq!(replayed.len(), 10);
        for ((at, e), orig) in replayed.iter().zip(t.entries()) {
            assert_eq!(*at, start + orig.arrival);
            assert_eq!(e.prompt_tokens, orig.prompt_tokens);
        }
    }

    #[test]
    fn empty_trace_edge_cases() {
        let t = RequestTrace::new();
        assert!(t.is_empty());
        assert_eq!(t.duration(), SimDuration::ZERO);
        assert_eq!(RequestTrace::from_csv("").unwrap(), t);
    }
}
