//! JSONL export: one event per line, each wrapped with its run label
//! and seed. This is the stable machine-readable trace format; the
//! golden files `tests/golden/all_events.jsonl` and
//! `tests/golden/all_events.chrome.json` pin the exact bytes of both
//! exporters.

use crate::event::TraceEvent;
use crate::trace::{Trace, TraceBundle};
use serde::{Deserialize, Serialize};

/// One JSONL line: `{"run": "...", "seed": N, "event": {...}}`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Record {
    pub run: String,
    pub seed: u64,
    pub event: TraceEvent,
}

/// Serializes a bundle to JSONL (trailing newline included when there
/// is at least one event). Each line is a [`Record`]: every line of a
/// run starts with the same `{"run":…,"seed":…,"event":` prefix, written
/// once per run, and the borrowed event follows it.
pub fn to_jsonl(bundle: &TraceBundle) -> String {
    // Lines average about 120 bytes. The headroom saves regrowing the
    // buffer, and pages never written cost no memory.
    let mut out = Vec::with_capacity(160 * bundle.event_count());
    let mut prefix = Vec::new();
    for run in &bundle.runs {
        prefix.clear();
        prefix.extend_from_slice(b"{\"run\":");
        serde_json::to_writer(&mut prefix, &run.label).expect("a Vec takes every write");
        prefix.extend_from_slice(b",\"seed\":");
        serde_json::to_writer(&mut prefix, &run.seed).expect("a Vec takes every write");
        prefix.extend_from_slice(b",\"event\":");
        for event in &run.trace.events {
            out.extend_from_slice(&prefix);
            serde_json::to_writer(&mut out, event).expect("trace events serialize");
            out.extend_from_slice(b"}\n");
        }
    }
    String::from_utf8(out).expect("serde_json and the static text write UTF-8")
}

/// Parses JSONL produced by [`to_jsonl`] back into a bundle. Adjacent
/// lines with the same (run, seed) belong to one run, so two runs that
/// share both label and seed must not be adjacent or they merge into
/// one; a run with no events leaves no line and does not come back.
/// Returns an error string naming the first malformed line.
pub fn from_jsonl(text: &str) -> Result<TraceBundle, String> {
    let mut bundle = TraceBundle::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record: Record =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        match bundle.runs.last_mut() {
            Some(last) if last.label == record.run && last.seed == record.seed => {
                last.trace.events.push(record.event);
            }
            _ => {
                bundle.push(
                    record.run,
                    record.seed,
                    Trace {
                        events: vec![record.event],
                    },
                );
            }
        }
    }
    Ok(bundle)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bundle() -> TraceBundle {
        let mut b = TraceBundle::new();
        for (label, seed) in [("swap/greedy", 0u64), ("swap/greedy", 1), ("nothing", 0)] {
            let events = (0..3)
                .map(|i| TraceEvent::IterEnd {
                    t: (seed + 1) as f64 * (i + 1) as f64,
                    iter: i as usize,
                    compute_end: 0.0,
                })
                .collect();
            b.push(label, seed, Trace { events });
        }
        b
    }

    #[test]
    fn jsonl_round_trips_bundles() {
        let b = sample_bundle();
        let text = to_jsonl(&b);
        assert_eq!(text.lines().count(), 9);
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn jsonl_lines_carry_run_and_seed() {
        let text = to_jsonl(&sample_bundle());
        let first = text.lines().next().unwrap();
        assert!(
            first.starts_with("{\"run\":\"swap/greedy\",\"seed\":0,"),
            "{first}"
        );
        assert!(first.contains("\"kind\":\"iter_end\""));
    }

    #[test]
    fn malformed_lines_are_reported_with_line_numbers() {
        let err = from_jsonl("{\"run\":\"x\"}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }
}
