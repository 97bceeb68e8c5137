//! Counters and histograms derived from traces.
//!
//! `BTreeMap` keys keep every export deterministic: same trace bundle →
//! same JSON bytes, same text table.

use crate::event::TraceEvent;
use crate::trace::TraceBundle;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Summary statistics over observed samples.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    /// Counts per power-of-two bucket of the sample value: bucket `i`
    /// holds samples in `[2^(i-64), 2^(i-63))` seconds (i.e. the
    /// exponent is offset so sub-second samples still land in range);
    /// sparse, keyed by bucket index.
    pub buckets: BTreeMap<String, u64>,
}

impl Histogram {
    pub fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let bucket = if v > 0.0 && v.is_finite() {
            // log2 bucket, clamped to a printable range.
            (v.log2().floor() as i64).clamp(-64, 63)
        } else {
            -64
        };
        let mut name = [0; 3];
        match self.buckets.get_mut(bucket_name(bucket, &mut name)) {
            Some(n) => *n += 1,
            None => {
                self.buckets.insert(bucket.to_string(), 1);
            }
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket-interpolated quantile estimate (`q` clamped to `[0, 1]`):
    /// walks the power-of-two buckets in numeric order until the
    /// cumulative count reaches `q × count`, then interpolates linearly
    /// inside the bucket's `[2^i, 2^(i+1))` range. The estimate is
    /// clamped to the observed `[min, max]`, so single-sample and
    /// single-bucket histograms report exact values at the extremes.
    /// Returns `None` for an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        // BTreeMap<String> orders lexicographically ("-1" < "-64"), so
        // re-sort by the parsed exponent.
        let mut buckets: Vec<(i64, u64)> = self
            .buckets
            .iter()
            .map(|(k, &n)| (k.parse().unwrap_or(-64), n))
            .collect();
        buckets.sort_unstable_by_key(|&(i, _)| i);
        let mut cum = 0u64;
        for (i, n) in buckets {
            if (cum + n) as f64 >= target {
                let lo = (i as f64).exp2();
                let hi = ((i + 1) as f64).exp2();
                let frac = if n == 0 {
                    0.0
                } else {
                    ((target - cum as f64) / n as f64).clamp(0.0, 1.0)
                };
                return Some((lo + frac * (hi - lo)).clamp(self.min, self.max));
            }
            cum += n;
        }
        Some(self.max)
    }
}

/// The decimal name of a bucket index in `-64..=63`, written into `buf`,
/// so that counting a sample in an existing bucket allocates nothing.
fn bucket_name(i: i64, buf: &mut [u8; 3]) -> &str {
    let n = i.unsigned_abs();
    let mut len = 0;
    if i < 0 {
        buf[0] = b'-';
        len = 1;
    }
    if n >= 10 {
        buf[len] = b'0' + (n / 10) as u8;
        len += 1;
    }
    buf[len] = b'0' + (n % 10) as u8;
    std::str::from_utf8(&buf[..=len]).expect("ASCII digits")
}

/// `prefix` followed by `name`, written into `buf`, so that looking up a
/// composite key allocates nothing once `buf` has grown.
fn joined<'b>(buf: &'b mut String, prefix: &str, name: &str) -> &'b str {
    buf.clear();
    buf.push_str(prefix);
    buf.push_str(name);
    buf
}

/// The metrics registry: named counters and histograms.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `by` to a counter, saturating at `u64::MAX`. The key is
    /// copied only when the counter is new.
    pub fn incr(&mut self, key: &str, by: u64) {
        match self.counters.get_mut(key) {
            Some(counter) => *counter = counter.saturating_add(by),
            None => {
                self.counters.insert(key.to_owned(), by);
            }
        }
    }

    /// Adds a sample to a histogram. The key is copied only when the
    /// histogram is new.
    pub fn observe(&mut self, key: &str, v: f64) {
        match self.histograms.get_mut(key) {
            Some(h) => h.observe(v),
            None => {
                let mut h = Histogram::default();
                h.observe(v);
                self.histograms.insert(key.to_owned(), h);
            }
        }
    }

    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Derives the standard registry from a trace bundle:
    ///
    /// * `decisions` — swap-decision evaluations;
    /// * `swaps_attempted` — pairs admitted by the engine;
    /// * `swaps_committed` — exchanges actually executed;
    /// * `swaps_vetoed.<gate>` — decision points stopped by each gate
    ///   with no pair admitted;
    /// * `checkpoints`, `messages` — other event tallies;
    /// * `protocol_msgs`, `protocol_msgs.<step>`, `protocol_bytes` —
    ///   protocol-DES message traffic by round phase;
    /// * `faults_injected`, `faults_injected.<kind>`,
    ///   `failures_detected`, `failures_detected.<cause>`, `recoveries`,
    ///   `recoveries.<action>` — fault-injection tallies, plus the
    ///   `recovery_pause_secs` histogram of time lost to each recovery;
    /// * `policy_decisions`, `policy_decisions.<policy>` — placement
    ///   rankings made by the policy layer;
    /// * histograms `iter_time/<label>`, `payback`, `swap_transfer_secs`,
    ///   `decision_latency_sim_secs` (time from iteration end to the
    ///   decision's timestamp — zero in the discrete simulator, nonzero
    ///   under the minimpi runtime's virtual clock), and the protocol
    ///   histograms `protocol_msg_secs`, `protocol_queue_wait_secs`,
    ///   `protocol_decision_compute_secs`, `protocol_queue_depth`.
    pub fn from_bundle(bundle: &TraceBundle) -> Self {
        let mut m = Metrics::new();
        let mut key = String::new();
        for run in &bundle.runs {
            let iter_time = format!("iter_time/{}", run.label);
            let mut last_iter_end: Option<f64> = None;
            let mut prev_end = 0.0f64;
            for e in &run.trace.events {
                match e {
                    TraceEvent::IterEnd { t, .. } => {
                        m.observe(&iter_time, t - prev_end);
                        prev_end = *t;
                        last_iter_end = Some(*t);
                    }
                    TraceEvent::SwapDecision {
                        t,
                        admitted,
                        stopped_because,
                        ..
                    } => {
                        m.incr("decisions", 1);
                        m.incr("swaps_attempted", admitted.len() as u64);
                        if admitted.is_empty() {
                            m.incr(joined(&mut key, "swaps_vetoed.", stopped_because.key()), 1);
                        }
                        for pair in admitted {
                            m.observe("payback", pair.payback);
                        }
                        if let Some(end) = last_iter_end {
                            m.observe("decision_latency_sim_secs", t - end);
                        }
                    }
                    TraceEvent::SwapExec {
                        bytes,
                        transfer_secs,
                        ..
                    } => {
                        m.incr("swaps_committed", 1);
                        m.incr("swap_bytes_moved", *bytes as u64);
                        m.observe("swap_transfer_secs", *transfer_secs);
                    }
                    TraceEvent::Checkpoint {
                        bytes, pause_secs, ..
                    } => {
                        m.incr("checkpoints", 1);
                        m.incr("checkpoint_bytes_moved", *bytes as u64);
                        m.observe("checkpoint_pause_secs", *pause_secs);
                    }
                    TraceEvent::MsgSend { bytes, .. } => {
                        m.incr("messages", 1);
                        m.incr("message_bytes", *bytes as u64);
                    }
                    TraceEvent::Collective { t0, t1, .. } => {
                        m.incr("collectives", 1);
                        m.observe("collective_secs", t1 - t0);
                    }
                    TraceEvent::Probe { .. } => m.incr("probes", 1),
                    TraceEvent::LoadChange { .. } => m.incr("load_changes", 1),
                    TraceEvent::ProtocolMsg {
                        queued,
                        start,
                        end,
                        step,
                        bytes,
                    } => {
                        m.incr("protocol_msgs", 1);
                        m.incr(joined(&mut key, "protocol_msgs.", step.key()), 1);
                        m.incr("protocol_bytes", *bytes as u64);
                        m.observe("protocol_msg_secs", end - start);
                        m.observe("protocol_queue_wait_secs", start - queued);
                    }
                    TraceEvent::ProtocolCompute { t0, t1 } => {
                        m.observe("protocol_decision_compute_secs", t1 - t0);
                    }
                    TraceEvent::ProtocolQueueDepth { depth, .. } => {
                        m.observe("protocol_queue_depth", *depth as f64);
                    }
                    TraceEvent::FaultInjected { fault, .. } => {
                        m.incr("faults_injected", 1);
                        m.incr(joined(&mut key, "faults_injected.", fault.key()), 1);
                    }
                    TraceEvent::FailureDetected { cause, .. } => {
                        m.incr("failures_detected", 1);
                        m.incr(joined(&mut key, "failures_detected.", cause.key()), 1);
                    }
                    TraceEvent::RecoveryComplete {
                        action, pause_secs, ..
                    } => {
                        m.incr("recoveries", 1);
                        m.incr(joined(&mut key, "recoveries.", action.key()), 1);
                        m.observe("recovery_pause_secs", *pause_secs);
                    }
                    TraceEvent::PolicyDecision { policy, .. } => {
                        m.incr("policy_decisions", 1);
                        m.incr(joined(&mut key, "policy_decisions.", policy), 1);
                    }
                    TraceEvent::IterStart { .. }
                    | TraceEvent::ComputeSpan { .. }
                    | TraceEvent::MsgRecv { .. } => {}
                }
            }
        }
        m
    }

    /// Renders a fixed-width text table (counters, then histograms).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("counters:\n");
        for (k, v) in &self.counters {
            out.push_str(&format!("  {k:<32} {v}\n"));
        }
        out.push_str("histograms:\n");
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "  {k:<32} n={} mean={:.6} p50={:.6} p95={:.6} min={:.6} max={:.6}\n",
                h.count,
                h.mean(),
                h.quantile(0.50).unwrap_or(0.0),
                h.quantile(0.95).unwrap_or(0.0),
                h.min,
                h.max
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use swap_core::StopReason;

    fn bundle_with(events: Vec<TraceEvent>) -> TraceBundle {
        let mut b = TraceBundle::new();
        b.push("swap/greedy", 0, Trace { events });
        b
    }

    #[test]
    fn bucket_names_are_the_decimal_indices() {
        for i in -64..=63 {
            assert_eq!(bucket_name(i, &mut [0; 3]), i.to_string());
        }
    }

    #[test]
    fn veto_counters_use_gate_keys() {
        let b = bundle_with(vec![
            TraceEvent::IterEnd {
                t: 10.0,
                iter: 0,
                compute_end: 9.0,
            },
            TraceEvent::SwapDecision {
                t: 10.0,
                iter: 0,
                old_iter_time: 10.0,
                swap_time: 1.0,
                app_improvement: 0.0,
                stopped_because: StopReason::PaybackGateFailed,
                admitted: vec![],
                rejected: None,
            },
        ]);
        let m = Metrics::from_bundle(&b);
        assert_eq!(m.counter("decisions"), 1);
        assert_eq!(m.counter("swaps_vetoed.payback_gate"), 1);
        assert_eq!(m.counter("swaps_committed"), 0);
        assert_eq!(m.histograms["iter_time/swap/greedy"].count, 1);
    }

    #[test]
    fn exec_and_checkpoint_tallies() {
        let b = bundle_with(vec![
            TraceEvent::SwapExec {
                t: 1.0,
                iter: 0,
                from: 0,
                to: 3,
                bytes: 1e6,
                transfer_secs: 0.5,
            },
            TraceEvent::Checkpoint {
                t: 2.0,
                iter: 1,
                bytes: 4e6,
                pause_secs: 2.0,
            },
        ]);
        let m = Metrics::from_bundle(&b);
        assert_eq!(m.counter("swaps_committed"), 1);
        assert_eq!(m.counter("swap_bytes_moved"), 1_000_000);
        assert_eq!(m.counter("checkpoints"), 1);
        assert!((m.histograms["swap_transfer_secs"].mean() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn byte_counters_saturate_instead_of_wrapping() {
        // Each `1e300 as u64` already saturates; their sum must too.
        let checkpoint = TraceEvent::Checkpoint {
            t: 0.0,
            iter: 0,
            bytes: 1e300,
            pause_secs: 1.0,
        };
        let m = Metrics::from_bundle(&bundle_with(vec![checkpoint.clone(), checkpoint]));
        assert_eq!(m.counter("checkpoints"), 2);
        assert_eq!(m.counter("checkpoint_bytes_moved"), u64::MAX);
    }

    #[test]
    fn histogram_tracks_extrema_and_buckets() {
        let mut h = Histogram::default();
        for v in [0.5, 2.0, 8.0] {
            h.observe(v);
        }
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 8.0);
        assert_eq!(h.buckets.get("-1"), Some(&1)); // 0.5 → 2^-1
        assert_eq!(h.buckets.get("1"), Some(&1)); // 2.0 → 2^1
        assert_eq!(h.buckets.get("3"), Some(&1)); // 8.0 → 2^3
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(0.95), None);
    }

    #[test]
    fn quantile_of_single_sample_is_that_sample() {
        let mut h = Histogram::default();
        h.observe(4.0);
        assert_eq!(h.quantile(0.0), Some(4.0));
        assert_eq!(h.quantile(0.5), Some(4.0));
        assert_eq!(h.quantile(1.0), Some(4.0));
    }

    #[test]
    fn quantile_is_monotone_and_brackets_the_samples() {
        let mut h = Histogram::default();
        for i in 1..=100 {
            h.observe(i as f64);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p95 = h.quantile(0.95).unwrap();
        assert!(p50 <= p95, "p50 {p50} > p95 {p95}");
        assert!((1.0..=100.0).contains(&p50));
        assert!((1.0..=100.0).contains(&p95));
        // The true p50 is ~50 and p95 ~95; bucket interpolation is
        // coarse (power-of-two buckets) but must land in the right
        // bucket's range.
        assert!((32.0..=64.0).contains(&p50), "p50 = {p50}");
        assert!((64.0..=100.0).contains(&p95), "p95 = {p95}");
    }

    #[test]
    fn quantile_orders_negative_exponent_buckets_numerically() {
        // "-1" < "-64" lexicographically; quantile must not be fooled.
        let mut h = Histogram::default();
        for v in [1e-10, 0.25, 0.5] {
            h.observe(v);
        }
        let p0 = h.quantile(0.01).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p0 <= p99);
        assert!(p0 < 0.25, "lowest quantile must come from the tiny sample");
    }

    #[test]
    fn protocol_events_produce_counters_and_histograms() {
        use crate::event::ProtocolStep;
        let b = bundle_with(vec![
            TraceEvent::ProtocolMsg {
                queued: 0.0,
                start: 0.0,
                end: 0.1,
                step: ProtocolStep::Report,
                bytes: 256.0,
            },
            TraceEvent::ProtocolMsg {
                queued: 0.0,
                start: 0.1,
                end: 0.2,
                step: ProtocolStep::StateTransfer,
                bytes: 1e6,
            },
            TraceEvent::ProtocolCompute { t0: 0.2, t1: 0.3 },
            TraceEvent::ProtocolQueueDepth { t: 0.0, depth: 2 },
        ]);
        let m = Metrics::from_bundle(&b);
        assert_eq!(m.counter("protocol_msgs"), 2);
        assert_eq!(m.counter("protocol_msgs.report"), 1);
        assert_eq!(m.counter("protocol_msgs.state_transfer"), 1);
        assert_eq!(m.counter("protocol_bytes"), 1_000_256);
        assert_eq!(m.histograms["protocol_msg_secs"].count, 2);
        assert_eq!(m.histograms["protocol_queue_wait_secs"].count, 2);
        assert!((m.histograms["protocol_decision_compute_secs"].mean() - 0.1).abs() < 1e-12);
        assert_eq!(m.histograms["protocol_queue_depth"].max, 2.0);
        // Render surfaces the quantile columns.
        assert!(m.render().contains("p50="), "{}", m.render());
    }

    #[test]
    fn fault_events_produce_counters_and_pause_histogram() {
        use crate::event::{FailureCause, FaultKind, RecoveryAction};
        let b = bundle_with(vec![
            TraceEvent::FaultInjected {
                t: 10.0,
                host: Some(2),
                fault: FaultKind::Crash,
                duration_secs: None,
                factor: None,
            },
            TraceEvent::FaultInjected {
                t: 20.0,
                host: None,
                fault: FaultKind::LinkDegraded,
                duration_secs: Some(5.0),
                factor: Some(0.25),
            },
            TraceEvent::FailureDetected {
                t: 12.0,
                host: 2,
                iter: Some(3),
                cause: FailureCause::InjectedCrash,
                detail: None,
            },
            TraceEvent::RecoveryComplete {
                t: 14.0,
                host: 2,
                replacement: Some(7),
                action: RecoveryAction::SpareSwap,
                pause_secs: 2.0,
            },
        ]);
        let m = Metrics::from_bundle(&b);
        assert_eq!(m.counter("faults_injected"), 2);
        assert_eq!(m.counter("faults_injected.crash"), 1);
        assert_eq!(m.counter("faults_injected.link_degraded"), 1);
        assert_eq!(m.counter("failures_detected"), 1);
        assert_eq!(m.counter("failures_detected.injected_crash"), 1);
        assert_eq!(m.counter("recoveries"), 1);
        assert_eq!(m.counter("recoveries.spare_swap"), 1);
        assert!((m.histograms["recovery_pause_secs"].mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn render_is_deterministic_and_json_round_trips() {
        let b = bundle_with(vec![TraceEvent::Probe {
            t: 0.0,
            host: 1,
            rate: 2.0,
        }]);
        let m = Metrics::from_bundle(&b);
        assert_eq!(m.render(), Metrics::from_bundle(&b).render());
        let json = serde_json::to_string(&m).unwrap();
        let back: Metrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
