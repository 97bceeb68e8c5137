//! Discrete-event simulation of the swap runtime protocol (§3).
//!
//! "During execution a number of runtime services cooperate to (i)
//! periodically check the performance of the processors; (ii) make
//! swapping decisions; and (iii) enact these decisions. Each MPI process
//! is accompanied by a *swap handler* … The *swap manager* is a possibly
//! remote process that is responsible for collecting information and
//! making swapping decisions."
//!
//! The figure-level simulator charges only the state-transfer time for a
//! swap and treats measurement and decision-making as free. This module
//! justifies that simplification: it simulates one full decision round —
//! performance reports from every active handler, probe request/reply
//! with every spare handler, the decision computation, directives, and
//! the state transfer(s) — as messages serialized over the single shared
//! link. The round's message sequence is fixed, so it is computed phase
//! by phase: each phase sends its messages at the instant the previous
//! phase ends, and they queue on the link in FIFO order. For the paper's
//! parameters the non-transfer overhead is a few milliseconds against
//! minute-scale iterations (see the tests and `protocol_overhead`).
//!
//! With [`simulate_decision_round_traced`] the round emits typed `obs`
//! events — one [`obs::TraceEvent::ProtocolMsg`] per link message with
//! its round phase and queued/start/end times, a queue-occupancy sample
//! after every enqueue, and the manager's decision-compute span — so
//! the protocol DES produces the same deterministic JSONL/Chrome traces
//! as the strategy simulator.

use obs::{ProtocolStep, SharedSink, TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};
use simkit::link::SharedLink;

/// Message sizes and costs of one decision round.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProtocolParams {
    /// The shared link everything traverses.
    pub link: SharedLink,
    /// Active swap handlers (one per application process).
    pub n_active: usize,
    /// Spare swap handlers.
    pub n_spares: usize,
    /// Bytes of one performance report (handler → manager).
    pub report_bytes: f64,
    /// Bytes of one probe request (manager → spare handler).
    pub probe_request_bytes: f64,
    /// Bytes of one probe reply (spare handler → manager).
    pub probe_reply_bytes: f64,
    /// Bytes of one directive (manager → handler).
    pub directive_bytes: f64,
    /// Manager compute time to run the policy, seconds.
    pub decision_compute: f64,
    /// Process state transferred per admitted swap, bytes.
    pub state_bytes: f64,
    /// Number of swaps admitted this round.
    pub swaps: usize,
}

impl ProtocolParams {
    /// Paper-scale defaults: 6 MB/s LAN, small control messages, 1 ms of
    /// decision compute.
    pub fn hpdc03(n_active: usize, n_spares: usize, state_bytes: f64, swaps: usize) -> Self {
        ProtocolParams {
            link: SharedLink::hpdc03_lan(),
            n_active,
            n_spares,
            report_bytes: 256.0,
            probe_request_bytes: 64.0,
            probe_reply_bytes: 256.0,
            directive_bytes: 64.0,
            decision_compute: 1e-3,
            state_bytes,
            swaps,
        }
    }
}

/// What one simulated decision round produced.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RoundOutcome {
    /// Instant the manager has all measurements and finishes deciding.
    pub decision_ready: f64,
    /// Instant every directive has been delivered.
    pub directives_delivered: f64,
    /// Instant the last state transfer completes (= the application may
    /// resume; equals `directives_delivered` when no swap happened).
    pub round_complete: f64,
    /// Total messages exchanged.
    pub messages: usize,
    /// Total time the link spent busy, seconds.
    pub link_busy: f64,
}

impl RoundOutcome {
    /// The protocol overhead beyond the unavoidable state transfer:
    /// everything except `swaps × (α + state/β)`.
    pub fn control_overhead(&self, params: &ProtocolParams) -> f64 {
        let transfer = params.swaps as f64 * params.link.transfer_time(params.state_bytes);
        (self.round_complete - transfer).max(0.0)
    }
}

/// Shared-link FIFO: messages queue and each occupies the link for
/// `α + bytes/β` (a conservative serialization of what the fluid model
/// would interleave). With a sink attached, every send emits a
/// [`TraceEvent::ProtocolMsg`] (queued/start/end and the round phase)
/// plus a [`TraceEvent::ProtocolQueueDepth`] sample of how many
/// messages are still in flight after the enqueue.
struct LinkQueue {
    link: SharedLink,
    free_at: f64,
    busy_total: f64,
    /// Messages sent so far.
    sent: usize,
    /// Completion times of messages still occupying or queued on the
    /// link; drained lazily on each send to derive queue depth.
    pending: Vec<f64>,
    sink: Option<SharedSink>,
}

impl LinkQueue {
    fn send(&mut self, now: f64, bytes: f64, step: ProtocolStep) -> f64 {
        let start = self.free_at.max(now);
        let occupancy = self.link.transfer_time(bytes);
        self.free_at = start + occupancy;
        self.busy_total += occupancy;
        self.sent += 1;
        if let Some(sink) = &self.sink {
            self.pending.retain(|&end| end > now);
            self.pending.push(self.free_at);
            sink.emit(TraceEvent::ProtocolMsg {
                queued: now,
                start,
                end: self.free_at,
                step,
                bytes,
            });
            sink.emit(TraceEvent::ProtocolQueueDepth {
                t: now,
                depth: self.pending.len(),
            });
        }
        self.free_at
    }
}

/// Simulates one decision round over the shared link.
///
/// Round structure (each arrow is a queued link message):
/// 1. every active handler → manager: performance report;
/// 2. manager → every spare: probe request; spare → manager: probe reply
///    (sent as soon as the request arrives);
/// 3. manager computes the decision;
/// 4. manager → the 2×`swaps` affected handlers: directives;
/// 5. per swap: displaced handler → spare: the process state.
///
/// # Panics
/// Panics if `swaps` exceeds `min(n_active, n_spares)`.
pub fn simulate_decision_round(params: &ProtocolParams) -> RoundOutcome {
    round_with_sink(params, None)
}

/// [`simulate_decision_round`] with protocol tracing: every link message
/// becomes a [`TraceEvent::ProtocolMsg`] (with a queue-depth sample) and
/// the manager's policy computation a [`TraceEvent::ProtocolCompute`],
/// all in *simulated* time, so the stream is byte-deterministic across
/// repeated runs. The outcome is identical to the untraced round.
///
/// # Panics
/// Panics if `swaps` exceeds `min(n_active, n_spares)`.
pub fn simulate_decision_round_traced(params: &ProtocolParams, sink: &SharedSink) -> RoundOutcome {
    round_with_sink(params, Some(sink.clone()))
}

fn round_with_sink(p: &ProtocolParams, sink: Option<SharedSink>) -> RoundOutcome {
    assert!(
        p.swaps <= p.n_active.min(p.n_spares),
        "cannot swap more processes than active/spare pairs exist"
    );
    let mut link = LinkQueue {
        link: p.link,
        free_at: 0.0,
        busy_total: 0.0,
        sent: 0,
        pending: Vec::new(),
        sink,
    };

    // Phase 1: reports at t=0.
    let mut reports_done = 0.0f64;
    for _ in 0..p.n_active {
        reports_done = reports_done.max(link.send(0.0, p.report_bytes, ProtocolStep::Report));
    }

    // Phase 2: probes fire once all reports are in.
    let mut last_reply = reports_done;
    for _ in 0..p.n_spares {
        let req_arrives = link.send(
            reports_done,
            p.probe_request_bytes,
            ProtocolStep::ProbeRequest,
        );
        let reply_arrives = link.send(req_arrives, p.probe_reply_bytes, ProtocolStep::ProbeReply);
        last_reply = last_reply.max(reply_arrives);
    }

    // Phase 3: decision.
    let decision_ready = last_reply + p.decision_compute;
    if let Some(sink) = &link.sink {
        sink.emit(TraceEvent::ProtocolCompute {
            t0: last_reply,
            t1: decision_ready,
        });
    }

    // Phase 4: directives to both sides of every swap.
    let mut directives_done = decision_ready;
    for _ in 0..(2 * p.swaps) {
        let done = link.send(decision_ready, p.directive_bytes, ProtocolStep::Directive);
        directives_done = directives_done.max(done);
    }

    // Phase 5: state transfers.
    let mut complete = directives_done;
    for _ in 0..p.swaps {
        let done = link.send(directives_done, p.state_bytes, ProtocolStep::StateTransfer);
        complete = complete.max(done);
    }

    let mut out = RoundOutcome {
        decision_ready,
        directives_delivered: directives_done,
        round_complete: complete,
        messages: link.sent,
        link_busy: link.busy_total,
    };
    // No-swap rounds complete when the decision is made.
    if p.swaps == 0 {
        out.round_complete = out.decision_ready.max(out.directives_delivered);
        out.directives_delivered = out.round_complete;
    }
    out
}

/// Control-plane overhead (everything except the state transfers) of one
/// decision round under paper-scale parameters.
pub fn protocol_overhead(n_active: usize, n_spares: usize) -> f64 {
    let params = ProtocolParams::hpdc03(n_active, n_spares, 0.0, 0);
    simulate_decision_round(&params).round_complete
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_phases_are_ordered() {
        let p = ProtocolParams::hpdc03(4, 28, 1e6, 2);
        let out = simulate_decision_round(&p);
        assert!(out.decision_ready > 0.0);
        assert!(out.directives_delivered >= out.decision_ready);
        assert!(out.round_complete >= out.directives_delivered);
        // 4 reports + 28 probes ×2 + 4 directives + 2 transfers.
        assert_eq!(out.messages, 4 + 56 + 4 + 2);
    }

    #[test]
    fn control_overhead_is_negligible_at_paper_scale() {
        // The claim the figure-level simulator relies on: for 4 active +
        // 28 spares on the 6 MB/s LAN, measuring + deciding + directing
        // costs milliseconds against 60 s iterations.
        let overhead = protocol_overhead(4, 28);
        assert!(
            overhead < 0.05,
            "control plane costs {overhead} s — not negligible!"
        );
        // And with a 1 MB swap, the state transfer dominates everything.
        let p = ProtocolParams::hpdc03(4, 28, 1e6, 1);
        let out = simulate_decision_round(&p);
        let transfer = p.link.transfer_time(1e6);
        assert!(
            out.control_overhead(&p) < transfer * 0.2,
            "control {} vs transfer {}",
            out.control_overhead(&p),
            transfer
        );
    }

    #[test]
    fn no_swap_round_is_pure_control() {
        let p = ProtocolParams::hpdc03(8, 8, 1e9, 0);
        let out = simulate_decision_round(&p);
        assert!(out.round_complete < 0.05, "got {}", out.round_complete);
        assert_eq!(out.messages, 8 + 16);
    }

    #[test]
    fn state_transfer_scales_with_swaps_and_size() {
        let small = simulate_decision_round(&ProtocolParams::hpdc03(4, 4, 1e6, 1));
        let large = simulate_decision_round(&ProtocolParams::hpdc03(4, 4, 1e8, 1));
        let two = simulate_decision_round(&ProtocolParams::hpdc03(4, 4, 1e8, 2));
        assert!(large.round_complete > small.round_complete + 15.0);
        assert!(two.round_complete > large.round_complete + 15.0);
    }

    #[test]
    fn link_busy_accounts_for_every_message() {
        let p = ProtocolParams::hpdc03(2, 2, 1e6, 1);
        let out = simulate_decision_round(&p);
        let expected = 2.0 * p.link.transfer_time(p.report_bytes)
            + 2.0 * p.link.transfer_time(p.probe_request_bytes)
            + 2.0 * p.link.transfer_time(p.probe_reply_bytes)
            + 2.0 * p.link.transfer_time(p.directive_bytes)
            + p.link.transfer_time(p.state_bytes);
        assert!((out.link_busy - expected).abs() < 1e-9);
    }

    #[test]
    fn more_handlers_mean_more_control_traffic() {
        let small = protocol_overhead(2, 2);
        let big = protocol_overhead(16, 16);
        assert!(big > small);
    }

    #[test]
    #[should_panic(expected = "cannot swap")]
    fn rejects_impossible_swap_counts() {
        simulate_decision_round(&ProtocolParams::hpdc03(2, 1, 1e6, 2));
    }

    #[test]
    fn traced_round_matches_untraced_outcome_and_message_count() {
        let p = ProtocolParams::hpdc03(4, 28, 1e6, 2);
        let plain = simulate_decision_round(&p);
        let (sink, collector) = SharedSink::collector();
        let traced = simulate_decision_round_traced(&p, &sink);
        assert_eq!(traced, plain, "tracing must not perturb the round");
        let trace = collector.snapshot();
        // One ProtocolMsg + one queue-depth sample per message, plus the
        // decision-compute span.
        let msgs = trace
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::ProtocolMsg { .. }))
            .count();
        let depths = trace
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::ProtocolQueueDepth { .. }))
            .count();
        let computes = trace
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::ProtocolCompute { .. }))
            .count();
        assert_eq!(msgs, plain.messages);
        assert_eq!(depths, plain.messages);
        assert_eq!(computes, 1);
        assert_eq!(trace.events.len(), 2 * plain.messages + 1);
    }

    #[test]
    fn traced_round_event_stream_is_deterministic() {
        let p = ProtocolParams::hpdc03(4, 8, 1e6, 1);
        let run = || {
            let (sink, collector) = SharedSink::collector();
            simulate_decision_round_traced(&p, &sink);
            collector.snapshot()
        };
        let a = run();
        let b = run();
        assert!(!a.events.is_empty());
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn traced_messages_cover_every_phase_with_busy_link_spans() {
        let p = ProtocolParams::hpdc03(2, 2, 1e6, 1);
        let (sink, collector) = SharedSink::collector();
        let out = simulate_decision_round_traced(&p, &sink);
        let trace = collector.snapshot();
        let mut seen = std::collections::BTreeSet::new();
        let mut busy = 0.0;
        let mut max_depth = 0usize;
        for e in &trace.events {
            match e {
                TraceEvent::ProtocolMsg {
                    queued,
                    start,
                    end,
                    step,
                    ..
                } => {
                    assert!(start >= queued, "{e:?}");
                    assert!(end > start, "{e:?}");
                    busy += end - start;
                    seen.insert(step.key());
                }
                TraceEvent::ProtocolQueueDepth { depth, .. } => max_depth = max_depth.max(*depth),
                _ => {}
            }
        }
        for step in ProtocolStep::ALL {
            assert!(seen.contains(step.key()), "missing phase {}", step.key());
        }
        assert!((busy - out.link_busy).abs() < 1e-9);
        // Reports contend at t=0, so the queue visibly backs up.
        assert!(max_depth >= 2, "got peak depth {max_depth}");
    }
}
