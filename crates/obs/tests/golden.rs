//! Golden bytes for both trace exporters.
//!
//! One hand-built bundle covers all 18 [`TraceEvent`] variants and the
//! awkward values an exporter can get wrong: labels that need JSON
//! escaping, extreme seeds, signed zero, subnormal, exponent-form and
//! non-finite floats (written as `null`), `None` and `Some` for every
//! `Option`, empty and non-empty lists, and a link fault that names the
//! link track before any protocol message does. The exported text must
//! equal `tests/golden/all_events.{jsonl,chrome.json}` byte for byte.
//!
//! The files change only with a deliberate format change. Regenerate
//! them with `cargo test -p obs --test golden -- --ignored`, then review
//! the diff.

use obs::chrome::{to_chrome_trace, validate_chrome_trace};
use obs::jsonl::to_jsonl;
use obs::{FailureCause, FaultKind, ProtocolStep, RecoveryAction, Trace, TraceBundle, TraceEvent};
use std::collections::BTreeSet;
use std::path::PathBuf;
use swap_core::{RejectedSwap, StopReason, SwapPair};

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

const JSONL: &str = "all_events.jsonl";
const CHROME: &str = "all_events.chrome.json";

/// Every variant, with values chosen to stress number formatting and
/// string escaping.
fn all_events() -> Vec<TraceEvent> {
    vec![
        // A link fault before any protocol message names the link track.
        TraceEvent::FaultInjected {
            t: 0.0,
            host: None,
            fault: FaultKind::LinkDegraded,
            duration_secs: Some(30.0),
            factor: Some(0.25),
        },
        TraceEvent::IterStart {
            t: -0.0,
            iter: 0,
            active: vec![0, 3],
        },
        TraceEvent::IterStart {
            t: 1.5,
            iter: 1,
            active: vec![],
        },
        TraceEvent::ComputeSpan {
            host: 0,
            iter: 0,
            start: 5e-324,
            end: 1e-7,
        },
        // A span that ends before it starts draws with zero duration.
        TraceEvent::ComputeSpan {
            host: 3,
            iter: usize::MAX,
            start: 2.0,
            end: 1.0,
        },
        TraceEvent::IterEnd {
            t: 1e16,
            iter: 0,
            compute_end: 1e21,
        },
        TraceEvent::Probe {
            t: 0.1 + 0.2,
            host: 4,
            rate: f64::NAN,
        },
        TraceEvent::LoadChange {
            t: 3.0,
            host: 2,
            competing: f64::NEG_INFINITY,
        },
        TraceEvent::SwapDecision {
            t: 12.5,
            iter: 1,
            old_iter_time: 12.5,
            swap_time: 3.0,
            app_improvement: 0.25,
            stopped_because: StopReason::Exhausted,
            admitted: vec![
                SwapPair {
                    from: 0,
                    to: 5,
                    old_perf: 1e8,
                    new_perf: 2e8,
                    payback: 0.48,
                    process_improvement: 1.0,
                },
                SwapPair {
                    from: 3,
                    to: 6,
                    old_perf: -0.0,
                    new_perf: f64::INFINITY,
                    payback: f64::NAN,
                    process_improvement: 1e-7,
                },
            ],
            rejected: Some(RejectedSwap {
                from: 1,
                to: 4,
                old_perf: 1e8,
                new_perf: 2e8,
                process_improvement: 1.0,
                payback: Some(20.0),
            }),
        },
        TraceEvent::SwapDecision {
            t: 13.0,
            iter: 2,
            old_iter_time: 0.1 + 0.2,
            swap_time: f64::INFINITY,
            app_improvement: -0.0,
            stopped_because: StopReason::PaybackGateFailed,
            admitted: vec![],
            rejected: Some(RejectedSwap {
                from: 2,
                to: 7,
                old_perf: 5e-324,
                new_perf: 1e21,
                process_improvement: f64::NAN,
                payback: None,
            }),
        },
        TraceEvent::SwapDecision {
            t: 14.0,
            iter: 3,
            old_iter_time: 1e16,
            swap_time: 0.0,
            app_improvement: 0.0,
            stopped_because: StopReason::NoCandidates,
            admitted: vec![],
            rejected: None,
        },
        TraceEvent::SwapExec {
            t: 15.0,
            iter: 3,
            from: 0,
            to: 5,
            bytes: 1e6,
            transfer_secs: 0.5,
        },
        TraceEvent::SwapExec {
            t: 16.0,
            iter: 4,
            from: 5,
            to: 0,
            bytes: f64::NAN,
            transfer_secs: 1e-7,
        },
        TraceEvent::Checkpoint {
            t: 20.0,
            iter: 5,
            bytes: 1e21,
            pause_secs: 2.5,
        },
        TraceEvent::MsgSend {
            t: 21.0,
            from: 1,
            to: 2,
            tag: u32::MAX,
            bytes: usize::MAX,
        },
        TraceEvent::MsgRecv {
            t0: 21.0,
            t1: 21.5,
            to: 2,
            from: 1,
            tag: 0,
            bytes: 0,
        },
        TraceEvent::Collective {
            t0: 22.0,
            t1: 22.25,
            slot: 1,
            op: "allreduce \"sum\"\\\n\u{1}\u{7f} é€😀".to_owned(),
        },
        TraceEvent::ProtocolMsg {
            queued: 23.0,
            start: 23.5,
            end: 23.75,
            step: ProtocolStep::StateTransfer,
            bytes: 256.0,
        },
        TraceEvent::ProtocolCompute {
            t0: 24.0,
            t1: 24.01,
        },
        TraceEvent::ProtocolQueueDepth {
            t: 24.0,
            depth: usize::MAX,
        },
        TraceEvent::FaultInjected {
            t: 25.0,
            host: Some(3),
            fault: FaultKind::Crash,
            duration_secs: None,
            factor: None,
        },
        TraceEvent::FaultInjected {
            t: 26.0,
            host: Some(9),
            fault: FaultKind::Blackout,
            duration_secs: Some(f64::NAN),
            factor: None,
        },
        TraceEvent::FaultInjected {
            t: 27.0,
            host: Some(10),
            fault: FaultKind::RackShock,
            duration_secs: None,
            factor: Some(1e-7),
        },
        TraceEvent::FailureDetected {
            t: 28.0,
            host: 3,
            iter: Some(7),
            cause: FailureCause::InjectedCrash,
            detail: None,
        },
        TraceEvent::FailureDetected {
            t: 29.0,
            host: 1,
            iter: None,
            cause: FailureCause::AppPanic,
            detail: Some("boom: \"index\" out of \\bounds\n\t\r\u{8}\u{c}\u{1f} ü".to_owned()),
        },
        TraceEvent::RecoveryComplete {
            t: 30.0,
            host: 3,
            replacement: Some(17),
            action: RecoveryAction::SpareSwap,
            pause_secs: 16.7,
        },
        // A pause longer than the completion time clamps the start at 0.
        TraceEvent::RecoveryComplete {
            t: 1.0,
            host: 4,
            replacement: None,
            action: RecoveryAction::Abort,
            pause_secs: 2.0,
        },
        TraceEvent::RecoveryComplete {
            t: 31.0,
            host: 5,
            replacement: Some(0),
            action: RecoveryAction::Restart,
            pause_secs: 0.0,
        },
        TraceEvent::PolicyDecision {
            t: 31.0,
            policy: "mtbf \"aware\"\\\n\u{1}ß".to_owned(),
            failed: 3,
            chosen: Some(17),
            ranked: vec![17, 21, 19],
        },
        TraceEvent::PolicyDecision {
            t: 32.0,
            policy: "rack_aware".to_owned(),
            failed: 4,
            chosen: None,
            ranked: vec![],
        },
    ]
}

/// Three runs: every variant under a label that needs escaping and seed
/// 0; a protocol run at seed `u64::MAX` where a protocol message names
/// the link track before a link fault lands on it; and a run with no
/// events at all.
fn bundle() -> TraceBundle {
    let mut b = TraceBundle::new();
    b.push(
        "swap \"quoted\" \\ back\nslash\u{1} é€😀",
        0,
        Trace {
            events: all_events(),
        },
    );
    b.push(
        "protocol",
        u64::MAX,
        Trace {
            events: vec![
                TraceEvent::ProtocolMsg {
                    queued: 0.0,
                    start: 0.0,
                    end: 0.01,
                    step: ProtocolStep::Report,
                    bytes: 64.0,
                },
                TraceEvent::FaultInjected {
                    t: 0.005,
                    host: None,
                    fault: FaultKind::LinkDegraded,
                    duration_secs: Some(1e-7),
                    factor: None,
                },
                TraceEvent::ProtocolQueueDepth { t: 0.0, depth: 0 },
            ],
        },
    );
    b.push("empty", 1, Trace::new());
    b
}

#[test]
fn the_bundle_covers_every_variant() {
    let kinds: BTreeSet<&str> = all_events().iter().map(TraceEvent::kind).collect();
    assert_eq!(kinds.len(), 18, "{kinds:?}");
}

#[test]
fn jsonl_matches_the_golden_file() {
    let want = std::fs::read_to_string(golden(JSONL)).expect("golden JSONL exists");
    assert!(to_jsonl(&bundle()) == want, "JSONL differs from {JSONL}");
}

#[test]
fn chrome_trace_matches_the_golden_file() {
    let want = std::fs::read_to_string(golden(CHROME)).expect("golden Chrome trace exists");
    let got = to_chrome_trace(&bundle());
    assert!(got == want, "Chrome trace differs from {CHROME}");
    assert_eq!(validate_chrome_trace(&got), Ok(51));
}

#[test]
#[ignore = "rewrites the golden files; run only after a deliberate format change"]
fn regenerate_golden_files() {
    std::fs::create_dir_all(golden("")).unwrap();
    std::fs::write(golden(JSONL), to_jsonl(&bundle())).unwrap();
    std::fs::write(golden(CHROME), to_chrome_trace(&bundle())).unwrap();
}
