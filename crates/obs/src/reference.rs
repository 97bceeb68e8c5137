//! Tree-based reference implementations, compiled for tests only: a
//! Chrome builder that assembles `Value` trees, a JSONL writer that
//! serializes one cloned `Record` per line, and a validator that parses
//! the whole text into a tree before walking it. Property tests hold
//! the streaming code in `chrome` and `jsonl` to them.

use crate::chrome::{LINK_TID, MANAGER_TID};
use crate::event::TraceEvent;
use crate::jsonl::Record;
use crate::trace::TraceBundle;
use serde::value::{to_value, Value};
use serde::Serialize;

/// JSONL, one `Record` (cloned label and event) per line.
pub fn to_jsonl(bundle: &TraceBundle) -> String {
    let mut out = String::new();
    for run in &bundle.runs {
        for event in &run.trace.events {
            let record = Record {
                run: run.label.clone(),
                seed: run.seed,
                event: event.clone(),
            };
            out.push_str(&serde_json::to_string(&record).expect("trace events serialize"));
            out.push('\n');
        }
    }
    out
}

fn json(v: impl Serialize) -> Value {
    to_value(&v).expect("scalars lower to values")
}

/// Simulated seconds → trace microseconds.
fn us(t: f64) -> Value {
    json(t * 1e6)
}

fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A complete-slice event (`ph: "X"`).
fn slice(
    name: String,
    cat: &str,
    pid: u64,
    tid: u64,
    start: f64,
    end: f64,
    args: Option<Value>,
) -> Value {
    let mut pairs = vec![
        ("name", json(name)),
        ("cat", json(cat)),
        ("ph", json("X")),
        ("ts", us(start)),
        ("dur", us((end - start).max(0.0))),
        ("pid", json(pid)),
        ("tid", json(tid)),
    ];
    if let Some(a) = args {
        pairs.push(("args", a));
    }
    object(pairs)
}

/// An instant event (`ph: "i"`, thread scope).
fn instant(name: String, cat: &str, pid: u64, tid: u64, t: f64, args: Option<Value>) -> Value {
    let mut pairs = vec![
        ("name", json(name)),
        ("cat", json(cat)),
        ("ph", json("i")),
        ("s", json("t")),
        ("ts", us(t)),
        ("pid", json(pid)),
        ("tid", json(tid)),
    ];
    if let Some(a) = args {
        pairs.push(("args", a));
    }
    object(pairs)
}

/// A metadata event naming a process or thread.
fn metadata(name: &str, pid: u64, tid: u64, value: String) -> Value {
    object(vec![
        ("name", json(name)),
        ("ph", json("M")),
        ("pid", json(pid)),
        ("tid", json(tid)),
        ("args", object(vec![("name", json(value))])),
    ])
}

/// Flow start/finish pair for a swap arrow between two host tracks.
fn flow(ph: &str, id: u64, pid: u64, tid: u64, t: f64) -> Value {
    let mut pairs = vec![
        ("name", json("swap")),
        ("cat", json("swap")),
        ("ph", json(ph)),
        ("id", json(id)),
        ("ts", us(t)),
        ("pid", json(pid)),
        ("tid", json(tid)),
    ];
    if ph == "f" {
        pairs.insert(4, ("bp", json("e")));
    }
    object(pairs)
}

/// Chrome trace JSON built as one `Value` tree.
pub fn to_chrome_trace(bundle: &TraceBundle) -> String {
    let mut events: Vec<Value> = Vec::new();
    let mut flow_id: u64 = 0;

    for (pid, run) in bundle.runs.iter().enumerate() {
        let pid = pid as u64;
        events.push(metadata(
            "process_name",
            pid,
            0,
            format!("{} (seed {})", run.label, run.seed),
        ));
        events.push(metadata("thread_name", pid, MANAGER_TID, "manager".into()));
        let mut named_hosts: Vec<u64> = Vec::new();
        let mut host_track = |host: u64, events: &mut Vec<Value>| {
            if !named_hosts.contains(&host) {
                named_hosts.push(host);
                events.push(metadata("thread_name", pid, host, format!("host {host}")));
            }
        };
        // The shared-link track is named lazily, on the first protocol
        // message, so non-protocol runs carry no extra metadata.
        let mut link_named = false;

        for e in &run.trace.events {
            match e {
                TraceEvent::IterStart { .. } => {}
                TraceEvent::ComputeSpan {
                    host,
                    iter,
                    start,
                    end,
                } => {
                    let host = *host as u64;
                    host_track(host, &mut events);
                    events.push(slice(
                        format!("iter {iter}"),
                        "compute",
                        pid,
                        host,
                        *start,
                        *end,
                        None,
                    ));
                }
                TraceEvent::IterEnd {
                    t,
                    iter,
                    compute_end,
                } => {
                    events.push(instant(
                        format!("iter {iter} end"),
                        "iteration",
                        pid,
                        MANAGER_TID,
                        *t,
                        Some(object(vec![("compute_end", json(*compute_end))])),
                    ));
                }
                TraceEvent::Probe { t, host, rate } => {
                    let host = *host as u64;
                    host_track(host, &mut events);
                    events.push(instant(
                        "probe".into(),
                        "probe",
                        pid,
                        host,
                        *t,
                        Some(object(vec![("rate", json(*rate))])),
                    ));
                }
                TraceEvent::LoadChange { t, host, competing } => {
                    events.push(object(vec![
                        ("name", json(format!("load host {host}"))),
                        ("cat", json("load")),
                        ("ph", json("C")),
                        ("ts", us(*t)),
                        ("pid", json(pid)),
                        ("args", object(vec![("competing", json(*competing))])),
                    ]));
                }
                TraceEvent::SwapDecision {
                    t,
                    iter,
                    old_iter_time,
                    swap_time,
                    app_improvement,
                    stopped_because,
                    admitted,
                    rejected,
                } => {
                    let mut args = vec![
                        ("old_iter_time", json(*old_iter_time)),
                        ("swap_time", json(*swap_time)),
                        ("app_improvement", json(*app_improvement)),
                        ("stopped_because", json(stopped_because.key())),
                        ("admitted", json(admitted.len() as u64)),
                    ];
                    if let Some(r) = rejected {
                        args.push((
                            "rejected",
                            object(vec![
                                ("from", json(r.from as u64)),
                                ("to", json(r.to as u64)),
                                ("old_perf", json(r.old_perf)),
                                ("new_perf", json(r.new_perf)),
                                ("payback", r.payback.map(json).unwrap_or(Value::Null)),
                            ]),
                        ));
                    }
                    let verb = if admitted.is_empty() { "hold" } else { "swap" };
                    events.push(instant(
                        format!("decision iter {iter}: {verb}"),
                        "decision",
                        pid,
                        MANAGER_TID,
                        *t,
                        Some(object(args)),
                    ));
                }
                TraceEvent::SwapExec {
                    t,
                    iter,
                    from,
                    to,
                    bytes,
                    transfer_secs,
                } => {
                    let (from_t, to_t) = (*from as u64, *to as u64);
                    host_track(from_t, &mut events);
                    host_track(to_t, &mut events);
                    events.push(slice(
                        format!("swap {from}->{to}"),
                        "swap",
                        pid,
                        MANAGER_TID,
                        *t,
                        *t + *transfer_secs,
                        Some(object(vec![
                            ("iter", json(*iter as u64)),
                            ("bytes", json(*bytes)),
                        ])),
                    ));
                    events.push(flow("s", flow_id, pid, from_t, *t));
                    events.push(flow("f", flow_id, pid, to_t, *t + *transfer_secs));
                    flow_id += 1;
                }
                TraceEvent::Checkpoint {
                    t,
                    iter,
                    bytes,
                    pause_secs,
                } => {
                    events.push(slice(
                        format!("checkpoint iter {iter}"),
                        "checkpoint",
                        pid,
                        MANAGER_TID,
                        *t,
                        *t + *pause_secs,
                        Some(object(vec![("bytes", json(*bytes))])),
                    ));
                }
                TraceEvent::MsgSend {
                    t,
                    from,
                    to,
                    tag,
                    bytes,
                } => {
                    let from_t = *from as u64;
                    host_track(from_t, &mut events);
                    events.push(instant(
                        format!("send tag {tag} -> {to}"),
                        "msg",
                        pid,
                        from_t,
                        *t,
                        Some(object(vec![("bytes", json(*bytes as u64))])),
                    ));
                }
                TraceEvent::MsgRecv {
                    t0,
                    t1,
                    to,
                    from,
                    tag,
                    bytes,
                } => {
                    let to_t = *to as u64;
                    host_track(to_t, &mut events);
                    events.push(slice(
                        format!("recv tag {tag} <- {from}"),
                        "msg",
                        pid,
                        to_t,
                        *t0,
                        *t1,
                        Some(object(vec![("bytes", json(*bytes as u64))])),
                    ));
                }
                TraceEvent::Collective { t0, t1, slot, op } => {
                    let slot_t = *slot as u64;
                    host_track(slot_t, &mut events);
                    events.push(slice(op.clone(), "collective", pid, slot_t, *t0, *t1, None));
                }
                TraceEvent::ProtocolMsg {
                    queued,
                    start,
                    end,
                    step,
                    bytes,
                } => {
                    if !link_named {
                        link_named = true;
                        events.push(metadata("thread_name", pid, LINK_TID, "link".into()));
                    }
                    events.push(slice(
                        step.key().to_string(),
                        "protocol",
                        pid,
                        LINK_TID,
                        *start,
                        *end,
                        Some(object(vec![
                            ("queued", json(*queued)),
                            ("queue_wait", json(start - queued)),
                            ("bytes", json(*bytes)),
                        ])),
                    ));
                }
                TraceEvent::ProtocolCompute { t0, t1 } => {
                    events.push(slice(
                        "decision compute".into(),
                        "protocol",
                        pid,
                        MANAGER_TID,
                        *t0,
                        *t1,
                        None,
                    ));
                }
                TraceEvent::ProtocolQueueDepth { t, depth } => {
                    events.push(object(vec![
                        ("name", json("link queue")),
                        ("cat", json("protocol")),
                        ("ph", json("C")),
                        ("ts", us(*t)),
                        ("pid", json(pid)),
                        ("args", object(vec![("depth", json(*depth as u64))])),
                    ]));
                }
                TraceEvent::FaultInjected {
                    t,
                    host,
                    fault,
                    duration_secs,
                    factor,
                } => {
                    // Host faults land on the host's track; link-level
                    // faults (host None) on the shared-link track.
                    let tid = match host {
                        Some(h) => {
                            let h = *h as u64;
                            host_track(h, &mut events);
                            h
                        }
                        None => {
                            if !link_named {
                                link_named = true;
                                events.push(metadata("thread_name", pid, LINK_TID, "link".into()));
                            }
                            LINK_TID
                        }
                    };
                    let mut args = vec![(
                        "duration_secs",
                        duration_secs.map(json).unwrap_or(Value::Null),
                    )];
                    if let Some(f) = factor {
                        args.push(("factor", json(*f)));
                    }
                    match duration_secs {
                        // Bounded faults (blackouts, degraded windows)
                        // draw as slices so the outage span is visible
                        // under the compute it stalls.
                        Some(d) => events.push(slice(
                            format!("fault: {}", fault.key()),
                            "fault",
                            pid,
                            tid,
                            *t,
                            *t + *d,
                            Some(object(args)),
                        )),
                        // A permanent crash is an instant — the track
                        // simply goes quiet afterwards.
                        None => events.push(instant(
                            format!("fault: {}", fault.key()),
                            "fault",
                            pid,
                            tid,
                            *t,
                            Some(object(args)),
                        )),
                    }
                }
                TraceEvent::FailureDetected {
                    t,
                    host,
                    iter,
                    cause,
                    detail,
                } => {
                    let h = *host as u64;
                    host_track(h, &mut events);
                    let mut args = vec![("cause", json(cause.key()))];
                    if let Some(i) = iter {
                        args.push(("iter", json(*i as u64)));
                    }
                    if let Some(d) = detail {
                        args.push(("detail", json(d.clone())));
                    }
                    events.push(instant(
                        format!("failure: {}", cause.key()),
                        "fault",
                        pid,
                        h,
                        *t,
                        Some(object(args)),
                    ));
                }
                TraceEvent::RecoveryComplete {
                    t,
                    host,
                    replacement,
                    action,
                    pause_secs,
                } => {
                    let mut args = vec![
                        ("host", json(*host as u64)),
                        (
                            "replacement",
                            replacement.map(|r| json(r as u64)).unwrap_or(Value::Null),
                        ),
                    ];
                    args.push(("action", json(action.key())));
                    // `t` is the completion time; the slice spans the
                    // pause leading up to it.
                    events.push(slice(
                        match replacement {
                            Some(r) => format!("recovery {host}->{r} ({})", action.key()),
                            None => format!("recovery host {host} ({})", action.key()),
                        },
                        "fault",
                        pid,
                        MANAGER_TID,
                        (*t - *pause_secs).max(0.0),
                        *t,
                        Some(object(args)),
                    ));
                }
                TraceEvent::PolicyDecision {
                    t,
                    policy,
                    failed,
                    chosen,
                    ranked,
                } => {
                    let args = vec![
                        ("policy", json(policy.clone())),
                        ("failed", json(*failed as u64)),
                        (
                            "chosen",
                            chosen.map(|c| json(c as u64)).unwrap_or(Value::Null),
                        ),
                        (
                            "ranked",
                            Value::Seq(ranked.iter().map(|&h| json(h as u64)).collect()),
                        ),
                    ];
                    events.push(instant(
                        format!("placement: {policy}"),
                        "policy",
                        pid,
                        MANAGER_TID,
                        *t,
                        Some(object(args)),
                    ));
                }
            }
        }
    }

    let root = object(vec![
        ("traceEvents", Value::Seq(events)),
        ("displayTimeUnit", json("ms")),
    ]);
    serde_json::to_string(&root).expect("chrome trace serializes")
}

/// Parses the whole text into a tree, then walks it.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let root: Value = serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    let Value::Map(fields) = root else {
        return Err("top level is not an object".into());
    };
    let events = fields
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .ok_or("missing traceEvents")?;
    let Value::Seq(events) = events else {
        return Err("traceEvents is not an array".into());
    };
    for (i, e) in events.iter().enumerate() {
        let Value::Map(fields) = e else {
            return Err(format!("event {i} is not an object"));
        };
        let get = |k: &str| fields.iter().find(|(f, _)| f == k).map(|(_, v)| v);
        let ph = match get("ph") {
            Some(Value::Str(s)) if !s.is_empty() => s.clone(),
            _ => return Err(format!("event {i} has no ph")),
        };
        for key in ["name", "pid"] {
            if get(key).is_none() {
                return Err(format!("event {i} ({ph}) missing {key}"));
            }
        }
        if ph != "M" && !matches!(get("ts"), Some(Value::Num(_))) {
            return Err(format!("event {i} ({ph}) missing numeric ts"));
        }
    }
    Ok(events.len())
}

mod tests {
    use crate::chrome;
    use crate::event::{FailureCause, FaultKind, ProtocolStep, RecoveryAction, TraceEvent};
    use crate::trace::{Trace, TraceBundle};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use swap_core::{RejectedSwap, StopReason, SwapPair};

    const FLOATS: [f64; 14] = [
        0.0,
        -0.0,
        5e-324,
        1e-7,
        1e16,
        1e21,
        0.1 + 0.2,
        -2.5,
        1e300,
        f64::MAX,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        12.5,
    ];

    const TEXTS: [&str; 10] = [
        "",
        "swap(greedy)",
        "a\"quote",
        "back\\slash",
        "new\nline\r\t",
        "\u{1}\u{8}\u{c}\u{1f}\u{7f}",
        "é€😀",
        "mtbf_aware",
        "allreduce",
        "</script>",
    ];

    /// One float in eight is special, so most generated traces have
    /// finite timestamps and pass validation until a mutation breaks
    /// them.
    fn float() -> impl Strategy<Value = f64> {
        (sample::select(FLOATS.to_vec()), -1e7..1e7f64, 0u8..8)
            .prop_map(|(special, plain, pick)| if pick == 0 { special } else { plain })
    }

    fn int() -> impl Strategy<Value = usize> {
        sample::select(vec![
            0,
            1,
            2,
            3,
            5,
            9,
            10,
            17,
            1000,
            u32::MAX as usize,
            usize::MAX,
        ])
    }

    /// One event of the variant `kind` (mod 18), drawing its fields from
    /// the given pools.
    fn make_event(
        kind: u8,
        f: &[f64],
        n: &[usize],
        b: &[bool],
        text: &str,
        list: Vec<usize>,
    ) -> TraceEvent {
        let opt_f = |i: usize| b[i].then_some(f[i]);
        let opt_n = |i: usize| b[i].then_some(n[i]);
        match kind % 18 {
            0 => TraceEvent::IterStart {
                t: f[0],
                iter: n[0],
                active: list,
            },
            1 => TraceEvent::ComputeSpan {
                host: n[0],
                iter: n[1],
                start: f[0],
                end: f[1],
            },
            2 => TraceEvent::IterEnd {
                t: f[0],
                iter: n[0],
                compute_end: f[1],
            },
            3 => TraceEvent::Probe {
                t: f[0],
                host: n[0],
                rate: f[1],
            },
            4 => TraceEvent::LoadChange {
                t: f[0],
                host: n[0],
                competing: f[1],
            },
            5 => TraceEvent::SwapDecision {
                t: f[0],
                iter: n[0],
                old_iter_time: f[1],
                swap_time: f[2],
                app_improvement: f[3],
                stopped_because: [
                    StopReason::NoCandidates,
                    StopReason::NoImprovement,
                    StopReason::ProcessGateFailed,
                    StopReason::PaybackGateFailed,
                    StopReason::AppGateFailed,
                    StopReason::CapReached,
                    StopReason::Exhausted,
                ][n[1] % 7],
                admitted: list
                    .iter()
                    .map(|&to| SwapPair {
                        from: n[2],
                        to,
                        old_perf: f[4],
                        new_perf: f[5],
                        payback: f[0],
                        process_improvement: f[1],
                    })
                    .collect(),
                rejected: b[0].then_some(RejectedSwap {
                    from: n[2],
                    to: n[3],
                    old_perf: f[4],
                    new_perf: f[5],
                    process_improvement: f[2],
                    payback: opt_f(1),
                }),
            },
            6 => TraceEvent::SwapExec {
                t: f[0],
                iter: n[0],
                from: n[1],
                to: n[2],
                bytes: f[1],
                transfer_secs: f[2],
            },
            7 => TraceEvent::Checkpoint {
                t: f[0],
                iter: n[0],
                bytes: f[1],
                pause_secs: f[2],
            },
            8 => TraceEvent::MsgSend {
                t: f[0],
                from: n[0],
                to: n[1],
                tag: n[2] as u32,
                bytes: n[3],
            },
            9 => TraceEvent::MsgRecv {
                t0: f[0],
                t1: f[1],
                to: n[0],
                from: n[1],
                tag: n[2] as u32,
                bytes: n[3],
            },
            10 => TraceEvent::Collective {
                t0: f[0],
                t1: f[1],
                slot: n[0],
                op: text.to_owned(),
            },
            11 => TraceEvent::ProtocolMsg {
                queued: f[0],
                start: f[1],
                end: f[2],
                step: ProtocolStep::ALL[n[0] % 5],
                bytes: f[3],
            },
            12 => TraceEvent::ProtocolCompute { t0: f[0], t1: f[1] },
            13 => TraceEvent::ProtocolQueueDepth {
                t: f[0],
                depth: n[0],
            },
            14 => TraceEvent::FaultInjected {
                t: f[0],
                host: opt_n(0),
                fault: [
                    FaultKind::Crash,
                    FaultKind::Blackout,
                    FaultKind::LinkDegraded,
                    FaultKind::RackShock,
                ][n[1] % 4],
                duration_secs: opt_f(1),
                factor: opt_f(2),
            },
            15 => TraceEvent::FailureDetected {
                t: f[0],
                host: n[0],
                iter: opt_n(1),
                cause: [FailureCause::InjectedCrash, FailureCause::AppPanic][n[2] % 2],
                detail: b[2].then(|| text.to_owned()),
            },
            16 => TraceEvent::RecoveryComplete {
                t: f[0],
                host: n[0],
                replacement: opt_n(1),
                action: [
                    RecoveryAction::SpareSwap,
                    RecoveryAction::Restart,
                    RecoveryAction::Abort,
                ][n[2] % 3],
                pause_secs: f[1],
            },
            _ => TraceEvent::PolicyDecision {
                t: f[0],
                policy: text.to_owned(),
                failed: n[0],
                chosen: opt_n(1),
                ranked: list,
            },
        }
    }

    fn event() -> impl Strategy<Value = TraceEvent> {
        (
            0u8..18,
            prop::collection::vec(float(), 6..7),
            prop::collection::vec(int(), 4..5),
            prop::collection::vec(any::<bool>(), 3..4),
            sample::select(TEXTS.to_vec()),
            prop::collection::vec(int(), 0..4),
        )
            .prop_map(|(kind, f, n, b, text, list)| make_event(kind, &f, &n, &b, text, list))
    }

    /// Up to three runs of up to a dozen events of any variant.
    fn bundles() -> impl Strategy<Value = TraceBundle> {
        let run = (
            sample::select(TEXTS.to_vec()),
            sample::select(vec![0, 1, 7, u64::MAX]),
            prop::collection::vec(event(), 0..12),
        );
        prop::collection::vec(run, 0..4).prop_map(|runs| {
            let mut b = TraceBundle::new();
            for (label, seed, events) in runs {
                b.push(label, seed, Trace { events });
            }
            b
        })
    }

    /// Both validators reach the same verdict: the same count, the same
    /// format error, or (for text that is not JSON) both a syntax error.
    fn agree(text: &str) -> Result<(), String> {
        let new = chrome::validate_chrome_trace(text);
        let old = super::validate_chrome_trace(text);
        let same = match (&new, &old) {
            (Err(n), Err(o)) if o.starts_with("not JSON: ") => n.starts_with("not JSON: "),
            _ => new == old,
        };
        if same {
            Ok(())
        } else {
            Err(format!("one-pass {new:?} vs tree {old:?} on {text:?}"))
        }
    }

    /// `text` with the `k`-th occurrence (mod the count) of `from`
    /// replaced by `to`, if `from` occurs at all.
    fn replace_nth(text: &str, from: &str, to: &str, k: u64) -> Option<String> {
        let hits: Vec<usize> = text.match_indices(from).map(|(i, _)| i).collect();
        let at = *hits.get((k % hits.len().max(1) as u64) as usize)?;
        Some(format!("{}{to}{}", &text[..at], &text[at + from.len()..]))
    }

    /// Edits of a trace that each break one thing the validators check,
    /// or its syntax. `r` picks positions; `ch` is inserted.
    fn mutations(text: &str, r: u64, ch: char) -> Vec<String> {
        let chars: Vec<(usize, char)> = text.char_indices().collect();
        let at = |salt: u64| {
            let i = (r.wrapping_mul(salt) >> 11) as usize % chars.len().max(1);
            chars.get(i).map_or(text.len(), |&(b, _)| b)
        };
        let mut out = Vec::new();
        let del = at(3);
        let width = text[del..].chars().next().map_or(0, char::len_utf8);
        out.push(format!("{}{}", &text[..del], &text[del + width..]));
        let ins = at(5);
        out.push(format!("{}{ch}{}", &text[..ins], &text[ins..]));
        out.push(text[..at(7)].to_owned());
        for (from, to) in [
            ("{\"name\"", "{\"ph\":\"Q\",\"name\""),
            ("{\"name\"", "{\"ts\":\"1\",\"name\""),
            ("\"ph\"", "\"p\\u0068\""),
            ("\"name\"", "\"n\\u0061me\""),
            ("\"pid\"", "\"\\u0070id\""),
            ("\"ts\"", "\"t\\u0073\""),
            ("\"name\"", "\"nam\""),
            ("\"pid\"", "\"pad\""),
            ("\"ts\"", "\"tz\""),
            ("\"ph\":\"", "\"ph\":\"\",\"x\":\""),
            ("\"ph\":\"", "\"ph\":1,\"x\":\""),
            ("\"ph\":\"X\"", "\"ph\":\"\\u004d\""),
            ("\"ph\":\"", "\"ph\":\"\\uDC00"),
            ("\"ts\":", "\"ts\":\"1\",\"x\":"),
            ("\"ts\":", "\"ts\":null,\"x\":"),
            ("\"ts\":", "\"ts\":-"),
            ("\"ts\":", "\"ts\":1."),
            ("\"pid\":", "\"pid\":1e"),
            ("\"tid\":", "\"tid\":0"),
            ("\"traceEvents\"", "\"traceEvent\""),
            ("{\"traceEvents\":", "{\"traceEvents\":{},\"traceEvents\":"),
            ("{\"traceEvents\":", "{\"traceEvents\":[],\"traceEvents\":"),
            ("\"traceEvents\":[", "\"traceEvents\":[1,"),
        ] {
            out.extend(replace_nth(text, from, to, r));
        }
        out.push(format!("[{text}]"));
        out.push(format!("{text}x"));
        out.push(format!("{text} {{}}"));
        out.push(format!(" {text}\n"));
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn streaming_exporters_match_the_references(bundle in bundles()) {
            prop_assert_eq!(crate::jsonl::to_jsonl(&bundle), super::to_jsonl(&bundle));
            let text = chrome::to_chrome_trace(&bundle);
            prop_assert_eq!(&text, &super::to_chrome_trace(&bundle));
            agree(&text).map_err(TestCaseError::fail)?;
        }

        #[test]
        fn one_pass_validator_agrees_on_mutated_traces(
            (bundle, r, ch) in (
                bundles(),
                any::<u64>(),
                sample::select(vec!['{', '}', '[', ']', ',', ':', '"', '\\', '0', '-', 'e', ' ', 'é']),
            ),
        ) {
            let text = chrome::to_chrome_trace(&bundle);
            for mutated in mutations(&text, r, ch) {
                agree(&mutated).map_err(TestCaseError::fail)?;
            }
        }
    }

    #[test]
    fn one_pass_validator_agrees_on_inputs_a_naive_scanner_gets_wrong() {
        // An escaped key still names `ph`.
        let escaped = r#"{"traceEvents":[{"p\u0068":"X","name":"a","pid":0,"ts":1}]}"#;
        assert_eq!(super::validate_chrome_trace(escaped), Ok(1));
        // A format error early does not hide a syntax error later.
        let late =
            r#"{"traceEvents":[{"ph":"X","pid":0,"ts":1},{"ph":"X","name":"a","pid":0,"ts":1]}"#;
        assert!(super::validate_chrome_trace(late)
            .unwrap_err()
            .starts_with("not JSON: "));
        // A lone low surrogate is not a character.
        let surrogate = r#"{"traceEvents":[{"ph":"\uDC00","name":"a","pid":0,"ts":1}]}"#;
        let err = Err("not JSON: invalid unicode escape".to_owned());
        assert_eq!(super::validate_chrome_trace(surrogate), err);
        for text in [escaped, late, surrogate] {
            agree(text).unwrap();
        }
        assert_eq!(chrome::validate_chrome_trace(surrogate), err);
    }

    #[test]
    fn one_pass_validator_agrees_on_number_syntax() {
        for ts in [
            "0",
            "-0",
            "01",
            "-",
            "1.",
            ".5",
            "1.e5",
            "1e5",
            "1E+2",
            "2e",
            "--1",
            "1.2.3",
            "1-2",
            "1e400",
            "18446744073709551616",
            "-9223372036854775809",
            "0x10",
        ] {
            agree(&format!(
                r#"{{"traceEvents":[{{"ph":"X","name":"a","pid":0,"ts":{ts}}}]}}"#
            ))
            .unwrap();
        }
    }
}
