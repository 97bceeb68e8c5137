//! Chrome trace-event export (the JSON Array Format with a
//! `traceEvents` wrapper), loadable in Perfetto or `chrome://tracing`.
//!
//! Layout: one *process* per run (pid = run index, named
//! `"<label> (seed N)"`), one *thread track* per host (tid = host id)
//! carrying compute slices, plus a `manager` track (tid
//! [`MANAGER_TID`]) carrying decisions, swap executions and
//! checkpoints. Swap executions additionally draw a flow arrow from the
//! vacated host's track to the receiving host's track. Load changes
//! become counter tracks (`ph: "C"`), so the external load each host
//! sees is visible under the compute slices it perturbs. Protocol-DES
//! runs add a `link` track (tid [`LINK_TID`]) of per-message slices
//! named by round phase, a `decision compute` slice on the manager
//! track, and a `link queue` occupancy counter.
//!
//! Each event is written straight into one pre-sized buffer, field by
//! field in a fixed order, so the output is byte-deterministic. Numbers
//! and every string that can need escaping (run labels, collective ops,
//! policy names, failure details) go through `serde_json`; names built
//! from static text, integers and enum keys need no escaping and are
//! written as they are. [`validate_chrome_trace`] checks the result as
//! `serde_json` reads it, once and without building a tree, so the
//! workspace has one JSON grammar.

use crate::event::TraceEvent;
use crate::trace::TraceBundle;
use serde::de::{Any, Deserialize, Deserializer, IgnoredAny, MapAccess, SeqAccess};
use serde::Serialize;
use std::borrow::Cow;
use std::fmt;
use std::io::Write as _;

/// Synthetic tid for the per-run swap-manager track (well above any
/// plausible host id).
pub const MANAGER_TID: u64 = 1_000_000;

/// Synthetic tid for the per-run shared-link track carrying protocol-DES
/// message slices.
pub const LINK_TID: u64 = 1_000_001;

/// An event or track name. `Plain` text is built from static text,
/// integers and enum keys, none of which JSON escapes; `Text` may hold
/// anything and is escaped by `serde_json`.
enum Name<'a> {
    Plain(fmt::Arguments<'a>),
    Text(&'a str),
}

/// The Chrome trace under construction. An event is opened by one of
/// the event methods, may get an `args` object, and ends at [`close`].
///
/// [`close`]: Writer::close
struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn raw(&mut self, text: &str) {
        self.out.extend_from_slice(text.as_bytes());
    }

    fn json<T: Serialize + ?Sized>(&mut self, value: &T) {
        serde_json::to_writer(&mut self.out, value).expect("a Vec takes every write");
    }

    fn name(&mut self, name: Name) {
        match name {
            Name::Plain(text) => {
                self.raw("\"");
                self.out.write_fmt(text).expect("a Vec takes every write");
                self.raw("\"");
            }
            Name::Text(text) => self.json(text),
        }
    }

    /// `"key":`, after a comma unless it is the first key of an object.
    fn key(&mut self, key: &str) {
        if self.out.last() != Some(&b'{') {
            self.raw(",");
        }
        self.raw("\"");
        self.raw(key);
        self.raw("\":");
    }

    fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.key(key);
        self.json(value);
    }

    /// A field whose value is static text that needs no escaping.
    fn tag(&mut self, key: &str, value: &str) {
        self.key(key);
        self.raw("\"");
        self.raw(value);
        self.raw("\"");
    }

    /// Simulated seconds → trace microseconds.
    fn us(&mut self, key: &str, t: f64) {
        self.field(key, &(t * 1e6));
    }

    /// A nested object under `key`, filled by `fields`.
    fn object(&mut self, key: &str, fields: impl FnOnce(&mut Self)) {
        self.key(key);
        self.raw("{");
        fields(self);
        self.raw("}");
    }

    /// Opens the next event at its first field, the name.
    fn open(&mut self, name: Name) {
        if self.out.last() != Some(&b'[') {
            self.raw(",");
        }
        self.raw("{\"name\":");
        self.name(name);
    }

    fn close(&mut self) {
        self.raw("}");
    }

    /// A complete-slice event (`ph: "X"`).
    fn slice(&mut self, name: Name, cat: &str, pid: u64, tid: u64, start: f64, end: f64) {
        self.open(name);
        self.tag("cat", cat);
        self.tag("ph", "X");
        self.us("ts", start);
        self.us("dur", (end - start).max(0.0));
        self.field("pid", &pid);
        self.field("tid", &tid);
    }

    /// An instant event (`ph: "i"`, thread scope).
    fn instant(&mut self, name: Name, cat: &str, pid: u64, tid: u64, t: f64) {
        self.open(name);
        self.tag("cat", cat);
        self.tag("ph", "i");
        self.tag("s", "t");
        self.us("ts", t);
        self.field("pid", &pid);
        self.field("tid", &tid);
    }

    /// A counter event (`ph: "C"`); its value goes in `args`.
    fn counter(&mut self, name: Name, cat: &str, pid: u64, t: f64) {
        self.open(name);
        self.tag("cat", cat);
        self.tag("ph", "C");
        self.us("ts", t);
        self.field("pid", &pid);
    }

    /// A complete metadata event naming a process or thread.
    fn metadata(&mut self, kind: &str, pid: u64, tid: u64, value: Name) {
        self.open(Name::Plain(format_args!("{kind}")));
        self.tag("ph", "M");
        self.field("pid", &pid);
        self.field("tid", &tid);
        self.object("args", |w| {
            w.key("name");
            w.name(value);
        });
        self.close();
    }

    /// A complete flow start (`s`) or finish (`f`) event for a swap
    /// arrow between two host tracks.
    fn flow(&mut self, ph: &str, id: u64, pid: u64, tid: u64, t: f64) {
        self.open(Name::Plain(format_args!("swap")));
        self.tag("cat", "swap");
        self.tag("ph", ph);
        self.field("id", &id);
        if ph == "f" {
            // Bind to the enclosing slice's end, the conventional terminus.
            self.tag("bp", "e");
        }
        self.us("ts", t);
        self.field("pid", &pid);
        self.field("tid", &tid);
        self.close();
    }
}

/// Converts a bundle to Chrome trace JSON text.
pub fn to_chrome_trace(bundle: &TraceBundle) -> String {
    // Events average about 120 bytes. The headroom saves regrowing the
    // buffer, and pages never written cost no memory.
    let mut w = Writer {
        out: Vec::with_capacity(160 * bundle.event_count() + 256 * bundle.runs.len() + 64),
    };
    w.raw("{\"traceEvents\":[");
    let mut flow_id: u64 = 0;

    for (pid, run) in bundle.runs.iter().enumerate() {
        let pid = pid as u64;
        let process = format!("{} (seed {})", run.label, run.seed);
        w.metadata("process_name", pid, 0, Name::Text(&process));
        w.metadata(
            "thread_name",
            pid,
            MANAGER_TID,
            Name::Plain(format_args!("manager")),
        );
        let mut named_hosts: Vec<u64> = Vec::new();
        let mut host_track = |host: u64, w: &mut Writer| {
            if !named_hosts.contains(&host) {
                named_hosts.push(host);
                w.metadata(
                    "thread_name",
                    pid,
                    host,
                    Name::Plain(format_args!("host {host}")),
                );
            }
        };
        // The shared-link track is named lazily, on the first protocol
        // message or link fault, so other runs carry no extra metadata.
        let mut link_named = false;
        let mut link_track = |w: &mut Writer| {
            if !link_named {
                link_named = true;
                w.metadata(
                    "thread_name",
                    pid,
                    LINK_TID,
                    Name::Plain(format_args!("link")),
                );
            }
        };

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
                    host_track(host, &mut w);
                    let name = Name::Plain(format_args!("iter {iter}"));
                    w.slice(name, "compute", pid, host, *start, *end);
                    w.close();
                }
                TraceEvent::IterEnd {
                    t,
                    iter,
                    compute_end,
                } => {
                    let name = Name::Plain(format_args!("iter {iter} end"));
                    w.instant(name, "iteration", pid, MANAGER_TID, *t);
                    w.object("args", |w| w.field("compute_end", compute_end));
                    w.close();
                }
                TraceEvent::Probe { t, host, rate } => {
                    let host = *host as u64;
                    host_track(host, &mut w);
                    w.instant(Name::Plain(format_args!("probe")), "probe", pid, host, *t);
                    w.object("args", |w| w.field("rate", rate));
                    w.close();
                }
                TraceEvent::LoadChange { t, host, competing } => {
                    let name = Name::Plain(format_args!("load host {host}"));
                    w.counter(name, "load", pid, *t);
                    w.object("args", |w| w.field("competing", competing));
                    w.close();
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
                    let verb = if admitted.is_empty() { "hold" } else { "swap" };
                    let name = Name::Plain(format_args!("decision iter {iter}: {verb}"));
                    w.instant(name, "decision", pid, MANAGER_TID, *t);
                    w.object("args", |w| {
                        w.field("old_iter_time", old_iter_time);
                        w.field("swap_time", swap_time);
                        w.field("app_improvement", app_improvement);
                        w.tag("stopped_because", stopped_because.key());
                        w.field("admitted", &admitted.len());
                        if let Some(r) = rejected {
                            w.object("rejected", |w| {
                                w.field("from", &r.from);
                                w.field("to", &r.to);
                                w.field("old_perf", &r.old_perf);
                                w.field("new_perf", &r.new_perf);
                                w.field("payback", &r.payback);
                            });
                        }
                    });
                    w.close();
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
                    host_track(from_t, &mut w);
                    host_track(to_t, &mut w);
                    let end = *t + *transfer_secs;
                    let name = Name::Plain(format_args!("swap {from}->{to}"));
                    w.slice(name, "swap", pid, MANAGER_TID, *t, end);
                    w.object("args", |w| {
                        w.field("iter", iter);
                        w.field("bytes", bytes);
                    });
                    w.close();
                    w.flow("s", flow_id, pid, from_t, *t);
                    w.flow("f", flow_id, pid, to_t, end);
                    flow_id += 1;
                }
                TraceEvent::Checkpoint {
                    t,
                    iter,
                    bytes,
                    pause_secs,
                } => {
                    let name = Name::Plain(format_args!("checkpoint iter {iter}"));
                    w.slice(name, "checkpoint", pid, MANAGER_TID, *t, *t + *pause_secs);
                    w.object("args", |w| w.field("bytes", bytes));
                    w.close();
                }
                TraceEvent::MsgSend {
                    t,
                    from,
                    to,
                    tag,
                    bytes,
                } => {
                    let from_t = *from as u64;
                    host_track(from_t, &mut w);
                    let name = Name::Plain(format_args!("send tag {tag} -> {to}"));
                    w.instant(name, "msg", pid, from_t, *t);
                    w.object("args", |w| w.field("bytes", bytes));
                    w.close();
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
                    host_track(to_t, &mut w);
                    let name = Name::Plain(format_args!("recv tag {tag} <- {from}"));
                    w.slice(name, "msg", pid, to_t, *t0, *t1);
                    w.object("args", |w| w.field("bytes", bytes));
                    w.close();
                }
                TraceEvent::Collective { t0, t1, slot, op } => {
                    let slot_t = *slot as u64;
                    host_track(slot_t, &mut w);
                    w.slice(Name::Text(op), "collective", pid, slot_t, *t0, *t1);
                    w.close();
                }
                TraceEvent::ProtocolMsg {
                    queued,
                    start,
                    end,
                    step,
                    bytes,
                } => {
                    link_track(&mut w);
                    let name = Name::Plain(format_args!("{}", step.key()));
                    w.slice(name, "protocol", pid, LINK_TID, *start, *end);
                    w.object("args", |w| {
                        w.field("queued", queued);
                        w.field("queue_wait", &(start - queued));
                        w.field("bytes", bytes);
                    });
                    w.close();
                }
                TraceEvent::ProtocolCompute { t0, t1 } => {
                    let name = Name::Plain(format_args!("decision compute"));
                    w.slice(name, "protocol", pid, MANAGER_TID, *t0, *t1);
                    w.close();
                }
                TraceEvent::ProtocolQueueDepth { t, depth } => {
                    w.counter(Name::Plain(format_args!("link queue")), "protocol", pid, *t);
                    w.object("args", |w| w.field("depth", depth));
                    w.close();
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
                            host_track(h, &mut w);
                            h
                        }
                        None => {
                            link_track(&mut w);
                            LINK_TID
                        }
                    };
                    let name = Name::Plain(format_args!("fault: {}", fault.key()));
                    match duration_secs {
                        // Bounded faults (blackouts, degraded windows)
                        // draw as slices so the outage span is visible
                        // under the compute it stalls.
                        Some(d) => w.slice(name, "fault", pid, tid, *t, *t + *d),
                        // A permanent crash is an instant — the track
                        // simply goes quiet afterwards.
                        None => w.instant(name, "fault", pid, tid, *t),
                    }
                    w.object("args", |w| {
                        w.field("duration_secs", duration_secs);
                        if let Some(f) = factor {
                            w.field("factor", f);
                        }
                    });
                    w.close();
                }
                TraceEvent::FailureDetected {
                    t,
                    host,
                    iter,
                    cause,
                    detail,
                } => {
                    let h = *host as u64;
                    host_track(h, &mut w);
                    let name = Name::Plain(format_args!("failure: {}", cause.key()));
                    w.instant(name, "fault", pid, h, *t);
                    w.object("args", |w| {
                        w.tag("cause", cause.key());
                        if let Some(i) = iter {
                            w.field("iter", i);
                        }
                        if let Some(d) = detail {
                            w.field("detail", d);
                        }
                    });
                    w.close();
                }
                TraceEvent::RecoveryComplete {
                    t,
                    host,
                    replacement,
                    action,
                    pause_secs,
                } => {
                    // `t` is the completion time; the slice spans the
                    // pause leading up to it.
                    let start = (*t - *pause_secs).max(0.0);
                    let action = action.key();
                    match replacement {
                        Some(r) => {
                            let name = Name::Plain(format_args!("recovery {host}->{r} ({action})"));
                            w.slice(name, "fault", pid, MANAGER_TID, start, *t);
                        }
                        None => {
                            let name = Name::Plain(format_args!("recovery host {host} ({action})"));
                            w.slice(name, "fault", pid, MANAGER_TID, start, *t);
                        }
                    }
                    w.object("args", |w| {
                        w.field("host", host);
                        w.field("replacement", replacement);
                        w.tag("action", action);
                    });
                    w.close();
                }
                TraceEvent::PolicyDecision {
                    t,
                    policy,
                    failed,
                    chosen,
                    ranked,
                } => {
                    let name = format!("placement: {policy}");
                    w.instant(Name::Text(&name), "policy", pid, MANAGER_TID, *t);
                    w.object("args", |w| {
                        w.field("policy", policy);
                        w.field("failed", failed);
                        w.field("chosen", chosen);
                        w.field("ranked", ranked);
                    });
                    w.close();
                }
            }
        }
    }

    w.raw("],\"displayTimeUnit\":\"ms\"}");
    String::from_utf8(w.out).expect("serde_json and the static text write UTF-8")
}

/// Structural validation of Chrome trace JSON: checks that the text is
/// JSON with a `traceEvents` array, and that every event carries the
/// fields the format requires (`ph`/`pid`/`name`, `ts` for non-metadata
/// phases). Returns the event count.
///
/// `serde_json` reads the text once, building no tree, and the check
/// gives the verdicts of a parse followed by a walk of the parsed tree:
/// keys and `ph` compare after unescaping, and the first occurrence of
/// a duplicated key wins. A format error is recorded and the reading
/// goes on, so a syntax error anywhere outranks it, and every syntax
/// message is the parser's own.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    serde_json::from_str::<Verdict>(text)
        .map_err(|e| format!("not JSON: {e}"))?
        .0
}

/// The verdict on a whole trace: its event count, or the first format
/// error.
struct Verdict(Result<usize, String>);

impl<'de> Deserialize<'de> for Verdict {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let mut root = match d.deserialize_any()? {
            Any::Map(map) => map,
            other => {
                ignore(other)?;
                return Ok(Verdict(Err("top level is not an object".into())));
            }
        };
        let mut events = None;
        while let Some(key) = root.next_key()? {
            if key == "traceEvents" && events.is_none() {
                events = Some(root.next_value::<Events>()?.0);
            } else {
                root.skip_value()?;
            }
        }
        Ok(Verdict(
            events.unwrap_or_else(|| Err("missing traceEvents".into())),
        ))
    }
}

/// The verdict on the `traceEvents` value.
struct Events(Result<usize, String>);

impl<'de> Deserialize<'de> for Events {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let mut seq = match d.deserialize_any()? {
            Any::Seq(seq) => seq,
            other => {
                ignore(other)?;
                return Ok(Events(Err("traceEvents is not an array".into())));
            }
        };
        let (mut count, mut first_error) = (0, None);
        while let Some(Event(problem)) = seq.next_element()? {
            if first_error.is_none() {
                first_error = problem.map(|p| format!("event {count} {p}"));
            }
            count += 1;
        }
        Ok(Events(first_error.map_or(Ok(count), Err)))
    }
}

/// What the format check finds wrong with one event, if anything: the
/// rest of a message that starts `event <index> `.
struct Event(Option<String>);

impl<'de> Deserialize<'de> for Event {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let mut map = match d.deserialize_any()? {
            Any::Map(map) => map,
            other => {
                ignore(other)?;
                return Ok(Event(Some("is not an object".into())));
            }
        };
        let (mut ph, mut name, mut pid, mut ts) = (None, false, false, None);
        while let Some(key) = map.next_key()? {
            match &*key {
                "ph" if ph.is_none() => ph = Some(map.next_value::<Field>()?),
                "ts" if ts.is_none() => ts = Some(map.next_value::<Field>()?),
                key => {
                    name |= key == "name";
                    pid |= key == "pid";
                    map.skip_value()?;
                }
            }
        }
        let ph = match ph {
            Some(Field::Str(ph)) if !ph.is_empty() => ph,
            _ => return Ok(Event(Some("has no ph".into()))),
        };
        let problem = if !name {
            Some(format!("({ph}) missing name"))
        } else if !pid {
            Some(format!("({ph}) missing pid"))
        } else if ph != "M" && !matches!(ts, Some(Field::Number)) {
            Some(format!("({ph}) missing numeric ts"))
        } else {
            None
        };
        Ok(Event(problem))
    }
}

/// An event field's value, as far as the format check cares.
enum Field<'de> {
    Str(Cow<'de, str>),
    Number,
    Other,
}

impl<'de> Deserialize<'de> for Field<'de> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Ok(match d.deserialize_any()? {
            Any::Str(s) => Field::Str(s),
            Any::Number(_) => Field::Number,
            other => {
                ignore(other)?;
                Field::Other
            }
        })
    }
}

/// Reads the rest of a value that `deserialize_any` began, for its
/// syntax only.
fn ignore<'de, S, M>(value: Any<'de, S, M>) -> Result<(), S::Error>
where
    S: SeqAccess<'de>,
    M: MapAccess<'de, Error = S::Error>,
{
    match value {
        Any::Seq(mut seq) => while seq.next_element::<IgnoredAny>()?.is_some() {},
        Any::Map(mut map) => {
            while map.next_key()?.is_some() {
                map.skip_value()?;
            }
        }
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    fn sample_bundle() -> TraceBundle {
        let mut b = TraceBundle::new();
        b.push(
            "swap/greedy",
            7,
            Trace {
                events: vec![
                    TraceEvent::ComputeSpan {
                        host: 0,
                        iter: 0,
                        start: 0.0,
                        end: 10.0,
                    },
                    TraceEvent::IterEnd {
                        t: 11.0,
                        iter: 0,
                        compute_end: 10.0,
                    },
                    TraceEvent::SwapExec {
                        t: 11.0,
                        iter: 0,
                        from: 0,
                        to: 2,
                        bytes: 1e6,
                        transfer_secs: 0.5,
                    },
                    TraceEvent::LoadChange {
                        t: 3.0,
                        host: 0,
                        competing: 1.0,
                    },
                ],
            },
        );
        b
    }

    #[test]
    fn chrome_trace_validates_and_has_tracks() {
        let text = to_chrome_trace(&sample_bundle());
        let n = validate_chrome_trace(&text).unwrap();
        assert!(n >= 7, "expected metadata + events, got {n}");
        assert!(text.contains("\"process_name\""));
        assert!(text.contains("swap/greedy (seed 7)"));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ph\":\"C\""));
        // One flow arrow pair for the swap.
        assert!(text.contains("\"ph\":\"s\""));
        assert!(text.contains("\"ph\":\"f\""));
    }

    #[test]
    fn validator_rejects_broken_events() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{}]}").is_err());
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"a\",\"pid\":0}]}"
        )
        .is_err()); // missing ts
        assert_eq!(validate_chrome_trace("{\"traceEvents\":[]}"), Ok(0));
    }

    #[test]
    fn protocol_events_land_on_the_link_and_manager_tracks() {
        use crate::event::ProtocolStep;
        let mut b = TraceBundle::new();
        b.push(
            "protocol",
            0,
            Trace {
                events: vec![
                    TraceEvent::ProtocolMsg {
                        queued: 0.0,
                        start: 0.0,
                        end: 0.01,
                        step: ProtocolStep::Report,
                        bytes: 256.0,
                    },
                    TraceEvent::ProtocolQueueDepth { t: 0.0, depth: 1 },
                    TraceEvent::ProtocolCompute {
                        t0: 0.01,
                        t1: 0.011,
                    },
                ],
            },
        );
        let text = to_chrome_trace(&b);
        validate_chrome_trace(&text).unwrap();
        assert!(text.contains("\"report\""), "{text}");
        assert!(text.contains("\"link\""), "{text}");
        assert!(text.contains("\"decision compute\""), "{text}");
        assert!(text.contains("\"link queue\""), "{text}");
        assert!(text.contains(&format!("\"tid\":{LINK_TID}")), "{text}");
    }

    #[test]
    fn output_is_deterministic() {
        let b = sample_bundle();
        assert_eq!(to_chrome_trace(&b), to_chrome_trace(&b));
    }
}
