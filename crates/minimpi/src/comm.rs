//! Slot-addressed communication: the "active" communicator.
//!
//! Application communication is addressed to logical **slots** (ranks
//! 0..N−1 of the active communicator). Each slot has a mailbox; the
//! mailbox's receiving end is owned by whichever physical worker
//! currently executes the slot and *moves with the process state* during
//! a swap — senders are unaffected, so in-flight messages are never lost
//! (the paper's improved design achieves the same with message
//! forwarding).

use crate::msg::{Msg, Tag};
use obs::TraceSink as _;
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// Shared clock + sink for one traced runtime: every endpoint stamps its
/// message events in *virtual* time (wall × compression from a common
/// origin), the same time base the manager's policy arithmetic uses.
pub struct CommTracer {
    sink: obs::SharedSink,
    origin: Instant,
    compression: f64,
}

impl CommTracer {
    /// Builds a tracer over `sink`, with virtual time measured from
    /// `origin` and scaled by `compression`.
    pub fn new(sink: obs::SharedSink, origin: Instant, compression: f64) -> Self {
        CommTracer {
            sink,
            origin,
            compression,
        }
    }

    /// Current virtual time.
    pub fn vnow(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * self.compression
    }

    pub(crate) fn emit(&self, event: obs::TraceEvent) {
        self.sink.emit(event);
    }
}

/// The send side of every slot mailbox; shared by all workers.
#[derive(Clone)]
pub struct Router {
    senders: Arc<Vec<Sender<Msg>>>,
}

impl Router {
    /// Creates a router with `n_slots` mailboxes, returning the router
    /// and the receiving end of each mailbox (to hand to the initial
    /// holder of each slot).
    pub fn new(n_slots: usize) -> (Router, Vec<Receiver<Msg>>) {
        assert!(n_slots >= 1, "need at least one slot");
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..n_slots).map(|_| channel()).unzip();
        (
            Router {
                senders: Arc::new(senders),
            },
            receivers,
        )
    }

    /// Number of slots.
    pub fn n_slots(&self) -> usize {
        self.senders.len()
    }

    /// Delivers a message to a slot's mailbox.
    ///
    /// # Panics
    /// Panics if the slot id is out of range or the runtime has shut
    /// down (receiver dropped).
    pub fn deliver(&self, to: usize, msg: Msg) {
        self.senders[to]
            .send(msg)
            .expect("slot mailbox closed — runtime shut down mid-send");
    }
}

/// A worker's endpoint on the active communicator while it holds a slot.
///
/// Supports tagged point-to-point [`send`](SlotComm::send) /
/// [`recv`](SlotComm::recv) with out-of-order buffering, and the
/// collectives in [`crate::collective`]. On swap, [`SlotComm::into_parts`]
/// dismantles the endpoint for transfer and
/// [`SlotComm::from_parts`] reassembles it on the receiving worker.
pub struct SlotComm {
    slot: usize,
    router: Router,
    mailbox: Receiver<Msg>,
    /// Messages received but not yet matched by a `recv` (different tag
    /// or sender than requested).
    pending: VecDeque<Msg>,
    /// Collective sequence number — identical across slots because every
    /// slot executes the same collective call sequence.
    pub(crate) coll_seq: u64,
    /// Collective nesting depth: the layered collectives (barrier →
    /// allgather → gather+broadcast) each re-enter the collective entry
    /// points, and only the outermost call is traced as a span.
    coll_depth: u32,
    /// Optional tracer; moves with the endpoint during a swap.
    tracer: Option<Arc<CommTracer>>,
}

/// The transferable pieces of a [`SlotComm`] (what a swap moves besides
/// application state).
pub struct CommParts {
    /// The slot id.
    pub slot: usize,
    /// The slot mailbox's receive end.
    pub mailbox: Receiver<Msg>,
    /// Unmatched buffered messages.
    pub pending: VecDeque<Msg>,
    /// Collective sequence counter.
    pub coll_seq: u64,
    /// Tracer handle, so instrumentation follows the process.
    pub tracer: Option<Arc<CommTracer>>,
}

impl SlotComm {
    /// Assembles the endpoint for `slot` from its mailbox and the shared
    /// router.
    pub fn new(slot: usize, router: Router, mailbox: Receiver<Msg>) -> Self {
        assert!(slot < router.n_slots());
        SlotComm {
            slot,
            router,
            mailbox,
            pending: VecDeque::new(),
            coll_seq: 0,
            coll_depth: 0,
            tracer: None,
        }
    }

    /// Attaches a tracer; subsequent application sends/recvs and
    /// collectives emit [`obs::TraceEvent`]s through it.
    pub fn set_tracer(&mut self, tracer: Arc<CommTracer>) {
        self.tracer = Some(tracer);
    }

    /// This endpoint's logical rank in the active communicator.
    pub fn rank(&self) -> usize {
        self.slot
    }

    /// Size of the active communicator.
    pub fn size(&self) -> usize {
        self.router.n_slots()
    }

    /// Sends `value` to slot `to` with `tag`.
    ///
    /// # Panics
    /// Panics on reserved tags (collective range) or out-of-range slots.
    pub fn send<T: serde::Serialize>(&self, to: usize, tag: Tag, value: &T) {
        assert!(
            tag < crate::msg::RESERVED_TAG_BASE,
            "tag {tag:#x} is reserved for collectives"
        );
        self.send_internal(to, tag, value);
    }

    pub(crate) fn send_internal<T: serde::Serialize>(&self, to: usize, tag: Tag, value: &T) {
        let msg = Msg::encode(self.slot, tag, value);
        // Collective-internal traffic is not traced message-by-message;
        // the outermost collective call is traced as one span instead.
        if tag < crate::msg::RESERVED_TAG_BASE {
            if let Some(tr) = &self.tracer {
                tr.emit(obs::TraceEvent::MsgSend {
                    t: tr.vnow(),
                    from: self.slot,
                    to,
                    tag,
                    bytes: msg.bytes.len(),
                });
            }
        }
        self.router.deliver(to, msg);
    }

    /// Receives a message from slot `from` with tag `tag`, blocking until
    /// one arrives. Non-matching messages are buffered for later `recv`s.
    ///
    /// # Panics
    /// Panics if the runtime shuts down while waiting.
    pub fn recv<T: for<'de> serde::Deserialize<'de>>(&mut self, from: usize, tag: Tag) -> T {
        self.recv_raw(from, tag).decode()
    }

    pub(crate) fn recv_raw(&mut self, from: usize, tag: Tag) -> Msg {
        let t0 = self.tracer.as_ref().map(|tr| tr.vnow());
        let msg = self.recv_raw_inner(from, tag);
        if tag < crate::msg::RESERVED_TAG_BASE {
            if let Some(tr) = &self.tracer {
                tr.emit(obs::TraceEvent::MsgRecv {
                    t0: t0.expect("t0 stamped when tracer present"),
                    t1: tr.vnow(),
                    to: self.slot,
                    from,
                    tag,
                    bytes: msg.bytes.len(),
                });
            }
        }
        msg
    }

    fn recv_raw_inner(&mut self, from: usize, tag: Tag) -> Msg {
        if let Some(pos) = self
            .pending
            .iter()
            .position(|m| m.from == from && m.tag == tag)
        {
            return self.pending.remove(pos).expect("position just found");
        }
        loop {
            let msg = self
                .mailbox
                .recv()
                .expect("mailbox closed while waiting for a message");
            if msg.from == from && msg.tag == tag {
                return msg;
            }
            self.pending.push_back(msg);
        }
    }

    /// True if a matching message is already available (non-blocking).
    pub fn poll(&mut self, from: usize, tag: Tag) -> bool {
        if self.pending.iter().any(|m| m.from == from && m.tag == tag) {
            return true;
        }
        while let Ok(msg) = self.mailbox.try_recv() {
            let hit = msg.from == from && msg.tag == tag;
            self.pending.push_back(msg);
            if hit {
                return true;
            }
        }
        false
    }

    /// Marks entry into a collective; returns the span's start time when
    /// this is the *outermost* collective of a traced endpoint (the
    /// layered implementations — e.g. barrier over allgather — nest).
    pub(crate) fn coll_begin(&mut self) -> Option<f64> {
        self.coll_depth += 1;
        if self.coll_depth == 1 {
            self.tracer.as_ref().map(|tr| tr.vnow())
        } else {
            None
        }
    }

    /// Marks collective exit; emits a span when `coll_begin` opened one.
    pub(crate) fn coll_end(&mut self, op: &str, t0: Option<f64>) {
        self.coll_depth -= 1;
        if let (Some(t0), Some(tr)) = (t0, &self.tracer) {
            tr.emit(obs::TraceEvent::Collective {
                t0,
                t1: tr.vnow(),
                slot: self.slot,
                op: op.to_owned(),
            });
        }
    }

    /// Dismantles the endpoint for transfer to another worker.
    pub fn into_parts(self) -> CommParts {
        CommParts {
            slot: self.slot,
            mailbox: self.mailbox,
            pending: self.pending,
            coll_seq: self.coll_seq,
            tracer: self.tracer,
        }
    }

    /// Reassembles an endpoint from transferred parts.
    pub fn from_parts(parts: CommParts, router: Router) -> Self {
        SlotComm {
            slot: parts.slot,
            router,
            mailbox: parts.mailbox,
            pending: parts.pending,
            coll_seq: parts.coll_seq,
            coll_depth: 0,
            tracer: parts.tracer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn pair() -> (SlotComm, SlotComm) {
        let (router, mut rxs) = Router::new(2);
        let rx1 = rxs.pop().unwrap();
        let rx0 = rxs.pop().unwrap();
        (
            SlotComm::new(0, router.clone(), rx0),
            SlotComm::new(1, router, rx1),
        )
    }

    #[test]
    fn p2p_send_recv() {
        let (c0, mut c1) = pair();
        c0.send(1, 5, &42u64);
        let v: u64 = c1.recv(0, 5);
        assert_eq!(v, 42);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let (c0, mut c1) = pair();
        c0.send(1, 1, &"first");
        c0.send(1, 2, &"second");
        let b: String = c1.recv(0, 2);
        let a: String = c1.recv(0, 1);
        assert_eq!((a.as_str(), b.as_str()), ("first", "second"));
    }

    #[test]
    fn a_message_from_one_source_waits_while_another_is_received() {
        let (router, rxs) = Router::new(3);
        let mut rxs = rxs.into_iter();
        let mut c0 = SlotComm::new(0, router.clone(), rxs.next().unwrap());
        let c1 = SlotComm::new(1, router.clone(), rxs.next().unwrap());
        let c2 = SlotComm::new(2, router, rxs.next().unwrap());
        c1.send(0, 7, &11u32);
        c2.send(0, 7, &22u32);
        // Slot 1's message arrives first, with the same tag, and waits
        // in the buffer while slot 2's is received.
        let from_2: u32 = c0.recv(2, 7);
        let from_1: u32 = c0.recv(1, 7);
        assert_eq!((from_2, from_1), (22, 11));
    }

    #[test]
    fn cross_thread_send_recv() {
        let (c0, mut c1) = pair();
        let t = thread::spawn(move || {
            let v: Vec<u32> = c1.recv(0, 9);
            v.iter().sum::<u32>()
        });
        c0.send(1, 9, &vec![1u32, 2, 3]);
        assert_eq!(t.join().unwrap(), 6);
    }

    #[test]
    fn poll_is_non_blocking() {
        let (c0, mut c1) = pair();
        assert!(!c1.poll(0, 4));
        c0.send(1, 4, &0u8);
        // Give the channel a moment (same-process, effectively immediate).
        assert!(c1.poll(0, 4));
        let _: u8 = c1.recv(0, 4);
        assert!(!c1.poll(0, 4));
    }

    #[test]
    fn parts_survive_transfer() {
        let (c0, mut c1) = pair();
        c0.send(1, 1, &123u32);
        // Buffer a message under a different expectation first.
        c0.send(1, 2, &456u32);
        let _ = c1.poll(9, 9); // drains mailbox into pending
        let router = Router {
            senders: c1.router.senders.clone(),
        };
        let parts = c1.into_parts();
        let mut c1b = SlotComm::from_parts(parts, router);
        let a: u32 = c1b.recv(0, 1);
        let b: u32 = c1b.recv(0, 2);
        assert_eq!((a, b), (123, 456));
    }

    mod props {
        use super::super::*;
        use proptest::prelude::*;
        use std::thread;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Per-(sender, tag) FIFO: however messages interleave across
            /// tags, each tag's stream arrives in send order — and
            /// receiving in a scrambled tag order still delivers every
            /// message exactly once.
            #[test]
            fn prop_per_tag_fifo_under_interleaving(
                msgs in proptest::collection::vec((0u32..4, 0u64..1000), 1..40),
                recv_tag_order in proptest::collection::vec(0u32..4, 0..8),
            ) {
                let (router, mut rxs) = Router::new(2);
                let rx1 = rxs.pop().unwrap();
                let rx0 = rxs.pop().unwrap();
                let c0 = SlotComm::new(0, router.clone(), rx0);
                let mut c1 = SlotComm::new(1, router, rx1);

                // Expected per-tag streams.
                let mut expect: Vec<Vec<u64>> = vec![Vec::new(); 4];
                for &(tag, v) in &msgs {
                    expect[tag as usize].push(v);
                }

                let sender = thread::spawn(move || {
                    for &(tag, v) in &msgs {
                        c0.send(1, tag, &v);
                    }
                });

                // Drain tags in an arbitrary order (hinted by the fuzzed
                // prefix, then the rest); each tag exactly once.
                let mut order: Vec<u32> = Vec::new();
                for t in recv_tag_order.into_iter().chain(0..4) {
                    if !order.contains(&t) {
                        order.push(t);
                    }
                }
                let mut got: Vec<Vec<u64>> = vec![Vec::new(); 4];
                for &tag in &order {
                    for _ in 0..expect[tag as usize].len() {
                        got[tag as usize].push(c1.recv(0, tag));
                    }
                }
                sender.join().unwrap();
                prop_assert_eq!(got, expect);
            }
        }
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_tags_rejected() {
        let (c0, _c1) = pair();
        c0.send(1, crate::msg::RESERVED_TAG_BASE, &0u8);
    }

    #[test]
    fn rank_and_size() {
        let (c0, c1) = pair();
        assert_eq!((c0.rank(), c0.size()), (0, 2));
        assert_eq!((c1.rank(), c1.size()), (1, 2));
    }
}
