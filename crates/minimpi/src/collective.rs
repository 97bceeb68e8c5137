//! Collective operations on the active communicator.
//!
//! Implemented over the tagged point-to-point layer with a rooted
//! gather+broadcast structure. Every collective call consumes one value
//! of the per-slot collective sequence counter, so successive collectives
//! (and collectives from different iterations) can never interleave —
//! each rendezvous has a unique reserved tag.

use crate::comm::SlotComm;
use crate::msg::{Tag, RESERVED_TAG_BASE};
use serde::de::DeserializeOwned;
use serde::Serialize;

impl SlotComm {
    pub(crate) fn next_coll_tag(&mut self) -> Tag {
        let tag = RESERVED_TAG_BASE + (self.coll_seq % 0x7FFF_FFFF) as Tag;
        self.coll_seq += 1;
        tag
    }

    /// Synchronizes all slots (no payload).
    pub fn barrier(&mut self) {
        let t0 = self.coll_begin();
        let _: Vec<u8> = self.allgather(&0u8);
        self.coll_end("barrier", t0);
    }

    /// Broadcasts `value` from `root` to every slot; returns the value on
    /// all slots.
    pub fn broadcast<T: Serialize + DeserializeOwned + Clone>(
        &mut self,
        root: usize,
        value: &T,
    ) -> T {
        let t0 = self.coll_begin();
        let tag = self.next_coll_tag();
        let out = if self.rank() == root {
            for s in 0..self.size() {
                if s != root {
                    self.send_internal(s, tag, value);
                }
            }
            value.clone()
        } else {
            let msg = self.recv_raw(root, tag);
            msg.decode()
        };
        self.coll_end("broadcast", t0);
        out
    }

    /// Gathers one value per slot at `root` (index = slot id); other
    /// slots receive `None`.
    pub fn gather<T: Serialize + DeserializeOwned + Clone>(
        &mut self,
        root: usize,
        value: &T,
    ) -> Option<Vec<T>> {
        let t0 = self.coll_begin();
        let tag = self.next_coll_tag();
        let out = if self.rank() == root {
            let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            out[root] = Some(value.clone());
            for s in (0..self.size()).filter(|&s| s != root) {
                let msg = self.recv_raw(s, tag);
                out[s] = Some(msg.decode());
            }
            Some(out.into_iter().map(|v| v.expect("gathered all")).collect())
        } else {
            self.send_internal(root, tag, value);
            None
        };
        self.coll_end("gather", t0);
        out
    }

    /// Gathers one value per slot on *every* slot.
    pub fn allgather<T: Serialize + DeserializeOwned + Clone>(&mut self, value: &T) -> Vec<T> {
        let t0 = self.coll_begin();
        let gathered = self.gather(0, value);
        let out = match gathered {
            Some(all) => self.broadcast(0, &all),
            None => {
                let all: Vec<T> = Vec::new();
                self.broadcast(0, &all)
            }
        };
        self.coll_end("allgather", t0);
        out
    }

    /// Reduces with `op` at `root` (left fold in slot order); other slots
    /// receive `None`.
    pub fn reduce<T, F>(&mut self, root: usize, value: &T, op: F) -> Option<T>
    where
        T: Serialize + DeserializeOwned + Clone,
        F: Fn(T, T) -> T,
    {
        let t0 = self.coll_begin();
        let out = self.gather(root, value).map(|all| {
            let mut it = all.into_iter();
            let first = it.next().expect("communicator is non-empty");
            it.fold(first, op)
        });
        self.coll_end("reduce", t0);
        out
    }

    /// Reduces with `op` and distributes the result to every slot.
    pub fn allreduce<T, F>(&mut self, value: &T, op: F) -> T
    where
        T: Serialize + DeserializeOwned + Clone,
        F: Fn(T, T) -> T,
    {
        let t0 = self.coll_begin();
        let reduced = self.reduce(0, value, op);
        let out = match reduced {
            Some(r) => self.broadcast(0, &r),
            None => {
                // Non-root: the broadcast ignores the local placeholder.
                let placeholder = value.clone();
                self.broadcast(0, &placeholder)
            }
        };
        self.coll_end("allreduce", t0);
        out
    }

    /// Scatters `parts[i]` from `root` to slot `i`; returns this slot's
    /// part.
    ///
    /// # Panics
    /// Panics at root if `parts.len() != size()`.
    pub fn scatter<T: Serialize + DeserializeOwned + Clone>(
        &mut self,
        root: usize,
        parts: Option<&[T]>,
    ) -> T {
        let t0 = self.coll_begin();
        let tag = self.next_coll_tag();
        let out = if self.rank() == root {
            let parts = parts.expect("root must supply the parts");
            assert_eq!(parts.len(), self.size(), "one part per slot");
            for (s, part) in parts.iter().enumerate() {
                if s != root {
                    self.send_internal(s, tag, part);
                }
            }
            parts[root].clone()
        } else {
            let msg = self.recv_raw(root, tag);
            msg.decode()
        };
        self.coll_end("scatter", t0);
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::{Router, SlotComm};
    use std::thread;

    /// Runs `f(rank, comm)` on `n` threads over a fresh communicator and
    /// returns the per-rank results in rank order.
    fn with_comm<R: Send + 'static>(
        n: usize,
        f: impl Fn(usize, &mut SlotComm) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let (router, rxs) = Router::new(n);
        let f = std::sync::Arc::new(f);
        let handles: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(slot, rx)| {
                let router = router.clone();
                let f = std::sync::Arc::clone(&f);
                thread::spawn(move || {
                    let mut comm = SlotComm::new(slot, router, rx);
                    f(slot, &mut comm)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    /// Communicator sizes the rooted collectives are checked at, each
    /// from every root.
    const SIZES: [usize; 7] = [1, 2, 3, 4, 5, 7, 8];

    #[test]
    fn broadcast_reaches_all_ranks() {
        for n in SIZES {
            for root in 0..n {
                let out = with_comm(n, move |rank, comm| {
                    let v = if rank == root { root as u64 + 100 } else { 0 };
                    comm.broadcast(root, &v)
                });
                assert_eq!(out, vec![root as u64 + 100; n], "n={n} root={root}");
            }
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = with_comm(4, |rank, comm| comm.gather(0, &(rank as u32 * 10)));
        assert_eq!(out[0], Some(vec![0, 10, 20, 30]));
        assert!(out[1..].iter().all(Option::is_none));
    }

    #[test]
    fn allgather_gives_everyone_everything() {
        let out = with_comm(3, |rank, comm| comm.allgather(&rank));
        for v in out {
            assert_eq!(v, vec![0, 1, 2]);
        }
    }

    #[test]
    fn allreduce_sum_matches_serial() {
        let out = with_comm(5, |rank, comm| {
            comm.allreduce(&(rank as f64 + 1.0), |a, b| a + b)
        });
        for v in out {
            assert!((v - 15.0).abs() < 1e-12);
        }
    }

    #[test]
    fn reduce_min_at_root() {
        for n in SIZES {
            for root in 0..n {
                // The minimum (0) sits on the rank after the root, so the
                // root must gather it from another rank when n > 1.
                let out = with_comm(n, move |rank, comm| {
                    let v = (rank as i64 - root as i64 - 1).rem_euclid(n as i64);
                    comm.reduce(root, &v, i64::min)
                });
                for (rank, v) in out.into_iter().enumerate() {
                    let want = (rank == root).then_some(0);
                    assert_eq!(v, want, "n={n} root={root} rank={rank}");
                }
            }
        }
    }

    #[test]
    fn scatter_distributes_parts() {
        let out = with_comm(3, |rank, comm| {
            if rank == 0 {
                comm.scatter(0, Some(&[10u8, 20, 30]))
            } else {
                comm.scatter::<u8>(0, None)
            }
        });
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn barrier_completes() {
        let out = with_comm(6, |rank, comm| {
            for _ in 0..10 {
                comm.barrier();
            }
            rank
        });
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn consecutive_collectives_do_not_interleave() {
        // Two back-to-back broadcasts of different values from different
        // roots; sequence numbering must keep them separate even though
        // rank 2 posts its sends before anyone receives.
        let out = with_comm(3, |rank, comm| {
            let a = comm.broadcast(0, &if rank == 0 { 1u8 } else { 0 });
            let b = comm.broadcast(2, &if rank == 2 { 2u8 } else { 0 });
            (a, b)
        });
        assert!(out.iter().all(|&(a, b)| a == 1 && b == 2));
    }

    #[test]
    fn allreduce_on_vectors() {
        let out = with_comm(3, |rank, comm| {
            let local = vec![rank as f64; 2];
            comm.allreduce(&local, |a, b| {
                a.iter().zip(&b).map(|(x, y)| x + y).collect()
            })
        });
        for v in out {
            assert_eq!(v, vec![3.0, 3.0]);
        }
    }

    #[test]
    fn single_rank_collectives_are_identity() {
        let out = with_comm(1, |_rank, comm| {
            comm.barrier();
            let g = comm.allgather(&7u8);
            let r = comm.allreduce(&5u32, |a, b| a + b);
            (g, r)
        });
        assert_eq!(out[0], (vec![7], 5));
    }
}
