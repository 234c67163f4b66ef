//! Tag-matched point-to-point message queues.
//!
//! Each rank owns one [`Mailbox`]. Senders push [`Envelope`]s; receivers
//! block until a message matching `(source, tag)` is available, exactly
//! like `MPI_Recv`. [`crate::Comm::probe`] mirrors `MPI_Probe`: it blocks
//! until a matching message exists and returns its metadata *without*
//! dequeuing it — the mechanism the paper's on-demand KMC exchange uses
//! to discover runtime-determined message sizes (§2.2.1).
//!
//! The queue is a `wait::Gate` whose epoch counts deliveries:
//! a blocked receiver polls that counter for a bounded spin before it
//! sleeps, and a sender wakes the condvar only when the owner really is
//! asleep on it.

use std::collections::VecDeque;

use crate::wait::{Gate, Waiter};
use crate::{Rank, Tag};

/// Matches either a specific source rank or any source (`MPI_ANY_SOURCE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Match messages from exactly this rank.
    Of(Rank),
    /// Match messages from any rank.
    Any,
}

impl Source {
    fn matches(&self, src: Rank) -> bool {
        match self {
            Source::Of(r) => *r == src,
            Source::Any => true,
        }
    }
}

/// A queued message.
#[derive(Debug)]
pub struct Envelope {
    /// Sending rank.
    pub src: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Virtual time at which the sender issued the message.
    pub depart_time: f64,
    /// Per-sender message ordinal: `(src, seq)` is the globally unique
    /// match id joining this send with its receive in a causal trace.
    pub seq: u64,
    /// Sender's Lamport clock at departure; the receiver reconciles to
    /// `max(local, lamport) + 1`.
    pub lamport: u64,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Metadata returned by a probe, mirroring `MPI_Status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgInfo {
    /// Sending rank.
    pub src: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Payload size in bytes.
    pub len: usize,
}

#[derive(Default)]
struct Queue {
    msgs: VecDeque<Envelope>,
}

impl Queue {
    fn position(&self, source: Source, tag: Tag) -> Option<usize> {
        self.msgs
            .iter()
            .position(|m| source.matches(m.src) && m.tag == tag)
    }

    fn info(&self, source: Source, tag: Tag) -> Option<MsgInfo> {
        self.position(source, tag).map(|i| {
            let m = &self.msgs[i];
            MsgInfo {
                src: m.src,
                tag: m.tag,
                len: m.payload.len(),
            }
        })
    }
}

/// One rank's incoming message queue.
#[derive(Default)]
pub struct Mailbox {
    queue: Gate<Queue>,
}

impl Mailbox {
    /// Creates an empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a message (called by the *sending* rank's thread).
    pub fn deliver(&self, env: Envelope) {
        let mut q = self.queue.lock();
        q.msgs.push_back(env);
        q.publish();
    }

    /// Blocks until a message matching `(source, tag)` arrives, then
    /// dequeues and returns it. Messages between a fixed (src, tag) pair
    /// are delivered in FIFO order.
    pub(crate) fn recv(&self, waiter: &Waiter, source: Source, tag: Tag) -> Envelope {
        waiter.wait(&self.queue, |q| {
            q.position(source, tag).and_then(|i| q.msgs.remove(i))
        })
    }

    /// Blocks until a message matching `(source, tag)` is queued and
    /// returns its metadata without consuming it (`MPI_Probe`).
    pub(crate) fn probe(&self, waiter: &Waiter, source: Source, tag: Tag) -> MsgInfo {
        waiter.wait(&self.queue, |q| q.info(source, tag))
    }

    /// Number of currently queued messages (diagnostics / leak tests).
    pub fn pending(&self) -> usize {
        self.queue.lock().msgs.len()
    }

    /// Wakes the owner if it is asleep in `recv`/`probe` (world abort).
    pub(crate) fn wake_all(&self) {
        self.queue.wake_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wait::Abort;
    use std::sync::Arc;

    fn parking() -> Waiter {
        Waiter::new(0, Arc::new(Abort::default()), false)
    }

    fn env(src: Rank, tag: Tag, payload: Vec<u8>) -> Envelope {
        Envelope {
            src,
            tag,
            depart_time: 0.0,
            seq: 0,
            lamport: 0,
            payload,
        }
    }

    #[test]
    fn recv_matches_tag_and_source() {
        let mb = Mailbox::new();
        let w = parking();
        mb.deliver(env(1, 10, vec![1]));
        mb.deliver(env(2, 20, vec![2]));
        mb.deliver(env(1, 20, vec![3]));
        let m = mb.recv(&w, Source::Of(2), 20);
        assert_eq!(m.payload, vec![2]);
        let m = mb.recv(&w, Source::Of(1), 20);
        assert_eq!(m.payload, vec![3]);
        let m = mb.recv(&w, Source::Any, 10);
        assert_eq!(m.payload, vec![1]);
        assert_eq!(mb.pending(), 0);
    }

    #[test]
    fn fifo_per_source_tag_pair() {
        let mb = Mailbox::new();
        let w = parking();
        mb.deliver(env(0, 5, vec![1]));
        mb.deliver(env(0, 5, vec![2]));
        mb.deliver(env(0, 5, vec![3]));
        assert_eq!(mb.recv(&w, Source::Of(0), 5).payload, vec![1]);
        assert_eq!(mb.recv(&w, Source::Of(0), 5).payload, vec![2]);
        assert_eq!(mb.recv(&w, Source::Of(0), 5).payload, vec![3]);
    }

    #[test]
    fn probe_does_not_consume() {
        let mb = Mailbox::new();
        let w = parking();
        mb.deliver(env(3, 7, vec![0; 42]));
        let info = mb.probe(&w, Source::Any, 7);
        assert_eq!(
            info,
            MsgInfo {
                src: 3,
                tag: 7,
                len: 42
            }
        );
        assert_eq!(mb.pending(), 1);
        let m = mb.recv(&w, Source::Of(info.src), info.tag);
        assert_eq!(m.payload.len(), 42);
    }

    #[test]
    fn blocking_recv_wakes_on_delivery() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || mb2.recv(&parking(), Source::Any, 9).payload);
        std::thread::sleep(std::time::Duration::from_millis(20));
        mb.deliver(env(4, 9, vec![99]));
        assert_eq!(h.join().unwrap(), vec![99]);
    }
}
