//! Two-sided (message-based) communication for the baseline runtimes.
//!
//! The paper attributes the poor scaling of Charm++ and X10/GLB on UTS to
//! their *two-sided* steal protocols: a steal interrupts the victim, which
//! must poll for and handle the request. [`Mailbox`] models exactly that: a
//! per-worker delivery queue where a message becomes visible only after its
//! delivery timestamp, and handling it costs receiver CPU time (charged by
//! the caller via [`crate::Machine::message_handled`]).
//!
//! A receiver with nothing to do but poll need not be stepped once per
//! poll: it can park on its mailbox ([`crate::Machine::park_on_mailbox`],
//! handing over [`Mailbox::next_delivery`]) and is resumed at the first of
//! its abandoned polls that would have received something. The mailbox
//! itself stays passive — whoever sends to a worker that may be parked
//! reports the receiver's earliest pending delivery to the machine
//! ([`crate::Machine::note_delivery`]) right after the send.

use std::collections::VecDeque;

use crate::time::VTime;
use crate::WorkerId;

/// Per-worker in-order delivery queues for messages of type `M`.
pub struct Mailbox<M> {
    queues: Vec<VecDeque<(VTime, WorkerId, M)>>,
}

impl<M> Mailbox<M> {
    pub fn new(workers: usize) -> Mailbox<M> {
        Mailbox {
            // Unallocated until a worker actually receives a message: an
            // empty VecDeque holds no heap buffer, so a 100k-worker mailbox
            // costs per-queue headers only. A VecDeque never shrinks, so
            // after warm-up each active queue is allocation-free anyway.
            queues: (0..workers).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Deposit a message for `to`, visible at `deliver_at`
    /// (= sender clock + one-way message latency).
    pub fn send(&mut self, from: WorkerId, to: WorkerId, deliver_at: VTime, msg: M) {
        let q = &mut self.queues[to];
        // Keep the queue sorted by delivery time. Messages from one sender
        // are already in order; cross-sender interleavings need the insert
        // scan, which is almost always O(1) from the back.
        let pos = q
            .iter()
            .rposition(|&(t, _, _)| t <= deliver_at)
            .map_or(0, |p| p + 1);
        q.insert(pos, (deliver_at, from, msg));
    }

    /// Pop the next message already delivered by `now`, if any.
    pub fn recv(&mut self, me: WorkerId, now: VTime) -> Option<(WorkerId, M)> {
        let q = &mut self.queues[me];
        if q.front().is_some_and(|&(t, _, _)| t <= now) {
            let (_, from, msg) = q.pop_front().expect("checked front");
            Some((from, msg))
        } else {
            None
        }
    }

    /// Earliest pending delivery time for `me` (delivered or not).
    pub fn next_delivery(&self, me: WorkerId) -> Option<VTime> {
        self.queues[me].front().map(|&(t, _, _)| t)
    }

    /// Number of messages (delivered or in flight) queued for `me`.
    pub fn pending(&self, me: WorkerId) -> usize {
        self.queues[me].len()
    }

    /// True when no message is queued anywhere (used by termination checks in
    /// tests).
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }
}

impl<M: Clone> Mailbox<M> {
    /// Deposit a message subject to a fabric-decided [`MsgFate`]: deliver
    /// once, drop it (the sender already paid the injection cost), or
    /// deliver twice with the duplicate arriving at `redeliver_at` (models a
    /// spurious NIC-level retransmit).
    pub fn send_with_fate(
        &mut self,
        from: WorkerId,
        to: WorkerId,
        deliver_at: VTime,
        redeliver_at: VTime,
        fate: crate::fault::MsgFate,
        msg: M,
    ) {
        use crate::fault::MsgFate;
        match fate {
            MsgFate::Drop => {}
            MsgFate::Deliver => self.send(from, to, deliver_at, msg),
            MsgFate::Duplicate => {
                self.send(from, to, deliver_at, msg.clone());
                self.send(from, to, redeliver_at.max(deliver_at), msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_respects_time() {
        let mut mb: Mailbox<&str> = Mailbox::new(2);
        mb.send(0, 1, VTime::ns(100), "hello");
        assert_eq!(mb.recv(1, VTime::ns(50)), None);
        assert_eq!(mb.recv(1, VTime::ns(100)), Some((0, "hello")));
        assert_eq!(mb.recv(1, VTime::ns(200)), None);
    }

    #[test]
    fn messages_sorted_by_delivery() {
        let mut mb: Mailbox<u32> = Mailbox::new(2);
        mb.send(0, 1, VTime::ns(300), 3);
        mb.send(0, 1, VTime::ns(100), 1);
        mb.send(0, 1, VTime::ns(200), 2);
        let now = VTime::ns(1000);
        assert_eq!(mb.recv(1, now), Some((0, 1)));
        assert_eq!(mb.recv(1, now), Some((0, 2)));
        assert_eq!(mb.recv(1, now), Some((0, 3)));
    }

    #[test]
    fn ties_preserve_insertion_order() {
        let mut mb: Mailbox<u32> = Mailbox::new(1);
        mb.send(0, 0, VTime::ns(5), 1);
        mb.send(0, 0, VTime::ns(5), 2);
        let now = VTime::ns(5);
        assert_eq!(mb.recv(0, now).unwrap().1, 1);
        assert_eq!(mb.recv(0, now).unwrap().1, 2);
    }

    #[test]
    fn fates_drop_deliver_duplicate() {
        use crate::fault::MsgFate;
        let mut mb: Mailbox<u32> = Mailbox::new(2);
        mb.send_with_fate(0, 1, VTime::ns(10), VTime::ns(20), MsgFate::Drop, 1);
        assert!(mb.is_empty());
        mb.send_with_fate(0, 1, VTime::ns(10), VTime::ns(20), MsgFate::Deliver, 2);
        assert_eq!(mb.pending(1), 1);
        mb.send_with_fate(0, 1, VTime::ns(30), VTime::ns(40), MsgFate::Duplicate, 3);
        assert_eq!(mb.pending(1), 3);
        let now = VTime::ns(100);
        assert_eq!(mb.recv(1, now), Some((0, 2)));
        assert_eq!(mb.recv(1, now), Some((0, 3)));
        assert_eq!(mb.recv(1, now), Some((0, 3)), "duplicate arrives later");
    }

    #[test]
    fn bookkeeping() {
        let mut mb: Mailbox<()> = Mailbox::new(2);
        assert!(mb.is_empty());
        mb.send(1, 0, VTime::ns(7), ());
        assert_eq!(mb.pending(0), 1);
        assert_eq!(mb.next_delivery(0), Some(VTime::ns(7)));
        assert_eq!(mb.next_delivery(1), None);
        assert!(!mb.is_empty());
        mb.recv(0, VTime::ns(7));
        assert!(mb.is_empty());
    }
}
