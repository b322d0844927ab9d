//! [`Backlog`]: the FIFO hand-off between the service and one
//! background thread, with the enqueued/done counters a flush waits on.
//!
//! The ingest lane (batches → ingest thread) and the audit lane
//! (sampled completions → audit thread) are the same mechanism: one
//! mutex over `{queue, enqueued, done, shutdown}`, a condvar that wakes
//! the consumer, and a condvar that wakes flush waiters. Both lanes
//! share this one type — and with it one flush protocol
//! ([`Backlog::wait_drained`]) and one shutdown handshake
//! ([`Backlog::shut_down`]).
//!
//! Shutdown never drops an accepted item on the floor: [`Backlog::next`]
//! keeps yielding what was accepted before the shutdown and returns
//! `None` only once the queue is empty. What a consumer *does* with an
//! item handed over during shutdown is its own policy — the ingest
//! thread still applies it (accepted appends are never silently lost),
//! the audit thread sheds it (audits never run during teardown) — so
//! the shared code does not branch on its caller.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why [`Backlog::push`] refused an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushError {
    /// `capacity` items are already queued.
    Full,
    /// The backlog was shut down; its consumer may already have exited.
    ShutDown,
}

const POISONED: &str = "backlog lock poisoned: a thread panicked while holding it";

struct State<T> {
    queue: VecDeque<T>,
    /// Items ever accepted by `push`.
    enqueued: u64,
    /// Items the consumer has finished with (`mark_done`).
    done: u64,
    shutdown: bool,
}

pub(crate) struct Backlog<T> {
    state: Mutex<State<T>>,
    /// Wakes the consumer when an item arrives (or on shutdown).
    work_cv: Condvar,
    /// Wakes `wait_drained` callers when an item finishes.
    done_cv: Condvar,
}

impl<T> Backlog<T> {
    pub(crate) fn new() -> Self {
        Backlog {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                enqueued: 0,
                done: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }
    }

    /// The one lock site. Every critical section below is a handful of
    /// counter/queue updates with no call that can panic, so the guarded
    /// state is consistent whenever the lock is free.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().expect(POISONED)
    }

    /// Accepts `item` unless `capacity` items are already queued or the
    /// backlog was shut down (the consumer may be gone, so accepting
    /// would lose the item silently).
    pub(crate) fn push(&self, item: T, capacity: usize) -> Result<(), PushError> {
        let mut state = self.lock();
        if state.shutdown {
            return Err(PushError::ShutDown);
        }
        if state.queue.len() >= capacity {
            return Err(PushError::Full);
        }
        state.enqueued += 1;
        state.queue.push_back(item);
        self.work_cv.notify_one();
        Ok(())
    }

    /// Blocks for the next item, oldest first. After [`Backlog::shut_down`]
    /// the items already accepted are still handed out; `None` means shut
    /// down *and* empty — the consumer exits.
    pub(crate) fn next(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.queue.pop_front() {
                return Some(item);
            }
            if state.shutdown {
                return None;
            }
            state = self.work_cv.wait(state).expect(POISONED);
        }
    }

    /// The consumer finished (applied, ran, rejected or shed) one item it
    /// took with [`Backlog::next`]; wakes flush waiters.
    pub(crate) fn mark_done(&self) {
        self.lock().done += 1;
        self.done_cv.notify_all();
    }

    /// Blocks until every item accepted before this call is done. Returns
    /// `false` if the backlog shut down first — the caller must not
    /// assume its items were processed.
    pub(crate) fn wait_drained(&self) -> bool {
        let mut state = self.lock();
        let target = state.enqueued;
        while state.done < target {
            if state.shutdown {
                return false;
            }
            state = self.done_cv.wait(state).expect(POISONED);
        }
        true
    }

    /// Items accepted but not yet done (queued or in the consumer's hands).
    pub(crate) fn pending(&self) -> u64 {
        let state = self.lock();
        state.enqueued - state.done
    }

    /// Whether [`Backlog::shut_down`] was called.
    pub(crate) fn is_shut_down(&self) -> bool {
        self.lock().shutdown
    }

    /// Refuses further pushes and wakes the consumer and every flush
    /// waiter. The flag is set under the lock, so a consumer between its
    /// check and its `wait` cannot miss the wakeup.
    pub(crate) fn shut_down(&self) {
        self.lock().shutdown = true;
        self.work_cv.notify_all();
        self.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;

    /// The ingest lane's shutdown mode: everything accepted before the
    /// shutdown is still handed to the consumer, in order; only then does
    /// `next` report the end. Pushes after the shutdown are refused, not
    /// queued behind a consumer that may have exited.
    #[test]
    fn shutdown_drains_accepted_items_before_the_consumer_exits() {
        let b = Backlog::new();
        for i in 0..3 {
            b.push(i, usize::MAX).unwrap();
        }
        b.shut_down();
        assert_eq!(b.push(9, usize::MAX), Err(PushError::ShutDown));
        let mut applied = Vec::new();
        while let Some(i) = b.next() {
            applied.push(i);
            b.mark_done();
        }
        assert_eq!(applied, [0, 1, 2]);
        assert_eq!(b.pending(), 0);
        assert!(b.wait_drained(), "everything accepted was applied");
    }

    /// The audit lane's shutdown mode: the consumer sees the shutdown
    /// alongside each remaining item and sheds instead of running it;
    /// every shed item still counts as done, so nothing stays pending.
    #[test]
    fn shutdown_lets_the_consumer_shed_what_is_queued() {
        let b = Backlog::new();
        for i in 0..3 {
            b.push(i, 8).unwrap();
        }
        b.shut_down();
        let (mut ran, mut shed) = (0, 0);
        while let Some(_item) = b.next() {
            if b.is_shut_down() {
                shed += 1;
            } else {
                ran += 1;
            }
            b.mark_done();
        }
        assert_eq!((ran, shed), (0, 3));
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn push_respects_capacity() {
        let b = Backlog::new();
        b.push('a', 1).unwrap();
        assert_eq!(b.push('b', 1), Err(PushError::Full));
        assert_eq!(b.next(), Some('a'));
        b.push('c', 1).unwrap();
        assert_eq!(b.pending(), 2, "'a' is taken but not done");
    }

    /// `wait_drained` sleeps on the done condvar — there is no poll
    /// interval to fall back on — and wakes on the `mark_done` that
    /// reaches its target, not on an earlier one.
    #[test]
    fn wait_drained_wakes_on_the_condvar() {
        let b = Arc::new(Backlog::new());
        b.push(1, usize::MAX).unwrap();
        b.push(2, usize::MAX).unwrap();
        let (tx, rx) = mpsc::channel();
        let waiter = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                tx.send(()).unwrap();
                b.wait_drained()
            })
        };
        rx.recv().unwrap();
        assert_eq!(b.next(), Some(1));
        b.mark_done();
        assert!(!waiter.is_finished(), "one of two items is still pending");
        assert_eq!(b.next(), Some(2));
        b.mark_done();
        assert!(waiter.join().unwrap());
    }

    /// A waiter whose items will never finish (the consumer is gone) is
    /// released by the shutdown, and told so.
    #[test]
    fn wait_drained_returns_false_on_shutdown() {
        let b = Arc::new(Backlog::new());
        b.push((), usize::MAX).unwrap();
        let waiter = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || b.wait_drained())
        };
        b.shut_down();
        assert!(!waiter.join().unwrap());
    }
}
