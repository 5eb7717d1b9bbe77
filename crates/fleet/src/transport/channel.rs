//! The report channel from pool workers to the committer: many senders, one
//! receiver, unbounded, over one `Mutex<VecDeque>` and a `Condvar`. A send
//! wakes the receiver only when it is asleep.
//!
//! `std::sync::mpsc` has the same shape, but it measured slower on the
//! 6000-tenant work-stealing fleet (README, "Hermetic builds").

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
    receiver_asleep: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> Shared<T> {
    /// Every critical section is a single push, pop or counter update, so
    /// the state is valid even if a holder panicked: poison is ignored,
    /// which also keeps the `Drop` impls from panicking.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Why [`Receiver::try_recv`] returned nothing.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum TryRecvError {
    /// Nothing is queued, but a sender is still alive.
    Empty,
    /// Nothing is queued, and every sender is gone.
    Disconnected,
}

pub(super) struct Sender<T>(Arc<Shared<T>>);

pub(super) struct Receiver<T>(Arc<Shared<T>>);

pub(super) fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receiver_alive: true,
            receiver_asleep: false,
        }),
        ready: Condvar::new(),
    });
    (Sender(Arc::clone(&shared)), Receiver(shared))
}

impl<T> Sender<T> {
    /// Queues `message`, or hands it back if the receiver is gone.
    pub(super) fn send(&self, message: T) -> Result<(), T> {
        let mut state = self.0.lock();
        if !state.receiver_alive {
            return Err(message);
        }
        state.queue.push_back(message);
        let wake = state.receiver_asleep;
        drop(state);
        if wake {
            self.0.ready.notify_one();
        }
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.senders -= 1;
        let last = state.senders == 0;
        drop(state);
        if last {
            self.0.ready.notify_one();
        }
    }
}

impl<T> Receiver<T> {
    /// The oldest queued message, waiting for one; `None` once nothing is
    /// queued and every sender is gone.
    pub(super) fn recv(&self) -> Option<T> {
        let mut state = self.0.lock();
        loop {
            if let Some(message) = state.queue.pop_front() {
                return Some(message);
            }
            if state.senders == 0 {
                return None;
            }
            state.receiver_asleep = true;
            state = self
                .0
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.receiver_asleep = false;
        }
    }

    /// The oldest queued message, without waiting.
    pub(super) fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.0.lock();
        match state.queue.pop_front() {
            Some(message) => Ok(message),
            None if state.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.0.lock().receiver_alive = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_message_arrives_once_in_per_sender_order() {
        let (tx, rx) = channel::<(usize, usize)>();
        let received = std::thread::scope(|scope| {
            for sender in 0..4 {
                let tx = tx.clone();
                scope.spawn(move || {
                    for seq in 0..500 {
                        assert!(tx.send((sender, seq)).is_ok(), "receiver alive");
                    }
                });
            }
            drop(tx);
            // The receiver blocks whenever it outruns the senders, and
            // returns `None` only after the last of them is gone.
            std::iter::from_fn(|| rx.recv()).collect::<Vec<_>>()
        });
        assert_eq!(received.len(), 4 * 500);
        for sender in 0..4 {
            let sequence: Vec<usize> = received
                .iter()
                .filter(|&&(from, _)| from == sender)
                .map(|&(_, seq)| seq)
                .collect();
            assert_eq!(sequence, (0..500).collect::<Vec<_>>());
        }
    }

    #[test]
    fn try_recv_tells_empty_from_disconnected() {
        let (tx, rx) = channel::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert!(tx.send(7).is_ok());
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(7), "queued messages outlive the senders");
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn send_hands_the_message_back_once_the_receiver_is_gone() {
        let (tx, rx) = channel::<u8>();
        drop(rx);
        assert_eq!(tx.send(3), Err(3));
    }
}
