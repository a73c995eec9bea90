//! A bounded job queue whose wake-ups cannot be lost.
//!
//! One `Mutex<VecDeque>` holds the jobs and the count of parked
//! consumers; one `Condvar` wakes consumers. The closed flag is set
//! and checked under the same lock (an atomic only so that
//! [`JobQueue::is_closed`] can read it without locking). A consumer
//! re-checks "a job is queued, or the queue is closed" under the lock
//! before every wait, and registers as parked in the same critical
//! section; the wait releases the lock atomically, so a push can never
//! slip between the check and the park. A push that finds a parked
//! consumer notifies one after it enqueues (a busy queue, whose
//! consumers never park, skips the wake-up call). Idle workers
//! therefore sleep untimed and wake exactly when work arrives.
//!
//! Capacity is checked under the same lock, so the queue never holds
//! more than `capacity` jobs — the precondition the serving layer's
//! admission control ([`SkqError::Overloaded`](skq_core::SkqError))
//! relies on. [`JobQueue::try_push`] and [`JobQueue::pop`] report the
//! depth they saw under that lock, so no depth counter lives outside it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

struct State<T> {
    jobs: VecDeque<T>,
    /// Consumers inside `pop`'s wait.
    parked: usize,
}

/// A bounded multi-producer multi-consumer FIFO queue. See the module
/// docs for the design.
pub struct JobQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    /// Stored only while holding `state`'s lock.
    closed: AtomicBool,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// A queue holding at most `capacity` jobs. A capacity of 0 is
    /// legal and rejects every push — useful for forcing the overload
    /// path in tests.
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                parked: 0,
            }),
            available: Condvar::new(),
            closed: AtomicBool::new(false),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues `item` and returns the queue depth after the push, or
    /// hands it back if the queue is full or closed. Never blocks
    /// beyond the queue lock.
    ///
    /// # Errors
    ///
    /// Returns `Err((item, depth))` when the queue already holds
    /// `capacity` jobs, or after [`close`](Self::close).
    pub fn try_push(&self, item: T) -> Result<usize, (T, usize)> {
        let (depth, wake) = {
            let mut state = self.lock();
            let depth = state.jobs.len();
            if self.closed.load(Ordering::Acquire) || depth >= self.capacity {
                return Err((item, depth));
            }
            state.jobs.push_back(item);
            (depth + 1, state.parked > 0)
        };
        if wake {
            self.available.notify_one();
        }
        Ok(depth)
    }

    /// Dequeues the oldest job with the depth left behind it, blocking
    /// while the queue is open but empty. Returns `None` once the queue
    /// is closed **and** drained — the worker's signal to exit.
    pub fn pop(&self) -> Option<(T, usize)> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.jobs.pop_front() {
                return Some((item, state.jobs.len()));
            }
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            state.parked += 1;
            state = self
                .available
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.parked -= 1;
        }
    }

    /// Closes the queue: future pushes fail, and consumers drain the
    /// backlog then observe `None`. Idempotent.
    pub fn close(&self) {
        {
            // Under the lock: a consumer between its check and its wait
            // cannot miss the flag.
            let _state = self.lock();
            self.closed.store(true, Ordering::Release);
        }
        self.available.notify_all();
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]

    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn fifo_order() {
        let q = JobQueue::new(16);
        for i in 0..5 {
            assert_eq!(q.try_push(i), Ok(i + 1));
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some((i, 4 - i)));
        }
    }

    #[test]
    fn capacity_is_a_hard_limit() {
        let q = JobQueue::new(3);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert!(q.try_push(3).is_ok());
        assert_eq!(q.try_push(4), Err((4, 3)));
        let _ = q.pop();
        assert_eq!(q.try_push(4), Ok(3));
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let q = JobQueue::new(0);
        assert_eq!(q.try_push(9), Err((9, 0)));
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = JobQueue::new(8);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.try_push(3), Err((3, 2)));
        assert_eq!((q.pop(), q.pop()), (Some((1, 1)), Some((2, 0))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_every_parked_consumer() {
        let q = Arc::new(JobQueue::<u32>::new(8));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        for c in consumers {
            assert_eq!(c.join().unwrap(), None);
        }
    }

    /// Each trip parks the consumer on an empty queue before the push
    /// that wakes it. A queue that could lose the wake-up would need a
    /// timed re-scan to recover (a 2 ms park costs 2 s over the 1 000
    /// trips); an untimed wait must finish far below.
    #[test]
    fn ping_pong_handoffs_never_wait_for_a_timeout() {
        const TRIPS: u32 = 1_000;
        let ping = Arc::new(JobQueue::new(1));
        let pong = Arc::new(JobQueue::new(1));
        let echo = {
            let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
            std::thread::spawn(move || {
                while let Some((i, _)) = ping.pop() {
                    pong.try_push(i).unwrap();
                }
            })
        };
        let start = Instant::now();
        for i in 0..TRIPS {
            // Give the echo thread time to park on the empty queue.
            std::thread::sleep(Duration::from_micros(50));
            ping.try_push(i).unwrap();
            assert_eq!(pong.pop(), Some((i, 0)));
        }
        let elapsed = start.elapsed();
        ping.close();
        echo.join().unwrap();
        assert!(
            elapsed < Duration::from_millis(1_500),
            "{TRIPS} hand-offs took {elapsed:?}"
        );
    }

    #[test]
    fn concurrent_producers_and_consumers_preserve_every_job() {
        let q = Arc::new(JobQueue::new(1024));
        let total = 1000u32;
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..(total / 4) {
                        let mut item = p * (total / 4) + i;
                        loop {
                            match q.try_push(item) {
                                Ok(_) => break,
                                Err((back, _)) => item = back,
                            }
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    while let Some((item, _)) = q.pop() {
                        seen.push(item);
                    }
                    seen
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..total).collect::<Vec<_>>());
    }
}
