//! A bounded job queue whose wake-ups cannot be lost.
//!
//! One `Mutex<VecDeque>` holds the jobs, the count of parked consumers
//! and whether a consumer is spinning; one `Condvar` wakes consumers.
//! The closed flag is set and checked under the same lock (an atomic
//! so that [`JobQueue::is_closed`] and a spinning consumer can read it
//! without locking).
//!
//! A consumer that finds the queue empty first tries to become *the*
//! spinner: at most one consumer spins at a time, and it claims the
//! role under the lock. The spinner drops the lock and polls an atomic
//! mirror of the queue length (written only under the lock) and the
//! closed flag, calling [`std::thread::yield_now`] between polls, for
//! at most [`SPIN_BUDGET`] (`poll_for`, the crate's one spin loop).
//! It then re-locks, gives up the role and re-checks the queue, and
//! parks only if it is still empty. A parked consumer registers as
//! parked in the same critical section as its check, and the wait
//! releases the lock atomically, so a push can never slip between the
//! check and the park.
//!
//! The wake rule: a push notifies one parked consumer, except when a
//! spinner will take the job — the push left a single job queued and a
//! consumer is spinning. A push that leaves two or more jobs queued
//! wakes a parked consumer even while one spins, so a burst is not
//! serialised behind the spinner. A busy queue, whose consumers never
//! park, makes no wake-up call at all.
//!
//! Why spin at all: waking a parked thread costs a futex wake and, on
//! a host that halts idle CPUs, an inter-processor interrupt and a
//! halt exit — tens of microseconds, more than the query it carries.
//! The cost: after the queue empties, one core polls for at most
//! [`SPIN_BUDGET`]. It yields between polls, so a worker that has work
//! on the same core is not starved.
//!
//! Capacity is checked under the same lock, so the queue never holds
//! more than `capacity` jobs — the precondition the serving layer's
//! admission control ([`SkqError::Overloaded`](skq_core::SkqError))
//! relies on. [`JobQueue::try_push`] and [`JobQueue::pop`] report the
//! depth they saw under that lock, so no depth counter lives outside it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How long an idle consumer polls for work, and a caller for its
/// reply, before it parks. An order of magnitude above one parked
/// wake-up (tens of microseconds when the host halts idle CPUs), so a
/// job or reply that arrives within it skips the wake-up, while an idle
/// thread stops polling after a fifth of a millisecond.
pub const SPIN_BUDGET: Duration = Duration::from_micros(200);

/// Calls `poll` until it returns `Some`, for at most `budget`, calling
/// [`std::thread::yield_now`] between calls; `None` once the budget ran
/// out. `poll` runs at least once, so a zero budget is one poll.
///
/// This is the crate's one spin loop: an idle consumer polls the queue
/// with it ([`JobQueue::pop`]), and a caller polls for its reply with
/// it ([`Pending::wait`](crate::Pending::wait)). It must yield, not
/// spin with [`std::hint::spin_loop`]: a poller that shares a CPU with
/// the thread it waits for would otherwise starve that thread.
pub(crate) fn poll_for<R>(budget: Duration, mut poll: impl FnMut() -> Option<R>) -> Option<R> {
    let start = Instant::now();
    loop {
        if let Some(found) = poll() {
            return Some(found);
        }
        if start.elapsed() >= budget {
            return None;
        }
        std::thread::yield_now();
    }
}

struct State<T> {
    jobs: VecDeque<T>,
    /// Consumers inside `pop`'s wait.
    parked: usize,
    /// Whether a consumer is polling in [`JobQueue::spin`].
    spinning: bool,
}

/// A bounded multi-producer multi-consumer FIFO queue. See the module
/// docs for the design.
pub struct JobQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    /// `state.jobs.len()`, stored only while holding `state`'s lock;
    /// read without it only by the spinner.
    len: AtomicUsize,
    /// Stored only while holding `state`'s lock.
    closed: AtomicBool,
    capacity: usize,
    /// [`SPIN_BUDGET`], except in tests that need a spin to outlast
    /// their set-up.
    spin_budget: Duration,
    /// Wake-up calls made by `try_push`.
    #[cfg(test)]
    notified: AtomicUsize,
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
                spinning: false,
            }),
            available: Condvar::new(),
            len: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            capacity,
            spin_budget: SPIN_BUDGET,
            #[cfg(test)]
            notified: AtomicUsize::new(0),
        }
    }

    /// A queue whose consumers spin for `spin_budget` instead of
    /// [`SPIN_BUDGET`].
    #[cfg(test)]
    fn with_spin_budget(capacity: usize, spin_budget: Duration) -> Self {
        Self {
            spin_budget,
            ..Self::new(capacity)
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
            // relaxed: a hint for the spinner, which re-locks and
            // re-checks the deque before it takes anything.
            self.len.store(depth + 1, Ordering::Relaxed);
            // A spinner takes a lone job itself; a second queued job
            // needs a parked consumer as well.
            let spinner_takes_it = state.spinning && depth == 0;
            (depth + 1, state.parked > 0 && !spinner_takes_it)
        };
        if wake {
            #[cfg(test)]
            self.notified.fetch_add(1, Ordering::Relaxed); // relaxed: a test-only tally
            self.available.notify_one();
        }
        Ok(depth)
    }

    /// Dequeues the oldest job with the depth left behind it, blocking
    /// while the queue is open but empty. Returns `None` once the queue
    /// is closed **and** drained — the worker's signal to exit.
    pub fn pop(&self) -> Option<(T, usize)> {
        let mut state = self.lock();
        // False once a spin ran out of budget, until a wake-up.
        let mut may_spin = true;
        loop {
            if let Some(item) = state.jobs.pop_front() {
                let depth = state.jobs.len();
                // relaxed: as in `try_push`.
                self.len.store(depth, Ordering::Relaxed);
                return Some((item, depth));
            }
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            if may_spin && !state.spinning {
                state.spinning = true;
                drop(state);
                may_spin = self.spin();
                state = self.lock();
                // Given up under the lock, before the re-check: a push
                // that saw the spinner and skipped its wake-up left a
                // job this re-check finds.
                state.spinning = false;
                continue;
            }
            state.parked += 1;
            state = self
                .available
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.parked -= 1;
            may_spin = true;
        }
    }

    /// Polls for a queued job or the closed flag, without the lock, for
    /// at most the spin budget. Returns whether either showed up.
    fn spin(&self) -> bool {
        poll_for(self.spin_budget, || {
            // relaxed: as in `try_push`.
            (self.len.load(Ordering::Relaxed) > 0 || self.closed.load(Ordering::Acquire))
                .then_some(())
        })
        .is_some()
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
    use std::sync::mpsc;
    use std::sync::Arc;

    /// A spin budget no test outlasts, so a consumer is still spinning
    /// when the test acts.
    const LONG_SPIN: Duration = Duration::from_secs(30);
    /// How long a test waits for something that should happen at once.
    const PATIENCE: Duration = Duration::from_secs(5);

    /// Waits until `q` has a spinner (or none) and `parked` parked
    /// consumers.
    fn wait_until_idle<T>(q: &JobQueue<T>, spinning: bool, parked: usize) {
        let deadline = Instant::now() + PATIENCE;
        loop {
            let state = q.lock();
            if state.spinning == spinning && state.parked == parked {
                return;
            }
            drop(state);
            assert!(Instant::now() < deadline, "consumers never went idle");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn poll_for_returns_the_first_some() {
        let mut calls = 0;
        let found = poll_for(LONG_SPIN, || {
            calls += 1;
            (calls == 3).then_some(calls * 10)
        });
        assert_eq!((found, calls), (Some(30), 3));
    }

    #[test]
    fn poll_for_gives_up_after_its_budget() {
        let mut calls = 0;
        let found: Option<()> = poll_for(Duration::from_millis(2), || {
            calls += 1;
            None
        });
        assert_eq!(found, None);
        assert!(calls >= 1, "poll_for never polled");
        // A zero budget still polls once.
        assert_eq!(poll_for(Duration::ZERO, || Some(7)), Some(7));
    }

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

    /// One consumer spins and the other parks: a lone job goes to the
    /// spinner, and the push makes no wake-up call.
    #[test]
    fn a_lone_job_goes_to_the_spinner_without_a_wake_up() {
        let q = Arc::new(JobQueue::with_spin_budget(8, LONG_SPIN));
        let (tx, rx) = mpsc::channel();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let (q, tx) = (Arc::clone(&q), tx.clone());
                std::thread::spawn(move || tx.send(q.pop()).unwrap())
            })
            .collect();
        wait_until_idle(&q, true, 1);
        assert_eq!(q.try_push(7), Ok(1));
        assert_eq!(rx.recv_timeout(PATIENCE), Ok(Some((7, 0))));
        assert_eq!(q.notified.load(Ordering::Relaxed), 0);
        q.close();
        assert_eq!(rx.recv_timeout(PATIENCE), Ok(None));
        for consumer in consumers {
            consumer.join().unwrap();
        }
        assert!(!q.lock().spinning, "the spinner kept its role");
    }

    /// With no spin budget every idle pop claims the spinner role and
    /// gives it up at once, so pushes keep landing between a spin and
    /// the re-check after it. A push that skipped its wake-up for the
    /// spinner must still reach it.
    #[test]
    fn a_push_at_the_end_of_a_spin_is_never_lost() {
        const TRIPS: u32 = 100_000;
        let q = Arc::new(JobQueue::with_spin_budget(1, Duration::ZERO));
        let (tx, rx) = mpsc::channel();
        let echo = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                while let Some((i, _)) = q.pop() {
                    tx.send(i).unwrap();
                }
            })
        };
        for i in 0..TRIPS {
            q.try_push(i).unwrap();
            assert_eq!(rx.recv_timeout(PATIENCE), Ok(i), "trip {i} was lost");
        }
        q.close();
        echo.join().unwrap();
    }

    #[test]
    fn close_ends_a_spin_promptly() {
        let q = Arc::new(JobQueue::<u32>::with_spin_budget(8, LONG_SPIN));
        let (tx, rx) = mpsc::channel();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || tx.send(q.pop()).unwrap())
        };
        wait_until_idle(&q, true, 0);
        q.close();
        assert_eq!(rx.recv_timeout(PATIENCE), Ok(None));
        consumer.join().unwrap();
        assert!(!q.lock().spinning, "the spinner kept its role");
    }

    /// One consumer spins and the other parks. Each holds the job it
    /// gets until the other has one too, so a queue that left the
    /// second job of a burst to the spinner fails here instead of
    /// hanging.
    #[test]
    fn a_burst_reaches_the_parked_consumer_beside_the_spinner() {
        let q = Arc::new(JobQueue::with_spin_budget(8, LONG_SPIN));
        let (got_tx, got_rx) = mpsc::channel();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let (q, got_tx) = (Arc::clone(&q), got_tx.clone());
                let (release_tx, release_rx) = mpsc::channel::<()>();
                let consumer = std::thread::spawn(move || {
                    got_tx.send(q.pop()).unwrap();
                    release_rx.recv_timeout(PATIENCE).is_ok()
                });
                (consumer, release_tx)
            })
            .collect();
        wait_until_idle(&q, true, 1);
        assert_eq!(q.try_push(1), Ok(1));
        assert!(q.try_push(2).is_ok());
        let mut jobs: Vec<u32> = (0..2)
            .map(|_| {
                let job = got_rx.recv_timeout(PATIENCE);
                job.expect("each consumer gets a job")
                    .expect("the queue is open")
                    .0
            })
            .collect();
        for (_, release) in &consumers {
            release.send(()).unwrap();
        }
        for (consumer, _) in consumers {
            assert!(consumer.join().unwrap(), "a consumer was not released");
        }
        jobs.sort_unstable();
        assert_eq!(jobs, [1, 2]);
        assert!(!q.lock().spinning, "the spinner kept its role");
    }
}
