//! The worker pool: request admission, guarded execution against the
//! current snapshot, panic isolation, and supervised respawn.
//!
//! A [`Server`] owns a [`SnapshotCell`] of the suite, a
//! [`JobQueue`] of jobs, and N worker threads. The request path is
//! (DESIGN.md §14):
//!
//! 1. [`Server::submit`] builds a [`skq_core::QueryGuard`] at arrival
//!    time (so a deadline covers queue wait, not just execution) and
//!    enqueues a job, or sheds it with
//!    [`SkqError::Overloaded`] when the queue is full.
//! 2. A worker pops the job, re-checks the guard (admission control: a
//!    request whose deadline lapsed while queued is shed without
//!    touching the index), clones the current snapshot `Arc`, and runs
//!    the query under `catch_unwind` so one poisonous request cannot
//!    take the worker down.
//! 3. The typed outcome travels back over a one-slot channel
//!    (`sync_channel(1)`), so the worker's send never blocks; the
//!    caller collects it from the returned [`Pending`]. Its
//!    [`wait`](Pending::wait) polls the channel, yielding, for at most
//!    [`SPIN_BUDGET`] before it blocks, so a reply that lands within
//!    the budget costs no wake-up on either side: the channel's send
//!    wakes only a receiver that is already blocked. Only a caller
//!    whose job found the queue empty polls: its reply is one query
//!    away. A job queued behind others blocks at once, so a crowd of
//!    waiters does not poll the workers off the CPUs.
//!
//! Worker threads themselves run under a supervisor: a panic that
//! escapes the request isolation (e.g. the `serve::worker` fail point)
//! is caught and the serve loop re-entered, bumping
//! `skq_serve_worker_respawns_total` — the pool never shrinks.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use skq_core::failpoints;
use skq_core::suite::OrpKwSuite;
use skq_core::{CancelToken, QueryGuard, QueryStats, SkqError};
use skq_geom::Rect;
use skq_invidx::Keyword;

use crate::queue::{poll_for, JobQueue, SPIN_BUDGET};
use crate::snapshot::{SnapshotCell, Versioned};

/// Sizing knobs for a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads. 0 is clamped to 1: a pool with no worker would
    /// never answer.
    pub workers: usize,
    /// Job-queue capacity; a full queue sheds new requests with
    /// [`SkqError::Overloaded`]. 0 rejects every request.
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            // The machine's parallelism, or 1 where the platform
            // cannot report it.
            workers: std::thread::available_parallelism().map_or(1, usize::from),
            queue_capacity: 1024,
        }
    }
}

/// One query request: a rectangle, keywords, and optional per-request
/// limits.
#[derive(Clone)]
pub struct Request {
    /// The geometric predicate.
    pub rect: Rect,
    /// The keyword conjunction (any count the suite routes).
    pub keywords: Vec<Keyword>,
    /// Deadline measured from submission; `None` runs unbounded.
    pub deadline: Option<Duration>,
    /// Result budget; `None` returns every match.
    pub max_results: Option<usize>,
    /// Cooperative cancellation (keep a clone to trip it mid-flight).
    pub cancel: Option<CancelToken>,
}

impl Request {
    /// A request with no per-request limits.
    pub fn new(rect: Rect, keywords: Vec<Keyword>) -> Self {
        Self {
            rect,
            keywords,
            deadline: None,
            max_results: None,
            cancel: None,
        }
    }
}

/// A successful answer.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Matching object ids, sorted.
    pub ids: Vec<u32>,
    /// Execution statistics from the suite traversal.
    pub stats: QueryStats,
    /// The snapshot generation that served this request — lets a
    /// client correlate answers with rotations.
    pub generation: u64,
}

/// A submitted request's handle; redeem it with
/// [`wait`](Pending::wait).
#[derive(Debug)]
pub struct Pending {
    rx: Receiver<Result<Reply, SkqError>>,
    /// Whether `wait` polls before it blocks: the job found the queue
    /// empty.
    poll: bool,
}

impl Pending {
    /// Waits until the worker replies. If the job found the queue
    /// empty, first polls for the reply, yielding, for at most
    /// [`SPIN_BUDGET`]; then blocks.
    ///
    /// # Errors
    ///
    /// Whatever the worker produced ([`SkqError::DeadlineExceeded`],
    /// [`SkqError::Cancelled`], [`SkqError::InvalidQuery`], …), or
    /// [`SkqError::Internal`] if the worker died before replying (its
    /// send half was dropped mid-panic).
    pub fn wait(self) -> Result<Reply, SkqError> {
        // `Some(None)`: the sender is gone without a reply.
        let polled = if self.poll {
            poll_for(SPIN_BUDGET, || match self.rx.try_recv() {
                Err(TryRecvError::Empty) => None,
                outcome => Some(outcome.ok()),
            })
        } else {
            None
        };
        polled
            .unwrap_or_else(|| self.rx.recv().ok())
            .unwrap_or_else(|| Err(SkqError::Internal("worker lost before replying".into())))
    }
}

struct Job {
    rect: Rect,
    keywords: Vec<Keyword>,
    guard: QueryGuard,
    enqueued: Instant,
    respond: SyncSender<Result<Reply, SkqError>>,
}

struct Shared {
    snapshots: SnapshotCell<OrpKwSuite>,
    queue: JobQueue<Job>,
    shutdown: AtomicBool,
}

/// A running worker pool serving guarded queries against a rotating
/// suite snapshot. Dropping the server shuts it down (draining the
/// queue first).
pub struct Server {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
}

impl Server {
    /// Builds the pool and starts its worker threads, serving `suite`
    /// as generation 1.
    pub fn start(suite: OrpKwSuite, config: ServerConfig) -> Self {
        let worker_count = config.workers.max(1);
        let shared = Arc::new(Shared {
            snapshots: SnapshotCell::new(suite),
            queue: JobQueue::new(config.queue_capacity),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || supervisor(&shared))
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(workers),
            worker_count,
        }
    }

    /// Enqueues a request. The returned [`Pending`] resolves when a
    /// worker has executed (or shed) it.
    ///
    /// # Errors
    ///
    /// * [`SkqError::Overloaded`] — the job queue is at capacity; the
    ///   request was shed without queueing (admission control).
    /// * [`SkqError::Internal`] — the server is shut down.
    pub fn submit(&self, req: Request) -> Result<Pending, SkqError> {
        if self.shared.queue.is_closed() {
            return Err(SkqError::Internal("server is shut down".into()));
        }
        // Build the guard now: its deadline clock starts at arrival,
        // so time spent queued counts against the budget.
        let mut guard = QueryGuard::new();
        if let Some(d) = req.deadline {
            guard = guard.with_deadline(d);
        }
        if let Some(n) = req.max_results {
            guard = guard.with_max_results(n);
        }
        if let Some(token) = req.cancel {
            guard = guard.with_cancel(token);
        }
        let (tx, rx) = sync_channel(1);
        let job = Job {
            rect: req.rect,
            keywords: req.keywords,
            guard,
            enqueued: Instant::now(),
            respond: tx,
        };
        let registry = skq_obs::global();
        match self.shared.queue.try_push(job) {
            Ok(depth) => {
                registry
                    .gauge("skq_serve_queue_depth", &[])
                    .set(depth as f64);
                Ok(Pending {
                    rx,
                    poll: depth == 1,
                })
            }
            Err((_, queue_depth)) => {
                registry
                    .counter("skq_serve_shed_total", &[("reason", "overloaded")])
                    .inc();
                registry
                    .counter("skq_serve_requests_total", &[("status", "overloaded")])
                    .inc();
                Err(SkqError::Overloaded { queue_depth })
            }
        }
    }

    /// Submits and waits: the blocking convenience wrapper over
    /// [`submit`](Self::submit) + [`Pending::wait`].
    ///
    /// # Errors
    ///
    /// Everything [`submit`](Self::submit) and [`Pending::wait`] can
    /// return.
    pub fn query(&self, req: Request) -> Result<Reply, SkqError> {
        self.submit(req)?.wait()
    }

    /// Publishes a freshly built suite as the next snapshot generation
    /// (returned). In-flight requests keep the generation they
    /// started on; no reader blocks for longer than an `Arc` clone.
    pub fn publish(&self, suite: OrpKwSuite) -> u64 {
        self.shared.snapshots.publish(suite)
    }

    /// The latest fully published snapshot generation.
    pub fn epoch(&self) -> u64 {
        self.shared.snapshots.epoch()
    }

    /// Clones the current snapshot, exactly as a worker would (used by
    /// the rotation tests to validate what's being served).
    pub fn snapshot(&self) -> Arc<Versioned<OrpKwSuite>> {
        self.shared.snapshots.current()
    }

    /// Number of worker threads in the pool.
    pub fn worker_count(&self) -> usize {
        self.worker_count
    }

    /// Stops accepting requests, drains the queue, and joins every
    /// worker. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.queue.close();
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        for handle in workers.drain(..) {
            drop(handle.join());
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Keeps one worker slot alive: re-enters the serve loop whenever a
/// panic escapes the per-request isolation, so the pool's width is
/// invariant under poisonous jobs.
fn supervisor(shared: &Shared) {
    loop {
        if catch_unwind(AssertUnwindSafe(|| serve_loop(shared))).is_ok() {
            // Clean exit: the queue is closed and drained.
            return;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        skq_obs::global()
            .counter("skq_serve_worker_respawns_total", &[])
            .inc();
    }
}

fn serve_loop(shared: &Shared) {
    while let Some((job, depth)) = shared.queue.pop() {
        skq_obs::global()
            .gauge("skq_serve_queue_depth", &[])
            .set(depth as f64);
        // Chaos-only: an armed worker-level fail point must become a
        // real panic so the supervisor's respawn path is the thing
        // tested (the popped job dies with the unwind, exactly like a
        // worker crash between pop and reply).
        #[allow(clippy::disallowed_macros)]
        if let Err(e) = failpoints::check("serve::worker") {
            panic!("{e}"); // skq-lint: allow(L01) chaos injection; caught by the worker supervisor
        }
        process(shared, job);
    }
}

fn process(shared: &Shared, job: Job) {
    let span = skq_obs::Span::enter("serve.request");
    let registry = skq_obs::global();
    registry
        .histogram("skq_serve_queue_wait_microseconds", &[])
        .observe(job.enqueued.elapsed().as_micros() as u64);
    let outcome = run_request(shared, &job);
    let status = match &outcome {
        Ok(_) => "ok",
        Err(e) => e.kind(),
    };
    registry
        .counter("skq_serve_requests_total", &[("status", status)])
        .inc();
    registry
        .histogram("skq_serve_request_latency_microseconds", &[])
        .observe(job.enqueued.elapsed().as_micros() as u64);
    drop(span);
    // The caller may have dropped its `Pending`; a dead letter is fine.
    drop(job.respond.send(outcome));
}

fn run_request(shared: &Shared, job: &Job) -> Result<Reply, SkqError> {
    // Admission control: a deadline that lapsed (or a cancellation
    // that arrived) while the job sat queued sheds it before any index
    // work. The same counters the guarded sink would bump fire here,
    // so dashboards see one consistent signal for guard trips.
    if let Err(e) = job.guard.check() {
        let registry = skq_obs::global();
        match &e {
            SkqError::DeadlineExceeded => {
                registry.counter("skq_query_deadline_exceeded", &[]).inc();
            }
            SkqError::Cancelled => {
                registry.counter("skq_query_cancelled", &[]).inc();
            }
            _ => {}
        }
        registry
            .counter("skq_serve_shed_total", &[("reason", e.kind())])
            .inc();
        return Err(e);
    }
    let snap = shared.snapshots.current();
    match catch_unwind(AssertUnwindSafe(|| execute(&snap, job))) {
        Ok(outcome) => outcome,
        Err(_) => {
            skq_obs::global()
                .counter("skq_serve_worker_panics_total", &[])
                .inc();
            Err(SkqError::Internal("request execution panicked".into()))
        }
    }
}

fn execute(snap: &Versioned<OrpKwSuite>, job: &Job) -> Result<Reply, SkqError> {
    failpoints::check("serve::request")?;
    let (ids, stats) = snap
        .value
        .try_query_guarded(&job.rect, &job.keywords, &job.guard)?;
    Ok(Reply {
        ids,
        stats,
        generation: snap.generation,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]

    use super::*;
    use skq_core::query::KwQuery;
    use skq_workload::scenarios;

    fn small_server(workers: usize) -> Server {
        let dataset = scenarios::city(300, 11);
        Server::start(
            OrpKwSuite::try_build(&dataset, 2).unwrap(),
            ServerConfig {
                workers,
                queue_capacity: 64,
            },
        )
    }

    /// A [`Pending`] fed by a test-held sender, standing in for a
    /// worker; `poll` as if its job found the queue empty.
    fn pending(poll: bool) -> (SyncSender<Result<Reply, SkqError>>, Pending) {
        let (tx, rx) = sync_channel(1);
        (tx, Pending { rx, poll })
    }

    fn reply() -> Result<Reply, SkqError> {
        Ok(Reply {
            ids: vec![3, 5, 8],
            stats: QueryStats::default(),
            generation: 4,
        })
    }

    /// Well past [`SPIN_BUDGET`], so a reply or drop this late finds
    /// the waiter blocked in `recv`.
    const AFTER_THE_SPIN: Duration = Duration::from_millis(5);

    fn assert_reply(outcome: Result<Reply, SkqError>) {
        let got = outcome.unwrap();
        assert_eq!((got.ids, got.generation), (vec![3, 5, 8], 4));
    }

    fn assert_worker_lost(outcome: Result<Reply, SkqError>) {
        let err = outcome.unwrap_err();
        assert!(matches!(err, SkqError::Internal(_)), "{err}");
    }

    /// Runs `act` on the sender, `delay` after `wait` may have started,
    /// and returns what `wait` gave back.
    fn wait_with(
        poll: bool,
        delay: Duration,
        act: impl FnOnce(SyncSender<Result<Reply, SkqError>>) + Send + 'static,
    ) -> Result<Reply, SkqError> {
        let (tx, pending) = pending(poll);
        let worker = std::thread::spawn(move || {
            std::thread::sleep(delay);
            act(tx);
        });
        let outcome = pending.wait();
        worker.join().unwrap();
        outcome
    }

    fn send_reply(tx: SyncSender<Result<Reply, SkqError>>) {
        tx.send(reply()).unwrap();
    }

    #[test]
    fn wait_takes_a_reply_sent_before_it() {
        for poll in [true, false] {
            let (tx, pending) = pending(poll);
            send_reply(tx);
            assert_reply(pending.wait());
        }
    }

    #[test]
    fn wait_takes_a_reply_sent_after_the_spin() {
        for poll in [true, false] {
            assert_reply(wait_with(poll, AFTER_THE_SPIN, send_reply));
        }
    }

    #[test]
    fn wait_reports_a_sender_dropped_before_it() {
        for poll in [true, false] {
            let (tx, pending) = pending(poll);
            drop(tx);
            assert_worker_lost(pending.wait());
        }
    }

    #[test]
    fn wait_reports_a_sender_dropped_after_the_spin() {
        for poll in [true, false] {
            assert_worker_lost(wait_with(poll, AFTER_THE_SPIN, drop));
        }
    }

    #[test]
    fn serves_a_query_and_matches_direct_execution() {
        let dataset = scenarios::city(300, 11);
        let suite = OrpKwSuite::try_build(&dataset, 2).unwrap();
        // Replies are sorted (the guarded path sorts before returning);
        // the direct query emits in traversal order.
        let mut expected = suite.query(&Rect::full(2), &[0, 1]).unwrap();
        expected.sort_unstable();
        let server = Server::start(suite, ServerConfig::default());
        let reply = server
            .query(Request::new(Rect::full(2), vec![0, 1]))
            .unwrap();
        assert_eq!(reply.ids, expected);
        assert_eq!(reply.generation, 1);
        server.shutdown();
    }

    #[test]
    fn invalid_query_comes_back_typed() {
        let server = small_server(2);
        let err = server
            .query(Request::new(Rect::full(3), vec![0, 1]))
            .unwrap_err();
        assert!(matches!(err, SkqError::InvalidQuery(_)), "{err}");
    }

    #[test]
    fn shutdown_rejects_new_requests() {
        let server = small_server(1);
        server.shutdown();
        let err = server
            .query(Request::new(Rect::full(2), vec![0, 1]))
            .unwrap_err();
        assert!(matches!(err, SkqError::Internal(_)), "{err}");
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let server = small_server(0);
        assert_eq!(server.worker_count(), 1);
        let reply = server
            .query(Request::new(Rect::full(2), vec![0, 1]))
            .unwrap();
        assert_eq!(reply.generation, 1);
    }

    #[test]
    fn publish_bumps_the_served_generation() {
        let dataset = scenarios::city(300, 11);
        let server = Server::start(
            OrpKwSuite::try_build(&dataset, 2).unwrap(),
            ServerConfig::default(),
        );
        assert_eq!(
            server.publish(OrpKwSuite::try_build(&dataset, 2).unwrap()),
            2
        );
        let reply = server
            .query(Request::new(Rect::full(2), vec![0, 1]))
            .unwrap();
        assert_eq!(reply.generation, 2);
    }
}
