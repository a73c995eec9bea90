//! The worker pool: request admission, guarded execution against the
//! current snapshot, panic isolation, and supervised respawn.
//!
//! A [`Server`] owns a [`SnapshotCell`] of the suite, a
//! [`ShardedQueue`] of jobs, and N worker threads. The request path is
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
//! 3. The typed outcome travels back over a rendezvous channel; the
//!    caller collects it from the returned [`Pending`].
//!
//! Worker threads themselves run under a supervisor: a panic that
//! escapes the request isolation (e.g. the `serve::worker` fail point)
//! is caught and the serve loop re-entered, bumping
//! `skq_serve_worker_respawns_total` — the pool never shrinks.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use skq_core::concurrency::{available_threads, effective_threads};
use skq_core::failpoints;
use skq_core::query::KwQuery;
use skq_core::sink::CountSink;
use skq_core::suite::OrpKwSuite;
use skq_core::{CancelToken, QueryGuard, QueryStats, SkqError};
use skq_geom::Rect;
use skq_invidx::Keyword;

use crate::queue::ShardedQueue;
use crate::snapshot::{SnapshotCell, Versioned};

/// The brownout ladder: graceful degradation levels entered *before*
/// admission control starts shedding with [`SkqError::Overloaded`].
///
/// As the queue fills past `limited_depth` of capacity, new requests
/// get their result budget clamped to `limited_results` ("limited");
/// past `count_only_depth` they are answered with a count and no
/// result ids at all ("count_only") — the cheapest honest answer the
/// suite can produce. Each reply says which rung served it via
/// [`Reply::degraded`], so clients can distinguish a short answer
/// from a small one.
#[derive(Clone, Copy, Debug)]
pub struct BrownoutConfig {
    /// Queue-depth fraction (of capacity) past which requests run with
    /// a clamped result budget.
    pub limited_depth: f64,
    /// Queue-depth fraction past which requests are answered
    /// count-only.
    pub count_only_depth: f64,
    /// The clamped result budget at the "limited" rung.
    pub limited_results: usize,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        Self {
            limited_depth: 0.5,
            count_only_depth: 0.85,
            limited_results: 128,
        }
    }
}

/// Sizing and default-limit knobs for a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads (0 is clamped to 1 by
    /// [`effective_threads`]).
    pub workers: usize,
    /// Job-queue capacity; a full queue sheds new requests with
    /// [`SkqError::Overloaded`]. 0 rejects every request.
    pub queue_capacity: usize,
    /// Queue stripes; 0 means one per worker.
    pub queue_stripes: usize,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline: Option<Duration>,
    /// Result budget applied to requests that don't carry their own.
    pub default_max_results: Option<usize>,
    /// Graceful-degradation ladder; `None` (the default) goes straight
    /// from full service to shedding.
    pub brownout: Option<BrownoutConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: available_threads(),
            queue_capacity: 1024,
            queue_stripes: 0,
            default_deadline: None,
            default_max_results: None,
            brownout: None,
        }
    }
}

/// One query request: a rectangle, keywords, and optional per-request
/// limits overriding the server defaults.
#[derive(Clone)]
pub struct Request {
    /// The geometric predicate.
    pub rect: Rect,
    /// The keyword conjunction (any count the suite routes).
    pub keywords: Vec<Keyword>,
    /// Deadline measured from submission; `None` uses the server
    /// default.
    pub deadline: Option<Duration>,
    /// Result budget; `None` uses the server default.
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
    /// Which brownout rung served this request: `None` for full
    /// service, `Some("limited")` for a clamped result budget,
    /// `Some("count_only")` for a count with no ids (`stats.emitted`
    /// carries the count).
    pub degraded: Option<&'static str>,
}

/// A submitted request's handle; redeem it with
/// [`wait`](Pending::wait).
#[derive(Debug)]
pub struct Pending {
    rx: Receiver<Result<Reply, SkqError>>,
}

impl Pending {
    /// Blocks until the worker replies.
    ///
    /// # Errors
    ///
    /// Whatever the worker produced ([`SkqError::DeadlineExceeded`],
    /// [`SkqError::Cancelled`], [`SkqError::InvalidQuery`], …), or
    /// [`SkqError::Internal`] if the worker died before replying (its
    /// send half was dropped mid-panic).
    pub fn wait(self) -> Result<Reply, SkqError> {
        self.rx
            .recv()
            .unwrap_or_else(|_| Err(SkqError::Internal("worker lost before replying".into())))
    }
}

struct Job {
    rect: Rect,
    keywords: Vec<Keyword>,
    guard: QueryGuard,
    /// Brownout rung assigned at admission (see [`BrownoutConfig`]).
    degraded: Option<&'static str>,
    enqueued: Instant,
    respond: SyncSender<Result<Reply, SkqError>>,
}

struct Shared {
    snapshots: SnapshotCell<OrpKwSuite>,
    queue: ShardedQueue<Job>,
    shutdown: AtomicBool,
    config: ServerConfig,
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
        let worker_count = effective_threads(config.workers);
        let stripes = if config.queue_stripes == 0 {
            worker_count
        } else {
            config.queue_stripes
        };
        let shared = Arc::new(Shared {
            snapshots: SnapshotCell::new(suite),
            queue: ShardedQueue::new(stripes, config.queue_capacity),
            shutdown: AtomicBool::new(false),
            config,
        });
        let workers = (0..worker_count)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || supervisor(&shared, worker))
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
        // Brownout: pick the degradation rung from the queue depth
        // observed at admission, before shedding would kick in.
        let degraded = self.shared.config.brownout.as_ref().and_then(|b| {
            let frac =
                self.shared.queue.len() as f64 / (self.shared.config.queue_capacity.max(1)) as f64;
            if frac >= b.count_only_depth {
                Some("count_only")
            } else if frac >= b.limited_depth {
                Some("limited")
            } else {
                None
            }
        });
        if let Some(level) = degraded {
            skq_obs::global()
                .counter("skq_serve_brownout_total", &[("level", level)])
                .inc();
        }
        // Build the guard now: its deadline clock starts at arrival,
        // so time spent queued counts against the budget.
        let mut guard = QueryGuard::new();
        if let Some(d) = req.deadline.or(self.shared.config.default_deadline) {
            guard = guard.with_deadline(d);
        }
        let mut max_results = req.max_results.or(self.shared.config.default_max_results);
        if degraded == Some("limited") {
            let clamp = self
                .shared
                .config
                .brownout
                .map_or(usize::MAX, |b| b.limited_results);
            max_results = Some(max_results.map_or(clamp, |n| n.min(clamp)));
        }
        if let Some(n) = max_results {
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
            degraded,
            enqueued: Instant::now(),
            respond: tx,
        };
        let registry = skq_obs::global();
        if self.shared.queue.try_push(job).is_err() {
            let queue_depth = self.shared.queue.len();
            registry
                .counter("skq_serve_shed_total", &[("reason", "overloaded")])
                .inc();
            registry
                .counter("skq_serve_requests_total", &[("status", "overloaded")])
                .inc();
            return Err(SkqError::Overloaded { queue_depth });
        }
        registry
            .gauge("skq_serve_queue_depth", &[])
            .set(self.shared.queue.len() as f64);
        Ok(Pending { rx })
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

    /// Decodes a persisted snapshot (the `skq-store` paged format,
    /// DESIGN.md §15) and publishes it as the next generation — a warm
    /// restart: a saved suite rotates in without a rebuild and without
    /// the server holding both the bytes and the decode result for
    /// longer than the load itself.
    ///
    /// # Errors
    ///
    /// Everything [`OrpKwSuite::try_load`] can return —
    /// [`SkqError::Corrupted`] on malformed bytes, [`SkqError::Store`]
    /// on an incompatible writer. On error nothing is published; the
    /// current generation keeps serving.
    pub fn publish_loaded(&self, bytes: &[u8]) -> Result<u64, SkqError> {
        let suite = OrpKwSuite::try_load(bytes)?;
        Ok(self.publish(suite))
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

    /// Jobs currently queued (racy by nature).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
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
fn supervisor(shared: &Shared, worker: usize) {
    loop {
        if catch_unwind(AssertUnwindSafe(|| serve_loop(shared, worker))).is_ok() {
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

fn serve_loop(shared: &Shared, worker: usize) {
    while let Some(job) = shared.queue.pop(worker) {
        skq_obs::global()
            .gauge("skq_serve_queue_depth", &[])
            .set(shared.queue.len() as f64);
        // Chaos-only: an armed worker-level fail point must become a
        // real panic so the supervisor's respawn path is the thing
        // tested (the popped job dies with the unwind, exactly like a
        // worker crash between pop and reply).
        #[allow(clippy::disallowed_macros)]
        if let Err(e) = failpoints::check("serve::worker") {
            panic!("{e}");
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
    if job.degraded == Some("count_only") {
        return execute_count_only(snap, job);
    }
    let (ids, stats) = snap
        .value
        .try_query_guarded(&job.rect, &job.keywords, &job.guard)?;
    Ok(Reply {
        ids,
        stats,
        generation: snap.generation,
        degraded: job.degraded,
    })
}

/// The deepest brownout rung: answer with a guarded count and no
/// result ids. `stats.emitted` carries the count; deadline and
/// cancellation still produce their typed errors so a browned-out
/// request is cheap, not unbounded.
fn execute_count_only(snap: &Versioned<OrpKwSuite>, job: &Job) -> Result<Reply, SkqError> {
    let mut stats = QueryStats::default();
    let _ = snap.value.run(
        &job.rect,
        &job.keywords,
        &job.guard,
        &mut CountSink::new(),
        &mut stats,
    )?;
    Ok(Reply {
        ids: Vec::new(),
        stats,
        generation: snap.generation,
        degraded: job.degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skq_workload::scenarios;

    fn small_server(workers: usize) -> Server {
        let dataset = scenarios::city(300, 11);
        Server::start(
            OrpKwSuite::build(&dataset, 2),
            ServerConfig {
                workers,
                queue_capacity: 64,
                ..ServerConfig::default()
            },
        )
    }

    #[test]
    fn serves_a_query_and_matches_direct_execution() {
        let dataset = scenarios::city(300, 11);
        let suite = OrpKwSuite::build(&dataset, 2);
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
    fn brownout_count_only_answers_with_a_count() {
        let dataset = scenarios::city(300, 11);
        let suite = OrpKwSuite::build(&dataset, 2);
        let mut expected = suite.query(&Rect::full(2), &[0, 1]).unwrap();
        expected.sort_unstable();
        // Depth thresholds of 0 put every request on the deepest rung,
        // making the ladder deterministic under test.
        let server = Server::start(
            OrpKwSuite::build(&dataset, 2),
            ServerConfig {
                brownout: Some(BrownoutConfig {
                    limited_depth: 0.0,
                    count_only_depth: 0.0,
                    limited_results: 8,
                }),
                ..ServerConfig::default()
            },
        );
        let reply = server
            .query(Request::new(Rect::full(2), vec![0, 1]))
            .unwrap();
        assert_eq!(reply.degraded, Some("count_only"));
        assert!(reply.ids.is_empty());
        assert_eq!(reply.stats.emitted, expected.len() as u64);
    }

    #[test]
    fn brownout_limited_clamps_the_result_budget() {
        let dataset = scenarios::city(300, 11);
        let server = Server::start(
            OrpKwSuite::build(&dataset, 2),
            ServerConfig {
                brownout: Some(BrownoutConfig {
                    limited_depth: 0.0,
                    count_only_depth: 2.0,
                    limited_results: 3,
                }),
                ..ServerConfig::default()
            },
        );
        let reply = server
            .query(Request::new(Rect::full(2), vec![0, 1]))
            .unwrap();
        assert_eq!(reply.degraded, Some("limited"));
        assert!(reply.ids.len() <= 3);
    }

    #[test]
    fn publish_bumps_the_served_generation() {
        let dataset = scenarios::city(300, 11);
        let server = Server::start(OrpKwSuite::build(&dataset, 2), ServerConfig::default());
        assert_eq!(server.publish(OrpKwSuite::build(&dataset, 2)), 2);
        let reply = server
            .query(Request::new(Rect::full(2), vec![0, 1]))
            .unwrap();
        assert_eq!(reply.generation, 2);
    }
}
