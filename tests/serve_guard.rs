//! Guard semantics under serving load (DESIGN.md §14): deadlines,
//! cancellation, and result budgets flowing through [`Server`]'s
//! admission control; queue-full shedding as typed
//! [`SkqError::Overloaded`]; and — with `--features failpoints` —
//! poisoned-worker isolation and respawn.
//!
//! Counter assertions use *deltas with `>=`*: the `skq-obs` registry
//! is process-global and the test harness runs files in parallel.
//!
//! Every server here passes the `serve::request` / `serve::worker`
//! fail-point sites, so each test holds the fail-point lock: shared for
//! the tests that only drive the sites, exclusive for the battery that
//! arms them. An injected fault never fires in a test that did not arm
//! it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use structured_keyword_search::core::suite::OrpKwSuite;
use structured_keyword_search::prelude::*;
use structured_keyword_search::serve::{Request, Server, ServerConfig};

fn suite(n: usize) -> OrpKwSuite {
    let dataset = Dataset::from_parts(
        (0..n)
            .map(|i| {
                let x = (i % 20) as f64;
                let y = (i / 20) as f64;
                (Point::new2(x, y), vec![0u32, 1])
            })
            .collect(),
    );
    OrpKwSuite::try_build(&dataset, 2).unwrap()
}

fn counter(name: &str) -> u64 {
    skq_obs::global().counter(name, &[]).get()
}

/// Keeps a test that starts a server off the sites the fail-point
/// battery arms (a no-op without the `failpoints` feature).
#[cfg(feature = "failpoints")]
fn isolated() -> impl Sized {
    structured_keyword_search::core::failpoints::shared()
}

#[cfg(not(feature = "failpoints"))]
fn isolated() -> impl Sized {}

/// An already-lapsed deadline is shed by admission control with the
/// typed error, and the dedicated deadline counter fires.
#[test]
fn lapsed_deadline_is_shed_with_typed_error() {
    let _fp = isolated();
    let server = Server::start(suite(200), ServerConfig::default());
    let before = counter("skq_query_deadline_exceeded");
    let mut shed = 0;
    for _ in 0..8 {
        let mut req = Request::new(Rect::full(2), vec![0, 1]);
        req.deadline = Some(Duration::ZERO);
        match server.query(req) {
            Err(SkqError::DeadlineExceeded) => shed += 1,
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
    assert_eq!(shed, 8);
    assert!(
        counter("skq_query_deadline_exceeded") >= before + 8,
        "deadline counter must fire for every shed request"
    );
    // The pool is unharmed: a request with headroom still succeeds.
    let reply = server
        .query(Request::new(Rect::full(2), vec![0, 1]))
        .unwrap();
    assert_eq!(reply.ids.len(), 200);
    server.shutdown();
}

/// A pre-cancelled token sheds deterministically with `Cancelled`.
#[test]
fn cancelled_token_sheds_with_typed_error() {
    let _fp = isolated();
    let server = Server::start(suite(100), ServerConfig::default());
    let before = counter("skq_query_cancelled");
    let token = CancelToken::new();
    token.cancel();
    let mut req = Request::new(Rect::full(2), vec![0, 1]);
    req.cancel = Some(token);
    let err = server.query(req).unwrap_err();
    assert!(matches!(err, SkqError::Cancelled), "{err}");
    assert!(counter("skq_query_cancelled") > before);
    server.shutdown();
}

/// A result budget truncates successfully — the client asked for at
/// most that many — rather than erroring.
#[test]
fn result_budget_truncates_without_error() {
    let _fp = isolated();
    let server = Server::start(suite(200), ServerConfig::default());
    let mut req = Request::new(Rect::full(2), vec![0, 1]);
    req.max_results = Some(25);
    let reply = server.query(req).unwrap();
    assert_eq!(reply.ids.len(), 25);
    assert_eq!(reply.stats.truncated_reason, Some(TruncatedReason::Limit));
    server.shutdown();
}

/// A zero-capacity queue rejects every submission with the typed
/// overload error before any worker is involved.
#[test]
fn saturated_queue_sheds_with_overloaded() {
    let _fp = isolated();
    let server = Server::start(
        suite(100),
        ServerConfig {
            workers: 1,
            queue_capacity: 0,
        },
    );
    let shed = skq_obs::global().counter("skq_serve_shed_total", &[("reason", "overloaded")]);
    let before_shed = shed.get();
    for _ in 0..5 {
        let err = server
            .submit(Request::new(Rect::full(2), vec![0, 1]))
            .unwrap_err();
        assert!(
            matches!(err, SkqError::Overloaded { queue_depth: 0 }),
            "{err}"
        );
    }
    assert!(shed.get() >= before_shed + 5);
    server.shutdown();
}

/// Saturating a tiny pool with deadline-carrying work: everything
/// resolves (success, deadline, or overload — never a hang or a
/// panic), and the pool still serves cleanly afterwards.
#[test]
fn pool_saturation_resolves_every_request() {
    let _fp = isolated();
    let server = Arc::new(Server::start(
        suite(400),
        ServerConfig {
            workers: 2,
            queue_capacity: 16,
        },
    ));
    let resolved = Arc::new(AtomicUsize::new(0));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let server = Arc::clone(&server);
            let resolved = Arc::clone(&resolved);
            std::thread::spawn(move || {
                for i in 0..50 {
                    let mut req = Request::new(Rect::full(2), vec![0, 1]);
                    // A mix of hopeless, tight, and generous deadlines.
                    req.deadline = Some(match i % 3 {
                        0 => Duration::ZERO,
                        1 => Duration::from_micros(200),
                        _ => Duration::from_secs(30),
                    });
                    match server.query(req) {
                        Ok(reply) => assert_eq!(reply.ids.len(), 400),
                        Err(
                            SkqError::DeadlineExceeded
                            | SkqError::Cancelled
                            | SkqError::Overloaded { .. },
                        ) => {}
                        Err(other) => panic!("unexpected failure under load: {other}"),
                    }
                    resolved.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    assert_eq!(resolved.load(Ordering::Relaxed), 200);
    let reply = server
        .query(Request::new(Rect::full(2), vec![0, 1]))
        .unwrap();
    assert_eq!(reply.ids.len(), 400);
    server.shutdown();
}

/// Malformed requests come back typed, not as panics, even under a
/// worker pool.
#[test]
fn invalid_queries_stay_typed_under_load() {
    let _fp = isolated();
    let server = Server::start(suite(50), ServerConfig::default());
    for wrong_dim in [1usize, 3, 5] {
        let err = server
            .query(Request::new(Rect::full(wrong_dim), vec![0, 1]))
            .unwrap_err();
        assert!(matches!(err, SkqError::InvalidQuery(_)), "{err}");
    }
    server.shutdown();
}

/// Fail-point battery: worker poisoning and request-level injections.
/// Each test holds the exclusive fail-point lock and arms sites through
/// guards that disarm them on drop, even when an assertion fails.
#[cfg(feature = "failpoints")]
mod failpoint_battery {
    use super::*;
    use structured_keyword_search::core::failpoints::{self, FailAction};

    /// A poisoned worker (panic between pop and reply) loses exactly
    /// the jobs it was holding, is respawned, and the pool keeps
    /// serving.
    #[test]
    fn poisoned_worker_is_isolated_and_respawned() {
        let _serial = failpoints::exclusive();
        let server = Server::start(
            suite(100),
            ServerConfig {
                workers: 2,
                queue_capacity: 32,
            },
        );
        let respawns_before = counter("skq_serve_worker_respawns_total");

        let armed = failpoints::inject("serve::worker", FailAction::Panic, Some(3));
        let mut lost = 0;
        let mut served = 0;
        for _ in 0..12 {
            match server.query(Request::new(Rect::full(2), vec![0, 1])) {
                Ok(reply) => {
                    assert_eq!(reply.ids.len(), 100);
                    served += 1;
                }
                Err(SkqError::Internal(msg)) => {
                    assert!(msg.contains("worker lost"), "{msg}");
                    lost += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert_eq!(lost, 3, "exactly the injected panics lose their job");
        assert_eq!(served, 9);
        // The caller learns its job was lost while the worker is still
        // unwinding; the supervisor counts the respawn once the unwind
        // ends, so give the last one a moment to land.
        let respawned = || counter("skq_serve_worker_respawns_total") >= respawns_before + 3;
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !respawned() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(respawned(), "every poisoned worker must be respawned");

        // Disarmed, the pool serves at full strength.
        drop(armed);
        for _ in 0..4 {
            let reply = server
                .query(Request::new(Rect::full(2), vec![0, 1]))
                .unwrap();
            assert_eq!(reply.ids.len(), 100);
        }
        server.shutdown();
    }

    /// A request-level injected `Err` surfaces typed and leaves the
    /// worker alive (no respawn, no panic counter).
    #[test]
    fn injected_request_error_spares_the_worker() {
        let _serial = failpoints::exclusive();
        let server = Server::start(
            suite(100),
            ServerConfig {
                workers: 1,
                queue_capacity: 32,
            },
        );
        let respawns_before = counter("skq_serve_worker_respawns_total");

        let _armed = failpoints::inject("serve::request", FailAction::Err, Some(2));
        for _ in 0..2 {
            let err = server
                .query(Request::new(Rect::full(2), vec![0, 1]))
                .unwrap_err();
            assert!(matches!(err, SkqError::Internal(_)), "{err}");
            assert!(err.to_string().contains("serve::request"), "{err}");
        }
        // The single worker survived: it still answers, with no
        // respawn recorded.
        let reply = server
            .query(Request::new(Rect::full(2), vec![0, 1]))
            .unwrap();
        assert_eq!(reply.ids.len(), 100);
        assert_eq!(
            counter("skq_serve_worker_respawns_total"),
            respawns_before,
            "an injected Err must not kill the worker"
        );
        server.shutdown();
    }

    /// A request-level injected *panic* is contained by the per-request
    /// isolation: the caller gets a typed error, the panic counter
    /// fires, and the same worker keeps serving (no respawn).
    #[test]
    fn injected_request_panic_is_contained() {
        let _serial = failpoints::exclusive();
        let server = Server::start(
            suite(100),
            ServerConfig {
                workers: 1,
                queue_capacity: 32,
            },
        );
        let panics_before = counter("skq_serve_worker_panics_total");
        let respawns_before = counter("skq_serve_worker_respawns_total");

        let _armed = failpoints::inject("serve::request", FailAction::Panic, Some(1));
        let err = server
            .query(Request::new(Rect::full(2), vec![0, 1]))
            .unwrap_err();
        assert!(matches!(err, SkqError::Internal(_)), "{err}");
        assert!(counter("skq_serve_worker_panics_total") > panics_before);
        assert_eq!(counter("skq_serve_worker_respawns_total"), respawns_before);

        let reply = server
            .query(Request::new(Rect::full(2), vec![0, 1]))
            .unwrap();
        assert_eq!(reply.ids.len(), 100);
        server.shutdown();
    }
}
