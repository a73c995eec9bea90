//! Chaos tests (`cargo test --features failpoints`): every registered
//! fail point, when armed, must surface as a typed `Err` — never an
//! uncaught panic — and disarming it must leave every index able to
//! build and answer correctly.
//!
//! The fail-point registry is process-global, so every test holds the
//! exclusive fail-point lock and arms sites through guards that disarm
//! them on drop.

#![cfg(feature = "failpoints")]

use std::sync::atomic::{AtomicUsize, Ordering};

use structured_keyword_search::core::dynamic::DynamicOrpKw;
use structured_keyword_search::core::failpoints::{self, FailAction};
use structured_keyword_search::core::guard::QueryGuard;
use structured_keyword_search::core::suite::OrpKwSuite;
use structured_keyword_search::prelude::*;
use structured_keyword_search::serve::{Request, Server, ServerConfig};
use structured_keyword_search::store::{CheckpointPolicy, DurabilityConfig, DurableDynamic};

/// An injected failure must never leave a structurally corrupt index
/// behind: the deep validator runs after every rollback.
macro_rules! deep_validate {
    ($index:expr) => {{
        $index
            .validate()
            .unwrap_or_else(|v| panic!("deep invariant violated: {v}"));
    }};
}

fn dataset() -> Dataset {
    // Integer coordinates so every problem module (including L2NN-KW's
    // integer-coordinate requirement) accepts the same data.
    Dataset::from_parts(
        (0..256)
            .map(|i| {
                let x = (i % 16) as f64;
                let y = (i / 16) as f64;
                (Point::new2(x, y), vec![0u32, 1, 2 + (i % 3) as u32])
            })
            .collect(),
    )
}

/// Drives the public build entry point matching a fail-point site.
/// Returns the build outcome as `Result<(), SkqError>`.
fn drive(site: &str, d: &Dataset) -> Result<(), SkqError> {
    let rects: Vec<(Rect, Vec<Keyword>)> = (0..64)
        .map(|i| {
            let x = (i % 8) as f64;
            (
                Rect::new(&[x, x], &[x + 1.0, x + 2.0]),
                vec![0u32, 1, 2 + (i % 3) as u32],
            )
        })
        .collect();
    let docs: Vec<Document> = (0..64)
        .map(|i| Document::new(vec![0u32, 1, 2 + (i % 3) as u32]))
        .collect();
    match site {
        "orp::build" | "framework::build" => OrpKwIndex::try_build(d, 2).map(|_| ()),
        "rr::build" => RrKwIndex::try_build(&rects, 2).map(|_| ()),
        "nn_linf::build" => LinfNnIndex::try_build(d, 2).map(|_| ()),
        "nn_l2::build" => L2NnIndex::try_build(d, 2).map(|_| ()),
        "lc::build" => LcKwIndex::try_build(d, 2).map(|_| ()),
        "sp::build" => SpKwIndex::try_build(d, 2).map(|_| ()),
        "srp::build" => SrpKwIndex::try_build(d, 2).map(|_| ()),
        "ksi::build" => KsiIndex::try_build(docs.as_slice(), 2).map(|_| ()),
        "dynamic::build_block" => {
            let mut dynamic = DynamicOrpKw::new(2, 2);
            // 128 inserts fill the buffer; the 128th triggers the first
            // block build, which hits the armed fail point.
            for i in 0..128u32 {
                dynamic.try_insert(Point::new2((i % 16) as f64, (i / 16) as f64), vec![0, 1])?;
            }
            Ok(())
        }
        "store::wal_append" | "store::fsync" | "store::checkpoint" => {
            // The durability sites fire inside a `DurableDynamic`'s op
            // path: the default `SyncPolicy::Always` makes the first
            // insert hit both the append and its fsync, and the
            // explicit cut hits the checkpoint site. A fresh directory
            // per call keeps the disarmed recovery re-run clean.
            static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "skq-chaos-durable-{}-{}",
                std::process::id(),
                NEXT_DIR.fetch_add(1, Ordering::Relaxed)
            ));
            let config = DurabilityConfig {
                checkpoint: CheckpointPolicy {
                    every_ops: u64::MAX,
                    every_bytes: u64::MAX,
                },
                ..DurabilityConfig::default()
            };
            let result = (|| {
                let (mut durable, _report) = DurableDynamic::open(&dir, 2, config)?;
                for i in 0..4u32 {
                    durable.insert(Point::new2(i as f64, 0.0), vec![0, 1])?;
                }
                durable.checkpoint()
            })();
            let _ = std::fs::remove_dir_all(&dir);
            result
        }
        "store::read_page" => {
            // The site fires in the page-walk decoder: encode a small
            // suite, then load it back through the armed reader.
            use structured_keyword_search::store::Persist;
            let suite = OrpKwSuite::try_build(d, 2).unwrap();
            let bytes = suite.to_bytes()?;
            OrpKwSuite::try_load(&bytes).map(|_| ())
        }
        "serve::request" | "serve::worker" => {
            let server = Server::start(
                OrpKwSuite::try_build(d, 2).unwrap(),
                ServerConfig {
                    workers: 1,
                    queue_capacity: 8,
                },
            );
            let result = server
                .query(Request::new(Rect::full(2), vec![0, 1]))
                .map(|_| ());
            server.shutdown();
            result
        }
        other => panic!("no driver for fail-point site {other}"),
    }
}

#[test]
fn every_site_surfaces_as_typed_error_and_recovers() {
    let _serial = failpoints::exclusive();
    let d = dataset();
    for &site in failpoints::SITES {
        let armed = failpoints::inject(site, FailAction::Err, None);
        let err = match drive(site, &d) {
            Err(e) => e,
            Ok(()) => panic!("site {site}: armed fail point did not surface"),
        };
        // Build sites return the injected Internal error verbatim.
        match site {
            // The worker-level fail point becomes a panic between pop
            // and reply: the job dies with the unwind (the supervisor
            // respawns the worker), so the caller sees the
            // worker-lost error rather than the site name.
            "serve::worker" => {
                assert!(matches!(err, SkqError::Internal(_)), "{site}: {err}");
                assert!(err.to_string().contains("worker lost"), "{site}: {err}");
            }
            _ => {
                assert!(matches!(err, SkqError::Internal(_)), "{site}: {err}");
                assert!(err.to_string().contains(site), "{site}: {err}");
            }
        }
        drop(armed);
        drive(site, &d).unwrap_or_else(|e| panic!("site {site} did not recover: {e}"));
    }
}

#[test]
fn injected_failure_does_not_poison_a_dynamic_index() {
    let _serial = failpoints::exclusive();
    let mut dynamic = DynamicOrpKw::new(2, 2);
    let mut expected = Vec::new();
    for i in 0..127u32 {
        let h = dynamic
            .try_insert(Point::new2((i % 16) as f64, (i / 16) as f64), vec![0, 1])
            .unwrap();
        expected.push(h);
    }
    // The 128th insert triggers the first block build — inject there.
    let armed = failpoints::inject("dynamic::build_block", FailAction::Err, None);
    let err = dynamic
        .try_insert(Point::new2(0.0, 0.0), vec![0, 1])
        .unwrap_err();
    assert!(matches!(err, SkqError::Internal(_)), "{err}");
    // The failed insert rolled back: the index still answers exactly
    // the pre-failure contents, and its bookkeeping is intact.
    deep_validate!(dynamic);
    let mut got = dynamic
        .query(&Rect::full(2), &[0, 1], &QueryGuard::new())
        .unwrap()
        .0;
    got.sort();
    assert_eq!(got, expected);
    // Disarmed, the same insert succeeds and the index stays correct.
    drop(armed);
    let h = dynamic
        .try_insert(Point::new2(0.0, 0.0), vec![0, 1])
        .unwrap();
    expected.push(h);
    deep_validate!(dynamic);
    let mut got = dynamic
        .query(&Rect::full(2), &[0, 1], &QueryGuard::new())
        .unwrap()
        .0;
    got.sort();
    assert_eq!(got, expected);
}
