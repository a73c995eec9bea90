//! Concurrency battery for the serving layer's snapshot rotation
//! (DESIGN.md §14): N writer threads publish freshly built suites
//! while M reader threads continuously read and query, proving that
//!
//! 1. rotation never yields a **torn read** — every snapshot a reader
//!    clones answers queries exactly as one complete generation does
//!    (value and generation tag always pair up);
//! 2. reads are never **stale beyond one epoch** — a read that starts
//!    after `epoch()` returned `e` observes `generation >= e`, and any
//!    observed generation is at most one ahead of a subsequently
//!    loaded epoch;
//! 3. per-thread generations are **monotone** (a reader never travels
//!    back in time);
//! 4. every published snapshot passes the deep structural validator
//!    *while rotation is live*.
//!
//! Interleaving schedules are seeded through the vendored proptest
//! substrate, so a failing schedule reproduces from its printed seed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use structured_keyword_search::core::suite::OrpKwSuite;
use structured_keyword_search::prelude::*;
use structured_keyword_search::serve::{Request, Server, ServerConfig, SnapshotCell};

/// Builds a suite whose full-range 2-keyword answer has exactly `n`
/// hits — the per-generation fingerprint the readers verify.
fn fingerprint_suite(n: usize) -> OrpKwSuite {
    let dataset = Dataset::from_parts(
        (0..n)
            .map(|i| {
                let x = (i % 10) as f64;
                let y = (i / 10) as f64;
                (Point::new2(x, y), vec![0u32, 1])
            })
            .collect(),
    );
    OrpKwSuite::try_build(&dataset, 2).unwrap()
}

/// Full-range guarded query against a snapshot; returns the hit count.
fn count_hits(suite: &OrpKwSuite) -> usize {
    let (ids, _) = suite
        .try_query_guarded(&Rect::full(2), &[0, 1], &QueryGuard::new())
        .unwrap();
    ids.len()
}

/// The writer/reader stress at one seeded schedule. Writers publish
/// suites with distinct fingerprints and record generation → expected
/// count under a mutex held across the publish, so readers can always
/// resolve what a generation must answer.
fn rotation_stress(seed: u64, writers: usize, publishes: usize, readers: usize, reads: usize) {
    let cell = Arc::new(SnapshotCell::new(fingerprint_suite(10)));
    let expected = Arc::new(Mutex::new(HashMap::from([(1u64, 10usize)])));
    let done = Arc::new(AtomicBool::new(false));

    let reader_handles: Vec<_> = (0..readers)
        .map(|r| {
            let cell = Arc::clone(&cell);
            let expected = Arc::clone(&expected);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut last_generation = 0u64;
                let mut performed = 0usize;
                while performed < reads && !(done.load(Ordering::Acquire) && performed > 0) {
                    let e0 = cell.epoch();
                    let snap = cell.current();
                    let e1 = cell.epoch();
                    // Bounded staleness, both directions.
                    assert!(
                        snap.generation >= e0,
                        "reader {r}: read starting at epoch {e0} got stale generation {}",
                        snap.generation
                    );
                    assert!(
                        snap.generation <= e1 + 1,
                        "reader {r}: generation {} is ahead of epoch {e1} by more than the \
                         in-flight rotation",
                        snap.generation
                    );
                    // Monotonicity per reader.
                    assert!(
                        snap.generation >= last_generation,
                        "reader {r}: generation went backwards ({last_generation} -> {})",
                        snap.generation
                    );
                    last_generation = snap.generation;
                    // Torn-read check: the snapshot must answer exactly
                    // as the generation it claims to be.
                    let want = *expected
                        .lock()
                        .unwrap()
                        .get(&snap.generation)
                        .unwrap_or_else(|| panic!("generation {} never recorded", snap.generation));
                    assert_eq!(
                        count_hits(&snap.value),
                        want,
                        "reader {r}: torn read at generation {}",
                        snap.generation
                    );
                    // Deep structural validation of the served snapshot
                    // (every 8th read: it walks the whole index).
                    if performed.is_multiple_of(8) {
                        snap.value
                            .validate()
                            .unwrap_or_else(|v| panic!("served snapshot corrupt: {v}"));
                    }
                    performed += 1;
                }
            })
        })
        .collect();

    let writer_handles: Vec<_> = (0..writers)
        .map(|w| {
            let cell = Arc::clone(&cell);
            let expected = Arc::clone(&expected);
            let mut rng = StdRng::seed_from_u64(seed ^ (w as u64).wrapping_mul(0x9e37_79b9));
            std::thread::spawn(move || {
                for _ in 0..publishes {
                    let n = 10 + rng.gen_range(0..8) * 10;
                    let suite = fingerprint_suite(n);
                    // Holding the map lock across the publish makes the
                    // generation → fingerprint record visible before
                    // any reader can observe the new snapshot.
                    let mut map = expected.lock().unwrap();
                    let generation = cell.publish(suite);
                    map.insert(generation, n);
                    drop(map);
                    if rng.gen_bool(0.3) {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();

    for h in writer_handles {
        h.join().unwrap();
    }
    done.store(true, Ordering::Release);
    for h in reader_handles {
        h.join().unwrap();
    }

    // Quiescent end state: epoch covers every publish, and the final
    // snapshot matches its record.
    let final_epoch = cell.epoch();
    assert_eq!(final_epoch as usize, 1 + writers * publishes);
    let snap = cell.current();
    assert_eq!(snap.generation, final_epoch);
    assert_eq!(
        count_hits(&snap.value),
        expected.lock().unwrap()[&final_epoch]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Seeded interleaving schedules for the N-writer/M-reader stress.
    #[test]
    fn rotation_never_tears_or_goes_stale(seed in 0u64..u64::MAX) {
        rotation_stress(seed, 2, 5, 4, 120);
    }
}

/// One fixed schedule that always runs, independent of the proptest
/// sweep (and cheap enough for the 100-consecutive-runs criterion).
#[test]
fn rotation_stress_fixed_schedule() {
    rotation_stress(0xC0FF_EE00, 3, 4, 3, 100);
}

/// The same contract end-to-end through a [`Server`]: queries running
/// while a publisher rotates snapshots always see one complete
/// generation, and replies tag the generation that served them.
#[test]
fn server_rotation_under_live_queries() {
    let expected = Arc::new(Mutex::new(HashMap::from([(1u64, 10usize)])));
    let server = Arc::new(Server::start(
        fingerprint_suite(10),
        ServerConfig {
            workers: 4,
            queue_capacity: 256,
        },
    ));

    let publisher = {
        let expected = Arc::clone(&expected);
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            for g in 0..8usize {
                let n = 10 + (g % 5) * 10;
                let suite = fingerprint_suite(n);
                let mut map = expected.lock().unwrap();
                let generation = server.publish(suite);
                map.insert(generation, n);
                drop(map);
                std::thread::yield_now();
            }
        })
    };

    let clients: Vec<_> = (0..3)
        .map(|_| {
            let expected = Arc::clone(&expected);
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                for _ in 0..60 {
                    let reply = server
                        .query(Request::new(Rect::full(2), vec![0, 1]))
                        .expect("rotation must never fail a query");
                    let want = *expected
                        .lock()
                        .unwrap()
                        .get(&reply.generation)
                        .unwrap_or_else(|| {
                            panic!("reply from unrecorded generation {}", reply.generation)
                        });
                    assert_eq!(
                        reply.ids.len(),
                        want,
                        "torn reply at generation {}",
                        reply.generation
                    );
                }
            })
        })
        .collect();

    publisher.join().unwrap();
    for c in clients {
        c.join().unwrap();
    }
    assert_eq!(server.epoch(), 9);
    // The post-rotation server still serves the newest generation.
    let reply = server
        .query(Request::new(Rect::full(2), vec![0, 1]))
        .unwrap();
    assert_eq!(reply.generation, 9);
    server.shutdown();
}

/// Old generations stay fully usable while new ones are being served:
/// a long-running request's snapshot is never invalidated mid-flight.
#[test]
fn inflight_snapshot_survives_rotation() {
    let cell = SnapshotCell::new(fingerprint_suite(30));
    let held = cell.current();
    for g in 0..5usize {
        cell.publish(fingerprint_suite(10 + g));
    }
    assert_eq!(held.generation, 1);
    assert_eq!(count_hits(&held.value), 30);
    assert_eq!(cell.epoch(), 6);
}
