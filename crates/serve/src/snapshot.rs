//! Epoch-based snapshot rotation without unsafe code.
//!
//! The classic lock-free way to publish a new immutable snapshot is an
//! arc-swap: an `AtomicPtr` the publisher CAS-es and readers load. That
//! needs `unsafe` to reconstruct the `Arc` from the raw pointer, and
//! this workspace forbids unsafe code (lint L09 / workspace `deny`).
//! [`SnapshotCell`] gets the same observable behaviour from safe parts:
//!
//! * a small fixed number of **stripes**, each an
//!   `RwLock<Arc<Versioned<T>>>`. A reader picks a stripe by a
//!   thread-local index, holds the read lock just long enough to clone
//!   the `Arc`, and then works lock-free on its private snapshot. With
//!   one stripe per worker thread (or more), readers almost never
//!   contend with each other.
//! * an `AtomicU64` **epoch**, bumped with `Release` ordering *after*
//!   every stripe holds the new snapshot. A publisher takes a mutex so
//!   rotations serialize, writes all stripes, then bumps the epoch.
//!
//! The resulting freshness contract, relied on by the concurrency
//! stress tests:
//!
//! 1. **No torn reads** — a reader always sees one complete snapshot
//!    (some full `Arc`), never a mix of generations.
//! 2. **Bounded staleness** — a read that *starts* after [`epoch`]
//!    returned `e` observes `generation >= e`, and any observed
//!    generation is at most one ahead of a subsequently loaded epoch
//!    (the publisher writes stripes before bumping).
//! 3. **Old generations stay valid** — an in-flight request keeps its
//!    `Arc` alive; rotation never invalidates it.
//!
//! [`epoch`]: SnapshotCell::epoch

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Number of reader stripes. More stripes mean less reader/reader
/// contention and proportionally more publisher work; 8 covers the
/// worker counts this workspace targets (publishing is rare).
const STRIPES: usize = 8;

thread_local! {
    /// Per-thread stripe assignment: threads are numbered in creation
    /// order and spread round-robin over the stripes, so a worker pool
    /// of `STRIPES` threads gets one stripe each.
    static STRIPE: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        // relaxed: thread-numbering counter; uniqueness is all that
        // matters, no ordering with other memory is implied
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// A snapshot payload tagged with the rotation generation (1-based)
/// that published it.
#[derive(Debug)]
pub struct Versioned<T> {
    /// The immutable snapshot payload.
    pub value: T,
    /// The generation this snapshot was published as. The initial
    /// value passed to [`SnapshotCell::new`] is generation 1.
    pub generation: u64,
}

/// A rotating slot holding the current immutable snapshot of `T`.
///
/// Readers call [`current`](Self::current) and get an
/// `Arc<Versioned<T>>` they can hold for as long as the request runs;
/// a publisher calls [`publish`](Self::publish) with a freshly built
/// value and never waits for readers to drain. See the module docs for
/// the freshness contract.
#[derive(Debug)]
pub struct SnapshotCell<T> {
    stripes: Vec<RwLock<Arc<Versioned<T>>>>,
    epoch: AtomicU64,
    /// Serializes publishers so generations are consecutive and stripe
    /// writes from two rotations never interleave.
    publish_lock: Mutex<()>,
}

impl<T> SnapshotCell<T> {
    /// A cell initialized with generation 1 holding `initial`.
    pub fn new(initial: T) -> Self {
        let first = Arc::new(Versioned {
            value: initial,
            generation: 1,
        });
        Self {
            stripes: (0..STRIPES)
                .map(|_| RwLock::new(Arc::clone(&first)))
                .collect(),
            epoch: AtomicU64::new(1),
            publish_lock: Mutex::new(()),
        }
    }

    /// The generation of the latest fully published snapshot. A read
    /// that starts after this returns `e` sees `generation >= e`.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Clones the current snapshot out of this thread's stripe. The
    /// read lock is held only for the `Arc` clone — never across query
    /// execution — so a concurrent [`publish`](Self::publish) blocks
    /// for nanoseconds per stripe, not for a request duration.
    pub fn current(&self) -> Arc<Versioned<T>> {
        let stripe = STRIPE.with(|s| *s) % self.stripes.len();
        let slot = self.stripes[stripe]
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(&slot)
    }

    /// Publishes `value` as the next generation and returns that
    /// generation. Readers that already hold an `Arc` keep the old
    /// snapshot; new [`current`](Self::current) calls see the new one
    /// as their stripe is written. The epoch is bumped (Release) only
    /// after every stripe holds the new snapshot. The replaced `Arc`s
    /// are released after every lock is, so freeing the previous
    /// snapshot never stalls a reader.
    pub fn publish(&self, value: T) -> u64 {
        let span = skq_obs::Span::enter("serve.publish");
        let guard = self
            .publish_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // relaxed: epoch writes are serialized by publish_lock (held
        // here), so this read cannot race another writer; cross-thread
        // visibility is carried by the Release store below, paired
        // with the Acquire load in epoch() (L16 pairing table,
        // DESIGN.md §12)
        let generation = self.epoch.load(Ordering::Relaxed) + 1;
        let next = Arc::new(Versioned { value, generation });
        let mut replaced = Vec::with_capacity(self.stripes.len());
        for stripe in &self.stripes {
            let mut slot = stripe.write().unwrap_or_else(PoisonError::into_inner);
            replaced.push(std::mem::replace(&mut *slot, Arc::clone(&next)));
        }
        self.epoch.store(generation, Ordering::Release);
        drop(guard);
        drop(replaced);
        let registry = skq_obs::global();
        registry
            .counter("skq_serve_snapshots_published_total", &[])
            .inc();
        registry
            .gauge("skq_serve_snapshot_epoch", &[])
            .set(generation as f64);
        drop(span);
        generation
    }

    /// Number of reader stripes (exposed for the stress tests, which
    /// want at least one reader thread per stripe).
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]

    use super::*;

    #[test]
    fn initial_generation_is_one() {
        let cell = SnapshotCell::new(42u32);
        assert_eq!(cell.epoch(), 1);
        let snap = cell.current();
        assert_eq!(snap.generation, 1);
        assert_eq!(snap.value, 42);
    }

    #[test]
    fn publish_bumps_generation_and_replaces_value() {
        let cell = SnapshotCell::new(1u32);
        assert_eq!(cell.publish(2), 2);
        assert_eq!(cell.publish(3), 3);
        assert_eq!(cell.epoch(), 3);
        let snap = cell.current();
        assert_eq!((snap.value, snap.generation), (3, 3));
    }

    #[test]
    fn old_snapshot_survives_rotation() {
        let cell = SnapshotCell::new(String::from("old"));
        let held = cell.current();
        cell.publish(String::from("new"));
        assert_eq!(held.value, "old");
        assert_eq!(held.generation, 1);
        assert_eq!(cell.current().value, "new");
    }

    #[test]
    fn old_snapshot_is_freed_outside_every_lock() {
        use std::sync::{OnceLock, Weak};

        /// On drop, records which stripes a reader could lock right now.
        struct Probe {
            cell: Arc<OnceLock<Weak<SnapshotCell<Probe>>>>,
            readable: Arc<Mutex<Vec<bool>>>,
        }
        impl Drop for Probe {
            fn drop(&mut self) {
                if let Some(cell) = self.cell.get().and_then(Weak::upgrade) {
                    let free = cell.stripes.iter().map(|s| s.try_read().is_ok());
                    self.readable.lock().unwrap().extend(free);
                }
            }
        }

        let slot = Arc::new(OnceLock::new());
        let readable = Arc::new(Mutex::new(Vec::new()));
        let probe = || Probe {
            cell: Arc::clone(&slot),
            readable: Arc::clone(&readable),
        };
        let cell = Arc::new(SnapshotCell::new(probe()));
        assert!(slot.set(Arc::downgrade(&cell)).is_ok());
        cell.publish(probe());
        assert_eq!(*readable.lock().unwrap(), vec![true; cell.stripe_count()]);
    }

    #[test]
    fn readers_on_many_threads_see_monotone_epochs() {
        let cell = std::sync::Arc::new(SnapshotCell::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cell = std::sync::Arc::clone(&cell);
            handles.push(std::thread::spawn(move || {
                let mut last = 0;
                for _ in 0..500 {
                    let e0 = cell.epoch();
                    let snap = cell.current();
                    assert!(snap.generation >= e0);
                    assert!(snap.generation >= last);
                    assert_eq!(snap.value + 1, snap.generation);
                    last = snap.generation;
                }
            }));
        }
        for g in 1..=200u64 {
            cell.publish(g);
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
