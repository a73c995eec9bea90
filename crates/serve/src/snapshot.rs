//! Epoch-based snapshot rotation without unsafe code.
//!
//! The classic lock-free way to publish a new immutable snapshot is an
//! arc-swap: an `AtomicPtr` the publisher CAS-es and readers load. That
//! needs `unsafe` to reconstruct the `Arc` from the raw pointer, and
//! this workspace forbids unsafe code (lint L09 / workspace `deny`).
//! [`SnapshotCell`] gets the same observable behaviour from safe parts:
//!
//! * one **slot**, an `RwLock<Arc<Versioned<T>>>`. A reader holds the
//!   read lock just long enough to clone the `Arc`, and then works
//!   lock-free on its private snapshot.
//! * an `AtomicU64` **epoch**, bumped with `Release` ordering *after*
//!   the slot holds the new snapshot. Publishers serialize on the
//!   slot's write lock, so generations are consecutive.
//!
//! The resulting freshness contract, relied on by the concurrency
//! stress tests:
//!
//! 1. **No torn reads** — a reader always sees one complete snapshot
//!    (some full `Arc`), never a mix of generations.
//! 2. **Bounded staleness** — a read that *starts* after [`epoch`]
//!    returned `e` observes `generation >= e`, and any observed
//!    generation is at most one ahead of a subsequently loaded epoch
//!    (the publisher swaps the slot before bumping).
//! 3. **Old generations stay valid** — an in-flight request keeps its
//!    `Arc` alive; rotation never invalidates it.
//!
//! [`epoch`]: SnapshotCell::epoch

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

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
    slot: RwLock<Arc<Versioned<T>>>,
    epoch: AtomicU64,
}

impl<T> SnapshotCell<T> {
    /// A cell initialized with generation 1 holding `initial`.
    pub fn new(initial: T) -> Self {
        Self {
            slot: RwLock::new(Arc::new(Versioned {
                value: initial,
                generation: 1,
            })),
            epoch: AtomicU64::new(1),
        }
    }

    /// The generation of the latest fully published snapshot. A read
    /// that starts after this returns `e` sees `generation >= e`.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Clones the current snapshot. The read lock is held only for the
    /// `Arc` clone — never across query execution — so a concurrent
    /// [`publish`](Self::publish) waits nanoseconds, not a request
    /// duration.
    pub fn current(&self) -> Arc<Versioned<T>> {
        Arc::clone(&self.slot.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes `value` as the next generation and returns that
    /// generation. Readers that already hold an `Arc` keep the old
    /// snapshot; new [`current`](Self::current) calls see the new one.
    /// The epoch is bumped (Release) only after the slot holds the new
    /// snapshot. The replaced `Arc` is released after the lock is, so
    /// freeing the previous snapshot never stalls a reader.
    pub fn publish(&self, value: T) -> u64 {
        let span = skq_obs::Span::enter("serve.publish");
        let mut slot = self.slot.write().unwrap_or_else(PoisonError::into_inner);
        // relaxed: epoch writes happen only under the slot's write
        // lock (held here), so this read cannot race another writer;
        // cross-thread visibility is carried by the Release store
        // below, paired with the Acquire load in epoch() (L16 pairing
        // table, DESIGN.md §12)
        let generation = self.epoch.load(Ordering::Relaxed) + 1;
        let replaced = std::mem::replace(&mut *slot, Arc::new(Versioned { value, generation }));
        self.epoch.store(generation, Ordering::Release);
        drop(slot);
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
        use std::sync::{Mutex, OnceLock, Weak};

        /// On drop, records whether a reader could lock the slot now.
        struct Probe {
            cell: Arc<OnceLock<Weak<SnapshotCell<Probe>>>>,
            readable: Arc<Mutex<Vec<bool>>>,
        }
        impl Drop for Probe {
            fn drop(&mut self) {
                if let Some(cell) = self.cell.get().and_then(Weak::upgrade) {
                    let free = cell.slot.try_read().is_ok();
                    self.readable.lock().unwrap().push(free);
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
        assert_eq!(*readable.lock().unwrap(), vec![true]);
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
