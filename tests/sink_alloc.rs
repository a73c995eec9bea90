//! Allocation accounting for the streaming query paths.
//!
//! The acceptance criterion for the sink layer: counting and threshold
//! (limit) queries must not materialize a result vector. A counting
//! `#[global_allocator]` wrapper measures bytes requested during each
//! query mode on a dataset where the full answer is 4096 ids (16 KiB of
//! result data) — the streaming paths must stay orders of magnitude
//! below that.
//!
//! This file deliberately contains a single `#[test]`: the allocation
//! counters are process-global, and a second concurrently running test
//! would pollute the measurements.

// The counting wrapper must implement the inherently-unsafe
// `GlobalAlloc` trait; this is the one sanctioned exception to the
// workspace-wide `unsafe_code = "deny"`.
#![allow(unsafe_code)] // skq-lint: allow(L07) GlobalAlloc impls are unavoidably unsafe

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use structured_keyword_search::prelude::*;

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the only addition is relaxed
// counter bookkeeping, which cannot violate allocator invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes requested from the allocator while `f` runs.
fn bytes_allocated_by(f: impl FnOnce()) -> u64 {
    let before = BYTES.load(Ordering::SeqCst);
    f();
    BYTES.load(Ordering::SeqCst) - before
}

#[test]
fn counting_and_threshold_queries_do_not_materialize_results() {
    // A 64×64 grid where every object matches both keywords: the
    // full-space query reports 4096 ids.
    let n: usize = 4096;
    let dataset = Dataset::from_parts(
        (0..n)
            .map(|i| {
                (
                    Point::new2((i % 64) as f64, (i / 64) as f64),
                    vec![0u32, 1u32],
                )
            })
            .collect(),
    );
    let index = OrpKwIndex::try_build(&dataset, 2).unwrap();
    let q = Rect::full(2);

    // Warm up lazily initialized global state (metrics series, log
    // buffers) so it is not charged to the measured paths.
    assert_eq!(index.query(&q, &[0, 1]).unwrap().len(), n);

    let collect_bytes = bytes_allocated_by(|| {
        assert_eq!(index.query(&q, &[0, 1]).unwrap().len(), n);
    });
    assert!(
        collect_bytes >= (n * 4) as u64,
        "collecting must pay for the result vector, got {collect_bytes} B"
    );

    let count_bytes = bytes_allocated_by(|| {
        assert_eq!(index.count(&q, &[0, 1]).unwrap(), n as u64);
    });
    assert!(
        count_bytes < 4096,
        "CountSink query allocated {count_bytes} B (result would be {} B)",
        n * 4
    );

    // The threshold probe (the shape behind the NN-L∞ radius binary
    // search and `count_at_least`): a LimitSink over a CountSink.
    let probe_bytes = bytes_allocated_by(|| {
        assert!(index.count_at_least(&q, &[0, 1], 100).unwrap());
        assert!(!index.count_at_least(&q, &[0, 1], n + 1).unwrap());
    });
    assert!(
        probe_bytes < 4096,
        "threshold probes allocated {probe_bytes} B"
    );

    // Limited reporting into a caller-provided, pre-sized vector: only
    // bookkeeping may allocate, never a shadow result set.
    let mut out = Vec::with_capacity(8);
    let limited_bytes = bytes_allocated_by(|| {
        let mut stats = QueryStats::new();
        let capped = QueryGuard::new().with_max_results(8);
        let _ = index
            .run(&q, &[0, 1], &capped, &mut out, &mut stats)
            .unwrap();
        assert_eq!(out.len(), 8);
        assert!(stats.truncated);
    });
    assert!(
        limited_bytes < 4096,
        "limited query allocated {limited_bytes} B"
    );

    // End-to-end: the L∞-NN binary search runs ~log N threshold probes;
    // none of them may materialize candidates. Only the final
    // collection pass (a handful of near neighbours here) allocates.
    let nn = LinfNnIndex::try_build(&dataset, 2).unwrap();
    let _ = nn.query(&Point::new2(0.0, 0.0), 5, &[0, 1]); // warm-up
    let nn_bytes = bytes_allocated_by(|| {
        let (nearest, _) = nn.query(&Point::new2(0.0, 0.0), 5, &[0, 1]).unwrap();
        assert_eq!(nearest.len(), 5);
    });
    assert!(
        nn_bytes < (n * 4 / 2) as u64,
        "NN probes allocated {nn_bytes} B — a probe is materializing results"
    );
}
