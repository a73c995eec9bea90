//! Temporal keyword search over versioned documents (RR-KW, d = 1).
//!
//! Each document version has a *lifespan* interval `[from, to]`; a query
//! asks for the versions alive at some time window that contain all the
//! query keywords — the setting of Anand et al. (CIKM'10), which the
//! paper cites as the `d = 1` application of RR-KW (Corollary 3).
//!
//! Run with: `cargo run --release --example temporal_docs`

use rand::{rngs::StdRng, Rng, SeedableRng};
use structured_keyword_search::core::rr::{rr_bruteforce, RrKwIndex};
use structured_keyword_search::prelude::*;

fn main() -> Result<(), SkqError> {
    let mut rng = StdRng::seed_from_u64(2010);
    let mut dict = Dictionary::new();
    let vocab: Vec<Keyword> = [
        "database", "index", "keyword", "temporal", "query", "text", "search", "tree", "hash",
        "graph", "join", "rank", "cache", "log", "view", "shard",
    ]
    .iter()
    .map(|w| dict.intern(w))
    .collect();

    // 30k document versions over a 10-year timeline (days).
    let horizon = 3650.0;
    let versions: Vec<(Rect, Vec<Keyword>)> = (0..30_000)
        .map(|_| {
            let from: f64 = rng.gen_range(0.0..horizon - 1.0);
            let lifespan: f64 = rng.gen_range(1.0..400.0);
            let to = (from + lifespan).min(horizon);
            let n_kw = rng.gen_range(2..6);
            let kws: Vec<Keyword> = (0..n_kw)
                .map(|_| vocab[rng.gen_range(0..vocab.len())])
                .collect();
            (Rect::new(&[from], &[to]), kws)
        })
        .collect();

    let k = 3;
    let index = RrKwIndex::try_build(&versions, k)?;
    println!(
        "indexed {} versions (N = {}), space ≈ {} words",
        versions.len(),
        versions.iter().map(|(_, k)| k.len()).sum::<usize>(),
        index.space_words()
    );

    // "Versions alive during days 1000–1030 mentioning database,
    // temporal, and index."
    let window = Rect::new(&[1000.0], &[1030.0]);
    let query_kws = vec![
        dict.lookup("database").unwrap(),
        dict.lookup("temporal").unwrap(),
        dict.lookup("index").unwrap(),
    ];
    let (mut hits, stats) = index.query_with_stats(&window, &query_kws)?;
    hits.sort_unstable();
    println!(
        "\nalive in days [1000, 1030] with {{database, temporal, index}}: {} versions",
        hits.len()
    );
    println!(
        "  examined {} objects across {} tree nodes",
        stats.objects_examined(),
        stats.nodes_visited
    );
    for id in hits.iter().take(5) {
        let (span, kws) = &versions[*id as usize];
        let names: Vec<&str> = kws.iter().map(|&w| dict.name(w).unwrap()).collect();
        println!(
            "  → version {:>6} alive [{:>6.0}, {:>6.0}] tags {:?}",
            id,
            span.lo(0),
            span.hi(0),
            names
        );
    }

    // Verify against brute force, on this and a few more windows.
    let expected = rr_bruteforce(&versions, &window, &query_kws);
    assert_eq!(hits, expected);
    for _ in 0..20 {
        let a: f64 = rng.gen_range(0.0..horizon);
        let w = Rect::new(&[a], &[(a + rng.gen_range(1.0..200.0)).min(horizon)]);
        let mut got = index.query(&w, &query_kws)?;
        got.sort_unstable();
        assert_eq!(got, rr_bruteforce(&versions, &w, &query_kws));
    }
    println!("\nverified against brute force on 21 windows ✓");
    Ok(())
}
