//! Spatial keyword search over a synthetic city of points of interest.
//!
//! The workload the spatial-keyword-search literature motivates: POIs
//! with coordinates and tags (tags are Zipf-distributed and spatially
//! correlated, like "beach" or "ski" in real map data). We run all
//! three spatial query types against the paper's indexes and both naive
//! baselines, printing answers and examined-candidate counts.
//!
//! Run with: `cargo run --release --example geo_search`

use std::time::Instant;

use structured_keyword_search::prelude::*;

fn main() -> Result<(), SkqError> {
    // --- A synthetic city: 50k POIs, clustered, correlated tags. ---
    let config = SpatialKeywordConfig {
        num_objects: 50_000,
        dim: 2,
        vocab: 400,
        doc_len: (3, 8),
        extent: 100_000.0,
        integer_coords: true, // enables exact L2 NN
        spatial: SpatialModel::Clustered {
            count: 12,
            spread: 0.05,
        },
        keywords: KeywordModel::ZipfCorrelated(0.9),
    };
    let city = config.generate(20230618);
    println!(
        "city: {} POIs, N = {}, {} distinct tags",
        city.len(),
        city.input_size(),
        city.num_keywords()
    );

    let k = 2;
    let t0 = Instant::now();
    let orp = OrpKwIndex::build(&city, k);
    let srp = SrpKwIndex::build(&city, k);
    let nn = L2NnIndex::build(&city, k);
    println!("indexes built in {:.2?}\n", t0.elapsed());

    let keywords_first = KeywordsFirst::build(&city);
    let structured_first = StructuredFirst::build(&city);

    let mut gen = QueryGen::new(&city, 7);
    // Query with the two most common tags — plenty of co-occurrences.
    let kws = gen.top_keywords(k).expect("enough keywords");

    // Anchor the spatial predicates on a POI that has both tags, so the
    // queries land where the (clustered) data actually lives.
    let anchor = (0..city.len())
        .find(|&i| city.doc(i).contains_all(&kws))
        .map(|i| *city.point(i))
        .expect("some POI has both tags");

    // --- Range query: "all POIs with both tags in this window". ----
    let half = 4_000.0;
    let window = Rect::new(
        &[anchor.get(0) - half, anchor.get(1) - half],
        &[anchor.get(0) + half, anchor.get(1) + half],
    );
    let t = Instant::now();
    let (hits, stats) = orp.query_with_stats(&window, &kws)?;
    let dt = t.elapsed();
    println!("RANGE  {window:?} tags {kws:?}");
    println!(
        "  ORP-KW index : {:>5} hits, {:>7} objects examined, {dt:.1?}",
        hits.len(),
        stats.objects_examined()
    );
    let t = Instant::now();
    let base = keywords_first.query_rect(&window, &kws);
    println!(
        "  keywords-only: {:>5} hits, {:>7} candidates,        {:.1?}",
        base.len(),
        keywords_first.candidates(&kws),
        t.elapsed()
    );
    let t = Instant::now();
    let base2 = structured_first.query_rect(&window, &kws);
    println!(
        "  spatial-only : {:>5} hits, {:>7} candidates,        {:.1?}",
        base2.len(),
        structured_first.candidates_rect(&window),
        t.elapsed()
    );
    assert_eq!(sorted(hits.clone()), sorted(base));

    // --- Ball query: "within 3km of this point" (SRP-KW). ----------
    let center = Point::new2(anchor.get(0).round(), anchor.get(1).round());
    let ball = Ball::new(center, 3_000.0);
    let t = Instant::now();
    let (hits_b, stats_b) = srp.query_with_stats(&ball, &kws)?;
    println!("\nBALL   center {center:?}, radius 3000, tags {kws:?}");
    println!(
        "  SRP-KW index : {:>5} hits, {:>7} objects examined, {:.1?}",
        hits_b.len(),
        stats_b.objects_examined(),
        t.elapsed()
    );
    let base_b = keywords_first.query_ball(&ball, &kws);
    assert_eq!(sorted(hits_b), sorted(base_b));

    // --- Nearest neighbours: "5 closest POIs with both tags". ------
    let q = gen.integer_point();
    let t = Instant::now();
    let (nearest, _) = nn.query(&q, 5, &kws)?;
    println!(
        "\nNN     query point {q:?}, t = 5, tags {kws:?} ({:.1?})",
        t.elapsed()
    );
    for id in &nearest {
        let p = city.point(*id as usize);
        println!(
            "  → POI {:>6} at {p:?}, distance {:.1}",
            id,
            p.l2_sq(&q).sqrt()
        );
    }
    let base_nn = keywords_first.nn_l2(&q, 5, &kws);
    assert_eq!(nearest, base_nn);

    println!("\nall answers verified against the naive baselines ✓");
    Ok(())
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}
