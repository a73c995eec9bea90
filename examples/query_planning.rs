//! Cost-based plan selection across the three execution strategies.
//!
//! The paper's introduction contrasts two naive plans; the contribution
//! adds a third. This example holds all three behind `PlannedOrpKw` and
//! shows the planner routing each query to the right engine:
//!
//! * a *rare* keyword → keywords-only (the postings list is tiny);
//! * a *tiny* window → structured-only (the kd-tree isolates it);
//! * frequent keywords over a wide window with few joint matches → the
//!   paper's index.
//!
//! Run with: `cargo run --release --example query_planning`

use std::time::Instant;
use structured_keyword_search::core::planner::{Plan, PlannedOrpKw};
use structured_keyword_search::prelude::*;

fn main() -> Result<(), SkqError> {
    // City POIs with Zipf tags: a few huge tags, a long rare tail.
    let config = SpatialKeywordConfig {
        num_objects: 80_000,
        vocab: 2_000,
        doc_len: (3, 7),
        extent: 10_000.0,
        keywords: KeywordModel::Zipf(1.1),
        ..Default::default()
    };
    let mut city = config.generate(99);
    // Plant two tags that are individually huge (~1/3 of all objects
    // each) but never co-occur — the regime the paper's index targets.
    {
        let a = 5_000u32;
        let b = 5_001u32;
        let parts: Vec<(Point, Vec<Keyword>)> = (0..city.len())
            .map(|i| {
                let mut doc = city.doc(i).keywords().to_vec();
                match i % 3 {
                    0 => doc.push(a),
                    1 => doc.push(b),
                    _ => {}
                }
                (*city.point(i), doc)
            })
            .collect();
        city = Dataset::from_parts(parts);
    }
    println!(
        "dataset: {} objects, N = {}\n",
        city.len(),
        city.input_size()
    );

    let t0 = Instant::now();
    let planner = PlannedOrpKw::build(&city, 2);
    println!("all three engines built in {:.2?}\n", t0.elapsed());

    let gen = QueryGen::new(&city, 1);
    let top = gen.top_keywords(2).unwrap();
    let rare = {
        // One top keyword plus one from deep in the frequency tail.
        let mut g = QueryGen::new(&city, 2);
        let tail = g.keywords(1, 1.0).unwrap()[0];
        vec![top[0], tail]
    };

    // The two planted tags: individually huge, never together.
    let disjoint_pair = vec![5_000u32, 5_001u32];

    let scenarios: Vec<(&str, Rect, Vec<Keyword>)> = vec![
        (
            "wide window + two frequent tags (they co-occur a lot)",
            Rect::new(&[1000.0, 1000.0], &[9000.0, 9000.0]),
            top.clone(),
        ),
        ("anything + one rare tag", Rect::full(2), rare),
        (
            "tiny window + frequent tags",
            Rect::new(&[5000.0, 5000.0], &[5050.0, 5050.0]),
            top.clone(),
        ),
        (
            "wide window + frequent tags that rarely co-occur",
            Rect::new(&[1000.0, 1000.0], &[9000.0, 9000.0]),
            disjoint_pair,
        ),
    ];

    for (name, q, kws) in &scenarios {
        let est = planner.estimate(q, kws);
        let (mut hits, stats) = planner.query_with_stats(q, kws)?;
        hits.sort_unstable();
        let plan = stats.route.map_or("none", Route::label);
        println!("scenario: {name}");
        println!(
            "  estimates — keywords-only: {:.0}, structured-only: {:.0}, framework: {:.0}",
            est.keywords_only, est.structured_only, est.framework
        );
        println!("  chosen plan: {plan}, {} results", hits.len());

        // Time all three plans to show the choice was sound.
        for p in [Plan::KeywordsOnly, Plan::StructuredOnly, Plan::Framework] {
            let t = Instant::now();
            let r = planner.query_with_plan(q, kws, p)?;
            let dt = t.elapsed();
            assert_eq!(r, hits, "plans must agree");
            let marker = if p.label() == plan {
                "  ← chosen"
            } else {
                ""
            };
            println!("    {p:?}: {dt:.1?}{marker}");
        }
        println!();
    }
    Ok(())
}
