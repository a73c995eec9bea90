//! Full-text + structured search over a small article archive.
//!
//! Each article has free-form text (run through the `Analyzer`
//! tokenizer) and two structured attributes — publication year and
//! reading time — so queries like "articles about database indexing,
//! published 2015–2020, under 12 minutes" become ORP-KW queries.
//!
//! Run with: `cargo run --release --example text_search`

use structured_keyword_search::invidx::Analyzer;
use structured_keyword_search::prelude::*;

fn main() -> Result<(), SkqError> {
    // (year, minutes, title-ish text blurb)
    let articles: Vec<(f64, f64, &str)> = vec![
        (
            2012.0,
            8.0,
            "A gentle introduction to database indexing with B-trees",
        ),
        (
            2014.0,
            15.0,
            "Scaling keyword search across sharded databases",
        ),
        (
            2016.0,
            10.0,
            "Spatial indexing: kd-trees, quadtrees, and R-trees compared",
        ),
        (
            2017.0,
            6.0,
            "Why your database index is slower than you think",
        ),
        (
            2018.0,
            11.0,
            "Keyword search meets geometry: indexing hybrid queries",
        ),
        (2019.0, 20.0, "A survey of spatial keyword query processing"),
        (
            2020.0,
            9.0,
            "Indexing temporal documents for time-travel keyword search",
        ),
        (
            2021.0,
            7.0,
            "Partition trees in practice: simplex range searching",
        ),
        (
            2022.0,
            13.0,
            "Set intersection at scale: galloping, SIMD, and beyond",
        ),
        (
            2023.0,
            5.0,
            "Near-optimal indexes for keyword search with structured constraints",
        ),
        (
            2023.0,
            14.0,
            "Lifting maps: reducing balls to halfspaces for fun and profit",
        ),
        (
            2024.0,
            8.0,
            "The inverted index strikes back: adaptive query processing",
        ),
    ];

    // Tokenize everything through the analyzer.
    let mut analyzer = Analyzer::new();
    let parts: Vec<(Point, Vec<Keyword>)> = articles
        .iter()
        .map(|&(year, minutes, text)| {
            let doc = analyzer.analyze(text).expect("non-empty text");
            (Point::new2(year, minutes), doc.keywords().to_vec())
        })
        .collect();
    let dataset = Dataset::from_parts(parts);
    println!(
        "{} articles, {} distinct terms, N = {}\n",
        dataset.len(),
        analyzer.dictionary().len(),
        dataset.input_size()
    );

    let index = OrpKwIndex::build(&dataset, 2);

    // "Articles about indexing keywords, 2015-2021, at most 12 minutes."
    let window = Rect::new(&[2015.0, 0.0], &[2021.0, 12.0]);
    let terms = ["indexing", "keyword"];
    let ids: Vec<Keyword> = analyzer
        .query_terms(&terms)
        .into_iter()
        .map(|t| t.expect("terms occur in the corpus"))
        .collect();
    let mut hits = index.query(&window, &ids)?;
    hits.sort_unstable();
    println!("query: {terms:?} AND year ∈ [2015, 2021] AND minutes ≤ 12");
    for id in &hits {
        let (y, m, text) = articles[*id as usize];
        println!("  → [{y:.0}, {m:>2.0} min] {text}");
    }

    // A term the corpus never saw short-circuits to empty.
    let missing = analyzer.query_terms(&["blockchain"]);
    assert_eq!(missing, vec![None]);
    println!("\nquery term 'blockchain': not in the corpus → empty without touching the index");

    // Cross-check against a full scan.
    let oracle = FullScan::new(&dataset);
    let mut expected = oracle.query_rect(&window, &ids);
    expected.sort_unstable();
    assert_eq!(hits, expected);
    println!("verified against a full scan ✓");
    Ok(())
}
