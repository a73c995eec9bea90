//! A guided tour of the paper's machinery, with the index's own
//! diagnostics as the tour guide.
//!
//! Walks through: the verbose-set weighting and large/small keyword
//! classification (§3.2), the covered/crossing query analysis and the
//! Figure-1 compaction effect (§3.3, Lemmas 9–10), and the
//! dimension-reduction tree's type-1/type-2 structure (§4, Figure 2).
//!
//! Run with: `cargo run --release --example paper_tour`

use structured_keyword_search::prelude::*;
use structured_keyword_search::workload::scenarios;

fn main() -> Result<(), SkqError> {
    println!("================================================================");
    println!(" §3.2 — the transformed kd-tree");
    println!("================================================================\n");

    let city = scenarios::city(50_000, 1);
    let k = 2;
    println!(
        "dataset: {} objects, N = Σ|Doc| = {} (the verbose set has N points)",
        city.len(),
        city.input_size()
    );
    let index = OrpKwIndex::try_build(&city, k)?;
    let summaries = index
        .kd_node_summaries(index.k())
        .expect("2D uses the kd framework");
    let height = summaries.iter().map(|&(l, ..)| l).max().unwrap();
    println!(
        "kd framework tree: {} nodes, height {height} (≈ log2 N = {:.1})",
        summaries.len(),
        (city.input_size() as f64).log2()
    );

    // Large/small classification at the root: at most N^(1/k) large.
    let (_, root_weight, _, root_large) = summaries[0];
    println!(
        "root: N_u = {root_weight}, {root_large} large keywords (bound N^(1/k) = {:.0})",
        (root_weight as f64).powf(1.0 / k as f64)
    );
    let max_large = summaries.iter().map(|&(.., l)| l).max().unwrap();
    println!("max large keywords at any node: {max_large}\n");

    println!("================================================================");
    println!(" §3.3 — covered vs crossing (Figure 1)");
    println!("================================================================\n");

    let mut gen = QueryGen::new(&city, 2);
    let kws = gen.top_keywords(k).unwrap();

    // A window query: most visited cells are covered, the boundary ring
    // crosses.
    let window = gen.rect(0.05);
    let (hits, stats) = index.query_with_stats(&window, &kws)?;
    println!("window query ({} hits): {stats}", hits.len());
    println!(
        "  covered : {} nodes (their subtrees are pure output — Lemma 9)",
        stats.covered_nodes
    );
    println!(
        "  crossing: {} nodes (the boundary — Lemma 10 bounds these)\n",
        stats.crossing_nodes
    );

    // A vertical line through a data coordinate: the Figure-1 picture.
    let x = city.point(city.len() / 2).get(0);
    let line = Rect::new(&[x, f64::NEG_INFINITY], &[x, f64::INFINITY]);
    let (_, stats) = index.query_with_stats(&line, &kws)?;
    println!("vertical line x = {x}: crossing histogram by level");
    println!("  {:?}", stats.crossing_by_level);
    println!(
        "  (even levels split vertically and do NOT double for a vertical\n   \
         line — exactly the compaction step drawn in Figure 1; total {} vs\n   \
         √N = {:.0})\n",
        stats.crossing_nodes,
        (city.input_size() as f64).sqrt()
    );

    println!("================================================================");
    println!(" §4 — dimension reduction (Figure 2)");
    println!("================================================================\n");

    let net = scenarios::sensor_net(50_000, 3);
    let index3 = OrpKwIndex::try_build(&net, 2)?;
    let mut gen3 = QueryGen::new(&net, 4);
    let kws3 = gen3.top_keywords(2).unwrap();
    let q3 = gen3.rect(0.2);
    let (hits3, stats3) = index3.query_with_stats(&q3, &kws3)?;
    println!(
        "3D query ({} hits) on N = {}: type-1 per level {:?}, type-2 per level {:?}",
        hits3.len(),
        net.input_size(),
        stats3.type1_by_level,
        stats3.type2_by_level
    );
    println!(
        "  (at most two type-2 \"boundary chain\" nodes per level — the\n   \
         black/white node picture of Figure 2; the tree has O(log log N)\n   \
         levels, here {} for log2 log2 N = {:.1})",
        stats3.type1_by_level.len().max(stats3.type2_by_level.len()),
        (net.input_size() as f64).log2().log2()
    );
    Ok(())
}
