//! Table 1's bounds as deterministic gates, on the paper's own cost
//! measure (nodes visited, objects examined), which needs no timer.
//!
//! Each case fits the log-log slope of a counter against `N` over a
//! few sizes of a seeded worst-case family (`skq_workload::adversarial`)
//! and compares it with the exponent the paper proves. The sizes keep
//! a debug-build run within a few seconds.

use skq_bench::fit_exponent;
use structured_keyword_search::core::naive::FullScan;
use structured_keyword_search::prelude::*;
use structured_keyword_search::workload::adversarial::{self, ANNULUS_CENTER, ANNULUS_RADIUS};

/// Slack on a fitted exponent, written once for every case. A fit over
/// three sizes up to N = 16 384 is noisy: on the strip, the Willard
/// slope spreads over 0.42–0.54 across seeds 1–10, about ±0.06 about
/// its middle. 0.05 allows that much noise above a bound and is small
/// against the gap a broken bound opens (kd cells on the strip fit 1.00
/// against the 0.79 gate). Never widen it to make a case pass.
const EXPONENT_TOLERANCE: f64 = 0.05;

const SIZES: [usize; 3] = [1_024, 4_096, 16_384];
const SEED: u64 = 9;

/// Theorem 5 in 2D: the Willard partition tree crosses `O(N^{log₄3})`
/// cells for any line. The strip's lengthwise halfplane `y ≥ x + 0.999`
/// passes within one unit of every object, the input on which kd cells
/// cross every node.
#[test]
fn sp_kw_strip_crossing_nodes_within_log4_3() {
    let q = ConvexPolytope::from_halfspace(Halfspace::new(&[1.0, -1.0], -0.999));
    let (mut ns, mut crossing) = (Vec::new(), Vec::new());
    for n in SIZES {
        let d = adversarial::strip(n, SEED);
        let index = SpKwIndex::try_build(&d, 2).unwrap();
        let (mut hits, stats) = index.query_with_stats(&q, &[0, 1]).unwrap();
        hits.sort_unstable();
        assert_eq!(
            hits,
            FullScan::new(&d).query_polytope(&q, &[0, 1]),
            "N = {n}"
        );
        println!(
            "strip N = {n}: {} crossing nodes, {} objects examined",
            stats.crossing_nodes,
            stats.objects_examined()
        );
        ns.push(n as f64);
        crossing.push(stats.crossing_nodes as f64);
    }
    let slope = fit_exponent(&ns, &crossing);
    let bound = 3f64.ln() / 4f64.ln();
    println!("strip crossing-node exponent {slope:.3} (gate log₄3 = {bound:.3})");
    assert!(
        slope <= bound + EXPONENT_TOLERANCE,
        "crossing-node exponent {slope:.3} exceeds log₄3 = {bound:.3} + {EXPONENT_TOLERANCE}"
    );
}

/// SRP-KW (Corollary 6) on the annulus: the concentric ball of radius
/// `10 000 − 0.999` has every object within one unit of its boundary,
/// so the lifting's tie rule decides each object where its margin is
/// smallest. The answer must be the brute-force one. SRP-KW runs on kd
/// cells over the lifted points, which have no sublinear crossing bound
/// for this plane; the examined counts are printed, not gated.
#[test]
fn srp_kw_annulus_matches_brute_force() {
    let ball = Ball::new(Point::new(&ANNULUS_CENTER), ANNULUS_RADIUS - 0.999);
    for n in SIZES {
        let d = adversarial::annulus(n, SEED);
        let index = SrpKwIndex::try_build(&d, 2).unwrap();
        let (mut hits, stats) = index.query_with_stats(&ball, &[0, 1]).unwrap();
        hits.sort_unstable();
        assert_eq!(
            hits,
            FullScan::new(&d).query_ball(&ball, &[0, 1]),
            "N = {n}"
        );
        println!(
            "annulus N = {n}: {} objects examined, {} reported",
            stats.objects_examined(),
            hits.len()
        );
    }
}
