//! Shared machinery for the experiment harness and criterion benches.
//!
//! The paper has no empirical section; its evaluation artifacts are the
//! bound matrix of Table 1, the supporting lemmas/propositions, and the
//! structural Figures 1–2. The harness (`src/bin/harness.rs`)
//! regenerates an empirical counterpart for each — see the experiment
//! index in `DESIGN.md` and the recorded results in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod trajectory;

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};
use skq_core::dataset::Dataset;
use skq_geom::Point;
use skq_invidx::Keyword;
use skq_workload::ksi::planted_instance;

/// Wall-clock summary of repeated runs of a closure (see [`measure`]).
///
/// Harness tables print [`median`](Self::median) (the robust central
/// tendency the tables always used); the bench trajectory records all
/// three order statistics plus the rep count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Measurement {
    /// Fastest observed run.
    pub min: Duration,
    /// Median run.
    pub median: Duration,
    /// 90th-percentile run (the slowest run for `reps < 10`).
    pub p90: Duration,
    /// Number of repetitions measured.
    pub reps: usize,
}

/// Wall-clock time of `reps` runs of `f`, summarized as a
/// [`Measurement`].
pub fn measure(reps: usize, mut f: impl FnMut()) -> Measurement {
    assert!(reps >= 1);
    let mut samples: Vec<Duration> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    samples.sort_unstable();
    let p90 = ((reps as f64 * 0.9).ceil() as usize).clamp(1, reps) - 1;
    Measurement {
        min: samples[0],
        median: samples[reps / 2],
        p90: samples[p90],
        reps,
    }
}

/// Ordinary-least-squares slope of `ln y` against `ln x` — the fitted
/// polynomial exponent of a scaling curve. Pairs with non-positive
/// coordinates are skipped.
pub fn fit_exponent(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let pts: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .filter(|(&x, &y)| x > 0.0 && y > 0.0)
        .map(|(&x, &y)| (x.ln(), y.ln()))
        .collect();
    assert!(pts.len() >= 2, "need at least two positive points");
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Pretty-prints a markdown table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Renders the table as markdown.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let body: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            format!("| {} |", body.join(" | "))
        };
        println!("{}", fmt_row(&self.headers));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("{}", fmt_row(&sep));
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }
}

/// Formats a duration in microseconds with 1 decimal.
pub fn us(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

/// A spatial dataset with *planted* keyword co-occurrence: `k`
/// designated keywords each appear in a constant fraction of the
/// documents, but all `k` co-occur in exactly `planted` objects (spread
/// uniformly in space). This pins `OUT` for full-space queries while
/// keeping both naive baselines expensive — the regime Table 1's bounds
/// speak about.
pub struct PlantedSpatial {
    /// The dataset (points + documents).
    pub dataset: Dataset,
    /// The `k` designated query keywords.
    pub query_keywords: Vec<Keyword>,
    /// Ids of the planted objects (the full-space query answer).
    pub expected: Vec<u32>,
}

/// Builds a [`PlantedSpatial`] instance with `n` objects in `[0,
/// extent]^dim`.
pub fn planted_spatial(
    n: usize,
    dim: usize,
    k: usize,
    planted: usize,
    extent: f64,
    seed: u64,
) -> PlantedSpatial {
    let inst = planted_instance(n, (3 * k).max(8), k, planted, 6, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let points: Vec<Point> = (0..n)
        .map(|_| {
            let coords: Vec<f64> = (0..dim)
                .map(|_| rng.gen_range(0.0..extent).round())
                .collect();
            Point::new(&coords)
        })
        .collect();
    let dataset = Dataset::new(points, inst.docs);
    PlantedSpatial {
        dataset,
        query_keywords: inst.query,
        expected: inst.expected,
    }
}

/// A planted k-SI instance with *shuffled* element ids.
///
/// `planted_instance` places the intersection at ids `0..planted`,
/// which a 1-dimensional tree over ids isolates in a single subtree —
/// the framework's best case. Shuffling spreads the intersection
/// uniformly, the honest (and worst-case) layout for measuring query
/// cost.
pub struct ShuffledKsi {
    /// Per-element membership documents, shareable with an index.
    pub docs: Arc<[skq_invidx::Document]>,
    /// The designated query sets.
    pub query: Vec<Keyword>,
    /// The (sorted) intersection of the designated sets.
    pub expected: Vec<u32>,
}

/// Builds a [`ShuffledKsi`] instance.
pub fn shuffled_planted(
    n: usize,
    num_sets: usize,
    k: usize,
    planted: usize,
    max_membership: usize,
    seed: u64,
) -> ShuffledKsi {
    let inst = planted_instance(n, num_sets, k, planted, max_membership, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7a3f);
    let mut perm: Vec<usize> = (0..n).collect();
    // Fisher–Yates.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    // perm[old] = new position.
    let mut docs = vec![None; n];
    for (old, d) in inst.docs.into_iter().enumerate() {
        docs[perm[old]] = Some(d);
    }
    let mut expected: Vec<u32> = inst
        .expected
        .iter()
        .map(|&e| perm[e as usize] as u32)
        .collect();
    expected.sort_unstable();
    ShuffledKsi {
        docs: docs.into_iter().map(Option::unwrap).collect(),
        query: inst.query,
        expected,
    }
}

/// A spatial dataset whose `k` designated keywords each have frequency
/// about `frac · N^{1−1/k}` — *small at the root* for `frac < 1` —
/// with an empty joint intersection. This is the worst case of the
/// paper's `O(N^{1−1/k})` emptiness bound: the query must scan a
/// materialized list of that length (no bit-table shortcut applies),
/// so query time scales as `N^{1−1/k}` exactly.
pub fn borderline_spatial(n: usize, dim: usize, k: usize, frac: f64, seed: u64) -> PlantedSpatial {
    let mut rng = StdRng::seed_from_u64(seed);
    let filler_vocab = 1000u32;
    // Build docs: filler keywords k..k+vocab; designated keywords 0..k.
    let mut docs: Vec<Vec<Keyword>> = (0..n)
        .map(|_| {
            (0..rng.gen_range(2..6))
                .map(|_| k as u32 + rng.gen_range(0..filler_vocab))
                .collect()
        })
        .collect();
    let approx_n: f64 = docs.iter().map(|d| d.len() as f64).sum::<f64>() + 1.0;
    let target = (frac * approx_n.powf(1.0 - 1.0 / k as f64)) as usize;
    // Assign each designated keyword to `target` objects; partition the
    // object space so the joint intersection is empty (each object gets
    // at most one designated keyword).
    let mut ids: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        ids.swap(i, j);
    }
    assert!(k * target <= n, "n too small for the borderline frequency");
    for w in 0..k {
        for &o in &ids[w * target..(w + 1) * target] {
            docs[o].push(w as u32);
        }
    }
    let points: Vec<Point> = (0..n)
        .map(|_| {
            let coords: Vec<f64> = (0..dim)
                .map(|_| rng.gen_range(0.0..1e6f64).round())
                .collect();
            Point::new(&coords)
        })
        .collect();
    let dataset = Dataset::new(
        points,
        docs.into_iter()
            .map(skq_invidx::Document::new)
            .collect::<Arc<[_]>>(),
    );
    PlantedSpatial {
        dataset,
        query_keywords: (0..k as u32).collect(),
        expected: Vec::new(),
    }
}

/// A spatial dataset where *every* object contains the two query
/// keywords (plus noise): keyword pruning never fires, exposing the
/// bare geometric crossing structure of the tree (used by experiment
/// F1 to measure Lemma 10's crossing sensitivity).
pub fn omnipresent_spatial(n: usize, dim: usize, seed: u64) -> PlantedSpatial {
    let mut rng = StdRng::seed_from_u64(seed);
    let parts: Vec<(Point, Vec<Keyword>)> = (0..n)
        .map(|_| {
            let coords: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1e6)).collect();
            let mut doc = vec![0u32, 1u32];
            for _ in 0..rng.gen_range(0..3) {
                doc.push(2 + rng.gen_range(0..50));
            }
            (Point::new(&coords), doc)
        })
        .collect();
    PlantedSpatial {
        dataset: Dataset::from_parts(parts),
        query_keywords: vec![0, 1],
        expected: (0..n as u32).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffled_planted_preserves_intersection() {
        let inst = shuffled_planted(3000, 8, 3, 25, 6, 9);
        let inv = skq_invidx::InvertedIndex::build(&inst.docs);
        assert_eq!(inv.intersect(&inst.query), inst.expected);
        assert_eq!(inst.expected.len(), 25);
        // Spread check: not all planted ids in the first tenth.
        assert!(inst.expected.iter().any(|&e| e > 1500));
    }

    #[test]
    fn borderline_frequencies_near_target() {
        let ps = borderline_spatial(50_000, 2, 2, 0.8, 3);
        let n = ps.dataset.input_size() as f64;
        let target = 0.8 * n.sqrt();
        for &w in &ps.query_keywords {
            let freq = (0..ps.dataset.len())
                .filter(|&i| ps.dataset.doc(i).contains(w))
                .count() as f64;
            assert!(
                (freq - target).abs() < 0.2 * target,
                "freq {freq} vs target {target}"
            );
        }
        // Empty joint intersection.
        assert!((0..ps.dataset.len()).all(|i| !ps.dataset.doc(i).contains_all(&ps.query_keywords)));
    }

    #[test]
    fn exponent_fit_recovers_power_law() {
        let xs: Vec<f64> = vec![1e3, 1e4, 1e5, 1e6];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x.powf(0.5)).collect();
        let e = fit_exponent(&xs, &ys);
        assert!((e - 0.5).abs() < 1e-9, "fitted {e}");
    }

    #[test]
    fn planted_spatial_has_exact_out() {
        let ps = planted_spatial(5_000, 2, 3, 42, 1000.0, 7);
        let matches: Vec<u32> = (0..ps.dataset.len() as u32)
            .filter(|&i| ps.dataset.doc(i as usize).contains_all(&ps.query_keywords))
            .collect();
        assert_eq!(matches, ps.expected);
        assert_eq!(matches.len(), 42);
    }

    #[test]
    fn measure_orders_its_statistics() {
        let m = measure(5, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert_eq!(m.reps, 5);
        assert!(m.min <= m.median);
        assert!(m.median <= m.p90);
        assert!(m.p90.as_nanos() < 1_000_000_000);
    }

    #[test]
    fn measure_single_rep_degenerates() {
        let m = measure(1, || {});
        assert_eq!(m.min, m.median);
        assert_eq!(m.median, m.p90);
        assert_eq!(m.reps, 1);
    }
}
