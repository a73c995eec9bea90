//! The naive solutions of the paper's introduction, for every problem.
//!
//! > "Queries like the above can be answered by two naive approaches:
//! > (Structured only) Retrieve all the data objects satisfying the
//! > structured condition and then eliminate those whose documents do
//! > not contain all the keywords. (Keywords only) Retrieve all the
//! > objects whose documents include all the keywords and then
//! > eliminate those that do not satisfy the remaining conditions."
//!
//! Both can examine `Θ(N)` candidates even when nothing is reported —
//! the drawback the paper's indexes remove. They are implemented here as
//! honest, well-tuned baselines (inverted index with galloping
//! intersection; a real kd-tree) for the comparison experiments, plus a
//! [`FullScan`] that doubles as the correctness oracle.

use skq_geom::{Ball, ConvexPolytope, KdTree, Point, Rect};
use skq_invidx::{InvertedIndex, Keyword};

use crate::dataset::Dataset;
use crate::nn::rank_by_distance;

/// The one brute-force ORP-KW oracle: scans the whole dataset and
/// reports, in ascending id order, every object inside `q` whose
/// document contains all `keywords`. Shared by the correctness tests of
/// every rectangle-answering module, so there is exactly one definition
/// of "the right answer".
pub fn brute_rect(dataset: &Dataset, q: &Rect, keywords: &[Keyword]) -> Vec<u32> {
    (0..dataset.len() as u32)
        .filter(|&i| {
            dataset.doc(i as usize).contains_all(keywords) && q.contains(dataset.point(i as usize))
        })
        .collect()
}

/// "Keywords only": intersect the postings lists, then filter by the
/// geometric predicate.
pub struct KeywordsFirst {
    inv: InvertedIndex,
    dataset: Dataset,
}

impl KeywordsFirst {
    /// Builds the inverted index over the dataset's documents.
    pub fn build(dataset: &Dataset) -> Self {
        Self {
            inv: InvertedIndex::build(dataset.docs()),
            dataset: dataset.clone(),
        }
    }

    /// The candidates examined by any query: `|D(w₁…w_k)|`.
    pub fn candidates(&self, keywords: &[Keyword]) -> usize {
        self.inv.intersect(keywords).len()
    }

    /// ORP-KW query.
    pub fn query_rect(&self, q: &Rect, keywords: &[Keyword]) -> Vec<u32> {
        self.inv
            .intersect(keywords)
            .into_iter()
            .filter(|&i| q.contains(self.dataset.point(i as usize)))
            .collect()
    }

    /// LC-KW / SP-KW query.
    pub fn query_polytope(&self, q: &ConvexPolytope, keywords: &[Keyword]) -> Vec<u32> {
        self.inv
            .intersect(keywords)
            .into_iter()
            .filter(|&i| q.contains(self.dataset.point(i as usize)))
            .collect()
    }

    /// SRP-KW query.
    pub fn query_ball(&self, q: &Ball, keywords: &[Keyword]) -> Vec<u32> {
        self.inv
            .intersect(keywords)
            .into_iter()
            .filter(|&i| q.contains(self.dataset.point(i as usize)))
            .collect()
    }

    /// L∞NN-KW query: rank all keyword matches by distance.
    pub fn nn_linf(&self, q: &Point, t: usize, keywords: &[Keyword]) -> Vec<u32> {
        rank_by_distance(self.inv.intersect(keywords), t, |o| {
            self.dataset.point(o as usize).linf(q)
        })
    }

    /// L2NN-KW query: rank all keyword matches by distance.
    pub fn nn_l2(&self, q: &Point, t: usize, keywords: &[Keyword]) -> Vec<u32> {
        rank_by_distance(self.inv.intersect(keywords), t, |o| {
            self.dataset.point(o as usize).l2_sq(q)
        })
    }

    /// Index space in 64-bit words (postings + documents).
    pub fn space_words(&self) -> usize {
        self.inv.input_size() * 2
    }
}

/// "Structured only": evaluate the geometric predicate with a kd-tree,
/// then filter by document containment.
pub struct StructuredFirst {
    tree: KdTree,
    dataset: Dataset,
}

impl StructuredFirst {
    /// Builds the kd-tree over the dataset's points.
    pub fn build(dataset: &Dataset) -> Self {
        Self {
            tree: KdTree::build(dataset.points().to_vec()),
            dataset: dataset.clone(),
        }
    }

    fn filter_keywords(&self, ids: Vec<usize>, keywords: &[Keyword]) -> Vec<u32> {
        ids.into_iter()
            .filter(|&i| self.dataset.doc(i).contains_all(keywords))
            .map(|i| i as u32)
            .collect()
    }

    /// The candidates a rectangle query examines: `|q ∩ D|`.
    pub fn candidates_rect(&self, q: &Rect) -> usize {
        self.tree.range_report(q).len()
    }

    /// ORP-KW query.
    pub fn query_rect(&self, q: &Rect, keywords: &[Keyword]) -> Vec<u32> {
        self.filter_keywords(self.tree.range_report(q), keywords)
    }

    /// LC-KW / SP-KW query.
    pub fn query_polytope(&self, q: &ConvexPolytope, keywords: &[Keyword]) -> Vec<u32> {
        self.filter_keywords(self.tree.report_polytope(q), keywords)
    }

    /// SRP-KW query: range-report the bounding box of the ball, then
    /// filter exactly.
    pub fn query_ball(&self, q: &Ball, keywords: &[Keyword]) -> Vec<u32> {
        let bbox = Rect::linf_ball(q.center(), q.radius());
        self.tree
            .range_report(&bbox)
            .into_iter()
            .filter(|&i| {
                q.contains(self.dataset.point(i)) && self.dataset.doc(i).contains_all(keywords)
            })
            .map(|i| i as u32)
            .collect()
    }

    /// L∞NN-KW query: pull nearest neighbours in growing batches until
    /// `t` of them match the keywords.
    pub fn nn_linf(&self, q: &Point, t: usize, keywords: &[Keyword]) -> Vec<u32> {
        self.nn_generic(q, t, keywords, true)
    }

    /// L2NN-KW query, same doubling strategy.
    pub fn nn_l2(&self, q: &Point, t: usize, keywords: &[Keyword]) -> Vec<u32> {
        self.nn_generic(q, t, keywords, false)
    }

    fn nn_generic(&self, q: &Point, t: usize, keywords: &[Keyword], linf: bool) -> Vec<u32> {
        if t == 0 {
            return Vec::new();
        }
        let n = self.dataset.len();
        let mut batch = t.max(1);
        loop {
            let ids = if linf {
                self.tree.knn_linf(q, batch)
            } else {
                self.tree.knn_l2(q, batch)
            };
            let exhausted = ids.len() < batch;
            let matched: Vec<u32> = ids
                .into_iter()
                .filter(|&i| self.dataset.doc(i).contains_all(keywords))
                .map(|i| i as u32)
                .collect();
            if matched.len() >= t || exhausted || batch >= n {
                let mut out = matched;
                out.truncate(t);
                return out;
            }
            batch = (batch * 2).min(n);
        }
    }

    /// Index space in 64-bit words (tree skeleton + points).
    pub fn space_words(&self) -> usize {
        self.dataset.len() * (self.dataset.dim() + 3)
    }
}

/// The trivial baseline and test oracle: scan everything.
pub struct FullScan {
    dataset: Dataset,
}

impl FullScan {
    /// Wraps a dataset.
    pub fn new(dataset: &Dataset) -> Self {
        Self {
            dataset: dataset.clone(),
        }
    }

    /// ORP-KW by scan (delegates to the shared [`brute_rect`] oracle).
    pub fn query_rect(&self, q: &Rect, keywords: &[Keyword]) -> Vec<u32> {
        brute_rect(&self.dataset, q, keywords)
    }

    /// LC-KW / SP-KW by scan.
    pub fn query_polytope(&self, q: &ConvexPolytope, keywords: &[Keyword]) -> Vec<u32> {
        self.scan(|p| q.contains(p), keywords)
    }

    /// SRP-KW by scan.
    pub fn query_ball(&self, q: &Ball, keywords: &[Keyword]) -> Vec<u32> {
        self.scan(|p| q.contains(p), keywords)
    }

    /// L∞NN-KW by scan.
    pub fn nn_linf(&self, q: &Point, t: usize, keywords: &[Keyword]) -> Vec<u32> {
        rank_by_distance(self.scan(|_| true, keywords), t, |o| {
            self.dataset.point(o as usize).linf(q)
        })
    }

    /// L2NN-KW by scan.
    pub fn nn_l2(&self, q: &Point, t: usize, keywords: &[Keyword]) -> Vec<u32> {
        rank_by_distance(self.scan(|_| true, keywords), t, |o| {
            self.dataset.point(o as usize).l2_sq(q)
        })
    }

    fn scan(&self, geom: impl Fn(&Point) -> bool, keywords: &[Keyword]) -> Vec<u32> {
        (0..self.dataset.len() as u32)
            .filter(|&i| {
                self.dataset.doc(i as usize).contains_all(keywords)
                    && geom(self.dataset.point(i as usize))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn dataset(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::from_parts(
            (0..250)
                .map(|_| {
                    let p =
                        Point::new2(rng.gen_range(-50..50) as f64, rng.gen_range(-50..50) as f64);
                    let doc: Vec<Keyword> = (0..rng.gen_range(1..5))
                        .map(|_| rng.gen_range(0..8))
                        .collect();
                    (p, doc)
                })
                .collect(),
        )
    }

    #[test]
    fn baselines_agree_on_rect_queries() {
        let data = dataset(1);
        let kf = KeywordsFirst::build(&data);
        let sf = StructuredFirst::build(&data);
        let fs = FullScan::new(&data);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let x: f64 = rng.gen_range(-60.0..60.0);
            let y: f64 = rng.gen_range(-60.0..60.0);
            let q = Rect::new(&[x, y], &[x + 30.0, y + 30.0]);
            let w1 = rng.gen_range(0..8);
            let w2 = (w1 + 1 + rng.gen_range(0..7)) % 8;
            let mut a = kf.query_rect(&q, &[w1, w2]);
            let mut b = sf.query_rect(&q, &[w1, w2]);
            let c = fs.query_rect(&q, &[w1, w2]);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, c);
            assert_eq!(b, c);
        }
    }

    #[test]
    fn baselines_agree_on_ball_queries() {
        let data = dataset(11);
        let kf = KeywordsFirst::build(&data);
        let sf = StructuredFirst::build(&data);
        let fs = FullScan::new(&data);
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..40 {
            let q = Ball::new(
                Point::new2(rng.gen_range(-60..60) as f64, rng.gen_range(-60..60) as f64),
                rng.gen_range(0..40) as f64,
            );
            let w1 = rng.gen_range(0..8);
            let w2 = (w1 + 1 + rng.gen_range(0..7)) % 8;
            let mut a = kf.query_ball(&q, &[w1, w2]);
            let mut b = sf.query_ball(&q, &[w1, w2]);
            let c = fs.query_ball(&q, &[w1, w2]);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, c);
            assert_eq!(b, c);
        }
    }

    #[test]
    fn baselines_agree_on_nn_queries() {
        let data = dataset(21);
        let kf = KeywordsFirst::build(&data);
        let sf = StructuredFirst::build(&data);
        let fs = FullScan::new(&data);
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..30 {
            let q = Point::new2(rng.gen_range(-60..60) as f64, rng.gen_range(-60..60) as f64);
            let t = rng.gen_range(1..6);
            let w1 = rng.gen_range(0..8);
            let w2 = (w1 + 1 + rng.gen_range(0..7)) % 8;
            let a = kf.nn_linf(&q, t, &[w1, w2]);
            let b = sf.nn_linf(&q, t, &[w1, w2]);
            let c = fs.nn_linf(&q, t, &[w1, w2]);
            assert_eq!(a, c);
            assert_eq!(b, c);
            let a = kf.nn_l2(&q, t, &[w1, w2]);
            let b = sf.nn_l2(&q, t, &[w1, w2]);
            let c = fs.nn_l2(&q, t, &[w1, w2]);
            assert_eq!(a, c);
            assert_eq!(b, c);
        }
    }
}
