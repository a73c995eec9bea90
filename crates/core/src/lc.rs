//! Linear conjunction with keywords (LC-KW; Theorem 5).
//!
//! A query supplies `s = O(1)` linear constraints `Σᵢ cᵢ·x[i] ≤ c_{d+1}`
//! plus `k` keywords; the answer is every matching object satisfying all
//! constraints. The paper reduces LC-KW to SP-KW by partitioning the
//! constraint polyhedron into `O(1)` simplices; since our SP-KW index
//! ([`SpKwIndex`]) answers arbitrary halfspace conjunctions directly
//! (the framework only needs cell-vs-region classification), the
//! decomposition step is unnecessary and the constraints are passed
//! through unchanged — the same `O(1)` factor, one query instead of
//! several.
//!
//! LC-KW also gives an alternative linear-space ORP-KW index (a
//! `d`-rectangle is `2d` linear constraints,
//! [`ConvexPolytope::from_rect`]), realizing Table 1's "`d ≤ k`, `O(N)`
//! space" row.

use std::ops::ControlFlow;

use skq_geom::ConvexPolytope;
use skq_invidx::Keyword;

use crate::dataset::Dataset;
use crate::error::SkqError;
use crate::failpoints;
use crate::query::KwQuery;
use crate::sink::ResultSink;
use crate::sp::{SpKwIndex, SpStrategy};
use crate::stats::QueryStats;

/// The LC-KW index.
pub struct LcKwIndex {
    sp: SpKwIndex,
}

impl LcKwIndex {
    /// Builds the index for exactly-`k`-keyword queries.
    pub fn build(dataset: &Dataset, k: usize) -> Self {
        Self::try_build(dataset, k).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`build`](Self::build).
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidQuery` if `k` is outside `2..=16`.
    pub fn try_build(dataset: &Dataset, k: usize) -> Result<Self, SkqError> {
        failpoints::check("lc::build")?;
        Ok(Self {
            sp: SpKwIndex::try_build(dataset, k)?,
        })
    }

    /// Fallible [`build`](Self::build) with a space-admission budget
    /// (see [`SpKwIndex::try_build_with_budget`]). The planner uses
    /// this as the linear-space middle tier of its degradation ladder.
    ///
    /// # Errors
    ///
    /// `SkqError::BuildBudgetExceeded` when the finished index is over
    /// budget; otherwise the [`try_build`](Self::try_build) conditions.
    pub fn try_build_with_budget(
        dataset: &Dataset,
        k: usize,
        max_space_words: Option<usize>,
    ) -> Result<Self, SkqError> {
        failpoints::check("lc::build")?;
        Ok(Self {
            sp: SpKwIndex::try_build_with_budget(dataset, k, max_space_words)?,
        })
    }

    /// Builds with an explicit partition strategy.
    pub fn build_with_strategy(dataset: &Dataset, k: usize, strategy: SpStrategy) -> Self {
        Self {
            sp: SpKwIndex::build_with_strategy(dataset, k, strategy),
        }
    }

    /// The number of query keywords the index was built for.
    pub fn k(&self) -> usize {
        self.sp.k()
    }

    /// Index space in 64-bit words.
    pub fn space_words(&self) -> usize {
        self.sp.space_words()
    }

    /// Deep structural validation (DESIGN.md §12): delegates to the
    /// inner SP-KW index.
    ///
    /// # Errors
    ///
    /// The first violated invariant, by name.
    pub fn validate(&self) -> Result<(), crate::invariants::InvariantViolation> {
        self.sp.validate()
    }
}

impl KwQuery for LcKwIndex {
    /// The constraint conjunction `Σᵢ cᵢ·x[i] ≤ c_{d+1}`; a rectangle
    /// is `2d` of them ([`ConvexPolytope::from_rect`]).
    type Shape = ConvexPolytope;

    fn check(&self, constraints: &ConvexPolytope, keywords: &[Keyword]) -> Result<(), SkqError> {
        self.sp.check(constraints, keywords)
    }

    fn query_sink<S: ResultSink>(
        &self,
        constraints: &ConvexPolytope,
        keywords: &[Keyword],
        sink: &mut S,
        stats: &mut QueryStats,
    ) -> ControlFlow<()> {
        self.sp.query_sink(constraints, keywords, sink, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use skq_geom::{Halfspace, Point, Rect};

    /// The paper's introductory example: hotels with price, rating, and
    /// feature tags; condition C2 is `c₁·price + c₂·(10 − rating) ≤ c₃`.
    #[test]
    fn intro_example_condition_c2() {
        const POOL: u32 = 0;
        const PARKING: u32 = 1;
        const PETS: u32 = 2;
        let hotels = Dataset::from_parts(vec![
            (Point::new2(100.0, 9.0), vec![POOL, PARKING, PETS]),
            (Point::new2(250.0, 9.5), vec![POOL, PARKING, PETS]),
            (Point::new2(120.0, 6.0), vec![POOL, PARKING, PETS]),
            (Point::new2(110.0, 8.5), vec![POOL]),
        ]);
        let index = LcKwIndex::build(&hotels, 3);
        // price + 50·(10 − rating) ≤ 200  ⇔  price − 50·rating ≤ −300.
        let c2 = Halfspace::new(&[1.0, -50.0], -300.0);
        let c2 = ConvexPolytope::new(vec![c2]);
        let mut got = index.query(&c2, &[POOL, PARKING, PETS]).unwrap();
        got.sort_unstable();
        // Hotel 0: 100 − 450 = −350 ✓; hotel 1: 250 − 475 = −225 ✗;
        // hotel 2: 120 − 300 = −180 ✗; hotel 3: keywords missing.
        assert_eq!(got, vec![0]);
    }

    #[test]
    fn rect_through_lc_matches_direct() {
        use crate::orp::OrpKwIndex;
        let mut rng = StdRng::seed_from_u64(7);
        let dataset = Dataset::from_parts(
            (0..300)
                .map(|_| {
                    let p = Point::new2(rng.gen_range(-20.0..20.0), rng.gen_range(-20.0..20.0));
                    let doc: Vec<Keyword> = (0..rng.gen_range(1..5))
                        .map(|_| rng.gen_range(0..8))
                        .collect();
                    (p, doc)
                })
                .collect(),
        );
        let lc = LcKwIndex::build(&dataset, 2);
        let orp = OrpKwIndex::build(&dataset, 2);
        for _ in 0..40 {
            let x0: f64 = rng.gen_range(-25.0..25.0);
            let x1: f64 = rng.gen_range(-25.0..25.0);
            let y0: f64 = rng.gen_range(-25.0..25.0);
            let y1: f64 = rng.gen_range(-25.0..25.0);
            let q = Rect::new(&[x0.min(x1), y0.min(y1)], &[x0.max(x1), y0.max(y1)]);
            let w1 = rng.gen_range(0..8);
            let w2 = (w1 + 1 + rng.gen_range(0..7)) % 8;
            let mut a = lc.query(&ConvexPolytope::from_rect(&q), &[w1, w2]).unwrap();
            let mut b = orp.query(&q, &[w1, w2]).unwrap();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn invalid_input_is_a_typed_error() {
        let mut rng = StdRng::seed_from_u64(77);
        let dataset = Dataset::from_parts(
            (0..150)
                .map(|_| {
                    let p = Point::new2(rng.gen_range(-20.0..20.0), rng.gen_range(-20.0..20.0));
                    let doc: Vec<Keyword> = (0..rng.gen_range(1..4))
                        .map(|_| rng.gen_range(0..6))
                        .collect();
                    (p, doc)
                })
                .collect(),
        );
        let index = LcKwIndex::try_build(&dataset, 2).unwrap();
        let cs = ConvexPolytope::new(vec![Halfspace::new(&[1.0, 1.0], 5.0)]);
        assert!(matches!(
            LcKwIndex::try_build(&dataset, 1),
            Err(SkqError::InvalidQuery(_))
        ));
        assert!(matches!(
            index.query(&cs, &[0, 0]),
            Err(SkqError::InvalidQuery(_))
        ));
        assert!(matches!(
            LcKwIndex::try_build_with_budget(&dataset, 2, Some(1)),
            Err(SkqError::BuildBudgetExceeded { .. })
        ));
    }

    #[test]
    fn higher_dimensional_constraints() {
        let mut rng = StdRng::seed_from_u64(17);
        let dataset = Dataset::from_parts(
            (0..200)
                .map(|_| {
                    let coords: Vec<f64> = (0..4).map(|_| rng.gen_range(-10.0..10.0)).collect();
                    let doc: Vec<Keyword> = (0..rng.gen_range(1..4))
                        .map(|_| rng.gen_range(0..6))
                        .collect();
                    (Point::new(&coords), doc)
                })
                .collect(),
        );
        let index = LcKwIndex::build(&dataset, 2);
        let cs = [
            Halfspace::new(&[1.0, 1.0, 1.0, 1.0], 5.0),
            Halfspace::new(&[-1.0, 0.5, 0.0, 0.0], 3.0),
        ];
        let mut got = index
            .query(&ConvexPolytope::new(cs.to_vec()), &[0, 1])
            .unwrap();
        got.sort_unstable();
        let expected: Vec<u32> = (0..dataset.len() as u32)
            .filter(|&i| {
                dataset.doc(i as usize).contains_all(&[0, 1])
                    && cs.iter().all(|h| h.contains(dataset.point(i as usize)))
            })
            .collect();
        assert_eq!(got, expected);
    }
}
