//! Pure `k`-set intersection (k-SI; §1.2).
//!
//! "Pure" keyword search — computing `D(w₁, …, w_k)` with no geometric
//! predicate — is exactly the `k`-set intersection problem: keyword `w`
//! names the set `S_w` of object ids containing it. §1.2 shows the two
//! problems are interreducible, and the paper's framework (with the
//! geometry ignored) matches the best known bound
//! `O(N^{1−1/k}(1 + OUT^{1/k}))` of Cohen–Porat (k = 2) generalized to
//! any constant `k`.
//!
//! [`KsiIndex`] realizes the reduction of §1.2 in the forward direction:
//! it builds the 1-dimensional kd-tree framework over object ids, and a
//! reporting query is a full-space ORP-KW query — demonstrating that the
//! framework's geometry machinery collapses gracefully when no geometry
//! is present.

use std::ops::ControlFlow;

use skq_geom::Region;
use skq_invidx::{Document, Keyword};

use crate::error::{validate, SkqError};
use crate::failpoints;
use crate::framework::{doc_weights, FrameworkConfig, KdPartitioner, TransformedIndex};
use crate::query::KwQuery;
use crate::sink::ResultSink;
use crate::stats::QueryStats;

/// The k-SI index over a family of sets given as documents.
///
/// # Example
///
/// ```
/// use skq_core::ksi::KsiIndex;
/// use skq_core::query::KwQuery;
///
/// // S0 = {0, 1}, S1 = {1, 2}: elements carry their set memberships.
/// let index = KsiIndex::try_from_sets(&[vec![0, 1], vec![1, 2]], 3, 2)?;
/// assert_eq!(index.query(&(), &[0, 1])?, vec![1]);
/// assert!(index.count_at_least(&(), &[0, 1], 1)?); // non-empty
/// # Ok::<(), skq_core::SkqError>(())
/// ```
pub struct KsiIndex {
    tree: TransformedIndex<KdPartitioner>,
}

impl KsiIndex {
    /// Builds the index: element `i` belongs to set `w` iff
    /// `docs[i]` contains `w` (the inverted-view of `m` sets as
    /// per-element membership documents, per §1.2).
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidDataset` if `docs` is empty;
    /// `SkqError::InvalidQuery` if `k` is outside `2..=16`.
    pub fn try_build(docs: &[Document], k: usize) -> Result<Self, SkqError> {
        validate::build_k(k)?;
        failpoints::check("ksi::build")?;
        if docs.is_empty() {
            return Err(SkqError::InvalidDataset(
                "cannot index an empty set family".into(),
            ));
        }
        let coords = (0..docs.len()).map(|i| i as f64).collect();
        let partitioner = KdPartitioner::new(1, coords, doc_weights(docs));
        let tree = TransformedIndex::try_build(
            partitioner,
            docs.to_vec(),
            k..=k,
            FrameworkConfig::default(),
        )?;
        Ok(Self { tree })
    }

    /// Builds from explicit sets `S₁, …, S_m` over elements `0..n` —
    /// the reverse reduction of §1.2 (`e.Doc := {i | e ∈ Sᵢ}`).
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidDataset` if an element is out of range or
    /// belongs to no set (documents must be non-empty); otherwise the
    /// [`try_build`](Self::try_build) conditions.
    pub fn try_from_sets(sets: &[Vec<u32>], n: usize, k: usize) -> Result<Self, SkqError> {
        let mut kws: Vec<Vec<Keyword>> = vec![Vec::new(); n];
        for (si, set) in sets.iter().enumerate() {
            for &e in set {
                let doc = kws.get_mut(e as usize).ok_or_else(|| {
                    SkqError::InvalidDataset(format!("element {e} is outside 0..{n}"))
                })?;
                doc.push(si as Keyword);
            }
        }
        if let Some(e) = kws.iter().position(Vec::is_empty) {
            return Err(SkqError::InvalidDataset(format!(
                "element {e} belongs to no set"
            )));
        }
        let docs: Vec<Document> = kws.into_iter().map(Document::new).collect();
        Self::try_build(&docs, k)
    }

    /// The number of query keywords `k`.
    pub fn k(&self) -> usize {
        self.tree.k()
    }

    /// The input size `N = Σ |Sᵢ| = Σ |Doc|`.
    pub fn input_size(&self) -> u64 {
        self.tree.input_size()
    }

    /// Index space in 64-bit words.
    pub fn space_words(&self) -> usize {
        self.tree.space_words(3)
    }

    /// Deep structural validation (DESIGN.md §12): delegates to the
    /// underlying framework tree.
    ///
    /// # Errors
    ///
    /// The first violated invariant, by name.
    pub fn validate(&self) -> Result<(), crate::invariants::InvariantViolation> {
        self.tree.validate()
    }
}

/// A reporting query is `⋂ᵢ S_{wᵢ}`; an emptiness query (§1.2,
/// footnote 4) is `!count_at_least(&(), keywords, 1)`, a reporting query
/// cut off at the first result.
impl KwQuery for KsiIndex {
    /// Pure keyword search: no geometric predicate.
    type Shape = ();

    fn check(&self, _: &(), keywords: &[Keyword]) -> Result<(), SkqError> {
        validate::distinct_keywords(keywords, self.k())
    }

    /// A full-space ORP-KW traversal: each element of `⋂ᵢ S_{wᵢ}` is
    /// emitted as it is found.
    fn query_sink<S: ResultSink>(
        &self,
        _: &(),
        keywords: &[Keyword],
        sink: &mut S,
        stats: &mut QueryStats,
    ) -> ControlFlow<()> {
        self.tree
            .query_sink(keywords, &|_| Region::Covered, &|_| true, sink, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use skq_invidx::InvertedIndex;

    fn random_docs(n: usize, vocab: u32, seed: u64) -> Vec<Document> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let len = rng.gen_range(1..7);
                Document::new((0..len).map(|_| rng.gen_range(0..vocab)).collect())
            })
            .collect()
    }

    #[test]
    fn matches_inverted_index_k2() {
        let docs = random_docs(400, 12, 1);
        let ksi = KsiIndex::try_build(&docs, 2).unwrap();
        ksi.validate().unwrap();
        let inv = InvertedIndex::build(&docs);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let w1 = rng.gen_range(0..12);
            let w2 = (w1 + 1 + rng.gen_range(0..11)) % 12;
            let mut got = ksi.query(&(), &[w1, w2]).unwrap();
            got.sort_unstable();
            assert_eq!(got, inv.intersect(&[w1, w2]), "[{w1},{w2}]");
            let nonempty = ksi.count_at_least(&(), &[w1, w2], 1).unwrap();
            assert_eq!(nonempty, !got.is_empty());
        }
    }

    #[test]
    fn matches_inverted_index_k4() {
        let docs = random_docs(300, 6, 11);
        let ksi = KsiIndex::try_build(&docs, 4).unwrap();
        let inv = InvertedIndex::build(&docs);
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..60 {
            let mut ws: Vec<u32> = Vec::new();
            while ws.len() < 4 {
                let w = rng.gen_range(0..6);
                if !ws.contains(&w) {
                    ws.push(w);
                }
            }
            let mut got = ksi.query(&(), &ws).unwrap();
            got.sort_unstable();
            assert_eq!(got, inv.intersect(&ws));
        }
    }

    #[test]
    fn from_sets_reduction() {
        // S0 = {0,1,2}, S1 = {1,2,3}, S2 = {2,3,4}.
        let sets = vec![vec![0, 1, 2], vec![1, 2, 3], vec![2, 3, 4]];
        let ksi = KsiIndex::try_from_sets(&sets, 5, 2).unwrap();
        let mut got = ksi.query(&(), &[0, 1]).unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
        let mut got = ksi.query(&(), &[1, 2]).unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![2, 3]);
        assert!(ksi.count_at_least(&(), &[0, 2], 1).unwrap());
        assert_eq!(ksi.query(&(), &[0, 2]).unwrap(), vec![2]);
        assert!(matches!(
            KsiIndex::try_from_sets(&sets, 6, 2),
            Err(SkqError::InvalidDataset(m)) if m.contains("element 5 belongs to no set")
        ));
        assert!(matches!(
            KsiIndex::try_from_sets(&sets, 4, 2),
            Err(SkqError::InvalidDataset(m)) if m.contains("element 4 is outside 0..4")
        ));
    }

    #[test]
    fn invalid_input_is_a_typed_error() {
        let docs = random_docs(200, 8, 41);
        let ksi = KsiIndex::try_build(&docs, 2).unwrap();
        assert!(matches!(
            KsiIndex::try_build(&[], 2),
            Err(SkqError::InvalidDataset(_))
        ));
        assert!(matches!(
            KsiIndex::try_build(&docs, 1),
            Err(SkqError::InvalidQuery(_))
        ));
        assert!(matches!(
            ksi.query(&(), &[0, 0]),
            Err(SkqError::InvalidQuery(_))
        ));
    }

    #[test]
    fn count_at_least_thresholds() {
        let docs = random_docs(200, 3, 21);
        let ksi = KsiIndex::try_build(&docs, 2).unwrap();
        let inv = InvertedIndex::build(&docs);
        let truth = inv.intersect(&[0, 1]).len();
        assert!(ksi.count_at_least(&(), &[0, 1], truth).unwrap());
        assert!(!ksi.count_at_least(&(), &[0, 1], truth + 1).unwrap());
        assert!(ksi.count_at_least(&(), &[0, 1], 0).is_err());
        assert_eq!(ksi.count(&(), &[0, 1]).unwrap(), truth as u64);
    }
}
