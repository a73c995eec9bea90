//! Build-path guards.
//!
//! Golden digests: every framework-based index must build to exactly
//! the same structure, byte for byte, as the recorded reference. The
//! digests are FNV-1a over the snapshot encoding (`to_bytes()`) where
//! the index persists, and over the per-node summaries plus the space
//! accounting where it does not (KSI, the Willard partition tree). A
//! build-path optimisation must leave every digest unchanged; a
//! deliberate change to the built structure (which would also need a
//! `SCHEMA_VERSION` decision) must re-record them and say why.
//!
//! Keyword relabelling: the build works on keywords remapped onto dense
//! ids, so the structure must depend only on the keywords' order, not
//! their values — relabelling through a strictly increasing map into
//! sparse `u32` values (0 and `u32::MAX` included) changes nothing.

use proptest::prelude::*;
use structured_keyword_search::core::dynamic::DynamicOrpKw;
use structured_keyword_search::core::framework::{
    FrameworkConfig, KdPartitioner, TransformedIndex,
};
use structured_keyword_search::core::naive;
use structured_keyword_search::core::persist::fnv1a64;
use structured_keyword_search::core::suite::OrpKwSuite;
use structured_keyword_search::prelude::*;
use structured_keyword_search::workload::scenarios;

/// The two seeded datasets every digest is taken over.
fn datasets() -> [(&'static str, Dataset); 2] {
    [
        ("city", scenarios::city(3_000, 7)),
        ("web_docs", scenarios::web_docs(2_000, 9)),
    ]
}

fn bytes_digest<T: Persist>(index: &T) -> u64 {
    fnv1a64(&index.to_bytes().expect("the index persists"))
}

/// Digest of `(level, weight, pivots, large)` per node, in node order,
/// followed by the space accounting.
fn summary_digest(
    summaries: impl IntoIterator<Item = (u32, u64, usize, usize)>,
    space_words: usize,
) -> u64 {
    let mut buf = Vec::new();
    for (level, weight, pivots, large) in summaries {
        buf.extend_from_slice(&level.to_le_bytes());
        buf.extend_from_slice(&weight.to_le_bytes());
        buf.extend_from_slice(&(pivots as u64).to_le_bytes());
        buf.extend_from_slice(&(large as u64).to_le_bytes());
    }
    buf.extend_from_slice(&(space_words as u64).to_le_bytes());
    fnv1a64(&buf)
}

/// The dynamic index after inserting every object and deleting every
/// fifth, so it holds several logarithmic-method blocks plus tombstones.
fn dynamic(d: &Dataset) -> DynamicOrpKw {
    let mut dy = DynamicOrpKw::new(d.dim(), 2);
    for i in 0..d.len() {
        dy.insert(*d.point(i), d.doc(i).keywords().to_vec());
    }
    for id in (0..d.len() as u64).step_by(5) {
        assert!(dy.delete_by_id(id));
    }
    dy
}

/// The KSI tree's `(level, weight, pivots, large)` per node: the 1-D
/// framework over object ids, built exactly as `KsiIndex::try_build`
/// builds it.
fn ksi_summaries(d: &Dataset) -> Vec<(u32, u64, usize, usize)> {
    let docs = d.docs().to_vec();
    let points: Vec<Point> = (0..docs.len()).map(|i| Point::new1(i as f64)).collect();
    let weights: Vec<u64> = docs.iter().map(|doc| doc.len() as u64).collect();
    let tree = TransformedIndex::build(
        KdPartitioner::new(points, weights),
        docs,
        2,
        FrameworkConfig::default(),
    );
    tree.node_summaries().collect()
}

fn ksi_digest(d: &Dataset) -> u64 {
    let space = KsiIndex::build(d.docs(), 2).space_words();
    summary_digest(ksi_summaries(d), space)
}

fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (name, d) in datasets() {
        let mut push = |what: &str, digest: u64| out.push((format!("{name}/{what}"), digest));
        push("orp_k2", bytes_digest(&OrpKwIndex::build(&d, 2)));
        push("orp_k3", bytes_digest(&OrpKwIndex::build(&d, 3)));
        push("suite_kmax4", bytes_digest(&OrpKwSuite::build(&d, 4)));
        push(
            "sp_kd",
            bytes_digest(&SpKwIndex::build_with_strategy(&d, 2, SpStrategy::Kd)),
        );
        let willard = SpKwIndex::build_with_strategy(&d, 2, SpStrategy::Willard);
        push(
            "sp_willard",
            summary_digest(willard.node_summaries(), willard.space_words()),
        );
        push("srp", bytes_digest(&SrpKwIndex::build(&d, 2)));
        push("dynamic", bytes_digest(&dynamic(&d)));
        push("ksi", ksi_digest(&d));
    }
    out
}

/// Recorded on the build path that predates the dense-keyword build.
const GOLDEN: &[(&str, u64)] = &[
    ("city/orp_k2", 0xc84ed58e7d4ddd61),
    ("city/orp_k3", 0xc198c7f9a6ec597b),
    ("city/suite_kmax4", 0x6a32c4c7e0607772),
    ("city/sp_kd", 0x5f0abc214d1c9073),
    ("city/sp_willard", 0x57fc07c6a14f0300),
    ("city/srp", 0x3c3a2423b5fd2c1c),
    ("city/dynamic", 0x3ab6e0aacf467a00),
    ("city/ksi", 0xd6b3b94943d732b5),
    ("web_docs/orp_k2", 0xd1fc64381c9c7893),
    ("web_docs/orp_k3", 0x562f3f46fc3f2abd),
    ("web_docs/suite_kmax4", 0x5c5674e113222f12),
    ("web_docs/sp_kd", 0x7db39aa1dca3b5cc),
    ("web_docs/sp_willard", 0xe38bb0464d4f34b6),
    ("web_docs/srp", 0xadf0502cd40942cc),
    ("web_docs/dynamic", 0x8eef16e9b13b339f),
    ("web_docs/ksi", 0x8e2798316315ad91),
];

#[test]
fn built_structures_match_the_golden_digests() {
    let got = digests();
    let rendered: Vec<String> = got
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", {h:#018x}),"))
        .collect();
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, h)| (n.to_string(), h)).collect();
    assert_eq!(got, want, "digests now:\n{}", rendered.join("\n"));
}

const VOCAB: u32 = 9;

/// Small 2-D datasets on an integer grid (rank-space ties), documents
/// of 1–5 keywords from `0..VOCAB`.
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(
        (
            (0i32..12, 0i32..12),
            prop::collection::vec(0u32..VOCAB, 1..6),
        ),
        8..160,
    )
    .prop_map(|raw| {
        Dataset::from_parts(
            raw.into_iter()
                .map(|((x, y), kws)| (Point::new2(f64::from(x), f64::from(y)), kws))
                .collect(),
        )
    })
}

/// A strictly increasing map of `0..VOCAB` into `u32` with `0 ↦ 0` and
/// `VOCAB − 1 ↦ u32::MAX`: keyword `i` sits `i` steps up, pulled down
/// by a jitter of less than half a step.
fn relabel_strategy() -> impl Strategy<Value = Vec<Keyword>> {
    let step = u32::MAX / (VOCAB - 1);
    prop::collection::vec(0..step / 2, VOCAB as usize).prop_map(move |jitter| {
        (0..VOCAB)
            .map(|i| match i {
                0 => 0,
                _ if i == VOCAB - 1 => u32::MAX,
                _ => i * step - jitter[i as usize],
            })
            .collect()
    })
}

fn relabelled(d: &Dataset, map: &[Keyword]) -> Dataset {
    Dataset::from_parts(
        (0..d.len())
            .map(|i| {
                let kws = d.doc(i).keywords().iter().map(|&w| map[w as usize]);
                (*d.point(i), kws.collect())
            })
            .collect(),
    )
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sparse_keyword_ids_build_the_same_structure(
        d in dataset_strategy(),
        map in relabel_strategy(),
        (x, y, w, h) in (0i32..12, 0i32..12, 0i32..13, 0i32..13),
        (a, b, c) in (0u32..VOCAB, 0u32..VOCAB, 0u32..VOCAB),
    ) {
        let sparse = relabelled(&d, &map);
        let q = Rect::new(
            &[f64::from(x), f64::from(y)],
            &[f64::from(x + w), f64::from(y + h)],
        );
        for k in 2..=3usize {
            let dense_ix = OrpKwIndex::build(&d, k);
            let sparse_ix = OrpKwIndex::build(&sparse, k);
            prop_assert_eq!(dense_ix.kd_node_summaries(), sparse_ix.kd_node_summaries());
            prop_assert_eq!(dense_ix.space_words(), sparse_ix.space_words());
            // Distinct query keywords, padded from the vocabulary.
            let mut kws: Vec<Keyword> = Vec::new();
            for cand in [a, b, c].into_iter().chain(0..VOCAB) {
                if kws.len() < k && !kws.contains(&cand) {
                    kws.push(cand);
                }
            }
            let sparse_kws: Vec<Keyword> = kws.iter().map(|&w| map[w as usize]).collect();
            let want = naive::brute_rect(&d, &q, &kws);
            prop_assert_eq!(&sorted(dense_ix.query(&q, &kws)), &want);
            prop_assert_eq!(&sorted(sparse_ix.query(&q, &sparse_kws)), &want);
            prop_assert_eq!(&naive::brute_rect(&sparse, &q, &sparse_kws), &want);
        }
        prop_assert_eq!(ksi_summaries(&d), ksi_summaries(&sparse));
    }
}
