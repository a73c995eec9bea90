//! Build-path guards.
//!
//! Golden digests: every framework-based index must build to exactly
//! the same structure, byte for byte, as the recorded reference. The
//! digests are FNV-1a over the snapshot encoding (`to_bytes()`) where
//! the index persists, and over the per-node summaries plus the space
//! accounting where it does not (KSI, both SP-KW strategies, SRP-KW);
//! the kd-based SP-KW and SRP-KW digests also fold in the traversal of
//! a seeded query set, which pins the order of each node's lists. A
//! build-path optimisation must leave every digest unchanged; a
//! deliberate change to the built structure (which would also need a
//! `SCHEMA_VERSION` decision) must re-record them and say why.
//!
//! Keyword relabelling: the build works on keywords remapped onto dense
//! ids, so the structure must depend only on the keywords' order, not
//! their values — relabelling through a strictly increasing map into
//! sparse `u32` values (0 and `u32::MAX` included) changes nothing.

use std::sync::Arc;

use proptest::prelude::*;
use structured_keyword_search::core::dynamic::DynamicOrpKw;
use structured_keyword_search::core::framework::{doc_weights, KdPartitioner, TransformedIndex};
use structured_keyword_search::core::naive;
use structured_keyword_search::core::persist::fnv1a64;
use structured_keyword_search::core::suite::OrpKwSuite;
use structured_keyword_search::prelude::*;
use structured_keyword_search::workload::queries::QueryGen;
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

/// Folds a seeded query set's traversal into `digest`: per query, the
/// counters and the answers in the order the tree emits them. Node
/// summaries hold each node's list lengths, not the lists' order; the
/// emission order pins that too (the kd split's id tie-break among
/// equal coordinates decides it). The keywords are drawn from the most
/// frequent, so the queries read long materialized lists.
fn traversal_digest<S>(
    digest: u64,
    d: &Dataset,
    mut shape: impl FnMut(&mut QueryGen, usize) -> S,
    mut run: impl FnMut(&S, &[Keyword]) -> (Vec<u32>, QueryStats),
) -> u64 {
    let mut gen = QueryGen::new(d, 17);
    let mut buf = digest.to_le_bytes().to_vec();
    for i in 0..60 {
        let q = shape(&mut gen, i);
        let kws = gen.keywords(2, [0.0, 0.0, 0.1][i % 3]).unwrap();
        let (hits, s) = run(&q, &kws);
        for c in [s.nodes_visited, s.pivot_scans, s.list_scans, s.reported] {
            buf.extend_from_slice(&c.to_le_bytes());
        }
        for id in hits {
            buf.extend_from_slice(&id.to_le_bytes());
        }
    }
    fnv1a64(&buf)
}

/// The dynamic index after inserting every object and deleting every
/// fifth, so it holds several logarithmic-method blocks plus tombstones.
fn dynamic(d: &Dataset) -> DynamicOrpKw {
    let mut dy = DynamicOrpKw::new(d.dim(), 2);
    for i in 0..d.len() {
        dy.try_insert(*d.point(i), d.doc(i).keywords().to_vec())
            .unwrap();
    }
    for id in (0..d.len() as u64).step_by(5) {
        assert!(dy.delete_by_id(id));
    }
    dy
}

/// The KSI tree: the 1-D framework over object ids, built exactly as
/// `KsiIndex::try_build` builds it.
fn ksi_tree(d: &Dataset) -> TransformedIndex<KdPartitioner> {
    let docs = Arc::clone(d.shared_docs());
    let coords = (0..docs.len()).map(|i| i as f64).collect();
    TransformedIndex::try_build(
        KdPartitioner::new(1, coords, doc_weights(&docs)),
        docs,
        2..=2,
    )
    .unwrap()
}

/// The KSI tree's `(level, weight, pivots, large)` per node.
fn ksi_summaries(d: &Dataset) -> Vec<(u32, u64, usize, usize)> {
    ksi_tree(d).node_summaries(2).collect()
}

fn ksi_digest(d: &Dataset) -> u64 {
    let space = KsiIndex::try_build(d.docs(), 2).unwrap().space_words();
    summary_digest(ksi_summaries(d), space)
}

fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (name, d) in datasets() {
        let mut push = |what: &str, digest: u64| out.push((format!("{name}/{what}"), digest));
        push(
            "orp_k2",
            bytes_digest(&OrpKwIndex::try_build(&d, 2).unwrap()),
        );
        push(
            "orp_k3",
            bytes_digest(&OrpKwIndex::try_build(&d, 3).unwrap()),
        );
        push(
            "suite_kmax4",
            bytes_digest(&OrpKwSuite::try_build(&d, 4).unwrap()),
        );
        let kd = SpKwIndex::try_build_with_strategy(&d, 2, SpStrategy::Kd).unwrap();
        push(
            "sp_kd",
            traversal_digest(
                summary_digest(kd.node_summaries(), kd.space_words()),
                &d,
                |gen, _| gen.halfspaces(2),
                |q, kws| kd.query_with_stats(q, kws).unwrap(),
            ),
        );
        let willard = SpKwIndex::try_build_with_strategy(&d, 2, SpStrategy::Willard).unwrap();
        push(
            "sp_willard",
            summary_digest(willard.node_summaries(), willard.space_words()),
        );
        let srp = SrpKwIndex::try_build(&d, 2).unwrap();
        push(
            "srp",
            traversal_digest(
                summary_digest(srp.node_summaries(), srp.space_words()),
                &d,
                |gen, i| gen.ball([0.05, 0.2, 0.5][i % 3]),
                |q, kws| srp.query_with_stats(q, kws).unwrap(),
            ),
        );
        push("dynamic", bytes_digest(&dynamic(&d)));
        push("ksi", ksi_digest(&d));
    }
    out
}

/// Recorded on the build path that predates the dense-keyword build.
/// The `suite_kmax4` digests were re-recorded when the suite moved from
/// one index per `k` (plus its own dataset copy) to one tree with a
/// keyword layer per `k`: the page layout changed, the layers did not
/// (see `suite_layers_equal_the_single_k_indexes`). The `sp_kd` and
/// `srp` digests were re-recorded when those indexes lost their snapshot
/// format: they now hash the node summaries, the space accounting and a
/// seeded query set's traversal instead of `to_bytes()`; the built
/// structures did not change.
const GOLDEN: &[(&str, u64)] = &[
    ("city/orp_k2", 0xc84ed58e7d4ddd61),
    ("city/orp_k3", 0xc198c7f9a6ec597b),
    ("city/suite_kmax4", 0x1333d95dc7f223be),
    ("city/sp_kd", 0x166c6901b2b79963),
    ("city/sp_willard", 0x57fc07c6a14f0300),
    ("city/srp", 0x9658ebef8528fbb7),
    ("city/dynamic", 0x3ab6e0aacf467a00),
    ("city/ksi", 0xd6b3b94943d732b5),
    ("web_docs/orp_k2", 0xd1fc64381c9c7893),
    ("web_docs/orp_k3", 0x562f3f46fc3f2abd),
    ("web_docs/suite_kmax4", 0xb58af8dce19badb4),
    ("web_docs/sp_kd", 0xe78f721b6f11939a),
    ("web_docs/sp_willard", 0xe38bb0464d4f34b6),
    ("web_docs/srp", 0x42db666afc8ef46f),
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

/// The golden digests cover the build path; this covers the load path.
/// For every engine above, decoding its snapshot (which fills the flat
/// node arena and layer pools directly) and encoding the result again
/// must give back the same bytes. SP-KW and SRP-KW have no snapshot
/// encoding; the KSI index is checked through its tree.
#[test]
fn decoded_snapshots_reencode_byte_identically() {
    fn roundtrip<T: Persist>(what: &str, index: &T) {
        let bytes = index.to_bytes().expect("the index persists");
        let decoded = T::try_from_bytes(&bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
        let again = decoded.to_bytes().expect("a decoded index persists");
        assert!(
            again == bytes,
            "{what}: re-encoding the decoded snapshot differs"
        );
    }
    for (name, d) in datasets() {
        roundtrip(
            &format!("{name}/orp_k2"),
            &OrpKwIndex::try_build(&d, 2).unwrap(),
        );
        roundtrip(
            &format!("{name}/orp_k3"),
            &OrpKwIndex::try_build(&d, 3).unwrap(),
        );
        roundtrip(
            &format!("{name}/suite_kmax4"),
            &OrpKwSuite::try_build(&d, 4).unwrap(),
        );
        roundtrip(&format!("{name}/dynamic"), &dynamic(&d));
        roundtrip(&format!("{name}/ksi"), &ksi_tree(&d));
    }
}

/// The suite builds one tree and a keyword layer per `k`; each layer must
/// be the standalone single-`k` index: the same per-node summaries, and
/// the same traversal — node visits, pivot and list scans, reports — on
/// every query of a seeded rectangle set.
#[test]
fn suite_layers_equal_the_single_k_indexes() {
    for (name, d) in datasets() {
        let suite = OrpKwSuite::try_build(&d, 4).unwrap();
        let mut gen = QueryGen::new(&d, 17);
        for k in 2..=4 {
            let single = OrpKwIndex::try_build(&d, k).unwrap();
            assert_eq!(
                suite.index().kd_node_summaries(k),
                single.kd_node_summaries(k),
                "{name}: layer k = {k}"
            );
            assert!(single.kd_node_summaries(k).is_some());
            for i in 0..60 {
                let q = gen.rect([0.01, 0.05, 0.2][i % 3]);
                let kws = gen
                    .keywords(k, [0.0, 0.3, 0.7][i % 3])
                    .expect("enough distinct keywords");
                let (mut got, s) = suite.query_with_stats(&q, &kws).unwrap();
                let (mut want, w) = single.query_with_stats(&q, &kws).unwrap();
                let counters =
                    |s: &QueryStats| (s.nodes_visited, s.pivot_scans, s.list_scans, s.reported);
                assert_eq!(counters(&s), counters(&w), "{name}: k = {k}, query {i}");
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "{name}: k = {k}, query {i}");
            }
        }
    }
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
            let dense_ix = OrpKwIndex::try_build(&d, k).unwrap();
            let sparse_ix = OrpKwIndex::try_build(&sparse, k).unwrap();
            prop_assert_eq!(dense_ix.kd_node_summaries(k), sparse_ix.kd_node_summaries(k));
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
            prop_assert_eq!(&sorted(dense_ix.query(&q, &kws).unwrap()), &want);
            prop_assert_eq!(&sorted(sparse_ix.query(&q, &sparse_kws).unwrap()), &want);
            prop_assert_eq!(&naive::brute_rect(&sparse, &q, &sparse_kws), &want);
        }
        prop_assert_eq!(ksi_summaries(&d), ksi_summaries(&sparse));
    }
}
