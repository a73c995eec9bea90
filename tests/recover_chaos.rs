//! Chaos recovery battery (`cargo test --features failpoints`):
//! injected failures at every WAL append / fsync / checkpoint site,
//! followed by an unclean shutdown and recovery, must yield exactly
//! the acknowledged state — and indexes built from it must answer
//! rect / ball / NN queries identically to a brute-force oracle over
//! the acknowledged prefix, with replay bounded by the checkpoint
//! cadence. The process-abort variant of the same property runs in
//! CI's `crash-smoke` job via the `skq-crash` driver.

#![cfg(feature = "failpoints")]

use std::collections::HashMap;
use std::path::PathBuf;

use structured_keyword_search::core::dynamic::ObjectHandle;
use structured_keyword_search::core::failpoints::{self, FailAction};
use structured_keyword_search::core::suite::OrpKwSuite;
use structured_keyword_search::prelude::*;
use structured_keyword_search::store::{
    CheckpointPolicy, DurabilityConfig, DurableDynamic, SyncPolicy, WalConfig,
};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skq-rchaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

/// Real-durability cadence: fsync every append, tiny segments, a
/// checkpoint every `every_ops` acknowledged ops.
fn config(every_ops: u64) -> DurabilityConfig {
    DurabilityConfig {
        wal: WalConfig {
            sync: SyncPolicy::Always,
            segment_bytes: 4096,
        },
        checkpoint: CheckpointPolicy {
            every_ops,
            every_bytes: u64::MAX,
        },
    }
}

/// Tiny deterministic generator (xorshift64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// The acknowledged state: `(id, point, keywords)` per live object.
type Live = Vec<(u64, Point, Vec<Keyword>)>;

/// Drives `ops` seeded inserts/deletes against `durable`. When `site`
/// is set, a one-shot `FailAction::Err` is armed at that site before
/// every `inject_every`-th op. Returns the oracle of the *acknowledged*
/// state: an op that came back `Err` must leave no trace.
fn drive(
    durable: &mut DurableDynamic,
    seed: u64,
    ops: u64,
    site: Option<&str>,
    inject_every: u64,
) -> Live {
    let mut rng = Rng(seed | 1);
    let mut acked: Live = Vec::new();
    let mut handles: HashMap<u64, ObjectHandle> = HashMap::new();
    let mut failures = 0u64;
    let mut armed = None;
    for step in 0..ops {
        if let Some(site) = site {
            if step % inject_every == inject_every - 1 {
                armed = Some(failpoints::inject(site, FailAction::Err, Some(1)));
            }
        }
        if rng.below(100) < 75 || acked.is_empty() {
            let p = Point::new2(rng.below(64) as f64, rng.below(64) as f64);
            let kws = vec![rng.below(5) as Keyword, 5 + rng.below(3) as Keyword];
            match durable.insert(p, kws.clone()) {
                Ok(h) => {
                    handles.insert(h.id(), h);
                    acked.push((h.id(), p, kws));
                }
                Err(e) => {
                    failures += 1;
                    assert!(
                        matches!(e, SkqError::Internal(_) | SkqError::Store { .. }),
                        "insert failure must be typed: {e}"
                    );
                }
            }
        } else {
            let victim = rng.below(acked.len() as u64) as usize;
            let id = acked[victim].0;
            match durable.delete(handles[&id]) {
                Ok(was_live) => {
                    assert!(was_live, "oracle said id {id} was live");
                    acked.remove(victim);
                }
                Err(e) => {
                    failures += 1;
                    assert!(
                        matches!(e, SkqError::Internal(_) | SkqError::Store { .. }),
                        "delete failure must be typed: {e}"
                    );
                }
            }
        }
    }
    // Checkpoint-site injections fire inside the (swallowed) checkpoint
    // path, so only append/fsync sites surface op failures.
    if matches!(site, Some("store::wal_append" | "store::fsync")) {
        assert!(failures > 0, "{site:?}: injections never fired");
    }
    // A leftover one-shot injection must not leak into recovery.
    drop(armed);
    acked
}

fn assert_recovered_equals(acked: &Live, durable: &DurableDynamic) {
    let mut want = acked.to_vec();
    want.sort_by_key(|(id, _, _)| *id);
    let got: Live = durable
        .index()
        .iter()
        .map(|(id, p, doc)| (id, *p, doc.keywords().to_vec()))
        .collect();
    assert_eq!(
        got.len(),
        want.len(),
        "recovered live-set size differs from acknowledged"
    );
    for ((gid, gp, gkw), (wid, wp, wkw)) in got.iter().zip(&want) {
        assert_eq!(gid, wid);
        assert_eq!(gp.coords(), wp.coords());
        assert_eq!(gkw, wkw);
    }
}

/// Builds the full query surface from the acknowledged oracle and
/// cross-checks rect / ball / NN answers against brute force.
fn assert_queries_match_oracle(acked: &Live, seed: u64) {
    if acked.is_empty() {
        return;
    }
    let mut live = acked.to_vec();
    live.sort_by_key(|(id, _, _)| *id);
    let dataset = Dataset::from_parts(live.iter().map(|(_, p, kw)| (*p, kw.clone())).collect());
    let suite = OrpKwSuite::try_build(&dataset, 2).expect("suite from recovered objects");
    let srp = SrpKwIndex::try_build(&dataset, 2).expect("srp from recovered objects");
    let nn = LinfNnIndex::try_build(&dataset, 2).expect("nn from recovered objects");
    let mut rng = Rng((seed ^ 0xdead_beef_cafe_f00d) | 1);
    for round in 0..20 {
        let kws = vec![rng.below(5) as Keyword, 5 + rng.below(3) as Keyword];
        let matches_kw = |okw: &Vec<Keyword>| kws.iter().all(|k| okw.contains(k));

        // Rect with half-integer bounds: no boundary ties on the grid.
        let lo = (rng.below(64) as f64 - 0.5, rng.below(64) as f64 - 0.5);
        let span = (rng.below(32) as f64 + 1.0, rng.below(32) as f64 + 1.0);
        let rect = Rect::new(&[lo.0, lo.1], &[lo.0 + span.0, lo.1 + span.1]);
        let mut got = suite.query(&rect, &kws).unwrap();
        got.sort_unstable();
        let mut want: Vec<u32> = live
            .iter()
            .enumerate()
            .filter(|(_, (_, p, okw))| {
                matches_kw(okw) && (0..2).all(|d| rect.lo(d) <= p.get(d) && p.get(d) <= rect.hi(d))
            })
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "rect mismatch in round {round}");

        // Ball with half-integer radius: grid distances² are integers,
        // so no boundary ties.
        let center = Point::new2(rng.below(64) as f64, rng.below(64) as f64);
        let radius = rng.below(20) as f64 + 0.5;
        let mut got = srp.query(&Ball::new(center, radius), &kws).unwrap();
        got.sort_unstable();
        let mut want: Vec<u32> = live
            .iter()
            .enumerate()
            .filter(|(_, (_, p, okw))| matches_kw(okw) && p.l2_sq(&center) <= radius * radius)
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "ball mismatch in round {round}");

        // NN: L∞ ties are possible on the grid — compare the sorted
        // distance profile, not the id set.
        let t = 1 + rng.below(4) as usize;
        let mut got: Vec<f64> = nn
            .query(&center, t, &kws)
            .unwrap()
            .0
            .iter()
            .map(|&i| live[i as usize].1.linf(&center))
            .collect();
        got.sort_by(f64::total_cmp);
        let mut want: Vec<f64> = live
            .iter()
            .filter(|(_, _, okw)| matches_kw(okw))
            .map(|(_, p, _)| p.linf(&center))
            .collect();
        want.sort_by(f64::total_cmp);
        want.truncate(t);
        assert_eq!(got, want, "NN distance profile mismatch in round {round}");
    }
}

#[test]
fn injected_failures_at_every_durability_site_never_lose_acked_ops() {
    let _serial = failpoints::exclusive();
    for (i, site) in ["store::wal_append", "store::fsync", "store::checkpoint"]
        .iter()
        .enumerate()
    {
        let dir = tmpdir(&format!("site{i}"));
        let acked = {
            let (mut durable, _) = DurableDynamic::open(&dir, 2, config(32)).expect("open");
            drive(&mut durable, 0x5eed + i as u64, 300, Some(site), 9)
            // Unclean shutdown: dropped mid-stream with a live WAL
            // tail, no final checkpoint.
        };
        let (durable, report) = DurableDynamic::open(&dir, 2, config(32)).expect("recover");
        assert_eq!(report.skipped, 0, "{site}: no record is poisoned");
        assert!(
            report.replayed <= 2 * 32,
            "{site}: replayed {} > checkpoint budget",
            report.replayed
        );
        assert_recovered_equals(&acked, &durable);
        assert_queries_match_oracle(&acked, 0x5eed + i as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn persistent_checkpoint_failure_costs_replay_not_data() {
    let _serial = failpoints::exclusive();
    let dir = tmpdir("ckpt-down");
    let acked = {
        let (mut durable, _) = DurableDynamic::open(&dir, 2, config(16)).expect("open");
        // Every checkpoint attempt fails for the whole run.
        let _armed = failpoints::inject("store::checkpoint", FailAction::Err, None);
        drive(&mut durable, 0xabcd, 200, None, u64::MAX)
    };
    let (durable, report) = DurableDynamic::open(&dir, 2, config(16)).expect("recover");
    // No checkpoint ever landed: recovery replays the whole log —
    // slow, but not lossy. (The end-of-open checkpoint then repairs
    // the cadence for next time.)
    assert_eq!(report.checkpoint_lsn, 0);
    assert_eq!(report.replayed, 200);
    assert_recovered_equals(&acked, &durable);
    drop(durable);
    let (durable, report) = DurableDynamic::open(&dir, 2, config(16)).expect("re-recover");
    assert!(
        report.replayed <= 2 * 16,
        "after a healthy open, replay is back under budget (got {})",
        report.replayed
    );
    assert_recovered_equals(&acked, &durable);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_after_injected_failures_recovers_a_valid_prefix() {
    let _serial = failpoints::exclusive();
    let dir = tmpdir("torn");
    let acked = {
        let (mut durable, _) = DurableDynamic::open(&dir, 2, config(64)).expect("open");
        drive(&mut durable, 0x7777, 150, Some("store::wal_append"), 13)
    };
    // Tear a few bytes off the newest WAL segment — the on-disk state a
    // mid-write power cut leaves behind. Rolled-back ops left no record,
    // so the tear damages exactly the last *acknowledged* record.
    let wal_dir = dir.join("wal");
    let mut segs: Vec<PathBuf> = std::fs::read_dir(&wal_dir)
        .expect("wal dir")
        .map(|e| e.expect("entry").path())
        .collect();
    segs.sort();
    let last = segs.last().expect("a segment");
    let bytes = std::fs::read(last).expect("read segment");
    assert!(bytes.len() > 5, "active segment must hold records");
    std::fs::write(last, &bytes[..bytes.len() - 5]).expect("tear");

    let (durable, report) = DurableDynamic::open(&dir, 2, config(64)).expect("recover");
    assert!(report.torn_tail, "the tear must be detected");
    assert_eq!(report.skipped, 0);
    // Exactly one record (an insert or a delete) was lost with the
    // tear, so the recovered live set differs from the fully-acked
    // oracle by at most one object — and is still internally valid.
    let survived = durable.index().len() as i64;
    assert!(
        (survived - acked.len() as i64).abs() <= 1,
        "tear lost more than the final record: {survived} live vs {} acked",
        acked.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
