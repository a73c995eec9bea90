//! `skq-crash` — kill-and-recover chaos driver for the WAL/checkpoint
//! stack (DESIGN §16), used by the `crash-smoke` CI job.
//!
//! Two subcommands over the same deterministic, seeded op stream:
//!
//! * `run` executes inserts/deletes against a [`DurableDynamic`] in
//!   `--dir`; with `--abort-at K --site S` it arms the named fail
//!   point (as `FailAction::Abort`) just before op `K`, so the process
//!   dies mid-stream exactly like a power cut — no unwinding, no
//!   destructors, no clean shutdown.
//! * `verify` recovers the directory, learns how many ops survived
//!   from the recovery report, replays that prefix of the same seeded
//!   stream into an in-memory oracle, and hard-compares the recovered
//!   live set plus rect / ball / NN query answers against brute force.
//!
//! Exit codes: 0 verified, 1 run failed, 2 usage, 3 state or answer
//! mismatch.

use std::path::PathBuf;
use std::process::ExitCode;

use skq_core::dynamic::ObjectHandle;
use skq_core::nn_linf::LinfNnIndex;
use skq_core::query::KwQuery;
use skq_core::srp::SrpKwIndex;
use skq_core::suite::OrpKwSuite;
use skq_geom::{Ball, Point, Rect};
use skq_invidx::Keyword;
use skq_store::{DurabilityConfig, DurableDynamic};

/// Keyword vocabulary: every object gets 2 distinct keywords from
/// here, every query asks for 2.
const VOCAB: u32 = 6;

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(2685821657736338717).max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// One op of the deterministic stream.
enum Op {
    Insert(Point, Vec<Keyword>),
    /// Delete the live object at this index of the oracle's live list.
    Delete(usize),
}

/// The in-memory oracle: the exact state the durable store must have
/// after a prefix of the stream. Ids mirror `ObjectTable`'s id
/// allocation (dense, in insert order).
struct Oracle {
    live: Vec<(u64, Point, Vec<Keyword>)>,
    next_id: u64,
}

impl Oracle {
    fn new() -> Self {
        Oracle {
            live: Vec::new(),
            next_id: 0,
        }
    }

    /// Generates op number `step` (0-based) for the current state.
    fn gen_op(&self, rng: &mut Rng) -> Op {
        let roll = rng.below(100);
        if roll < 80 || self.live.is_empty() {
            // Integer-grid coordinates: query boundaries at
            // half-integers can then never tie with a point.
            let x = rng.below(64) as f64;
            let y = rng.below(64) as f64;
            let a = rng.below(u64::from(VOCAB)) as Keyword;
            let b = (a + 1 + rng.below(u64::from(VOCAB) - 1) as Keyword) % VOCAB;
            Op::Insert(Point::new2(x, y), vec![a.min(b), a.max(b)])
        } else {
            Op::Delete(rng.below(self.live.len() as u64) as usize)
        }
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Insert(p, kws) => {
                self.live.push((self.next_id, *p, kws.clone()));
                self.next_id += 1;
            }
            Op::Delete(i) => {
                self.live.remove(*i);
            }
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: skq-crash run    --dir DIR --seed S --ops N [--ckpt-ops C] \
         [--abort-at K --site wal_append|fsync|checkpoint]\n       \
         skq-crash verify --dir DIR --seed S --ops N [--ckpt-ops C] --min-surviving M"
    );
    ExitCode::from(2)
}

struct Args {
    dir: PathBuf,
    seed: u64,
    ops: u64,
    ckpt_ops: u64,
    abort_at: Option<u64>,
    site: String,
    min_surviving: u64,
}

fn parse(args: &[String]) -> Option<Args> {
    let mut out = Args {
        dir: PathBuf::new(),
        seed: 1,
        ops: 1000,
        ckpt_ops: 64,
        abort_at: None,
        site: "wal_append".to_string(),
        min_surviving: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--dir" => out.dir = PathBuf::from(value),
            "--seed" => out.seed = value.parse().ok()?,
            "--ops" => out.ops = value.parse().ok()?,
            "--ckpt-ops" => out.ckpt_ops = value.parse().ok()?,
            "--abort-at" => out.abort_at = Some(value.parse().ok()?),
            "--site" => out.site = value.clone(),
            "--min-surviving" => out.min_surviving = value.parse().ok()?,
            _ => return None,
        }
    }
    if out.dir.as_os_str().is_empty() {
        return None;
    }
    Some(out)
}

fn config(ckpt_ops: u64) -> DurabilityConfig {
    let mut config = DurabilityConfig::default();
    config.checkpoint.every_ops = ckpt_ops;
    config.checkpoint.every_bytes = u64::MAX;
    config
}

/// Arms the chosen fail-point site to abort the process on next hit,
/// for as long as the returned guard lives.
fn arm_abort(site: &str) -> Result<skq_core::failpoints::FailPoint, String> {
    let full = match site {
        "wal_append" => "store::wal_append",
        "fsync" => "store::fsync",
        "checkpoint" => "store::checkpoint",
        other => return Err(format!("unknown --site {other}")),
    };
    #[cfg(feature = "failpoints")]
    {
        Ok(skq_core::failpoints::inject(
            full,
            skq_core::failpoints::FailAction::Abort,
            Some(1),
        ))
    }
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = full;
        Err("--abort-at requires a build with --features failpoints".to_string())
    }
}

fn cmd_run(a: &Args) -> Result<(), String> {
    let (mut durable, _) =
        DurableDynamic::open(&a.dir, 2, config(a.ckpt_ops)).map_err(|e| format!("open: {e}"))?;
    let mut rng = Rng::new(a.seed);
    let mut oracle = Oracle::new();
    let mut handles: Vec<ObjectHandle> = Vec::new();
    // Held to the end of the run: the abort fires at the site's next
    // hit, which may come several ops after arming.
    let mut _armed = None;
    for step in 0..a.ops {
        if a.abort_at == Some(step) {
            _armed = Some(arm_abort(&a.site)?);
        }
        let op = oracle.gen_op(&mut rng);
        match &op {
            Op::Insert(p, kws) => {
                let h = durable
                    .insert(*p, kws.clone())
                    .map_err(|e| format!("insert at op {step}: {e}"))?;
                handles.push(h);
            }
            Op::Delete(i) => {
                let id = oracle.live[*i].0;
                let h = handles[id as usize];
                durable
                    .delete(h)
                    .map_err(|e| format!("delete at op {step}: {e}"))?;
            }
        }
        oracle.apply(&op);
    }
    println!("acked={}", a.ops);
    Ok(())
}

/// Brute-force rect answers over the oracle, as dense suite ids
/// (position in the id-sorted live list).
fn brute_rect(live: &[(u64, Point, Vec<Keyword>)], q: &Rect, kws: &[Keyword]) -> Vec<u32> {
    live.iter()
        .enumerate()
        .filter(|(_, (_, p, okw))| {
            kws.iter().all(|k| okw.contains(k))
                && (0..2).all(|d| q.lo(d) <= p.get(d) && p.get(d) <= q.hi(d))
        })
        .map(|(i, _)| i as u32)
        .collect()
}

fn cmd_verify(a: &Args) -> Result<(), ExitCode> {
    let fail = |msg: String| {
        eprintln!("skq-crash: {msg}");
        ExitCode::from(3)
    };
    let (durable, report) = DurableDynamic::open(&a.dir, 2, config(a.ckpt_ops))
        .map_err(|e| fail(format!("recovery failed: {e}")))?;
    if report.skipped != 0 {
        return Err(fail(format!("{} poisoned records skipped", report.skipped)));
    }
    if report.last_lsn < a.min_surviving {
        return Err(fail(format!(
            "only {} ops survived, expected at least {}",
            report.last_lsn, a.min_surviving
        )));
    }
    // Replay budget: with checkpoints every C ops and the WAL retained
    // back to the previous checkpoint, a recovery replays at most 2C
    // records even when the crash also killed a checkpoint attempt.
    if report.replayed > 2 * a.ckpt_ops {
        return Err(fail(format!(
            "replayed {} records, budget is 2×{}",
            report.replayed, a.ckpt_ops
        )));
    }

    // Re-derive the surviving prefix of the op stream. Each acked op
    // appended exactly one record, so `last_lsn` ops survived (the
    // last one possibly written-but-unacknowledged — still a valid
    // history, and exactly what the WAL says happened).
    let mut rng = Rng::new(a.seed);
    let mut oracle = Oracle::new();
    for _ in 0..report.last_lsn {
        let op = oracle.gen_op(&mut rng);
        oracle.apply(&op);
    }
    let mut expect = oracle.live.clone();
    expect.sort_by_key(|(id, _, _)| *id);
    let got: Vec<(u64, Point, Vec<Keyword>)> = durable
        .index()
        .iter()
        .map(|(id, p, doc)| (id, *p, doc.keywords().to_vec()))
        .collect();
    if got.len() != expect.len() {
        return Err(fail(format!(
            "recovered {} live objects, oracle has {}",
            got.len(),
            expect.len()
        )));
    }
    for ((gid, gp, gkw), (eid, ep, ekw)) in got.iter().zip(&expect) {
        if gid != eid || gp.coords() != ep.coords() || gkw != ekw {
            return Err(fail(format!(
                "object mismatch: got id {gid}, oracle id {eid}"
            )));
        }
    }

    if expect.is_empty() {
        println!("verified: empty surviving state ({} ops)", report.last_lsn);
        return Ok(());
    }

    // Build the full query surface from the recovered objects, through
    // the export a publish uses, and cross-check rect / ball / NN
    // answers against brute force.
    let (dataset, _) = durable
        .index()
        .live_dataset()
        .map_err(|e| fail(format!("dataset: {e}")))?;
    let suite =
        OrpKwSuite::try_build(&dataset, 2).map_err(|e| fail(format!("suite build: {e}")))?;
    let srp = SrpKwIndex::try_build(&dataset, 2).map_err(|e| fail(format!("srp build: {e}")))?;
    let nn = LinfNnIndex::try_build(&dataset, 2).map_err(|e| fail(format!("nn build: {e}")))?;

    let mut qrng = Rng::new(a.seed ^ 0x9e3779b97f4a7c15);
    for round in 0..50 {
        let a_kw = qrng.below(u64::from(VOCAB)) as Keyword;
        let b_kw = (a_kw + 1 + qrng.below(u64::from(VOCAB) - 1) as Keyword) % VOCAB;
        let kws = vec![a_kw.min(b_kw), a_kw.max(b_kw)];
        // Half-integer bounds: no point can sit on the boundary.
        let lo = (qrng.below(64) as f64 - 0.5, qrng.below(64) as f64 - 0.5);
        let span = (qrng.below(32) as f64, qrng.below(32) as f64);
        let rect = Rect::new(&[lo.0, lo.1], &[lo.0 + span.0 + 1.0, lo.1 + span.1 + 1.0]);
        let mut got_ids = suite
            .query(&rect, &kws)
            .map_err(|e| fail(format!("rect query: {e}")))?;
        got_ids.sort_unstable();
        let mut want = brute_rect(&expect, &rect, &kws);
        want.sort_unstable();
        if got_ids != want {
            return Err(fail(format!(
                "rect answer mismatch in round {round}: got {}, want {}",
                got_ids.len(),
                want.len()
            )));
        }

        // Ball: half-integer radius — grid distances² are integers, so
        // no boundary ties.
        let center = Point::new2(qrng.below(64) as f64, qrng.below(64) as f64);
        let radius = qrng.below(24) as f64 + 0.5;
        let mut ball_ids = srp
            .query(&Ball::new(center, radius), &kws)
            .map_err(|e| fail(format!("ball query: {e}")))?;
        ball_ids.sort_unstable();
        let mut ball_want: Vec<u32> = expect
            .iter()
            .enumerate()
            .filter(|(_, (_, p, okw))| {
                kws.iter().all(|k| okw.contains(k)) && p.l2_sq(&center) <= radius * radius
            })
            .map(|(i, _)| i as u32)
            .collect();
        ball_want.sort_unstable();
        if ball_ids != ball_want {
            return Err(fail(format!(
                "ball answer mismatch in round {round}: got {}, want {}",
                ball_ids.len(),
                ball_want.len()
            )));
        }

        // NN: L∞ distances can tie on the grid, so compare the sorted
        // distance profile, not the id set.
        let t = 1 + qrng.below(5) as usize;
        let (nn_ids, _) = nn
            .query(&center, t, &kws)
            .map_err(|e| fail(format!("nn query: {e}")))?;
        let mut nn_dists: Vec<f64> = nn_ids
            .iter()
            .map(|&i| expect[i as usize].1.linf(&center))
            .collect();
        nn_dists.sort_by(f64::total_cmp);
        let mut all: Vec<f64> = expect
            .iter()
            .filter(|(_, _, okw)| kws.iter().all(|k| okw.contains(k)))
            .map(|(_, p, _)| p.linf(&center))
            .collect();
        all.sort_by(f64::total_cmp);
        all.truncate(t);
        if nn_dists != all {
            return Err(fail(format!(
                "NN distance profile mismatch in round {round}: got {nn_dists:?}, want {all:?}"
            )));
        }
    }

    println!(
        "verified: {} ops survived, {} live objects, checkpoint lsn {}, {} replayed",
        report.last_lsn,
        expect.len(),
        report.checkpoint_lsn,
        report.replayed
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return usage();
    };
    let Some(args) = parse(rest) else {
        return usage();
    };
    match cmd.as_str() {
        "run" => match cmd_run(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("skq-crash: {msg}");
                ExitCode::FAILURE
            }
        },
        "verify" => match cmd_verify(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(code) => code,
        },
        _ => usage(),
    }
}
