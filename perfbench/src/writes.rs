//! The durable write path: ingest through a `RecoverySupervisor`, an
//! open-loop writer that publishes on a fixed cadence, and (traced
//! run) a mirror of the same op stream through the layers beneath it.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use skq_core::dynamic::{DynamicOrpKw, ObjectHandle};
use skq_core::{Dataset, SkqError};
use skq_serve::{RecoverySupervisor, Server, ServerConfig};
use skq_store::{
    CheckpointPolicy, DurabilityConfig, FileBackend, IndexBackend, Persist, SyncPolicy, Wal,
    WalConfig, WalOp,
};

use crate::load::{wait_until, Rng};
use crate::stats::{secs_us, Report, Samples};

/// `DurableDynamic`'s dimension and `k` in every workload.
const DIM: usize = 2;
const K: usize = 2;

pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: crate::pin::cpus(),
        ..ServerConfig::default()
    }
}

/// One acknowledged write, as the mirror replays it.
#[derive(Clone, Copy)]
pub enum Op {
    /// Insert of dataset object `i`.
    Insert(usize),
    Delete(u64),
}

/// The acknowledged live set: durable id → dataset object.
#[derive(Default)]
pub struct Live {
    pub objects: HashMap<u64, usize>,
    handles: Vec<ObjectHandle>,
}

impl Live {
    fn add(&mut self, h: ObjectHandle, obj: usize) {
        self.objects.insert(h.id(), obj);
        self.handles.push(h);
    }

    /// Bytes of user data: 8·dim + 4·|keywords| per live object.
    pub fn user_bytes(&self, ds: &Dataset) -> u64 {
        self.objects
            .values()
            .map(|&i| (8 * ds.dim() + 4 * ds.doc(i).len()) as u64)
            .sum()
    }
}

/// A supervisor with `n0` objects ingested, serving its first suite.
pub struct Setup {
    pub sup: RecoverySupervisor,
    pub server: Server,
    pub live: Live,
    pub elapsed: Duration,
}

/// Opens a fresh supervisor in `dir`, durably ingests objects
/// `0..n0` of `ds`, and starts a server on the first suite.
pub fn ingest(dir: &Path, ds: &Dataset, n0: usize) -> Result<Setup, SkqError> {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let mut sup = RecoverySupervisor::open(dir, DIM, K, DurabilityConfig::default())?;
    let mut live = Live::default();
    for i in 0..n0 {
        let h = sup.insert(*ds.point(i), ds.doc(i).keywords().to_vec())?;
        live.add(h, i);
    }
    let (suite, _) = sup.suite()?;
    let server = Server::start(suite, server_config());
    Ok(Setup {
        sup,
        server,
        live,
        elapsed: t.elapsed(),
    })
}

pub struct WritePlan {
    pub rate: f64,
    pub ops: usize,
    pub cadence: Duration,
    pub seed: u64,
}

#[derive(Default)]
pub struct WriteRun {
    pub attempted: u64,
    pub failed: u64,
    /// Per acknowledged op, in order: (lag, intended send → ack), µs.
    pub per_op: Vec<(f64, f64)>,
    pub ops: Vec<Op>,
    /// Ack → return of the publish that contains it, ms.
    pub visible: Samples,
    pub publish_to_ms: Samples,
    pub suite_ms: Samples,
    pub swap_us: Samples,
    /// Id map of the last publish.
    pub final_ids: Vec<u64>,
}

impl WriteRun {
    pub fn latency(&self) -> Samples {
        let mut s = Samples::default();
        for &(_, lat) in &self.per_op {
            s.push(lat);
        }
        s
    }
}

/// Publishes the live set, through `publish_to`, or — every other
/// time in a traced run — through `suite` and `Server::publish` timed
/// apart.
fn publish(sup: &mut RecoverySupervisor, server: &Server, split: bool, run: &mut WriteRun) -> bool {
    let t = Instant::now();
    let ids = if split {
        let Ok((suite, ids)) = sup.suite() else {
            return false;
        };
        run.suite_ms.push(secs_us(t.elapsed()) / 1e3);
        let s = Instant::now();
        server.publish(suite);
        run.swap_us.push(secs_us(s.elapsed()));
        ids
    } else {
        let Ok((_, ids)) = sup.publish_to(server) else {
            return false;
        };
        run.publish_to_ms.push(secs_us(t.elapsed()) / 1e3);
        ids
    };
    run.final_ids = ids;
    true
}

/// Open-loop durable writes at `plan.rate` (80% inserts of the next
/// dataset objects from `next_obj`, 20% deletes of a random live
/// object) with a publish every `plan.cadence`, then one final publish.
pub fn drive(
    sup: &mut RecoverySupervisor,
    server: &Server,
    ds: &Dataset,
    mut next_obj: usize,
    live: &mut Live,
    plan: &WritePlan,
    trace: bool,
) -> WriteRun {
    let mut run = WriteRun::default();
    let mut rng = Rng::new(plan.seed ^ 0x3A1E);
    let mut unpublished: Vec<Instant> = Vec::new();
    let mut publishes = 0usize;
    let mut do_publish =
        |sup: &mut RecoverySupervisor, run: &mut WriteRun, acks: &mut Vec<Instant>| {
            let split = trace && publishes % 2 == 1;
            publishes += 1;
            run.attempted += 1;
            if publish(sup, server, split, run) {
                let done = Instant::now();
                for a in acks.drain(..) {
                    run.visible.push(secs_us(done - a) / 1e3);
                }
            } else {
                run.failed += 1;
            }
        };
    let start = Instant::now();
    let mut next_pub = start + plan.cadence;
    for j in 0..plan.ops {
        let due = start + Duration::from_secs_f64(j as f64 / plan.rate);
        while next_pub <= due {
            wait_until(next_pub);
            do_publish(sup, &mut run, &mut unpublished);
            next_pub += plan.cadence;
        }
        wait_until(due);
        let sent = Instant::now();
        run.attempted += 1;
        let op = if rng.below(100) < 80 || live.handles.is_empty() {
            let i = next_obj;
            next_obj += 1;
            sup.insert(*ds.point(i), ds.doc(i).keywords().to_vec())
                .map(|h| {
                    live.add(h, i);
                    Op::Insert(i)
                })
        } else {
            let h = live
                .handles
                .swap_remove(rng.below(live.handles.len() as u64) as usize);
            live.objects.remove(&h.id());
            match sup.delete(h) {
                Ok(true) => Ok(Op::Delete(h.id())),
                _ => Err(SkqError::Internal("delete of a live object failed".into())),
            }
        };
        let ack = Instant::now();
        match op {
            Ok(op) => {
                run.ops.push(op);
                run.per_op.push((secs_us(sent - due), secs_us(ack - due)));
                unpublished.push(ack);
            }
            Err(_) => run.failed += 1,
        }
    }
    do_publish(sup, &mut run, &mut unpublished);
    run
}

/// Replays `ops` (after objects `0..n0`) through a mirror
/// `DynamicOrpKw`, a mirror WAL synced after every append, and
/// `FileBackend` checkpoints at the default cadence. Returns the
/// layer time of each op, µs, and the checkpoint count.
pub fn mirror(
    dir: &Path,
    ds: &Dataset,
    n0: usize,
    ops: &[Op],
    report: &mut Report,
) -> Result<(Vec<f64>, u64), SkqError> {
    let _ = std::fs::remove_dir_all(dir);
    let policy = CheckpointPolicy::default();
    let mut index = DynamicOrpKw::new(DIM, K);
    let (mut wal, _) = Wal::open(
        &dir.join("wal"),
        WalConfig {
            sync: SyncPolicy::Never,
            ..WalConfig::default()
        },
    )?;
    let backend = FileBackend::new(dir)?;
    let insert_rec = |h: ObjectHandle, i: usize| WalOp::Insert {
        id: h.id(),
        point: *ds.point(i),
        keywords: ds.doc(i).keywords().to_vec(),
    };
    let (mut ops_since, mut mark) = (0u64, 0u64);
    for i in 0..n0 {
        let h = index.try_insert(*ds.point(i), ds.doc(i).keywords().to_vec())?;
        wal.append(&insert_rec(h, i))?;
        ops_since += 1;
        if policy.due(ops_since, wal.bytes_appended() - mark) {
            (ops_since, mark) = (0, wal.bytes_appended());
        }
    }
    let bytes_before = wal.bytes_appended();
    let (mut insert, mut append, mut sync, mut ckpt) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    let mut per_op = Vec::with_capacity(ops.len());
    let mut checkpoints = 0u64;
    for op in ops {
        let t = Instant::now();
        let rec = match *op {
            Op::Insert(i) => {
                let h = index.try_insert(*ds.point(i), ds.doc(i).keywords().to_vec())?;
                insert.push(secs_us(t.elapsed()));
                insert_rec(h, i)
            }
            Op::Delete(id) => {
                index.delete_by_id(id);
                WalOp::Delete { id }
            }
        };
        let t_append = Instant::now();
        wal.append(&rec)?;
        append.push(secs_us(t_append.elapsed()));
        let t_sync = Instant::now();
        wal.sync()?;
        sync.push(secs_us(t_sync.elapsed()));
        ops_since += 1;
        if policy.due(ops_since, wal.bytes_appended() - mark) {
            let t_ckpt = Instant::now();
            backend.save(&format!("ckpt-{:020}", wal.next_lsn() - 1), &index)?;
            ckpt.push(secs_us(t_ckpt.elapsed()) / 1e3);
            checkpoints += 1;
            (ops_since, mark) = (0, wal.bytes_appended());
        }
        per_op.push(secs_us(t.elapsed()));
    }
    let mut encode = Samples::default();
    for _ in 0..3 {
        let t = Instant::now();
        std::hint::black_box(index.to_bytes()?);
        encode.push(secs_us(t.elapsed()) / 1e3);
    }
    report.pct("dynamic.insert_p50_us", &insert, 0.5, "us");
    report.put(
        "dynamic.insert_max_ms",
        insert.max() / 1e3,
        "ms",
        insert.len(),
    );
    report.put(
        "persist.encode_ms",
        encode.median().unwrap_or(0.0),
        "ms",
        encode.len(),
    );
    report.pct("store.wal_append_p50_us", &append, 0.5, "us");
    report.pct("store.wal_append_p99_us", &append, 0.99, "us");
    report.pct("store.wal_sync_p50_us", &sync, 0.5, "us");
    report.pct("store.wal_sync_p99_us", &sync, 0.99, "us");
    report.put(
        "store.wal_bytes_per_op",
        (wal.bytes_appended() - bytes_before) as f64 / ops.len().max(1) as f64,
        "bytes",
        ops.len(),
    );
    report.median_max(
        "store.checkpoint_ms_p50",
        "store.checkpoint_ms_max",
        &ckpt,
        "ms",
    );
    report.put("store.checkpoints", checkpoints as f64, "count", ops.len());
    drop(wal);
    let _ = std::fs::remove_dir_all(dir);
    Ok((per_op, checkpoints))
}

/// Checkpoints the real durable index cut so far.
pub fn checkpoints_cut() -> u64 {
    skq_obs::global()
        .counter_value("skq_store_checkpoints_total", &[("status", "ok")])
        .unwrap_or(0)
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
