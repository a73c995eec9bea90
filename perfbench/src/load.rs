//! Seeded inputs and the two ways of offering reads to a [`Server`]:
//! an open loop at a fixed rate, timed from each request's intended
//! send time, and a closed loop that keeps a fixed number outstanding.

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use skq_core::{Dataset, QueryStats, SkqError};
use skq_geom::Rect;
use skq_invidx::Keyword;
use skq_serve::{Pending, Request, Server};
use skq_workload::queries::QueryGen;

use crate::pin;
use crate::stats::{secs_us, Samples};

/// splitmix64: the benchmark's own seeded choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

pub struct Query {
    pub rect: Rect,
    pub keywords: Vec<Keyword>,
}

impl Query {
    pub fn request(&self) -> Request {
        Request::new(self.rect, self.keywords.clone())
    }
}

/// Mid-frequency keywords (`QueryGen::keywords(k, 0.5)`), k uniform
/// in `1..=k_hi`, rectangles of selectivity 0.05.
pub fn mid_band_pool(ds: &Dataset, seed: u64, n: usize, k_hi: u64) -> Vec<Query> {
    let mut gen = QueryGen::new(ds, seed);
    let mut rng = Rng::new(seed ^ 0x6B);
    (0..n)
        .map(|_| {
            let k = 1 + rng.below(k_hi) as usize;
            let rect = gen.rect(0.05);
            let keywords = gen.keywords(k, 0.5).expect("vocabulary larger than k");
            Query { rect, keywords }
        })
        .collect()
}

/// k distinct keywords from the 32 most frequent, k uniform in
/// `1..=4`, rectangles of selectivity 0.05.
pub fn top_band_pool(ds: &Dataset, seed: u64, n: usize) -> Vec<Query> {
    let mut gen = QueryGen::new(ds, seed);
    let top = gen.top_keywords(32).expect("vocabulary of at least 32");
    let mut rng = Rng::new(seed ^ 0x7C);
    (0..n)
        .map(|_| {
            let k = 1 + rng.below(4) as usize;
            let mut pick = top.clone();
            for i in 0..k {
                let j = i + rng.below((pick.len() - i) as u64) as usize;
                pick.swap(i, j);
            }
            pick.truncate(k);
            Query {
                rect: gen.rect(0.05),
                keywords: pick,
            }
        })
        .collect()
}

/// Sleeps until `t`, spinning through the last stretch that a sleep
/// would overshoot.
pub fn wait_until(t: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let rem = t - now;
        if rem > SPIN {
            std::thread::sleep(rem - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Expected answers for a seeded sample of pool indices; every served
/// reply to one of them is compared.
pub type Expected = HashMap<usize, Vec<u32>>;

/// Brute-force answers for `count` seeded pool indices.
pub fn expected_sample(ds: &Dataset, pool: &[Query], seed: u64, count: usize) -> Expected {
    let mut rng = Rng::new(seed ^ 0xC4EC);
    let mut out = Expected::new();
    while out.len() < count.min(pool.len()) {
        let i = rng.below(pool.len() as u64) as usize;
        out.entry(i)
            .or_insert_with(|| skq_core::naive::brute_rect(ds, &pool[i].rect, &pool[i].keywords));
    }
    out
}

/// Totals of the deterministic traversal counters over answered
/// requests.
#[derive(Default, Clone, Copy, PartialEq, Debug)]
pub struct Counts {
    pub queries: u64,
    pub nodes: u64,
    pub list_scans: u64,
    pub pivot_scans: u64,
    pub results: u64,
}

impl Counts {
    pub fn add(&mut self, s: &QueryStats, results: usize) {
        self.queries += 1;
        self.nodes += s.nodes_visited;
        self.list_scans += s.list_scans;
        self.pivot_scans += s.pivot_scans;
        self.results += results as u64;
    }

    pub fn sum<'a>(counts: impl Iterator<Item = &'a Counts>) -> Counts {
        counts.fold(Counts::default(), |t, c| Counts {
            queries: t.queries + c.queries,
            nodes: t.nodes + c.nodes,
            list_scans: t.list_scans + c.list_scans,
            pivot_scans: t.pivot_scans + c.pivot_scans,
            results: t.results + c.results,
        })
    }
}

/// What one phase of reads measured.
#[derive(Default)]
pub struct ReadRun {
    pub attempted: u64,
    pub shed: u64,
    pub errors: u64,
    pub wrong: u64,
    /// Intended send (open loop) or send (closed loop) to reply, µs.
    pub latency: Samples,
    /// Open loop: how late each send was against its due time, µs.
    pub gen_lag: Samples,
    /// Closed loop: answered reads per second of each phase.
    pub rates: Samples,
    /// Traversal counters of the first answer to each pool index.
    pub served: HashMap<usize, Counts>,
    /// Traced requests only: `(pool index, lag, submit, submit→reply)`
    /// in µs.
    pub traced: Vec<(usize, f64, f64, f64)>,
    /// Latency of traced and of untraced requests (traced run only).
    pub latency_traced: Samples,
    pub latency_untraced: Samples,
}

impl ReadRun {
    pub fn answered(&self) -> u64 {
        self.attempted - self.shed - self.errors
    }

    /// Adds a later phase of the same kind to this one.
    pub fn absorb(&mut self, other: ReadRun) {
        self.attempted += other.attempted;
        self.shed += other.shed;
        self.errors += other.errors;
        self.wrong += other.wrong;
        self.latency.extend(&other.latency);
        self.gen_lag.extend(&other.gen_lag);
        self.rates.extend(&other.rates);
        for (idx, c) in other.served {
            self.served.entry(idx).or_insert(c);
        }
        self.traced.extend(other.traced);
        self.latency_traced.extend(&other.latency_traced);
        self.latency_untraced.extend(&other.latency_untraced);
    }
}

struct Sent {
    idx: usize,
    due: Instant,
    lag_us: f64,
    /// Time spent inside `Server::submit`, when this request is traced.
    submit_us: Option<f64>,
    sent: Instant,
    result: Result<Pending, SkqError>,
}

fn settle(run: &mut ReadRun, s: Sent, expected: Option<&Expected>) {
    run.attempted += 1;
    let pending = match s.result {
        Ok(p) => p,
        Err(SkqError::Overloaded { .. }) => {
            run.shed += 1;
            return;
        }
        Err(_) => {
            run.errors += 1;
            return;
        }
    };
    let reply = pending.wait();
    let done = Instant::now();
    let reply = match reply {
        Ok(r) => r,
        Err(_) => {
            run.errors += 1;
            return;
        }
    };
    let lat = secs_us(done - s.due);
    run.latency.push(lat);
    if let Some(submit) = s.submit_us {
        run.traced
            .push((s.idx, s.lag_us, submit, secs_us(done - s.sent)));
        run.latency_traced.push(lat);
    } else {
        run.latency_untraced.push(lat);
    }
    run.served.entry(s.idx).or_insert_with(|| {
        let mut c = Counts::default();
        c.add(&reply.stats, reply.ids.len());
        c
    });
    if let Some(want) = expected.and_then(|e| e.get(&s.idx)) {
        if &reply.ids != want {
            run.wrong += 1;
        }
    }
}

/// Offers `pool` (cycled from `offset`) at `rate` requests per second
/// for `dur`. Each request is timed from its due time to its reply;
/// replies are collected in send order on a second thread. With
/// `trace`, every other request has its `submit` call timed.
pub fn open_loop(
    server: &Server,
    pool: &[Query],
    offset: usize,
    rate: f64,
    dur: Duration,
    trace: bool,
    expected: Option<&Expected>,
) -> ReadRun {
    let total = (rate * dur.as_secs_f64()) as usize;
    let (tx, rx) = mpsc::channel::<Sent>();
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            pin::load_thread();
            let mut run = ReadRun::default();
            for s in rx {
                settle(&mut run, s, expected);
            }
            run
        });
        let generator = scope.spawn(move || {
            pin::load_thread();
            let mut gen_lag = Samples::default();
            let start = Instant::now();
            for i in 0..total {
                let due = start + Duration::from_secs_f64(i as f64 / rate);
                wait_until(due);
                let idx = (offset + i) % pool.len();
                let req = pool[idx].request();
                let sent = Instant::now();
                let (result, submit_us) = if trace && i % 2 == 0 {
                    let r = server.submit(req);
                    (r, Some(secs_us(sent.elapsed())))
                } else {
                    (server.submit(req), None)
                };
                let lag_us = secs_us(sent - due);
                gen_lag.push(lag_us);
                let _ = tx.send(Sent {
                    idx,
                    due,
                    lag_us,
                    submit_us,
                    sent,
                    result,
                });
            }
            gen_lag
        });
        let gen_lag = generator.join().expect("generator thread");
        let mut run = collector.join().expect("collector thread");
        run.gen_lag = gen_lag;
        run
    })
}

/// Keeps `depth` requests outstanding for `dur` from one thread on the
/// load CPU and counts answered replies.
pub fn closed_loop(
    server: &Server,
    pool: &[Query],
    offset: usize,
    depth: usize,
    dur: Duration,
    expected: Option<&Expected>,
) -> ReadRun {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                pin::load_thread();
                closed_loop_here(server, pool, offset, depth, dur, expected)
            })
            .join()
            .expect("closed-loop thread")
    })
}

fn closed_loop_here(
    server: &Server,
    pool: &[Query],
    offset: usize,
    depth: usize,
    dur: Duration,
    expected: Option<&Expected>,
) -> ReadRun {
    let mut run = ReadRun::default();
    let mut inflight = std::collections::VecDeque::with_capacity(depth);
    let start = Instant::now();
    let mut i = 0;
    let submit = |i: usize| {
        let idx = (offset + i) % pool.len();
        let sent = Instant::now();
        Sent {
            idx,
            due: sent,
            lag_us: 0.0,
            submit_us: None,
            sent,
            result: server.submit(pool[idx].request()),
        }
    };
    while i < depth {
        inflight.push_back(submit(i));
        i += 1;
    }
    while let Some(s) = inflight.pop_front() {
        settle(&mut run, s, expected);
        if start.elapsed() < dur {
            inflight.push_back(submit(i));
            i += 1;
        }
    }
    run.rates
        .push(run.answered() as f64 / start.elapsed().as_secs_f64());
    run
}
