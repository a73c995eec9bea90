//! The experiment harness: regenerates an empirical counterpart for
//! every evaluation artifact of the paper (Table 1's bound matrix,
//! Lemma 9/10's crossing analysis = Figure 1, and §4's type-1/type-2
//! structure = Figure 2). Output is markdown, recorded in
//! EXPERIMENTS.md.
//!
//! Usage:
//!   harness [all|e1|e2|e3|e4|e5|e6|e7|e8|e9|e10|f1|f2|x1|x2|x3] [--quick]
//!           [--metrics out.prom] [--trace out.json]
//!
//! `--trace` captures every instrumented build/query span that runs
//! during the selected experiments as a chrome-trace JSON file
//! (loadable in `ui.perfetto.dev`). Artifact-write failures exit with
//! code 2 and a one-line message.

use std::env;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use skq_bench::{
    borderline_spatial, fit_exponent, measure, omnipresent_spatial, planted_spatial,
    shuffled_planted, us, Table,
};
use skq_core::dataset::Dataset;
use skq_core::framework::{doc_weights, KdPartitioner, TransformedIndex};
use skq_core::ksi::KsiIndex;
use skq_core::naive::{FullScan, KeywordsFirst, StructuredFirst};
use skq_core::nn_l2::L2NnIndex;
use skq_core::nn_linf::LinfNnIndex;
use skq_core::orp::OrpKwIndex;
use skq_core::query::KwQuery;
use skq_core::rr::RrKwIndex;
use skq_core::sp::SpKwIndex;
use skq_core::srp::SrpKwIndex;
use skq_core::stats::QueryStats;
use skq_core::SkqError;
use skq_geom::{Ball, ConvexPolytope, Point, Rect};
use skq_invidx::{InvertedIndex, Keyword};
use skq_workload::queries::QueryGen;

use rand::{rngs::StdRng, Rng, SeedableRng};

type Experiment = (&'static str, fn(&Config) -> Result<(), SkqError>);

struct Config {
    quick: bool,
}

impl Config {
    /// Object-count sweep used by the N-scaling experiments.
    fn sizes(&self) -> Vec<usize> {
        if self.quick {
            vec![10_000, 30_000]
        } else {
            vec![20_000, 60_000, 180_000]
        }
    }
    fn reps(&self) -> usize {
        if self.quick {
            5
        } else {
            9
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let metrics_path = args
        .iter()
        .position(|a| a == "--metrics")
        .and_then(|i| args.get(i + 1));
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1));
    let which = args
        .iter()
        .find(|a| !a.starts_with("--") && Some(*a) != metrics_path && Some(*a) != trace_path)
        .map(String::as_str)
        .unwrap_or("all");
    let cfg = Config { quick };
    if trace_path.is_some() {
        skq_obs::trace::enable();
    }

    let all: Vec<Experiment> = vec![
        ("e1", e1),
        ("e2", e2),
        ("e3", e3),
        ("e4", e4),
        ("e5", e5),
        ("e6", e6),
        ("e7", e7),
        ("e8", e8),
        ("e9", e9),
        ("e10", e10),
        ("f1", f1),
        ("f2", f2),
        ("x1", x1),
        ("x2", x2),
        ("x3", x3),
    ];
    let outcome = match which {
        "all" => all.iter().try_for_each(|(name, f)| {
            println!(
                "\n\n================ {} ================",
                name.to_uppercase()
            );
            f(&cfg)
        }),
        name => {
            let f = all
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("unknown experiment {name}"))
                .1;
            f(&cfg)
        }
    };
    if let Err(e) = outcome {
        eprintln!("harness: {e}");
        return ExitCode::from(2);
    }

    // Observability snapshot: everything the instrumented build/query
    // paths recorded while the experiments ran. `--metrics <path>`
    // additionally writes the machine-readable Prometheus form.
    println!("\n\n================ METRICS SNAPSHOT ================");
    print!("{}", skq_obs::global().report());
    if let Some(path) = trace_path {
        skq_obs::trace::disable();
        if let Err(msg) = write_artifact(path, &skq_obs::trace::export_chrome()) {
            eprintln!("harness: {msg}");
            return ExitCode::from(2);
        }
        println!(
            "(wrote {} trace events to {path} — load in ui.perfetto.dev)",
            skq_obs::trace::event_count()
        );
    }
    if let Some(path) = metrics_path {
        if let Err(msg) = write_artifact(path, &skq_obs::global().render_prometheus()) {
            eprintln!("harness: {msg}");
            return ExitCode::from(2);
        }
        println!("(wrote Prometheus snapshot to {path})");
    }
    ExitCode::SUCCESS
}

/// Writes an output artifact, creating missing parent directories.
fn write_artifact(path: &str, contents: &str) -> Result<(), String> {
    let p = std::path::Path::new(path);
    if let Some(parent) = p.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("creating {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(p, contents).map_err(|e| format!("writing {path}: {e}"))
}

/// Median query time over `queries` random full-space ORP queries.
fn orp_query_time(index: &OrpKwIndex, q: &Rect, kws: &[Keyword], reps: usize) -> Duration {
    measure(reps, || {
        let _ = std::hint::black_box(index.query(std::hint::black_box(q), kws));
    })
    .median
}

// ====================================================================
// E1 — Table 1, rows 1–2: ORP-KW query time scaling.
// ====================================================================
fn e1(cfg: &Config) -> Result<(), SkqError> {
    println!("## E1 — ORP-KW (Theorems 1–2): time vs N at OUT = 0, and vs OUT\n");
    println!("### E1a-adaptive — frequent keywords, empty intersection");
    println!("The k query keywords are individually frequent (Θ(N) naive");
    println!("candidates) but never co-occur: the root emptiness bit table");
    println!("prunes everything, so the index is output-adaptive and far");
    println!("below its worst-case bound.\n");

    for dim in [2usize, 3] {
        let mut t = Table::new(&[
            "d",
            "k",
            "N",
            "index µs",
            "kw-only µs",
            "struct-only µs",
            "scan µs",
        ]);
        let mut fits: Vec<String> = Vec::new();
        for k in [2usize, 3, 4] {
            let mut ns = Vec::new();
            let mut times = Vec::new();
            for &n in &cfg.sizes() {
                let ps = planted_spatial(n, dim, k, 0, 1e6, 42 + n as u64);
                let dataset = &ps.dataset;
                let index = OrpKwIndex::try_build(dataset, k)?;
                let kf = KeywordsFirst::build(dataset);
                let sf = StructuredFirst::build(dataset);
                let fs = FullScan::new(dataset);
                let q = Rect::full(dim);
                let kws = &ps.query_keywords;
                let ti = orp_query_time(&index, &q, kws, cfg.reps());
                let tk = measure(cfg.reps(), || {
                    std::hint::black_box(kf.query_rect(&q, kws));
                })
                .median;
                let ts = measure(3, || {
                    std::hint::black_box(sf.query_rect(&q, kws));
                })
                .median;
                let tf = measure(3, || {
                    std::hint::black_box(fs.query_rect(&q, kws));
                })
                .median;
                let big_n = dataset.input_size() as f64;
                ns.push(big_n);
                times.push(ti.as_secs_f64());
                t.row(vec![
                    dim.to_string(),
                    k.to_string(),
                    format!("{}", big_n as u64),
                    us(ti),
                    us(tk),
                    us(ts),
                    us(tf),
                ]);
            }
            fits.push(format!(
                "  d={dim} k={k}: fitted exponent {:.2} (theory 1 − 1/k = {:.2})",
                fit_exponent(&ns, &times),
                1.0 - 1.0 / k as f64
            ));
        }
        t.print();
        println!("\nindex time vs N, log-log slope:");
        for f in fits {
            println!("{f}");
        }
        println!();
    }

    // Worst case of the bound: borderline-frequency keywords (count
    // just below N^(1-1/k)) take the small-keyword materialized-list
    // path at the root; the scan length IS the bound.
    println!("### E1a-worst — borderline-frequency keywords (count ≈ 0.8·N^(1−1/k)), OUT = 0\n");
    println!("Cost is reported both as wall-clock and as the paper's own measure —");
    println!("objects examined — which is cache-noise free.\n");
    let mut t = Table::new(&[
        "k",
        "N",
        "index µs",
        "examined",
        "N^(1-1/k)",
        "kw-only µs",
        "scan µs",
    ]);
    let mut fits = Vec::new();
    for k in [2usize, 3] {
        let mut ns = Vec::new();
        let mut ops = Vec::new();
        for &n in &cfg.sizes() {
            let ps = borderline_spatial(n * 8, 2, k, 0.8, 17 + n as u64);
            let index = OrpKwIndex::try_build(&ps.dataset, k)?;
            let kf = KeywordsFirst::build(&ps.dataset);
            let fs = FullScan::new(&ps.dataset);
            let q = Rect::full(2);
            let kws = &ps.query_keywords;
            let (hits, stats) = index.query_with_stats(&q, kws).expect("valid query");
            assert!(hits.is_empty());
            let ti = orp_query_time(&index, &q, kws, cfg.reps());
            let tk = measure(cfg.reps(), || {
                std::hint::black_box(kf.query_rect(&q, kws));
            })
            .median;
            let tf = measure(3, || {
                std::hint::black_box(fs.query_rect(&q, kws));
            })
            .median;
            let big_n = ps.dataset.input_size() as f64;
            ns.push(big_n);
            ops.push(stats.objects_examined() as f64);
            t.row(vec![
                k.to_string(),
                format!("{}", big_n as u64),
                us(ti),
                stats.objects_examined().to_string(),
                format!("{:.0}", big_n.powf(1.0 - 1.0 / k as f64)),
                us(tk),
                us(tf),
            ]);
        }
        fits.push(format!(
            "  k={k}: examined-objects exponent {:.2} (theory 1 − 1/k = {:.2})",
            fit_exponent(&ns, &ops),
            1.0 - 1.0 / k as f64
        ));
    }
    t.print();
    println!("\nobjects examined vs N, log-log slope:");
    for f in fits {
        println!("{f}");
    }
    println!();

    // Part (b): time vs OUT at fixed N.
    println!("### E1b — time vs OUT at fixed N (d = 2, k = 2, 3)\n");
    let n = if cfg.quick { 50_000 } else { 150_000 };
    let mut t = Table::new(&["k", "OUT", "index µs", "examined", "√(N·OUT)", "kw-only µs"]);
    let mut slopes = Vec::new();
    for k in [2usize, 3] {
        let mut outs = Vec::new();
        let mut ops = Vec::new();
        for planted in [10usize, 100, 1_000, 10_000] {
            let ps = planted_spatial(n, 2, k, planted, 1e6, 77);
            let index = OrpKwIndex::try_build(&ps.dataset, k)?;
            let kf = KeywordsFirst::build(&ps.dataset);
            let q = Rect::full(2);
            let (_, stats) = index
                .query_with_stats(&q, &ps.query_keywords)
                .expect("valid query");
            let ti = orp_query_time(&index, &q, &ps.query_keywords, cfg.reps());
            let tk = measure(cfg.reps(), || {
                std::hint::black_box(kf.query_rect(&q, &ps.query_keywords));
            })
            .median;
            outs.push(planted as f64);
            ops.push(stats.objects_examined() as f64);
            let big_n = ps.dataset.input_size() as f64;
            t.row(vec![
                k.to_string(),
                planted.to_string(),
                us(ti),
                stats.objects_examined().to_string(),
                format!(
                    "{:.0}",
                    big_n.powf(1.0 - 1.0 / k as f64) * (planted as f64).powf(1.0 / k as f64)
                ),
                us(tk),
            ]);
        }
        slopes.push(format!(
            "k={k}: examined-objects vs OUT slope {:.2} — the adaptive growth \
             ~OUT·log(N/OUT) stays below the worst-case envelope \
             N^(1-1/k)·OUT^(1/k) + OUT at every point (see the √(N·OUT) column)",
            fit_exponent(&outs, &ops)
        ));
    }
    t.print();
    for sl in slopes {
        println!("{sl}");
    }
    Ok(())
}

// ====================================================================
// E2 — Table 1, row 3: ORP-KW through LC-KW (linear space, +log N).
// ====================================================================
fn e2(cfg: &Config) -> Result<(), SkqError> {
    println!("## E2 — ORP-KW via LC-KW (Theorem 5, d ≤ k): linear space, log N additive term\n");
    let mut t = Table::new(&["N", "orp words/N", "lc words/N", "orp µs", "lc-rect µs"]);
    for &n in &cfg.sizes() {
        let ps = planted_spatial(n, 2, 2, 100, 1e6, 3);
        let orp = OrpKwIndex::try_build(&ps.dataset, 2)?;
        let lc = SpKwIndex::try_build(&ps.dataset, 2)?;
        let mut gen = QueryGen::new(&ps.dataset, 5);
        let q = gen.rect(0.25);
        let kws = &ps.query_keywords;
        let to = measure(cfg.reps(), || {
            let _ = std::hint::black_box(orp.query(&q, kws));
        })
        .median;
        let tl = measure(cfg.reps(), || {
            let _ = std::hint::black_box(lc.query(&ConvexPolytope::from_rect(&q), kws));
        })
        .median;
        let big_n = ps.dataset.input_size() as f64;
        t.row(vec![
            format!("{}", big_n as u64),
            format!("{:.1}", orp.space_words() as f64 / big_n),
            format!("{:.1}", lc.space_words() as f64 / big_n),
            us(to),
            us(tl),
        ]);
    }
    t.print();
    Ok(())
}

// ====================================================================
// E3 — Table 1, row 4: RR-KW (rectangle intersection reporting).
// ====================================================================
fn e3(cfg: &Config) -> Result<(), SkqError> {
    println!("## E3 — RR-KW (Corollary 3): d = 1 intervals and d = 2 boxes\n");
    println!("Worst-case (borderline-frequency) documents: the query pays the");
    println!("materialized-list scan of length ≈ N^(1−1/k).\n");
    for dim in [1usize, 2] {
        let mut t = Table::new(&["d", "N", "index µs", "examined", "scan µs", "OUT"]);
        let mut ns = Vec::new();
        let mut ops = Vec::new();
        for &n in &cfg.sizes() {
            // Borderline-frequency designated keywords over random boxes.
            let bl = borderline_spatial(n * 2, 1, 2, 0.8, 11 + n as u64);
            let mut rng = StdRng::seed_from_u64(13);
            let rects: Vec<(Rect, Vec<Keyword>)> = (0..bl.dataset.len())
                .map(|i| {
                    let lo: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1e6)).collect();
                    let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(1.0..2e4)).collect();
                    (Rect::new(&lo, &hi), bl.dataset.doc(i).keywords().to_vec())
                })
                .collect();
            let index = RrKwIndex::try_build(&rects, 2)?;
            let q = {
                let lo: Vec<f64> = (0..dim).map(|_| 4e5).collect();
                let hi: Vec<f64> = (0..dim).map(|_| 6e5).collect();
                Rect::new(&lo, &hi)
            };
            let kws = &bl.query_keywords;
            let (hits, stats) = index.query_with_stats(&q, kws).expect("valid query");
            let out_len = hits.len();
            let ti = measure(cfg.reps(), || {
                let _ = std::hint::black_box(index.query(&q, kws));
            })
            .median;
            let ts = measure(3, || {
                std::hint::black_box(skq_core::rr::rr_bruteforce(&rects, &q, kws));
            })
            .median;
            let big_n: usize = rects.iter().map(|(_, k)| k.len()).sum();
            ns.push(big_n as f64);
            ops.push(stats.objects_examined() as f64);
            t.row(vec![
                dim.to_string(),
                big_n.to_string(),
                us(ti),
                stats.objects_examined().to_string(),
                us(ts),
                out_len.to_string(),
            ]);
        }
        t.print();
        println!(
            "d={dim}: examined-objects vs N slope {:.2} (theory 1 − 1/k = 0.50)\n",
            fit_exponent(&ns, &ops)
        );
    }
    Ok(())
}

// ====================================================================
// E4 — Table 1, row 5: L∞NN-KW.
// ====================================================================
fn e4(cfg: &Config) -> Result<(), SkqError> {
    println!("## E4 — L∞NN-KW (Corollary 4): time vs t and vs N\n");
    let n = if cfg.quick { 40_000 } else { 120_000 };
    let ps = planted_spatial(n, 2, 2, 20_000, 1e6, 21);
    let index = LinfNnIndex::try_build(&ps.dataset, 2)?;
    let kf = KeywordsFirst::build(&ps.dataset);
    let q = Point::new2(5e5, 5e5);
    let kws = &ps.query_keywords;

    let mut t = Table::new(&["t", "index µs", "kw-only µs"]);
    let mut ts_axis = Vec::new();
    let mut times = Vec::new();
    for t_arg in [1usize, 4, 16, 64, 256] {
        let ti = measure(cfg.reps(), || {
            let _ = std::hint::black_box(index.query(&q, t_arg, kws));
        })
        .median;
        let tk = measure(cfg.reps(), || {
            std::hint::black_box(kf.nn_linf(&q, t_arg, kws));
        })
        .median;
        ts_axis.push(t_arg as f64);
        times.push(ti.as_secs_f64());
        t.row(vec![t_arg.to_string(), us(ti), us(tk)]);
    }
    t.print();
    println!(
        "time vs t slope {:.2} (theory t^(1/k) = t^0.5 inside a log N · N^(1-1/k) frame)\n",
        fit_exponent(&ts_axis, &times)
    );

    let mut t = Table::new(&["N", "index µs (t=16)", "kw-only µs"]);
    let mut ns = Vec::new();
    let mut times = Vec::new();
    for &n in &cfg.sizes() {
        let ps = planted_spatial(n, 2, 2, n / 10, 1e6, 22);
        let index = LinfNnIndex::try_build(&ps.dataset, 2)?;
        let kf = KeywordsFirst::build(&ps.dataset);
        let ti = measure(cfg.reps(), || {
            let _ = std::hint::black_box(index.query(&q, 16, &ps.query_keywords));
        })
        .median;
        let tk = measure(cfg.reps(), || {
            std::hint::black_box(kf.nn_linf(&q, 16, &ps.query_keywords));
        })
        .median;
        let big_n = ps.dataset.input_size() as f64;
        ns.push(big_n);
        times.push(ti.as_secs_f64());
        t.row(vec![format!("{}", big_n as u64), us(ti), us(tk)]);
    }
    t.print();
    println!(
        "time vs N slope {:.2} (theory ≈ 1 − 1/k = 0.50, × log N)",
        fit_exponent(&ns, &times)
    );
    Ok(())
}

// ====================================================================
// E5 — Table 1, rows 6–7: LC-KW, with the Willard/kd ablation.
// ====================================================================
fn e5(cfg: &Config) -> Result<(), SkqError> {
    println!("## E5 — LC-KW (Theorem 5): halfplane + keywords, Willard vs kd cells\n");
    println!("Worst-case (borderline-frequency) keywords; 'examined' is the");
    println!("operation count, whose N-scaling is the crossing-sensitivity story.\n");
    let mut t = Table::new(&[
        "N",
        "willard µs",
        "w-exam",
        "kd-cells µs",
        "kd-exam",
        "kw-only µs",
        "struct-only µs",
        "scan µs",
    ]);
    let mut ns = Vec::new();
    let mut tw = Vec::new();
    let mut tk_ = Vec::new();
    for &n in &cfg.sizes() {
        let ps = borderline_spatial(n * 2, 2, 2, 0.8, 31 + n as u64);
        let willard = SpKwIndex::try_build(&ps.dataset, 2)?;
        let kdcells = kd_cells_2d(&ps.dataset)?;
        let kf = KeywordsFirst::build(&ps.dataset);
        let sf = StructuredFirst::build(&ps.dataset);
        let fs = FullScan::new(&ps.dataset);
        let mut gen = QueryGen::new(&ps.dataset, 33);
        let q = gen.halfspaces(1);
        let kws = &ps.query_keywords;
        let (_, sw) = willard.query_with_stats(&q, kws).expect("valid query");
        let sk = kdcells(&q, kws);
        let t1 = measure(cfg.reps(), || {
            let _ = std::hint::black_box(willard.query(&q, kws));
        })
        .median;
        let t2 = measure(cfg.reps(), || {
            let _ = std::hint::black_box(kdcells(&q, kws));
        })
        .median;
        let t3 = measure(cfg.reps(), || {
            std::hint::black_box(kf.query_polytope(&q, kws));
        })
        .median;
        let t4 = measure(3, || {
            std::hint::black_box(sf.query_polytope(&q, kws));
        })
        .median;
        let t5 = measure(3, || {
            std::hint::black_box(fs.query_polytope(&q, kws));
        })
        .median;
        let big_n = ps.dataset.input_size() as f64;
        ns.push(big_n);
        tw.push(sw.objects_examined() as f64);
        tk_.push(sk.objects_examined() as f64);
        t.row(vec![
            format!("{}", big_n as u64),
            us(t1),
            sw.objects_examined().to_string(),
            us(t2),
            sk.objects_examined().to_string(),
            us(t3),
            us(t4),
            us(t5),
        ]);
    }
    t.print();
    println!(
        "\nwillard examined slope {:.2} (theory ≤ 1 − 1/k = 0.50 here; crossing constant N^0.79 vs Chan's N^0.5 affects the geometric term)",
        fit_exponent(&ns, &tw)
    );
    println!(
        "kd-cells examined slope {:.2} (the keyword scan dominates here; kd cells have no \
         halfplane crossing bound, and on the adversarial strip they examine all N)",
        fit_exponent(&ns, &tk_)
    );

    // E5b — the partitioner ablation proper: omnipresent keywords make
    // keyword pruning inert, so the visited-node count is exactly the
    // halfplane crossing structure of the partition tree.
    println!("\n### E5b — partitioner ablation: crossing structure under a halfplane\n");
    println!("Every object has both query keywords; visited nodes = geometric work.\n");
    let mut t = Table::new(&[
        "N",
        "willard visited",
        "willard µs",
        "kd visited",
        "kd µs",
        "OUT",
    ]);
    let mut ns = Vec::new();
    let mut vw = Vec::new();
    let mut vk = Vec::new();
    for &n in &cfg.sizes() {
        let ps = omnipresent_spatial(n, 2, 35 + n as u64);
        let willard = SpKwIndex::try_build(&ps.dataset, 2)?;
        let kdcells = kd_cells_2d(&ps.dataset)?;
        // Halfplanes of varied orientation through the data extent:
        // the crossing-node count (worst observed) is the structural
        // quantity the partition-tree analysis bounds — output size
        // does not inflate it.
        let kws = &ps.query_keywords;
        let mut worst_w = (0u64, 0u64, 0usize, std::time::Duration::ZERO);
        let mut worst_k = (0u64, 0u64, std::time::Duration::ZERO);
        let mut rng = StdRng::seed_from_u64(36);
        for _ in 0..8 {
            let theta: f64 = rng.gen_range(0.0..std::f64::consts::PI);
            let (a, b) = (theta.cos(), theta.sin());
            let c = a * rng.gen_range(2e5..8e5) + b * rng.gen_range(2e5..8e5);
            let q = skq_geom::ConvexPolytope::from_halfspace(skq_geom::Halfspace::new(&[a, b], c));
            let (hits, sw) = willard.query_with_stats(&q, kws).expect("valid query");
            let sk = kdcells(&q, kws);
            if sw.crossing_nodes > worst_w.1 {
                let t1 = measure(3, || {
                    let _ = std::hint::black_box(willard.query(&q, kws));
                })
                .median;
                worst_w = (sw.nodes_visited, sw.crossing_nodes, hits.len(), t1);
            }
            if sk.crossing_nodes > worst_k.1 {
                let t2 = measure(3, || {
                    let _ = std::hint::black_box(kdcells(&q, kws));
                })
                .median;
                worst_k = (sk.nodes_visited, sk.crossing_nodes, t2);
            }
        }
        let big_n = ps.dataset.input_size() as f64;
        ns.push(big_n);
        vw.push(worst_w.1 as f64);
        vk.push(worst_k.1 as f64);
        t.row(vec![
            format!("{}", big_n as u64),
            format!("{} ({} crossing)", worst_w.0, worst_w.1),
            us(worst_w.3),
            format!("{} ({} crossing)", worst_k.0, worst_k.1),
            us(worst_k.2),
            worst_w.2.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nwillard crossing-node slope {:.2} (upper bound N^log4(3) = N^0.79; typical \
         halfplanes sit well below the worst case)",
        fit_exponent(&ns, &vw)
    );
    println!(
        "kd-cells crossing-node slope {:.2} (kd has no sublinear guarantee for \
         arbitrary lines — the growth gap vs willard is the ablation signal)",
        fit_exponent(&ns, &vk)
    );
    Ok(())
}

/// The E5 ablation's comparison partitioner: 2D kd cells under
/// halfspaces, k = 2. `SpKwIndex` builds kd cells only for d ≥ 3, so
/// the harness builds this tree itself. The returned query runs SP-KW's
/// traversal on it (classify each cell rectangle, test each object),
/// collects the hits as `SpKwIndex::query` does, and returns the stats.
fn kd_cells_2d(
    dataset: &Dataset,
) -> Result<impl Fn(&ConvexPolytope, &[Keyword]) -> QueryStats, SkqError> {
    let docs = Arc::clone(dataset.shared_docs());
    let points = dataset.points().to_vec();
    let coords = points.iter().flat_map(|p| p.coords()).copied().collect();
    let p = KdPartitioner::new(2, coords, doc_weights(&docs));
    let tree = TransformedIndex::try_build(p, docs, 2..=2)?;
    Ok(move |q: &ConvexPolytope, kws: &[Keyword]| {
        let accept = |o: u32| q.contains(&points[o as usize]);
        let (mut hits, mut stats) = (Vec::new(), QueryStats::new());
        let _ = tree.query_sink(
            kws,
            &|cell| q.classify_rect(cell),
            &accept,
            &mut hits,
            &mut stats,
        );
        stats
    })
}

// ====================================================================
// E6 — Table 1, rows 8–9: SRP-KW.
// ====================================================================
fn e6(cfg: &Config) -> Result<(), SkqError> {
    println!("## E6 — SRP-KW (Corollary 6): balls via lifting\n");
    let mut t = Table::new(&["N", "index µs", "kw-only µs", "scan µs", "OUT"]);
    let mut ns = Vec::new();
    let mut times = Vec::new();
    for &n in &cfg.sizes() {
        let ps = planted_spatial(n, 2, 2, 200, 1e6, 41);
        let index = SrpKwIndex::try_build(&ps.dataset, 2)?;
        let kf = KeywordsFirst::build(&ps.dataset);
        let fs = FullScan::new(&ps.dataset);
        let ball = Ball::new(Point::new2(5e5, 5e5), 2e5);
        let kws = &ps.query_keywords;
        let out_len = index.query(&ball, kws).expect("valid query").len();
        let t1 = measure(cfg.reps(), || {
            let _ = std::hint::black_box(index.query(&ball, kws));
        })
        .median;
        let t2 = measure(cfg.reps(), || {
            std::hint::black_box(kf.query_ball(&ball, kws));
        })
        .median;
        let t3 = measure(3, || {
            std::hint::black_box(fs.query_ball(&ball, kws));
        })
        .median;
        let big_n = ps.dataset.input_size() as f64;
        ns.push(big_n);
        times.push(t1.as_secs_f64());
        t.row(vec![
            format!("{}", big_n as u64),
            us(t1),
            us(t2),
            us(t3),
            out_len.to_string(),
        ]);
    }
    t.print();
    println!(
        "index time vs N slope {:.2} (theory: N^(1-1/(d+1)) = N^0.67 via kd cells on the lifted set)",
        fit_exponent(&ns, &times)
    );
    Ok(())
}

// ====================================================================
// E7 — Table 1, rows 10–11: L2NN-KW.
// ====================================================================
fn e7(cfg: &Config) -> Result<(), SkqError> {
    println!("## E7 — L2NN-KW (Corollary 7): time vs t\n");
    let n = if cfg.quick { 30_000 } else { 80_000 };
    let ps = planted_spatial(n, 2, 2, 10_000, 1e6, 51);
    let index = L2NnIndex::try_build(&ps.dataset, 2)?;
    let kf = KeywordsFirst::build(&ps.dataset);
    let q = Point::new2(5e5, 5e5);
    let kws = &ps.query_keywords;
    let mut t = Table::new(&["t", "index µs", "kw-only µs"]);
    let mut ts_axis = Vec::new();
    let mut times = Vec::new();
    for t_arg in [1usize, 4, 16, 64] {
        let t1 = measure(cfg.reps(), || {
            let _ = std::hint::black_box(index.query(&q, t_arg, kws));
        })
        .median;
        let t2 = measure(cfg.reps(), || {
            std::hint::black_box(kf.nn_l2(&q, t_arg, kws));
        })
        .median;
        ts_axis.push(t_arg as f64);
        times.push(t1.as_secs_f64());
        t.row(vec![t_arg.to_string(), us(t1), us(t2)]);
    }
    t.print();
    println!(
        "time vs t slope {:.2} (theory t^(1/k) = t^0.5 inside log-factor frames)",
        fit_exponent(&ts_axis, &times)
    );
    Ok(())
}

// ====================================================================
// E8 — Table 1, space column: measured words / N.
// ====================================================================
fn e8(cfg: &Config) -> Result<(), SkqError> {
    println!("## E8 — space: words per unit of N (flat ⇒ linear space)\n");
    let mut t = Table::new(&[
        "N",
        "orp-2d",
        "orp-3d (dimred)",
        "rr-1d",
        "sp-willard",
        "srp",
        "ksi",
        "inverted",
    ]);
    for &n in &cfg.sizes() {
        let ps2 = planted_spatial(n, 2, 2, 100, 1e6, 61);
        let ps3 = planted_spatial(n, 3, 2, 100, 1e6, 62);
        let big_n = ps2.dataset.input_size() as f64;
        let orp2 = OrpKwIndex::try_build(&ps2.dataset, 2)?;
        let orp3 = OrpKwIndex::try_build(&ps3.dataset, 2)?;
        let rects: Vec<(Rect, Vec<Keyword>)> = (0..ps2.dataset.len())
            .map(|i| {
                let x = ps2.dataset.point(i).get(0);
                (
                    Rect::new(&[x], &[x + 100.0]),
                    ps2.dataset.doc(i).keywords().to_vec(),
                )
            })
            .collect();
        let rr = RrKwIndex::try_build(&rects, 2)?;
        let sp = SpKwIndex::try_build(&ps2.dataset, 2)?;
        let srp = SrpKwIndex::try_build(&ps2.dataset, 2)?;
        let ksi = KsiIndex::try_build(Arc::clone(ps2.dataset.shared_docs()), 2)?;
        let inv = InvertedIndex::build(ps2.dataset.docs());
        t.row(vec![
            format!("{}", big_n as u64),
            format!("{:.1}", orp2.space_words() as f64 / big_n),
            format!(
                "{:.1}",
                orp3.space_words() as f64 / ps3.dataset.input_size() as f64
            ),
            format!("{:.1}", rr.space_words() as f64 / big_n),
            format!("{:.1}", sp.space_words() as f64 / big_n),
            format!("{:.1}", srp.space_words() as f64 / big_n),
            format!("{:.1}", ksi.space_words() as f64 / big_n),
            format!("{:.1}", 2.0 * inv.input_size() as f64 / big_n),
        ]);
    }
    t.print();
    println!("\nexpect columns flat in N; orp-3d may grow like (log log N)^(d-2).");
    Ok(())
}

// ====================================================================
// E9 — §1.2 / bound (4): pure k-SI against the inverted index.
// ====================================================================
fn e9(cfg: &Config) -> Result<(), SkqError> {
    println!("## E9 — k-SI (§1.2): framework vs galloping merge, bound (4) shape\n");
    let n = if cfg.quick { 60_000 } else { 200_000 };
    for k in [2usize, 3] {
        let mut t = Table::new(&[
            "k",
            "OUT",
            "framework µs",
            "examined",
            "bound",
            "exam/bound",
            "inverted µs",
        ]);
        for planted in [0usize, 10, 100, 1_000, 10_000] {
            let inst = shuffled_planted(n, 8, k, planted, 6, 71);
            let ksi = KsiIndex::try_build(Arc::clone(&inst.docs), k)?;
            let inv = InvertedIndex::build(&inst.docs);
            let (_, stats) = ksi.query_with_stats(&(), &inst.query).expect("valid query");
            let t1 = measure(cfg.reps(), || {
                let _ = std::hint::black_box(ksi.query(&(), &inst.query));
            })
            .median;
            let t2 = measure(cfg.reps(), || {
                std::hint::black_box(inv.intersect(&inst.query));
            })
            .median;
            // Bound (4): N^(1-1/k) + N^(1-1/k)·OUT^(1/k) + OUT. The
            // examined-object count must stay below a constant multiple
            // of it (adaptive instances land far below).
            let big_n = ksi.input_size() as f64;
            let bound = big_n.powf(1.0 - 1.0 / k as f64)
                * (1.0 + (planted as f64).powf(1.0 / k as f64))
                + planted as f64;
            t.row(vec![
                k.to_string(),
                planted.to_string(),
                us(t1),
                stats.objects_examined().to_string(),
                format!("{:.0}", bound),
                format!("{:.3}", stats.objects_examined() as f64 / bound),
                us(t2),
            ]);
        }
        t.print();
        println!();
    }
    println!("exam/bound stays below a constant for every OUT ⇒ bound (4) holds;");
    println!("frequent-keyword instances sit far below it (the index is adaptive).");

    // Tightness of the N^(1-1/k) term: the borderline instance forces
    // the full materialized-list scan.
    println!("\nworst-case N-term utilization (borderline-frequency keywords):");
    for k in [2usize, 3] {
        let bl = borderline_spatial(n, 1, k, 0.8, 73);
        let ksi = KsiIndex::try_build(Arc::clone(bl.dataset.shared_docs()), k)?;
        let (hits, stats) = ksi
            .query_with_stats(&(), &bl.query_keywords)
            .expect("valid query");
        assert!(hits.is_empty());
        let bound = (ksi.input_size() as f64).powf(1.0 - 1.0 / k as f64);
        println!(
            "  k={k}: examined {} / N^(1-1/k) {:.0} = {:.2}",
            stats.objects_examined(),
            bound,
            stats.objects_examined() as f64 / bound
        );
    }
    Ok(())
}

// ====================================================================
// E10 — Lemma 8 flavour: where does each strategy win?
// ====================================================================
fn e10(cfg: &Config) -> Result<(), SkqError> {
    println!("## E10 — crossover analysis: index wins iff OUT = o(N)\n");
    let n = if cfg.quick { 60_000 } else { 150_000 };
    let mut t = Table::new(&["OUT/N", "OUT", "framework µs", "inverted µs", "winner"]);
    for frac_inv in [100_000usize, 10_000, 1_000, 100, 10, 4, 2] {
        let planted = (n / frac_inv).max(if frac_inv == 100_000 { 0 } else { 1 });
        let inst = shuffled_planted(n, 8, 2, planted, 6, 81);
        let ksi = KsiIndex::try_build(Arc::clone(&inst.docs), 2)?;
        let inv = InvertedIndex::build(&inst.docs);
        let t1 = measure(cfg.reps(), || {
            let _ = std::hint::black_box(ksi.query(&(), &inst.query));
        })
        .median;
        let t2 = measure(cfg.reps(), || {
            std::hint::black_box(inv.intersect(&inst.query));
        })
        .median;
        t.row(vec![
            format!("{:.1e}", planted as f64 / n as f64),
            planted.to_string(),
            us(t1),
            us(t2),
            if t1 < t2 { "framework" } else { "inverted" }.to_string(),
        ]);
    }
    t.print();
    println!("\nexpected: framework wins until OUT approaches a constant fraction of N,");
    println!("where both must pay Θ(OUT) anyway (the Lemma 8 discussion).");
    Ok(())
}

// ====================================================================
// X1 — extension: the dynamic index (logarithmic method).
// ====================================================================
fn x1(cfg: &Config) -> Result<(), SkqError> {
    use skq_core::dynamic::DynamicOrpKw;
    println!("## X1 — dynamic ORP-KW (extension): update cost and query overhead\n");
    println!("Bentley–Saxe blocks over the static Theorem-1 index; queries touch");
    println!("O(log n) blocks, inserts amortize to O(log n) rebuild work per object.\n");
    let mut t = Table::new(&[
        "n inserted",
        "insert µs/op",
        "blocks",
        "dyn query µs",
        "static query µs",
    ]);
    for &n in &cfg.sizes() {
        let ps = planted_spatial(n, 2, 2, n / 100, 1e6, 111);
        // Dynamic: feed one by one.
        let t0 = std::time::Instant::now();
        let mut dynamic = DynamicOrpKw::new(2, 2);
        let mut handles = Vec::with_capacity(n);
        for i in 0..n {
            handles.push(
                dynamic.try_insert(*ps.dataset.point(i), ps.dataset.doc(i).keywords().to_vec())?,
            );
        }
        let per_op = t0.elapsed().as_secs_f64() * 1e6 / n as f64;
        // Static: one build.
        let static_index = OrpKwIndex::try_build(&ps.dataset, 2)?;
        let mut gen = QueryGen::new(&ps.dataset, 112);
        let q = gen.rect(0.05);
        let kws = &ps.query_keywords;
        let unguarded = skq_core::QueryGuard::new();
        let td = measure(cfg.reps(), || {
            let _ = std::hint::black_box(dynamic.query(&q, kws, &unguarded));
        })
        .median;
        let ts = measure(cfg.reps(), || {
            let _ = std::hint::black_box(static_index.query(&q, kws));
        })
        .median;
        // Sanity: identical answer sizes.
        assert_eq!(
            dynamic
                .query(&q, kws, &unguarded)
                .expect("valid query")
                .0
                .len(),
            static_index.query(&q, kws).expect("valid query").len()
        );
        t.row(vec![
            n.to_string(),
            format!("{per_op:.2}"),
            dynamic.num_blocks().to_string(),
            us(td),
            us(ts),
        ]);
    }
    t.print();
    println!("\nexpect: dyn query ≈ static × O(#blocks) in the worst case, much less in");
    println!("practice (most blocks are small); insert cost flat-ish (amortized log).");
    Ok(())
}

// ====================================================================
// X2 — extension: sink-based emission modes (collect / count / limit).
// ====================================================================
fn x2(cfg: &Config) -> Result<(), SkqError> {
    use skq_core::sink::{CountSink, LimitSink, ResultSink};
    use skq_core::stats::QueryStats;
    println!("## X2 — result emission modes: collect vs count vs limit-10\n");
    println!("One traversal, three sinks: collecting materializes the result");
    println!("vector, counting touches no result memory at all, and a limit");
    println!("sink stops the traversal at the t-th hit (the threshold-query");
    println!("primitive behind the NN binary searches).\n");
    let mut t = Table::new(&["N", "OUT", "collect µs", "count µs", "limit-10 µs"]);
    for &n in &cfg.sizes() {
        let ps = planted_spatial(n, 2, 2, n / 20, 1e6, 211);
        let index = OrpKwIndex::try_build(&ps.dataset, 2)?;
        let q = Rect::full(2);
        let kws = &ps.query_keywords;
        let out_len = index.query(&q, kws).expect("valid query").len();
        let tc = measure(cfg.reps(), || {
            let _ = std::hint::black_box(index.query(std::hint::black_box(&q), kws));
        })
        .median;
        let tn = measure(cfg.reps(), || {
            let mut sink = CountSink::new();
            let mut stats = QueryStats::new();
            let _ = index.query_sink(std::hint::black_box(&q), kws, &mut sink, &mut stats);
            std::hint::black_box(sink.count());
        })
        .median;
        let tl = measure(cfg.reps(), || {
            let mut sink = LimitSink::new(CountSink::new(), 10);
            let mut stats = QueryStats::new();
            let _ = index.query_sink(std::hint::black_box(&q), kws, &mut sink, &mut stats);
            std::hint::black_box(sink.emitted());
        })
        .median;
        t.row(vec![
            ps.dataset.input_size().to_string(),
            out_len.to_string(),
            us(tc),
            us(tn),
            us(tl),
        ]);
    }
    t.print();
    println!("\nexpect: count ≈ collect (same traversal; the saving is result");
    println!("memory, not time), and limit-10 far below both once OUT is");
    println!("large (the traversal stops at the 10th hit).");
    Ok(())
}

// ====================================================================
// X3 — extension: guarded-query overhead (deadline/cancel/budget).
// ====================================================================
fn x3(cfg: &Config) -> Result<(), SkqError> {
    use skq_core::guard::{CancelToken, GuardedSink, QueryGuard};
    use skq_core::sink::ResultSink;
    use skq_core::stats::QueryStats;
    println!("## X3 — fault-tolerance tax: plain sink vs GuardedSink\n");
    println!("The robustness layer checks a deadline, a cancellation token and");
    println!("a result budget at every emission. This measures what those");
    println!("checks cost on a traversal where no limit ever trips — the");
    println!("steady-state overhead a service pays for guarded queries.\n");
    let mut t = Table::new(&[
        "N",
        "OUT",
        "plain µs",
        "empty guard µs",
        "armed guard µs",
        "tax %",
    ]);
    for &n in &cfg.sizes() {
        let ps = planted_spatial(n, 2, 2, n / 20, 1e6, 223);
        let index = OrpKwIndex::try_build(&ps.dataset, 2)?;
        let q = Rect::full(2);
        let kws = &ps.query_keywords;
        let out_len = index.query(&q, kws).expect("valid query").len();
        let tp = measure(cfg.reps(), || {
            let mut out: Vec<u32> = Vec::new();
            let mut stats = QueryStats::new();
            let _ = index.query_sink(std::hint::black_box(&q), kws, &mut out, &mut stats);
            std::hint::black_box(out.len());
        })
        .median;
        let te = measure(cfg.reps(), || {
            let guard = QueryGuard::new();
            let mut sink = GuardedSink::new(Vec::new(), &guard);
            let mut stats = QueryStats::new();
            let _ = index.query_sink(std::hint::black_box(&q), kws, &mut sink, &mut stats);
            std::hint::black_box(sink.emitted());
        })
        .median;
        // All three limits armed, none of them close to tripping.
        let ta = measure(cfg.reps(), || {
            let guard = QueryGuard::new()
                .with_deadline(Duration::from_secs(3600))
                .with_cancel(CancelToken::new())
                .with_max_results(usize::MAX);
            let mut sink = GuardedSink::new(Vec::new(), &guard);
            let mut stats = QueryStats::new();
            let _ = index.query_sink(std::hint::black_box(&q), kws, &mut sink, &mut stats);
            std::hint::black_box(sink.emitted());
        })
        .median;
        let tax = (ta.as_secs_f64() / tp.as_secs_f64() - 1.0) * 100.0;
        t.row(vec![
            ps.dataset.input_size().to_string(),
            out_len.to_string(),
            us(tp),
            us(te),
            us(ta),
            format!("{tax:+.1}"),
        ]);
    }
    t.print();
    println!("\nexpect: the empty guard is nearly free (one latched-reason");
    println!("branch per emission); the armed guard adds an Instant::now()");
    println!("call per emission, a few percent on emission-dense queries and");
    println!("noise on traversal-dominated ones.");
    Ok(())
}

// ====================================================================
// F1 — Figure 1 / Lemmas 9–10: crossing analysis of the kd framework.
// ====================================================================
fn f1(cfg: &Config) -> Result<(), SkqError> {
    println!("## F1 — crossing sensitivity (Figure 1, Lemmas 9–10)\n");
    let mut t = Table::new(&[
        "N",
        "crossing (line)",
        "√N",
        "covered (line)",
        "crossing (window)",
    ]);
    let mut ns = Vec::new();
    let mut crossings = Vec::new();
    for &n in &cfg.sizes() {
        // Every object holds both query keywords: keyword pruning never
        // fires and the bare geometric crossing structure is exposed.
        let ps = omnipresent_spatial(n, 2, 91 + n as u64);
        let index = OrpKwIndex::try_build(&ps.dataset, 2)?;
        let kws = &ps.query_keywords;
        let mut gen = QueryGen::new(&ps.dataset, 92);
        let mut max_cross_line = 0u64;
        let mut max_cov_line = 0u64;
        let mut max_cross_window = 0u64;
        let mut rng = StdRng::seed_from_u64(97);
        for _ in 0..10 {
            // A vertical line *through a data coordinate*: in rank space a
            // random real x hits no rank at all (an empty slab), so anchor
            // the line on an actual object's x.
            let x = ps.dataset.point(rng.gen_range(0..ps.dataset.len())).get(0);
            let line = Rect::new(&[x, f64::NEG_INFINITY], &[x, f64::INFINITY]);
            let (_, s) = index.query_with_stats(&line, kws).expect("valid query");
            max_cross_line = max_cross_line.max(s.crossing_nodes);
            max_cov_line = max_cov_line.max(s.covered_nodes);
            let w = gen.rect(0.1);
            let (_, s) = index.query_with_stats(&w, kws).expect("valid query");
            max_cross_window = max_cross_window.max(s.crossing_nodes);
        }
        let big_n = ps.dataset.input_size() as f64;
        ns.push(big_n);
        crossings.push(max_cross_line as f64);
        t.row(vec![
            format!("{}", big_n as u64),
            max_cross_line.to_string(),
            format!("{:.0}", big_n.sqrt()),
            max_cov_line.to_string(),
            max_cross_window.to_string(),
        ]);
    }
    t.print();
    println!(
        "\ncrossing-node count vs N slope {:.2} (Lemma 10 theory: 0.50)",
        fit_exponent(&ns, &crossings)
    );

    // The per-level picture of Figure 1: crossing nodes thin out with
    // depth after compaction; report one sample histogram and the
    // geometric-sum check Σ crossing(level)·2^(−level/2) = O(√N) scale.
    let ps = omnipresent_spatial(cfg.sizes()[cfg.sizes().len() - 1], 2, 93);
    let index = OrpKwIndex::try_build(&ps.dataset, 2)?;
    let anchor_x = ps.dataset.point(ps.dataset.len() / 2).get(0);
    let line = Rect::new(&[anchor_x, f64::NEG_INFINITY], &[anchor_x, f64::INFINITY]);
    let (_, s) = index
        .query_with_stats(&line, &ps.query_keywords)
        .expect("valid query");
    println!("\nsample per-level crossing histogram for one vertical line:");
    println!("{:?}", s.crossing_by_level);
    // Lemma 10 bounds Σ over the *leaves* of T_cross of (1/2)^(ℓ/2);
    // the deepest histogram level is exactly those leaves here.
    if let Some((l, &c)) = s
        .crossing_by_level
        .iter()
        .enumerate()
        .rev()
        .find(|(_, &c)| c > 0)
    {
        println!(
            "T_cross leaves: {c} nodes at level {l} ⇒ Σ 2^(−ℓ/2) = {:.2} (Lemma 10: ≤ 2)",
            c as f64 * 0.5f64.powf(l as f64 / 2.0)
        );
    }

    // Fully-covering queries have no crossing nodes at all.
    let (_, s) = index
        .query_with_stats(&Rect::full(2), &ps.query_keywords)
        .expect("valid query");
    println!(
        "full-space query: crossing = {}, covered = {} (crossing must be ~0)",
        s.crossing_nodes, s.covered_nodes
    );
    Ok(())
}

// ====================================================================
// F2 — Figure 2 / Propositions 1–3: dimension-reduction structure.
// ====================================================================
fn f2(cfg: &Config) -> Result<(), SkqError> {
    println!("## F2 — dimension-reduction tree structure (Figure 2, Props 1–3)\n");
    let mut t = Table::new(&[
        "N",
        "levels",
        "log2 log2 N",
        "nodes",
        "max type-2/level",
        "max type-1/level",
    ]);
    for &n in &cfg.sizes() {
        let ps = planted_spatial(n, 3, 2, 200, 1e6, 95);
        let tree = skq_core::dimred::DimRedTree::build(&ps.dataset, 2);
        let index = OrpKwIndex::try_build(&ps.dataset, 2)?;
        let mut gen = QueryGen::new(&ps.dataset, 96);
        let mut max_t2 = 0u64;
        let mut max_t1 = 0u64;
        for _ in 0..20 {
            let q = gen.rect(0.2);
            let (_, s) = index
                .query_with_stats(&q, &ps.query_keywords)
                .expect("valid query");
            max_t2 = max_t2.max(s.type2_by_level.iter().copied().max().unwrap_or(0));
            max_t1 = max_t1.max(s.type1_by_level.iter().copied().max().unwrap_or(0));
        }
        let big_n = ps.dataset.input_size() as f64;
        t.row(vec![
            format!("{}", big_n as u64),
            tree.num_levels().to_string(),
            format!("{:.1}", big_n.log2().log2()),
            tree.num_nodes().to_string(),
            max_t2.to_string(),
            max_t1.to_string(),
        ]);
    }
    t.print();
    println!("\nProposition 1: levels = O(log log N); §4 analysis: ≤ 2 type-2 nodes per level.");
    Ok(())
}
