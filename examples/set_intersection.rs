//! Pure k-set intersection: the hardness core of keyword search (§1.2).
//!
//! Builds a *planted* instance where three designated sets intersect in
//! exactly `OUT` elements while every pair of them shares thousands —
//! the worst case for merge-based intersection. Compares the paper's
//! framework index (`O(N^{1−1/k}(1 + OUT^{1/k}))`) against the
//! galloping inverted-index merge (`Θ(shortest list)`).
//!
//! Run with: `cargo run --release --example set_intersection`

use std::time::Instant;

use structured_keyword_search::prelude::*;
use structured_keyword_search::workload::ksi::planted_instance;

fn main() -> Result<(), SkqError> {
    let n = 200_000;
    let k = 3;
    println!("planted 3-set intersection over {n} elements\n");
    println!(
        "{:>8} {:>14} {:>14} {:>12}",
        "OUT", "framework", "inverted idx", "speedup"
    );

    for planted in [0usize, 10, 100, 1_000, 10_000] {
        let inst = planted_instance(n, 8, k, planted, 6, 99);
        let ksi = KsiIndex::try_build(inst.docs.as_slice(), k)?;
        let inv = InvertedIndex::build(&inst.docs);

        // Warm up + verify both agree with the planted truth.
        let mut got = ksi.query(&(), &inst.query)?;
        got.sort_unstable();
        assert_eq!(got, inst.expected);
        assert_eq!(inv.intersect(&inst.query), inst.expected);

        let reps = 20;
        let t = Instant::now();
        for _ in 0..reps {
            let _ = std::hint::black_box(ksi.query(&(), std::hint::black_box(&inst.query)));
        }
        let fw = t.elapsed() / reps;

        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(inv.intersect(std::hint::black_box(&inst.query)));
        }
        let naive = t.elapsed() / reps;

        println!(
            "{planted:>8} {fw:>14.1?} {naive:>14.1?} {:>11.1}x",
            naive.as_secs_f64() / fw.as_secs_f64().max(1e-12)
        );
    }

    println!(
        "\nThe framework wins big when OUT is small (it certifies emptiness in \
         ~N^(1-1/k) work) and converges to the naive cost as OUT approaches N — \
         exactly the shape of bound (4) in the paper."
    );

    // Emptiness queries (the strong k-set-disjointness side).
    let inst = planted_instance(n, 8, k, 0, 6, 7);
    let ksi = KsiIndex::try_build(inst.docs.as_slice(), k)?;
    let inv = InvertedIndex::build(&inst.docs);
    let t = Instant::now();
    let reps = 50;
    for _ in 0..reps {
        assert!(!ksi.count_at_least(&(), std::hint::black_box(&inst.query), 1)?);
    }
    let fw = t.elapsed() / reps;
    let t = Instant::now();
    for _ in 0..reps {
        assert!(inv.intersection_is_empty(std::hint::black_box(&inst.query)));
    }
    let naive = t.elapsed() / reps;
    println!("\nemptiness query: framework {fw:.1?} vs inverted index {naive:.1?}");
    Ok(())
}
