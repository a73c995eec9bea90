//! Quickstart: the paper's introductory hotel example.
//!
//! A relation `Hotel(price, rating, Doc)` where `Doc` holds textual
//! tags. We ask the two queries from the introduction:
//!
//! * **C1** (orthogonal range): `price ∈ [100, 200] AND rating ≥ 8`,
//!   with keywords `pool`, `free-parking`, `pet-friendly`;
//! * **C2** (linear constraint): `c₁·price + c₂·(10 − rating) ≤ c₃`,
//!   with the same keywords.
//!
//! Run with: `cargo run --example quickstart`

use structured_keyword_search::prelude::*;

fn main() -> Result<(), SkqError> {
    // --- Build the hotel table. -----------------------------------
    let mut dict = Dictionary::new();
    let pool = dict.intern("pool");
    let parking = dict.intern("free-parking");
    let pets = dict.intern("pet-friendly");
    let spa = dict.intern("spa");
    let gym = dict.intern("gym");

    let rows: Vec<(&str, f64, f64, Vec<Keyword>)> = vec![
        ("Seaview", 120.0, 8.5, vec![pool, parking, pets]),
        ("Grand Palace", 250.0, 9.5, vec![pool, pets, spa]),
        ("Hilltop Lodge", 150.0, 8.8, vec![pool, parking, pets, gym]),
        ("Budget Inn", 60.0, 6.9, vec![parking]),
        ("Central Suites", 180.0, 7.5, vec![pool, parking, pets]),
        ("Quiet Corner", 95.0, 9.1, vec![parking, pets]),
        ("Marina Bay", 199.0, 8.0, vec![pool, parking, pets, spa]),
    ];
    let names: Vec<&str> = rows.iter().map(|r| r.0).collect();
    let hotels = Dataset::from_parts(
        rows.iter()
            .map(|(_, price, rating, kws)| (Point::new2(*price, *rating), kws.clone()))
            .collect(),
    );
    println!(
        "{} hotels, input size N = {} (total tag occurrences)\n",
        hotels.len(),
        hotels.input_size()
    );

    let wanted = [pool, parking, pets];

    // --- C1: orthogonal range + keywords (ORP-KW, Theorem 1). -----
    let orp = OrpKwIndex::try_build(&hotels, wanted.len())?;
    let c1 = Rect::new(&[100.0, 8.0], &[200.0, 10.0]);
    let mut hits = orp.query(&c1, &wanted)?;
    hits.sort_unstable();
    println!("C1: price ∈ [100, 200] AND rating ≥ 8 AND pool ∧ free-parking ∧ pet-friendly");
    for id in &hits {
        let p = hotels.point(*id as usize);
        println!(
            "  → {:<14} (price {:>5}, rating {})",
            names[*id as usize],
            p.get(0),
            p.get(1)
        );
    }

    // --- C2: linear constraint + keywords (LC-KW, Theorem 5, on the
    // SP-KW index). ---------------------------------------------------
    // price + 40·(10 − rating) ≤ 240  ⇔  price − 40·rating ≤ −160.
    let lc = SpKwIndex::try_build(&hotels, wanted.len())?;
    let c2 = Halfspace::new(&[1.0, -40.0], -160.0);
    let mut hits = lc.query(&ConvexPolytope::new(vec![c2]), &wanted)?;
    hits.sort_unstable();
    println!("\nC2: price + 40·(10 − rating) ≤ 240 AND the same keywords");
    for id in &hits {
        let p = hotels.point(*id as usize);
        println!(
            "  → {:<14} (price {:>5}, rating {})",
            names[*id as usize],
            p.get(0),
            p.get(1)
        );
    }

    // --- Nearest by value profile (L∞NN-KW, Corollary 4). ---------
    let nn = LinfNnIndex::try_build(&hotels, wanted.len())?;
    let target = Point::new2(150.0, 9.0);
    let (best, _) = nn.query(&target, 2, &wanted)?;
    println!("\n2 hotels with all keywords closest to (price 150, rating 9) under L∞:");
    for id in &best {
        let p = hotels.point(*id as usize);
        println!(
            "  → {:<14} (price {:>5}, rating {}, L∞ distance {})",
            names[*id as usize],
            p.get(0),
            p.get(1),
            p.linf(&target)
        );
    }

    // --- Sanity: agree with the naive full scan. -------------------
    let oracle = FullScan::new(&hotels);
    assert_eq!(
        {
            let mut v = oracle.query_rect(&c1, &wanted);
            v.sort_unstable();
            v
        },
        orp.query(&c1, &wanted)?
            .into_iter()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect::<Vec<_>>()
    );
    println!("\nAll index answers verified against a full scan. ✓");
    Ok(())
}
