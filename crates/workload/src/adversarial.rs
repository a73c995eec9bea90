//! Worst-case inputs for the partition-tree rows of Table 1.
//!
//! Theorem 5's bound assumes a partition tree whose cells few query
//! hyperplanes cross. Random halfspaces do not test that assumption;
//! these families put every object within one unit of a query boundary,
//! so a tree without a crossing bound for that boundary visits every
//! node. Every document is `{0, 1}`: a query on keywords 0 and 1 has an
//! inert keyword filter and measures the partition tree alone.

use rand::{rngs::StdRng, Rng, SeedableRng};
use skq_core::dataset::Dataset;
use skq_geom::Point;

/// The circle radius of [`annulus`].
pub const ANNULUS_RADIUS: f64 = 10_000.0;

/// The circle centre of [`annulus`]: off the origin, so the lifted
/// ball boundary is a tilted plane rather than the axis-parallel
/// `z = r²`, which kd cells would split cleanly.
pub const ANNULUS_CENTER: [f64; 2] = [ANNULUS_RADIUS, ANNULUS_RADIUS];

/// Object `i` at `(i, i + uᵢ)` with `uᵢ` uniform in `[−1, 1]`: a strip
/// along the diagonal. The halfplane `y ≥ x + c` for `|c| < 1` cuts
/// through it lengthwise, so its line passes within one unit of every
/// object — a tilted line that crosses every kd cell.
pub fn strip(num_objects: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    Dataset::from_parts(
        (0..num_objects)
            .map(|i| {
                let x = i as f64;
                (Point::new2(x, x + rng.gen_range(-1.0..=1.0)), vec![0, 1])
            })
            .collect(),
    )
}

/// Points within ±1 of the circle of radius [`ANNULUS_RADIUS`] about
/// [`ANNULUS_CENTER`] (angle and radius uniform). The concentric ball of radius just
/// under [`ANNULUS_RADIUS`] has every object within one unit of its
/// boundary; lifted to 3D for SRP-KW (Corollary 6), that boundary is a
/// plane tangent to the paraboloid the lifted objects lie on.
pub fn annulus(num_objects: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    Dataset::from_parts(
        (0..num_objects)
            .map(|_| {
                let theta = rng.gen_range(0.0..std::f64::consts::TAU);
                let r = ANNULUS_RADIUS + rng.gen_range(-1.0..=1.0);
                let [cx, cy] = ANNULUS_CENTER;
                (
                    Point::new2(cx + r * theta.cos(), cy + r * theta.sin()),
                    vec![0, 1],
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_points_lie_within_one_unit_of_the_diagonal() {
        let d = strip(1_000, 3);
        assert_eq!(d.len(), 1_000);
        for i in 0..d.len() {
            let p = d.point(i);
            assert_eq!(p.get(0), i as f64);
            assert!((p.get(1) - p.get(0)).abs() <= 1.0);
            assert_eq!(d.doc(i).keywords(), &[0, 1]);
        }
    }

    #[test]
    fn annulus_points_lie_within_one_unit_of_the_circle() {
        let d = annulus(1_000, 4);
        for i in 0..d.len() {
            let r = d.point(i).l2_sq(&Point::new(&ANNULUS_CENTER)).sqrt();
            assert!((r - ANNULUS_RADIUS).abs() <= 1.0 + 1e-9, "radius {r}");
            assert_eq!(d.doc(i).keywords(), &[0, 1]);
        }
    }

    #[test]
    fn families_are_deterministic() {
        for make in [strip, annulus] {
            let (a, b) = (make(300, 9), make(300, 9));
            assert!((0..a.len()).all(|i| a.point(i) == b.point(i)));
        }
    }
}
