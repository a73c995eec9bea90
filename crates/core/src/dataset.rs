//! The input representation: a set of objects with points and documents.
//!
//! Paper §1.1: the input dataset is a set `D` of *objects*; each object
//! `e ∈ D` has a non-empty document `e.Doc` (a set of integers). The
//! input size is `N := Σ_{e∈D} |e.Doc|`, and all bounds are stated in
//! terms of `N`.

use crate::error::SkqError;
use skq_geom::Point;
use skq_invidx::{Document, Keyword};

/// An immutable dataset of objects, each a point with a document.
///
/// Object ids are their positions (`0..len`).
#[derive(Clone, Debug)]
pub struct Dataset {
    points: Vec<Point>,
    docs: Vec<Document>,
    input_size: usize,
    num_keywords: usize,
    dim: usize,
}

impl Dataset {
    /// Builds a dataset from `(point, keywords)` pairs.
    ///
    /// # Panics
    ///
    /// Panics with the [`try_from_parts`](Self::try_from_parts) error
    /// message if the input is empty, a document is empty, point
    /// dimensions are inconsistent, or a coordinate is NaN/infinite.
    pub fn from_parts(parts: Vec<(Point, Vec<Keyword>)>) -> Self {
        Self::try_from_parts(parts).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`from_parts`](Self::from_parts): validates the input
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidDataset` if the input is empty, an object has
    /// an empty keyword set, point dimensions are inconsistent, or any
    /// coordinate is NaN or infinite.
    pub fn try_from_parts(parts: Vec<(Point, Vec<Keyword>)>) -> Result<Self, SkqError> {
        if parts.is_empty() {
            return Err(SkqError::InvalidDataset("dataset must be non-empty".into()));
        }
        let dim = parts[0].0.dim();
        let mut points = Vec::with_capacity(parts.len());
        let mut docs = Vec::with_capacity(parts.len());
        for (id, (p, kws)) in parts.into_iter().enumerate() {
            if p.dim() != dim {
                return Err(SkqError::InvalidDataset(format!(
                    "inconsistent point dimensions: object {id} is {}-dimensional, object 0 is {dim}-dimensional",
                    p.dim()
                )));
            }
            if kws.is_empty() {
                return Err(SkqError::InvalidDataset(format!(
                    "documents must be non-empty: object {id} has no keywords"
                )));
            }
            Self::check_finite(id, &p)?;
            points.push(p);
            docs.push(Document::new(kws));
        }
        Ok(Self::assemble(points, docs))
    }

    /// Builds a dataset from parallel point/document vectors.
    ///
    /// # Panics
    ///
    /// Panics with the [`try_new`](Self::try_new) error message on
    /// empty input, length mismatch, inconsistent dimensions, or
    /// NaN/infinite coordinates.
    pub fn new(points: Vec<Point>, docs: Vec<Document>) -> Self {
        Self::try_new(points, docs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`new`](Self::new): validates the input instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidDataset` on empty input, a points/docs length
    /// mismatch, inconsistent dimensions, or NaN/infinite coordinates.
    /// (Documents are non-empty by `Document` construction.)
    pub fn try_new(points: Vec<Point>, docs: Vec<Document>) -> Result<Self, SkqError> {
        if points.is_empty() {
            return Err(SkqError::InvalidDataset("dataset must be non-empty".into()));
        }
        if points.len() != docs.len() {
            return Err(SkqError::InvalidDataset(format!(
                "points/docs length mismatch: {} points, {} docs",
                points.len(),
                docs.len()
            )));
        }
        let dim = points[0].dim();
        for (id, p) in points.iter().enumerate() {
            if p.dim() != dim {
                return Err(SkqError::InvalidDataset(format!(
                    "inconsistent point dimensions: object {id} is {}-dimensional, object 0 is {dim}-dimensional",
                    p.dim()
                )));
            }
            Self::check_finite(id, p)?;
        }
        Ok(Self::assemble(points, docs))
    }

    fn check_finite(id: usize, p: &Point) -> Result<(), SkqError> {
        for i in 0..p.dim() {
            if !p.get(i).is_finite() {
                return Err(SkqError::InvalidDataset(format!(
                    "coordinates must be finite: object {id} has {} in dimension {i}",
                    p.get(i)
                )));
            }
        }
        Ok(())
    }

    /// Assembles a dataset from pre-validated parts. Internal
    /// constructor for the derived-dataset transforms (`map_points`,
    /// `subset`), which operate on already-validated data and must not
    /// re-pay full validation on every reduction.
    fn assemble(points: Vec<Point>, docs: Vec<Document>) -> Self {
        let dim = points[0].dim();
        debug_assert!(points.iter().all(|p| p.dim() == dim));
        let input_size = docs.iter().map(Document::len).sum();
        let num_keywords = docs
            .iter()
            .flat_map(|d| d.keywords().iter().copied())
            .max()
            .map(|m| m as usize + 1)
            .unwrap_or(0);
        Self {
            points,
            docs,
            input_size,
            num_keywords,
            dim,
        }
    }

    /// The number of objects `|D|`.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Never true: datasets are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The input size `N = Σ |e.Doc|` — the quantity the paper's bounds
    /// are stated in.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// An upper bound on the keyword universe `W` (max keyword id + 1).
    pub fn num_keywords(&self) -> usize {
        self.num_keywords
    }

    /// The dimensionality `d` of the points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The point of object `id`.
    #[inline]
    pub fn point(&self, id: usize) -> &Point {
        &self.points[id]
    }

    /// The document of object `id`.
    #[inline]
    pub fn doc(&self, id: usize) -> &Document {
        &self.docs[id]
    }

    /// All points, indexed by object id.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// All documents, indexed by object id.
    pub fn docs(&self) -> &[Document] {
        &self.docs
    }

    /// The weight `|e.Doc|` of object `id` — the number of its copies in
    /// the *verbose set* `P` of §3.2.
    #[inline]
    pub fn weight(&self, id: usize) -> u64 {
        self.docs[id].len() as u64
    }

    /// A derived dataset with the same documents but transformed points
    /// (used by the reductions: rank space, lifting, rectangle
    /// flattening).
    ///
    /// # Panics
    ///
    /// Panics if `f` yields inconsistent dimensions.
    pub fn map_points(&self, f: impl Fn(usize, &Point) -> Point) -> Dataset {
        let points: Vec<Point> = self
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| f(i, p))
            .collect();
        let dim = points[0].dim();
        assert!(
            points.iter().all(|p| p.dim() == dim),
            "inconsistent point dimensions"
        );
        Dataset::assemble(points, self.docs.clone())
    }

    /// A derived dataset restricted to the given object ids, together
    /// with the id mapping `local -> global` (used by the
    /// dimension-reduction tree, whose nodes index their active sets).
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty or contains an out-of-range id.
    pub fn subset(&self, ids: &[u32]) -> (Dataset, Vec<u32>) {
        assert!(!ids.is_empty(), "subset must be non-empty");
        let points: Vec<Point> = ids.iter().map(|&i| self.points[i as usize]).collect();
        let docs: Vec<Document> = ids.iter().map(|&i| self.docs[i as usize].clone()).collect();
        (Dataset::assemble(points, docs), ids.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::from_parts(vec![
            (Point::new2(1.0, 2.0), vec![0, 1]),
            (Point::new2(3.0, 4.0), vec![1, 2, 3]),
            (Point::new2(5.0, 6.0), vec![7]),
        ])
    }

    #[test]
    fn sizes() {
        let d = sample();
        assert_eq!(d.len(), 3);
        assert_eq!(d.input_size(), 6);
        assert_eq!(d.num_keywords(), 8);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.weight(1), 3);
    }

    #[test]
    fn map_points_keeps_docs() {
        let d = sample();
        let lifted = d.map_points(|_, p| p.extend(p.norm_sq()));
        assert_eq!(lifted.dim(), 3);
        assert_eq!(lifted.doc(1), d.doc(1));
        assert_eq!(lifted.point(0).get(2), 5.0);
    }

    #[test]
    fn subset_maps_ids() {
        let d = sample();
        let (s, map) = d.subset(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(map, vec![2, 0]);
        assert_eq!(s.point(0), d.point(2));
        assert_eq!(s.doc(1), d.doc(0));
        assert_eq!(s.input_size(), 3);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_dataset_rejected() {
        let _ = Dataset::from_parts(vec![]);
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn mixed_dims_rejected() {
        let _ = Dataset::from_parts(vec![
            (Point::new2(0.0, 0.0), vec![0]),
            (Point::new1(0.0), vec![0]),
        ]);
    }

    #[test]
    fn try_from_parts_rejects_invalid_inputs() {
        assert!(matches!(
            Dataset::try_from_parts(vec![]),
            Err(SkqError::InvalidDataset(_))
        ));
        let nan = Dataset::try_from_parts(vec![(Point::new2(f64::NAN, 0.0), vec![0])]);
        assert!(matches!(nan, Err(SkqError::InvalidDataset(ref m)) if m.contains("finite")));
        let inf = Dataset::try_from_parts(vec![(Point::new2(0.0, f64::INFINITY), vec![0])]);
        assert!(matches!(inf, Err(SkqError::InvalidDataset(ref m)) if m.contains("finite")));
        let empty_doc = Dataset::try_from_parts(vec![(Point::new2(0.0, 0.0), vec![])]);
        assert!(
            matches!(empty_doc, Err(SkqError::InvalidDataset(ref m)) if m.contains("non-empty"))
        );
    }

    #[test]
    fn try_from_parts_accepts_valid_input() {
        let d = Dataset::try_from_parts(vec![(Point::new2(1.0, 2.0), vec![0, 1])]).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.input_size(), 2);
    }

    #[test]
    fn try_new_rejects_length_mismatch() {
        let err = Dataset::try_new(
            vec![Point::new2(0.0, 0.0), Point::new2(1.0, 1.0)],
            vec![Document::new(vec![0])],
        );
        assert!(matches!(err, Err(SkqError::InvalidDataset(ref m)) if m.contains("mismatch")));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_coordinates_panic_in_legacy_constructor() {
        let _ = Dataset::from_parts(vec![(Point::new2(f64::NAN, 0.0), vec![0])]);
    }
}
