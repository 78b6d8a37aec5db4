//! Recovering *which* vector attains the (approximate) maximum inner product.
//!
//! The value estimator of [`crate::linf_mips`] only reports `‖Aq‖_∞`; Section 4.3 of
//! the paper recovers the maximiser's *index* "bit by bit": for every prefix of the
//! index's binary representation, a separate estimator is built over the subset of data
//! vectors whose indices share that prefix, and the query walks down the implied binary
//! tree, always descending into the half with the larger estimated maximum. Every data
//! vector appears in at most `⌈log₂ n⌉` estimators, so space and construction time only
//! grow by a logarithmic factor.
//!
//! # Shape
//!
//! Every node stands for a contiguous range `lo..hi` of the data and splits it at
//! `lo + (hi − lo)/2`, so the estimators sketch `&data[lo..hi]` in place and a leaf is
//! a range, not an index list. A range is split only where [`crate::cost::splits`]
//! says a query is better off probing two child estimators than scanning it — above
//! the caller's `leaf_size` floor *and* where `2 · copies · rows(len/2) < len` (the
//! derivation is in [`crate::cost`]). At the defaults that keeps leaves of a few
//! hundred vectors and a fraction of the coefficients a tree cut at 16 would hold
//! ([`SketchMipsIndex::stored_coefficients`]), and a shallower walk takes fewer wrong
//! turns.
//!
//! At the leaves the exact inner products are computed, so the returned index is always
//! the exact argmax *within the leaf the walk ends at* — the approximation error comes
//! only from taking wrong turns higher up.
//!
//! The walk itself asks nothing of the shape: a tree assembled through
//! [`SketchMipsIndex::from_raw_parts`] — a snapshot written before the cut-off rule
//! existed, say — is walked exactly as built, however deep it is.

use crate::cost::splits;
use crate::error::{uniform_dim, Result, SketchError};
use crate::linf_mips::{with_scratch, MaxIpConfig, MaxIpEstimator};
use ips_linalg::DenseVector;
use rand::Rng;
use std::borrow::Cow;
use std::ops::Range;

/// The default `leaf_size` floor of [`SketchMipsIndex::build`], wherever one is
/// defaulted: the join and index builders, the planner, the `leaf=` option.
pub const DEFAULT_LEAF_SIZE: usize = 16;

/// The result of a recovery query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MipsCandidate {
    /// Index of the recovered data vector.
    pub index: usize,
    /// The exact inner product of that vector with the query.
    pub inner_product: f64,
}

/// One node of the recovery prefix tree.
///
/// The variants are public so snapshot persistence can walk and reassemble the tree
/// (see [`SketchMipsIndex::root`] / [`SketchMipsIndex::from_raw_parts`]); ordinary
/// queries never need to touch them.
pub enum Node {
    /// An internal split: one estimator per half, and the two subtrees.
    Internal {
        /// Estimator over the vectors whose indices fall in the left half.
        estimator_left: MaxIpEstimator,
        /// Estimator over the vectors whose indices fall in the right half.
        estimator_right: MaxIpEstimator,
        /// Subtree over the left half.
        left: Box<Node>,
        /// Subtree over the right half.
        right: Box<Node>,
    },
    /// A leaf, where exact evaluation takes over.
    Leaf {
        /// The data indices stored in this leaf.
        range: Range<usize>,
    },
}

/// The prefix-tree MIPS index of Section 4.3.
///
/// The vectors are held as a [`Cow`]: a one-shot join builds over the caller's slice
/// and borrows it, a served index owns them (`SketchMipsIndex<'static>`).
pub struct SketchMipsIndex<'a> {
    data: Cow<'a, [DenseVector]>,
    root: Node,
    config: MaxIpConfig,
    leaf_size: usize,
}

/// What [`SketchMipsIndex::build`] and [`SketchMipsIndex::from_raw_parts`] both ask of
/// their inputs; returns the common dimension.
fn validate_inputs(data: &[DenseVector], config: &MaxIpConfig, leaf_size: usize) -> Result<usize> {
    if data.is_empty() {
        return Err(SketchError::EmptyDataSet);
    }
    if leaf_size == 0 {
        return Err(SketchError::InvalidParameter {
            name: "leaf_size",
            reason: "leaf size must be at least 1".into(),
        });
    }
    config.validate()?;
    uniform_dim(data)
}

impl<'a> SketchMipsIndex<'a> {
    /// Builds the index over the data vectors — a `Vec` to own, a slice to borrow.
    ///
    /// `leaf_size` is a floor: a range of at most this many vectors is never split. The
    /// tree also stops where a sketch would cost a query more than the scan it saves
    /// (see the module docs). It must be at least 1.
    pub fn build<R: Rng + ?Sized>(
        rng: &mut R,
        data: impl Into<Cow<'a, [DenseVector]>>,
        config: MaxIpConfig,
        leaf_size: usize,
    ) -> Result<Self> {
        let data = data.into();
        let dim = validate_inputs(&data, &config, leaf_size)?;
        let root = Self::build_node(rng, &data, 0..data.len(), dim, config, leaf_size)?;
        Ok(Self {
            data,
            root,
            config,
            leaf_size,
        })
    }

    fn build_node<R: Rng + ?Sized>(
        rng: &mut R,
        data: &[DenseVector],
        range: Range<usize>,
        dim: usize,
        config: MaxIpConfig,
        leaf_size: usize,
    ) -> Result<Node> {
        if !splits(range.len(), &config, leaf_size) {
            return Ok(Node::Leaf { range });
        }
        let mid = range.start + range.len() / 2;
        let (left, right) = (range.start..mid, mid..range.end);
        Ok(Node::Internal {
            estimator_left: MaxIpEstimator::build_trusted(rng, &data[left.clone()], dim, config)?,
            estimator_right: MaxIpEstimator::build_trusted(rng, &data[right.clone()], dim, config)?,
            left: Box::new(Self::build_node(rng, data, left, dim, config, leaf_size)?),
            right: Box::new(Self::build_node(rng, data, right, dim, config, leaf_size)?),
        })
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the index holds no vectors (never true after `build`).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The sketch configuration used per tree node.
    pub fn config(&self) -> MaxIpConfig {
        self.config
    }

    /// The leaf-size floor the tree was built with.
    pub fn leaf_size(&self) -> usize {
        self.leaf_size
    }

    /// The indexed data vectors (persistence accessor).
    pub fn data(&self) -> &[DenseVector] {
        &self.data
    }

    /// Consumes the structure, returning the indexed vectors.
    pub fn into_data(self) -> Vec<DenseVector> {
        self.data.into_owned()
    }

    /// The root of the prefix tree (persistence accessor).
    pub fn root(&self) -> &Node {
        &self.root
    }

    /// Number of `f64` sketch coefficients the tree's estimators hold in total — the
    /// structure's memory beyond the data itself, which is `n · d` of the same unit.
    pub fn stored_coefficients(&self) -> usize {
        fn count(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 0,
                Node::Internal {
                    estimator_left,
                    estimator_right,
                    left,
                    right,
                } => {
                    estimator_left.stored_coefficients()
                        + estimator_right.stored_coefficients()
                        + count(left)
                        + count(right)
                }
            }
        }
        count(&self.root)
    }

    /// Reassembles an index from previously extracted state — the inverse of
    /// [`SketchMipsIndex::data`] / [`SketchMipsIndex::root`] / accessors, used by
    /// snapshot persistence to restore the tree without re-drawing its sketches.
    ///
    /// Performs the same input validation as [`SketchMipsIndex::build`], then checks
    /// everything a query relies on, so that an inconsistent tree fails here and not as
    /// a panic or a wrong answer later ([`SketchError::InvalidParameter`] throughout):
    ///
    /// * read left to right, the leaves are non-empty ranges that partition `0..n` in
    ///   order;
    /// * every estimator has the data's dimension, summarises exactly as many vectors
    ///   as lie under the child it stands for, and agrees with `config` on `κ`, the
    ///   number of copies and — when `config.rows` fixes it — the rows per copy;
    ///   siblings over equally many vectors have equally many rows.
    ///
    /// ([`MaxIpEstimator::from_raw_parts`] has already rejected ragged or non-finite
    /// coefficients.) The tree's *depth* is not checked against the split rule: a tree
    /// built under another rule loads and is walked as it is.
    pub fn from_raw_parts(
        data: Vec<DenseVector>,
        root: Node,
        config: MaxIpConfig,
        leaf_size: usize,
    ) -> Result<Self> {
        let dim = validate_inputs(&data, &config, leaf_size)?;
        let covered = check_subtree(&root, 0, dim, &config)?;
        if covered != data.len() {
            return Err(invalid_tree(format!(
                "the leaves cover 0..{covered}, the data 0..{}",
                data.len()
            )));
        }
        Ok(Self {
            data: Cow::Owned(data),
            root,
            config,
            leaf_size,
        })
    }

    /// Recovers an (approximate) maximiser of `|p_iᵀq|` by walking the prefix tree.
    pub fn query(&self, q: &DenseVector) -> Result<MipsCandidate> {
        let dim = self.data[0].dim();
        if q.dim() != dim {
            return Err(SketchError::DimensionMismatch {
                expected: dim,
                actual: q.dim(),
            });
        }
        let mut node = &self.root;
        let leaf = with_scratch(|scratch| loop {
            match node {
                Node::Internal {
                    estimator_left,
                    estimator_right,
                    left,
                    right,
                } => {
                    let l = estimator_left.estimate_with(q.as_slice(), scratch);
                    let r = estimator_right.estimate_with(q.as_slice(), scratch);
                    node = if l >= r { left } else { right };
                }
                Node::Leaf { range } => break range.clone(),
            }
        });
        let mut best = MipsCandidate {
            index: leaf.start,
            inner_product: self.data[leaf.start].dot_unchecked_len(q),
        };
        for i in leaf.start + 1..leaf.end {
            let ip = self.data[i].dot_unchecked_len(q);
            if ip.abs() > best.inner_product.abs() {
                best = MipsCandidate {
                    index: i,
                    inner_product: ip,
                };
            }
        }
        Ok(best)
    }

    /// Exact (quadratic-time) maximiser of `|p_iᵀq|`, used as ground truth by the
    /// experiments.
    pub fn exact_max(&self, q: &DenseVector) -> Result<MipsCandidate> {
        let mut best: Option<MipsCandidate> = None;
        for (i, p) in self.data.iter().enumerate() {
            let ip = p.dot(q)?;
            if best
                .as_ref()
                .map(|b| ip.abs() > b.inner_product.abs())
                .unwrap_or(true)
            {
                best = Some(MipsCandidate {
                    index: i,
                    inner_product: ip,
                });
            }
        }
        best.ok_or(SketchError::EmptyDataSet)
    }
}

fn invalid_tree(reason: String) -> SketchError {
    SketchError::InvalidParameter {
        name: "root",
        reason,
    }
}

/// The [`SketchMipsIndex::from_raw_parts`] checks of one subtree whose first leaf must
/// begin at `start`; returns the index one past its last leaf.
fn check_subtree(node: &Node, start: usize, dim: usize, config: &MaxIpConfig) -> Result<usize> {
    let (estimator_left, estimator_right, left, right) = match node {
        Node::Leaf { range } => {
            return if range.start == start && range.end > start {
                Ok(range.end)
            } else {
                Err(invalid_tree(format!(
                    "leaf {range:?} where a non-empty range from {start} belongs"
                )))
            }
        }
        Node::Internal {
            estimator_left,
            estimator_right,
            left,
            right,
        } => (estimator_left, estimator_right, left, right),
    };
    let mid = check_subtree(left, start, dim, config)?;
    let end = check_subtree(right, mid, dim, config)?;
    for (estimator, summarised) in [(estimator_left, start..mid), (estimator_right, mid..end)] {
        if estimator.dim() != dim {
            return Err(invalid_tree(format!(
                "an estimator of dimension {} over data of dimension {dim}",
                estimator.dim()
            )));
        }
        if estimator.len() != summarised.len() {
            return Err(invalid_tree(format!(
                "an estimator over {} vectors summarises the {} of {summarised:?}",
                estimator.len(),
                summarised.len()
            )));
        }
        if estimator.kappa() != config.kappa
            || estimator.copies() != config.copies
            || config
                .rows
                .is_some_and(|rows| estimator.rows_per_copy() != rows)
        {
            return Err(invalid_tree(format!(
                "an estimator with κ = {}, {} copies of {} rows under {config:?}",
                estimator.kappa(),
                estimator.copies(),
                estimator.rows_per_copy()
            )));
        }
    }
    if estimator_left.len() == estimator_right.len()
        && estimator_left.rows_per_copy() != estimator_right.rows_per_copy()
    {
        return Err(invalid_tree(format!(
            "sibling estimators over {} vectors each have {} and {} rows per copy",
            estimator_left.len(),
            estimator_left.rows_per_copy(),
            estimator_right.rows_per_copy()
        )));
    }
    Ok(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_linalg::random::{random_unit_vector, standard_gaussian};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xBEEF)
    }

    fn background(rng: &mut StdRng, n: usize, dim: usize, scale: f64) -> Vec<DenseVector> {
        (0..n)
            .map(|_| random_unit_vector(rng, dim).unwrap().scaled(scale))
            .collect()
    }

    #[test]
    fn build_validation() {
        let mut r = rng();
        assert!(SketchMipsIndex::build(&mut r, vec![], MaxIpConfig::default(), 4).is_err());
        let data = background(&mut r, 8, 6, 1.0);
        assert!(SketchMipsIndex::build(&mut r, data.clone(), MaxIpConfig::default(), 0).is_err());
        let mut mixed = data.clone();
        mixed.push(DenseVector::zeros(5));
        assert!(SketchMipsIndex::build(&mut r, mixed, MaxIpConfig::default(), 4).is_err());
        let index = SketchMipsIndex::build(&mut r, data, MaxIpConfig::default(), 4).unwrap();
        assert_eq!(index.len(), 8);
        assert!(!index.is_empty());
        assert_eq!(index.leaf_size(), 4);
        assert_eq!(index.config(), MaxIpConfig::default());
        assert!(index.query(&DenseVector::zeros(5)).is_err());
    }

    #[test]
    fn exact_max_finds_planted_point() {
        let mut r = rng();
        let dim = 16;
        let query = random_unit_vector(&mut r, dim).unwrap();
        let mut data = background(&mut r, 50, dim, 0.3);
        data[17] = query.scaled(4.0);
        let index = SketchMipsIndex::build(&mut r, data, MaxIpConfig::default(), 8).unwrap();
        let exact = index.exact_max(&query).unwrap();
        assert_eq!(exact.index, 17);
        assert!((exact.inner_product - 4.0).abs() < 1e-9);
    }

    /// Few enough rows and copies that the cost rule keeps splitting small ranges, so
    /// the walk below is a real descent and not a root-leaf scan.
    fn deep_config() -> MaxIpConfig {
        MaxIpConfig {
            kappa: 2.0,
            copies: 5,
            rows: Some(3),
        }
    }

    fn depth(node: &Node) -> usize {
        match node {
            Node::Leaf { .. } => 0,
            Node::Internal { left, right, .. } => 1 + depth(left).max(depth(right)),
        }
    }

    #[test]
    fn recovery_finds_dominant_inner_product() {
        let mut r = rng();
        let dim = 20;
        let n = 128;
        let query = random_unit_vector(&mut r, dim).unwrap();
        let mut data = background(&mut r, n, dim, 0.1);
        data[93] = query.scaled(8.0);
        let index = SketchMipsIndex::build(&mut r, data, deep_config(), 8).unwrap();
        assert_eq!(depth(index.root()), 3, "128 → 64 → 32 → leaves of 16");
        let candidate = index.query(&query).unwrap();
        assert_eq!(candidate.index, 93, "tree walk missed the dominant point");
        assert!((candidate.inner_product - 8.0).abs() < 1e-9);
    }

    #[test]
    fn recovery_handles_negative_dominant_inner_product() {
        // The structure is for *unsigned* MIPS: a large negative inner product must be
        // recoverable too.
        let mut r = rng();
        let dim = 20;
        let n = 64;
        let query = random_unit_vector(&mut r, dim).unwrap();
        let mut data = background(&mut r, n, dim, 0.1);
        data[5] = query.scaled(-7.0);
        let index = SketchMipsIndex::build(&mut r, data, deep_config(), 8).unwrap();
        assert_eq!(depth(index.root()), 2);
        let candidate = index.query(&query).unwrap();
        assert_eq!(candidate.index, 5);
        assert!(candidate.inner_product < 0.0);
    }

    #[test]
    fn default_trees_hold_a_small_multiple_of_the_data() {
        // The structural memory pin: cut at the old fixed floor of 16 the estimators
        // held ~33 × n·d coefficients at n = 12 000; under the cost rule it is under
        // 2 × at every size, and this fails long before the blow-up could return.
        let mut r = rng();
        let dim = 48;
        for n in [2000, 6000, 12_000] {
            let data = background(&mut r, n, dim, 1.0);
            let index = SketchMipsIndex::build(
                &mut r,
                data,
                MaxIpConfig::default(),
                crate::DEFAULT_LEAF_SIZE,
            )
            .unwrap();
            let stored = index.stored_coefficients();
            assert!(
                stored > 0,
                "n = {n} builds at least one level of estimators"
            );
            assert!(
                stored <= 4 * n * dim,
                "n = {n}: {stored} coefficients for {} data coordinates",
                n * dim
            );
        }
    }

    #[test]
    fn small_data_sets_degenerate_to_exact_search() {
        let mut r = rng();
        let dim = 10;
        let data = background(&mut r, 6, dim, 1.0);
        // leaf_size >= n: the root is a leaf and the query is exact.
        let index =
            SketchMipsIndex::build(&mut r, data.clone(), MaxIpConfig::default(), 16).unwrap();
        for _ in 0..5 {
            let q = random_unit_vector(&mut r, dim).unwrap();
            let approx = index.query(&q).unwrap();
            let exact = index.exact_max(&q).unwrap();
            assert_eq!(approx.index, exact.index);
        }
        let _ = standard_gaussian(&mut r);
    }
}
