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
//! says a query is better off probing two child estimators than scanning it — where
//! `2 · copies · rows(len/2) < len` (the derivation is in [`crate::cost`]), and
//! nowhere else. At the defaults that keeps leaves of a few
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
//!
//! # As a join
//!
//! A server holds the tree because any query may walk any path; a join asks every node
//! once, for the queries that reach it. [`join_walk`] is that join: it draws the tree in
//! the build's order a node at a time, sends the node's queries down, and drops the
//! node's estimators before its subtrees — the answers of [`SketchMipsIndex::query`]
//! over the tree [`SketchMipsIndex::build`] would have drawn, holding one node's pair of
//! estimators instead of all of them.

use crate::cost::splits;
use crate::error::{uniform_dim, Result, SketchError};
use crate::linf_mips::{with_scratch, MaxIpConfig, MaxIpEstimator};
use ips_linalg::par::{map_blocks, Schedule};
use ips_linalg::{score_block, DenseVector};
use rand::Rng;
use std::borrow::Cow;
use std::ops::Range;

/// The leaf-size floor [`SketchMipsIndex::build`] records in the snapshot field: 16,
/// the default floor builds once also cut the tree at, so a default build's snapshot
/// keeps its bytes.
const RECORDED_LEAF_SIZE: usize = 16;

/// The result of a recovery query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MipsCandidate {
    /// Index of the recovered data vector.
    pub index: usize,
    /// The exact inner product of that vector with the query.
    pub inner_product: f64,
}

/// What a scan's answer holds until its first row overwrites it.
const UNSET: MipsCandidate = MipsCandidate {
    index: 0,
    inner_product: 0.0,
};

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
    /// The snapshot format's leaf-size floor, kept as built or read; nothing shapes a
    /// tree from it.
    leaf_size: usize,
}

/// What [`SketchMipsIndex::build`] and [`SketchMipsIndex::from_raw_parts`] both ask of
/// their inputs; returns the common dimension.
fn validate_inputs(data: &[DenseVector], config: &MaxIpConfig) -> Result<usize> {
    if data.is_empty() {
        return Err(SketchError::EmptyDataSet);
    }
    config.validate()?;
    uniform_dim(data)
}

impl<'a> SketchMipsIndex<'a> {
    /// Builds the index over the data vectors — a `Vec` to own, a slice to borrow. The
    /// tree stops where a sketch would cost a query more than the scan it saves (see
    /// the module docs).
    pub fn build<R: Rng + ?Sized>(
        rng: &mut R,
        data: impl Into<Cow<'a, [DenseVector]>>,
        config: MaxIpConfig,
    ) -> Result<Self> {
        let data = data.into();
        let dim = validate_inputs(&data, &config)?;
        let tree = Tree {
            data: &data,
            dim,
            config,
        };
        let root = Self::build_node(rng, tree, 0..data.len())?;
        Ok(Self {
            data,
            root,
            config,
            leaf_size: RECORDED_LEAF_SIZE,
        })
    }

    fn build_node<R: Rng + ?Sized>(
        rng: &mut R,
        tree: Tree<'_>,
        range: Range<usize>,
    ) -> Result<Node> {
        let Some(split) = tree.draw(rng, range.clone(), true)? else {
            return Ok(Node::Leaf { range });
        };
        let (estimator_left, estimator_right) = split.estimators.expect("drawn and applied");
        let left = Self::build_node(rng, tree, split.left)?;
        let right = Self::build_node(rng, tree, split.right)?;
        Ok(Node::Internal {
            estimator_left,
            estimator_right,
            left: Box::new(left),
            right: Box::new(right),
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

    /// The snapshot format's leaf-size floor: 16 after [`SketchMipsIndex::build`], the
    /// stored value after [`SketchMipsIndex::from_raw_parts`]. Nothing shapes a tree
    /// from it.
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
    /// ([`MaxIpEstimator::from_copies`] has already rejected non-finite
    /// coefficients.) The tree's *depth* is not checked against the split rule: a tree
    /// built under another rule loads and is walked as it is. `leaf_size` is the
    /// format's stored floor, kept for [`SketchMipsIndex::leaf_size`]; no build wrote
    /// 0, so 0 is refused.
    pub fn from_raw_parts(
        data: Vec<DenseVector>,
        root: Node,
        config: MaxIpConfig,
        leaf_size: usize,
    ) -> Result<Self> {
        if leaf_size == 0 {
            return Err(SketchError::InvalidParameter {
                name: "leaf_size",
                reason: "leaf size must be at least 1".into(),
            });
        }
        let dim = validate_inputs(&data, &config)?;
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
                    let turn_left = goes_left(estimator_left, estimator_right, q, scratch);
                    node = if turn_left { left } else { right };
                }
                Node::Leaf { range } => break range.clone(),
            }
        });
        let mut best = [UNSET];
        scan_leaf(&self.data, leaf, [q], &mut best)?;
        Ok(best[0])
    }

    /// Exact (quadratic-time) maximiser of `|p_iᵀq|`, used as ground truth by the
    /// experiments: the scan of a leaf holding the whole data set.
    pub fn exact_max(&self, q: &DenseVector) -> Result<MipsCandidate> {
        if self.data.is_empty() {
            return Err(SketchError::EmptyDataSet);
        }
        let mut best = [UNSET];
        scan_leaf(&self.data, 0..self.data.len(), [q], &mut best)?;
        Ok(best[0])
    }
}

/// What every node of one tree is drawn from: the validated data, its dimension and
/// the estimators' configuration.
#[derive(Clone, Copy)]
struct Tree<'d> {
    data: &'d [DenseVector],
    dim: usize,
    config: MaxIpConfig,
}

/// A split node as [`Tree::draw`] draws it: the halves of its range and, unless the
/// draw skipped them, the estimators over them, left first.
struct Split {
    left: Range<usize>,
    right: Range<usize>,
    estimators: Option<(MaxIpEstimator, MaxIpEstimator)>,
}

impl Tree<'_> {
    /// The one place the tree's shape and randomness are decided, for the build and the
    /// join walk alike: `None` where `range` is a leaf ([`splits`]), else its halves and
    /// the estimator over each, the left one drawn first. With `apply` false the
    /// sketches are drawn and applied to nothing — the RNG advances exactly as for a
    /// built node — and no estimator is returned: a node of the join walk that no query
    /// reaches.
    fn draw<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        range: Range<usize>,
        apply: bool,
    ) -> Result<Option<Split>> {
        let Self { data, dim, config } = *self;
        if !splits(range.len(), &config) {
            return Ok(None);
        }
        let mid = range.start + range.len() / 2;
        let (left, right) = (range.start..mid, mid..range.end);
        let estimators = if apply {
            let estimator_left =
                MaxIpEstimator::build_trusted(rng, &data[left.clone()], dim, config)?;
            let estimator_right =
                MaxIpEstimator::build_trusted(rng, &data[right.clone()], dim, config)?;
            Some((estimator_left, estimator_right))
        } else {
            MaxIpEstimator::skip_trusted(rng, left.len(), config)?;
            MaxIpEstimator::skip_trusted(rng, right.len(), config)?;
            None
        };
        Ok(Some(Split {
            left,
            right,
            estimators,
        }))
    }
}

/// The walk's turn at a split node: left iff the left half's estimate is at least the
/// right half's.
fn goes_left(
    left: &MaxIpEstimator,
    right: &MaxIpEstimator,
    q: &DenseVector,
    scratch: &mut Vec<f64>,
) -> bool {
    left.estimate_with(q.as_slice(), scratch) >= right.estimate_with(q.as_slice(), scratch)
}

/// The exact end of a walk, for each of `queries` at once: `best[j]` becomes the first
/// vector of the non-empty `leaf` whose `|p·q_j|` no later one beats strictly.
fn scan_leaf<'q>(
    data: &[DenseVector],
    leaf: Range<usize>,
    queries: impl IntoIterator<Item = &'q DenseVector> + Clone,
    best: &mut [MipsCandidate],
) -> Result<()> {
    let first = leaf.start;
    let rows = leaf.clone().zip(&data[leaf]);
    score_block(rows, queries, |index, j, inner_product| {
        if index == first || inner_product.abs() > best[j].inner_product.abs() {
            best[j] = MipsCandidate {
                index,
                inner_product,
            };
        }
    })?;
    Ok(())
}

/// Section 4.3 as a join: for every query, in query order, the candidate
/// [`SketchMipsIndex::query`] returns from the tree that [`SketchMipsIndex::build`]
/// draws from the same `rng` state — bit for bit — without ever holding that tree.
///
/// The walk visits the nodes in the build's pre-order and draws each split's two
/// estimators as the build does. It evaluates both for every query that reaches the
/// node, sends a query left iff its left estimate is at least its right one, drops the
/// estimators, and recurses left, then right. A leaf scans its range for the queries
/// that reach it, keeping the first strict `>` of `|p·q|`. So the walk holds one node's
/// pair of estimators at a time — the root's is the largest — and a few words a query,
/// and each coefficient is read once a node, not once a query that passes it. A node
/// no query reaches still draws its sketches, and applies them to nothing: the RNG
/// leaves in the state the build leaves it in.
///
/// A node's queries are evaluated in blocks of `schedule.block` on `schedule.threads`
/// workers through [`map_blocks`]; every draw is made on the calling thread, so the
/// answer and the RNG state do not depend on the schedule.
///
/// Fails as `build` does on the data and the parameters, then as `query` does on the
/// first query of another dimension than the data's — before anything is drawn. An
/// empty query set draws the whole tree and returns nothing.
pub fn join_walk<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[DenseVector],
    queries: &[DenseVector],
    config: MaxIpConfig,
    schedule: Schedule,
) -> Result<Vec<MipsCandidate>> {
    let dim = validate_inputs(data, &config)?;
    if let Some(q) = queries.iter().find(|q| q.dim() != dim) {
        return Err(SketchError::DimensionMismatch {
            expected: dim,
            actual: q.dim(),
        });
    }
    let m = u32::try_from(queries.len()).map_err(|_| SketchError::InvalidParameter {
        name: "queries",
        reason: format!(
            "a join walk numbers its queries in 32 bits, got {}",
            queries.len()
        ),
    })?;
    let mut walk = Walk {
        tree: Tree { data, dim, config },
        queries,
        schedule,
        order: (0..m).collect(),
        turned_left: vec![false; queries.len()],
        best: vec![UNSET; queries.len()],
        spill: Vec::with_capacity(queries.len()),
    };
    walk.node(rng, 0..data.len(), 0..queries.len())?;
    let mut found = vec![UNSET; queries.len()];
    for (&q, &best) in walk.order.iter().zip(&walk.best) {
        found[q as usize] = best;
    }
    Ok(found)
}

/// The state of one [`join_walk`]. `order` lists the queries so that those reaching a
/// node sit at consecutive positions; `turned_left` and `best` are per position.
struct Walk<'a> {
    tree: Tree<'a>,
    queries: &'a [DenseVector],
    schedule: Schedule,
    order: Vec<u32>,
    /// A split node's turn for the query at each of its positions.
    turned_left: Vec<bool>,
    /// A leaf's answer for the query at each of its positions.
    best: Vec<MipsCandidate>,
    /// Room for the queries that turn right while a node's positions are partitioned.
    spill: Vec<u32>,
}

impl Walk<'_> {
    /// The subtree over the data `range`, reached by the queries at positions `at`.
    fn node<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        range: Range<usize>,
        at: Range<usize>,
    ) -> Result<()> {
        let Some(split) = self.tree.draw(rng, range.clone(), !at.is_empty())? else {
            return self.leaf(range, at);
        };
        let mid = match split.estimators {
            Some((left, right)) => {
                self.turn(&left, &right, at.clone())?;
                at.start + self.partition(at.clone())
            }
            None => at.start,
        };
        // The node's estimators are gone: each subtree draws its own from here.
        self.node(rng, split.left, at.start..mid)?;
        self.node(rng, split.right, mid..at.end)
    }

    /// Fills `turned_left` at positions `at` for the split estimated by `left` and
    /// `right`.
    fn turn(
        &mut self,
        left: &MaxIpEstimator,
        right: &MaxIpEstimator,
        at: Range<usize>,
    ) -> Result<()> {
        let (queries, block) = (self.queries, self.schedule.block.max(1));
        let mut blocks: Vec<(&[u32], &mut [bool])> = self.order[at.clone()]
            .chunks(block)
            .zip(self.turned_left[at].chunks_mut(block))
            .collect();
        map_blocks(self.schedule.threads, &mut blocks, |_, (order, turned)| {
            with_scratch(|scratch| {
                for (&q, turned) in order.iter().zip(turned.iter_mut()) {
                    *turned = goes_left(left, right, &queries[q as usize], scratch);
                }
            });
            Ok::<(), SketchError>(())
        })?;
        Ok(())
    }

    /// Orders positions `at` stably, the queries that turned left first; returns how
    /// many did.
    fn partition(&mut self, at: Range<usize>) -> usize {
        self.spill.clear();
        let mut lefts = 0;
        for p in at.clone() {
            let q = self.order[p];
            if self.turned_left[p] {
                self.order[at.start + lefts] = q;
                lefts += 1;
            } else {
                self.spill.push(q);
            }
        }
        self.order[at.start + lefts..at.end].copy_from_slice(&self.spill);
        lefts
    }

    /// Fills `best` at positions `at` with the scan of the leaf `range`.
    fn leaf(&mut self, range: Range<usize>, at: Range<usize>) -> Result<()> {
        let (data, queries, block) = (self.tree.data, self.queries, self.schedule.block.max(1));
        let mut blocks: Vec<(&[u32], &mut [MipsCandidate])> = self.order[at.clone()]
            .chunks(block)
            .zip(self.best[at].chunks_mut(block))
            .collect();
        map_blocks(self.schedule.threads, &mut blocks, |_, (order, best)| {
            let block = order.iter().map(|&q| &queries[q as usize]);
            scan_leaf(data, range.clone(), block, best)
        })?;
        Ok(())
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
        assert!(SketchMipsIndex::build(&mut r, vec![], MaxIpConfig::default()).is_err());
        let data = background(&mut r, 8, 6, 1.0);
        let mut mixed = data.clone();
        mixed.push(DenseVector::zeros(5));
        assert!(SketchMipsIndex::build(&mut r, mixed, MaxIpConfig::default()).is_err());
        let flat = vec![DenseVector::zeros(0); 8];
        assert!(SketchMipsIndex::build(&mut r, flat, MaxIpConfig::default()).is_err());
        let index = SketchMipsIndex::build(&mut r, data.clone(), MaxIpConfig::default()).unwrap();
        assert_eq!(index.len(), 8);
        assert!(!index.is_empty());
        // A build records the floor every default build once wrote, so its snapshot
        // keeps its bytes; a stored floor is kept as read, and 0 is refused.
        assert_eq!(index.leaf_size(), 16);
        assert_eq!(index.config(), MaxIpConfig::default());
        assert!(index.query(&DenseVector::zeros(5)).is_err());
        let leaf = || Node::Leaf { range: 0..8 };
        let config = MaxIpConfig::default();
        let read = SketchMipsIndex::from_raw_parts(data.clone(), leaf(), config, 4).unwrap();
        assert_eq!(read.leaf_size(), 4);
        assert!(SketchMipsIndex::from_raw_parts(data, leaf(), config, 0).is_err());
    }

    #[test]
    fn exact_max_finds_planted_point() {
        let mut r = rng();
        let dim = 16;
        let query = random_unit_vector(&mut r, dim).unwrap();
        let mut data = background(&mut r, 50, dim, 0.3);
        data[17] = query.scaled(4.0);
        let index = SketchMipsIndex::build(&mut r, data, MaxIpConfig::default()).unwrap();
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
        let index = SketchMipsIndex::build(&mut r, data, deep_config()).unwrap();
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
        let index = SketchMipsIndex::build(&mut r, data, deep_config()).unwrap();
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
            let index = SketchMipsIndex::build(&mut r, data, MaxIpConfig::default()).unwrap();
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

    /// Schedules from one worker taking one query at a time to more workers than blocks.
    const SCHEDULES: [Schedule; 3] = [
        Schedule {
            threads: 1,
            block: 1,
        },
        Schedule {
            threads: 3,
            block: 7,
        },
        Schedule {
            threads: 2,
            block: 64,
        },
    ];

    #[test]
    fn the_join_walk_answers_as_the_whole_tree_does() {
        use rand::RngCore;
        let mut r = rng();
        let dim = 12;
        let data = background(&mut r, 200, dim, 1.0);
        // Half the queries are data vectors, so some leaves are reached by several
        // queries and, under the deep config, many by none.
        let mut queries = background(&mut r, 20, dim, 0.5);
        queries.extend(data[..20].iter().cloned());
        // Deep, shallow, and a root leaf (2·5·200 probe rows ≥ 200 vectors).
        let root_leaf = MaxIpConfig {
            rows: Some(200),
            ..deep_config()
        };
        for config in [deep_config(), MaxIpConfig::default(), root_leaf] {
            for schedule in SCHEDULES {
                let mut tree_rng = rng();
                let tree = SketchMipsIndex::build(&mut tree_rng, &data[..], config).unwrap();
                let mut walk_rng = rng();
                let found = join_walk(&mut walk_rng, &data, &queries, config, schedule).unwrap();
                assert_eq!(found.len(), queries.len());
                for (q, got) in queries.iter().zip(&found) {
                    let want = tree.query(q).unwrap();
                    assert_eq!(got.index, want.index, "{config:?} {schedule:?}");
                    assert_eq!(got.inner_product.to_bits(), want.inner_product.to_bits());
                }
                assert_eq!(
                    walk_rng.next_u64(),
                    tree_rng.next_u64(),
                    "{config:?} {schedule:?}"
                );
            }
        }
    }

    #[test]
    fn the_join_walk_fails_as_the_build_and_the_query_do() {
        use rand::RngCore;
        let mut r = rng();
        let data = background(&mut r, 40, 6, 1.0);
        let schedule = SCHEDULES[1];
        let config = deep_config();
        assert!(matches!(
            join_walk(&mut r, &[], &data, config, schedule),
            Err(SketchError::EmptyDataSet)
        ));
        let queries = vec![data[0].clone(), DenseVector::zeros(5)];
        assert!(matches!(
            join_walk(&mut r, &data, &queries, config, schedule),
            Err(SketchError::DimensionMismatch {
                expected: 6,
                actual: 5
            })
        ));
        // No queries: nothing is found, and every node is drawn all the same.
        let (mut walk_rng, mut tree_rng) = (rng(), rng());
        assert!(join_walk(&mut walk_rng, &data, &[], config, schedule)
            .unwrap()
            .is_empty());
        SketchMipsIndex::build(&mut tree_rng, &data[..], config).unwrap();
        assert_eq!(walk_rng.next_u64(), tree_rng.next_u64());
    }

    #[test]
    fn small_data_sets_degenerate_to_exact_search() {
        let mut r = rng();
        let dim = 10;
        let data = background(&mut r, 6, dim, 1.0);
        // Six vectors never split: the root is a leaf and the query is exact.
        let index = SketchMipsIndex::build(&mut r, data.clone(), MaxIpConfig::default()).unwrap();
        for _ in 0..5 {
            let q = random_unit_vector(&mut r, dim).unwrap();
            let approx = index.query(&q).unwrap();
            let exact = index.exact_max(&q).unwrap();
            assert_eq!(approx.index, exact.index);
        }
        let _ = standard_gaussian(&mut r);
    }
}
