//! Recovering *which* vector attains the (approximate) maximum inner product.
//!
//! The value estimator of [`crate::linf_mips`] only reports `‖Aq‖_∞`; Section 4.3 of
//! the paper recovers the maximiser's *index* "bit by bit": for every prefix of the
//! index's binary representation, a separate estimator is built over the subset of data
//! vectors whose indices share that prefix, and the query walks down the implied binary
//! tree, always descending into the half with the larger estimated maximum. Every data
//! vector appears in `⌈log₂ n⌉` estimators, so space and construction time only grow by
//! a logarithmic factor.
//!
//! At the leaves (subsets of at most `leaf_size` vectors) the exact inner products are
//! computed, so the returned index is always the exact argmax *within the leaf the walk
//! ends at* — the approximation error comes only from taking wrong turns higher up.

use crate::error::{Result, SketchError};
use crate::linf_mips::{MaxIpConfig, MaxIpEstimator};
use ips_linalg::DenseVector;
use rand::Rng;

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
        /// Global indices of the vectors stored in this leaf.
        indices: Vec<usize>,
    },
}

/// The prefix-tree MIPS index of Section 4.3.
pub struct SketchMipsIndex {
    data: Vec<DenseVector>,
    root: Node,
    config: MaxIpConfig,
    leaf_size: usize,
}

impl SketchMipsIndex {
    /// Builds the index over the data vectors.
    ///
    /// `leaf_size` controls where the tree stops and exact evaluation takes over; it
    /// must be at least 1.
    pub fn build<R: Rng + ?Sized>(
        rng: &mut R,
        data: Vec<DenseVector>,
        config: MaxIpConfig,
        leaf_size: usize,
    ) -> Result<Self> {
        if data.is_empty() {
            return Err(SketchError::EmptyDataSet);
        }
        if leaf_size == 0 {
            return Err(SketchError::InvalidParameter {
                name: "leaf_size",
                reason: "leaf size must be at least 1".into(),
            });
        }
        let dim = data[0].dim();
        for v in &data {
            if v.dim() != dim {
                return Err(SketchError::DimensionMismatch {
                    expected: dim,
                    actual: v.dim(),
                });
            }
        }
        let indices: Vec<usize> = (0..data.len()).collect();
        let root = Self::build_node(rng, &data, &indices, config, leaf_size)?;
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
        indices: &[usize],
        config: MaxIpConfig,
        leaf_size: usize,
    ) -> Result<Node> {
        if indices.len() <= leaf_size {
            return Ok(Node::Leaf {
                indices: indices.to_vec(),
            });
        }
        let mid = indices.len() / 2;
        let (left_idx, right_idx) = indices.split_at(mid);
        let left_rows: Vec<DenseVector> = left_idx.iter().map(|&i| data[i].clone()).collect();
        let right_rows: Vec<DenseVector> = right_idx.iter().map(|&i| data[i].clone()).collect();
        Ok(Node::Internal {
            estimator_left: MaxIpEstimator::build(rng, &left_rows, config)?,
            estimator_right: MaxIpEstimator::build(rng, &right_rows, config)?,
            left: Box::new(Self::build_node(rng, data, left_idx, config, leaf_size)?),
            right: Box::new(Self::build_node(rng, data, right_idx, config, leaf_size)?),
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

    /// The leaf size used when building the tree.
    pub fn leaf_size(&self) -> usize {
        self.leaf_size
    }

    /// The indexed data vectors (persistence accessor).
    pub fn data(&self) -> &[DenseVector] {
        &self.data
    }

    /// Consumes the structure, returning the indexed vectors.
    pub fn into_data(self) -> Vec<DenseVector> {
        self.data
    }

    /// The root of the prefix tree (persistence accessor).
    pub fn root(&self) -> &Node {
        &self.root
    }

    /// Reassembles an index from previously extracted state — the inverse of
    /// [`SketchMipsIndex::data`] / [`SketchMipsIndex::root`] / accessors, used by
    /// snapshot persistence to restore the tree without re-drawing its sketches.
    ///
    /// Performs the same input validation as [`SketchMipsIndex::build`] plus a check
    /// that every leaf index points into `data`; it does not re-verify the estimator
    /// contents (a snapshot's checksum covers corruption).
    pub fn from_raw_parts(
        data: Vec<DenseVector>,
        root: Node,
        config: MaxIpConfig,
        leaf_size: usize,
    ) -> Result<Self> {
        if data.is_empty() {
            return Err(SketchError::EmptyDataSet);
        }
        if leaf_size == 0 {
            return Err(SketchError::InvalidParameter {
                name: "leaf_size",
                reason: "leaf size must be at least 1".into(),
            });
        }
        let dim = data[0].dim();
        for v in &data {
            if v.dim() != dim {
                return Err(SketchError::DimensionMismatch {
                    expected: dim,
                    actual: v.dim(),
                });
            }
        }
        fn check(node: &Node, n: usize) -> Result<()> {
            match node {
                Node::Internal { left, right, .. } => {
                    check(left, n)?;
                    check(right, n)
                }
                Node::Leaf { indices } => {
                    if indices.is_empty() || indices.iter().any(|&i| i >= n) {
                        return Err(SketchError::InvalidParameter {
                            name: "root",
                            reason: "leaf holds an empty or out-of-range index list".into(),
                        });
                    }
                    Ok(())
                }
            }
        }
        check(&root, data.len())?;
        Ok(Self {
            data,
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
        loop {
            match node {
                Node::Internal {
                    estimator_left,
                    estimator_right,
                    left,
                    right,
                } => {
                    let l = estimator_left.estimate(q)?;
                    let r = estimator_right.estimate(q)?;
                    node = if l >= r { left } else { right };
                }
                Node::Leaf { indices } => {
                    let mut best = MipsCandidate {
                        index: indices[0],
                        inner_product: self.data[indices[0]].dot(q)?,
                    };
                    for &i in &indices[1..] {
                        let ip = self.data[i].dot(q)?;
                        if ip.abs() > best.inner_product.abs() {
                            best = MipsCandidate {
                                index: i,
                                inner_product: ip,
                            };
                        }
                    }
                    return Ok(best);
                }
            }
        }
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

    #[test]
    fn recovery_finds_dominant_inner_product() {
        let mut r = rng();
        let dim = 20;
        let n = 128;
        let query = random_unit_vector(&mut r, dim).unwrap();
        let mut data = background(&mut r, n, dim, 0.1);
        data[93] = query.scaled(8.0);
        let config = MaxIpConfig {
            kappa: 2.0,
            copies: 15,
            rows: None,
        };
        let index = SketchMipsIndex::build(&mut r, data, config, 8).unwrap();
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
        let config = MaxIpConfig {
            kappa: 2.0,
            copies: 15,
            rows: None,
        };
        let index = SketchMipsIndex::build(&mut r, data, config, 8).unwrap();
        let candidate = index.query(&query).unwrap();
        assert_eq!(candidate.index, 5);
        assert!(candidate.inner_product < 0.0);
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
