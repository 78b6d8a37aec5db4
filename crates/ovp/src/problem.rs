//! OVP instances.
//!
//! Definition 3 of the paper: given two sets `P, Q ⊆ {0,1}^d` of `n` vectors each,
//! decide whether there exist `p ∈ P` and `q ∈ Q` with `pᵀq = 0`. The conjectured
//! hardness (no `O(n^{2−ε})` algorithm once `d = ω(log n)`) is the source of every
//! conditional lower bound in the paper. The generalised, asymmetric-size version used
//! by Lemma 1 (`|P| = n^α`, `|Q| = n`) is supported directly: the two sides may have
//! different cardinalities.

use crate::error::{OvpError, Result};
use ips_linalg::BinaryVector;

/// An Orthogonal Vectors Problem instance: two sets of binary vectors of a common
/// dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OvpInstance {
    dim: usize,
    p: Vec<BinaryVector>,
    q: Vec<BinaryVector>,
}

impl OvpInstance {
    /// Creates an instance from the two vector sets.
    ///
    /// Returns an error if either side is empty or any vector disagrees on dimension.
    pub fn new(p: Vec<BinaryVector>, q: Vec<BinaryVector>) -> Result<Self> {
        let first = p
            .first()
            .or_else(|| q.first())
            .ok_or(OvpError::EmptyInstance)?;
        let dim = first.dim();
        if p.is_empty() || q.is_empty() {
            return Err(OvpError::EmptyInstance);
        }
        for v in p.iter().chain(q.iter()) {
            if v.dim() != dim {
                return Err(OvpError::InconsistentDimensions {
                    expected: dim,
                    actual: v.dim(),
                });
            }
        }
        Ok(Self { dim, p, q })
    }

    /// Dimension of the vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `P` side of the instance.
    pub fn p(&self) -> &[BinaryVector] {
        &self.p
    }

    /// The `Q` side of the instance.
    pub fn q(&self) -> &[BinaryVector] {
        &self.q
    }

    /// `|P|`.
    pub fn p_len(&self) -> usize {
        self.p.len()
    }

    /// `|Q|`.
    pub fn q_len(&self) -> usize {
        self.q.len()
    }

    /// Checks whether a specific pair `(i, j)` (indices into `P` and `Q`) is orthogonal.
    pub fn is_orthogonal_pair(&self, i: usize, j: usize) -> Result<bool> {
        let p = self.p.get(i).ok_or(OvpError::InvalidParameter {
            name: "i",
            reason: format!("index {i} out of range for |P| = {}", self.p.len()),
        })?;
        let q = self.q.get(j).ok_or(OvpError::InvalidParameter {
            name: "j",
            reason: format!("index {j} out of range for |Q| = {}", self.q.len()),
        })?;
        Ok(p.is_orthogonal_to(q)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(bits: &[u8]) -> BinaryVector {
        BinaryVector::from_ints(bits)
    }

    #[test]
    fn construction_validates_dimensions() {
        let inst = OvpInstance::new(vec![bv(&[1, 0]), bv(&[0, 1])], vec![bv(&[1, 1])]).unwrap();
        assert_eq!(inst.dim(), 2);
        assert_eq!(inst.p_len(), 2);
        assert_eq!(inst.q_len(), 1);
        assert!(OvpInstance::new(vec![], vec![bv(&[1])]).is_err());
        assert!(OvpInstance::new(vec![bv(&[1])], vec![]).is_err());
        assert!(OvpInstance::new(vec![bv(&[1, 0])], vec![bv(&[1])]).is_err());
    }

    #[test]
    fn orthogonal_pair_check() {
        let inst = OvpInstance::new(
            vec![bv(&[1, 0, 0]), bv(&[1, 1, 0])],
            vec![bv(&[0, 0, 1]), bv(&[1, 0, 0])],
        )
        .unwrap();
        assert!(inst.is_orthogonal_pair(0, 0).unwrap());
        assert!(!inst.is_orthogonal_pair(0, 1).unwrap());
        assert!(inst.is_orthogonal_pair(1, 0).unwrap());
        assert!(inst.is_orthogonal_pair(5, 0).is_err());
        assert!(inst.is_orthogonal_pair(0, 5).is_err());
    }

    #[test]
    fn accessors_expose_sides() {
        let p = vec![bv(&[1, 0])];
        let q = vec![bv(&[0, 1]), bv(&[1, 1])];
        let inst = OvpInstance::new(p.clone(), q.clone()).unwrap();
        assert_eq!(inst.p(), &p[..]);
        assert_eq!(inst.q(), &q[..]);
    }
}
