//! Exact OVP solvers — the quadratic baselines.
//!
//! The OVP conjecture asserts that nothing much better than these solvers exists once
//! `d = ω(log n)`: [`brute_force_pair`] is the plain double loop with bit-packed
//! orthogonality checks, and [`count_orthogonal_pairs`] the same loop run to the end.

use crate::error::Result;
use crate::problem::OvpInstance;

/// Returns some orthogonal pair `(i, j)` (indices into `P` and `Q`) if one exists.
pub fn brute_force_pair(instance: &OvpInstance) -> Result<Option<(usize, usize)>> {
    for (i, p) in instance.p().iter().enumerate() {
        for (j, q) in instance.q().iter().enumerate() {
            if p.is_orthogonal_to(q)? {
                return Ok(Some((i, j)));
            }
        }
    }
    Ok(None)
}

/// Counts all orthogonal pairs (used to validate generators and reductions).
pub fn count_orthogonal_pairs(instance: &OvpInstance) -> Result<usize> {
    let mut count = 0usize;
    for p in instance.p() {
        for q in instance.q() {
            if p.is_orthogonal_to(q)? {
                count += 1;
            }
        }
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_linalg::BinaryVector;

    fn bv(bits: &[u8]) -> BinaryVector {
        BinaryVector::from_ints(bits)
    }

    fn instance_with_pair() -> OvpInstance {
        OvpInstance::new(
            vec![bv(&[1, 1, 0, 0]), bv(&[1, 0, 1, 0]), bv(&[0, 0, 1, 1])],
            vec![bv(&[1, 1, 1, 0]), bv(&[1, 1, 0, 0])],
        )
        .unwrap()
    }

    fn instance_without_pair() -> OvpInstance {
        // Every vector has bit 0 set, so no pair can be orthogonal.
        OvpInstance::new(
            vec![bv(&[1, 1, 0]), bv(&[1, 0, 1])],
            vec![bv(&[1, 0, 0]), bv(&[1, 1, 1])],
        )
        .unwrap()
    }

    #[test]
    fn brute_force_finds_pair() {
        let inst = instance_with_pair();
        let pair = brute_force_pair(&inst).unwrap();
        let (i, j) = pair.expect("pair must exist");
        assert!(inst.is_orthogonal_pair(i, j).unwrap());
    }

    #[test]
    fn brute_force_reports_absence() {
        assert_eq!(brute_force_pair(&instance_without_pair()).unwrap(), None);
    }

    #[test]
    fn counting_matches_manual_enumeration() {
        let inst = instance_with_pair();
        let mut manual = 0;
        for i in 0..inst.p_len() {
            for j in 0..inst.q_len() {
                if inst.is_orthogonal_pair(i, j).unwrap() {
                    manual += 1;
                }
            }
        }
        assert_eq!(count_orthogonal_pairs(&inst).unwrap(), manual);
        assert_eq!(count_orthogonal_pairs(&instance_without_pair()).unwrap(), 0);
    }

    #[test]
    fn chunked_solver_agrees_with_brute_force() {
        // Lemma 1's split: solving the sub-instances of `P` chunk by chunk finds the pair
        // the whole instance has, and none where it has none.
        for inst in [instance_with_pair(), instance_without_pair()] {
            for chunk in 1..=4 {
                let found = inst.p().chunks(chunk).enumerate().find_map(|(c, part)| {
                    let sub = OvpInstance::new(part.to_vec(), inst.q().to_vec()).unwrap();
                    brute_force_pair(&sub)
                        .unwrap()
                        .map(|(i, j)| (c * chunk + i, j))
                });
                assert_eq!(found, brute_force_pair(&inst).unwrap());
            }
        }
    }
}
