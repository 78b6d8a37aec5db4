//! The Lemma 4 grid argument and the Figure 1 illustration.
//!
//! Lemma 4: if data/query sequences of length `n` with the staircase property exist,
//! then any `(s, cs, P1, P2)`-asymmetric LSH satisfies `P1 − P2 ≤ 1/(8·log n)`. The
//! proof partitions the lower triangle of the `n × n` collision grid (nodes `(i, j)`
//! with `j ≥ i`, the "P1-nodes") into squares `G_{r,t}` of exponentially increasing side
//! `2^r`, classifies the mass of each node into *shared*, *partially shared* and
//! *proper* contributions, and charges the shared mass to P2-nodes and the proper mass
//! to rows/columns. Figure 1 of the paper illustrates the partition on a `15 × 15` grid.
//!
//! This module provides the partition itself ([`grid_squares`]), the resulting bound
//! ([`gap_upper_bound`]), node classification helpers for rendering Figure 1, and an
//! empirical estimator of `P1` and `P2` over a hard sequence for any concrete
//! asymmetric LSH family (experiment E7).

use crate::error::{CoreError, Result};
use crate::lower_bounds::sequences::HardSequence;
use ips_lsh::collision::estimate_pair_collision;
use ips_lsh::AsymmetricLshFamily;
use rand::Rng;

/// One square `G_{r,t}` of the Lemma 4 partition.
///
/// The square covers query rows `i ∈ [t·2^{r+1}, t·2^{r+1} + 2^r)` and data columns
/// `j ∈ [(2t+1)·2^r − 1, (2t+1)·2^r − 1 + 2^r)`; the node the paper calls its
/// "top-left", `((2t+1)·2^r − 1, (2t+1)·2^r − 1)`, is the corner where the square
/// touches the diagonal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridSquare {
    /// The level `r` (the square has side `2^r`).
    pub level: u32,
    /// The index `t` of the square within its level.
    pub index: usize,
    /// First query row covered.
    pub row_start: usize,
    /// First data column covered.
    pub col_start: usize,
    /// Side length `2^r`.
    pub side: usize,
}

impl GridSquare {
    /// Returns `true` when the node `(i, j)` belongs to this square.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        i >= self.row_start
            && i < self.row_start + self.side
            && j >= self.col_start
            && j < self.col_start + self.side
    }
}

/// The squares of the Lemma 4 partition for a grid of side `n = 2^ell − 1`.
///
/// Level `r` (for `0 ≤ r < ell`) contains `2^{ell−r−1}` squares of side `2^r`; together
/// they partition the lower triangle `{(i, j) : j ≥ i}` exactly (verified by the tests
/// below), which is the combinatorial backbone of the Lemma 4 charging argument.
pub fn grid_squares(ell: u32) -> Result<Vec<GridSquare>> {
    if ell == 0 || ell > 30 {
        return Err(CoreError::InvalidParameter {
            name: "ell",
            reason: format!("ell must be in 1..=30, got {ell}"),
        });
    }
    let mut squares = Vec::new();
    for r in 0..ell {
        let count = 1usize << (ell - r - 1);
        let side = 1usize << r;
        for t in 0..count {
            squares.push(GridSquare {
                level: r,
                index: t,
                row_start: t * 2 * side,
                col_start: (2 * t + 1) * side - 1,
                side,
            });
        }
    }
    Ok(squares)
}

/// The Lemma 4 upper bound on `P1 − P2` implied by a hard sequence of length `n`:
/// `1/(8·log₂ n)` (and 1 — the trivial bound — for `n < 2`).
pub fn gap_upper_bound(n: usize) -> f64 {
    if n < 2 {
        return 1.0;
    }
    1.0 / (8.0 * (n as f64).log2())
}

/// Classification of a grid node for rendering Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeClass {
    /// A node `(i, j)` with `j ≥ i`: its collision probability must be at least `P1`.
    P1,
    /// A node with `j < i`: its collision probability must be at most `P2`.
    P2,
}

/// Classifies the node `(i, j)` of the collision grid.
pub fn classify_node(i: usize, j: usize) -> NodeClass {
    if j >= i {
        NodeClass::P1
    } else {
        NodeClass::P2
    }
}

/// One Figure 1 grid node: its class and the identifier of the square containing it
/// (`None` for P2-nodes).
pub type GridNode = (NodeClass, Option<(u32, usize)>);

/// The Figure 1 data: for an `n × n` grid (`n = 2^ell − 1`), every node's [`GridNode`].
pub fn figure1_grid(ell: u32) -> Result<Vec<Vec<GridNode>>> {
    let squares = grid_squares(ell)?;
    let n = (1usize << ell) - 1;
    let mut grid = vec![vec![(NodeClass::P2, None); n]; n];
    for (i, row) in grid.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            let class = classify_node(i, j);
            let square = if class == NodeClass::P1 {
                squares
                    .iter()
                    .find(|sq| sq.contains(i, j))
                    .map(|sq| (sq.level, sq.index))
            } else {
                None
            };
            *cell = (class, square);
        }
    }
    Ok(grid)
}

/// Empirically estimates `(P1, P2)` for a concrete asymmetric LSH family over a hard
/// sequence, by Monte-Carlo collision sampling: `P1` is the minimum estimated collision
/// probability over staircase pairs `j ≥ i`, `P2` the maximum over pairs `j < i`.
/// Together with [`gap_upper_bound`] this is experiment E7: the measured gap must not
/// exceed the Lemma 4 bound (up to sampling error) for any valid family.
pub fn estimate_gap_on_sequence<F, R>(
    family: &F,
    sequence: &HardSequence,
    trials: usize,
    rng: &mut R,
) -> Result<(f64, f64)>
where
    F: AsymmetricLshFamily,
    R: Rng + ?Sized,
{
    if sequence.len() < 2 {
        return Err(CoreError::InvalidParameter {
            name: "sequence",
            reason: "hard sequence must have length at least 2".into(),
        });
    }
    let mut p1 = f64::INFINITY;
    let mut p2 = f64::NEG_INFINITY;
    for (i, q) in sequence.queries.iter().enumerate() {
        for (j, p) in sequence.data.iter().enumerate() {
            let estimate = estimate_pair_collision(family, p, q, trials, rng)?;
            if j >= i {
                p1 = p1.min(estimate);
            } else {
                p2 = p2.max(estimate);
            }
        }
    }
    Ok((p1, p2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_bounds::sequences::hard_sequence_case1;
    use ips_lsh::simple_alsh::SimpleAlshFamily;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn squares_partition_the_lower_triangle() {
        for ell in 1..=5u32 {
            let n = (1usize << ell) - 1;
            let squares = grid_squares(ell).unwrap();
            // Level counts: 2^{ell−r−1} squares of side 2^r.
            for r in 0..ell {
                let count = squares.iter().filter(|s| s.level == r).count();
                assert_eq!(count, 1usize << (ell - r - 1));
            }
            // Every P1-node is covered by exactly one square.
            for i in 0..n {
                for j in i..n {
                    let covering = squares.iter().filter(|sq| sq.contains(i, j)).count();
                    assert_eq!(
                        covering, 1,
                        "node ({i},{j}) covered by {covering} squares at ell={ell}"
                    );
                }
            }
            // No square contains a P2-node.
            for i in 0..n {
                for j in 0..i {
                    assert!(squares.iter().all(|sq| !sq.contains(i, j)));
                }
            }
        }
        assert!(grid_squares(0).is_err());
        assert!(grid_squares(31).is_err());
    }

    #[test]
    fn figure1_matches_paper_dimensions() {
        // The paper's Figure 1 uses a 15 × 15 grid (ell = 4).
        let grid = figure1_grid(4).unwrap();
        assert_eq!(grid.len(), 15);
        assert_eq!(grid[0].len(), 15);
        // Node (1,5) lies in G_{2,0} per the figure's example.
        let (class, square) = grid[1][5];
        assert_eq!(class, NodeClass::P1);
        assert_eq!(square, Some((2, 0)));
        // Node (0,6) also lies in G_{2,0}; node (2,4) too.
        assert_eq!(grid[0][6].1, Some((2, 0)));
        assert_eq!(grid[2][4].1, Some((2, 0)));
        // Diagonal singleton squares at level 0.
        assert_eq!(grid[0][0].1, Some((0, 0)));
        assert_eq!(grid[2][2].1, Some((0, 1)));
        // P2-nodes carry no square.
        assert_eq!(grid[5][1].0, NodeClass::P2);
        assert_eq!(grid[5][1].1, None);
    }

    #[test]
    fn gap_bound_decreases_with_length() {
        assert_eq!(gap_upper_bound(1), 1.0);
        assert!(gap_upper_bound(4) > gap_upper_bound(64));
        assert!((gap_upper_bound(256) - 1.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn classify_node_splits_on_diagonal() {
        assert_eq!(classify_node(3, 3), NodeClass::P1);
        assert_eq!(classify_node(3, 7), NodeClass::P1);
        assert_eq!(classify_node(7, 3), NodeClass::P2);
    }

    #[test]
    fn empirical_gap_respects_lemma4_bound_shape() {
        // Take a real asymmetric family (SIMPLE-ALSH) and a case-1 hard sequence; the
        // measured worst-case gap must be small — in particular it cannot be the naive
        // large gap one would read off a single "nice" pair.
        let mut rng = StdRng::seed_from_u64(0x6A9);
        let seq = hard_sequence_case1(0.05, 0.5, 1.0).unwrap();
        assert!(seq.len() >= 4);
        let family = SimpleAlshFamily::new(1, 1.0, 1).unwrap();
        let (p1, p2) = estimate_gap_on_sequence(&family, &seq, 600, &mut rng).unwrap();
        assert!((0.0..=1.0).contains(&p1));
        assert!((0.0..=1.0).contains(&p2));
        // Sampling noise allowance: the structural claim is that the worst-case gap is
        // far below what the best-case pair would suggest.
        let gap = p1 - p2;
        assert!(
            gap <= gap_upper_bound(seq.len()) + 0.1,
            "measured gap {gap} grossly exceeds the Lemma 4 bound {}",
            gap_upper_bound(seq.len())
        );
    }

    #[test]
    fn estimate_gap_rejects_trivial_sequences() {
        let mut rng = StdRng::seed_from_u64(1);
        let family = SimpleAlshFamily::new(1, 1.0, 1).unwrap();
        let seq = HardSequence {
            queries: vec![ips_linalg::DenseVector::from(&[1.0][..])],
            data: vec![ips_linalg::DenseVector::from(&[1.0][..])],
            s: 1.0,
            c: 0.5,
            u: 1.0,
        };
        assert!(estimate_gap_on_sequence(&family, &seq, 10, &mut rng).is_err());
    }
}
