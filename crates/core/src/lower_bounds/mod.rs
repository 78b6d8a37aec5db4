//! Lower-bound machinery (Section 3 of the paper).
//!
//! The section's main theorem (Theorem 3) bounds the achievable collision-probability
//! gap `P1 − P2` of *any* `(s, cs, P1, P2)`-asymmetric LSH for inner product similarity,
//! via a purely combinatorial argument (Lemma 4) applied to explicit "hard" sequences of
//! data and query vectors. This module reproduces all three ingredients:
//!
//! * [`sequences`] — the three hard-sequence constructions (geometric 1-d, arithmetic
//!   2-d, and the nearly-orthogonal binary-tree construction), each producing sequences
//!   `P, Q` with the staircase property `qᵢᵀpⱼ ≥ s` iff `j ≥ i`;
//! * [`grid`] — the Lemma 4 grid: the partition of the lower triangle of the collision
//!   matrix into exponentially sized squares (Figure 1), the mass-accounting bound
//!   `P1 − P2 ≤ 1/(8·log n)`, and helpers for rendering Figure 1;
//!
//! The closed-form gap bounds of Theorem 3 as functions of `(d, s, c, U)` are kept in
//! `gap`, compiled for the tests only, as a check of the theorem's statement.

pub mod grid;
pub mod sequences;

pub use grid::{gap_upper_bound, grid_squares, GridSquare};
pub use sequences::{hard_sequence_case1, hard_sequence_case2, hard_sequence_case3, HardSequence};

#[cfg(test)]
mod gap;
