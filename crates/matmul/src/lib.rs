//! # ips-matmul
//!
//! The *algebraic techniques* substrate of the `ips-join` workspace — a reproduction of
//! the matrix-multiplication-based side of *"On the Complexity of Inner Product
//! Similarity Join"* (Ahle, Pagh, Razenshteyn, Silvestri; PODS 2016).
//!
//! Table 1 of the paper splits approximation ranges into *hard* and *permissible*; the
//! permissible entries for unsigned join over `{−1,1}` are achieved by reductions to
//! fast matrix multiplication (Valiant \[51\] and Karppa–Kaski–Kohonen \[29\]) rather than
//! by LSH. This crate builds that baseline so the benchmark harness can compare the
//! LSH/sketch data structures of Section 4 against it:
//!
//! * [`dense`] — the cache-blocked dense matrix product that computes the one Gram
//!   product `P·Qᵀ` of the amplified join, and the textbook product it is tested
//!   against;
//! * [`valiant`] — the amplify-and-multiply unsigned `(cs, s)` join for `{−1,1}` data:
//!   a degree-`t` tensor-power amplification compressed by random coordinate sampling,
//!   followed by a Gram product and exact verification of the surviving candidates —
//!   the laptop-scale analogue of the outlier-correlation detection of [51, 29].
//!
//! The exact join is not here: it is the brute-force scan of `ips-core`. The crate
//! depends only on `ips-linalg` (vectors and matrices) and `rand`; the `ips-core`
//! crate adapts the amplified join to its common interface.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// The kernels must stay autovectorized safe Rust: no intrinsics or raw-pointer
// tricks in the hot loops.
#![deny(unsafe_code)]

pub mod dense;
pub mod error;
pub mod valiant;

pub use dense::{multiply_blocked, multiply_naive};
pub use error::{MatmulError, Result};
pub use valiant::{
    amplified_unsigned_join, AlgebraicPair, AmplifiedJoinConfig, AmplifiedJoinReport,
};
