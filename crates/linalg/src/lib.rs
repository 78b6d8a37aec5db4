//! # ips-linalg
//!
//! Vector, matrix and embedding algebra underpinning the `ips-join` workspace — a
//! reproduction of *"On the Complexity of Inner Product Similarity Join"*
//! (Ahle, Pagh, Razenshteyn, Silvestri; PODS 2016).
//!
//! The paper works in three vector domains, all of which are first-class here:
//!
//! * real vectors in the unit ball / `R^d` — [`DenseVector`],
//! * binary vectors `{0,1}^d` (set data) — [`BinaryVector`] (bit-packed),
//! * sign vectors `{-1,+1}^d` — [`SignVector`] (bit-packed).
//!
//! On top of the plain containers the crate provides the algebraic ingredients that
//! the paper's constructions need:
//!
//! * Chebyshev polynomials of the first kind ([`chebyshev`]), used by the
//!   deterministic Chebyshev gap embedding (Lemma 3, embedding 2);
//! * concatenation / repetition / tensoring operators ([`ops`]) — the `⊕` and `⊗`
//!   calculus the paper uses to compose embeddings;
//! * random samplers ([`random`]) for Gaussian, Cauchy, exponential and general
//!   symmetric α-stable variables (needed by E2LSH and the max-stability sketches);
//! * explicit *incoherent* vector collections ([`incoherent`]) via Reed–Solomon codes
//!   and via random Gaussian vectors, used by the symmetric LSH of Section 4.2 and by
//!   the third hard-sequence construction of Theorem 3;
//! * Johnson–Lindenstrauss style random projections ([`projection`]).
//!
//! It is also the bottom of the dependency graph, so the one piece of scheduling every
//! other crate shares lives here: the ordered block driver ([`par`]).
//!
//! All numeric code is dependency-light (only `rand`) and designed so the
//! higher-level crates (`ips-lsh`, `ips-ovp`, `ips-sketch`, `ips-core`) never have to
//! re-implement inner products or norms.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// The SIMD-friendly kernel layer ([`tile`]) must stay autovectorized safe
// Rust: no intrinsics or raw-pointer tricks may creep into the hot loops. (The
// one exception in the crate is not numeric code: `par::placement`, three libc
// calls that tell the kernel which CPU a worker thread starts on.)
#![deny(unsafe_code)]

pub mod binary;
pub mod chebyshev;
pub mod error;
pub mod incoherent;
pub mod matrix;
pub mod ops;
pub mod par;
pub mod projection;
pub mod random;
pub mod sign;
pub mod tile;
pub mod vector;

pub use binary::BinaryVector;
pub use error::{LinalgError, Result};
pub use matrix::Matrix;
pub use sign::SignVector;
pub use tile::{score_block, FloatTile};
pub use vector::DenseVector;
