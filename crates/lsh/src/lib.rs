//! # ips-lsh
//!
//! Locality-sensitive hashing for inner product similarity — symmetric and
//! *asymmetric* (Definition 2 of the paper) — around the one index the system builds,
//! serves and joins with: the paper's §4.1 reduction to the sphere, hashed by the
//! signs of Gaussian hyperplanes held in one [`bank::PlaneBank`].
//!
//! | Piece | Module | Role in the paper |
//! |---|---|---|
//! | Hyperplane / SimHash (Charikar) | [`hyperplane`] | sphere substrate; SIMP curve of Figure 2; the §4.2 family |
//! | SIMPLE-ALSH | [`simple_alsh`] | Neyshabur–Srebro reduction \[39\]; basis of Section 4.1 |
//! | Family traits | [`traits`] | Definition 2; [`BankedFamily`] is what an index is built over |
//! | AND-construction | [`amplify`] | `k`-wise concatenation, `P1^k` / `P2^k` |
//! | Plane bank | [`bank`] | the one hashing kernel of [`table::LshIndex`] |
//! | Multi-table index | [`table`] | the OR-construction over `L` tables |
//! | Query-directed probing | [`probe`] | compositional multi-probe for the index |
//!
//! The closed-form ρ exponents compared in **Figure 2** (DATA-DEP, SIMP, MH-ALSH,
//! L2-ALSH) are provided by the [`rho`] module; empirical collision probabilities for
//! validation of the theoretical curves are computed by [`collision`]; closed-form cost
//! and candidate-set-size predictions for the adaptive join planner live in [`cost`].
//! The comparison families the paper measures against — L2-ALSH, MH-ALSH, E2LSH,
//! MinHash, cross-polytope — are sampled only by the experiments, and live with them
//! in `ips-bench`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod amplify;
pub mod bank;
pub mod collision;
pub mod cost;
pub mod error;
pub mod hyperplane;
pub mod probe;
pub mod rho;
pub mod simple_alsh;
pub mod table;
pub mod traits;

pub use error::{LshError, Result};
pub use probe::{ProbeFlip, ProbeSequence};
pub use traits::{
    AsymmetricHashFunction, AsymmetricLshFamily, BankedFamily, HashFunction, LshFamily,
    SymmetricAsAsymmetric, SymmetricFunctionPair,
};
