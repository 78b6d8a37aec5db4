//! # ips-lsh
//!
//! Locality-sensitive hashing families — symmetric and *asymmetric* (Definition 2 of
//! the paper) — for inner product similarity, together with the machinery needed to
//! turn a family into an index (AND/OR amplification, multi-table indexes) and to
//! measure or predict collision probabilities.
//!
//! The crate implements every hashing scheme the paper discusses or compares against:
//!
//! | Scheme | Module | Role in the paper |
//! |---|---|---|
//! | Hyperplane / SimHash (Charikar) | [`hyperplane`] | sphere substrate; SIMP curve of Figure 2 |
//! | Cross-polytope LSH | [`crosspolytope`] | the "practical and optimal" sphere LSH of \[7\] |
//! | p-stable E2LSH | [`e2lsh`] | substrate of L2-ALSH |
//! | MinHash | [`minhash`] | substrate of MH-ALSH |
//! | Asymmetric minwise hashing (MH-ALSH) | [`mhalsh`] | state of the art for binary data \[46\] |
//! | L2-ALSH(SL) | [`alsh_l2`] | the original ALSH for MIPS \[45\] |
//! | SIMPLE-ALSH | [`simple_alsh`] | Neyshabur–Srebro reduction \[39\]; basis of Section 4.1 |
//! | Query-directed probing | [`probe`] | compositional multi-probe for the production indexes (PR 10) |
//! | Plane bank | [`bank`] | the one hashing kernel [`table::LshIndex`] runs for the hyperplane families |
//!
//! The closed-form ρ exponents compared in **Figure 2** (DATA-DEP, SIMP, MH-ALSH) are
//! provided by the [`rho`] module; empirical collision probabilities for validation of
//! the theoretical curves are computed by [`collision`]; closed-form cost and
//! candidate-set-size predictions for the adaptive join planner live in [`cost`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alsh_l2;
pub mod amplify;
pub mod bank;
pub mod collision;
pub mod cost;
pub mod crosspolytope;
pub mod e2lsh;
pub mod error;
pub mod hyperplane;
pub mod mhalsh;
pub mod minhash;
pub mod probe;
pub mod rho;
pub mod simple_alsh;
pub mod table;
pub mod traits;

pub use error::{LshError, Result};
pub use probe::{ProbeFlip, ProbeSequence};
pub use traits::{
    AsymmetricHashFunction, AsymmetricLshFamily, HashFunction, LshFamily, SymmetricAsAsymmetric,
    SymmetricFunctionPair,
};
