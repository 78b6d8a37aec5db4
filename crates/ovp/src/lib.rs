//! # ips-ovp
//!
//! The Orthogonal Vectors Problem (OVP) side of the paper: instances, exact solvers,
//! random generators, the three *gap embeddings* of Lemma 3, and the Lemma 2 reduction
//! that turns any subquadratic `(cs, s)` IPS-join algorithm into a subquadratic OVP
//! algorithm (thereby refuting the OVP conjecture / SETH).
//!
//! The hardness results of Section 2 (Theorems 1 and 2, summarised in Table 1) are
//! *constructive* at their core: each row of Table 1 corresponds to a family of
//! embeddings `(f, g)` mapping `{0,1}^d` OVP vectors into `{−1,1}` or `{0,1}` vectors
//! whose inner products sit above `s` exactly for orthogonal pairs and below `cs`
//! otherwise. This crate implements those embeddings exactly as described:
//!
//! * [`embedding::SignedEmbedding`] — Lemma 3, embedding 1: the signed
//!   `(d, 4d−4, 0, 4)` embedding into `{−1,1}`;
//! * [`embedding::ChebyshevEmbedding`] — Lemma 3, embedding 2: the deterministic
//!   `(d, (9d)^q, (2d)^q, (2d)^q·T_q(1+1/d))` embedding into `{−1,1}`;
//! * [`embedding::ZeroOneEmbedding`] — Lemma 3, embedding 3: the chopped-product
//!   `(d, k·2^{d/k}, k−1, k)` embedding into `{0,1}`.
//!
//! Experiment **E1** (Table 1) sweeps these embeddings and verifies their gap
//! guarantees; experiment **E8** runs the full OVP → join reduction end-to-end.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod embedding;
pub mod error;
pub mod generator;
pub mod problem;
pub mod reduction;
pub mod solvers;

pub use embedding::{ChebyshevEmbedding, Domain, GapEmbedding, SignedEmbedding, ZeroOneEmbedding};
pub use error::{OvpError, Result};
pub use generator::{no_pair_instance, planted_instance, random_instance};
pub use problem::OvpInstance;
pub use solvers::{brute_force_pair, count_orthogonal_pairs};

// The parameter choices of Theorems 1 and 2, kept as a check of their statements.
#[cfg(test)]
mod parametrize;
