//! # ips-sketch
//!
//! Linear sketches for `ℓ_p` norms and the unsigned `c`-MIPS data structure of
//! Section 4.3 of the paper.
//!
//! The paper's final upper bound sidesteps LSH entirely: view the data set as an
//! `n × d` matrix `A`; then for a query `q` the vector of inner products is `Aq` and the
//! unsigned maximum inner product is `‖Aq‖_∞`. Estimating `‖Aq‖_∞` directly is hard, but
//! `‖Aq‖_κ` is within a factor `n^{1/κ}` of it, and `‖·‖_κ` admits *linear* sketches of
//! dimension `Õ(n^{1−2/κ})` (Andoni's max-stability sketch, reference \[5\]). Because the
//! sketch is linear it can be pre-applied to `A`: store `Π·A` (an `Õ(n^{1−2/κ}) × d`
//! matrix) and at query time compute `‖(ΠA)q‖_∞` in `Õ(d·n^{1−2/κ})` time — a
//! `c ≈ n^{−1/κ}` approximation of the maximum absolute inner product.
//!
//! Modules:
//!
//! * [`stable`] — the median that boosts independent estimates (its tests keep the
//!   classical p-stable sketches, the textbook substrate the max-stability construction
//!   builds on);
//! * [`maxstable`] — the max-stability sketch for `ℓ_κ`, `κ ≥ 2`;
//! * [`linf_mips`] — the `‖Aq‖_∞` estimator (value only): one coordinate-major block
//!   of coefficients per estimator and the allocation-free kernel that evaluates it;
//! * [`recovery`] — the bit-by-bit / prefix-tree index recovery structure that also
//!   returns *which* row attains (approximately) the maximum, cut off where a sketch
//!   would cost a query more than the scan it saves, and the same tree walked as a
//!   join, one node at a time;
//! * [`cost`] — closed-form build/query flop predictions for the adaptive join
//!   planner in `ips-core`, and the split rule the tree and the predictions share.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod error;
pub mod linf_mips;
pub mod maxstable;
pub mod recovery;
pub mod stable;

pub use error::{Result, SketchError};
pub use linf_mips::MaxIpEstimator;
pub use maxstable::MaxStableSketch;
pub use recovery::{SketchMipsIndex, DEFAULT_LEAF_SIZE};

// The paper's query-scaling reduction from unsigned `c`-MIPS to unsigned `(cs, s)`
// search, kept as a check of Section 4.3's statement (the sketch join itself runs
// through `ips_core`'s `Join` facade).
#[cfg(test)]
mod join;
