//! # ips-datagen
//!
//! Synthetic workload generators for the IPS-join experiments.
//!
//! The paper's motivating applications are recommender systems based on latent-factor
//! models, document/set similarity, and correlation detection; its evaluation artefacts
//! are theoretical (Table 1, Figures 1–2). To exercise the runnable data structures the
//! way the introduction motivates them, this crate provides:
//!
//! * [`latent`] — a latent-factor recommender model (users × items, preference = inner
//!   product), the workload of Teflioudi et al. \[50\] and the Xbox recommender paper \[12\];
//! * [`planted`] — "needle in a haystack" instances: near-orthogonal background plus
//!   planted pairs with prescribed inner products, the regime the hardness results say
//!   is difficult;
//! * [`binary_sets`] — Zipfian set data for the `{0,1}` domain (MH-ALSH's home turf);
//! * [`sphere`] — batches of unit vectors and pairs with prescribed cosine similarity,
//!   used by the collision-probability experiments;
//! * [`zipf`] — the Zipf sampler shared by the set generator;
//! * [`adversarial`] — named workloads parked in (or at the edge of) the regimes
//!   where each join strategy wins, used to calibrate and stress the adaptive
//!   join planner of `ips-core`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adversarial;
pub mod binary_sets;
pub mod error;
pub mod latent;
pub mod planted;
pub mod sphere;
pub mod zipf;

pub use error::{DatagenError, Result};
pub use latent::{LatentFactorConfig, LatentFactorModel};
pub use planted::{PlantedConfig, PlantedInstance};
pub use zipf::ZipfSampler;
