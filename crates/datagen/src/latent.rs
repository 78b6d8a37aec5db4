//! Latent-factor recommender workloads.
//!
//! In matrix-factorisation recommenders a user `u` and an item `v` are embedded as
//! `d`-dimensional vectors and the predicted preference is the inner product `uᵀv`
//! (Koren–Bell–Volinsky \[31\]). Retrieving the best item for a user is exactly MIPS, and
//! the offline "find all user/item pairs with predicted rating above s" task is the IPS
//! join — the motivating application of Teflioudi et al. \[50\] cited in the introduction.
//!
//! The generator draws item vectors with log-normal-ish popularity scaling (a few items
//! have much larger norms, which is what makes MIPS different from cosine search) and
//! user vectors as unit directions, then normalises everything into the unit ball so the
//! data satisfies the domain assumptions of the Section 4 data structures.

use crate::error::{DatagenError, Result};
use ips_linalg::random::{random_unit_vector, random_unit_vectors, standard_gaussian};
use ips_linalg::DenseVector;
use rand::Rng;

/// Configuration of the latent-factor workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatentFactorConfig {
    /// Number of item (data) vectors.
    pub items: usize,
    /// Number of user (query) vectors.
    pub users: usize,
    /// Latent dimension.
    pub dim: usize,
    /// Standard deviation of the log-norm popularity multiplier applied to items; zero
    /// gives uniform norms.
    pub popularity_sigma: f64,
}

impl Default for LatentFactorConfig {
    fn default() -> Self {
        Self {
            items: 1000,
            users: 100,
            dim: 32,
            popularity_sigma: 0.5,
        }
    }
}

/// A generated latent-factor model: items are the data/`P` side, users are the
/// query/`Q` side.
#[derive(Debug, Clone)]
pub struct LatentFactorModel {
    items: Vec<DenseVector>,
    users: Vec<DenseVector>,
}

impl LatentFactorModel {
    /// Generates a workload. Returns an error when any of the counts or the dimension
    /// is zero.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, config: LatentFactorConfig) -> Result<Self> {
        if config.items == 0 || config.users == 0 || config.dim == 0 {
            return Err(DatagenError::InvalidParameter {
                name: "config",
                reason: format!(
                    "items, users and dim must be positive, got items={} users={} dim={}",
                    config.items, config.users, config.dim
                ),
            });
        }
        let mut items = Vec::with_capacity(config.items);
        let mut max_norm: f64 = 0.0;
        for _ in 0..config.items {
            let direction = random_unit_vector(rng, config.dim)?;
            let popularity = (config.popularity_sigma * standard_gaussian(rng)).exp();
            let v = direction.scaled(popularity);
            max_norm = max_norm.max(v.norm());
            items.push(v);
        }
        // Normalise items into the unit ball (Section 4 data structures assume it).
        if max_norm > 0.0 {
            for v in &mut items {
                v.scale_in_place(1.0 / max_norm);
            }
        }
        let users = random_unit_vectors(rng, config.users, config.dim)?;
        Ok(Self { items, users })
    }

    /// The item (data) vectors, all inside the unit ball.
    pub fn items(&self) -> &[DenseVector] {
        &self.items
    }

    /// The user (query) vectors, all unit norm.
    pub fn users(&self) -> &[DenseVector] {
        &self.users
    }

    /// The exact best item for a user (ground truth for recall measurements).
    pub fn best_item(&self, user: usize) -> Option<(usize, f64)> {
        let u = self.users.get(user)?;
        let mut best: Option<(usize, f64)> = None;
        for (i, item) in self.items.iter().enumerate() {
            let ip = item.dot(u).ok()?;
            if best.map(|(_, b)| ip > b).unwrap_or(true) {
                best = Some((i, ip));
            }
        }
        best
    }

    /// The `s`-quantile of the distribution of best-item inner products over all users;
    /// a convenient way to pick a join threshold that selects roughly a `1 − q` fraction
    /// of users.
    pub fn best_ip_quantile(&self, q: f64) -> Option<f64> {
        let mut best: Vec<f64> = (0..self.users.len())
            .map(|u| self.best_item(u).map(|(_, ip)| ip))
            .collect::<Option<Vec<_>>>()?;
        best.sort_by(|a, b| a.partial_cmp(b).expect("inner products are finite"));
        let idx = ((best.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        best.get(idx).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x1A7E)
    }

    #[test]
    fn generation_guards() {
        let mut r = rng();
        let zero_items = LatentFactorConfig {
            items: 0,
            ..Default::default()
        };
        assert!(LatentFactorModel::generate(&mut r, zero_items).is_err());
        let zero_dim = LatentFactorConfig {
            dim: 0,
            ..Default::default()
        };
        assert!(LatentFactorModel::generate(&mut r, zero_dim).is_err());
    }

    #[test]
    fn items_fit_in_unit_ball_and_users_are_unit() {
        let mut r = rng();
        let config = LatentFactorConfig {
            items: 200,
            users: 30,
            dim: 16,
            popularity_sigma: 0.8,
        };
        let model = LatentFactorModel::generate(&mut r, config).unwrap();
        assert_eq!(model.items().len(), 200);
        assert_eq!(model.users().len(), 30);
        for item in model.items() {
            assert!(item.norm() <= 1.0 + 1e-9);
        }
        for user in model.users() {
            assert!((user.norm() - 1.0).abs() < 1e-9);
        }
        // Popularity skew: norms should not all be equal.
        let norms: Vec<f64> = model.items().iter().map(DenseVector::norm).collect();
        let min = norms.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = norms.iter().cloned().fold(0.0_f64, f64::max);
        assert!(max / min.max(1e-12) > 1.5, "popularity skew missing");
    }

    #[test]
    fn best_item_is_argmax() {
        let mut r = rng();
        let config = LatentFactorConfig {
            items: 50,
            users: 5,
            dim: 8,
            popularity_sigma: 0.3,
        };
        let model = LatentFactorModel::generate(&mut r, config).unwrap();
        let (best_idx, best_ip) = model.best_item(2).unwrap();
        for (i, item) in model.items().iter().enumerate() {
            let ip = item.dot(&model.users()[2]).unwrap();
            assert!(ip <= best_ip + 1e-12, "item {i} beats the reported best");
        }
        assert!(best_idx < 50);
        assert!(model.best_item(99).is_none());
    }

    #[test]
    fn quantile_is_monotone() {
        let mut r = rng();
        let model = LatentFactorModel::generate(&mut r, LatentFactorConfig::default()).unwrap();
        let q10 = model.best_ip_quantile(0.1).unwrap();
        let q90 = model.best_ip_quantile(0.9).unwrap();
        assert!(q10 <= q90);
    }
}
