//! Integration-test crate for the `ips-join` workspace.
//!
//! The integration tests under `tests/` exercise the public APIs of every workspace
//! crate together (data generation → embeddings/indexes/joins → evaluation against
//! the paper's definitions). This library holds what several of them share: the
//! drifting serve-time workloads of [`drift`], and the data and small-parameter
//! index configurations below.

pub mod drift;

use ips_core::asymmetric::AlshParams;
use ips_core::symmetric::SymmetricParams;
use ips_core::IndexConfig;
use ips_linalg::random::random_ball_vector;
use ips_linalg::DenseVector;
use ips_sketch::linf_mips::MaxIpConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `n` seeded vectors of dimension `dim`, uniform in the unit ball and scaled by
/// 0.95, so every family (ALSH and the symmetric map included) accepts them.
pub fn vectors(seed: u64, n: usize, dim: usize) -> Vec<DenseVector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| random_ball_vector(&mut rng, dim, 1.0).unwrap().scaled(0.95))
        .collect()
}

/// Section 4.1 parameters small enough for test-sized data: 8 tables of 4 bits.
pub fn small_alsh() -> AlshParams {
    AlshParams {
        bits_per_table: 4,
        tables: 8,
        ..Default::default()
    }
}

/// Section 4.2 parameters small enough for test-sized data: 8 tables of 4 bits.
pub fn small_symmetric() -> SymmetricParams {
    SymmetricParams {
        bits_per_table: 4,
        tables: 8,
        ..Default::default()
    }
}

/// Three copies of one row, so that the recovery tree still splits small data sets
/// (any range of more than six vectors) and the snapshots hold internal nodes.
pub fn small_sketch() -> MaxIpConfig {
    MaxIpConfig {
        kappa: 2.0,
        copies: 3,
        rows: Some(1),
    }
}

/// All four families, with the small parameters above.
pub fn families() -> [IndexConfig; 4] {
    [
        IndexConfig::Brute,
        IndexConfig::Alsh(small_alsh()),
        IndexConfig::Symmetric(small_symmetric()),
        IndexConfig::Sketch(small_sketch()),
    ]
}
