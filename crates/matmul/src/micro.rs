//! Register-tiled micro-kernels over contiguous `f32` tiles.
//!
//! The blocked kernels in [`crate::dense`] tile for *cache*; this module adds
//! the next level down: an `MR × NR` register tile accumulated over `K`-blocks,
//! the classical GotoBLAS-style micro-kernel shape. Each step of the inner
//! loop loads `MR` data values and `NR` query values and performs the full
//! `MR × NR` outer-product update into a fixed-size accumulator array that
//! LLVM keeps in registers — all of it safe iterator/array code (the crate
//! carries `#![deny(unsafe_code)]`), autovectorized rather than hand-written.
//!
//! The payoff is measured, not assumed: the `flop_rate_beats_scalar_reference`
//! test asserts (in release builds) that the micro-kernel sustains a higher
//! flop rate than the textbook scalar loop; the absolute per-pair cost of the
//! brute scoring kernels is the repository benchmark's `kernel.f64_ns_per_pair`
//! / `kernel.f32_ns_per_pair` (under `benchmark/`).

use crate::error::{MatmulError, Result};
use ips_linalg::tile::dot_f32;
use ips_linalg::FloatTile;

/// Rows of the register tile (data vectors scored per inner-loop step).
pub const MR: usize = 4;
/// Columns of the register tile (queries scored per inner-loop step).
pub const NR: usize = 4;
/// Depth of one `K`-block: 256 `f32` values per row is 1 KiB, so an `MR + NR`
/// panel of `K`-block rows stays comfortably inside L1.
pub const KC: usize = 256;

/// The cross inner-product matrix `G[i][j] = dataᵢᵀ queryⱼ` of two `f32`
/// tiles, row-major `data.rows() × queries.rows()`, computed by the
/// register-tiled micro-kernel.
///
/// Returns an error when the tile dimensions disagree. Empty tiles produce an
/// empty matrix.
pub fn gram_f32(data: &FloatTile, queries: &FloatTile) -> Result<Vec<f32>> {
    if data.dim() != queries.dim() && !data.is_empty() && !queries.is_empty() {
        return Err(MatmulError::ShapeMismatch {
            left: (data.rows(), data.dim()),
            right: (queries.rows(), queries.dim()),
            op: "gram_f32",
        });
    }
    let (n, m, d) = (data.rows(), queries.rows(), data.dim());
    let mut out = vec![0.0f32; n * m];
    let full_n = n - n % MR;
    let full_m = m - m % NR;

    let mut k0 = 0;
    while k0 < d.max(1) && k0 < d {
        let k1 = (k0 + KC).min(d);
        for i0 in (0..full_n).step_by(MR) {
            let rows = [
                &data.row(i0)[k0..k1],
                &data.row(i0 + 1)[k0..k1],
                &data.row(i0 + 2)[k0..k1],
                &data.row(i0 + 3)[k0..k1],
            ];
            for j0 in (0..full_m).step_by(NR) {
                let cols = [
                    &queries.row(j0)[k0..k1],
                    &queries.row(j0 + 1)[k0..k1],
                    &queries.row(j0 + 2)[k0..k1],
                    &queries.row(j0 + 3)[k0..k1],
                ];
                let mut acc = [[0.0f32; NR]; MR];
                for k in 0..(k1 - k0) {
                    let a = [rows[0][k], rows[1][k], rows[2][k], rows[3][k]];
                    let b = [cols[0][k], cols[1][k], cols[2][k], cols[3][k]];
                    for (acc_row, &av) in acc.iter_mut().zip(a.iter()) {
                        for (slot, &bv) in acc_row.iter_mut().zip(b.iter()) {
                            *slot += av * bv;
                        }
                    }
                }
                for (mi, acc_row) in acc.iter().enumerate() {
                    let out_row = &mut out[(i0 + mi) * m + j0..(i0 + mi) * m + j0 + NR];
                    for (slot, &v) in out_row.iter_mut().zip(acc_row.iter()) {
                        *slot += v;
                    }
                }
            }
        }
        k0 = k1;
    }

    // Edges: rows beyond the last full MR block and columns beyond the last
    // full NR block fall back to the plain vectorized dot kernel.
    for i in 0..n {
        for j in 0..m {
            if i < full_n && j < full_m {
                continue;
            }
            out[i * m + j] = dot_f32(data.row(i), queries.row(j));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_linalg::DenseVector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vectors(rng: &mut StdRng, count: usize, dim: usize) -> Vec<DenseVector> {
        (0..count)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect()
    }

    #[test]
    fn micro_kernel_matches_scalar_dots() {
        let mut rng = StdRng::seed_from_u64(0x5173);
        // Shapes chosen to exercise full blocks, row/column edges and a dim
        // that spans multiple K-blocks.
        for (n, m, d) in [(1, 1, 3), (4, 4, 8), (7, 5, 32), (9, 11, 300), (13, 4, 257)] {
            let data = FloatTile::from_vectors(&random_vectors(&mut rng, n, d)).unwrap();
            let queries = FloatTile::from_vectors(&random_vectors(&mut rng, m, d)).unwrap();
            let gram = gram_f32(&data, &queries).unwrap();
            assert_eq!(gram.len(), n * m);
            for i in 0..n {
                for j in 0..m {
                    let reference = dot_f32(data.row(i), queries.row(j));
                    let got = gram[i * m + j];
                    assert!(
                        (reference - got).abs() <= 1e-3 * (1.0 + reference.abs()),
                        "({i},{j}) of {n}x{m}x{d}: {reference} vs {got}"
                    );
                }
            }
        }
    }

    #[test]
    fn mismatched_dims_are_rejected_and_empty_tiles_are_fine() {
        let a = FloatTile::from_vectors(&[DenseVector::from(&[1.0, 2.0][..])]).unwrap();
        let b = FloatTile::from_vectors(&[DenseVector::from(&[1.0][..])]).unwrap();
        assert!(gram_f32(&a, &b).is_err());
        let empty = FloatTile::from_vectors(&[]).unwrap();
        assert!(gram_f32(&a, &empty).unwrap().is_empty());
        assert!(gram_f32(&empty, &a).unwrap().is_empty());
    }

    /// The codegen smoke test the kernel pass is gated on: in release builds
    /// the register-tiled micro-kernel must sustain a strictly higher flop
    /// rate than the textbook one-pair-at-a-time scalar `f64` loop. Debug
    /// builds skip the assertion (no autovectorization without optimization).
    #[test]
    fn flop_rate_beats_scalar_reference() {
        if cfg!(debug_assertions) {
            return;
        }
        let mut rng = StdRng::seed_from_u64(0xF10);
        let (n, m, d) = (256, 64, 64);
        let data_vecs = random_vectors(&mut rng, n, d);
        let query_vecs = random_vectors(&mut rng, m, d);
        let data = FloatTile::from_vectors(&data_vecs).unwrap();
        let queries = FloatTile::from_vectors(&query_vecs).unwrap();
        let reps = 20;

        let start = std::time::Instant::now();
        let mut sink = 0.0f32;
        for _ in 0..reps {
            sink += gram_f32(&data, &queries).unwrap()[0];
        }
        let micro_ns = start.elapsed().as_nanos() as f64;

        let start = std::time::Instant::now();
        let mut scalar_sink = 0.0f64;
        for _ in 0..reps {
            for p in &data_vecs {
                for q in &query_vecs {
                    scalar_sink += p.dot_unchecked_len(q);
                }
            }
        }
        let scalar_ns = start.elapsed().as_nanos() as f64;
        assert!(sink.is_finite() && scalar_sink.is_finite());
        assert!(
            micro_ns < scalar_ns,
            "micro-kernel slower than the scalar loop: {micro_ns} ns vs {scalar_ns} ns"
        );
    }
}
