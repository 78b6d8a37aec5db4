//! Scoring-kernel selection: the `dtype` knob and the tiled batch kernel
//! behind it.
//!
//! Every join family bottoms out in dense inner products, and this module is
//! where the workspace decides *which* inner-product kernel the brute scan
//! runs:
//!
//! * **`dtype=f64`** (the default) — the exact per-query `f64` path,
//!   bit-identical to what the engine has always produced.
//! * **`dtype=f32`** — data is packed once into a contiguous
//!   [`FloatTile`] and scored with the autovectorized `f32` kernels from
//!   [`ips_linalg::tile`]. The per-query *winner* is re-scored exactly in
//!   `f64` before it is reported, so the validity contract (reported pairs
//!   clear `cs`) holds exactly; only near-ties between candidates can differ
//!   from the `f64` ranking, which costs recall, never validity.
//!
//! The LSH and sketch families gather few candidates and score them exactly
//! in `f64` whatever the `dtype`: the knob reaches the brute scan of a join
//! only. Serving has no `dtype`: a served brute index scans in `f64`.

use crate::error::{CoreError, Result};
use crate::mips::SearchResult;
use crate::problem::JoinSpec;
use ips_linalg::{DenseVector, FloatTile};

/// Floating-point width of the batched scoring kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Dtype {
    /// Exact double precision — the default; results are bit-identical to the
    /// pre-kernel-pass engine.
    #[default]
    F64,
    /// Single precision tiles: half the memory traffic and twice the SIMD
    /// width, with the per-query winner exactly re-scored in `f64`.
    F32,
}

impl std::fmt::Display for Dtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Dtype::F64 => "f64",
            Dtype::F32 => "f32",
        })
    }
}

impl std::str::FromStr for Dtype {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "f64" => Ok(Dtype::F64),
            "f32" => Ok(Dtype::F32),
            other => Err(CoreError::InvalidParameter {
                name: "dtype",
                reason: format!("unknown dtype `{other}`; expected f64 or f32"),
            }),
        }
    }
}

/// The scoring-kernel knob of a join, surfaced through `JoinBuilder::dtype`
/// and `ips join dtype=`; the planner prices the brute strategy with it. A
/// served index always scans in `f64`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScoringOptions {
    /// Floating-point width of the brute scan's scoring kernel.
    pub dtype: Dtype,
}

/// Packs `data` into the `f32` tile when the options call for one. The
/// default options prepare nothing (the exact path scores `DenseVector`s
/// directly).
pub(crate) fn prepare(data: &[DenseVector], options: ScoringOptions) -> Result<Option<FloatTile>> {
    match options.dtype {
        Dtype::F64 => Ok(None),
        Dtype::F32 => Ok(Some(FloatTile::from_vectors(data)?)),
    }
}

/// The batched brute scan under the prepared tile: same answer shape as
/// [`crate::mips::data_major_batch`].
///
/// Without a tile this is the exact `f64` scan (bit-identical); with one it
/// is the tiled single-precision argmax with the winner exactly re-scored,
/// which preserves validity exactly and differs from `f64` only on
/// near-ties.
pub(crate) fn scored_batch(
    data: &[DenseVector],
    tile: Option<&FloatTile>,
    queries: &[DenseVector],
    spec: &JoinSpec,
) -> Result<Vec<Option<SearchResult>>> {
    let Some(tile) = tile else {
        return crate::mips::data_major_batch(data, queries, spec);
    };
    if queries.is_empty() {
        return Ok(Vec::new());
    }
    if data.is_empty() {
        return Err(CoreError::EmptyDataSet);
    }
    queries
        .iter()
        .map(|q| f32_best(data, tile, q, spec))
        .collect()
}

/// One query against the `f32` tile: single-precision argmax, exact `f64`
/// re-score of the winner, promise filter — mirroring the exact scan's
/// strict-`>` earliest-argmax rule at `f32` precision.
fn f32_best(
    data: &[DenseVector],
    tile: &FloatTile,
    query: &DenseVector,
    spec: &JoinSpec,
) -> Result<Option<SearchResult>> {
    if query.dim() != tile.dim() {
        // Score through the checked path to fail exactly as the f64 scan would.
        data[0].dot(query)?;
    }
    let q32: Vec<f32> = query.iter().map(|&x| x as f32).collect();
    let mut best: Option<(usize, f32)> = None;
    for (i, row) in tile.iter_rows().enumerate() {
        let value = match spec.variant {
            crate::problem::JoinVariant::Signed => ips_linalg::tile::dot_f32(row, &q32),
            crate::problem::JoinVariant::Unsigned => ips_linalg::tile::dot_f32(row, &q32).abs(),
        };
        if best.map(|(_, b)| value > b).unwrap_or(true) {
            best = Some((i, value));
        }
    }
    let Some((winner, _)) = best else {
        return Ok(None);
    };
    let ip = data[winner].dot(query)?;
    Ok(Some(SearchResult {
        data_index: winner,
        inner_product: ip,
    })
    .filter(|b| spec.satisfies_promise(b.inner_product)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mips::data_major_batch;
    use crate::problem::JoinVariant;
    use ips_linalg::random::random_ball_vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::str::FromStr;

    fn vectors(rng: &mut StdRng, count: usize, dim: usize) -> Vec<DenseVector> {
        (0..count)
            .map(|_| random_ball_vector(rng, dim, 1.0).unwrap())
            .collect()
    }

    const F32: ScoringOptions = ScoringOptions { dtype: Dtype::F32 };

    #[test]
    fn dtype_parse_and_display_roundtrip() {
        assert_eq!(Dtype::from_str("f64").unwrap(), Dtype::F64);
        assert_eq!(Dtype::from_str("f32").unwrap(), Dtype::F32);
        assert!(Dtype::from_str("f16").is_err());
        assert_eq!(Dtype::F64.to_string(), "f64");
        assert_eq!(Dtype::F32.to_string(), "f32");
        assert_eq!(ScoringOptions::default().dtype, Dtype::F64);
    }

    #[test]
    fn default_options_prepare_nothing_and_delegate_bit_identically() {
        let mut rng = StdRng::seed_from_u64(0xD7);
        let data = vectors(&mut rng, 40, 16);
        let queries = vectors(&mut rng, 9, 16);
        let spec = JoinSpec::new(0.1, 0.8, JoinVariant::Signed).unwrap();
        let prepared = prepare(&data, ScoringOptions::default()).unwrap();
        assert!(prepared.is_none());
        let exact = data_major_batch(&data, &queries, &spec).unwrap();
        let kernel = scored_batch(&data, prepared.as_ref(), &queries, &spec).unwrap();
        assert_eq!(exact.len(), kernel.len());
        for (e, k) in exact.iter().zip(kernel.iter()) {
            match (e, k) {
                (None, None) => {}
                (Some(e), Some(k)) => {
                    assert_eq!(e.data_index, k.data_index);
                    assert_eq!(e.inner_product.to_bits(), k.inner_product.to_bits());
                }
                other => panic!("mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn f32_batch_winners_are_valid_and_exactly_scored() {
        let mut rng = StdRng::seed_from_u64(0xF32);
        let data = vectors(&mut rng, 80, 16);
        let queries = vectors(&mut rng, 20, 16);
        let spec = JoinSpec::new(0.05, 0.8, JoinVariant::Signed).unwrap();
        let prepared = prepare(&data, F32).unwrap();
        let hits = scored_batch(&data, prepared.as_ref(), &queries, &spec).unwrap();
        for (j, hit) in hits.iter().enumerate() {
            if let Some(h) = hit {
                let true_ip = data[h.data_index].dot(&queries[j]).unwrap();
                assert_eq!(true_ip.to_bits(), h.inner_product.to_bits());
                assert!(spec.satisfies_promise(h.inner_product));
            }
        }
    }

    #[test]
    fn dimension_mismatch_fails_like_the_exact_path() {
        let data = vec![DenseVector::from(&[1.0, 0.0][..])];
        let queries = vec![DenseVector::from(&[1.0, 0.0, 0.0][..])];
        let spec = JoinSpec::new(0.1, 0.9, JoinVariant::Signed).unwrap();
        let prepared = prepare(&data, F32).unwrap();
        assert!(scored_batch(&data, prepared.as_ref(), &queries, &spec).is_err());
    }
}
