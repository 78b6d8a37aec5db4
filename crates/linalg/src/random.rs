//! Random samplers and random vector generators.
//!
//! Only the `rand` crate is available offline, so the non-uniform distributions the
//! workspace needs are implemented here directly:
//!
//! * standard Gaussian via Box–Muller (2-stable, used by E2LSH, SimHash and
//!   Johnson–Lindenstrauss projections);
//! * standard Cauchy (1-stable, used by `ℓ₁` sketches);
//! * exponential (used to build *max-stable* sketches for `ℓ_κ`, Section 4.3).
//!
//! The module also offers convenience constructors for random dense / binary / sign
//! vectors used pervasively by tests, benchmarks and the data generators.
//!
//! **Batch forms.** A Gaussian costs ~38 ns, nearly all of it the logarithm and the
//! cosine, so a generator that wants many of them and draws nothing else in between
//! calls [`fill_standard_gaussians`] or [`random_unit_vectors`], which run on the
//! workspace's block driver ([`crate::par::pipeline`]): the calling thread draws each
//! block's pairs of uniforms from the generator, in the order and by the calls
//! [`standard_gaussian`] would draw them; any thread applies the transform — and, for
//! unit vectors, the norm and the scaling, each in the scalar code's own order of
//! operations; the calling thread takes the blocks back in order and cuts the vectors
//! out of them, so their storage is allocated by the caller. **Same stream** means:
//! a sample is a function of its own pair alone, so the batch returns, bit for bit,
//! what the scalar loop returns from the same generator state, whatever the thread
//! count, and leaves the generator in the state that loop leaves it in. A seeded data
//! set is the same data set either way. The scalar functions stay: they are the model
//! the batch forms are tested against, and what a caller that draws anything else
//! between two samples has to use.

use crate::binary::BinaryVector;
use crate::error::{LinalgError, Result};
use crate::par::{pipeline, Schedule};
use crate::sign::SignVector;
use crate::vector::DenseVector;
use rand::Rng;
use std::convert::Infallible;
use std::f64::consts::PI;

/// Gaussians a thread of a batch form turns out at a time: ~0.15 ms of work.
const GAUSSIAN_BLOCK: usize = 4096;

/// Box–Muller: one standard Gaussian from `u1` uniform in `(0, 1]` and `u2` in `[0, 1)`.
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
}

/// Draws one standard Gaussian (mean 0, variance 1) sample using Box–Muller.
pub fn standard_gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Draw u1 in (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    box_muller(u1, u2)
}

/// One block of a batch on its way through the ring. The buffers are the caller's and
/// are reused block after block.
struct PairBlock {
    /// `u₁` of every pair as loaded; the pair's Gaussian once worked.
    samples: Vec<f64>,
    /// `u₂` of every pair, spent once worked: [`random_unit_vectors`] keeps each row's
    /// norm in its place.
    spare: Vec<f64>,
}

/// Runs `total` Gaussians through the block driver, `schedule.block` at a time: the
/// pairs of uniforms drawn on the calling thread as a loop of [`standard_gaussian`]
/// draws them, transformed and then handed to `shape` on any thread, and given to
/// `unload` on the calling thread in stream order.
fn gaussian_blocks<R: Rng + ?Sized>(
    rng: &mut R,
    total: usize,
    schedule: Schedule,
    shape: impl Fn(&mut PairBlock) + Sync,
    mut unload: impl FnMut(&PairBlock),
) {
    let size = schedule.block.clamp(1, total.max(1));
    let blocks = total.div_ceil(size);
    let mut ring: Vec<PairBlock> = (0..schedule.ring().min(blocks))
        .map(|_| PairBlock {
            samples: Vec::with_capacity(size),
            spare: Vec::with_capacity(size),
        })
        .collect();
    if ring.is_empty() {
        return;
    }
    // A worker takes ~0.35 ms to start (see `par`): worth it from eight blocks each.
    let threads = schedule.threads.clamp(1, blocks.div_ceil(8));
    let mut left = total;
    let Ok(()) = pipeline(
        &mut vec![(); threads],
        &mut ring,
        |_, block| {
            let len = left.min(size);
            left -= len;
            block.samples.clear();
            block.spare.clear();
            for _ in 0..len {
                block.samples.push(1.0 - rng.gen::<f64>());
                block.spare.push(rng.gen());
            }
            Ok::<_, Infallible>(len > 0)
        },
        |(), _, block| {
            for (sample, &u2) in block.samples.iter_mut().zip(&block.spare) {
                *sample = box_muller(*sample, u2);
            }
            shape(block);
            Ok(())
        },
        |_, block| {
            unload(block);
            Ok(())
        },
    );
}

/// Fills `out` with i.i.d. standard Gaussians: what `out.fill_with(|| standard_gaussian(rng))`
/// leaves in it and in `rng`, bit for bit, computed on every available CPU (see the
/// module docs, "batch forms").
pub fn fill_standard_gaussians<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    fill_gaussians_scheduled(rng, out, Schedule::new(GAUSSIAN_BLOCK));
}

/// [`fill_standard_gaussians`] under an explicit schedule (`block` in samples).
fn fill_gaussians_scheduled<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64], schedule: Schedule) {
    let mut filled = 0;
    gaussian_blocks(
        rng,
        out.len(),
        schedule,
        |_| {},
        |block| {
            out[filled..filled + block.samples.len()].copy_from_slice(&block.samples);
            filled += block.samples.len();
        },
    );
}

/// Draws one standard Cauchy sample (location 0, scale 1).
pub fn standard_cauchy<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Inverse CDF: tan(π (u − 1/2)). Keep u away from the endpoints.
    let u: f64 = rng.gen_range(1e-12..1.0 - 1e-12);
    (PI * (u - 0.5)).tan()
}

/// Draws one standard exponential sample (rate 1).
pub fn standard_exponential<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u: f64 = 1.0 - rng.gen::<f64>();
    -u.ln()
}

/// Random dense vector with i.i.d. standard Gaussian entries.
pub fn gaussian_vector<R: Rng + ?Sized>(rng: &mut R, dim: usize) -> DenseVector {
    DenseVector::new((0..dim).map(|_| standard_gaussian(rng)).collect())
}

/// Random vector drawn uniformly from the unit sphere `S^{d-1}`.
pub fn random_unit_vector<R: Rng + ?Sized>(rng: &mut R, dim: usize) -> Result<DenseVector> {
    if dim == 0 {
        return Err(LinalgError::InvalidParameter {
            name: "dim",
            reason: "cannot draw a unit vector in dimension 0".to_string(),
        });
    }
    loop {
        let v = gaussian_vector(rng, dim);
        if let Ok(u) = v.normalized() {
            return Ok(u);
        }
    }
}

/// `count` vectors drawn uniformly from the unit sphere `S^{d-1}`: what `count` calls of
/// [`random_unit_vector`] return and leave in `rng`, bit for bit, computed on every
/// available CPU (see the module docs, "batch forms").
pub fn random_unit_vectors<R: Rng + ?Sized>(
    rng: &mut R,
    count: usize,
    dim: usize,
) -> Result<Vec<DenseVector>> {
    unit_vectors_scheduled(rng, count, dim, Schedule::new(GAUSSIAN_BLOCK))
}

/// [`random_unit_vectors`] under an explicit schedule (`block` in coordinates).
fn unit_vectors_scheduled<R: Rng + ?Sized>(
    rng: &mut R,
    count: usize,
    dim: usize,
    schedule: Schedule,
) -> Result<Vec<DenseVector>> {
    if dim == 0 {
        return Err(LinalgError::InvalidParameter {
            name: "dim",
            reason: "cannot draw a unit vector in dimension 0".to_string(),
        });
    }
    let whole_rows = Schedule {
        block: (schedule.block / dim).max(1) * dim,
        ..schedule
    };
    let mut out = Vec::with_capacity(count);
    // A row of zeros has no direction, and `random_unit_vector` draws it again from
    // the pairs that follow it in the stream. Here those pairs have gone to the rows
    // behind it already, so every row moves up by one and the rows then missing are
    // drawn at the end: the same pairs make the same vectors in the same order.
    while out.len() < count {
        gaussian_blocks(
            rng,
            (count - out.len()) * dim,
            whole_rows,
            |block| {
                let rows = block.samples.chunks_exact_mut(dim);
                for (row, norm) in rows.zip(&mut block.spare) {
                    // As `DenseVector::normalized` computes it.
                    *norm = crate::tile::dot_slices(row, row).sqrt();
                    let factor = 1.0 / *norm;
                    row.iter_mut().for_each(|x| *x *= factor);
                }
            },
            |block| {
                let rows = block.samples.chunks_exact(dim).zip(&block.spare);
                let kept = rows.filter(|(_, &norm)| norm != 0.0);
                out.extend(kept.map(|(row, _)| DenseVector::from(row)));
            },
        );
    }
    Ok(out)
}

/// Random vector drawn uniformly from the ball of the given radius.
pub fn random_ball_vector<R: Rng + ?Sized>(
    rng: &mut R,
    dim: usize,
    radius: f64,
) -> Result<DenseVector> {
    if radius < 0.0 {
        return Err(LinalgError::InvalidParameter {
            name: "radius",
            reason: format!("radius must be nonnegative, got {radius}"),
        });
    }
    let direction = random_unit_vector(rng, dim)?;
    // For the uniform distribution in a d-ball the radius has CDF (r/R)^d.
    let r = radius * rng.gen::<f64>().powf(1.0 / dim as f64);
    Ok(direction.scaled(r))
}

/// Random `{0,1}^d` vector where each bit is 1 independently with probability `p`.
pub fn random_binary_vector<R: Rng + ?Sized>(
    rng: &mut R,
    dim: usize,
    p: f64,
) -> Result<BinaryVector> {
    if !(0.0..=1.0).contains(&p) {
        return Err(LinalgError::InvalidParameter {
            name: "p",
            reason: format!("bit probability must be in [0,1], got {p}"),
        });
    }
    let mut v = BinaryVector::zeros(dim);
    for i in 0..dim {
        if rng.gen::<f64>() < p {
            v.set(i, true);
        }
    }
    Ok(v)
}

/// Random `{-1,+1}^d` vector with i.i.d. uniform signs.
pub fn random_sign_vector<R: Rng + ?Sized>(rng: &mut R, dim: usize) -> SignVector {
    let mut v = SignVector::all_minus(dim);
    for i in 0..dim {
        if rng.gen::<bool>() {
            v.set(i, 1);
        }
    }
    v
}

/// Generates a pair of unit vectors whose inner product is (exactly) `target_cos`.
///
/// Used to measure empirical collision probabilities at a prescribed similarity level.
/// Returns an error when `target_cos` is outside `[-1, 1]` or `dim < 2`.
pub fn correlated_unit_pair<R: Rng + ?Sized>(
    rng: &mut R,
    dim: usize,
    target_cos: f64,
) -> Result<(DenseVector, DenseVector)> {
    if !(-1.0..=1.0).contains(&target_cos) {
        return Err(LinalgError::InvalidParameter {
            name: "target_cos",
            reason: format!("cosine must lie in [-1,1], got {target_cos}"),
        });
    }
    if dim < 2 {
        return Err(LinalgError::InvalidParameter {
            name: "dim",
            reason: "correlated pair needs dimension at least 2".to_string(),
        });
    }
    let a = random_unit_vector(rng, dim)?;
    // Sample b0 orthogonal to a by Gram–Schmidt, then mix.
    let mut b0 = loop {
        let candidate = random_unit_vector(rng, dim)?;
        let proj = candidate.dot(&a)?;
        let residual = candidate.sub(&a.scaled(proj))?;
        if residual.norm() > 1e-9 {
            break residual.normalized()?;
        }
    };
    let sin = (1.0 - target_cos * target_cos).max(0.0).sqrt();
    b0.scale_in_place(sin);
    let b = a.scaled(target_cos).add(&b0)?;
    Ok((a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5EED)
    }

    #[test]
    fn gaussian_moments() {
        let mut r = rng();
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_gaussian(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng();
        let n = 50_000;
        let mean = (0..n).map(|_| standard_exponential(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.03, "mean = {mean}");
    }

    #[test]
    fn cauchy_median_is_zero() {
        let mut r = rng();
        let n = 20_001;
        let mut samples: Vec<f64> = (0..n).map(|_| standard_cauchy(&mut r)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        assert!(median.abs() < 0.05, "median = {median}");
    }

    #[test]
    fn stable_alpha_one_matches_cauchy_tail() {
        let mut r = rng();
        let n = 20_000;
        // The α = 1 stable law is the standard Cauchy.
        let frac_large = (0..n)
            .map(|_| standard_cauchy(&mut r))
            .filter(|x| x.abs() > 1.0)
            .count() as f64
            / n as f64;
        // P(|Cauchy| > 1) = 1/2.
        assert!((frac_large - 0.5).abs() < 0.03, "frac = {frac_large}");
    }

    #[test]
    fn unit_vectors_have_unit_norm() {
        let mut r = rng();
        for _ in 0..20 {
            let v = random_unit_vector(&mut r, 17).unwrap();
            assert!((v.norm() - 1.0).abs() < 1e-10);
        }
        assert!(random_unit_vector(&mut r, 0).is_err());
    }

    /// Every schedule the batch forms are held to the scalar loop under: the calling
    /// thread alone, two threads, more threads than CPUs; blocks of a coordinate, of a
    /// few rows that divide nothing evenly, and the default.
    fn schedules() -> impl Iterator<Item = Schedule> {
        let blocks = [1, 100, GAUSSIAN_BLOCK];
        [1, 2, 8]
            .into_iter()
            .flat_map(move |threads| blocks.map(|block| Schedule { threads, block }))
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn a_filled_buffer_is_the_scalar_loops_bit_for_bit() {
        for len in [0, 1, 63, 64, 65, 20_000] {
            let mut model_rng = rng();
            let model: Vec<f64> = (0..len)
                .map(|_| standard_gaussian(&mut model_rng))
                .collect();
            let after = model_rng.next_u64();
            for schedule in schedules() {
                let (mut r, mut out) = (rng(), vec![f64::NAN; len]);
                fill_gaussians_scheduled(&mut r, &mut out, schedule);
                assert_eq!(bits(&out), bits(&model), "{len} under {schedule:?}");
                assert_eq!(r.next_u64(), after, "{len} under {schedule:?}");
            }
            let (mut r, mut out) = (rng(), vec![f64::NAN; len]);
            fill_standard_gaussians(&mut r, &mut out);
            assert_eq!((bits(&out), r.next_u64()), (bits(&model), after));
        }
    }

    /// `random_unit_vector` in a loop: the model of `random_unit_vectors`.
    fn one_by_one<R: Rng + ?Sized>(r: &mut R, count: usize, dim: usize) -> Vec<Vec<u64>> {
        let vectors = (0..count).map(|_| random_unit_vector(r, dim).unwrap());
        vectors.map(|v| bits(v.as_slice())).collect()
    }

    fn rows(vectors: Vec<DenseVector>) -> Vec<Vec<u64>> {
        vectors.iter().map(|v| bits(v.as_slice())).collect()
    }

    #[test]
    fn a_batch_of_unit_vectors_is_the_scalar_loops_bit_for_bit() {
        for dim in [2, 48, 64] {
            for count in [0, 1, 63, 64, 65, 20_000] {
                let mut model_rng = rng();
                let model = one_by_one(&mut model_rng, count, dim);
                let after = model_rng.next_u64();
                // The long batch once per thread count, the short ones at every cut.
                let long = |schedule: &Schedule| schedule.block == GAUSSIAN_BLOCK;
                for schedule in schedules().filter(|s| count < 1000 || long(s)) {
                    let mut r = rng();
                    let batch = unit_vectors_scheduled(&mut r, count, dim, schedule).unwrap();
                    assert!(rows(batch) == model, "{count} x {dim} under {schedule:?}");
                    assert_eq!(r.next_u64(), after, "{count} x {dim} under {schedule:?}");
                }
                let mut r = rng();
                let batch = random_unit_vectors(&mut r, count, dim).unwrap();
                assert!(rows(batch) == model && r.next_u64() == after);
            }
        }
        assert!(random_unit_vectors(&mut rng(), 3, 0).is_err());
    }

    /// A generator that follows a script: `StdRng`'s stream, except that the draws
    /// which make `u₁` of every coordinate of the `zero_row`-th row drawn come out as
    /// `0` — `gen::<f64>() == 0`, `u₁ == 1`, a sample of exactly zero.
    struct Scripted {
        inner: StdRng,
        draws: usize,
        dim: usize,
        zero_rows: Vec<usize>,
    }

    impl RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            let (pair, is_u1) = (self.draws / 2, self.draws.is_multiple_of(2));
            self.draws += 1;
            let drawn = self.inner.next_u64();
            match is_u1 && self.zero_rows.contains(&(pair / self.dim)) {
                true => 0,
                false => drawn,
            }
        }
    }

    #[test]
    fn a_zero_row_is_drawn_again_from_the_pairs_the_scalar_loop_takes() {
        let dim = 5;
        // Rows of the stream that come out zero: one alone, two in a row, the row a
        // block ends on, and the very last one wanted — which the retry round draws.
        for zero_rows in [vec![3], vec![0, 1], vec![19, 20, 39], vec![39]] {
            let scripted = || Scripted {
                inner: rng(),
                draws: 0,
                dim,
                zero_rows: zero_rows.clone(),
            };
            let count = 40;
            let mut model_rng = scripted();
            let model = one_by_one(&mut model_rng, count, dim);
            let drawn = count + zero_rows.len();
            assert_eq!(model_rng.draws, 2 * dim * drawn, "every zero row was met");
            for schedule in schedules() {
                let mut r = scripted();
                let batch = unit_vectors_scheduled(&mut r, count, dim, schedule).unwrap();
                assert!(rows(batch) == model, "{zero_rows:?} under {schedule:?}");
                assert_eq!(r.draws, model_rng.draws, "{zero_rows:?} under {schedule:?}");
            }
        }
    }

    #[test]
    fn ball_vectors_stay_inside() {
        let mut r = rng();
        for _ in 0..50 {
            let v = random_ball_vector(&mut r, 8, 2.5).unwrap();
            assert!(v.norm() <= 2.5 + 1e-10);
        }
        assert!(random_ball_vector(&mut r, 8, -1.0).is_err());
    }

    #[test]
    fn binary_density_is_respected() {
        let mut r = rng();
        let v = random_binary_vector(&mut r, 20_000, 0.3).unwrap();
        let density = v.count_ones() as f64 / 20_000.0;
        assert!((density - 0.3).abs() < 0.02, "density = {density}");
        assert!(random_binary_vector(&mut r, 10, 1.5).is_err());
    }

    #[test]
    fn sign_vector_is_balanced() {
        let mut r = rng();
        let v = random_sign_vector(&mut r, 20_000);
        let frac_plus = (0..20_000).filter(|&i| v.get(i) == 1).count() as f64 / 20_000.0;
        assert!((frac_plus - 0.5).abs() < 0.02);
    }

    #[test]
    fn correlated_pair_hits_target() {
        let mut r = rng();
        for &target in &[-0.8, -0.2, 0.0, 0.5, 0.95] {
            let (a, b) = correlated_unit_pair(&mut r, 32, target).unwrap();
            assert!((a.norm() - 1.0).abs() < 1e-9);
            assert!((b.norm() - 1.0).abs() < 1e-9);
            assert!((a.dot(&b).unwrap() - target).abs() < 1e-9);
        }
        assert!(correlated_unit_pair(&mut r, 32, 1.5).is_err());
        assert!(correlated_unit_pair(&mut r, 1, 0.5).is_err());
    }
}
