//! The dense product kernel, and its reduced-precision mirror.
//!
//! Every structure of the paper ends in one operation, `Σ_j a[j]·b[j]` over ascending
//! `j`: the §4.1/§4.2 hashes take the signs of `⟨g_f, x⟩` over a bank of planes, the
//! §4.3 estimator takes `max_i |⟨A_i, q⟩|` over sketch rows, and every strategy
//! re-scores its candidates with `⟨p, q⟩`. This module writes those sums once; every
//! dense `f64` inner product and row update of the workspace's crates calls it:
//!
//! * [`dot_slices`] — one pair; [`axpy_slices`] — one coordinate's row added into many
//!   sums (a row stream);
//! * the **register tile** — [`POINTS`] points by four planes, sixteen sums held in
//!   registers across the walk over `j`, so a coefficient is loaded once a tile and a
//!   sum written once. [`block_products`] runs it over a coordinate-major block (a plane
//!   bank, a sketch block: row `j` holds coordinate `j` of every plane);
//!   [`score_block`] over row-major vectors, rows in the planes' role and queries in the
//!   points', so even one query gets four independent chains.
//!
//! **One start value.** Every sum starts from [`EMPTY_SUM`], the value an empty
//! `Iterator::sum` of `f64` has, and adds its products in ascending `j`. However the
//! sums are interleaved, each therefore has the bits of [`DenseVector::dot`], the sign
//! of a zero included.
//!
//! **Tile or stream.** The tile walks a block a few columns at a time, which pays when
//! the block is warm — a build hashing point after point. A single vector instead
//! streams the block front to back, row by row: that is what a prefetcher follows when
//! the block has left the cache since the last request, where the tile's column-wise
//! walk would stall on every row. [`block_products`] takes the tile for a full tile of
//! points only.
//!
//! **The `f32` mirror.** [`FloatTile`] is a contiguous row-major `f32` copy of the data
//! set that the brute scan opts into, scored with [`dot_f32`]: half the memory traffic
//! of `f64` and twice the lane width, at the price of ~7 decimal digits. The scan that
//! uses it re-scores its winners in exact `f64`, so validity is never at stake.
//!
//! All kernels are safe code shaped for the compiler to vectorise: the crate carries
//! `#![deny(unsafe_code)]`, so no intrinsics can creep in.

use crate::error::{LinalgError, Result};
use crate::vector::DenseVector;

/// What every `f64` sum starts from: the value an empty `Iterator::sum` of `f64` has.
/// It is `-0.0`, the one value `x` with `x + y == y` for every `y`, `±0.0` included.
pub const EMPTY_SUM: f64 = -0.0;

/// Points per register tile (see the module docs).
pub const POINTS: usize = 4;

/// Planes per register tile: with [`POINTS`] points, sixteen sums — eight packed
/// accumulators, what sixteen vector registers hold beside the planes and the
/// broadcast coordinates.
const LANES: usize = 4;

/// Number of independent accumulators in the `f32` kernel — wide enough for one AVX2
/// register per accumulator chain on x86-64, and harmless elsewhere.
const F32_LANES: usize = 8;

/// Inner product of two equal-length `f64` slices: the products in ascending order,
/// summed from [`EMPTY_SUM`] — [`DenseVector::dot`] after its length check.
///
/// Lengths are only checked under `debug_assertions`.
#[inline]
pub fn dot_slices(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot_slices requires equal lengths");
    a.iter().zip(b).fold(EMPTY_SUM, |sum, (x, y)| sum + x * y)
}

/// `y += alpha · x` over equal-length `f64` slices: one product added into each sum —
/// [`DenseVector::axpy`] after its length check, and the row stream of a
/// coordinate-major product.
///
/// Lengths are only checked under `debug_assertions`.
#[inline]
pub fn axpy_slices(y: &mut [f64], alpha: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len(), "axpy_slices requires equal lengths");
    for (o, &v) in y.iter_mut().zip(x) {
        *o += alpha * v;
    }
}

/// The register tile: `sums[p][f] = Σ_j planes_j[f]·points[p][j]` over the `j` below
/// the points' one length, from [`EMPTY_SUM`] in ascending `j`. `planes` yields
/// coordinate `j` of the tile's [`LANES`] planes for each `j`, in order.
#[inline(always)]
fn tile<const P: usize>(
    planes: impl Iterator<Item = [f64; LANES]>,
    points: [&[f64]; P],
) -> [[f64; LANES]; P] {
    let len = points[0].len();
    let points = points.map(|x| &x[..len]);
    // Indexed loops over fixed-size arrays: the shape the compiler turns into packed
    // accumulators.
    let mut sums = [[EMPTY_SUM; LANES]; P];
    for (j, g) in (0..len).zip(planes) {
        for p in 0..P {
            let xj = points[p][j];
            for f in 0..LANES {
                sums[p][f] += g[f] * xj;
            }
        }
    }
    sums
}

/// The products of a coordinate-major `block` with a few points:
/// `out[p·width + f] = Σ_j block[j·width + f]·points[p][j]` for every column `f` of the
/// block (`width` a row) and every `j` below point `p`'s length, which must not
/// exceed the block's row count. `out` holds `points.len() × width` sums, point-major.
///
/// [`POINTS`] points of one length go through the register tile; any other number —
/// one above all — streams the block row by row ([`axpy_slices`]; see the module docs).
/// Either way each sum has [`dot_slices`]' bits.
///
/// Compiled once, here: inlined into its generic callers the loop would be
/// re-optimised per instantiating crate.
#[inline(never)]
pub fn block_products(block: &[f64], width: usize, points: &[&[f64]], out: &mut [f64]) {
    debug_assert!(width > 0 && block.len().is_multiple_of(width));
    debug_assert!(out.len() >= points.len() * width);
    match <[&[f64]; POINTS]>::try_from(points) {
        Ok(points) if points.iter().all(|x| x.len() == points[0].len()) => {
            let rows = &block[..points[0].len() * width];
            let mut store = |first: usize, sums: [[f64; LANES]; POINTS]| {
                for (out, sums) in out.chunks_exact_mut(width).zip(&sums) {
                    let lanes = LANES.min(width - first);
                    out[first..first + lanes].copy_from_slice(&sums[..lanes]);
                }
            };
            let mut first = 0;
            while first + LANES <= width {
                let planes = rows.chunks_exact(width).map(|row| {
                    row[first..first + LANES]
                        .try_into()
                        .expect("a slice of LANES planes")
                });
                store(first, tile(planes, points));
                first += LANES;
            }
            if first < width {
                // The last columns, padded with planes whose sums go unread.
                let planes = rows.chunks_exact(width).map(|row| {
                    let mut g = [0.0; LANES];
                    g[..width - first].copy_from_slice(&row[first..]);
                    g
                });
                store(first, tile(planes, points));
            }
        }
        _ => {
            for (x, out) in points.iter().zip(out.chunks_exact_mut(width)) {
                out.fill(EMPTY_SUM);
                for (row, &xj) in block.chunks_exact(width).zip(*x) {
                    axpy_slices(out, xj, row);
                }
            }
        }
    }
}

/// The one exact scoring loop: calls `emit(row_index, query_position, score)` for every
/// row against every query. Rows come in the order given, each with the index `emit`
/// reports, and every query sees its rows in that order; every score has
/// [`DenseVector::dot`]'s bits. Over ascending rows, a first-strict-`>` rule per query
/// therefore keeps the lowest index among equal scores, as a query-at-a-time scan does.
///
/// The pairs run through the register tile, four rows by up to [`POINTS`] queries at a
/// time, each such block data-major. The first pair whose dimensions differ, in
/// data-major order, fails with `dot`'s error once every pair of the rows before its
/// row has been emitted.
#[inline]
pub fn score_block<'r, 'q, Q>(
    rows: impl IntoIterator<Item = (usize, &'r DenseVector)>,
    queries: Q,
    mut emit: impl FnMut(usize, usize, f64),
) -> Result<()>
where
    Q: IntoIterator<Item = &'q DenseVector> + Clone,
{
    // One pass over the queries: the first, and the first of another dimension. A row
    // of the first's dimension first meets a query of another at `ragged`; a row of any
    // other dimension, at the first query.
    let mut all = queries.clone().into_iter();
    let head = all.next();
    let ragged = head.and_then(|head| all.find(|q| q.dim() != head.dim()));
    let mut rows = rows.into_iter().fuse();
    while let Some(first) = rows.next() {
        // Up to LANES rows, each checked against the queries first; the slots a short
        // group leaves are padded with its first row, and their scores go unread.
        let mut group = [first; LANES];
        let (mut filled, mut mismatch) = (0, None);
        for (slot, (i, p)) in group
            .iter_mut()
            .zip(std::iter::once(first).chain(rows.by_ref()))
        {
            let q = match head {
                Some(head) if head.dim() != p.dim() => Some(head),
                _ => ragged,
            };
            if let Some(q) = q {
                mismatch = p.dot(q).err();
                break;
            }
            *slot = (i, p);
            filled += 1;
        }
        if filled > 0 {
            score_group(&group, filled, queries.clone(), &mut emit);
        }
        if let Some(error) = mismatch {
            return Err(error);
        }
    }
    Ok(())
}

/// [`score_block`] for one group of [`LANES`] rows of one dimension, the first
/// `filled` of them real, against every query (all of that dimension too).
#[inline(always)]
fn score_group<'q>(
    group: &[(usize, &DenseVector); LANES],
    filled: usize,
    queries: impl IntoIterator<Item = &'q DenseVector>,
    emit: &mut impl FnMut(usize, usize, f64),
) {
    let mut queries = queries.into_iter();
    let mut base = 0;
    loop {
        let mut points: [&[f64]; POINTS] = [&[]; POINTS];
        let mut count = 0;
        for (slot, q) in points.iter_mut().zip(queries.by_ref()) {
            *slot = q.as_slice();
            count += 1;
        }
        // One instantiation per tile width: a short tile padded to four queries
        // scored a single query at half the speed.
        match count {
            0 => return,
            1 => score_tile::<1>(group, filled, &points, base, emit),
            2 => score_tile::<2>(group, filled, &points, base, emit),
            3 => score_tile::<3>(group, filled, &points, base, emit),
            _ => score_tile::<POINTS>(group, filled, &points, base, emit),
        }
        base += count;
    }
}

/// One register tile of [`score_group`]: its rows against `P` queries from position
/// `base` on, emitted data-major.
#[inline(always)]
fn score_tile<const P: usize>(
    group: &[(usize, &DenseVector); LANES],
    filled: usize,
    points: &[&[f64]; POINTS],
    base: usize,
    emit: &mut impl FnMut(usize, usize, f64),
) {
    let points: [&[f64]; P] = std::array::from_fn(|p| points[p]);
    let len = points[0].len();
    let rows = group.map(|(_, row)| &row.as_slice()[..len]);
    let sums = tile((0..len).map(|j| rows.map(|row| row[j])), points);
    for (f, &(i, _)) in group.iter().enumerate().take(filled) {
        for (p, sums) in sums.iter().enumerate() {
            emit(i, base + p, sums[f]);
        }
    }
}

/// Inner product of two equal-length `f32` slices with eight
/// independent accumulators (chunked so LLVM autovectorizes the main loop).
///
/// Lengths are only checked under `debug_assertions`.
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot_f32 requires equal lengths");
    let main = a.len() - a.len() % F32_LANES;
    let mut acc = [0.0f32; F32_LANES];
    for (ca, cb) in a[..main]
        .chunks_exact(F32_LANES)
        .zip(b[..main].chunks_exact(F32_LANES))
    {
        for lane in 0..F32_LANES {
            acc[lane] += ca[lane] * cb[lane];
        }
    }
    let mut sum = acc.iter().sum::<f32>();
    for (x, y) in a[main..].iter().zip(b[main..].iter()) {
        sum += x * y;
    }
    sum
}

/// A contiguous row-major `f32` tile over a collection of equal-dimension vectors:
/// one row per vector, stored back-to-back so the scan over rows is one linear pass
/// over memory.
#[derive(Debug, Clone, PartialEq)]
pub struct FloatTile {
    rows: usize,
    dim: usize,
    data: Vec<f32>,
}

impl FloatTile {
    /// Builds the tile by narrowing each vector's components to `f32`.
    ///
    /// An empty collection produces an empty tile of dimension 0; mixed
    /// dimensions are rejected.
    pub fn from_vectors(vectors: &[DenseVector]) -> Result<Self> {
        let dim = vectors.first().map_or(0, DenseVector::dim);
        let mut data = Vec::with_capacity(vectors.len() * dim);
        for v in vectors {
            if v.dim() != dim {
                return Err(LinalgError::DimensionMismatch {
                    left: dim,
                    right: v.dim(),
                    op: "FloatTile::from_vectors",
                });
            }
            data.extend(v.iter().map(|&x| x as f32));
        }
        Ok(Self {
            rows: vectors.len(),
            dim,
            data,
        })
    }

    /// Shared dimension of every row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Iterator over rows as slices (one linear memory pass).
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> + '_ {
        self.data.chunks_exact(self.dim.max(1)).take(self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dv(xs: &[f64]) -> DenseVector {
        DenseVector::from(xs)
    }

    #[test]
    fn dot_slices_matches_checked_dot_bitwise() {
        let a = dv(&[0.1, -0.7, 0.33, 1e-9, 123.456, -2.5, 0.0, 7.7, 1.25]);
        let b = dv(&[-3.3, 0.2, 1.5, 2e9, -0.001, 4.25, 9.0, -1.1, 0.5]);
        let checked = a.dot(&b).unwrap();
        let fast = dot_slices(a.as_slice(), b.as_slice());
        assert_eq!(checked.to_bits(), fast.to_bits());
    }

    #[test]
    fn score_block_is_data_major_with_dot_bits_and_fails_at_the_first_mismatch() {
        let rows = [dv(&[0.1, -0.7, 0.33]), dv(&[1e-9, 123.456, -2.5])];
        let queries = [dv(&[-3.3, 0.2, 1.5]), dv(&[2e9, -0.001, 4.25])];
        let mut seen = Vec::new();
        score_block([(7, &rows[0]), (3, &rows[1])], &queries, |i, j, s| {
            seen.push((i, j, s.to_bits()))
        })
        .unwrap();
        let expected: Vec<_> = [(7, 0), (3, 1)]
            .iter()
            .flat_map(|&(i, r)| (0..2).map(move |j| (i, j, r)))
            .map(|(i, j, r)| (i, j, rows[r].dot(&queries[j]).unwrap().to_bits()))
            .collect();
        assert_eq!(seen, expected);
        // The pairs before the mismatch are emitted, then `dot`'s error.
        let ragged = [dv(&[1.0, 0.0, 0.0]), dv(&[1.0])];
        let mut emitted = 0;
        let err = score_block(ragged.iter().enumerate(), &queries, |_, _, _| emitted += 1);
        assert_eq!(err, Err(ragged[1].dot(&queries[0]).unwrap_err()));
        assert_eq!(emitted, 2);
    }

    #[test]
    fn a_mismatched_query_mid_batch_or_row_in_the_last_group_fails_at_the_first_pair() {
        // Nine rows: groups of four, four and one. The first pair in data-major order
        // whose dimensions differ names the error, as `dot` gives it, after every pair
        // of the rows before its row.
        let row = |k: usize, dim: usize| dv(&vec![k as f64 + 0.5; dim]);
        let query = |j: usize, dim: usize| dv(&vec![1.0 - j as f64; dim]);
        let expect = |rows: &[DenseVector], queries: &[DenseVector]| {
            let at = rows.iter().enumerate().find_map(|(k, p)| {
                let q = queries.iter().find(|q| q.dim() != p.dim())?;
                Some((k, p.dot(q).unwrap_err()))
            });
            at.map_or((rows.len() * queries.len(), Ok(())), |(k, e)| {
                (k * queries.len(), Err(e))
            })
        };
        let square = |n| (0..n).map(|k| row(k, 3)).collect::<Vec<_>>();
        let batch = |dims: &[usize]| {
            dims.iter()
                .enumerate()
                .map(|(j, &d)| query(j, d))
                .collect::<Vec<_>>()
        };
        let mut last_group = square(9);
        last_group[8] = row(8, 2);
        let cases = [
            (square(9), batch(&[3, 3, 2, 3, 5])),
            (square(9), batch(&[2, 3, 3])),
            (last_group.clone(), batch(&[3, 3, 3])),
            (last_group, batch(&[3, 2, 3])),
            (square(9), batch(&[3, 3, 3])),
        ];
        for (rows, queries) in cases {
            let mut emitted = 0;
            let result = score_block(rows.iter().enumerate(), &queries, |_, _, _| emitted += 1);
            assert_eq!((emitted, result), expect(&rows, &queries));
        }
    }

    #[test]
    fn block_products_have_dot_bits_through_the_tile_and_the_stream() {
        // Cancellation values make a sum's bits depend on its order; a point of `-0.0`s
        // against non-negative planes sums nothing but `-0.0`, so the start value shows.
        let values: [f64; 8] = [1e16, -1e16, -1.0, 0.0, -0.0, 0.5, 3.0, 1.0];
        let mut state = 7usize;
        let mut next = || {
            state = (state * 37 + 11) % 101;
            values[state % values.len()]
        };
        let rows = 5;
        for width in 1..=9 {
            let planes: Vec<DenseVector> = (0..width)
                .map(|f| match f {
                    0 => DenseVector::new((0..rows).map(|_| next().abs()).collect()),
                    _ => DenseVector::new((0..rows).map(|_| next()).collect()),
                })
                .collect();
            let block: Vec<f64> = (0..rows)
                .flat_map(|j| planes.iter().map(move |g| g[j]))
                .collect();
            // One to five points, of the block's height and shorter.
            for (count, len) in (1..=POINTS + 1).flat_map(|c| [(c, rows), (c, rows - 2)]) {
                let points: Vec<DenseVector> = (0..count)
                    .map(|p| match p {
                        0 => DenseVector::new(vec![-0.0; len]),
                        _ => DenseVector::new((0..len).map(|_| next()).collect()),
                    })
                    .collect();
                let slices: Vec<&[f64]> = points.iter().map(DenseVector::as_slice).collect();
                let mut out = vec![f64::NAN; count * width];
                block_products(&block, width, &slices, &mut out);
                for (p, x) in points.iter().enumerate() {
                    for (f, g) in planes.iter().enumerate() {
                        let g = DenseVector::from(&g.as_slice()[..len]);
                        let expected = g.dot(x).unwrap();
                        assert_eq!(out[p * width + f].to_bits(), expected.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn axpy_slices_matches_checked_axpy() {
        let mut y = dv(&[1.0, 2.0, 3.0]);
        let x = dv(&[0.5, -0.25, 4.0]);
        let mut y_fast = y.clone();
        y.axpy(1.5, &x).unwrap();
        axpy_slices(y_fast.as_mut_slice(), 1.5, x.as_slice());
        for (a, b) in y.iter().zip(y_fast.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn the_start_value_is_what_an_empty_sum_gives() {
        assert_eq!(
            EMPTY_SUM.to_bits(),
            std::iter::empty::<f64>().sum::<f64>().to_bits()
        );
    }

    #[test]
    fn f32_kernels_approximate_f64() {
        let a = dv(&(0..37).map(|i| (i as f64 * 0.37).sin()).collect::<Vec<_>>());
        let b = dv(&(0..37).map(|i| (i as f64 * 0.11).cos()).collect::<Vec<_>>());
        let exact = a.dot(&b).unwrap();
        let tile = FloatTile::from_vectors(&[a, b]).unwrap();
        let rows: Vec<&[f32]> = tile.iter_rows().collect();
        let approx = dot_f32(rows[0], rows[1]) as f64;
        assert!((exact - approx).abs() < 1e-4, "{exact} vs {approx}");
    }

    #[test]
    fn float_tile_layout_and_views() {
        let vs = vec![dv(&[1.0, 2.0]), dv(&[3.0, 4.0]), dv(&[5.0, 6.0])];
        let tile = FloatTile::from_vectors(&vs).unwrap();
        assert_eq!(tile.dim(), 2);
        let rows: Vec<&[f32]> = tile.iter_rows().collect();
        assert_eq!(rows, [&[1.0f32, 2.0][..], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(dot_f32(rows[0], &[1.0, 1.0]), 3.0);
        // Mixed dimensions are rejected; empty input is an empty tile.
        assert!(FloatTile::from_vectors(&[dv(&[1.0]), dv(&[1.0, 2.0])]).is_err());
        assert_eq!(FloatTile::from_vectors(&[]).unwrap().iter_rows().count(), 0);
    }
}
