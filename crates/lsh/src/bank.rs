//! The plane bank — one hashing kernel for hyperplane families.
//!
//! Both production families hash by the signs of Gaussian hyperplanes applied to an
//! embedded vector: SIMPLE-ALSH embeds through the Section 4.1 [`SphereTransform`],
//! the symmetric hyperplane family through the identity. An index of `L` tables of
//! `k` components of `bits` planes therefore evaluates `L·k·bits` inner products per
//! vector, all against the *same* embedded vector. A [`PlaneBank`] stores every
//! normal once, **coordinate-major** — row `j` holds coordinate `j` of all planes,
//! plane `f = (table·k + component)·bits + bit` — so hashing is
//!
//! 1. embed the vector once into a reused buffer;
//! 2. one margin `⟨g_f, x⟩` per plane, the dense product of the bank with the
//!    embedded vector — [`ips_linalg::tile`]'s kernel ("the block kernel" below);
//! 3. one bucket key per table: the **sign word** of its `k·bits` planes, plane `f` of
//!    the table (`f = component·bits + bit`) at bit `f`, set when its margin is
//!    non-negative — so a table holds at most 64 planes.
//!
//! A key is what [`HyperplaneFunction`] hashes to over the table's planes in order,
//! and a probe is the home word with a mask of bits flipped (see [`crate::probe`]).
//! The top `j` bits of a key — the table's last `j` planes — are the key of a table of
//! those planes alone, and one contiguous range of the sorted keys.
//!
//! **Bit-identity with the per-function path.** Plane `f`'s margin sums `g_f[j]·x[j]`
//! over `j` in ascending order from the kernel's one start value, exactly as
//! [`DenseVector::dot`] does, so it is the `f64` the per-function walk
//! ([`HyperplaneFunction`] over the embedded vector) computes — up to the sign of an
//! exact zero where a sparse image's zero is skipped (below), which neither the sign
//! test `margin >= 0.0` nor the probe cost `margin²` can see.
//!
//! **Sparse images.** The Section 4.2 map sends a `d`-dimensional vector to one of
//! thousands of coordinates with `d` + a few dozen non-zeros: the vector itself, then
//! a one-hot-per-block Reed–Solomon tag. A [`SparseImage`] names exactly those — the
//! dense head as a slice, the tag as ascending `(row, value)` pairs — and the kernel
//! walks `d + t` rows of the bank instead of all of them. The margins are the ones the
//! materialised image would give: the products added are the same `g_f[j]·x[j]`, in the
//! same ascending-`j` order, and the rows never visited hold zeros, whose products
//! would change no margin but for the sign of a zero. No dense image is ever built.
//!
//! **The block kernel.** The margins are [`ips_linalg::tile::block_products`] of the
//! coordinate-major bank with the heads: a build hands it a full tile of points, which
//! it takes through the register tile — four points by four planes, sixteen sums held
//! in registers across the walk over `j`, so a coefficient is loaded once per four
//! points and a margin written once — and every other call (the last points of a
//! block, and every single-vector operation: `insert`, `remove`, the lookups) streams
//! the bank front to back, row by row, which is what a prefetcher follows when the bank
//! has left the cache since the last request. Both add each sum's products in ascending
//! `j` from one start value, so a block's keys are each point's own
//! [`PlaneBank::keys`], bit for bit. A sparse image's tail rows, which differ from point
//! to point, are streamed into its margins afterwards, in order; a zero among them is
//! skipped — every coefficient is finite (checked at construction), so its products are
//! `±0.0` and adding them would change no margin but for the sign of a zero.
//!
//! **One form of the planes.** The bank is the only place an index holds its planes:
//! [`PlaneBank::new`] fills each plane's column straight from its source — an index's
//! RNG, in the order the per-function sampler draws them, or a snapshot's plane
//! section — and [`PlaneBank::plane`] reads a plane back for the snapshot writer.

use crate::error::{LshError, Result};
#[cfg(doc)]
use crate::hyperplane::HyperplaneFunction;
use crate::probe::{sign_bucket, sign_probes};
use crate::simple_alsh::SphereTransform;
use ips_linalg::tile::{axpy_slices, block_products, POINTS};
use ips_linalg::DenseVector;

/// The map applied to a vector before the hyperplanes see it.
#[derive(Debug, Clone, PartialEq)]
pub enum Embedding {
    /// No map: the planes live in the input space (symmetric hyperplane family).
    Identity,
    /// The asymmetric ball-to-sphere map of Section 4.1 (SIMPLE-ALSH).
    Sphere(SphereTransform),
}

/// Which half of an asymmetric pair `(h_p, h_q)` to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// `h_p`, applied to data vectors.
    Data,
    /// `h_q`, applied to query vectors.
    Query,
}

/// A vector given by its non-zero structure: `head` holds coordinates `0..head.len()`
/// as they are, `tail` the non-zero coordinates after them as `(row, value)` pairs in
/// ascending row order, and every other coordinate up to `dim` is zero.
#[derive(Debug, Clone, Copy)]
pub struct SparseImage<'a> {
    /// Dimension of the vector the image stands for.
    pub dim: usize,
    /// Its leading coordinates, dense.
    pub head: &'a [f64],
    /// Its remaining non-zeros, `head.len() ≤ row < dim`, rows ascending.
    pub tail: &'a [(usize, f64)],
}

/// What the kernel hashes: a dense vector, or one given by its non-zeros.
#[derive(Debug, Clone, Copy)]
pub enum Point<'a> {
    /// Every coordinate, as stored.
    Dense(&'a DenseVector),
    /// See [`SparseImage`]; only a bank without an embedding hashes one.
    Sparse(SparseImage<'a>),
}

impl<'a> From<&'a DenseVector> for Point<'a> {
    fn from(v: &'a DenseVector) -> Self {
        Self::Dense(v)
    }
}

impl<'a> From<SparseImage<'a>> for Point<'a> {
    fn from(image: SparseImage<'a>) -> Self {
        Self::Sparse(image)
    }
}

/// Reusable buffers of the hashing kernel: the embedded vectors of one tile of points
/// and their margins, one per point and plane. One scratch serves any number of
/// vectors hashed against the same bank.
#[derive(Debug, Clone, Default)]
pub struct BankScratch {
    embedded: [Vec<f64>; POINTS],
    /// `POINTS × width`, point-major.
    margins: Vec<f64>,
}

/// A point as the kernel walks it: its leading coordinates, dense, then the
/// non-zeros after them as ascending `(row, value)` pairs.
type Walk<'a> = (&'a [f64], &'a [(usize, f64)]);

fn invalid(reason: String) -> LshError {
    LshError::InvalidParameter {
        name: "planes",
        reason,
    }
}

/// How many planes a [`PlaneBank`] holds, and of which dimension: `tables` composites
/// of `components` functions of `bits` planes each, every plane `rows` coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankShape {
    /// Composites, one per table: `L`.
    pub tables: usize,
    /// Functions a composite concatenates: `k`.
    pub components: usize,
    /// Planes per function, one sign bit each.
    pub bits: usize,
    /// Dimension of every plane: the embedding's output dimension.
    pub rows: usize,
}

/// All hyperplanes of an `L`-table index, coordinate-major (see the module docs).
#[derive(Debug, Clone)]
pub struct PlaneBank {
    embedding: Embedding,
    shape: BankShape,
    /// `rows × width` coefficients, `width = tables · components · bits`.
    coefficients: Vec<f64>,
}

impl PlaneBank {
    /// The bank of `shape`'s planes under `embedding`, each written by `fill` in plane
    /// order — table, component, plane — which is the order an index draws its planes
    /// in and a snapshot stores them in. `fill((table, component, plane), coefficients)`
    /// appends the plane's `rows` coefficients, coordinate by coordinate, to the empty
    /// `coefficients`; the bank files them in the plane's column.
    ///
    /// Everything the kernel indexes by is checked, so a bank from a hostile snapshot
    /// fails here instead of per query. Before the bank is allocated: at least one
    /// table and one component, `1..=64` planes a table (its key is a `u64` of sign
    /// bits: `components · bits ≤ 64`), `rows` equal to the embedding's output
    /// dimension, and a size within
    /// the address space. Then every coefficient must be finite (skipping a sparse
    /// image's zeros relies on it). Violations are [`LshError::InvalidParameter`]; an
    /// error of `fill`'s is returned as it is.
    ///
    /// # Panics
    ///
    /// If `fill` appends other than `rows` coefficients.
    pub fn new<E: From<LshError>>(
        embedding: Embedding,
        shape: BankShape,
        mut fill: impl FnMut((usize, usize, usize), &mut Vec<f64>) -> std::result::Result<(), E>,
    ) -> std::result::Result<Self, E> {
        let BankShape {
            tables,
            components,
            bits,
            rows,
        } = shape;
        if tables == 0 || components == 0 {
            return Err(invalid(format!(
                "a plane bank needs at least one table and one component, got {tables} and {components}"
            ))
            .into());
        }
        let planes = components.saturating_mul(bits);
        if !(1..=64).contains(&planes) {
            return Err(invalid(format!(
                "a table's key is a 64-bit sign word: {components} components of {bits} planes do not fit it"
            ))
            .into());
        }
        if let Embedding::Sphere(transform) = &embedding {
            if transform.dim().checked_add(2) != Some(rows) {
                return Err(invalid(format!(
                    "planes of dimension {rows} under a sphere transform of input dimension {}",
                    transform.dim()
                ))
                .into());
            }
        }
        let size = [components, bits, rows]
            .into_iter()
            .try_fold(tables, usize::checked_mul)
            .ok_or_else(|| invalid(format!("{shape:?} overflows the address space")))?;
        let mut bank = Self {
            embedding,
            shape,
            coefficients: vec![0.0; size],
        };
        let width = bank.width();
        let mut plane = Vec::with_capacity(rows);
        let at = |f: usize| (f / (components * bits), f / bits % components, f % bits);
        for f in 0..width {
            plane.clear();
            fill(at(f), &mut plane)?;
            assert_eq!(plane.len(), rows, "a plane has one coefficient a row");
            if !plane.iter().all(|g| g.is_finite()) {
                let (t, c, b) = at(f);
                return Err(invalid(format!(
                    "table {t} component {c} plane {b} has a non-finite coefficient"
                ))
                .into());
            }
            for (j, &g) in plane.iter().enumerate() {
                bank.coefficients[j * width + f] = g;
            }
        }
        Ok(bank)
    }

    /// The map the planes are applied after.
    pub fn embedding(&self) -> &Embedding {
        &self.embedding
    }

    /// How many planes the bank holds, and of which dimension.
    pub fn shape(&self) -> BankShape {
        self.shape
    }

    /// Plane `f = (table·k + component)·bits + plane`'s coefficients, coordinate by
    /// coordinate: what [`PlaneBank::new`]'s `fill` appended for it.
    ///
    /// # Panics
    ///
    /// If `f` is not below `tables · components · bits`.
    pub fn plane(&self, f: usize) -> impl Iterator<Item = f64> + '_ {
        let width = self.width();
        assert!(f < width, "plane {f} of a bank of {width}");
        self.coefficients.iter().skip(f).step_by(width).copied()
    }

    fn width(&self) -> usize {
        self.shape.tables * self.shape.components * self.shape.bits
    }

    /// A scratch at the size this bank's kernel uses, so that hashing through it
    /// allocates nothing — what a worker is handed by the thread that owns it.
    pub fn scratch(&self) -> BankScratch {
        let embedded = match self.embedding {
            Embedding::Identity => 0,
            Embedding::Sphere(_) => self.shape.rows,
        };
        BankScratch {
            embedded: std::array::from_fn(|_| Vec::with_capacity(embedded)),
            margins: vec![0.0; POINTS * self.width()],
        }
    }

    /// What the kernel walks for `point`: the vector itself, or its embedding written
    /// into `buffer`. Every row the walk will index is checked here, before any
    /// coefficient is read.
    fn walk<'a>(&self, side: Side, point: Point<'a>, buffer: &'a mut Vec<f64>) -> Result<Walk<'a>> {
        let mismatch = |actual: usize| LshError::DimensionMismatch {
            expected: self.shape.rows,
            actual,
        };
        match (point, &self.embedding) {
            (Point::Dense(v), Embedding::Identity) => {
                if v.dim() != self.shape.rows {
                    return Err(mismatch(v.dim()));
                }
                Ok((v.as_slice(), &[]))
            }
            (Point::Dense(v), Embedding::Sphere(transform)) => {
                match side {
                    Side::Data => transform.transform_data_into(v, buffer)?,
                    Side::Query => transform.transform_query_into(v, buffer)?,
                }
                Ok((buffer, &[]))
            }
            (Point::Sparse(image), Embedding::Identity) => {
                if image.dim != self.shape.rows || image.head.len() > self.shape.rows {
                    return Err(mismatch(image.dim.max(image.head.len())));
                }
                let mut floor = image.head.len();
                for &(j, _) in image.tail {
                    if j < floor || j >= self.shape.rows {
                        return Err(LshError::InvalidParameter {
                            name: "image",
                            reason: format!(
                                "tail row {j} is not ascending within {floor}..{}",
                                self.shape.rows
                            ),
                        });
                    }
                    floor = j + 1;
                }
                Ok((image.head, image.tail))
            }
            (Point::Sparse(_), Embedding::Sphere(_)) => Err(LshError::InvalidParameter {
                name: "image",
                reason: "a sparse image is already embedded; this bank embeds its input".into(),
            }),
        }
    }

    /// One margin per plane and point of `tile` into `margins` (`tile.len() × width`,
    /// point-major). Each is `Σ_j g_f[j]·x[j]` over ascending `j` — the heads' rows are
    /// the bank's first, in order, and the tails' were checked to follow them. The heads
    /// go through [`block_products`] (the register tile for a full tile, the row stream
    /// otherwise); each tail row is then streamed into its point's margins, in order.
    fn tile_margins(&self, tile: &[Walk<'_>], margins: &mut [f64]) {
        let width = self.width();
        let mut heads: [&[f64]; POINTS] = [&[]; POINTS];
        for (head, &(walk, _)) in heads.iter_mut().zip(tile) {
            *head = walk;
        }
        block_products(&self.coefficients, width, &heads[..tile.len()], margins);
        for (&(_, tail), margins) in tile.iter().zip(margins.chunks_exact_mut(width)) {
            // A zero is skipped: every coefficient is finite, so its products are
            // `±0.0` and adding them would change no sum but for the sign of a zero
            // (a unit vector's whole tag is zeros).
            for &(j, xj) in tail.iter().filter(|&&(_, xj)| xj != 0.0) {
                axpy_slices(margins, xj, &self.coefficients[j * width..(j + 1) * width]);
            }
        }
    }

    /// One point's margins, table by table.
    fn per_table<'m>(&self, margins: &'m [f64]) -> std::slice::ChunksExact<'m, f64> {
        margins.chunks_exact(self.shape.components * self.shape.bits)
    }

    /// The `L` bucket keys of `v`, one per table, into `keys` (cleared first).
    ///
    /// Fails exactly as the per-function path does — a wrong dimension is a
    /// [`LshError::DimensionMismatch`], a vector outside the embedding's ball a
    /// [`LshError::DomainViolation`] — and before any key is produced.
    pub fn keys<'a>(
        &self,
        side: Side,
        v: impl Into<Point<'a>>,
        scratch: &mut BankScratch,
        keys: &mut Vec<u64>,
    ) -> Result<()> {
        keys.clear();
        keys.resize(self.shape.tables, 0);
        self.block_keys(side, [v.into()], scratch, keys)
    }

    /// The bucket keys of every point of a block, point-major: point `i`'s `L` keys
    /// are `keys[i·L..(i+1)·L]`, each equal to what [`PlaneBank::keys`] gives for that
    /// point alone. `keys` must hold exactly `L` slots per point.
    ///
    /// The points are hashed a register tile at a time (see the module docs). The
    /// first point the embedding refuses fails the block with the error
    /// [`PlaneBank::keys`] would give for it; what `keys` holds is then unspecified.
    pub fn block_keys<'a>(
        &self,
        side: Side,
        points: impl IntoIterator<Item = Point<'a>>,
        scratch: &mut BankScratch,
        keys: &mut [u64],
    ) -> Result<()> {
        let width = self.width();
        let BankScratch { embedded, margins } = scratch;
        margins.resize(POINTS * width, 0.0);
        let mut points = points.into_iter();
        let mut keys = keys.chunks_exact_mut(self.shape.tables);
        loop {
            let mut tile: [Walk<'_>; POINTS] = [(&[], &[]); POINTS];
            let mut filled = 0;
            for (slot, (buffer, point)) in tile.iter_mut().zip(embedded.iter_mut().zip(&mut points))
            {
                *slot = self.walk(side, point, buffer)?;
                filled += 1;
            }
            if filled == 0 {
                break;
            }
            self.tile_margins(&tile[..filled], margins);
            for margins in margins.chunks_exact(width).take(filled) {
                let keys = keys
                    .next()
                    .ok_or_else(|| miscounted_keys(self.shape.tables))?;
                for (key, table) in keys.iter_mut().zip(self.per_table(margins)) {
                    *key = sign_bucket(table);
                }
            }
        }
        match keys.next() {
            None if keys.into_remainder().is_empty() => Ok(()),
            _ => Err(miscounted_keys(self.shape.tables)),
        }
    }

    /// Per table, the query's home bucket followed by up to `extra` perturbed buckets
    /// in increasing cost order — the sequence [`HyperplaneFunction::probe_query`]
    /// enumerates over the table's planes, from the same margins.
    pub fn probe_keys<'a>(
        &self,
        q: impl Into<Point<'a>>,
        extra: usize,
        scratch: &mut BankScratch,
    ) -> Result<Vec<Vec<u64>>> {
        let width = self.width();
        let BankScratch { embedded, margins } = scratch;
        margins.resize(POINTS * width, 0.0);
        let walk = self.walk(Side::Query, q.into(), &mut embedded[0])?;
        self.tile_margins(&[walk], margins);
        Ok(self
            .per_table(&margins[..width])
            .map(|table| sign_probes(table, extra))
            .collect())
    }
}

/// What [`PlaneBank::block_keys`] answers to a key buffer of the wrong length.
fn miscounted_keys(tables: usize) -> LshError {
    LshError::InvalidParameter {
        name: "keys",
        reason: format!("a block takes exactly {tables} key slots per point"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyperplane::HyperplaneFunction;
    use crate::traits::HashFunction;

    /// The bank of one-plane components, `tables[t][c]` the plane of table `t`'s
    /// component `c`.
    fn bank_of(tables: &[&[&[f64]]]) -> Result<PlaneBank> {
        let shape = BankShape {
            tables: tables.len(),
            components: tables.first().map_or(0, |planes| planes.len()),
            bits: 1,
            rows: tables
                .first()
                .and_then(|planes| planes.first())
                .map_or(0, |g| g.len()),
        };
        PlaneBank::new(Embedding::Identity, shape, |(t, c, _), plane| {
            plane.extend_from_slice(tables[t][c]);
            Ok::<_, LshError>(())
        })
    }

    /// The per-function walk over the same planes: one hyperplane function of a table's
    /// planes, in order, hashes `v` to the table's key.
    fn oracle_keys(tables: &[&[&[f64]]], v: &DenseVector) -> Vec<u64> {
        let key = |planes: &[&[f64]]| {
            let planes = planes.iter().map(|&g| DenseVector::from(g)).collect();
            HyperplaneFunction::from_planes(planes)
                .unwrap()
                .hash(v)
                .unwrap()
        };
        tables.iter().map(|planes| key(planes)).collect()
    }

    #[test]
    fn a_table_key_is_its_sign_word_and_tells_every_sign_pattern_apart() {
        // Five components of three axis planes: plane `f` is coordinate `f`, so a
        // vector of ±1 coordinates lands in the word whose bit `f` is its sign `f`.
        let shape = BankShape {
            tables: 1,
            components: 5,
            bits: 3,
            rows: 15,
        };
        let bank = PlaneBank::new(Embedding::Identity, shape, |(_, c, b), plane| {
            plane.extend((0..15).map(|j| f64::from(u8::from(j == c * 3 + b))));
            Ok::<_, LshError>(())
        })
        .unwrap();
        let signs = |word: u64| {
            let v = (0..15).map(|f| if word >> f & 1 == 1 { 1.0 } else { -1.0 });
            DenseVector::new(v.collect())
        };
        let (mut scratch, mut keys) = (BankScratch::default(), Vec::new());
        let mut key = |word: u64| {
            bank.keys(Side::Data, &signs(word), &mut scratch, &mut keys)
                .unwrap();
            keys[0]
        };
        // Two patterns a hash-combine chain of the components' 3-bit values merged into
        // one bucket fall in two.
        assert_ne!(key(10_624), key(16_704));
        for word in [10_624, 16_704, 0, (1 << 15) - 1] {
            assert_eq!(key(word), word);
        }
    }

    #[test]
    fn margins_sum_in_coordinate_order_like_a_dense_dot() {
        // Catastrophic cancellation makes the sign depend on the summation order:
        // left to right the first plane sums to -1, right to left to 0.
        let tables: [&[&[f64]]; 2] = [
            &[&[1e16, -1e16, -1.0], &[-1.0, 1e16, -1e16]],
            &[&[1e16, 1.0, -1e16], &[3.0, -2.0, -1.0]],
        ];
        let bank = bank_of(&tables).unwrap();
        let (mut scratch, mut keys) = (BankScratch::default(), Vec::new());
        let vectors = [
            [1.0, 1.0, 1.0],
            [1.0, 0.0, 1.0],
            [-0.0, 1.0, 1.0],
            [-0.0; 3],
        ];
        for v in vectors {
            let v = DenseVector::from(&v[..]);
            bank.keys(Side::Query, &v, &mut scratch, &mut keys).unwrap();
            assert_eq!(keys, oracle_keys(&tables, &v), "v = {v:?}");
        }
        // The same vectors, and zero vectors, four at a time: the register tile.
        let zeros = [[0.0; 3], [-0.0; 3], [0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]];
        for block in [vectors, zeros] {
            let block = block.map(|v| DenseVector::from(&v[..]));
            let mut keys = vec![0; block.len() * tables.len()];
            let points = block.iter().map(Point::from);
            bank.block_keys(Side::Query, points, &mut scratch, &mut keys)
                .unwrap();
            let expected: Vec<u64> = block.iter().flat_map(|v| oracle_keys(&tables, v)).collect();
            assert_eq!(keys, expected, "block = {block:?}");
        }
    }

    #[test]
    fn a_sparse_image_hashes_like_the_dense_vector_it_stands_for() {
        // The cancellation planes again, two coordinates wider: the sign depends on
        // the order the products are added in, so the sparse walk must keep it.
        let tables: [&[&[f64]]; 2] = [
            &[
                &[1e16, 0.5, -1e16, 7.0, -1.0],
                &[-1.0, 2.0, 1e16, 3.0, -1e16],
            ],
            &[&[1e16, 4.0, 1.0, -5.0, -1e16], &[3.0, 1.0, -2.0, 6.0, -1.0]],
        ];
        let bank = bank_of(&tables).unwrap();
        let (mut scratch, mut dense, mut sparse) = (BankScratch::default(), vec![], vec![]);
        for (head, tail) in [
            (&[1.0][..], &[(2, 1.0), (4, 1.0)][..]),
            (&[1.0, 0.0], &[(2, 1.0), (4, 1.0)]),
            (&[-0.0, 1.0, 1.0], &[(4, 1.0)]),
            (&[1.0, 1.0], &[(2, 0.0), (4, 0.0)]),
            (&[], &[(0, 1.0), (2, 1.0), (4, 1.0)]),
            (&[1.0, 2.0, 3.0, 4.0, 5.0], &[]),
        ] {
            let mut full = vec![0.0; 5];
            full[..head.len()].copy_from_slice(head);
            for &(j, x) in tail {
                full[j] = x;
            }
            let v = DenseVector::new(full);
            let image = SparseImage { dim: 5, head, tail };
            bank.keys(Side::Data, &v, &mut scratch, &mut dense).unwrap();
            bank.keys(Side::Data, image, &mut scratch, &mut sparse)
                .unwrap();
            assert_eq!(dense, sparse, "v = {v:?}");
            assert_eq!(
                bank.probe_keys(&v, 3, &mut scratch).unwrap(),
                bank.probe_keys(image, 3, &mut scratch).unwrap()
            );
        }
        // Rows out of order, out of range or inside the head, and a wrong dimension,
        // are refused before a coefficient is read.
        let head = &[1.0, 1.0][..];
        for (dim, tail) in [
            (5, &[(4, 1.0), (2, 1.0)][..]),
            (5, &[(2, 1.0), (2, 1.0)]),
            (5, &[(1, 1.0)]),
            (5, &[(5, 1.0)]),
            (4, &[(3, 1.0)]),
            (6, &[(3, 1.0)]),
        ] {
            let image = SparseImage { dim, head, tail };
            assert!(bank
                .keys(Side::Data, image, &mut scratch, &mut sparse)
                .is_err());
        }
        let long = SparseImage {
            dim: 5,
            head: &[0.0; 6],
            tail: &[],
        };
        assert!(bank
            .keys(Side::Data, long, &mut scratch, &mut sparse)
            .is_err());
    }

    #[test]
    fn planes_are_filled_and_read_back_in_table_component_plane_order() {
        let shape = BankShape {
            tables: 2,
            components: 3,
            bits: 2,
            rows: 4,
        };
        let mut order = Vec::new();
        let bank = PlaneBank::new(Embedding::Identity, shape, |at, plane| {
            let f = order.len() as f64;
            order.push(at);
            plane.extend((0..4).map(|j| 10.0 * f + j as f64));
            Ok::<_, LshError>(())
        })
        .unwrap();
        let nested = (0..2).flat_map(|t| (0..3).flat_map(move |c| (0..2).map(move |b| (t, c, b))));
        assert_eq!(order, nested.collect::<Vec<_>>());
        assert_eq!(bank.shape(), shape);
        for f in 0..12 {
            let expected: Vec<f64> = (0..4).map(|j| 10.0 * f as f64 + j as f64).collect();
            assert_eq!(bank.plane(f).collect::<Vec<_>>(), expected);
        }
    }

    #[test]
    fn inconsistent_functions_are_rejected_before_any_allocation_is_sized() {
        let shape = BankShape {
            tables: 2,
            components: 2,
            bits: 1,
            rows: 4,
        };
        let sphere = Embedding::Sphere(SphereTransform::new(2, 1.0).unwrap());
        let refused = |embedding: &Embedding, shape: BankShape| {
            let never = |_, _: &mut Vec<f64>| -> Result<()> { panic!("filled") };
            PlaneBank::new(embedding.clone(), shape, never).is_err()
        };
        assert!(refused(
            &Embedding::Identity,
            BankShape { tables: 0, ..shape }
        ));
        assert!(refused(
            &Embedding::Identity,
            BankShape {
                components: 0,
                ..shape
            }
        ));
        assert!(refused(
            &Embedding::Identity,
            BankShape { bits: 0, ..shape }
        ));
        assert!(refused(
            &Embedding::Identity,
            BankShape { bits: 65, ..shape }
        ));
        // A table's planes fill one 64-bit key, and no more.
        let fits = |components, bits| {
            let shape = BankShape {
                components,
                bits,
                ..shape
            };
            PlaneBank::new(Embedding::Identity, shape, |_, plane| {
                plane.extend([1.0; 4]);
                Ok::<_, LshError>(())
            })
            .is_ok()
        };
        assert!(fits(64, 1) && fits(16, 4) && fits(1, 64));
        assert!(!fits(65, 1) && !fits(22, 3) && !fits(33, 2));
        assert!(refused(
            &Embedding::Identity,
            BankShape {
                components: usize::MAX,
                bits: 2,
                ..shape
            }
        ));
        assert!(refused(&sphere, BankShape { rows: 3, ..shape }));
        assert!(refused(
            &Embedding::Identity,
            BankShape {
                tables: usize::MAX,
                ..shape
            }
        ));
        // A non-finite coefficient (the zero-row skip relies on finite planes).
        for bad in [f64::NAN, f64::INFINITY] {
            let filled = PlaneBank::new(sphere.clone(), shape, |(t, c, _), plane| {
                plane.extend([1.0, 2.0, 3.0, if (t, c) == (1, 0) { bad } else { 4.0 }]);
                Ok::<_, LshError>(())
            });
            assert!(filled.is_err());
        }
        assert!(bank_of(&[&[&[1.0, 2.0], &[3.0, 4.0]], &[&[5.0, 6.0], &[7.0, 8.0]]]).is_ok());
    }
}
