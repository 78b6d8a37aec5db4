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
//! 2. `margin[f] += bank[j][f] · x[j]` for `j = 0, 1, …` — a row of independent
//!    accumulators the compiler vectorises (for a block of points, the same sums a
//!    register tile at a time: "the block kernel" below);
//! 3. fold the signs through the [`combine_hashes`] chain into the `L` bucket keys.
//!
//! **Bit-identity with the per-function path.** Plane `f`'s accumulator sums
//! `g_f[j]·x[j]` over `j` in ascending order, exactly the order of
//! [`DenseVector::dot`], so every margin is the same `f64` the per-function walk
//! ([`AndFunction`] over `SimpleAlshFunction` / `HyperplaneFunction`) computes, up to
//! the sign of an exact zero — which neither the sign test `margin >= 0.0` nor the
//! probe cost `margin²` can see. A row whose `x[j] == 0.0` is skipped: every
//! coefficient is finite (checked at construction), so the skipped terms are `±0.0`
//! and adding them would change no accumulator beyond, again, the sign of a zero.
//!
//! **Sparse images.** The Section 4.2 map sends a `d`-dimensional vector to one of
//! thousands of coordinates with `d` + a few dozen non-zeros: the vector itself, then
//! a one-hot-per-block Reed–Solomon tag. A [`SparseImage`] names exactly those — the
//! dense head as a slice, the tag as ascending `(row, value)` pairs — and the kernel
//! walks `d + t` rows of the bank instead of all of them. The margins are the ones the
//! materialised image would give, bit for bit: the products added are the same
//! `g_f[j]·x[j]`, in the same ascending-`j` order, and the rows never visited are
//! rows the dense walk skips as zeros. No dense image is ever built.
//!
//! **The block kernel.** A build hashes point after point against a bank that stays in
//! cache, and streaming the whole bank through one point's margins wastes that: every
//! coefficient is loaded once per point and every margin read and rewritten once per
//! row. [`PlaneBank::block_keys`] instead takes a block of points a *register tile* at
//! a time — four points by four planes, sixteen sums held in registers across the walk
//! over `j` — so a coefficient is loaded once per four points and a margin written
//! once. Each sum still adds `g_f[j]·x[j]` in ascending `j` from `+0.0`, so a block's
//! keys are each point's own [`PlaneBank::keys`], bit for bit (the tile adds the `±0.0`
//! product of a zero coordinate where the streaming walk skips it — the sign of a zero,
//! once more). A tile covers the dense heads; a sparse image's tail rows, which differ
//! from point to point, are streamed into the tile's margins afterwards, in order. What
//! does not fill a tile — the last points of a block, and every single-vector
//! operation: `insert`, `remove`, the lookups — takes the streaming walk: it reads the
//! bank front to back, which is what a prefetcher follows when the bank has left the
//! cache since the last request, where the tile's column-wise walk would stall on every
//! row.
//!
//! The bank is *derived state*: [`PlaneBank::from_functions`] gathers it from
//! snapshot-decoded functions, [`PlaneBank::sampled`] from functions drawn one table at
//! a time (so a fresh index never holds its planes twice), and
//! [`PlaneBank::to_functions`] scatters it back, so the snapshot format still holds
//! per-function hyperplanes.

use crate::amplify::{combine_hashes, AndFunction};
use crate::error::{LshError, Result};
use crate::hyperplane::HyperplaneFunction;
use crate::probe::{compose_probes, push_flips, sign_bucket, ProbeFlip};
use crate::simple_alsh::SphereTransform;
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

/// Points per register tile of the kernel (see the module docs, "the block kernel").
const TILE: usize = 4;

/// Reusable buffers of the hashing kernel: the embedded vectors of one tile of points
/// and their margins, one per point and plane. One scratch serves any number of
/// vectors hashed against the same bank.
#[derive(Debug, Clone, Default)]
pub struct BankScratch {
    embedded: [Vec<f64>; TILE],
    /// `TILE × width`, point-major.
    margins: Vec<f64>,
}

/// A point as the kernel walks it: its leading coordinates, dense, then the
/// non-zeros after them as ascending `(row, value)` pairs.
type Walk<'a> = (&'a [f64], &'a [(usize, f64)]);

fn invalid(reason: String) -> LshError {
    LshError::InvalidParameter {
        name: "functions",
        reason,
    }
}

/// All hyperplanes of an `L`-table index, coordinate-major (see the module docs).
#[derive(Debug, Clone)]
pub struct PlaneBank {
    embedding: Embedding,
    /// Dimension the planes live in (the embedding's output dimension).
    rows: usize,
    tables: usize,
    components: usize,
    bits: usize,
    /// `rows × width` coefficients, `width = tables · components · bits`.
    coefficients: Vec<f64>,
}

impl PlaneBank {
    /// Gathers the bank of `functions` (one composite per table). `parts` names a
    /// component's embedding and hyperplanes.
    ///
    /// Everything the kernel indexes by is checked here, so a bank decoded from a
    /// hostile snapshot fails at load instead of per query: every composite must have
    /// the same number of components, every component the same embedding and number
    /// of planes, every plane the embedding's output dimension, and every coefficient
    /// must be finite. Violations are [`LshError::InvalidParameter`].
    pub fn from_functions<H>(
        functions: &[AndFunction<H>],
        parts: impl Fn(&H) -> (Embedding, &HyperplaneFunction),
    ) -> Result<Self> {
        let first = functions
            .first()
            .ok_or_else(|| invalid("a plane bank needs at least one component".into()))?;
        let mut bank = Self::shaped_like(first, functions.len(), &parts)?;
        // Validate every shape before allocating: the bank is sized by a product of
        // counts, which only the checks make equal to the number of coefficients
        // actually present.
        for (t, composite) in functions.iter().enumerate() {
            bank.check(t, composite, &parts)?;
        }
        bank.coefficients = vec![0.0; bank.rows * bank.width()];
        for (t, composite) in functions.iter().enumerate() {
            bank.scatter(t, composite, &parts);
        }
        Ok(bank)
    }

    /// The bank of `tables` composites drawn from `sample` one at a time, each
    /// scattered into the bank and dropped before the next is drawn — the planes are
    /// held once, not once as functions and once as coefficients. Same checks as
    /// [`PlaneBank::from_functions`], same bank as gathering the collected draws.
    pub fn sampled<H>(
        tables: usize,
        mut sample: impl FnMut() -> Result<AndFunction<H>>,
        parts: impl Fn(&H) -> (Embedding, &HyperplaneFunction),
    ) -> Result<Self> {
        if tables == 0 {
            return Err(invalid("a plane bank needs at least one table".into()));
        }
        let first = sample()?;
        let mut bank = Self::shaped_like(&first, tables, &parts)?;
        bank.check(0, &first, &parts)?;
        bank.coefficients = vec![0.0; bank.rows * bank.width()];
        bank.scatter(0, &first, &parts);
        drop(first);
        for t in 1..tables {
            let drawn = sample()?;
            bank.check(t, &drawn, &parts)?;
            bank.scatter(t, &drawn, &parts);
        }
        Ok(bank)
    }

    /// An empty bank of `tables` tables with the shape of `first`'s first component.
    fn shaped_like<H>(
        first: &AndFunction<H>,
        tables: usize,
        parts: &impl Fn(&H) -> (Embedding, &HyperplaneFunction),
    ) -> Result<Self> {
        let component = first
            .functions()
            .first()
            .ok_or_else(|| invalid("a plane bank needs at least one component".into()))?;
        let (embedding, planes) = parts(component);
        let rows = planes.planes()[0].dim();
        if let Embedding::Sphere(transform) = &embedding {
            if transform.dim().checked_add(2) != Some(rows) {
                return Err(invalid(format!(
                    "planes of dimension {rows} under a sphere transform of input dimension {}",
                    transform.dim()
                )));
            }
        }
        Ok(Self {
            embedding,
            rows,
            tables,
            components: first.functions().len(),
            bits: planes.planes().len(),
            coefficients: Vec::new(),
        })
    }

    /// Whether table `t`'s composite has the bank's shape and finite coefficients.
    fn check<H>(
        &self,
        t: usize,
        composite: &AndFunction<H>,
        parts: &impl Fn(&H) -> (Embedding, &HyperplaneFunction),
    ) -> Result<()> {
        let (components, bits, rows) = (self.components, self.bits, self.rows);
        if composite.functions().len() != components {
            return Err(invalid(format!(
                "table {t} concatenates {} components, table 0 concatenates {components}",
                composite.functions().len()
            )));
        }
        for (c, component) in composite.functions().iter().enumerate() {
            let (component_embedding, planes) = parts(component);
            if component_embedding != self.embedding {
                return Err(invalid(format!(
                    "table {t} component {c} embeds through {component_embedding:?}, \
                     the first component through {:?}",
                    self.embedding
                )));
            }
            if planes.planes().len() != bits {
                return Err(invalid(format!(
                    "table {t} component {c} has {} planes, the first component has {bits}",
                    planes.planes().len()
                )));
            }
            for (b, plane) in planes.planes().iter().enumerate() {
                if plane.dim() != rows {
                    return Err(invalid(format!(
                        "table {t} component {c} plane {b} has dimension {}, expected {rows}",
                        plane.dim()
                    )));
                }
                if !plane.iter().all(|g| g.is_finite()) {
                    return Err(invalid(format!(
                        "table {t} component {c} plane {b} has a non-finite coefficient"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Writes table `t`'s planes into their columns of the (allocated) bank.
    fn scatter<H>(
        &mut self,
        t: usize,
        composite: &AndFunction<H>,
        parts: &impl Fn(&H) -> (Embedding, &HyperplaneFunction),
    ) {
        let width = self.width();
        let planes = composite
            .functions()
            .iter()
            .flat_map(|component| parts(component).1.planes());
        for (f, plane) in (t * self.components * self.bits..).zip(planes) {
            for (j, &g) in plane.iter().enumerate() {
                self.coefficients[j * width + f] = g;
            }
        }
    }

    /// Scatters the bank back into per-table composite functions — the inverse of
    /// [`PlaneBank::from_functions`]. `assemble` rebuilds one component from its
    /// embedding and hyperplanes.
    pub fn to_functions<H>(
        &self,
        assemble: impl Fn(&Embedding, HyperplaneFunction) -> H,
    ) -> Vec<AndFunction<H>> {
        let width = self.width();
        let plane = |f: usize| {
            DenseVector::new(
                (0..self.rows)
                    .map(|j| self.coefficients[j * width + f])
                    .collect(),
            )
        };
        let component = |first: usize| {
            let planes = (first..first + self.bits).map(plane).collect();
            let planes = HyperplaneFunction::from_planes(planes)
                .expect("a bank holds 1..=64 equal-dimension planes per component");
            assemble(&self.embedding, planes)
        };
        (0..self.tables)
            .map(|t| {
                let components = (0..self.components)
                    .map(|c| component((t * self.components + c) * self.bits))
                    .collect();
                AndFunction::from_functions(components)
                    .expect("a bank holds at least one component per table")
            })
            .collect()
    }

    fn width(&self) -> usize {
        self.tables * self.components * self.bits
    }

    /// Number of tables `L`: how many keys a point has.
    pub fn tables(&self) -> usize {
        self.tables
    }

    /// A scratch at the size this bank's kernel uses, so that hashing through it
    /// allocates nothing — what a worker is handed by the thread that owns it.
    pub fn scratch(&self) -> BankScratch {
        let embedded = match self.embedding {
            Embedding::Identity => 0,
            Embedding::Sphere(_) => self.rows,
        };
        BankScratch {
            embedded: std::array::from_fn(|_| Vec::with_capacity(embedded)),
            margins: vec![0.0; TILE * self.width()],
        }
    }

    /// What the kernel walks for `point`: the vector itself, or its embedding written
    /// into `buffer`. Every row the walk will index is checked here, before any
    /// coefficient is read.
    fn walk<'a>(&self, side: Side, point: Point<'a>, buffer: &'a mut Vec<f64>) -> Result<Walk<'a>> {
        let mismatch = |actual: usize| LshError::DimensionMismatch {
            expected: self.rows,
            actual,
        };
        match (point, &self.embedding) {
            (Point::Dense(v), Embedding::Identity) => {
                if v.dim() != self.rows {
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
                if image.dim != self.rows || image.head.len() > self.rows {
                    return Err(mismatch(image.dim.max(image.head.len())));
                }
                let mut floor = image.head.len();
                for &(j, _) in image.tail {
                    if j < floor || j >= self.rows {
                        return Err(LshError::InvalidParameter {
                            name: "image",
                            reason: format!(
                                "tail row {j} is not ascending within {floor}..{}",
                                self.rows
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
    /// point-major). Each is `Σ_j g_f[j]·x[j]` over ascending `j` from `+0.0` — the
    /// heads' rows are the bank's first, in order, and the tails' were checked to
    /// follow them. A full tile of equally long heads goes through the register tile;
    /// anything else — a single vector above all — streams the bank row by row.
    fn tile_margins(&self, tile: &[Walk<'_>], margins: &mut [f64]) {
        let width = self.width();
        // `margins += row j · xj`. A zero is skipped: every coefficient is finite, so
        // its products are `±0.0` and adding them would change no sum (a unit vector's
        // whole tag is zeros).
        let stream = |margins: &mut [f64], j: usize, xj: f64| {
            if xj != 0.0 {
                let row = &self.coefficients[j * width..(j + 1) * width];
                for (margin, &g) in margins.iter_mut().zip(row) {
                    *margin += g * xj;
                }
            }
        };
        let rows = tile[0].0.len();
        match tile {
            [a, b, c, d] if tile.iter().all(|(head, _)| head.len() == rows) => {
                let heads = [a.0, b.0, c.0, d.0];
                head_margins(&self.coefficients[..rows * width], width, heads, margins);
            }
            _ => {
                margins[..tile.len() * width].fill(0.0);
                for (&(head, _), margins) in tile.iter().zip(margins.chunks_exact_mut(width)) {
                    for (j, &xj) in head.iter().enumerate() {
                        stream(margins, j, xj);
                    }
                }
            }
        }
        for (&(_, tail), margins) in tile.iter().zip(margins.chunks_exact_mut(width)) {
            for &(j, xj) in tail {
                stream(margins, j, xj);
            }
        }
    }

    /// The bucket keys of one point's margins, one per table, into `keys`.
    fn fold_keys(&self, margins: &[f64], keys: &mut [u64]) {
        let tables = margins.chunks_exact(self.components * self.bits);
        for (key, table) in keys.iter_mut().zip(tables) {
            *key = table.chunks_exact(self.bits).fold(0u64, |key, component| {
                combine_hashes(key, sign_bucket(component))
            });
        }
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
        keys.resize(self.tables, 0);
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
        margins.resize(TILE * width, 0.0);
        let mut points = points.into_iter();
        let mut keys = keys.chunks_exact_mut(self.tables);
        loop {
            let mut tile: [Walk<'_>; TILE] = [(&[], &[]); TILE];
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
                let keys = keys.next().ok_or_else(|| miscounted_keys(self.tables))?;
                self.fold_keys(margins, keys);
            }
        }
        match keys.next() {
            None if keys.into_remainder().is_empty() => Ok(()),
            _ => Err(miscounted_keys(self.tables)),
        }
    }

    /// Per table, the query's home bucket followed by up to `extra` perturbed buckets
    /// in increasing cost order — the sequence `AndFunction::probe_query` enumerates,
    /// from the same margins.
    pub fn probe_keys<'a>(
        &self,
        q: impl Into<Point<'a>>,
        extra: usize,
        scratch: &mut BankScratch,
    ) -> Result<Vec<Vec<u64>>> {
        let width = self.width();
        let BankScratch { embedded, margins } = scratch;
        margins.resize(TILE * width, 0.0);
        let walk = self.walk(Side::Query, q.into(), &mut embedded[0])?;
        self.tile_margins(&[walk], margins);
        let starts: Vec<usize> = (0..=self.components).map(|c| c * self.bits).collect();
        let mut homes = Vec::with_capacity(self.components);
        let mut atoms: Vec<ProbeFlip> = Vec::with_capacity(self.components * self.bits);
        Ok(margins[..width]
            .chunks_exact(self.components * self.bits)
            .map(|table| {
                homes.clear();
                atoms.clear();
                for component in table.chunks_exact(self.bits) {
                    let home = sign_bucket(component);
                    homes.push(home);
                    push_flips(home, component, &mut atoms);
                }
                compose_probes(&homes, &atoms, &starts, extra)
            })
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

/// Planes per register tile: with [`TILE`] points, eight packed accumulators — what
/// sixteen vector registers hold beside the coefficients and the broadcast coordinates.
const LANES: usize = 4;

/// The register tile: `margins[p·width + f] = Σ_j coefficients[j·width + f]·heads[p][j]`
/// for [`TILE`] points whose heads have one length (`coefficients` holds that many
/// rows), [`LANES`] planes at a time. The `TILE × LANES` sums stay in registers across
/// the whole walk over `j`, so a coefficient is loaded once per tile, not once per
/// point, and no margin is read back or rewritten per row; each sum still adds its
/// products in ascending `j`, from `+0.0` (a zero coordinate is added, not skipped —
/// the sign of a zero, again).
///
/// Compiled once, here: inlined into its generic callers the loop would be
/// re-optimised per instantiating crate (see `position_of` in `table.rs`). It is for a
/// *warm* bank — a build hashing point after point. It walks the bank a few columns
/// at a time, which no prefetcher follows; a single lookup, whose bank may have left
/// the cache since the last one, streams it row by row instead.
#[inline(never)]
fn head_margins(coefficients: &[f64], width: usize, heads: [&[f64]; TILE], margins: &mut [f64]) {
    let mut first = 0;
    while first + LANES <= width {
        // Indexed loops over fixed-size arrays: the shape the compiler turns into
        // packed accumulators.
        let mut sums = [[0.0f64; LANES]; TILE];
        for (j, row) in coefficients.chunks_exact(width).enumerate() {
            let g: [f64; LANES] = row[first..first + LANES]
                .try_into()
                .expect("a slice of LANES planes");
            for p in 0..TILE {
                let xj = heads[p][j];
                for f in 0..LANES {
                    sums[p][f] += g[f] * xj;
                }
            }
        }
        for p in 0..TILE {
            margins[p * width + first..p * width + first + LANES].copy_from_slice(&sums[p]);
        }
        first += LANES;
    }
    // The planes a whole tile does not cover, one at a time.
    for f in first..width {
        for (p, head) in heads.iter().enumerate() {
            let column = coefficients.iter().skip(f).step_by(width);
            margins[p * width + f] = column.zip(*head).fold(0.0, |sum, (&g, &xj)| sum + g * xj);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{AsymmetricHashFunction, SymmetricFunctionPair};

    fn composite(planes: &[&[f64]]) -> AndFunction<SymmetricFunctionPair<HyperplaneFunction>> {
        let components = planes
            .iter()
            .map(|g| {
                let plane = DenseVector::from(*g);
                SymmetricFunctionPair(HyperplaneFunction::from_planes(vec![plane]).unwrap())
            })
            .collect();
        AndFunction::from_functions(components).unwrap()
    }

    fn bank_of(
        functions: &[AndFunction<SymmetricFunctionPair<HyperplaneFunction>>],
    ) -> Result<PlaneBank> {
        PlaneBank::from_functions(functions, |pair| (Embedding::Identity, &pair.0))
    }

    #[test]
    fn margins_sum_in_coordinate_order_like_a_dense_dot() {
        // Catastrophic cancellation makes the sign depend on the summation order:
        // left to right the first plane sums to -1, right to left to 0.
        let functions = vec![
            composite(&[&[1e16, -1e16, -1.0], &[-1.0, 1e16, -1e16]]),
            composite(&[&[1e16, 1.0, -1e16], &[3.0, -2.0, -1.0]]),
        ];
        let bank = bank_of(&functions).unwrap();
        let (mut scratch, mut keys) = (BankScratch::default(), Vec::new());
        for v in [[1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [-0.0, 1.0, 1.0]] {
            let v = DenseVector::from(&v[..]);
            bank.keys(Side::Query, &v, &mut scratch, &mut keys).unwrap();
            let oracle: Vec<u64> = functions
                .iter()
                .map(|f| f.hash_query(&v).unwrap())
                .collect();
            assert_eq!(keys, oracle, "v = {v:?}");
        }
    }

    #[test]
    fn a_sparse_image_hashes_like_the_dense_vector_it_stands_for() {
        // The cancellation planes again, two coordinates wider: the sign depends on
        // the order the products are added in, so the sparse walk must keep it.
        let functions = vec![
            composite(&[
                &[1e16, 0.5, -1e16, 7.0, -1.0],
                &[-1.0, 2.0, 1e16, 3.0, -1e16],
            ]),
            composite(&[&[1e16, 4.0, 1.0, -5.0, -1e16], &[3.0, 1.0, -2.0, 6.0, -1.0]]),
        ];
        let bank = bank_of(&functions).unwrap();
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
    fn a_bank_sampled_table_by_table_is_the_bank_of_the_collected_draws() {
        let functions = vec![
            composite(&[&[1.0, 2.0], &[3.0, 4.0]]),
            composite(&[&[5.0, 6.0], &[7.0, 8.0]]),
            composite(&[&[9.0, 10.0], &[11.0, 12.0]]),
        ];
        fn parts(
            pair: &SymmetricFunctionPair<HyperplaneFunction>,
        ) -> (Embedding, &HyperplaneFunction) {
            (Embedding::Identity, &pair.0)
        }
        let mut draws = functions.iter().cloned();
        let streamed = PlaneBank::sampled(3, || Ok(draws.next().unwrap()), parts).unwrap();
        assert_eq!(
            streamed.coefficients,
            bank_of(&functions).unwrap().coefficients
        );
        // A later draw of another shape fails as it would in the gathered list, and a
        // bank of no tables is refused.
        let mut draws = [functions[0].clone(), composite(&[&[1.0, 2.0]])].into_iter();
        assert!(PlaneBank::sampled(2, || Ok(draws.next().unwrap()), parts).is_err());
        assert!(PlaneBank::sampled(0, || Ok(functions[0].clone()), parts).is_err());
    }

    #[test]
    fn inconsistent_functions_are_rejected_before_any_allocation_is_sized() {
        let good = composite(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!(bank_of(&[]).is_err());
        // A table with a different number of components.
        assert!(bank_of(&[good.clone(), composite(&[&[1.0, 2.0]])]).is_err());
        // A plane of another dimension.
        assert!(bank_of(&[good.clone(), composite(&[&[1.0, 2.0], &[3.0]])]).is_err());
        // A non-finite coefficient (the zero-row skip relies on finite planes).
        assert!(bank_of(&[good.clone(), composite(&[&[1.0, f64::NAN], &[3.0, 4.0]])]).is_err());
        assert!(bank_of(&[composite(&[&[f64::INFINITY, 0.0], &[3.0, 4.0]])]).is_err());
        assert!(bank_of(&[good.clone(), good]).is_ok());
    }
}
