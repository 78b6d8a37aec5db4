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
//!    accumulators the compiler vectorises;
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
//! That skip is what makes the Section 4.2 map affordable: its Reed–Solomon tag is
//! thousands of coordinates wide with a few dozen non-zeros.
//!
//! The bank is *derived state*: [`PlaneBank::from_functions`] gathers it from sampled
//! (or snapshot-decoded) functions and [`PlaneBank::to_functions`] scatters it back,
//! so the snapshot format still holds per-function hyperplanes.

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

/// Reusable buffers of the hashing kernel: the embedded vector and one margin per
/// plane. One scratch serves any number of vectors hashed against the same bank.
#[derive(Debug, Clone, Default)]
pub struct BankScratch {
    embedded: Vec<f64>,
    margins: Vec<f64>,
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
        let invalid = |reason: String| LshError::InvalidParameter {
            name: "functions",
            reason,
        };
        let first = functions
            .first()
            .and_then(|f| f.functions().first())
            .ok_or_else(|| invalid("a plane bank needs at least one component".into()))?;
        let (embedding, first_planes) = parts(first);
        let components = functions[0].functions().len();
        let bits = first_planes.planes().len();
        let rows = first_planes.planes()[0].dim();
        if let Embedding::Sphere(transform) = &embedding {
            if transform.dim().checked_add(2) != Some(rows) {
                return Err(invalid(format!(
                    "planes of dimension {rows} under a sphere transform of input dimension {}",
                    transform.dim()
                )));
            }
        }
        // Validate every shape before allocating: the bank below is sized by a
        // product of counts, which only the checks make equal to the number of
        // coefficients actually present.
        for (t, composite) in functions.iter().enumerate() {
            if composite.functions().len() != components {
                return Err(invalid(format!(
                    "table {t} concatenates {} components, table 0 concatenates {components}",
                    composite.functions().len()
                )));
            }
            for (c, component) in composite.functions().iter().enumerate() {
                let (component_embedding, planes) = parts(component);
                if component_embedding != embedding {
                    return Err(invalid(format!(
                        "table {t} component {c} embeds through {component_embedding:?}, \
                         the first component through {embedding:?}"
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
        }
        let width = functions.len() * components * bits;
        let mut coefficients = vec![0.0; rows * width];
        let planes = functions
            .iter()
            .flat_map(|composite| composite.functions())
            .flat_map(|component| parts(component).1.planes());
        for (f, plane) in planes.enumerate() {
            for (j, &g) in plane.iter().enumerate() {
                coefficients[j * width + f] = g;
            }
        }
        Ok(Self {
            embedding,
            rows,
            tables: functions.len(),
            components,
            bits,
            coefficients,
        })
    }

    /// Scatters the bank back into per-table composite functions — the inverse of
    /// [`PlaneBank::from_functions`]. `assemble` rebuilds one component from its
    /// embedding and hyperplanes; the result is `None` when it declines any.
    pub fn to_functions<H>(
        &self,
        assemble: impl Fn(&Embedding, HyperplaneFunction) -> Option<H>,
    ) -> Option<Vec<AndFunction<H>>> {
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
                    .collect::<Option<Vec<H>>>()?;
                Some(
                    AndFunction::from_functions(components)
                        .expect("a bank holds at least one component per table"),
                )
            })
            .collect()
    }

    fn width(&self) -> usize {
        self.tables * self.components * self.bits
    }

    /// Embeds `v` and leaves one margin per plane in `scratch.margins`.
    fn margins(&self, side: Side, v: &DenseVector, scratch: &mut BankScratch) -> Result<()> {
        let x: &[f64] = match &self.embedding {
            Embedding::Identity => {
                if v.dim() != self.rows {
                    return Err(LshError::DimensionMismatch {
                        expected: self.rows,
                        actual: v.dim(),
                    });
                }
                v.as_slice()
            }
            Embedding::Sphere(transform) => {
                match side {
                    Side::Data => transform.transform_data_into(v, &mut scratch.embedded)?,
                    Side::Query => transform.transform_query_into(v, &mut scratch.embedded)?,
                }
                &scratch.embedded
            }
        };
        let width = self.width();
        scratch.margins.clear();
        scratch.margins.resize(width, 0.0);
        for (row, &xj) in self.coefficients.chunks_exact(width).zip(x) {
            if xj == 0.0 {
                continue;
            }
            for (margin, &g) in scratch.margins.iter_mut().zip(row) {
                *margin += g * xj;
            }
        }
        Ok(())
    }

    /// The `L` bucket keys of `v`, one per table, into `keys` (cleared first).
    ///
    /// Fails exactly as the per-function path does — a wrong dimension is a
    /// [`LshError::DimensionMismatch`], a vector outside the embedding's ball a
    /// [`LshError::DomainViolation`] — and before any key is produced.
    pub fn keys(
        &self,
        side: Side,
        v: &DenseVector,
        scratch: &mut BankScratch,
        keys: &mut Vec<u64>,
    ) -> Result<()> {
        self.margins(side, v, scratch)?;
        keys.clear();
        for table in scratch.margins.chunks_exact(self.components * self.bits) {
            keys.push(table.chunks_exact(self.bits).fold(0u64, |key, component| {
                combine_hashes(key, sign_bucket(component))
            }));
        }
        Ok(())
    }

    /// Per table, the query's home bucket followed by up to `extra` perturbed buckets
    /// in increasing cost order — the sequence `AndFunction::probe_query` enumerates,
    /// from the same margins.
    pub fn probe_keys(
        &self,
        q: &DenseVector,
        extra: usize,
        scratch: &mut BankScratch,
    ) -> Result<Vec<Vec<u64>>> {
        self.margins(Side::Query, q, scratch)?;
        let starts: Vec<usize> = (0..=self.components).map(|c| c * self.bits).collect();
        let mut homes = Vec::with_capacity(self.components);
        let mut atoms: Vec<ProbeFlip> = Vec::with_capacity(self.components * self.bits);
        Ok(scratch
            .margins
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
