//! Property-based tests for the sketch layer: linearity of every sketch, the
//! `‖·‖_∞ ≤ ‖·‖_κ ≤ n^{1/κ}·‖·‖_∞` sandwich the Section 4.3 analysis rests on,
//! consistency of the recovery structure with exact search on small inputs, and one
//! model of the whole recovery path — kernel, tree shape, walk, determinism and
//! reassembly — against row-major / recursive references.

use ips_linalg::{DenseVector, Matrix};
use ips_sketch::linf_mips::{MaxIpConfig, MaxIpEstimator};
use ips_sketch::maxstable::MaxStableSketch;
use ips_sketch::recovery::{MipsCandidate, Node, SketchMipsIndex};
use ips_sketch::stable::median;
use ips_sketch::SketchError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

fn vector(len: usize) -> impl Strategy<Value = DenseVector> {
    prop::collection::vec(-5.0f64..5.0, len).prop_map(DenseVector::new)
}

/// Vectors whose coordinates are sometimes exactly `0.0` or `-0.0`: the inputs on
/// which a summation that starts from the wrong zero, or skips a term, shows.
fn vectors_with_zeros(rng: &mut StdRng, n: usize, dim: usize) -> Vec<DenseVector> {
    (0..n)
        .map(|_| {
            DenseVector::new(
                (0..dim)
                    .map(|_| match rng.gen_range(0..8) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen_range(-2.0..2.0),
                    })
                    .collect(),
            )
        })
        .collect()
}

/// The sketched matrices `Π_t·A`, one row-major `m × d` matrix a copy.
fn sketch_matrices(estimator: &MaxIpEstimator) -> Vec<Matrix> {
    let (rows, dim) = (estimator.rows_per_copy(), estimator.dim());
    let copy = |t| (0..rows).flat_map(|r| estimator.sketch_row(t, r)).collect();
    let matrix = |t| Matrix::from_row_major(rows, dim, copy(t)).unwrap();
    (0..estimator.copies()).map(matrix).collect()
}

/// The estimate as the row-major structure computed it: one `matvec` per copy, the
/// largest magnitude with the Fréchet correction, the median over copies.
fn row_major_estimate(estimator: &MaxIpEstimator, q: &DenseVector) -> f64 {
    let per_copy: Vec<f64> = sketch_matrices(estimator)
        .iter()
        // `‖Π_t·A·q‖_∞` times the Fréchet median correction `(ln 2)^{1/κ}`.
        .map(|m| {
            m.matvec(q).unwrap().max_abs() * std::f64::consts::LN_2.powf(1.0 / estimator.kappa())
        })
        .collect();
    median(&per_copy)
}

/// The walk as Section 4.3 states it, recursively over the public tree: descend into
/// the half with the larger (row-major) estimate, ties to the left; then the first
/// exact arg-max of `|p·q|` within the leaf.
fn reference_walk(index: &SketchMipsIndex, node: &Node, q: &DenseVector) -> MipsCandidate {
    match node {
        Node::Internal {
            estimator_left,
            estimator_right,
            left,
            right,
        } => {
            let go_left =
                row_major_estimate(estimator_left, q) >= row_major_estimate(estimator_right, q);
            reference_walk(index, if go_left { left } else { right }, q)
        }
        Node::Leaf { range } => {
            let mut best: Option<MipsCandidate> = None;
            for i in range.clone() {
                let inner_product = index.data()[i].dot(q).unwrap();
                if best.is_none_or(|b| inner_product.abs() > b.inner_product.abs()) {
                    best = Some(MipsCandidate {
                        index: i,
                        inner_product,
                    });
                }
            }
            best.expect("leaves are non-empty")
        }
    }
}

/// Every estimator of the tree with the range it summarises, and every leaf, both in
/// pre-order.
fn flatten<'a>(
    node: &'a Node,
    range: Range<usize>,
    estimators: &mut Vec<(&'a MaxIpEstimator, Range<usize>)>,
    internal: &mut Vec<Range<usize>>,
    leaves: &mut Vec<Range<usize>>,
) {
    match node {
        Node::Leaf { range: leaf } => leaves.push(leaf.clone()),
        Node::Internal {
            estimator_left,
            estimator_right,
            left,
            right,
        } => {
            let mid = range.start + range.len() / 2;
            internal.push(range.clone());
            estimators.push((estimator_left, range.start..mid));
            estimators.push((estimator_right, mid..range.end));
            flatten(left, range.start..mid, estimators, internal, leaves);
            flatten(right, mid..range.end, estimators, internal, leaves);
        }
    }
}

/// The tree the fixed `leaf_size` cut-off built before the cost rule: split every
/// range longer than `leaf_size`, whatever a sketch costs. Deeper than
/// [`SketchMipsIndex::build`] goes — the shape of a snapshot written by an earlier
/// build.
fn fixed_floor_tree(
    rng: &mut StdRng,
    data: &[DenseVector],
    range: Range<usize>,
    config: MaxIpConfig,
    leaf_size: usize,
) -> Node {
    if range.len() <= leaf_size {
        return Node::Leaf { range };
    }
    let mid = range.start + range.len() / 2;
    let (left, right) = (range.start..mid, mid..range.end);
    Node::Internal {
        estimator_left: MaxIpEstimator::build(rng, &data[left.clone()], config).unwrap(),
        estimator_right: MaxIpEstimator::build(rng, &data[right.clone()], config).unwrap(),
        left: Box::new(fixed_floor_tree(rng, data, left, config, leaf_size)),
        right: Box::new(fixed_floor_tree(rng, data, right, config, leaf_size)),
    }
}

/// Takes a tree apart into raw parts and reassembles it, estimator by estimator,
/// through `MaxIpEstimator::from_copies` and `SketchMipsIndex::from_raw_parts` — what
/// a snapshot load does.
fn reassembled(node: &Node) -> Node {
    match node {
        Node::Leaf { range } => Node::Leaf {
            range: range.clone(),
        },
        Node::Internal {
            estimator_left,
            estimator_right,
            left,
            right,
        } => {
            let rebuild = |e: &MaxIpEstimator| {
                let rows = e.rows_per_copy();
                let copied = MaxIpEstimator::from_copies(
                    e.kappa(),
                    e.len(),
                    e.dim(),
                    e.copies(),
                    rows,
                    |t, copy| {
                        copy.extend((0..rows).flat_map(|r| e.sketch_row(t, r)));
                        Ok::<_, SketchError>(())
                    },
                );
                copied.unwrap()
            };
            Node::Internal {
                estimator_left: rebuild(estimator_left),
                estimator_right: rebuild(estimator_right),
                left: Box::new(reassembled(left)),
                right: Box::new(reassembled(right)),
            }
        }
    }
}

/// Every coefficient of every estimator, as bit patterns, in pre-order.
fn coefficient_bits(index: &SketchMipsIndex) -> Vec<u64> {
    let (mut estimators, mut internal, mut leaves) = (Vec::new(), Vec::new(), Vec::new());
    flatten(
        index.root(),
        0..index.len(),
        &mut estimators,
        &mut internal,
        &mut leaves,
    );
    estimators
        .iter()
        .flat_map(|(e, _)| sketch_matrices(e))
        .flat_map(|m| {
            m.iter_rows()
                .flatten()
                .map(|c| c.to_bits())
                .collect::<Vec<_>>()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn max_stable_sketch_is_linear(x in vector(24), y in vector(24), alpha in -3.0f64..3.0, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sketch = MaxStableSketch::sample(&mut rng, 24, 8, 2.0).unwrap();
        let lhs = sketch.apply(&x.scaled(alpha).add(&y).unwrap()).unwrap();
        let rhs_a = sketch.apply(&x).unwrap().scaled(alpha);
        let rhs_b = sketch.apply(&y).unwrap();
        let rhs = rhs_a.add(&rhs_b).unwrap();
        for i in 0..lhs.dim() {
            prop_assert!((lhs[i] - rhs[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn norm_sandwich_justifies_the_approximation(x in vector(50), kappa in 2.0f64..6.0) {
        // ||x||_inf <= ||x||_kappa <= n^{1/kappa} ||x||_inf — the inequality chain that
        // turns a kappa-norm estimate into an n^{1/kappa}-approximate max-|IP|.
        let linf = x.lp_norm(f64::INFINITY).unwrap();
        let lk = x.lp_norm(kappa).unwrap();
        let slack = (x.dim() as f64).powf(1.0 / kappa);
        prop_assert!(linf <= lk + 1e-9);
        prop_assert!(lk <= slack * linf + 1e-9);
    }

    #[test]
    fn median_is_between_min_and_max(values in prop::collection::vec(-100.0f64..100.0, 1..30)) {
        let m = median(&values);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= min - 1e-12 && m <= max + 1e-12);
    }

    #[test]
    fn estimator_scales_linearly(seed in any::<u64>(), scale in 0.1f64..10.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<DenseVector> = (0..40)
            .map(|i| DenseVector::new((0..8).map(|j| ((i * 8 + j) % 7) as f64 - 3.0).collect()))
            .collect();
        let estimator = MaxIpEstimator::build(
            &mut rng,
            &data,
            MaxIpConfig { kappa: 2.0, copies: 3, rows: Some(16) },
        )
        .unwrap();
        let q = DenseVector::new(vec![0.3; 8]);
        let base = estimator.estimate(&q).unwrap();
        let scaled = estimator.estimate(&q.scaled(scale)).unwrap();
        prop_assert!((scaled - scale * base).abs() < 1e-6 * scaled.abs().max(1.0));
    }

    #[test]
    fn recovery_with_large_leaves_is_exact(seed in any::<u64>()) {
        // leaf_size >= n degenerates to an exact scan, so the recovered index must agree
        // with exact_max for every query.
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<DenseVector> = (0..12)
            .map(|i| DenseVector::new(vec![(i as f64 - 6.0) / 6.0, ((i * 3) % 5) as f64 / 5.0]))
            .collect();
        let index = SketchMipsIndex::build(&mut rng, data, MaxIpConfig::default(), 32).unwrap();
        let q = DenseVector::new(vec![0.7, -0.4]);
        let approx = index.query(&q).unwrap();
        let exact = index.exact_max(&q).unwrap();
        prop_assert!((approx.inner_product.abs() - exact.inner_product.abs()).abs() < 1e-12);
    }

    #[test]
    fn recovery_path_matches_its_row_major_model(
        seed in any::<u64>(),
        n in 1usize..=600,
        dim in 1usize..=24,
        copies in 1usize..=6,
        rows in 0usize..=8,
        leaf_size in 1usize..=64,
    ) {
        let config = MaxIpConfig { kappa: 2.0, copies, rows: (rows > 0).then_some(rows) };
        let mut rng = StdRng::seed_from_u64(seed);
        let data = vectors_with_zeros(&mut rng, n, dim);
        let queries = vectors_with_zeros(&mut rng, 6, dim);
        let build = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            SketchMipsIndex::build(&mut rng, data.clone(), config, leaf_size).unwrap()
        };
        let index = build(seed ^ 1);

        // (b) The shape is the split rule's: every internal range passes both
        // conditions, every leaf fails one, and the leaves partition 0..n in order.
        let rows_over = |len: usize| {
            config.rows.unwrap_or_else(|| MaxStableSketch::recommended_rows(len, config.kappa))
        };
        let splits = |len: usize| len > leaf_size && 2 * copies * rows_over(len / 2) < len;
        let (mut estimators, mut internal, mut leaves) = (Vec::new(), Vec::new(), Vec::new());
        flatten(index.root(), 0..n, &mut estimators, &mut internal, &mut leaves);
        prop_assert!(internal.iter().all(|range| splits(range.len())));
        prop_assert!(leaves.iter().all(|leaf| !splits(leaf.len())));
        let mut next = 0;
        for leaf in &leaves {
            prop_assert!(leaf.start == next && leaf.end > leaf.start);
            next = leaf.end;
        }
        prop_assert_eq!(next, n);
        let mut stored = 0;
        for (estimator, range) in &estimators {
            prop_assert_eq!(estimator.len(), range.len());
            prop_assert_eq!(estimator.dim(), dim);
            prop_assert_eq!(estimator.copies(), copies);
            prop_assert_eq!(estimator.rows_per_copy(), rows_over(range.len()));
            stored += estimator.stored_coefficients();
        }
        prop_assert_eq!(index.stored_coefficients(), stored);

        for q in &queries {
            // (a) The kernel's estimate is the row-major one, bit for bit.
            for (estimator, _) in &estimators {
                prop_assert_eq!(
                    estimator.estimate(q).unwrap().to_bits(),
                    row_major_estimate(estimator, q).to_bits()
                );
            }
            // (c) The answer is the exact arg-max within the leaf the walk ends in.
            prop_assert_eq!(index.query(q).unwrap(), reference_walk(&index, index.root(), q));
        }
        let wrong = DenseVector::zeros(dim + 1);
        prop_assert_eq!(
            index.query(&wrong).err(),
            Some(SketchError::DimensionMismatch { expected: dim, actual: dim + 1 })
        );

        // (d) The same seed draws the same tree and gives the same answers.
        let again = build(seed ^ 1);
        prop_assert_eq!(coefficient_bits(&index), coefficient_bits(&again));
        for q in &queries {
            prop_assert_eq!(index.query(q).unwrap(), again.query(q).unwrap());
        }

        // (e) Taking the index apart and reassembling it loses nothing...
        let reloaded = SketchMipsIndex::from_raw_parts(
            data.clone(),
            reassembled(index.root()),
            config,
            leaf_size,
        )
        .unwrap();
        prop_assert_eq!(coefficient_bits(&index), coefficient_bits(&reloaded));
        // ...and a tree deeper than the rule would build loads and is walked as it is.
        let floor = leaf_size.min(8);
        let deep = fixed_floor_tree(&mut rng, &data, 0..n, config, floor);
        let deep = SketchMipsIndex::from_raw_parts(data.clone(), reassembled(&deep), config, floor)
            .unwrap();
        for q in &queries {
            prop_assert_eq!(reloaded.query(q).unwrap(), index.query(q).unwrap());
            prop_assert_eq!(deep.query(q).unwrap(), reference_walk(&deep, deep.root(), q));
        }
    }
}
