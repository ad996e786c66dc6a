//! The service walk answers exactly what the in-process library answers,
//! for every estimator the service and its shadow plane run.
//!
//! Random request DAGs — shared subexpressions, unary and binary ops, leaf
//! roots — go through `walk::estimate_dag` (catalog-style pre-built leaf
//! synopses, one and two worker threads) and through
//! `EstimationContext::estimate_root` on the equivalent `ExprDag` (leaves
//! built from the matrices). Sparsities must agree to the bit; with
//! `include_sketch`, the MNC root sketch bytes must equal the library's
//! root synopsis.

use std::sync::Arc;

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use mnc_core::serialize::to_bytes;
use mnc_core::{MncConfig, OpKind};
use mnc_estimators::{
    BitsetEstimator, DensityMapEstimator, MetaAcEstimator, MncEstimator, SparsityEstimator,
    Synopsis,
};
use mnc_expr::{EstimationContext, ExprDag};
use mnc_matrix::{gen, CsrMatrix};
use mnc_served::walk::{self, DagSpec, NodeSpec};

/// Builds a fresh estimator instance.
type Make = fn() -> Box<dyn SparsityEstimator>;

/// One factory per estimator under test: the probabilistic MNC's rounding
/// stream must start anew for every walk.
fn estimators() -> Vec<(&'static str, Make)> {
    vec![
        ("MNC", || Box::new(MncEstimator::new())),
        ("MNC-det", || {
            Box::new(MncEstimator::with_config(
                "MNC",
                MncConfig {
                    probabilistic_rounding: false,
                    ..MncConfig::default()
                },
            ))
        }),
        ("MetaAC", || Box::new(MetaAcEstimator)),
        ("DMap", || Box::new(DensityMapEstimator::default())),
        ("Bitset", || Box::new(BitsetEstimator::default())),
    ]
}

/// A random request DAG and its library twin. Inputs are drawn from all
/// earlier nodes, so intermediates are often shared.
fn random_dag(seed: u64, n: usize, n_leaves: usize, n_ops: usize) -> (DagSpec, ExprDag) {
    let mut r = rand::rngs::StdRng::seed_from_u64(seed);
    let mut spec = Vec::new();
    let mut lib = ExprDag::new();
    let mut shapes = Vec::new();
    for i in 0..n_leaves {
        let cols = if r.gen_bool(0.7) {
            n
        } else {
            r.gen_range(1..=n)
        };
        let density = r.gen_range(0.02..0.4);
        let m: CsrMatrix = gen::rand_uniform(&mut r, n, cols, density);
        let name = format!("M{i}");
        lib.leaf(name.clone(), Arc::new(m));
        spec.push(NodeSpec::Leaf(name));
        shapes.push((n, cols));
    }
    for _ in 0..n_ops {
        let len = spec.len();
        let pick = |r: &mut rand::rngs::StdRng| r.gen_range(0..len);
        let (mut op, mut inputs) = (OpKind::Transpose, vec![pick(&mut r)]);
        for _ in 0..8 {
            let a = pick(&mut r);
            let (rows, cols) = shapes[a];
            let candidate = match r.gen_range(0..11) {
                0 => (OpKind::MatMul, vec![a, pick(&mut r)]),
                1 => (OpKind::EwAdd, vec![a, pick(&mut r)]),
                2 => (OpKind::EwMul, vec![a, pick(&mut r)]),
                3 => (OpKind::EwMax, vec![a, pick(&mut r)]),
                4 => (OpKind::EwMin, vec![a, pick(&mut r)]),
                5 => (OpKind::Rbind, vec![a, pick(&mut r)]),
                6 => (OpKind::Cbind, vec![a, pick(&mut r)]),
                7 => (OpKind::Transpose, vec![a]),
                8 => (
                    OpKind::Reshape {
                        rows: cols,
                        cols: rows,
                    },
                    vec![a],
                ),
                9 => (OpKind::Neq0, vec![a]),
                _ => (OpKind::DiagM2V, vec![a]),
            };
            let in_shapes: Vec<_> = candidate.1.iter().map(|&i| shapes[i]).collect();
            if candidate.0.output_shape(&in_shapes).is_ok() {
                (op, inputs) = candidate;
                break;
            }
        }
        let id = lib.op(op.clone(), &inputs).expect("shape-checked above");
        shapes.push(lib.shape(id));
        spec.push(NodeSpec::Op { op, inputs });
    }
    let root = r.gen_range(0..spec.len());
    (DagSpec { nodes: spec, root }, lib)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn service_walk_matches_the_library_for_every_estimator(
        seed in any::<u64>(),
        n in 3usize..20,
        n_leaves in 1usize..4,
        n_ops in 0usize..6,
        want_sketch in any::<bool>(),
    ) {
        let (dag, lib) = random_dag(seed, n, n_leaves, n_ops);
        dag.validate().unwrap();
        for (name, make) in estimators() {
            let builder = make();
            let leaves: Vec<Option<Arc<Synopsis>>> = lib
                .iter()
                .map(|(_, node)| match node {
                    mnc_expr::ExprNode::Leaf { matrix, .. } => {
                        Some(Arc::new(builder.build(matrix).unwrap()))
                    }
                    mnc_expr::ExprNode::Op { .. } => None,
                })
                .collect();

            // Library path: estimate, then the root synopsis from the same
            // context and estimator (intermediates come from its cache).
            let est = make();
            let mut ctx = EstimationContext::new();
            let expected = ctx.estimate_root(est.as_ref(), &lib, dag.root);
            let expected_sketch = match (&expected, want_sketch) {
                (Ok(_), true) => ctx
                    .node_synopsis(est.as_ref(), &lib, dag.root)
                    .ok()
                    .and_then(|s| match &*s {
                        Synopsis::Mnc(s) => Some(to_bytes(&s.sketch)),
                        _ => None,
                    }),
                _ => None,
            };

            for threads in [1, 2] {
                let mut wctx = EstimationContext::new().with_threads(threads);
                let got = walk::estimate_dag_in(
                    &mut wctx,
                    make().as_ref(),
                    &dag,
                    &leaves,
                    want_sketch,
                );
                match (&expected, &got) {
                    (Ok(e), Ok(g)) => {
                        prop_assert_eq!(
                            e.to_bits(),
                            g.sparsity.to_bits(),
                            "{} threads={} seed={}",
                            name,
                            threads,
                            seed
                        );
                        prop_assert_eq!(&g.sketch_bytes, &expected_sketch, "{} sketch", name);
                    }
                    // Sketch output is MNC-only; everything else must fail
                    // on both paths or on neither.
                    (Ok(_), Err(_)) => prop_assert!(
                        want_sketch && expected_sketch.is_none(),
                        "{} failed only in the service walk (seed={})",
                        name,
                        seed
                    ),
                    (Err(_), Ok(_)) => prop_assert!(
                        false,
                        "{} failed only in the library (seed={})",
                        name,
                        seed
                    ),
                    (Err(_), Err(_)) => {}
                }
                if threads == 1 {
                    let plain = walk::estimate_dag(make().as_ref(), &dag, &leaves, want_sketch);
                    prop_assert_eq!(
                        plain.map(|o| (o.sparsity.to_bits(), o.sketch_bytes)).ok(),
                        got.map(|o| (o.sparsity.to_bits(), o.sketch_bytes)).ok()
                    );
                }
            }
        }
    }
}
