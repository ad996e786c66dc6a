//! Seeded workload inputs.
//!
//! A workload is the catalog its daemon ingests at set-up, the estimate
//! request templates its clients cycle through, and the load-thread roles.
//! Everything here is a pure function of the workload name and the seed;
//! the expected answer of every template (a fresh-`MncEstimator` library
//! walk) and its exact truth are computed here, before any daemon starts.

use std::sync::Arc;

use mnc_estimators::MncEstimator;
use mnc_expr::{estimate_root, Evaluator, ExprDag, ExprNode, NodeId, OpKind};
use mnc_matrix::{gen, CsrMatrix};
use mnc_sparsest::datasets::Datasets;
use mnc_sparsest::usecases::{b1_suite, b3_suite};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SparsEst scales of `serve_dag`: B1 multiplies the paper's 100K base
/// dimension, B3 the dataset substitutes' default sizes. B1 stays at 0.05
/// (5000 x 5000 leaves): every B1 leaf carries an O(m·n)-bit Bitset
/// sidecar and B1.1's dense embedding grows as d x 300, while the B1
/// estimates stay a single O(d) product. B3 runs at 0.5, where its chains
/// make the walk, not the transport, the larger part of a request.
const SPARSEST_SCALE_B1: f64 = 0.05;
const SPARSEST_SCALE_B3: f64 = 0.5;
/// `serve_dag` scale under `--tiny` (the self-test), for B1 and B3.
const SPARSEST_SCALE_TINY: f64 = 0.005;

/// One named matrix and its `PUT /v1/matrices/{name}` CSR JSON body.
pub struct Matrix {
    pub name: String,
    pub csr: Arc<CsrMatrix>,
    pub body: Vec<u8>,
}

/// One estimate request template.
pub struct Template {
    /// Use-case id (`serve_dag`) or template index.
    pub label: String,
    /// The expression over the catalog matrices, for the library walks.
    pub dag: ExprDag,
    pub root: NodeId,
    /// The `"dag"` and `"root"` members of the request body.
    pub json: String,
    /// Sparsity of the library walk with a fresh `MncEstimator`; every
    /// served answer must match it bit for bit.
    pub expected: f64,
    /// Exact sparsity of the evaluated expression.
    pub truth: f64,
}

/// What one load thread does.
pub enum Role {
    /// Cycles through the templates in its own session, starting at
    /// `offset`.
    Estimator { client: String, offset: usize },
    /// PUTs the catalog entries listed in [`Workload::writes`] in rotation.
    Writer,
}

pub struct Workload {
    pub name: &'static str,
    /// Ingested at every set-up, in order.
    pub catalog: Vec<Matrix>,
    pub templates: Vec<Template>,
    pub roles: Vec<Role>,
    /// Catalog indices the writer rotates over (each PUT replaces an entry
    /// with the same bytes, so answers stay fixed).
    pub writes: Vec<usize>,
    /// Catalog index re-ingested after the timed interval to sample ingest
    /// latency on workloads without a writer.
    pub probe: Option<usize>,
    /// SparsEst scales of B1 and B3 (`serve_dag`); 0 where they do not
    /// apply.
    pub scales: (f64, f64),
}

const WORKLOADS: [&str; 3] = ["serve_small", "serve_dag", "ingest_mixed"];

pub fn generate(name: &str, seed: u64, tiny: bool) -> Result<Workload, String> {
    match name {
        "serve_small" => Ok(serve_small(seed, tiny)),
        "serve_dag" => Ok(serve_dag(seed, tiny)),
        "ingest_mixed" => Ok(ingest_mixed(seed, tiny)),
        other => Err(format!(
            "unknown workload `{other}` (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn csr_body(m: &CsrMatrix) -> Vec<u8> {
    let join = |it: &mut dyn Iterator<Item = String>| it.collect::<Vec<_>>().join(",");
    format!(
        "{{\"nrows\":{},\"ncols\":{},\"row_ptr\":[{}],\"col_idx\":[{}]}}",
        m.nrows(),
        m.ncols(),
        join(&mut m.row_ptr().iter().map(|x| x.to_string())),
        join(&mut m.col_indices().iter().map(|x| x.to_string())),
    )
    .into_bytes()
}

fn matrix(name: String, csr: CsrMatrix) -> Matrix {
    let body = csr_body(&csr);
    Matrix {
        name,
        csr: Arc::new(csr),
        body,
    }
}

/// Converts a library DAG whose leaves carry catalog names into the wire
/// form, node for node, so both walks visit the same nodes in the same
/// order.
fn template(label: String, dag: ExprDag, root: NodeId, truth: Option<f64>) -> Template {
    let mut json = Vec::with_capacity(dag.len());
    for (_, node) in dag.iter() {
        match node {
            ExprNode::Leaf { name, .. } => {
                json.push(format!("{{\"leaf\":\"{name}\"}}"));
            }
            ExprNode::Op { op, inputs } => {
                let ins = inputs
                    .iter()
                    .map(|i| i.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                let extra = match op {
                    OpKind::Reshape { rows, cols } => format!(",\"rows\":{rows},\"cols\":{cols}"),
                    _ => String::new(),
                };
                json.push(format!(
                    "{{\"op\":\"{}\",\"inputs\":[{ins}]{extra}}}",
                    op.name()
                ));
            }
        }
    }
    let expected = estimate_root(&MncEstimator::new(), &dag, root).expect("library walk");
    let truth = truth.unwrap_or_else(|| {
        Evaluator::new()
            .sparsity(&dag, root)
            .expect("exact evaluation")
    });
    Template {
        label,
        json: format!("\"dag\":[{}],\"root\":{root}", json.join(",")),
        dag,
        root,
        expected,
        truth,
    }
}

/// Seeds the DAG structures of `serve_small` and `ingest_mixed`. Every
/// workload seed sends the same request mix; the seed varies the matrices.
const STRUCTURE_SEED: u64 = 0x5eed_da65;

/// A random DAG of `nops` operations whose first operation joins the two
/// matrices of `pair` (both of one square shape). At the full sizes, at
/// most one element-wise product per DAG keeps every true output at 100 or
/// more non-zeros, so relative errors stay finite and do not swing on a
/// handful of cells.
fn random_template(rng: &mut StdRng, label: String, pair: [&Matrix; 2], nops: usize) -> Template {
    let mut dag = ExprDag::new();
    let ids = pair.map(|m| dag.leaf(m.name.clone(), Arc::clone(&m.csr)));
    let mut cur = ids[0];
    let mut ew_mul = false;
    for i in 0..nops {
        let op = loop {
            let op = match rng.gen_range(0..4) {
                0 => OpKind::MatMul,
                1 => OpKind::EwAdd,
                2 => OpKind::EwMul,
                _ => OpKind::Transpose,
            };
            let repeat_mul = ew_mul && op == OpKind::EwMul;
            let unary_first = i == 0 && op.arity() == 1;
            if !(repeat_mul || unary_first) {
                break op;
            }
        };
        ew_mul |= op == OpKind::EwMul;
        let inputs = if op.arity() == 1 {
            vec![cur]
        } else if i == 0 {
            vec![cur, ids[1]]
        } else {
            vec![cur, ids[rng.gen_range(0..2usize)]]
        };
        cur = dag.op(op, &inputs).expect("square shapes agree");
    }
    template(label, dag, cur, None)
}

/// Two client sessions sending 1-4 op DAGs over six small square
/// matrices, two per size; no writes after set-up.
fn serve_small(seed: u64, tiny: bool) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_5a11);
    let sizes: [usize; 3] = if tiny {
        [20, 50, 100]
    } else {
        [200, 500, 1000]
    };
    // Sparser as they grow, so products stay cheap to evaluate exactly.
    let densities = [[0.05, 0.1], [0.02, 0.05], [0.01, 0.02]];
    let mut catalog = Vec::new();
    for (n, pair) in sizes.into_iter().zip(densities) {
        for (k, density) in pair.into_iter().enumerate() {
            catalog.push(matrix(
                format!("s{n}_{k}"),
                gen::rand_uniform(&mut rng, n, n, density),
            ));
        }
    }
    let mut structure = StdRng::seed_from_u64(STRUCTURE_SEED);
    let count = if tiny { 12 } else { 48 };
    let templates = (0..count)
        .map(|t| {
            let class = (t % 3) * 2;
            let first = structure.gen_range(0..2usize);
            let pair = [&catalog[class + first], &catalog[class + 1 - first]];
            random_template(&mut structure, format!("t{t}"), pair, 1 + (t / 3) % 4)
        })
        .collect();
    Workload {
        name: "serve_small",
        probe: Some(catalog.len() - 1),
        catalog,
        templates,
        roles: vec![
            Role::Estimator {
                client: "c0".into(),
                offset: 0,
            },
            Role::Estimator {
                client: "c1".into(),
                offset: count / 2,
            },
        ],
        writes: Vec::new(),
        scales: (0.0, 0.0),
    }
}

/// One client cycling through the SparsEst B1.1-B1.5 and B3.1-B3.5 use
/// cases over the in-repo dataset substitutes.
fn serve_dag(seed: u64, tiny: bool) -> Workload {
    let scales = if tiny {
        (SPARSEST_SCALE_TINY, SPARSEST_SCALE_TINY)
    } else {
        (SPARSEST_SCALE_B1, SPARSEST_SCALE_B3)
    };
    let mut cases = b1_suite(scales.0, seed);
    cases.extend(b3_suite(&Datasets::with_scale(seed, scales.1)));
    let mut catalog = Vec::new();
    let mut templates = Vec::new();
    for case in cases {
        // Rename every leaf to a catalog-unique `<case>.<leaf>` name.
        let mut dag = ExprDag::new();
        let mut map = Vec::with_capacity(case.dag.len());
        for (_, node) in case.dag.iter() {
            let id = match node {
                ExprNode::Leaf { name, matrix: m } => {
                    let name = format!("{}.{name}", case.id);
                    catalog.push(Matrix {
                        body: csr_body(m),
                        name: name.clone(),
                        csr: Arc::clone(m),
                    });
                    dag.leaf(name, Arc::clone(m))
                }
                ExprNode::Op { op, inputs } => {
                    let ins: Vec<NodeId> = inputs.iter().map(|&i| map[i]).collect();
                    dag.op(op.clone(), &ins).expect("shapes agree")
                }
            };
            map.push(id);
        }
        templates.push(template(case.id, dag, map[case.root], case.known_truth));
    }
    let probe = catalog.iter().position(|m| m.name == "B3.4.R");
    Workload {
        name: "serve_dag",
        catalog,
        templates,
        roles: vec![Role::Estimator {
            client: "dag".into(),
            offset: 0,
        }],
        writes: Vec::new(),
        probe,
        scales,
    }
}

/// One writer re-ingesting four rotated matrices of one shape and density
/// beside one reader estimating DAGs over rotated and stable names.
fn ingest_mixed(seed: u64, tiny: bool) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1263_57ed);
    let n = if tiny { 200 } else { 2000 };
    let mut catalog = Vec::new();
    for prefix in ["r", "s"] {
        for k in 0..4 {
            catalog.push(matrix(
                format!("{prefix}{k}"),
                gen::rand_uniform(&mut rng, n, n, 0.01),
            ));
        }
    }
    let mut structure = StdRng::seed_from_u64(STRUCTURE_SEED ^ 1);
    let count = if tiny { 6 } else { 16 };
    let templates = (0..count)
        .map(|t| {
            // One rotated and one stable matrix per template, so every
            // request references both kinds.
            let pair = [&catalog[t % 4], &catalog[4 + (t / 4) % 4]];
            random_template(&mut structure, format!("t{t}"), pair, 1 + t % 3)
        })
        .collect();
    Workload {
        name: "ingest_mixed",
        catalog,
        templates,
        roles: vec![
            Role::Writer,
            Role::Estimator {
                client: "reader".into(),
                offset: 0,
            },
        ],
        writes: (0..4).collect(),
        probe: None,
        scales: (0.0, 0.0),
    }
}
