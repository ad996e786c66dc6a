//! The traced run's in-process replay.
//!
//! After its HTTP round trip, each answered request is replayed against an
//! in-process `EstimationService` over a copy of the daemon's catalog
//! (`Handler::handle` on the same bytes), and then once more layer by
//! layer: the benchmark times the public function each layer exposes, so no
//! tracing sits inside the program. The transport is the client wall time
//! minus `Handler::handle`; the layer times are self times (the walk's
//! excludes the core calls it makes). What transport and layers together
//! do not cover of the client wall time is `trace.residual_pct`.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mnc_core::MncSketch;
use mnc_estimators::mnc::MncSynopsis;
use mnc_estimators::{MncEstimator, SparsityEstimator, Synopsis};
use mnc_expr::{EstimationContext, SessionPool, SessionPoolConfig};
use mnc_obsd::{Handler, Request};
use mnc_served::{proto, walk, DagSpec, EstimationService, NodeSpec, ServedConfig};
use mnc_served::{ShadowSidecar, SynopsisCatalog};

use crate::stats;
use crate::workload::Workload;

/// Per-layer latency metrics: sample name, quantile, unit.
const QUANTILES: [(&str, f64, &str); 15] = [
    ("http.transport_us", 0.5, "us"),
    ("service.handle_us", 0.5, "us"),
    ("proto.parse_us", 0.5, "us"),
    ("proto.render_us", 0.5, "us"),
    ("proto.csr_parse_ms", 0.5, "ms"),
    ("catalog.lookup_us", 0.5, "us"),
    ("catalog.put_ms", 0.5, "ms"),
    ("catalog.put_ms", 0.9, "ms"),
    ("sidecar.build_ms", 0.5, "ms"),
    ("core.build_ms", 0.5, "ms"),
    ("core.propagate_us", 0.5, "us"),
    ("core.estimate_us", 0.5, "us"),
    ("sessions.wrap_us", 0.5, "us"),
    ("walk.estimate_us", 0.5, "us"),
    ("context.estimate_root_us", 0.5, "us"),
];

/// Layers whose self time is attributed, in report order.
const LAYERS: [&str; 7] = [
    "http", "proto", "catalog", "sessions", "walk", "core", "sidecar",
];

#[derive(Default)]
struct Acc {
    /// Samples per metric, per request key (template or catalog index), so
    /// percentiles never mix request sizes.
    samples: BTreeMap<&'static str, BTreeMap<usize, Vec<f64>>>,
    /// Self time per (request kind, layer), and client wall time per kind.
    self_ns: BTreeMap<(&'static str, &'static str), f64>,
    wall_ns: BTreeMap<&'static str, f64>,
    hits: u64,
    misses: u64,
    catalog_bytes: Vec<f64>,
    sidecar_bytes: Vec<f64>,
    mismatches: u64,
}

impl Acc {
    fn sample(&mut self, name: &'static str, key: usize, v: f64) {
        self.samples
            .entry(name)
            .or_default()
            .entry(key)
            .or_default()
            .push(v);
    }

    fn attribute(&mut self, kind: &'static str, layer: &'static str, ns: f64) {
        debug_assert!(LAYERS.contains(&layer));
        *self.self_ns.entry((kind, layer)).or_default() += ns;
    }

    fn check(&mut self, got: f64, want: f64) {
        if got.to_bits() != want.to_bits() {
            self.mismatches += 1;
        }
    }

    fn merge(&mut self, other: Acc) {
        for (name, by_key) in other.samples {
            let mine = self.samples.entry(name).or_default();
            for (key, xs) in by_key {
                mine.entry(key).or_default().extend(xs);
            }
        }
        for (key, ns) in other.self_ns {
            *self.self_ns.entry(key).or_default() += ns;
        }
        for (kind, ns) in other.wall_ns {
            *self.wall_ns.entry(kind).or_default() += ns;
        }
        self.hits += other.hits;
        self.misses += other.misses;
        self.catalog_bytes.extend(other.catalog_bytes);
        self.sidecar_bytes.extend(other.sidecar_bytes);
        self.mismatches += other.mismatches;
    }

    /// Per-key p50 (or p90), averaged across keys; 0 when the layer never
    /// ran on this workload. The mean is arithmetic because a difference of
    /// two timings (the transport) can come out negative.
    fn quantile(&self, name: &str, q: f64) -> f64 {
        let Some(by_key) = self.samples.get(name) else {
            return 0.0;
        };
        let per_key: Vec<f64> = by_key
            .values()
            .map(|xs| {
                let mut xs = xs.clone();
                xs.sort_by(f64::total_cmp);
                stats::quantile(&xs, q)
            })
            .collect();
        per_key.iter().sum::<f64>() / per_key.len() as f64
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64)
}

fn request(method: &str, path: String, body: &[u8]) -> Request {
    Request {
        method: method.into(),
        path,
        query: String::new(),
        headers: vec![("Content-Type".into(), "application/json".into())],
        body: body.to_vec(),
    }
}

pub struct Replay<'w> {
    w: &'w Workload,
    svc: Arc<EstimationService>,
    /// The benchmark's own catalog copy, for lookups and `put_with_shadow`.
    catalog: Mutex<SynopsisCatalog>,
    /// The benchmark's own session pool, replayed in PUT/estimate order.
    sessions: Mutex<SessionPool>,
    /// One library session per template, its leaf synopses warm.
    contexts: Vec<Mutex<EstimationContext>>,
    acc: Mutex<Acc>,
}

impl<'w> Replay<'w> {
    /// Opens an in-process service over `svc_dir` and the benchmark's
    /// catalog over `own_dir`, both copies of the daemon's catalog.
    pub fn new(w: &'w Workload, svc_dir: &Path, own_dir: &Path) -> Result<Replay<'w>, String> {
        let svc = EstimationService::new(ServedConfig::new(svc_dir)).map_err(|e| e.to_string())?;
        let catalog = SynopsisCatalog::open(own_dir).map_err(|e| e.to_string())?;
        let contexts = w
            .templates
            .iter()
            .map(|t| {
                let mut ctx = EstimationContext::new();
                ctx.estimate_root(&MncEstimator::new(), &t.dag, t.root)
                    .map_err(|e| e.to_string())?;
                Ok(Mutex::new(ctx))
            })
            .collect::<Result<_, String>>()?;
        Ok(Replay {
            w,
            svc,
            catalog: Mutex::new(catalog),
            sessions: Mutex::new(SessionPool::new(SessionPoolConfig::default())),
            contexts,
            acc: Mutex::new(Acc::default()),
        })
    }

    fn commit(&self, a: Acc) {
        self.acc.lock().expect("replay accumulator").merge(a);
    }

    /// Replays estimate template `k` sent by `client` as `body`, whose
    /// HTTP round trip took `wall_ns`.
    pub fn estimate(&self, k: usize, client: &str, body: &[u8], wall_ns: f64) {
        let tpl = &self.w.templates[k];
        let mut a = Acc::default();
        let req = request("POST", "/v1/estimate".into(), body);
        let (resp, handle) = timed(|| self.svc.handle(&req));
        if resp.status != 200 {
            a.mismatches += 1;
        }
        let (parsed, parse) = timed(|| proto::parse_estimate_request(body));
        let Ok(parsed) = parsed else {
            a.mismatches += 1;
            return self.commit(a);
        };
        let dag = &parsed.dag;
        let (sketches, lookup) = timed(|| {
            let cat = self.catalog.lock().expect("catalog lock");
            dag.nodes
                .iter()
                .map(|n| match n {
                    NodeSpec::Leaf(name) => cat.sketch(name),
                    NodeSpec::Op { .. } => None,
                })
                .collect::<Vec<Option<Arc<MncSketch>>>>()
        });
        let est = MncEstimator::new();
        let ((leaves, hits, misses), wrap) = timed(|| {
            let mut pool = self.sessions.lock().expect("sessions lock");
            let ctx =
                pool.session_init_at(client, Instant::now(), |c| c.with_obsd(self.svc.daemon()));
            let before = (ctx.stats().cache_hits, ctx.stats().cache_misses);
            let leaves: Vec<Option<Arc<Synopsis>>> = dag
                .nodes
                .iter()
                .zip(&sketches)
                .map(|(n, sk)| match (n, sk) {
                    (NodeSpec::Leaf(name), Some(sk)) => ctx
                        .named_synopsis(&est, name, || {
                            Ok(Synopsis::Mnc(MncSynopsis {
                                sketch: (**sk).clone(),
                            }))
                        })
                        .ok(),
                    _ => None,
                })
                .collect();
            let s = ctx.stats();
            (leaves, s.cache_hits - before.0, s.cache_misses - before.1)
        });
        let (out, walk_ns) = timed(|| walk::estimate_dag(&est, dag, &leaves, false));
        let Ok(out) = out else {
            a.mismatches += 1;
            return self.commit(a);
        };
        let (core_sparsity, propagate_ns, estimate_ns) = core_walk(&mut a, k, dag, &leaves);
        let (_, render) = timed(|| proto::estimate_json(&out));
        let clone = tpl.dag.clone();
        let (ctx_sparsity, ctx_ns) = {
            let mut ctx = self.contexts[k].lock().expect("context lock");
            timed(|| ctx.estimate_root(&MncEstimator::new(), &clone, tpl.root))
        };

        a.check(out.sparsity, tpl.expected);
        a.check(core_sparsity, tpl.expected);
        a.check(ctx_sparsity.unwrap_or(f64::NAN), tpl.expected);
        a.hits += hits;
        a.misses += misses;
        a.sample("http.transport_us", k, (wall_ns - handle) / 1e3);
        a.sample("service.handle_us", k, handle / 1e3);
        a.sample("proto.parse_us", k, parse / 1e3);
        a.sample("proto.render_us", k, render / 1e3);
        a.sample("catalog.lookup_us", k, lookup / 1e3);
        a.sample("sessions.wrap_us", k, wrap / 1e3);
        a.sample("walk.estimate_us", k, walk_ns / 1e3);
        a.sample("context.estimate_root_us", k, ctx_ns / 1e3);
        a.wall_ns.insert("estimate", wall_ns);
        a.attribute("estimate", "http", wall_ns - handle);
        a.attribute("estimate", "proto", parse + render);
        a.attribute("estimate", "catalog", lookup);
        a.attribute("estimate", "sessions", wrap);
        a.attribute("estimate", "walk", walk_ns - propagate_ns - estimate_ns);
        a.attribute("estimate", "core", propagate_ns + estimate_ns);
        self.commit(a);
    }

    /// Replays a PUT of catalog entry `idx` whose HTTP round trip took
    /// `wall_ns`. Only PUTs of the timed traffic (`timed_traffic`), not
    /// set-up or probe ingests, enter the self-time shares.
    pub fn put(&self, idx: usize, wall_ns: f64, timed_traffic: bool) {
        let m = &self.w.catalog[idx];
        let mut a = Acc::default();
        let req = request("PUT", format!("/v1/matrices/{}", m.name), &m.body);
        let (resp, handle) = timed(|| self.svc.handle(&req));
        if resp.status != 201 {
            a.mismatches += 1;
        }
        let (csr, parse) = timed(|| proto::parse_csr_body(&m.body));
        let Ok(csr) = csr.map(Arc::new) else {
            a.mismatches += 1;
            return self.commit(a);
        };
        let (syn, build) = timed(|| MncEstimator::new().build(&csr));
        let (sidecar, sidecar_ns) = timed(|| ShadowSidecar::build(&csr, false));
        a.sidecar_bytes.push(sidecar.encoded_len() as f64);
        let Ok(Synopsis::Mnc(syn)) = syn else {
            a.mismatches += 1;
            return self.commit(a);
        };
        let (file_bytes, put) = timed(|| {
            let mut cat = self.catalog.lock().expect("catalog lock");
            cat.put_with_shadow(&m.name, Arc::new(syn.sketch), sidecar)
                .map(|e| e.file_bytes)
        });
        match file_bytes {
            Ok(b) => a.catalog_bytes.push(b as f64),
            Err(_) => a.mismatches += 1,
        }
        let (_, clear) = timed(|| self.sessions.lock().expect("sessions lock").clear());

        a.sample("proto.csr_parse_ms", idx, parse / 1e6);
        a.sample("core.build_ms", idx, build / 1e6);
        a.sample("sidecar.build_ms", idx, sidecar_ns / 1e6);
        a.sample("catalog.put_ms", idx, put / 1e6);
        if timed_traffic {
            a.wall_ns.insert("put", wall_ns);
            a.attribute("put", "http", wall_ns - handle);
            a.attribute("put", "proto", parse);
            a.attribute("put", "core", build);
            a.attribute("put", "sidecar", sidecar_ns);
            a.attribute("put", "catalog", put);
            a.attribute("put", "sessions", clear);
        }
        self.commit(a);
    }

    /// Answers that disagreed with the library walk, or requests the
    /// in-process service refused.
    pub fn mismatches(&self) -> u64 {
        self.acc.lock().expect("replay accumulator").mismatches
    }

    /// The per-layer metrics, as `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let a = self.acc.lock().expect("replay accumulator");
        let mean = |xs: &[f64]| {
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        let hit_ratio = if a.hits + a.misses == 0 {
            0.0
        } else {
            a.hits as f64 / (a.hits + a.misses) as f64
        };
        let mut out: Vec<(String, f64, &'static str)> = QUANTILES
            .iter()
            .map(|&(name, q, unit)| {
                let label = format!("{name}.p{}", (q * 100.0).round());
                (label, a.quantile(name, q), unit)
            })
            .collect();
        out.push((
            "catalog.bytes_per_entry".into(),
            mean(&a.catalog_bytes),
            "bytes",
        ));
        out.push((
            "sidecar.bytes_per_entry".into(),
            mean(&a.sidecar_bytes),
            "bytes",
        ));
        out.push(("sessions.hit_ratio".into(), hit_ratio, "ratio"));
        // Shares of the client wall time of the timed traffic, all request
        // kinds together; the comment line splits them by kind.
        let mut by_kind = Vec::new();
        for (&kind, &wall) in &a.wall_ns {
            let shares: Vec<String> = LAYERS
                .iter()
                .map(|l| {
                    let ns = a.self_ns.get(&(kind, *l)).copied().unwrap_or(0.0);
                    format!("{l}={:.1}", 100.0 * ns / wall)
                })
                .collect();
            by_kind.push(format!("{kind}: {}", shares.join(" ")));
        }
        println!(
            "# self-time shares of client wall (%), {}",
            by_kind.join("; ")
        );
        let wall = a.wall_ns.values().sum::<f64>().max(1.0);
        let mut covered = 0.0;
        for layer in LAYERS {
            let ns = a
                .self_ns
                .iter()
                .filter(|((_, l), _)| *l == layer)
                .fold(0.0, |sum, (_, ns)| sum + ns);
            covered += ns;
            out.push((format!("share.{layer}_pct"), 100.0 * ns / wall, "%"));
        }
        out.push((
            "trace.residual_pct".into(),
            100.0 * (wall - covered) / wall,
            "%",
        ));
        out
    }
}

/// The service walk's schedule (depth-first, memoized, root estimated
/// from its inputs) with each `MncEstimator` call timed; returns the
/// root's sparsity and the summed propagate and estimate times.
fn core_walk(
    a: &mut Acc,
    k: usize,
    dag: &DagSpec,
    leaves: &[Option<Arc<Synopsis>>],
) -> (f64, f64, f64) {
    fn materialize(
        est: &MncEstimator,
        dag: &DagSpec,
        leaves: &[Option<Arc<Synopsis>>],
        i: usize,
        memo: &mut [Option<Arc<Synopsis>>],
        ns: &mut Vec<f64>,
    ) -> Option<Arc<Synopsis>> {
        if memo[i].is_none() {
            memo[i] = match &dag.nodes[i] {
                NodeSpec::Leaf(_) => leaves[i].clone(),
                NodeSpec::Op { op, inputs } => {
                    for &j in inputs {
                        materialize(est, dag, leaves, j, memo, ns)?;
                    }
                    let ins: Vec<&Synopsis> = inputs
                        .iter()
                        .map(|&j| &**memo[j].as_ref().expect("materialized"))
                        .collect();
                    let (syn, t) = timed(|| est.propagate(op, &ins));
                    ns.push(t);
                    Some(Arc::new(syn.ok()?))
                }
            };
        }
        memo[i].clone()
    }

    let est = MncEstimator::new();
    let mut memo = vec![None; dag.nodes.len()];
    let mut propagate = Vec::new();
    let (sparsity, estimate_ns) = match &dag.nodes[dag.root] {
        NodeSpec::Leaf(_) => (
            leaves[dag.root].as_ref().map_or(f64::NAN, |s| s.sparsity()),
            0.0,
        ),
        NodeSpec::Op { op, inputs } => {
            let ins: Option<Vec<Arc<Synopsis>>> = inputs
                .iter()
                .map(|&j| materialize(&est, dag, leaves, j, &mut memo, &mut propagate))
                .collect();
            match ins {
                Some(ins) => {
                    let refs: Vec<&Synopsis> = ins.iter().map(|s| &**s).collect();
                    let (s, t) = timed(|| est.estimate(op, &refs));
                    a.sample("core.estimate_us", k, t / 1e3);
                    (s.unwrap_or(f64::NAN), t)
                }
                None => (f64::NAN, 0.0),
            }
        }
    };
    for &t in &propagate {
        a.sample("core.propagate_us", k, t / 1e3);
    }
    (sparsity, propagate.iter().sum(), estimate_ns)
}
