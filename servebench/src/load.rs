//! The closed-loop load threads.
//!
//! Each role of the workload runs on its own thread and sends its next
//! request only after the previous one answered. Every estimate answer is
//! bit-compared with the library walk; a non-2xx answer, a wrong answer, a
//! reset or a timeout counts as failed and enters the latency sample at
//! [`FAILED_US`], above every answered request.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::client::{self, IO_TIMEOUT};
use crate::trace::Replay;
use crate::workload::{Role, Workload};

/// Latency recorded for a failed request, in µs: the client timeout.
const FAILED_US: f64 = IO_TIMEOUT.as_micros() as f64;

/// Fewest PUTs in the ingest probes of a run, so their p90 leaves at least
/// ten samples beyond it.
pub const PROBE_MIN_PUTS: u64 = 110;

/// The writer's pause after each answer: a client re-ingesting at a bounded
/// rate, so the reader is not blocked behind back-to-back PUTs.
const WRITER_PAUSE: Duration = Duration::from_millis(10);

pub struct Record {
    /// Estimate round trips in µs, per template.
    pub estimate_us: Vec<Vec<f64>>,
    /// PUT round trips in ms.
    pub put_ms: Vec<f64>,
    /// Estimates answered correctly.
    pub estimates_ok: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Answers with the right status but the wrong bits.
    pub wrong: u64,
    /// `429` sheds by the admission gate.
    pub shed: u64,
    /// The first answer to each template.
    pub served: Vec<Option<f64>>,
    pub elapsed_s: f64,
}

impl Record {
    pub fn new(templates: usize) -> Record {
        Record {
            estimate_us: vec![Vec::new(); templates],
            put_ms: Vec::new(),
            estimates_ok: 0,
            attempted: 0,
            failed: 0,
            wrong: 0,
            shed: 0,
            served: vec![None; templates],
            elapsed_s: 0.0,
        }
    }

    pub fn merge(&mut self, other: Record) {
        for (a, b) in self.estimate_us.iter_mut().zip(other.estimate_us) {
            a.extend(b);
        }
        for (a, b) in self.served.iter_mut().zip(other.served) {
            if a.is_none() {
                *a = b;
            }
        }
        self.put_ms.extend(other.put_ms);
        self.estimates_ok += other.estimates_ok;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.shed += other.shed;
        self.elapsed_s += other.elapsed_s;
    }

    /// Sends one PUT of catalog entry `idx`; returns its wall time in ns
    /// when the daemon answered 201.
    fn put(&mut self, w: &Workload, addr: SocketAddr, idx: usize) -> Option<f64> {
        let m = &w.catalog[idx];
        let t = Instant::now();
        let reply = client::request(addr, "PUT", &format!("/v1/matrices/{}", m.name), &m.body);
        let ns = t.elapsed().as_nanos() as f64;
        self.attempted += 1;
        match reply {
            Ok(r) if r.status == 201 => {
                self.put_ms.push(ns / 1e6);
                Some(ns)
            }
            other => {
                self.fail(other.ok().map(|r| r.status));
                self.put_ms.push(FAILED_US / 1e3);
                None
            }
        }
    }

    fn fail(&mut self, status: Option<u16>) {
        self.failed += 1;
        if status == Some(429) {
            self.shed += 1;
        }
    }
}

fn sparsity_of(body: &[u8]) -> Option<f64> {
    let text = std::str::from_utf8(body).ok()?;
    mnc_obs::json::parse(text).ok()?.get("sparsity")?.as_f64()
}

/// Runs every role of `w` against `addr` for `seconds`; with `replay`,
/// each answered request is also replayed in process, layer by layer.
pub fn run(w: &Workload, addr: SocketAddr, seconds: f64, replay: Option<&Replay>) -> Record {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let parts: Vec<Record> = std::thread::scope(|s| {
        let threads: Vec<_> = w
            .roles
            .iter()
            .map(|role| {
                s.spawn(move || match role {
                    Role::Estimator { client, offset } => {
                        estimator(w, addr, client, *offset, deadline, replay)
                    }
                    Role::Writer => writer(w, addr, deadline, replay),
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("load thread panicked"))
            .collect()
    });
    let mut rec = Record::new(w.templates.len());
    for part in parts {
        rec.merge(part);
    }
    rec.elapsed_s = start.elapsed().as_secs_f64();
    rec
}

fn estimator(
    w: &Workload,
    addr: SocketAddr,
    client: &str,
    offset: usize,
    deadline: Instant,
    replay: Option<&Replay>,
) -> Record {
    let bodies: Vec<Vec<u8>> = w
        .templates
        .iter()
        .map(|t| format!("{{\"client\":\"{client}\",{}}}", t.json).into_bytes())
        .collect();
    let mut rec = Record::new(bodies.len());
    let mut i = offset;
    while Instant::now() < deadline {
        let k = i % bodies.len();
        i += 1;
        let t = Instant::now();
        let reply = client::request(addr, "POST", "/v1/estimate", &bodies[k]);
        let ns = t.elapsed().as_nanos() as f64;
        rec.attempted += 1;
        let expected = w.templates[k].expected;
        match reply {
            Ok(r) if r.status == 200 => match sparsity_of(&r.body) {
                Some(s) if s.to_bits() == expected.to_bits() => {
                    rec.estimate_us[k].push(ns / 1e3);
                    rec.estimates_ok += 1;
                    rec.served[k].get_or_insert(s);
                    if let Some(rp) = replay {
                        rp.estimate(k, client, &bodies[k], ns);
                    }
                    continue;
                }
                _ => {
                    eprintln!(
                        "wrong answer to {}: {:?}, expected {expected:e}",
                        w.templates[k].label,
                        String::from_utf8_lossy(&r.body)
                    );
                    rec.wrong += 1;
                    rec.fail(Some(200));
                }
            },
            other => rec.fail(other.ok().map(|r| r.status)),
        }
        rec.estimate_us[k].push(FAILED_US);
    }
    rec
}

fn writer(w: &Workload, addr: SocketAddr, deadline: Instant, replay: Option<&Replay>) -> Record {
    let mut rec = Record::new(w.templates.len());
    for &idx in w.writes.iter().cycle() {
        if Instant::now() >= deadline {
            break;
        }
        if let (Some(ns), Some(rp)) = (rec.put(w, addr, idx), replay) {
            rp.put(idx, ns, true);
        }
        std::thread::sleep(WRITER_PAUSE);
    }
    rec
}

/// Re-ingests the workload's probe entry (same name, same bytes) for
/// `seconds`, and at least `min_puts` times, giving a workload without a
/// writer an ingest sample of one shape.
pub fn probe(
    w: &Workload,
    addr: SocketAddr,
    seconds: f64,
    min_puts: u64,
    replay: Option<&Replay>,
) -> Record {
    let mut rec = Record::new(w.templates.len());
    if let Some(idx) = w.probe {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        while rec.attempted < min_puts || Instant::now() < deadline {
            if let (Some(ns), Some(rp)) = (rec.put(w, addr, idx), replay) {
                rp.put(idx, ns, false);
            }
        }
    }
    rec
}

/// Spawns a daemon over `dir` and ingests the catalog. Returns the daemon,
/// the set-up time in seconds (spawn to the last 201) and each set-up
/// PUT's wall time in ns.
pub fn setup(
    bin: &std::path::Path,
    w: &Workload,
    dir: &std::path::Path,
) -> Result<(client::Daemon, f64, Vec<f64>), String> {
    let start = Instant::now();
    let daemon = client::Daemon::spawn(bin, dir)?;
    let mut rec = Record::new(0);
    let mut walls = Vec::with_capacity(w.catalog.len());
    for idx in 0..w.catalog.len() {
        let ns = rec
            .put(w, daemon.addr, idx)
            .ok_or_else(|| format!("set-up PUT of {} failed", w.catalog[idx].name))?;
        walls.push(ns);
    }
    Ok((daemon, start.elapsed().as_secs_f64(), walls))
}
