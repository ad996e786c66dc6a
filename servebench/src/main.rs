//! `servebench` — closed-loop end-to-end benchmark of the `mnc-served`
//! daemon.
//!
//! ```text
//! servebench --workload <serve_small|serve_dag|ingest_mixed> --seed N
//!            --seconds S --trace <0|1> --daemon PATH [--tiny]
//! ```
//!
//! Generates the workload's inputs from the seed, starts the daemon with
//! its shipped defaults, ingests the catalog, discards a warm-up interval
//! and drives the workload's load threads for `--seconds`. With `--trace 0`
//! it prints the end-to-end metrics; with `--trace 1` it splits the time
//! between an untraced interval and a traced one whose requests are also
//! replayed in process, and prints the per-layer metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. `--tiny` shrinks every input (the self-test). See README.md.

mod client;
mod load;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mnc_obs::accuracy::symmetric_relative_error;

use crate::workload::Workload;

/// Daemons per untraced run, each set up, measured and stopped in turn;
/// `setup_s` and `peak_rss_mb` are their medians.
const SETUPS: usize = 3;
/// Warm-up before the timed interval, discarded.
const WARMUP_S: f64 = 1.0;
/// Length of one measurement segment of the timed interval.
const SEGMENT_S: f64 = 2.0;
/// Segments during which the hypervisor took more of the CPU than this are
/// left out of the estimate metrics (see [`Segment::unstolen`]).
const STEAL_LIMIT_PCT: f64 = 2.0;
/// Length of the ingest probes (one after every segment), as a share of the
/// timed interval.
const PROBE_SHARE: f64 = 0.05;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut daemon = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad("must be in (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--daemon" => daemon = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let need = |name: &str| format!("missing {name}");
    Ok(Args {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds.ok_or_else(|| need("--seconds"))?,
        trace: trace.ok_or_else(|| need("--trace"))?,
        daemon: daemon.ok_or_else(|| need("--daemon"))?,
        tiny,
    })
}

/// Scratch space for catalogs, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<WorkDir, String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for item in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let item = item.map_err(|e| e.to_string())?;
        std::fs::copy(item.path(), to.join(item.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The commit being measured, read from `.git` in the working directory
/// without looking above it; "unknown" outside a git checkout.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(r)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(String::from))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn json(&self) -> Result<String, String> {
        let mut parts = Vec::new();
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            parts.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            parts.join(",")
        ))
    }
}

/// The end-to-end run: on each daemon in turn, the set-up (timed), a
/// warm-up and its share of the timed interval, each segment of it followed
/// (without a writer) by an ingest probe.
fn untraced(args: &Args, w: &Workload, work: &WorkDir) -> Result<Outcome, String> {
    // The timed interval and the probe are split over the set-up daemons,
    // one alive at a time, so no single process's memory layout or thread
    // placement decides a run. Each daemon's share is cut into segments;
    // the estimate metrics are medians over the segments the host did not
    // steal CPU from, and the ingest metrics percentiles of those segments'
    // PUTs.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut rss_mb = Vec::with_capacity(SETUPS);
    let mut catalog_mb = 0.0;
    let mut rec = load::Record::new(w.templates.len());
    let mut probe = load::Record::new(w.templates.len());
    let mut segs: Vec<Segment> = Vec::new();
    let share = args.seconds / SETUPS as f64;
    let segments = (share / SEGMENT_S).round().max(1.0);
    // Enough probe PUTs after every segment that a third of the segments
    // still hold PROBE_MIN_PUTS.
    let min_puts = (3 * load::PROBE_MIN_PUTS).div_ceil(SETUPS as u64 * segments as u64);
    for k in 0..SETUPS {
        let (daemon, secs, _) = load::setup(&args.daemon, w, &work.0.join(format!("catalog{k}")))?;
        setup_s.push(secs);
        load::run(w, daemon.addr, WARMUP_S.min(share), None);
        for _ in 0..segments as usize {
            let steal = CpuSteal::now();
            let mut seg = load::run(w, daemon.addr, share / segments, None);
            let p = load::probe(
                w,
                daemon.addr,
                share * PROBE_SHARE / segments,
                min_puts,
                None,
            );
            let (p50, p90, _, fewest) = stats::per_template(&mut seg.estimate_us);
            segs.push(Segment {
                steal_pct: steal.share_since(),
                p50,
                p90,
                rps: seg.estimates_ok as f64 / seg.elapsed_s,
                fewest,
                puts: if w.writes.is_empty() {
                    p.put_ms.clone()
                } else {
                    seg.put_ms.clone()
                },
            });
            rec.merge(seg);
            probe.merge(p);
        }
        rss_mb.push(daemon.peak_rss_mb()?);
        catalog_mb = daemon.catalog_mb()?;
        let dir = daemon.dir.clone();
        drop(daemon);
        let _ = std::fs::remove_dir_all(dir);
    }
    let all = segs.len();
    let steal_pct: Vec<String> = segs.iter().map(|s| format!("{:.1}", s.steal_pct)).collect();
    let kept = Segment::unstolen(segs);
    let fewest = kept.iter().map(|s| s.fewest).min().unwrap_or(0);
    let (mut est_p50, mut est_p90, mut est_rps): (Vec<f64>, Vec<f64>, Vec<f64>) = (
        kept.iter().map(|s| s.p50).collect(),
        kept.iter().map(|s| s.p90).collect(),
        kept.iter().map(|s| s.rps).collect(),
    );
    let mut puts: Vec<f64> = kept.iter().flat_map(|s| s.puts.iter().copied()).collect();
    let (ing_p50, ing_p90) = stats::p50_p90(&mut puts);

    let geo_error = stats::geo_mean(
        w.templates
            .iter()
            .zip(&rec.served)
            .map(|(t, s)| symmetric_relative_error(t.truth, s.unwrap_or(t.expected))),
    );
    let per_template: Vec<String> = w
        .templates
        .iter()
        .zip(&mut rec.estimate_us)
        .filter(|(_, xs)| !xs.is_empty())
        .map(|(t, xs)| format!("{}={:.1}", t.label, stats::p50(xs)))
        .collect();
    println!(
        "# estimate p50 per template (us): {}",
        per_template.join(" ")
    );
    let n_est: usize = rec.estimate_us.iter().map(Vec::len).sum();
    let over_100ms = rec
        .estimate_us
        .iter()
        .flatten()
        .filter(|&&us| us > 1e5)
        .count();
    println!(
        "# estimates: {n_est} in {all} segments, fewest per template and kept segment \
         {fewest} (p90 leaves {} beyond it), {over_100ms} over 100 ms; ingests in kept \
         segments: {} (p90 leaves {} beyond it); segments kept: {} of {all}; cpu steal per \
         segment (%): {}",
        fewest - (0.9 * fewest as f64).ceil() as usize,
        puts.len(),
        puts.len() - (0.9 * puts.len() as f64).ceil() as usize,
        kept.len(),
        steal_pct.join(" "),
    );
    Ok(Outcome {
        correct: rec.wrong == 0 && probe.wrong == 0,
        attempted: rec.attempted + probe.attempted,
        failed: rec.failed + probe.failed,
        metrics: vec![
            ("setup_s".into(), stats::p50(&mut setup_s), "s"),
            ("estimate_p50_us".into(), stats::p50(&mut est_p50), "us"),
            ("estimate_p90_us".into(), stats::p50(&mut est_p90), "us"),
            ("estimate_rps".into(), stats::p50(&mut est_rps), "1/s"),
            ("ingest_p50_ms".into(), ing_p50, "ms"),
            ("ingest_p90_ms".into(), ing_p90, "ms"),
            ("mnc_geo_error".into(), geo_error, "ratio"),
            ("peak_rss_mb".into(), stats::p50(&mut rss_mb), "MiB"),
            ("catalog_mb".into(), catalog_mb, "MiB"),
        ],
    })
}

/// One measurement segment of an untraced run.
struct Segment {
    /// Share of the machine's CPU time the hypervisor took (`steal` in
    /// `/proc/stat`) while the segment ran.
    steal_pct: f64,
    p50: f64,
    p90: f64,
    rps: f64,
    /// Fewest samples of any template in the segment.
    fewest: usize,
    /// PUT round trips in ms: the writer's, or the probe's after the
    /// segment.
    puts: Vec<f64>,
}

impl Segment {
    /// The segments measured while the host took at most
    /// [`STEAL_LIMIT_PCT`] of the CPU; when fewer than a third qualify, the
    /// third with the least steal. Steal is measured outside the program,
    /// so this drops time the host took from the benchmark, never time the
    /// program spent.
    fn unstolen(mut segs: Vec<Segment>) -> Vec<Segment> {
        let least = segs.len().div_ceil(3);
        segs.sort_by(|a, b| a.steal_pct.total_cmp(&b.steal_pct));
        let clean = segs
            .iter()
            .take_while(|s| s.steal_pct <= STEAL_LIMIT_PCT)
            .count();
        segs.truncate(clean.max(least));
        segs
    }
}

/// Reads of the machine's CPU counters, to tell how much CPU time the
/// hypervisor took (`steal` in `/proc/stat`) over an interval.
struct CpuSteal(Option<(u64, u64)>);

impl CpuSteal {
    fn read() -> Option<(u64, u64)> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let ticks: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .filter_map(|t| t.parse().ok())
            .collect();
        Some((*ticks.get(7)?, ticks.iter().sum()))
    }

    fn now() -> CpuSteal {
        CpuSteal(Self::read())
    }

    /// Steal since [`Self::now`] as a percentage of all CPU time; 0 where
    /// the counters are unavailable.
    fn share_since(&self) -> f64 {
        match (self.0, Self::read()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                100.0 * (s1 - s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}

/// The traced run: one set-up, an untraced interval, then a traced one
/// whose requests are replayed in process layer by layer.
fn traced(args: &Args, w: &Workload, work: &WorkDir) -> Result<Outcome, String> {
    let (daemon, _, setup_walls) = load::setup(&args.daemon, w, &work.0.join("catalog"))?;
    let (svc_dir, own_dir) = (work.0.join("service"), work.0.join("own"));
    copy_dir(&daemon.dir, &svc_dir)?;
    copy_dir(&daemon.dir, &own_dir)?;
    let replay = trace::Replay::new(w, &svc_dir, &own_dir)?;
    for (idx, &ns) in setup_walls.iter().enumerate() {
        replay.put(idx, ns, false);
    }
    load::run(w, daemon.addr, WARMUP_S.min(args.seconds), None);
    let half = args.seconds / 2.0;
    let mut plain = load::run(w, daemon.addr, half, None);
    let connections = client::CONNECTIONS.load(std::sync::atomic::Ordering::Relaxed);
    let mut traced = load::run(w, daemon.addr, half, Some(&replay));
    let probe = load::probe(
        w,
        daemon.addr,
        args.seconds * PROBE_SHARE,
        load::PROBE_MIN_PUTS,
        Some(&replay),
    );
    let connections = client::CONNECTIONS.load(std::sync::atomic::Ordering::Relaxed) - connections;
    drop(daemon);

    let plain_p50 = stats::per_template(&mut plain.estimate_us).0;
    let traced_p50 = stats::per_template(&mut traced.estimate_us).0;
    let requests = traced.attempted + probe.attempted;
    let mut metrics = replay.metrics();
    metrics.push((
        "http.connections_per_request".into(),
        connections as f64 / requests.max(1) as f64,
        "ratio",
    ));
    metrics.push((
        "gate.shed".into(),
        (plain.shed + traced.shed + probe.shed) as f64,
        "count",
    ));
    metrics.push((
        "trace.overhead_pct".into(),
        100.0 * (traced_p50 - plain_p50) / plain_p50,
        "%",
    ));
    let mismatches = replay.mismatches();
    if mismatches > 0 {
        eprintln!("{mismatches} in-process answers disagreed with the library walk");
    }
    Ok(Outcome {
        correct: mismatches == 0 && plain.wrong + traced.wrong + probe.wrong == 0,
        attempted: plain.attempted + requests,
        failed: plain.failed + traced.failed + probe.failed,
        metrics,
    })
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let started = std::time::Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let w = workload::generate(&args.workload, args.seed, args.tiny)?;
    if w.roles.len() > nproc {
        return Err(format!(
            "{} needs {} load threads but only {nproc} CPUs are available",
            w.name,
            w.roles.len()
        ));
    }
    println!(
        "# servebench {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"sparsest_scale_b1\":{},\"sparsest_scale_b3\":{},\"load_threads\":{},\"nproc\":{nproc},\"tiny\":{},\
         \"daemon\":\"mnc-served --catalog <dir> {}\",\"git_sha\":\"{}\",\"setups\":{SETUPS},\
         \"warmup_s\":{WARMUP_S}}}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.scales.0,
        w.scales.1,
        w.roles.len(),
        args.tiny,
        client::DAEMON_ARGS.join(" "),
        git_sha(),
    );
    println!(
        "# inputs generated in {:.2} s",
        started.elapsed().as_secs_f64()
    );
    let work = WorkDir::new()?;
    let outcome = if args.trace {
        traced(&args, &w, &work)?
    } else {
        untraced(&args, &w, &work)?
    };
    outcome.json()
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
