//! The daemon process and the load generator's HTTP/1.1 client.
//!
//! The client opens one connection per request, as the daemon closes every
//! connection after its response (`Connection: close`); the connection
//! count is kept so a keep-alive change shows in
//! `http.connections_per_request`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Every socket operation gives up after this long; a request that times
/// out counts as failed.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Connections the client has opened, for `http.connections_per_request`.
pub static CONNECTIONS: AtomicU64 = AtomicU64::new(0);

/// The daemon's flags besides `--catalog`: its shipped defaults (shadow
/// plane off, tracing and timeline on), an OS-assigned loopback port, and a
/// 16 MiB body limit, because the shipped 4 MiB is below the CSR JSON of
/// the largest `serve_dag` leaf (B1.1's dense 5000 x 300 embedding, about
/// 6 MB).
pub const DAEMON_ARGS: [&str; 4] = ["--addr", "127.0.0.1:0", "--max-body", "16777216"];

pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// One request on a fresh connection; the whole request goes out in one
/// write so no Nagle delay splits head from body.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    CONNECTIONS.fetch_add(1, Ordering::Relaxed);
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut msg = format!(
        "{method} {path} HTTP/1.1\r\nHost: servebench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    msg.extend_from_slice(body);
    stream.write_all(&msg)?;
    let mut raw = Vec::with_capacity(512);
    stream.read_to_end(&mut raw)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(bad)?;
    let status = std::str::from_utf8(&raw[..head_end])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    raw.drain(..head_end + 4);
    Ok(Reply { status, body: raw })
}

/// A running `mnc-served` process. Dropping it kills the process and
/// waits for it to end.
pub struct Daemon {
    child: Child,
    // Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub dir: PathBuf,
}

impl Daemon {
    /// Starts the daemon over `dir` and returns once `/healthz` answers
    /// 200.
    pub fn spawn(bin: &Path, dir: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .arg("--catalog")
            .arg(dir)
            .args(DAEMON_ARGS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.split("http://").nth(1))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            dir: dir.to_path_buf(),
        };
        daemon.addr =
            addr.ok_or_else(|| format!("daemon did not announce its address: {line:?}"))?;
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            if matches!(request(daemon.addr, "GET", "/healthz", b""), Ok(r) if r.status == 200) {
                return Ok(daemon);
            }
            if Instant::now() > deadline {
                return Err("daemon never became healthy".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Peak resident set (`VmHWM`) of the daemon, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read daemon status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in daemon status".into())
    }

    /// Bytes of `.mncs` sketches and `.mncx` sidecars in the catalog, in
    /// MiB.
    pub fn catalog_mb(&self) -> Result<f64, String> {
        let mut bytes = 0u64;
        for item in std::fs::read_dir(&self.dir).map_err(|e| format!("read catalog: {e}"))? {
            let item = item.map_err(|e| format!("read catalog: {e}"))?;
            let name = item.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".mncs") || name.ends_with(".mncx") {
                bytes += item.metadata().map_err(|e| format!("stat: {e}"))?.len();
            }
        }
        Ok(bytes as f64 / (1024.0 * 1024.0))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
