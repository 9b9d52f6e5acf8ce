//! The client side: a one-request-per-connection HTTP/1.1 client, and the
//! `rpm-server` child process it talks to.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use rpm_server::{FsyncPolicy, PersistConfig, Server, ServerConfig};

/// Server worker threads: one, so the server and the single client
/// connection never keep more threads busy than the 2-core machine has.
pub const SERVER_THREADS: usize = 1;
/// Client connections: one closed loop.
pub const CLIENT_CONNECTIONS: usize = 1;
/// WAL fsync policy of every workload's server. The WAL is still written
/// on every append, but not synced: the data directory has to sit inside
/// the checkout, on a disk other machines share, and an fsync there costs
/// whatever the other tenants' I/O makes it cost.
pub const FSYNC: FsyncPolicy = FsyncPolicy::Never;

/// A parsed response.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Header lines as `(name, value)`.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Reply {
    /// First value of header `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// The value of `"key":"…"` or `"key":…` in a one-line JSON body.
    pub fn json_field(&self, key: &str) -> Option<&str> {
        let text = std::str::from_utf8(&self.body).ok()?;
        let start = text.find(&format!("\"{key}\":"))? + key.len() + 3;
        let rest = text[start..].trim_start_matches('"');
        let end = rest.find(['"', ',', '}']).unwrap_or(rest.len());
        Some(&rest[..end])
    }
}

/// Sends one request on a fresh connection and reads the whole reply (the
/// server closes every connection after answering).
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut raw = format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    stream.write_all(&raw)?;
    let mut buf = Vec::with_capacity(64 * 1024);
    stream.read_to_end(&mut buf)?;
    parse_reply(buf)
}

fn parse_reply(mut buf: Vec<u8>) -> std::io::Result<Reply> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let head_end =
        buf.windows(4).position(|w| w == b"\r\n\r\n").ok_or_else(|| bad("no header end"))?;
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("head not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    let body = buf.split_off(head_end + 4);
    Ok(Reply { status, headers, body })
}

/// `rpm-server` running in a child process (this binary's `serve` mode),
/// so its resident memory is its own. Dropping the handle kills and reaps
/// the child if [`ServerProcess::stop`] was not reached.
pub struct ServerProcess {
    child: Child,
    /// The server's HTTP address.
    pub addr: SocketAddr,
    data_dir: PathBuf,
}

impl ServerProcess {
    /// Starts a server over a fresh, empty `data_dir`.
    pub fn start(data_dir: &Path) -> std::io::Result<ServerProcess> {
        let _ = std::fs::remove_dir_all(data_dir);
        std::fs::create_dir_all(data_dir)?;
        // One malloc arena: which arena a short-lived thread picked made
        // the server's peak memory flip between two values from run to run.
        let mut child = Command::new(std::env::current_exe()?)
            .env("MALLOC_ARENA_MAX", "1")
            .arg("serve")
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        BufReader::new(stdout).read_line(&mut line)?;
        let addr = match line.trim().strip_prefix("listening ").and_then(|a| a.parse().ok()) {
            Some(addr) => addr,
            None => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(std::io::Error::other(format!("server did not start: {line:?}")));
            }
        };
        Ok(ServerProcess { child, addr, data_dir: data_dir.to_path_buf() })
    }

    /// Peak resident set of the server process, in MB.
    pub fn rss_peak_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Graceful shutdown (which flushes a final snapshot of every dataset),
    /// then waits for the process and removes its data directory.
    pub fn stop(mut self) -> std::io::Result<()> {
        request(self.addr, "POST", "/v1/shutdown", b"")?;
        self.child.wait()?;
        let _ = std::fs::remove_dir_all(&self.data_dir);
        Ok(())
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The server configuration of every workload.
pub fn server_config(data_dir: &Path) -> ServerConfig {
    let mut persist = PersistConfig::new(data_dir);
    persist.fsync = FSYNC;
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: SERVER_THREADS,
        persist: Some(persist),
        ..ServerConfig::default()
    }
}

/// Entry point of the `serve` child: bind, announce the address on
/// stdout, serve until `POST /v1/shutdown`.
pub fn serve(data_dir: &Path) -> std::io::Result<()> {
    let handle = Server::bind(server_config(data_dir))?;
    let mut out = std::io::stdout();
    writeln!(out, "listening {}", handle.addr())?;
    out.flush()?;
    handle.join();
    Ok(())
}
