//! A dependency-free Prometheus scrape endpoint.
//!
//! `REGENT_METRICS=<path>` writes telemetry at process exit; this
//! module serves the same registry *while the process runs*. It is a
//! deliberately tiny HTTP/1.1 server on [`std::net::TcpListener`] —
//! no framework, no async runtime, in keeping with the workspace's
//! zero-dependency rule — because a scrape is one short-lived GET
//! returning a text body: a sequential accept loop on one thread is
//! both sufficient and robust.
//!
//! `GET /metrics` (or `/`) returns the always-on registry exposition
//! ([`MetricsRegistry::to_prometheus`](crate::metrics::MetricsRegistry::to_prometheus))
//! followed by the live plane's sliding-window gauges
//! ([`LivePlane::to_prometheus`](crate::live::LivePlane::to_prometheus)),
//! so one scrape carries both lifetime totals and the now-view.
//!
//! A binary enables it by handing [`start_at`] the process's
//! `REGENT_METRICS_ADDR=<host:port>` (port `0` picks a free port;
//! [`ScrapeServer::local_addr`] reports it). The kill switch
//! `REGENT_METRICS_OFF` disables the endpoint along with the registry,
//! the live plane, and the flight recorder.

use crate::live::live;
use crate::metrics::global;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Handle to a running scrape server. Dropping it stops the accept
/// loop and joins the serving thread.
pub struct ScrapeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Starts the scrape server on `addr` if there is one (a binary passes
/// its [`config::process`](crate::config::process)`().metrics_addr`)
/// and telemetry is on. Bind errors are reported to stderr and
/// swallowed — an unreachable metrics port must not take the service
/// down with it.
pub fn start_at(addr: Option<&str>) -> Option<ScrapeServer> {
    let addr = addr.filter(|_| global().is_enabled())?;
    match start(addr) {
        Ok(server) => Some(server),
        Err(e) => {
            eprintln!("scrape endpoint: cannot bind {addr}: {e}");
            None
        }
    }
}

/// Binds `addr` and serves scrapes on a background thread until the
/// returned handle is dropped.
fn start(addr: &str) -> std::io::Result<ScrapeServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("regent-scrape".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::Acquire) {
                    break;
                }
                if let Ok(stream) = conn {
                    // One scrape at a time: the body is cheap to build
                    // and Prometheus scrapes are serialized per target.
                    let _ = serve_one(stream);
                }
            }
        })?;
    Ok(ScrapeServer {
        addr,
        stop,
        thread: Some(thread),
    })
}

impl ScrapeServer {
    /// The bound address (resolves port `0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The exposition body served to scrapers: registry totals followed by
/// live-window gauges.
pub fn exposition() -> String {
    let mut body = global().to_prometheus();
    body.push_str(&live().to_prometheus());
    body
}

fn serve_one(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read until the end of the request head; scrapes carry no body.
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
            break;
        }
    }
    let request = String::from_utf8_lossy(&head);
    let mut parts = request.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = match (method, path) {
        ("GET", "/metrics") | ("GET", "/") => ("200 OK", exposition()),
        ("GET", _) => ("404 Not Found", String::from("not found\n")),
        _ => ("405 Method Not Allowed", String::from("GET only\n")),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// Minimal scrape client for `regent-prof --live` and tests: fetches
/// `http://addr/metrics` and returns the exposition body.
pub fn fetch(addr: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response")
    })?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(std::io::Error::other(format!("scrape failed: {status}")));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_exposition_and_routes() {
        let server = start("127.0.0.1:0").expect("bind ephemeral port");
        let addr = server.local_addr().to_string();
        // The body may be empty (no metrics recorded yet in this
        // process) but the round-trip must succeed.
        let body = fetch(&addr).expect("scrape /metrics");
        assert!(body.is_empty() || body.contains("regent_"));

        // Unknown paths 404 without killing the server.
        let mut s = TcpStream::connect(&addr).unwrap();
        write!(
            s,
            "GET /nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 404"));
        assert!(fetch(&addr).is_ok());
        drop(server);
        // After drop the port no longer accepts scrapes.
        assert!(fetch(&addr).is_err());
    }
}
