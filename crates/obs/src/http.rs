//! Zero-dependency live HTTP exporter (`NAZAR_OBS_HTTP`).
//!
//! A single `std::net::TcpListener` thread serves read-only views of the
//! observability state, so a long `fleet_million` run can be watched from
//! `curl`/Prometheus while it executes:
//!
//! | route          | body                                              |
//! |----------------|---------------------------------------------------|
//! | `/metrics`     | Prometheus text exposition of the full registry   |
//! | `/series.json` | the telemetry ring as a JSON array                |
//! | `/spans.json`  | live per-span-name `(count, total_ns)` aggregate  |
//! | `/healthz`     | `ok` (liveness probe)                             |
//!
//! Everything served is assembled from atomics and mutex-guarded copies —
//! the exporter never mutates a metric, so it cannot perturb determinism.
//! It is off by default; set `NAZAR_OBS_HTTP=127.0.0.1:9898` (with
//! `NAZAR_OBS` enabled) to start it, or call [`start`] programmatically
//! (bind port 0 for an ephemeral test port).
//!
//! Requests are handled sequentially on the listener thread: the exporter
//! is a diagnostics endpoint for one or two human/scraper clients, not a
//! web server.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A running exporter; shuts the listener thread down on drop (see
/// [`HttpServer::detach`] for the fire-and-forget mode used by the
/// `NAZAR_OBS_HTTP` env path).
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Binds `bind` (e.g. `127.0.0.1:9898`, or port `0` for ephemeral) and
/// serves the observability routes from a background thread.
///
/// # Errors
///
/// Returns the bind/spawn error.
pub fn start(bind: &str) -> std::io::Result<HttpServer> {
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("nazar-obs-http".to_string())
        .spawn(move || serve_loop(&listener, &thread_stop))?;
    Ok(HttpServer {
        addr,
        stop,
        handle: Some(handle),
    })
}

/// Starts the exporter when `NAZAR_OBS_HTTP` names a bind address,
/// detaching it to run for the rest of the process. Called once from the
/// crate's state initialization, only when observability is enabled.
pub(crate) fn start_from_env() {
    let Ok(bind) = std::env::var("NAZAR_OBS_HTTP") else {
        return;
    };
    let bind = bind.trim().to_string();
    if bind.is_empty() {
        return;
    }
    match start(&bind) {
        Ok(server) => {
            eprintln!(
                "nazar-obs: http exporter serving /metrics on http://{}",
                server.local_addr()
            );
            server.detach();
        }
        Err(e) => eprintln!("nazar-obs: cannot start http exporter on {bind}: {e}"),
    }
}

impl HttpServer {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Leaves the listener thread running for the life of the process
    /// (the `NAZAR_OBS_HTTP` mode — there is no clean point to stop it).
    pub fn detach(mut self) {
        self.handle.take();
    }

    /// Stops the listener thread and waits for it to exit.
    pub fn shutdown(self) {
        // Drop runs the shutdown.
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

fn serve_loop(listener: &TcpListener, stop: &AtomicBool) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else {
            continue;
        };
        let _ = handle_conn(&mut stream);
    }
}

fn handle_conn(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    // Read until the end of the request head (we ignore any body).
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("/");
    let path = path.split('?').next().unwrap_or("/");
    let (status, ctype, body) = if method != "GET" && method != "HEAD" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        route(path)
    };
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    if method != "HEAD" {
        stream.write_all(body.as_bytes())?;
    }
    stream.flush()
}

fn route(path: &str) -> (&'static str, &'static str, String) {
    match path {
        "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            crate::sink::render_prometheus(),
        ),
        "/series.json" => (
            "200 OK",
            "application/json",
            crate::telemetry::series_json(),
        ),
        "/spans.json" => ("200 OK", "application/json", crate::profile::live_json()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::test_lock;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect exporter");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a head/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_all_routes() {
        let _guard = test_lock();
        crate::testing::enable_memory_sink();
        static C: crate::LazyCounter =
            crate::LazyCounter::new("nazar_test_http_total", "http unit counter", &[]);
        C.add(3);
        let server = start("127.0.0.1:0").expect("ephemeral bind");
        let addr = server.local_addr();
        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert_eq!(body, "ok\n");
        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(body.contains("nazar_test_http_total 3"));
        let (head, body) = get(addr, "/series.json");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(body.starts_with('[') && body.ends_with(']'));
        let (head, body) = get(addr, "/spans.json");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(body.starts_with('['));
        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));
        server.shutdown();
        crate::testing::disable();
    }
}
