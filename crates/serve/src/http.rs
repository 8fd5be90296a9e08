//! Minimal HTTP/1.1 surface for Prometheus scrapes.
//!
//! The daemon's primary protocol is JSONL-over-TCP, but scrapers speak
//! HTTP — so `match-serve` optionally binds a *side port* that answers
//! exactly one route, `GET /metrics`, with the text exposition render
//! of the live registry. This is not a web server: one thread accepts,
//! reads the request head, writes one response, and closes. A scrape
//! every few seconds is the design load.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use match_metrics::Metrics;

use crate::sys::{self, PollFd, POLLIN};

/// Content type mandated by the Prometheus text exposition format.
const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Longest wait for a scrape before `stop()` is checked again; this
/// bounds how long shutdown waits for the scrape thread.
const STOP_POLL: Duration = Duration::from_millis(10);

/// Serve scrapes until `stop()` returns true. The listener must already
/// be bound; it is switched to non-blocking, and the loop waits on its
/// readiness, so a scrape is accepted as soon as it connects.
pub(crate) fn serve_scrapes(listener: TcpListener, metrics: Metrics, stop: impl Fn() -> bool) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    loop {
        if stop() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => handle_scrape(stream, &metrics),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if sys::poll(&mut [PollFd::new(&listener, POLLIN)], Some(STOP_POLL)).is_err() {
                    thread::sleep(STOP_POLL);
                }
            }
            Err(_) => break,
        }
    }
}

/// Answer one HTTP exchange and close the connection.
fn handle_scrape(stream: TcpStream, metrics: &Metrics) {
    // A stuck client must not wedge the scrape thread.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain the header block so the client sees a clean close.
    let mut header = String::new();
    loop {
        header.clear();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header == "\r\n" || header == "\n" => break,
            Ok(_) => continue,
            Err(_) => return,
        }
    }
    let mut out = stream;
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let path = path.split('?').next().unwrap_or("");
    if method == "GET" && (path == "/metrics" || path == "/metrics/") {
        let body = metrics.snapshot().to_prometheus();
        let _ = write!(
            out,
            "HTTP/1.1 200 OK\r\nContent-Type: {CONTENT_TYPE}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        let _ = out.write_all(body.as_bytes());
    } else {
        let body = "only GET /metrics lives here\n";
        let status = if method == "GET" {
            "404 Not Found"
        } else {
            "405 Method Not Allowed"
        };
        let _ = write!(
            out,
            "HTTP/1.1 {status}\r\nContent-Type: text/plain; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
    }
    let _ = out.flush();
}

/// Blocking one-shot scrape helper: connect, `GET path`, return the
/// body. Used by `matchctl` and the e2e tests; also a convenient
/// stand-in for `curl` in environments without it.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let Some((head, body)) = raw.split_once("\r\n\r\n") else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "malformed HTTP response: no header terminator",
        ));
    };
    let status_line = head.lines().next().unwrap_or("");
    if !status_line.contains(" 200 ") {
        return Err(std::io::Error::other(format!("HTTP error: {status_line}")));
    }
    Ok(body.to_string())
}
