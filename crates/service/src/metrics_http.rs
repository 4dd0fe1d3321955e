//! A minimal hand-rolled HTTP/1.1 listener for metrics exposition — no
//! HTTP dependency, just enough protocol for `curl` and a Prometheus
//! scraper:
//!
//! - `GET /metrics` — Prometheus text exposition format 0.0.4;
//! - `GET /healthz` — a one-object JSON liveness summary;
//! - `GET /trace` — the span ring buffer as NDJSON.
//!
//! Each connection serves one request and closes (`Connection: close`),
//! which sidesteps keep-alive state entirely; scrapers reconnect per
//! scrape anyway. The listener thread never touches session state — it
//! reads the lock-free registry through a cloned [`Recorder`] handle, so
//! scraping cannot perturb the serve loop or the determinism contract.

use std::io::{BufRead as _, BufReader, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;

use ecosched_obs::Recorder;

use crate::client::Endpoint;
use crate::error::ServiceError;
use crate::obs::ServiceObs;

/// Binds `listen` and spawns the scrape loop. Returns the endpoint
/// actually bound (TCP port 0 resolved to the assigned port).
///
/// # Errors
///
/// Bind failures.
pub fn spawn_metrics_listener(
    listen: &Endpoint,
    recorder: Recorder,
    obs: ServiceObs,
) -> Result<Endpoint, ServiceError> {
    match listen {
        Endpoint::Tcp(addr) => {
            let listener = TcpListener::bind(addr.as_str())?;
            let bound = Endpoint::Tcp(listener.local_addr()?.to_string());
            std::thread::spawn(move || {
                for stream in listener.incoming().flatten() {
                    let _ = stream.set_nodelay(true);
                    let recorder = recorder.clone();
                    let obs = obs.clone();
                    std::thread::spawn(move || serve_one(stream, &recorder, &obs));
                }
            });
            Ok(bound)
        }
        Endpoint::Unix(path) => {
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            let bound = Endpoint::Unix(path.clone());
            std::thread::spawn(move || {
                for stream in listener.incoming().flatten() {
                    let recorder = recorder.clone();
                    let obs = obs.clone();
                    std::thread::spawn(move || serve_one(stream, &recorder, &obs));
                }
            });
            Ok(bound)
        }
    }
}

/// Reads one request, writes one response, closes.
fn serve_one<S: Read + Write>(stream: S, recorder: &Recorder, obs: &ServiceObs) {
    let mut stream = stream;
    let mut reader = BufReader::new(&mut stream);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain headers up to the blank line; their content is irrelevant.
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header == "\r\n" || header == "\n" => break,
            Ok(_) => {}
            Err(_) => return,
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path);
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                recorder
                    .registry()
                    .map(|reg| reg.render_prometheus())
                    .unwrap_or_default(),
            ),
            "/healthz" => ("200 OK", "application/json", obs.health_json()),
            "/trace" => (
                "200 OK",
                "application/x-ndjson",
                recorder
                    .tracer()
                    .map(|t| t.dump_ndjson())
                    .unwrap_or_default(),
            ),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found\n".to_string(),
            ),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::build_service_obs;
    use std::net::TcpStream;

    fn get(endpoint: &Endpoint, path: &str) -> (String, String) {
        let Endpoint::Tcp(addr) = endpoint else {
            panic!("test uses TCP");
        };
        let mut stream = TcpStream::connect(addr.as_str()).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let mut body = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line == "\r\n" || line.is_empty() {
                break;
            }
        }
        std::io::Read::read_to_string(&mut reader, &mut body).unwrap();
        (status.trim().to_string(), body)
    }

    #[test]
    fn serves_metrics_health_and_404() {
        let bundle = build_service_obs(1);
        bundle.service.on_submission();
        bundle.service.on_accept();
        let endpoint = spawn_metrics_listener(
            &Endpoint::Tcp("127.0.0.1:0".into()),
            bundle.recorder.clone(),
            bundle.service.clone(),
        )
        .unwrap();

        let (status, body) = get(&endpoint, "/metrics");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("# TYPE ecosched_service_accepted_total counter"));
        assert!(body.contains("ecosched_service_accepted_total 1"));

        let (status, body) = get(&endpoint, "/healthz");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("\"accepted\":1"));

        let (status, _) = get(&endpoint, "/nope");
        assert_eq!(status, "HTTP/1.1 404 Not Found");
    }
}
