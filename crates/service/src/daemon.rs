//! The socket daemon: accept loops, the virtual-time pacing loop, and
//! group-commit request handling around a [`Session`].
//!
//! # Threading model
//!
//! Connection handler threads never touch engine state. Each parsed
//! request is sent over an mpsc channel to the single serve loop, which
//! owns the [`Session`]; the handler blocks on a per-request reply
//! channel and writes the response line back to its client. All
//! scheduling state therefore remains single-threaded and the engine's
//! determinism contract is untouched by connection concurrency — the
//! only nondeterminism is the *order* submissions arrive in, which is
//! exactly what the write-ahead log records.
//!
//! # Pacing
//!
//! The serve loop maps wall-clock time to virtual time at
//! `ticks_per_sec`, starting from the resumed state's last event time.
//! Each iteration drains queued requests, injects accepted submissions
//! at the current virtual tick, commits them with one fsync, acks, and
//! then steps the engine up to the virtual target (taking cadence
//! snapshots after cycle ticks). SIGTERM (or a `Shutdown` request)
//! triggers commit + final snapshot + exit.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use ecosched_select::{Alp, Amp, SlotSelector};

use crate::client::Endpoint;
use crate::error::ServiceError;
use crate::manifest::{load_manifest, save_manifest, SelectorChoice, ServiceManifest};
use crate::metrics_http::spawn_metrics_listener;
use crate::obs::build_service_obs;
use crate::protocol::{decode_line, encode_line, RejectReason, Request, Response};
use crate::session::Session;
use crate::signals;

/// Options for one daemon process.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// The durable state directory (manifest, WAL, snapshots).
    pub data_dir: PathBuf,
    /// Where to listen.
    pub listen: Endpoint,
    /// Virtual ticks per wall-clock second.
    pub ticks_per_sec: f64,
    /// Manifest for a *fresh* data directory. An existing directory's
    /// stored manifest always wins (the engine identity is pinned);
    /// `None` means use [`ServiceManifest::default`] when fresh.
    pub manifest: Option<ServiceManifest>,
    /// Where to expose `/metrics`, `/healthz`, and `/trace` over plain
    /// HTTP/1.1; `None` disables observability entirely (the recorder
    /// stays off and every instrumentation call is a no-op).
    pub metrics: Option<Endpoint>,
}

/// One parsed request plus the channel its response goes back on.
struct Inbound {
    request: Request,
    reply: mpsc::Sender<Response>,
}

/// Runs the daemon until shutdown. Prints exactly one
/// `READY <endpoint>` line to stdout once the socket is listening and
/// the session has booted (crash recovery included) — supervisors and
/// tests key on it.
///
/// # Errors
///
/// Boot, bind, or fatal serve-loop failures (a failed group commit is
/// fatal by design: un-acked state must not keep serving).
pub fn serve(options: &ServeOptions) -> Result<(), ServiceError> {
    let manifest = match load_manifest(&options.data_dir)? {
        Some(stored) => stored,
        None => {
            let manifest = options.manifest.clone().unwrap_or_default();
            manifest.validate()?;
            std::fs::create_dir_all(&options.data_dir)?;
            save_manifest(&options.data_dir, &manifest)?;
            manifest
        }
    };
    match manifest.selector {
        SelectorChoice::Amp => serve_with(options, manifest, Amp::new()),
        SelectorChoice::Alp => serve_with(options, manifest, Alp::new()),
    }
}

fn serve_with<S: SlotSelector + Copy>(
    options: &ServeOptions,
    manifest: ServiceManifest,
    selector: S,
) -> Result<(), ServiceError> {
    let mut session = Session::open(&options.data_dir, manifest, selector)?;
    signals::install_term_handler();

    // Observability comes up after boot replay (recovery is not live
    // traffic) and before READY, so a supervisor that saw READY can
    // already scrape.
    if let Some(metrics_endpoint) = &options.metrics {
        let bundle = build_service_obs(session.state().shard_count());
        let recorder = bundle.recorder.clone();
        let service_obs = bundle.service.clone();
        session.set_obs(bundle);
        let bound = spawn_metrics_listener(metrics_endpoint, recorder, service_obs)?;
        println!("METRICS {bound}");
    }

    let (tx, rx) = mpsc::channel::<Inbound>();
    let ready_endpoint = spawn_listener(&options.listen, tx)?;
    // The READY line is the durability barrier for supervisors: the boot
    // replay is done and the socket is accepting.
    println!("READY {ready_endpoint}");
    let _ = std::io::stdout().flush();

    let epoch = Instant::now();
    let origin = session.virtual_time();
    let tps = if options.ticks_per_sec > 0.0 {
        options.ticks_per_sec
    } else {
        1000.0
    };

    loop {
        let now_vt = origin + (epoch.elapsed().as_secs_f64() * tps) as i64;

        // Gather a batch: block until the first request or the next
        // pacing deadline, then drain whatever else is already queued
        // (group commit). A request arriving mid-wait wakes the loop
        // immediately, so the timeout only bounds *pacing* granularity:
        // short when the next event is imminent, long when the queue is
        // idle (an idle daemon must not spin).
        let wait = match session.next_event_in(now_vt, tps) {
            Some(due) => due.clamp(Duration::from_millis(2), Duration::from_millis(50)),
            None => Duration::from_millis(50),
        };
        let mut batch = Vec::new();
        let mut batch_start = Instant::now();
        match rx.recv_timeout(wait) {
            Ok(inbound) => {
                // The ack-latency clock starts when the batch leaves the
                // channel, not when the loop woke up idle.
                batch_start = Instant::now();
                batch.push(inbound);
                while let Ok(more) = rx.try_recv() {
                    batch.push(more);
                    if batch.len() >= 1024 {
                        break;
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
        }

        let mut pending_acks: Vec<(mpsc::Sender<Response>, u32, u32)> = Vec::new();
        let mut shutdown_replies: Vec<mpsc::Sender<Response>> = Vec::new();
        for inbound in batch {
            match inbound.request {
                Request::Submit { spec } => match session.submit(&spec, now_vt) {
                    Ok(ack) => pending_acks.push((inbound.reply, ack.shard, ack.job)),
                    Err(reason) => {
                        let _ = inbound.reply.send(Response::Rejected { reason });
                    }
                },
                Request::Status => {
                    let _ = inbound.reply.send(Response::Status {
                        status: session.status(),
                    });
                }
                Request::Shutdown => shutdown_replies.push(inbound.reply),
            }
        }

        // One fsync covers the whole batch; only then do acks go out.
        let acks = session.commit()?;
        for (reply, shard, job) in pending_acks {
            let ack = acks.iter().find(|a| a.shard == shard && a.job == job);
            let response = match ack {
                Some(a) => Response::Accepted {
                    shard: a.shard,
                    job: a.job,
                    time: a.time,
                },
                // Unreachable by construction; never ack un-fsynced work.
                None => Response::Error {
                    detail: "commit did not cover this submission".into(),
                },
            };
            let _ = reply.send(response);
            session.obs().observe_ack(batch_start.elapsed());
        }

        if !shutdown_replies.is_empty() || signals::term_requested() {
            session.shutdown()?;
            for reply in shutdown_replies {
                let _ = reply.send(Response::ShuttingDown);
                // The handler drops its receiver only after the response
                // line is flushed to the socket, which turns send() into
                // an error — poll for that (bounded) so process exit
                // can't race the write. Probe sends are never read.
                let deadline = Instant::now() + Duration::from_secs(1);
                while reply.send(Response::ShuttingDown).is_ok() && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            return Ok(());
        }

        session.advance_to(now_vt)?;
    }
}

/// Binds the endpoint and spawns the accept loop. Returns the endpoint
/// actually bound (TCP port 0 is resolved to the assigned port).
fn spawn_listener(listen: &Endpoint, tx: mpsc::Sender<Inbound>) -> Result<Endpoint, ServiceError> {
    match listen {
        Endpoint::Tcp(addr) => {
            let listener = TcpListener::bind(addr)?;
            let bound = Endpoint::Tcp(listener.local_addr()?.to_string());
            std::thread::spawn(move || {
                for stream in listener.incoming().flatten() {
                    // Replies are small and latency-bound: without
                    // TCP_NODELAY, Nagle holds each one back until the
                    // peer's delayed ACK.
                    let _ = stream.set_nodelay(true);
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        let reader = match stream.try_clone() {
                            Ok(clone) => BufReader::new(clone),
                            Err(_) => return,
                        };
                        handle_connection(reader, stream, &tx);
                    });
                }
            });
            Ok(bound)
        }
        Endpoint::Unix(path) => {
            // A stale socket file from a killed process blocks bind.
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            let bound = Endpoint::Unix(path.clone());
            std::thread::spawn(move || {
                for stream in listener.incoming().flatten() {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        let reader = match stream.try_clone() {
                            Ok(clone) => BufReader::new(clone),
                            Err(_) => return,
                        };
                        handle_connection(reader, stream, &tx);
                    });
                }
            });
            Ok(bound)
        }
    }
}

/// Reads request lines, relays them to the serve loop, writes response
/// lines. Ends on EOF, I/O failure, or daemon shutdown.
fn handle_connection<R: std::io::Read, W: std::io::Write>(
    reader: BufReader<R>,
    mut writer: W,
    tx: &mpsc::Sender<Inbound>,
) {
    for line in reader.lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        let response = match decode_line::<Request>(&line) {
            Err(detail) => Response::Error { detail },
            Ok(request) => {
                if tx
                    .send(Inbound {
                        request,
                        reply: reply_tx,
                    })
                    .is_err()
                {
                    // Serve loop gone (shutdown); refuse politely.
                    Response::Rejected {
                        reason: RejectReason::ShuttingDown,
                    }
                } else {
                    match reply_rx.recv() {
                        Ok(response) => response,
                        Err(_) => Response::Rejected {
                            reason: RejectReason::ShuttingDown,
                        },
                    }
                }
            }
        };
        let done = matches!(response, Response::ShuttingDown);
        // One write per reply line, newline included, so the line never
        // leaves as two segments.
        let mut out = encode_line(&response);
        out.push('\n');
        if writer.write_all(out.as_bytes()).is_err() {
            return;
        }
        let _ = writer.flush();
        // Only now release the reply channel: the serve loop's shutdown
        // path probes it to learn the line reached the wire before the
        // process exits (process exit must not race this write).
        drop(reply_rx);
        if done {
            return;
        }
    }
}
