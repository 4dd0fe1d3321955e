//! The daemon workloads: the real `ecosched-serve` under an open-loop
//! generator, plus (traced) an in-process `Session` on the same schedule
//! and a replay of the daemon's write-ahead log through the tracer.

use std::collections::HashMap;
use std::io::{BufRead as _, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ecosched_engine::{EngineCheckpoint, EngineConfig, Event};
use ecosched_federation::{Federation, FederationState};
use ecosched_persist::encode_federated_snapshot;
use ecosched_select::{Amp, SlotSelector};
use ecosched_service::protocol::{decode_line, encode_line};
use ecosched_service::{
    load_manifest, load_wal, JobSpec, Request, Response, ServiceManifest, Session, WalEntry,
};
use ecosched_sim::{JobGenConfig, JobGenerator, RealRange};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::report::Report;
use crate::snap::{write_synced, SnapStats};
use crate::stats::{median, ms, peak_rss_mb, quantile, tail};
use crate::trace::{traced_run, Layers, Stepper};

/// Daemon boots per run (one measured run plus boots that only time
/// set-up); `setup_s` is their median.
const BOOTS: usize = 21;

/// One serve workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    /// Listen on TCP loopback (else a unix socket).
    pub tcp: bool,
    /// Virtual ticks per wall second the daemon paces at (a cycle is 60
    /// ticks).
    pub ticks_per_sec: f64,
    /// Steady submissions per wall second, evenly spaced.
    pub rate: f64,
    /// Jobs per burst (0: no bursts), each spread evenly over
    /// `burst_spread` seconds.
    pub burst_jobs: usize,
    pub burst_spread: f64,
    /// Bursts straddle the daemon's cycle ticks `first`, `first + every`,
    /// ...: each starts `burst_lead` seconds before its tick, so the same
    /// share of every burst waits behind the cycle (and snapshot) it
    /// meets, run after run.
    pub burst_first_cycle: u32,
    pub burst_every_cycles: u32,
    pub burst_lead: f64,
    /// Admission backlog bound (`--max-backlog`); `None` keeps the default.
    pub max_backlog: Option<u64>,
}

pub const STEADY_TCP: Shape = Shape {
    name: "serve-steady-tcp",
    tcp: true,
    // One cycle every 0.3 s.
    ticks_per_sec: 200.0,
    rate: 200.0,
    burst_jobs: 0,
    burst_spread: 0.0,
    burst_first_cycle: 0,
    burst_every_cycles: 1,
    burst_lead: 0.0,
    max_backlog: None,
};

pub const BURST_UNIX: Shape = Shape {
    name: "serve-burst-unix",
    tcp: false,
    // One cycle every 0.6 s, so that a burst fits between two ticks at
    // 600 jobs/s. Fitting hundreds of jobs into a 0.3 s cycle takes
    // about 1 000 jobs/s, at which the acks inside a burst queue up
    // whenever the host slows, moving the p50 by several times.
    ticks_per_sec: 100.0,
    rate: 25.0,
    burst_jobs: 300,
    burst_spread: 0.5,
    // Cycles 3, 7, 11, ... are the snapshot cycles at the default
    // cadence (a snapshot after every fourth tick).
    burst_first_cycle: 3,
    burst_every_cycles: 4,
    // 90% of each burst lands before its tick, so the tick's batch holds
    // about 270 jobs while only the last 30 (and the steady submissions
    // that meet the stall) wait behind cycle and snapshot. That keeps
    // the stalled share near 13% and the ack p50 well inside the
    // unstalled mode. With 30% of each burst after its tick, 30-40% of
    // submissions stall and the p50 sits on the knee between the modes,
    // where it moves by half from run to run.
    burst_lead: 0.45,
    max_backlog: Some(1_000_000),
};

/// The open-loop schedule: due offsets (seconds from the daemon's clock
/// origin, its `READY`) and the job each one submits, both drawn from
/// the workload seed.
struct Plan {
    due: Vec<f64>,
    specs: Vec<JobSpec>,
}

fn plan(shape: &Shape, seed: u64, seconds: f64) -> Plan {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Evenly spaced at `rate`, from a seeded phase: every seed offers
    // the same load, and the gaps (which a delayed TCP ack waits out)
    // are the same size.
    let gap = 1.0 / shape.rate;
    let phase: f64 = rng.gen_range(0.0..gap);
    let steady = ((seconds - 0.05 - phase) / gap).floor().max(0.0) as usize;
    let mut due: Vec<f64> = (0..steady).map(|k| 0.05 + phase + gap * k as f64).collect();
    if shape.burst_jobs > 0 {
        let cycle_s = 60.0 / shape.ticks_per_sec;
        let mut cycle = shape.burst_first_cycle;
        loop {
            let start = f64::from(cycle) * cycle_s - shape.burst_lead;
            if start + shape.burst_spread >= seconds {
                break;
            }
            for k in 0..shape.burst_jobs {
                due.push(start + shape.burst_spread * k as f64 / shape.burst_jobs as f64);
            }
            cycle += shape.burst_every_cycles;
        }
    }
    due.sort_by(f64::total_cmp);
    let jobs = JobGenerator::new(JobGenConfig {
        budget_factor: RealRange::new(1.5, 2.0),
        ..JobGenConfig::default()
    });
    let specs = (0..due.len())
        .map(|_| {
            let batch = jobs.generate_exact(&mut rng, 1);
            let r = batch.as_slice()[0].request();
            JobSpec {
                nodes: r.nodes() as u64,
                wall_ticks: r.wall_time().ticks(),
                min_perf_milli: r.min_perf().milli(),
                price_cap_micro: r.price_cap().micro(),
                deadline_tick: None,
            }
        })
        .collect();
    Plan { due, specs }
}

/// Cycles the daemon schedules: enough for the run plus margin, so no
/// submission meets the horizon.
fn cycles_for(shape: &Shape, seconds: f64) -> u32 {
    ((seconds + 10.0) * shape.ticks_per_sec / 60.0).ceil() as u32 + 2
}

// ---------------------------------------------------------------- daemon

/// A client connection to the daemon, TCP or unix.
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn open(endpoint: &str) -> std::io::Result<Conn> {
        if let Some(addr) = endpoint.strip_prefix("tcp:") {
            Ok(Conn::Tcp(TcpStream::connect(addr)?))
        } else if let Some(path) = endpoint.strip_prefix("unix:") {
            Ok(Conn::Unix(UnixStream::connect(path)?))
        } else {
            Err(std::io::Error::other(format!("bad endpoint {endpoint}")))
        }
    }

    fn try_clone(&self) -> std::io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, d: Duration) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(Some(d)),
            Conn::Unix(s) => s.set_read_timeout(Some(d)),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A running daemon process.
struct Daemon {
    child: Child,
    endpoint: String,
    metrics: Option<String>,
    data_dir: PathBuf,
}

impl Daemon {
    /// Starts a daemon on a fresh data directory and waits for `READY`.
    /// Returns it with the time from spawn to `READY`.
    fn boot(
        bin: &Path,
        shape: &Shape,
        data_dir: &Path,
        seconds: f64,
        metrics: bool,
    ) -> Result<(Daemon, Duration), String> {
        let _ = std::fs::remove_dir_all(data_dir);
        std::fs::create_dir_all(data_dir).map_err(|e| e.to_string())?;
        let listen = if shape.tcp {
            "tcp:127.0.0.1:0".to_string()
        } else {
            format!("unix:{}", data_dir.join("eco.sock").display())
        };
        let mut cmd = Command::new(bin);
        cmd.arg("--data-dir")
            .arg(data_dir.join("data"))
            .args(["--listen", &listen])
            .args(["--ticks-per-sec", &shape.ticks_per_sec.to_string()])
            .args(["--cycles", &cycles_for(shape, seconds).to_string()]);
        if let Some(limit) = shape.max_backlog {
            cmd.args(["--max-backlog", &limit.to_string()]);
        }
        if metrics {
            cmd.args(["--metrics", "tcp:127.0.0.1:0"]);
        }
        let started = Instant::now();
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("no daemon stdout")?;
        let mut lines = BufReader::new(stdout).lines();
        let mut metrics_at = None;
        let endpoint = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(ep) = line.strip_prefix("READY ") {
                        break ep.to_string();
                    }
                    if let Some(ep) = line.strip_prefix("METRICS ") {
                        metrics_at = Some(ep.to_string());
                    }
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon exited before READY".into());
                }
            }
        };
        let ready = started.elapsed();
        // Nothing else is printed until exit; drain it off-thread so the
        // pipe can never fill.
        std::thread::spawn(move || for _ in lines {});
        Ok((
            Daemon {
                child,
                endpoint,
                metrics: metrics_at,
                data_dir: data_dir.join("data"),
            },
            ready,
        ))
    }

    /// Peak resident set size of the daemon so far, MiB.
    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string()).unwrap_or(0.0)
    }

    /// The daemon's backlog (pending plus leased jobs), from `Status`.
    fn status_backlog(&self) -> Option<u64> {
        match self.request(&Request::Status).ok()? {
            Response::Status { status } => Some(status.backlog),
            _ => None,
        }
    }

    /// One request on a fresh connection.
    fn request(&self, request: &Request) -> Result<Response, String> {
        let mut conn = Conn::open(&self.endpoint).map_err(|e| e.to_string())?;
        conn.set_read_timeout(Duration::from_secs(60))
            .map_err(|e| e.to_string())?;
        conn.write_all(format!("{}\n", encode_line(request)).as_bytes())
            .map_err(|e| e.to_string())?;
        let mut line = String::new();
        BufReader::new(conn)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        decode_line::<Response>(&line)
    }

    /// Asks for a graceful shutdown (final snapshot) and waits for exit.
    fn shutdown(mut self) -> Result<PathBuf, String> {
        let result = match self.request(&Request::Shutdown) {
            Ok(Response::ShuttingDown) => Ok(()),
            other => Err(format!("shutdown answered {other:?}")),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && result.is_ok() => {
                    return Ok(self.data_dir.clone());
                }
                Ok(Some(status)) => {
                    return Err(format!("daemon exit {status}, shutdown {result:?}"));
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not exit after Shutdown".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

// ---------------------------------------------------------- load generator

/// What the generator saw.
#[derive(Debug, Default)]
struct Load {
    /// Submissions planned; any left unanswered count as lost.
    submitted: u64,
    /// Due-to-reply latency of every reply, ms.
    latency_ms: Vec<f64>,
    /// How late each line was written, ms.
    late_ms: Vec<f64>,
    accepted: Vec<(u32, u32)>,
    rejected: u64,
    errors: u64,
    lost: u64,
    /// First due time to last reply, seconds.
    span_s: f64,
    notes: Vec<String>,
}

/// Sends every planned submission on one connection at its due time and
/// reads the pipelined replies on a second thread.
fn drive(endpoint: &str, plan: &Plan, start: Instant) -> Result<Load, String> {
    let mut writer = Conn::open(endpoint).map_err(|e| format!("connect {endpoint}: {e}"))?;
    let reader = writer.try_clone().map_err(|e| e.to_string())?;
    reader
        .set_read_timeout(Duration::from_secs(60))
        .map_err(|e| e.to_string())?;
    let lines: Vec<String> = plan
        .specs
        .iter()
        .map(|spec| format!("{}\n", encode_line(&Request::Submit { spec: *spec })))
        .collect();
    let due: Vec<Instant> = plan
        .due
        .iter()
        .map(|d| start + Duration::from_secs_f64(*d))
        .collect();
    let n = due.len();

    let due_r = due.clone();
    let replies = std::thread::spawn(move || {
        let mut load = Load::default();
        let mut reader = BufReader::new(reader);
        let mut line = String::new();
        for due in &due_r {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let now = Instant::now();
            load.latency_ms
                .push(ms(now.saturating_duration_since(*due)));
            match decode_line::<Response>(&line) {
                Ok(Response::Accepted { shard, job, .. }) => load.accepted.push((shard, job)),
                Ok(Response::Rejected { reason }) => {
                    load.rejected += 1;
                    if load.notes.len() < 5 {
                        load.notes.push(format!("rejected: {reason}"));
                    }
                }
                _ => load.errors += 1,
            }
        }
        load.lost = (n - load.latency_ms.len()) as u64;
        load.span_s = start.elapsed().as_secs_f64();
        load
    });

    let mut late_ms = Vec::with_capacity(n);
    for (line, due) in lines.iter().zip(&due) {
        let now = Instant::now();
        if now < *due {
            std::thread::sleep(*due - now);
        }
        late_ms.push(ms(Instant::now().saturating_duration_since(*due)));
        // A failed write leaves the rest unanswered: counted as lost.
        if writer.write_all(line.as_bytes()).is_err() {
            break;
        }
    }
    let mut load = replies.join().map_err(|_| "reply reader panicked")?;
    load.submitted = n as u64;
    load.late_ms = late_ms;
    Ok(load)
}

// ------------------------------------------------------------------ checks

/// Runs `--verify` on a data directory; returns the snapshot's event
/// count on success.
fn verify(bin: &Path, data_dir: &Path) -> Result<u64, String> {
    let out = Command::new(bin)
        .arg("--data-dir")
        .arg(data_dir)
        .arg("--verify")
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "--verify failed: {}{}",
            text,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    text.split_whitespace()
        .find_map(|w| w.strip_prefix("snapshot_events="))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("--verify printed no snapshot_events: {text}"))
}

/// Every accepted (shard, job) is in the WAL exactly once, and the WAL
/// holds nothing else.
fn check_wal(data_dir: &Path, accepted: &[(u32, u32)]) -> Result<Vec<WalEntry>, String> {
    let wal = load_wal(&data_dir.join("wal.ndjson")).map_err(|e| e.to_string())?;
    let mut seen: HashMap<(u32, u32), u32> = HashMap::new();
    for e in &wal.entries {
        *seen.entry((e.shard, e.job)).or_default() += 1;
    }
    for key in accepted {
        match seen.get(key) {
            Some(1) => {}
            other => {
                return Err(format!(
                    "accepted {key:?} appears {other:?} times in the WAL"
                ))
            }
        }
    }
    if wal.entries.len() != accepted.len() || wal.dropped_lines != 0 {
        return Err(format!(
            "WAL holds {} entries ({} dropped lines) for {} acknowledged jobs",
            wal.entries.len(),
            wal.dropped_lines,
            accepted.len()
        ));
    }
    Ok(wal.entries)
}

// -------------------------------------------------------------- one phase

/// One daemon phase: boots, load, shutdown and checks.
struct Phase {
    setup_s: Vec<f64>,
    load: Load,
    rss_mb: f64,
    /// Backlog at the end of the load.
    backlog: u64,
    failures: Vec<String>,
    data_dir: PathBuf,
    snapshot_events: u64,
    wal: Vec<WalEntry>,
    /// The daemon's own ack-latency histogram p50, ms (metrics on only).
    daemon_ack_p50_ms: Option<f64>,
}

fn daemon_phase(
    bin: &Path,
    shape: &Shape,
    seed: u64,
    seconds: f64,
    work: &Path,
    metrics: bool,
) -> Result<Phase, String> {
    let plan = plan(shape, seed, seconds);
    let mut setup_s = Vec::new();
    for k in 1..BOOTS {
        let (daemon, ready) =
            Daemon::boot(bin, shape, &work.join(format!("boot{k}")), seconds, false)?;
        setup_s.push(ready.as_secs_f64());
        daemon.shutdown()?;
        let _ = std::fs::remove_dir_all(work.join(format!("boot{k}")));
    }
    let (daemon, ready) = Daemon::boot(bin, shape, &work.join("run"), seconds, metrics)?;
    let origin = Instant::now();
    setup_s.push(ready.as_secs_f64());

    let load = drive(&daemon.endpoint, &plan, origin)?;
    let rss_mb = daemon.peak_rss_mb();
    let backlog = daemon.status_backlog().unwrap_or(u64::MAX);
    let daemon_ack_p50_ms = daemon.metrics.as_deref().and_then(scrape_ack_p50_ms);
    let data_dir = daemon.shutdown()?;

    let mut failures = Vec::new();
    let snapshot_events = match verify(bin, &data_dir) {
        Ok(n) => n,
        Err(e) => {
            failures.push(e);
            0
        }
    };
    let wal = match check_wal(&data_dir, &load.accepted) {
        Ok(wal) => wal,
        Err(e) => {
            failures.push(e);
            Vec::new()
        }
    };
    Ok(Phase {
        setup_s,
        load,
        rss_mb,
        backlog,
        failures,
        data_dir,
        snapshot_events,
        wal,
        daemon_ack_p50_ms,
    })
}

/// `GET /metrics` and the p50 of `ecosched_service_ack_us`, interpolated
/// inside its power-of-two bucket, in ms.
fn scrape_ack_p50_ms(endpoint: &str) -> Option<f64> {
    let mut conn = Conn::open(endpoint).ok()?;
    conn.set_read_timeout(Duration::from_secs(10)).ok()?;
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .ok()?;
    let mut text = String::new();
    conn.read_to_string(&mut text).ok()?;
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("ecosched_service_ack_us_bucket{le=\"") else {
            continue;
        };
        let (le, count) = rest.split_once("\"} ")?;
        let le = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse().ok()?
        };
        buckets.push((le, count.trim().parse().ok()?));
    }
    let total = buckets.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let half = total / 2.0;
    let mut prev = (0.0, 0.0);
    for (le, count) in buckets {
        if count >= half {
            let upper = if le.is_finite() { le } else { prev.0 * 2.0 };
            let frac = if count > prev.1 {
                (half - prev.1) / (count - prev.1)
            } else {
                1.0
            };
            return Some((prev.0 + frac * (upper - prev.0)) / 1000.0);
        }
        prev = (le, count);
    }
    None
}

// ------------------------------------------------------------- untraced

fn print_phase(name: &str, phase: &Phase) {
    let load = &phase.load;
    let (tail_ms, label) = tail(&load.latency_ms);
    println!(
        "{name}: submitted {} accepted {} rejected {} errors {} lost {}; ack p50 {:.3} ms \
         {label} {:.3} ms over {} replies; late p99 {:.3} ms; peak RSS {:.1} MB; final backlog {}",
        load.submitted,
        load.accepted.len(),
        load.rejected,
        load.errors,
        load.lost,
        median(&load.latency_ms),
        tail_ms,
        load.latency_ms.len(),
        quantile(&load.late_ms, 0.99),
        phase.rss_mb,
        phase.backlog
    );
    for note in load.notes.iter().chain(&phase.failures) {
        println!("{name}: {note}");
    }
}

fn failed_of(phase: &Phase) -> u64 {
    let load = &phase.load;
    load.rejected + load.errors + load.lost + phase.failures.len() as u64
}

/// The untraced run: end-to-end metrics.
pub fn run(
    shape: &Shape,
    seed: u64,
    seconds: f64,
    bin: &Path,
    work: &Path,
) -> Result<Report, String> {
    let phase = daemon_phase(bin, shape, seed, seconds, work, false)?;
    print_phase(shape.name, &phase);
    let load = &phase.load;
    let (p99, label) = tail(&load.latency_ms);
    println!("{}: ack latency tail is {label}", shape.name);
    let mut out = Report {
        correct: phase.failures.is_empty(),
        attempted: load.submitted,
        failed: failed_of(&phase),
        ..Report::default()
    };
    out.put(
        "jobs_per_s",
        load.accepted.len() as f64 / load.span_s,
        "1/s",
    );
    out.put("latency_p50_ms", median(&load.latency_ms), "ms");
    out.put("latency_p99_ms", p99, "ms");
    out.put("peak_rss_mb", phase.rss_mb, "MB");
    out.put("setup_s", median(&phase.setup_s), "s");
    let _ = std::fs::remove_dir_all(work);
    Ok(out)
}

// ---------------------------------------------------------------- traced

/// A one-shard federation re-running a daemon's history from its WAL.
struct WalStepper<S> {
    fed: Federation<S>,
    state: FederationState,
    config: EngineConfig,
    wal: Vec<WalEntry>,
    next: usize,
    stop_at: u64,
}

impl<S: SlotSelector + Copy> Stepper for WalStepper<S> {
    fn step(&mut self) -> Result<Option<(i64, Event)>, String> {
        let done = self.state.merged().len() as u64;
        if done >= self.stop_at {
            return Ok(None);
        }
        while let Some(entry) = self.wal.get(self.next) {
            if entry.injected_after != done {
                break;
            }
            let request = entry.spec.to_request()?;
            self.fed
                .submit_routed(
                    &mut self.state,
                    entry.shard,
                    request,
                    ecosched_core::TimePoint::new(entry.time),
                )
                .map_err(|e| e.to_string())?;
            self.next += 1;
        }
        Ok(self
            .fed
            .step(&mut self.state)
            .map_err(|e| e.to_string())?
            .map(|e| (e.time, e.event)))
    }

    fn checkpoint(&self) -> EngineCheckpoint {
        self.fed.checkpoint(&self.state).shards.swap_remove(0)
    }

    fn config(&self) -> &EngineConfig {
        &self.config
    }
}

/// Replays a daemon's history through the tracer.
fn replay_daemon(phase: &Phase, layers: &mut Layers) -> Result<(), String> {
    let manifest = load_manifest(&phase.data_dir)
        .map_err(|e| e.to_string())?
        .ok_or("data dir has no manifest")?;
    let fed = Federation::new(manifest.fed_config(), Amp::new()).map_err(|e| e.to_string())?;
    let state = fed.start(manifest.seed);
    let mut run = WalStepper {
        fed,
        state,
        config: manifest.config.clone(),
        wal: phase.wal.clone(),
        next: 0,
        stop_at: phase.snapshot_events,
    };
    traced_run(&mut run, Amp::new(), layers, None)?;
    layers.add_report(run.state.shard(0).report_so_far());
    Ok(())
}

/// Service-layer timings from an in-process session.
#[derive(Default)]
struct SessionTimes {
    submit_us: Vec<f64>,
    commit_ms: Vec<f64>,
    advance_ms: Vec<f64>,
    idle: Duration,
    wall: Duration,
    backlog_max: usize,
    /// The next cycle tick the pacing loop stops at.
    next_tick: i64,
    commits: u64,
    jobs: u64,
    rejected: u64,
}

/// Drives a `Session` in process on the daemon's schedule and pacing:
/// per submission submit, commit and advance, snapshots on the
/// daemon's cadence (after every fourth cycle tick).
fn session_phase(
    manifest: &ServiceManifest,
    ticks_per_sec: f64,
    plan: &Plan,
    dir: &Path,
    snaps: &mut SnapStats,
) -> Result<SessionTimes, String> {
    let _ = std::fs::remove_dir_all(dir);
    let every = manifest.snapshot_every_cycles;
    let cycle_length = manifest.config.cycle_length;
    let inner = ServiceManifest {
        snapshot_every_cycles: 0,
        ..manifest.clone()
    };
    let mut session = Session::open(dir, inner, Amp::new()).map_err(|e| e.to_string())?;
    let mut times = SessionTimes::default();
    let start = Instant::now();
    let vt =
        |at: Instant| (at.saturating_duration_since(start).as_secs_f64() * ticks_per_sec) as i64;
    let advance = |session: &mut Session<Amp>,
                   target: i64,
                   times: &mut SessionTimes,
                   snaps: &mut SnapStats|
     -> Result<(), String> {
        // Stop at every cycle tick on the way so snapshots follow the
        // daemon's cadence.
        while times.next_tick <= target {
            let t = Instant::now();
            session
                .advance_to(times.next_tick)
                .map_err(|e| e.to_string())?;
            times.advance_ms.push(ms(t.elapsed()));
            let cycle = times.next_tick / cycle_length;
            if every > 0 && (cycle + 1) % i64::from(every) == 0 {
                let t = Instant::now();
                let path = session.snapshot().map_err(|e| e.to_string())?;
                snaps.total_ms.push(ms(t.elapsed()));
                offer_file(&path, snaps)?;
            }
            times.next_tick += cycle_length;
        }
        let t = Instant::now();
        session.advance_to(target).map_err(|e| e.to_string())?;
        times.advance_ms.push(ms(t.elapsed()));
        times.backlog_max = times.backlog_max.max(session.state().backlog());
        Ok(())
    };
    for (spec, due) in plan.specs.iter().zip(&plan.due) {
        let due = start + Duration::from_secs_f64(*due);
        // Pace like the daemon: keep virtual time moving while idle.
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let tick_at = start + Duration::from_secs_f64(times.next_tick as f64 / ticks_per_sec);
            let wake = due.min(tick_at.max(now));
            let t = Instant::now();
            std::thread::sleep(wake.saturating_duration_since(now));
            times.idle += t.elapsed();
            advance(&mut session, vt(Instant::now()), &mut times, snaps)?;
        }
        let now_vt = vt(Instant::now());
        let t = Instant::now();
        let submitted = session.submit(spec, now_vt);
        times.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        if submitted.is_err() {
            times.rejected += 1;
        }
        let t = Instant::now();
        let acks = session.commit().map_err(|e| e.to_string())?;
        times.commit_ms.push(ms(t.elapsed()));
        times.commits += 1;
        times.jobs += acks.len() as u64;
        advance(&mut session, now_vt, &mut times, snaps)?;
    }
    times.wall = start.elapsed();
    Ok(times)
}

/// The traced run: an untraced daemon phase (the overhead baseline), a
/// daemon phase with its metrics endpoint on whose history is then
/// replayed through the tracer, and an in-process session phase.
pub fn run_traced(
    shape: &Shape,
    seed: u64,
    seconds: f64,
    bin: &Path,
    work: &Path,
) -> Result<Report, String> {
    let phase_s = (seconds / 3.0).max(5.0);
    let base = daemon_phase(bin, shape, seed, phase_s, &work.join("a"), false)?;
    print_phase(&format!("{} untraced", shape.name), &base);
    let traced = daemon_phase(bin, shape, seed, phase_s, &work.join("b"), true)?;
    print_phase(&format!("{} traced", shape.name), &traced);

    let mut notes: Vec<String> = Vec::new();
    let mut layers = Layers::default();
    let replay_ok = traced.failures.is_empty();
    if replay_ok {
        replay_daemon(&traced, &mut layers)?;
        if !layers.opt_matches() {
            notes.push(format!(
                "CHECK FAILED replayed optimizer counters {:?} differ from the engine's {:?}",
                layers.shadow_opt, layers.engine_opt
            ));
        }
    }

    let manifest = load_manifest(&traced.data_dir)
        .map_err(|e| e.to_string())?
        .ok_or("data dir has no manifest")?;
    let mut snaps = SnapStats {
        federated: true,
        ..SnapStats::default()
    };
    let session = session_phase(
        &manifest,
        shape.ticks_per_sec,
        &plan(shape, seed, phase_s),
        &work.join("c"),
        &mut snaps,
    )?;
    time_largest_snapshot(&traced.data_dir, &work.join("rewrite.snap"), &mut snaps)?;

    // Self times of the session's layers plus the pacing sleeps.
    let covered_ms = ms(session.idle)
        + session.submit_us.iter().sum::<f64>() / 1e3
        + session.commit_ms.iter().sum::<f64>()
        + session.advance_ms.iter().sum::<f64>()
        + snaps.total_ms.iter().sum::<f64>();
    let coverage = 100.0 * covered_ms / ms(session.wall);
    let engine_coverage =
        100.0 * layers.stepped().as_secs_f64() / layers.engine_wall().as_secs_f64().max(1e-9);
    if coverage < 90.0 {
        notes.push(format!(
            "CHECK FAILED session layer coverage {coverage:.1}% < 90%"
        ));
    }
    if session.rejected > 0 {
        notes.push(format!(
            "in-process session rejected {} submissions",
            session.rejected
        ));
    }
    println!(
        "{} traced: session layers cover {coverage:.2}% of its wall time (uncovered {:.3} ms); \
         replayed daemon history: {} cycles, steps cover {engine_coverage:.2}% of engine wall time",
        shape.name,
        ms(session.wall) - covered_ms,
        layers.cycles
    );
    for note in &notes {
        println!("{note}");
    }

    let failed = failed_of(&base) + failed_of(&traced) + notes.len() as u64;
    let mut out = Report {
        correct: base.failures.is_empty() && traced.failures.is_empty() && notes.is_empty(),
        attempted: base.load.submitted + traced.load.submitted,
        failed,
        ..Report::default()
    };
    layers.put_metrics(&mut out);
    snaps.put_metrics(&mut out)?;
    let client_p50 = median(&traced.load.latency_ms);
    out.put("service.submit_us_p50", median(&session.submit_us), "us");
    out.put("service.commit_ms_p50", median(&session.commit_ms), "ms");
    out.put(
        "service.commit_ms_p99",
        quantile(&session.commit_ms, 0.99),
        "ms",
    );
    out.put(
        "service.jobs_per_commit",
        session.jobs as f64 / session.commits.max(1) as f64,
        "jobs",
    );
    out.put(
        "service.advance_ms_p99",
        quantile(&session.advance_ms, 0.99),
        "ms",
    );
    out.put(
        "service.advance_ms_max",
        quantile(&session.advance_ms, 1.0),
        "ms",
    );
    out.put("service.backlog_max", session.backlog_max as f64, "jobs");
    out.put(
        "service.transport_ms_p50",
        client_p50 - traced.daemon_ack_p50_ms.unwrap_or(client_p50),
        "ms",
    );
    out.put(
        "loadgen.late_p99_ms",
        quantile(&traced.load.late_ms, 0.99),
        "ms",
    );
    out.put(
        "loadgen.submitted",
        traced.load.late_ms.len() as f64,
        "count",
    );
    out.put(
        "trace.overhead_pct",
        100.0 * (client_p50 / median(&base.load.latency_ms) - 1.0),
        "%",
    );
    out.put("trace.coverage_pct", coverage, "%");
    let _ = std::fs::remove_dir_all(work);
    Ok(out)
}

/// Keeps a snapshot file's bytes if it is the largest seen so far.
fn offer_file(path: &Path, snaps: &mut SnapStats) -> Result<(), String> {
    let len = std::fs::metadata(path).map_err(|e| e.to_string())?.len() as usize;
    if len > snaps.largest.len() {
        let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
        snaps.offer(bytes, Duration::ZERO, Duration::ZERO);
    }
    Ok(())
}

/// Offers the snapshots the daemon kept, then times re-encoding and
/// rewriting (with fsync) the largest snapshot seen, as the daemon's
/// snapshot path does.
fn time_largest_snapshot(
    data_dir: &Path,
    scratch: &Path,
    snaps: &mut SnapStats,
) -> Result<(), String> {
    for entry in std::fs::read_dir(data_dir.join("snapshots"))
        .map_err(|e| e.to_string())?
        .flatten()
    {
        offer_file(&entry.path(), snaps)?;
    }
    let cp =
        ecosched_persist::decode_federated_snapshot(&snaps.largest).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let encoded = encode_federated_snapshot(&cp);
    let encode = t.elapsed();
    let write = write_synced(scratch, &encoded).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(scratch);
    snaps.largest_encode_ms = ms(encode);
    snaps.largest_write_ms = ms(write);
    Ok(())
}

/// Service and generator metrics do not exist on the engine workloads;
/// they print as zero there.
pub fn put_absent_service_metrics(out: &mut Report) {
    for (name, unit) in [
        ("service.submit_us_p50", "us"),
        ("service.commit_ms_p50", "ms"),
        ("service.commit_ms_p99", "ms"),
        ("service.jobs_per_commit", "jobs"),
        ("service.advance_ms_p99", "ms"),
        ("service.advance_ms_max", "ms"),
        ("service.backlog_max", "jobs"),
        ("service.transport_ms_p50", "ms"),
        ("loadgen.late_p99_ms", "ms"),
        ("loadgen.submitted", "count"),
    ] {
        out.put(name, 0.0, unit);
    }
}
