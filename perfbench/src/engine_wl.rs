//! The engine workloads: `Engine::run` at E15's largest size, in
//! process, at the engine defaults (one thread, interval market,
//! optimizer cache on, sequential search).

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use ecosched_engine::{Engine, EngineConfig, EngineReport, Event};
use ecosched_experiments::online::{engine_config, OnlineConfig};
use ecosched_select::{Alp, Amp, SlotSelector};

use crate::report::Report;
use crate::stats::{median, ms, peak_rss_mb, tail};
use crate::trace::{traced_run, EngineStepper, Layers};

/// The engine seeds every round runs, each under ALP and AMP. The
/// workload seed only rotates where a round starts in this list, so
/// every round does the same work and every seed's log hash is known.
pub const ENGINE_SEEDS: [u64; 4] = [42, 1042, 2042, 3042];

/// The reference kernel's time, in ms, on the host the baseline in
/// `README.md` was measured on when it ran at full speed. Engine figures
/// are reported at this host speed (see [`host_speed`]).
const REFERENCE_MS: f64 = 80.0;

/// Reference kernel runs after every round.
const REFERENCE_RUNS_PER_ROUND: u64 = 2;

/// The recorded event-log hash of every (workload, selector, seed) run.
const EXPECTED: &str = include_str!("../expected_hashes.txt");

/// E15's largest cell: 60 cycles, 1 200 Poisson jobs, mean gap 1 tick.
pub fn config(churn: bool) -> EngineConfig {
    engine_config(
        &OnlineConfig {
            cycles: 60,
            jobs: 1200,
            mean_interarrival: 1.0,
            ..OnlineConfig::default()
        },
        churn,
    )
}

/// Which selector a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Alp,
    Amp,
}

impl Algo {
    pub fn name(self) -> &'static str {
        match self {
            Algo::Alp => "ALP",
            Algo::Amp => "AMP",
        }
    }
}

/// One untraced engine run.
struct Timed {
    setup: Duration,
    wall: Duration,
    cycles_ms: Vec<f64>,
    report: EngineReport,
}

fn run_timed<S: SlotSelector + Copy>(
    config: &EngineConfig,
    selector: S,
    seed: u64,
) -> Result<Timed, String> {
    let t = Instant::now();
    let engine = Engine::new(config.clone(), selector).map_err(|e| e.to_string())?;
    let mut state = engine.start(seed);
    let setup = t.elapsed();

    let mut cycles_ms = Vec::with_capacity(config.cycles as usize);
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let Some(entry) = engine.step(&mut state).map_err(|e| e.to_string())? else {
            break;
        };
        if matches!(entry.event, Event::CycleTick { .. }) {
            cycles_ms.push(ms(t.elapsed()));
        }
    }
    let run = engine.finish(state);
    Ok(Timed {
        setup,
        wall: started.elapsed(),
        cycles_ms,
        report: run.report,
    })
}

fn run_algo(config: &EngineConfig, algo: Algo, seed: u64) -> Result<Timed, String> {
    match algo {
        Algo::Alp => run_timed(config, Alp::new(), seed),
        Algo::Amp => run_timed(config, Amp::new(), seed),
    }
}

/// The recorded hashes, keyed by (workload, selector, seed).
fn expected() -> HashMap<(String, String, u64), String> {
    EXPECTED
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            Some((
                (
                    f.first()?.to_string(),
                    f.get(1)?.to_string(),
                    f.get(2)?.parse().ok()?,
                ),
                f.get(3)?.to_string(),
            ))
        })
        .collect()
}

/// The (seed, selector) order of one round, rotated by the workload
/// seed and the round number; the selector order alternates by round.
fn round_order(workload_seed: u64, round: u64) -> Vec<(u64, Algo)> {
    let n = ENGINE_SEEDS.len();
    let start = ((workload_seed + round) % n as u64) as usize;
    let mut order = Vec::with_capacity(2 * n);
    for k in 0..n {
        let seed = ENGINE_SEEDS[(start + k) % n];
        if (round + k as u64).is_multiple_of(2) {
            order.push((seed, Algo::Alp));
            order.push((seed, Algo::Amp));
        } else {
            order.push((seed, Algo::Amp));
            order.push((seed, Algo::Alp));
        }
    }
    order
}

/// Everything the untraced rounds measured.
#[derive(Default)]
struct Rounds {
    setup_s: Vec<f64>,
    cycles_ms: Vec<f64>,
    /// Per round: (jobs, wall seconds) for ALP and AMP.
    alp: Vec<(f64, f64)>,
    amp: Vec<(f64, f64)>,
    /// Reference kernel times, ms.
    reference_ms: Vec<f64>,
    runs: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Rounds {
    fn jobs_per_s(rounds: &[(f64, f64)]) -> f64 {
        median(&rounds.iter().map(|(j, s)| j / s).collect::<Vec<_>>())
    }

    fn both(&self) -> Vec<(f64, f64)> {
        self.alp
            .iter()
            .zip(&self.amp)
            .map(|(a, b)| (a.0 + b.0, a.1 + b.1))
            .collect()
    }
}

/// Runs whole rounds until `seconds` have passed (at least two).
fn untraced_rounds(workload: &str, churn: bool, seed: u64, seconds: f64) -> Rounds {
    let config = config(churn);
    let expected = expected();
    let mut r = Rounds::default();
    let started = Instant::now();
    let mut round = 0u64;
    while round < 2 || started.elapsed().as_secs_f64() < seconds {
        let (mut alp, mut amp) = ((0.0, 0.0), (0.0, 0.0));
        for (engine_seed, algo) in round_order(seed, round) {
            r.runs += 1;
            let timed = match run_algo(&config, algo, engine_seed) {
                Ok(t) => t,
                Err(e) => {
                    r.failed += 1;
                    r.notes.push(format!(
                        "run {} seed {engine_seed} failed: {e}",
                        algo.name()
                    ));
                    continue;
                }
            };
            let key = (workload.to_string(), algo.name().to_string(), engine_seed);
            if expected.get(&key) != Some(&timed.report.log_hash) {
                r.failed += 1;
                r.notes.push(format!(
                    "CHECK FAILED {workload} {} seed {engine_seed}: log hash {} (recorded {:?})",
                    algo.name(),
                    timed.report.log_hash,
                    expected.get(&key)
                ));
            }
            r.setup_s.push(timed.setup.as_secs_f64());
            r.cycles_ms.extend(&timed.cycles_ms);
            let slot = if algo == Algo::Alp {
                &mut alp
            } else {
                &mut amp
            };
            slot.0 += timed.report.jobs_arrived as f64;
            slot.1 += timed.wall.as_secs_f64();
        }
        r.alp.push(alp);
        r.amp.push(amp);
        for k in 0..REFERENCE_RUNS_PER_ROUND {
            let t = Instant::now();
            std::hint::black_box(reference_kernel(round * REFERENCE_RUNS_PER_ROUND + k));
            r.reference_ms.push(ms(t.elapsed()));
        }
        round += 1;
    }
    r
}

fn trace_algo(
    config: &EngineConfig,
    algo: Algo,
    seed: u64,
    layers: &mut Layers,
    sink: &Path,
) -> Result<EngineReport, String> {
    fn go<S: SlotSelector + Copy>(
        config: &EngineConfig,
        selector: S,
        seed: u64,
        layers: &mut Layers,
        sink: &Path,
    ) -> Result<EngineReport, String> {
        let engine = Engine::new(config.clone(), selector).map_err(|e| e.to_string())?;
        let mut run = EngineStepper {
            engine: &engine,
            state: engine.start(seed),
        };
        traced_run(&mut run, selector, layers, Some(sink))?;
        Ok(engine.finish(run.state).report)
    }
    match algo {
        Algo::Alp => go(config, Alp::new(), seed, layers, sink),
        Algo::Amp => go(config, Amp::new(), seed, layers, sink),
    }
}

/// The traced run: half the time untraced (the overhead baseline), half
/// traced by replay; prints every per-layer metric.
pub fn run_traced(workload: &str, churn: bool, seed: u64, seconds: f64, work_dir: &Path) -> Report {
    let base = untraced_rounds(workload, churn, seed, seconds / 2.0);
    let config = config(churn);
    let expected = expected();
    let sink = work_dir.join(format!("{workload}.snap"));
    let mut layers = Layers::default();
    let mut notes = base.notes.clone();
    let (mut runs, mut failed, mut jobs) = (base.runs, base.failed, 0u64);
    let started = Instant::now();
    let mut round = 0u64;
    while round < 1 || started.elapsed().as_secs_f64() < seconds / 2.0 {
        for (engine_seed, algo) in round_order(seed, round) {
            runs += 1;
            match trace_algo(&config, algo, engine_seed, &mut layers, &sink) {
                Ok(report) => {
                    let key = (workload.to_string(), algo.name().to_string(), engine_seed);
                    if expected.get(&key) != Some(&report.log_hash) {
                        failed += 1;
                        notes.push(format!(
                            "CHECK FAILED traced {workload} {} seed {engine_seed}: log hash {}",
                            algo.name(),
                            report.log_hash
                        ));
                    }
                    jobs += report.jobs_arrived;
                    layers.add_report(&report);
                }
                Err(e) => {
                    failed += 1;
                    notes.push(format!(
                        "traced run {} seed {engine_seed} failed: {e}",
                        algo.name()
                    ));
                }
            }
        }
        round += 1;
    }
    let _ = std::fs::remove_file(&sink);

    let untraced_jobs_per_s = Rounds::jobs_per_s(&base.both());
    let traced_jobs_per_s = jobs as f64 / layers.engine_wall().as_secs_f64();
    let coverage = 100.0 * layers.stepped().as_secs_f64() / layers.engine_wall().as_secs_f64();
    if !layers.opt_matches() {
        failed += 1;
        notes.push(format!(
            "CHECK FAILED replayed optimizer counters {:?} differ from the engine's {:?}",
            layers.shadow_opt, layers.engine_opt
        ));
    }
    if coverage < 90.0 {
        failed += 1;
        notes.push(format!("CHECK FAILED layer coverage {coverage:.1}% < 90%"));
    }
    for note in &notes {
        println!("{note}");
    }
    println!(
        "{workload} traced: {} runs; steps cover {coverage:.2}% of engine wall time, \
         uncovered {:.3} ms per run; tracer work {:.1} ms per run (outside the engine's wall time)",
        layers.runs,
        (ms(layers.engine_wall()) - ms(layers.stepped())) / layers.runs.max(1) as f64,
        ms(layers.tracer) / layers.runs.max(1) as f64
    );
    let mut out = Report {
        correct: failed == 0,
        attempted: runs,
        failed,
        ..Report::default()
    };
    layers.put_metrics(&mut out);
    if let Err(e) = layers.snaps.put_metrics(&mut out) {
        out.correct = false;
        println!("CHECK FAILED snapshot does not decode: {e}");
    }
    crate::serve_wl::put_absent_service_metrics(&mut out);
    out.put(
        "trace.overhead_pct",
        100.0 * (untraced_jobs_per_s / traced_jobs_per_s - 1.0),
        "%",
    );
    out.put("trace.coverage_pct", coverage, "%");
    out
}

/// Prints every recorded hash line for both engine workloads.
pub fn record() -> Result<(), String> {
    for (workload, churn) in [("engine-calm", false), ("engine-churn", true)] {
        let config = config(churn);
        for seed in ENGINE_SEEDS {
            for algo in [Algo::Alp, Algo::Amp] {
                let t = run_algo(&config, algo, seed)?;
                println!("{workload} {} {seed} {}", algo.name(), t.report.log_hash);
            }
        }
    }
    Ok(())
}

/// The untraced run: end-to-end metrics.
pub fn run(workload: &str, churn: bool, seed: u64, seconds: f64) -> Report {
    let r = untraced_rounds(workload, churn, seed, seconds);
    for note in &r.notes {
        println!("{note}");
    }
    let (p99, label) = tail(&r.cycles_ms);
    let speed = host_speed(&r.reference_ms);
    println!(
        "{workload}: {} rounds, {} runs, {} cycles (tail {label}); wall clock: ALP {:.1} jobs/s, \
         AMP {:.1} jobs/s, both {:.1} jobs/s, cycle p50 {:.3} ms, {label} {:.3} ms; reference \
         kernel {:.1} ms, so figures are reported x{speed:.3} (times /{speed:.3})",
        r.alp.len(),
        r.runs,
        r.cycles_ms.len(),
        Rounds::jobs_per_s(&r.alp),
        Rounds::jobs_per_s(&r.amp),
        Rounds::jobs_per_s(&r.both()),
        median(&r.cycles_ms),
        p99,
        median(&r.reference_ms)
    );
    let mut out = Report {
        correct: r.failed == 0,
        attempted: r.runs,
        failed: r.failed,
        ..Report::default()
    };
    out.put("jobs_per_s", Rounds::jobs_per_s(&r.both()) * speed, "1/s");
    out.put("latency_p50_ms", median(&r.cycles_ms) / speed, "ms");
    out.put("latency_p99_ms", p99 / speed, "ms");
    out.put("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0), "MB");
    out.put("setup_s", median(&r.setup_s) / speed, "s");
    out
}

/// How much slower than full speed the host ran: the reference kernel's
/// median time over [`REFERENCE_MS`]. On a shared host the whole CPU
/// slows by 20-30% for minutes at a time, and the engine with it (the
/// engine thread stays on a CPU throughout, so this is not time spent
/// descheduled). The kernel slows by the same share, so scaling the
/// engine's throughput by this factor, and dividing its times by it,
/// keeps such episodes out of the figures while leaving every change to
/// the engine's own speed in them.
fn host_speed(reference_ms: &[f64]) -> f64 {
    median(reference_ms) / REFERENCE_MS
}

/// A fixed CPU- and memory-bound computation that shares no code with
/// the system under test (ordered-map churn and a sort), timed between
/// rounds to measure the host's current speed.
fn reference_kernel(seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = std::collections::BTreeMap::new();
    let mut acc = 0u64;
    for _ in 0..400_000 {
        let k = next() % 50_000;
        if let Some(v) = map.insert(k, k) {
            acc = acc.wrapping_add(v);
        }
        if next() % 3 == 0 {
            map.remove(&(next() % 50_000));
        }
    }
    let mut v: Vec<u64> = (0..400_000).map(|_| next()).collect();
    v.sort_unstable();
    acc.wrapping_add(v[v.len() / 2])
}
