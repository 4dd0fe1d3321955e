//! The replay tracer: times every engine step by event type and splits
//! each scheduling cycle into clip, scan and optimize by re-issuing the
//! cycle's inputs to the public calls the engine makes.
//!
//! Before each `CycleTick` the tracer takes an untimed
//! [`Engine::checkpoint`], rebuilds the cycle's market (the vacant list
//! clipped to the tick) and batch (the pending jobs, re-keyed by
//! position), and times `find_alternatives_threads` and
//! `run_iteration_cached_with` on them with a shadow optimizer that
//! lives as long as the run. The shadow sees exactly the engine's inputs,
//! so its summed [`OptStats`] must equal the engine report's.

use std::path::Path;
use std::time::{Duration, Instant};

use ecosched_core::{Batch, Job, JobId, Slot, SlotList, Span, TimePoint};
use ecosched_engine::{Engine, EngineCheckpoint, EngineConfig, EngineReport, Event, RunState};
use ecosched_optimize::{IncrementalOptimizer, OptStats};
use ecosched_persist::encode_snapshot;
use ecosched_select::{find_alternatives_threads, SlotSelector};
use ecosched_sim::{run_iteration_cached_with, Parallelism};

use crate::report::Report;
use crate::snap::{write_synced, SnapStats};
use crate::stats::ms;

/// Per-layer accumulators over every traced run of one workload.
#[derive(Debug, Default)]
pub struct Layers {
    /// Engine runs (or replayed daemon histories) traced.
    pub runs: u64,
    /// Step time by event type.
    pub arrival: Duration,
    pub publish: Duration,
    pub expire: Duration,
    pub expire_events: u64,
    pub complete: Duration,
    pub strike: Duration,
    pub cycle: Duration,
    pub cycles: u64,
    /// Replayed cycle layers.
    pub clip: Duration,
    pub scan: Duration,
    pub iterate: Duration,
    pub market_slots: Vec<f64>,
    pub batch_jobs: u64,
    pub covered_jobs: u64,
    pub slots_examined: u64,
    pub acceptance_tests: u64,
    pub windows_found: u64,
    /// Shadow optimizer counters, summed over runs.
    pub shadow_opt: OptStats,
    /// The engines' own optimizer counters, summed over runs.
    pub engine_opt: OptStats,
    /// Wall time spent checkpointing, replaying and encoding snapshots:
    /// the tracer's own cost, outside the engine's wall time.
    pub tracer: Duration,
    /// Wall time of the traced runs, tracer time included.
    pub wall: Duration,
    /// Snapshots of the traced runs (engine workloads snapshot every
    /// fourth cycle's checkpoint, as the daemon does).
    pub snaps: SnapStats,
    /// Repair counters from the engine reports, summed over runs.
    pub leases_broken: u64,
    pub leases_recovered: u64,
    pub full_rescans: u64,
}

impl Layers {
    /// Total step time over every event type.
    pub fn stepped(&self) -> Duration {
        self.arrival + self.publish + self.expire + self.complete + self.strike + self.cycle
    }

    /// Wall time of the traced runs without the tracer's own work.
    pub fn engine_wall(&self) -> Duration {
        self.wall.saturating_sub(self.tracer)
    }

    /// Books a finished run's report: optimizer and repair counters.
    pub fn add_report(&mut self, report: &EngineReport) {
        self.engine_opt.merge(&report.opt);
        self.leases_broken += report.leases_broken;
        self.leases_recovered += report.failovers + report.repairs;
        self.full_rescans += report.full_rescans;
    }

    /// The shadow optimizer did exactly the engine's work.
    pub fn opt_matches(&self) -> bool {
        self.shadow_opt == self.engine_opt
    }

    /// The engine, core, select, optimize and repair metrics, per traced
    /// run.
    pub fn put_metrics(&self, out: &mut Report) {
        let runs = self.runs.max(1) as f64;
        let per_run = |d: Duration| ms(d) / runs;
        let count = |n: u64| n as f64 / runs;
        let share = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let rest = self.cycle.as_secs_f64() - self.clip.as_secs_f64() - self.iterate.as_secs_f64();
        let solve = self.iterate.saturating_sub(self.scan);
        let opt = &self.engine_opt;

        out.put("engine.cycle_ms", per_run(self.cycle), "ms");
        out.put("engine.expire_ms", per_run(self.expire), "ms");
        out.put("engine.expire_events", count(self.expire_events), "count");
        out.put("engine.strike_ms", per_run(self.strike), "ms");
        out.put("engine.publish_ms", per_run(self.publish), "ms");
        out.put("engine.complete_ms", per_run(self.complete), "ms");
        out.put("engine.arrival_ms", per_run(self.arrival), "ms");
        out.put("engine.cycle_rest_ms", rest * 1e3 / runs, "ms");
        out.put("core.clip_ms", per_run(self.clip), "ms");
        out.put(
            "core.market_slots_mean",
            crate::stats::sum(&self.market_slots) / self.market_slots.len().max(1) as f64,
            "slots",
        );
        out.put(
            "core.market_slots_max",
            self.market_slots.iter().copied().fold(0.0, f64::max),
            "slots",
        );
        out.put("select.scan_ms", per_run(self.scan), "ms");
        out.put("select.slots_examined", count(self.slots_examined), "count");
        out.put(
            "select.acceptance_tests",
            count(self.acceptance_tests),
            "count",
        );
        out.put("select.windows_found", count(self.windows_found), "count");
        out.put(
            "select.windows_per_job",
            share(self.windows_found, self.batch_jobs),
            "ratio",
        );
        out.put(
            "select.covered_share",
            share(self.covered_jobs, self.batch_jobs),
            "ratio",
        );
        out.put("optimize.solve_ms", per_run(solve), "ms");
        out.put("optimize.rows_reused", count(opt.rows_reused), "count");
        out.put("optimize.rows_rebuilt", count(opt.rows_rebuilt), "count");
        out.put(
            "optimize.row_reuse_share",
            share(opt.rows_reused, opt.rows_reused + opt.rows_rebuilt),
            "ratio",
        );
        out.put(
            "optimize.frontier_reuse_share",
            share(
                opt.frontier_reused,
                opt.frontier_reused + opt.frontier_rebuilt,
            ),
            "ratio",
        );
        out.put("repair.leases_broken", count(self.leases_broken), "count");
        out.put(
            "repair.recovered_share",
            share(self.leases_recovered, self.leases_broken),
            "ratio",
        );
        out.put("repair.full_rescans", count(self.full_rescans), "count");
    }
}

/// Traced engine runs snapshot after every fourth cycle tick, the
/// daemon's default cadence.
const SNAPSHOT_EVERY_CYCLES: u32 = 4;

/// A run the tracer can step one event at a time and checkpoint between
/// steps: a bare engine, or a one-shard federation replaying a daemon's
/// write-ahead log.
pub trait Stepper {
    /// Processes one event; `None` when the run is over.
    fn step(&mut self) -> Result<Option<(i64, Event)>, String>;
    /// The engine checkpoint of the (only) shard, between two steps.
    fn checkpoint(&self) -> EngineCheckpoint;
    /// The engine configuration in force.
    fn config(&self) -> &EngineConfig;
}

/// A bare engine run.
pub struct EngineStepper<'a, S> {
    pub engine: &'a Engine<S>,
    pub state: RunState,
}

impl<S: SlotSelector + Copy> Stepper for EngineStepper<'_, S> {
    fn step(&mut self) -> Result<Option<(i64, Event)>, String> {
        Ok(self
            .engine
            .step(&mut self.state)
            .map_err(|e| e.to_string())?
            .map(|e| (e.time, e.event)))
    }

    fn checkpoint(&self) -> EngineCheckpoint {
        self.engine.checkpoint(&self.state)
    }

    fn config(&self) -> &EngineConfig {
        self.engine.config()
    }
}

/// Steps one run to the end under the tracer. `selector` must be the
/// one the run schedules with.
pub fn traced_run<S: SlotSelector + Copy>(
    run: &mut impl Stepper,
    selector: S,
    layers: &mut Layers,
    sink: Option<&Path>,
) -> Result<(), String> {
    let mut shadow = IncrementalOptimizer::new();
    let started = Instant::now();
    let mut pending_split: Option<(Duration, Duration)> = None;
    loop {
        let t0 = Instant::now();
        let Some((time, event)) = run.step()? else {
            break;
        };
        let dt = t0.elapsed();
        match event {
            Event::JobArrival { .. } => layers.arrival += dt,
            Event::SlotExpired { .. } => {
                layers.expire += dt;
                layers.expire_events += 1;
            }
            Event::LeaseCompleted { .. } => layers.complete += dt,
            Event::RevocationStrike { .. } => layers.strike += dt,
            Event::CycleTick { cycle } => {
                layers.cycle += dt;
                layers.cycles += 1;
                if let Some((clip, iterate)) = pending_split.take() {
                    layers.clip += clip;
                    layers.iterate += iterate;
                }
                if let Some(sink) = sink {
                    if (cycle + 1) % SNAPSHOT_EVERY_CYCLES == 0 {
                        let t = Instant::now();
                        let cp = run.checkpoint();
                        let capture = t.elapsed();
                        snapshot_to(sink, &cp, capture, layers);
                        layers.tracer += t.elapsed();
                    }
                }
            }
            Event::SlotPublished { .. } => {
                layers.publish += dt;
                let t = Instant::now();
                pending_split = replay_cycle(run, selector, time, &mut shadow, layers);
                layers.tracer += t.elapsed();
            }
        }
    }
    layers.wall += started.elapsed();
    layers.runs += 1;
    Ok(())
}

/// Re-issues the upcoming cycle's inputs when the next event is the
/// `CycleTick` at the publication's time. Returns the replayed clip and
/// iteration times, to be booked when the tick itself runs.
fn replay_cycle<S: SlotSelector + Copy>(
    run: &impl Stepper,
    selector: S,
    published_at: i64,
    shadow: &mut IncrementalOptimizer,
    layers: &mut Layers,
) -> Option<(Duration, Duration)> {
    let cp = run.checkpoint();
    let next = cp.queue.iter().min_by_key(|q| (q.time, q.seq))?;
    if next.time != published_at || !matches!(next.event, Event::CycleTick { .. }) {
        return None;
    }
    let now = TimePoint::new(next.time);

    let t = Instant::now();
    let market = clip_to(&cp.vacant, now);
    let clip = t.elapsed();
    layers.market_slots.push(market.len() as f64);
    if cp.pending.is_empty() {
        return Some((clip, Duration::ZERO));
    }
    let jobs: Vec<Job> = cp
        .pending
        .iter()
        .enumerate()
        .map(|(i, p)| Job::new(JobId::new(i as u32), p.request))
        .collect();
    let batch = Batch::from_jobs(jobs).expect("re-keyed ids are unique");
    let config = run.config();

    let t = Instant::now();
    let search = find_alternatives_threads(selector, &market, &batch, config.threads)
        .expect("replayed scan succeeds where the engine's did");
    layers.scan += t.elapsed();
    layers.batch_jobs += batch.len() as u64;
    layers.covered_jobs += search
        .alternatives
        .per_job()
        .iter()
        .filter(|ja| !ja.is_empty())
        .count() as u64;
    layers.slots_examined += search.stats.scan.slots_examined;
    layers.acceptance_tests += search.stats.scan.acceptance_tests;
    layers.windows_found += search.stats.scan.windows_found;

    let t = Instant::now();
    let result = run_iteration_cached_with(
        selector,
        &market,
        &batch,
        &config.iteration,
        shadow,
        Parallelism::new(config.threads),
    )
    .expect("replayed iteration succeeds where the engine's did");
    let iterate = t.elapsed();
    layers.shadow_opt.merge(&result.opt);
    Some((clip, iterate))
}

/// The market a cycle schedules over: every vacant slot clipped to
/// `[now, end)`, fully elapsed ones dropped, in `(start, id)` order.
fn clip_to(vacant: &SlotList, now: TimePoint) -> SlotList {
    let mut clipped: Vec<Slot> = Vec::with_capacity(vacant.len());
    for s in vacant.iter() {
        if s.end() <= now {
            continue;
        }
        if s.start() >= now {
            clipped.push(*s);
        } else {
            let span = Span::new(now, s.end()).expect("end is after now");
            clipped.push(
                s.with_span(s.id(), span)
                    .expect("clipped spans are non-empty"),
            );
        }
    }
    clipped.sort_by_key(|s| (s.start(), s.id()));
    SlotList::from_sorted_slots_with_repr(clipped, vacant.repr())
        .expect("clipping preserves disjointness and unique ids")
}

/// Encodes a checkpoint and writes it with an fsync, timing each part.
fn snapshot_to(sink: &Path, cp: &EngineCheckpoint, capture: Duration, layers: &mut Layers) {
    let t = Instant::now();
    let bytes = encode_snapshot(cp);
    let encode = t.elapsed();
    if let Ok(write) = write_synced(sink, &bytes) {
        layers.snaps.total_ms.push(ms(capture + encode + write));
        layers.snaps.offer(bytes, encode, write);
    }
}
