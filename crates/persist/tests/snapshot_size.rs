//! Snapshot-size bounds for the optimizer section.
//!
//! The optimizer section carries the inputs of the cached DP rows and
//! Pareto layers — one `(weight, value)` or `(cost, time)` pair per
//! alternative — never the row values, whose count grows with the quota
//! width. These tests pin both halves of that: a large one-cycle batch
//! encodes within a fixed number of bytes per alternative, and widening
//! every cached row leaves the encoding the same size.

use ecosched_core::{
    Alternative, JobAlternatives, JobId, Money, NodeId, Perf, Price, Slot, SlotId, Span, TimeDelta,
    TimePoint, Window, WindowSlot,
};
use ecosched_engine::{ArrivalConfig, Engine, EngineConfig};
use ecosched_optimize::{IncrementalOptimizer, OptimizerSnapshot};
use ecosched_persist::run_with_snapshots;
use ecosched_select::Amp;
use ecosched_sim::{IntRange, JobGenConfig, SlotGenConfig};

/// Encoded bytes allowed per cached alternative: two integers of up to
/// 20 digits each plus separators, with the per-row fingerprint and keys
/// amortized over at least one alternative per row.
const BYTES_PER_ALTERNATIVE: usize = 128;

/// Jobs arriving between the first two cycle ticks, nearly all of them
/// scheduled in the second.
const BACKLOG: u32 = 320;

fn json_len(snapshot: &OptimizerSnapshot) -> usize {
    serde_json::to_string(snapshot).expect("encodes").len()
}

/// Alternatives cached across every DP row and Pareto layer.
fn alternatives(snapshot: &OptimizerSnapshot) -> usize {
    let rows: usize = [&snapshot.cost_min, &snapshot.cost_max, &snapshot.time_min]
        .iter()
        .flat_map(|cache| &cache.rows)
        .map(|row| row.weights.len())
        .sum();
    let layers: usize = snapshot
        .frontier_layers
        .iter()
        .map(|l| l.points.len())
        .sum();
    rows + layers
}

/// The optimizer section after the second cycle of a run whose backlog
/// arrives in the first cycle's period, on a market wide enough that
/// every job finds alternatives.
fn backlog_snapshot() -> OptimizerSnapshot {
    let config = EngineConfig {
        cycles: 2,
        slot_gen: SlotGenConfig {
            slot_count: IntRange::new(3_000, 3_000),
            ..SlotGenConfig::default()
        },
        arrivals: ArrivalConfig::Poisson {
            mean_interarrival: 0.1,
            jobs: BACKLOG,
            job_gen: JobGenConfig::default(),
        },
        ..EngineConfig::default()
    };
    let engine = Engine::new(config, Amp::new()).expect("config");
    let (_, snapshots) = run_with_snapshots(&engine, 7, 1).expect("run");
    let checkpoint = snapshots.into_iter().nth(1).expect("two cycle commits");
    checkpoint.optimizer.expect("optimizer cache is on")
}

/// One job whose alternatives have exactly the given `(cost micro,
/// ticks)` measures: each window pairs a free slot held for the time
/// with a one-tick slot priced at the cost.
fn job(id: u32, specs: impl Iterator<Item = (i64, i64)>) -> JobAlternatives {
    let span = Span::new(TimePoint::ZERO, TimePoint::new(1_000_000)).expect("span");
    let mut ja = JobAlternatives::new(JobId::new(id));
    for (cost, time) in specs {
        let length = Slot::new(
            SlotId::new(0),
            NodeId::new(0),
            Perf::UNIT,
            Price::ZERO,
            span,
        )
        .expect("slot");
        let priced = Slot::new(
            SlotId::new(1),
            NodeId::new(1),
            Perf::UNIT,
            Price::from_micro(cost),
            span,
        )
        .expect("slot");
        let window = Window::new(
            TimePoint::ZERO,
            vec![
                WindowSlot::from_slot(&length, TimeDelta::new(time)).expect("member"),
                WindowSlot::from_slot(&priced, TimeDelta::new(1)).expect("member"),
            ],
        )
        .expect("window");
        assert_eq!(window.total_cost(), Money::from_micro(cost));
        ja.push(Alternative::new(JobId::new(id), window));
    }
    ja
}

#[test]
fn optimizer_section_is_linear_in_alternatives() {
    let snapshot = backlog_snapshot();
    let rows = snapshot.cost_max.rows.len();
    assert!(
        rows >= 300,
        "the first cycle must solve the whole backlog, solved {rows} jobs"
    );
    let alternatives = alternatives(&snapshot);
    let bytes = json_len(&snapshot);
    assert!(
        bytes <= BYTES_PER_ALTERNATIVE * alternatives,
        "optimizer section {bytes} B for {alternatives} alternatives exceeds \
         {BYTES_PER_ALTERNATIVE} B each"
    );
}

#[test]
fn optimizer_section_does_not_grow_with_the_quota_width() {
    let snapshot = backlog_snapshot();
    let cache = &snapshot.cost_max;
    // The cached batch itself: time-axis rows keep (ticks, cost micro).
    let batch: Vec<JobAlternatives> = cache
        .rows
        .iter()
        .enumerate()
        .map(|(i, row)| {
            job(
                i as u32,
                row.values.iter().copied().zip(row.weights.iter().copied()),
            )
        })
        .collect();

    let mut optimizer = IncrementalOptimizer::from_snapshot(&snapshot);
    let before = optimizer.stats();
    let wide = TimeDelta::new(2 * cache.width as i64);
    optimizer
        .max_cost_under_time(&batch, wide)
        .expect("a wider quota stays feasible");
    let work = optimizer.stats().delta_since(&before);
    assert_eq!(work.rows_rebuilt, 0, "the same batch rebuilds nothing");
    assert_eq!(work.rows_extended, batch.len() as u64, "every row widens");

    // Compare the caches alone: the work counters grew by this solve.
    let widened = OptimizerSnapshot {
        stats: snapshot.stats,
        ..optimizer.snapshot()
    };
    assert_eq!(widened.cost_max.width, 2 * cache.width);
    assert_eq!(widened.cost_max.rows, cache.rows);
    // Only the width field itself may gain a digit.
    assert!(
        json_len(&widened) <= json_len(&snapshot) + 1,
        "doubling the width grew the optimizer section from {} to {} B",
        json_len(&snapshot),
        json_len(&widened)
    );
}
