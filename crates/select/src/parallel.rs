//! Deterministic thread-parallel alternatives-search drivers.
//!
//! Both drivers here produce **byte-identical committed alternatives,
//! remaining lists, pass counts, and commit counts** to their sequential
//! references ([`crate::incremental::find_alternatives_incremental`] and
//! the retained coscheduled rescan driver) at *any* thread count,
//! including 1. Only the scan work counters differ — they measure work
//! actually done, and speculation changes how much work is done, not what
//! is committed. The determinism argument (DESIGN.md §13) rests on three
//! rules:
//!
//! 1. **Fixed merge order.** Worker results are merged in batch index
//!    order, never in completion order, so ties resolve exactly as the
//!    sequential drivers resolve them.
//! 2. **No RNG in workers.** A [`JobScan`] is a pure fold over the slot
//!    list; workers share the immutable list and own disjoint scans.
//! 3. **Serialized commits.** Winner subtraction — the only mutation of
//!    shared state — happens on the driver thread, one window at a time,
//!    appending to a totally ordered report log that lagging scans replay
//!    in order.
//!
//! # The monotone-window-start theorem
//!
//! Speculation is sound because of a strengthening of the resume-
//! soundness argument in [`crate::incremental`]: let a scan's next result
//! on list `L` be a window accepted at anchor `a`, and let `L'` be `L`
//! after any sequence of window subtractions. Then the scan's next result
//! on `L'` (from the same checkpoint) is accepted at an anchor `≥ a`, and
//! its window start is `≥` the old window start. *Proof sketch:* every
//! anchor `< a` failed its acceptance test on `L`; subtraction only
//! removes availability (each remnant maps cost-preservingly to its
//! parent, admission and liveness are preserved downward), so the
//! candidate pool on `L'` injects into the pool on `L` at every anchor
//! and the failed tests keep failing. Hence a stale window start computed
//! on an older list is a **lower bound** on the scan's true next window
//! start — which is what lets the coscheduled driver keep stale keys in
//! its priority queue and still pop an exact global minimum.
//!
//! # Exactness of surviving speculation
//!
//! [`ScanHit::survives`] gives the complementary guarantee: if no later
//! commit removed a touched slot (a chosen member or an admitted member
//! of the group at the acceptance anchor) and no later commit minted a
//! remnant starting before the window start, the speculative window *is*
//! the scan's next result on the current list — earlier acceptance is
//! ruled out by the injection argument above, and the chosen set at the
//! anchor is unchanged because remnants share their parent's cost and
//! carry strictly larger ids, so the `(cost, id)` / `(start, id)`
//! tie-breaks never let one displace a chosen member. When the check
//! fails the drivers fall back to replaying the report log and re-running
//! the scan, which is exactly the sequential step.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ecosched_core::{
    Alternative, Batch, BatchAlternatives, CoreError, SlotList, SubtractionReport, TimePoint,
};

use crate::incremental::{AlgoSpec, JobScan, ScanHit};
use crate::search::SearchOutcome;
use crate::stats::{ScanStats, SearchStats};

/// A per-job scan plus a cursor into the shared subtraction-report log.
///
/// Commits append to one totally ordered log; each scan replays the
/// suffix it has not seen yet (in log order) right before it runs. Lazy
/// replay is equivalent to the sequential driver's eager broadcast
/// because [`JobScan::apply_report`] only matters before the next
/// [`JobScan::run_detailed`], and the checkpoint invariant makes the
/// resulting state a pure function of (list, anchor) regardless of the
/// run/apply interleaving.
struct SyncedScan {
    scan: JobScan,
    synced: usize,
}

impl SyncedScan {
    fn new(spec: &AlgoSpec, request: &ecosched_core::ResourceRequest) -> Self {
        SyncedScan {
            scan: JobScan::new(spec, request),
            synced: 0,
        }
    }

    /// Replays every report the scan has not yet seen, in commit order.
    fn sync(&mut self, reports: &[SubtractionReport]) {
        while self.synced < reports.len() {
            self.scan.apply_report(&reports[self.synced]);
            self.synced += 1;
        }
    }
}

/// Syncs and runs every scan against `list`, fanning the work over at most
/// `threads` scoped workers in contiguous chunks of the batch.
///
/// Hits come back in batch index order regardless of thread count, and
/// the per-worker stat counters are merged in chunk (= batch) order.
/// Every [`ScanStats`] field is either additive or a maximum, so the
/// merged totals are thread-count invariant too.
fn evaluate_scans(
    scans: &mut [SyncedScan],
    list: &SlotList,
    reports: &[SubtractionReport],
    threads: usize,
    stats: &mut ScanStats,
) -> Vec<Option<ScanHit>> {
    let workers = threads.min(scans.len()).max(1);
    if workers <= 1 {
        return scans
            .iter_mut()
            .map(|s| {
                s.sync(reports);
                s.scan.run_detailed(list, stats)
            })
            .collect();
    }
    let chunk = scans.len().div_ceil(workers);
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = scans
            .chunks_mut(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut local = ScanStats::new();
                    let hits: Vec<Option<ScanHit>> = part
                        .iter_mut()
                        .map(|s| {
                            s.sync(reports);
                            s.scan.run_detailed(list, &mut local)
                        })
                        .collect();
                    (hits, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect::<Vec<_>>()
    });
    let mut hits = Vec::with_capacity(scans.len());
    for (part_hits, local) in parts {
        hits.extend(part_hits);
        stats.merge(&local);
    }
    hits
}

/// The speculative-parallel sequential-order (priority-order) search.
/// Byte-identical committed results to
/// [`crate::incremental::find_alternatives_incremental`] at any
/// `threads`.
///
/// Each pass evaluates every live scan concurrently against the
/// pass-start list, then walks the batch in index order: a job whose
/// speculative window [`ScanHit::survives`] every commit made earlier in
/// the pass commits it directly; otherwise the driver replays the report
/// log into the scan and re-runs it — the exact sequential step (the
/// monotone-window-start theorem guarantees the re-run cannot find an
/// earlier window than the speculative one, so resuming from the
/// speculatively advanced checkpoint skips nothing).
pub(crate) fn find_alternatives_parallel(
    spec: &AlgoSpec,
    list: &SlotList,
    batch: &Batch,
    threads: usize,
) -> Result<SearchOutcome, CoreError> {
    let mut remaining = list.clone();
    let mut alternatives = BatchAlternatives::for_jobs(batch.iter().map(|j| j.id()));
    let mut stats = SearchStats::new();
    let mut reports: Vec<SubtractionReport> = Vec::new();
    let mut scans: Vec<SyncedScan> = batch
        .iter()
        .map(|job| SyncedScan::new(spec, job.request()))
        .collect();

    loop {
        let mut found_any = false;
        let pass_mark = reports.len();
        let mut hits = evaluate_scans(&mut scans, &remaining, &reports, threads, &mut stats.scan);
        for (index, job) in batch.iter().enumerate() {
            let Some(hit) = hits[index].take() else {
                continue;
            };
            let window = if reports[pass_mark..].iter().all(|r| hit.survives(r)) {
                Some(hit.window)
            } else {
                scans[index].sync(&reports);
                scans[index]
                    .scan
                    .run_detailed(&remaining, &mut stats.scan)
                    .map(|h| h.window)
            };
            let Some(window) = window else {
                continue;
            };
            let report = remaining.subtract_window_report(&window)?;
            reports.push(report);
            alternatives.per_job_mut()[index].push(Alternative::new(job.id(), window));
            stats.windows_committed += 1;
            found_any = true;
        }
        stats.passes += 1;
        if !found_any {
            break;
        }
    }

    Ok(SearchOutcome {
        alternatives,
        stats,
        remaining,
    })
}

/// The lazy-revalidated priority-queue coscheduled (earliest-window-first)
/// search. Byte-identical committed results to the retained rescan driver
/// ([`crate::find_alternatives_coscheduled_rescan`]) at any `threads`.
///
/// Where the rescan driver re-evaluates every pending job after every
/// commit (`O(batch²)` scan resumes per pass), this driver seeds a binary
/// heap keyed by `(window start, batch index)` once per pass and then
/// *pops* candidates:
///
/// * a popped entry stamped with the current report-log length carries an
///   exact key; since every other key in the heap is a lower bound on its
///   scan's true next window start (monotone-window-start theorem), the
///   popped entry is the global minimum and commits immediately;
/// * a stale entry is revalidated lazily — if its hit
///   [`ScanHit::survives`] every commit since it was stamped, its key is
///   still exact and it is re-stamped and re-pushed without touching the
///   scan; otherwise the scan replays the report log, re-runs from its
///   checkpoint, and re-enters the heap with its fresh key (or drops out
///   dead).
///
/// Per pass this is `O((batch + commits·invalidated) · log batch)` heap
/// work instead of `O(batch · commits)` scan resumes — `O(batch log
/// batch)` when commits interfere with few other jobs, degrading to the
/// rescan cost only when every commit invalidates every candidate.
pub(crate) fn find_alternatives_coscheduled_queue(
    spec: &AlgoSpec,
    list: &SlotList,
    batch: &Batch,
    threads: usize,
) -> Result<SearchOutcome, CoreError> {
    let mut remaining = list.clone();
    let mut alternatives = BatchAlternatives::for_jobs(batch.iter().map(|j| j.id()));
    let mut stats = SearchStats::new();
    let mut reports: Vec<SubtractionReport> = Vec::new();
    let mut scans: Vec<SyncedScan> = batch
        .iter()
        .map(|job| SyncedScan::new(spec, job.request()))
        .collect();

    loop {
        let mut committed_this_pass = 0u64;
        // Seed: evaluate every live scan once against the pass-start list
        // (in parallel), keeping the latest hit per job in `stored`.
        let mut stored = evaluate_scans(&mut scans, &remaining, &reports, threads, &mut stats.scan);
        let mut heap: BinaryHeap<Reverse<(TimePoint, usize, usize)>> = BinaryHeap::new();
        for (index, hit) in stored.iter().enumerate() {
            if let Some(hit) = hit {
                heap.push(Reverse((hit.window.start(), index, reports.len())));
            }
        }

        while let Some(Reverse((start, index, version))) = heap.pop() {
            if version == reports.len() {
                // Exact key and global minimum: commit. The winner sits
                // out the rest of the pass (no re-push), matching the
                // rescan driver's `pending.retain`.
                let Some(hit) = stored[index].take() else {
                    continue; // Unreachable: entries always have a stored hit.
                };
                debug_assert_eq!(hit.window.start(), start);
                let report = remaining.subtract_window_report(&hit.window)?;
                alternatives.per_job_mut()[index]
                    .push(Alternative::new(batch.as_slice()[index].id(), hit.window));
                reports.push(report);
                stats.windows_committed += 1;
                committed_this_pass += 1;
            } else {
                let still_exact = match &stored[index] {
                    Some(hit) => reports[version..].iter().all(|r| hit.survives(r)),
                    None => false,
                };
                if still_exact {
                    heap.push(Reverse((start, index, reports.len())));
                    continue;
                }
                scans[index].sync(&reports);
                stored[index] = scans[index].scan.run_detailed(&remaining, &mut stats.scan);
                if let Some(hit) = &stored[index] {
                    heap.push(Reverse((hit.window.start(), index, reports.len())));
                }
            }
        }

        stats.passes += 1;
        if committed_this_pass == 0 {
            break;
        }
    }

    Ok(SearchOutcome {
        alternatives,
        stats,
        remaining,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::{
        find_alternatives_coscheduled_incremental, find_alternatives_incremental,
    };
    use crate::scan::LengthRule;
    use ecosched_core::{
        Job, JobId, NodeId, Perf, Price, ResourceRequest, Slot, SlotId, Span, TimeDelta,
    };

    fn slot(id: u64, node: u32, perf: f64, price: i64, a: i64, b: i64) -> Slot {
        Slot::new(
            SlotId::new(id),
            NodeId::new(node),
            Perf::from_f64(perf),
            Price::from_credits(price),
            Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap(),
        )
        .unwrap()
    }

    fn request(n: usize, t: i64, c: i64) -> ResourceRequest {
        ResourceRequest::new(
            n,
            TimeDelta::new(t),
            Perf::from_f64(1.0),
            Price::from_credits(c),
        )
        .unwrap()
    }

    /// A deterministic instance dense enough for multi-pass, multi-commit
    /// searches with remnant interleaving.
    fn dense_instance() -> (SlotList, Batch) {
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let nodes = 24u64;
        let mut cursors = vec![0i64; nodes as usize];
        let mut slots = Vec::new();
        for id in 0..600u64 {
            let node = next() % nodes;
            let gap = (next() % 30) as i64;
            let len = 50 + (next() % 220) as i64;
            let start = cursors[node as usize] + gap;
            cursors[node as usize] = start + len;
            slots.push(slot(
                id,
                node as u32,
                1.0 + (next() % 20) as f64 / 10.0,
                1 + (next() % 9) as i64,
                start,
                start + len,
            ));
        }
        let list = SlotList::from_slots(slots).unwrap();
        let jobs: Vec<Job> = (0..8)
            .map(|i| {
                Job::new(
                    JobId::new(i),
                    request(
                        1 + (next() % 4) as usize,
                        30 + (next() % 80) as i64,
                        3 + (next() % 6) as i64,
                    ),
                )
            })
            .collect();
        (list, Batch::from_jobs(jobs).unwrap())
    }

    fn assert_same_commits(a: &SearchOutcome, b: &SearchOutcome, label: &str) {
        assert_eq!(a.alternatives, b.alternatives, "{label}: alternatives");
        assert_eq!(a.remaining, b.remaining, "{label}: remaining list");
        assert_eq!(a.stats.passes, b.stats.passes, "{label}: passes");
        assert_eq!(
            a.stats.windows_committed, b.stats.windows_committed,
            "{label}: commits"
        );
    }

    #[test]
    fn parallel_sequential_matches_incremental_at_every_thread_count() {
        let (list, batch) = dense_instance();
        for spec in [
            AlgoSpec::alp(LengthRule::Corrected),
            AlgoSpec::amp(LengthRule::Corrected, 1.0),
        ] {
            let reference = find_alternatives_incremental(&spec, &list, &batch).unwrap();
            assert!(reference.alternatives.total_found() > batch.len());
            for threads in [1, 2, 3, 7] {
                let parallel = find_alternatives_parallel(&spec, &list, &batch, threads).unwrap();
                assert_same_commits(&parallel, &reference, &format!("threads={threads}"));
            }
        }
    }

    #[test]
    fn queue_driver_matches_rescan_at_every_thread_count() {
        let (list, batch) = dense_instance();
        for spec in [
            AlgoSpec::alp(LengthRule::Corrected),
            AlgoSpec::amp(LengthRule::Corrected, 1.0),
        ] {
            let reference =
                find_alternatives_coscheduled_incremental(&spec, &list, &batch).unwrap();
            assert!(reference.alternatives.total_found() > batch.len());
            for threads in [1, 2, 3, 7] {
                let queued =
                    find_alternatives_coscheduled_queue(&spec, &list, &batch, threads).unwrap();
                assert_same_commits(&queued, &reference, &format!("threads={threads}"));
            }
        }
    }

    #[test]
    fn empty_batch_is_one_empty_pass() {
        let (list, _) = dense_instance();
        let spec = AlgoSpec::amp(LengthRule::Corrected, 1.0);
        let outcome = find_alternatives_coscheduled_queue(&spec, &list, &Batch::new(), 4).unwrap();
        assert_eq!(outcome.stats.passes, 1);
        assert_eq!(outcome.stats.windows_committed, 0);
        let outcome = find_alternatives_parallel(&spec, &list, &Batch::new(), 4).unwrap();
        assert_eq!(outcome.stats.passes, 1);
    }
}
