//! The repair ladder: how a lease broken by revocation is recovered.
//!
//! Both execution layers — the batch-cycle [`crate::Metascheduler`] and
//! the discrete-event engine's mid-cycle strikes — recover broken leases
//! through the one ladder defined here, [`RepairLadder::repair`]:
//!
//! 1. **failover** — adopt a surviving pre-computed alternative
//!    ([`try_adopt_window`]); the alternatives are pairwise disjoint by
//!    construction but must be re-validated against regions consumed by
//!    other jobs and against the revocations;
//! 2. **bounded repair search** — re-run the window search for just the
//!    broken job on the post-revocation list, resuming at
//!    `max(broken start, now)` via the incremental checkpoint machinery
//!    ([`repair_search`]);
//! 3. **full rescan** (tier 2.5, only under
//!    [`RepairPolicy::full_rescan_on_exhaustion`]) — the same search
//!    anchored at `now`, so it can adopt windows that start before the
//!    broken plan;
//! 4. **postpone** — carry the job to the next cycle with a
//!    [`PostponeReason`].
//!
//! `now` is the virtual time the strike lands at. Nothing may launch in
//! the past, so fallbacks starting before `now` are skipped without
//! spending an attempt and both searches are anchored at or after it.
//! The metascheduler's per-cycle lists have no clock and start at or
//! after [`TimePoint::ZERO`], so it passes `now = ZERO` and those
//! filters never fire there.
//!
//! The module also holds the two bulk returns to the market that
//! surround a repair pass: [`release_windows`] (regions a job no longer
//! holds) and [`return_surviving_fragments`] (what a strike left of a
//! broken window). Both mint their ids one by one in a fixed order and
//! merge them with a single [`SlotList::insert_batch`].

use ecosched_core::{ResourceRequest, Revocation, Slot, SlotList, Span, TimePoint, Window};
use ecosched_select::{repair_search, try_adopt_window, RepairError, ScanStats, SlotSelector};
use serde::{Deserialize, Serialize};

/// Why a job left a cycle unscheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PostponeReason {
    /// The alternatives search found no suitable window (the paper's
    /// original postpone path).
    NoAlternatives,
    /// Revocation broke the lease, every surviving alternative failed
    /// re-validation, and the repair search found no replacement.
    AllAlternativesStale,
    /// The repair attempt budget ran out before a replacement was secured.
    RepairBudgetExhausted,
}

/// Bounds the per-lease recovery work.
///
/// Each broken lease may spend at most `max_attempts` recovery attempts,
/// where one attempt is either one failover re-validation or one bounded
/// repair scan. Exhausting the budget postpones the job with
/// [`PostponeReason::RepairBudgetExhausted`].
///
/// # Earlier-start exclusion
///
/// The tier-2 repair scan deliberately resumes **at the broken window's
/// start** (via the incremental checkpoint machinery's `resume_from`),
/// never earlier. Windows beginning before the broken plan are excluded
/// by design: the original search already walked that prefix against a
/// strictly *larger* availability list and committed or rejected every
/// start point in it, so under slot subtraction (which only removes
/// availability) no start earlier than the original plan can newly become
/// feasible. Skipping the prefix keeps the repair O(survivors past the
/// anchor) instead of O(list) without giving up any window the sequential
/// rescan could have found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairPolicy {
    /// Maximum recovery attempts (validations plus scans) per broken lease.
    pub max_attempts: u32,
    /// When the bounded anchored repair is exhausted — the attempt budget
    /// ran out, or the anchored scan came up dry — retry **once** with a
    /// full rescan from `now` (the head of the list in the
    /// metascheduler) before postponing. This is the escape hatch from
    /// the earlier-start exclusion: under pure slot *subtraction* no
    /// earlier start can newly become feasible, but broken leases
    /// **release** their surviving fragments back into the list first,
    /// so a fragment of a pre-anchor slot can make a window feasible
    /// that starts before the broken plan. The full rescan is the only
    /// tier that can see it. Costs one O(list) scan per otherwise-
    /// postponed lease; default off.
    pub full_rescan_on_exhaustion: bool,
}

impl Default for RepairPolicy {
    fn default() -> Self {
        RepairPolicy {
            max_attempts: 8,
            full_rescan_on_exhaustion: false,
        }
    }
}

/// Counters describing one cycle's (or one run's) fault-and-repair
/// activity. Every injected revocation is accounted for:
/// `revocations_injected == revocations_breaking + revocations_vacant_only`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RepairStats {
    /// Revocations drawn by the model.
    pub revocations_injected: u64,
    /// Revocations whose region intersected at least one committed lease.
    pub revocations_breaking: u64,
    /// Revocations that only removed vacant (uncommitted) time.
    pub revocations_vacant_only: u64,
    /// Committed leases broken by at least one revocation.
    pub leases_broken: u64,
    /// Alternative re-validations attempted during failover (tier 1).
    pub failover_validations: u64,
    /// Failovers whose re-validation failed because a region was revoked.
    pub failover_stale_revoked: u64,
    /// Failovers whose re-validation failed because a region was consumed
    /// by another job's commitment or repair.
    pub failover_stale_consumed: u64,
    /// Broken leases recovered by adopting a surviving alternative.
    pub failovers_taken: u64,
    /// Bounded repair searches started (tier 2).
    pub repairs_attempted: u64,
    /// Bounded repair searches that found a fresh window.
    pub repairs_succeeded: u64,
    /// Full rescans started after the anchored repair was exhausted
    /// (tier 2.5, only under
    /// [`RepairPolicy::full_rescan_on_exhaustion`]).
    pub full_rescans_attempted: u64,
    /// Full rescans that recovered a window the anchored tiers missed.
    pub full_rescans_succeeded: u64,
    /// Total recovered-minus-original window cost over every failover and
    /// repair, in credits (negative when recovery found cheaper windows).
    pub repair_cost_delta: f64,
    /// AMP acceptance tests during repair scans that were rejected by the
    /// job budget — windows the repair refused rather than overspend.
    pub budget_violations_avoided: u64,
    /// Scan-work counters of every repair search, including the
    /// checkpoint-resume proof ([`ScanStats::checkpoint_hits`]). Both the
    /// anchored repair and the full rescan go through [`repair_search`],
    /// so each counts one checkpoint hit: with the full rescan off,
    /// `checkpoint_hits == repairs_attempted`; with it on, the rescans
    /// add theirs.
    pub repair_scan: ScanStats,
    /// Jobs postponed because the search found no alternatives at all.
    pub postponed_no_alternatives: u64,
    /// Broken jobs postponed after every alternative went stale and the
    /// repair search came up empty.
    pub postponed_stale: u64,
    /// Broken jobs postponed because the repair attempt budget ran out.
    pub postponed_budget_exhausted: u64,
}

impl RepairStats {
    /// Adds another counter set into this one (`repair_scan` merges per
    /// [`ScanStats::merge`]).
    pub fn merge(&mut self, other: &RepairStats) {
        self.revocations_injected += other.revocations_injected;
        self.revocations_breaking += other.revocations_breaking;
        self.revocations_vacant_only += other.revocations_vacant_only;
        self.leases_broken += other.leases_broken;
        self.failover_validations += other.failover_validations;
        self.failover_stale_revoked += other.failover_stale_revoked;
        self.failover_stale_consumed += other.failover_stale_consumed;
        self.failovers_taken += other.failovers_taken;
        self.repairs_attempted += other.repairs_attempted;
        self.repairs_succeeded += other.repairs_succeeded;
        self.full_rescans_attempted += other.full_rescans_attempted;
        self.full_rescans_succeeded += other.full_rescans_succeeded;
        self.repair_cost_delta += other.repair_cost_delta;
        self.budget_violations_avoided += other.budget_violations_avoided;
        self.repair_scan.merge(&other.repair_scan);
        self.postponed_no_alternatives += other.postponed_no_alternatives;
        self.postponed_stale += other.postponed_stale;
        self.postponed_budget_exhausted += other.postponed_budget_exhausted;
    }

    /// Broken leases that recovered without postponing.
    #[must_use]
    pub fn recovered(&self) -> u64 {
        self.failovers_taken + self.repairs_succeeded + self.full_rescans_succeeded
    }
}

/// How the ladder recovered one broken lease.
#[derive(Debug, Clone, PartialEq)]
pub enum RepairOutcome {
    /// Tier 1 adopted the fallback at this position of the sequence
    /// passed to [`RepairLadder::repair`]; its regions are already carved
    /// out of the list.
    FailedOver(usize),
    /// A repair search (anchored or full rescan) found this window; it is
    /// already carved out of the list.
    Repaired(Window),
    /// Every tier failed; the job goes back to the queue.
    Postponed(PostponeReason),
}

/// One strike's repair context: the selector, the attempt budget, the
/// strike time and the revocations the fallbacks are re-validated
/// against. Broken leases are repaired one [`RepairLadder::repair`] call
/// at a time, in priority order, over the same list.
#[derive(Debug, Clone, Copy)]
pub struct RepairLadder<'a, S> {
    /// Runs the repair searches.
    pub selector: &'a S,
    /// The per-lease attempt budget and the full-rescan switch.
    pub policy: RepairPolicy,
    /// The strike time: nothing launches before it.
    pub now: TimePoint,
    /// This strike's revocations.
    pub revocations: &'a [Revocation],
}

impl<S: SlotSelector> RepairLadder<'_, S> {
    /// Recovers the job whose window `broken` was struck, carving the
    /// replacement (if any) out of `list`.
    ///
    /// `fallbacks` are the job's other pre-computed alternatives, in
    /// preference order, without the broken one. Tiers run in order —
    /// failover, anchored repair search, optional full rescan, postpone —
    /// and `stats` counts every attempt and its result. The postpone
    /// reason is [`PostponeReason::RepairBudgetExhausted`] when the
    /// budget ran out and [`PostponeReason::AllAlternativesStale`]
    /// otherwise.
    pub fn repair<'w>(
        &self,
        list: &mut SlotList,
        request: &ResourceRequest,
        broken: &Window,
        fallbacks: impl IntoIterator<Item = &'w Window>,
        stats: &mut RepairStats,
    ) -> RepairOutcome {
        let max = self.policy.max_attempts;
        let original_cost = broken.total_cost();
        let mut attempts: u32 = 0;

        for (k, alt) in fallbacks.into_iter().enumerate() {
            if alt.start() < self.now {
                continue; // cannot launch in the past
            }
            if attempts >= max {
                break;
            }
            attempts += 1;
            stats.failover_validations += 1;
            match try_adopt_window(alt, list, self.revocations) {
                Ok(()) => {
                    stats.failovers_taken += 1;
                    stats.repair_cost_delta += (alt.total_cost() - original_cost).to_f64();
                    return RepairOutcome::FailedOver(k);
                }
                Err(RepairError::Revoked { .. }) => stats.failover_stale_revoked += 1,
                Err(RepairError::Consumed { .. }) => stats.failover_stale_consumed += 1,
            }
        }

        if attempts < max {
            attempts += 1;
            stats.repairs_attempted += 1;
            let anchor = broken.start().max(self.now);
            if let Some(window) = self.search(list, request, anchor, stats) {
                stats.repairs_succeeded += 1;
                stats.repair_cost_delta += (window.total_cost() - original_cost).to_f64();
                return RepairOutcome::Repaired(window);
            }
        }

        if self.policy.full_rescan_on_exhaustion {
            stats.full_rescans_attempted += 1;
            if let Some(window) = self.search(list, request, self.now, stats) {
                stats.full_rescans_succeeded += 1;
                stats.repair_cost_delta += (window.total_cost() - original_cost).to_f64();
                return RepairOutcome::Repaired(window);
            }
        }

        RepairOutcome::Postponed(if attempts >= max {
            stats.postponed_budget_exhausted += 1;
            PostponeReason::RepairBudgetExhausted
        } else {
            stats.postponed_stale += 1;
            PostponeReason::AllAlternativesStale
        })
    }

    /// One repair scan from `anchor`, booked into `stats`; a found window
    /// is carved out of `list`.
    fn search(
        &self,
        list: &mut SlotList,
        request: &ResourceRequest,
        anchor: TimePoint,
        stats: &mut RepairStats,
    ) -> Option<Window> {
        let mut scan = ScanStats::new();
        let found = repair_search(self.selector, request, anchor, list, &mut scan);
        stats.budget_violations_avoided += scan.acceptance_tests - scan.windows_found;
        stats.repair_scan.merge(&scan);
        if let Some(window) = &found {
            list.subtract_window(window)
                .expect("repair windows are carved from the list");
        }
        found
    }
}

/// Returns every region of `windows` to `list` as freshly minted slots,
/// in one merge. The regions must have been carved from `list`.
pub fn release_windows<'w>(list: &mut SlotList, windows: impl IntoIterator<Item = &'w Window>) {
    let mut released = Vec::new();
    for window in windows {
        for ws in window.slots() {
            let id = list.mint_id();
            released.push(
                Slot::new(id, ws.node(), ws.perf(), ws.price(), window.used_span(ws))
                    .expect("window members have positive runtimes"),
            );
        }
    }
    list.insert_batch(released)
        .expect("released regions were carved from this list");
}

/// Returns what `revocations` left of each struck window in `windows` —
/// every fragment the strikes did not consume, clipped to start at
/// `now`, with fully elapsed fragments dropped — to `list` as freshly
/// minted slots, in one merge.
pub fn return_surviving_fragments<'w>(
    list: &mut SlotList,
    windows: impl IntoIterator<Item = &'w Window>,
    revocations: &[Revocation],
    now: TimePoint,
) {
    let mut returned = Vec::new();
    for window in windows {
        for ws in window.slots() {
            let mut fragments = vec![window.used_span(ws)];
            for r in revocations.iter().filter(|r| r.node == ws.node()) {
                let mut survivors = Vec::new();
                for frag in fragments {
                    let (left, right) = frag.subtract(r.span);
                    survivors.extend(left);
                    survivors.extend(right);
                }
                fragments = survivors;
            }
            for frag in fragments {
                if frag.end() <= now {
                    continue; // already elapsed
                }
                let span = Span::new(frag.start().max(now), frag.end())
                    .expect("clipped fragments are non-empty");
                let id = list.mint_id();
                returned.push(
                    Slot::new(id, ws.node(), ws.perf(), ws.price(), span)
                        .expect("surviving fragments are non-empty"),
                );
            }
        }
    }
    list.insert_batch(returned)
        .expect("struck regions were held exclusively");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repair_stats_merge_is_additive() {
        let mut a = RepairStats {
            revocations_injected: 3,
            revocations_breaking: 1,
            revocations_vacant_only: 2,
            failovers_taken: 1,
            repair_cost_delta: -2.5,
            ..RepairStats::default()
        };
        let b = RepairStats {
            revocations_injected: 2,
            revocations_breaking: 2,
            repairs_attempted: 1,
            repair_cost_delta: 4.0,
            ..RepairStats::default()
        };
        a.merge(&b);
        assert_eq!(a.revocations_injected, 5);
        assert_eq!(a.revocations_breaking, 3);
        assert_eq!(a.revocations_vacant_only, 2);
        assert_eq!(a.repairs_attempted, 1);
        assert_eq!(a.recovered(), 1);
        assert!((a.repair_cost_delta - 1.5).abs() < 1e-12);
    }
}
