//! The shared repair ladder's tier rules, checked on hand-built lists:
//! fallbacks that would launch in the past cost no attempt, the postpone
//! reason names the tier that ran out, and struck windows return only
//! their future fragments.

use ecosched_core::{
    NodeId, Perf, Price, ResourceRequest, Revocation, RevocationReason, Slot, SlotId, SlotList,
    Span, TimeDelta, TimePoint, Window, WindowSlot,
};
use ecosched_select::Alp;
use ecosched_sim::{
    return_surviving_fragments, PostponeReason, RepairLadder, RepairOutcome, RepairPolicy,
    RepairStats,
};

fn span(a: i64, b: i64) -> Span {
    Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap()
}

fn slot(id: u64, node: u32, a: i64, b: i64) -> Slot {
    Slot::new(
        SlotId::new(id),
        NodeId::new(node),
        Perf::UNIT,
        Price::from_credits(2),
        span(a, b),
    )
    .unwrap()
}

/// A one-node window `[start, start + 20)` on `node`.
fn window(node: u32, start: i64) -> Window {
    let member =
        WindowSlot::from_slot(&slot(900, node, start, start + 20), TimeDelta::new(20)).unwrap();
    Window::new(TimePoint::new(start), vec![member]).unwrap()
}

fn request() -> ResourceRequest {
    ResourceRequest::new(1, TimeDelta::new(20), Perf::UNIT, Price::from_credits(5)).unwrap()
}

fn ladder(selector: &Alp, now: i64, max_attempts: u32) -> RepairLadder<'_, Alp> {
    RepairLadder {
        selector,
        policy: RepairPolicy {
            max_attempts,
            full_rescan_on_exhaustion: false,
        },
        now: TimePoint::new(now),
        revocations: &[],
    }
}

#[test]
fn past_fallbacks_are_skipped_without_spending_an_attempt() {
    let mut list = SlotList::from_slots(vec![slot(0, 0, 0, 100), slot(1, 1, 0, 100)]).unwrap();
    let fallbacks = [window(0, 10), window(1, 60)];
    let mut stats = RepairStats::default();
    let outcome = ladder(&Alp::new(), 50, 1).repair(
        &mut list,
        &request(),
        &window(2, 60),
        &fallbacks,
        &mut stats,
    );
    assert_eq!(outcome, RepairOutcome::FailedOver(1));
    assert_eq!(stats.failover_validations, 1);
    assert!(list.covering_slot(NodeId::new(1), span(60, 80)).is_none());
    assert!(list.covering_slot(NodeId::new(0), span(10, 30)).is_some());
}

#[test]
fn postpone_reason_names_the_exhausted_tier() {
    // Nothing on the list can host the job.
    let empty = SlotList::new();
    let mut stats = RepairStats::default();
    let mut list = empty.clone();
    let stale =
        ladder(&Alp::new(), 0, 8).repair(&mut list, &request(), &window(0, 0), [], &mut stats);
    assert_eq!(
        stale,
        RepairOutcome::Postponed(PostponeReason::AllAlternativesStale)
    );
    assert_eq!(stats.repairs_attempted, 1);
    let exhausted =
        ladder(&Alp::new(), 0, 0).repair(&mut list, &request(), &window(0, 0), [], &mut stats);
    assert_eq!(
        exhausted,
        RepairOutcome::Postponed(PostponeReason::RepairBudgetExhausted)
    );
    assert_eq!(stats.repairs_attempted, 1, "no budget, no scan");
    assert_eq!(
        (stats.postponed_stale, stats.postponed_budget_exhausted),
        (1, 1)
    );
    assert_eq!(list, empty);
}

#[test]
fn surviving_fragments_are_clipped_to_now() {
    let mut list = SlotList::new();
    let struck = window(0, 0);
    let revocation = Revocation {
        slot: SlotId::new(77),
        node: NodeId::new(0),
        span: span(8, 12),
        reason: RevocationReason::SlotDrop,
    };
    // [0, 8) survives but is partly elapsed at 5; [12, 20) survives.
    return_surviving_fragments(&mut list, [&struck], &[revocation], TimePoint::new(5));
    let spans: Vec<Span> = list.iter().map(|s| s.span()).collect();
    assert_eq!(spans, vec![span(5, 8), span(12, 20)]);
    // At 10 the left fragment has fully elapsed.
    let mut later = SlotList::new();
    return_surviving_fragments(&mut later, [&struck], &[revocation], TimePoint::new(10));
    let spans: Vec<Span> = later.iter().map(|s| s.span()).collect();
    assert_eq!(spans, vec![span(12, 20)]);
}
