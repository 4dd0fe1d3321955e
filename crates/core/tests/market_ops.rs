//! Differential oracle for the market's bulk operations.
//!
//! A [`SlotList`] is seeded with random slots and driven through a random
//! operation sequence (publish, window subtraction, carving, region
//! removal, tail return, coalescing, expiry). After *every* step the
//! harness checks each bulk operation against the per-slot loop it
//! replaces, on clones of the current list:
//!
//! * [`SlotList::remove_expired`] equals collecting every elapsed slot and
//!   calling [`SlotList::remove_region`] once per slot;
//! * [`SlotList::insert_batch`] equals inserting the same slots one at a
//!   time: same iteration order, same `next_id`, same `get` and
//!   `covering_slot` answers, and both lists pass `validate()`;
//! * a batch that overlaps the list or itself, or repeats an id, is
//!   refused with a typed error and leaves the list unchanged, as is a
//!   single overlapping insert;
//! * the in-place [`SlotList::coalesce`] equals a per-node merge of
//!   touching same-price, same-performance runs, with `next_id` kept.
//!
//! CI runs this file at `PROPTEST_CASES=512`; the local default below
//! keeps `cargo test` fast.

use ecosched_core::{
    CoreError, NodeId, Perf, Price, Slot, SlotId, SlotList, Span, TimeDelta, TimePoint, Window,
    WindowSlot,
};
use proptest::prelude::*;

/// One abstract mutation. Raw integers are interpreted against the
/// *current* list state (indices reduce modulo the live slot count), so
/// every generated sequence stays meaningful after arbitrary prior
/// mutations and shrinks cleanly.
#[derive(Debug, Clone)]
enum Op {
    /// Publish a fresh slot on `node`, `gap` ticks after that node's
    /// current last vacancy (always disjoint, so always accepted).
    Publish {
        node: u32,
        gap: i64,
        len: i64,
        perf: i64,
        price: i64,
    },
    /// Carve a window out of up to three distinct-node slots via
    /// `subtract_window_report` (the commit path).
    SubtractWindow { picks: [usize; 3], offset: i64 },
    /// Carve an interior span out of one slot via `subtract` (the repair
    /// path).
    Carve { pick: usize, lo: i64, hi: i64 },
    /// Ask for a cut that leaks past the slot's end — must be refused.
    CarveOutside { pick: usize },
    /// Remove every slot intersecting a region around a picked slot
    /// (revocation strikes).
    RemoveRegion { pick: usize, pad: i64 },
    /// Return a completed lease's unused tail: remove a slot, reinsert a
    /// suffix of its span under a freshly minted id.
    TailReturn { pick: usize, keep: i64 },
    /// Merge touching same-price same-perf neighbours (cycle commit).
    Coalesce,
    /// Drop every slot that has elapsed by a picked slot's end (clock
    /// advance).
    Expire { pick: usize },
}

/// The vendored proptest shim has no `prop_oneof`, so the op mix is a
/// tagged tuple: `tag` picks the variant (weights via range width), the
/// remaining fields parameterize it. Unused fields are simply ignored,
/// which keeps every tuple a valid op.
fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0u32..19,
        0usize..64,
        0usize..64,
        0usize..64,
        0i64..300,
        0i64..300,
    )
        .prop_map(|(tag, p1, p2, p3, a, b)| match tag {
            // A third of publications touch the node's last vacancy, so
            // coalescing meets both merge and attribute-change boundaries.
            0..=4 => Op::Publish {
                node: (p1 % 6) as u32,
                gap: if a % 3 == 0 { 0 } else { a % 60 },
                len: 1 + b % 250,
                perf: 500 + (a * 7) % 2500,
                price: 1 + b % 11,
            },
            5..=7 => Op::SubtractWindow {
                picks: [p1, p2, p3],
                offset: a % 40,
            },
            8..=10 => Op::Carve {
                pick: p1,
                lo: a,
                hi: b,
            },
            11 => Op::CarveOutside { pick: p1 },
            12 | 13 => Op::RemoveRegion {
                pick: p1,
                pad: a % 30,
            },
            14 | 15 => Op::TailReturn {
                pick: p1,
                keep: 1 + b % 200,
            },
            16 | 17 => Op::Coalesce,
            _ => Op::Expire { pick: p1 },
        })
}

/// A seed market: a handful of nodes, several head-to-tail vacancies each
/// (ids minted 0..), mirroring what the generator publishes per cycle.
fn seed_slots_strategy() -> impl Strategy<Value = Vec<Slot>> {
    prop::collection::vec(
        (
            prop::collection::vec((0i64..50, 20i64..200), 0..4),
            500i64..3000,
            1i64..12,
        ),
        1..6,
    )
    .prop_map(|nodes| {
        let mut slots = Vec::new();
        let mut id = 0u64;
        for (node, (segments, perf, price)) in nodes.into_iter().enumerate() {
            let mut cursor = 0i64;
            for (gap, len) in segments {
                let start = cursor + gap;
                let end = start + len;
                cursor = end;
                slots.push(slot(id, node as u32, perf, price, start, end));
                id += 1;
            }
        }
        slots
    })
}

/// Candidate batch members: `(node, gap, len, into_gap)` — `into_gap`
/// places the slot inside a hole between two same-node vacancies (the
/// release and tail-return pattern) instead of after the node's last one.
fn batch_strategy() -> impl Strategy<Value = Vec<(u32, i64, i64, bool)>> {
    prop::collection::vec((0u32..7, 0i64..40, 1i64..120, 0u8..2), 0..12).prop_map(|v| {
        v.into_iter()
            .map(|(node, gap, len, mode)| (node, gap, len, mode == 1))
            .collect()
    })
}

fn slot(id: u64, node: u32, perf: i64, price: i64, start: i64, end: i64) -> Slot {
    Slot::new(
        SlotId::new(id),
        NodeId::new(node),
        Perf::from_milli(perf),
        Price::from_credits(price),
        Span::new(TimePoint::new(start), TimePoint::new(end)).unwrap(),
    )
    .unwrap()
}

/// Applies one interpreted op. Returns false if it interpreted to a no-op.
fn apply(op: &Op, list: &mut SlotList) -> bool {
    let view: Vec<Slot> = list.iter().copied().collect();
    match *op {
        Op::Publish {
            node,
            gap,
            len,
            perf,
            price,
        } => {
            let last = view
                .iter()
                .filter(|s| s.node() == NodeId::new(node))
                .max_by_key(|s| s.end());
            let start = last.map_or(0, |s| s.end().ticks()) + gap;
            let id = list.mint_id();
            let mut fresh = slot(id.raw(), node, perf, price, start, start + len);
            // A touching publication keeps the neighbour's performance and,
            // for even prices, its price too: coalescing must merge the
            // latter and keep the price boundary of the former.
            if let Some(last) = last.filter(|_| gap == 0) {
                let price = if price % 2 == 0 {
                    last.price()
                } else {
                    fresh.price()
                };
                fresh = Slot::new(id, last.node(), last.perf(), price, fresh.span()).unwrap();
            }
            assert_eq!(list.insert(fresh), Ok(()));
            true
        }
        Op::SubtractWindow { picks, offset } => {
            if view.is_empty() {
                return false;
            }
            // Up to three members on distinct nodes.
            let mut members: Vec<Slot> = Vec::new();
            for pick in picks {
                let s = view[pick % view.len()];
                if !members.iter().any(|m| m.node() == s.node()) {
                    members.push(s);
                }
            }
            let start = members.iter().map(|s| s.start().ticks()).max().unwrap() + offset;
            let runtime = members
                .iter()
                .map(|s| s.end().ticks() - start)
                .min()
                .unwrap();
            if runtime <= 0 {
                return false;
            }
            let window = Window::new(
                TimePoint::new(start),
                members
                    .iter()
                    .map(|s| WindowSlot::from_slot(s, TimeDelta::new(runtime)).unwrap())
                    .collect(),
            )
            .unwrap();
            let report = list.subtract_window_report(&window).unwrap();
            assert_eq!(report.removed.len(), members.len());
            true
        }
        Op::Carve { pick, lo, hi } => {
            if view.is_empty() {
                return false;
            }
            let victim = view[pick % view.len()];
            let len = victim.span().length().ticks();
            let (a, b) = ((lo % len).min(hi % len), (lo % len).max(hi % len) + 1);
            let cut = Span::new(
                victim.start() + TimeDelta::new(a),
                victim.start() + TimeDelta::new(b),
            )
            .unwrap();
            assert_eq!(list.subtract(victim.id(), cut), Ok(()));
            true
        }
        Op::CarveOutside { pick } => {
            if view.is_empty() {
                return false;
            }
            let victim = view[pick % view.len()];
            let before = list.clone();
            let cut = Span::new(victim.start(), victim.end() + TimeDelta::new(1)).unwrap();
            assert!(matches!(
                list.subtract(victim.id(), cut),
                Err(CoreError::CutOutsideSlot { .. })
            ));
            assert!(matches!(
                list.subtract(SlotId::new(u64::MAX), cut),
                Err(CoreError::SlotNotFound { .. })
            ));
            assert_eq!(*list, before, "refused cuts leave the list unchanged");
            true
        }
        Op::RemoveRegion { pick, pad } => {
            if view.is_empty() {
                return false;
            }
            let victim = view[pick % view.len()];
            let region = Span::new(
                TimePoint::new(victim.start().ticks() - pad),
                victim.end() + TimeDelta::new(pad),
            )
            .unwrap();
            assert!(list
                .remove_region(victim.node(), region)
                .contains(&victim.id()));
            true
        }
        Op::TailReturn { pick, keep } => {
            if view.is_empty() {
                return false;
            }
            let victim = view[pick % view.len()];
            let len = victim.span().length().ticks();
            let used = (keep % len).max(1);
            if used >= len {
                return false;
            }
            list.remove_region(victim.node(), victim.span());
            let id = list.mint_id();
            let tail = victim
                .with_span(
                    id,
                    Span::new(victim.start() + TimeDelta::new(used), victim.end()).unwrap(),
                )
                .unwrap();
            assert_eq!(list.insert_batch(vec![tail]), Ok(()));
            true
        }
        Op::Coalesce => {
            list.coalesce();
            true
        }
        Op::Expire { pick } => {
            if view.is_empty() {
                return false;
            }
            list.remove_expired(view[pick % view.len()].end());
            true
        }
    }
}

/// The per-slot expiry loop [`SlotList::remove_expired`] replaces.
fn expire_by_regions(list: &mut SlotList, now: TimePoint) -> usize {
    let dead: Vec<(NodeId, Span)> = list
        .iter()
        .filter(|s| s.end() <= now)
        .map(|s| (s.node(), s.span()))
        .collect();
    for &(node, span) in &dead {
        list.remove_region(node, span);
    }
    dead.len()
}

/// `remove_expired(now)` against the per-slot loop, at every boundary
/// class: before everything, inside, at slot ends, past everything.
fn check_expiry(step: usize, list: &SlotList, probe: i64) {
    let mut probes: Vec<i64> = vec![probe];
    if let (Some(first), Some(last)) = (list.iter().next(), list.iter().last()) {
        let mut ends: Vec<i64> = list.iter().map(|s| s.end().ticks()).collect();
        ends.sort_unstable();
        probes.extend([
            first.start().ticks(),
            ends[0],
            ends[ends.len() / 2],
            last.start().ticks() + 1,
            ends[ends.len() - 1],
        ]);
    }
    for now in probes.into_iter().map(TimePoint::new) {
        let mut oracle = list.clone();
        let mut swept = list.clone();
        let dropped = expire_by_regions(&mut oracle, now);
        assert_eq!(swept.remove_expired(now), dropped, "step {step}: count");
        assert_eq!(swept, oracle, "step {step}: expiry at {now:?} diverges");
        swept.validate().expect("swept list invariants");
        assert_eq!(
            swept.mint_id(),
            oracle.mint_id(),
            "step {step}: next_id diverges"
        );
    }
}

/// `coalesce` against a per-node reference merge: walk each node's slots
/// in start order and fold every touching same-attribute slot into the
/// run head, which keeps its id.
fn check_coalesce(step: usize, list: &SlotList) {
    let mut by_node: Vec<Slot> = list.iter().copied().collect();
    by_node.sort_by_key(|s| (s.node(), s.start()));
    let mut expected: Vec<Slot> = Vec::new();
    let mut head: Option<usize> = None;
    for slot in by_node {
        match head.map(|h| expected[h]) {
            Some(prev)
                if prev.node() == slot.node()
                    && prev.end() == slot.start()
                    && prev.price() == slot.price()
                    && prev.perf() == slot.perf() =>
            {
                let span = Span::new(prev.start(), slot.end()).unwrap();
                expected[head.unwrap()] = prev.with_span(prev.id(), span).unwrap();
            }
            _ => {
                head = Some(expected.len());
                expected.push(slot);
            }
        }
    }
    expected.sort_by_key(|s| (s.start(), s.id()));

    let mut merged = list.clone();
    let absorbed = merged.coalesce();
    merged.validate().expect("coalesced invariants");
    assert_eq!(absorbed, list.len() - expected.len(), "step {step}: count");
    let got: Vec<Slot> = merged.iter().copied().collect();
    assert_eq!(got, expected, "step {step}: coalesce diverges");
    for s in &expected {
        assert_eq!(
            merged.get(s.id()),
            Some(s),
            "step {step}: get after coalesce"
        );
    }
    assert_eq!(merged.mint_id(), list.clone().mint_id(), "next_id kept");
}

/// Builds a batch of fresh slots, disjoint from the list and from each
/// other, minting their ids from `list`.
fn build_batch(list: &mut SlotList, plan: &[(u32, i64, i64, bool)]) -> Vec<Slot> {
    let mut batch: Vec<Slot> = Vec::new();
    for &(node, gap, len, into_gap) in plan {
        let node_id = NodeId::new(node);
        let mut spans: Vec<(i64, i64)> = list
            .iter()
            .chain(batch.iter())
            .filter(|s| s.node() == node_id)
            .map(|s| (s.start().ticks(), s.end().ticks()))
            .collect();
        spans.sort_unstable();
        let holes: Vec<(i64, i64)> = spans
            .windows(2)
            .filter(|w| w[0].1 < w[1].0)
            .map(|w| (w[0].1, w[1].0))
            .collect();
        let (start, end) = match holes.get(gap as usize % holes.len().max(1)) {
            Some(&(lo, hi)) if into_gap => {
                let start = lo + gap % (hi - lo);
                (start, (start + len).min(hi))
            }
            _ => {
                let start = spans.last().map_or(0, |s| s.1) + gap;
                (start, start + len)
            }
        };
        let id = list.mint_id();
        batch.push(slot(id.raw(), node, 1000, 1 + (gap % 5), start, end));
    }
    batch
}

/// `insert_batch` against one-at-a-time inserts, then the refusal paths.
fn check_batch_insert(step: usize, list: &SlotList, plan: &[(u32, i64, i64, bool)]) {
    let mut base = list.clone();
    let batch = build_batch(&mut base, plan);

    let mut one = base.clone();
    for s in &batch {
        one.insert(*s).expect("batch members are disjoint");
    }
    let mut bulk = base.clone();
    bulk.insert_batch(batch.clone())
        .expect("batch members are disjoint");
    bulk.validate().expect("bulk invariants");
    one.validate().expect("one-at-a-time invariants");
    assert_eq!(bulk, one, "step {step}: bulk insert diverges");
    let order = |l: &SlotList| l.iter().map(Slot::id).collect::<Vec<_>>();
    assert_eq!(order(&bulk), order(&one), "step {step}: iteration order");
    for s in one.iter() {
        assert_eq!(bulk.get(s.id()), Some(s), "step {step}: get({})", s.id());
        assert_eq!(
            bulk.covering_slot(s.node(), s.span()).map(Slot::id),
            Some(s.id()),
            "step {step}: covering_slot"
        );
    }
    assert_eq!(bulk.clone().mint_id(), one.clone().mint_id(), "next_id");

    // Refusals leave the list exactly as it was.
    let Some(&victim) = bulk.iter().next() else {
        return;
    };
    let before = bulk.clone();
    let mut ghost = bulk.clone();
    let clash = victim.with_span(ghost.mint_id(), victim.span()).unwrap();
    assert!(matches!(
        bulk.insert(clash),
        Err(CoreError::OverlappingSlots { .. })
    ));
    let mut overlapping = batch.clone();
    overlapping.push(clash);
    let mut refused = base.clone();
    refused.insert_batch(overlapping).unwrap_err();
    assert_eq!(
        refused, base,
        "step {step}: overlapping batch changed the list"
    );
    if let Some(&first) = batch.first() {
        // Two copies of one batch member overlap each other.
        let twin = first.with_span(ghost.mint_id(), first.span()).unwrap();
        assert!(matches!(
            refused.insert_batch(vec![first, twin]),
            Err(CoreError::OverlappingSlots { .. })
        ));
        assert_eq!(refused, base, "step {step}: self-overlapping batch");
    }
    let reused = victim.with_span(victim.id(), victim.span()).unwrap();
    assert_eq!(
        bulk.insert_batch(vec![reused]),
        Err(CoreError::DuplicateSlotId { id: victim.id() })
    );
    assert_eq!(
        bulk, before,
        "step {step}: refused inserts changed the list"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The workhorse: a random op sequence, with every bulk operation
    /// checked against its per-slot loop after each step.
    #[test]
    fn bulk_ops_match_their_per_slot_loops(
        seed in seed_slots_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..40),
        plan in batch_strategy(),
        probe in -20i64..600,
    ) {
        let mut list = SlotList::from_slots(seed).unwrap();
        check_expiry(0, &list, probe);
        check_batch_insert(0, &list, &plan);
        check_coalesce(0, &list);
        for (step, op) in ops.iter().enumerate() {
            apply(op, &mut list);
            list.validate().expect("list invariants");
            check_expiry(step + 1, &list, probe);
            check_batch_insert(step + 1, &list, &plan);
            check_coalesce(step + 1, &list);
        }
        // The flat wire form round-trips the final state.
        let back: SlotList = serde::Deserialize::from_value(&serde::Serialize::to_value(&list))
            .expect("round-trip");
        prop_assert_eq!(&back, &list);
    }
}
