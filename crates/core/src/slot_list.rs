//! The ordered vacant-slot list and the slot-subtraction operation.
//!
//! Local resource managers publish vacant slots; the metascheduler keeps
//! them in a list ordered by non-decreasing start time (Fig. 1 (a) of the
//! paper). When a window is committed for a job, the used intervals are
//! *subtracted* from the list (Fig. 1 (b)): each source slot `K` is removed
//! and replaced by the remnants `K1 = [K.start, K'.start)` and
//! `K2 = [K'.end, K.end)`, dropping zero-length pieces.
//!
//! [`SlotList`] stores the list the way the search reads it: one
//! `(start, id)`-ordered `Vec<Slot>`, so an ALP/AMP scan is a forward walk
//! over a slice. Two side indexes keep point edits cheap:
//!
//! * an id → start map: `get` and `subtract` find a slot with a hash
//!   probe and a binary search;
//! * a per-node `start → id` map: region carving, coverage queries and
//!   the insert-time overlap check are `O(log m)` range lookups.
//!
//! A single splice still moves the tail of the vector, so bulk edits have
//! one-pass forms. [`SlotList::insert_batch`] sorts a batch and merges it
//! into the vector in one pass, and [`SlotList::remove_expired`] drops
//! every elapsed slot with one compaction of the `start < now` prefix.
//!
//! Same-node slots stay disjoint under every mutation. An insert that
//! would overlap is refused with [`CoreError::OverlappingSlots`] and
//! leaves the list unchanged, and decoding refuses a payload that is out
//! of order or overlaps.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::resource::NodeId;
use crate::slot::{Slot, SlotId};
use crate::time::{Span, TimeDelta, TimePoint};
use crate::window::Window;

/// The storage behind a [`SlotList`]: always the flat start-ordered
/// vector.
///
/// Only one store remains. The type stays so that callers written when
/// the list had two interchangeable stores
/// ([`SlotList::repr`], [`SlotList::from_sorted_slots_with_repr`]) keep
/// compiling unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MarketRepr {
    /// Start-ordered vector with an id index and per-node start maps.
    Flat,
}

/// A list of vacant slots ordered by `(start time, slot id)`.
///
/// # Examples
///
/// ```
/// use ecosched_core::{NodeId, Perf, Price, Slot, SlotId, SlotList, Span, TimePoint};
///
/// let mut list = SlotList::new();
/// let span = Span::new(TimePoint::new(0), TimePoint::new(100)).unwrap();
/// let id = list.mint_id();
/// list.insert(Slot::new(id, NodeId::new(0), Perf::UNIT, Price::from_credits(2), span)?)?;
/// assert_eq!(list.len(), 1);
/// # Ok::<(), ecosched_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SlotList {
    slots: Vec<Slot>,
    next_id: u64,
    /// Start time of each live slot, keyed by id: turns `get`/`subtract`
    /// into a hash probe + binary search on the ordered vector.
    index: HashMap<SlotId, TimePoint>,
    /// Per-node view `start → id`. Same-node slots are disjoint, so the
    /// start uniquely keys a slot within its node; this turns region
    /// queries into `O(log m)` range lookups instead of full scans.
    node_starts: HashMap<NodeId, BTreeMap<TimePoint, SlotId>>,
}

/// What one [`SlotList::subtract_window_report`] call did to the list:
/// which slots were consumed and which remnants replaced them.
///
/// The incremental alternatives search uses this to update per-job scan
/// state without re-reading the whole list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubtractionReport {
    /// Ids removed from the list (the window's source slots).
    pub removed: Vec<SlotId>,
    /// Freshly minted remnant slots inserted in their place.
    pub remnants: Vec<Slot>,
}

/// Running per-node disjointness check over slots visited in
/// non-decreasing start order: a slot overlaps an earlier same-node slot
/// iff it starts before the furthest end seen on that node.
fn admit_in_start_order(
    ends: &mut HashMap<NodeId, (TimePoint, SlotId)>,
    slot: &Slot,
) -> Result<(), CoreError> {
    match ends.get_mut(&slot.node()) {
        Some((end, first)) => {
            if slot.start() < *end {
                return Err(CoreError::OverlappingSlots {
                    node: slot.node(),
                    first: *first,
                    second: slot.id(),
                });
            }
            if slot.end() > *end {
                *end = slot.end();
                *first = slot.id();
            }
        }
        None => {
            ends.insert(slot.node(), (slot.end(), slot.id()));
        }
    }
    Ok(())
}

impl SlotList {
    /// Creates an empty slot list.
    #[must_use]
    pub fn new() -> Self {
        SlotList::default()
    }

    /// The store backing this list — always [`MarketRepr::Flat`].
    #[must_use]
    pub fn repr(&self) -> MarketRepr {
        MarketRepr::Flat
    }

    /// Builds a list from arbitrary slots, sorting them by start time.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateSlotId`] if two slots share an id, or
    /// [`CoreError::OverlappingSlots`] if two slots on the same node
    /// overlap in time.
    pub fn from_slots(mut slots: Vec<Slot>) -> Result<Self, CoreError> {
        slots.sort_by_key(|s| (s.start(), s.id()));
        // After the sort, only a repeated id can break the strict order.
        if let Some(pair) = slots.windows(2).find(|p| p[0].id() == p[1].id()) {
            return Err(CoreError::DuplicateSlotId { id: pair[1].id() });
        }
        SlotList::from_sorted_slots(slots)
    }

    /// Builds a list from slots already in strictly increasing
    /// `(start, id)` order — the bulk-load path. One pass, `O(m)`: order,
    /// id uniqueness, and same-node disjointness are all checked as the
    /// slots stream in, with no sort and no quadratic overlap scan.
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnsortedSlots`] if a slot is not strictly after its
    ///   predecessor in `(start, id)` order (this also rejects duplicate
    ///   ids at equal starts);
    /// * [`CoreError::DuplicateSlotId`] if an id repeats across different
    ///   start times;
    /// * [`CoreError::OverlappingSlots`] if two slots on one node overlap.
    ///
    /// # Examples
    ///
    /// ```
    /// use ecosched_core::{NodeId, Perf, Price, Slot, SlotId, SlotList, Span, TimePoint};
    ///
    /// let mk = |id: u64, a: i64, b: i64| Slot::new(
    ///     SlotId::new(id), NodeId::new(id as u32), Perf::UNIT,
    ///     Price::from_credits(2),
    ///     Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap(),
    /// ).unwrap();
    /// let list = SlotList::from_sorted_slots(vec![mk(0, 0, 50), mk(1, 0, 60)]).unwrap();
    /// assert_eq!(list.len(), 2);
    /// assert!(SlotList::from_sorted_slots(vec![mk(0, 10, 50), mk(1, 0, 60)]).is_err());
    /// ```
    pub fn from_sorted_slots(slots: Vec<Slot>) -> Result<Self, CoreError> {
        let mut index = HashMap::with_capacity(slots.len());
        let mut node_starts: HashMap<NodeId, BTreeMap<TimePoint, SlotId>> = HashMap::new();
        let mut node_ends: HashMap<NodeId, (TimePoint, SlotId)> = HashMap::new();
        let mut next_id = 0u64;
        for (i, slot) in slots.iter().enumerate() {
            if i > 0 {
                let prev = &slots[i - 1];
                if (prev.start(), prev.id()) >= (slot.start(), slot.id()) {
                    return Err(CoreError::UnsortedSlots { index: i });
                }
            }
            if index.insert(slot.id(), slot.start()).is_some() {
                return Err(CoreError::DuplicateSlotId { id: slot.id() });
            }
            admit_in_start_order(&mut node_ends, slot)?;
            node_starts
                .entry(slot.node())
                .or_default()
                .insert(slot.start(), slot.id());
            next_id = next_id.max(slot.id().raw() + 1);
        }
        Ok(SlotList {
            slots,
            next_id,
            index,
            node_starts,
        })
    }

    /// [`SlotList::from_sorted_slots`]; `repr` can only be
    /// [`MarketRepr::Flat`]. Kept for callers that still pass a store.
    ///
    /// # Errors
    ///
    /// As [`SlotList::from_sorted_slots`].
    pub fn from_sorted_slots_with_repr(
        slots: Vec<Slot>,
        repr: MarketRepr,
    ) -> Result<Self, CoreError> {
        let MarketRepr::Flat = repr;
        SlotList::from_sorted_slots(slots)
    }

    /// Mints a fresh slot id, unique within this list.
    pub fn mint_id(&mut self) -> SlotId {
        let id = SlotId::new(self.next_id);
        self.next_id += 1;
        id
    }

    /// Inserts a slot, keeping the ordering invariant.
    ///
    /// # Errors
    ///
    /// * [`CoreError::DuplicateSlotId`] if the id is already present;
    /// * [`CoreError::OverlappingSlots`] if the slot overlaps a slot on
    ///   the same node (an `O(log m)` check of its same-node neighbours).
    ///
    /// On error the list is unchanged.
    pub fn insert(&mut self, slot: Slot) -> Result<(), CoreError> {
        if self.index.contains_key(&slot.id()) {
            return Err(CoreError::DuplicateSlotId { id: slot.id() });
        }
        self.check_disjoint(&slot)?;
        self.place(slot);
        Ok(())
    }

    /// Inserts a batch of slots in one pass: the batch is sorted, checked
    /// as a whole, and merged into the ordered vector from the back, so
    /// each existing slot moves at most once. The result equals inserting
    /// the slots one at a time with [`SlotList::insert`].
    ///
    /// # Errors
    ///
    /// As [`SlotList::insert`], for a slot that collides with the list or
    /// with another slot of the batch. On error the list is unchanged.
    ///
    /// # Examples
    ///
    /// ```
    /// use ecosched_core::{NodeId, Perf, Price, Slot, SlotList, Span, TimePoint};
    ///
    /// let mut list = SlotList::new();
    /// let mut batch = Vec::new();
    /// for (node, a, b) in [(0, 50, 90), (1, 0, 40), (0, 0, 50)] {
    ///     let span = Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap();
    ///     let id = list.mint_id();
    ///     batch.push(Slot::new(id, NodeId::new(node), Perf::UNIT, Price::from_credits(2), span)?);
    /// }
    /// list.insert_batch(batch)?;
    /// let starts: Vec<i64> = list.iter().map(|s| s.start().ticks()).collect();
    /// assert_eq!(starts, vec![0, 0, 50]);
    /// # Ok::<(), ecosched_core::CoreError>(())
    /// ```
    pub fn insert_batch(&mut self, mut batch: Vec<Slot>) -> Result<(), CoreError> {
        batch.sort_unstable_by_key(|s| (s.start(), s.id()));
        let mut ids: HashSet<SlotId> = HashSet::with_capacity(batch.len());
        let mut node_ends: HashMap<NodeId, (TimePoint, SlotId)> = HashMap::new();
        for slot in &batch {
            if self.index.contains_key(&slot.id()) || !ids.insert(slot.id()) {
                return Err(CoreError::DuplicateSlotId { id: slot.id() });
            }
            self.check_disjoint(slot)?;
            admit_in_start_order(&mut node_ends, slot)?;
        }
        for slot in &batch {
            self.index_slot(slot);
        }
        // Merge from the back: each batch slot finds its place in the
        // still-unmoved prefix by binary search, and the block of old
        // slots after it shifts up once, by one memmove, to its final
        // position.
        let mut end = self.slots.len();
        self.slots.extend_from_slice(&batch);
        for (j, slot) in batch.iter().enumerate().rev() {
            let pos = self.slots[..end]
                .partition_point(|s| (s.start(), s.id()) < (slot.start(), slot.id()));
            self.slots.copy_within(pos..end, pos + j + 1);
            self.slots[pos + j] = *slot;
            end = pos;
        }
        Ok(())
    }

    /// Refuses `slot` if it overlaps a slot on its node: only the
    /// same-node predecessor and the slots starting inside `slot` can.
    fn check_disjoint(&self, slot: &Slot) -> Result<(), CoreError> {
        let Some(starts) = self.node_starts.get(&slot.node()) else {
            return Ok(());
        };
        let overlapping = starts
            .range(..slot.start())
            .next_back()
            .filter(|(_, &id)| self.get(id).is_some_and(|s| s.end() > slot.start()))
            .or_else(|| starts.range(slot.start()..slot.end()).next());
        match overlapping {
            Some((_, &first)) => Err(CoreError::OverlappingSlots {
                node: slot.node(),
                first,
                second: slot.id(),
            }),
            None => Ok(()),
        }
    }

    /// Adds `slot` to the id index and its node's start map, and moves
    /// the minting cursor past its id.
    fn index_slot(&mut self, slot: &Slot) {
        self.next_id = self.next_id.max(slot.id().raw() + 1);
        self.index.insert(slot.id(), slot.start());
        self.node_starts
            .entry(slot.node())
            .or_default()
            .insert(slot.start(), slot.id());
    }

    /// Removes `slot` from both indexes (not from the vector).
    fn unindex_slot(&mut self, slot: &Slot) {
        self.index.remove(&slot.id());
        if let Some(starts) = self.node_starts.get_mut(&slot.node()) {
            starts.remove(&slot.start());
            if starts.is_empty() {
                self.node_starts.remove(&slot.node());
            }
        }
    }

    /// Splices an already-checked slot into place.
    fn place(&mut self, slot: Slot) {
        self.index_slot(&slot);
        let pos = self
            .slots
            .partition_point(|s| (s.start(), s.id()) < (slot.start(), slot.id()));
        self.slots.insert(pos, slot);
    }

    /// Number of slots in the list.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if the list has no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterates the slots in `(start, id)` order.
    pub fn iter(&self) -> std::slice::Iter<'_, Slot> {
        self.slots.iter()
    }

    /// Iterates, in `(start, id)` order, every slot with `start >= from`
    /// — `O(log m)` to position, then `O(1)` per step.
    ///
    /// # Examples
    ///
    /// ```
    /// use ecosched_core::{NodeId, Perf, Price, Slot, SlotId, SlotList, Span, TimePoint};
    ///
    /// let mk = |id: u64, a: i64, b: i64| Slot::new(
    ///     SlotId::new(id), NodeId::new(id as u32), Perf::UNIT,
    ///     Price::from_credits(2),
    ///     Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap(),
    /// ).unwrap();
    /// let list = SlotList::from_slots(vec![mk(0, 0, 50), mk(1, 20, 60)]).unwrap();
    /// assert_eq!(list.iter_from(TimePoint::new(10)).count(), 1);
    /// assert_eq!(list.iter_from(TimePoint::new(100)).count(), 0);
    /// ```
    pub fn iter_from(&self, from: TimePoint) -> std::slice::Iter<'_, Slot> {
        let pos = self.slots.partition_point(|s| s.start() < from);
        self.slots[pos..].iter()
    }

    /// Position of slot `id` in the ordered vector: a hash probe for its
    /// start time, then a binary search on `(start, id)`.
    fn position(&self, id: SlotId) -> Option<usize> {
        let start = *self.index.get(&id)?;
        let pos = self
            .slots
            .partition_point(|s| (s.start(), s.id()) < (start, id));
        debug_assert!(
            self.slots.get(pos).is_some_and(|s| s.id() == id),
            "index start time out of sync with the ordered vector"
        );
        Some(pos)
    }

    /// Looks up a slot by id in `O(log m)` via the id index.
    ///
    /// # Examples
    ///
    /// ```
    /// use ecosched_core::{NodeId, Perf, Price, Slot, SlotId, SlotList, Span, TimePoint};
    ///
    /// let span = Span::new(TimePoint::new(0), TimePoint::new(100)).unwrap();
    /// let slot = Slot::new(SlotId::new(7), NodeId::new(0), Perf::UNIT,
    ///                      Price::from_credits(2), span).unwrap();
    /// let list = SlotList::from_slots(vec![slot]).unwrap();
    /// assert_eq!(list.get(SlotId::new(7)).unwrap().start(), TimePoint::new(0));
    /// assert!(list.get(SlotId::new(8)).is_none());
    /// ```
    #[must_use]
    pub fn get(&self, id: SlotId) -> Option<&Slot> {
        self.position(id).map(|pos| &self.slots[pos])
    }

    /// Returns `true` if slot `id` is currently in the list (`O(1)`).
    #[must_use]
    pub fn contains(&self, id: SlotId) -> bool {
        self.index.contains_key(&id)
    }

    /// The earliest vacant start across the list, if any.
    #[must_use]
    pub fn earliest_start(&self) -> Option<TimePoint> {
        self.slots.first().map(Slot::start)
    }

    /// Sum of all vacant span lengths.
    #[must_use]
    pub fn total_vacant_time(&self) -> TimeDelta {
        self.slots.iter().map(Slot::length).sum()
    }

    /// The slot on `node` whose vacant span fully contains `region`, if
    /// one exists — `O(log m)` via the per-node start map.
    ///
    /// Same-node slots are disjoint, so at most one slot can cover the
    /// region: the last one starting at or before `region.start()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ecosched_core::{NodeId, Perf, Price, Slot, SlotId, SlotList, Span, TimePoint};
    ///
    /// let span = Span::new(TimePoint::new(10), TimePoint::new(90)).unwrap();
    /// let slot = Slot::new(SlotId::new(0), NodeId::new(3), Perf::UNIT,
    ///                      Price::from_credits(2), span).unwrap();
    /// let list = SlotList::from_slots(vec![slot]).unwrap();
    /// let region = Span::new(TimePoint::new(20), TimePoint::new(50)).unwrap();
    /// assert!(list.covering_slot(NodeId::new(3), region).is_some());
    /// assert!(list.covering_slot(NodeId::new(4), region).is_none());
    /// ```
    #[must_use]
    pub fn covering_slot(&self, node: NodeId, region: Span) -> Option<&Slot> {
        let starts = self.node_starts.get(&node)?;
        let (_, &id) = starts.range(..=region.start()).next_back()?;
        let slot = self.get(id)?;
        slot.span().contains_span(region).then_some(slot)
    }

    /// Withdraws `region` from every slot on `node` it overlaps — the
    /// revocation primitive: an owner reclaiming `[a, b)` on a node carves
    /// that interval out of whatever vacancy remains there, minting
    /// remnants for the surviving pieces. Returns the ids of the affected
    /// slots.
    pub fn remove_region(&mut self, node: NodeId, region: Span) -> Vec<SlotId> {
        let mut candidates: Vec<SlotId> = Vec::new();
        if let Some(starts) = self.node_starts.get(&node) {
            // The predecessor of the region start may reach into it; every
            // slot starting inside the region overlaps it (spans are
            // non-empty).
            if let Some((_, &id)) = starts.range(..region.start()).next_back() {
                candidates.push(id);
            }
            candidates.extend(
                starts
                    .range(region.start()..region.end())
                    .map(|(_, &id)| id),
            );
        }
        let mut affected = Vec::new();
        for id in candidates {
            let slot = *self.get(id).expect("node index is in sync with the list");
            if let Some(cut) = slot.span().intersect(region) {
                self.subtract_collect(id, cut, &mut Vec::new())
                    .expect("the intersection lies inside the slot");
                affected.push(id);
            }
        }
        affected
    }

    /// Drops every slot that has fully elapsed by `now` (`end <= now`)
    /// and returns how many went. Equivalent to calling
    /// [`SlotList::remove_region`] with each such slot's own span, which
    /// mints nothing, but done in one pass: only the `start < now` prefix
    /// can hold a dead slot, and it is compacted in place. Returns at once
    /// when that prefix holds no dead slot.
    pub fn remove_expired(&mut self, now: TimePoint) -> usize {
        let prefix = self.slots.partition_point(|s| s.start() < now);
        let Some(first) = self.slots[..prefix].iter().position(|s| s.end() <= now) else {
            return 0;
        };
        let mut kept = first;
        for read in first..prefix {
            let slot = self.slots[read];
            if slot.end() <= now {
                self.unindex_slot(&slot);
            } else {
                self.slots[kept] = slot;
                kept += 1;
            }
        }
        self.slots.drain(kept..prefix);
        prefix - kept
    }

    /// Removes the interval `cut` from the slot `id`, inserting remnants in
    /// order (Fig. 1 (b)). Locating the slot is `O(log m)` via the index;
    /// the splice itself moves the vector's tail.
    ///
    /// # Errors
    ///
    /// * [`CoreError::SlotNotFound`] if `id` is not in the list;
    /// * [`CoreError::CutOutsideSlot`] if `cut` is not fully contained in
    ///   the slot's vacant span.
    pub fn subtract(&mut self, id: SlotId, cut: Span) -> Result<(), CoreError> {
        self.subtract_collect(id, cut, &mut Vec::new())
    }

    /// [`SlotList::subtract`], appending minted remnants to `remnants`.
    fn subtract_collect(
        &mut self,
        id: SlotId,
        cut: Span,
        remnants: &mut Vec<Slot>,
    ) -> Result<(), CoreError> {
        let pos = self.position(id).ok_or(CoreError::SlotNotFound { id })?;
        let slot = self.slots[pos];
        if !slot.span().contains_span(cut) {
            return Err(CoreError::CutOutsideSlot {
                id,
                slot_span: slot.span(),
                cut,
            });
        }
        self.slots.remove(pos);
        self.unindex_slot(&slot);
        let (left, right) = slot.span().subtract(cut);
        for remnant in [left, right].into_iter().flatten() {
            let rid = self.mint_id();
            let new_slot = slot
                .with_span(rid, remnant)
                .expect("non-empty remnant spans construct valid slots");
            // Remnants lie inside the slot they replace: no overlap check.
            self.place(new_slot);
            remnants.push(new_slot);
        }
        Ok(())
    }

    /// Subtracts every member of a committed window from the list.
    ///
    /// This is all-or-nothing: on error the list is left unchanged.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::SlotNotFound`] / [`CoreError::CutOutsideSlot`]
    /// from [`SlotList::subtract`].
    pub fn subtract_window(&mut self, window: &Window) -> Result<(), CoreError> {
        self.subtract_window_report(window).map(drop)
    }

    /// [`SlotList::subtract_window`], additionally reporting the consumed
    /// ids and the minted remnants.
    ///
    /// Validation and mutation share one indexed pass over the window's
    /// cuts: each cut is checked with an `O(log m)` lookup, and only when
    /// all pass does the mutation run, so a failure cannot leave a partial
    /// subtraction.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::SlotNotFound`] / [`CoreError::CutOutsideSlot`]
    /// from [`SlotList::subtract`].
    pub fn subtract_window_report(
        &mut self,
        window: &Window,
    ) -> Result<SubtractionReport, CoreError> {
        // Indexed validation: O(k log m) total, no list mutation yet.
        for (id, cut) in window.cuts() {
            let slot = self.get(id).ok_or(CoreError::SlotNotFound { id })?;
            if !slot.span().contains_span(cut) {
                return Err(CoreError::CutOutsideSlot {
                    id,
                    slot_span: slot.span(),
                    cut,
                });
            }
        }
        let mut report = SubtractionReport::default();
        for (id, cut) in window.cuts() {
            self.subtract_collect(id, cut, &mut report.remnants)
                .expect("cuts validated before mutation");
            report.removed.push(id);
        }
        Ok(report)
    }

    /// Merges every run of same-node slots that touch (`prev.end ==
    /// next.start`) and agree on price and performance into one slot
    /// carrying the run head's id — the defragmentation pass for lists
    /// shredded by window release/re-release cycles. Returns the number of
    /// slots absorbed into a neighbour.
    ///
    /// Ids of absorbed slots are retired (never reused: `next_id` is
    /// untouched), surviving slots keep their ids and `(start, id)` order,
    /// and the union of vacant `(node, time)` capacity is exactly
    /// preserved — only the partitioning changes.
    pub fn coalesce(&mut self) -> usize {
        // One in-place compaction in list order. The vector visits each
        // node's slots in start order, and same-node disjointness makes
        // "touching" the only adjacency case to consider. A run head only
        // grows its end, which never changes its `(start, id)` sort key.
        let mut heads: HashMap<NodeId, usize> = HashMap::new();
        let mut absorbed: Vec<Slot> = Vec::new();
        let mut kept = 0;
        for read in 0..self.slots.len() {
            let slot = self.slots[read];
            if let Some(&h) = heads.get(&slot.node()) {
                let head = self.slots[h];
                if head.end() == slot.start()
                    && head.price() == slot.price()
                    && head.perf() == slot.perf()
                {
                    let span = Span::new(head.start(), slot.end())
                        .expect("a merged span outlives both parts");
                    self.slots[h] = head
                        .with_span(head.id(), span)
                        .expect("merged spans are non-empty");
                    absorbed.push(slot);
                    continue;
                }
            }
            heads.insert(slot.node(), kept);
            self.slots[kept] = slot;
            kept += 1;
        }
        self.slots.truncate(kept);
        for slot in &absorbed {
            self.unindex_slot(slot);
        }
        absorbed.len()
    }

    /// Checks every structural invariant of the list, including that the
    /// auxiliary structures match the canonical slot set. Cheap enough for
    /// tests; not called on hot paths.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`CoreError`].
    pub fn validate(&self) -> Result<(), CoreError> {
        for pair in self.slots.windows(2) {
            if (pair[0].start(), pair[0].id()) >= (pair[1].start(), pair[1].id()) {
                return Err(CoreError::DuplicateSlotId { id: pair[1].id() });
            }
        }
        if self.index.len() != self.slots.len()
            || self.node_starts.values().map(BTreeMap::len).sum::<usize>() != self.slots.len()
        {
            return Err(CoreError::DuplicateSlotId {
                id: SlotId::new(self.next_id),
            });
        }
        for slot in &self.slots {
            if self.index.get(&slot.id()) != Some(&slot.start())
                || self
                    .node_starts
                    .get(&slot.node())
                    .and_then(|starts| starts.get(&slot.start()))
                    != Some(&slot.id())
            {
                return Err(CoreError::SlotNotFound { id: slot.id() });
            }
            if slot.id().raw() >= self.next_id {
                return Err(CoreError::DuplicateSlotId { id: slot.id() });
            }
        }
        // Same-node slots are disjoint iff each one ends by the time its
        // same-node successor starts.
        for (&node, starts) in &self.node_starts {
            let mut prev: Option<&Slot> = None;
            for &id in starts.values() {
                let slot = self.get(id).ok_or(CoreError::SlotNotFound { id })?;
                if let Some(p) = prev.filter(|p| p.end() > slot.start()) {
                    return Err(CoreError::OverlappingSlots {
                        node,
                        first: p.id(),
                        second: id,
                    });
                }
                prev = Some(slot);
            }
        }
        Ok(())
    }

    /// The decode path: a `(start, id)`-ordered, per-node disjoint slot
    /// dump plus a minting cursor past every id, else a typed error.
    fn rebuild(slots: Vec<Slot>, next_id: u64, what: &str) -> Result<Self, serde::Error> {
        let mut list = SlotList::from_sorted_slots(slots)
            .map_err(|e| serde::Error::custom(format!("invalid serialized {what}: {e}")))?;
        if next_id < list.next_id {
            return Err(serde::Error::custom(format!(
                "invalid serialized {what}: next_id {next_id} does not exceed every slot id"
            )));
        }
        list.next_id = next_id;
        Ok(list)
    }
}

impl PartialEq for SlotList {
    fn eq(&self, other: &Self) -> bool {
        // The slots and the minting cursor; the indexes are derived.
        self.next_id == other.next_id && self.slots == other.slots
    }
}

impl Eq for SlotList {}

// Manual serde: writers emit the flat `{slots, next_id}` form. Decoding
// also accepts the tagged per-node form (`{"repr": "interval", nodes,
// next_id}`) that format-2 and format-3 snapshots carry, and loads it into
// the same flat list.
impl Serialize for SlotList {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("slots".to_string(), self.slots.to_value()),
            ("next_id".to_string(), self.next_id.to_value()),
        ])
    }
}

impl<'de> Deserialize<'de> for SlotList {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let next_id = u64::from_value(serde::get_field(value, "next_id")?)?;
        let tagged = value
            .as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == "repr"))
            .is_some();
        if !tagged {
            let slots = Vec::<Slot>::from_value(serde::get_field(value, "slots")?)?;
            return SlotList::rebuild(slots, next_id, "slot list");
        }
        let repr = String::from_value(serde::get_field(value, "repr")?)?;
        if repr != "interval" {
            return Err(serde::Error::custom(format!(
                "unknown slot list repr tag {repr:?}"
            )));
        }
        let nodes = serde::get_field(value, "nodes")?;
        let serde::Value::Seq(nodes) = nodes else {
            return Err(serde::Error::expected("sequence", nodes));
        };
        let mut all_slots: Vec<Slot> = Vec::new();
        for entry in nodes {
            let node = NodeId::from_value(serde::get_field(entry, "node")?)?;
            let slots = Vec::<Slot>::from_value(serde::get_field(entry, "slots")?)?;
            if let Some(slot) = slots.iter().find(|s| s.node() != node) {
                return Err(serde::Error::custom(format!(
                    "slot {} filed under node {node} but belongs to {}",
                    slot.id(),
                    slot.node()
                )));
            }
            all_slots.extend(slots);
        }
        all_slots.sort_by_key(|s| (s.start(), s.id()));
        SlotList::rebuild(all_slots, next_id, "interval market")
    }
}

impl IntoIterator for SlotList {
    type Item = Slot;
    type IntoIter = std::vec::IntoIter<Slot>;
    fn into_iter(self) -> Self::IntoIter {
        self.slots.into_iter()
    }
}

impl<'a> IntoIterator for &'a SlotList {
    type Item = &'a Slot;
    type IntoIter = std::slice::Iter<'a, Slot>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Display for SlotList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "slot list ({} slots):", self.len())?;
        for slot in self.iter() {
            writeln!(f, "  {slot}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::money::Price;
    use crate::perf::Perf;
    use crate::resource::NodeId;

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

    #[test]
    fn from_slots_sorts_by_start() {
        let list = SlotList::from_slots(vec![
            slot(0, 0, 50, 80),
            slot(1, 1, 10, 40),
            slot(2, 2, 30, 90),
        ])
        .unwrap();
        let starts: Vec<i64> = list.iter().map(|s| s.start().ticks()).collect();
        assert_eq!(starts, vec![10, 30, 50]);
    }

    #[test]
    fn from_slots_rejects_duplicate_ids() {
        let err = SlotList::from_slots(vec![slot(3, 0, 0, 10), slot(3, 1, 0, 10)]).unwrap_err();
        assert_eq!(err, CoreError::DuplicateSlotId { id: SlotId::new(3) });
    }

    #[test]
    fn from_slots_rejects_same_node_overlap() {
        let err = SlotList::from_slots(vec![slot(0, 5, 0, 50), slot(1, 5, 40, 90)]).unwrap_err();
        assert!(matches!(err, CoreError::OverlappingSlots { node, .. } if node == NodeId::new(5)));
    }

    #[test]
    fn same_node_touching_slots_are_fine() {
        let list = SlotList::from_slots(vec![slot(0, 5, 0, 50), slot(1, 5, 50, 90)]).unwrap();
        assert_eq!(list.len(), 2);
        list.validate().unwrap();
    }

    #[test]
    fn insert_keeps_order_and_rejects_duplicates() {
        let mut list = SlotList::from_slots(vec![slot(0, 0, 100, 200)]).unwrap();
        list.insert(slot(10, 1, 50, 80)).unwrap();
        assert_eq!(list.iter().next().unwrap().id(), SlotId::new(10));
        assert_eq!(
            list.insert(slot(10, 2, 0, 10)).unwrap_err(),
            CoreError::DuplicateSlotId {
                id: SlotId::new(10)
            }
        );
    }

    #[test]
    fn minted_ids_never_collide_with_inserted() {
        let mut list = SlotList::from_slots(vec![slot(41, 0, 0, 10)]).unwrap();
        assert_eq!(list.mint_id(), SlotId::new(42));
        list.insert(slot(100, 1, 0, 10)).unwrap();
        assert_eq!(list.mint_id(), SlotId::new(101));
    }

    #[test]
    fn indexed_get_matches_linear_lookup() {
        // Several slots sharing start times so the lookups have to break
        // ties on id.
        let list = SlotList::from_slots(vec![
            slot(5, 0, 10, 40),
            slot(2, 1, 10, 50),
            slot(9, 2, 10, 30),
            slot(1, 3, 0, 20),
            slot(7, 4, 25, 60),
        ])
        .unwrap();
        let all: Vec<Slot> = list.iter().copied().collect();
        for expected in &all {
            let found = list.get(expected.id()).expect("every id resolves");
            assert_eq!(found, expected);
            assert!(list.contains(expected.id()));
        }
        assert!(list.get(SlotId::new(1000)).is_none());
        assert!(!list.contains(SlotId::new(1000)));
    }

    #[test]
    fn iter_from_brackets_the_list() {
        let list = SlotList::from_slots(vec![
            slot(0, 0, 10, 40),
            slot(1, 1, 10, 50),
            slot(2, 2, 30, 90),
        ])
        .unwrap();
        let ids_from = |t: i64| -> Vec<u64> {
            list.iter_from(TimePoint::new(t))
                .map(|s| s.id().raw())
                .collect()
        };
        assert_eq!(ids_from(0), vec![0, 1, 2]);
        assert_eq!(ids_from(10), vec![0, 1, 2]);
        assert_eq!(ids_from(11), vec![2]);
        assert_eq!(ids_from(31), Vec::<u64>::new());
    }

    #[test]
    fn subtract_interior_produces_two_remnants() {
        let mut list = SlotList::from_slots(vec![slot(0, 0, 0, 100)]).unwrap();
        list.subtract(SlotId::new(0), span(30, 60)).unwrap();
        assert_eq!(list.len(), 2);
        let spans: Vec<Span> = list.iter().map(|s| s.span()).collect();
        assert_eq!(spans, vec![span(0, 30), span(60, 100)]);
        list.validate().unwrap();
    }

    #[test]
    fn subtract_prefix_keeps_right_remnant_only() {
        let mut list = SlotList::from_slots(vec![slot(0, 0, 0, 100)]).unwrap();
        list.subtract(SlotId::new(0), span(0, 100)).unwrap();
        assert!(list.is_empty());
    }

    #[test]
    fn subtract_missing_slot_errors() {
        let mut list = SlotList::new();
        assert_eq!(
            list.subtract(SlotId::new(1), span(0, 10)).unwrap_err(),
            CoreError::SlotNotFound { id: SlotId::new(1) }
        );
    }

    #[test]
    fn subtract_outside_cut_errors() {
        let mut list = SlotList::from_slots(vec![slot(0, 0, 10, 20)]).unwrap();
        let err = list.subtract(SlotId::new(0), span(15, 30)).unwrap_err();
        assert!(matches!(err, CoreError::CutOutsideSlot { .. }));
        // List unchanged.
        assert_eq!(list.len(), 1);
        assert_eq!(list.iter().next().unwrap().span(), span(10, 20));
    }

    #[test]
    fn subtract_window_is_atomic_on_error() {
        use crate::window::{Window, WindowSlot};
        let a = slot(0, 0, 0, 100);
        let b = slot(1, 1, 0, 10); // too short for the cut below
        let mut list = SlotList::from_slots(vec![a, b]).unwrap();
        let w = Window::new(
            TimePoint::new(0),
            vec![
                WindowSlot::from_slot(&a, TimeDelta::new(50)).unwrap(),
                WindowSlot::from_slot(&b, TimeDelta::new(50)).unwrap(),
            ],
        )
        .unwrap();
        let err = list.subtract_window(&w).unwrap_err();
        assert!(matches!(err, CoreError::CutOutsideSlot { .. }));
        // Nothing was subtracted, including from slot `a`.
        assert_eq!(list.len(), 2);
        assert_eq!(list.get(SlotId::new(0)).unwrap().span(), span(0, 100));
    }

    #[test]
    fn subtract_window_removes_all_members() {
        use crate::window::{Window, WindowSlot};
        let a = slot(0, 0, 0, 100);
        let b = slot(1, 1, 0, 100);
        let mut list = SlotList::from_slots(vec![a, b]).unwrap();
        let w = Window::new(
            TimePoint::new(0),
            vec![
                WindowSlot::from_slot(&a, TimeDelta::new(40)).unwrap(),
                WindowSlot::from_slot(&b, TimeDelta::new(40)).unwrap(),
            ],
        )
        .unwrap();
        list.subtract_window(&w).unwrap();
        assert_eq!(list.len(), 2);
        for s in list.iter() {
            assert_eq!(s.span(), span(40, 100));
        }
        list.validate().unwrap();
    }

    #[test]
    fn subtraction_report_lists_consumed_and_minted() {
        use crate::window::{Window, WindowSlot};
        let a = slot(0, 0, 0, 100);
        let b = slot(1, 1, 20, 120);
        let mut list = SlotList::from_slots(vec![a, b]).unwrap();
        let w = Window::new(
            TimePoint::new(20),
            vec![
                WindowSlot::from_slot(&a, TimeDelta::new(40)).unwrap(),
                WindowSlot::from_slot(&b, TimeDelta::new(40)).unwrap(),
            ],
        )
        .unwrap();
        let report = list.subtract_window_report(&w).unwrap();
        assert_eq!(report.removed, vec![SlotId::new(0), SlotId::new(1)]);
        // a → [0, 20) and [60, 100); b → [60, 120).
        assert_eq!(report.remnants.len(), 3);
        for remnant in &report.remnants {
            assert_eq!(list.get(remnant.id()), Some(remnant));
        }
        list.validate().unwrap();
    }

    #[test]
    fn totals_and_earliest() {
        let list = SlotList::from_slots(vec![slot(0, 0, 10, 40), slot(1, 1, 5, 25)]).unwrap();
        assert_eq!(list.earliest_start(), Some(TimePoint::new(5)));
        assert_eq!(list.total_vacant_time(), TimeDelta::new(50));
        assert!(SlotList::new().earliest_start().is_none());
    }

    #[test]
    fn from_sorted_slots_matches_from_slots() {
        let slots = vec![
            slot(1, 3, 0, 20),
            slot(5, 0, 10, 40),
            slot(9, 2, 10, 30),
            slot(7, 4, 25, 60),
        ];
        let sorted =
            SlotList::from_sorted_slots_with_repr(slots.clone(), MarketRepr::Flat).unwrap();
        let general = SlotList::from_slots(slots).unwrap();
        assert_eq!(sorted, general);
        sorted.validate().unwrap();
        assert_eq!(sorted.next_id, general.next_id);
        assert_eq!(sorted.repr(), MarketRepr::Flat);
    }

    #[test]
    fn from_sorted_slots_rejects_unsorted_input() {
        // Out of start order.
        let err =
            SlotList::from_sorted_slots(vec![slot(0, 0, 10, 20), slot(1, 1, 0, 5)]).unwrap_err();
        assert_eq!(err, CoreError::UnsortedSlots { index: 1 });
        // Equal starts must come in increasing id order.
        let err =
            SlotList::from_sorted_slots(vec![slot(4, 0, 10, 20), slot(2, 1, 10, 20)]).unwrap_err();
        assert_eq!(err, CoreError::UnsortedSlots { index: 1 });
    }

    #[test]
    fn from_sorted_slots_rejects_same_node_overlap() {
        // The long first slot still overlaps the third even though the
        // second ends earlier — the running bound must track the max end.
        let err = SlotList::from_sorted_slots(vec![
            slot(0, 5, 0, 100),
            slot(1, 6, 10, 20),
            slot(2, 5, 30, 40),
        ])
        .unwrap_err();
        assert_eq!(
            err,
            CoreError::OverlappingSlots {
                node: NodeId::new(5),
                first: SlotId::new(0),
                second: SlotId::new(2),
            }
        );
    }

    #[test]
    fn from_sorted_slots_rejects_duplicate_ids() {
        let err =
            SlotList::from_sorted_slots(vec![slot(3, 0, 0, 10), slot(3, 1, 5, 15)]).unwrap_err();
        assert_eq!(err, CoreError::DuplicateSlotId { id: SlotId::new(3) });
    }

    #[test]
    fn covering_slot_finds_the_unique_container() {
        let list = SlotList::from_slots(vec![
            slot(0, 0, 0, 50),
            slot(1, 0, 60, 100),
            slot(2, 1, 0, 100),
        ])
        .unwrap();
        let region = span(70, 90);
        assert_eq!(
            list.covering_slot(NodeId::new(0), region).map(Slot::id),
            Some(SlotId::new(1))
        );
        // A region straddling the gap is covered by nothing.
        assert!(list.covering_slot(NodeId::new(0), span(40, 70)).is_none());
        // Other nodes see their own slots only.
        assert_eq!(
            list.covering_slot(NodeId::new(1), region).map(Slot::id),
            Some(SlotId::new(2))
        );
        assert!(list.covering_slot(NodeId::new(9), region).is_none());
    }

    #[test]
    fn covering_slot_tracks_subtraction() {
        let mut list = SlotList::from_slots(vec![slot(0, 0, 0, 100)]).unwrap();
        list.subtract(SlotId::new(0), span(40, 60)).unwrap();
        assert!(list.covering_slot(NodeId::new(0), span(45, 55)).is_none());
        let left = list.covering_slot(NodeId::new(0), span(10, 30)).unwrap();
        assert_eq!(left.span(), span(0, 40));
        let right = list.covering_slot(NodeId::new(0), span(70, 90)).unwrap();
        assert_eq!(right.span(), span(60, 100));
    }

    #[test]
    fn remove_region_carves_every_overlapping_slot() {
        let mut list = SlotList::from_slots(vec![
            slot(0, 0, 0, 30),
            slot(1, 0, 40, 70),
            slot(2, 0, 80, 120),
            slot(3, 1, 0, 120), // other node, untouched
        ])
        .unwrap();
        let affected = list.remove_region(NodeId::new(0), span(20, 90));
        assert_eq!(
            affected,
            vec![SlotId::new(0), SlotId::new(1), SlotId::new(2)]
        );
        list.validate().unwrap();
        let node0: Vec<Span> = list
            .iter()
            .filter(|s| s.node() == NodeId::new(0))
            .map(|s| s.span())
            .collect();
        assert_eq!(node0, vec![span(0, 20), span(90, 120)]);
        assert_eq!(list.get(SlotId::new(3)).unwrap().span(), span(0, 120));
    }

    #[test]
    fn remove_region_misses_cleanly() {
        let mut list = SlotList::from_slots(vec![slot(0, 0, 0, 30)]).unwrap();
        assert!(list.remove_region(NodeId::new(0), span(30, 50)).is_empty());
        assert!(list.remove_region(NodeId::new(7), span(0, 50)).is_empty());
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn coalesce_merges_touching_same_attribute_runs() {
        let mut list = SlotList::from_slots(vec![
            slot(0, 0, 0, 30),
            slot(1, 0, 30, 60),
            slot(2, 0, 60, 100),
            slot(3, 1, 0, 50), // other node: left alone
        ])
        .unwrap();
        let before = list.total_vacant_time();
        assert_eq!(list.coalesce(), 2);
        list.validate().unwrap();
        assert_eq!(list.len(), 2);
        // The run head keeps its id and absorbs the whole run.
        let merged = list.get(SlotId::new(0)).unwrap();
        assert_eq!(merged.span(), span(0, 100));
        assert_eq!(list.total_vacant_time(), before);
        assert!(list.get(SlotId::new(1)).is_none());
        assert!(list.get(SlotId::new(2)).is_none());
        assert_eq!(list.get(SlotId::new(3)).unwrap().span(), span(0, 50));
        // Idempotent: a second pass finds nothing.
        assert_eq!(list.coalesce(), 0);
    }

    #[test]
    fn coalesce_respects_gaps_and_attribute_changes() {
        let cheap = slot(0, 0, 0, 30);
        let pricey = Slot::new(
            SlotId::new(1),
            NodeId::new(0),
            Perf::UNIT,
            Price::from_credits(9),
            span(30, 60),
        )
        .unwrap();
        let fast = Slot::new(
            SlotId::new(2),
            NodeId::new(0),
            Perf::from_f64(2.0),
            Price::from_credits(2),
            span(60, 90),
        )
        .unwrap();
        let gapped = slot(3, 0, 95, 120);
        let mut list = SlotList::from_slots(vec![cheap, pricey, fast, gapped]).unwrap();
        assert_eq!(list.coalesce(), 0);
        assert_eq!(list.len(), 4);
        list.validate().unwrap();
    }

    #[test]
    fn coalesce_never_reuses_retired_ids() {
        let mut list = SlotList::from_slots(vec![slot(0, 0, 0, 30), slot(1, 0, 30, 60)]).unwrap();
        assert_eq!(list.coalesce(), 1);
        // Id 1 is retired, not recycled: fresh mints start past it.
        assert_eq!(list.mint_id(), SlotId::new(2));
    }

    #[test]
    fn iteration_conveniences() {
        let list = SlotList::from_slots(vec![slot(0, 0, 10, 40)]).unwrap();
        assert_eq!((&list).into_iter().count(), 1);
        assert_eq!(list.clone().into_iter().count(), 1);
        assert!(format!("{list}").contains("1 slots"));
    }

    #[test]
    fn serde_flat_wire_format_is_unchanged() {
        // The flat payload must stay exactly `{slots, next_id}` so persist
        // format v1 snapshots keep decoding.
        let list = SlotList::from_slots(vec![slot(0, 0, 0, 30)]).unwrap();
        let value = list.to_value();
        let keys: Vec<&str> = value
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["slots", "next_id"]);
    }

    #[test]
    fn insert_rejects_overlap_with_a_typed_error() {
        let mut list = SlotList::from_slots(vec![slot(0, 5, 0, 50), slot(1, 5, 100, 150)]).unwrap();
        let before = list.clone();
        let overlap = |first: u64, second: u64| CoreError::OverlappingSlots {
            node: NodeId::new(5),
            first: SlotId::new(first),
            second: SlotId::new(second),
        };
        // The same-node predecessor reaches into the new slot.
        assert_eq!(list.insert(slot(7, 5, 40, 90)), Err(overlap(0, 7)));
        // A same-node slot starts inside the new one.
        assert_eq!(list.insert(slot(7, 5, 60, 110)), Err(overlap(1, 7)));
        // Equal starts and full containment.
        assert_eq!(list.insert(slot(7, 5, 100, 120)), Err(overlap(1, 7)));
        assert_eq!(list.insert(slot(7, 5, 10, 20)), Err(overlap(0, 7)));
        assert_eq!(list.insert(slot(7, 5, 0, 200)), Err(overlap(0, 7)));
        assert_eq!(list, before, "a refused insert leaves the list unchanged");
        list.validate().unwrap();
        // Touching neighbours and other nodes are fine.
        list.insert(slot(7, 5, 50, 100)).unwrap();
        list.insert(slot(8, 6, 0, 200)).unwrap();
        list.validate().unwrap();
    }

    #[test]
    fn insert_batch_matches_one_at_a_time() {
        // Slot 9 starts with slot 11 and must go before it: ties break
        // on id, not on which side of the merge a slot came from.
        let seed = vec![slot(10, 0, 0, 30), slot(11, 1, 20, 60), slot(12, 0, 70, 90)];
        let batch = vec![
            slot(9, 2, 20, 40),
            slot(5, 0, 30, 70),
            slot(6, 1, 0, 20),
            slot(7, 3, 100, 120),
            slot(8, 1, 60, 61),
        ];
        let mut one = SlotList::from_slots(seed.clone()).unwrap();
        for s in &batch {
            one.insert(*s).unwrap();
        }
        let mut bulk = SlotList::from_slots(seed).unwrap();
        bulk.insert_batch(batch).unwrap();
        bulk.validate().unwrap();
        assert_eq!(bulk, one);
        let ids: Vec<u64> = bulk.iter().map(|s| s.id().raw()).collect();
        assert_eq!(ids, vec![6, 10, 9, 11, 5, 8, 12, 7]);
        assert_eq!(bulk.next_id, 13);
        bulk.insert_batch(Vec::new()).unwrap();
        assert_eq!(bulk, one);
    }

    #[test]
    fn insert_batch_is_atomic_on_error() {
        let mut list = SlotList::from_slots(vec![slot(0, 0, 0, 50), slot(1, 1, 0, 50)]).unwrap();
        let before = list.clone();
        // Overlaps a slot already in the list.
        let err = list
            .insert_batch(vec![slot(5, 2, 0, 10), slot(6, 0, 40, 60)])
            .unwrap_err();
        assert!(matches!(err, CoreError::OverlappingSlots { .. }), "{err}");
        // Two batch members overlap each other.
        let err = list
            .insert_batch(vec![slot(5, 2, 0, 100), slot(6, 2, 60, 70)])
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::OverlappingSlots {
                node: NodeId::new(2),
                first: SlotId::new(5),
                second: SlotId::new(6),
            }
        );
        // Duplicate ids, against the list and within the batch.
        assert_eq!(
            list.insert_batch(vec![slot(1, 3, 0, 10)]),
            Err(CoreError::DuplicateSlotId { id: SlotId::new(1) })
        );
        assert_eq!(
            list.insert_batch(vec![slot(5, 3, 0, 10), slot(5, 4, 0, 10)]),
            Err(CoreError::DuplicateSlotId { id: SlotId::new(5) })
        );
        assert_eq!(list, before);
        list.validate().unwrap();
    }

    #[test]
    fn remove_expired_drops_only_elapsed_slots() {
        let mut list = SlotList::from_slots(vec![
            slot(0, 0, 0, 10),
            slot(1, 1, 5, 30),
            slot(2, 0, 10, 20),
            slot(3, 2, 15, 20),
            slot(4, 2, 40, 50),
        ])
        .unwrap();
        assert_eq!(list.remove_expired(TimePoint::new(0)), 0);
        assert_eq!(list.remove_expired(TimePoint::new(19)), 1);
        assert_eq!(list.remove_expired(TimePoint::new(20)), 2);
        let ids: Vec<u64> = list.iter().map(|s| s.id().raw()).collect();
        assert_eq!(ids, vec![1, 4]);
        list.validate().unwrap();
        assert_eq!(list.mint_id(), SlotId::new(5), "expiry mints nothing");
        assert_eq!(list.remove_expired(TimePoint::new(20)), 0);
        assert_eq!(list.remove_expired(TimePoint::new(1_000)), 2);
        assert!(list.is_empty());
        list.validate().unwrap();
    }

    fn flat_payload(slots: &[Slot], next_id: u64) -> serde::Value {
        serde::Value::Map(vec![
            ("slots".to_string(), slots.to_vec().to_value()),
            ("next_id".to_string(), next_id.to_value()),
        ])
    }

    fn interval_payload(tag: &str, nodes: &[(u32, Vec<Slot>)], next_id: u64) -> serde::Value {
        let nodes = nodes
            .iter()
            .map(|(node, slots)| {
                serde::Value::Map(vec![
                    ("node".to_string(), NodeId::new(*node).to_value()),
                    ("slots".to_string(), slots.to_value()),
                ])
            })
            .collect();
        serde::Value::Map(vec![
            ("repr".to_string(), tag.to_string().to_value()),
            ("nodes".to_string(), serde::Value::Seq(nodes)),
            ("next_id".to_string(), next_id.to_value()),
        ])
    }

    #[test]
    fn serde_round_trips() {
        let mut list = SlotList::from_slots(vec![
            slot(0, 0, 0, 30),
            slot(1, 1, 10, 60),
            slot(2, 0, 40, 90),
        ])
        .unwrap();
        list.mint_id();
        let back = SlotList::from_value(&list.to_value()).unwrap();
        assert_eq!(back, list);
        assert_eq!(back.next_id, 4);
        back.validate().unwrap();
    }

    #[test]
    fn serde_decodes_the_legacy_interval_form_into_the_flat_list() {
        let value = interval_payload(
            "interval",
            &[
                (0, vec![slot(0, 0, 0, 30), slot(2, 0, 40, 90)]),
                (1, vec![slot(1, 1, 10, 60)]),
            ],
            7,
        );
        let list = SlotList::from_value(&value).unwrap();
        list.validate().unwrap();
        let ids: Vec<u64> = list.iter().map(|s| s.id().raw()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(list.next_id, 7);
    }

    #[test]
    fn serde_refuses_invalid_markets() {
        let refused = |value: serde::Value| {
            SlotList::from_value(&value)
                .expect_err("invalid payload must be refused")
                .to_string()
        };
        // Flat form: out of (start, id) order.
        let msg = refused(flat_payload(&[slot(0, 0, 40, 90), slot(1, 1, 0, 30)], 2));
        assert!(msg.contains("invalid serialized slot list"), "{msg}");
        // Flat form: same-node overlap.
        let msg = refused(flat_payload(&[slot(0, 0, 0, 50), slot(1, 0, 40, 90)], 2));
        assert!(msg.contains("overlap"), "{msg}");
        // Flat form: duplicate id, and a minting cursor that would reissue one.
        refused(flat_payload(&[slot(3, 0, 0, 10), slot(3, 1, 5, 15)], 4));
        let msg = refused(flat_payload(&[slot(3, 0, 0, 10)], 3));
        assert!(msg.contains("next_id"), "{msg}");
        // Legacy form: overlap across the per-node entries, a slot filed
        // under the wrong node, and an unknown tag.
        let msg = refused(interval_payload(
            "interval",
            &[(0, vec![slot(0, 0, 0, 50)]), (0, vec![slot(1, 0, 40, 90)])],
            2,
        ));
        assert!(msg.contains("invalid serialized interval market"), "{msg}");
        refused(interval_payload(
            "interval",
            &[(1, vec![slot(0, 0, 0, 50)])],
            1,
        ));
        refused(interval_payload(
            "hyperbolic",
            &[(0, vec![slot(0, 0, 0, 50)])],
            1,
        ));
    }
}
