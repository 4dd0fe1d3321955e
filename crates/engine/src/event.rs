//! The engine's event taxonomy and the serialized, hashable event log.
//!
//! Every state change in the engine is driven by exactly one [`Event`]
//! popped from the queue, and every processed event is appended to the
//! [`EventLog`] as a [`LogEntry`] carrying its virtual time and queue
//! sequence number. Because the engine is single-threaded, draws all
//! randomness from one seeded RNG in event order, and breaks queue ties
//! deterministically on `(time, seq)`, two runs with the same seed and
//! configuration produce byte-identical serialized logs — the determinism
//! contract that [`EventLog::fnv1a_hash`] turns into a one-line check.

use serde::{Deserialize, Serialize};

/// One typed event of the discrete-event engine.
///
/// Payloads are plain identifiers (engine job ids, lease ids, raw slot
/// ids) rather than references into engine state, so the log is
/// self-contained and serializable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// A job entered the pending queue.
    JobArrival {
        /// The engine job id (arrival order).
        job: u32,
    },
    /// A batch of fresh vacant slots was published by the owners.
    SlotPublished {
        /// The publication round (one per cycle).
        round: u32,
        /// Slots added to the market.
        count: u32,
    },
    /// A published slot reached the end of its span; triggers a sweep
    /// that drops every fully expired vacant slot.
    SlotExpired {
        /// The raw id the slot was published under (it may since have
        /// been carved into remnants or consumed entirely).
        slot: u64,
    },
    /// A committed lease finished executing; unused tail capacity returns
    /// to the vacant list.
    LeaseCompleted {
        /// The lease id. Stale ids (leases broken and replaced since the
        /// event was scheduled) are ignored.
        lease: u64,
    },
    /// A mid-cycle fault process fired: revocations are drawn against the
    /// live state (vacant slots plus active leases) and broken leases run
    /// up the repair ladder (`ecosched_sim::RepairLadder`).
    RevocationStrike {
        /// The strike index (one per cycle, mid-cycle).
        strike: u32,
    },
    /// A scheduling cycle: snapshot the live market, run the batch
    /// pipeline (alternatives search, VO limits, combination
    /// optimization) over the pending jobs, and commit the chosen windows
    /// as leases.
    CycleTick {
        /// The cycle index.
        cycle: u32,
    },
}

/// One processed event with its virtual time and queue sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogEntry {
    /// Virtual time the event fired at, in ticks.
    pub time: i64,
    /// Queue sequence number (insertion order; the `(time, seq)` pop
    /// tie-break).
    pub seq: u64,
    /// The event.
    pub event: Event,
}

/// The append-only log of every event the engine processed, in pop order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventLog {
    /// The processed events, in order.
    pub entries: Vec<LogEntry>,
}

impl EventLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Appends one processed event.
    pub fn push(&mut self, time: i64, seq: u64, event: Event) {
        self.entries.push(LogEntry { time, seq, event });
    }

    /// Number of logged events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when nothing has been logged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The canonical serialized form of the log. Byte-identical across
    /// identically seeded runs — the determinism contract.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_default()
    }

    /// FNV-1a 64 hash of the canonical serialization, rendered as 16 hex
    /// digits (a stable one-line fingerprint for tests and the CI smoke
    /// job).
    #[must_use]
    pub fn fnv1a_hash(&self) -> String {
        format!("{:016x}", fnv1a_64(self.to_json().as_bytes()))
    }
}

/// FNV-1a 64-bit hash (implemented locally — the build is offline and the
/// fingerprint only needs to be stable and sensitive, not cryptographic).
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn log_hash_is_stable_and_sensitive() {
        let mut a = EventLog::new();
        a.push(0, 0, Event::JobArrival { job: 0 });
        a.push(5, 1, Event::CycleTick { cycle: 0 });
        let mut b = EventLog::new();
        b.push(0, 0, Event::JobArrival { job: 0 });
        b.push(5, 1, Event::CycleTick { cycle: 0 });
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.fnv1a_hash(), b.fnv1a_hash());
        assert_eq!(a.fnv1a_hash().len(), 16);

        b.push(5, 2, Event::SlotExpired { slot: 3 });
        assert_ne!(a.fnv1a_hash(), b.fnv1a_hash());
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
    }

    #[test]
    fn events_serialize_round_trip() {
        let events = [
            Event::JobArrival { job: 7 },
            Event::SlotPublished {
                round: 1,
                count: 130,
            },
            Event::SlotExpired { slot: 42 },
            Event::LeaseCompleted { lease: 3 },
            Event::RevocationStrike { strike: 2 },
            Event::CycleTick { cycle: 9 },
        ];
        for event in events {
            let json = serde_json::to_string(&event).unwrap();
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(back, event);
        }
    }
}
