//! Federated snapshots: every shard's engine checkpoint plus the router
//! state in one rotated, checksummed container.
//!
//! A federated snapshot is a two-section [`format`](crate::format)
//! container, parallel to the single-engine one in
//! [`snapshot`](crate::snapshot):
//!
//! * `FMET` — a small JSON header ([`FederatedSnapshotMeta`]) naming the
//!   run (seed, configuration fingerprint, shard count, merged-log
//!   progress) without parsing the full state;
//! * `FCKP` — the canonical JSON of the federation's
//!   [`FederationCheckpoint`]: the per-shard
//!   [`EngineCheckpoint`](ecosched_engine::EngineCheckpoint)s in shard
//!   order, the undelivered arrival stream, the router cursor and
//!   counters, the merged log so far, and the committed cross-shard
//!   windows. One container restores the whole federation — there is no
//!   window where some shards resumed from a newer capture than others.
//!
//! [`FederatedSnapshotStore`] rotates these files (`fsnap-<events>`,
//! keyed by merged-log length) with the same crash-atomic write, prune,
//! and corruption-tolerant resume discipline as the single-engine
//! [`SnapshotStore`](crate::SnapshotStore); the two stores can share a
//! directory without colliding.

use std::path::{Path, PathBuf};

use ecosched_federation::FederationCheckpoint;
use serde::{Deserialize, Serialize};

use crate::format::{decode, encode, require, PersistError, SectionTag};
use crate::rotate::{atomic_save, file_name_for, list_dir, prune_dir};

/// The section holding the [`FederatedSnapshotMeta`] JSON.
pub const FED_META_SECTION: SectionTag = SectionTag(*b"FMET");
/// The section holding the [`FederationCheckpoint`] JSON.
pub const FED_CHECKPOINT_SECTION: SectionTag = SectionTag(*b"FCKP");

/// Prefix of every federated snapshot file name.
const PREFIX: &str = "fsnap-";

/// The cheap-to-read identity header of a federated snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FederatedSnapshotMeta {
    /// The seed the captured federation was started with.
    pub seed: u64,
    /// The `(config, selector)` fingerprint of the federation; resume
    /// requires a federation with the same fingerprint.
    pub config_fp: u64,
    /// Shard count at capture time.
    pub shards: u32,
    /// Merged-log entries the captured run had emitted.
    pub merged_events: u64,
}

impl FederatedSnapshotMeta {
    /// Builds the header for a federation checkpoint.
    #[must_use]
    pub fn of(checkpoint: &FederationCheckpoint) -> Self {
        FederatedSnapshotMeta {
            seed: checkpoint.seed,
            config_fp: checkpoint.config_fp,
            shards: checkpoint.shards.len() as u32,
            merged_events: checkpoint.merged.len() as u64,
        }
    }
}

fn parse_section<T: for<'de> Deserialize<'de>>(
    section: SectionTag,
    payload: &[u8],
) -> Result<T, PersistError> {
    let text = std::str::from_utf8(payload).map_err(|e| PersistError::Corrupt {
        section,
        detail: format!("payload is not UTF-8: {e}"),
    })?;
    serde_json::from_str(text).map_err(|e| PersistError::Corrupt {
        section,
        detail: format!("payload is not a valid {}: {e}", std::any::type_name::<T>()),
    })
}

/// Serializes a federation checkpoint into snapshot bytes.
#[must_use]
pub fn encode_federated_snapshot(checkpoint: &FederationCheckpoint) -> Vec<u8> {
    let meta = serde_json::to_string(&FederatedSnapshotMeta::of(checkpoint)).unwrap_or_default();
    let state = serde_json::to_string(checkpoint).unwrap_or_default();
    encode(&[
        (FED_META_SECTION, meta.as_bytes()),
        (FED_CHECKPOINT_SECTION, state.as_bytes()),
    ])
}

/// Parses federated snapshot bytes back into a checkpoint, verifying the
/// container header and every checksum.
///
/// # Errors
///
/// Any [`PersistError`] from the container layer, or
/// [`PersistError::Corrupt`] when a payload passes its checksum but is
/// not valid checkpoint JSON. A single-engine snapshot fails here with
/// a missing-`FCKP` error rather than a misparse.
pub fn decode_federated_snapshot(bytes: &[u8]) -> Result<FederationCheckpoint, PersistError> {
    let sections = decode(bytes)?;
    parse_section(
        FED_CHECKPOINT_SECTION,
        require(&sections, FED_CHECKPOINT_SECTION)?,
    )
}

/// Reads only the identity header of federated snapshot bytes.
///
/// # Errors
///
/// Same failure modes as [`decode_federated_snapshot`].
pub fn peek_federated_meta(bytes: &[u8]) -> Result<FederatedSnapshotMeta, PersistError> {
    let sections = decode(bytes)?;
    parse_section(FED_META_SECTION, require(&sections, FED_META_SECTION)?)
}

/// Writes a federation checkpoint to a snapshot file.
///
/// # Errors
///
/// [`PersistError::Io`] when the write fails.
pub fn write_federated_snapshot(
    path: &Path,
    checkpoint: &FederationCheckpoint,
) -> Result<(), PersistError> {
    std::fs::write(path, encode_federated_snapshot(checkpoint))?;
    Ok(())
}

/// Reads a federation checkpoint from a snapshot file.
///
/// # Errors
///
/// [`PersistError::Io`] when the read fails; otherwise the failure modes
/// of [`decode_federated_snapshot`].
pub fn read_federated_snapshot(path: &Path) -> Result<FederationCheckpoint, PersistError> {
    decode_federated_snapshot(&std::fs::read(path)?)
}

/// A directory of rotated federated snapshots with a bounded retention
/// window.
#[derive(Debug)]
pub struct FederatedSnapshotStore {
    dir: PathBuf,
    keep_last: usize,
}

/// One snapshot skipped during [`FederatedSnapshotStore::load_latest`]
/// because it failed to decode.
#[derive(Debug)]
pub struct SkippedFederatedSnapshot {
    /// The unreadable file.
    pub path: PathBuf,
    /// Why it was rejected.
    pub error: PersistError,
}

/// The result of scanning a store for the newest usable federated
/// snapshot.
#[derive(Debug)]
pub struct LatestFederatedSnapshot {
    /// The decoded checkpoint.
    pub checkpoint: FederationCheckpoint,
    /// The file it came from.
    pub path: PathBuf,
    /// Newer files that were skipped as corrupt or truncated, newest
    /// first. Non-empty means durability degraded to an older capture.
    pub skipped: Vec<SkippedFederatedSnapshot>,
}

impl FederatedSnapshotStore {
    /// Opens (creating if needed) a federated snapshot directory that
    /// retains the newest `keep_last` snapshots (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>, keep_last: usize) -> Result<Self, PersistError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FederatedSnapshotStore {
            dir,
            keep_last: keep_last.max(1),
        })
    }

    /// The directory this store manages.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Saves a federation checkpoint crash-atomically (temp sibling,
    /// fsync, rename, directory fsync) and prunes old snapshots. File
    /// names are keyed by merged-log length, so lexical order is
    /// capture order; re-saving the same length overwrites the previous
    /// capture (the states are identical by determinism). Returns the
    /// finished file's path and its size in bytes.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on any filesystem failure.
    pub fn save(&self, checkpoint: &FederationCheckpoint) -> Result<(PathBuf, u64), PersistError> {
        let meta = FederatedSnapshotMeta::of(checkpoint);
        let bytes = encode_federated_snapshot(checkpoint);
        let final_path = atomic_save(
            &self.dir,
            &file_name_for(PREFIX, meta.merged_events),
            &bytes,
        )?;
        self.prune()?;
        Ok((final_path, bytes.len() as u64))
    }

    /// Federated snapshot paths in capture order (oldest first). Temp
    /// files, single-engine snapshots, and foreign names are ignored.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the directory cannot be read.
    pub fn list(&self) -> Result<Vec<PathBuf>, PersistError> {
        list_dir(&self.dir, PREFIX)
    }

    /// Deletes all but the newest `keep_last` snapshots, and any stray
    /// temp files left by an interrupted save.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the directory cannot be read; failures
    /// to delete individual files are ignored.
    pub fn prune(&self) -> Result<(), PersistError> {
        prune_dir(&self.dir, PREFIX, self.keep_last)
    }

    /// Finds and decodes the newest usable federated snapshot, skipping
    /// corrupt or truncated files (newest first) until one decodes
    /// cleanly. Returns `None` when the directory holds no usable
    /// snapshot.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the directory cannot be read. Decode
    /// failures are not errors — they are recorded in
    /// [`LatestFederatedSnapshot::skipped`] and the scan falls back to
    /// the next older file.
    pub fn load_latest(&self) -> Result<Option<LatestFederatedSnapshot>, PersistError> {
        let mut skipped = Vec::new();
        for path in self.list()?.into_iter().rev() {
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) => {
                    skipped.push(SkippedFederatedSnapshot {
                        path,
                        error: PersistError::Io(e),
                    });
                    continue;
                }
            };
            match decode_federated_snapshot(&bytes) {
                Ok(checkpoint) => {
                    return Ok(Some(LatestFederatedSnapshot {
                        checkpoint,
                        path,
                        skipped,
                    }))
                }
                Err(error) => skipped.push(SkippedFederatedSnapshot { path, error }),
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosched_engine::EngineConfig;
    use ecosched_federation::{Federation, FederationConfig};
    use ecosched_select::Amp;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ecosched-fedsnap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Real federation checkpoints from a short S=2 run, captured at
    /// strictly increasing merged-log lengths.
    fn checkpoints(n: usize) -> (Federation<Amp>, Vec<FederationCheckpoint>) {
        let fed = Federation::new(
            FederationConfig::new(EngineConfig::default(), 2),
            Amp::new(),
        )
        .expect("default config");
        let mut state = fed.start(17);
        let mut snaps = Vec::with_capacity(n);
        while snaps.len() < n {
            for _ in 0..24 {
                if fed.step(&mut state).expect("step").is_none() {
                    panic!("run drained before producing {n} checkpoints");
                }
            }
            snaps.push(fed.checkpoint(&state));
        }
        (fed, snaps)
    }

    #[test]
    fn snapshot_bytes_round_trip() {
        let (_, snaps) = checkpoints(1);
        let bytes = encode_federated_snapshot(&snaps[0]);
        let decoded = decode_federated_snapshot(&bytes).unwrap();
        assert_eq!(decoded, snaps[0]);

        let meta = peek_federated_meta(&bytes).unwrap();
        assert_eq!(meta, FederatedSnapshotMeta::of(&snaps[0]));
        assert_eq!(meta.shards, 2);
        assert_eq!(meta.merged_events, snaps[0].merged.len() as u64);
    }

    #[test]
    fn a_single_engine_snapshot_is_rejected_not_misparsed() {
        let engine = ecosched_engine::Engine::new(EngineConfig::default(), Amp::new()).unwrap();
        let mut state = engine.start(3);
        for _ in 0..10 {
            engine.step(&mut state).unwrap();
        }
        let bytes = crate::snapshot::encode_snapshot(&engine.checkpoint(&state));
        assert!(matches!(
            decode_federated_snapshot(&bytes),
            Err(PersistError::MissingSection { .. })
        ));
    }

    #[test]
    fn resume_from_store_continues_the_run_exactly() {
        let dir = scratch_dir("resume");
        let store = FederatedSnapshotStore::open(&dir, 3).unwrap();
        let (fed, snaps) = checkpoints(2);
        for snap in &snaps {
            store.save(snap).unwrap();
        }

        let latest = store.load_latest().unwrap().expect("snapshots saved");
        assert!(latest.skipped.is_empty());
        assert_eq!(&latest.checkpoint, snaps.last().unwrap());

        // Resuming the loaded checkpoint reproduces the uninterrupted
        // run's merged log byte for byte.
        let baseline = fed.run(17).unwrap();
        let mut resumed = fed.resume(&latest.checkpoint).unwrap();
        while fed.step(&mut resumed).unwrap().is_some() {}
        let recovered = fed.finish(resumed);
        assert_eq!(recovered.merged.to_json(), baseline.merged.to_json());
        assert_eq!(recovered.report.to_json(), baseline.report.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_latest_skips_corrupt_newest() {
        let dir = scratch_dir("corrupt");
        let store = FederatedSnapshotStore::open(&dir, 4).unwrap();
        let (_, snaps) = checkpoints(2);
        store.save(&snaps[0]).unwrap();
        let (newest, _) = store.save(&snaps[1]).unwrap();

        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&newest, &bytes).unwrap();

        let latest = store
            .load_latest()
            .unwrap()
            .expect("older snapshot survives");
        assert_eq!(latest.checkpoint, snaps[0]);
        assert_eq!(latest.skipped.len(), 1);
        assert_eq!(latest.skipped[0].path, newest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_two_stores_share_a_directory_without_colliding() {
        let dir = scratch_dir("shared");
        let fed_store = FederatedSnapshotStore::open(&dir, 2).unwrap();
        let engine_store = crate::SnapshotStore::open(&dir, 2).unwrap();

        let (_, snaps) = checkpoints(1);
        fed_store.save(&snaps[0]).unwrap();
        engine_store.save(&snaps[0].shards[0]).unwrap();

        assert_eq!(fed_store.list().unwrap().len(), 1);
        assert_eq!(engine_store.list().unwrap().len(), 1);
        // Each loader sees only its own format.
        assert!(fed_store.load_latest().unwrap().is_some());
        assert!(engine_store.load_latest().unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
