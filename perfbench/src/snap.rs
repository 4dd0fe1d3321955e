//! Snapshot timings and composition: how long snapshots take, how large
//! they get, and which part of the state the bytes belong to.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use ecosched_engine::EngineCheckpoint;
use ecosched_persist::{decode_federated_snapshot, decode_snapshot};

use crate::report::Report;
use crate::stats::{ms, quantile};

/// Snapshot observations of one workload.
#[derive(Debug, Default)]
pub struct SnapStats {
    /// Wall time of every snapshot taken (capture, encode, write), ms.
    pub total_ms: Vec<f64>,
    /// The largest snapshot's bytes.
    pub largest: Vec<u8>,
    /// Encode and write-with-fsync time of the largest snapshot, ms.
    pub largest_encode_ms: f64,
    pub largest_write_ms: f64,
    /// Whether `largest` is a federated (daemon) snapshot.
    pub federated: bool,
}

impl SnapStats {
    /// Keeps `bytes` if it is the largest so far.
    pub fn offer(&mut self, bytes: Vec<u8>, encode: Duration, write: Duration) {
        if bytes.len() > self.largest.len() {
            self.largest = bytes;
            self.largest_encode_ms = ms(encode);
            self.largest_write_ms = ms(write);
        }
    }

    /// The `persist.*` metrics.
    pub fn put_metrics(&self, out: &mut Report) -> Result<(), String> {
        let parts = if self.largest.is_empty() {
            [0; 4]
        } else if self.federated {
            let cp = decode_federated_snapshot(&self.largest).map_err(|e| e.to_string())?;
            let mut parts = [0, 0, json_len(&cp.merged), 0];
            for shard in &cp.shards {
                for (sum, part) in parts.iter_mut().zip(engine_parts(shard)) {
                    *sum += part;
                }
            }
            parts
        } else {
            engine_parts(&decode_snapshot(&self.largest).map_err(|e| e.to_string())?)
        };
        let total = self.largest.len();
        out.put(
            "persist.snapshot_ms_p99",
            quantile(&self.total_ms, 0.99),
            "ms",
        );
        out.put("persist.encode_ms", self.largest_encode_ms, "ms");
        out.put("persist.write_ms", self.largest_write_ms, "ms");
        out.put("persist.snapshot_bytes_max", total as f64, "B");
        for (name, bytes) in ["optimizer", "queue", "log", "market"].iter().zip(parts) {
            out.put(format!("persist.bytes.{name}"), bytes as f64, "B");
        }
        out.put(
            "persist.bytes.other",
            total.saturating_sub(parts.iter().sum()) as f64,
            "B",
        );
        Ok(())
    }
}

/// Serialized bytes of an engine checkpoint's optimizer cache, event
/// queue, event log and vacant market.
fn engine_parts(cp: &EngineCheckpoint) -> [usize; 4] {
    [
        json_len(&cp.optimizer),
        json_len(&cp.queue),
        json_len(&cp.log),
        json_len(&cp.vacant),
    ]
}

fn json_len<T: serde::Serialize>(value: &T) -> usize {
    serde_json::to_string(value).map_or(0, |s| s.len())
}

/// Writes `bytes` to `path` and fsyncs it, returning the time taken.
pub fn write_synced(path: &Path, bytes: &[u8]) -> std::io::Result<Duration> {
    let t = Instant::now();
    let mut file = std::fs::File::create(path)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    Ok(t.elapsed())
}
