//! Snapshot round-trip, corruption-rejection, and divergence-detection
//! tests, plus the committed golden fixture.
//!
//! The contract under test: every serialized state type survives an
//! encode/decode round trip unchanged; corrupted, truncated, or
//! version-mismatched bytes fail with *typed* errors (never panics,
//! never a silently wrong checkpoint); and replay against a tampered log
//! suffix reports the exact offending event pair.

use std::path::PathBuf;

use ecosched_engine::{ArrivalConfig, Engine, EngineCheckpoint, EngineConfig, Event, LogEntry};
use ecosched_persist::{
    decode_snapshot, encode_snapshot, peek_meta, read_snapshot, resume_and_replay, resume_from,
    run_with_snapshots, write_snapshot, PersistError, ReplayError, SnapshotMeta, FORMAT_VERSION,
    MIN_FORMAT_VERSION,
};
use ecosched_select::Amp;
use ecosched_sim::{JobGenConfig, RevocationConfig};
use proptest::prelude::*;

/// The fixed configuration every golden fixture was generated under.
/// Keep in sync with `tests/data/golden_v3.snap` — regenerate that
/// fixture (see `regenerate_golden_fixture`) whenever the checkpoint
/// schema or this configuration changes. `tests/data/golden_v1.snap` and
/// `tests/data/golden_v2.snap` are **frozen** migration witnesses and
/// must never be regenerated by this build: v1 is a container-format-1
/// snapshot whose market serialized in the flat form; v2 (interval-form
/// market) and v1 both store the optimizer's DP row values, which format
/// 3 replaced by the rows' inputs.
fn golden_config() -> EngineConfig {
    EngineConfig {
        cycles: 3,
        revocation: RevocationConfig::per_slot(0.05),
        arrivals: ArrivalConfig::Poisson {
            mean_interarrival: 8.0,
            jobs: 8,
            job_gen: JobGenConfig::default(),
        },
        ..EngineConfig::default()
    }
}

const GOLDEN_SEED: u64 = 42;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden_v3.snap")
}

fn golden_v2_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden_v2.snap")
}

fn golden_v1_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden_v1.snap")
}

/// The checkpoint the fixture stores: the golden run's second cycle
/// commit.
fn golden_checkpoint() -> EngineCheckpoint {
    let engine = Engine::new(golden_config(), Amp::new()).expect("golden config");
    let (_, snapshots) = run_with_snapshots(&engine, GOLDEN_SEED, 1).expect("golden run");
    snapshots
        .get(1)
        .cloned()
        .expect("golden run has at least two cycle commits")
}

/// Rewrites the golden fixture. Run explicitly after an intentional
/// schema change: `cargo test -p ecosched-persist -- --ignored
/// regenerate_golden_fixture`, then commit the file and bump this
/// comment's rationale in the PR.
#[test]
#[ignore]
fn regenerate_golden_fixture() {
    std::fs::create_dir_all(golden_path().parent().expect("fixture dir")).expect("mkdir");
    write_snapshot(&golden_path(), &golden_checkpoint()).expect("write fixture");
}

/// The committed fixture still decodes, identifies itself correctly,
/// matches a freshly generated checkpoint, and resumes into a run that
/// converges with the uninterrupted baseline.
#[test]
fn golden_fixture_decodes_and_resumes() {
    let checkpoint = read_snapshot(&golden_path()).expect(
        "golden fixture must decode; if the checkpoint schema changed \
         intentionally, rerun regenerate_golden_fixture and commit the file",
    );
    assert_eq!(checkpoint, golden_checkpoint(), "fixture drifted from code");

    let bytes = std::fs::read(golden_path()).expect("fixture bytes");
    let meta = peek_meta(&bytes).expect("fixture meta");
    let engine = Engine::new(golden_config(), Amp::new()).expect("golden config");
    assert_eq!(
        meta,
        SnapshotMeta {
            seed: GOLDEN_SEED,
            config_fp: engine.config_fingerprint(),
            events_processed: checkpoint.log.len() as u64,
            events_queued: checkpoint.queue.len() as u64,
        }
    );

    let baseline = engine.run(GOLDEN_SEED).expect("baseline");
    let suffix: Vec<LogEntry> = baseline.log.entries[checkpoint.log.len()..].to_vec();
    let recovered = resume_from(&engine, &bytes, &suffix).expect("resume from fixture");
    assert_eq!(recovered, baseline);
}

/// The frozen format-1 fixture — written by a build whose market only had
/// the flat representation — still decodes, matches the checkpoint this
/// build generates (market equality is representation-agnostic), and
/// resumes into an interval-market engine whose completed run is
/// byte-identical to the uninterrupted baseline. This is the migration
/// contract: v1 snapshots carry over into the interval era losslessly.
#[test]
fn flat_v1_fixture_migrates_into_the_interval_engine() {
    let bytes = std::fs::read(golden_v1_path()).expect("frozen v1 fixture bytes");
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        1,
        "the v1 fixture must stay a format-1 container; never regenerate it"
    );
    let checkpoint = decode_snapshot(&bytes).expect("v1 fixture must keep decoding");
    assert_eq!(
        checkpoint,
        golden_checkpoint(),
        "v1 fixture drifted from code"
    );

    let engine = Engine::new(golden_config(), Amp::new()).expect("golden config");
    assert!(
        engine.config().interval_market,
        "the migration target is the interval market"
    );
    let meta = peek_meta(&bytes).expect("v1 fixture meta");
    assert_eq!(meta.config_fp, engine.config_fingerprint());

    let baseline = engine.run(GOLDEN_SEED).expect("baseline");
    let suffix: Vec<LogEntry> = baseline.log.entries[checkpoint.log.len()..].to_vec();
    let recovered = resume_from(&engine, &bytes, &suffix).expect("resume v1 under interval");
    assert_eq!(recovered, baseline);
}

/// The frozen format-2 fixture — written by a build whose optimizer
/// section stored every cached DP row's values — still decodes, matches
/// the checkpoint this build generates (the legacy row values are
/// dropped; the rows' items, fingerprints and widths are what both
/// carry), and resumes into a run that is byte-identical to the
/// uninterrupted baseline, optimizer work counters included: the rows
/// rebuilt from their items are the rows the legacy file stored.
#[test]
fn v2_fixture_migrates_into_the_input_only_optimizer() {
    let bytes = std::fs::read(golden_v2_path()).expect("frozen v2 fixture bytes");
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        2,
        "the v2 fixture must stay a format-2 container; never regenerate it"
    );
    let checkpoint = decode_snapshot(&bytes).expect("v2 fixture must keep decoding");
    assert_eq!(
        checkpoint,
        golden_checkpoint(),
        "v2 fixture drifted from code"
    );
    let optimizer = checkpoint.optimizer.as_ref().expect("cache on");
    assert!(
        !optimizer.cost_max.rows.is_empty(),
        "the fixture must carry cached rows to rebuild"
    );

    let engine = Engine::new(golden_config(), Amp::new()).expect("golden config");
    let meta = peek_meta(&bytes).expect("v2 fixture meta");
    assert_eq!(meta.config_fp, engine.config_fingerprint());

    let baseline = engine.run(GOLDEN_SEED).expect("baseline");
    let suffix: Vec<LogEntry> = baseline.log.entries[checkpoint.log.len()..].to_vec();
    let recovered = resume_from(&engine, &bytes, &suffix).expect("resume v2");
    assert_eq!(recovered.report.opt, baseline.report.opt);
    assert_eq!(recovered, baseline);
}

/// The reverse direction also holds: a snapshot whose market serialized
/// in the interval form resumes under a flat-market engine and converges
/// to the same run (the `interval_market` flag is deliberately absent
/// from the configuration fingerprint).
#[test]
fn interval_snapshot_resumes_under_a_flat_engine() {
    let bytes = encode_snapshot(&golden_checkpoint());
    let flat_engine = Engine::new(
        EngineConfig {
            interval_market: false,
            ..golden_config()
        },
        Amp::new(),
    )
    .expect("flat config");
    let checkpoint = decode_snapshot(&bytes).expect("decode");
    let baseline = flat_engine.run(GOLDEN_SEED).expect("flat baseline");
    let suffix: Vec<LogEntry> = baseline.log.entries[checkpoint.log.len()..].to_vec();
    let recovered = resume_from(&flat_engine, &bytes, &suffix).expect("resume under flat");
    assert_eq!(recovered, baseline);
}

/// A snapshot taken under one configuration is refused by an engine
/// built under another — through the full byte path.
#[test]
fn foreign_config_is_refused_through_bytes() {
    let bytes = encode_snapshot(&golden_checkpoint());
    let other = Engine::new(
        EngineConfig {
            cycles: 4,
            ..golden_config()
        },
        Amp::new(),
    )
    .expect("config");
    match resume_from(&other, &bytes, &[]) {
        Err(ReplayError::Engine(e)) => {
            assert!(e.to_string().contains("different configuration"), "{e}");
        }
        other => panic!("expected a config-mismatch error, got {other:?}"),
    }
}

/// A tampered suffix entry is reported as `Diverged` with the exact
/// offending pair and whole-run index; a suffix longer than the run is
/// reported as `RunEnded`.
#[test]
fn divergence_names_the_offending_event() {
    let engine = Engine::new(golden_config(), Amp::new()).expect("config");
    let checkpoint = golden_checkpoint();
    let baseline = engine.run(GOLDEN_SEED).expect("baseline");
    let suffix: Vec<LogEntry> = baseline.log.entries[checkpoint.log.len()..].to_vec();

    // Tamper with one event mid-suffix.
    let tamper_at = suffix.len() / 2;
    let mut tampered = suffix.clone();
    tampered[tamper_at].event = Event::JobArrival { job: 4_000_000 };
    match resume_and_replay(&engine, &checkpoint, &tampered) {
        Err(ReplayError::Diverged {
            index,
            expected,
            actual,
        }) => {
            assert_eq!(index as usize, checkpoint.log.len() + tamper_at);
            assert_eq!(expected, tampered[tamper_at]);
            assert_eq!(actual, suffix[tamper_at]);
        }
        other => panic!("expected Diverged, got {other:?}"),
    }

    // Expect one event more than the run produces.
    let mut long = suffix.clone();
    long.push(LogEntry {
        time: i64::MAX,
        seq: u64::MAX,
        event: Event::CycleTick { cycle: u32::MAX },
    });
    match resume_and_replay(&engine, &checkpoint, &long) {
        Err(ReplayError::RunEnded { index, .. }) => {
            assert_eq!(index as usize, checkpoint.log.len() + suffix.len());
        }
        other => panic!("expected RunEnded, got {other:?}"),
    }
}

/// Simple state types round-trip through their canonical JSON.
#[test]
fn component_types_round_trip() {
    let checkpoint = golden_checkpoint();

    let rng_json = serde_json::to_string(&checkpoint.rng).expect("rng json");
    assert_eq!(
        serde_json::from_str::<ecosched_engine::RngState>(&rng_json).expect("rng back"),
        checkpoint.rng
    );
    for q in &checkpoint.queue {
        let json = serde_json::to_string(q).expect("queued json");
        assert_eq!(
            serde_json::from_str::<ecosched_engine::QueuedEventState>(&json).expect("queued back"),
            *q
        );
    }
    for a in &checkpoint.arrivals {
        let json = serde_json::to_string(a).expect("arrival json");
        assert_eq!(
            serde_json::from_str::<ecosched_engine::ArrivalState>(&json).expect("arrival back"),
            *a
        );
    }
    for p in &checkpoint.pending {
        let json = serde_json::to_string(p).expect("pending json");
        assert_eq!(
            serde_json::from_str::<ecosched_engine::PendingState>(&json).expect("pending back"),
            *p
        );
    }
    for l in &checkpoint.leases {
        let json = serde_json::to_string(l).expect("lease json");
        assert_eq!(
            serde_json::from_str::<ecosched_engine::LeaseState>(&json).expect("lease back"),
            *l
        );
    }
    let meta = SnapshotMeta::of(&checkpoint);
    let json = serde_json::to_string(&meta).expect("meta json");
    assert_eq!(
        serde_json::from_str::<SnapshotMeta>(&json).expect("meta back"),
        meta
    );
}

proptest! {
    // Full engine runs per case; keep counts moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Checkpoints from random runs and capture points round-trip through
    /// the full byte container unchanged — covering every nested state
    /// type (slot lists, leases, windows, reports, optimizer caches).
    #[test]
    fn checkpoints_round_trip_through_bytes(
        seed in 0u64..100_000,
        steps in 1usize..120,
        churn in any::<bool>(),
        cache in any::<bool>(),
    ) {
        let config = EngineConfig {
            cycles: 3,
            revocation: if churn {
                RevocationConfig::per_slot(0.05)
            } else {
                RevocationConfig::none()
            },
            optimizer_cache: cache,
            arrivals: ArrivalConfig::Poisson {
                mean_interarrival: 10.0,
                jobs: 10,
                job_gen: JobGenConfig::default(),
            },
            ..EngineConfig::default()
        };
        let engine = Engine::new(config, Amp::new()).expect("config");
        let mut state = engine.start(seed);
        for _ in 0..steps {
            if engine.step(&mut state).expect("step").is_none() {
                break;
            }
        }
        let checkpoint = engine.checkpoint(&state);
        prop_assert_eq!(checkpoint.optimizer.is_some(), cache);
        let bytes = encode_snapshot(&checkpoint);
        let back = decode_snapshot(&bytes).expect("round trip");
        prop_assert_eq!(&back, &checkpoint);
        // Idempotent: re-encoding the decoded checkpoint is byte-stable.
        prop_assert_eq!(encode_snapshot(&back), bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any truncation of a real snapshot fails with a typed error — no
    /// panic, no partial state. `encode_snapshot` of the golden
    /// checkpoint exercises the current format (interval-form market
    /// section); the frozen fixture exercises the v1 flat-form one.
    #[test]
    fn truncation_is_rejected(cut_permille in 0u32..1000) {
        let bytes = encode_snapshot(&golden_checkpoint());
        let cut = (bytes.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        prop_assert!(decode_snapshot(&bytes[..cut]).is_err());

        let v1 = std::fs::read(golden_v1_path()).expect("v1 fixture bytes");
        let cut = (v1.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        prop_assert!(decode_snapshot(&v1[..cut]).is_err());
    }

    /// Any single corrupted byte in a real snapshot fails with a typed
    /// error — in both the current (interval-form) and v1 flat-form containers.
    #[test]
    fn byte_corruption_is_rejected(pos_permille in 0u32..1000, mask in 1u8..=255) {
        let mut bytes = encode_snapshot(&golden_checkpoint());
        let pos = (bytes.len() as u64 * u64::from(pos_permille) / 1000) as usize;
        let pos = pos.min(bytes.len() - 1);
        bytes[pos] ^= mask;
        prop_assert!(decode_snapshot(&bytes).is_err());

        let mut v1 = std::fs::read(golden_v1_path()).expect("v1 fixture bytes");
        let pos = (v1.len() as u64 * u64::from(pos_permille) / 1000) as usize;
        let pos = pos.min(v1.len() - 1);
        v1[pos] ^= mask;
        prop_assert!(decode_snapshot(&v1).is_err());
    }
}

/// Versions outside the supported window are refused by name, not
/// misparsed — both a future version and one below the decode floor.
#[test]
fn wrong_version_is_refused() {
    let bytes = encode_snapshot(&golden_checkpoint());
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        FORMAT_VERSION,
        "this build writes the current format version"
    );
    for bad in [FORMAT_VERSION + 1, MIN_FORMAT_VERSION - 1] {
        let mut patched = bytes.clone();
        patched[8..12].copy_from_slice(&bad.to_le_bytes());
        match decode_snapshot(&patched) {
            Err(PersistError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, bad);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion for {bad}, got {other:?}"),
        }
    }
}

/// Checksummed-but-nonsense JSON payloads fail as `Corrupt`, not panics.
#[test]
fn valid_container_with_garbage_payload_is_corrupt() {
    let bytes = ecosched_persist::encode(&[
        (ecosched_persist::META_SECTION, b"not json".as_slice()),
        (ecosched_persist::CHECKPOINT_SECTION, b"{}".as_slice()),
    ]);
    assert!(matches!(
        peek_meta(&bytes),
        Err(PersistError::Corrupt { .. })
    ));
    assert!(matches!(
        decode_snapshot(&bytes),
        Err(PersistError::Corrupt { .. })
    ));
}
