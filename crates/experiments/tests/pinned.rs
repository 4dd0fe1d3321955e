//! The recorded numbers of EXPERIMENTS.md, asserted exactly.
//!
//! E15's four `event_log_hash` values (seed 42, default `OnlineConfig`)
//! fingerprint every event of the engine runs, and E14's churn table
//! (40 runs × 8 cycles per level) is the metascheduler's ALP-vs-AMP
//! recovery comparison. Both are pure functions of their seeds, so any
//! change to scheduling, repair or market bookkeeping that moves an
//! outcome fails here by name rather than as a cross-process diff.
//! A deliberate change to an outcome must update these values and
//! EXPERIMENTS.md together.

use ecosched_experiments::churn::{churn_table, run_churn_sweep, ChurnConfig};
use ecosched_experiments::online::{run_online, OnlineConfig};

#[test]
fn e15_event_log_hashes_are_pinned() {
    let hashes: Vec<(&str, &str, String)> = run_online(&OnlineConfig::default())
        .into_iter()
        .map(|p| (p.scenario, p.algo, p.report.log_hash))
        .collect();
    let expected = [
        ("calm", "ALP", "68c4d3b975d54066"),
        ("calm", "AMP", "5264012b55db858e"),
        ("churn", "ALP", "9aed0870281dea20"),
        ("churn", "AMP", "30fe6b949a653bb0"),
    ];
    assert_eq!(hashes.len(), expected.len());
    for ((scenario, algo, hash), (want_scenario, want_algo, want_hash)) in
        hashes.iter().zip(expected)
    {
        assert_eq!((*scenario, *algo), (want_scenario, want_algo));
        assert_eq!(hash, want_hash, "E15 {scenario}/{algo} event log drifted");
    }
}

#[test]
fn e14_churn_table_is_pinned() {
    let csv = churn_table(&run_churn_sweep(&ChurnConfig::default())).to_csv();
    let expected = "\
per_slot,algo,scheduled,intact,failed_over,repaired,postponed,recovery,avg_time,avg_cost
0.00,ALP,1079,1079,0,0,2369,1.00,61.63,401.16
0.00,AMP,1569,1569,0,0,0,1.00,41.62,560.19
0.05,ALP,1078,970,100,8,2433,0.61,61.09,406.20
0.05,AMP,1613,1355,258,0,0,1.00,43.91,556.50
0.10,ALP,1057,850,195,12,2539,0.59,61.23,403.89
0.10,AMP,1613,1114,499,0,5,0.99,46.34,553.96
0.15,ALP,1025,750,252,23,2711,0.52,61.43,400.05
0.15,AMP,1613,949,664,0,23,0.97,48.10,552.65
";
    assert_eq!(csv, expected, "E14 churn table drifted");
}
