//! Engine coverage for the optional full-rescan repair tier.
//!
//! With a one-attempt budget the anchored tiers exhaust quickly under
//! heavy churn, so the ladder falls through to the full rescan from the
//! strike time. Whatever any tier re-commits must launch at or after the
//! strike (nothing runs in the past), and the vacant market must keep
//! its invariants through every strike.

use ecosched_engine::{ArrivalConfig, Engine, EngineConfig, Event};
use ecosched_select::Amp;
use ecosched_sim::{JobGenConfig, RepairPolicy, RevocationConfig};

fn rescan_config() -> EngineConfig {
    EngineConfig {
        cycles: 10,
        revocation: RevocationConfig::per_slot(0.25),
        repair: RepairPolicy {
            max_attempts: 1,
            full_rescan_on_exhaustion: true,
        },
        arrivals: ArrivalConfig::Poisson {
            mean_interarrival: 6.0,
            jobs: 60,
            job_gen: JobGenConfig::default(),
        },
        ..EngineConfig::default()
    }
}

#[test]
fn full_rescans_recommit_only_from_the_strike_time_on() {
    let engine = Engine::new(rescan_config(), Amp::new()).unwrap();
    let mut state = engine.start(7);
    let mut strikes_with_recommits = 0;
    loop {
        // Lease ids are never reused: every id minted by this step's
        // handler is at or above the cursor taken before it.
        let first_new = engine.checkpoint(&state).next_lease;
        let Some(entry) = engine.step(&mut state).unwrap() else {
            break;
        };
        state.vacant().validate().expect("market invariants hold");
        if !matches!(entry.event, Event::RevocationStrike { .. }) {
            continue;
        }
        let recommitted: Vec<_> = engine
            .checkpoint(&state)
            .leases
            .into_iter()
            .filter(|l| l.lease >= first_new)
            .collect();
        for lease in &recommitted {
            assert!(
                lease.window.start().ticks() >= entry.time,
                "lease {} re-committed at {} by the strike at {}",
                lease.lease,
                lease.window.start().ticks(),
                entry.time
            );
        }
        strikes_with_recommits += usize::from(!recommitted.is_empty());
    }
    assert!(strikes_with_recommits > 0, "no strike re-committed a lease");

    let report = engine.finish(state).report;
    assert!(report.full_rescans > 0, "the full-rescan tier never ran");
    assert_eq!(
        report.leases_broken,
        report.failovers + report.repairs + report.repostponed,
        "every broken lease ends in a terminal tier"
    );
}
