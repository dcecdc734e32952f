//! Honest-protocol lanes: exhaustively explore each scenario and assert no
//! schedule violates the invariants.
//!
//! The four crash-free scenarios (one per runtime-system family) must
//! explore their full interleaving tree — `complete` in the report — within
//! the state budget; the six crash scenarios may legitimately hit their
//! schedule budgets (crash-at-every-point multiplies the tree) and only
//! assert no violation.
//!
//! Scenarios share the process-global network clock and run one at a time
//! behind a mutex: the engine's quiescence detection measures wall time,
//! and a concurrently exploring scenario would starve it on the small CI
//! machines this runs on.

use std::sync::Mutex;

use orca_mc::{explore, Report, Scenario};

static LANE: Mutex<()> = Mutex::new(());

fn run(scenario: &dyn Scenario, must_be_complete: bool) -> Report {
    let _lane = LANE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let report = explore(scenario);
    eprintln!("{}", report.summary());
    if let Some(violation) = &report.violation {
        panic!(
            "unexpected violation in {}: {}\n  replay with ORCA_MC_SCENARIO={} ORCA_MC_TRACE={}\n  (replay confirmed: {})",
            report.scenario,
            violation.message,
            report.scenario,
            violation.trace,
            violation.replay_confirmed,
        );
    }
    assert!(
        report.schedules > 1,
        "{}: exploration never branched — the scenario is not exercising choices: {}",
        report.scenario,
        report.summary()
    );
    if must_be_complete {
        assert!(
            report.complete,
            "{}: expected exhaustive exploration within budget: {}",
            report.scenario,
            report.summary()
        );
    }
    report
}

#[test]
fn broadcast_ordering_holds_under_all_interleavings() {
    run(&orca_mc::BroadcastOrdering::default(), true);
}

#[test]
fn primary_fetch_race_holds_under_all_interleavings() {
    run(&orca_mc::PrimaryFetchRace::default(), true);
}

#[test]
fn sharded_handoff_loses_and_duplicates_nothing() {
    run(&orca_mc::ShardedHandoff::default(), true);
}

#[test]
fn adaptive_regime_switch_holds_under_all_interleavings() {
    run(&orca_mc::AdaptiveRegimeSwitch::default(), true);
}

#[test]
fn broadcast_era_replay_survives_sequencer_crash_everywhere() {
    run(&orca_mc::BroadcastEraReplay::default(), false);
}

#[test]
fn primary_promotion_survives_home_crash_everywhere() {
    run(&orca_mc::PrimaryPromotion::default(), false);
}

#[test]
fn primary_lease_revoke_keeps_leased_reads_linearizable() {
    run(&orca_mc::PrimaryLeaseRevoke::default(), false);
}

#[test]
fn adaptive_write_through_mirror_never_serves_a_stale_mirror() {
    run(&orca_mc::AdaptiveWriteThroughMirror::default(), false);
}

#[test]
fn replicated_owner_push_never_shows_the_old_value_after_the_new() {
    run(&orca_mc::ReplicatedOwnerPush::default(), false);
}
