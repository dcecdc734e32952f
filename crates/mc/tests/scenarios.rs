//! Honest-protocol lanes: exhaustively explore each scenario and assert no
//! schedule violates the invariants.
//!
//! A row that can neither crash a node nor drop a message (one per
//! runtime-system family) must explore its full interleaving tree —
//! `complete` in the report — within the state budget; the crash rows may
//! legitimately hit their schedule budgets (crash-at-every-point multiplies
//! the tree) and only assert no violation.
//!
//! Scenarios share the process-global network clock and run one at a time
//! behind a mutex: the engine's quiescence detection measures wall time,
//! and a concurrently exploring scenario would starve it on the small CI
//! machines this runs on.

use std::sync::Mutex;

use orca_mc::{explore, script, Report};

static LANE: Mutex<()> = Mutex::new(());

fn run(name: &str) -> Report {
    let _lane = LANE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let script = script(name);
    let report = explore(&script);
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
    let faultless = script.budget.crash_candidates.is_empty() && script.budget.max_drops == 0;
    if faultless {
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
    run("broadcast_ordering");
}

#[test]
fn replicated_fetch_race_holds_under_all_interleavings() {
    run("replicated_fetch_race");
}

#[test]
fn sharded_partition_move_loses_and_duplicates_nothing() {
    run("sharded_partition_move");
}

#[test]
fn adaptive_regime_switch_holds_under_all_interleavings() {
    run("adaptive_regime_switch");
}

#[test]
fn broadcast_era_replay_survives_sequencer_crash_everywhere() {
    run("broadcast_era_replay");
}

#[test]
fn replicated_promotion_survives_home_crash_everywhere() {
    run("replicated_promotion");
}

#[test]
fn replicated_lease_revoke_keeps_leased_reads_linearizable() {
    run("replicated_lease_revoke");
}

#[test]
fn adaptive_write_through_mirror_never_serves_a_stale_mirror() {
    run("adaptive_write_through_mirror");
}

#[test]
fn replicated_owner_push_never_shows_the_old_value_after_the_new() {
    run("replicated_owner_push");
}

#[test]
fn sharded_partition_mirror_never_shows_the_old_value_after_the_new() {
    run("sharded_partition_mirror");
}

#[test]
fn sharded_keeper_promotion_loses_and_duplicates_nothing() {
    run("sharded_keeper_promotion");
}

#[test]
fn sharded_replacement_under_writers_loses_and_duplicates_nothing() {
    run("sharded_replacement_under_writers");
}

#[test]
fn sharded_replacement_across_a_death_loses_and_duplicates_nothing() {
    run("sharded_replacement_across_a_death");
}
