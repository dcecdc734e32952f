//! Mutation self-tests: deliberately broken protocol variants the checker
//! MUST flag.
//!
//! Each mutation (a `#[doc(hidden)]` sabotage switch inside the runtime
//! crates) disables one load-bearing piece of protocol machinery; if the
//! model checker cannot find a violating schedule, its search or its
//! invariants are too weak. Each caught violation must also replay
//! deterministically from its recorded trace — that is what makes a
//! checker-found bug debuggable.
//!
//! The sabotage switches are process-global, so these tests serialize
//! behind a mutex and reset the switch via the RAII guard.

use std::sync::Mutex;

use orca_mc::{explore, replay_trace, Scenario, Violation};
use orca_rts::sabotage::{
    SabotageGuard, NO_VERSION_GATING, REHOME_KEEPS_STALE_COPIES, SKIP_WRITER_PENDING_MARK,
    UNHELD_EVERY_PUSH,
};

static LANE: Mutex<()> = Mutex::new(());

fn expect_caught(scenario: &dyn Scenario) -> Violation {
    let report = explore(scenario);
    eprintln!("{}", report.summary());
    let violation = report.violation.unwrap_or_else(|| {
        panic!(
            "{}: mutation NOT caught within budget — checker too weak ({} schedules explored)",
            report.scenario, report.schedules
        )
    });
    assert!(
        violation.replay_confirmed,
        "{}: violating trace did not reproduce on replay: {}",
        report.scenario, violation.trace
    );
    violation
}

#[test]
fn missing_version_gating_is_caught_and_replays() {
    let _lane = LANE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let _sabotage = SabotageGuard::enable(&NO_VERSION_GATING);
    let mut scenario = orca_mc::PrimaryFetchRace::default();
    scenario.budget.max_schedules = 768;
    let violation = expect_caught(&scenario);
    // And once more by hand, the way a developer would from the CLI.
    let replay = replay_trace(&scenario, &violation.trace);
    assert!(
        replay.violation.is_some(),
        "trace replay lost the violation: {}",
        violation.trace
    );
}

#[test]
fn rehome_keeping_stale_copies_is_caught_and_replays() {
    let _lane = LANE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let _sabotage = SabotageGuard::enable(&REHOME_KEEPS_STALE_COPIES);
    let mut scenario = orca_mc::PrimaryPromotion::default();
    scenario.budget.max_schedules = 512;
    expect_caught(&scenario);
}

#[test]
fn skipping_era_replay_is_caught_and_replays() {
    let _lane = LANE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let _sabotage = SabotageGuard::enable(&orca_group::sabotage::SKIP_ERA_REPLAY);
    let mut scenario = orca_mc::BroadcastEraReplay::default();
    scenario.budget.max_schedules = 384;
    expect_caught(&scenario);
}

#[test]
fn skipped_writer_pending_mark_is_caught_and_replays() {
    let _lane = LANE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let _sabotage = SabotageGuard::enable(&SKIP_WRITER_PENDING_MARK);
    let violation = expect_caught(&orca_mc::AdaptiveWriteThroughMirror::default());
    assert!(
        violation.message.contains("stale observation"),
        "caught for the wrong reason: {}",
        violation.message
    );
}

#[test]
fn unheld_every_push_is_caught_and_replays() {
    let _lane = LANE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let _sabotage = SabotageGuard::enable(&UNHELD_EVERY_PUSH);
    let violation = expect_caught(&orca_mc::ReplicatedOwnerPush::default());
    assert!(
        violation.message.contains("stale observation"),
        "caught for the wrong reason: {}",
        violation.message
    );
}
