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

use orca_mc::{explore, replay_trace, script, Script, Violation};
use orca_rts::sabotage::{
    SabotageGuard, NO_VERSION_GATING, REHOME_KEEPS_STALE_COPIES, RESTAMP_LEAVES_OLD_SLOT,
    SKIP_WRITER_PENDING_MARK, UNHELD_EVERY_PUSH,
};

static LANE: Mutex<()> = Mutex::new(());

fn expect_caught(script: &Script) -> Violation {
    let report = explore(script);
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
    let script = script("replicated_fetch_race");
    let violation = expect_caught(&script);
    // And once more by hand, the way a developer would from the CLI.
    let replay = replay_trace(&script, &violation.trace);
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
    let mut script = script("replicated_promotion");
    script.budget.max_schedules = 512;
    expect_caught(&script);
}

#[test]
fn skipping_era_replay_is_caught_and_replays() {
    let _lane = LANE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let _sabotage = SabotageGuard::enable(&orca_group::sabotage::SKIP_ERA_REPLAY);
    let mut script = script("broadcast_era_replay");
    script.budget.max_schedules = 384;
    expect_caught(&script);
}

#[test]
fn skipped_writer_pending_mark_is_caught_and_replays() {
    let _lane = LANE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let _sabotage = SabotageGuard::enable(&SKIP_WRITER_PENDING_MARK);
    let violation = expect_caught(&script("adaptive_write_through_mirror"));
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
    let violation = expect_caught(&script("replicated_owner_push"));
    assert!(
        violation.message.contains("stale observation"),
        "caught for the wrong reason: {}",
        violation.message
    );
}

#[test]
fn unheld_every_push_is_caught_at_a_partition_mirror_too() {
    let _lane = LANE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let _sabotage = SabotageGuard::enable(&UNHELD_EVERY_PUSH);
    let violation = expect_caught(&script("sharded_partition_mirror"));
    assert!(
        violation.message.contains("stale observation"),
        "caught for the wrong reason: {}",
        violation.message
    );
}

#[test]
fn a_restamp_leaving_the_old_slot_serving_is_caught_and_replays() {
    let _lane = LANE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let _sabotage = SabotageGuard::enable(&RESTAMP_LEAVES_OLD_SLOT);
    let violation = expect_caught(&script("sharded_replacement_under_writers"));
    assert!(
        violation.message.contains("lost"),
        "caught for the wrong reason: {}",
        violation.message
    );
}
