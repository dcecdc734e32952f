//! Deliberate protocol mutations for model-checker self-tests.
//!
//! The bounded model checker (`orca-mc`) proves it can *detect* protocol
//! violations by flipping one of these process-global switches and
//! asserting that exploration flags the deliberately broken protocol.
//! Every switch is off by default and has zero effect on production paths
//! beyond one relaxed branch condition; they are process-global (not
//! environment variables) because parallel tests share the environment.
//!
//! Each sabotage re-introduces a real bug class:
//!
//! * [`NO_VERSION_GATING`] — copies (a replicated-regime object's mirrors,
//!   the primary-copy backend's secondaries) stop checking update versions: a stale
//!   fetched snapshot is installed even when a newer update overtook it
//!   in flight, and updates — pushed ones and a writer's own acknowledged
//!   write — are applied regardless of gaps. This is the pre-fix behavior
//!   of the fetch/update race (a permanently stale secondary serving
//!   local reads).
//! * [`REHOME_KEEPS_STALE_COPIES`] — after a crash, the regeneration of a
//!   replicated-regime object does not retire the dead owner's epoch: the
//!   copy is rebuilt under the epoch it had, the survivors stay listed and
//!   keep their mirrors of it instead of dropping them; such a copy is
//!   frozen at the moment of the crash and serves reads that miss every
//!   later write. (Dropping the copies alone is not what keeps them from
//!   being read — the next epoch is: skipping the drop breaks nothing.)
//! * [`SKIP_WRITER_PENDING_MARK`] — a writer's pending mark on its own
//!   mirror no longer holds back local reads while its write-through is in
//!   flight. The owner left that copy
//!   out of the two-phase update, so it keeps serving the old value after
//!   every other copy has been unlocked on the new one.
//! * [`UNHELD_EVERY_PUSH`] — no holder of a two-phase update is ever
//!   locked, as if every push were the fan-out's last: an earlier holder
//!   serves the new value while a later one, not yet pushed to, still
//!   serves the old.

use std::sync::atomic::{AtomicBool, Ordering};

/// Disable version gating in the secondary-copy protocol (stale fetch
/// snapshots install, gapped updates apply).
pub static NO_VERSION_GATING: AtomicBool = AtomicBool::new(false);

/// A regenerated object keeps its dead owner's epoch, and the survivors
/// their stale mirrors of it.
pub static REHOME_KEEPS_STALE_COPIES: AtomicBool = AtomicBool::new(false);

/// Local reads ignore the pending mark of an in-flight write-through.
pub static SKIP_WRITER_PENDING_MARK: AtomicBool = AtomicBool::new(false);

/// Every push of an update fan-out is unheld, not just the last.
pub static UNHELD_EVERY_PUSH: AtomicBool = AtomicBool::new(false);

pub(crate) fn unheld_every_push() -> bool {
    UNHELD_EVERY_PUSH.load(Ordering::SeqCst)
}

pub(crate) fn skip_writer_pending_mark() -> bool {
    SKIP_WRITER_PENDING_MARK.load(Ordering::SeqCst)
}

pub(crate) fn no_version_gating() -> bool {
    NO_VERSION_GATING.load(Ordering::SeqCst)
}

pub(crate) fn rehome_keeps_stale_copies() -> bool {
    REHOME_KEEPS_STALE_COPIES.load(Ordering::SeqCst)
}

/// RAII guard that enables one sabotage switch and restores it on drop, so
/// a panicking test cannot leak the mutation into later tests.
pub struct SabotageGuard {
    switch: &'static AtomicBool,
}

impl SabotageGuard {
    /// Enable `switch` until the guard drops.
    pub fn enable(switch: &'static AtomicBool) -> Self {
        switch.store(true, Ordering::SeqCst);
        SabotageGuard { switch }
    }
}

impl Drop for SabotageGuard {
    fn drop(&mut self) {
        self.switch.store(false, Ordering::SeqCst);
    }
}
