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
//! * [`NO_VERSION_GATING`] — copies (the mirrors of a replicated-regime
//!   object or of a sharded partition) stop checking update versions: a stale
//!   fetched snapshot is installed even when a newer update overtook it
//!   in flight, and updates — pushed ones and a writer's own acknowledged
//!   write — are applied regardless of gaps. This is the pre-fix behavior
//!   of the fetch/update race (a permanently stale secondary serving
//!   local reads).
//! * [`REHOME_KEEPS_STALE_COPIES`] — after a crash, the recovered table of
//!   a promoted slot — a replicated-regime copy or a partition — lists every
//!   other survivor that holds a mirror of it as a reader, though the
//!   promoted slot neither primes nor pushes them: such a copy is frozen at
//!   the moment of the crash, and a reader the table sends to it misses
//!   every later write. (Unlisted, the copy left behind is harmless: nobody
//!   reads it, and a promoted slot's versions carry on from its mirror's, so
//!   it never outranks the keeper.)
//! * [`SKIP_WRITER_PENDING_MARK`] — a writer's pending mark on its own
//!   mirror no longer holds back local reads while its write-through is in
//!   flight. The owner left that copy
//!   out of the two-phase update, so it keeps serving the old value after
//!   every other copy has been unlocked on the new one.
//! * [`UNHELD_EVERY_PUSH`] — no holder of a two-phase update is ever
//!   locked, as if every push were the fan-out's last: an earlier holder
//!   serves the new value while a later one, not yet pushed to, still
//!   serves the old.
//! * [`RESTAMP_LEAVES_OLD_SLOT`] — a re-placement re-stamps a partition
//!   whose owner stays by installing a copy under the next epoch, and the
//!   old-epoch slot serves on until the copy replaces it: a write it takes
//!   meanwhile is acknowledged and lost.

use std::sync::atomic::{AtomicBool, Ordering};

/// Disable version gating in the secondary-copy protocol (stale fetch
/// snapshots install, gapped updates apply).
pub static NO_VERSION_GATING: AtomicBool = AtomicBool::new(false);

/// The recovered table of a promoted slot lists the survivors that hold a
/// stale mirror of it.
pub static REHOME_KEEPS_STALE_COPIES: AtomicBool = AtomicBool::new(false);

/// Local reads ignore the pending mark of an in-flight write-through.
pub static SKIP_WRITER_PENDING_MARK: AtomicBool = AtomicBool::new(false);

/// Every push of an update fan-out is unheld, not just the last.
pub static UNHELD_EVERY_PUSH: AtomicBool = AtomicBool::new(false);

/// A re-stamp copies the slot and leaves the old-epoch one serving.
pub static RESTAMP_LEAVES_OLD_SLOT: AtomicBool = AtomicBool::new(false);

/// True while `switch` is on.
pub(crate) fn on(switch: &AtomicBool) -> bool {
    switch.load(Ordering::SeqCst)
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
