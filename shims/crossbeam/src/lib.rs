//! Offline stand-in for the subset of `crossbeam` this workspace uses:
//! `channel::{unbounded, bounded, Sender, Receiver}` plus a `select!` macro
//! covering the `recv(..) -> x => ..` / `default(timeout)` shape, which
//! parks until a watched channel is sent to (or loses its last sender) or
//! the timeout passes.
//!
//! The channel is a straightforward MPMC queue built on a mutex and a pair
//! of condition variables. Both `Sender` and `Receiver` are cloneable and
//! `Sync`, matching crossbeam's types; disconnection follows crossbeam's
//! rule (a side is disconnected once all handles of the *other* side are
//! gone).

pub mod channel;
