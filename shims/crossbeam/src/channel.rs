//! MPMC channels with crossbeam-compatible signatures.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// `None` for unbounded channels.
    capacity: Option<usize>,
    /// Parked `select!`s watching this channel, fired by a send and by the
    /// last sender's drop.
    watchers: Vec<Arc<Signal>>,
}

impl<T> State<T> {
    fn wake_watchers(&self) {
        for signal in &self.watchers {
            signal.fire();
        }
    }
}

/// What a parked [`select!`](crate::select) waits on: fired by any of the
/// channels it watches. Not part of crossbeam's API; the macro's plumbing.
#[doc(hidden)]
#[derive(Default)]
pub struct Signal {
    fired: Mutex<bool>,
    cond: Condvar,
}

impl Signal {
    fn fire(&self) {
        *self.fired.lock().expect("signal lock") = true;
        self.cond.notify_one();
    }

    /// Wait until fired or until `deadline`.
    pub fn wait_until(&self, deadline: Instant) {
        let mut fired = self.fired.lock().expect("signal lock");
        while !*fired {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            fired = self
                .cond
                .wait_timeout(fired, deadline - now)
                .expect("signal lock")
                .0;
        }
    }
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled when a message is enqueued or the channel disconnects.
    readable: Condvar,
    /// Signalled when space frees up in a bounded channel.
    writable: Condvar,
}

impl<T> Shared<T> {
    fn new(capacity: Option<usize>) -> Arc<Self> {
        Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                capacity,
                watchers: Vec::new(),
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
        })
    }
}

/// Error returned by [`Sender::send`]; carries the unsent message.
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}

/// Error returned by [`Receiver::recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived before the timeout.
    Timeout,
    /// All senders disconnected and the queue is drained.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.write_str("receive timed out"),
            RecvTimeoutError::Disconnected => f.write_str("channel disconnected"),
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The queue is currently empty.
    Empty,
    /// All senders disconnected and the queue is drained.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => f.write_str("channel empty"),
            TryRecvError::Disconnected => f.write_str("channel disconnected"),
        }
    }
}

impl std::error::Error for TryRecvError {}

/// Sending half of a channel.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving half of a channel.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create an unbounded MPMC channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Shared::new(None);
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// Create a bounded MPMC channel. A capacity of zero is treated as a
/// capacity of one (this shim has no rendezvous mode; the workspace only
/// uses small positive capacities).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Shared::new(Some(capacity.max(1)));
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Send a message, blocking while a bounded channel is full. Fails only
    /// when every receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.state.lock().expect("channel lock");
        loop {
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            let full = state
                .capacity
                .is_some_and(|capacity| state.queue.len() >= capacity);
            if !full {
                state.queue.push_back(value);
                self.shared.readable.notify_one();
                state.wake_watchers();
                return Ok(());
            }
            state = self.shared.writable.wait(state).expect("channel lock");
        }
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.state.lock().expect("channel lock").queue.len()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Receiver<T> {
    /// Blocking receive.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.shared.state.lock().expect("channel lock");
        loop {
            if let Some(value) = state.queue.pop_front() {
                self.shared.writable.notify_one();
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self.shared.readable.wait(state).expect("channel lock");
        }
    }

    /// Blocking receive with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock().expect("channel lock");
        loop {
            if let Some(value) = state.queue.pop_front() {
                self.shared.writable.notify_one();
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (next, result) = self
                .shared
                .readable
                .wait_timeout(state, deadline - now)
                .expect("channel lock");
            state = next;
            if result.timed_out() && state.queue.is_empty() {
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                return Err(RecvTimeoutError::Timeout);
            }
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.shared.state.lock().expect("channel lock");
        if let Some(value) = state.queue.pop_front() {
            self.shared.writable.notify_one();
            return Ok(value);
        }
        if state.senders == 0 {
            return Err(TryRecvError::Disconnected);
        }
        Err(TryRecvError::Empty)
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.state.lock().expect("channel lock").queue.len()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Have a send (or the last sender's drop) fire `signal`; true when a
    /// receive would not block already. The `select!` plumbing.
    #[doc(hidden)]
    pub fn watch(&self, signal: &Arc<Signal>) -> bool {
        let mut state = self.shared.state.lock().expect("channel lock");
        state.watchers.push(Arc::clone(signal));
        !state.queue.is_empty() || state.senders == 0
    }

    /// Stop firing `signal`.
    #[doc(hidden)]
    pub fn unwatch(&self, signal: &Arc<Signal>) {
        let mut state = self.shared.state.lock().expect("channel lock");
        state
            .watchers
            .retain(|watcher| !Arc::ptr_eq(watcher, signal));
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().expect("channel lock").senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().expect("channel lock").receivers += 1;
        Receiver {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().expect("channel lock");
        state.senders -= 1;
        if state.senders == 0 {
            self.shared.readable.notify_all();
            state.wake_watchers();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().expect("channel lock");
        state.receivers -= 1;
        if state.receivers == 0 {
            self.shared.writable.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender").finish_non_exhaustive()
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Receiver").finish_non_exhaustive()
    }
}

/// The crossbeam `select!` shape used in this workspace: any number of
/// `recv(rx) -> binding => expr` arms followed by a `default(timeout) =>
/// expr` arm. Each ready check uses `try_recv`; when no arm is ready the
/// caller parks on a signal every watched channel fires — on a send, or
/// when its last sender drops — so it wakes on the first message, as the
/// real crate does, or at the timeout.
#[macro_export]
macro_rules! select {
    ( $( recv($rx:expr) -> $name:ident => $body:expr , )+ default($timeout:expr) => $default:expr $(,)? ) => {{
        let __deadline = ::std::time::Instant::now() + $timeout;
        let mut __done = false;
        while !__done {
            $(
                if !__done {
                    match ($rx).try_recv() {
                        ::std::result::Result::Ok(__value) => {
                            __done = true;
                            let $name: ::std::result::Result<_, $crate::channel::RecvError> =
                                ::std::result::Result::Ok(__value);
                            $body
                        }
                        ::std::result::Result::Err($crate::channel::TryRecvError::Disconnected) => {
                            __done = true;
                            let $name: ::std::result::Result<_, $crate::channel::RecvError> =
                                ::std::result::Result::Err($crate::channel::RecvError);
                            $body
                        }
                        ::std::result::Result::Err($crate::channel::TryRecvError::Empty) => {}
                    }
                }
            )+
            if !__done {
                if ::std::time::Instant::now() >= __deadline {
                    __done = true;
                    $default
                } else {
                    let __signal = ::std::sync::Arc::new($crate::channel::Signal::default());
                    // `watch` registers the signal and looks under the
                    // channel lock: a send before it is seen, one after it
                    // fires the signal.
                    let __ready = false $( | ($rx).watch(&__signal) )+;
                    if !__ready {
                        __signal.wait_until(__deadline);
                    }
                    $( ($rx).unwatch(&__signal); )+
                }
            }
        }
    }};
}

// Re-export so both `crossbeam::select!` and `crossbeam::channel::select!`
// resolve, as they do in the real crate.
pub use crate::select;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        let got: Vec<i32> = (0..10).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn recv_timeout_and_disconnect() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_after_all_receivers_drop() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn bounded_blocks_until_space() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let sender = tx.clone();
        let handle = std::thread::spawn(move || sender.send(2).unwrap());
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv().unwrap(), 1);
        handle.join().unwrap();
        assert_eq!(rx.recv().unwrap(), 2);
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = unbounded();
        let handle = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut sum = 0;
        for _ in 0..100 {
            sum += rx.recv().unwrap();
        }
        handle.join().unwrap();
        assert_eq!(sum, 4950);
    }

    /// A `select!` that parks with a long default, on two channels, and the
    /// arm `feed` makes ready from another thread after a while: what it
    /// returned, and how long it took.
    fn parked_select(
        feed: impl FnOnce(Sender<u8>, Sender<u8>) + Send + 'static,
    ) -> (Option<Result<u8, RecvError>>, Duration) {
        let (tx_a, rx_a) = unbounded::<u8>();
        let (tx_b, rx_b) = unbounded::<u8>();
        let feeder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            feed(tx_a, tx_b);
        });
        let started = Instant::now();
        let mut got = None;
        crate::select! {
            recv(rx_a) -> msg => got = Some(msg),
            recv(rx_b) -> msg => got = Some(msg),
            default(Duration::from_secs(10)) => {}
        }
        let waited = started.elapsed();
        feeder.join().unwrap();
        (got, waited)
    }

    #[test]
    fn a_parked_select_wakes_on_a_send_from_another_thread() {
        let (got, waited) = parked_select(|tx_a, tx_b| {
            tx_b.send(5).unwrap();
            // Keep the other channel connected until the select has woken.
            std::thread::sleep(Duration::from_millis(50));
            drop(tx_a);
        });
        assert_eq!(got, Some(Ok(5)));
        assert!(waited < Duration::from_secs(5), "woke after {waited:?}");
    }

    #[test]
    fn a_parked_select_wakes_when_every_sender_drops() {
        let (got, waited) = parked_select(|tx_a, tx_b| {
            let spare = tx_a.clone();
            drop(tx_a);
            drop(spare);
            // Keep the other channel's sender until the select has woken.
            std::thread::sleep(Duration::from_millis(50));
            drop(tx_b);
        });
        assert_eq!(got, Some(Err(RecvError)));
        assert!(waited < Duration::from_secs(5), "woke after {waited:?}");
    }

    #[test]
    fn select_macro_prefers_ready_arm_and_times_out() {
        let (tx, rx_a) = unbounded::<u8>();
        let (_tx_b, rx_b) = unbounded::<u8>();
        tx.send(7).unwrap();
        let mut seen = None;
        let mut timed_out = false;
        crate::select! {
            recv(rx_a) -> msg => seen = msg.ok(),
            recv(rx_b) -> msg => seen = msg.ok(),
            default(Duration::from_millis(5)) => timed_out = true,
        }
        assert_eq!(seen, Some(7));
        assert!(!timed_out);
        let mut second: Option<u8> = None;
        crate::select! {
            recv(rx_a) -> msg => second = msg.ok(),
            recv(rx_b) -> msg => second = msg.ok(),
            default(Duration::from_millis(5)) => timed_out = true,
        }
        assert!(timed_out);
        assert_eq!(second, None);
    }
}
