//! Offline stand-in for `crossbeam-channel`.
//!
//! Implements the subset of the crossbeam API this workspace uses: bounded
//! and unbounded MPMC channels with blocking `send`/`recv`, `recv_timeout`,
//! and a waker-based `Select` over multiple receivers. Built on
//! `std::sync::{Mutex, Condvar}`; senders block when a bounded channel is
//! full (back-pressure), receivers block when it is empty.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Error returned by [`Sender::send`] when every receiver is gone; carries the
/// unsent value back to the caller.
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

/// Error returned by [`Sender::send_timeout`]; carries the unsent value back to
/// the caller.
pub enum SendTimeoutError<T> {
    /// The timeout elapsed while the channel stayed full.
    Timeout(T),
    /// Every receiver is gone.
    Disconnected(T),
}

impl<T> fmt::Debug for SendTimeoutError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendTimeoutError::Timeout(_) => f.write_str("SendTimeoutError::Timeout(..)"),
            SendTimeoutError::Disconnected(_) => f.write_str("SendTimeoutError::Disconnected(..)"),
        }
    }
}

impl<T> fmt::Display for SendTimeoutError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendTimeoutError::Timeout(_) => f.write_str("timed out sending on a full channel"),
            SendTimeoutError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
        }
    }
}

/// Error returned by [`Receiver::recv`] when the channel is empty and every
/// sender is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty, disconnected channel")
    }
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The timeout elapsed before an element arrived.
    Timeout,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

/// Waker a [`Select`] registers with every channel it watches.
#[derive(Debug, Default)]
struct SelectWaker {
    ready: Mutex<bool>,
    cond: Condvar,
}

impl SelectWaker {
    fn wake(&self) {
        *self.ready.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cond.notify_all();
    }

    fn wait(&self) {
        let mut ready = self.ready.lock().unwrap_or_else(|e| e.into_inner());
        while !*ready {
            ready = self.cond.wait(ready).unwrap_or_else(|e| e.into_inner());
        }
        *ready = false;
    }
}

struct Core<T> {
    queue: VecDeque<T>,
    capacity: usize,
    senders: usize,
    receivers: usize,
    /// Select wakers to notify when an element arrives or senders disconnect.
    wakers: Vec<Arc<SelectWaker>>,
    /// Receivers currently blocked in `recv`, used to skip needless notifies.
    waiting_receivers: usize,
    /// Senders currently blocked on a full channel.
    waiting_senders: usize,
}

struct Shared<T> {
    core: Mutex<Core<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Shared<T> {
    fn notify_arrival(&self, core: &mut Core<T>) {
        if core.waiting_receivers > 0 {
            self.not_empty.notify_one();
        }
        for waker in &core.wakers {
            waker.wake();
        }
    }
}

/// The sending half of a channel.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of a channel.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

/// Creates a bounded channel with the given capacity (minimum 1).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    channel(capacity.max(1))
}

/// Creates an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel(usize::MAX)
}

fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        core: Mutex::new(Core {
            queue: VecDeque::new(),
            capacity,
            senders: 1,
            receivers: 1,
            wakers: Vec::new(),
            waiting_receivers: 0,
            waiting_senders: 0,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        let mut core = self.shared.core.lock().unwrap_or_else(|e| e.into_inner());
        core.senders += 1;
        drop(core);
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut core = self.shared.core.lock().unwrap_or_else(|e| e.into_inner());
        core.senders -= 1;
        if core.senders == 0 {
            // Receivers must observe the disconnect.
            self.shared.not_empty.notify_all();
            for waker in &core.wakers {
                waker.wake();
            }
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut core = self.shared.core.lock().unwrap_or_else(|e| e.into_inner());
        core.receivers -= 1;
        if core.receivers == 0 {
            // Blocked senders must observe the disconnect.
            self.shared.not_full.notify_all();
        }
    }
}

impl<T> Sender<T> {
    /// Sends `value`, blocking while the channel is full.
    ///
    /// # Errors
    /// Returns [`SendError`] carrying the value back if every receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut core = self.shared.core.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if core.receivers == 0 {
                return Err(SendError(value));
            }
            if core.queue.len() < core.capacity {
                core.queue.push_back(value);
                self.shared.notify_arrival(&mut core);
                return Ok(());
            }
            core.waiting_senders += 1;
            core = self
                .shared
                .not_full
                .wait(core)
                .unwrap_or_else(|e| e.into_inner());
            core.waiting_senders -= 1;
        }
    }

    /// Sends `value`, waiting at most `timeout` while the channel is full.
    ///
    /// # Errors
    /// [`SendTimeoutError::Timeout`] if the channel stayed full for the whole
    /// timeout, [`SendTimeoutError::Disconnected`] if every receiver is gone;
    /// both carry the value back.
    pub fn send_timeout(&self, value: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut core = self.shared.core.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if core.receivers == 0 {
                return Err(SendTimeoutError::Disconnected(value));
            }
            if core.queue.len() < core.capacity {
                core.queue.push_back(value);
                self.shared.notify_arrival(&mut core);
                return Ok(());
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(SendTimeoutError::Timeout(value));
            }
            core.waiting_senders += 1;
            let (guard, _result) = self
                .shared
                .not_full
                .wait_timeout(core, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            core = guard;
            core.waiting_senders -= 1;
        }
    }
}

impl<T> Receiver<T> {
    /// Receives the next element, blocking until one is available.
    ///
    /// # Errors
    /// Returns [`RecvError`] if the channel is empty and every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut core = self.shared.core.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(value) = core.queue.pop_front() {
                if core.waiting_senders > 0 {
                    self.shared.not_full.notify_one();
                }
                return Ok(value);
            }
            if core.senders == 0 {
                return Err(RecvError);
            }
            core.waiting_receivers += 1;
            core = self
                .shared
                .not_empty
                .wait(core)
                .unwrap_or_else(|e| e.into_inner());
            core.waiting_receivers -= 1;
        }
    }

    /// Receives the next element, waiting at most `timeout`.
    ///
    /// # Errors
    /// [`RecvTimeoutError::Timeout`] if nothing arrived in time,
    /// [`RecvTimeoutError::Disconnected`] if every sender is gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut core = self.shared.core.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(value) = core.queue.pop_front() {
                if core.waiting_senders > 0 {
                    self.shared.not_full.notify_one();
                }
                return Ok(value);
            }
            if core.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            core.waiting_receivers += 1;
            let (guard, _result) = self
                .shared
                .not_empty
                .wait_timeout(core, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            core = guard;
            core.waiting_receivers -= 1;
        }
    }

    /// Attempts to receive without blocking.
    ///
    /// # Errors
    /// [`TryRecvError::Empty`] if nothing is buffered,
    /// [`TryRecvError::Disconnected`] if additionally every sender is gone.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut core = self.shared.core.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(value) = core.queue.pop_front() {
            if core.waiting_senders > 0 {
                self.shared.not_full.notify_one();
            }
            return Ok(value);
        }
        if core.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Number of elements currently buffered.
    pub fn len(&self) -> usize {
        self.shared
            .core
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .len()
    }

    /// True if no element is currently buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn register(&self, waker: &Arc<SelectWaker>) {
        let mut core = self.shared.core.lock().unwrap_or_else(|e| e.into_inner());
        core.wakers.push(Arc::clone(waker));
    }

    fn unregister(&self, waker: &Arc<SelectWaker>) {
        let mut core = self.shared.core.lock().unwrap_or_else(|e| e.into_inner());
        core.wakers.retain(|w| !Arc::ptr_eq(w, waker));
    }

    /// A receive operation is ready when an element is buffered or the channel
    /// is disconnected (so the operation completes immediately either way).
    fn is_ready(&self) -> bool {
        let core = self.shared.core.lock().unwrap_or_else(|e| e.into_inner());
        !core.queue.is_empty() || core.senders == 0
    }
}

/// Object-safe view of a receiver used by [`Select`].
trait SelectTarget {
    fn target_is_ready(&self) -> bool;
    fn target_register(&self, waker: &Arc<SelectWaker>);
    fn target_unregister(&self, waker: &Arc<SelectWaker>);
}

impl<T> SelectTarget for Receiver<T> {
    fn target_is_ready(&self) -> bool {
        self.is_ready()
    }
    fn target_register(&self, waker: &Arc<SelectWaker>) {
        self.register(waker)
    }
    fn target_unregister(&self, waker: &Arc<SelectWaker>) {
        self.unregister(waker)
    }
}

/// Waits for one of several receive operations to become ready.
///
/// ```ignore
/// let mut select = Select::new();
/// let a_idx = select.recv(&a);
/// let _b_idx = select.recv(&b);
/// let op = select.select();
/// if op.index() == a_idx { let value = op.recv(&a); }
/// ```
#[derive(Default)]
pub struct Select<'a> {
    targets: Vec<&'a dyn SelectTarget>,
}

impl<'a> Select<'a> {
    /// Creates an empty selector.
    pub fn new() -> Self {
        Select {
            targets: Vec::new(),
        }
    }

    /// Registers a receive operation, returning its index.
    pub fn recv<T>(&mut self, receiver: &'a Receiver<T>) -> usize {
        self.targets.push(receiver);
        self.targets.len() - 1
    }

    fn poll(&self) -> Option<usize> {
        self.targets
            .iter()
            .position(|target| target.target_is_ready())
    }

    /// Blocks until one registered operation is ready and returns it.
    ///
    /// # Panics
    /// Panics if no operation was registered.
    pub fn select(&mut self) -> SelectedOperation {
        assert!(
            !self.targets.is_empty(),
            "select() requires at least one registered operation"
        );
        if let Some(index) = self.poll() {
            return SelectedOperation { index };
        }
        let waker = Arc::new(SelectWaker::default());
        for target in &self.targets {
            target.target_register(&waker);
        }
        let index = loop {
            // Re-poll after registration so an arrival between the first poll
            // and registration is not lost.
            if let Some(index) = self.poll() {
                break index;
            }
            waker.wait();
        };
        for target in &self.targets {
            target.target_unregister(&waker);
        }
        SelectedOperation { index }
    }
}

/// A ready operation returned by [`Select::select`].
#[derive(Debug)]
pub struct SelectedOperation {
    index: usize,
}

impl SelectedOperation {
    /// Index of the ready operation (in registration order).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Completes the operation on the receiver it was registered with.
    ///
    /// # Errors
    /// Returns [`RecvError`] if the channel is disconnected and drained.
    pub fn recv<T>(self, receiver: &Receiver<T>) -> Result<T, RecvError> {
        // This workspace attaches exactly one consumer per receiver, so after a
        // readiness signal the blocking recv returns immediately (either an
        // element or the disconnect error).
        receiver.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn bounded_send_recv_round_trip() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_blocks_when_full_until_a_recv() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let tx2 = tx.clone();
        let handle = thread::spawn(move || tx2.send(2));
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        handle.join().unwrap().unwrap();
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn send_to_dropped_receiver_errors() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert!(tx.send(7).is_err());
    }

    #[test]
    fn recv_timeout_reports_timeout_and_disconnect() {
        let (tx, rx) = bounded::<i32>(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn select_returns_the_ready_receiver() {
        let (tx1, rx1) = bounded::<i32>(4);
        let (_tx2, rx2) = bounded::<i32>(4);
        tx1.send(42).unwrap();
        let mut select = Select::new();
        let idx1 = select.recv(&rx1);
        let _idx2 = select.recv(&rx2);
        let op = select.select();
        assert_eq!(op.index(), idx1);
        assert_eq!(op.recv(&rx1), Ok(42));
    }

    #[test]
    fn select_wakes_on_late_arrival() {
        let (tx1, rx1) = bounded::<i32>(4);
        let (_tx2, rx2) = bounded::<i32>(4);
        let handle = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            tx1.send(9).unwrap();
        });
        let mut select = Select::new();
        let idx1 = select.recv(&rx1);
        let _idx2 = select.recv(&rx2);
        let op = select.select();
        assert_eq!(op.index(), idx1);
        assert_eq!(op.recv(&rx1), Ok(9));
        handle.join().unwrap();
    }

    #[test]
    fn select_observes_disconnect() {
        let (tx, rx) = bounded::<i32>(1);
        let handle = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            drop(tx);
        });
        let mut select = Select::new();
        select.recv(&rx);
        let op = select.select();
        assert_eq!(op.recv(&rx), Err(RecvError));
        handle.join().unwrap();
    }

    /// Where, inside one `Select::select` call, the racing sender fires.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Window {
        /// After the first poll saw nothing, before the waker is registered.
        BeforeRegister,
        /// After the waker is registered, before the re-poll.
        AfterRegister,
        /// After the re-poll saw nothing, before the selector parks.
        AfterRepoll,
    }

    /// A watched receiver whose select hooks hand control to another thread at
    /// a chosen point of the select protocol and wait until its send (or
    /// disconnect) has completed — the interleavings a lost wake-up hides in.
    struct Racing<'a> {
        rx: &'a Receiver<u32>,
        window: Window,
        polls: std::cell::Cell<usize>,
        fire: &'a dyn Fn(),
    }

    impl SelectTarget for Racing<'_> {
        fn target_is_ready(&self) -> bool {
            let ready = self.rx.is_ready();
            self.polls.set(self.polls.get() + 1);
            // Poll 2 is the re-poll after registration: fire once it has looked,
            // so only the waker can report the arrival.
            if self.window == Window::AfterRepoll && self.polls.get() == 2 {
                (self.fire)();
            }
            ready
        }
        fn target_register(&self, waker: &Arc<SelectWaker>) {
            if self.window == Window::BeforeRegister {
                (self.fire)();
            }
            self.rx.register(waker);
            if self.window == Window::AfterRegister {
                (self.fire)();
            }
        }
        fn target_unregister(&self, waker: &Arc<SelectWaker>) {
            self.rx.unregister(waker);
        }
    }

    /// Stress: for every window of the poll → register → re-poll → park
    /// sequence, 1000 rounds in which another thread sends (or drops the last
    /// sender) exactly there. Each round must complete within its deadline;
    /// a lost wake-up fails the test instead of hanging it.
    #[test]
    fn select_never_loses_a_wake_up_in_the_register_window() {
        const ROUNDS: u32 = 1000;
        const WINDOWS: [Window; 3] = [
            Window::BeforeRegister,
            Window::AfterRegister,
            Window::AfterRepoll,
        ];
        // The racing thread: sends the value (if any), then drops the sender,
        // which was the channel's last one.
        let (fire_tx, fire_rx) = std::sync::mpsc::channel::<(Sender<u32>, Option<u32>)>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let racer = thread::spawn(move || {
            for (tx, value) in fire_rx {
                if let Some(value) = value {
                    tx.send(value).unwrap();
                }
                drop(tx);
                done_tx.send(()).unwrap();
            }
        });
        let (result_tx, result_rx) = std::sync::mpsc::channel();
        let selector = thread::spawn(move || {
            for window in WINDOWS {
                for round in 0..ROUNDS {
                    let (tx, rx) = bounded::<u32>(1);
                    let (_idle_tx, idle) = bounded::<u32>(1);
                    // Even rounds deliver a value, odd rounds only disconnect.
                    let value = (round % 2 == 0).then_some(round);
                    let armed = std::cell::Cell::new(Some(tx));
                    let fire = || {
                        let tx = armed.take().expect("fires once per round");
                        fire_tx.send((tx, value)).unwrap();
                        done_rx.recv().unwrap();
                    };
                    let racing = Racing {
                        rx: &rx,
                        window,
                        polls: std::cell::Cell::new(0),
                        fire: &fire,
                    };
                    let mut select = Select::new();
                    select.recv(&idle);
                    select.targets.push(&racing);
                    let op = select.select();
                    let index = op.index();
                    result_tx.send((index, op.recv(&rx), value)).unwrap();
                }
            }
        });
        for window in WINDOWS {
            for round in 0..ROUNDS {
                let (index, received, value) = result_rx
                    .recv_timeout(Duration::from_secs(5))
                    .unwrap_or_else(|_| panic!("lost wake-up: {window:?}, round {round}"));
                assert_eq!(index, 1, "{window:?}, round {round}");
                assert_eq!(
                    received,
                    value.ok_or(RecvError),
                    "{window:?}, round {round}"
                );
            }
        }
        selector.join().unwrap();
        racer.join().unwrap();
    }

    #[test]
    fn unbounded_never_blocks_sender() {
        let (tx, rx) = unbounded();
        for i in 0..10_000 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.len(), 10_000);
        assert_eq!(rx.recv(), Ok(0));
    }
}
