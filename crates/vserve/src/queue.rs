//! A small bounded MPMC queue: `Mutex<VecDeque>` + two condvars.
//!
//! This is the backpressure primitive of the whole server — the request
//! queue and every per-client outbox are instances. `push` blocks while
//! the queue is at capacity, so a slow consumer throttles its producers
//! instead of letting memory grow; `close` lets consumers drain what is
//! already queued and then observe end-of-stream.
//!
//! A consumer that polls many queues from one thread (the wire pump)
//! cannot block on any one condvar, so a queue can also carry a waker:
//! the thread it unparks on close and, per its [`Wake`] policy, after
//! every push or only when the producer rings.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::Thread;
use std::time::Duration;

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Largest queue depth ever observed (ServeStats.queue_depth_max).
    high_water: usize,
}

/// A bounded blocking queue.
pub struct Bounded<T> {
    cap: usize,
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    /// The polling consumer to unpark, and when.
    waker: OnceLock<(Thread, Wake)>,
}

/// When a [`Bounded`] queue unparks its waker. Close always does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wake {
    /// After every successful push: for producers that push now and then
    /// (a client's bytes, a new connection).
    OnPush,
    /// Only when the producer rings ([`Bounded::ring`]): for a producer
    /// whose consumer collects on its own schedule (the engine's
    /// replies, which the wire pump picks up on its sweeps), and which
    /// rings only when that collection is overdue.
    OnRing,
}

/// Outcome of a non-blocking push.
#[derive(Debug)]
pub enum TryPush<T> {
    /// The queue is at capacity; the item comes back.
    Full(T),
    /// The queue is closed; the item comes back.
    Closed(T),
}

impl<T> Bounded<T> {
    /// A queue holding at most `cap` items (`cap` ≥ 1).
    pub fn new(cap: usize) -> Bounded<T> {
        assert!(cap >= 1, "a zero-capacity queue cannot transfer anything");
        Bounded {
            cap,
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
                high_water: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            waker: OnceLock::new(),
        }
    }

    /// Unpark `thread` on close and as `wake` says, so a consumer
    /// polling many queues can park instead of sleeping. The first waker
    /// installed stays.
    pub(crate) fn set_waker(&self, thread: Thread, wake: Wake) {
        let _ = self.waker.set((thread, wake));
    }

    /// Unpark the waker, whatever its policy: the producer's signal that
    /// its consumer is overdue. A no-op without a waker.
    pub(crate) fn ring(&self) {
        if let Some((t, _)) = self.waker.get() {
            t.unpark();
        }
    }

    /// Whether a waker is installed.
    pub(crate) fn has_waker(&self) -> bool {
        self.waker.get().is_some()
    }

    /// Queue `item` under the held lock `g` (the caller checked for
    /// room), then wake a consumer.
    fn push_locked(&self, mut g: MutexGuard<'_, Inner<T>>, item: T) {
        g.items.push_back(item);
        g.high_water = g.high_water.max(g.items.len());
        self.not_empty.notify_one();
        drop(g);
        if let Some((t, Wake::OnPush)) = self.waker.get() {
            t.unpark();
        }
    }

    /// Wait up to `timeout` for an item or the close, whichever comes
    /// first; returns early on either (or spuriously).
    pub(crate) fn wait_ready(&self, timeout: Duration) {
        let g = self.inner.lock().unwrap();
        if g.items.is_empty() && !g.closed {
            drop(self.not_empty.wait_timeout(g, timeout).unwrap());
        }
    }

    /// Blocking push; waits while full. `Err(item)` once closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if g.closed {
                return Err(item);
            }
            if g.items.len() < self.cap {
                self.push_locked(g, item);
                return Ok(());
            }
            g = self.not_full.wait(g).unwrap();
        }
    }

    /// Push with a bounded wait: like [`Bounded::push`], but gives up
    /// with `Full` after `timeout` instead of waiting forever. Lets a
    /// producer that must not deadlock (the engine replying to a client
    /// that may never drain again) periodically recheck the world.
    pub fn push_timeout(&self, item: T, timeout: std::time::Duration) -> Result<(), TryPush<T>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut g = self.inner.lock().unwrap();
        loop {
            if g.closed {
                return Err(TryPush::Closed(item));
            }
            if g.items.len() < self.cap {
                self.push_locked(g, item);
                return Ok(());
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(TryPush::Full(item));
            }
            let (guard, _timed_out) = self.not_full.wait_timeout(g, deadline - now).unwrap();
            g = guard;
        }
    }

    /// Non-blocking push.
    pub fn try_push(&self, item: T) -> Result<(), TryPush<T>> {
        let g = self.inner.lock().unwrap();
        if g.closed {
            return Err(TryPush::Closed(item));
        }
        if g.items.len() >= self.cap {
            return Err(TryPush::Full(item));
        }
        self.push_locked(g, item);
        Ok(())
    }

    /// Non-blocking push of an item built only once there is room, so a
    /// full or closed queue costs the producer nothing.
    pub(crate) fn try_push_with(&self, make: impl FnOnce() -> T) -> Result<(), TryPush<()>> {
        let g = self.inner.lock().unwrap();
        if g.closed {
            return Err(TryPush::Closed(()));
        }
        if g.items.len() >= self.cap {
            return Err(TryPush::Full(()));
        }
        self.push_locked(g, make());
        Ok(())
    }

    /// Blocking pop; waits while empty. `None` once closed *and* drained —
    /// close is graceful: items queued before the close still come out.
    pub fn pop(&self) -> Option<T> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if let Some(item) = g.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self.not_empty.wait(g).unwrap();
        }
    }

    /// Pop, waiting at most `timeout` for an item: `None` if none came,
    /// `Some(None)` once the queue is closed and drained.
    pub(crate) fn pop_timeout(&self, timeout: Duration) -> Option<Option<T>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut g = self.inner.lock().unwrap();
        loop {
            if let Some(item) = g.items.pop_front() {
                self.not_full.notify_one();
                return Some(Some(item));
            }
            if g.closed {
                return Some(None);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            g = self.not_empty.wait_timeout(g, deadline - now).unwrap().0;
        }
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<T> {
        let mut g = self.inner.lock().unwrap();
        let item = g.items.pop_front();
        if item.is_some() {
            self.not_full.notify_one();
        }
        item
    }

    /// Close the queue: producers fail fast, consumers drain then stop.
    pub fn close(&self) {
        let mut g = self.inner.lock().unwrap();
        g.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
        drop(g);
        self.ring();
    }

    /// Whether the queue has been closed.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest depth ever reached.
    pub fn high_water(&self) -> usize {
        self.inner.lock().unwrap().high_water
    }

    /// The fixed capacity this queue was built with.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_and_high_water() {
        let q = Bounded::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.push(3).unwrap();
        assert_eq!(q.high_water(), 3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        q.push(4).unwrap();
        assert_eq!(q.high_water(), 3, "high water is a max, not a level");
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn try_push_reports_full_then_closed() {
        let q = Bounded::new(1);
        q.push(1).unwrap();
        assert!(matches!(q.try_push(2), Err(TryPush::Full(2))));
        q.close();
        assert!(matches!(q.try_push(2), Err(TryPush::Closed(2))));
        assert_eq!(q.push(3), Err(3));
    }

    #[test]
    fn push_timeout_gives_up_on_a_stuck_queue() {
        let q = Bounded::new(1);
        q.push(1u32).unwrap();
        let t0 = std::time::Instant::now();
        assert!(matches!(
            q.push_timeout(2, std::time::Duration::from_millis(20)),
            Err(TryPush::Full(2))
        ));
        assert!(t0.elapsed() >= std::time::Duration::from_millis(20));
        q.close();
        assert!(matches!(
            q.push_timeout(3, std::time::Duration::from_millis(20)),
            Err(TryPush::Closed(3))
        ));
    }

    #[test]
    fn close_drains_gracefully() {
        let q = Bounded::new(8);
        q.push("a").unwrap();
        q.push("b").unwrap();
        q.close();
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None, "closed and drained");
    }

    #[test]
    fn blocked_push_resumes_when_space_frees() {
        let q = Arc::new(Bounded::new(1));
        q.push(0u32).unwrap();
        let q2 = q.clone();
        let producer = std::thread::spawn(move || q2.push(1).is_ok());
        // The producer is (soon) blocked on a full queue; popping unblocks it.
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn a_waker_is_unparked_by_every_push_and_by_close() {
        let q: Arc<Bounded<u32>> = Arc::new(Bounded::new(4));
        q.set_waker(std::thread::current(), Wake::OnPush);
        for push in [
            |q: &Bounded<u32>| q.push(1).unwrap(),
            |q: &Bounded<u32>| q.try_push(2).unwrap(),
            |q: &Bounded<u32>| q.push_timeout(3, std::time::Duration::ZERO).unwrap(),
            |q: &Bounded<u32>| q.close(),
        ] {
            let q2 = q.clone();
            let producer = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                push(&q2);
            });
            let t0 = std::time::Instant::now();
            // Parked until the producer's unpark: without it each park
            // would sit out its 10 s (one may also return spuriously, so
            // wait for the effect).
            while q.is_empty() && !q.is_closed() {
                std::thread::park_timeout(std::time::Duration::from_secs(10));
            }
            assert!(t0.elapsed() < std::time::Duration::from_secs(5));
            producer.join().unwrap();
            while q.try_pop().is_some() {}
        }
    }

    #[test]
    fn a_ring_waker_is_unparked_by_the_ring_and_by_close() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let q: Arc<Bounded<u32>> = Arc::new(Bounded::new(4));
        q.set_waker(std::thread::current(), Wake::OnRing);
        let rung = Arc::new(AtomicBool::new(false));
        let (q2, rung2) = (q.clone(), rung.clone());
        let producer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            q2.push(1).unwrap();
            q2.try_push(2).unwrap();
            rung2.store(true, Ordering::SeqCst);
            q2.ring();
            std::thread::sleep(std::time::Duration::from_millis(20));
            q2.close();
        });
        let t0 = std::time::Instant::now();
        // Each wait ends at the ring, then at the close; without them a
        // park would sit out its 10 s.
        while !rung.load(Ordering::SeqCst) {
            std::thread::park_timeout(std::time::Duration::from_secs(10));
        }
        while !q.is_closed() {
            std::thread::park_timeout(std::time::Duration::from_secs(10));
        }
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
        producer.join().unwrap();
        assert_eq!((q.try_pop(), q.try_pop()), (Some(1), Some(2)));
    }

    #[test]
    fn pop_timeout_returns_an_item_a_timeout_or_the_end() {
        let q: Arc<Bounded<u32>> = Arc::new(Bounded::new(2));
        let t0 = std::time::Instant::now();
        assert_eq!(q.pop_timeout(std::time::Duration::from_millis(10)), None);
        assert!(t0.elapsed() >= std::time::Duration::from_millis(10));
        let q2 = q.clone();
        let producer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            q2.push(7).unwrap();
        });
        assert_eq!(
            q.pop_timeout(std::time::Duration::from_secs(10)),
            Some(Some(7))
        );
        producer.join().unwrap();
        q.push(8).unwrap();
        q.close();
        let wait = std::time::Duration::from_secs(10);
        assert_eq!(q.pop_timeout(wait), Some(Some(8)), "drains after close");
        assert_eq!(q.pop_timeout(wait), Some(None));
    }

    #[test]
    fn wait_ready_returns_on_an_item_or_the_close() {
        let q: Arc<Bounded<u32>> = Arc::new(Bounded::new(1));
        let t0 = std::time::Instant::now();
        q.wait_ready(std::time::Duration::from_millis(10));
        assert!(
            t0.elapsed() >= std::time::Duration::from_millis(10),
            "times out when idle"
        );
        let q2 = q.clone();
        let producer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            q2.push(7).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(20));
            q2.close();
        });
        let t0 = std::time::Instant::now();
        while q.is_empty() {
            q.wait_ready(std::time::Duration::from_secs(10));
        }
        assert_eq!(q.try_pop(), Some(7));
        while !q.is_closed() {
            q.wait_ready(std::time::Duration::from_secs(10));
        }
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
        producer.join().unwrap();
    }

    #[test]
    fn blocked_pop_wakes_on_close() {
        let q: Arc<Bounded<u32>> = Arc::new(Bounded::new(1));
        let q2 = q.clone();
        let consumer = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }
}
