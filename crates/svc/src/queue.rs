//! Bounded admission queue with explicit backpressure.
//!
//! The daemon never buffers unboundedly: a submit either takes a seat in
//! this queue or is rejected **at the door** with a machine-readable
//! reason ([`RejectReason`]) the client can act on (back off, retry
//! elsewhere, shed load). The scheduler pops from the other end —
//! [`AdmissionQueue::pop_batch`] also performs the compatible-job
//! coalescing under the same lock, so batch formation is atomic with
//! dequeueing and two scheduler wakeups can never split a batch.
//!
//! Lifecycle: `Open` → (`shutdown`) → `Draining` → (queue empties) →
//! pops return `None` and the scheduler exits. Draining rejects new
//! work but finishes everything already admitted — the graceful-drain
//! half of the daemon's shutdown contract.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a submit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue is at capacity — the backpressure signal.
    QueueFull,
    /// The daemon is draining toward shutdown.
    Draining,
}

impl RejectReason {
    /// Stable wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue-full",
            RejectReason::Draining => "draining",
        }
    }
}

struct Inner<T> {
    items: VecDeque<T>,
    draining: bool,
}

/// Bounded MPSC queue: many connection threads push, one scheduler pops.
pub struct AdmissionQueue<T> {
    cap: usize,
    inner: Mutex<Inner<T>>,
    ready: Condvar,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `cap` waiting jobs (`cap ≥ 1`).
    ///
    /// # Panics
    /// Panics if `cap` is zero — a zero-capacity queue would reject every
    /// job and deadlock the scheduler's blocking pop.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "admission queue needs capacity >= 1");
        AdmissionQueue {
            cap,
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                draining: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Capacity the queue was built with.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Jobs currently waiting.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// Admit a job or reject it with a reason. On admission `on_admit`
    /// runs with the queue depth *after* admission while the queue lock is
    /// still held — before the scheduler can pop the job — so a reply sent
    /// from it precedes every event the job produces (the accepted event
    /// reports the depth so tenants can self-pace). Returns that depth.
    pub fn try_push(&self, item: T, on_admit: impl FnOnce(usize)) -> Result<usize, RejectReason> {
        let mut g = self.inner.lock().unwrap();
        if g.draining {
            return Err(RejectReason::Draining);
        }
        if g.items.len() >= self.cap {
            return Err(RejectReason::QueueFull);
        }
        g.items.push_back(item);
        let depth = g.items.len();
        on_admit(depth);
        drop(g);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Block until a job is available, then pop it **plus** every queued
    /// job `compat` accepts (scanned in arrival order, preserving FIFO
    /// fairness for the rest). `compat` sees the batch accumulated so far
    /// and the candidate, so callers can enforce aggregate caps (total
    /// rhs columns, not just job count). Returns `None` once the queue is
    /// draining and empty — the scheduler's exit signal.
    ///
    /// The whole operation holds one lock acquisition: admission cannot
    /// interleave a compatible job between the head pop and the scan, and
    /// the returned batch is exactly what a client observing queue depths
    /// would predict.
    pub fn pop_batch(&self, compat: impl Fn(&[T], &T) -> bool) -> Option<Vec<T>> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if let Some(head) = g.items.pop_front() {
                let mut batch = vec![head];
                let mut i = 0;
                while i < g.items.len() {
                    if compat(&batch, &g.items[i]) {
                        let item = g.items.remove(i).expect("index in range");
                        batch.push(item);
                    } else {
                        i += 1;
                    }
                }
                return Some(batch);
            }
            if g.draining {
                return None;
            }
            g = self.ready.wait(g).unwrap();
        }
    }

    /// Stop admitting; wake the scheduler so it can finish the backlog
    /// and observe the drain.
    pub fn drain(&self) {
        self.inner.lock().unwrap().draining = true;
        self.ready.notify_all();
    }

    /// Remove and return every queued job without waiting (used by
    /// immediate shutdown to cancel the backlog explicitly).
    pub fn drain_now(&self) -> Vec<T> {
        let mut g = self.inner.lock().unwrap();
        g.draining = true;
        let out = g.items.drain(..).collect();
        drop(g);
        self.ready.notify_all();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn rejects_above_capacity_with_queue_full() {
        let q = AdmissionQueue::new(2);
        assert_eq!(q.try_push(1, |_| {}), Ok(1));
        assert_eq!(q.try_push(2, |_| {}), Ok(2));
        assert_eq!(q.try_push(3, |_| {}), Err(RejectReason::QueueFull));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn rejects_when_draining_and_pop_returns_none_after_backlog() {
        let q = AdmissionQueue::new(4);
        q.try_push(1, |_| {}).unwrap();
        q.drain();
        assert_eq!(q.try_push(2, |_| {}), Err(RejectReason::Draining));
        // the backlog is still served...
        assert_eq!(q.pop_batch(|_, _| false), Some(vec![1]));
        // ...then the drain is observable
        assert_eq!(q.pop_batch(|_, _| false), None);
    }

    #[test]
    fn pop_batch_coalesces_compatible_preserving_fifo_for_rest() {
        let q = AdmissionQueue::new(8);
        for v in [10, 21, 12, 23, 14] {
            q.try_push(v, |_| {}).unwrap();
        }
        // head 10; evens are compatible with it
        let batch = q.pop_batch(|b, c| b[0] % 2 == c % 2).unwrap();
        assert_eq!(batch, vec![10, 12, 14]);
        // odds kept their arrival order
        let rest = q.pop_batch(|_, _| false).unwrap();
        assert_eq!(rest, vec![21]);
    }

    #[test]
    fn pop_batch_honours_aggregate_caps_via_the_batch_view() {
        let q = AdmissionQueue::new(8);
        for v in 0..6 {
            q.try_push(v, |_| {}).unwrap();
        }
        let batch = q.pop_batch(|b, _| b.len() < 3).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn blocking_pop_wakes_on_push_across_threads() {
        let q = Arc::new(AdmissionQueue::new(2));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop_batch(|_, _| false));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.try_push(7usize, |_| {}).unwrap();
        assert_eq!(popper.join().unwrap(), Some(vec![7]));
    }

    #[test]
    fn admission_callback_completes_before_a_concurrent_pop_returns_the_job() {
        let q = Arc::new(AdmissionQueue::new(2));
        let (popped_tx, popped) = std::sync::mpsc::channel();
        let mut popper = None;
        let pushed = q.try_push(7usize, |depth| {
            assert_eq!(depth, 1);
            // a popper started mid-admission must not get the job while
            // the callback (the daemon's `accepted` reply) still runs
            let q2 = Arc::clone(&q);
            popper = Some(std::thread::spawn(move || {
                let _ = popped_tx.send(q2.pop_batch(|_, _| false));
            }));
            assert!(
                popped.recv_timeout(Duration::from_millis(50)).is_err(),
                "the job was popped before its admission callback returned"
            );
        });
        assert_eq!(pushed, Ok(1));
        assert_eq!(popped.recv().unwrap(), Some(vec![7]));
        popper.unwrap().join().unwrap();
    }

    #[test]
    fn drain_now_returns_backlog() {
        let q = AdmissionQueue::new(4);
        q.try_push(1, |_| {}).unwrap();
        q.try_push(2, |_| {}).unwrap();
        assert_eq!(q.drain_now(), vec![1, 2]);
        assert_eq!(q.pop_batch(|_, _| false), None);
    }
}
