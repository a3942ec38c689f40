//! A bounded worker thread-pool: fixed worker count, bounded job queue,
//! non-blocking submission, graceful shutdown.
//!
//! This is the seam where an async runtime plugs in later: the acceptor
//! hands connections to [`WorkerPool::try_submit`] and sheds load when the
//! queue is full, exactly the contract an executor would satisfy.

use std::io;
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use cc_telemetry::Gauge;

/// Why a job was not accepted.
#[derive(Debug)]
pub enum SubmitError<T> {
    /// The queue is at capacity; the job is handed back for load-shedding.
    Full(T),
    /// The pool has shut down.
    Closed(T),
}

/// A fixed-size pool of worker threads draining a bounded job queue.
pub struct WorkerPool<T> {
    tx: Option<SyncSender<T>>,
    workers: Vec<JoinHandle<()>>,
    depth: Gauge,
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Spawns `workers` threads that run `handler` on every submitted job.
    /// At most `backlog` jobs wait in the queue; submission never blocks.
    /// `depth` tracks the queued (accepted but not yet dequeued) jobs:
    /// incremented on a successful [`try_submit`](Self::try_submit),
    /// decremented when a worker picks the job up.
    ///
    /// # Errors
    ///
    /// The error of the first spawn that fails; the workers already running
    /// are shut down and joined first.
    pub fn with_queue_gauge<F>(
        name: &str,
        workers: usize,
        backlog: usize,
        depth: Gauge,
        handler: F,
    ) -> io::Result<WorkerPool<T>>
    where
        F: Fn(T) + Send + Sync + 'static,
    {
        let (tx, rx): (SyncSender<T>, Receiver<T>) = mpsc::sync_channel(backlog.max(1));
        // std's Receiver is single-consumer; a mutex turns it into a shared
        // work queue (held only for the duration of one `recv`).
        let rx = Arc::new(Mutex::new(rx));
        let handler = Arc::new(handler);
        // Dropping a partly built pool (the `?` below) closes the queue and
        // joins the workers spawned so far.
        let mut pool = WorkerPool { tx: Some(tx), workers: Vec::new(), depth };
        for i in 0..workers.max(1) {
            let (rx, handler, depth) = (Arc::clone(&rx), Arc::clone(&handler), pool.depth.clone());
            let worker =
                std::thread::Builder::new().name(format!("{name}-{i}")).spawn(move || loop {
                    // Take the lock only to dequeue, then release it before
                    // running the (possibly long) handler.
                    let job = match rx.lock() {
                        Ok(guard) => guard.recv(),
                        Err(_) => break,
                    };
                    match job {
                        Ok(job) => {
                            depth.dec();
                            handler(job);
                        }
                        Err(_) => break, // all senders dropped: shutdown
                    }
                })?;
            pool.workers.push(worker);
        }
        Ok(pool)
    }

    /// Enqueues `job` without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the queue is at capacity (the caller
    /// sheds the load) and [`SubmitError::Closed`] after shutdown; both
    /// return the job.
    pub fn try_submit(&self, job: T) -> Result<(), SubmitError<T>> {
        match &self.tx {
            None => Err(SubmitError::Closed(job)),
            Some(tx) => {
                // Count the job before handing it over: a worker may
                // dequeue (and decrement) the instant `try_send` returns,
                // and incrementing afterwards would let the gauge read -1.
                self.depth.inc();
                match tx.try_send(job) {
                    Ok(()) => Ok(()),
                    Err(e) => {
                        self.depth.dec();
                        match e {
                            TrySendError::Full(job) => Err(SubmitError::Full(job)),
                            TrySendError::Disconnected(job) => Err(SubmitError::Closed(job)),
                        }
                    }
                }
            }
        }
    }
}

impl<T> WorkerPool<T> {
    /// Stops accepting jobs, drains the queue, and joins every worker.
    pub fn shutdown(&mut self) {
        self.tx = None; // closes the channel; workers exit after the drain
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<T> Drop for WorkerPool<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn depth() -> Gauge {
        cc_telemetry::Registry::new().gauge("pool_queue_depth", &[])
    }

    #[test]
    fn every_submitted_job_runs_and_shutdown_joins() {
        let done = Arc::new(AtomicU64::new(0));
        let mut pool = {
            let done = Arc::clone(&done);
            WorkerPool::with_queue_gauge("t", 4, 16, depth(), move |x: u64| {
                done.fetch_add(x, Ordering::Relaxed);
            })
            .unwrap()
        };
        let mut submitted = 0u64;
        for i in 0..100u64 {
            // The queue is bounded, so retry until accepted.
            let mut job = i;
            loop {
                match pool.try_submit(job) {
                    Ok(()) => break,
                    Err(SubmitError::Full(j)) => {
                        job = j;
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    Err(SubmitError::Closed(_)) => panic!("pool closed early"),
                }
            }
            submitted += i;
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), submitted);
        // Submissions after shutdown are rejected, not lost silently.
        assert!(matches!(pool.try_submit(1), Err(SubmitError::Closed(1))));
    }

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock().unwrap();
        let pool = {
            let gate = Arc::clone(&gate);
            WorkerPool::with_queue_gauge("t", 1, 1, depth(), move |_x: u64| {
                let _guard = gate.lock();
            })
            .unwrap()
        };
        // First job occupies the worker (blocked on the gate), second fills
        // the queue; the third must be shed immediately.
        pool.try_submit(1).unwrap();
        // Wait for the worker to actually pick up job 1.
        let t = std::time::Instant::now();
        loop {
            if pool.try_submit(2).is_ok() {
                break;
            }
            assert!(t.elapsed() < Duration::from_secs(5), "worker never started");
            std::thread::sleep(Duration::from_micros(100));
        }
        let mut shed = false;
        let t = std::time::Instant::now();
        while t.elapsed() < Duration::from_secs(5) {
            match pool.try_submit(3) {
                Err(SubmitError::Full(3)) => {
                    shed = true;
                    break;
                }
                Ok(()) => continue, // queue had room again; keep pressing
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(shed, "a full bounded queue must shed load");
        drop(held);
    }

    #[test]
    fn queue_gauge_tracks_pending_jobs() {
        let registry = cc_telemetry::Registry::new();
        let depth = registry.gauge("pool_queue_depth", &[]);
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock().unwrap();
        let mut pool = {
            let gate = Arc::clone(&gate);
            WorkerPool::with_queue_gauge("t", 1, 4, depth.clone(), move |_x: u64| {
                let _guard = gate.lock();
            })
            .unwrap()
        };
        pool.try_submit(1).unwrap();
        // Wait for the lone worker to dequeue job 1 (and block on the gate).
        let t = std::time::Instant::now();
        while depth.get() > 0.0 {
            assert!(t.elapsed() < Duration::from_secs(5), "worker never dequeued");
            std::thread::sleep(Duration::from_micros(100));
        }
        // Jobs 2 and 3 sit in the queue while the worker holds the gate.
        pool.try_submit(2).unwrap();
        pool.try_submit(3).unwrap();
        assert_eq!(depth.get(), 2.0);
        drop(held);
        pool.shutdown();
        assert_eq!(depth.get(), 0.0, "a drained queue reads zero");
    }
}
