//! A small owned worker pool for ensemble replica lanes.
//!
//! The ensemble runner (`liberty-ensemble`) runs whole replicas
//! concurrently: it spawns `lanes - 1` workers, hands every lane the same
//! borrowed closure, and each lane pulls replicas off a shared queue
//! until none are left. Borrowed closures let the lanes share the
//! runner's queue, manifest writer and result map without `'static`
//! bounds.
//!
//! Safety model: `run` erases the closure lifetimes to ship `&mut dyn
//! FnMut` references through a channel, which is only sound because `run`
//! does not return until every dispatched worker has reported completion
//! — the borrows therefore strictly outlive their use. Worker panics are
//! caught on the worker, carried back as payloads, and surfaced to the
//! caller. This is the single `unsafe` island of the crate.
//!
//! Cancellation model: the pool needs no cancellation hooks of its own.
//! Each replica runs governed, and run governance
//! ([`crate::supervisor`]) checks its
//! [`crate::supervisor::CancelToken`] at every *step* boundary. A
//! tripped token therefore ends each lane's current replica at its next
//! step boundary (with a final checkpoint), the lane stops pulling
//! replicas, and `run`'s completion barrier returns once every lane has
//! drained. No worker is ever abandoned mid-closure.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// A panic payload carried back from a worker.
pub type Payload = Box<dyn std::any::Any + Send + 'static>;

/// A type-erased borrowed task. The pointee is a `&mut dyn FnMut()` whose
/// real lifetime is the duration of one `run` call; `run`'s barrier makes
/// the `'static` lie safe.
struct Job(*mut (dyn FnMut() + Send + 'static));
// SAFETY: the pointee is `Send` (bound on the trait object) and the
// pointer is dereferenced by exactly one worker, once, inside the window
// where the caller's borrow is alive (enforced by `run`'s completion
// barrier).
unsafe impl Send for Job {}

struct Worker {
    job_tx: Option<Sender<Job>>,
    done_rx: Receiver<Option<Payload>>,
    handle: Option<JoinHandle<()>>,
}

/// A fixed-size pool of named worker threads executing borrowed closures.
///
/// Public because its user lives in another crate: the ensemble runner
/// (`liberty-ensemble`) runs one lane per worker, plus the calling
/// thread, over a sweep's replicas.
pub struct WorkerPool {
    workers: Vec<Worker>,
}

impl WorkerPool {
    /// Spawn `n` workers (the caller's thread is an implicit extra lane,
    /// so the pool supports `n + 1`-way parallelism).
    pub fn new(n: usize) -> WorkerPool {
        let workers = (0..n)
            .map(|i| {
                let (job_tx, job_rx) = channel::<Job>();
                let (done_tx, done_rx) = channel::<Option<Payload>>();
                let handle = std::thread::Builder::new()
                    .name(format!("liberty-worker-{i}"))
                    .spawn(move || {
                        while let Ok(job) = job_rx.recv() {
                            // SAFETY: see `Job` — the borrow is alive
                            // until we send the completion signal below.
                            let f = unsafe { &mut *job.0 };
                            let r = catch_unwind(AssertUnwindSafe(f));
                            if done_tx.send(r.err()).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn worker thread");
                Worker {
                    job_tx: Some(job_tx),
                    done_rx,
                    handle: Some(handle),
                }
            })
            .collect();
        WorkerPool { workers }
    }

    /// Maximum tasks one `run` call can execute in parallel (workers plus
    /// the calling thread).
    pub fn capacity(&self) -> usize {
        self.workers.len() + 1
    }

    /// Execute the tasks concurrently: task 0 on the calling thread, the
    /// rest on workers. Blocks until **all** tasks finish, then returns
    /// one entry per task — `None` for clean completion, `Some(payload)`
    /// for a panic (re-raise with `std::panic::resume_unwind` once shared
    /// state is consistent again).
    pub fn run<'env>(
        &mut self,
        tasks: &mut [&mut (dyn FnMut() + Send + 'env)],
    ) -> Vec<Option<Payload>> {
        assert!(
            tasks.len() <= self.capacity(),
            "pool of {} lanes given {} tasks",
            self.capacity(),
            tasks.len()
        );
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let mut results: Vec<Option<Payload>> = Vec::with_capacity(n);
        let (first, rest) = tasks.split_at_mut(1);
        for (w, t) in self.workers.iter().zip(rest.iter_mut()) {
            let raw: *mut (dyn FnMut() + Send + 'env) = &mut **t;
            // SAFETY: lifetime erasure only — the barrier below keeps the
            // borrow alive for the whole execution window.
            let raw: *mut (dyn FnMut() + Send + 'static) = unsafe { std::mem::transmute(raw) };
            w.job_tx
                .as_ref()
                .expect("pool not shut down")
                .send(Job(raw))
                .expect("worker alive");
        }
        // Caller lane runs task 0 while the workers run the rest.
        results.push(catch_unwind(AssertUnwindSafe(&mut *first[0])).err());
        // Completion barrier: every dispatched task must report before the
        // borrows in `tasks` may expire. A worker that died (channel
        // closed) counts as a panic already captured at join time.
        for w in self.workers.iter().take(n - 1) {
            let r = w
                .done_rx
                .recv()
                .unwrap_or_else(|_| Some(Box::new("worker thread died".to_string())));
            results.push(r);
        }
        results
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for w in &mut self.workers {
            w.job_tx.take(); // closing the channel ends the worker loop
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_sum_across_lanes() {
        let mut pool = WorkerPool::new(3);
        assert_eq!(pool.capacity(), 4);
        let mut parts = [0u64; 4];
        {
            let mut tasks: Vec<Box<dyn FnMut() + Send>> = parts
                .iter_mut()
                .enumerate()
                .map(|(i, p)| {
                    Box::new(move || {
                        *p = (0..=1000u64).map(|x| x + i as u64).sum();
                    }) as Box<dyn FnMut() + Send>
                })
                .collect();
            let mut refs: Vec<&mut (dyn FnMut() + Send)> =
                tasks.iter_mut().map(|b| &mut **b).collect();
            let panics = pool.run(&mut refs);
            assert!(panics.iter().all(|p| p.is_none()));
        }
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(*p, (0..=1000u64).map(|x| x + i as u64).sum::<u64>());
        }
    }

    #[test]
    fn panic_payload_comes_back_and_pool_survives() {
        let mut pool = WorkerPool::new(1);
        let mut ok = false;
        {
            let mut t0: Box<dyn FnMut() + Send> = Box::new(|| {});
            let mut t1: Box<dyn FnMut() + Send> = Box::new(|| panic!("boom 17"));
            let mut refs: Vec<&mut (dyn FnMut() + Send)> = vec![&mut *t0, &mut *t1];
            let panics = pool.run(&mut refs);
            assert!(panics[0].is_none());
            let p = panics.into_iter().nth(1).unwrap().expect("panic captured");
            let msg = p.downcast_ref::<&str>().copied().unwrap_or("");
            assert!(msg.contains("boom 17"), "{msg}");
        }
        // The pool is reusable after a worker panic.
        {
            let mut t0: Box<dyn FnMut() + Send> = Box::new(|| ok = true);
            let mut t1: Box<dyn FnMut() + Send> = Box::new(|| {});
            let mut refs: Vec<&mut (dyn FnMut() + Send)> = vec![&mut *t0, &mut *t1];
            let panics = pool.run(&mut refs);
            assert!(panics.iter().all(|p| p.is_none()));
        }
        assert!(ok);
    }

    #[test]
    fn zero_and_single_task_runs() {
        let mut pool = WorkerPool::new(2);
        assert!(pool.run(&mut []).is_empty());
        let mut hit = false;
        let mut t: Box<dyn FnMut() + Send> = Box::new(|| hit = true);
        let mut refs: Vec<&mut (dyn FnMut() + Send)> = vec![&mut *t];
        let panics = pool.run(&mut refs);
        assert_eq!(panics.len(), 1);
        drop(refs);
        drop(t);
        assert!(hit);
    }
}
