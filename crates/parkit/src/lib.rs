//! A std-only scoped thread pool for deterministic data-parallel loops.
//!
//! The pool keeps a fixed set of parked worker threads alive for the
//! process lifetime and hands them *scoped* jobs: closures that borrow
//! from the submitting stack frame. Safety rests on one invariant —
//! the pool's internal `run` does not return until every worker has finished
//! the job — which lets hot loops borrow their inputs without `Arc` or
//! cloning. Work is distributed by atomic chunk claiming (a shared
//! counter over fixed chunk boundaries), so scheduling is dynamic but
//! every output lands in a slot addressed by item index: results are
//! bit-identical across thread counts and runs, including `threads=1`,
//! which bypasses the pool machinery entirely.
//!
//! Thread count comes from `ACCALS_THREADS` (default: available
//! parallelism) for the shared [`global`] pool; explicit pools take it
//! from [`ThreadPool::new`].

use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Environment variable controlling the size of the [`global`] pool.
pub const THREADS_ENV: &str = "ACCALS_THREADS";

/// The thread count the [`global`] pool uses: `ACCALS_THREADS` if set to
/// a positive integer, otherwise the machine's available parallelism.
/// A set-but-malformed value (empty, non-numeric, or zero) falls back
/// to the default with a warning on stderr rather than silently — a
/// typo'd `ACCALS_THREADS=1O` changing a benchmark's thread count is
/// exactly the kind of surprise a measurement run cannot afford.
pub fn configured_threads() -> usize {
    parse_thread_env(
        THREADS_ENV,
        std::env::var(THREADS_ENV).ok().as_deref(),
        default_threads(),
    )
}

/// Parses a thread-count environment override: `raw` is the variable's
/// value (`None` when unset), `default` the fallback. Malformed values
/// — anything but a positive integer — warn once on stderr, naming the
/// variable and the value, and return `default`. Pure in its inputs so
/// the policy is unit-testable without touching process environment.
pub fn parse_thread_env(var: &str, raw: Option<&str>, default: usize) -> usize {
    let Some(raw) = raw else { return default };
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!(
                "warning: {var}={raw:?} is not a positive integer; \
                 using default of {default} threads"
            );
            default
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process-wide pool, created on first use with
/// [`configured_threads`] threads. Changing `ACCALS_THREADS` after the
/// first call has no effect.
pub fn global() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| ThreadPool::new(configured_threads()))
}

/// A raw pointer that may cross threads. The pool's completion barrier
/// plus disjoint index ranges make each use sound; every construction
/// site documents its disjointness argument.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor rather than field access so closures capture the whole
    /// `Sync` wrapper, not the bare `*mut` (2021 disjoint capture).
    fn get(&self) -> *mut T {
        self.0
    }
}

/// A scoped job: a borrowed closure every participant runs once,
/// claiming chunks from a shared counter until the work is drained.
/// The pointee lives on the submitter's stack; it stays valid because
/// `run` blocks until `remaining == 0`.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn() + Sync));
unsafe impl Send for Job {}

struct JobSlot {
    /// Bumped once per submitted job so sleeping workers can tell a new
    /// job from a spurious wakeup.
    generation: u64,
    job: Option<Job>,
    /// Workers that have not yet finished the current job.
    remaining: usize,
    /// First panic payload raised inside a worker, rethrown by `run`.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Shared {
    slot: Mutex<JobSlot>,
    /// Signals workers that `generation` moved.
    new_job: Condvar,
    /// Signals the submitter that `remaining` hit zero.
    done: Condvar,
    shutdown: AtomicBool,
}

/// A fixed-size pool of parked workers executing scoped jobs. See the
/// crate docs for the determinism and safety model.
pub struct ThreadPool {
    shared: &'static Shared,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// Serializes `run` calls: the pool has a single job slot.
    submit: Mutex<()>,
}

impl ThreadPool {
    /// Creates a pool that computes with `threads` threads in total: the
    /// calling thread participates in every job, so `threads - 1`
    /// workers are spawned. `threads <= 1` spawns nothing and every
    /// `par_*` method degenerates to an inline serial loop.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        // The shared state is leaked rather than Arc'd so worker loops
        // need no reference counting on the hot path; pools live for the
        // process in practice (tests create a handful — bounded leak).
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            slot: Mutex::new(JobSlot {
                generation: 0,
                job: None,
                remaining: 0,
                panic: None,
            }),
            new_job: Condvar::new(),
            done: Condvar::new(),
            shutdown: AtomicBool::new(false),
        }));
        let workers = (1..threads)
            .map(|i| {
                std::thread::Builder::new()
                    .name(format!("parkit-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn parkit worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            threads,
            submit: Mutex::new(()),
        }
    }

    /// Total threads participating in each job (including the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `work` on every participant (workers + the calling thread)
    /// exactly once each, returning after all have finished. `work` is
    /// expected to claim chunks from a shared counter until none remain.
    fn run(&self, work: &(dyn Fn() + Sync)) {
        debug_assert!(self.threads > 1, "run() is bypassed for serial pools");
        let _guard = self.submit.lock().unwrap_or_else(|e| e.into_inner());
        {
            let mut slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
            slot.generation += 1;
            // Erase the closure's lifetime; workers drop the pointer
            // before `remaining` reaches zero, and we block on that
            // below, so the borrow never outlives this call.
            slot.job = Some(Job(unsafe {
                std::mem::transmute::<*const (dyn Fn() + Sync), *const (dyn Fn() + Sync)>(work)
            }));
            slot.remaining = self.workers.len();
            slot.panic = None;
            self.shared.new_job.notify_all();
        }
        // The caller participates; catch panics so we still wait for the
        // workers (they borrow from this frame) before unwinding.
        let mine = panic::catch_unwind(AssertUnwindSafe(work));
        let mut slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
        while slot.remaining > 0 {
            slot = self
                .shared
                .done
                .wait(slot)
                .unwrap_or_else(|e| e.into_inner());
        }
        slot.job = None;
        let worker_panic = slot.panic.take();
        drop(slot);
        if let Err(payload) = mine {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            panic::resume_unwind(payload);
        }
    }

    /// Maps `f` over `items`, returning outputs in input order. Output
    /// `i` is written into slot `i` regardless of which thread computed
    /// it, so the result is identical to the serial map.
    pub fn par_map_collect<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        let n = items.len();
        if self.threads <= 1 || n < 2 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let chunk = auto_chunk(n, self.threads);
        let nchunks = n.div_ceil(chunk);
        let mut out: Vec<U> = Vec::with_capacity(n);
        let out_ptr = SendPtr(out.as_mut_ptr());
        let next = AtomicUsize::new(0);
        let filled = AtomicUsize::new(0);
        self.run(&|| loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= nchunks {
                break;
            }
            let range = chunk_range(c, chunk, n);
            for i in range.clone() {
                // Disjoint: each index i belongs to exactly one chunk,
                // and each chunk is claimed by exactly one thread.
                unsafe { out_ptr.get().add(i).write(f(i, &items[i])) };
            }
            filled.fetch_add(range.len(), Ordering::Release);
        });
        assert_eq!(filled.load(Ordering::Acquire), n);
        // Every slot 0..n was written exactly once (asserted above).
        unsafe { out.set_len(n) };
        out
    }

    /// Runs `f` over disjoint mutable chunks of `items` with fixed
    /// boundaries (`chunk_size` apart, last chunk ragged). `f` receives
    /// the chunk index and the chunk, exactly as `chunks_mut` would
    /// yield them serially.
    pub fn par_chunks_mut<T, F>(&self, items: &mut [T], chunk_size: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let n = items.len();
        let chunk = chunk_size.max(1);
        let nchunks = n.div_ceil(chunk.max(1));
        if self.threads <= 1 || nchunks <= 1 {
            for (c, s) in items.chunks_mut(chunk).enumerate() {
                f(c, s);
            }
            return;
        }
        let base = SendPtr(items.as_mut_ptr());
        let next = AtomicUsize::new(0);
        self.run(&|| loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= nchunks {
                break;
            }
            let range = chunk_range(c, chunk, n);
            // Disjoint: chunk ranges partition 0..n and each chunk is
            // claimed by exactly one thread.
            let slice =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(range.start), range.len()) };
            f(c, slice);
        });
    }

    /// Computes one `U` per fixed-boundary chunk of `0..len` and returns
    /// them in chunk order. Callers fold the returned vector serially,
    /// which pins the reduction order: floating-point sums come out
    /// bit-identical for a given `chunk_size` at any thread count.
    pub fn par_chunk_results<U, F>(&self, len: usize, chunk_size: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize, Range<usize>) -> U + Sync,
    {
        let chunk = chunk_size.max(1);
        let nchunks = len.div_ceil(chunk);
        if self.threads <= 1 || nchunks <= 1 {
            return (0..nchunks)
                .map(|c| f(c, chunk_range(c, chunk, len)))
                .collect();
        }
        let mut out: Vec<U> = Vec::with_capacity(nchunks);
        let out_ptr = SendPtr(out.as_mut_ptr());
        let next = AtomicUsize::new(0);
        let filled = AtomicUsize::new(0);
        self.run(&|| loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= nchunks {
                break;
            }
            // Disjoint: one slot per chunk, one claimant per chunk.
            unsafe { out_ptr.get().add(c).write(f(c, chunk_range(c, chunk, len))) };
            filled.fetch_add(1, Ordering::Release);
        });
        assert_eq!(filled.load(Ordering::Acquire), nchunks);
        unsafe { out.set_len(nchunks) };
        out
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake parked workers so they observe the flag.
        let _slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
        self.shared.new_job.notify_all();
        drop(_slot);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &'static Shared) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut slot = shared.slot.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if slot.generation != seen {
                    seen = slot.generation;
                    break slot.job.expect("job present for new generation");
                }
                slot = shared.new_job.wait(slot).unwrap_or_else(|e| e.into_inner());
            }
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)() }));
        let mut slot = shared.slot.lock().unwrap_or_else(|e| e.into_inner());
        if let Err(payload) = result {
            slot.panic.get_or_insert(payload);
        }
        slot.remaining -= 1;
        if slot.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

/// Chunk boundaries used by every `par_*` method: fixed, independent of
/// thread count, so per-chunk outputs (and thus reduction order) never
/// depend on scheduling.
fn chunk_range(c: usize, chunk: usize, len: usize) -> Range<usize> {
    let start = c * chunk;
    start..(start + chunk).min(len)
}

/// Picks a chunk size giving each thread several chunks to steal while
/// keeping claim traffic low. Depends only on `n` and the pool's
/// configured size — not on runtime scheduling — so it is deterministic.
fn auto_chunk(n: usize, threads: usize) -> usize {
    (n / (threads * 8)).max(1)
}

/// A free-list of reusable scratch values for the workers of a parallel
/// phase: each chunk takes one (or builds one when the list is dry) and
/// puts it back when done, so warm phases reuse the previous phase's
/// allocations. Which chunk gets which value depends on the schedule,
/// so pooled values must never influence results — callers reset or
/// rebind them at checkout.
#[derive(Debug)]
pub struct ScratchPool<T> {
    free: Mutex<Vec<T>>,
}

impl<T> Default for ScratchPool<T> {
    fn default() -> Self {
        ScratchPool {
            free: Mutex::new(Vec::new()),
        }
    }
}

impl<T> ScratchPool<T> {
    /// Takes a pooled value, if any.
    pub fn take(&self) -> Option<T> {
        self.free.lock().expect("scratch pool poisoned").pop()
    }

    /// Returns a value to the pool.
    pub fn put(&self, value: T) {
        self.free.lock().expect("scratch pool poisoned").push(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_matches_serial_across_thread_counts() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let par = pool.par_map_collect(&items, |_, &x| x * x + 1);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn chunks_mut_mutates_every_element_once() {
        let pool = ThreadPool::new(4);
        let mut data: Vec<usize> = vec![0; 777];
        pool.par_chunks_mut(&mut data, 10, |c, s| {
            for (off, v) in s.iter_mut().enumerate() {
                *v = c * 10 + off + 1;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i + 1);
        }
    }

    #[test]
    fn chunk_results_arrive_in_chunk_order() {
        let pool = ThreadPool::new(4);
        let out = pool.par_chunk_results(103, 10, |c, r| (c, r.start, r.end));
        assert_eq!(out.len(), 11);
        for (c, item) in out.iter().enumerate() {
            assert_eq!(*item, (c, c * 10, (c * 10 + 10).min(103)));
        }
    }

    #[test]
    fn float_reduction_is_bit_identical_across_thread_counts() {
        let vals: Vec<f64> = (0..10_000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let reduce = |pool: &ThreadPool| -> f64 {
            pool.par_chunk_results(vals.len(), 64, |_, r| vals[r].iter().sum::<f64>())
                .into_iter()
                .sum()
        };
        let one = reduce(&ThreadPool::new(1));
        for threads in [2, 5, 8] {
            assert_eq!(
                one.to_bits(),
                reduce(&ThreadPool::new(threads)).to_bits(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        let pool = ThreadPool::new(3);
        let hits = AtomicU64::new(0);
        for round in 0..50u64 {
            let out = pool.par_map_collect(&[round; 64], |i, &r| {
                hits.fetch_add(1, Ordering::Relaxed);
                r + i as u64
            });
            assert_eq!(out[63], round + 63);
        }
        assert_eq!(hits.load(Ordering::Relaxed), 50 * 64);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(4);
        let items: Vec<usize> = (0..100).collect();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_collect(&items, |_, &x| {
                assert!(x != 50, "boom at 50");
                x
            })
        }));
        assert!(result.is_err());
        // The pool must still schedule jobs after a panicked one.
        let ok = pool.par_map_collect(&items, |_, &x| x + 1);
        assert_eq!(ok[99], 100);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let pool = ThreadPool::new(4);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.par_map_collect(&empty, |_, &x| x).is_empty());
        assert!(pool.par_chunk_results(0, 8, |_, r| r.len()).is_empty());
        let one = pool.par_map_collect(&[7u32], |_, &x| x * 2);
        assert_eq!(one, vec![14]);
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
        assert!(global().threads() >= 1);
    }

    #[test]
    fn parse_thread_env_accepts_positive_integers() {
        assert_eq!(parse_thread_env("T", Some("1"), 8), 1);
        assert_eq!(parse_thread_env("T", Some("16"), 8), 16);
        assert_eq!(parse_thread_env("T", Some("  4 "), 8), 4);
    }

    #[test]
    fn parse_thread_env_unset_uses_default_silently() {
        assert_eq!(parse_thread_env("T", None, 8), 8);
    }

    #[test]
    fn parse_thread_env_malformed_falls_back_to_default() {
        // Each of these should also warn on stderr; the policy under
        // test here is the fallback, which must never produce a zero
        // or a surprising thread count.
        for bad in ["", "  ", "0", "-2", "1O", "sixteen", "4.5", "1e3"] {
            assert_eq!(parse_thread_env("T", Some(bad), 8), 8, "value {bad:?}");
        }
    }
}
