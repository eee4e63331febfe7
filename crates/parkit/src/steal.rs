//! A work-stealing task queue for coarse-grained, self-replenishing jobs.
//!
//! The chunk-claiming loops in the crate root fit flat `for` loops whose
//! iteration space is known up front. Sweep scheduling is different: a
//! task (one cohort round) runs for milliseconds and *spawns successor
//! tasks* as it completes — the frontier grows and shrinks until the
//! whole job quiesces. [`StealQueue`] covers that shape with the classic
//! deque discipline: every worker owns a deque, pushes and pops its own
//! work LIFO (depth-first, cache-warm), and steals FIFO from a random
//! victim when its own deque runs dry (breadth-first, takes the
//! oldest — and usually largest — stranger task).
//!
//! Tasks here are orders of magnitude heavier than a lock, so the deques
//! are plain `Mutex<VecDeque>` — no lock-free Chase-Lev machinery, no
//! `unsafe`. Quiescence is a single atomic counter of live tasks
//! (queued + executing); a worker parks out of [`StealWorker::next_task`]
//! only when that counter hits zero, which cannot happen while any task
//! that might spawn successors is still running.
//!
//! Steal-victim order is drawn from a per-worker SplitMix64 stream, so a
//! fixed `(seed, worker)` pair replays the same victim sequence — useful
//! for reproducing scheduler-order bugs even though correct consumers
//! must not depend on placement.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// SplitMix64 step — the same generator `prng` uses for seeding, inlined
/// here to keep `parkit` dependency-free.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A set of per-worker task deques with random stealing and a live-task
/// counter for quiescence detection.
///
/// `T` is one unit of work. The queue never executes tasks itself;
/// workers drive it through [`StealWorker`] handles obtained from
/// [`StealQueue::worker`].
#[derive(Debug)]
pub struct StealQueue<T> {
    deques: Vec<Mutex<VecDeque<T>>>,
    /// Tasks pushed but not yet reported done. Queued and executing
    /// tasks both count; the job is over when this reaches zero.
    live: AtomicUsize,
    seed: u64,
}

impl<T: Send> StealQueue<T> {
    /// Creates a queue with `workers` deques. `seed` fixes every
    /// worker's steal-victim stream.
    pub fn new(workers: usize, seed: u64) -> Self {
        assert!(workers > 0, "a steal queue needs at least one worker");
        StealQueue {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            live: AtomicUsize::new(0),
            seed,
        }
    }

    /// The number of worker deques.
    pub fn workers(&self) -> usize {
        self.deques.len()
    }

    /// Pushes a root task onto worker `index % workers`'s deque before
    /// the workers start. Also usable mid-run from any thread.
    pub fn push(&self, index: usize, task: T) {
        self.live.fetch_add(1, Ordering::SeqCst);
        let slot = index % self.deques.len();
        self.deques[slot].lock().unwrap().push_back(task);
    }

    /// Tasks queued or executing right now. Zero means quiescent.
    pub fn live_tasks(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// A handle for worker `index` (must be `< workers()`).
    pub fn worker(&self, index: usize) -> StealWorker<'_, T> {
        assert!(index < self.deques.len(), "worker index out of range");
        // Decorrelate the per-worker streams: two SplitMix64 steps from
        // (seed, index) land far apart for adjacent indices.
        let mut state = self.seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        splitmix64(&mut state);
        StealWorker {
            queue: self,
            index,
            rng: state,
        }
    }

    fn pop_own(&self, index: usize) -> Option<T> {
        self.deques[index].lock().unwrap().pop_back()
    }

    fn steal_from(&self, victim: usize) -> Option<T> {
        self.deques[victim].lock().unwrap().pop_front()
    }
}

/// One worker's view of a [`StealQueue`]: LIFO over its own deque,
/// random-victim FIFO steals when dry.
#[derive(Debug)]
pub struct StealWorker<'q, T> {
    queue: &'q StealQueue<T>,
    index: usize,
    rng: u64,
}

impl<'q, T: Send> StealWorker<'q, T> {
    /// This worker's deque index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Pushes a successor task onto this worker's own deque. The caller
    /// still owes a [`StealWorker::task_done`] for the task it is
    /// currently executing — spawning does not complete it.
    pub fn push(&self, task: T) {
        self.queue.push(self.index, task);
    }

    /// Marks one task finished. Call exactly once per task returned by
    /// [`StealWorker::next_task`], after any successors were pushed:
    /// completing before spawning opens a window where `live` hits zero
    /// and other workers exit with work still to come.
    pub fn task_done(&self) {
        let prev = self.queue.live.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "task_done without a live task");
    }

    /// Returns the next task, stealing if this worker's deque is empty,
    /// or `None` once the whole queue is quiescent. Blocks (yield +
    /// short sleeps — tasks here run for milliseconds, not nanoseconds)
    /// while other workers still hold live tasks that may spawn more.
    pub fn next_task(&mut self) -> Option<T> {
        let n = self.queue.workers();
        let mut idle_spins = 0u32;
        loop {
            if let Some(task) = self.queue.pop_own(self.index) {
                return Some(task);
            }
            // Own deque dry: sweep victims starting from a random one so
            // contention spreads, wrapping over every other worker.
            if n > 1 {
                let start = (splitmix64(&mut self.rng) % (n as u64 - 1)) as usize;
                for k in 0..n - 1 {
                    let victim = (self.index + 1 + (start + k) % (n - 1)) % n;
                    if let Some(task) = self.queue.steal_from(victim) {
                        return Some(task);
                    }
                }
            }
            if self.queue.live_tasks() == 0 {
                return None;
            }
            // Someone is still executing and may spawn successors.
            // Back off exponentially (50 µs doubling to 1.6 ms): tasks
            // run for milliseconds, so even a sleepy thief picks up new
            // frontier work promptly, while on an oversubscribed box a
            // flat short sleep has idle workers preempting the one
            // doing the work tens of thousands of times a second.
            idle_spins += 1;
            if idle_spins < 4 {
                std::thread::yield_now();
            } else {
                let exp = (idle_spins - 4).min(5);
                std::thread::sleep(std::time::Duration::from_micros(50 << exp));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Tasks spawn a binary tree of successors; every node must execute
    /// exactly once and all workers must exit.
    fn run_tree(workers: usize, depth: u32) -> usize {
        let queue = StealQueue::new(workers, 0xDE_C0_DE);
        let executed = AtomicUsize::new(0);
        queue.push(0, depth);
        std::thread::scope(|s| {
            for w in 0..workers {
                let mut worker = queue.worker(w);
                let executed = &executed;
                s.spawn(move || {
                    while let Some(d) = worker.next_task() {
                        executed.fetch_add(1, Ordering::SeqCst);
                        if d > 0 {
                            worker.push(d - 1);
                            worker.push(d - 1);
                        }
                        worker.task_done();
                    }
                });
            }
        });
        assert_eq!(queue.live_tasks(), 0);
        executed.load(Ordering::SeqCst)
    }

    #[test]
    fn executes_every_spawned_task_exactly_once() {
        // A depth-d binary tree has 2^(d+1) - 1 nodes.
        for workers in [1, 2, 4, 8] {
            assert_eq!(run_tree(workers, 9), (1 << 10) - 1, "workers={workers}");
        }
    }

    #[test]
    fn steals_reach_work_pushed_to_one_deque() {
        // All roots land on worker 0; the others can only make progress
        // by stealing. Every task sleeps so worker 0 cannot drain alone
        // before the others spin up.
        let queue = StealQueue::new(4, 1);
        let executed = AtomicUsize::new(0);
        let by_thief = AtomicUsize::new(0);
        for _ in 0..64 {
            queue.push(0, ());
        }
        std::thread::scope(|s| {
            for w in 0..4 {
                let mut worker = queue.worker(w);
                let (executed, by_thief) = (&executed, &by_thief);
                s.spawn(move || {
                    while let Some(()) = worker.next_task() {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        executed.fetch_add(1, Ordering::SeqCst);
                        if worker.index() != 0 {
                            by_thief.fetch_add(1, Ordering::SeqCst);
                        }
                        worker.task_done();
                    }
                });
            }
        });
        assert_eq!(executed.load(Ordering::SeqCst), 64);
        // With 64 one-millisecond tasks and three idle thieves, at least
        // one steal is effectively certain; zero would mean stealing is
        // broken.
        assert!(
            by_thief.load(Ordering::SeqCst) > 0,
            "no task was ever stolen"
        );
    }

    #[test]
    fn quiescent_queue_returns_none_immediately() {
        let queue: StealQueue<()> = StealQueue::new(2, 7);
        let mut worker = queue.worker(0);
        assert!(worker.next_task().is_none());
    }

    #[test]
    fn victim_streams_replay_per_seed() {
        let (qa, qb, qc) = (
            StealQueue::<()>::new(4, 42),
            StealQueue::<()>::new(4, 42),
            StealQueue::<()>::new(4, 43),
        );
        assert_eq!(qa.worker(1).rng, qb.worker(1).rng);
        assert_ne!(qa.worker(1).rng, qc.worker(1).rng);
    }
}
