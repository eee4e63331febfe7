//! Steady-state allocation budget of a windowed flow at EPFL scale.
//!
//! Every signature-sized buffer of a flow — the round simulation, the
//! cache snapshots, the cone and patch re-simulation scratch — outlives
//! its round, so once a flow is warm a step maps no fresh
//! `n_nodes × stride` buffer. A counting global allocator records every
//! allocation (and reallocation) of at least `n_nodes × stride × 8`
//! bytes; from the third step of a windowed mult64 flow onward there
//! must be none. This binary holds a single test so that nothing else
//! allocates while it counts.

use accals::{AccalsConfig, FlowInstance, WindowSpec};
use bitsim::Patterns;
use errmetrics::MetricKind;
use parkit::ThreadPool;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Forwards to the system allocator, counting requests of at least
/// `LIMIT` bytes.
struct Counting;

static LIMIT: AtomicUsize = AtomicUsize::new(usize::MAX);
static BIG: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if size >= LIMIT.load(Ordering::Relaxed) {
        BIG.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn warm_windowed_steps_allocate_no_signature_sized_buffer() {
    let golden = benchgen::epfl::by_name("mult64").expect("EPFL instance");
    let mut cfg = AccalsConfig::new(MetricKind::Nmed, 0.01);
    cfg.window = Some(WindowSpec { max_targets: 512 });
    cfg.max_rounds = 6;
    cfg.seed = 1;
    let pats = Arc::new(Patterns::for_circuit(
        golden.n_pis(),
        cfg.max_exhaustive,
        cfg.n_random_patterns,
        cfg.seed,
    ));
    // Two threads: the parallel mask, MFFC and trial paths all run.
    let pool: &'static ThreadPool = Box::leak(Box::new(ThreadPool::new(2)));
    let (mut flow, mut caches) = FlowInstance::new(cfg, pool, &golden, Arc::clone(&pats));

    let mut steps = 0;
    loop {
        steps += 1;
        let limit = flow.current().n_nodes() * pats.stride() * 8;
        if steps >= 3 {
            BIG.store(0, Ordering::Relaxed);
            LARGEST.store(0, Ordering::Relaxed);
            LIMIT.store(limit, Ordering::Relaxed);
        }
        let going = flow.step(&mut caches);
        LIMIT.store(usize::MAX, Ordering::Relaxed);
        if steps >= 3 {
            assert_eq!(
                BIG.load(Ordering::Relaxed),
                0,
                "step {steps} allocated {} bytes (limit {limit})",
                LARGEST.load(Ordering::Relaxed)
            );
        }
        if !going {
            break;
        }
    }
    assert!(steps >= 5, "the flow ran only {steps} steps");
}
