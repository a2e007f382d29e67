//! A CRR step at the default shapes allocates nothing once warm: the tapes
//! keep their buffers across `Graph::clear`, and every graph-free pass, the
//! batch and the advantage weights live in buffers the trainer owns. A
//! counting global allocator, in its own test binary, counts the calls the
//! test's thread makes to the heap.

#![allow(
    unsafe_code,
    reason = "a `GlobalAlloc` is an unsafe trait: this file's allocator counts calls and forwards each to `System` unchanged"
)]

use sage_collector::Pool;
use sage_core::model::NetConfig;
use sage_core::{CrrConfig, CrrTrainer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a const-initialised
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations for `alloc` are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as `dealloc`, and `new_size` is the caller's valid size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The benchmark's training shapes: the default net, 16 sequences of 8
/// steps.
fn default_cfg() -> CrrConfig {
    CrrConfig {
        net: NetConfig::default(),
        batch: 16,
        unroll: 8,
        seed: 2023,
        threads: 1,
        ..CrrConfig::default()
    }
}

/// At most this many heap calls per steady-state step.
const MAX_PER_STEP: u64 = 16;

#[test]
fn a_warm_default_shape_step_makes_at_most_16_allocations() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let pool = Pool::load_file(&root.join("artifacts/pool.bin")).expect("committed pool loads");
    let mut trainer = CrrTrainer::new(default_cfg(), &pool);
    for _ in 0..3 {
        trainer.train_step(&pool);
    }
    let calls = || CALLS.with(Cell::get);
    for step in 0..5 {
        let before = calls();
        let metrics = trainer.train_step(&pool);
        let made = calls() - before;
        assert!(metrics.policy_loss.is_finite() && metrics.critic_loss != 0.0);
        assert!(
            made <= MAX_PER_STEP,
            "warm step {step} made {made} allocations (at most {MAX_PER_STEP})"
        );
    }
}
