//! Pins heap allocation events per simulated `KlotskiEngine::run`: the
//! task DAG of a run lives in the simulator's arenas and the DAG builder
//! reuses its per-layer scratch, so a run's allocations are a fixed
//! handful of buffer growths (placement, the correlation table, the
//! arenas, the report), not one or more per task.
//!
//! Method: the same counting `GlobalAlloc` as `alloc_pin.rs`. Each
//! measured run follows an identical unmeasured one, so process-global
//! one-time state stays outside the window. The counter is process-wide,
//! so this file holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use klotski_core::engine::{KlotskiConfig, KlotskiEngine};
use klotski_core::scenario::{Engine, Scenario};
use klotski_model::hardware::HardwareSpec;
use klotski_model::spec::ModelSpec;
use klotski_model::workload::Workload;

static COUNTING: AtomicBool = AtomicBool::new(false);
static EVENTS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

fn bump() {
    if COUNTING.load(Ordering::Relaxed) {
        EVENTS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = EVENTS.load(Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let r = f();
    COUNTING.store(false, Ordering::SeqCst);
    (EVENTS.load(Ordering::SeqCst) - before, r)
}

/// Allocation events of one `KlotskiEngine::run` (full Klotski, default
/// 4096-token prefetcher warm-up) on Mixtral-8×7B, Env 1.
fn events_per_run(wl: Workload) -> u64 {
    let sc = Scenario::generate(
        ModelSpec::mixtral_8x7b(),
        HardwareSpec::env1_rtx3090(),
        wl,
        2025,
    );
    let engine = KlotskiEngine::new(KlotskiConfig::full());
    let warm = engine.run(&sc).expect("engine run");
    assert!(warm.succeeded(), "{:?}", warm.oom);
    let (events, report) = counted(|| engine.run(&sc).expect("engine run"));
    assert_eq!(report.total_time, warm.total_time, "runs are deterministic");
    events
}

#[test]
fn klotski_run_allocations_do_not_scale_with_the_task_graph() {
    // The serving fleet's typical batch group: 5,190 tasks.
    let fleet = events_per_run(Workload::new(8, 1, 128, 8));
    // Eight batches of that group in one multi-batch group.
    let wide = events_per_run(Workload::new(8, 8, 128, 8));
    // The fleet group decoding twice as many tokens.
    let long = events_per_run(Workload::new(8, 1, 128, 16));
    assert!(fleet > 0, "counter is not seeing allocations");
    assert!(
        fleet <= 2_300,
        "fleet group: {fleet} allocation events per run"
    );
    assert!(
        wide <= 5_200,
        "8-batch group: {wide} allocation events per run"
    );
    // 8 more decode steps lay out 256 more layers and about 5k more
    // tasks; only the arenas' doubling growth may show.
    assert!(
        long < fleet + 32,
        "doubling gen_len took {fleet} -> {long} allocation events: \
         the DAG builder or the simulator allocates per layer or per task"
    );
}
