//! Runtime counterpart of the static `no_alloc` rule: pins the native
//! pipeline's steady-state decode loop to **zero allocations per step**,
//! on every thread it runs — inference, I/O and compute workers.
//!
//! Method: a counting `GlobalAlloc` tallies allocation *events* from all
//! threads into one global counter while a run is being measured. Two
//! runs over the same model and prompts differ only in `gen_len`; every
//! one-time cost (expert store build, thread spawns, channel setup,
//! scratch reservation, per-sequence `with_capacity` outputs) is
//! identical across the two, so equal event counts ⟺ the extra decode
//! steps allocated nothing. Counts are compared rather than bytes because
//! output buffers are sized by `gen_len` (same event count, different
//! sizes) by design.
//!
//! The counter is process-wide, so this file holds a single test: with
//! several, the harness's main thread spawns the next test's thread (and
//! allocates) while another test is inside its measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use klotski_core::native::{run_pipeline, NativePipelineConfig};
use klotski_moe::config::MoeConfig;
use klotski_moe::model::MoeModel;
use klotski_tensor::quant::QuantConfig;

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

/// Allocation events on any thread while `f` runs. Every thread the
/// pipeline spawns is joined before `run_pipeline` returns, so none of its
/// work escapes the window.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = EVENTS.load(Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let r = f();
    COUNTING.store(false, Ordering::SeqCst);
    (EVENTS.load(Ordering::SeqCst) - before, r)
}

fn prompts(n: usize, len: usize, vocab: usize) -> Vec<Vec<u32>> {
    (0..n)
        .map(|s| {
            (0..len)
                .map(|p| ((s * 31 + p * 7 + 3) % vocab) as u32)
                .collect()
        })
        .collect()
}

fn assert_steady_state_alloc_free(cfg: &NativePipelineConfig, what: &str) {
    let model = MoeModel::new(MoeConfig::tiny(7));
    let p = prompts(3, 5, model.config().vocab);
    // Warm process-global one-time state (backend detection, TLS, ...)
    // outside the measured window.
    let _ = run_pipeline(&model, &p, 2, cfg);

    let (short_events, short) = counted(|| run_pipeline(&model, &p, 4, cfg));
    let (long_events, long) = counted(|| run_pipeline(&model, &p, 12, cfg));

    assert!(short_events > 0, "counter is not seeing allocations");
    assert_eq!(long.tokens[0].len(), 12, "long run generated its tokens");
    assert_eq!(short.tokens[0].len(), 4, "short run generated its tokens");
    assert_eq!(
        long_events, short_events,
        "{what}: 8 extra decode steps changed the allocation count \
         ({short_events} events for gen_len=4 vs {long_events} for gen_len=12) — \
         the steady-state loop allocated"
    );
}

fn dense(compute_workers: usize) -> NativePipelineConfig {
    NativePipelineConfig {
        compute_workers,
        ..Default::default()
    }
}

fn quantized(compute_workers: usize, fused_quant: bool) -> NativePipelineConfig {
    NativePipelineConfig {
        compute_workers,
        quant: Some(QuantConfig::paper_default()),
        fused_quant,
        ..Default::default()
    }
}

#[test]
fn steady_state_decode_is_allocation_free_on_every_thread() {
    // Staged quantization dequantizes into the circulating slot buffers
    // instead of computing in the quantized domain; the pipeline must stay
    // allocation-free either way, with expert compute inline or pooled.
    for (cfg, what) in [
        (dense(1), "dense, inline compute"),
        (quantized(1, true), "fused 4-bit, inline compute"),
        (quantized(1, false), "staged 4-bit, inline compute"),
        (dense(3), "dense, 3 workers"),
        (quantized(3, true), "fused 4-bit, 3 workers"),
        (quantized(3, false), "staged 4-bit, 3 workers"),
    ] {
        assert_steady_state_alloc_free(&cfg, what);
    }
}
