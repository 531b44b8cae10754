//! The observability layer must be free when it is off: with `PSCP_OBS`
//! unset (forced here via `set_flags(0)` so a polluted environment
//! cannot flip the result), the PR-1 allocation-free steady state still
//! holds with every obs hook compiled in. A counting global allocator
//! measures the exact heap traffic of `PscpMachine::step` idle cycles,
//! `CompiledNet::eval_into` and the serve writer's per-write counters
//! and insists on zero.
//!
//! Single `#[test]` on purpose: the harness runs tests on extra threads
//! and any sibling test's allocations would race the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pscp_bench::example_system;
use pscp_core::arch::PscpArch;
use pscp_core::machine::{NullEnvironment, PscpMachine};
use pscp_sla::compiled::CompiledNet;
use pscp_sla::net::LogicNet;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn disabled_obs_keeps_hot_paths_allocation_free() {
    // Pin the flags before measuring: lazy env init allocates once
    // inside `std::env::var`, and the test must not depend on the
    // driver's environment.
    pscp_obs::set_flags(0);
    assert!(!pscp_obs::metrics_enabled());
    assert!(!pscp_obs::trace_enabled());

    // --- PscpMachine::step, idle cycles ---
    let arch = PscpArch::md16_optimized();
    let system = example_system(&arch);
    let mut machine = PscpMachine::new(&system);
    let mut env = NullEnvironment;
    // Warm-up: first cycles may lazily size internal scratch.
    for _ in 0..8 {
        machine.step(&mut env).expect("idle cycle");
    }
    let before = allocs();
    for _ in 0..200 {
        machine.step(&mut env).expect("idle cycle");
    }
    let step_allocs = allocs() - before;
    assert_eq!(
        step_allocs, 0,
        "PscpMachine::step allocated {step_allocs} times over 200 idle cycles \
         with PSCP_OBS off"
    );

    // --- CompiledNet::eval_into with reused scratch ---
    let mut net = LogicNet::new();
    let a = net.input("a");
    let b = net.input("b");
    let c = net.input("c");
    let ab = net.and(vec![a, b]);
    let nc = net.not(c);
    let out = net.or(vec![ab, nc]);
    net.set_output("y", out);
    let compiled = CompiledNet::compile(&net);
    let mut scratch = Vec::new();
    // Warm-up sizes the scratch buffer once.
    compiled.eval_into(&[true, false, true], &mut scratch);
    let before = allocs();
    for i in 0..1000u32 {
        let bits = [i & 1 == 0, i & 2 == 0, i & 4 == 0];
        compiled.eval_into(&bits, &mut scratch);
    }
    let eval_allocs = allocs() - before;
    assert_eq!(
        eval_allocs, 0,
        "CompiledNet::eval_into allocated {eval_allocs} times over 1000 evals \
         with PSCP_OBS off"
    );

    // --- the serve writer's per-write counters ---
    let before = allocs();
    for conn in 0..100usize {
        pscp_obs::metrics::SERVE_FRAMES_OUT.add(conn, 2);
        pscp_obs::metrics::SERVE_WRITES.add(conn, 1);
    }
    let counter_allocs = allocs() - before;
    assert_eq!(counter_allocs, 0, "serve write counters allocated with PSCP_OBS off");
    assert_eq!(
        pscp_obs::metrics::SERVE_WRITES.values(),
        Vec::<u64>::new(),
        "serve_writes counted with PSCP_OBS off"
    );
}
