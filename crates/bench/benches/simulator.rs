//! Microbenchmark suite for the virtual OpenCL device: wall-clock cost of
//! one kernel launch (this bounds how many tuner evaluations per second
//! the harness can afford), plus the one-time cost of compiling a
//! kernel's execution plan. Plain std timing — no external benchmark
//! framework is available in this environment.
//!
//! The cases and timing protocol live in `lift_harness::perf` and also
//! feed `lift-harness perf --json` (the `BENCH_sim.json` report CI
//! tracks); this target is the interactive `cargo bench` view of the very
//! same measurements.

use lift_harness::perf::microbenches;

fn main() {
    println!("virtual device, one launch (K20c profile):");
    for m in microbenches().expect("microbenches run") {
        println!(
            "  {:28} {:8.3} ms  ({:7.2} Melem/s, plan-compile {:6.1} us)",
            m.name,
            m.plan_ms,
            m.elems as f64 / (m.plan_ms * 1e-3) / 1e6,
            m.plan_compile_us,
        );
    }
}
