//! Simulator performance tracking: the `lift-harness perf` command.
//!
//! Times the Figure-7 sweep end-to-end on one thread and collects
//! per-kernel launch microbenchmarks plus plan-compilation cost. The
//! result is written to `BENCH_sim.json` so CI can track the simulator's
//! throughput — the tuner's hot path — across commits with
//! `lift-harness compare`.

use std::time::Instant;

use lift_driver::{CompiledStencil, Pipeline};
use lift_oclsim::{BufferData, DeviceProfile, Plan, VirtualDevice};
use lift_stencils::by_name;

use crate::report::json_str;
use crate::{fig7_with, tune_budget, LiftError};

/// The `BENCH_sim.json` schema tag this module writes and `compare` reads.
pub(crate) const PERF_SCHEMA: &str = "lift-sim-perf/2";

/// One microbenchmark measurement.
pub struct MicroBench {
    /// `<benchmark>/<variant>` label.
    pub name: String,
    /// Output elements per launch (for throughput derivation).
    pub elems: usize,
    /// Mean launch wall-time of the planned kernel, in milliseconds.
    pub plan_ms: f64,
    /// One-time plan compilation cost in microseconds.
    pub plan_compile_us: f64,
}

/// The `perf` command's full result.
pub struct PerfReport {
    /// Figure-7 sweep wall time in seconds, on one thread.
    pub fig7_plan_s: f64,
    /// Tuner evaluations per variant used for the sweep.
    pub budget: usize,
    /// Per-kernel launch microbenchmarks.
    pub micro: Vec<MicroBench>,
}

impl PerfReport {
    /// The `BENCH_sim.json` document.
    pub fn to_json(&self) -> String {
        let micro: Vec<String> = self
            .micro
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"plan_ms\": {:.4}, \"plan_compile_us\": {:.2}}}",
                    json_str(&m.name),
                    m.plan_ms,
                    m.plan_compile_us
                )
            })
            .collect();
        format!(
            "{{\n\
             \"schema\": \"{PERF_SCHEMA}\",\n\
             \"fig7_sweep\": {{\"budget\": {}, \"threads\": 1, \"plan_s\": {:.3}}},\n\
             \"microbench\": [\n{}\n  ]\n\
             }}\n",
            self.budget,
            self.fig7_plan_s,
            micro.join(",\n")
        )
    }

    /// A human-readable summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "fig7 sweep (budget {}, 1 thread): {:.2}s\n\n",
            self.budget, self.fig7_plan_s
        );
        out.push_str("per-launch microbenchmarks (K20c profile):\n");
        for m in &self.micro {
            out.push_str(&format!(
                "  {:28} {:8.3} ms   (plan-compile {:6.1} us)\n",
                m.name, m.plan_ms, m.plan_compile_us
            ));
        }
        out
    }
}

fn compile_case(
    dev: &VirtualDevice,
    name: &str,
    sizes: &[usize],
    variant: &str,
    cfg: &[(&str, i64)],
) -> Result<(CompiledStencil, Vec<BufferData>), LiftError> {
    let bench = by_name(name);
    let compiled = Pipeline::from_benchmark(&bench, sizes)?
        .explore()?
        .on(dev)
        .with_config(variant, cfg)?;
    let inputs: Vec<BufferData> = bench
        .gen_inputs(sizes, 1)
        .into_iter()
        .map(BufferData::F32)
        .collect();
    Ok((compiled, inputs))
}

/// Best-of-batches mean launch time of an already-planned kernel, in
/// milliseconds (the tuner's hot path; plan compilation is timed apart).
fn time_launch(
    compiled: &CompiledStencil,
    inputs: &[BufferData],
    reps: usize,
) -> Result<f64, LiftError> {
    compiled.run(inputs)?;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(compiled.run(std::hint::black_box(inputs))?);
        }
        best = best.min(t.elapsed().as_secs_f64() / reps as f64);
    }
    Ok(best * 1e3)
}

/// The per-kernel launch microbenchmarks, shared with the `cargo bench`
/// simulator target so the CI-tracked `BENCH_sim.json` numbers and the
/// interactive view always measure the same cases the same way.
///
/// # Errors
///
/// Any [`LiftError`] from compiling or running a case.
pub fn microbenches() -> Result<Vec<MicroBench>, LiftError> {
    let dev = VirtualDevice::new(DeviceProfile::k20c());
    // (benchmark, sizes, variant, configuration)
    type Case = (
        &'static str,
        Vec<usize>,
        &'static str,
        Vec<(&'static str, i64)>,
    );
    let cases: [Case; 4] = [
        (
            "Jacobi2D5pt",
            vec![64, 64],
            "global",
            vec![("lx", 16), ("ly", 8)],
        ),
        (
            "Jacobi2D5pt",
            vec![64, 64],
            "tiled-local",
            vec![("TS0", 18), ("TS1", 18), ("lx", 16), ("ly", 8)],
        ),
        (
            "Heat",
            vec![8, 16, 16],
            "global",
            vec![("lx", 8), ("ly", 4), ("lz", 2)],
        ),
        ("SRAD1", vec![64, 64], "global", vec![("lx", 16), ("ly", 8)]),
    ];
    let mut micro = Vec::new();
    for (name, sizes, variant, cfg) in cases {
        let (compiled, inputs) = compile_case(&dev, name, &sizes, variant, &cfg)?;
        let plan_ms = time_launch(&compiled, &inputs, 20)?;
        let t = Instant::now();
        let reps = 200;
        for _ in 0..reps {
            std::hint::black_box(
                Plan::compile(std::hint::black_box(compiled.kernel())).map_err(LiftError::Sim)?,
            );
        }
        let plan_compile_us = t.elapsed().as_secs_f64() / reps as f64 * 1e6;
        micro.push(MicroBench {
            name: format!("{name}/{variant}"),
            elems: sizes.iter().product(),
            plan_ms,
            plan_compile_us,
        });
    }
    Ok(micro)
}

/// Runs the sweep timing and microbenchmarks (see the module docs).
///
/// # Errors
///
/// Any [`LiftError`] from the sweep or microbenchmark compilations.
pub fn perf_report() -> Result<PerfReport, LiftError> {
    let t = Instant::now();
    fig7_with(1)?;
    Ok(PerfReport {
        fig7_plan_s: t.elapsed().as_secs_f64(),
        budget: tune_budget(),
        micro: microbenches()?,
    })
}
