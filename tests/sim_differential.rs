//! Differential suite for the simulator against independent references.
//!
//! The bytecode-plan executor is the only executor, so it is checked
//! against oracles that share none of its code: every Table-1 benchmark ×
//! explored variant × device profile runs on the virtual device and its
//! output must match the benchmark's loop-nest golden reference
//! (`lift-stencils`), and the static verifier must agree with the run —
//! a kernel the verifier proves clean must run without a fault, and a
//! kernel that runs must prove clean. (`KernelStats` have their own
//! oracles in `tests/cost_model.rs`: the data-free cost replay and
//! hand-counted kernels.) The suite also pins the plan-compile error
//! reporting contract: unbound variables and provable type mismatches
//! surface at plan-compile time with the kernel name and statement
//! context.

use lift_codegen::clike::{AddressSpace, CExpr, CStmt, CType, Kernel, KernelParam, VarRef};
use lift_driver::Pipeline;
use lift_oclsim::{BufferData, DeviceProfile, Plan, Rotation, SimError, VirtualDevice};
use lift_rewrite::Tunable;
use lift_stencils::suite;

/// Compact grid sizes per rank: big enough to exercise multi-group
/// launches, boundary handling and non-square strides, small enough that
/// the whole matrix stays quick.
fn diff_sizes(dims: usize) -> Vec<usize> {
    match dims {
        1 => vec![128],
        2 => vec![48, 40],
        _ => vec![12, 16, 20],
    }
}

/// Relative tolerance against the golden references, as in
/// `tests/full_pipeline.rs`: the generated kernels may sum neighbourhoods
/// in a different order than the loop nests.
fn close(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= 1e-4 * y.abs().max(1.0))
}

/// A valid configuration for a variant: the first usable candidate per
/// tunable (mirroring the tuner's degenerate-tile filter) plus small
/// launch sizes.
fn variant_config(tunables: &[Tunable], dims: usize) -> Option<Vec<(String, i64)>> {
    let mut cfg: Vec<(String, i64)> = Vec::new();
    for t in tunables {
        let cands = t.candidates(64);
        let v = match t {
            Tunable::TileSize { nbh_size, .. } => cands.into_iter().find(|u| *u >= nbh_size + 3)?,
            Tunable::CoarsenFactor { .. } => cands.into_iter().next()?,
        };
        cfg.push((t.var().to_string(), v));
    }
    cfg.push(("lx".into(), 8));
    if dims >= 2 {
        cfg.push(("ly".into(), 4));
    }
    if dims >= 3 {
        cfg.push(("lz".into(), 2));
    }
    Some(cfg)
}

/// Every Table-1 benchmark × variant × device: the simulated output
/// matches the golden reference, and the verifier and the run agree.
/// (The name predates the golden oracle; it is kept so the test keeps its
/// identity across the suite's history.)
#[test]
fn every_benchmark_variant_device_is_bit_identical_across_engines() {
    let devices: Vec<VirtualDevice> = DeviceProfile::all()
        .into_iter()
        .map(VirtualDevice::new)
        .collect();
    let mut compared = 0usize;
    for bench in suite() {
        let sizes = diff_sizes(bench.dims);
        let variants = Pipeline::from_benchmark(&bench, &sizes)
            .expect("pipeline")
            .explore()
            .expect("explores");
        let names: Vec<String> = variants.names().iter().map(|s| s.to_string()).collect();
        let raw_inputs = bench.gen_inputs(&sizes, 7);
        let golden = bench.golden(&raw_inputs, &sizes);
        let inputs: Vec<BufferData> = raw_inputs.into_iter().map(BufferData::F32).collect();
        for dev in &devices {
            for name in &names {
                let variant = variants.get(name).expect("listed variant");
                let Some(cfg) = variant_config(&variant.tunables, variant.dims) else {
                    continue;
                };
                let cfg_refs: Vec<(&str, i64)> =
                    cfg.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                let compiled = match variants.clone().on(dev).with_config(name, &cfg_refs) {
                    Ok(c) => c,
                    // Some (variant, device) pairs are legitimately
                    // unbuildable (local memory over budget, work-group
                    // limits); the sweep skips them, so do we.
                    Err(_) => continue,
                };
                let label = format!("{}/{name} on {}", bench.name, dev.profile().name);
                let findings = compiled.verify().expect("verifier runs");
                match dev.run(compiled.kernel(), &inputs, compiled.launch()) {
                    Ok(out) => {
                        // Anything that runs clean must also *prove* clean:
                        // the static verifier may never cry wolf on an
                        // executed benchmark kernel.
                        assert!(
                            findings.is_empty(),
                            "verifier findings on executed kernel {label}: {findings:?}"
                        );
                        assert!(
                            close(out.output.as_f32(), &golden),
                            "output differs from the golden reference for {label}"
                        );
                        compared += 1;
                    }
                    // And a kernel that proves clean must run: the verifier
                    // covers every fault the executor can raise here.
                    Err(e) => assert!(
                        !findings.is_empty(),
                        "{label} faulted ({e}) although the verifier found nothing"
                    ),
                }
            }
        }
    }
    assert!(
        compared >= 100,
        "expected a broad comparison matrix, only {compared} cells ran"
    );
}

/// Multi-step execution: `run_iterated` equals the golden reference
/// applied step by step, and equals host-rotated single launches bit for
/// bit. (Named before the golden oracle, like the matrix test above.)
#[test]
fn iterated_runs_are_bit_identical_across_engines() {
    let bench = suite()
        .into_iter()
        .find(|b| b.name == "Jacobi2D5pt")
        .expect("suite benchmark");
    let sizes = diff_sizes(2);
    let dev = VirtualDevice::new(DeviceProfile::k20c());
    let compiled = Pipeline::from_benchmark(&bench, &sizes)
        .expect("pipeline")
        .explore()
        .expect("explores")
        .on(&dev)
        .with_config("global", &[("lx", 8), ("ly", 4)])
        .expect("compiles");
    let raw_inputs = bench.gen_inputs(&sizes, 11);
    let inputs: Vec<BufferData> = raw_inputs.iter().cloned().map(BufferData::F32).collect();
    let steps = 3;

    let it = compiled
        .run_iterated(&inputs, steps, Rotation::SingleBuffer)
        .expect("runs");
    assert_eq!(it.steps, steps);

    let mut golden = raw_inputs;
    for _ in 0..steps {
        golden[0] = bench.golden(&golden, &sizes);
    }
    assert!(
        close(it.output.as_f32(), &golden[0]),
        "iterated output differs from {steps} golden steps"
    );

    // Rotate on the host, mirroring run_iterated's SingleBuffer policy.
    let mut state = inputs;
    let mut total = 0.0f64;
    for _ in 0..steps {
        let out = dev
            .run(compiled.kernel(), &state, compiled.launch())
            .expect("runs");
        total += out.time_s;
        state[0] = out.output;
    }
    assert_eq!(it.output, state[0], "iterated output != host-rotated runs");
    assert_eq!(
        it.time_s.to_bits(),
        total.to_bits(),
        "iterated modeled time != host-rotated runs"
    );
}

fn buf(name: &str, len: usize, is_output: bool) -> KernelParam {
    KernelParam {
        var: VarRef::fresh(name),
        elem: CType::Float,
        len,
        is_output,
    }
}

/// An unbound variable is rejected at plan-compile time, naming the kernel
/// and the statement, with the original fault as the `source()`.
#[test]
fn plan_compile_reports_unbound_variables_with_context() {
    let a = buf("A", 8, false);
    let out = buf("out", 8, true);
    let ghost = VarRef::fresh("ghost");
    let kernel = Kernel {
        name: "broken_kernel".into(),
        body: vec![CStmt::Store {
            buf: out.var.clone(),
            space: AddressSpace::Global,
            idx: CExpr::Int(0),
            value: CExpr::Var(ghost),
        }],
        params: vec![a, out],
        locals: vec![],
        user_funs: vec![],
    };
    let err = Plan::compile(&kernel).expect_err("must be rejected");
    let msg = err.to_string();
    assert!(
        msg.contains("broken_kernel") && msg.contains("store to `out`"),
        "context missing from: {msg}"
    );
    assert!(
        matches!(&err, SimError::PlanCompile { cause, .. }
            if matches!(**cause, SimError::UnboundVariable(_))),
        "wrong fault: {err:?}"
    );
    // The cause chains through std::error::Error::source.
    let src = std::error::Error::source(&err).expect("has a source");
    assert!(src.to_string().contains("ghost"), "source was: {src}");
}

/// A provable type mismatch (float literal as a buffer index) is rejected
/// at plan-compile time instead of mid-simulation.
#[test]
fn plan_compile_reports_provable_type_mismatches() {
    let a = buf("A", 8, false);
    let out = buf("out", 8, true);
    let kernel = Kernel {
        name: "bad_index".into(),
        body: vec![CStmt::Store {
            buf: out.var.clone(),
            space: AddressSpace::Global,
            idx: CExpr::Float(1.5),
            value: CExpr::Int(0),
        }],
        params: vec![a, out],
        locals: vec![],
        user_funs: vec![],
    };
    let err = Plan::compile(&kernel).expect_err("must be rejected");
    assert!(
        matches!(&err, SimError::PlanCompile { cause, .. }
            if matches!(**cause, SimError::TypeMismatch(_))),
        "wrong fault: {err:?}"
    );
    assert!(err.to_string().contains("bad_index"), "context: {err}");
}
