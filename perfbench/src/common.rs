//! Pieces every workload shares: the run context, the layer calls that
//! set a cell up (inputs, golden output, typed program, explored
//! variants), and the layer probe.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use lift::lift_oclsim::{BufferData, KernelStats, PlannedKernel, VirtualDevice};
use lift::lift_stencils::Benchmark;
use lift::{KernelCache, Pipeline, VariantSet};

use crate::stats::{first_mismatch, median};
use crate::trace::Tracer;

/// Command-line settings plus the span recorder.
pub struct Ctx {
    /// Seed for inputs, configuration draws and tuning.
    pub seed: u64,
    /// Digest of the binaries under test; keys the determinism records.
    pub code_key: u64,
    /// Seconds the measured phase runs for (whole units of work, every
    /// unit at least once).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny grids, for the smoke test.
    pub smoke: bool,
    /// Scratch directory for checkpoints, traces and fingerprints.
    pub work_dir: PathBuf,
    /// The `lift-harness` binary (campaign workload only).
    pub harness: Option<PathBuf>,
    /// Spans of the traced run.
    pub tracer: Tracer,
}

impl Ctx {
    /// The grid a benchmark runs at: its own size, or a tiny one in smoke
    /// mode (every extent capped at 18, enough for the widest stencil and
    /// the smallest tile).
    pub fn sizes(&self, bench: &Benchmark, large: bool) -> Vec<usize> {
        let sizes = bench.size(large);
        if self.smoke {
            sizes.iter().map(|s| (*s).min(18)).collect()
        } else {
            sizes
        }
    }
}

/// One benchmark at one size, set up through the layers' public calls.
pub struct Prepared {
    pub bench: Benchmark,
    pub sizes: Vec<usize>,
    pub inputs: Vec<BufferData>,
    pub golden: Vec<f32>,
    pub set: VariantSet,
}

/// Generates a benchmark's inputs and golden output, each inside its
/// layer's span.
fn grids(
    ctx: &Ctx,
    cell: usize,
    bench: &Benchmark,
    sizes: &[usize],
) -> (Vec<BufferData>, Vec<f32>) {
    let tr = &ctx.tracer;
    let inputs: Vec<BufferData> = tr.span("stencils.inputs", cell, || {
        bench
            .gen_inputs(sizes, ctx.seed)
            .into_iter()
            .map(BufferData::F32)
            .collect()
    });
    let golden = tr.span("stencils.golden", cell, || {
        let raw: Vec<Vec<f32>> = inputs.iter().map(|b| b.as_f32().to_vec()).collect();
        bench.golden(&raw, sizes)
    });
    (inputs, golden)
}

/// Generates inputs and the golden output, builds and type-checks the
/// program and explores its variants, each inside its layer's span.
pub fn prepare(
    ctx: &Ctx,
    cell: usize,
    bench: &Benchmark,
    sizes: &[usize],
) -> Result<Prepared, String> {
    let tr = &ctx.tracer;
    let (inputs, golden) = grids(ctx, cell, bench, sizes);
    let pipeline = tr
        .span("core.typecheck", cell, || {
            Pipeline::from_benchmark(bench, sizes)
        })
        .map_err(|e| format!("{}: {e}", bench.name))?;
    let set = tr
        .span("rewrite.explore", cell, || pipeline.explore())
        .map_err(|e| format!("{}: {e}", bench.name))?;
    Ok(Prepared {
        bench: bench.clone(),
        sizes: sizes.to_vec(),
        inputs,
        golden,
        set,
    })
}

impl Prepared {
    /// Frees the inputs and the golden output.
    pub fn unload(&mut self) {
        self.inputs = Vec::new();
        self.golden = Vec::new();
    }

    /// A copy with the inputs and golden output generated afresh (the same
    /// seed gives the same grids).
    pub fn reloaded(&self, ctx: &Ctx, cell: usize) -> Prepared {
        let (inputs, golden) = grids(ctx, cell, &self.bench, &self.sizes);
        Prepared {
            bench: self.bench.clone(),
            sizes: self.sizes.clone(),
            inputs,
            golden,
            set: self.set.clone(),
        }
    }
}

/// The launch-parameter names a tuner search appends after the variant's
/// tunables, by grid rank.
pub fn launch_names(dims: usize) -> &'static [&'static str] {
    match dims {
        1 => &["lx"],
        2 => &["lx", "ly"],
        _ => &["lx", "ly", "lz"],
    }
}

/// The counters of a run, in one line (bit-exact fields only).
pub fn stats_line(s: &KernelStats) -> String {
    format!(
        "ld={} st={} ldtx={} sttx={} seg={} lmem={} alu={} div={} bar={} wi={} wg={} wgs={} lb={}",
        s.global_loads,
        s.global_stores,
        s.load_transactions,
        s.store_transactions,
        s.unique_segments,
        s.local_accesses,
        s.alu_ops,
        s.divergence_ops,
        s.barriers,
        s.work_items,
        s.work_groups,
        s.wg_size,
        s.local_bytes_per_group
    )
}

/// Field-wise sum of the public counters.
pub fn add_stats(acc: &mut KernelStats, s: &KernelStats) {
    acc.global_loads += s.global_loads;
    acc.global_stores += s.global_stores;
    acc.load_transactions += s.load_transactions;
    acc.store_transactions += s.store_transactions;
    acc.unique_segments += s.unique_segments;
    acc.local_accesses += s.local_accesses;
    acc.alu_ops += s.alu_ops;
    acc.divergence_ops += s.divergence_ops;
    acc.barriers += s.barriers;
    acc.work_items += s.work_items;
    acc.work_groups += s.work_groups;
    acc.wg_size += s.wg_size;
    acc.local_bytes_per_group += s.local_bytes_per_group;
}

/// Per-kernel results of the layer probe.
#[derive(Default)]
pub struct Probe {
    /// Generated source bytes, summed.
    pub source_bytes: u64,
    /// Plan instructions, summed.
    pub plan_instructions: u64,
    /// Estimate time ÷ run time, per kernel.
    pub estimate_per_run: Vec<f64>,
    /// Host nanoseconds per simulated work-item, per kernel.
    pub run_ns_per_item: Vec<f64>,
    /// Kernels probed.
    pub kernels: u64,
    /// Kernels whose probe failed (compile, verify, run or golden).
    pub failures: Vec<String>,
}

impl Probe {
    /// Takes one configuration through a cold cache, then plan, verify,
    /// estimate, run and the golden comparison, each in its own span.
    pub fn kernel(
        &mut self,
        ctx: &Ctx,
        cell: usize,
        prep: &Prepared,
        dev: &VirtualDevice,
        variant: &str,
        config: &[(String, i64)],
    ) {
        self.kernels += 1;
        let what = format!(
            "{} on {} {variant} {config:?}",
            prep.bench.name,
            dev.profile().name
        );
        if let Err(e) = self.kernel_inner(ctx, cell, prep, dev, variant, config) {
            self.failures.push(format!("probe {what}: {e}"));
        }
    }

    fn kernel_inner(
        &mut self,
        ctx: &Ctx,
        cell: usize,
        prep: &Prepared,
        dev: &VirtualDevice,
        variant: &str,
        config: &[(String, i64)],
    ) -> Result<(), String> {
        let tr = &ctx.tracer;
        let params: Vec<(&str, i64)> = config.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let compiled = tr
            .span("codegen.compile", cell, || {
                prep.set
                    .clone()
                    .on(dev)
                    .with_cache(Arc::new(KernelCache::new()))
                    .with_config(variant, &params)
            })
            .map_err(|e| e.to_string())?;
        self.source_bytes += compiled.source().len() as u64;
        // A fresh wrapper around the compiled AST: its plan, verify and
        // estimate memos start empty, so each call below does the work.
        let pk = PlannedKernel::from_arc(compiled.kernel().clone());
        let launch = compiled.launch();
        let plan = tr
            .span("oclsim.plan", cell, || pk.plan())
            .map_err(|e| e.to_string())?;
        self.plan_instructions += plan.instructions() as u64;
        let findings = tr
            .span("oclsim.verify", cell, || pk.verify(launch, dev.profile()))
            .map_err(|e| e.to_string())?;
        if !findings.is_empty() {
            return Err(format!("{} verifier finding(s)", findings.len()));
        }
        let t = Instant::now();
        tr.span("oclsim.estimate", cell, || {
            pk.estimate(launch, dev.profile())
        })
        .map_err(|e| e.to_string())?;
        let est_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let out = tr
            .span("oclsim.run", cell, || {
                dev.run_planned(&pk, &prep.inputs, launch)
            })
            .map_err(|e| e.to_string())?;
        let run_s = t.elapsed().as_secs_f64();
        self.estimate_per_run.push(est_s / run_s);
        self.run_ns_per_item
            .push(run_s * 1e9 / out.stats.work_items.max(1) as f64);
        let bad = tr.span("check.golden", cell, || {
            first_mismatch(out.output.as_f32(), &prep.golden)
        });
        match bad {
            Some(i) => Err(format!(
                "output differs from the golden reference at element {i}"
            )),
            None => Ok(()),
        }
    }

    /// The probe's per-layer values.
    pub fn metrics(&self, out: &mut BTreeMap<&'static str, f64>) {
        out.insert("codegen.source_bytes", self.source_bytes as f64);
        out.insert("oclsim.plan_instructions", self.plan_instructions as f64);
        out.insert(
            "oclsim.estimate_per_run",
            median(&self.estimate_per_run).unwrap_or(0.0),
        );
        out.insert(
            "oclsim.run_ns_per_item",
            median(&self.run_ns_per_item).unwrap_or(0.0),
        );
    }
}
