//! `perfbench`: the measuring program behind the repository benchmark.
//!
//! ```text
//! perfbench --workload <fig7-tune|fig8-campaign> --seed <n>
//!           --seconds <s> --trace <0|1> --work-dir <dir>
//!           [--harness <lift-harness binary>] [--smoke]
//! ```
//!
//! Normally started by `perfbench/run.py`, which builds it, adds the peak
//! resident memory of the processes that did the work and prints the
//! result line. A run sets its workload up several times (the median is
//! `setup_s`), then measures the workload's units of work in turn, every
//! unit at least once and more while the next still fits in `--seconds`,
//! then checks every output against an independent oracle. The last line
//! of standard output is a JSON object: `correct`, `attempted`, `failed`
//! and `metrics`, each metric's value by name (end-to-end metrics, or with
//! `--trace 1` per-layer ones); `run.py` adds the units from
//! `BENCHMARK.json`.
//!
//! A traced run measures every unit once untraced and then once more
//! inside spans around every call into a layer, and adds a layer probe;
//! the difference is the tracing overhead, and both passes must describe
//! their results identically. Spans are written as Chrome trace-event
//! JSON to `<work-dir>/trace-<workload>.json`.

#![forbid(unsafe_code)]

mod campaign;
mod common;
mod fig7;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use common::{Ctx, Probe};
use stats::{fnv1a, geomean, median, tail};
use trace::Tracer;

/// What one run of a unit of work measured.
#[derive(Default)]
pub struct UnitOut {
    /// Latency of each user-facing call, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// One deterministic line per item: identical in every run of the
    /// unit.
    pub fingerprint: Vec<String>,
    /// Items attempted.
    pub attempted: u64,
    /// Why items failed.
    pub failures: Vec<String>,
}

/// What the oracle check after the measured phase found.
#[derive(Default)]
pub struct CheckOut {
    /// Checks attempted.
    pub attempted: u64,
    /// Why checks failed.
    pub failures: Vec<String>,
    /// Deterministic lines describing the checked results.
    pub fingerprint: Vec<String>,
    /// Modelled throughput of each tuned winner.
    pub gelems: Vec<f64>,
    /// Deterministic per-layer counts.
    pub layer: BTreeMap<&'static str, f64>,
    /// Remarks printed with the result.
    pub notes: Vec<String>,
}

/// A benchmark workload: set-up, its units of measured work, the oracle
/// check of the units' results, and the layer probe of a traced run. The
/// check and the probe see the first result of every unit, in unit order.
pub trait Workload {
    type Setup;
    type Unit;
    /// Set-ups per untraced run (a traced run makes the first half);
    /// `setup_s` is their median.
    fn setup_reps(&self) -> usize;
    fn setup(&self, ctx: &Ctx) -> Result<Self::Setup, String>;
    /// Distinct units of work; the measured phase runs them in order,
    /// starting over after the last.
    fn units(&self, setup: &Self::Setup) -> usize;
    fn run_unit(
        &self,
        ctx: &Ctx,
        setup: &Self::Setup,
        unit: usize,
    ) -> Result<(UnitOut, Self::Unit), String>;
    fn check(
        &self,
        ctx: &Ctx,
        setup: &Self::Setup,
        units: &[Self::Unit],
    ) -> Result<CheckOut, String>;
    fn probe(
        &self,
        ctx: &Ctx,
        setup: &Self::Setup,
        units: &[Self::Unit],
        layer: &mut BTreeMap<&'static str, f64>,
    ) -> Probe;
}

/// Per-layer metrics that are the median duration of a span, by span
/// name. Every other per-layer metric is a value the workload or the run
/// computes; names and units are those of `BENCHMARK.json`, and `run.py`
/// reads 0 for a layer the workload does not exercise.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("core.typecheck_ms", "core.typecheck"),
    ("rewrite.explore_ms", "rewrite.explore"),
    ("codegen.compile_ms", "codegen.compile"),
    ("oclsim.plan_ms", "oclsim.plan"),
    ("oclsim.verify_ms", "oclsim.verify"),
    ("oclsim.estimate_ms", "oclsim.estimate"),
    ("oclsim.run_ms", "oclsim.run"),
    ("driver.tune_ms", "driver.tune"),
    ("stencils.inputs_ms", "stencils.inputs"),
    ("stencils.golden_ms", "stencils.golden"),
    ("driver.reference_ms", "driver.reference"),
    ("ppcg.baseline_ms", "ppcg.baseline"),
    ("harness.render_ms", "harness.render"),
];

const WORKLOADS: [&str; 2] = ["fig7-tune", "fig8-campaign"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    work_dir: PathBuf,
    harness: Option<PathBuf>,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         --work-dir <dir> [--harness <path>] [--smoke]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut work_dir, mut harness, mut smoke) = (None, None, false);
    while let Some(a) = it.next() {
        if a == "--smoke" {
            smoke = true;
            continue;
        }
        let Some(v) = it.next() else {
            usage(&format!("`{a}` needs a value"))
        };
        match a.as_str() {
            "--workload" => workload = Some(v),
            "--seed" => {
                seed = Some(
                    v.parse()
                        .unwrap_or_else(|_| usage("--seed needs an integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage("--seconds needs a positive number")),
                )
            }
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace needs 0 or 1"),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(v)),
            "--harness" => harness = Some(PathBuf::from(v)),
            _ => usage(&format!("unknown argument `{a}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        smoke,
        work_dir: work_dir.unwrap_or_else(|| usage("--work-dir is required")),
        harness,
    }
}

/// One timed run of a unit of work.
struct Sample {
    unit: usize,
    out: UnitOut,
    /// Seconds.
    took: f64,
}

/// Everything a run produced, before it is printed.
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    /// `(name, value, note)` in print order.
    metrics: Vec<(&'static str, f64, String)>,
    /// Lines printed but not part of the result object.
    extra: Vec<String>,
}

fn first_difference(a: &[String], b: &[String]) -> String {
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => format!("item {i}: `{}` vs `{}`", a[i], b[i]),
        None => format!("{} vs {} items", a.len(), b.len()),
    }
}

/// Digest of the code under test: this program's binary and the harness
/// binary it drives. Runs of different code never share a determinism
/// record, so a change that legitimately alters the recorded results
/// starts a record of its own.
fn code_key(harness: Option<&Path>) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let mut bytes = Vec::new();
    for path in std::iter::once(exe.as_path()).chain(harness) {
        bytes.extend(std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    Ok(fnv1a(&bytes))
}

/// Compares this run's deterministic description with the one an earlier
/// run of the same code, workload and seed stored, or stores it. Returns
/// the record's path and the first difference, if any.
fn cross_run_check(
    ctx: &Ctx,
    workload: &str,
    lines: &[String],
) -> Result<(PathBuf, Option<String>), String> {
    let dir = ctx.work_dir.join("fingerprints");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mode = if ctx.smoke { "-smoke" } else { "" };
    let path = dir.join(format!(
        "{workload}-seed{}{mode}-code{:016x}.txt",
        ctx.seed, ctx.code_key
    ));
    let text = lines.join("\n") + "\n";
    let diff = match std::fs::read_to_string(&path) {
        Ok(prev) if prev == text => None,
        Ok(prev) => {
            let prev: Vec<String> = prev.lines().map(str::to_string).collect();
            Some(format!(
                "results differ from an earlier run of the same code with seed {} ({}): {}",
                ctx.seed,
                path.display(),
                first_difference(&prev, lines)
            ))
        }
        Err(_) => {
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
            None
        }
    };
    Ok((path, diff))
}

fn describe_samples(xs: &[f64]) -> String {
    match tail(xs) {
        Some((p, v)) => format!("n={}, p{p}={v:.4}", xs.len()),
        None => format!("n={}", xs.len()),
    }
}

fn drive<W: Workload>(w: &W, ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    let tr = &ctx.tracer;
    // Set-up, several times (setup_s is the median): half before the
    // measured phase, the last of which it uses (and a traced run traces),
    // and in an untraced run the other half at its end, so that setup_s
    // samples the host's speed at both ends of the run. Both modes set up
    // equally often before the measured phase: generated source names
    // variables with process-wide counters, so the kernels' source bytes
    // depend on how much the process compiled before them.
    let reps = w.setup_reps();
    let before = reps.div_ceil(2);
    let mut setup_s = Vec::new();
    let mut setup = None;
    for rep in 0..before {
        drop(setup.take()); // free the previous set-up before building the next
        tr.set_enabled(ctx.trace && rep + 1 == before);
        let t = Instant::now();
        setup = Some(w.setup(ctx)?);
        setup_s.push(t.elapsed().as_secs_f64());
        tr.set_enabled(false);
    }
    let setup = setup.expect("at least one set-up");

    // Measured phase: the units in turn, every one at least once, then
    // more while the next, judged by its slowest run so far, still ends
    // within the time. A traced run measures every unit once untraced and
    // once traced.
    let n_units = w.units(&setup);
    let started = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    let mut firsts: Vec<W::Unit> = Vec::new();
    let mut slowest = vec![0.0f64; n_units];
    loop {
        let unit = samples.len() % n_units;
        let t = Instant::now();
        let (out, payload) = w.run_unit(ctx, &setup, unit)?;
        let took = t.elapsed().as_secs_f64();
        slowest[unit] = slowest[unit].max(took);
        if firsts.len() == unit {
            firsts.push(payload);
        }
        samples.push(Sample { unit, out, took });
        let next = samples.len() % n_units;
        if samples.len() >= n_units
            && (ctx.trace || started.elapsed().as_secs_f64() + slowest[next] > ctx.seconds)
        {
            break;
        }
    }
    let mut traced = Vec::new();
    if ctx.trace {
        tr.set_enabled(true);
        for unit in 0..n_units {
            let t = Instant::now();
            let (out, _) = tr.span("bench.unit", unit, || w.run_unit(ctx, &setup, unit))?;
            traced.push(Sample {
                unit,
                out,
                took: t.elapsed().as_secs_f64(),
            });
        }
    }

    // Every run of a unit, traced or not, must describe its results as
    // the unit's first run did.
    let mut attempted = 0;
    let mut failures = Vec::new();
    let first: Vec<&[String]> = samples[..n_units]
        .iter()
        .map(|x| x.out.fingerprint.as_slice())
        .collect();
    let all_runs = samples
        .iter()
        .map(|x| (x, "untraced"))
        .chain(traced.iter().map(|x| (x, "traced")));
    for (i, (x, kind)) in all_runs.enumerate() {
        attempted += x.out.attempted;
        failures.extend(x.out.failures.iter().cloned());
        if x.out.fingerprint != first[x.unit] {
            failures.push(format!(
                "nondeterminism: {kind} run {i} of unit {} differs from its first run: {}",
                x.unit,
                first_difference(first[x.unit], &x.out.fingerprint)
            ));
        }
    }

    // The oracle check (spans still on in a traced run).
    let check = w.check(ctx, &setup, &firsts)?;
    attempted += check.attempted;
    failures.extend(check.failures.iter().cloned());
    let mut lines: Vec<String> = first.concat();
    lines.extend(check.fingerprint.iter().cloned());
    let geo = geomean(&check.gelems);
    lines.push(format!(
        "winner_gelems_geomean {:016x}",
        geo.unwrap_or(0.0).to_bits()
    ));
    attempted += 1;
    let (record, diff) = cross_run_check(ctx, workload, &lines)?;
    if let Some(diff) = diff {
        failures.push(format!("nondeterminism: {diff}"));
    }

    if !ctx.trace {
        for _ in before..reps {
            let t = Instant::now();
            drop(w.setup(ctx)?);
            setup_s.push(t.elapsed().as_secs_f64());
        }
    }

    let mut extra: Vec<String> = check.notes.iter().map(|n| format!("  note: {n}")).collect();
    extra.push(format!("  determinism record: {}", record.display()));
    let metrics = if !ctx.trace {
        // Per unit, the median of its runs: `wall_s` adds them up (the
        // time of one pass over every unit). `latency_ms_p50`, the median
        // of the units' median latencies, is printed but not a result
        // metric: on `fig7-tune` it is the time of the one or two cells in
        // the middle, and it spread past any bound the sum holds.
        let mut walls = Vec::new();
        let mut unit_latencies = Vec::new();
        let mut runs_per_unit = Vec::new();
        for unit in 0..n_units {
            let runs: Vec<&Sample> = samples.iter().filter(|x| x.unit == unit).collect();
            let took: Vec<f64> = runs.iter().map(|x| x.took).collect();
            let lat: Vec<f64> = runs
                .iter()
                .flat_map(|x| x.out.latencies_ms.iter().copied())
                .collect();
            walls.push(median(&took).unwrap_or(0.0));
            unit_latencies.push(median(&lat).unwrap_or(0.0));
            runs_per_unit.push(runs.len());
        }
        let latencies: Vec<f64> = samples
            .iter()
            .flat_map(|x| x.out.latencies_ms.iter().copied())
            .collect();
        let geo = geo.ok_or_else(|| {
            "no tuned winner to take a throughput from".to_string()
        })?;
        extra.push(format!(
            "  latency_ms_p50            {:.4} ms (median of {} unit medians, n={})",
            median(&unit_latencies).unwrap_or(0.0),
            unit_latencies.len(),
            latencies.len()
        ));
        extra.push(format!(
            "  latency_ms_tail           {}",
            match tail(&latencies) {
                Some((p, v)) => format!("{v:.4} ms (p{p}, n={})", latencies.len()),
                None => format!("n/a (n={} < 20)", latencies.len()),
            }
        ));
        extra.push(format!(
            "  measured phase: {:.2} s, {} unit run(s), runs per unit {runs_per_unit:?}",
            samples.iter().map(|x| x.took).sum::<f64>(),
            samples.len()
        ));
        vec![
            (
                "setup_s",
                median(&setup_s).unwrap_or(0.0),
                format!("median of {} set-ups", setup_s.len()),
            ),
            (
                "wall_s",
                walls.iter().sum(),
                format!("sum of the unit medians {walls:.2?}"),
            ),
            (
                "winner_gelems_geomean",
                geo,
                format!(
                    "simulated, {} kernels; the model has no hardware reference",
                    check.gelems.len()
                ),
            ),
        ]
    } else {
        let mut layer = check.layer.clone();
        let probe = w.probe(ctx, &setup, &firsts, &mut layer);
        tr.set_enabled(false);
        attempted += probe.kernels;
        failures.extend(probe.failures.iter().cloned());
        let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        layer.insert(
            "driver.sim_share",
            ratio(
                get(&layer, "driver.sims"),
                get(&layer, "driver.evaluations"),
            ),
        );
        let (compiles, hits) = (
            get(&layer, "driver.cache_compiles"),
            get(&layer, "driver.cache_hits"),
        );
        layer.insert("driver.cache_hit_ratio", ratio(hits, hits + compiles));
        let untraced: f64 = samples.iter().map(|x| x.took).sum();
        let traced_wall: f64 = traced.iter().map(|x| x.took).sum();
        layer.insert("trace.overhead_ms", (traced_wall - untraced) * 1e3);
        extra.push(format!(
            "  tracing overhead: {:.1} ms over {} unit(s) ({:.3}% of {:.3} s untraced)",
            (traced_wall - untraced) * 1e3,
            n_units,
            ratio(traced_wall - untraced, untraced) * 100.0,
            untraced
        ));
        let trace_path = ctx.work_dir.join(format!("trace-{workload}.json"));
        std::fs::write(&trace_path, tr.chrome_json())
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        extra.push(format!(
            "  trace: {} ({} spans)",
            trace_path.display(),
            tr.spans().len()
        ));
        extra.push("  self time per span (count, total ms, self ms):".into());
        for (name, t) in tr.layer_times() {
            extra.push(format!(
                "    {name:28} {:6} {:12.3} {:12.3}",
                t.count, t.total_ms, t.self_ms
            ));
        }
        let spans = SPAN_METRICS.iter().map(|(name, span)| {
            let xs = tr.durations_ms(span);
            (*name, median(&xs).unwrap_or(0.0), describe_samples(&xs))
        });
        let values = layer.into_iter().map(|(name, v)| (name, v, String::new()));
        spans.chain(values).collect()
    };
    Ok(Outcome {
        attempted,
        failures,
        metrics,
        extra,
    })
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// This process's own peak resident memory in MiB (`VmHWM`; 0 where
/// `/proc` is missing). `run.py` compares it with the peak of the whole
/// process tree to tell which process set that.
fn own_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn main() {
    // Settings reach the program only through this benchmark's arguments.
    for (k, _) in std::env::vars() {
        if k.starts_with("LIFT_") {
            std::env::remove_var(k);
        }
    }
    let args = parse_args();
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: {}: {e}", args.work_dir.display());
        std::process::exit(1);
    }
    let code_key = match code_key(args.harness.as_deref()) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        code_key,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        work_dir: args.work_dir,
        harness: args.harness,
        tracer: Tracer::new(),
    };
    let outcome = match args.workload.as_str() {
        "fig7-tune" => drive(&fig7::Fig7, &ctx, &args.workload),
        _ => drive(&campaign::Campaign::new(), &ctx, &args.workload),
    };
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for f in o.failures.iter().take(50) {
        eprintln!("perfbench: FAILED: {f}");
    }
    let failed = o.failures.len() as u64;
    println!(
        "perfbench {} seed={} trace={}: {} attempted, {} failed",
        args.workload, ctx.seed, ctx.trace as u8, o.attempted, failed
    );
    for (name, value, note) in &o.metrics {
        println!("  {name:26} {value:>14.4}  {note}");
    }
    if !ctx.trace {
        println!(
            "  {:26} {:>14.4}  fraction, {failed} of {}",
            "error_rate",
            failed as f64 / o.attempted.max(1) as f64,
            o.attempted
        );
    }
    for line in &o.extra {
        println!("{line}");
    }
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, _)| format!("\"{name}\": {}", json_num(*value)))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}, \"own_peak_rss_mb\": {}}}",
        failed == 0,
        o.attempted.max(1),
        metrics.join(", "),
        json_num(own_peak_rss_mb())
    );
    std::process::exit(if failed == 0 { 0 } else { 1 });
}
