//! `fig7-tune`: the Figure-7 benchmarks tuned through
//! `DeviceSession::tune_full` with default settings, one thread, a cold
//! kernel cache per cell, plus each cell's hand-written reference kernel.
//!
//! The units of work are the cells of one diagonal of the 6 × 3 grid: each
//! Figure-7 benchmark once, benchmark `j` on device profile `j mod 3`, so
//! every profile hosts two cells. The whole grid (~80 s) does not fit one
//! run; a run tunes the diagonal's cells in turn for as long as it lasts
//! (one pass and part of a second), so `wall_s`, the sum of the cells'
//! median times, is the time of one pass over the diagonal.
//!
//! Tuning keeps the default seed, so every run does the same search; over
//! benchmark seeds the search's winners and time varied (one seed in seven
//! moved the geomean). The benchmark's seed draws the inputs every winner
//! is re-validated on and the reference kernel runs on.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use lift::lift_driver::reference_baseline;
use lift::lift_harness::report::render_fig7;
use lift::lift_harness::Fig7Row;
use lift::lift_oclsim::{DeviceProfile, KernelStats, PlannedKernel, VirtualDevice};
use lift::lift_stencils::{by_name, fig7_names};
use lift::{KernelCache, TuneOptions, TuneOutcome, TunedVariant};

use crate::common::{add_stats, prepare, stats_line, Ctx, Prepared, Probe};
use crate::stats::{first_mismatch, fnv1a};
use crate::{CheckOut, UnitOut, Workload};

pub struct Fig7;

pub struct Setup {
    preps: Vec<Prepared>,
    cells: Vec<Cell>,
}

pub struct Cell {
    prep: usize,
    dev: VirtualDevice,
}

/// One tuned cell: the outcome and the reference row, or the error.
pub struct Tuned {
    outcome: Result<(TuneOutcome, TunedVariant), String>,
    compiles: u64,
    hits: u64,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let names = fig7_names();
    let preps = names
        .iter()
        .enumerate()
        .map(|(j, name)| {
            let bench = by_name(name);
            let sizes = ctx.sizes(&bench, false);
            prepare(ctx, j, &bench, &sizes)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let profiles = DeviceProfile::all();
    let cells = (0..names.len())
        .map(|j| Cell {
            prep: j,
            dev: VirtualDevice::new(profiles[j % profiles.len()].clone()),
        })
        .collect();
    Ok(Setup { preps, cells })
}

fn describe(t: &TunedVariant) -> String {
    format!(
        "{} {:?} t={:016x} evals={} sims={} pv={} pm={} e2b={}",
        t.name,
        t.config,
        t.time_s.to_bits(),
        t.evaluations,
        t.sims,
        t.pruned_verify,
        t.pruned_model,
        t.evals_to_best
    )
}

impl Workload for Fig7 {
    type Setup = Setup;
    type Unit = Tuned;

    fn setup_reps(&self) -> usize {
        41
    }

    fn setup(&self, ctx: &Ctx) -> Result<Setup, String> {
        setup(ctx)
    }

    fn units(&self, s: &Setup) -> usize {
        s.cells.len()
    }

    fn run_unit(&self, ctx: &Ctx, s: &Setup, j: usize) -> Result<(UnitOut, Tuned), String> {
        let tr = &ctx.tracer;
        let mut out = UnitOut::default();
        let c = &s.cells[j];
        let prep = &s.preps[c.prep];
        let cache = Arc::new(KernelCache::new());
        let session = prep.set.clone().on(&c.dev).with_cache(cache.clone());
        let opts = TuneOptions::default().with_threads(1);
        let t = Instant::now();
        let outcome = tr.span("driver.tune", j, || session.tune_full(opts));
        out.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let stats = tr.span("driver.cache_stats", j, || cache.stats());
        let what = format!("{} on {}", prep.bench.name, c.dev.profile().name);
        let outcome = outcome
            .map_err(|e| format!("tuning {what}: {e}"))
            .and_then(|o| {
                let r = tr.span("driver.reference", j, || {
                    reference_baseline(&prep.bench, &prep.sizes, &c.dev, ctx.seed)
                });
                r.map(|r| (o, r))
                    .map_err(|e| format!("reference kernel {what}: {e}"))
            });
        out.attempted += 1;
        match &outcome {
            Ok((o, r)) => {
                let mut line = format!("{what}: winner {}", describe(&o.report.winner));
                for v in &o.report.all {
                    line.push_str(&format!(" | {}", describe(v)));
                }
                line.push_str(&format!(
                    " | reference t={:016x} | cache {}/{}",
                    r.time_s.to_bits(),
                    stats.compiles,
                    stats.hits
                ));
                out.fingerprint.push(line);
            }
            Err(e) => {
                out.fingerprint.push(format!("{what}: failed"));
                out.failures.push(e.clone());
            }
        }
        let tuned = Tuned {
            outcome,
            compiles: stats.compiles,
            hits: stats.hits,
        };
        Ok((out, tuned))
    }

    fn check(&self, ctx: &Ctx, s: &Setup, tuned: &[Tuned]) -> Result<CheckOut, String> {
        let tr = &ctx.tracer;
        let mut out = CheckOut::default();
        // The Figure-7 rows as the harness renders them.
        let rows: Vec<Fig7Row> = tuned
            .iter()
            .zip(&s.cells)
            .filter_map(|(t, c)| {
                let (o, r) = t.outcome.as_ref().ok()?;
                Some(Fig7Row {
                    bench: s.preps[c.prep].bench.name.to_string(),
                    device: c.dev.profile().name.to_string(),
                    lift_gelems: o.report.winner.gelems_per_s,
                    reference_gelems: r.gelems_per_s,
                    lift_variant: o.report.winner.name.clone(),
                    lift_tiled: o.report.winner.tiled,
                })
            })
            .collect();
        let text = tr.span("harness.render", 0, || render_fig7(&rows));
        out.fingerprint
            .push(format!("render {:016x}", fnv1a(text.as_bytes())));
        let mut sum = KernelStats::default();
        let (mut evals, mut sims, mut pv, mut pm, mut e2b) = (0u64, 0u64, 0u64, 0u64, 0u64);
        let (mut compiles, mut hits) = (0u64, 0u64);
        let (mut bytes, mut instrs) = (0u64, 0u64);
        for (j, (c, t)) in s.cells.iter().zip(tuned).enumerate() {
            let prep = &s.preps[c.prep];
            compiles += t.compiles;
            hits += t.hits;
            let Ok((o, _)) = &t.outcome else { continue };
            let what = format!("{} on {}", prep.bench.name, c.dev.profile().name);
            for v in &o.report.all {
                evals += v.evaluations as u64;
                sims += v.sims as u64;
                pv += v.pruned_verify as u64;
                pm += v.pruned_model as u64;
            }
            e2b += o.report.winner.evals_to_best as u64;
            out.gelems.push(o.report.winner.gelems_per_s);
            // The independent re-run: the winner through the public run
            // call, against the benchmark's own golden reference.
            out.attempted += 1;
            let run = tr.span("oclsim.run", j, || o.winner.run(&prep.inputs));
            let run = match run {
                Ok(r) => r,
                Err(e) => {
                    out.failures
                        .push(format!("re-running the {what} winner: {e}"));
                    continue;
                }
            };
            if let Some(i) = first_mismatch(run.output.as_f32(), &prep.golden) {
                out.failures.push(format!(
                    "{what}: winner output differs from the golden reference at element {i}"
                ));
            }
            if run.time_s.to_bits() != o.report.winner.time_s.to_bits() {
                out.failures.push(format!(
                    "{what}: re-run models {} s but tuning reported {} s",
                    run.time_s, o.report.winner.time_s
                ));
            }
            add_stats(&mut sum, &run.stats);
            bytes += o.winner.source().len() as u64;
            let plan = PlannedKernel::from_arc(o.winner.kernel().clone())
                .plan()
                .map_err(|e| format!("{what}: planning the winner: {e}"))?;
            instrs += plan.instructions() as u64;
        }
        let variants: usize = s.preps.iter().map(|p| p.set.variants().len()).sum();
        out.fingerprint.push(format!(
            "winners: source {bytes} B, plan {instrs} instrs, stats {}",
            stats_line(&sum)
        ));
        let l = &mut out.layer;
        l.insert("rewrite.variants", variants as f64);
        l.insert("driver.evaluations", evals as f64);
        l.insert("driver.sims", sims as f64);
        l.insert("driver.pruned_verify", pv as f64);
        l.insert("driver.pruned_model", pm as f64);
        l.insert("driver.evals_to_best", e2b as f64);
        l.insert("driver.cache_compiles", compiles as f64);
        l.insert("driver.cache_hits", hits as f64);
        Ok(out)
    }

    fn probe(
        &self,
        ctx: &Ctx,
        s: &Setup,
        tuned: &[Tuned],
        layer: &mut BTreeMap<&'static str, f64>,
    ) -> Probe {
        let mut probe = Probe::default();
        for (j, (c, t)) in s.cells.iter().zip(tuned).enumerate() {
            let prep = &s.preps[c.prep];
            let Ok((o, _)) = &t.outcome else { continue };
            for v in &o.report.all {
                probe.kernel(ctx, j, prep, &c.dev, &v.name, &v.config);
            }
        }
        probe.metrics(layer);
        probe
    }
}
