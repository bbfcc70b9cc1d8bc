//! `fig8-campaign`: the Figure-8 grid (Lift against PPCG, small and large
//! grids) through `lift-harness campaign fig8 --workers 2` with a
//! checkpoint. The one unit of work is a campaign in a fresh checkpoint
//! directory; its latencies are the shards' wall times as the campaign's
//! summary reports them.
//!
//! Sizing: a tuning budget of 2 evaluations per variant (the smallest at
//! which every cell finds a valid configuration) with cost-model guidance
//! off. At the default budget the campaign takes minutes, which no run of
//! the benchmark can hold. With guidance on, a campaign at budget 2 took
//! 74 s and 78 s, against 32 s and 40 s off, with the same merged
//! document (alternating runs on a 2-core VM): each fresh
//! search estimates its proposals before simulating two, and a cold
//! estimate costs more than the launches it saves. The estimate-guided
//! path is measured on `fig7-tune`. The campaign keeps the harness's
//! default seed:
//! at this budget each variant simulates one random configuration and its
//! neighbour, and the campaign's wall time ranged from 17.7 s to 26.6 s
//! over five tuning seeds, far wider than any regression bound. The
//! benchmark's seed instead draws the inputs every winner is re-validated
//! on.
//!
//! The benchmark frees its own copies of the grids while the campaign runs,
//! so the peak resident memory is the workers'; the check regenerates one
//! benchmark's grids at a time. It trusts nothing the campaign reports
//! about itself beyond the merged document and the checkpoint files: every Lift winner's
//! configuration is read back from the checkpoints, compiled afresh, run
//! and compared with the golden reference; its simulated time must equal
//! the recorded score, the winner must be the fastest recorded variant,
//! and each row's speedup must equal the recorded PPCG score over it.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use lift::lift_driver::ppcg_baseline;
use lift::lift_harness::report::{json_fig8, render_fig8};
use lift::lift_harness::Fig8Row;
use lift::lift_oclsim::{DeviceProfile, KernelStats, PlannedKernel, VirtualDevice};
use lift::lift_stencils::{by_name, fig8_names};
use lift::lift_tuner::json::Value;
use lift::lift_tuner::SearchState;
use lift::{KernelCache, TuneOptions};

use crate::common::{add_stats, launch_names, prepare, stats_line, Ctx, Prepared, Probe};
use crate::stats::{first_mismatch, fnv1a, median};
use crate::{CheckOut, UnitOut, Workload};

/// Tuner evaluations per variant inside the campaign.
const BUDGET: usize = 2;

pub struct Campaign {
    /// Campaigns run so far; each gets a directory of its own.
    runs: Cell<usize>,
}

impl Campaign {
    pub fn new() -> Self {
        Campaign {
            runs: Cell::new(0),
        }
    }
}

/// One Figure-8 grid cell, in the harness's work-list order.
pub struct Fig8Cell {
    prep: usize,
    dev: usize,
    size: &'static str,
}

pub struct Setup {
    preps: Vec<Prepared>,
    /// Whether the PPCG strategy can express each prepared program (the
    /// harness skips the cells it cannot).
    ppcg_ok: Vec<bool>,
    devs: Vec<VirtualDevice>,
    cells: Vec<Fig8Cell>,
    harness: PathBuf,
}

/// What one campaign left behind.
pub struct Ran {
    dir: PathBuf,
    doc: String,
    wall_ms: f64,
    shard_ms: Vec<f64>,
    checkpoint_bytes: u64,
}

/// One checkpointed search: its state and prune counters.
struct Entry {
    state: SearchState,
    pruned_verify: u64,
    pruned_model: u64,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let harness = ctx
        .harness
        .clone()
        .ok_or("fig8-campaign needs --harness <path to lift-harness>")?;
    if !harness.is_file() {
        return Err(format!("no lift-harness binary at {}", harness.display()));
    }
    let devs: Vec<VirtualDevice> = DeviceProfile::all()
        .into_iter()
        .map(VirtualDevice::new)
        .collect();
    let mut preps = Vec::new();
    let mut ppcg_ok = Vec::new();
    let mut index: HashMap<(&str, bool), usize> = HashMap::new();
    for name in fig8_names() {
        for large in [false, true] {
            let bench = by_name(name);
            // The campaign runs the harness's own sizes; smoke mode cannot
            // shrink them.
            let sizes = bench.size(large);
            let mut prep = prepare(ctx, preps.len(), &bench, &sizes)?;
            prep.unload();
            ppcg_ok.push(lift::lift_ppcg::compile(prep.set.pipeline().program()).is_ok());
            index.insert((name, large), preps.len());
            preps.push(prep);
        }
    }
    let mut cells = Vec::new();
    for (di, dev) in devs.iter().enumerate() {
        let is_arm = dev.profile().name.contains("Mali");
        for name in fig8_names() {
            for (size, large) in [("small", false), ("large", true)] {
                if large && is_arm {
                    continue;
                }
                cells.push(Fig8Cell {
                    prep: index[&(name, large)],
                    dev: di,
                    size,
                });
            }
        }
    }
    Ok(Setup {
        preps,
        ppcg_ok,
        devs,
        cells,
        harness,
    })
}

fn summary_value(dir: &Path) -> Result<Value, String> {
    let path = dir.join("summary.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one campaign; supervision problems are returned as failures.
fn run_campaign(ctx: &Ctx, s: &Setup, dir: &Path) -> Result<(Ran, Vec<String>), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let doc_path = dir.join("fig8.json");
    let stdout = std::fs::File::create(&doc_path).map_err(|e| e.to_string())?;
    let stderr = std::fs::File::create(dir.join("stderr.txt")).map_err(|e| e.to_string())?;
    let mut cmd = Command::new(&s.harness);
    cmd.args(["campaign", "fig8", "--workers", "2", "--summary"])
        .arg(dir.join("summary.json"))
        .env("LIFT_CHECKPOINT", dir.join("ck.json"))
        .env("LIFT_TUNE_BUDGET", BUDGET.to_string())
        .env("LIFT_COST_PRUNE", "off")
        .env("TMPDIR", dir)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr);
    let t = Instant::now();
    let status = ctx
        .tracer
        .span("harness.campaign", 0, || cmd.status())
        .map_err(|e| format!("cannot start {}: {e}", s.harness.display()))?;
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut failures = Vec::new();
    if !status.success() {
        let err = std::fs::read_to_string(dir.join("stderr.txt")).unwrap_or_default();
        failures.push(format!("campaign exited with {status}: {}", err.trim()));
    }
    let summary = summary_value(dir)?;
    if summary.get("complete").and_then(Value::as_bool) != Some(true) {
        failures.push("campaign summary is not complete".into());
    }
    let missing = summary
        .get("missing_cells")
        .and_then(Value::as_arr)
        .map_or(1, <[Value]>::len);
    if missing != 0 {
        failures.push(format!("campaign reports {missing} missing cell(s)"));
    }
    let retries = summary.get("total_retries").and_then(Value::as_u64);
    if retries != Some(0) {
        failures.push(format!("campaign retried shards ({retries:?})"));
    }
    let shard_ms: Vec<f64> = summary
        .get("shards")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|sh| sh.get("wall_ms").and_then(Value::as_f64))
        .collect();
    let mut checkpoint_bytes = 0;
    for e in std::fs::read_dir(dir).map_err(|e| e.to_string())?.flatten() {
        if e.file_name().to_string_lossy().starts_with("ck.json.shard") {
            checkpoint_bytes += e.metadata().map_or(0, |m| m.len());
        }
    }
    let doc = std::fs::read_to_string(&doc_path).map_err(|e| e.to_string())?;
    Ok((
        Ran {
            dir: dir.to_path_buf(),
            doc,
            wall_ms,
            shard_ms,
            checkpoint_bytes,
        },
        failures,
    ))
}

/// Every search recorded in the campaign's shard checkpoints.
fn read_checkpoints(dir: &Path) -> Result<HashMap<String, Entry>, String> {
    let mut out = HashMap::new();
    for e in std::fs::read_dir(dir).map_err(|e| e.to_string())?.flatten() {
        if !e.file_name().to_string_lossy().starts_with("ck.json.shard") {
            continue;
        }
        let text = std::fs::read_to_string(e.path()).map_err(|err| err.to_string())?;
        let doc = Value::parse(&text).map_err(|err| format!("{}: {err}", e.path().display()))?;
        let Some(Value::Obj(entries)) = doc.get("entries") else {
            return Err(format!("{}: no entries", e.path().display()));
        };
        for (key, v) in entries {
            let state = v
                .get("state")
                .ok_or_else(|| format!("{key}: no state"))
                .and_then(|st| SearchState::from_json(st).map_err(|err| format!("{key}: {err}")))?;
            let count = |f: &str| v.get(f).and_then(Value::as_u64).unwrap_or(0);
            out.insert(
                key.clone(),
                Entry {
                    state,
                    pruned_verify: count("pruned_verify"),
                    pruned_model: count("pruned_model"),
                },
            );
        }
    }
    Ok(out)
}

fn describe_cell(prep: &Prepared, dev: &VirtualDevice, cell: &Fig8Cell) -> String {
    format!(
        "{} on {} ({})",
        prep.bench.name,
        dev.profile().name,
        cell.size
    )
}

fn cell_key(prep: &Prepared, dev: &VirtualDevice, variant: &str) -> String {
    let sizes: Vec<String> = prep.sizes.iter().map(usize::to_string).collect();
    format!(
        "{}@{}@{}#{variant}",
        prep.bench.name,
        dev.profile().name,
        sizes.join("x")
    )
}

/// A Figure-8 row as the merged document carries it.
struct Row {
    bench: String,
    device: String,
    size: String,
    speedup: f64,
    variant: String,
    tiled: bool,
}

fn parse_rows(doc: &str) -> Result<Vec<Row>, String> {
    let v = Value::parse(doc).map_err(|e| format!("merged fig8 document: {e}"))?;
    let rows = v.as_arr().ok_or("merged fig8 document is not an array")?;
    rows.iter()
        .map(|r| {
            let s = |k: &str| {
                r.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("fig8 row without `{k}`"))
            };
            Ok(Row {
                bench: s("bench")?,
                device: s("device")?,
                size: s("size")?,
                speedup: r
                    .get("speedup")
                    .and_then(Value::as_f64)
                    .ok_or("fig8 row without speedup")?,
                variant: s("lift_variant")?,
                tiled: r
                    .get("lift_tiled")
                    .and_then(Value::as_bool)
                    .ok_or("fig8 row without lift_tiled")?,
            })
        })
        .collect()
}

/// The winning Lift configuration of one cell, read from the checkpoints.
struct Winner {
    variant: String,
    config: Vec<(String, i64)>,
    score: f64,
    evals_to_best: u64,
}

fn winner_of(
    prep: &Prepared,
    dev: &VirtualDevice,
    entries: &HashMap<String, Entry>,
) -> Option<Winner> {
    let mut best: Option<Winner> = None;
    for v in prep.set.variants() {
        let Some(e) = entries.get(&cell_key(prep, dev, &v.name)) else {
            continue;
        };
        let Some(b) = &e.state.best else { continue };
        // Strictly faster only: the tuner keeps the earliest variant on ties.
        if best.as_ref().is_some_and(|w| w.score <= b.score) {
            continue;
        }
        let names = v
            .tunables
            .iter()
            .map(|t| t.var().to_string())
            .chain(launch_names(v.dims).iter().map(|n| n.to_string()));
        let evals_to_best = e
            .state
            .trace
            .iter()
            .position(|c| c.score == b.score)
            .map_or(e.state.trace.len(), |i| i + 1) as u64;
        best = Some(Winner {
            variant: v.name.clone(),
            config: names.zip(b.values.iter().copied()).collect(),
            score: b.score,
            evals_to_best,
        });
    }
    best
}

impl Workload for Campaign {
    type Setup = Setup;
    type Unit = Ran;

    fn setup_reps(&self) -> usize {
        15
    }

    fn setup(&self, ctx: &Ctx) -> Result<Setup, String> {
        setup(ctx)
    }

    fn units(&self, _: &Setup) -> usize {
        1
    }

    fn run_unit(&self, ctx: &Ctx, s: &Setup, _: usize) -> Result<(UnitOut, Ran), String> {
        let n = self.runs.get();
        self.runs.set(n + 1);
        let dir = ctx.work_dir.join("campaign").join(format!("run-{n}"));
        let (ran, failures) = run_campaign(ctx, s, &dir)?;
        let mut out = UnitOut {
            attempted: 1,
            failures,
            ..UnitOut::default()
        };
        out.latencies_ms.extend(&ran.shard_ms);
        out.fingerprint.push(format!(
            "fig8 document {:016x}, {} bytes",
            fnv1a(ran.doc.as_bytes()),
            ran.doc.len()
        ));
        Ok((out, ran))
    }

    fn check(&self, ctx: &Ctx, s: &Setup, ran: &[Ran]) -> Result<CheckOut, String> {
        let ran = &ran[0];
        let tr = &ctx.tracer;
        let mut out = CheckOut::default();
        let rows = parse_rows(&ran.doc)?;
        let entries = read_checkpoints(&ran.dir)?;
        let expected: Vec<&Fig8Cell> = s.cells.iter().filter(|c| s.ppcg_ok[c.prep]).collect();
        out.attempted += 1;
        if rows.len() != expected.len() {
            out.failures.push(format!(
                "fig8 document has {} rows, the PPCG-expressible grid {}",
                rows.len(),
                expected.len()
            ));
        }
        // Re-render the rows in-process: the report layer must reproduce
        // the merged document byte for byte.
        let fig8_rows: Vec<Fig8Row> = rows
            .iter()
            .map(|r| Fig8Row {
                bench: r.bench.clone(),
                device: r.device.clone(),
                size: if r.size == "large" { "large" } else { "small" },
                speedup: r.speedup,
                lift_variant: r.variant.clone(),
                lift_tiled: r.tiled,
            })
            .collect();
        let (json, _text) = tr.span("harness.render", 0, || {
            (json_fig8(&fig8_rows), render_fig8(&fig8_rows))
        });
        out.attempted += 1;
        if json != ran.doc {
            out.failures
                .push("re-rendered fig8 document differs from the campaign's".into());
        }
        // Rows against the grid and the checkpoints, in document order;
        // the winners to re-run are grouped by benchmark and size.
        let mut e2b = 0u64;
        let mut to_run: Vec<Vec<(usize, &Fig8Cell, Winner)>> =
            s.preps.iter().map(|_| Vec::new()).collect();
        for (i, (cell, row)) in expected.iter().zip(&rows).enumerate() {
            let prep = &s.preps[cell.prep];
            let dev = &s.devs[cell.dev];
            let what = describe_cell(prep, dev, cell);
            out.attempted += 1;
            if (row.bench.as_str(), row.device.as_str(), row.size.as_str())
                != (prep.bench.name, dev.profile().name, cell.size)
            {
                out.failures.push(format!(
                    "row {i} is {} on {} ({}), expected {what}",
                    row.bench, row.device, row.size
                ));
                continue;
            }
            let Some(w) = winner_of(prep, dev, &entries) else {
                out.failures
                    .push(format!("{what}: no checkpointed Lift result"));
                continue;
            };
            if w.variant != row.variant {
                out.failures.push(format!(
                    "{what}: document names {} but the checkpoints' fastest variant is {}",
                    row.variant, w.variant
                ));
            }
            let ppcg = entries
                .get(&cell_key(prep, dev, "ppcg"))
                .and_then(|e| e.state.best.as_ref())
                .map(|b| b.score);
            if ppcg.map(|p| (p / w.score).to_bits()) != Some(row.speedup.to_bits()) {
                out.failures.push(format!(
                    "{what}: speedup {} does not equal the recorded PPCG score {ppcg:?} over {}",
                    row.speedup, w.score
                ));
            }
            e2b += w.evals_to_best;
            out.gelems
                .push(prep.bench.out_elements(&prep.sizes) as f64 / w.score / 1e9);
            to_run[cell.prep].push((i, cell, w));
        }
        // The independent re-run, with one benchmark's grids in memory at
        // a time.
        let mut sum = KernelStats::default();
        let (mut bytes, mut instrs) = (0u64, 0u64);
        for (p, winners) in to_run.iter().enumerate() {
            if winners.is_empty() {
                continue;
            }
            let prep = s.preps[p].reloaded(ctx, p);
            for (i, cell, w) in winners {
                let dev = &s.devs[cell.dev];
                let what = describe_cell(&prep, dev, cell);
                let params: Vec<(&str, i64)> =
                    w.config.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                let compiled = prep
                    .set
                    .clone()
                    .on(dev)
                    .with_cache(Arc::new(KernelCache::new()))
                    .with_config(&w.variant, &params)
                    .map_err(|e| format!("{what}: compiling the winner: {e}"))?;
                let run = match tr.span("oclsim.run", *i, || compiled.run(&prep.inputs)) {
                    Ok(r) => r,
                    Err(e) => {
                        out.failures
                            .push(format!("{what}: re-running the winner: {e}"));
                        continue;
                    }
                };
                if let Some(k) = first_mismatch(run.output.as_f32(), &prep.golden) {
                    out.failures.push(format!(
                        "{what}: winner output differs from the golden reference at element {k}"
                    ));
                }
                if run.time_s.to_bits() != w.score.to_bits() {
                    out.failures.push(format!(
                        "{what}: re-run models {} s but the checkpoint recorded {} s",
                        run.time_s, w.score
                    ));
                }
                add_stats(&mut sum, &run.stats);
                bytes += compiled.source().len() as u64;
                let plan = PlannedKernel::from_arc(compiled.kernel().clone())
                    .plan()
                    .map_err(|e| format!("{what}: planning the winner: {e}"))?;
                instrs += plan.instructions() as u64;
                out.fingerprint
                    .push(format!("{what}: {} {:?}", w.variant, w.config));
            }
        }
        let (mut evals, mut sims, mut pv, mut pm) = (0u64, 0u64, 0u64, 0u64);
        for e in entries.values() {
            evals += e.state.evaluations as u64;
            sims += e.state.trace.len() as u64;
            pv += e.pruned_verify;
            pm += e.pruned_model;
        }
        out.fingerprint.push(format!(
            "winners: source {bytes} B, plan {instrs} instrs, stats {}; searches {} evals {evals} sims {sims} pv {pv} pm {pm} e2b {e2b}",
            stats_line(&sum),
            entries.len()
        ));
        let slowest = ran.shard_ms.iter().copied().fold(0.0, f64::max);
        let mid = median(&ran.shard_ms).unwrap_or(0.0);
        let variants: usize = s.preps.iter().map(|p| p.set.variants().len()).sum();
        let l = &mut out.layer;
        l.insert("rewrite.variants", variants as f64);
        l.insert("driver.evaluations", evals as f64);
        l.insert("driver.sims", sims as f64);
        l.insert("driver.pruned_verify", pv as f64);
        l.insert("driver.pruned_model", pm as f64);
        l.insert("driver.evals_to_best", e2b as f64);
        l.insert("driver.checkpoint_bytes", ran.checkpoint_bytes as f64);
        l.insert("harness.campaign_shard_s", mid / 1e3);
        l.insert(
            "harness.campaign_imbalance",
            if mid > 0.0 { slowest / mid } else { 0.0 },
        );
        l.insert("harness.campaign_overhead_ms", ran.wall_ms - slowest);
        Ok(out)
    }

    fn probe(
        &self,
        ctx: &Ctx,
        s: &Setup,
        ran: &[Ran],
        layer: &mut BTreeMap<&'static str, f64>,
    ) -> Probe {
        let ran = &ran[0];
        let mut probe = Probe::default();
        let entries = match read_checkpoints(&ran.dir) {
            Ok(e) => e,
            Err(e) => {
                probe.failures.push(e);
                return probe;
            }
        };
        // One benchmark's grids in memory at a time, as in the check.
        for p in (0..s.preps.len()).filter(|p| s.ppcg_ok[*p]) {
            let cells: Vec<(usize, &Fig8Cell)> = s
                .cells
                .iter()
                .enumerate()
                .filter(|(_, c)| c.prep == p)
                .collect();
            let prep = s.preps[p].reloaded(ctx, p);
            for (i, cell) in cells {
                let dev = &s.devs[cell.dev];
                if let Some(w) = winner_of(&prep, dev, &entries) {
                    probe.kernel(ctx, i, &prep, dev, &w.variant, &w.config);
                }
                // The PPCG baseline in-process, with the campaign's settings
                // (default seed): it must land on the score the worker
                // recorded.
                probe.kernels += 1;
                let opts = TuneOptions::evaluations(BUDGET)
                    .with_threads(1)
                    .with_cost_prune("off");
                let got = ctx.tracer.span("ppcg.baseline", i, || {
                    ppcg_baseline(&prep.bench, &prep.sizes, dev, opts)
                });
                let want = entries
                    .get(&cell_key(&prep, dev, "ppcg"))
                    .and_then(|e| e.state.best.as_ref())
                    .map(|b| b.score.to_bits());
                match got {
                    Ok(t) if Some(t.time_s.to_bits()) == want => {}
                    Ok(t) => probe.failures.push(format!(
                        "{}: in-process PPCG tuning gives {} s, the campaign recorded {want:?}",
                        describe_cell(&prep, dev, cell),
                        t.time_s
                    )),
                    Err(e) => probe.failures.push(format!(
                        "{} PPCG baseline: {e}",
                        describe_cell(&prep, dev, cell)
                    )),
                }
            }
        }
        // The kernel-cache figures stay 0 here: the campaign's caches live
        // in its worker processes, which do not report them.
        probe.metrics(layer);
        probe
    }
}
