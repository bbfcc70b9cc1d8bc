//! Experiment drivers reproducing the paper's evaluation (§6–§7).
//!
//! All orchestration lives in `lift-driver`'s staged [`Pipeline`] API —
//! this crate only iterates the benchmark × device grid, collects rows and
//! renders them ([`report`]) as text or JSON (`--json` on the binary).
//!
//! Environment knobs (all optional):
//!
//! * `LIFT_TUNE_BUDGET` — evaluations per (variant, device); default 10.
//! * `LIFT_TUNE_THREADS` — worker threads for the sweep and the tuner
//!   (also settable with the binary's `--threads N` flag); default 1.
//!   Threading changes wall-clock only: any thread count reproduces the
//!   sequential results bit-for-bit for the same seed.
//! * `LIFT_CHECKPOINT` — tuning checkpoint file (also settable with the
//!   binary's `--checkpoint PATH` flag); resuming an interrupted run from
//!   it reproduces the uninterrupted output bit-for-bit. Each process
//!   needs its own file.
//! * `LIFT_CHECKPOINT_EVERY` — applied tells between checkpoint writes;
//!   default 16.
//! * `LIFT_FULL_SIZES=1` — use the paper's original grid sizes (slow).
//! * `LIFT_SEED` — experiment seed; default 2018 (the CGO year).
//!
//! Sweeps also shard across *processes*: `--shard i/n` runs the cells
//! with `index % n == i` and prints a partial report, `lift-harness merge
//! <parts…>` recombines a complete set byte-identically to the
//! single-process `--json` document, and `campaign <experiment> --workers
//! n` does both in one supervised command. See [`experiments::Shard`],
//! [`report::merge_parts`] and [`campaign`].

#![forbid(unsafe_code)]

pub mod campaign;
pub mod compare;
pub mod experiments;
pub mod model;
pub mod perf;
pub mod report;

pub use campaign::{run_campaign, CampaignOptions, CampaignReport};
pub use compare::compare_docs;
pub use experiments::{
    ablation, ablation_shard, ablation_with, bench_one, bench_shard, experiment_cells, fig7,
    fig7_shard, fig7_with, fig8, fig8_shard, fig8_with, table1, validate_shard, verify_sweep,
    verify_sweep_with, AblationRow, BenchRow, Fig7Row, Fig8Row, Shard, ShardRows, Table1Row,
    VerifyRow, ABLATION_BENCHES,
};
pub use lift_driver::{BenchResult, LiftError, Pipeline, TunedVariant};
pub use lift_tuner::parallel_map;
pub use model::{model_report, model_report_with, ModelReport};
pub use report::{merge_available, merge_parts};

/// The tuning budget per variant/device pair.
pub fn tune_budget() -> usize {
    std::env::var("LIFT_TUNE_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10)
}

/// The experiment seed.
pub fn seed() -> u64 {
    std::env::var("LIFT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2018)
}

/// Worker threads for the benchmark sweep and the tuner
/// (`LIFT_TUNE_THREADS`, default 1 = fully sequential). Delegates to the
/// driver's resolver so the sweep fan-out and the tuner always agree on
/// the effective count.
pub fn threads() -> usize {
    lift_driver::TuneOptions::default().resolved_threads()
}
