//! Differential suite for the static cost model.
//!
//! The model's value rests on two properties, each pinned here:
//!
//! 1. **Exactness** — on kernels whose control flow and addressing never
//!    depend on buffer contents (every generated stencil qualifies), the
//!    statically predicted [`KernelStats`] equal the executor-measured
//!    ones **bit for bit**, and so does the modeled time. This is checked
//!    across every Table-1 benchmark × explored variant × device profile.
//! 2. **Conservatism** — where control flow *is* data-dependent the
//!    estimate flips `exact` off and only ever over-counts: predicted
//!    traffic and ALU work bound the measured ones from above.

use lift_codegen::clike::{
    AddressSpace, BinOp, CExpr, CStmt, CType, Kernel, KernelParam, VarRef, WorkItemFn,
};
use lift_driver::Pipeline;
use lift_oclsim::{
    BufferData, DeviceProfile, KernelStats, LaunchConfig, PlannedKernel, VirtualDevice,
};
use lift_rewrite::Tunable;
use lift_stencils::suite;
use lift_tuner::SplitMix64;

fn diff_sizes(dims: usize) -> Vec<usize> {
    match dims {
        1 => vec![128],
        2 => vec![48, 40],
        _ => vec![12, 16, 20],
    }
}

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

/// Extra launches drawn per (benchmark, variant, device): random work-group
/// shapes — most not multiples of a warp, so groups straddle 128-byte
/// segments — over grids they rarely divide, leaving guarded partial
/// groups on the high edges.
const DRAWS_PER_CELL: usize = 2;

fn drawn_config(
    tunables: &[Tunable],
    dims: usize,
    rng: &mut SplitMix64,
) -> Option<Vec<(String, i64)>> {
    let mut cfg: Vec<(String, i64)> = Vec::new();
    for t in tunables {
        let cands = t.candidates(64);
        if cands.is_empty() {
            return None;
        }
        cfg.push((t.var().to_string(), cands[rng.gen_range(cands.len())]));
    }
    cfg.push(("lx".into(), 1 + rng.gen_range(40) as i64));
    if dims >= 2 {
        cfg.push(("ly".into(), 1 + rng.gen_range(7) as i64));
    }
    if dims >= 3 {
        cfg.push(("lz".into(), 1 + rng.gen_range(3) as i64));
    }
    Some(cfg)
}

/// Every Table-1 benchmark × variant × device, at one fixed configuration
/// plus [`DRAWS_PER_CELL`] seeded random ones: the static estimate is
/// exact and every stats counter — and therefore the modeled time —
/// matches the measured `run_planned` bit for bit, and the estimate
/// refuses exactly the launches the run faults on.
#[test]
fn estimates_are_bit_exact_on_every_benchmark_variant_device() {
    let devices: Vec<VirtualDevice> = DeviceProfile::all()
        .into_iter()
        .map(VirtualDevice::new)
        .collect();
    let mut rng = SplitMix64::new(0x5eed_c0de);
    let (mut compared, mut drawn) = (0usize, 0usize);
    for bench in suite() {
        let sizes = diff_sizes(bench.dims);
        let variants = Pipeline::from_benchmark(&bench, &sizes)
            .expect("pipeline")
            .explore()
            .expect("explores");
        let names: Vec<String> = variants.names().iter().map(|s| s.to_string()).collect();
        let inputs: Vec<BufferData> = bench
            .gen_inputs(&sizes, 7)
            .into_iter()
            .map(BufferData::F32)
            .collect();
        for dev in &devices {
            for name in &names {
                let variant = variants.get(name).expect("listed variant");
                let mut configs: Vec<Vec<(String, i64)>> = Vec::new();
                configs.extend(variant_config(&variant.tunables, variant.dims));
                for _ in 0..DRAWS_PER_CELL {
                    configs.extend(drawn_config(&variant.tunables, variant.dims, &mut rng));
                }
                for (k, cfg) in configs.iter().enumerate() {
                    let cfg_refs: Vec<(&str, i64)> =
                        cfg.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                    let compiled = match variants.clone().on(dev).with_config(name, &cfg_refs) {
                        Ok(c) => c,
                        Err(_) => continue,
                    };
                    let label = format!(
                        "{}/{name} on {} with {cfg:?} ({:?})",
                        bench.name,
                        dev.profile().name,
                        compiled.launch()
                    );
                    let planned = PlannedKernel::from_arc(compiled.kernel().clone());
                    let measured = dev.run_planned(&planned, &inputs, compiled.launch());
                    let est = planned.estimate(compiled.launch(), dev.profile());
                    let (measured, est) = match (measured, est) {
                        (Ok(m), Ok(e)) => (m, e),
                        (Err(_), Err(_)) => continue,
                        (m, e) => panic!(
                            "estimate and run disagree on faulting for {label}: run {:?}, estimate {:?}",
                            m.err(),
                            e.err()
                        ),
                    };
                    assert!(est.exact, "stencil kernel not statically exact: {label}");
                    assert_eq!(
                        est.stats, measured.stats,
                        "static stats diverge from measured for {label}"
                    );
                    assert_eq!(
                        est.time(dev.profile()).to_bits(),
                        measured.time_s.to_bits(),
                        "modeled times diverge for {label}: {} vs {}",
                        est.time(dev.profile()),
                        measured.time_s
                    );
                    // Memoisation returns the identical Arc.
                    let again = planned
                        .estimate(compiled.launch(), dev.profile())
                        .expect("cached estimate");
                    assert!(
                        std::sync::Arc::ptr_eq(&est, &again),
                        "cache miss for {label}"
                    );
                    compared += 1;
                    drawn += (k > 0) as usize;
                }
            }
        }
    }
    assert!(
        compared >= 600 && drawn >= 400,
        "expected a broad comparison matrix, only {compared} cells ran ({drawn} drawn)"
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

/// A kernel whose branch condition depends on buffer *contents*: the
/// model cannot know which arm runs, so it must flip `exact` off and
/// charge an upper bound on every counter the branch can influence.
#[test]
fn data_dependent_branches_only_overestimate() {
    let a = buf("A", 64, false);
    let out = buf("out", 64, true);
    let gid = VarRef::fresh("gid");
    let kernel = Kernel {
        name: "data_branch".into(),
        body: vec![
            CStmt::DeclScalar {
                var: gid.clone(),
                ty: CType::Int,
                init: Some(CExpr::WorkItem(WorkItemFn::GlobalId, 0)),
            },
            CStmt::If {
                // `A[gid] < A[0]` is unknowable without data.
                cond: CExpr::Bin(
                    BinOp::Lt,
                    Box::new(CExpr::Load {
                        buf: a.var.clone(),
                        space: AddressSpace::Global,
                        idx: Box::new(CExpr::Var(gid.clone())),
                    }),
                    Box::new(CExpr::Load {
                        buf: a.var.clone(),
                        space: AddressSpace::Global,
                        idx: Box::new(CExpr::Int(0)),
                    }),
                ),
                then_: vec![CStmt::Store {
                    buf: out.var.clone(),
                    space: AddressSpace::Global,
                    idx: CExpr::Var(gid.clone()),
                    value: CExpr::Bin(
                        BinOp::Add,
                        Box::new(CExpr::Load {
                            buf: a.var.clone(),
                            space: AddressSpace::Global,
                            idx: Box::new(CExpr::Var(gid.clone())),
                        }),
                        Box::new(CExpr::Float(1.0)),
                    ),
                }],
                else_: vec![CStmt::Store {
                    buf: out.var.clone(),
                    space: AddressSpace::Global,
                    idx: CExpr::Var(gid.clone()),
                    value: CExpr::Float(0.0),
                }],
            },
        ],
        params: vec![a, out],
        locals: vec![],
        user_funs: vec![],
    };
    let cfg = LaunchConfig {
        global: [64, 1, 1],
        local: [16, 1, 1],
    };
    let dev = VirtualDevice::new(DeviceProfile::k20c());
    let inputs = vec![BufferData::F32(
        (0..64).map(|i| (i % 7) as f32 - 3.0).collect(),
    )];
    let measured = dev.run(&kernel, &inputs, cfg).expect("runs");
    let planned = PlannedKernel::new(kernel);
    let est = planned.estimate(cfg, dev.profile()).expect("estimates");
    assert!(!est.exact, "a data-dependent branch cannot be exact");
    let over = |what: &str, e: u64, m: u64| {
        assert!(e >= m, "{what} underestimated: static {e} < measured {m}");
    };
    let (e, m): (&KernelStats, &KernelStats) = (&est.stats, &measured.stats);
    over("global_loads", e.global_loads, m.global_loads);
    over("global_stores", e.global_stores, m.global_stores);
    over(
        "load_transactions",
        e.load_transactions,
        m.load_transactions,
    );
    over(
        "store_transactions",
        e.store_transactions,
        m.store_transactions,
    );
    over("unique_segments", e.unique_segments, m.unique_segments);
    over("local_accesses", e.local_accesses, m.local_accesses);
    over("alu_ops", e.alu_ops, m.alu_ops);
    over("barriers", e.barriers, m.barriers);
    assert!(
        est.time(dev.profile()) >= measured.time_s,
        "modeled time underestimated"
    );
    // The inexact path replays every group as it always has: the bound
    // itself is pinned, not just its direction.
    assert_eq!(
        *e,
        KernelStats {
            global_loads: 192,
            global_stores: 128,
            load_transactions: 12,
            store_transactions: 8,
            unique_segments: 4,
            local_accesses: 0,
            alu_ops: 256,
            divergence_ops: 128,
            barriers: 0,
            work_items: 64,
            work_groups: 4,
            wg_size: 16,
            local_bytes_per_group: 0,
        }
    );
    // The launch-shape counters are not control-flow dependent and stay
    // exact even on the inexact path.
    assert_eq!(e.work_items, m.work_items);
    assert_eq!(e.work_groups, m.work_groups);
    assert_eq!(e.wg_size, m.wg_size);
}

/// A loop whose bound comes out of a buffer defeats static analysis: the
/// estimate must refuse (`SimError::Estimate`), not guess or hang.
#[test]
fn data_dependent_loop_bounds_refuse_cleanly() {
    let a = buf("A", 8, false);
    let out = buf("out", 8, true);
    let i = VarRef::fresh("i");
    let n = VarRef::fresh("n");
    let kernel = Kernel {
        name: "data_loop".into(),
        body: vec![
            CStmt::DeclScalar {
                var: n.clone(),
                ty: CType::Int,
                init: Some(CExpr::Cast(
                    CType::Int,
                    Box::new(CExpr::Load {
                        buf: a.var.clone(),
                        space: AddressSpace::Global,
                        idx: Box::new(CExpr::Int(0)),
                    }),
                )),
            },
            CStmt::For {
                var: i.clone(),
                init: CExpr::Int(0),
                bound: CExpr::Var(n.clone()),
                step: CExpr::Int(1),
                body: vec![CStmt::Store {
                    buf: out.var.clone(),
                    space: AddressSpace::Global,
                    idx: CExpr::Int(0),
                    value: CExpr::Float(1.0),
                }],
            },
        ],
        params: vec![a, out],
        locals: vec![],
        user_funs: vec![],
    };
    let cfg = LaunchConfig {
        global: [8, 1, 1],
        local: [8, 1, 1],
    };
    let planned = PlannedKernel::new(kernel);
    let err = planned
        .estimate(cfg, &DeviceProfile::k20c())
        .expect_err("must refuse");
    assert!(
        matches!(err, lift_oclsim::SimError::Estimate(_)),
        "wrong fault: {err:?}"
    );
    assert!(
        err.to_string().contains("cost estimate unavailable"),
        "message: {err}"
    );
}

/// The memory counters an oracle below derives by hand.
#[derive(Debug, PartialEq)]
struct Traffic {
    global_loads: u64,
    global_stores: u64,
    load_transactions: u64,
    store_transactions: u64,
    unique_segments: u64,
    work_groups: u64,
}

fn traffic(s: &KernelStats) -> Traffic {
    Traffic {
        global_loads: s.global_loads,
        global_stores: s.global_stores,
        load_transactions: s.load_transactions,
        store_transactions: s.store_transactions,
        unique_segments: s.unique_segments,
        work_groups: s.work_groups,
    }
}

/// Estimates and runs `kernel` on the 32-wide K20c and checks both
/// against the hand-derived `expected` counts.
fn assert_traffic(kernel: Kernel, cfg: LaunchConfig, expected: Traffic) {
    let dev = VirtualDevice::new(DeviceProfile::k20c());
    assert_eq!(dev.profile().warp_width, 32);
    let inputs: Vec<BufferData> = kernel
        .params
        .iter()
        .filter(|p| !p.is_output)
        .map(|p| BufferData::F32((0..p.len).map(|i| i as f32).collect()))
        .collect();
    let planned = PlannedKernel::new(kernel);
    let est = planned.estimate(cfg, dev.profile()).expect("estimates");
    assert!(est.exact);
    assert_eq!(traffic(&est.stats), expected, "estimate at {cfg:?}");
    let run = dev.run_planned(&planned, &inputs, cfg).expect("runs");
    assert_eq!(traffic(&run.stats), expected, "run at {cfg:?}");
}

fn load(a: &KernelParam, idx: CExpr) -> CExpr {
    CExpr::Load {
        buf: a.var.clone(),
        space: AddressSpace::Global,
        idx: Box::new(idx),
    }
}

fn add(a: CExpr, b: CExpr) -> CExpr {
    CExpr::Bin(BinOp::Add, Box::new(a), Box::new(b))
}

/// `out[i] = A[max(i-1, 0)] + A[i] + A[min(i+1, 95)]` over 96 floats.
fn clamp_3pt_96() -> Kernel {
    let (a, out) = (buf("A", 96, false), buf("out", 96, true));
    let i = VarRef::fresh("i");
    let at = |idx: CExpr| load(&a, idx);
    let value = add(
        add(
            at(CExpr::max(
                CExpr::sub(CExpr::Var(i.clone()), CExpr::Int(1)),
                CExpr::Int(0),
            )),
            at(CExpr::Var(i.clone())),
        ),
        at(CExpr::min(
            CExpr::add(CExpr::Var(i.clone()), CExpr::Int(1)),
            CExpr::Int(95),
        )),
    );
    Kernel {
        name: "clamp_3pt".into(),
        body: vec![
            CStmt::DeclScalar {
                var: i.clone(),
                ty: CType::Int,
                init: Some(CExpr::WorkItem(WorkItemFn::GlobalId, 0)),
            },
            CStmt::Store {
                buf: out.var.clone(),
                space: AddressSpace::Global,
                idx: CExpr::Var(i),
                value,
            },
        ],
        params: vec![a, out],
        locals: vec![],
        user_funs: vec![],
    }
}

/// Hand-derived counts for a 1D 3-point clamp stencil at warp 32.
///
/// `A` holds 96 floats = 384 bytes = segments 0–2; `out` starts at the
/// next segment boundary, byte 384 = segment 3, and spans segments 3–5.
/// Element `i` of `A` sits at byte `4i`, in segment `⌊4i / 128⌋`. Each
/// group is one warp (32 or 24 lanes); its three loads are ordinals 0–2
/// of the one store statement, and each ordinal costs one transaction per
/// distinct segment its lanes touch.
#[test]
fn hand_counted_clamp_3pt_1d() {
    // lx = 32: groups g = 0..3 cover i = 32g..32g+31.
    //   A[i-1]: g0 i 0,0..30 = bytes 0..123  -> seg 0        1
    //           g1 31..62    = bytes 124..251 -> segs 0,1    2
    //           g2 63..94    = bytes 252..379 -> segs 1,2    2
    //   A[i]:   g0/g1/g2 exactly segment g                   1+1+1
    //   A[i+1]: g0 1..32     = bytes 4..131   -> segs 0,1    2
    //           g1 33..64    = bytes 132..259 -> segs 1,2    2
    //           g2 65..95,95 = bytes 260..383 -> seg 2       1
    //   load transactions 5 + 3 + 5 = 13; loads 3·96 = 288.
    //   out[i]: group g writes exactly segment 3+g: 3 transactions.
    //   Segments touched: A 0–2 and out 3–5 = 6.
    assert_traffic(
        clamp_3pt_96(),
        LaunchConfig::d1(96, 32),
        Traffic {
            global_loads: 288,
            global_stores: 96,
            load_transactions: 13,
            store_transactions: 3,
            unique_segments: 6,
            work_groups: 3,
        },
    );
    // lx = 24: groups g = 0..4 cover i = 24g..24g+23 = bytes 96g..96g+95,
    // so the middle two groups straddle a segment boundary.
    //   A[i]:   g0 0..95 -> seg 0 (1); g1 96..191 -> 0,1 (2);
    //           g2 192..287 -> 1,2 (2); g3 288..383 -> 2 (1)      6
    //   A[i-1]: g0 0,0..22 = 0..91 -> 0 (1); g1 23..46 = 92..187 -> 0,1
    //           (2); g2 47..70 = 188..283 -> 1,2 (2); g3 71..94 =
    //           284..379 -> 2 (1)                                   6
    //   A[i+1]: g0 1..24 = 4..99 -> 0 (1); g1 25..48 = 100..195 -> 0,1
    //           (2); g2 49..72 = 196..291 -> 1,2 (2); g3 73..95,95 =
    //           292..383 -> 2 (1)                                   6
    //   load transactions 18.
    //   out[i] = bytes 384+96g..: g0 seg 3 (1); g1 3,4 (2); g2 4,5 (2);
    //   g3 5 (1) = 6 store transactions. Segments touched: still 6.
    assert_traffic(
        clamp_3pt_96(),
        LaunchConfig::d1(96, 24),
        Traffic {
            global_loads: 288,
            global_stores: 96,
            load_transactions: 18,
            store_transactions: 6,
            unique_segments: 6,
            work_groups: 4,
        },
    );
}

/// Hand-derived counts for a guarded 2D 5-point clamp stencil over a
/// 40 × 3 grid launched as 64 × 4 in 32 × 2 groups: each high edge leaves
/// a partial group (columns 40–63, row 3 masked off by the guard).
///
/// Row `r` of `A` occupies bytes 160r..160r+159 (segments 0–3 for 480
/// bytes); `out` starts at byte 512 (segment 4) and spans segments 4–7.
/// Each group row is one 32-lane warp. Columns `a..b` of row `r` touch
/// segments `⌊(160r+4a)/128⌋ ..= ⌊(160r+4b+3)/128⌋`.
#[test]
fn hand_counted_guarded_5pt_2d() {
    let (w, h) = (40i64, 3i64);
    let (a, out) = (buf("A", 120, false), buf("out", 120, true));
    let (x, y) = (VarRef::fresh("x"), VarRef::fresh("y"));
    let (vx, vy) = (CExpr::Var(x.clone()), CExpr::Var(y.clone()));
    let at = |row: CExpr, col: CExpr| load(&a, CExpr::add(CExpr::mul(row, CExpr::Int(w)), col));
    let lt = |p: CExpr, q: i64| CExpr::Bin(BinOp::Lt, Box::new(p), Box::new(CExpr::Int(q)));
    let one = || CExpr::Int(1);
    let zero = || CExpr::Int(0);
    // c, n, s, w, e in that order: load ordinals 0-4.
    let value = add(
        add(
            add(
                add(
                    at(vy.clone(), vx.clone()),
                    at(
                        CExpr::max(CExpr::sub(vy.clone(), one()), zero()),
                        vx.clone(),
                    ),
                ),
                at(
                    CExpr::min(CExpr::add(vy.clone(), one()), CExpr::Int(h - 1)),
                    vx.clone(),
                ),
            ),
            at(
                vy.clone(),
                CExpr::max(CExpr::sub(vx.clone(), one()), zero()),
            ),
        ),
        at(
            vy.clone(),
            CExpr::min(CExpr::add(vx.clone(), one()), CExpr::Int(w - 1)),
        ),
    );
    let decl = |v: &VarRef, d: u8| CStmt::DeclScalar {
        var: v.clone(),
        ty: CType::Int,
        init: Some(CExpr::WorkItem(WorkItemFn::GlobalId, d)),
    };
    let kernel = Kernel {
        name: "guarded_5pt".into(),
        body: vec![
            decl(&x, 0),
            decl(&y, 1),
            CStmt::If {
                cond: CExpr::Bin(
                    BinOp::And,
                    Box::new(lt(vx.clone(), w)),
                    Box::new(lt(vy.clone(), h)),
                ),
                then_: vec![CStmt::Store {
                    buf: out.var.clone(),
                    space: AddressSpace::Global,
                    idx: CExpr::add(CExpr::mul(vy, CExpr::Int(w)), vx),
                    value,
                }],
                else_: vec![],
            },
        ],
        params: vec![a, out],
        locals: vec![],
        user_funs: vec![],
    };
    // Left groups, columns 0..31 of row r (warp rows r = 0, 1, 2):
    //   c  r: 0..127 -> 1; 160..287 -> 2; 320..447 -> 2
    //   n  row max(r-1,0) = 0, 0, 1 -> 1, 1, 2
    //   s  row min(r+1,2) = 1, 2, 2 -> 2, 2, 2
    //   w  columns 0..30: 0..123 -> 1; 160..283 -> 2; 320..443 -> 2
    //   e  columns 1..32: 4..131 -> 2; 164..291 -> 2; 324..451 -> 2
    //   per row 7, 9, 10 = 26.
    // Right groups, active columns 32..39 (8 lanes):
    //   c  128..159 -> 1; 288..319 -> 1; 448..479 -> 1
    //   n  rows 0, 0, 1 -> 1, 1, 1;  s rows 1, 2, 2 -> 1, 1, 1
    //   w  columns 31..38: 124..155 -> 2; 284..315 -> 1; 444..475 -> 1
    //   e  columns 33..39,39: 132..159 -> 1; 292..319 -> 1; 452..479 -> 1
    //   per row 6, 5, 5 = 16.
    // Load transactions 26 + 16 = 42; loads 5 · 120 active lanes = 600.
    // Stores at 512 + 160r + 4x: left rows 512..639 -> 1, 672..799 -> 2,
    // 832..959 -> 2; right rows 640..671, 800..831, 960..991 -> 1 each:
    // 8 transactions. Segments touched: A 0–3 and out 4–7 = 8.
    assert_traffic(
        kernel,
        LaunchConfig::d2(64, 4, 32, 2),
        Traffic {
            global_loads: 600,
            global_stores: 120,
            load_transactions: 42,
            store_transactions: 8,
            unique_segments: 8,
            work_groups: 4,
        },
    );
}
