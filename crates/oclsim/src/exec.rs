//! The lock-step work-group executors.
//!
//! Work-items of one group execute each statement together (an active-mask
//! walks the statements, as in POCL's work-item loops): local-memory
//! writes made before a barrier are visible after it, and a barrier reached
//! under a divergent mask is reported as an error — the same constraint the
//! OpenCL specification places on real devices.
//!
//! Two engines implement these semantics:
//!
//! * `PlanMachine` — the production inner loop: a register machine
//!   driving a pre-compiled [`Plan`] (see [`crate::plan`]) with one scratch
//!   arena reused across every work-group of a launch. This is what makes
//!   the simulator fast enough to sit on the autotuner's hot path.
//! * `Machine` — the original tree-walking interpreter, kept as the
//!   executable reference semantics. The differential suite and CI
//!   byte-diff every benchmark through both engines; outputs,
//!   [`KernelStats`] and modeled times must match bit-for-bit.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use lift_codegen::clike::{BinOp, CExpr, CStmt, CType, Kernel, UnOp, WorkItemFn};
use lift_core::scalar::Scalar;

use crate::perf::{KernelStats, SegmentSet, SEGMENT_BYTES};
use crate::plan::{BufSlot, EOp, ExprRef, Inst, Plan, Row};
use crate::runtime::{BufferData, LaunchConfig};

/// A simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Buffer access outside its allocation.
    OutOfBounds {
        /// Buffer name.
        buffer: String,
        /// Offending element index.
        index: i64,
        /// Buffer length.
        len: usize,
    },
    /// `barrier()` reached while work-items of the group have diverged.
    BarrierDivergence,
    /// Launch configuration invalid for this kernel/device.
    BadLaunch(String),
    /// Value of the wrong kind reached an operation (compiler bug).
    TypeMismatch(String),
    /// Integer division by zero in generated index math.
    DivisionByZero,
    /// Variable read before assignment (compiler bug).
    UnboundVariable(String),
    /// Plan compilation rejected the kernel before simulation: the wrapped
    /// cause (an [`SimError::UnboundVariable`] or
    /// [`SimError::TypeMismatch`]) was detected statically, with the kernel
    /// and statement it sits in.
    PlanCompile {
        /// Where in the kernel the fault sits (kernel name plus the
        /// statement breadcrumb trail).
        context: String,
        /// The underlying fault.
        cause: Box<SimError>,
    },
    /// The static cost model could not produce an estimate for this
    /// (kernel, launch) pair — e.g. a loop bound depends on buffer data the
    /// analyzer does not track. Never raised by the executors themselves.
    Estimate(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfBounds { buffer, index, len } => write!(
                f,
                "out-of-bounds access to `{buffer}`: index {index}, length {len}"
            ),
            SimError::BarrierDivergence => {
                write!(f, "barrier() reached in divergent control flow")
            }
            SimError::BadLaunch(m) => write!(f, "invalid launch: {m}"),
            SimError::TypeMismatch(m) => write!(f, "value kind mismatch: {m}"),
            SimError::DivisionByZero => write!(f, "division by zero in kernel"),
            SimError::UnboundVariable(v) => write!(f, "variable `{v}` read before assignment"),
            SimError::PlanCompile { context, cause } => {
                write!(f, "plan compilation failed in {context}: {cause}")
            }
            SimError::Estimate(m) => write!(f, "cost estimate unavailable: {m}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::PlanCompile { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum V {
    F(f32),
    I(i64),
    B(bool),
}

impl V {
    pub(crate) fn as_i(self) -> Result<i64, SimError> {
        match self {
            V::I(v) => Ok(v),
            V::B(b) => Ok(b as i64),
            V::F(_) => Err(SimError::TypeMismatch("expected int, found float".into())),
        }
    }

    pub(crate) fn as_b(self) -> Result<bool, SimError> {
        match self {
            V::B(v) => Ok(v),
            V::I(v) => Ok(v != 0),
            V::F(_) => Err(SimError::TypeMismatch("expected bool, found float".into())),
        }
    }

    pub(crate) fn to_scalar(self) -> Scalar {
        match self {
            V::F(v) => Scalar::F32(v),
            V::I(v) => Scalar::I32(v as i32),
            V::B(v) => Scalar::Bool(v),
        }
    }

    pub(crate) fn from_scalar(s: Scalar) -> V {
        match s {
            Scalar::F32(v) => V::F(v),
            Scalar::I32(v) => V::I(v as i64),
            Scalar::Bool(v) => V::B(v),
        }
    }
}

/// Where a buffer variable lives (tree interpreter).
#[derive(Debug, Clone, Copy)]
enum BufKind {
    Global { slot: usize, base_addr: u64 },
    Local { slot: usize },
}

/// Per-work-item state (tree interpreter).
struct ItemEnv {
    scalars: Vec<V>,
    priv_arrays: Vec<Vec<V>>,
    lid: [usize; 3],
    /// Global-memory addresses touched while executing the current
    /// lock-step statement (loads and stores separately, in program order).
    pend_loads: Vec<u64>,
    pend_stores: Vec<u64>,
}

/// A recycling pool for the active-mask buffers `for`-iterations and
/// `if`-branches need: every mask used to be a fresh `vec![…; wg]`
/// allocation per statement, now the handful of live masks are reused for
/// the whole launch.
struct MaskPool {
    free: Vec<Vec<bool>>,
    n: usize,
}

impl MaskPool {
    fn new(n: usize) -> Self {
        MaskPool {
            free: Vec::new(),
            n,
        }
    }

    /// An all-false mask of the launch's group size.
    fn get(&mut self) -> Vec<bool> {
        match self.free.pop() {
            Some(mut m) => {
                m.clear();
                m.resize(self.n, false);
                m
            }
            None => vec![false; self.n],
        }
    }

    fn put(&mut self, m: Vec<bool>) {
        self.free.push(m);
    }
}

pub(crate) struct Machine<'a> {
    kernel: &'a Kernel,
    global: &'a mut [BufferData],
    bufs: HashMap<u32, BufKind>,
    scalar_slots: HashMap<u32, usize>,
    priv_slots: HashMap<u32, (usize, usize)>,
    /// Private-array lengths in stable slot order (see
    /// [`lift_codegen::clike::SlotMap`]).
    priv_lens: Vec<usize>,
    call_costs: HashMap<String, u64>,
    pub(crate) stats: KernelStats,
    /// Distinct global segments touched (becomes `unique_segments`).
    seen: SegmentSet,
    warp: usize,
    cfg: LaunchConfig,
}

/// Per-group execution state (tree interpreter).
struct Group {
    items: Vec<ItemEnv>,
    locals: Vec<Vec<V>>,
    group_id: [usize; 3],
}

/// Estimated scalar-op cost of calling a user function, from its C body:
/// one unit per cheap arithmetic/compare op, with division and
/// transcendental calls weighted like real GPU ALUs (divides and `sqrt`
/// retire roughly an order of magnitude slower than fused adds — this is
/// what makes SRAD compute-heavy relative to Jacobi).
pub(crate) fn call_cost(body: &str) -> u64 {
    let cheap = body
        .chars()
        .filter(|c| matches!(c, '+' | '-' | '*' | '<' | '>' | '?'))
        .count() as u64;
    let divides = body.matches('/').count() as u64;
    let transcendental = body.matches("sqrt").count() as u64
        + body.matches("exp").count() as u64
        + body.matches("log").count() as u64;
    (cheap + 8 * divides + 8 * transcendental).max(1)
}

/// SIMD lock-step cost, shared verbatim by both engines: a warp executes a
/// statement for *all* its lanes even when only some are active. After
/// running a statement batch that retired `alu_ops − before` ops over the
/// active lanes of `mask`, charge the idle lanes of every touched warp
/// proportionally.
pub(crate) fn simd_charge(stats: &mut KernelStats, warp: usize, mask: &[bool], before: u64) {
    let delta = stats.alu_ops - before;
    if delta == 0 {
        return;
    }
    let warp = warp.max(1);
    let mut active_lanes = 0u64;
    let mut touched_lanes = 0u64;
    for chunk in mask.chunks(warp) {
        let a = chunk.iter().filter(|&&b| b).count() as u64;
        if a > 0 {
            active_lanes += a;
            touched_lanes += warp as u64;
        }
    }
    if active_lanes == 0 || touched_lanes == active_lanes {
        return;
    }
    let full_cost = delta * touched_lanes / active_lanes;
    stats.alu_ops += full_cost - delta;
    stats.divergence_ops += full_cost - delta;
}

impl<'a> Machine<'a> {
    pub(crate) fn new(
        kernel: &'a Kernel,
        global: &'a mut [BufferData],
        cfg: LaunchConfig,
        warp: usize,
    ) -> Result<Self, SimError> {
        let mut bufs = HashMap::new();
        let mut base = 0u64;
        for p in &kernel.params {
            bufs.insert(
                p.var.id(),
                BufKind::Global {
                    slot: bufs.len(),
                    base_addr: base,
                },
            );
            // Segment-align each buffer.
            base += ((p.len as u64 * 4).div_ceil(SEGMENT_BYTES)) * SEGMENT_BYTES;
        }
        for (slot, l) in kernel.locals.iter().enumerate() {
            bufs.insert(l.var.id(), BufKind::Local { slot });
        }

        // Environment slots come from the kernel's stable slot metadata —
        // the same assignment the plan compiler resolves against.
        let slots = kernel.slot_map();
        let scalar_slots: HashMap<u32, usize> = slots
            .scalars
            .iter()
            .enumerate()
            .map(|(i, (v, _))| (v.id(), i))
            .collect();
        let priv_slots: HashMap<u32, (usize, usize)> = slots
            .priv_arrays
            .iter()
            .enumerate()
            .map(|(i, (v, _, len))| (v.id(), (i, *len)))
            .collect();
        let priv_lens: Vec<usize> = slots.priv_arrays.iter().map(|(_, _, len)| *len).collect();

        let mut call_costs = HashMap::new();
        for uf in &kernel.user_funs {
            call_costs.insert(uf.name().to_string(), call_cost(uf.c_body()));
        }

        let mut stats = KernelStats::default();
        let wg = cfg.local.iter().product::<usize>();
        stats.wg_size = wg as u64;
        stats.work_groups = (cfg.groups().iter().product::<usize>()) as u64;
        stats.work_items = (cfg.global.iter().product::<usize>()) as u64;
        stats.local_bytes_per_group = kernel.local_bytes() as u64;

        Ok(Machine {
            kernel,
            global,
            bufs,
            scalar_slots,
            priv_slots,
            priv_lens,
            call_costs,
            stats,
            seen: SegmentSet::with_segments(base / SEGMENT_BYTES),
            warp,
            cfg,
        })
    }

    pub(crate) fn run(&mut self) -> Result<(), SimError> {
        let groups = self.cfg.groups();
        let wg = self.cfg.local;
        let wg_linear = wg.iter().product::<usize>();
        // The statement tree is borrowed, not cloned per work-group, and
        // the all-true base mask plus branch/loop masks are reused for the
        // whole launch.
        let body: &'a [CStmt] = &self.kernel.body;
        let mask = vec![true; wg_linear];
        let mut pool = MaskPool::new(wg_linear);
        for gz in 0..groups[2] {
            for gy in 0..groups[1] {
                for gx in 0..groups[0] {
                    let mut grp = self.make_group([gx, gy, gz], wg, wg_linear);
                    self.exec_stmts(body, &mut grp, &mask, &mut pool)?;
                }
            }
        }
        self.stats.unique_segments = self.seen.len();
        Ok(())
    }

    fn make_group(&self, group_id: [usize; 3], wg: [usize; 3], wg_linear: usize) -> Group {
        let n_scalars = self.scalar_slots.len();
        let items = (0..wg_linear)
            .map(|i| {
                let lx = i % wg[0];
                let ly = (i / wg[0]) % wg[1];
                let lz = i / (wg[0] * wg[1]);
                ItemEnv {
                    scalars: vec![V::I(0); n_scalars],
                    priv_arrays: self
                        .priv_lens
                        .iter()
                        .map(|len| vec![V::F(0.0); *len])
                        .collect(),
                    lid: [lx, ly, lz],
                    pend_loads: Vec::new(),
                    pend_stores: Vec::new(),
                }
            })
            .collect();
        let locals = self
            .kernel
            .locals
            .iter()
            .map(|l| vec![V::F(0.0); l.len])
            .collect();
        Group {
            items,
            locals,
            group_id,
        }
    }

    fn exec_stmts(
        &mut self,
        stmts: &[CStmt],
        grp: &mut Group,
        mask: &[bool],
        pool: &mut MaskPool,
    ) -> Result<(), SimError> {
        for s in stmts {
            self.exec_stmt(s, grp, mask, pool)?;
        }
        Ok(())
    }

    fn exec_stmt(
        &mut self,
        s: &CStmt,
        grp: &mut Group,
        mask: &[bool],
        pool: &mut MaskPool,
    ) -> Result<(), SimError> {
        match s {
            CStmt::DeclScalar { var, init, ty } => {
                if let Some(e) = init {
                    let slot = self.scalar_slot(var.id())?;
                    let before = self.stats.alu_ops;
                    for i in active(mask) {
                        let v = self.eval(e, grp, i)?;
                        grp.items[i].scalars[slot] = coerce(v, *ty);
                    }
                    simd_charge(&mut self.stats, self.warp, mask, before);
                    self.flush_accesses(grp, mask);
                }
                Ok(())
            }
            CStmt::DeclPrivateArray { .. } => Ok(()), // pre-allocated
            CStmt::Assign { var, value } => {
                let slot = self.scalar_slot(var.id())?;
                let before = self.stats.alu_ops;
                for i in active(mask) {
                    let v = self.eval(value, grp, i)?;
                    grp.items[i].scalars[slot] = v;
                }
                simd_charge(&mut self.stats, self.warp, mask, before);
                self.flush_accesses(grp, mask);
                Ok(())
            }
            CStmt::Store {
                buf, idx, value, ..
            } => {
                let before = self.stats.alu_ops;
                for i in active(mask) {
                    let index = self.eval(idx, grp, i)?.as_i()?;
                    let v = self.eval(value, grp, i)?;
                    self.store(buf.id(), buf.name(), index, v, grp, i)?;
                }
                simd_charge(&mut self.stats, self.warp, mask, before);
                self.flush_accesses(grp, mask);
                Ok(())
            }
            CStmt::For {
                var,
                init,
                bound,
                step,
                body,
            } => {
                let slot = self.scalar_slot(var.id())?;
                for i in active(mask) {
                    let v = self.eval(init, grp, i)?;
                    grp.items[i].scalars[slot] = v;
                }
                self.flush_accesses(grp, mask);
                loop {
                    let mut iter_mask = pool.get();
                    let mut any = false;
                    let before = self.stats.alu_ops;
                    for i in active(mask) {
                        let cur = grp.items[i].scalars[slot].as_i()?;
                        let b = self.eval(bound, grp, i)?.as_i()?;
                        self.stats.alu_ops += 1; // the comparison
                        if cur < b {
                            iter_mask[i] = true;
                            any = true;
                        }
                    }
                    simd_charge(&mut self.stats, self.warp, mask, before);
                    self.flush_accesses(grp, mask);
                    if !any {
                        pool.put(iter_mask);
                        break;
                    }
                    self.exec_stmts(body, grp, &iter_mask, pool)?;
                    let before = self.stats.alu_ops;
                    for i in active(&iter_mask) {
                        let st = self.eval(step, grp, i)?.as_i()?;
                        let cur = grp.items[i].scalars[slot].as_i()?;
                        grp.items[i].scalars[slot] = V::I(cur + st);
                        self.stats.alu_ops += 1;
                    }
                    simd_charge(&mut self.stats, self.warp, &iter_mask, before);
                    self.flush_accesses(grp, &iter_mask);
                    pool.put(iter_mask);
                }
                Ok(())
            }
            CStmt::If { cond, then_, else_ } => {
                let mut t_mask = pool.get();
                let mut e_mask = pool.get();
                let before = self.stats.alu_ops;
                for i in active(mask) {
                    if self.eval(cond, grp, i)?.as_b()? {
                        t_mask[i] = true;
                    } else {
                        e_mask[i] = true;
                    }
                }
                simd_charge(&mut self.stats, self.warp, mask, before);
                self.flush_accesses(grp, mask);
                if t_mask.iter().any(|&b| b) {
                    self.exec_stmts(then_, grp, &t_mask, pool)?;
                }
                if e_mask.iter().any(|&b| b) {
                    self.exec_stmts(else_, grp, &e_mask, pool)?;
                }
                pool.put(t_mask);
                pool.put(e_mask);
                Ok(())
            }
            CStmt::Barrier { .. } => {
                if mask.iter().any(|&b| !b) {
                    return Err(SimError::BarrierDivergence);
                }
                self.stats.barriers += 1;
                Ok(())
            }
            CStmt::Comment(_) => Ok(()),
        }
    }

    fn scalar_slot(&self, id: u32) -> Result<usize, SimError> {
        self.scalar_slots
            .get(&id)
            .copied()
            .ok_or_else(|| SimError::UnboundVariable(format!("slot #{id}")))
    }

    fn eval(&mut self, e: &CExpr, grp: &mut Group, item: usize) -> Result<V, SimError> {
        match e {
            CExpr::Int(v) => Ok(V::I(*v)),
            CExpr::Float(v) => Ok(V::F(*v)),
            CExpr::Bool(v) => Ok(V::B(*v)),
            CExpr::Var(v) => {
                let slot = self.scalar_slot(v.id())?;
                Ok(grp.items[item].scalars[slot])
            }
            CExpr::WorkItem(f, d) => {
                let d = *d as usize;
                let lid = grp.items[item].lid[d];
                let v = match f {
                    WorkItemFn::GlobalId => grp.group_id[d] * self.cfg.local[d] + lid,
                    WorkItemFn::LocalId => lid,
                    WorkItemFn::GroupId => grp.group_id[d],
                    WorkItemFn::GlobalSize => self.cfg.global[d],
                    WorkItemFn::LocalSize => self.cfg.local[d],
                    WorkItemFn::NumGroups => self.cfg.groups()[d],
                };
                Ok(V::I(v as i64))
            }
            CExpr::Bin(op, a, b) => {
                let va = self.eval(a, grp, item)?;
                let vb = self.eval(b, grp, item)?;
                self.stats.alu_ops += 1;
                bin_op(*op, va, vb)
            }
            CExpr::Un(op, a) => {
                let v = self.eval(a, grp, item)?;
                self.stats.alu_ops += 1;
                un_op(*op, v)
            }
            CExpr::Call(f, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, grp, item)?.to_scalar());
                }
                let cost = self
                    .call_costs
                    .get(f.name())
                    .copied()
                    .unwrap_or_else(|| call_cost(f.c_body()));
                self.stats.alu_ops += cost;
                Ok(V::from_scalar(f.call(&vals)))
            }
            CExpr::Load { buf, idx, .. } => {
                let index = self.eval(idx, grp, item)?.as_i()?;
                self.load(buf.id(), buf.name(), index, grp, item)
            }
            CExpr::Select { cond, then_, else_ } => {
                let c = self.eval(cond, grp, item)?.as_b()?;
                self.stats.alu_ops += 1;
                if c {
                    self.eval(then_, grp, item)
                } else {
                    self.eval(else_, grp, item)
                }
            }
            CExpr::Cast(t, a) => {
                let v = self.eval(a, grp, item)?;
                Ok(cast(*t, v))
            }
        }
    }

    fn load(
        &mut self,
        buf_id: u32,
        buf_name: &str,
        index: i64,
        grp: &mut Group,
        item: usize,
    ) -> Result<V, SimError> {
        match self.bufs.get(&buf_id).copied() {
            Some(BufKind::Global { slot, base_addr }) => {
                let data = &self.global[slot];
                let len = data.len();
                if index < 0 || index as usize >= len {
                    return Err(SimError::OutOfBounds {
                        buffer: buf_name.to_string(),
                        index,
                        len,
                    });
                }
                self.stats.global_loads += 1;
                grp.items[item]
                    .pend_loads
                    .push(base_addr + index as u64 * 4);
                Ok(match data {
                    BufferData::F32(v) => V::F(v[index as usize]),
                    BufferData::I32(v) => V::I(v[index as usize] as i64),
                })
            }
            Some(BufKind::Local { slot }) => {
                let data = &grp.locals[slot];
                if index < 0 || index as usize >= data.len() {
                    return Err(SimError::OutOfBounds {
                        buffer: buf_name.to_string(),
                        index,
                        len: data.len(),
                    });
                }
                self.stats.local_accesses += 1;
                Ok(data[index as usize])
            }
            None => {
                // Private array.
                let (slot, len) = self
                    .priv_slots
                    .get(&buf_id)
                    .copied()
                    .ok_or_else(|| SimError::UnboundVariable(format!("buffer `{buf_name}`")))?;
                if index < 0 || index as usize >= len {
                    return Err(SimError::OutOfBounds {
                        buffer: buf_name.to_string(),
                        index,
                        len,
                    });
                }
                Ok(grp.items[item].priv_arrays[slot][index as usize])
            }
        }
    }

    fn store(
        &mut self,
        buf_id: u32,
        buf_name: &str,
        index: i64,
        v: V,
        grp: &mut Group,
        item: usize,
    ) -> Result<(), SimError> {
        match self.bufs.get(&buf_id).copied() {
            Some(BufKind::Global { slot, base_addr }) => {
                let data = &mut self.global[slot];
                let len = data.len();
                if index < 0 || index as usize >= len {
                    return Err(SimError::OutOfBounds {
                        buffer: buf_name.to_string(),
                        index,
                        len,
                    });
                }
                self.stats.global_stores += 1;
                grp.items[item]
                    .pend_stores
                    .push(base_addr + index as u64 * 4);
                store_value(data, index as usize, v)?;
                Ok(())
            }
            Some(BufKind::Local { slot }) => {
                let data = &mut grp.locals[slot];
                if index < 0 || index as usize >= data.len() {
                    return Err(SimError::OutOfBounds {
                        buffer: buf_name.to_string(),
                        index,
                        len: data.len(),
                    });
                }
                self.stats.local_accesses += 1;
                data[index as usize] = v;
                Ok(())
            }
            None => {
                let (slot, len) = self
                    .priv_slots
                    .get(&buf_id)
                    .copied()
                    .ok_or_else(|| SimError::UnboundVariable(format!("buffer `{buf_name}`")))?;
                if index < 0 || index as usize >= len {
                    return Err(SimError::OutOfBounds {
                        buffer: buf_name.to_string(),
                        index,
                        len,
                    });
                }
                grp.items[item].priv_arrays[slot][index as usize] = v;
                Ok(())
            }
        }
    }

    /// Coalescing analysis: after a lock-step statement, the k-th access of
    /// each work-item lines up across the warp; each warp pays one
    /// transaction per distinct 128-byte segment at each ordinal.
    ///
    /// [`PlanMachine::flush`] implements the identical analysis over its
    /// flat scratch arena; keep the two in lock-step.
    fn flush_accesses(&mut self, grp: &mut Group, mask: &[bool]) {
        let warp = self.warp.max(1);
        let n = grp.items.len();
        let mut segs: Vec<u64> = Vec::with_capacity(warp);
        for kind in 0..2 {
            let max_ord = grp
                .items
                .iter()
                .map(|it| {
                    if kind == 0 {
                        it.pend_loads.len()
                    } else {
                        it.pend_stores.len()
                    }
                })
                .max()
                .unwrap_or(0);
            if max_ord == 0 {
                continue;
            }
            for warp_start in (0..n).step_by(warp) {
                for k in 0..max_ord {
                    segs.clear();
                    #[allow(clippy::needless_range_loop)] // parallel indexing into mask + items
                    for i in warp_start..(warp_start + warp).min(n) {
                        if !mask[i] {
                            continue;
                        }
                        let pend = if kind == 0 {
                            &grp.items[i].pend_loads
                        } else {
                            &grp.items[i].pend_stores
                        };
                        if let Some(addr) = pend.get(k) {
                            segs.push(addr / SEGMENT_BYTES);
                        }
                    }
                    if segs.is_empty() {
                        continue;
                    }
                    segs.sort_unstable();
                    segs.dedup();
                    if kind == 0 {
                        self.stats.load_transactions += segs.len() as u64;
                    } else {
                        self.stats.store_transactions += segs.len() as u64;
                    }
                    for s in &segs {
                        self.seen.insert(*s);
                    }
                }
            }
        }
        for it in &mut grp.items {
            it.pend_loads.clear();
            it.pend_stores.clear();
        }
    }
}

fn active(mask: &[bool]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().filter_map(|(i, &b)| b.then_some(i))
}

pub(crate) fn coerce(v: V, ty: CType) -> V {
    match (ty, v) {
        (CType::Float, V::I(x)) => V::F(x as f32),
        (CType::Int, V::B(x)) => V::I(x as i64),
        _ => v,
    }
}

fn cast(t: CType, v: V) -> V {
    match (t, v) {
        (CType::Float, V::I(x)) => V::F(x as f32),
        (CType::Int, V::F(x)) => V::I(x as i64),
        (_, v) => v,
    }
}

fn un_op(op: UnOp, v: V) -> Result<V, SimError> {
    match (op, v) {
        (UnOp::Neg, V::F(x)) => Ok(V::F(-x)),
        (UnOp::Neg, V::I(x)) => Ok(V::I(-x)),
        (UnOp::Not, V::B(x)) => Ok(V::B(!x)),
        _ => Err(SimError::TypeMismatch("bad unary operand".into())),
    }
}

fn store_value(data: &mut BufferData, index: usize, v: V) -> Result<(), SimError> {
    match (data, v) {
        (BufferData::F32(d), V::F(x)) => d[index] = x,
        (BufferData::I32(d), V::I(x)) => d[index] = x as i32,
        (BufferData::F32(d), V::I(x)) => d[index] = x as f32,
        (BufferData::I32(_), V::F(_)) => {
            return Err(SimError::TypeMismatch(
                "float stored into int buffer".into(),
            ))
        }
        (BufferData::F32(d), V::B(x)) => d[index] = x as i32 as f32,
        (BufferData::I32(d), V::B(x)) => d[index] = x as i32,
    }
    Ok(())
}

pub(crate) fn bin_op(op: BinOp, a: V, b: V) -> Result<V, SimError> {
    use BinOp::*;
    Ok(match (op, a, b) {
        (Add, V::F(x), V::F(y)) => V::F(x + y),
        (Sub, V::F(x), V::F(y)) => V::F(x - y),
        (Mul, V::F(x), V::F(y)) => V::F(x * y),
        (Div, V::F(x), V::F(y)) => V::F(x / y),
        (Min, V::F(x), V::F(y)) => V::F(x.min(y)),
        (Max, V::F(x), V::F(y)) => V::F(x.max(y)),
        (Lt, V::F(x), V::F(y)) => V::B(x < y),
        (Le, V::F(x), V::F(y)) => V::B(x <= y),
        (Gt, V::F(x), V::F(y)) => V::B(x > y),
        (Ge, V::F(x), V::F(y)) => V::B(x >= y),
        (Eq, V::F(x), V::F(y)) => V::B(x == y),
        (Ne, V::F(x), V::F(y)) => V::B(x != y),

        (Add, V::I(x), V::I(y)) => V::I(x.wrapping_add(y)),
        (Sub, V::I(x), V::I(y)) => V::I(x.wrapping_sub(y)),
        (Mul, V::I(x), V::I(y)) => V::I(x.wrapping_mul(y)),
        (Div, V::I(x), V::I(y)) => {
            if y == 0 {
                return Err(SimError::DivisionByZero);
            }
            V::I(x.wrapping_div(y)) // C truncating division
        }
        (Mod, V::I(x), V::I(y)) => {
            if y == 0 {
                return Err(SimError::DivisionByZero);
            }
            V::I(x.wrapping_rem(y)) // C remainder
        }
        (Min, V::I(x), V::I(y)) => V::I(x.min(y)),
        (Max, V::I(x), V::I(y)) => V::I(x.max(y)),
        (Lt, V::I(x), V::I(y)) => V::B(x < y),
        (Le, V::I(x), V::I(y)) => V::B(x <= y),
        (Gt, V::I(x), V::I(y)) => V::B(x > y),
        (Ge, V::I(x), V::I(y)) => V::B(x >= y),
        (Eq, V::I(x), V::I(y)) => V::B(x == y),
        (Ne, V::I(x), V::I(y)) => V::B(x != y),

        (And, V::B(x), V::B(y)) => V::B(x && y),
        (Or, V::B(x), V::B(y)) => V::B(x || y),

        (op, a, b) => {
            return Err(SimError::TypeMismatch(format!(
                "operator {op:?} on {a:?} and {b:?}"
            )))
        }
    })
}

// ---------------------------------------------------------------------------
// The plan executor
// ---------------------------------------------------------------------------

/// A vector of per-lane values in its provable representation: raw `i64`,
/// `f32` or `bool` lanes when plan compilation proved the kind, tagged
/// [`V`] lanes otherwise. Typed slabs let the hot loops (index math,
/// stencil data movement) run unboxed and unmasked — lanes outside the
/// active mask may hold garbage, which is harmless because no consumer
/// ever reads an inactive lane.
enum Slab {
    I(Vec<i64>),
    F(Vec<f32>),
    B(Vec<bool>),
    V(Vec<V>),
}

impl Slab {
    /// The lane as a tagged value (any slab kind).
    #[inline]
    fn lane(&self, i: usize) -> V {
        match self {
            Slab::I(d) => V::I(d[i]),
            Slab::F(d) => V::F(d[i]),
            Slab::B(d) => V::B(d[i]),
            Slab::V(d) => d[i],
        }
    }

    /// The lane as a buffer index (the semantics of [`V::as_i`]).
    #[inline]
    fn idx(&self, i: usize) -> Result<i64, SimError> {
        match self {
            Slab::I(d) => Ok(d[i]),
            Slab::B(d) => Ok(d[i] as i64),
            Slab::V(d) => d[i].as_i(),
            Slab::F(_) => Err(SimError::TypeMismatch("expected int, found float".into())),
        }
    }

    /// The lane as a condition (the semantics of [`V::as_b`]).
    #[inline]
    fn cond(&self, i: usize) -> Result<bool, SimError> {
        match self {
            Slab::B(d) => Ok(d[i]),
            Slab::I(d) => Ok(d[i] != 0),
            Slab::V(d) => d[i].as_b(),
            Slab::F(_) => Err(SimError::TypeMismatch("expected bool, found float".into())),
        }
    }
}

/// One `?:` select in flight during a vector evaluation: the lane split,
/// which arm is executing, and the parked then-value.
struct SelFrame {
    mask_then: Vec<bool>,
    count_then: u64,
    mask_else: Vec<bool>,
    count_else: u64,
    in_else: bool,
    saved: Option<Slab>,
}

/// The register-machine inner loop: drives a pre-compiled [`Plan`] with one
/// scratch arena (typed scalar register rows, typed private/local arenas,
/// pending-access queues, mask slots, slab pools) allocated once per launch
/// and reused across every work-group.
///
/// Expressions evaluate **op-major**: each bytecode op executes for every
/// active lane before the next op, over pooled [`Slab`]s — one dispatch per
/// op per group instead of per op per work-item, with unboxed loops
/// wherever plan compilation proved the value kinds. Semantics — statement
/// order, per-lane laziness of `?:` (via mask splits), event counting,
/// [`simd_charge`] and the coalescing flush — mirror [`Machine`] exactly;
/// lane-invariant (`uniform`) expressions are evaluated once per group with
/// their ALU cost multiplied by the active-lane count. Every counter stays
/// bit-identical to the tree interpreter.
pub(crate) struct PlanMachine<'a> {
    plan: &'a Plan,
    global: &'a mut [BufferData],
    pub(crate) stats: KernelStats,
    warp: usize,
    cfg: LaunchConfig,
    n_items: usize,
    group_id: [usize; 3],
    /// Local id per work-item (precomputed once).
    lids: Vec<[usize; 3]>,
    /// Integer scalar register rows, `n_int_rows × n_items`, slot-major.
    iscalars: Vec<i64>,
    /// Tagged scalar register rows, `n_var_rows × n_items`, slot-major.
    vscalars: Vec<V>,
    /// Float / tagged local-memory arenas (shared by the group).
    locals_f: Vec<f32>,
    locals_v: Vec<V>,
    /// Float / tagged private arenas, item-major blocks.
    privs_f: Vec<f32>,
    privs_v: Vec<V>,
    /// Pending global accesses per item for the coalescing flush.
    pend_loads: Vec<Vec<u64>>,
    pend_stores: Vec<Vec<u64>>,
    any_pend: bool,
    /// Mask slots; `masks[0]` is the all-true base mask.
    masks: Vec<Vec<bool>>,
    /// Whether mask slot `i` had any active lane when last written.
    mask_any: Vec<bool>,
    mask_stack: Vec<u16>,
    /// Slab pools for the op-major evaluator.
    ipool: Vec<Vec<i64>>,
    fpool: Vec<Vec<f32>>,
    bpool: Vec<Vec<bool>>,
    vpool: Vec<Vec<V>>,
    /// The evaluator's operand stack and select frames (reused across
    /// every expression of the launch).
    estack: Vec<Slab>,
    eframes: Vec<SelFrame>,
    /// The one-lane mask uniform expressions evaluate under.
    uni_mask: Vec<bool>,
    /// User-function argument scratch.
    args: Vec<Scalar>,
    /// Segment scratch for the coalescing flush.
    segs: Vec<u64>,
    /// Distinct global segments touched (becomes `unique_segments`).
    seen: SegmentSet,
}

impl<'a> PlanMachine<'a> {
    pub(crate) fn new(
        plan: &'a Plan,
        global: &'a mut [BufferData],
        cfg: LaunchConfig,
        warp: usize,
    ) -> Self {
        let wg = cfg.local;
        let n_items = wg.iter().product::<usize>();
        let lids = (0..n_items)
            .map(|i| [i % wg[0], (i / wg[0]) % wg[1], i / (wg[0] * wg[1])])
            .collect();
        let stats = KernelStats {
            wg_size: n_items as u64,
            work_groups: (cfg.groups().iter().product::<usize>()) as u64,
            work_items: (cfg.global.iter().product::<usize>()) as u64,
            local_bytes_per_group: plan.local_bytes as u64,
            ..KernelStats::default()
        };
        let n_masks = plan.n_masks.max(1);
        PlanMachine {
            plan,
            global,
            stats,
            warp,
            cfg,
            n_items,
            group_id: [0, 0, 0],
            lids,
            iscalars: vec![0; plan.n_int_rows * n_items],
            vscalars: vec![V::I(0); plan.n_var_rows * n_items],
            locals_f: vec![0.0; plan.local_f_total],
            locals_v: vec![V::F(0.0); plan.local_v_total],
            privs_f: vec![0.0; plan.priv_f_total * n_items],
            privs_v: vec![V::F(0.0); plan.priv_v_total * n_items],
            pend_loads: vec![Vec::new(); n_items],
            pend_stores: vec![Vec::new(); n_items],
            any_pend: false,
            masks: (0..n_masks).map(|i| vec![i == 0; n_items]).collect(),
            mask_any: vec![false; n_masks],
            mask_stack: Vec::with_capacity(n_masks),
            ipool: Vec::new(),
            fpool: Vec::new(),
            bpool: Vec::new(),
            vpool: Vec::new(),
            estack: Vec::with_capacity(8),
            eframes: Vec::new(),
            uni_mask: {
                let mut m = vec![false; n_items.max(1)];
                m[0] = true;
                m
            },
            args: Vec::with_capacity(4),
            segs: Vec::with_capacity(warp.max(1)),
            seen: SegmentSet::with_segments(plan.global_segments),
        }
    }

    fn iget(&mut self) -> Vec<i64> {
        self.ipool.pop().unwrap_or_else(|| vec![0; self.n_items])
    }

    fn fget(&mut self) -> Vec<f32> {
        self.fpool.pop().unwrap_or_else(|| vec![0.0; self.n_items])
    }

    fn bget(&mut self) -> Vec<bool> {
        self.bpool
            .pop()
            .unwrap_or_else(|| vec![false; self.n_items])
    }

    fn vget(&mut self) -> Vec<V> {
        self.vpool
            .pop()
            .unwrap_or_else(|| vec![V::I(0); self.n_items])
    }

    fn sput(&mut self, s: Slab) {
        match s {
            Slab::I(v) => self.ipool.push(v),
            Slab::F(v) => self.fpool.push(v),
            Slab::B(v) => self.bpool.push(v),
            Slab::V(v) => self.vpool.push(v),
        }
    }

    pub(crate) fn run(&mut self) -> Result<(), SimError> {
        let groups = self.cfg.groups();
        for gz in 0..groups[2] {
            for gy in 0..groups[1] {
                for gx in 0..groups[0] {
                    self.group_id = [gx, gy, gz];
                    self.reset_group();
                    self.exec()?;
                }
            }
        }
        self.stats.unique_segments = self.seen.len();
        Ok(())
    }

    /// Re-arms the scratch arena for the next work-group: scalars read
    /// before assignment are integer zero, private and local storage is
    /// float zero — the exact initial state [`Machine::make_group`]
    /// allocates fresh.
    fn reset_group(&mut self) {
        self.iscalars.fill(0);
        self.vscalars.fill(V::I(0));
        self.locals_f.fill(0.0);
        self.locals_v.fill(V::F(0.0));
        self.privs_f.fill(0.0);
        self.privs_v.fill(V::F(0.0));
        self.mask_stack.clear();
        self.mask_stack.push(0);
    }

    fn exec(&mut self) -> Result<(), SimError> {
        let plan = self.plan;
        let mut pc = 0usize;
        while pc < plan.code.len() {
            match &plan.code[pc] {
                Inst::SetScalar {
                    row,
                    value,
                    coerce,
                    charge,
                } => {
                    let (row, value, co, charge) = (*row, *value, *coerce, *charge);
                    let ms = self.top_mask();
                    let mask = std::mem::take(&mut self.masks[ms]);
                    let before = self.stats.alu_ops;
                    let r = self.set_scalar(&mask, row, value, co);
                    if r.is_ok() {
                        if charge {
                            simd_charge(&mut self.stats, self.warp, &mask, before);
                        }
                        self.flush(&mask);
                    }
                    self.masks[ms] = mask;
                    r?;
                    pc += 1;
                }
                Inst::Store { buf, idx, value } => {
                    let (buf, idx, value) = (*buf, *idx, *value);
                    let ms = self.top_mask();
                    let mask = std::mem::take(&mut self.masks[ms]);
                    let before = self.stats.alu_ops;
                    let r = self.store_stmt(&mask, buf, idx, value);
                    if r.is_ok() {
                        simd_charge(&mut self.stats, self.warp, &mask, before);
                        self.flush(&mask);
                    }
                    self.masks[ms] = mask;
                    r?;
                    pc += 1;
                }
                Inst::ForHead {
                    row,
                    bound,
                    mask,
                    exit,
                } => {
                    let (row, bound, mslot, exit) = (*row, *bound, *mask as usize, *exit as usize);
                    let ps = self.top_mask();
                    let parent = std::mem::take(&mut self.masks[ps]);
                    let mut child = std::mem::take(&mut self.masks[mslot]);
                    let r = self.for_head(&parent, &mut child, row, bound);
                    self.masks[ps] = parent;
                    self.masks[mslot] = child;
                    if r? {
                        self.mask_stack.push(mslot as u16);
                        pc += 1;
                    } else {
                        pc = exit;
                    }
                }
                Inst::ForStep { row, step, head } => {
                    let (row, step, head) = (*row, *step, *head as usize);
                    let ms = self.top_mask();
                    let mask = std::mem::take(&mut self.masks[ms]);
                    let r = self.for_step(&mask, row, step);
                    self.masks[ms] = mask;
                    r?;
                    self.mask_stack.pop();
                    pc = head;
                }
                Inst::IfHead {
                    cond,
                    tmask,
                    emask,
                    els,
                    end,
                } => {
                    let (cond, tm, em) = (*cond, *tmask as usize, *emask as usize);
                    let (els, end) = (*els as usize, *end as usize);
                    let ps = self.top_mask();
                    let parent = std::mem::take(&mut self.masks[ps]);
                    let mut t = std::mem::take(&mut self.masks[tm]);
                    let mut e = std::mem::take(&mut self.masks[em]);
                    let r = self.if_head(&parent, &mut t, &mut e, cond);
                    self.masks[ps] = parent;
                    self.masks[tm] = t;
                    self.masks[em] = e;
                    let (any_t, any_e) = r?;
                    self.mask_any[tm] = any_t;
                    self.mask_any[em] = any_e;
                    if any_t {
                        self.mask_stack.push(tm as u16);
                        pc += 1;
                    } else if any_e {
                        self.mask_stack.push(em as u16);
                        pc = els;
                    } else {
                        pc = end;
                    }
                }
                Inst::ElseJoin { emask, els, end } => {
                    self.mask_stack.pop();
                    if self.mask_any[*emask as usize] {
                        self.mask_stack.push(*emask);
                        pc = *els as usize;
                    } else {
                        pc = *end as usize;
                    }
                }
                Inst::EndIf => {
                    self.mask_stack.pop();
                    pc += 1;
                }
                Inst::Barrier => {
                    let ms = self.top_mask();
                    if self.masks[ms].iter().any(|&b| !b) {
                        return Err(SimError::BarrierDivergence);
                    }
                    self.stats.barriers += 1;
                    pc += 1;
                }
            }
        }
        Ok(())
    }

    #[inline]
    fn top_mask(&self) -> usize {
        *self.mask_stack.last().expect("mask stack never empties") as usize
    }

    fn set_scalar(
        &mut self,
        mask: &[bool],
        row: Row,
        value: ExprRef,
        co: Option<CType>,
    ) -> Result<(), SimError> {
        let n = self.n_items;
        if value.uniform {
            let mut ops = 0u64;
            let mut v = self.eval_uniform(value, &mut ops)?;
            if let Some(t) = co {
                v = coerce(v, t);
            }
            let mut count = 0u64;
            match row {
                Row::I(r) => {
                    let V::I(x) = v else {
                        unreachable!("typed row receives a proven-int write");
                    };
                    let regs = &mut self.iscalars[r as usize * n..(r as usize + 1) * n];
                    for (reg, &m) in regs.iter_mut().zip(mask) {
                        if m {
                            *reg = x;
                            count += 1;
                        }
                    }
                }
                Row::V(r) => {
                    let regs = &mut self.vscalars[r as usize * n..(r as usize + 1) * n];
                    for (reg, &m) in regs.iter_mut().zip(mask) {
                        if m {
                            *reg = v;
                            count += 1;
                        }
                    }
                }
            }
            self.stats.alu_ops += ops * count;
        } else {
            let mut ops = 0u64;
            let v = self.eval_vec(value, mask, &mut ops)?;
            match row {
                Row::I(r) => {
                    let regs = &mut self.iscalars[r as usize * n..(r as usize + 1) * n];
                    match (&v, co) {
                        (Slab::I(d), _) => {
                            for ((reg, &m), &val) in regs.iter_mut().zip(mask).zip(d) {
                                if m {
                                    *reg = val;
                                }
                            }
                        }
                        (Slab::B(d), Some(CType::Int)) => {
                            for ((reg, &m), &val) in regs.iter_mut().zip(mask).zip(d) {
                                if m {
                                    *reg = val as i64;
                                }
                            }
                        }
                        _ => unreachable!("typed row receives a proven-int write"),
                    }
                }
                Row::V(r) => {
                    let regs = &mut self.vscalars[r as usize * n..(r as usize + 1) * n];
                    for (i, (reg, &m)) in regs.iter_mut().zip(mask).enumerate() {
                        if m {
                            *reg = match co {
                                Some(t) => coerce(v.lane(i), t),
                                None => v.lane(i),
                            };
                        }
                    }
                }
            }
            self.sput(v);
            self.stats.alu_ops += ops;
        }
        Ok(())
    }

    fn store_stmt(
        &mut self,
        mask: &[bool],
        buf: BufSlot,
        idx: ExprRef,
        value: ExprRef,
    ) -> Result<(), SimError> {
        let mut hoist_ops = 0u64;
        let mut ops = 0u64;
        // `Err` carries the hoisted (uniform) value, `Ok` the per-lane slab.
        let idx_src = if idx.uniform {
            Err(self.eval_uniform(idx, &mut hoist_ops)?.as_i()?)
        } else {
            Ok(self.eval_vec(idx, mask, &mut ops)?)
        };
        let val_src = if value.uniform {
            Err(self.eval_uniform(value, &mut hoist_ops)?)
        } else {
            Ok(self.eval_vec(value, mask, &mut ops)?)
        };
        let mut count = 0u64;
        let r = self.store_lanes(mask, buf, &idx_src, &val_src, &mut count);
        if let Ok(s) = idx_src {
            self.sput(s);
        }
        if let Ok(s) = val_src {
            self.sput(s);
        }
        r?;
        self.stats.alu_ops += ops + hoist_ops * count;
        Ok(())
    }

    /// The per-lane store loop, with unboxed fast paths for the dominant
    /// shapes (float data through integer indices into float storage) and
    /// a tagged fallback that matches the tree interpreter case for case.
    fn store_lanes(
        &mut self,
        mask: &[bool],
        buf: BufSlot,
        idx_src: &Result<Slab, i64>,
        val_src: &Result<Slab, V>,
        count: &mut u64,
    ) -> Result<(), SimError> {
        match buf {
            BufSlot::Global { slot, name } => {
                let slot = slot as usize;
                let base = self.plan.global_bases[slot];
                let len = self.global[slot].len();
                // Fast path: float lanes through int indices into a float
                // buffer — the shape of every stencil output write.
                if let (BufferData::F32(_), Ok(Slab::I(iv)), Ok(Slab::F(fv))) =
                    (&self.global[slot], idx_src, val_src)
                {
                    let mut fault = None;
                    let pend = &mut self.pend_stores;
                    let BufferData::F32(d) = &mut self.global[slot] else {
                        unreachable!("matched above");
                    };
                    for (i, &m) in mask.iter().enumerate() {
                        if !m {
                            continue;
                        }
                        *count += 1;
                        let index = iv[i];
                        if index < 0 || index as usize >= len {
                            fault = Some(SimError::OutOfBounds {
                                buffer: self.plan.buf_names[name as usize].clone(),
                                index,
                                len,
                            });
                            break;
                        }
                        pend[i].push(base + index as u64 * 4);
                        d[index as usize] = fv[i];
                    }
                    self.stats.global_stores += *count;
                    if *count > 0 {
                        self.any_pend = true;
                    }
                    return fault.map_or(Ok(()), Err);
                }
                let mut fault = None;
                let mut stores = 0u64;
                for (i, &m) in mask.iter().enumerate() {
                    if !m {
                        continue;
                    }
                    *count += 1;
                    let index = match idx_src {
                        Ok(s) => match s.idx(i) {
                            Ok(v) => v,
                            Err(e) => {
                                fault = Some(e);
                                break;
                            }
                        },
                        Err(pre) => *pre,
                    };
                    if index < 0 || index as usize >= len {
                        fault = Some(SimError::OutOfBounds {
                            buffer: self.plan.buf_names[name as usize].clone(),
                            index,
                            len,
                        });
                        break;
                    }
                    let v = match val_src {
                        Ok(s) => s.lane(i),
                        Err(pre) => *pre,
                    };
                    stores += 1;
                    self.pend_stores[i].push(base + index as u64 * 4);
                    if let Err(e) = store_value(&mut self.global[slot], index as usize, v) {
                        fault = Some(e);
                        break;
                    }
                }
                self.stats.global_stores += stores;
                if stores > 0 {
                    self.any_pend = true;
                }
                fault.map_or(Ok(()), Err)
            }
            BufSlot::LocalF { off, len, name } => {
                let (off, len) = (off as usize, len as usize);
                let mut fault = None;
                let mut accesses = 0u64;
                let data = &mut self.locals_f[off..off + len];
                for (i, &m) in mask.iter().enumerate() {
                    if !m {
                        continue;
                    }
                    *count += 1;
                    let index = match idx_src {
                        Ok(s) => match s.idx(i) {
                            Ok(v) => v,
                            Err(e) => {
                                fault = Some(e);
                                break;
                            }
                        },
                        Err(pre) => *pre,
                    };
                    if index < 0 || index as usize >= len {
                        fault = Some(SimError::OutOfBounds {
                            buffer: self.plan.buf_names[name as usize].clone(),
                            index,
                            len,
                        });
                        break;
                    }
                    accesses += 1;
                    let x = match val_src {
                        Ok(Slab::F(fv)) => fv[i],
                        Err(V::F(x)) => *x,
                        _ => unreachable!("float local receives a proven-float store"),
                    };
                    data[index as usize] = x;
                }
                self.stats.local_accesses += accesses;
                fault.map_or(Ok(()), Err)
            }
            BufSlot::LocalV { off, len, name } => {
                let (off, len) = (off as usize, len as usize);
                let mut fault = None;
                let mut accesses = 0u64;
                for (i, &m) in mask.iter().enumerate() {
                    if !m {
                        continue;
                    }
                    *count += 1;
                    let index = match idx_src {
                        Ok(s) => match s.idx(i) {
                            Ok(v) => v,
                            Err(e) => {
                                fault = Some(e);
                                break;
                            }
                        },
                        Err(pre) => *pre,
                    };
                    if index < 0 || index as usize >= len {
                        fault = Some(SimError::OutOfBounds {
                            buffer: self.plan.buf_names[name as usize].clone(),
                            index,
                            len,
                        });
                        break;
                    }
                    accesses += 1;
                    let v = match val_src {
                        Ok(s) => s.lane(i),
                        Err(pre) => *pre,
                    };
                    self.locals_v[off + index as usize] = v;
                }
                self.stats.local_accesses += accesses;
                fault.map_or(Ok(()), Err)
            }
            BufSlot::PrivF { off, len, name } => {
                let (off, len) = (off as usize, len as usize);
                let stride = self.plan.priv_f_total;
                for (i, &m) in mask.iter().enumerate() {
                    if !m {
                        continue;
                    }
                    *count += 1;
                    let index = match idx_src {
                        Ok(s) => s.idx(i)?,
                        Err(pre) => *pre,
                    };
                    if index < 0 || index as usize >= len {
                        return Err(self.oob(name, index, len));
                    }
                    let x = match val_src {
                        Ok(Slab::F(fv)) => fv[i],
                        Err(V::F(x)) => *x,
                        _ => unreachable!("float private receives a proven-float store"),
                    };
                    self.privs_f[i * stride + off + index as usize] = x;
                }
                Ok(())
            }
            BufSlot::PrivV { off, len, name } => {
                let (off, len) = (off as usize, len as usize);
                let stride = self.plan.priv_v_total;
                for (i, &m) in mask.iter().enumerate() {
                    if !m {
                        continue;
                    }
                    *count += 1;
                    let index = match idx_src {
                        Ok(s) => s.idx(i)?,
                        Err(pre) => *pre,
                    };
                    if index < 0 || index as usize >= len {
                        return Err(self.oob(name, index, len));
                    }
                    let v = match val_src {
                        Ok(s) => s.lane(i),
                        Err(pre) => *pre,
                    };
                    self.privs_v[i * stride + off + index as usize] = v;
                }
                Ok(())
            }
        }
    }

    fn for_head(
        &mut self,
        parent: &[bool],
        child: &mut Vec<bool>,
        row: Row,
        bound: ExprRef,
    ) -> Result<bool, SimError> {
        child.clear();
        child.resize(self.n_items, false);
        let n = self.n_items;
        let before = self.stats.alu_ops;
        let mut any = false;
        if bound.uniform {
            let mut ops = 0u64;
            let b = self.eval_uniform(bound, &mut ops)?.as_i()?;
            let mut count = 0u64;
            match row {
                Row::I(r) => {
                    let regs = &self.iscalars[r as usize * n..(r as usize + 1) * n];
                    for i in 0..n {
                        if !parent[i] {
                            continue;
                        }
                        self.stats.alu_ops += 1; // the comparison
                        if regs[i] < b {
                            child[i] = true;
                            any = true;
                        }
                        count += 1;
                    }
                }
                Row::V(r) => {
                    let regs = &self.vscalars[r as usize * n..(r as usize + 1) * n];
                    for i in 0..n {
                        if !parent[i] {
                            continue;
                        }
                        let cur = regs[i].as_i()?;
                        self.stats.alu_ops += 1;
                        if cur < b {
                            child[i] = true;
                            any = true;
                        }
                        count += 1;
                    }
                }
            }
            self.stats.alu_ops += ops * count;
        } else {
            let mut ops = 0u64;
            let bv = self.eval_vec(bound, parent, &mut ops)?;
            let mut fault = None;
            let mut compared = 0u64;
            match row {
                Row::I(r) => {
                    let regs = &self.iscalars[r as usize * n..(r as usize + 1) * n];
                    for i in 0..n {
                        if !parent[i] {
                            continue;
                        }
                        match bv.idx(i) {
                            Ok(b) => {
                                compared += 1;
                                if regs[i] < b {
                                    child[i] = true;
                                    any = true;
                                }
                            }
                            Err(e) => {
                                fault = Some(e);
                                break;
                            }
                        }
                    }
                }
                Row::V(r) => {
                    let regs = &self.vscalars[r as usize * n..(r as usize + 1) * n];
                    for i in 0..n {
                        if !parent[i] {
                            continue;
                        }
                        let r2 = regs[i].as_i().and_then(|cur| Ok((cur, bv.idx(i)?)));
                        match r2 {
                            Ok((cur, b)) => {
                                compared += 1;
                                if cur < b {
                                    child[i] = true;
                                    any = true;
                                }
                            }
                            Err(e) => {
                                fault = Some(e);
                                break;
                            }
                        }
                    }
                }
            }
            self.sput(bv);
            if let Some(e) = fault {
                return Err(e);
            }
            self.stats.alu_ops += compared + ops;
        }
        simd_charge(&mut self.stats, self.warp, parent, before);
        self.flush(parent);
        Ok(any)
    }

    fn for_step(&mut self, mask: &[bool], row: Row, step: ExprRef) -> Result<(), SimError> {
        let n = self.n_items;
        let before = self.stats.alu_ops;
        if step.uniform {
            let mut ops = 0u64;
            let st = self.eval_uniform(step, &mut ops)?.as_i()?;
            let mut count = 0u64;
            match row {
                Row::I(r) => {
                    let regs = &mut self.iscalars[r as usize * n..(r as usize + 1) * n];
                    for (reg, &m) in regs.iter_mut().zip(mask) {
                        if m {
                            *reg += st;
                            count += 1;
                        }
                    }
                }
                Row::V(r) => {
                    let regs = &mut self.vscalars[r as usize * n..(r as usize + 1) * n];
                    for (reg, &m) in regs.iter_mut().zip(mask) {
                        if !m {
                            continue;
                        }
                        let cur = reg.as_i()?;
                        *reg = V::I(cur + st);
                        count += 1;
                    }
                }
            }
            self.stats.alu_ops += count + ops * count;
        } else {
            let mut ops = 0u64;
            let sv = self.eval_vec(step, mask, &mut ops)?;
            let mut count = 0u64;
            let mut fault = None;
            match row {
                Row::I(r) => {
                    let regs = &mut self.iscalars[r as usize * n..(r as usize + 1) * n];
                    for (i, (reg, &m)) in regs.iter_mut().zip(mask).enumerate() {
                        if !m {
                            continue;
                        }
                        match sv.idx(i) {
                            Ok(st) => {
                                *reg += st;
                                count += 1;
                            }
                            Err(e) => {
                                fault = Some(e);
                                break;
                            }
                        }
                    }
                }
                Row::V(r) => {
                    let regs = &mut self.vscalars[r as usize * n..(r as usize + 1) * n];
                    for (i, (reg, &m)) in regs.iter_mut().zip(mask).enumerate() {
                        if !m {
                            continue;
                        }
                        let r2 = sv.idx(i).and_then(|st| Ok((st, reg.as_i()?)));
                        match r2 {
                            Ok((st, cur)) => {
                                *reg = V::I(cur + st);
                                count += 1;
                            }
                            Err(e) => {
                                fault = Some(e);
                                break;
                            }
                        }
                    }
                }
            }
            self.sput(sv);
            if let Some(e) = fault {
                return Err(e);
            }
            self.stats.alu_ops += count + ops;
        }
        simd_charge(&mut self.stats, self.warp, mask, before);
        self.flush(mask);
        Ok(())
    }

    fn if_head(
        &mut self,
        parent: &[bool],
        t: &mut Vec<bool>,
        e: &mut Vec<bool>,
        cond: ExprRef,
    ) -> Result<(bool, bool), SimError> {
        t.clear();
        t.resize(self.n_items, false);
        e.clear();
        e.resize(self.n_items, false);
        let before = self.stats.alu_ops;
        let (mut any_t, mut any_e) = (false, false);
        if cond.uniform {
            let mut ops = 0u64;
            let c = self.eval_uniform(cond, &mut ops)?.as_b()?;
            let mut count = 0u64;
            for i in 0..self.n_items {
                if !parent[i] {
                    continue;
                }
                if c {
                    t[i] = true;
                    any_t = true;
                } else {
                    e[i] = true;
                    any_e = true;
                }
                count += 1;
            }
            self.stats.alu_ops += ops * count;
        } else {
            let mut ops = 0u64;
            let cv = self.eval_vec(cond, parent, &mut ops)?;
            let mut fault = None;
            for i in 0..self.n_items {
                if !parent[i] {
                    continue;
                }
                match cv.cond(i) {
                    Ok(true) => {
                        t[i] = true;
                        any_t = true;
                    }
                    Ok(false) => {
                        e[i] = true;
                        any_e = true;
                    }
                    Err(err) => {
                        fault = Some(err);
                        break;
                    }
                }
            }
            self.sput(cv);
            if let Some(err) = fault {
                return Err(err);
            }
            self.stats.alu_ops += ops;
        }
        simd_charge(&mut self.stats, self.warp, parent, before);
        self.flush(parent);
        Ok((any_t, any_e))
    }

    /// Evaluates a lane-invariant expression once (under the one-lane
    /// mask); the caller multiplies `ops` by the active-lane count, leaving
    /// [`KernelStats::alu_ops`] identical to per-lane evaluation.
    fn eval_uniform(&mut self, er: ExprRef, ops: &mut u64) -> Result<V, SimError> {
        let um = std::mem::take(&mut self.uni_mask);
        let r = self.eval_vec(er, &um, ops);
        self.uni_mask = um;
        let v = r?;
        let out = v.lane(0);
        self.sput(v);
        Ok(out)
    }

    /// Evaluates one compiled expression for every active lane of `mask`,
    /// op-major: each bytecode op runs across the lanes before the next op
    /// starts, over typed [`Slab`]s. Pure ALU costs accumulate into `ops`
    /// (already summed over lanes); memory events hit [`KernelStats`]
    /// directly, with per-lane side effects (pending-access queues, fault
    /// checks) identical to the tree interpreter's lane-by-lane
    /// evaluation. `?:` selects split the lane mask so each lane still
    /// evaluates only its taken arm.
    ///
    /// The operand stack and select-frame storage live in the machine
    /// (like every other scratch buffer) so evaluation never allocates;
    /// this wrapper also drains anything a fault left behind back into the
    /// pools.
    fn eval_vec(
        &mut self,
        er: ExprRef,
        stmt_mask: &[bool],
        ops: &mut u64,
    ) -> Result<Slab, SimError> {
        let mut stack = std::mem::take(&mut self.estack);
        let mut frames = std::mem::take(&mut self.eframes);
        let r = self.eval_vec_inner(er, stmt_mask, ops, &mut stack, &mut frames);
        for s in stack.drain(..) {
            self.sput(s);
        }
        for f in frames.drain(..) {
            if let Some(s) = f.saved {
                self.sput(s);
            }
            self.bpool.push(f.mask_then);
            self.bpool.push(f.mask_else);
        }
        self.estack = stack;
        self.eframes = frames;
        r
    }

    fn eval_vec_inner(
        &mut self,
        er: ExprRef,
        stmt_mask: &[bool],
        ops: &mut u64,
        stack: &mut Vec<Slab>,
        frames: &mut Vec<SelFrame>,
    ) -> Result<Slab, SimError> {
        let plan = self.plan;
        let n = self.n_items;
        let stmt_count = stmt_mask.iter().filter(|&&b| b).count() as u64;
        // The mask/count the current op runs under: the innermost select
        // arm, or the statement mask outside any select.
        macro_rules! cur_mask {
            () => {
                match frames.last() {
                    Some(f) if f.in_else => (f.mask_else.as_slice(), f.count_else),
                    Some(f) => (f.mask_then.as_slice(), f.count_then),
                    None => (stmt_mask, stmt_count),
                }
            };
        }
        for pc in er.start as usize..er.end as usize {
            match plan.ecode[pc] {
                EOp::I(c) => {
                    let mut v = self.iget();
                    v.fill(c);
                    stack.push(Slab::I(v));
                }
                EOp::F(c) => {
                    let mut v = self.fget();
                    v.fill(c);
                    stack.push(Slab::F(v));
                }
                EOp::B(c) => {
                    let mut v = self.bget();
                    v.fill(c);
                    stack.push(Slab::B(v));
                }
                EOp::Scalar(row) => {
                    // Copying every lane's register (not just active ones)
                    // is safe: registers are always initialised and
                    // inactive lanes' values are never consumed. Slot-major
                    // layout makes this one contiguous copy.
                    stack.push(match row {
                        Row::I(r) => {
                            let mut v = self.iget();
                            v.copy_from_slice(&self.iscalars[r as usize * n..(r as usize + 1) * n]);
                            Slab::I(v)
                        }
                        Row::V(r) => {
                            let mut v = self.vget();
                            v.copy_from_slice(&self.vscalars[r as usize * n..(r as usize + 1) * n]);
                            Slab::V(v)
                        }
                    });
                }
                EOp::WorkItem(f, d) => {
                    let mut v = self.iget();
                    let d = d as usize;
                    match f {
                        WorkItemFn::GlobalId => {
                            let base = self.group_id[d] * self.cfg.local[d];
                            for (i, slot) in v.iter_mut().enumerate() {
                                *slot = (base + self.lids[i][d]) as i64;
                            }
                        }
                        WorkItemFn::LocalId => {
                            for (i, slot) in v.iter_mut().enumerate() {
                                *slot = self.lids[i][d] as i64;
                            }
                        }
                        WorkItemFn::GroupId => v.fill(self.group_id[d] as i64),
                        WorkItemFn::GlobalSize => v.fill(self.cfg.global[d] as i64),
                        WorkItemFn::LocalSize => v.fill(self.cfg.local[d] as i64),
                        WorkItemFn::NumGroups => v.fill(self.cfg.groups()[d] as i64),
                    }
                    stack.push(Slab::I(v));
                }
                EOp::Bin(op) => {
                    let b = stack.pop().expect("binary operand");
                    let a = stack.pop().expect("binary operand");
                    let (mask, count) = cur_mask!();
                    *ops += count;
                    let r = self.bin_vec(op, a, b, mask);
                    stack.push(r?);
                }
                EOp::Un(op) => {
                    let a = stack.pop().expect("unary operand");
                    let (mask, count) = cur_mask!();
                    *ops += count;
                    let r = self.un_vec(op, a, mask);
                    stack.push(r?);
                }
                EOp::Call { fun, argc, cost } => {
                    let argc = argc as usize;
                    let base = stack.len() - argc;
                    let mut out = self.vget();
                    let (mask, count) = cur_mask!();
                    *ops += cost * count;
                    let f = &plan.funs[fun as usize];
                    for (i, slot) in out.iter_mut().enumerate() {
                        if !mask[i] {
                            continue;
                        }
                        self.args.clear();
                        for av in &stack[base..] {
                            self.args.push(av.lane(i).to_scalar());
                        }
                        *slot = V::from_scalar(f.call(&self.args));
                    }
                    for _ in 0..argc {
                        let v = stack.pop().expect("call argument");
                        self.sput(v);
                    }
                    stack.push(Slab::V(out));
                }
                EOp::Load(buf) => {
                    let idx = stack.pop().expect("load index");
                    let (mask, _) = cur_mask!();
                    let r = self.load_vec(buf, &idx, mask);
                    self.sput(idx);
                    stack.push(r?);
                }
                EOp::Cast(t) => {
                    let a = stack.pop().expect("cast operand");
                    let r = self.cast_vec(t, a);
                    stack.push(r);
                }
                EOp::SelSplit => {
                    let cond = stack.pop().expect("select condition");
                    let (mask, count) = cur_mask!();
                    *ops += count;
                    let mut mt = self.mget_sel();
                    let mut me = self.mget_sel();
                    let (mut ct, mut ce) = (0u64, 0u64);
                    let mut fault = None;
                    for i in 0..n {
                        if !mask[i] {
                            mt[i] = false;
                            me[i] = false;
                            continue;
                        }
                        match cond.cond(i) {
                            Ok(true) => {
                                mt[i] = true;
                                me[i] = false;
                                ct += 1;
                            }
                            Ok(false) => {
                                mt[i] = false;
                                me[i] = true;
                                ce += 1;
                            }
                            Err(e) => {
                                fault = Some(e);
                                break;
                            }
                        }
                    }
                    self.sput(cond);
                    if let Some(e) = fault {
                        self.bpool.push(mt);
                        self.bpool.push(me);
                        return Err(e);
                    }
                    frames.push(SelFrame {
                        mask_then: mt,
                        count_then: ct,
                        mask_else: me,
                        count_else: ce,
                        in_else: false,
                        saved: None,
                    });
                }
                EOp::SelSwap => {
                    let f = frames.last_mut().expect("select frame");
                    f.saved = Some(stack.pop().expect("then value"));
                    f.in_else = true;
                }
                EOp::SelJoin => {
                    let f = frames.pop().expect("select frame");
                    let e = stack.pop().expect("else value");
                    let t = f.saved.expect("then value parked");
                    let merged = self.sel_merge(t, e, &f.mask_then);
                    stack.push(merged);
                    self.bpool.push(f.mask_then);
                    self.bpool.push(f.mask_else);
                }
            }
        }
        Ok(stack.pop().expect("expression produces a value"))
    }

    /// A pooled mask for a select split (distinct from the statement-level
    /// mask slots, which are statically assigned).
    fn mget_sel(&mut self) -> Vec<bool> {
        self.bpool
            .pop()
            .map(|mut m| {
                m.clear();
                m.resize(self.n_items, false);
                m
            })
            .unwrap_or_else(|| vec![false; self.n_items])
    }

    /// Merges the two arms of a `?:`: then-lanes win where `mask_then` is
    /// set. Same-typed arms merge in place; mixed arms promote to tagged
    /// lanes (their compile kinds differed, so the merged slab is only
    /// lane-wise meaningful anyway).
    fn sel_merge(&mut self, t: Slab, e: Slab, mask_then: &[bool]) -> Slab {
        match (t, e) {
            (Slab::I(tv), Slab::I(mut ev)) => {
                for (i, &m) in mask_then.iter().enumerate() {
                    if m {
                        ev[i] = tv[i];
                    }
                }
                self.ipool.push(tv);
                Slab::I(ev)
            }
            (Slab::F(tv), Slab::F(mut ev)) => {
                for (i, &m) in mask_then.iter().enumerate() {
                    if m {
                        ev[i] = tv[i];
                    }
                }
                self.fpool.push(tv);
                Slab::F(ev)
            }
            (Slab::B(tv), Slab::B(mut ev)) => {
                for (i, &m) in mask_then.iter().enumerate() {
                    if m {
                        ev[i] = tv[i];
                    }
                }
                self.bpool.push(tv);
                Slab::B(ev)
            }
            (Slab::V(tv), Slab::V(mut ev)) => {
                for (i, &m) in mask_then.iter().enumerate() {
                    if m {
                        ev[i] = tv[i];
                    }
                }
                self.vpool.push(tv);
                Slab::V(ev)
            }
            (t, e) => {
                let mut out = self.vget();
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = if mask_then[i] { t.lane(i) } else { e.lane(i) };
                }
                self.sput(t);
                self.sput(e);
                Slab::V(out)
            }
        }
    }

    /// One binary op across the active lanes. Infallible typed cases run
    /// unmasked (inactive lanes compute garbage nobody reads); fallible
    /// cases (integer division, kind mismatches) check per active lane and
    /// report the same fault, for the same first active lane, as the tree
    /// interpreter.
    fn bin_vec(&mut self, op: BinOp, a: Slab, b: Slab, mask: &[bool]) -> Result<Slab, SimError> {
        use BinOp::*;
        match (a, b) {
            (Slab::I(mut av), Slab::I(bv)) => {
                let r = match op {
                    Add => {
                        for (x, y) in av.iter_mut().zip(&bv) {
                            *x = x.wrapping_add(*y);
                        }
                        Ok(Slab::I(av))
                    }
                    Sub => {
                        for (x, y) in av.iter_mut().zip(&bv) {
                            *x = x.wrapping_sub(*y);
                        }
                        Ok(Slab::I(av))
                    }
                    Mul => {
                        for (x, y) in av.iter_mut().zip(&bv) {
                            *x = x.wrapping_mul(*y);
                        }
                        Ok(Slab::I(av))
                    }
                    Min => {
                        for (x, y) in av.iter_mut().zip(&bv) {
                            *x = (*x).min(*y);
                        }
                        Ok(Slab::I(av))
                    }
                    Max => {
                        for (x, y) in av.iter_mut().zip(&bv) {
                            *x = (*x).max(*y);
                        }
                        Ok(Slab::I(av))
                    }
                    Div | Mod => {
                        // Masked: division by zero is a per-lane fault.
                        let mut fault = false;
                        for ((x, &y), &m) in av.iter_mut().zip(&bv).zip(mask) {
                            if !m {
                                continue;
                            }
                            if y == 0 {
                                fault = true;
                                break;
                            }
                            *x = if matches!(op, Div) {
                                x.wrapping_div(y)
                            } else {
                                x.wrapping_rem(y)
                            };
                        }
                        if fault {
                            self.ipool.push(av);
                            Err(SimError::DivisionByZero)
                        } else {
                            Ok(Slab::I(av))
                        }
                    }
                    Lt | Le | Gt | Ge | Eq | Ne => {
                        let mut out = self.bget();
                        for (o, (x, y)) in out.iter_mut().zip(av.iter().zip(&bv)) {
                            *o = match op {
                                Lt => x < y,
                                Le => x <= y,
                                Gt => x > y,
                                Ge => x >= y,
                                Eq => x == y,
                                _ => x != y,
                            };
                        }
                        self.ipool.push(av);
                        Ok(Slab::B(out))
                    }
                    And | Or => {
                        // Faults per active lane, like the tree interpreter.
                        return self.bin_generic(op, Slab::I(av), Slab::I(bv), mask);
                    }
                };
                match r {
                    Ok(s) => {
                        self.ipool.push(bv);
                        Ok(s)
                    }
                    Err(e) => {
                        self.ipool.push(bv);
                        Err(e)
                    }
                }
            }
            (Slab::F(mut av), Slab::F(bv)) => {
                let r = match op {
                    Add => {
                        for (x, y) in av.iter_mut().zip(&bv) {
                            *x += y;
                        }
                        Ok(Slab::F(av))
                    }
                    Sub => {
                        for (x, y) in av.iter_mut().zip(&bv) {
                            *x -= y;
                        }
                        Ok(Slab::F(av))
                    }
                    Mul => {
                        for (x, y) in av.iter_mut().zip(&bv) {
                            *x *= y;
                        }
                        Ok(Slab::F(av))
                    }
                    Div => {
                        for (x, y) in av.iter_mut().zip(&bv) {
                            *x /= y;
                        }
                        Ok(Slab::F(av))
                    }
                    Min => {
                        for (x, y) in av.iter_mut().zip(&bv) {
                            *x = x.min(*y);
                        }
                        Ok(Slab::F(av))
                    }
                    Max => {
                        for (x, y) in av.iter_mut().zip(&bv) {
                            *x = x.max(*y);
                        }
                        Ok(Slab::F(av))
                    }
                    Lt | Le | Gt | Ge | Eq | Ne => {
                        let mut out = self.bget();
                        for (o, (x, y)) in out.iter_mut().zip(av.iter().zip(&bv)) {
                            *o = match op {
                                Lt => x < y,
                                Le => x <= y,
                                Gt => x > y,
                                Ge => x >= y,
                                Eq => x == y,
                                _ => x != y,
                            };
                        }
                        self.fpool.push(av);
                        Ok(Slab::B(out))
                    }
                    Mod | And | Or => {
                        return self.bin_generic(op, Slab::F(av), Slab::F(bv), mask);
                    }
                };
                match r {
                    Ok(s) => {
                        self.fpool.push(bv);
                        Ok(s)
                    }
                    Err(e) => {
                        self.fpool.push(bv);
                        Err(e)
                    }
                }
            }
            (Slab::B(mut av), Slab::B(bv)) => match op {
                And => {
                    for (x, y) in av.iter_mut().zip(&bv) {
                        *x = *x && *y;
                    }
                    self.bpool.push(bv);
                    Ok(Slab::B(av))
                }
                Or => {
                    for (x, y) in av.iter_mut().zip(&bv) {
                        *x = *x || *y;
                    }
                    self.bpool.push(bv);
                    Ok(Slab::B(av))
                }
                _ => self.bin_generic(op, Slab::B(av), Slab::B(bv), mask),
            },
            (a, b) => self.bin_generic(op, a, b, mask),
        }
    }

    /// Mixed or tagged operands: lane-by-lane through the shared scalar
    /// kernel, producing tagged lanes (per-lane kinds may differ).
    /// Mismatched typed pairs fault at the first active lane with the
    /// exact tree-interpreter message; an empty mask (a dead select arm)
    /// faults nowhere, exactly as no lane would have evaluated it.
    fn bin_generic(
        &mut self,
        op: BinOp,
        a: Slab,
        b: Slab,
        mask: &[bool],
    ) -> Result<Slab, SimError> {
        let mut out = self.vget();
        let mut fault = None;
        for (i, &m) in mask.iter().enumerate() {
            if !m {
                continue;
            }
            match bin_op(op, a.lane(i), b.lane(i)) {
                Ok(v) => out[i] = v,
                Err(e) => {
                    fault = Some(e);
                    break;
                }
            }
        }
        self.sput(a);
        self.sput(b);
        if let Some(e) = fault {
            self.vpool.push(out);
            return Err(e);
        }
        Ok(Slab::V(out))
    }

    fn un_vec(&mut self, op: UnOp, a: Slab, mask: &[bool]) -> Result<Slab, SimError> {
        match (op, a) {
            // Wrapping negation keeps the unmasked loop panic-free on
            // garbage lanes; active-lane values behave as in the tree
            // interpreter (two's-complement wrap at i64::MIN aside).
            (UnOp::Neg, Slab::I(mut v)) => {
                for x in v.iter_mut() {
                    *x = x.wrapping_neg();
                }
                Ok(Slab::I(v))
            }
            (UnOp::Neg, Slab::F(mut v)) => {
                for x in v.iter_mut() {
                    *x = -*x;
                }
                Ok(Slab::F(v))
            }
            (UnOp::Not, Slab::B(mut v)) => {
                for x in v.iter_mut() {
                    *x = !*x;
                }
                Ok(Slab::B(v))
            }
            (op, a) => {
                let mut out = self.vget();
                let mut fault = None;
                for (i, &m) in mask.iter().enumerate() {
                    if !m {
                        continue;
                    }
                    match un_op(op, a.lane(i)) {
                        Ok(v) => out[i] = v,
                        Err(e) => {
                            fault = Some(e);
                            break;
                        }
                    }
                }
                self.sput(a);
                if let Some(e) = fault {
                    self.vpool.push(out);
                    return Err(e);
                }
                Ok(Slab::V(out))
            }
        }
    }

    /// Casts are total, so typed conversions run unmasked.
    fn cast_vec(&mut self, t: CType, a: Slab) -> Slab {
        match (t, a) {
            (CType::Float, Slab::I(v)) => {
                let mut out = self.fget();
                for (o, &x) in out.iter_mut().zip(&v) {
                    *o = x as f32;
                }
                self.ipool.push(v);
                Slab::F(out)
            }
            (CType::Int, Slab::F(v)) => {
                let mut out = self.iget();
                for (o, &x) in out.iter_mut().zip(&v) {
                    *o = x as i64;
                }
                self.fpool.push(v);
                Slab::I(out)
            }
            (t, Slab::V(mut v)) => {
                for x in v.iter_mut() {
                    *x = cast(t, *x);
                }
                Slab::V(v)
            }
            // Every other (type, slab) pair is the identity, exactly as
            // the scalar `cast`.
            (_, s) => s,
        }
    }

    fn oob(&self, name: u16, index: i64, len: usize) -> SimError {
        SimError::OutOfBounds {
            buffer: self.plan.buf_names[name as usize].clone(),
            index,
            len,
        }
    }

    /// One buffer load for every active lane: the buffer kind (and, for
    /// global buffers, the element type) is dispatched once per op; the
    /// per-lane loop does only the index conversion, bounds check,
    /// pending-access bookkeeping and element read — in the same per-lane
    /// order as the tree interpreter.
    fn load_vec(&mut self, buf: BufSlot, idx: &Slab, mask: &[bool]) -> Result<Slab, SimError> {
        match buf {
            BufSlot::Global { slot, name } => {
                let slot = slot as usize;
                let base = self.plan.global_bases[slot];
                let len = self.global[slot].len();
                let mut count = 0u64;
                let mut fault = None;
                let pend = &mut self.pend_loads;
                macro_rules! lanes {
                    ($d:ident, $out:ident, $conv:expr) => {
                        // Integer index lanes skip the per-lane kind check.
                        if let Slab::I(iv) = idx {
                            for (i, &m) in mask.iter().enumerate() {
                                if !m {
                                    continue;
                                }
                                let index = iv[i];
                                if index < 0 || index as usize >= len {
                                    fault = Some(SimError::OutOfBounds {
                                        buffer: self.plan.buf_names[name as usize].clone(),
                                        index,
                                        len,
                                    });
                                    break;
                                }
                                pend[i].push(base + index as u64 * 4);
                                $out[i] = $conv($d[index as usize]);
                                count += 1;
                            }
                        } else {
                            for (i, &m) in mask.iter().enumerate() {
                                if !m {
                                    continue;
                                }
                                let index = match idx.idx(i) {
                                    Ok(v) => v,
                                    Err(e) => {
                                        fault = Some(e);
                                        break;
                                    }
                                };
                                if index < 0 || index as usize >= len {
                                    fault = Some(SimError::OutOfBounds {
                                        buffer: self.plan.buf_names[name as usize].clone(),
                                        index,
                                        len,
                                    });
                                    break;
                                }
                                pend[i].push(base + index as u64 * 4);
                                $out[i] = $conv($d[index as usize]);
                                count += 1;
                            }
                        }
                    };
                }
                let out = match &self.global[slot] {
                    BufferData::F32(d) => {
                        let mut out = self.fpool.pop().unwrap_or_else(|| vec![0.0; self.n_items]);
                        lanes!(d, out, |x: f32| x);
                        Slab::F(out)
                    }
                    BufferData::I32(d) => {
                        let mut out = self.ipool.pop().unwrap_or_else(|| vec![0; self.n_items]);
                        lanes!(d, out, |x: i32| x as i64);
                        Slab::I(out)
                    }
                };
                self.stats.global_loads += count;
                if count > 0 {
                    self.any_pend = true;
                }
                match fault {
                    Some(e) => {
                        self.sput(out);
                        Err(e)
                    }
                    None => Ok(out),
                }
            }
            BufSlot::LocalF { off, len, name } => {
                let (off, len) = (off as usize, len as usize);
                let data = &self.locals_f[off..off + len];
                let mut out = self.fpool.pop().unwrap_or_else(|| vec![0.0; self.n_items]);
                let mut count = 0u64;
                let mut fault = None;
                for (i, &m) in mask.iter().enumerate() {
                    if !m {
                        continue;
                    }
                    let index = match idx.idx(i) {
                        Ok(v) => v,
                        Err(e) => {
                            fault = Some(e);
                            break;
                        }
                    };
                    if index < 0 || index as usize >= len {
                        fault = Some(SimError::OutOfBounds {
                            buffer: self.plan.buf_names[name as usize].clone(),
                            index,
                            len,
                        });
                        break;
                    }
                    out[i] = data[index as usize];
                    count += 1;
                }
                self.stats.local_accesses += count;
                match fault {
                    Some(e) => {
                        self.fpool.push(out);
                        Err(e)
                    }
                    None => Ok(Slab::F(out)),
                }
            }
            BufSlot::LocalV { off, len, name } => {
                let (off, len) = (off as usize, len as usize);
                let mut out = self.vget();
                let mut count = 0u64;
                let mut fault = None;
                for (i, &m) in mask.iter().enumerate() {
                    if !m {
                        continue;
                    }
                    let index = match idx.idx(i) {
                        Ok(v) => v,
                        Err(e) => {
                            fault = Some(e);
                            break;
                        }
                    };
                    if index < 0 || index as usize >= len {
                        fault = Some(SimError::OutOfBounds {
                            buffer: self.plan.buf_names[name as usize].clone(),
                            index,
                            len,
                        });
                        break;
                    }
                    out[i] = self.locals_v[off + index as usize];
                    count += 1;
                }
                self.stats.local_accesses += count;
                match fault {
                    Some(e) => {
                        self.vpool.push(out);
                        Err(e)
                    }
                    None => Ok(Slab::V(out)),
                }
            }
            BufSlot::PrivF { off, len, name } => {
                let (off, len) = (off as usize, len as usize);
                let stride = self.plan.priv_f_total;
                let mut out = self.fpool.pop().unwrap_or_else(|| vec![0.0; self.n_items]);
                let mut fault = None;
                for (i, &m) in mask.iter().enumerate() {
                    if !m {
                        continue;
                    }
                    let index = match idx.idx(i) {
                        Ok(v) => v,
                        Err(e) => {
                            fault = Some(e);
                            break;
                        }
                    };
                    if index < 0 || index as usize >= len {
                        fault = Some(self.oob(name, index, len));
                        break;
                    }
                    out[i] = self.privs_f[i * stride + off + index as usize];
                }
                match fault {
                    Some(e) => {
                        self.fpool.push(out);
                        Err(e)
                    }
                    None => Ok(Slab::F(out)),
                }
            }
            BufSlot::PrivV { off, len, name } => {
                let (off, len) = (off as usize, len as usize);
                let stride = self.plan.priv_v_total;
                let mut out = self.vget();
                let mut fault = None;
                for (i, &m) in mask.iter().enumerate() {
                    if !m {
                        continue;
                    }
                    let index = match idx.idx(i) {
                        Ok(v) => v,
                        Err(e) => {
                            fault = Some(e);
                            break;
                        }
                    };
                    if index < 0 || index as usize >= len {
                        fault = Some(self.oob(name, index, len));
                        break;
                    }
                    out[i] = self.privs_v[i * stride + off + index as usize];
                }
                match fault {
                    Some(e) => {
                        self.vpool.push(out);
                        Err(e)
                    }
                    None => Ok(Slab::V(out)),
                }
            }
        }
    }

    /// The coalescing flush, identical in behaviour to
    /// [`Machine::flush_accesses`] but over the flat scratch arena and
    /// skipped outright when the statement queued no global access.
    fn flush(&mut self, mask: &[bool]) {
        if !self.any_pend {
            return;
        }
        let warp = self.warp.max(1);
        let n = self.n_items;
        for kind in 0..2 {
            let pend = if kind == 0 {
                &self.pend_loads
            } else {
                &self.pend_stores
            };
            let max_ord = pend.iter().map(|p| p.len()).max().unwrap_or(0);
            if max_ord == 0 {
                continue;
            }
            for warp_start in (0..n).step_by(warp) {
                for k in 0..max_ord {
                    self.segs.clear();
                    #[allow(clippy::needless_range_loop)] // parallel indexing into mask + pends
                    for i in warp_start..(warp_start + warp).min(n) {
                        if !mask[i] {
                            continue;
                        }
                        if let Some(addr) = pend[i].get(k) {
                            self.segs.push(addr / SEGMENT_BYTES);
                        }
                    }
                    if self.segs.is_empty() {
                        continue;
                    }
                    self.segs.sort_unstable();
                    self.segs.dedup();
                    if kind == 0 {
                        self.stats.load_transactions += self.segs.len() as u64;
                    } else {
                        self.stats.store_transactions += self.segs.len() as u64;
                    }
                    for s in &self.segs {
                        self.seen.insert(*s);
                    }
                }
            }
        }
        for p in &mut self.pend_loads {
            p.clear();
        }
        for p in &mut self.pend_stores {
            p.clear();
        }
        self.any_pend = false;
    }
}
