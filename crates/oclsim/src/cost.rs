//! Static analytical cost model: predict a kernel's [`KernelStats`] — and
//! through [`KernelStats::model_time`] its modeled runtime — for one launch
//! configuration **without executing a single lane of data**.
//!
//! # Data-free index replay
//!
//! The simulator's modeled time is a pure function of the event counts the
//! executor collects (transactions, ALU ops, barriers, occupancy inputs).
//! For the kernels Lift generates those counts never depend on buffer
//! *contents*: indices, loop bounds and branch conditions are arithmetic
//! over work-item ids and sizes. So this module re-runs the compiled
//! [`Plan`] bytecode with a degenerate value domain (`Lv`): integer index
//! math is tracked concretely per lane, float data collapses to a unit
//! "some float" value, and anything derived from buffer contents becomes
//! *unknown*. Every statistic is counted with exactly the same rules as
//! `PlanMachine` in [`crate::exec`] — same per-lane counting, same SIMD
//! idle-lane charge, same per-warp 128-byte coalescing flush — so on
//! kernels whose control flow and addressing are data-independent the
//! predicted [`KernelStats`] equal the measured ones **bit for bit**
//! ([`CostEstimate::exact`] is `true`).
//!
//! # Class replay: one work-group per equivalence class
//!
//! Most work-groups of a stencil launch behave alike: an interior group
//! takes the same branches as its neighbours and touches the same
//! addresses shifted by whole segments; only groups on a boundary face
//! (clamped halos, guarded partial groups) differ. Following Ernst et
//! al.'s representative-warp estimation, the replay partitions the group
//! grid into *classes*, replays one representative per class, and scales
//! its per-group counters (loads, stores, transactions, local accesses,
//! ALU and divergence ops, barriers) by the class size.
//!
//! **The skip proof.** A class starts as a box of groups (per axis: first
//! group, step, count). Every integer lane value carries, next to its
//! concrete value for the representative, its increment per box step
//! along each axis (an affine form in the group position). Add, subtract,
//! negate and multiply-by-constant stay affine exactly (wrapping
//! arithmetic is a ring homomorphism). Every *decision* — a comparison,
//! `min`/`max`, a branch or `?:` condition, a loop test, a bounds check,
//! a divisor, a local-memory slot, a product of two moving values — must
//! come out the same for every member as for the representative; where
//! the interval of the affine form over the class says it may not, the
//! class is cut down to the largest prefix (or single-group slab) on
//! which it provably does. Each warp's coalescing batch must move as one,
//! by a whole number of 128-byte segments per member; a misaligned axis
//! is thinned to every `p`-th group so it does. The members of the
//! resulting class therefore take the representative's control path,
//! stay in bounds, retire the same counts, and touch its segment set
//! translated by whole segments; `unique_segments` is the union of those
//! translated sets, built in one `SegmentSet` bitmap. The groups cut
//! away are queued as further boxes, each replayed the same way, so the
//! worst case degrades to one replay per group.
//!
//! **The full-replay fallback.** If any representative faults or goes
//! inexact (below), the class result is discarded and every group is
//! replayed in launch order with no class context — the original
//! one-group-at-a-time replay — so `Err` values and inexact bounds are
//! exactly those of a per-group replay.
//!
//! # Soundness when data leaks into control
//!
//! Where an unknown value *is* consumed the model degrades conservatively
//! and flips `exact` off, never under-counting:
//!
//! * **unknown branch condition** — both arms execute under superset lane
//!   masks (lanes with unknown conditions join both sides); scalar and
//!   buffer state is forked before the then-arm and merged element-wise
//!   afterwards (disagreeing values become unknown). Since the per-lane op
//!   charges and access sets of each arm grow monotonically with the mask,
//!   the resulting counts are an upper bound on any real execution.
//! * **unknown global-memory index** — the access is charged as fully
//!   uncoalesced: one transaction and one fresh unique segment per lane, an
//!   upper bound on whatever address the real index resolves to.
//! * **unknown loop bound or counter** — no sound bound on the trip count
//!   exists; the estimate is refused with [`SimError::Estimate`]. Loop
//!   replay is additionally guarded by a [`lift_arith`] interval trip-count
//!   ceiling so a non-terminating loop fails fast instead of spinning.
//!
//! The estimate is a pure function of (plan, launch, warp width): no RNG,
//! no ambient state, bit-identical across thread counts and shards — the
//! property the tuner's pruning layer relies on (see ARCHITECTURE.md).

use lift_arith::range::Interval;
use lift_codegen::clike::{BinOp, CType, UnOp, WorkItemFn};

use crate::device::DeviceProfile;
use crate::exec::{simd_charge, SimError};
use crate::perf::{KernelStats, SegmentSet, SEGMENT_BYTES};
use crate::plan::{BufSlot, EOp, ExprRef, Inst, Plan, Row};
use crate::runtime::LaunchConfig;

/// Ceiling on replayed iterations of a single loop when the interval bound
/// is huge (a safety valve against adversarial or miscompiled plans).
const REPLAY_MAX_TRIPS: u64 = 1 << 20;

/// A statically predicted [`KernelStats`], priced by the same
/// [`KernelStats::model_time`] the simulator uses.
#[derive(Debug, Clone)]
pub struct CostEstimate {
    /// The predicted event counts.
    pub stats: KernelStats,
    /// `true` when every count is provably equal to what the simulator
    /// would measure; `false` when data-dependent control flow or indexing
    /// forced conservative over-counting.
    pub exact: bool,
}

impl CostEstimate {
    /// The predicted runtime on `dev`, in seconds — the exact quantity
    /// [`crate::runtime::RunOutput::time_s`] reports for a real launch.
    pub fn time(&self, dev: &DeviceProfile) -> f64 {
        self.stats.model_time(dev)
    }
}

/// Statically estimates the stats of launching `plan` under `cfg` with the
/// given warp width. `params` carries each global parameter's element type
/// and length in declaration order (the plan itself only stores bases).
pub(crate) fn estimate_plan(
    plan: &Plan,
    params: &[(CType, usize)],
    cfg: LaunchConfig,
    warp: usize,
) -> Result<CostEstimate, SimError> {
    for d in 0..3 {
        if cfg.local[d] == 0 || cfg.global[d] == 0 {
            return Err(SimError::BadLaunch("zero-sized launch dimension".into()));
        }
        if !cfg.global[d].is_multiple_of(cfg.local[d]) {
            return Err(SimError::BadLaunch(format!(
                "global size {} not divisible by local size {} in dim {d}",
                cfg.global[d], cfg.local[d]
            )));
        }
    }
    let mut m = CostMachine::new(plan, params, cfg, warp);
    m.run()?;
    Ok(CostEstimate {
        exact: m.exact,
        stats: m.stats,
    })
}

fn est_err(msg: &str) -> SimError {
    SimError::Estimate(msg.into())
}

/// Per-box-step increments of an integer lane value along the three grid
/// axes (see "Class replay" in the module docs).
type Sl = [i64; 3];

/// The slope of a value that is the same in every group.
const FLAT: Sl = [0; 3];

/// The replay value domain: concrete integers (with their slope across
/// the class) and booleans (index math), a unit float (data whose value is
/// never tracked), and unknown.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Lv {
    I(i64, Sl),
    B(bool),
    F,
    Un,
}

/// The lane as a buffer index ([`crate::exec::V::as_i`] semantics):
/// `Ok(None)` means "unknown", a float is the fault the real run raises.
fn index_of(v: Lv) -> Result<Option<i64>, SimError> {
    match v {
        Lv::I(x, _) => Ok(Some(x)),
        Lv::B(b) => Ok(Some(b as i64)),
        Lv::Un => Ok(None),
        Lv::F => Err(SimError::TypeMismatch("expected int, found float".into())),
    }
}

/// The lane's slope across the class (flat for everything but integers).
fn slope_of(v: Lv) -> Sl {
    match v {
        Lv::I(_, s) => s,
        _ => FLAT,
    }
}

/// The lane as a condition ([`crate::exec::V::as_b`] semantics).
fn cond_of(v: Lv) -> Result<Option<bool>, SimError> {
    match v {
        Lv::B(b) => Ok(Some(b)),
        Lv::I(x, _) => Ok(Some(x != 0)),
        Lv::Un => Ok(None),
        Lv::F => Err(SimError::TypeMismatch("expected bool, found float".into())),
    }
}

/// Declaration coercion ([`crate::exec::coerce`] over [`Lv`]).
fn coerce_lv(v: Lv, ty: CType) -> Lv {
    match (ty, v) {
        (CType::Float, Lv::I(..)) => Lv::F,
        (CType::Int, Lv::B(x)) => Lv::I(x as i64, FLAT),
        _ => v,
    }
}

/// Explicit cast ([`crate::exec`]'s scalar `cast` over [`Lv`]): an
/// int-from-float cast has an unknown result because float values are
/// never tracked.
fn cast_lv(t: CType, v: Lv) -> Lv {
    match (t, v) {
        (CType::Float, Lv::I(..)) => Lv::F,
        (CType::Int, Lv::F) => Lv::Un,
        (CType::Float, Lv::Un) | (CType::Int, Lv::Un) => Lv::Un,
        (_, v) => v,
    }
}

fn zip_sl(a: Sl, b: Sl, f: impl Fn(i64, i64) -> i64) -> Sl {
    [f(a[0], b[0]), f(a[1], b[1]), f(a[2], b[2])]
}

fn lv_un(op: UnOp, a: Lv) -> Lv {
    match (op, a) {
        (UnOp::Neg, Lv::I(x, s)) => Lv::I(x.wrapping_neg(), s.map(i64::wrapping_neg)),
        (UnOp::Neg, Lv::F) => Lv::F,
        (UnOp::Not, Lv::B(x)) => Lv::B(!x),
        _ => Lv::Un,
    }
}

/// Merge two possible values of the same storage cell: agreement is kept,
/// disagreement is unknown. Integers compare by value alone, so callers
/// replaying a class first shrink it to the representative.
fn lv_join(a: Lv, b: Lv) -> Lv {
    match (a, b) {
        (Lv::I(x, s), Lv::I(y, _)) if x == y => Lv::I(x, s),
        _ if a == b => a,
        _ => Lv::Un,
    }
}

/// The work-groups one representative replay stands for. Along axis `d`
/// the members sit `j · p[d]` box steps from the representative, for
/// `j < ext[d]`; an axis with `ext[d] == 1` is *inactive* and its slopes
/// are never consulted. Every `keep_*` check shrinks the class (never
/// below the representative) until the checked decision provably comes
/// out for every member as it does for the representative.
#[derive(Debug, Clone, Copy)]
struct Class {
    ext: [u64; 3],
    p: [u64; 3],
    /// Whether any axis is active (otherwise every check is a no-op).
    active: bool,
}

impl Class {
    fn new(ext: [u64; 3]) -> Class {
        Class {
            ext,
            p: [1; 3],
            active: ext.iter().any(|&e| e > 1),
        }
    }

    fn members(&self) -> u64 {
        self.ext.iter().product()
    }

    fn set_ext(&mut self, d: usize, e: u64) {
        self.ext[d] = self.ext[d].min(e.max(1));
        self.active = self.ext.iter().any(|&e| e > 1);
    }

    /// Drops every active axis along which `s` moves.
    fn collapse(&mut self, s: Sl) {
        for (d, &sd) in s.iter().enumerate() {
            if sd != 0 {
                self.set_ext(d, 1);
            }
        }
    }

    fn collapse_all(&mut self) {
        self.collapse([1; 3]);
    }

    /// Whether a value with slope `s` differs between members.
    fn moves(&self, s: Sl) -> bool {
        self.active && (0..3).any(|d| self.ext[d] > 1 && s[d] != 0)
    }

    /// Slope per member step along axis `d` (zero on inactive axes).
    fn step_slope(&self, s: Sl, d: usize) -> i128 {
        if self.ext[d] > 1 {
            s[d] as i128 * self.p[d] as i128
        } else {
            0
        }
    }

    /// The exact range of `x + s·j` over the class.
    fn range(&self, x: i64, s: Sl) -> (i128, i128) {
        let (mut lo, mut hi) = (x as i128, x as i128);
        for d in 0..3 {
            let span = self.step_slope(s, d) * (self.ext[d] - 1) as i128;
            if span > 0 {
                hi += span;
            } else {
                lo += span;
            }
        }
        (lo, hi)
    }

    /// Whether `x + s·j` stays inside `i64` over the class, so that the
    /// members' wrapped values equal the exact affine ones.
    fn fits(&self, x: i64, s: Sl) -> bool {
        let (lo, hi) = self.range(x, s);
        lo >= i64::MIN as i128 && hi <= i64::MAX as i128
    }

    /// Keeps `a < b` deciding for every member as for the representative.
    fn keep_lt(&mut self, a: i64, sa: Sl, b: i64, sb: Sl) {
        if !self.moves(sa) && !self.moves(sb) {
            return;
        }
        if !self.fits(a, sa) || !self.fits(b, sb) {
            self.collapse(sa);
            self.collapse(sb);
            return;
        }
        let d0 = a as i128 - b as i128;
        let below = d0 < 0;
        // Axes whose slope pushes `a - b` towards the other verdict; the
        // remaining axes only move it further away.
        let mut worst = d0;
        let mut lead: Option<usize> = None;
        let mut threats = [false; 3];
        for d in 0..3 {
            if self.ext[d] <= 1 {
                continue;
            }
            let s = (sa[d] as i128 - sb[d] as i128) * self.p[d] as i128;
            if (below && s > 0) || (!below && s < 0) {
                threats[d] = true;
                worst += s * (self.ext[d] - 1) as i128;
                if lead.is_none_or(|l| self.ext[d] > self.ext[l]) {
                    lead = Some(d);
                }
            }
        }
        if (worst < 0) == below {
            return;
        }
        let f = lead.expect("a failing check has a moving axis");
        for (d, &threat) in threats.iter().enumerate() {
            if threat && d != f {
                self.set_ext(d, 1);
            }
        }
        let s = (sa[f] as i128 - sb[f] as i128) * self.p[f] as i128;
        // First member index whose verdict would flip along `f`.
        let flip = if below {
            (-d0 + s - 1) / s
        } else {
            d0 / -s + 1
        };
        self.set_ext(f, u64::try_from(flip).unwrap_or(u64::MAX));
    }

    /// Keeps `a == b` deciding for every member as for the representative.
    fn keep_eq(&mut self, a: i64, sa: Sl, b: i64, sb: Sl) {
        if !self.active {
            return;
        }
        match a.cmp(&b) {
            std::cmp::Ordering::Less => self.keep_lt(a, sa, b, sb),
            std::cmp::Ordering::Greater => self.keep_lt(b, sb, a, sa),
            std::cmp::Ordering::Equal => self.collapse(zip_sl(sa, sb, |x, y| (x != y) as i64)),
        }
    }

    /// Keeps an in-bounds index `x` inside `[0, len)` for every member.
    fn keep_in(&mut self, x: i64, s: Sl, len: usize) {
        self.keep_lt(x, s, len as i64, FLAT);
        self.keep_lt(-1, FLAT, x, s);
    }

    /// Makes every active axis move a coalescing batch, whose lanes share
    /// the element-index slope `idx`, by whole segments: an axis whose
    /// member step is not a segment multiple is thinned to every `q`-th
    /// member.
    fn keep_aligned(&mut self, idx: Sl) {
        for d in 0..3 {
            let bytes = 4 * self.step_slope(idx, d);
            let r = bytes.rem_euclid(SEGMENT_BYTES as i128) as u64;
            if r != 0 {
                let q = SEGMENT_BYTES / gcd(r, SEGMENT_BYTES);
                self.p[d] *= q;
                let thinned = self.ext[d].div_ceil(q);
                self.set_ext(d, thinned);
            }
        }
    }

    /// The least value of `b - r` over the class, for the affine forms
    /// `r` and `b` (a floor on every member's loop-trip span).
    fn min_span(&self, r: (i64, Sl), b: (i64, Sl)) -> i128 {
        let d0 = b.0 as i128 - r.0 as i128;
        (0..3)
            .map(|d| {
                let s = (b.1[d] as i128 - r.1[d] as i128) * self.p[d] as i128;
                if self.ext[d] > 1 {
                    s.min(0) * (self.ext[d] - 1) as i128
                } else {
                    0
                }
            })
            .sum::<i128>()
            + d0
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// One `?:` select in flight (mirrors the executor's `SelFrame`); lanes
/// with an unknown condition are members of *both* arm masks.
struct CFrame {
    mask_then: Vec<bool>,
    count_then: u64,
    mask_else: Vec<bool>,
    count_else: u64,
    in_else: bool,
    saved: Option<Vec<Lv>>,
}

/// Forked mutable state for a both-arms branch replay.
#[derive(Default)]
struct Snap {
    ivals: Vec<Lv>,
    vvals: Vec<Lv>,
    locals_v: Vec<Lv>,
    privs_v: Vec<Lv>,
}

/// A statement-level `if` whose condition was unknown for some lane: both
/// arms run under superset masks and the state merges at the `EndIf`.
struct Fallback {
    /// pc of the `ElseJoin` where the then-arm state is parked and the
    /// entry state restored.
    join_pc: usize,
    /// pc of the matching `EndIf` where the two arm states merge.
    end_pc: usize,
    tmask: usize,
    emask: usize,
    /// State on branch entry (moved back into the machine at `join_pc`).
    entry: Snap,
    /// State after the then-arm (merged at `end_pc`).
    after_then: Option<Snap>,
}

/// A box of work-groups: along axis `d`, `count[d]` groups from
/// `start[d]`, `step[d]` apart.
#[derive(Debug, Clone, Copy)]
struct GroupBox {
    start: [usize; 3],
    step: [usize; 3],
    count: [usize; 3],
}

impl GroupBox {
    /// Queues every group of this box outside `class` — the members its
    /// first group's replay stood for — as further boxes.
    fn split_off(&self, class: &Class, work: &mut Vec<GroupBox>) {
        let class_p = |d: usize| {
            if class.ext[d] > 1 {
                class.p[d] as usize
            } else {
                1
            }
        };
        for d in 0..3 {
            let (count, p, e) = (self.count[d], class_p(d), class.ext[d] as usize);
            // The class holds offsets `0, p, .., p·(e-1)`; the rest of
            // `0..count` is the other residues below `p·e` and the tail.
            let lim = count.min(p * e);
            let mut runs: Vec<(usize, usize, usize)> = (1..p.min(lim))
                .map(|r| (r, p, (lim - r).div_ceil(p)))
                .collect();
            if count > p * e {
                runs.push((p * e, 1, count - p * e));
            }
            for (first, stride, n) in runs {
                let mut b = *self;
                for c in 0..d {
                    b.step[c] = self.step[c] * class_p(c);
                    b.count[c] = class.ext[c] as usize;
                }
                b.start[d] = self.start[d] + first * self.step[d];
                b.step[d] = self.step[d] * stride;
                b.count[d] = n;
                work.push(b);
            }
        }
    }
}

struct CostMachine<'a> {
    plan: &'a Plan,
    /// Element type and length per global parameter slot.
    params: &'a [(CType, usize)],
    stats: KernelStats,
    warp: usize,
    cfg: LaunchConfig,
    n_items: usize,
    group_id: [usize; 3],
    lids: Vec<[usize; 3]>,
    /// Replay lanes for the executor's `i64` / tagged scalar register rows
    /// (slot-major, `rows × n_items`, like the real arenas).
    ivals: Vec<Lv>,
    vvals: Vec<Lv>,
    /// Replay lanes for the tagged local / private arenas. The *float*
    /// arenas need no storage at all: every load from them is `Lv::F`.
    locals_v: Vec<Lv>,
    privs_v: Vec<Lv>,
    /// Pending global accesses per lane: address and index slope.
    pend_loads: Vec<Vec<(u64, Sl)>>,
    pend_stores: Vec<Vec<(u64, Sl)>>,
    any_pend: bool,
    masks: Vec<Vec<bool>>,
    mask_any: Vec<bool>,
    mask_stack: Vec<u16>,
    uni_mask: Vec<bool>,
    segs: Vec<u64>,
    /// Slab pool for the op-major evaluator.
    pool: Vec<Vec<Lv>>,
    exact: bool,
    /// Unique-segment upper bound for unknown-index accesses, added to
    /// `unique_segments` at finalise.
    synthetic_segments: u64,
    fallbacks: Vec<Fallback>,
    /// Per-`ForHead` iteration counters and their interval-derived trip
    /// ceilings, indexed by pc.
    loop_iters: Vec<u64>,
    loop_limits: Vec<u64>,
    /// Per-`ForHead` floor on every class member's trip ceiling, and the
    /// slope of the span it was taken from.
    loop_floors: Vec<u64>,
    loop_floor_slopes: Vec<Sl>,
    /// The groups the current replay stands for.
    class: Class,
    /// `get_group_id`'s slope per box step along each axis.
    group_slope: Sl,
    /// Segments the representative touched while its class was active,
    /// with the element-index slope that moves them.
    class_segs: Vec<(u64, Sl)>,
    seen: SegmentSet,
}

impl<'a> CostMachine<'a> {
    fn new(plan: &'a Plan, params: &'a [(CType, usize)], cfg: LaunchConfig, warp: usize) -> Self {
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
        CostMachine {
            plan,
            params,
            stats,
            warp,
            cfg,
            n_items,
            group_id: [0, 0, 0],
            lids,
            ivals: vec![Lv::I(0, FLAT); plan.n_int_rows * n_items],
            vvals: vec![Lv::I(0, FLAT); plan.n_var_rows * n_items],
            locals_v: vec![Lv::F; plan.local_v_total],
            privs_v: vec![Lv::F; plan.priv_v_total * n_items],
            pend_loads: vec![Vec::new(); n_items],
            pend_stores: vec![Vec::new(); n_items],
            any_pend: false,
            masks: (0..n_masks).map(|i| vec![i == 0; n_items]).collect(),
            mask_any: vec![false; n_masks],
            mask_stack: Vec::with_capacity(n_masks),
            uni_mask: {
                let mut m = vec![false; n_items.max(1)];
                m[0] = true;
                m
            },
            segs: Vec::with_capacity(warp.max(1)),
            pool: Vec::new(),
            exact: true,
            synthetic_segments: 0,
            fallbacks: Vec::new(),
            loop_iters: vec![0; plan.code.len()],
            loop_limits: vec![0; plan.code.len()],
            loop_floors: vec![0; plan.code.len()],
            loop_floor_slopes: vec![FLAT; plan.code.len()],
            class: Class::new([1; 3]),
            group_slope: FLAT,
            class_segs: Vec::new(),
            seen: SegmentSet::with_segments(plan.global_segments),
        }
    }

    fn run(&mut self) -> Result<(), SimError> {
        let launch = self.stats.clone();
        if self.replay_classes().is_none() {
            self.stats = launch;
            self.seen = SegmentSet::with_segments(self.plan.global_segments);
            self.exact = true;
            self.synthetic_segments = 0;
            for p in self.pend_loads.iter_mut().chain(&mut self.pend_stores) {
                p.clear();
            }
            self.any_pend = false;
            self.replay_every_group()?;
        }
        self.stats.unique_segments = self.seen.len() + self.synthetic_segments;
        Ok(())
    }

    /// The class replay (see the module docs), returning the number of
    /// representatives replayed; `None`, with the counts unusable, as soon
    /// as one faults or goes inexact.
    fn replay_classes(&mut self) -> Option<u64> {
        let mut total = self.stats.clone();
        let mut replays = 0;
        let mut work = vec![GroupBox {
            start: [0; 3],
            step: [1; 3],
            count: self.cfg.groups(),
        }];
        while let Some(bx) = work.pop() {
            self.stats = KernelStats::default();
            self.begin(bx.start, Class::new(bx.count.map(|c| c as u64)), bx.step);
            if self.exec().is_err() || !self.exact {
                return None;
            }
            replays += 1;
            total.add_scaled(&self.stats, self.class.members());
            self.add_class_segments();
            bx.split_off(&self.class, &mut work);
        }
        self.stats = total;
        Some(replays)
    }

    /// The one-group-at-a-time replay, in launch order.
    fn replay_every_group(&mut self) -> Result<(), SimError> {
        let groups = self.cfg.groups();
        for gz in 0..groups[2] {
            for gy in 0..groups[1] {
                for gx in 0..groups[0] {
                    self.begin([gx, gy, gz], Class::new([1; 3]), [1; 3]);
                    self.exec()?;
                }
            }
        }
        Ok(())
    }

    /// Arms the machine to replay `group` standing for `class`, whose
    /// members lie `step` groups apart along each axis.
    fn begin(&mut self, group: [usize; 3], class: Class, step: [usize; 3]) {
        self.group_id = group;
        self.class = class;
        self.group_slope =
            std::array::from_fn(|d| if class.ext[d] > 1 { step[d] as i64 } else { 0 });
        self.class_segs.clear();
        self.reset_group();
    }

    /// Adds the representative's recorded segments, translated to every
    /// member of its class, to the launch's segment set.
    fn add_class_segments(&mut self) {
        let c = self.class;
        for (_, idx) in self.class_segs.iter_mut() {
            for (s, &e) in idx.iter_mut().zip(&c.ext) {
                if e <= 1 {
                    *s = 0;
                }
            }
        }
        self.class_segs.sort_unstable();
        self.class_segs.dedup();
        for &(seg, idx) in &self.class_segs {
            // `keep_aligned` made each active step a whole segment count.
            let t: [i128; 3] =
                std::array::from_fn(|d| 4 * c.step_slope(idx, d) / SEGMENT_BYTES as i128);
            for jz in 0..c.ext[2] as i128 {
                for jy in 0..c.ext[1] as i128 {
                    let row = seg as i128 + t[2] * jz + t[1] * jy;
                    for jx in 0..c.ext[0] as i128 {
                        self.seen.insert((row + t[0] * jx) as u64);
                    }
                }
            }
        }
    }

    /// Group-start state, mirroring the executor: scalars are integer
    /// zero, local/private storage is float zero.
    fn reset_group(&mut self) {
        self.ivals.fill(Lv::I(0, FLAT));
        self.vvals.fill(Lv::I(0, FLAT));
        self.locals_v.fill(Lv::F);
        self.privs_v.fill(Lv::F);
        self.mask_stack.clear();
        self.mask_stack.push(0);
        self.loop_iters.fill(0);
        self.fallbacks.clear();
    }

    #[inline]
    fn top_mask(&self) -> usize {
        *self.mask_stack.last().expect("mask stack never empties") as usize
    }

    fn get(&mut self) -> Vec<Lv> {
        self.pool
            .pop()
            .unwrap_or_else(|| vec![Lv::Un; self.n_items])
    }

    fn put(&mut self, v: Vec<Lv>) {
        self.pool.push(v);
    }

    fn take_state(&mut self) -> Snap {
        Snap {
            ivals: std::mem::take(&mut self.ivals),
            vvals: std::mem::take(&mut self.vvals),
            locals_v: std::mem::take(&mut self.locals_v),
            privs_v: std::mem::take(&mut self.privs_v),
        }
    }

    fn put_state(&mut self, s: Snap) {
        self.ivals = s.ivals;
        self.vvals = s.vvals;
        self.locals_v = s.locals_v;
        self.privs_v = s.privs_v;
    }

    fn clone_state(&self) -> Snap {
        Snap {
            ivals: self.ivals.clone(),
            vvals: self.vvals.clone(),
            locals_v: self.locals_v.clone(),
            privs_v: self.privs_v.clone(),
        }
    }

    fn exec(&mut self) -> Result<(), SimError> {
        let mut pc = 0usize;
        while pc < self.plan.code.len() {
            match self.plan.code[pc].clone() {
                Inst::SetScalar {
                    row,
                    value,
                    coerce,
                    charge,
                } => {
                    let ms = self.top_mask();
                    let mask = std::mem::take(&mut self.masks[ms]);
                    let before = self.stats.alu_ops;
                    let r = self.set_scalar(&mask, row, value, coerce);
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
                    let mslot = mask as usize;
                    let ps = self.top_mask();
                    let parent = std::mem::take(&mut self.masks[ps]);
                    let mut child = std::mem::take(&mut self.masks[mslot]);
                    let r = self.for_head(&parent, &mut child, row, bound, pc);
                    self.masks[ps] = parent;
                    self.masks[mslot] = child;
                    if r? {
                        self.mask_stack.push(mslot as u16);
                        pc += 1;
                    } else {
                        pc = exit as usize;
                    }
                }
                Inst::ForStep { row, step, head } => {
                    let ms = self.top_mask();
                    let mask = std::mem::take(&mut self.masks[ms]);
                    let r = self.for_step(&mask, row, step);
                    self.masks[ms] = mask;
                    r?;
                    self.mask_stack.pop();
                    pc = head as usize;
                }
                Inst::IfHead {
                    cond,
                    tmask,
                    emask,
                    els,
                    end,
                } => {
                    let (tm, em) = (tmask as usize, emask as usize);
                    let (els, end) = (els as usize, end as usize);
                    let ps = self.top_mask();
                    let parent = std::mem::take(&mut self.masks[ps]);
                    let mut t = std::mem::take(&mut self.masks[tm]);
                    let mut e = std::mem::take(&mut self.masks[em]);
                    let r = self.if_head(&parent, &mut t, &mut e, cond);
                    self.masks[ps] = parent;
                    self.masks[tm] = t;
                    self.masks[em] = e;
                    let (any_t, any_e, unknown) = r?;
                    self.mask_any[tm] = any_t;
                    self.mask_any[em] = any_e;
                    if unknown {
                        // Both arms will run under superset masks; fork the
                        // state so the else-arm starts from branch entry.
                        self.fallbacks.push(Fallback {
                            join_pc: els - 1,
                            end_pc: end - 1,
                            tmask: tm,
                            emask: em,
                            entry: self.clone_state(),
                            after_then: None,
                        });
                    }
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
                    if self.fallbacks.last().is_some_and(|f| f.join_pc == pc) {
                        // Park the then-arm outcome, rewind to branch entry
                        // for the (forced) else-arm.
                        let cur = self.take_state();
                        let f = self.fallbacks.last_mut().expect("checked above");
                        let entry = std::mem::take(&mut f.entry);
                        f.after_then = Some(cur);
                        self.put_state(entry);
                    }
                    self.mask_stack.pop();
                    if self.mask_any[emask as usize] {
                        self.mask_stack.push(emask);
                        pc = els as usize;
                    } else {
                        pc = end as usize;
                    }
                }
                Inst::EndIf => {
                    if self.fallbacks.last().is_some_and(|f| f.end_pc == pc) {
                        self.merge_fallback()?;
                    }
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

    /// Merges the two arm states of a both-arms branch: per-lane storage
    /// is attributed through the arm masks (a lane in exactly one arm
    /// keeps that arm's value; a lane in both keeps agreeing values),
    /// shared local storage merges by agreement.
    fn merge_fallback(&mut self) -> Result<(), SimError> {
        let f = self.fallbacks.pop().expect("checked by caller");
        let then = f
            .after_then
            .ok_or_else(|| est_err("branch replay desynchronised"))?;
        let n = self.n_items;
        let (tmask, emask) = (&self.masks[f.tmask], &self.masks[f.emask]);
        let merge_lanes = |cur: &mut [Lv], then: &[Lv]| {
            for (j, slot) in cur.iter_mut().enumerate() {
                let i = j % n;
                match (tmask[i], emask[i]) {
                    (true, true) => *slot = lv_join(then[j], *slot),
                    (true, false) | (false, false) => *slot = then[j],
                    (false, true) => {}
                }
            }
        };
        merge_lanes(&mut self.ivals, &then.ivals);
        merge_lanes(&mut self.vvals, &then.vvals);
        // Private arenas are item-major: element j belongs to lane
        // j / priv_v_total.
        let stride = self.plan.priv_v_total.max(1);
        for (j, slot) in self.privs_v.iter_mut().enumerate() {
            let i = j / stride;
            match (tmask[i], emask[i]) {
                (true, true) => *slot = lv_join(then.privs_v[j], *slot),
                (true, false) | (false, false) => *slot = then.privs_v[j],
                (false, true) => {}
            }
        }
        // Local memory is shared across lanes: no attribution is possible.
        for (slot, &t) in self.locals_v.iter_mut().zip(&then.locals_v) {
            *slot = lv_join(t, *slot);
        }
        Ok(())
    }

    fn row_lane(&self, row: Row, i: usize) -> Lv {
        let n = self.n_items;
        match row {
            Row::I(r) => self.ivals[r as usize * n + i],
            Row::V(r) => self.vvals[r as usize * n + i],
        }
    }

    fn set_row_lane(&mut self, row: Row, i: usize, v: Lv) {
        let n = self.n_items;
        match row {
            Row::I(r) => self.ivals[r as usize * n + i] = v,
            Row::V(r) => self.vvals[r as usize * n + i] = v,
        }
    }

    fn set_scalar(
        &mut self,
        mask: &[bool],
        row: Row,
        value: ExprRef,
        co: Option<CType>,
    ) -> Result<(), SimError> {
        if value.uniform {
            let mut ops = 0u64;
            let mut v = self.eval_uniform(value, &mut ops)?;
            if let Some(t) = co {
                v = coerce_lv(v, t);
            }
            let mut count = 0u64;
            for (i, &live) in mask.iter().enumerate().take(self.n_items) {
                if live {
                    self.set_row_lane(row, i, v);
                    count += 1;
                }
            }
            self.stats.alu_ops += ops * count;
        } else {
            let mut ops = 0u64;
            let v = self.eval_vec(value, mask, &mut ops)?;
            for i in 0..self.n_items {
                if mask[i] {
                    let x = match co {
                        Some(t) => coerce_lv(v[i], t),
                        None => v[i],
                    };
                    self.set_row_lane(row, i, x);
                }
            }
            self.put(v);
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
            let v = self.eval_uniform(idx, &mut hoist_ops)?;
            if matches!(v, Lv::F) {
                return Err(SimError::TypeMismatch("expected int, found float".into()));
            }
            Err(v)
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
            self.put(s);
        }
        if let Ok(s) = val_src {
            self.put(s);
        }
        r?;
        self.stats.alu_ops += ops + hoist_ops * count;
        Ok(())
    }

    fn store_lanes(
        &mut self,
        mask: &[bool],
        buf: BufSlot,
        idx_src: &Result<Vec<Lv>, Lv>,
        val_src: &Result<Vec<Lv>, Lv>,
        count: &mut u64,
    ) -> Result<(), SimError> {
        let n = self.n_items;
        let lane_idx = |i: usize| match idx_src {
            Ok(s) => s[i],
            Err(pre) => *pre,
        };
        let lane_val = |i: usize| match val_src {
            Ok(s) => s[i],
            Err(pre) => *pre,
        };
        match buf {
            BufSlot::Global { slot, name } => {
                let base = self.plan.global_bases[slot as usize];
                let len = self.params[slot as usize].1;
                let mut stores = 0u64;
                for (i, &m) in mask.iter().enumerate().take(n) {
                    if !m {
                        continue;
                    }
                    *count += 1;
                    let lane = lane_idx(i);
                    match index_of(lane)? {
                        Some(index) => {
                            if index < 0 || index as usize >= len {
                                return Err(self.oob(name, index, len));
                            }
                            let s = slope_of(lane);
                            self.class.keep_in(index, s, len);
                            self.pend_stores[i].push((base + index as u64 * 4, s));
                        }
                        None => {
                            // Worst case: the store coalesces with nothing
                            // and touches a never-seen segment.
                            self.stats.store_transactions += 1;
                            self.synthetic_segments += 1;
                            self.exact = false;
                        }
                    }
                    stores += 1;
                }
                self.stats.global_stores += stores;
                if stores > 0 {
                    self.any_pend = true;
                }
                Ok(())
            }
            BufSlot::LocalF { off: _, len, name } | BufSlot::PrivF { off: _, len, name } => {
                let len = len as usize;
                let mut accesses = 0u64;
                for (i, &m) in mask.iter().enumerate().take(n) {
                    if !m {
                        continue;
                    }
                    *count += 1;
                    let lane = lane_idx(i);
                    if let Some(index) = index_of(lane)? {
                        if index < 0 || index as usize >= len {
                            return Err(self.oob(name, index, len));
                        }
                        self.class.keep_in(index, slope_of(lane), len);
                    }
                    accesses += 1;
                }
                if matches!(buf, BufSlot::LocalF { .. }) {
                    self.stats.local_accesses += accesses;
                }
                Ok(())
            }
            BufSlot::LocalV { off, len, name } | BufSlot::PrivV { off, len, name } => {
                let (off, len) = (off as usize, len as usize);
                let local = matches!(buf, BufSlot::LocalV { .. });
                // Local storage is one shared block; private storage one
                // item-major block per lane.
                let stride = if local { 0 } else { self.plan.priv_v_total };
                let mut accesses = 0u64;
                for (i, &m) in mask.iter().enumerate().take(n) {
                    if !m {
                        continue;
                    }
                    *count += 1;
                    let v = lane_val(i);
                    let lane = lane_idx(i);
                    let arena = if local {
                        &mut self.locals_v
                    } else {
                        &mut self.privs_v
                    };
                    let block = i * stride + off;
                    match index_of(lane)? {
                        Some(index) => {
                            if index < 0 || index as usize >= len {
                                return Err(self.oob(name, index, len));
                            }
                            arena[block + index as usize] = v;
                            // Every member must write the same cell.
                            self.class.collapse(slope_of(lane));
                        }
                        None => {
                            // The write could land anywhere in the buffer;
                            // the joins are the representative's alone.
                            self.class.collapse_all();
                            for slot in &mut arena[block..block + len] {
                                *slot = lv_join(*slot, v);
                            }
                        }
                    }
                    accesses += 1;
                }
                if local {
                    self.stats.local_accesses += accesses;
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
        pc: usize,
    ) -> Result<bool, SimError> {
        child.clear();
        child.resize(self.n_items, false);
        let n = self.n_items;
        let before = self.stats.alu_ops;
        let mut any = false;
        // The lowest counter and highest bound seen, with their slopes:
        // the interval the trip ceiling is taken from.
        let mut low: Option<(i64, Sl)> = None;
        let mut high: Option<(i64, Sl)> = None;
        let mut compare = |class: &mut Class, cur: Lv, b: Lv| -> Result<bool, SimError> {
            let Some(c) = index_of(cur)? else {
                return Err(est_err("loop counter depends on untracked data"));
            };
            let Some(bv) = index_of(b)? else {
                return Err(est_err("loop bound depends on untracked data"));
            };
            let (sc, sb) = (slope_of(cur), slope_of(b));
            class.keep_lt(c, sc, bv, sb);
            if low.is_none_or(|(l, _)| c < l) {
                low = Some((c, sc));
            }
            if high.is_none_or(|(h, _)| bv > h) {
                high = Some((bv, sb));
            }
            Ok(c < bv)
        };
        if bound.uniform {
            let mut ops = 0u64;
            let b = self.eval_uniform(bound, &mut ops)?;
            if index_of(b)?.is_none() {
                return Err(est_err("loop bound depends on untracked data"));
            }
            let mut count = 0u64;
            for i in 0..n {
                if !parent[i] {
                    continue;
                }
                let cur = self.row_lane(row, i);
                self.stats.alu_ops += 1; // the comparison
                if compare(&mut self.class, cur, b)? {
                    child[i] = true;
                    any = true;
                }
                count += 1;
            }
            self.stats.alu_ops += ops * count;
        } else {
            let mut ops = 0u64;
            let bv = self.eval_vec(bound, parent, &mut ops)?;
            let mut compared = 0u64;
            let mut fault = None;
            for i in 0..n {
                if !parent[i] {
                    continue;
                }
                let cur = self.row_lane(row, i);
                match compare(&mut self.class, cur, bv[i]) {
                    Ok(lt) => {
                        if lt {
                            child[i] = true;
                            any = true;
                        }
                    }
                    Err(e) => {
                        fault = Some(e);
                        break;
                    }
                }
                compared += 1;
            }
            self.put(bv);
            if let Some(e) = fault {
                return Err(e);
            }
            self.stats.alu_ops += compared + ops;
        }
        if any {
            let (r, b) = (
                low.expect("any implies a compared lane"),
                high.expect("any implies a compared lane"),
            );
            if self.loop_iters[pc] == 0 {
                // A minimum step of one gives the largest possible trip
                // count; a non-positive step never terminates.
                self.loop_limits[pc] = Interval::point(r.0)
                    .trip_count(Interval::point(b.0), 1)
                    .unwrap_or(u64::MAX)
                    .min(REPLAY_MAX_TRIPS);
                // Each member's ceiling spans at least this far.
                let floor = self.class.min_span(r, b).clamp(0, REPLAY_MAX_TRIPS as i128);
                self.loop_floors[pc] = (floor as u64).min(self.loop_limits[pc]);
                self.loop_floor_slopes[pc] = zip_sl(b.1, r.1, i64::wrapping_sub);
            }
            self.loop_iters[pc] += 1;
            if self.loop_iters[pc] > self.loop_limits[pc] {
                return Err(est_err("loop replay exceeded its interval trip bound"));
            }
            if self.loop_iters[pc] > self.loop_floors[pc] {
                // Some member might trip its own ceiling: keep only those
                // whose span equals the representative's.
                self.class.collapse(self.loop_floor_slopes[pc]);
                self.loop_floors[pc] = self.loop_limits[pc];
            }
        } else {
            self.loop_iters[pc] = 0;
        }
        simd_charge(&mut self.stats, self.warp, parent, before);
        self.flush(parent);
        Ok(any)
    }

    fn for_step(&mut self, mask: &[bool], row: Row, step: ExprRef) -> Result<(), SimError> {
        let n = self.n_items;
        let before = self.stats.alu_ops;
        let add = |cur: Lv, st: Lv| -> Result<Lv, SimError> {
            let c = index_of(cur)?;
            let s = index_of(st)?;
            Ok(match (c, s) {
                (Some(a), Some(b)) => Lv::I(
                    a.wrapping_add(b),
                    zip_sl(slope_of(cur), slope_of(st), i64::wrapping_add),
                ),
                _ => Lv::Un,
            })
        };
        if step.uniform {
            let mut ops = 0u64;
            let st = self.eval_uniform(step, &mut ops)?;
            let mut count = 0u64;
            for (i, &live) in mask.iter().enumerate().take(n) {
                if !live {
                    continue;
                }
                let next = add(self.row_lane(row, i), st)?;
                self.set_row_lane(row, i, next);
                count += 1;
            }
            self.stats.alu_ops += count + ops * count;
        } else {
            let mut ops = 0u64;
            let sv = self.eval_vec(step, mask, &mut ops)?;
            let mut count = 0u64;
            let mut fault = None;
            for i in 0..n {
                if !mask[i] {
                    continue;
                }
                match add(self.row_lane(row, i), sv[i]) {
                    Ok(next) => {
                        self.set_row_lane(row, i, next);
                        count += 1;
                    }
                    Err(e) => {
                        fault = Some(e);
                        break;
                    }
                }
            }
            self.put(sv);
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
    ) -> Result<(bool, bool, bool), SimError> {
        t.clear();
        t.resize(self.n_items, false);
        e.clear();
        e.resize(self.n_items, false);
        let before = self.stats.alu_ops;
        let (mut any_t, mut any_e, mut unknown) = (false, false, false);
        if cond.uniform {
            let mut ops = 0u64;
            let c = self.eval_uniform(cond, &mut ops)?;
            let c = self.cond(c)?;
            let mut count = 0u64;
            for i in 0..self.n_items {
                if !parent[i] {
                    continue;
                }
                match c {
                    Some(true) => {
                        t[i] = true;
                        any_t = true;
                    }
                    Some(false) => {
                        e[i] = true;
                        any_e = true;
                    }
                    None => {
                        t[i] = true;
                        e[i] = true;
                        any_t = true;
                        any_e = true;
                        unknown = true;
                    }
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
                match self.cond(cv[i]) {
                    Ok(Some(true)) => {
                        t[i] = true;
                        any_t = true;
                    }
                    Ok(Some(false)) => {
                        e[i] = true;
                        any_e = true;
                    }
                    Ok(None) => {
                        t[i] = true;
                        e[i] = true;
                        any_t = true;
                        any_e = true;
                        unknown = true;
                    }
                    Err(err) => {
                        fault = Some(err);
                        break;
                    }
                }
            }
            self.put(cv);
            if let Some(err) = fault {
                return Err(err);
            }
            self.stats.alu_ops += ops;
        }
        if unknown {
            self.exact = false;
        }
        simd_charge(&mut self.stats, self.warp, parent, before);
        self.flush(parent);
        Ok((any_t, any_e, unknown))
    }

    /// A lane's condition, kept deciding the same across the class.
    fn cond(&mut self, v: Lv) -> Result<Option<bool>, SimError> {
        if let Lv::I(x, s) = v {
            self.class.keep_eq(x, s, 0, FLAT);
        }
        cond_of(v)
    }

    /// One binary op on replay lanes. The only replicated fault is
    /// division by a *known* zero (the real run faults identically); every
    /// combination the real engine would reject as a kind mismatch
    /// degrades to unknown — such a config fails simulation anyway, so its
    /// estimate is irrelevant. Every integer decision is kept uniform
    /// across the class (see [`Class`]).
    fn bin(&mut self, op: BinOp, a: Lv, b: Lv) -> Result<Lv, SimError> {
        use BinOp::*;
        let c = &mut self.class;
        Ok(match (op, a, b) {
            (Add, Lv::I(x, sx), Lv::I(y, sy)) => {
                Lv::I(x.wrapping_add(y), zip_sl(sx, sy, i64::wrapping_add))
            }
            (Sub, Lv::I(x, sx), Lv::I(y, sy)) => {
                Lv::I(x.wrapping_sub(y), zip_sl(sx, sy, i64::wrapping_sub))
            }
            (Mul, Lv::I(x, sx), Lv::I(y, sy)) => {
                // Affine only while one factor is constant over the class.
                if c.moves(sx) && c.moves(sy) {
                    c.collapse(sy);
                }
                let s = zip_sl(sx, sy, |p, q| {
                    p.wrapping_mul(y).wrapping_add(q.wrapping_mul(x))
                });
                Lv::I(x.wrapping_mul(y), s)
            }
            (Min, Lv::I(x, sx), Lv::I(y, sy)) => {
                c.keep_lt(y, sy, x, sx);
                if x <= y {
                    Lv::I(x, sx)
                } else {
                    Lv::I(y, sy)
                }
            }
            (Max, Lv::I(x, sx), Lv::I(y, sy)) => {
                c.keep_lt(x, sx, y, sy);
                if x < y {
                    Lv::I(y, sy)
                } else {
                    Lv::I(x, sx)
                }
            }
            (Div | Mod, Lv::I(x, sx), Lv::I(y, sy)) => {
                if y == 0 {
                    return Err(SimError::DivisionByZero);
                }
                c.collapse(sx);
                c.collapse(sy);
                if matches!(op, Div) {
                    Lv::I(x.wrapping_div(y), FLAT)
                } else {
                    Lv::I(x.wrapping_rem(y), FLAT)
                }
            }
            (Lt, Lv::I(x, sx), Lv::I(y, sy)) => {
                c.keep_lt(x, sx, y, sy);
                Lv::B(x < y)
            }
            (Le, Lv::I(x, sx), Lv::I(y, sy)) => {
                c.keep_lt(y, sy, x, sx);
                Lv::B(x <= y)
            }
            (Gt, Lv::I(x, sx), Lv::I(y, sy)) => {
                c.keep_lt(y, sy, x, sx);
                Lv::B(x > y)
            }
            (Ge, Lv::I(x, sx), Lv::I(y, sy)) => {
                c.keep_lt(x, sx, y, sy);
                Lv::B(x >= y)
            }
            (Eq, Lv::I(x, sx), Lv::I(y, sy)) => {
                c.keep_eq(x, sx, y, sy);
                Lv::B(x == y)
            }
            (Ne, Lv::I(x, sx), Lv::I(y, sy)) => {
                c.keep_eq(x, sx, y, sy);
                Lv::B(x != y)
            }
            (And, Lv::B(x), Lv::B(y)) => Lv::B(x && y),
            (Or, Lv::B(x), Lv::B(y)) => Lv::B(x || y),
            // Short-circuit refinement: one known side can decide the result.
            (And, Lv::B(false), _) | (And, _, Lv::B(false)) => Lv::B(false),
            (Or, Lv::B(true), _) | (Or, _, Lv::B(true)) => Lv::B(true),
            // Float arithmetic keeps the float kind; values are untracked, so
            // float comparisons are unknown.
            (Add | Sub | Mul | Div | Min | Max, Lv::F, Lv::F) => Lv::F,
            _ => Lv::Un,
        })
    }

    /// Evaluates a lane-invariant expression once under the one-lane mask;
    /// the caller multiplies `ops` by the active-lane count (uniform
    /// expressions read no scalars, loads or ids, so lane 0 is every lane).
    fn eval_uniform(&mut self, er: ExprRef, ops: &mut u64) -> Result<Lv, SimError> {
        let um = std::mem::take(&mut self.uni_mask);
        let r = self.eval_vec(er, &um, ops);
        self.uni_mask = um;
        let v = r?;
        let out = v[0];
        self.put(v);
        Ok(out)
    }

    /// Op-major replay of one compiled expression over the active lanes of
    /// `mask`, with the executor's exact op counting; returns the per-lane
    /// result slab (inactive lanes are unknown and never consumed).
    fn eval_vec(
        &mut self,
        er: ExprRef,
        stmt_mask: &[bool],
        ops: &mut u64,
    ) -> Result<Vec<Lv>, SimError> {
        let n = self.n_items;
        let stmt_count = stmt_mask.iter().filter(|&&b| b).count() as u64;
        let mut stack: Vec<Vec<Lv>> = Vec::new();
        let mut frames: Vec<CFrame> = Vec::new();
        macro_rules! cur_mask {
            () => {
                match frames.last() {
                    Some(f) if f.in_else => (f.mask_else.as_slice(), f.count_else),
                    Some(f) => (f.mask_then.as_slice(), f.count_then),
                    None => (stmt_mask, stmt_count),
                }
            };
        }
        macro_rules! bail {
            ($e:expr) => {{
                for s in stack.drain(..) {
                    self.put(s);
                }
                for f in frames.drain(..) {
                    if let Some(s) = f.saved {
                        self.put(s);
                    }
                }
                return Err($e);
            }};
        }
        for pc in er.start as usize..er.end as usize {
            match self.plan.ecode[pc] {
                EOp::I(c) => {
                    let mut v = self.get();
                    v.fill(Lv::I(c, FLAT));
                    stack.push(v);
                }
                EOp::F(_) => {
                    let mut v = self.get();
                    v.fill(Lv::F);
                    stack.push(v);
                }
                EOp::B(c) => {
                    let mut v = self.get();
                    v.fill(Lv::B(c));
                    stack.push(v);
                }
                EOp::Scalar(row) => {
                    let mut v = self.get();
                    match row {
                        Row::I(r) => {
                            v.copy_from_slice(&self.ivals[r as usize * n..(r as usize + 1) * n]);
                        }
                        Row::V(r) => {
                            v.copy_from_slice(&self.vvals[r as usize * n..(r as usize + 1) * n]);
                        }
                    }
                    stack.push(v);
                }
                EOp::WorkItem(f, d) => {
                    let mut v = self.get();
                    let d = d as usize;
                    // Group and global ids move with the group position.
                    let along = |k: i64| {
                        let mut s = FLAT;
                        s[d] = k;
                        s
                    };
                    let group_slope = self.group_slope[d];
                    match f {
                        WorkItemFn::GlobalId => {
                            let base = self.group_id[d] * self.cfg.local[d];
                            let s = along(group_slope * self.cfg.local[d] as i64);
                            for (i, slot) in v.iter_mut().enumerate() {
                                *slot = Lv::I((base + self.lids[i][d]) as i64, s);
                            }
                        }
                        WorkItemFn::LocalId => {
                            for (i, slot) in v.iter_mut().enumerate() {
                                *slot = Lv::I(self.lids[i][d] as i64, FLAT);
                            }
                        }
                        WorkItemFn::GroupId => {
                            v.fill(Lv::I(self.group_id[d] as i64, along(group_slope)))
                        }
                        WorkItemFn::GlobalSize => v.fill(Lv::I(self.cfg.global[d] as i64, FLAT)),
                        WorkItemFn::LocalSize => v.fill(Lv::I(self.cfg.local[d] as i64, FLAT)),
                        WorkItemFn::NumGroups => v.fill(Lv::I(self.cfg.groups()[d] as i64, FLAT)),
                    }
                    stack.push(v);
                }
                EOp::Bin(op) => {
                    let b = stack.pop().expect("binary operand");
                    let mut a = stack.pop().expect("binary operand");
                    let (mask, count) = cur_mask!();
                    *ops += count;
                    let mut fault = None;
                    for i in 0..n {
                        if !mask[i] {
                            a[i] = Lv::Un;
                            continue;
                        }
                        match self.bin(op, a[i], b[i]) {
                            Ok(v) => a[i] = v,
                            Err(e) => {
                                fault = Some(e);
                                break;
                            }
                        }
                    }
                    self.put(b);
                    if let Some(e) = fault {
                        self.put(a);
                        bail!(e);
                    }
                    stack.push(a);
                }
                EOp::Un(op) => {
                    let mut a = stack.pop().expect("unary operand");
                    let (mask, count) = cur_mask!();
                    *ops += count;
                    for i in 0..n {
                        a[i] = if mask[i] { lv_un(op, a[i]) } else { Lv::Un };
                    }
                    stack.push(a);
                }
                EOp::Call { fun: _, argc, cost } => {
                    let (_, count) = cur_mask!();
                    *ops += cost * count;
                    for _ in 0..argc {
                        let v = stack.pop().expect("call argument");
                        self.put(v);
                    }
                    // A user function's result depends on its (float)
                    // arguments, which are untracked.
                    let mut out = self.get();
                    out.fill(Lv::Un);
                    stack.push(out);
                }
                EOp::Load(buf) => {
                    let idx = stack.pop().expect("load index");
                    let (mask, _) = cur_mask!();
                    // Split borrows: copy the mask ref is fine (frames not
                    // touched by load_vec).
                    let r = self.load_vec(buf, &idx, mask);
                    self.put(idx);
                    match r {
                        Ok(v) => stack.push(v),
                        Err(e) => bail!(e),
                    }
                }
                EOp::Cast(t) => {
                    let mut a = stack.pop().expect("cast operand");
                    for slot in a.iter_mut() {
                        *slot = cast_lv(t, *slot);
                    }
                    stack.push(a);
                }
                EOp::SelSplit => {
                    let cond = stack.pop().expect("select condition");
                    let (mask, count) = cur_mask!();
                    *ops += count;
                    let mut mt = vec![false; n];
                    let mut me = vec![false; n];
                    let (mut ct, mut ce) = (0u64, 0u64);
                    let mut fault = None;
                    let mut unknown = false;
                    for i in 0..n {
                        if !mask[i] {
                            continue;
                        }
                        match self.cond(cond[i]) {
                            Ok(Some(true)) => {
                                mt[i] = true;
                                ct += 1;
                            }
                            Ok(Some(false)) => {
                                me[i] = true;
                                ce += 1;
                            }
                            Ok(None) => {
                                // Unknown: the lane evaluates one arm in
                                // reality; charge both (upper bound).
                                mt[i] = true;
                                me[i] = true;
                                ct += 1;
                                ce += 1;
                                unknown = true;
                            }
                            Err(e) => {
                                fault = Some(e);
                                break;
                            }
                        }
                    }
                    self.put(cond);
                    if let Some(e) = fault {
                        bail!(e);
                    }
                    if unknown {
                        self.exact = false;
                    }
                    frames.push(CFrame {
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
                    let mut e = stack.pop().expect("else value");
                    let t = f.saved.expect("then value parked");
                    for i in 0..n {
                        e[i] = match (f.mask_then[i], f.mask_else[i]) {
                            (true, true) => lv_join(t[i], e[i]),
                            (true, false) => t[i],
                            (false, true) => e[i],
                            (false, false) => Lv::Un,
                        };
                    }
                    self.put(t);
                    stack.push(e);
                }
            }
        }
        Ok(stack.pop().expect("expression produces a value"))
    }

    fn load_vec(&mut self, buf: BufSlot, idx: &[Lv], mask: &[bool]) -> Result<Vec<Lv>, SimError> {
        let n = self.n_items;
        let mut out = self.get();
        out.fill(Lv::Un);
        let r = self.load_lanes(buf, idx, mask, &mut out[..n]);
        match r {
            Ok(()) => Ok(out),
            Err(e) => {
                self.put(out);
                Err(e)
            }
        }
    }

    fn load_lanes(
        &mut self,
        buf: BufSlot,
        idx: &[Lv],
        mask: &[bool],
        out: &mut [Lv],
    ) -> Result<(), SimError> {
        match buf {
            BufSlot::Global { slot, name } => {
                let base = self.plan.global_bases[slot as usize];
                let (elem, len) = self.params[slot as usize];
                let loaded = if elem == CType::Float { Lv::F } else { Lv::Un };
                let mut count = 0u64;
                for (i, &m) in mask.iter().enumerate().take(out.len()) {
                    if !m {
                        continue;
                    }
                    match index_of(idx[i])? {
                        Some(index) => {
                            if index < 0 || index as usize >= len {
                                return Err(self.oob(name, index, len));
                            }
                            let s = slope_of(idx[i]);
                            self.class.keep_in(index, s, len);
                            self.pend_loads[i].push((base + index as u64 * 4, s));
                        }
                        None => {
                            self.stats.load_transactions += 1;
                            self.synthetic_segments += 1;
                            self.exact = false;
                        }
                    }
                    out[i] = loaded;
                    count += 1;
                }
                self.stats.global_loads += count;
                if count > 0 {
                    self.any_pend = true;
                }
            }
            BufSlot::LocalF { off: _, len, name }
            | BufSlot::PrivF { off: _, len, name }
            | BufSlot::LocalV { off: _, len, name }
            | BufSlot::PrivV { off: _, len, name } => {
                let len = len as usize;
                let mut count = 0u64;
                for (i, &m) in mask.iter().enumerate().take(out.len()) {
                    if !m {
                        continue;
                    }
                    out[i] = match index_of(idx[i])? {
                        Some(index) => {
                            if index < 0 || index as usize >= len {
                                return Err(self.oob(name, index, len));
                            }
                            self.class.keep_in(index, slope_of(idx[i]), len);
                            match buf {
                                BufSlot::LocalV { off, .. } => {
                                    // Every member must read the same cell.
                                    self.class.collapse(slope_of(idx[i]));
                                    self.locals_v[off as usize + index as usize]
                                }
                                BufSlot::PrivV { off, .. } => {
                                    self.class.collapse(slope_of(idx[i]));
                                    let at = i * self.plan.priv_v_total + off as usize;
                                    self.privs_v[at + index as usize]
                                }
                                _ => Lv::F,
                            }
                        }
                        None => match buf {
                            BufSlot::LocalV { .. } | BufSlot::PrivV { .. } => Lv::Un,
                            _ => Lv::F,
                        },
                    };
                    count += 1;
                }
                if matches!(buf, BufSlot::LocalF { .. } | BufSlot::LocalV { .. }) {
                    self.stats.local_accesses += count;
                }
            }
        }
        Ok(())
    }

    fn oob(&self, name: u16, index: i64, len: usize) -> SimError {
        SimError::OutOfBounds {
            buffer: self.plan.buf_names[name as usize].clone(),
            index,
            len,
        }
    }

    /// The per-warp 128-byte coalescing flush, identical to the executor's.
    /// While the class is active, each batch's lanes must move together
    /// by whole segments, and its segments are recorded for the class
    /// union rather than added directly.
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
                    let mut slope: Option<Sl> = None;
                    let mut mixed = FLAT;
                    #[allow(clippy::needless_range_loop)] // parallel indexing into mask + pends
                    for i in warp_start..(warp_start + warp).min(n) {
                        if !mask[i] {
                            continue;
                        }
                        if let Some(&(addr, s)) = pend[i].get(k) {
                            self.segs.push(addr / SEGMENT_BYTES);
                            let first = *slope.get_or_insert(s);
                            for d in 0..3 {
                                mixed[d] |= (first[d] != s[d]) as i64;
                            }
                        }
                    }
                    let Some(slope) = slope else {
                        continue;
                    };
                    self.segs.sort_unstable();
                    self.segs.dedup();
                    if kind == 0 {
                        self.stats.load_transactions += self.segs.len() as u64;
                    } else {
                        self.stats.store_transactions += self.segs.len() as u64;
                    }
                    if self.class.active {
                        self.class.collapse(mixed);
                        self.class.keep_aligned(slope);
                    }
                    if self.class.active {
                        self.class_segs
                            .extend(self.segs.iter().map(|&g| (g, slope)));
                    } else {
                        for s in &self.segs {
                            self.seen.insert(*s);
                        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use lift_codegen::clike::{
        AddressSpace, CExpr, CStmt, Kernel, KernelParam, LocalBuffer, VarRef,
    };

    /// SplitMix64, inlined: this crate does not depend on the tuner.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            (((z ^ (z >> 31)) as u128 * n as u128) >> 64) as u64
        }
    }

    fn int(v: i64) -> CExpr {
        CExpr::Int(v)
    }
    fn var(v: &VarRef) -> CExpr {
        CExpr::Var(v.clone())
    }
    fn gid(d: u8) -> CExpr {
        CExpr::WorkItem(WorkItemFn::GlobalId, d)
    }
    fn bin(op: BinOp, a: CExpr, b: CExpr) -> CExpr {
        CExpr::Bin(op, Box::new(a), Box::new(b))
    }
    fn load(buf: &KernelParam, idx: CExpr) -> CExpr {
        CExpr::Load {
            buf: buf.var.clone(),
            space: AddressSpace::Global,
            idx: Box::new(idx),
        }
    }
    fn store(buf: &KernelParam, idx: CExpr, value: CExpr) -> CStmt {
        CStmt::Store {
            buf: buf.var.clone(),
            space: AddressSpace::Global,
            idx,
            value,
        }
    }
    fn param(name: &str, elem: CType, len: usize, is_output: bool) -> KernelParam {
        KernelParam {
            var: VarRef::fresh(name),
            elem,
            len,
            is_output,
        }
    }
    fn grp() -> CExpr {
        CExpr::WorkItem(WorkItemFn::GroupId, 0)
    }
    fn lid() -> CExpr {
        CExpr::WorkItem(WorkItemFn::LocalId, 0)
    }
    fn lid8() -> CExpr {
        CExpr::min(lid(), int(7))
    }
    fn clamp(x: CExpr, n: i64) -> CExpr {
        CExpr::min(CExpr::max(x, int(0)), int(n - 1))
    }
    fn kernel(name: &str, params: Vec<KernelParam>, body: Vec<CStmt>) -> Kernel {
        Kernel {
            name: name.into(),
            params,
            locals: vec![],
            body,
            user_funs: vec![],
        }
    }

    /// A 1D 3-point clamp stencil over `n` elements, guarded for partial
    /// groups.
    fn clamp_1d(n: i64) -> Kernel {
        let (a, out) = (
            param("A", CType::Float, n as usize, false),
            param("out", CType::Float, n as usize, true),
        );
        let g = gid(0);
        let sum = bin(
            BinOp::Add,
            bin(
                BinOp::Add,
                load(&a, clamp(CExpr::sub(g.clone(), int(1)), n)),
                load(&a, g.clone()),
            ),
            load(&a, clamp(CExpr::add(g.clone(), int(1)), n)),
        );
        let body = vec![CStmt::If {
            cond: bin(BinOp::Lt, g.clone(), int(n)),
            then_: vec![store(&out, g, sum)],
            else_: vec![],
        }];
        kernel("clamp_1d", vec![a, out], body)
    }

    /// A 2D 5-point clamp stencil over `w × h`, guarded for partial groups.
    fn clamp_2d(w: i64, h: i64) -> Kernel {
        let len = (w * h) as usize;
        let (a, out) = (
            param("A", CType::Float, len, false),
            param("out", CType::Float, len, true),
        );
        let (x, y) = (gid(0), gid(1));
        let at = |dy: i64, dx: i64| {
            let row = clamp(CExpr::add(y.clone(), int(dy)), h);
            let col = clamp(CExpr::add(x.clone(), int(dx)), w);
            load(&a, CExpr::add(CExpr::mul(row, int(w)), col))
        };
        let mut sum = at(0, 0);
        for (dy, dx) in [(-1, 0), (1, 0), (0, -1), (0, 1)] {
            sum = bin(BinOp::Add, sum, at(dy, dx));
        }
        let body = vec![CStmt::If {
            cond: bin(
                BinOp::And,
                bin(BinOp::Lt, x.clone(), int(w)),
                bin(BinOp::Lt, y.clone(), int(h)),
            ),
            then_: vec![store(&out, CExpr::add(CExpr::mul(y, int(w)), x), sum)],
            else_: vec![],
        }];
        kernel("clamp_2d", vec![a, out], body)
    }

    /// Kernels whose group-dependence defeats the affine proof in each way
    /// it can: products and quotients of ids, a trip count growing with the
    /// group, a select on the id, an equality on one id, a reversed index,
    /// local-memory cells chosen by group, ids stored in and read back
    /// from local memory, grid-stride loops, and a last group that reads
    /// out of bounds.
    fn adversarial(n: i64) -> Vec<Kernel> {
        let nu = n as usize;
        let mk = |name: &str, body: &dyn Fn(&KernelParam, &KernelParam) -> Vec<CStmt>| {
            let (a, out) = (
                param("A", CType::Float, nu, false),
                param("out", CType::Float, nu, true),
            );
            let body = body(&a, &out);
            kernel(name, vec![a, out], body)
        };
        let g = gid(0);
        let guard = |body: Vec<CStmt>| CStmt::If {
            cond: bin(BinOp::Lt, gid(0), int(n)),
            then_: body,
            else_: vec![],
        };
        let mut ks = vec![
            mk("square", &|a, out| {
                let sq = bin(BinOp::Mod, bin(BinOp::Mul, g.clone(), g.clone()), int(n));
                vec![guard(vec![store(out, g.clone(), load(a, sq))])]
            }),
            mk("quotient", &|a, out| {
                let q = CExpr::add(
                    bin(BinOp::Div, g.clone(), int(3)),
                    bin(BinOp::Mod, g.clone(), int(5)),
                );
                vec![guard(vec![store(out, g.clone(), load(a, clamp(q, n)))])]
            }),
            mk("select", &|a, out| {
                let idx = CExpr::Select {
                    cond: Box::new(bin(BinOp::Lt, g.clone(), int(5))),
                    then_: Box::new(g.clone()),
                    else_: Box::new(CExpr::sub(int(n - 1), g.clone())),
                };
                vec![guard(vec![store(out, g.clone(), load(a, clamp(idx, n)))])]
            }),
            mk("equality", &|a, out| {
                vec![guard(vec![CStmt::If {
                    cond: bin(BinOp::Eq, g.clone(), int(7)),
                    then_: vec![store(out, g.clone(), load(a, int(0)))],
                    else_: vec![store(out, g.clone(), CExpr::Float(1.0))],
                }])]
            }),
            mk("tail_oob", &|a, out| {
                vec![store(
                    out,
                    clamp(g.clone(), n),
                    load(a, CExpr::add(g.clone(), int(1))),
                )]
            }),
            mk("group_trips", &|a, out| {
                let i = VarRef::fresh("i");
                vec![guard(vec![CStmt::For {
                    var: i.clone(),
                    init: int(0),
                    bound: CExpr::WorkItem(WorkItemFn::GroupId, 0),
                    step: int(1),
                    body: vec![store(out, g.clone(), load(a, clamp(var(&i), n)))],
                }])]
            }),
            mk("grid_stride", &|a, out| {
                let i = VarRef::fresh("i");
                vec![CStmt::For {
                    var: i.clone(),
                    init: g.clone(),
                    bound: int(n),
                    step: CExpr::WorkItem(WorkItemFn::GlobalSize, 0),
                    body: vec![store(
                        out,
                        var(&i),
                        load(a, clamp(CExpr::sub(var(&i), int(2)), n)),
                    )],
                }]
            }),
            mk("reversed", &|a, out| {
                vec![guard(vec![store(
                    out,
                    CExpr::sub(int(n - 1), g.clone()),
                    load(a, g.clone()),
                )])]
            }),
            mk("group_squared", &|a, out| {
                let sq = bin(BinOp::Mul, grp(), grp());
                let idx = CExpr::min(CExpr::add(lid(), sq), int(n - 1));
                vec![guard(vec![store(out, g.clone(), load(a, idx))])]
            }),
            mk("spread", &|a, out| {
                // Lane `i` moves `i` elements per group: a warp's lanes
                // drift apart.
                let idx = CExpr::min(bin(BinOp::Mul, lid(), grp()), int(n - 1));
                vec![guard(vec![store(out, g.clone(), load(a, idx))])]
            }),
            mk("wrapping", &|a, out| {
                // `group · 2^62` wraps negative from the second group on.
                let x = bin(BinOp::Mul, grp(), int(1 << 62));
                vec![guard(vec![CStmt::If {
                    cond: bin(BinOp::Lt, x, int(0)),
                    then_: vec![store(out, g.clone(), load(a, g.clone()))],
                    else_: vec![store(out, g.clone(), CExpr::Float(0.0))],
                }])]
            }),
            mk("int_condition", &|a, out| {
                vec![guard(vec![CStmt::If {
                    cond: CExpr::sub(g.clone(), int(37)),
                    then_: vec![store(out, g.clone(), load(a, g.clone()))],
                    else_: vec![store(out, g.clone(), CExpr::Float(0.0))],
                }])]
            }),
            mk("unguarded_read_ahead", &|a, out| {
                vec![store(
                    out,
                    clamp(g.clone(), n),
                    load(a, CExpr::add(g.clone(), int(1))),
                )]
            }),
            mk("shrinking_bound", &|a, out| {
                // Every group runs 5 trips, but a later group's entry bound
                // (10 - group) is below that: its trip ceiling trips.
                let (b, i) = (VarRef::fresh("b"), VarRef::fresh("i"));
                vec![
                    CStmt::DeclScalar {
                        var: b.clone(),
                        ty: CType::Int,
                        init: Some(CExpr::sub(int(10), grp())),
                    },
                    CStmt::For {
                        var: i.clone(),
                        init: int(0),
                        bound: var(&b),
                        step: int(1),
                        body: vec![
                            CStmt::Assign {
                                var: b.clone(),
                                value: int(5),
                            },
                            store(out, clamp(g.clone(), n), load(a, clamp(var(&i), n))),
                        ],
                    },
                ]
            }),
        ];
        // Int local memory, seeded with each lane's local id, then written
        // or read at a cell chosen by group: a later group reads another
        // value than the representative's.
        for (name, write_at, read_at) in [
            (
                "local_write_by_group",
                Some(CExpr::min(grp(), int(7))),
                int(0),
            ),
            ("local_read_by_group", None, CExpr::min(grp(), int(7))),
        ] {
            let wide = 32 * nu;
            let (a, out) = (
                param("A", CType::Float, wide, false),
                param("out", CType::Float, nu, true),
            );
            let ti = VarRef::fresh("ti");
            let lstore = |idx: CExpr, value: CExpr| CStmt::Store {
                buf: ti.clone(),
                space: AddressSpace::Local,
                idx,
                value,
            };
            let mut body = vec![
                lstore(lid8(), lid8()),
                CStmt::Barrier {
                    local: true,
                    global: false,
                },
            ];
            if let Some(at) = write_at {
                body.push(lstore(at, grp()));
                body.push(CStmt::Barrier {
                    local: true,
                    global: false,
                });
            }
            let read = CExpr::Load {
                buf: ti.clone(),
                space: AddressSpace::Local,
                idx: Box::new(read_at),
            };
            body.push(store(
                &out,
                clamp(g.clone(), n),
                load(&a, CExpr::mul(read, int(32))),
            ));
            ks.push(Kernel {
                name: name.into(),
                params: vec![a, out],
                locals: vec![LocalBuffer {
                    var: ti,
                    elem: CType::Int,
                    len: 8,
                }],
                body,
                user_funs: vec![],
            });
        }
        ks
    }

    type Outcome = Result<(KernelStats, bool), SimError>;

    /// The class replay and the one-group-at-a-time replay of one launch,
    /// plus how many representatives the class replay ran (`None` when it
    /// fell back).
    fn both_replays(k: &Kernel, cfg: LaunchConfig, warp: usize) -> (Outcome, Outcome, Option<u64>) {
        let plan = Plan::compile(k).expect("plans");
        let params: Vec<(CType, usize)> = k.params.iter().map(|p| (p.elem, p.len)).collect();
        let classes = estimate_plan(&plan, &params, cfg, warp).map(|e| (e.stats, e.exact));
        let mut m = CostMachine::new(&plan, &params, cfg, warp);
        let replays = m.replay_classes();
        let mut m = CostMachine::new(&plan, &params, cfg, warp);
        let every = m.replay_every_group().map(|()| {
            m.stats.unique_segments = m.seen.len() + m.synthetic_segments;
            (m.stats.clone(), m.exact)
        });
        (classes, every, replays)
    }

    /// The class replay equals the one-group-at-a-time replay — stats,
    /// exactness and faults — on stencils and on every adversarial kernel,
    /// over seeded random launches with partial and segment-straddling
    /// groups.
    #[test]
    fn class_replay_equals_the_per_group_replay() {
        let mut rng = Rng(42);
        let mut kernels: Vec<(Kernel, usize)> = vec![(clamp_1d(100), 1), (clamp_2d(37, 29), 2)];
        kernels.extend(adversarial(90).into_iter().map(|k| (k, 1)));
        let mut classed = 0;
        for (k, dims) in &kernels {
            for _ in 0..40 {
                let l: [usize; 3] = std::array::from_fn(|d| {
                    if d < *dims {
                        1 + rng.below(if *dims == 1 { 40 } else { 12 }) as usize
                    } else {
                        1
                    }
                });
                let span = 90 + rng.below(30) as usize;
                let extent = |d: usize| match (dims, d) {
                    (1, 0) => span,
                    (2, 0) => 37,
                    (2, 1) => 29,
                    _ => 1,
                };
                let g: [usize; 3] = std::array::from_fn(|d| extent(d).div_ceil(l[d]) * l[d]);
                let cfg = LaunchConfig {
                    global: g,
                    local: l,
                };
                let warp = [16, 32, 64][rng.below(3) as usize];
                let (classes, every, replays) = both_replays(k, cfg, warp);
                assert_eq!(classes, every, "{} at {cfg:?}, warp {warp}", k.name);
                classed += replays.is_some() as usize;
            }
        }
        // Grids a group size divides exactly: no guard splits off the
        // last group, so its faults must be found by the bounds proof.
        for (k, _) in &kernels[2..] {
            for l in [1, 2, 3, 5, 6, 9, 10, 15, 18, 30, 45] {
                let (classes, every, _) = both_replays(k, LaunchConfig::d1(90, l), 32);
                assert_eq!(classes, every, "{} at {l}-wide groups", k.name);
            }
        }
        assert!(
            classed >= 300,
            "only {classed} launches took the class replay"
        );
    }

    /// On an interior-dominated launch the class replay runs a handful of
    /// representatives, not one per group.
    #[test]
    fn stencils_replay_few_representatives() {
        // 2D: 3 row classes × (low edge, two aligned interior residues,
        // high edge) — 8-wide groups step 32 bytes, so every 4th group
        // shares a segment phase.
        let cfg = LaunchConfig::d2(64, 64, 8, 4);
        let (est, every, replays) = both_replays(&clamp_2d(64, 64), cfg, 32);
        assert_eq!(est, every);
        let replays = replays.expect("no fallback");
        assert!(replays <= 24, "{replays} replays for 128 groups");
        // 1D: low edge, interior, high edge.
        let cfg = LaunchConfig::d1(1024, 32);
        let (est, every, replays) = both_replays(&clamp_1d(1024), cfg, 32);
        assert_eq!(est, every);
        assert_eq!(replays, Some(3));
    }
}
