//! A small OpenCL-C abstract syntax tree.
//!
//! Rich enough for the kernels Lift generates (nested counted loops over
//! work-item ids, loads/stores through computed indices, user-function calls,
//! barriers, local/private buffers) while staying directly interpretable by
//! the virtual device.

use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use lift_core::scalar::{Scalar, ScalarKind};
use lift_core::userfun::UserFun;

/// OpenCL address spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressSpace {
    /// Device global memory (`__global`).
    Global,
    /// Work-group local/shared memory (`__local`).
    Local,
    /// Per-work-item private memory.
    Private,
}

impl AddressSpace {
    /// The OpenCL qualifier keyword.
    pub fn c_qualifier(self) -> &'static str {
        match self {
            AddressSpace::Global => "__global",
            AddressSpace::Local => "__local",
            AddressSpace::Private => "__private",
        }
    }
}

/// Scalar C types used in kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CType {
    /// `float`.
    Float,
    /// `int`.
    Int,
    /// `bool`.
    Bool,
}

impl CType {
    /// The OpenCL C spelling.
    pub fn c_name(self) -> &'static str {
        match self {
            CType::Float => "float",
            CType::Int => "int",
            CType::Bool => "bool",
        }
    }

    /// Conversion from an IR scalar kind.
    pub fn from_kind(k: ScalarKind) -> CType {
        match k {
            ScalarKind::F32 => CType::Float,
            ScalarKind::I32 => CType::Int,
            ScalarKind::Bool => CType::Bool,
        }
    }
}

static NEXT_VAR_ID: AtomicU32 = AtomicU32::new(0);

/// A C variable with a process-unique id (the printed name combines the
/// display name and the id, so shadowing can never occur).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VarRef {
    id: u32,
    name: Arc<str>,
}

impl VarRef {
    /// Creates a fresh variable with the given display name.
    pub fn fresh(name: &str) -> VarRef {
        VarRef {
            id: NEXT_VAR_ID.fetch_add(1, Ordering::Relaxed),
            name: Arc::from(name),
        }
    }

    /// The process-unique id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The display name fragment.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The unique C identifier.
    pub fn c_name(&self) -> String {
        format!("{}_{}", self.name, self.id)
    }
}

impl fmt::Display for VarRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.c_name())
    }
}

/// OpenCL work-item query functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkItemFn {
    /// `get_global_id(d)`.
    GlobalId,
    /// `get_local_id(d)`.
    LocalId,
    /// `get_group_id(d)`.
    GroupId,
    /// `get_global_size(d)`.
    GlobalSize,
    /// `get_local_size(d)`.
    LocalSize,
    /// `get_num_groups(d)`.
    NumGroups,
}

impl WorkItemFn {
    /// The OpenCL function name.
    pub fn c_name(self) -> &'static str {
        match self {
            WorkItemFn::GlobalId => "get_global_id",
            WorkItemFn::LocalId => "get_local_id",
            WorkItemFn::GroupId => "get_group_id",
            WorkItemFn::GlobalSize => "get_global_size",
            WorkItemFn::LocalSize => "get_local_size",
            WorkItemFn::NumGroups => "get_num_groups",
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
    /// `min(a, b)` — printed as a call.
    Min,
    /// `max(a, b)` — printed as a call.
    Max,
}

impl BinOp {
    /// The C operator token (infix operators only).
    pub fn c_token(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Min | BinOp::Max => unreachable!("min/max print as calls"),
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum UnOp {
    Neg,
    Not,
}

/// A C expression.
#[derive(Debug, Clone)]
pub enum CExpr {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f32),
    /// Boolean literal.
    Bool(bool),
    /// Variable read.
    Var(VarRef),
    /// A work-item query, e.g. `get_global_id(0)`.
    WorkItem(WorkItemFn, u8),
    /// Binary operation.
    Bin(BinOp, Box<CExpr>, Box<CExpr>),
    /// Unary operation.
    Un(UnOp, Box<CExpr>),
    /// A user-function call; carries the full [`UserFun`] so the interpreter
    /// can execute its Rust semantics.
    Call(Arc<UserFun>, Vec<CExpr>),
    /// `buf[idx]` load from a buffer in some address space.
    Load {
        /// The buffer variable.
        buf: VarRef,
        /// Its address space.
        space: AddressSpace,
        /// Linear element index.
        idx: Box<CExpr>,
    },
    /// Ternary `cond ? then : else` (lazy in both C and the interpreter).
    Select {
        /// Condition.
        cond: Box<CExpr>,
        /// Value if true.
        then_: Box<CExpr>,
        /// Value if false.
        else_: Box<CExpr>,
    },
    /// `(int)(e)` / `(float)(e)`.
    Cast(CType, Box<CExpr>),
}

#[allow(clippy::should_implement_trait)] // constructors fold constants; static
                                         // methods keep call sites explicit (`CExpr::add(a, b)`), unlike `std::ops`.
impl CExpr {
    /// `a + b`.
    pub fn add(a: CExpr, b: CExpr) -> CExpr {
        match (&a, &b) {
            (CExpr::Int(0), _) => return b,
            (_, CExpr::Int(0)) => return a,
            (CExpr::Int(x), CExpr::Int(y)) => return CExpr::Int(x + y),
            _ => {}
        }
        CExpr::Bin(BinOp::Add, Box::new(a), Box::new(b))
    }

    /// `a * b`.
    pub fn mul(a: CExpr, b: CExpr) -> CExpr {
        match (&a, &b) {
            (CExpr::Int(1), _) => return b,
            (_, CExpr::Int(1)) => return a,
            (CExpr::Int(0), _) | (_, CExpr::Int(0)) => return CExpr::Int(0),
            (CExpr::Int(x), CExpr::Int(y)) => return CExpr::Int(x * y),
            _ => {}
        }
        CExpr::Bin(BinOp::Mul, Box::new(a), Box::new(b))
    }

    /// `a - b`.
    pub fn sub(a: CExpr, b: CExpr) -> CExpr {
        if let (CExpr::Int(x), CExpr::Int(y)) = (&a, &b) {
            return CExpr::Int(x - y);
        }
        if matches!(&b, CExpr::Int(0)) {
            return a;
        }
        CExpr::Bin(BinOp::Sub, Box::new(a), Box::new(b))
    }

    /// `a / b` (C integer division on non-negative indices).
    pub fn div(a: CExpr, b: CExpr) -> CExpr {
        if matches!(&b, CExpr::Int(1)) {
            return a;
        }
        if let (CExpr::Int(x), CExpr::Int(y)) = (&a, &b) {
            if *y != 0 {
                return CExpr::Int(x.div_euclid(*y));
            }
        }
        CExpr::Bin(BinOp::Div, Box::new(a), Box::new(b))
    }

    /// `a % b`.
    pub fn rem(a: CExpr, b: CExpr) -> CExpr {
        if matches!(&b, CExpr::Int(1)) {
            return CExpr::Int(0);
        }
        if let (CExpr::Int(x), CExpr::Int(y)) = (&a, &b) {
            if *y != 0 {
                return CExpr::Int(x.rem_euclid(*y));
            }
        }
        CExpr::Bin(BinOp::Mod, Box::new(a), Box::new(b))
    }

    /// `min(a, b)`.
    pub fn min(a: CExpr, b: CExpr) -> CExpr {
        if let (CExpr::Int(x), CExpr::Int(y)) = (&a, &b) {
            return CExpr::Int(*x.min(y));
        }
        CExpr::Bin(BinOp::Min, Box::new(a), Box::new(b))
    }

    /// `max(a, b)`.
    pub fn max(a: CExpr, b: CExpr) -> CExpr {
        if let (CExpr::Int(x), CExpr::Int(y)) = (&a, &b) {
            return CExpr::Int(*x.max(y));
        }
        CExpr::Bin(BinOp::Max, Box::new(a), Box::new(b))
    }

    /// A scalar literal.
    pub fn scalar(s: Scalar) -> CExpr {
        match s {
            Scalar::F32(v) => CExpr::Float(v),
            Scalar::I32(v) => CExpr::Int(v as i64),
            Scalar::Bool(v) => CExpr::Bool(v),
        }
    }

    /// Returns the constant integer if this expression is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            CExpr::Int(v) => Some(*v),
            _ => None,
        }
    }
}

/// A C statement.
#[derive(Debug, Clone)]
pub enum CStmt {
    /// `ty var = init;` (or bare declaration when `init` is `None`).
    DeclScalar {
        /// The declared variable.
        var: VarRef,
        /// Its type.
        ty: CType,
        /// Optional initialiser.
        init: Option<CExpr>,
    },
    /// A private array declaration `ty var[len];`.
    DeclPrivateArray {
        /// The declared variable.
        var: VarRef,
        /// Element type.
        ty: CType,
        /// Number of elements (compile-time constant).
        len: usize,
    },
    /// `var = value;`
    Assign {
        /// Assigned variable.
        var: VarRef,
        /// New value.
        value: CExpr,
    },
    /// `buf[idx] = value;`
    Store {
        /// Target buffer.
        buf: VarRef,
        /// Its address space.
        space: AddressSpace,
        /// Linear element index.
        idx: CExpr,
        /// Stored value.
        value: CExpr,
    },
    /// `for (int var = init; var < bound; var += step) { body }`
    For {
        /// Induction variable (declared `int`).
        var: VarRef,
        /// Initial value.
        init: CExpr,
        /// Exclusive upper bound (`var < bound`).
        bound: CExpr,
        /// Increment added each iteration.
        step: CExpr,
        /// Loop body.
        body: Vec<CStmt>,
    },
    /// `if (cond) { then } else { else }`.
    If {
        /// Condition.
        cond: CExpr,
        /// Then-branch.
        then_: Vec<CStmt>,
        /// Else-branch (possibly empty).
        else_: Vec<CStmt>,
    },
    /// `barrier(CLK_LOCAL_MEM_FENCE | …)`.
    Barrier {
        /// Fence local memory.
        local: bool,
        /// Fence global memory.
        global: bool,
    },
    /// A `//` comment line (used to annotate generated structure).
    Comment(String),
}

/// A kernel buffer parameter.
#[derive(Debug, Clone)]
pub struct KernelParam {
    /// The buffer variable.
    pub var: VarRef,
    /// Element type.
    pub elem: CType,
    /// Number of elements.
    pub len: usize,
    /// `true` for the output buffer.
    pub is_output: bool,
}

/// A `__local` buffer declaration.
#[derive(Debug, Clone)]
pub struct LocalBuffer {
    /// The buffer variable.
    pub var: VarRef,
    /// Element type.
    pub elem: CType,
    /// Number of elements (compile-time constant).
    pub len: usize,
}

/// A compiled OpenCL kernel.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Kernel (C function) name.
    pub name: String,
    /// Buffer parameters, inputs first, output(s) last.
    pub params: Vec<KernelParam>,
    /// Local-memory buffers.
    pub locals: Vec<LocalBuffer>,
    /// Kernel body.
    pub body: Vec<CStmt>,
    /// User functions referenced by the body (printed as definitions).
    pub user_funs: Vec<Arc<UserFun>>,
}

/// Deterministic execution-slot assignment for every variable a kernel
/// declares: scalars (including `for`-loop induction variables) and private
/// arrays, in **pre-order declaration order** over the statement tree.
///
/// This is the stable contract for anything that executes a kernel, such
/// as the simulator's plan compiler: a variable's slot index depends only
/// on the kernel body, never on who walks it.
#[derive(Debug, Clone, Default)]
pub struct SlotMap {
    /// Scalar variables; the vector position is the slot index.
    pub scalars: Vec<(VarRef, CType)>,
    /// Private arrays as `(variable, element type, length)`; the vector
    /// position is the slot index.
    pub priv_arrays: Vec<(VarRef, CType, usize)>,
}

impl SlotMap {
    fn collect(&mut self, stmts: &[CStmt]) {
        for s in stmts {
            match s {
                CStmt::DeclScalar { var, ty, .. } => self.add_scalar(var, *ty),
                CStmt::DeclPrivateArray { var, ty, len }
                    if !self.priv_arrays.iter().any(|(v, _, _)| v.id() == var.id()) =>
                {
                    self.priv_arrays.push((var.clone(), *ty, *len));
                }
                CStmt::For { var, body, .. } => {
                    self.add_scalar(var, CType::Int);
                    self.collect(body);
                }
                CStmt::If { then_, else_, .. } => {
                    self.collect(then_);
                    self.collect(else_);
                }
                _ => {}
            }
        }
    }

    fn add_scalar(&mut self, var: &VarRef, ty: CType) {
        if !self.scalars.iter().any(|(v, _)| v.id() == var.id()) {
            self.scalars.push((var.clone(), ty));
        }
    }
}

impl Kernel {
    /// Total local memory consumed, in bytes.
    pub fn local_bytes(&self) -> usize {
        self.locals.iter().map(|l| l.len * 4).sum()
    }

    /// The kernel's stable slot assignment (see [`SlotMap`]).
    pub fn slot_map(&self) -> SlotMap {
        let mut m = SlotMap::default();
        m.collect(&self.body);
        m
    }

    /// The output parameter.
    ///
    /// # Panics
    ///
    /// Panics if the kernel has no output (compiler invariant).
    pub fn output(&self) -> &KernelParam {
        self.params
            .iter()
            .find(|p| p.is_output)
            .expect("kernel has an output parameter")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_vars_unique() {
        let a = VarRef::fresh("i");
        let b = VarRef::fresh("i");
        assert_ne!(a, b);
        assert_ne!(a.c_name(), b.c_name());
    }

    #[test]
    fn constant_folding_in_index_math() {
        let e = CExpr::add(CExpr::Int(2), CExpr::Int(3));
        assert_eq!(e.as_int(), Some(5));
        let e = CExpr::mul(CExpr::Int(1), CExpr::Var(VarRef::fresh("x")));
        assert!(matches!(e, CExpr::Var(_)));
        let e = CExpr::add(CExpr::Var(VarRef::fresh("x")), CExpr::Int(0));
        assert!(matches!(e, CExpr::Var(_)));
        assert_eq!(CExpr::div(CExpr::Int(7), CExpr::Int(2)).as_int(), Some(3));
        assert_eq!(CExpr::rem(CExpr::Int(7), CExpr::Int(2)).as_int(), Some(1));
        assert_eq!(CExpr::min(CExpr::Int(7), CExpr::Int(2)).as_int(), Some(2));
        assert_eq!(CExpr::max(CExpr::Int(7), CExpr::Int(2)).as_int(), Some(7));
    }

    #[test]
    fn address_space_qualifiers() {
        assert_eq!(AddressSpace::Global.c_qualifier(), "__global");
        assert_eq!(AddressSpace::Local.c_qualifier(), "__local");
    }
}
