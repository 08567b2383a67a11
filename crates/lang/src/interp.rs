//! The MiniC interpreter with its embedded debugger.
//!
//! [`Vm`] executes a type-checked [`Program`] by tree walking. Its runtime
//! heap ([`RtHeap`]) keeps *freed* cells separate from live ones: program
//! accesses to freed cells are use-after-free errors, but the tracer can
//! still observe them — reproducing the LLDB behaviour the paper describes
//! in §5.3 ("a `free(x)` statement does not immediately free the pointer
//! `x` so LLDB still observes (now invalid) heap values").
//!
//! The VM keeps an explicit frame stack so that snapshots can see memory
//! reachable from *any* frame — like a debugger walking the whole
//! backtrace. This matters for fidelity: in the paper's §4.4 example the
//! innermost activation of `concat` still observes the outer lists'
//! cells, which is only possible if the debugger's heap view includes
//! outer frames' roots.
//!
//! Runtime errors (null dereference, use-after-free, step/stack limits for
//! non-terminating runs) abort the run, which is how the corpus's seeded
//! segfault bugs (the `∗` programs of Table 1) yield *no traces*.

use std::collections::BTreeMap;
use std::fmt;

use sling_logic::{Span, Symbol};
use sling_models::{Heap, HeapCell, Loc, Stack, Val};

use crate::ast::*;
use crate::trace::{Location, Tracer};
use crate::types::null_struct;

/// A runtime failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtError {
    /// Dereference of `null`.
    NullDeref(Span),
    /// Access to a freed cell.
    UseAfterFree(Span),
    /// Access to a never-allocated address.
    InvalidDeref(Span),
    /// `free` of something not (or no longer) allocated.
    InvalidFree(Span),
    /// Division or remainder by zero.
    DivByZero(Span),
    /// Integer overflow.
    Overflow(Span),
    /// The step limit was exceeded (non-termination guard).
    StepLimit,
    /// The call-depth limit was exceeded (runaway recursion guard).
    StackOverflow,
    /// A non-void function fell off its end.
    NoReturn(Symbol),
    /// Reference to a function that does not exist (escaped the checker).
    UnknownFunction(Symbol),
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::NullDeref(s) => write!(f, "null dereference at {s}"),
            RtError::UseAfterFree(s) => write!(f, "use after free at {s}"),
            RtError::InvalidDeref(s) => write!(f, "invalid dereference at {s}"),
            RtError::InvalidFree(s) => write!(f, "invalid free at {s}"),
            RtError::DivByZero(s) => write!(f, "division by zero at {s}"),
            RtError::Overflow(s) => write!(f, "integer overflow at {s}"),
            RtError::StepLimit => f.write_str("step limit exceeded (likely non-termination)"),
            RtError::StackOverflow => f.write_str("call depth limit exceeded"),
            RtError::NoReturn(n) => write!(f, "non-void function `{n}` fell off its end"),
            RtError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
        }
    }
}

impl std::error::Error for RtError {}

/// The runtime heap: live cells, freed-but-observable cells, and a bump
/// allocator for fresh locations.
#[derive(Debug, Clone, Default)]
pub struct RtHeap {
    live: Heap,
    freed: Heap,
    next: u64,
}

impl RtHeap {
    /// An empty heap.
    pub fn new() -> RtHeap {
        RtHeap::default()
    }

    /// Allocates a fresh cell, returning its location.
    pub fn alloc(&mut self, ty: Symbol, fields: Vec<Val>) -> Loc {
        self.next += 1;
        let loc = Loc::new(self.next);
        self.live.insert(loc, HeapCell::new(ty, fields));
        loc
    }

    /// Frees the cell at `loc`: it moves to the freed (zombie) view.
    #[allow(clippy::result_unit_err)]
    pub fn free(&mut self, loc: Loc) -> Result<(), ()> {
        match self.live.remove(loc) {
            Some(cell) => {
                self.freed.insert(loc, cell);
                Ok(())
            }
            None => Err(()),
        }
    }

    /// The live heap (what the program can access).
    pub fn live(&self) -> &Heap {
        &self.live
    }

    /// The freed cells (what only the debugger can still see).
    pub fn freed(&self) -> &Heap {
        &self.freed
    }

    /// Mutable access to a live cell (used by input generators to link
    /// structures after allocation).
    pub fn live_mut(&mut self, loc: Loc) -> Option<&mut HeapCell> {
        self.live.get_mut(loc)
    }

    /// Reads the live cell at `loc`, reporting the access `span` in the
    /// typed fault for freed ([`RtError::UseAfterFree`]) or
    /// never-allocated ([`RtError::InvalidDeref`]) locations.
    pub fn read(&self, loc: Loc, span: Span) -> Result<&HeapCell, RtError> {
        if let Some(c) = self.live.get(loc) {
            Ok(c)
        } else if self.freed.contains(loc) {
            Err(RtError::UseAfterFree(span))
        } else {
            Err(RtError::InvalidDeref(span))
        }
    }

    /// Writes field `idx` of the live cell at `loc`, with the same typed
    /// faults as [`RtHeap::read`] for freed or invalid locations.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds for the cell (the type checker
    /// guarantees field indices in checked programs).
    pub fn write(&mut self, loc: Loc, idx: usize, val: Val, span: Span) -> Result<(), RtError> {
        if let Some(c) = self.live.get_mut(loc) {
            c.fields[idx] = val;
            Ok(())
        } else if self.freed.contains(loc) {
            Err(RtError::UseAfterFree(span))
        } else {
            Err(RtError::InvalidDeref(span))
        }
    }
}

/// Interpreter limits.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    /// Maximum number of executed statements/expressions.
    pub max_steps: u64,
    /// Maximum call depth.
    pub max_depth: usize,
}

impl Default for VmConfig {
    fn default() -> VmConfig {
        VmConfig {
            max_steps: 2_000_000,
            max_depth: 2_000,
        }
    }
}

/// Native stack one nesting level of a function body (a block or an
/// expression) can hold live across a nested call. Measured on x86-64
/// at ≤ 4 KB unoptimized (an `&&` operand keeps an `eval`, an
/// `eval_binary` and an `eval_bool` frame) and ≤ 0.3 KB optimized.
const LEVEL_STACK: usize = 6 << 10;
/// Native stack every activation holds whatever its nesting (`call`,
/// `exec_block`, `exec_stmts`, `exec_stmt`, the caller's `eval`):
/// measured at ≤ 4.5 KB unoptimized and ≤ 0.9 KB optimized.
const ACTIVATION_STACK: usize = 12 << 10;
/// Native stack for everything but the nested activations: input
/// builders, the tracer, and the innermost activation's leaf work. A
/// standard thread's worth, so whatever fit on one still fits.
const BASE_STACK: usize = 2 << 20;

impl VmConfig {
    /// An upper bound, in bytes, on the native stack a run of `program`
    /// under this config can use, starting from [`Vm::new`] and
    /// including the inputs' construction: `max_depth + 1` activations
    /// (the last one faults with [`RtError::StackOverflow`]), each
    /// bounded by the program's deepest block or expression nesting.
    /// `None` when the bound overflows `usize`.
    ///
    /// [`Vm::call`] recurses natively, so a run is only safe on a thread
    /// with at least this much stack; trace collection sizes its thread
    /// by it.
    pub fn stack_bound(&self, program: &Program) -> Option<usize> {
        let levels = program.funcs.iter().map(|f| block_levels(&f.body)).max();
        let activation = ACTIVATION_STACK + LEVEL_STACK * levels.unwrap_or(0);
        activation
            .checked_mul(self.max_depth.checked_add(1)?)?
            .checked_add(BASE_STACK)
    }
}

/// Nesting levels of the deepest path through `block`: the block
/// itself plus its deepest statement.
fn block_levels(block: &Block) -> usize {
    1 + block.stmts.iter().map(stmt_levels).max().unwrap_or(0)
}

fn stmt_levels(stmt: &Stmt) -> usize {
    match &stmt.kind {
        StmtKind::VarDecl { init, .. } => init.as_ref().map_or(0, expr_levels),
        StmtKind::Assign { lhs, rhs } => {
            let lhs = match lhs {
                LValue::Var(_) => 0,
                LValue::Field(base, _) => expr_levels(base),
            };
            lhs.max(expr_levels(rhs))
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => expr_levels(cond)
            .max(block_levels(then_blk))
            .max(else_blk.as_ref().map_or(0, block_levels)),
        StmtKind::While { cond, body, .. } => expr_levels(cond).max(block_levels(body)),
        StmtKind::Return(value) => value.as_ref().map_or(0, expr_levels),
        StmtKind::Free(e) | StmtKind::ExprStmt(e) => expr_levels(e),
        StmtKind::Label(_) => 0,
    }
}

fn expr_levels(e: &Expr) -> usize {
    1 + match &e.kind {
        ExprKind::Int(_) | ExprKind::Bool(_) | ExprKind::Null | ExprKind::Var(_) => 0,
        ExprKind::Field(inner, _) | ExprKind::Unary(_, inner) => expr_levels(inner),
        ExprKind::Binary(_, a, b) => expr_levels(a).max(expr_levels(b)),
        ExprKind::New(_, inits) => inits.iter().map(|(_, e)| expr_levels(e)).max().unwrap_or(0),
        ExprKind::Call(_, args) => args.iter().map(expr_levels).max().unwrap_or(0),
    }
}

/// Control flow out of a statement.
enum Flow {
    Normal,
    Return(Option<Val>),
}

struct Frame {
    func: Symbol,
    scopes: Vec<BTreeMap<Symbol, Val>>,
    /// Dynamic activation id of the traced function (0 if untraced).
    activation: u64,
}

impl Frame {
    fn lookup(&self, name: Symbol) -> Option<Val> {
        self.scopes.iter().rev().find_map(|s| s.get(&name).copied())
    }

    fn assign(&mut self, name: Symbol, val: Val) -> bool {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(&name) {
                *slot = val;
                return true;
            }
        }
        false
    }

    fn declare(&mut self, name: Symbol, val: Val) {
        self.scopes.last_mut().expect("scope").insert(name, val);
    }

    /// The in-scope variables as a logic-side stack model.
    fn as_stack(&self) -> Stack {
        self.scopes
            .iter()
            .flat_map(|s| s.iter().map(|(k, v)| (*k, *v)))
            .collect()
    }

    /// All pointer values held anywhere in this frame.
    fn roots(&self) -> impl Iterator<Item = Val> + '_ {
        self.scopes
            .iter()
            .flat_map(|s| s.values().copied())
            .filter(|v| v.is_pointer())
    }
}

/// The MiniC virtual machine.
///
/// # Examples
///
/// ```
/// use sling_lang::{check_program, parse_program, Vm, VmConfig};
/// use sling_models::Val;
///
/// let program = parse_program(
///     "fn add(a: int, b: int) -> int { return a + b; }",
/// )?;
/// check_program(&program)?;
/// let mut vm = Vm::new(&program, VmConfig::default());
/// let out = vm.call(sling_logic::Symbol::intern("add"), &[Val::Int(2), Val::Int(40)])?;
/// assert_eq!(out, Some(Val::Int(42)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Vm<'p> {
    program: &'p Program,
    /// The runtime heap (exposed so input generators can build structures).
    pub heap: RtHeap,
    config: VmConfig,
    steps: u64,
    frames: Vec<Frame>,
    tracer: Option<Tracer>,
    /// Counter handing out activation ids for the traced function.
    activations: u64,
    /// Values passed as arguments to the outermost call: debugger roots
    /// that stay visible even when a callee frame does not mention them.
    entry_roots: Vec<Val>,
    /// Map from each function's return-statement span to its exit index.
    exit_indices: BTreeMap<(Symbol, Span), usize>,
    /// Struct name → (field name → index) for fast field resolution.
    field_index: BTreeMap<Symbol, BTreeMap<Symbol, usize>>,
    struct_defaults: BTreeMap<Symbol, Vec<Val>>,
}

impl<'p> Vm<'p> {
    /// Creates a VM for a (type-checked) program.
    pub fn new(program: &'p Program, config: VmConfig) -> Vm<'p> {
        let mut exit_indices = BTreeMap::new();
        for f in &program.funcs {
            let mut idx = 0usize;
            collect_returns(&f.body, &mut |span| {
                exit_indices.insert((f.name, span), idx);
                idx += 1;
            });
        }
        let mut field_index = BTreeMap::new();
        let mut struct_defaults = BTreeMap::new();
        for s in &program.structs {
            let map: BTreeMap<Symbol, usize> = s
                .fields
                .iter()
                .enumerate()
                .map(|(i, (n, _))| (*n, i))
                .collect();
            field_index.insert(s.name, map);
            let defaults: Vec<Val> = s
                .fields
                .iter()
                .map(|(_, ty)| match ty {
                    TyExpr::Ptr(_) => Val::Nil,
                    _ => Val::Int(0),
                })
                .collect();
            struct_defaults.insert(s.name, defaults);
        }
        Vm {
            program,
            heap: RtHeap::new(),
            config,
            steps: 0,
            frames: Vec::new(),
            tracer: None,
            activations: 0,
            entry_roots: Vec::new(),
            exit_indices,
            field_index,
            struct_defaults,
        }
    }

    /// Installs a tracer that snapshots the target function's breakpoints.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Removes and returns the tracer (with its snapshots).
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.tracer.take()
    }

    /// The number of traced-function activations so far — the value of
    /// the counter handing out activation ids, which is an upper bound
    /// on (and usually equal to) the largest id in any recorded
    /// snapshot. Callers that renumber activations across runs must
    /// offset by this counter, not by the largest *recorded* id: an
    /// activation that faults before its first snapshot still consumed
    /// an id.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Calls `func` with `args`; returns its value (`None` for void).
    ///
    /// # Errors
    ///
    /// Returns [`RtError`] on any runtime fault; the tracer keeps the
    /// snapshots recorded before the fault.
    pub fn call(&mut self, func: Symbol, args: &[Val]) -> Result<Option<Val>, RtError> {
        if self.frames.is_empty() {
            self.entry_roots = args.iter().copied().filter(|v| v.is_pointer()).collect();
        }
        let decl = self
            .program
            .func(func)
            .ok_or(RtError::UnknownFunction(func))?;
        assert_eq!(decl.params.len(), args.len(), "arity checked by caller");
        if self.frames.len() >= self.config.max_depth {
            return Err(RtError::StackOverflow);
        }
        let mut scope = BTreeMap::new();
        for (p, a) in decl.params.iter().zip(args) {
            scope.insert(p.name, *a);
        }
        let activation = match &self.tracer {
            Some(t) if t.target == func => {
                self.activations += 1;
                self.activations
            }
            _ => 0,
        };
        self.frames.push(Frame {
            func,
            scopes: vec![scope],
            activation,
        });
        self.snapshot(Location::Entry, None);
        let result = self.exec_block(&decl.body);
        self.frames.pop();
        match result? {
            Flow::Return(v) => Ok(v),
            Flow::Normal if decl.ret == TyExpr::Void => Ok(None),
            Flow::Normal => Err(RtError::NoReturn(func)),
        }
    }

    /// Allocates a structure instance directly (for input generators).
    ///
    /// # Panics
    ///
    /// Panics if `ty` is unknown or `fields` has the wrong length.
    pub fn alloc(&mut self, ty: Symbol, fields: Vec<Val>) -> Loc {
        let n = self
            .field_index
            .get(&ty)
            .unwrap_or_else(|| panic!("unknown struct `{ty}`"))
            .len();
        assert_eq!(fields.len(), n, "field count for `{ty}`");
        self.heap.alloc(ty, fields)
    }

    fn tick(&mut self) -> Result<(), RtError> {
        self.steps += 1;
        if self.steps > self.config.max_steps {
            return Err(RtError::StepLimit);
        }
        Ok(())
    }

    fn cur(&self) -> &Frame {
        self.frames.last().expect("a frame is active")
    }

    fn cur_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("a frame is active")
    }

    /// Takes a snapshot at `location` if the current frame belongs to the
    /// traced function. Heap roots come from *every* frame (plus the
    /// original call arguments), like a debugger walking the backtrace.
    fn snapshot(&mut self, location: Location, res: Option<Val>) {
        let Some(tracer) = self.tracer.as_mut() else {
            return;
        };
        let frame = self.frames.last().expect("a frame is active");
        if frame.func != tracer.target {
            return;
        }
        let mut stack = frame.as_stack();
        if let Some(v) = res {
            stack.bind(Symbol::intern("res"), v);
        }
        let mut roots: Vec<Val> = self.entry_roots.clone();
        for f in &self.frames {
            roots.extend(f.roots());
        }
        if let Some(v) = res {
            roots.push(v);
        }
        tracer.record(
            location,
            stack,
            &roots,
            &self.heap.live,
            &self.heap.freed,
            frame.activation,
        );
    }

    fn exec_block(&mut self, block: &Block) -> Result<Flow, RtError> {
        self.cur_mut().scopes.push(BTreeMap::new());
        let flow = self.exec_stmts(&block.stmts);
        self.cur_mut().scopes.pop();
        flow
    }

    fn exec_stmts(&mut self, stmts: &[Stmt]) -> Result<Flow, RtError> {
        for stmt in stmts {
            match self.exec_stmt(stmt)? {
                Flow::Normal => {}
                ret => return Ok(ret),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt) -> Result<Flow, RtError> {
        self.tick()?;
        match &stmt.kind {
            StmtKind::VarDecl { name, ty, init } => {
                let val = match init {
                    Some(e) => self.eval(e)?,
                    None => match ty {
                        TyExpr::Ptr(_) => Val::Nil,
                        _ => Val::Int(0),
                    },
                };
                self.cur_mut().declare(*name, val);
                Ok(Flow::Normal)
            }
            StmtKind::Assign { lhs, rhs } => {
                let val = self.eval(rhs)?;
                match lhs {
                    LValue::Var(v) => {
                        let ok = self.cur_mut().assign(*v, val);
                        debug_assert!(ok, "checker guarantees the variable exists");
                    }
                    LValue::Field(base, field) => {
                        let bval = self.eval(base)?;
                        let loc = self.expect_addr(bval, base.span)?;
                        let idx = self.field_idx(loc, *field, base.span)?;
                        self.heap.write(loc, idx, val, stmt.span)?;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                if self.eval_bool(cond)? {
                    self.exec_block(then_blk)
                } else if let Some(e) = else_blk {
                    self.exec_block(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While { label, cond, body } => {
                loop {
                    if let Some(l) = label {
                        self.snapshot(Location::LoopHead(*l), None);
                    }
                    if !self.eval_bool(cond)? {
                        break;
                    }
                    match self.exec_block(body)? {
                        Flow::Normal => {}
                        ret => return Ok(ret),
                    }
                    self.tick()?;
                }
                Ok(Flow::Normal)
            }
            StmtKind::Return(value) => {
                let v = match value {
                    Some(e) => Some(self.eval(e)?),
                    None => None,
                };
                let idx = self
                    .exit_indices
                    .get(&(self.cur().func, stmt.span))
                    .copied()
                    .expect("return statements are indexed at Vm::new");
                self.snapshot(Location::Exit(idx), v);
                Ok(Flow::Return(v))
            }
            StmtKind::Free(e) => {
                let val = self.eval(e)?;
                let loc = self.expect_addr(val, e.span)?;
                self.heap
                    .free(loc)
                    .map_err(|_| RtError::InvalidFree(e.span))?;
                Ok(Flow::Normal)
            }
            StmtKind::ExprStmt(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            StmtKind::Label(l) => {
                self.snapshot(Location::Label(*l), None);
                Ok(Flow::Normal)
            }
        }
    }

    fn expect_addr(&self, v: Val, span: Span) -> Result<Loc, RtError> {
        match v {
            Val::Addr(l) => Ok(l),
            Val::Nil => Err(RtError::NullDeref(span)),
            Val::Int(_) => Err(RtError::InvalidDeref(span)),
        }
    }

    fn field_idx(&self, loc: Loc, field: Symbol, span: Span) -> Result<usize, RtError> {
        // Resolve against the *dynamic* type of the cell: the static
        // checker already guarantees agreement.
        let cell = self.heap.read(loc, span)?;
        self.field_index
            .get(&cell.ty)
            .and_then(|m| m.get(&field))
            .copied()
            .ok_or(RtError::InvalidDeref(span))
    }

    fn eval_bool(&mut self, e: &Expr) -> Result<bool, RtError> {
        Ok(self.eval(e)? != Val::Int(0))
    }

    fn eval(&mut self, e: &Expr) -> Result<Val, RtError> {
        self.tick()?;
        match &e.kind {
            ExprKind::Int(k) => Ok(Val::Int(*k)),
            ExprKind::Bool(b) => Ok(Val::Int(*b as i64)),
            ExprKind::Null => Ok(Val::Nil),
            ExprKind::Var(v) => Ok(self
                .cur()
                .lookup(*v)
                .expect("checker guarantees the variable exists")),
            ExprKind::Field(base, f) => {
                let bval = self.eval(base)?;
                let loc = self.expect_addr(bval, base.span)?;
                let idx = self.field_idx(loc, *f, base.span)?;
                Ok(self.heap.read(loc, base.span)?.fields[idx])
            }
            ExprKind::New(ty, inits) => {
                debug_assert_ne!(*ty, null_struct());
                let mut fields = self
                    .struct_defaults
                    .get(ty)
                    .expect("checker guarantees the struct exists")
                    .clone();
                for (fname, fexpr) in inits {
                    let val = self.eval(fexpr)?;
                    let idx = self.field_index[ty][fname];
                    fields[idx] = val;
                }
                Ok(Val::Addr(self.heap.alloc(*ty, fields)))
            }
            ExprKind::Unary(op, inner) => {
                let v = self.eval(inner)?;
                match op {
                    UnOp::Neg => match v {
                        Val::Int(k) => k
                            .checked_neg()
                            .map(Val::Int)
                            .ok_or(RtError::Overflow(e.span)),
                        _ => Err(RtError::InvalidDeref(inner.span)),
                    },
                    UnOp::Not => Ok(Val::Int((v == Val::Int(0)) as i64)),
                }
            }
            ExprKind::Binary(op, a, b) => self.eval_binary(*op, a, b, e.span),
            ExprKind::Call(fname, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a)?);
                }
                let out = self.call(*fname, &vals)?;
                // Void results only appear in expression statements
                // (checker-verified); represent as 0.
                Ok(out.unwrap_or(Val::Int(0)))
            }
        }
    }

    fn eval_binary(&mut self, op: BinOp, a: &Expr, b: &Expr, span: Span) -> Result<Val, RtError> {
        // Short-circuit operators first.
        match op {
            BinOp::And => {
                return Ok(Val::Int((self.eval_bool(a)? && self.eval_bool(b)?) as i64));
            }
            BinOp::Or => {
                return Ok(Val::Int((self.eval_bool(a)? || self.eval_bool(b)?) as i64));
            }
            _ => {}
        }
        let va = self.eval(a)?;
        let vb = self.eval(b)?;
        let int = |v: Val, sp: Span| match v {
            Val::Int(k) => Ok(k),
            _ => Err(RtError::InvalidDeref(sp)),
        };
        match op {
            BinOp::Add => int(va, a.span)?
                .checked_add(int(vb, b.span)?)
                .map(Val::Int)
                .ok_or(RtError::Overflow(span)),
            BinOp::Sub => int(va, a.span)?
                .checked_sub(int(vb, b.span)?)
                .map(Val::Int)
                .ok_or(RtError::Overflow(span)),
            BinOp::Mul => int(va, a.span)?
                .checked_mul(int(vb, b.span)?)
                .map(Val::Int)
                .ok_or(RtError::Overflow(span)),
            BinOp::Div => {
                let d = int(vb, b.span)?;
                if d == 0 {
                    return Err(RtError::DivByZero(span));
                }
                int(va, a.span)?
                    .checked_div(d)
                    .map(Val::Int)
                    .ok_or(RtError::Overflow(span))
            }
            BinOp::Rem => {
                let d = int(vb, b.span)?;
                if d == 0 {
                    return Err(RtError::DivByZero(span));
                }
                int(va, a.span)?
                    .checked_rem(d)
                    .map(Val::Int)
                    .ok_or(RtError::Overflow(span))
            }
            BinOp::Eq => Ok(Val::Int((va == vb) as i64)),
            BinOp::Ne => Ok(Val::Int((va != vb) as i64)),
            BinOp::Lt => Ok(Val::Int((int(va, a.span)? < int(vb, b.span)?) as i64)),
            BinOp::Le => Ok(Val::Int((int(va, a.span)? <= int(vb, b.span)?) as i64)),
            BinOp::Gt => Ok(Val::Int((int(va, a.span)? > int(vb, b.span)?) as i64)),
            BinOp::Ge => Ok(Val::Int((int(va, a.span)? >= int(vb, b.span)?) as i64)),
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        }
    }
}

fn collect_returns(block: &Block, f: &mut impl FnMut(Span)) {
    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::Return(_) => f(stmt.span),
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                collect_returns(then_blk, f);
                if let Some(e) = else_blk {
                    collect_returns(e, f);
                }
            }
            StmtKind::While { body, .. } => collect_returns(body, f),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::trace::TraceConfig;
    use crate::types::check_program;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn run(src: &str, func: &str, args: &[Val]) -> Result<Option<Val>, RtError> {
        let p = parse_program(src).unwrap();
        check_program(&p).unwrap();
        let mut vm = Vm::new(&p, VmConfig::default());
        vm.call(sym(func), args)
    }

    #[test]
    fn arithmetic_and_calls() {
        let out = run(
            "fn fib(n: int) -> int {
                 if (n < 2) { return n; }
                 return fib(n - 1) + fib(n - 2);
             }",
            "fib",
            &[Val::Int(10)],
        )
        .unwrap();
        assert_eq!(out, Some(Val::Int(55)));
    }

    #[test]
    fn heap_alloc_and_fields() {
        let out = run(
            "struct Node { next: Node*; data: int; }
             fn build() -> int {
                 var a: Node* = new Node { data: 1 };
                 var b: Node* = new Node { data: 2, next: a };
                 return b->next->data + b->data;
             }",
            "build",
            &[],
        )
        .unwrap();
        assert_eq!(out, Some(Val::Int(3)));
    }

    #[test]
    fn null_deref_reported() {
        let err = run(
            "struct Node { next: Node*; }
             fn f(x: Node*) -> Node* { return x->next; }",
            "f",
            &[Val::Nil],
        )
        .unwrap_err();
        assert!(matches!(err, RtError::NullDeref(_)));
    }

    #[test]
    fn use_after_free_reported() {
        let err = run(
            "struct Node { next: Node*; }
             fn f() -> Node* {
                 var x: Node* = new Node;
                 free(x);
                 return x->next;
             }",
            "f",
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, RtError::UseAfterFree(_)));
    }

    #[test]
    fn double_free_reported() {
        let err = run(
            "struct Node { next: Node*; }
             fn f() {
                 var x: Node* = new Node;
                 free(x);
                 free(x);
             }",
            "f",
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, RtError::InvalidFree(_)));
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let p = parse_program("fn f() { while (true) { } }").unwrap();
        check_program(&p).unwrap();
        let mut vm = Vm::new(
            &p,
            VmConfig {
                max_steps: 10_000,
                max_depth: 64,
            },
        );
        assert_eq!(vm.call(sym("f"), &[]), Err(RtError::StepLimit));
    }

    #[test]
    fn runaway_recursion_hits_depth_limit() {
        let p = parse_program("fn f(n: int) -> int { return f(n); }").unwrap();
        check_program(&p).unwrap();
        let mut vm = Vm::new(
            &p,
            VmConfig {
                max_steps: 1_000_000,
                max_depth: 64,
            },
        );
        assert_eq!(
            vm.call(sym("f"), &[Val::Int(0)]),
            Err(RtError::StackOverflow)
        );
    }

    /// Runaway recursion at the default depth, each activation nested
    /// as deep as its shape allows, faults with the typed
    /// `StackOverflow` on a thread sized by `stack_bound` — instead of
    /// aborting the process, as a standard 2 MiB thread would.
    #[test]
    fn stack_bound_holds_runaway_recursion_at_default_depth() {
        let shapes = [
            "fn f(n: int) -> int { return f(n); }",
            "fn f(n: int) -> int {
                 if (n > 0) { while (n > 0) { if (n > 0) { if (n > 0) {
                     if (n > 0) { while (n > 0) { return f(n); } }
                 } } } }
                 return 0;
             }",
            "fn f(n: int) -> int {
                 return 1 + (1 + (1 + (1 + (1 + (1 + (1 + (1 + (1 + f(n)))))))));
             }",
            "fn f(n: int) -> int {
                 if (n > 0 && (n > 0 && (n > 0 && (n > 0 && f(n) > 0)))) { return 1; }
                 return 0;
             }",
            "struct C { v: int; }
             fn g(x: int) -> int { return x; }
             fn f(n: int) -> int {
                 var c: C* = new C { v: -(-(g(g(g(f(n)))))) };
                 return c->v;
             }",
        ];
        let config = VmConfig::default();
        for src in shapes {
            let p = parse_program(src).unwrap();
            check_program(&p).unwrap();
            let stack = config.stack_bound(&p).expect("bound fits");
            let out = std::thread::scope(|s| {
                std::thread::Builder::new()
                    .stack_size(stack)
                    .spawn_scoped(s, || Vm::new(&p, config).call(sym("f"), &[Val::Int(1)]))
                    .unwrap()
                    .join()
                    .unwrap()
            });
            assert_eq!(out, Err(RtError::StackOverflow), "{src}");
        }
    }

    #[test]
    fn stack_bound_grows_with_depth_and_nesting() {
        let flat = parse_program("fn f(n: int) -> int { return f(n); }").unwrap();
        let nested =
            parse_program("fn f(n: int) -> int { if (n > 0) { return 1 + f(n); } return 0; }")
                .unwrap();
        let at = |max_depth| VmConfig {
            max_steps: 1,
            max_depth,
        };
        let flat_bound = at(2_000).stack_bound(&flat).unwrap();
        assert!(at(4_000).stack_bound(&flat).unwrap() > flat_bound);
        assert!(at(2_000).stack_bound(&nested).unwrap() > flat_bound);
        assert_eq!(at(usize::MAX).stack_bound(&flat), None, "overflow is typed");
    }

    #[test]
    fn division_by_zero() {
        let err = run("fn f(n: int) -> int { return 1 / n; }", "f", &[Val::Int(0)]).unwrap_err();
        assert!(matches!(err, RtError::DivByZero(_)));
    }

    #[test]
    fn no_return_detected() {
        let err = run(
            "fn f(n: int) -> int { if (n > 0) { return 1; } }",
            "f",
            &[Val::Int(-3)],
        )
        .unwrap_err();
        assert_eq!(err, RtError::NoReturn(sym("f")));
    }

    #[test]
    fn short_circuit_avoids_null_deref() {
        let out = run(
            "struct Node { next: Node*; data: int; }
             fn f(x: Node*) -> bool { return x != null && x->data > 0; }",
            "f",
            &[Val::Nil],
        )
        .unwrap();
        assert_eq!(out, Some(Val::Int(0)));
    }

    fn build_fig2_vm(p: &Program) -> (Vm<'_>, Val, Val) {
        let mut vm = Vm::new(p, VmConfig::default());
        let node = sym("Node");
        // x = [1 <-> 2 <-> 3], y = [4 <-> 5] as in Figure 2.
        let c1 = vm.alloc(node, vec![Val::Nil, Val::Nil]);
        let c2 = vm.alloc(node, vec![Val::Nil, Val::Addr(c1)]);
        let c3 = vm.alloc(node, vec![Val::Nil, Val::Addr(c2)]);
        vm.heap.write(c1, 0, Val::Addr(c2), Span::DUMMY).unwrap();
        vm.heap.write(c2, 0, Val::Addr(c3), Span::DUMMY).unwrap();
        let c4 = vm.alloc(node, vec![Val::Nil, Val::Nil]);
        let c5 = vm.alloc(node, vec![Val::Nil, Val::Addr(c4)]);
        vm.heap.write(c4, 0, Val::Addr(c5), Span::DUMMY).unwrap();
        (vm, Val::Addr(c1), Val::Addr(c4))
    }

    const CONCAT: &str = "
        struct Node { next: Node*; prev: Node*; }
        fn concat(x: Node*, y: Node*) -> Node* {
            @L1;
            if (x == null) { @L2; return y; }
            else {
                var tmp: Node* = concat(x->next, y);
                x->next = tmp;
                if (tmp != null) { tmp->prev = x; }
                @L3;
                return x;
            }
        }";

    #[test]
    fn tracer_collects_concat_snapshots() {
        let p = parse_program(CONCAT).unwrap();
        check_program(&p).unwrap();
        let (mut vm, x, y) = build_fig2_vm(&p);
        vm.set_tracer(Tracer::new(sym("concat"), TraceConfig::default()));
        let out = vm.call(sym("concat"), &[x, y]).unwrap();
        assert_eq!(out, Some(x));
        let tracer = vm.take_tracer().unwrap();
        // 4 activations: L1 ×4, L2 ×1 (x == null at depth 3), L3 ×3.
        assert_eq!(tracer.at(Location::Label(sym("L1"))).len(), 4);
        assert_eq!(tracer.at(Location::Label(sym("L2"))).len(), 1);
        assert_eq!(tracer.at(Location::Label(sym("L3"))).len(), 3);
        assert_eq!(tracer.at(Location::Entry).len(), 4);
        // Exit snapshots carry res.
        let exits = tracer.at(Location::Exit(1));
        assert_eq!(exits.len(), 3);
        for snap in &exits {
            assert!(snap.model.stack.get(sym("res")).is_some());
        }
        // Every L3 snapshot sees the whole 5-cell heap (Figure 2b: the
        // debugger walks all frames, so h1 = h2 = h3).
        for snap in tracer.at(Location::Label(sym("L3"))) {
            assert_eq!(snap.model.heap.len(), 5, "all-frames view at L3");
        }
        // tmp is in scope at L3 but not at L2.
        let l3 = tracer.at(Location::Label(sym("L3")));
        assert!(l3[0].model.stack.get(sym("tmp")).is_some());
        let l2 = tracer.at(Location::Label(sym("L2")));
        assert!(l2[0].model.stack.get(sym("tmp")).is_none());
        // The innermost L2 (activation 4) still sees the outer cells.
        assert_eq!(
            l2[0].model.heap.len(),
            5,
            "backtrace view includes outer frames"
        );
        // Activations pair entries and exits.
        assert_eq!(tracer.at(Location::Entry)[0].activation, 1);
        assert_eq!(tracer.at(Location::Exit(1))[0].activation, 3);
        assert_eq!(tracer.at(Location::Exit(0))[0].activation, 4);
    }

    #[test]
    fn loop_head_snapshots() {
        let src = "
            struct Node { next: Node*; }
            fn len(x: Node*) -> int {
                var n: int = 0;
                while @inv (x != null) { n = n + 1; x = x->next; }
                return n;
            }";
        let p = parse_program(src).unwrap();
        check_program(&p).unwrap();
        let mut vm = Vm::new(&p, VmConfig::default());
        let node = sym("Node");
        let c2 = vm.alloc(node, vec![Val::Nil]);
        let c1 = vm.alloc(node, vec![Val::Addr(c2)]);
        vm.set_tracer(Tracer::new(sym("len"), TraceConfig::default()));
        let out = vm.call(sym("len"), &[Val::Addr(c1)]).unwrap();
        assert_eq!(out, Some(Val::Int(2)));
        let tracer = vm.take_tracer().unwrap();
        // Head hit 3 times: before iterations 1, 2 and the failing check.
        assert_eq!(tracer.at(Location::LoopHead(sym("inv"))).len(), 3);
        // The original argument stays visible even after x walks past it.
        let heads = tracer.at(Location::LoopHead(sym("inv")));
        assert_eq!(
            heads[2].model.heap.len(),
            2,
            "entry roots keep the list visible"
        );
    }

    #[test]
    fn freed_cells_taint_snapshots() {
        let src = "
            struct Node { next: Node*; }
            fn f(x: Node*) -> Node* {
                free(x->next);
                @after;
                return x;
            }";
        let p = parse_program(src).unwrap();
        check_program(&p).unwrap();
        let mut vm = Vm::new(&p, VmConfig::default());
        let node = sym("Node");
        let c2 = vm.alloc(node, vec![Val::Nil]);
        let c1 = vm.alloc(node, vec![Val::Addr(c2)]);
        vm.set_tracer(Tracer::new(sym("f"), TraceConfig::default()));
        vm.call(sym("f"), &[Val::Addr(c1)]).unwrap();
        let tracer = vm.take_tracer().unwrap();
        let after = tracer.at(Location::Label(sym("after")));
        assert!(after[0].tainted, "dangling x->next must taint the snapshot");
        assert_eq!(
            after[0].model.heap.len(),
            2,
            "LLDB-style view still sees the freed cell"
        );
    }
}
