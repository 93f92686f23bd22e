//! The flat edge-centric plan IR, its compiler, and its
//! trail-backtracking interpreter — the search semantics of a path stage.
//!
//! A normalized path pattern compiles by Thompson construction straight
//! into a [`FlatProgram`] — one contiguous `Vec<Instr>` where *transitions
//! are primary and states are implicit*: each instruction carries its
//! opcode, operand table index, and target program counter inline, and a
//! state survives only as the PC of its first instruction, and the inner
//! matching loop is a linear walk over contiguous memory. ε-instructions
//! carry the bookkeeping (test a node pattern, open/close a parenthesized
//! scope, enter/exit a quantifier iteration, record an alternation
//! branch); `step` instructions traverse one graph edge under an edge
//! pattern.
//!
//! # Watermark backtracking
//!
//! The interpreter keeps ONE mutable working state (`RunState`) plus an
//! *undo trail*, and every transition — a graph step included — is an
//! undoable edit of it. The DFS stack holds bare `(pc, trail watermark)`
//! pairs; popping an entry truncates the trail back to its watermark —
//! undoing, in reverse order, every mutation made since that
//! configuration was current — and then applies the popped instruction in
//! place. A graph step pushes the edge, closes the `SIMPLE` scopes it
//! returns to, binds the edge variable and evaluates the edge prefilter,
//! all on the trail, and is truncated away once its ε-closure is done.
//! The only copy of the state is the snapshot a frontier entry keeps. The
//! restored state is byte-identical to the state a clone-per-transition
//! walk would hold at that point, so the search takes exactly the
//! program's transitions; the agreement test-suite checks its results
//! against the §6 spec-literal engine in [`crate::baseline`].
//!
//! # Search semantics
//!
//! * Bindings follow the implicit equi-join discipline; a quantifier
//!   iteration binds into its own frame, merged outward at `IterEnd`
//!   (group accumulation, or conditional singletons for `?`).
//! * **Restrictors prune during search** (§5.1): each active `TRAIL` /
//!   `ACYCLIC` / `SIMPLE` scope carries the boundary of its sub-walk, and
//!   a step that would repeat an edge or node inside it is rejected.
//! * **Selectors drive the search for unbounded quantifiers**
//!   (`PruneMode`): when an unbounded quantifier is covered only by a
//!   selector, the interpreter runs a levelized breadth-first search with
//!   *dominance pruning* — a state whose key (program counter, current
//!   node, capped loop counters, singleton bindings) has already been
//!   reached at `k` strictly shorter lengths is discarded, where `k` is the
//!   number of length groups the selector can keep. Group-variable
//!   accumulations are deliberately excluded from the key: they never
//!   affect future matchability, only outputs, and longer arrivals are
//!   exactly the outputs the selector throws away. A kernel-eligible
//!   `ANY` / `ANY SHORTEST` stage runs on the shortest-path kernel
//!   (`eval::kernel`) instead, which picks each partition's canonical
//!   walk during its BFS rather than listing every shortest walk for the
//!   selector to discard.
//!
//! The search yields raw [`PathBinding`]s; reduction, deduplication, and
//! selector application happen in [`crate::plan`].

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;

use property_graph::{NodeId, Path, PropertyGraph, Step};

use crate::ast::{EdgePattern, Expr, NodePattern, PathPattern, Quantifier, Restrictor};
use crate::binding::{BoundValue, PathBinding};
use crate::error::{Error, Result};
use crate::eval::labels::ProgramLabels;
use crate::eval::{filter, EvalOptions, Tally};
use crate::normalize::is_anonymous;
use crate::params::Params;
use crate::plan::JoinKeyNodes;

// ---------------------------------------------------------------------------
// Instruction set
// ---------------------------------------------------------------------------

/// Flat-program opcodes: nine ε-actions, plus `Consume` (a graph step
/// under an edge pattern) and `Halt` (a state with no transitions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Op {
    /// Plain ε: jump to `target`.
    Jump = 0,
    /// Test the current node against node pattern `arg`; bind its variable.
    NodeTest = 1,
    /// Begin parenthesized scope `arg` (restrictor bookkeeping).
    OpenParen = 2,
    /// End parenthesized scope `arg`; evaluate its `WHERE` prefilter.
    CloseParen = 3,
    /// Enter quantifier `arg` (push a loop counter).
    EnterQuant = 4,
    /// Begin one iteration of quantifier `arg` (push a variable frame).
    IterStart = 5,
    /// End one iteration of quantifier `arg` (merge the frame outward).
    IterEnd = 6,
    /// Leave quantifier `arg`. Guarded by `count >= min`.
    ExitQuant = 7,
    /// Record alternation branch `arg` (multiset provenance, §4.5).
    AltMark = 8,
    /// Traverse one graph edge under edge pattern `arg`.
    Consume = 9,
    /// Dead state: no transitions at all.
    Halt = 10,
}

impl Op {
    fn mnemonic(self) -> &'static str {
        match self {
            Op::Jump => "jmp",
            Op::NodeTest => "ntest",
            Op::OpenParen => "open",
            Op::CloseParen => "close",
            Op::EnterQuant => "enter",
            Op::IterStart => "iter",
            Op::IterEnd => "endit",
            Op::ExitQuant => "exit",
            Op::AltMark => "alt",
            Op::Consume => "step",
            Op::Halt => "halt",
        }
    }
}

/// One flat-program instruction: opcode, block-end flag, operand index
/// and target PC (12 bytes with padding), laid out contiguously per
/// state block.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Instr {
    pub(crate) op: Op,
    /// True on the final instruction of its state block — the block scan
    /// terminator, replacing per-state transition vectors.
    pub(crate) last: bool,
    /// Operand-table index (node/edge pattern, quantifier, paren) or the
    /// alternation mark value.
    pub(crate) arg: u32,
    /// Target PC: the first instruction of the successor state's block.
    pub(crate) target: u32,
}

// ---------------------------------------------------------------------------
// The program
// ---------------------------------------------------------------------------

/// Quantifier operand: the loop bounds and what an iteration exposes.
#[derive(Clone, Debug)]
pub(crate) struct QuantMeta {
    pub(crate) min: u32,
    pub(crate) max: Option<u32>,
    /// True for `?`: variables inside are exposed as conditional
    /// singletons instead of group variables (§4.6).
    pub(crate) expose_conditional: bool,
    /// All named variables declared in the body (with their kinds), used
    /// to bind empty groups when the quantifier iterates zero times.
    pub(crate) body_vars: Vec<(String, bool /*is_edge*/)>,
}

/// Parenthesized-scope operand: its restrictor and `WHERE` prefilter.
#[derive(Clone, Debug)]
pub(crate) struct ParenMeta {
    pub(crate) restrictor: Option<Restrictor>,
    pub(crate) predicate: Option<Expr>,
}

/// A compiled path stage in flat edge-centric form: one contiguous
/// instruction array plus its operand tables. States exist only as
/// program counters (the first instruction of each state's block).
///
/// Compiled from a normalized path pattern at prepare time
/// (`FlatProgram::compile`) and executed by the flat interpreter or the
/// shortest-path kernel.
#[derive(Clone, Debug)]
pub struct FlatProgram {
    pub(crate) instrs: Vec<Instr>,
    pub(crate) start: u32,
    pub(crate) accept: u32,
    pub(crate) node_pats: Vec<NodePattern>,
    pub(crate) edge_pats: Vec<EdgePattern>,
    quants: Vec<QuantMeta>,
    parens: Vec<ParenMeta>,
}

impl FlatProgram {
    /// Compiles a normalized path pattern by Thompson construction,
    /// straight into flat form: each fragment's states are instruction
    /// blocks, and [`Lowering::layout`] lays them out contiguously.
    pub(crate) fn compile(pattern: &PathPattern) -> FlatProgram {
        let mut lowering = Lowering::default();
        let (start, accept) = lowering.fragment(pattern);
        lowering.layout(start, accept)
    }

    /// Number of instructions in the program (the plan-introspection
    /// metric).
    pub fn instr_count(&self) -> usize {
        self.instrs.len()
    }

    /// In-memory size of the instruction array in bytes (the EXPLAIN
    /// and `plans.bytes` plan-size metric).
    pub fn instr_bytes(&self) -> usize {
        self.instr_count() * std::mem::size_of::<Instr>()
    }

    /// The prefilter owned by operand `arg` of `op`: a node pattern's
    /// (`NodeTest`), an edge pattern's (`Consume`) or a parenthesized
    /// scope's `WHERE` (`CloseParen`).
    fn predicate(&self, op: Op, arg: u32) -> Option<&Expr> {
        let arg = arg as usize;
        match op {
            Op::NodeTest => self.node_pats[arg].predicate.as_ref(),
            Op::Consume => self.edge_pats[arg].predicate.as_ref(),
            Op::CloseParen => self.parens[arg].predicate.as_ref(),
            _ => None,
        }
    }

    /// Numbers of node tests, edge tests, and quantifiers (operand-table
    /// sizes, for plan cost reports).
    pub fn table_sizes(&self) -> (usize, usize, usize) {
        (
            self.node_pats.len(),
            self.edge_pats.len(),
            self.quants.len(),
        )
    }
}

/// Thompson construction into instruction blocks, one per automaton
/// state. A block holds the state's outgoing transitions in order; while
/// building, an instruction's `target` is its successor's block id. The
/// operand tables fill as fragments are lowered.
#[derive(Default)]
struct Lowering {
    blocks: Vec<Vec<Instr>>,
    node_pats: Vec<NodePattern>,
    edge_pats: Vec<EdgePattern>,
    quants: Vec<QuantMeta>,
    parens: Vec<ParenMeta>,
}

impl Lowering {
    fn block(&mut self) -> u32 {
        self.blocks.push(Vec::new());
        (self.blocks.len() - 1) as u32
    }

    fn emit(&mut self, from: u32, op: Op, arg: usize, to: u32) {
        let ins = Instr {
            op,
            last: false,
            arg: arg as u32,
            target: to,
        };
        self.blocks[from as usize].push(ins);
    }

    /// Lowers `p`, returning the fragment's `(entry, exit)` blocks.
    fn fragment(&mut self, p: &PathPattern) -> (u32, u32) {
        match p {
            PathPattern::Node(n) => {
                let (s, e) = (self.block(), self.block());
                self.node_pats.push(n.clone());
                self.emit(s, Op::NodeTest, self.node_pats.len() - 1, e);
                (s, e)
            }
            PathPattern::Edge(ep) => {
                let (s, e) = (self.block(), self.block());
                self.edge_pats.push(ep.clone());
                self.emit(s, Op::Consume, self.edge_pats.len() - 1, e);
                (s, e)
            }
            PathPattern::Concat(parts) => {
                let s = self.block();
                let mut cur = s;
                for part in parts {
                    let (ps, pe) = self.fragment(part);
                    self.emit(cur, Op::Jump, 0, ps);
                    cur = pe;
                }
                (s, cur)
            }
            PathPattern::Paren {
                restrictor,
                inner,
                predicate,
            } => {
                self.parens.push(ParenMeta {
                    restrictor: *restrictor,
                    predicate: predicate.clone(),
                });
                let id = self.parens.len() - 1;
                let (is, ie) = self.fragment(inner);
                let (s, e) = (self.block(), self.block());
                self.emit(s, Op::OpenParen, id, is);
                self.emit(ie, Op::CloseParen, id, e);
                (s, e)
            }
            PathPattern::Quantified { inner, quantifier } => {
                self.quantifier(inner, *quantifier, false)
            }
            PathPattern::Questioned(inner) => {
                self.quantifier(inner, Quantifier::range(0, Some(1)), true)
            }
            PathPattern::Union(branches) | PathPattern::Alternation(branches) => {
                // `|+|` marks which branch was taken; `|` does not.
                let marked = matches!(p, PathPattern::Alternation(_));
                let (s, e) = (self.block(), self.block());
                for (i, b) in branches.iter().enumerate() {
                    let (bs, be) = self.fragment(b);
                    let (op, arg) = if marked {
                        (Op::AltMark, i)
                    } else {
                        (Op::Jump, 0)
                    };
                    self.emit(s, op, arg, bs);
                    self.emit(be, Op::Jump, 0, e);
                }
                (s, e)
            }
        }
    }

    /// A quantifier loop: `enter` to a head block that either starts an
    /// iteration of `body` (which ends back at the head) or exits.
    fn quantifier(
        &mut self,
        body: &PathPattern,
        q: Quantifier,
        expose_conditional: bool,
    ) -> (u32, u32) {
        let mut body_vars = Vec::new();
        collect_vars(body, &mut body_vars);
        self.quants.push(QuantMeta {
            min: q.min,
            max: q.max,
            expose_conditional,
            body_vars,
        });
        let id = self.quants.len() - 1;
        let (s, head, e) = (self.block(), self.block(), self.block());
        self.emit(s, Op::EnterQuant, id, head);
        let (bs, be) = self.fragment(body);
        self.emit(head, Op::IterStart, id, bs);
        self.emit(be, Op::IterEnd, id, head);
        self.emit(head, Op::ExitQuant, id, e);
        (s, e)
    }

    /// Lays the blocks out in creation order: assigns each its PC, gives
    /// an empty block (a state with no transitions) a `Halt`, flags each
    /// block's last instruction and rewrites block-id targets to PCs.
    fn layout(self, start: u32, accept: u32) -> FlatProgram {
        let mut pcs = Vec::with_capacity(self.blocks.len());
        let mut next = 0u32;
        for b in &self.blocks {
            pcs.push(next);
            next += b.len().max(1) as u32;
        }
        let mut instrs = Vec::with_capacity(next as usize);
        for block in self.blocks {
            let n = block.len();
            instrs.extend(block.into_iter().enumerate().map(|(i, ins)| Instr {
                last: i + 1 == n,
                target: pcs[ins.target as usize],
                ..ins
            }));
            if n == 0 {
                let halt = Instr {
                    op: Op::Halt,
                    last: true,
                    arg: 0,
                    target: 0,
                };
                instrs.push(halt);
            }
        }
        FlatProgram {
            instrs,
            start: pcs[start as usize],
            accept: pcs[accept as usize],
            node_pats: self.node_pats,
            edge_pats: self.edge_pats,
            quants: self.quants,
            parens: self.parens,
        }
    }
}

/// Collects all named (non-anonymous) variables in a pattern subtree.
pub(crate) fn collect_vars(p: &PathPattern, out: &mut Vec<(String, bool)>) {
    p.walk(&mut |p| {
        let (var, is_edge) = match p {
            PathPattern::Node(n) => (&n.var, false),
            PathPattern::Edge(e) => (&e.var, true),
            _ => return true,
        };
        if let Some(v) = var {
            if !is_anonymous(v) && !out.iter().any(|(n2, _)| n2 == v) {
                out.push((v.clone(), is_edge));
            }
        }
        true
    });
}

impl fmt::Display for FlatProgram {
    /// Disassembly: one line per instruction — pc, opcode, operand
    /// (including any variable the instruction binds), and target PC.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "flat program: {} instrs, start={}, accept={}",
            self.instrs.len(),
            self.start,
            self.accept
        )?;
        for (pc, ins) in self.instrs.iter().enumerate() {
            let operand = match ins.op {
                Op::Jump | Op::Halt => String::new(),
                Op::NodeTest => format!("n{} ({})", ins.arg, self.node_pats[ins.arg as usize]),
                Op::Consume => format!("e{} ({})", ins.arg, self.edge_pats[ins.arg as usize]),
                Op::OpenParen | Op::CloseParen => {
                    let p = &self.parens[ins.arg as usize];
                    match p.restrictor {
                        Some(r) => format!("p{} ({r})", ins.arg),
                        None => format!("p{}", ins.arg),
                    }
                }
                Op::EnterQuant | Op::IterStart | Op::IterEnd | Op::ExitQuant => {
                    let q = &self.quants[ins.arg as usize];
                    let max = match q.max {
                        Some(m) => m.to_string(),
                        None => "*".to_owned(),
                    };
                    format!("q{} {{{},{}}}", ins.arg, q.min, max)
                }
                Op::AltMark => format!("#{}", ins.arg),
            };
            writeln!(
                f,
                "{:>5}: {:<6} {:<32} -> {:>4}{}",
                pc,
                ins.op.mnemonic(),
                operand,
                ins.target,
                if ins.last { "  |" } else { "" }
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Structural keys
// ---------------------------------------------------------------------------

/// Interns variable names to dense ids so visited/prune keys are flat
/// `Vec<u64>`s instead of formatted strings. Ids are only compared within
/// one matcher run, so first-use assignment is fine.
struct KeyInterner {
    ids: RefCell<HashMap<String, u64>>,
}

impl KeyInterner {
    fn new() -> KeyInterner {
        KeyInterner {
            ids: RefCell::new(HashMap::new()),
        }
    }

    fn id(&self, name: &str) -> u64 {
        let mut ids = self.ids.borrow_mut();
        if let Some(&i) = ids.get(name) {
            return i;
        }
        let i = ids.len() as u64;
        ids.insert(name.to_owned(), i);
        i
    }
}

/// Appends a self-delimiting (tag + length-prefixed) encoding of a bound
/// value, injective so two distinct values never collide.
fn push_value(out: &mut Vec<u64>, v: &BoundValue) {
    match v {
        BoundValue::Node(n) => {
            out.push(0);
            out.push(n.0 as u64);
        }
        BoundValue::Edge(e) => {
            out.push(1);
            out.push(e.0 as u64);
        }
        BoundValue::NodeGroup(g) => {
            out.push(2);
            out.push(g.len() as u64);
            out.extend(g.iter().map(|n| n.0 as u64));
        }
        BoundValue::EdgeGroup(g) => {
            out.push(3);
            out.push(g.len() as u64);
            out.extend(g.iter().map(|e| e.0 as u64));
        }
        BoundValue::Path(p) => {
            out.push(4);
            out.push(p.nodes().len() as u64);
            out.extend(p.nodes().iter().map(|n| n.0 as u64));
            out.push(p.edges().len() as u64);
            out.extend(p.edges().iter().map(|e| e.0 as u64));
        }
    }
}

// ---------------------------------------------------------------------------
// The working state
// ---------------------------------------------------------------------------

/// One iteration's variable frame.
#[derive(Clone, Debug)]
struct Frame {
    qid: usize,
    locals: BTreeMap<String, BoundValue>,
    edges_at_start: usize,
}

/// A live restrictor scope over a suffix of the walk.
#[derive(Clone, Debug)]
struct Scope {
    paren: usize,
    restrictor: Restrictor,
    node_start: usize,
    edge_start: usize,
    /// SIMPLE scope that has returned to its start node: no further steps.
    closed: bool,
}

/// Loop bookkeeping for one active quantifier.
#[derive(Clone, Debug)]
struct Loop {
    qid: usize,
    count: u32,
    /// The previous iteration consumed no edges; further iterations cannot
    /// make progress (bodies are homogeneous), so only run them while the
    /// minimum has not been met.
    stalled: bool,
}

/// The configuration of one search branch: the walk so far, its bindings,
/// and the live quantifier, restrictor and alternation bookkeeping.
#[derive(Clone, Debug)]
struct RunState {
    /// The block PC. Not on the trail: every transition sets it, and the
    /// frontier loop reads its block from a local.
    at: usize,
    path: Path,
    globals: BTreeMap<String, BoundValue>,
    frames: Vec<Frame>,
    scopes: Vec<Scope>,
    loops: Vec<Loop>,
    alt_marks: Vec<u32>,
    /// Prefilters whose variables were not yet bound when encountered,
    /// as the opcode and operand that own them (see
    /// [`FlatProgram::predicate`]); re-checked when the match completes.
    deferred: Vec<(Op, u32)>,
}

impl RunState {
    fn current(&self) -> NodeId {
        self.path.end()
    }

    /// The innermost visible binding of `var`.
    fn lookup(&self, var: &str) -> Option<&BoundValue> {
        for f in self.frames.iter().rev() {
            if let Some(v) = f.locals.get(var) {
                return Some(v);
            }
        }
        self.globals.get(var)
    }

    /// The map fresh bindings land in — the innermost frame's locals, or
    /// the globals outside every quantifier — and whether it is the
    /// globals.
    fn target(&mut self) -> (&mut BTreeMap<String, BoundValue>, bool) {
        match self.frames.last_mut() {
            Some(f) => (&mut f.locals, false),
            None => (&mut self.globals, true),
        }
    }

    /// Binds `var` to `value`, enforcing the implicit equi-join when the
    /// variable is already visible, and records a fresh insert on the
    /// trail. Returns false if the join fails; rejection never mutates
    /// the state.
    ///
    /// A *group accumulation* visible outside the innermost frame is not a
    /// join partner: each quantifier iteration binds the variable afresh
    /// and the accumulation only collects the per-iteration values.
    fn bind(&mut self, trail: &mut Vec<Undo>, var: &str, value: BoundValue) -> bool {
        if is_anonymous(var) {
            return true;
        }
        let innermost = self.frames.len().wrapping_sub(1);
        for (i, f) in self.frames.iter().enumerate().rev() {
            if let Some(existing) = f.locals.get(var) {
                if existing.is_singleton() || matches!(existing, BoundValue::Path(_)) {
                    return *existing == value;
                }
                // A group in the innermost frame means the variable was
                // already consumed by an inner quantifier this iteration —
                // re-binding it is a (rejected) cross-scope join.
                if i == innermost {
                    return false;
                }
                break; // outer accumulation: shadow with a fresh local
            }
        }
        if let Some(existing) = self.globals.get(var) {
            // Outside every quantifier any binding joins; inside one, an
            // outer singleton joins with inner references (a singleton
            // visible from inside a quantifier is the group/singleton
            // conflict analysis rejects), and an outer group accumulation
            // is shadowed below.
            if self.frames.is_empty() || existing.is_singleton() {
                return *existing == value;
            }
        }
        let (target, global) = self.target();
        target.insert(var.to_owned(), value);
        trail.push(Undo::Inserted {
            var: var.to_owned(),
            global,
        });
        true
    }

    /// Merges one iteration-local binding outward at `IterEnd`: group
    /// accumulation, or conditional-singleton exposure for `?`. Returns
    /// false when the merge rejects — after recording whatever it already
    /// changed (a rejected merge may have inserted a fresh empty group).
    fn merge(
        &mut self,
        trail: &mut Vec<Undo>,
        var: String,
        val: BoundValue,
        expose_conditional: bool,
    ) -> bool {
        use std::collections::btree_map::Entry;
        let (target, global) = self.target();
        let entry = match target.entry(var) {
            // `?` exposes singletons as conditional singletons (§4.6).
            Entry::Occupied(o) if expose_conditional => return *o.get() == val,
            Entry::Vacant(v) => {
                trail.push(Undo::Inserted {
                    var: v.key().clone(),
                    global,
                });
                if expose_conditional {
                    v.insert(val);
                    return true;
                }
                v.insert(match val {
                    BoundValue::Edge(_) | BoundValue::EdgeGroup(_) => {
                        BoundValue::EdgeGroup(Vec::new())
                    }
                    _ => BoundValue::NodeGroup(Vec::new()),
                })
            }
            Entry::Occupied(o) => {
                let old_len = match o.get() {
                    BoundValue::NodeGroup(g) => g.len(),
                    BoundValue::EdgeGroup(g) => g.len(),
                    _ => 0,
                };
                trail.push(Undo::Extended {
                    var: o.key().clone(),
                    global,
                    old_len,
                });
                o.into_mut()
            }
        };
        match (entry, val) {
            (BoundValue::NodeGroup(g), BoundValue::Node(n)) => g.push(n),
            (BoundValue::NodeGroup(g), BoundValue::NodeGroup(ns)) => g.extend(ns),
            (BoundValue::EdgeGroup(g), BoundValue::Edge(e)) => g.push(e),
            (BoundValue::EdgeGroup(g), BoundValue::EdgeGroup(es)) => g.extend(es),
            _ => return false,
        }
        true
    }
}

// ---------------------------------------------------------------------------
// The undo trail
// ---------------------------------------------------------------------------

/// One reversible mutation of the working [`RunState`]. Backtracking pops
/// trail entries (most recent first) down to a watermark, restoring the
/// state exactly as it was when that watermark was taken.
enum Undo {
    /// A graph step was pushed onto the walk.
    Stepped,
    /// The step closed the `SIMPLE` scope at this index; reopen it.
    ScopeClosed(usize),
    /// An alternation mark was pushed.
    AltMark,
    /// A prefilter was deferred.
    Deferred,
    /// A restrictor scope was opened.
    ScopePushed,
    /// A restrictor scope was closed; restore it.
    ScopePopped(Scope),
    /// A loop counter was pushed.
    LoopPushed,
    /// A loop counter was popped; restore it.
    LoopPopped(Loop),
    /// The innermost loop counter was bumped; restore the old values.
    LoopCounts { count: u32, stalled: bool },
    /// An iteration frame was pushed.
    FramePushed,
    /// An iteration frame was popped; restore it. MUST precede the merge
    /// effects of the same `IterEnd` on the trail, so that undoing (in
    /// reverse) reverts the merges while the frame is still popped — the
    /// merge target (innermost remaining frame or globals) is then the
    /// same map the merge actually mutated.
    FramePopped(Frame),
    /// A fresh binding was inserted into globals or the innermost frame.
    Inserted { var: String, global: bool },
    /// A group binding was extended; truncate it back to `old_len`.
    ///
    /// Recorded even for merges that *rejected* (a rejected merge may
    /// still have inserted an empty group first); the undo is defensive
    /// and only truncates if the entry really is a group.
    Extended {
        var: String,
        global: bool,
        old_len: usize,
    },
}

fn undo_to(work: &mut RunState, trail: &mut Vec<Undo>, mark: usize) {
    let from = mark.min(trail.len());
    for undo in trail.drain(from..).rev() {
        match undo {
            Undo::Stepped => {
                work.path.pop();
            }
            Undo::ScopeClosed(i) => work.scopes[i].closed = false,
            Undo::AltMark => {
                work.alt_marks.pop();
            }
            Undo::Deferred => {
                work.deferred.pop();
            }
            Undo::ScopePushed => {
                work.scopes.pop();
            }
            Undo::ScopePopped(s) => work.scopes.push(s),
            Undo::LoopPushed => {
                work.loops.pop();
            }
            Undo::LoopPopped(l) => work.loops.push(l),
            Undo::LoopCounts { count, stalled } => {
                if let Some(l) = work.loops.last_mut() {
                    l.count = count;
                    l.stalled = stalled;
                }
            }
            Undo::FramePushed => {
                work.frames.pop();
            }
            Undo::FramePopped(f) => work.frames.push(f),
            Undo::Inserted { var, global } => {
                if let Some(target) = undo_target(work, global) {
                    target.remove(&var);
                }
            }
            Undo::Extended {
                var,
                global,
                old_len,
            } => match undo_target(work, global).and_then(|t| t.get_mut(&var)) {
                Some(BoundValue::NodeGroup(g)) => g.truncate(old_len),
                Some(BoundValue::EdgeGroup(g)) => g.truncate(old_len),
                _ => {}
            },
        }
    }
}

/// The map an undo entry recorded against: the globals, or the innermost
/// frame's locals (always present when the entry was recorded).
fn undo_target(work: &mut RunState, global: bool) -> Option<&mut BTreeMap<String, BoundValue>> {
    if global {
        Some(&mut work.globals)
    } else {
        work.frames.last_mut().map(|f| &mut f.locals)
    }
}

// ---------------------------------------------------------------------------
// The interpreter
// ---------------------------------------------------------------------------

/// How aggressively dominated states may be pruned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PruneMode {
    /// Keep everything (restrictors and bounds already make the search
    /// finite).
    Exhaustive,
    /// Keep states reachable within the first `k` distinct arrival
    /// lengths per key (selector-driven search).
    ShortestGroups(usize),
}

/// The flat-program interpreter: the executor of every path stage the
/// shortest-path kernel does not take (see [`super::kernel`]). One
/// working state and one undo trail serve the whole search; each frontier
/// entry is a snapshot of the state taken where the program can consume
/// an edge.
pub(crate) struct FlatMatcher<'a> {
    graph: &'a PropertyGraph,
    prog: &'a FlatProgram,
    opts: &'a EvalOptions,
    params: &'a Params,
    path_restrictor: Option<Restrictor>,
    prune: PruneMode,
    max_edges: usize,
    /// The program's node and edge patterns resolved against `graph`.
    labels: ProgramLabels,
    filters: Option<&'a JoinKeyNodes>,
    interner: KeyInterner,
    /// This search's work, flushed by the executor once it returns.
    pub(crate) counts: Tally,
}

/// The frontier: snapshots of states that can consume an edge, in BFS
/// order, plus the dominance-pruning memory (key → arrival lengths).
#[derive(Default)]
struct Frontier {
    queue: VecDeque<RunState>,
    seen: HashMap<Vec<u64>, BTreeSet<usize>>,
}

impl<'a> FlatMatcher<'a> {
    /// Builds an interpreter over a lowered program. `pattern` must be the
    /// (normalized) pattern `prog` was lowered from; it is only consulted
    /// for the graph-dependent static edge bound.
    pub(crate) fn over(
        graph: &'a PropertyGraph,
        prog: &'a FlatProgram,
        pattern: &PathPattern,
        path_restrictor: Option<Restrictor>,
        prune: PruneMode,
        opts: &'a EvalOptions,
        params: &'a Params,
    ) -> FlatMatcher<'a> {
        let static_cap = static_edge_bound(pattern, graph, path_restrictor);
        let max_edges = static_cap.min(opts.max_path_length);
        FlatMatcher {
            graph,
            prog,
            opts,
            params,
            path_restrictor,
            prune,
            max_edges,
            labels: ProgramLabels::resolve(prog, graph),
            filters: None,
            interner: KeyInterner::new(),
            counts: Tally::default(),
        }
    }

    /// Installs the join's key node sets as `NodeTest` filters for this
    /// search. Filtering only ever removes bindings the cross-stage join
    /// would reject, so — for the stages the executor prunes — results
    /// are unchanged.
    pub(crate) fn with_filters(mut self, filters: &'a JoinKeyNodes) -> FlatMatcher<'a> {
        self.filters = Some(filters);
        self
    }

    /// Runs the search seeded only from `starts`.
    ///
    /// Searches from different start nodes are fully independent — the
    /// dominance-pruning key carries the start node, so no pruning
    /// decision ever crosses start nodes — which makes this the unit of
    /// work for parallel partitioned matching (see [`super::pool`]).
    /// Running disjoint partitions and concatenating their results yields
    /// exactly the raw matches of one run over all start nodes, up to an
    /// order the per-stage reduce/dedup pass erases anyway. Resource
    /// limits are enforced per call, i.e. per partition.
    pub(crate) fn run_from(&self, starts: &[NodeId]) -> Result<Vec<PathBinding>> {
        let mut results: Vec<PathBinding> = Vec::new();
        let mut frontier = Frontier::default();
        let mut trail: Vec<Undo> = Vec::new();

        for &n in starts {
            let mut init = RunState {
                at: self.prog.start as usize,
                path: Path::single(n),
                globals: BTreeMap::new(),
                frames: Vec::new(),
                scopes: Vec::new(),
                loops: Vec::new(),
                alt_marks: Vec::new(),
                deferred: Vec::new(),
            };
            if let Some(r) = self.path_restrictor {
                init.scopes.push(Scope {
                    paren: usize::MAX,
                    restrictor: r,
                    node_start: 0,
                    edge_start: 0,
                    closed: false,
                });
            }
            self.closure(&mut init, &mut trail, &mut frontier, &mut results)?;
            trail.clear();
        }

        while let Some(mut state) = frontier.queue.pop_front() {
            self.counts.bump(|c| c.nodes_expanded += 1);
            if state.path.len() >= self.max_edges {
                continue;
            }
            // Linear scan of the state's block for its Consume entries —
            // the flat replacement for the per-state edge vector. Each
            // step is an edit of `state`, truncated away once its
            // ε-closure is done.
            let (mut pc, from) = (state.at, state.current());
            loop {
                let ins = self.prog.instrs[pc];
                if ins.op == Op::Consume {
                    let scan = &self.labels.edges[ins.arg as usize];
                    for step in scan.steps(self.graph, from) {
                        self.counts.bump(|c| c.edges_traversed += 1);
                        if !scan.admits(self.graph, step) {
                            continue;
                        }
                        if self.step(&mut state, &mut trail, ins.arg, *step) {
                            state.at = ins.target as usize;
                            self.closure(&mut state, &mut trail, &mut frontier, &mut results)?;
                        }
                        undo_to(&mut state, &mut trail, 0);
                    }
                }
                if ins.last {
                    break;
                }
                pc += 1;
            }
            if results.len() > self.opts.max_matches {
                return Err(Error::LimitExceeded {
                    what: "matches",
                    limit: self.opts.max_matches,
                });
            }
        }
        Ok(results)
    }

    /// Applies one graph step to the working state in place, if the
    /// restrictors, the edge variable's join and the edge prefilter all
    /// admit it. The step comes from the pattern's
    /// [`super::labels::EdgeScan`], which has already checked its
    /// orientation and labels. Every mutation is on the trail, rejected
    /// or not.
    fn step(&self, work: &mut RunState, trail: &mut Vec<Undo>, arg: u32, step: Step) -> bool {
        // Restrictor scopes prune during the search (§5.1).
        for scope in &work.scopes {
            if scope.closed {
                return false;
            }
            let repeats = match scope.restrictor {
                Restrictor::Trail => work.path.edges()[scope.edge_start..].contains(&step.edge),
                Restrictor::Acyclic => work.path.nodes()[scope.node_start..].contains(&step.to),
                Restrictor::Simple => {
                    let nodes = &work.path.nodes()[scope.node_start..];
                    nodes.contains(&step.to) && step.to != nodes[0]
                }
            };
            if repeats {
                return false;
            }
        }
        work.path.push(step.edge, step.to);
        trail.push(Undo::Stepped);
        // Close SIMPLE scopes that returned to their start node.
        let nodes = work.path.nodes();
        for (i, scope) in work.scopes.iter_mut().enumerate() {
            if scope.restrictor == Restrictor::Simple && step.to == nodes[scope.node_start] {
                scope.closed = true;
                trail.push(Undo::ScopeClosed(i));
            }
        }
        if let Some(v) = &self.prog.edge_pats[arg as usize].var {
            if !work.bind(trail, v, BoundValue::Edge(step.edge)) {
                return false;
            }
        }
        self.prefilter(work, trail, Op::Consume, arg)
    }

    /// ε-closure over the flat program, run on the caller's working state
    /// and trail: a DFS stack of bare `(pc, trail watermark)` pairs, where
    /// backtracking is watermark truncation of the trail instead of a
    /// clone per transition. Entries below the trail's length at entry
    /// belong to the caller and stay.
    fn closure(
        &self,
        work: &mut RunState,
        trail: &mut Vec<Undo>,
        frontier: &mut Frontier,
        results: &mut Vec<PathBinding>,
    ) -> Result<()> {
        let mut stack: Vec<(u32, u32)> = Vec::new();
        let mut visited: HashSet<Vec<u64>> = HashSet::new();

        let base = trail.len() as u32;
        self.visit(work, base, &mut stack, &mut visited, frontier, results)?;
        while let Some((pc, mark)) = stack.pop() {
            if trail.len() > mark as usize {
                self.counts.bump(|c| c.backtrack_truncations += 1);
                undo_to(work, trail, mark as usize);
            }
            let ins = self.prog.instrs[pc as usize];
            if self.apply(work, trail, ins) {
                work.at = ins.target as usize;
                let wm = trail.len() as u32;
                self.visit(work, wm, &mut stack, &mut visited, frontier, results)?;
            }
        }
        Ok(())
    }

    /// Processes a newly reached configuration: dedup on the visited key,
    /// record accepts, push the block's ε-instructions (applied lazily at
    /// pop), and enqueue a frontier snapshot if the block can consume.
    fn visit(
        &self,
        work: &RunState,
        watermark: u32,
        stack: &mut Vec<(u32, u32)>,
        visited: &mut HashSet<Vec<u64>>,
        frontier: &mut Frontier,
        results: &mut Vec<PathBinding>,
    ) -> Result<()> {
        if !visited.insert(self.vkey(work)) {
            return Ok(());
        }
        if work.at == self.prog.accept as usize {
            if let Some(b) = self.finalize(work) {
                results.push(b);
            }
        }
        let mut pc = work.at;
        let mut has_consume = false;
        loop {
            let ins = self.prog.instrs[pc];
            self.counts.bump(|c| c.instrs_dispatched += 1);
            match ins.op {
                Op::Consume => has_consume = true,
                Op::Halt => {}
                _ => stack.push((pc as u32, watermark)),
            }
            if ins.last {
                break;
            }
            pc += 1;
        }
        if has_consume {
            self.enqueue(work, frontier)?;
        }
        Ok(())
    }

    /// Applies one ε-instruction to the working state in place, recording
    /// undo entries. Returns false when the transition rejects; any
    /// partial mutations stay on the trail for the next backtrack.
    fn apply(&self, work: &mut RunState, trail: &mut Vec<Undo>, ins: Instr) -> bool {
        let arg = ins.arg as usize;
        match ins.op {
            Op::Jump => true,
            Op::AltMark => {
                work.alt_marks.push(ins.arg);
                trail.push(Undo::AltMark);
                true
            }
            Op::NodeTest => {
                let np = &self.prog.node_pats[arg];
                let n = work.current();
                if !self.labels.nodes[arg].node(self.graph, n) {
                    return false;
                }
                if let Some(v) = &np.var {
                    // The join key check: a node outside the
                    // accumulated key set can never survive the join.
                    if let Some(allowed) = self.filters.and_then(|f| f.get(v)) {
                        if !allowed.contains(&n) {
                            self.counts.bump(|c| c.rows_pruned += 1);
                            return false;
                        }
                    }
                    if !work.bind(trail, v, BoundValue::Node(n)) {
                        return false;
                    }
                }
                self.prefilter(work, trail, Op::NodeTest, ins.arg)
            }
            Op::OpenParen => {
                if let Some(r) = self.prog.parens[arg].restrictor {
                    work.scopes.push(Scope {
                        paren: arg,
                        restrictor: r,
                        node_start: work.path.nodes().len() - 1,
                        edge_start: work.path.edges().len(),
                        closed: false,
                    });
                    trail.push(Undo::ScopePushed);
                }
                true
            }
            Op::CloseParen => {
                if !self.prefilter(work, trail, Op::CloseParen, ins.arg) {
                    return false;
                }
                if let Some(scope) = work.scopes.pop_if(|s| s.paren == arg) {
                    trail.push(Undo::ScopePopped(scope));
                }
                true
            }
            Op::EnterQuant => {
                work.loops.push(Loop {
                    qid: arg,
                    count: 0,
                    stalled: false,
                });
                trail.push(Undo::LoopPushed);
                true
            }
            Op::IterStart => {
                let q = &self.prog.quants[arg];
                let Some(l) = work.loops.last() else {
                    return false;
                };
                debug_assert_eq!(l.qid, arg);
                if let Some(max) = q.max {
                    if l.count >= max {
                        return false;
                    }
                }
                if l.stalled && l.count >= q.min {
                    return false;
                }
                work.frames.push(Frame {
                    qid: arg,
                    locals: BTreeMap::new(),
                    edges_at_start: work.path.len(),
                });
                trail.push(Undo::FramePushed);
                true
            }
            Op::IterEnd => {
                let q = &self.prog.quants[arg];
                let Some(frame) = work.frames.pop() else {
                    return false;
                };
                debug_assert_eq!(frame.qid, arg);
                // The frame-restore entry goes on the trail FIRST: undoing
                // runs in reverse, so the merges below are reverted while
                // the frame is still popped (see [`Undo::FramePopped`]).
                trail.push(Undo::FramePopped(frame.clone()));
                let progressed = work.path.len() > frame.edges_at_start;
                for (var, val) in frame.locals {
                    if !work.merge(trail, var, val, q.expose_conditional) {
                        return false;
                    }
                }
                let Some(l) = work.loops.last_mut() else {
                    return false;
                };
                trail.push(Undo::LoopCounts {
                    count: l.count,
                    stalled: l.stalled,
                });
                l.count += 1;
                if !progressed {
                    l.stalled = true;
                }
                true
            }
            Op::ExitQuant => {
                let q = &self.prog.quants[arg];
                let Some(l) = work.loops.pop() else {
                    return false;
                };
                debug_assert_eq!(l.qid, arg);
                let count = l.count;
                trail.push(Undo::LoopPopped(l));
                if count < q.min {
                    return false;
                }
                if !q.expose_conditional {
                    for (var, is_edge) in &q.body_vars {
                        if work.lookup(var).is_none() {
                            let empty = if *is_edge {
                                BoundValue::EdgeGroup(Vec::new())
                            } else {
                                BoundValue::NodeGroup(Vec::new())
                            };
                            if !work.bind(trail, var, empty) {
                                return false;
                            }
                        }
                    }
                }
                true
            }
            Op::Consume | Op::Halt => unreachable!("not an ε-instruction"),
        }
    }

    /// Evaluates the prefilter of operand `arg` of `op`, if it has one,
    /// deferring it (on the trail) when it references variables that are
    /// not bound yet.
    fn prefilter(&self, work: &mut RunState, trail: &mut Vec<Undo>, op: Op, arg: u32) -> bool {
        let Some(pred) = self.prog.predicate(op, arg) else {
            return true;
        };
        let mut unbound = false;
        pred.visit_vars(&mut |v, _| {
            if !is_anonymous(v) && work.lookup(v).is_none() {
                unbound = true;
            }
        });
        if unbound {
            work.deferred.push((op, arg));
            trail.push(Undo::Deferred);
            return true;
        }
        self.holds(work, pred)
    }

    /// Whether `pred` holds over the bindings of `state`.
    fn holds(&self, state: &RunState, pred: &Expr) -> bool {
        let vars = |v: &str| state.lookup(v);
        filter::truth(self.graph, &filter::Scope::new(&vars, self.params), pred) == Some(true)
    }

    /// Turns an accepting state into a path binding, re-checking deferred
    /// prefilters against the complete variable map.
    fn finalize(&self, state: &RunState) -> Option<PathBinding> {
        debug_assert!(state.frames.is_empty());
        for &(op, arg) in &state.deferred {
            if !self
                .prog
                .predicate(op, arg)
                .is_none_or(|pred| self.holds(state, pred))
            {
                return None;
            }
        }
        Some(PathBinding {
            path: state.path.clone(),
            bindings: state.globals.clone(),
            alt_marks: state.alt_marks.clone(),
        })
    }

    /// Frontier admission: dominance pruning (see the module docs) and
    /// the frontier limit, over structural keys. An admitted state is
    /// snapshotted — the one copy of the working state the search makes.
    fn enqueue(&self, state: &RunState, frontier: &mut Frontier) -> Result<()> {
        if let PruneMode::ShortestGroups(k) = self.prune {
            // Pruning is only sound for states without live restrictor
            // scopes (scope memory affects future matchability).
            if state.scopes.is_empty() {
                let key = self.prune_key(state);
                let lengths = frontier.seen.entry(key).or_default();
                let len = state.path.len();
                let shorter = lengths.range(..len).count();
                if shorter >= k {
                    return Ok(());
                }
                lengths.insert(len);
            }
        }
        if frontier.queue.len() >= self.opts.max_frontier {
            return Err(Error::LimitExceeded {
                what: "frontier states",
                limit: self.opts.max_frontier,
            });
        }
        frontier.queue.push_back(state.clone());
        Ok(())
    }

    /// The ε-closure visited key: an injective structural encoding of the
    /// complete configuration (group accumulations included, unlike the
    /// dominance key), so ε-cycles terminate without merging distinct
    /// states.
    fn vkey(&self, s: &RunState) -> Vec<u64> {
        let mut k = Vec::with_capacity(16);
        k.push(s.at as u64);
        k.push(s.loops.len() as u64);
        for l in &s.loops {
            k.push(l.qid as u64);
            k.push(l.count as u64);
            k.push(l.stalled as u64);
        }
        k.push(s.frames.len() as u64);
        for f in &s.frames {
            k.push(f.qid as u64);
            k.push(f.edges_at_start as u64);
            k.push(f.locals.len() as u64);
            for (v, val) in &f.locals {
                k.push(self.interner.id(v));
                push_value(&mut k, val);
            }
        }
        k.push(s.globals.len() as u64);
        for (v, val) in &s.globals {
            k.push(self.interner.id(v));
            push_value(&mut k, val);
        }
        k.push(s.scopes.len() as u64);
        k.push(s.alt_marks.len() as u64);
        k.extend(s.alt_marks.iter().map(|&m| m as u64));
        k.push(s.deferred.len() as u64);
        k
    }

    /// The dominance-pruning key: everything except group accumulations
    /// and the walk body (see the module docs).
    ///
    /// Loop counters are capped: past `min` (for unbounded quantifiers) or
    /// `max` (for bounded ones) further iterations do not change what the
    /// state can still match, so capped counts keep the key space finite —
    /// which is exactly what makes selector-driven search terminate.
    fn prune_key(&self, s: &RunState) -> Vec<u64> {
        let mut k = Vec::with_capacity(16);
        k.push(s.at as u64);
        k.push(s.path.start().0 as u64);
        k.push(s.current().0 as u64);
        k.push(s.loops.len() as u64);
        for l in &s.loops {
            let q = &self.prog.quants[l.qid];
            let cap = q.max.unwrap_or(q.min);
            k.push(l.qid as u64);
            k.push(l.count.min(cap) as u64);
            k.push(l.stalled as u64);
        }
        let non_group = s
            .globals
            .iter()
            .filter(|(_, v)| !matches!(v, BoundValue::NodeGroup(_) | BoundValue::EdgeGroup(_)));
        k.push(non_group.clone().count() as u64);
        for (v, val) in non_group {
            k.push(self.interner.id(v));
            push_value(&mut k, val);
        }
        k.push(s.frames.len() as u64);
        for f in &s.frames {
            k.push(f.qid as u64);
            k.push(f.locals.len() as u64);
            for (v, val) in &f.locals {
                k.push(self.interner.id(v));
                push_value(&mut k, val);
            }
        }
        k.push(s.alt_marks.len() as u64);
        k.extend(s.alt_marks.iter().map(|&m| m as u64));
        k.push(s.deferred.len() as u64);
        k
    }
}

/// A conservative static bound on the number of edges any match can use;
/// `usize::MAX / 4` stands for "unbounded" (then selector pruning bounds
/// the search instead).
pub(crate) fn static_edge_bound(
    pattern: &PathPattern,
    graph: &PropertyGraph,
    path_restrictor: Option<Restrictor>,
) -> usize {
    const INF: usize = usize::MAX / 4;
    fn walk(p: &PathPattern, graph: &PropertyGraph) -> usize {
        match p {
            PathPattern::Node(_) => 0,
            PathPattern::Edge(_) => 1,
            PathPattern::Concat(parts) => parts
                .iter()
                .map(|x| walk(x, graph))
                .fold(0usize, |a, b| a.saturating_add(b)),
            PathPattern::Paren {
                restrictor, inner, ..
            } => {
                let inner = walk(inner, graph);
                match restrictor {
                    Some(r) => inner.min(restrictor_bound(*r, graph)),
                    None => inner,
                }
            }
            PathPattern::Quantified { inner, quantifier } => {
                let body = walk(inner, graph);
                match quantifier.max {
                    Some(m) => body.saturating_mul(m as usize),
                    None => INF,
                }
            }
            PathPattern::Questioned(inner) => walk(inner, graph),
            PathPattern::Union(bs) | PathPattern::Alternation(bs) => {
                bs.iter().map(|x| walk(x, graph)).max().unwrap_or(0)
            }
        }
    }
    let raw = walk(pattern, graph);
    match path_restrictor {
        Some(r) => raw.min(restrictor_bound(r, graph)),
        None => raw,
    }
}

fn restrictor_bound(r: Restrictor, graph: &PropertyGraph) -> usize {
    match r {
        // A trail uses each edge at most once.
        Restrictor::Trail => graph.edge_count(),
        // An acyclic path visits each node at most once.
        Restrictor::Acyclic => graph.node_count().saturating_sub(1).max(1),
        // A simple path may additionally close back to its start.
        Restrictor::Simple => graph.node_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::ast::{Direction, GraphPattern, LabelExpr};
    use crate::eval::EvalOptions;
    use crate::normalize::normalize;
    use crate::plan::{has_unbounded, resolve_prune};
    use property_graph::{EdgeId, Endpoints, Value};

    fn program_for(pattern: PathPattern) -> FlatProgram {
        let normalized = normalize(&GraphPattern::single(pattern));
        FlatProgram::compile(&normalized.paths[0].pattern)
    }

    /// Patterns that together emit every opcode.
    fn golden_patterns() -> [PathPattern; 3] {
        // (x:Account WHERE x.owner = 'Ada')
        //   [TRAIL ()-[t:Transfer]->() WHERE t.amount > 5]?
        let trail = PathPattern::Paren {
            restrictor: Some(Restrictor::Trail),
            inner: Box::new(PathPattern::concat(vec![
                PathPattern::Node(NodePattern::any()),
                PathPattern::Edge(
                    EdgePattern::any(Direction::Right)
                        .with_var("t")
                        .with_label(LabelExpr::label("Transfer")),
                ),
                PathPattern::Node(NodePattern::any()),
            ])),
            predicate: Some(Expr::cmp(
                crate::ast::CmpOp::Gt,
                Expr::prop("t", "amount"),
                Expr::lit(5),
            )),
        };
        let optional = PathPattern::concat(vec![
            PathPattern::Node(
                NodePattern::var("x")
                    .with_label(LabelExpr::label("Account"))
                    .with_predicate(Expr::prop("x", "owner").eq(Expr::lit("Ada"))),
            ),
            PathPattern::Questioned(Box::new(trail)),
        ]);
        let labeled =
            |l: &str| PathPattern::Node(NodePattern::var("x").with_label(LabelExpr::label(l)));
        [
            optional,
            // (x:N) | (x:M)
            PathPattern::Union(vec![labeled("N"), labeled("M")]),
            // (x:N) |+| (x:M)
            PathPattern::Alternation(vec![labeled("N"), labeled("M")]),
        ]
    }

    /// The full program layout — block order, PCs, targets, block-end
    /// flags, start and accept. Search order follows the layout, so a
    /// change here changes row order and `instrs_dispatched`.
    #[test]
    fn lowering_layout_is_pinned() {
        let expected: [&[&str]; 3] = [
            &[
                "flat program: 16 instrs, start=0, accept=6",
                "    0: jmp                                     ->    1  |",
                "    1: ntest  n0 ((x:Account WHERE x.owner='Ada')) ->    2  |",
                "    2: jmp                                     ->    3  |",
                "    3: enter  q0 {0,1}                         ->    4  |",
                "    4: iter   q0 {0,1}                         ->   14",
                "    5: exit   q0 {0,1}                         ->    6  |",
                "    6: halt                                    ->    0  |",
                "    7: jmp                                     ->    8  |",
                "    8: ntest  n1 ((□1))                        ->    9  |",
                "    9: jmp                                     ->   10  |",
                "   10: step   e0 (-[t:Transfer]->)             ->   11  |",
                "   11: jmp                                     ->   12  |",
                "   12: ntest  n2 ((□2))                        ->   13  |",
                "   13: close  p0 (TRAIL)                       ->   15  |",
                "   14: open   p0 (TRAIL)                       ->    7  |",
                "   15: endit  q0 {0,1}                         ->    4  |",
            ],
            &[
                "flat program: 7 instrs, start=0, accept=2",
                "    0: jmp                                     ->    3",
                "    1: jmp                                     ->    5  |",
                "    2: halt                                    ->    0  |",
                "    3: ntest  n0 ((x:N))                       ->    4  |",
                "    4: jmp                                     ->    2  |",
                "    5: ntest  n1 ((x:M))                       ->    6  |",
                "    6: jmp                                     ->    2  |",
            ],
            &[
                "flat program: 7 instrs, start=0, accept=2",
                "    0: alt    #0                               ->    3",
                "    1: alt    #1                               ->    5  |",
                "    2: halt                                    ->    0  |",
                "    3: ntest  n0 ((x:N))                       ->    4  |",
                "    4: jmp                                     ->    2  |",
                "    5: ntest  n1 ((x:M))                       ->    6  |",
                "    6: jmp                                     ->    2  |",
            ],
        ];
        let progs = golden_patterns().map(program_for);
        let ends: Vec<_> = progs.iter().map(|p| (p.start, p.accept)).collect();
        assert_eq!(ends, [(0, 6), (0, 2), (0, 2)]);
        for (prog, lines) in progs.iter().zip(expected) {
            assert_eq!(prog.to_string().lines().collect::<Vec<_>>(), lines);
        }
    }

    /// Compiles `pattern` and runs the flat interpreter from every node —
    /// the raw search, before reduce/dedup/select.
    fn run(
        graph: &PropertyGraph,
        pattern: PathPattern,
        restrictor: Option<Restrictor>,
        selector_groups: Option<usize>,
    ) -> Vec<PathBinding> {
        let gp = GraphPattern {
            paths: vec![crate::ast::PathPatternExpr {
                // A selector stands in for the termination cover when the
                // test drives dominance pruning directly.
                selector: selector_groups.map(|_| crate::ast::Selector::AnyShortest),
                restrictor,
                path_var: None,
                pattern,
            }],
            where_clause: None,
        };
        let normalized = normalize(&gp);
        analyze(&normalized).unwrap();
        let opts = EvalOptions::default();
        let pattern = &normalized.paths[0].pattern;
        let prune = resolve_prune(has_unbounded(pattern), restrictor, selector_groups);
        let prog = FlatProgram::compile(pattern);
        let params = Params::new();
        let m = FlatMatcher::over(graph, &prog, pattern, restrictor, prune, &opts, &params);
        let starts: Vec<NodeId> = graph.nodes().collect();
        m.run_from(&starts).unwrap()
    }

    fn node(v: &str) -> PathPattern {
        PathPattern::Node(NodePattern::var(v))
    }

    fn labeled(v: &str, l: &str) -> PathPattern {
        PathPattern::Node(NodePattern::var(v).with_label(LabelExpr::label(l)))
    }

    fn edge_r(v: &str) -> PathPattern {
        PathPattern::Edge(EdgePattern::any(Direction::Right).with_var(v))
    }

    fn chain3() -> (PropertyGraph, [NodeId; 3], [EdgeId; 2]) {
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["N"], [("x", Value::Int(1))]);
        let b = g.add_node("b", ["N"], [("x", Value::Int(2))]);
        let c = g.add_node("c", ["M"], [("x", Value::Int(3))]);
        let e1 = g.add_edge("e1", Endpoints::directed(a, b), ["T"], []);
        let e2 = g.add_edge("e2", Endpoints::directed(b, c), ["T"], []);
        (g, [a, b, c], [e1, e2])
    }

    #[test]
    fn single_node_pattern_matches_every_node() {
        let (g, ..) = chain3();
        let ms = run(&g, node("x"), None, None);
        assert_eq!(ms.len(), 3);
        assert!(ms.iter().all(|m| m.path.is_empty()));
    }

    #[test]
    fn label_filters_nodes() {
        let (g, [_, _, c], _) = chain3();
        let ms = run(&g, labeled("x", "M"), None, None);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].get("x"), Some(&BoundValue::Node(c)));
    }

    #[test]
    fn edge_pattern_binds_endpoints() {
        let (g, [a, b, _], [e1, _]) = chain3();
        let p = PathPattern::concat(vec![node("s"), edge_r("e"), node("t")]);
        let ms = run(&g, p, None, None);
        assert_eq!(ms.len(), 2);
        let first = ms
            .iter()
            .find(|m| m.get("e") == Some(&BoundValue::Edge(e1)))
            .unwrap();
        assert_eq!(first.get("s"), Some(&BoundValue::Node(a)));
        assert_eq!(first.get("t"), Some(&BoundValue::Node(b)));
    }

    #[test]
    fn undirected_pattern_traverses_both_ways() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["N"], []);
        let b = g.add_node("b", ["N"], []);
        g.add_edge("u", Endpoints::undirected(a, b), ["U"], []);
        let p = PathPattern::concat(vec![
            node("s"),
            PathPattern::Edge(EdgePattern::any(Direction::Undirected).with_var("e")),
            node("t"),
        ]);
        let ms = run(&g, p, None, None);
        // Once from each endpoint.
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn any_direction_matches_directed_twice() {
        // (x)-[e]-(y): each directed edge returns twice, once per
        // traversal direction (§4.2).
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["N"], []);
        let b = g.add_node("b", ["N"], []);
        g.add_edge("d", Endpoints::directed(a, b), ["T"], []);
        let p = PathPattern::concat(vec![
            node("x"),
            PathPattern::Edge(EdgePattern::any(Direction::Any).with_var("e")),
            node("y"),
        ]);
        let ms = run(&g, p, None, None);
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn repeated_variable_is_equi_join() {
        // (s)-[e1]->(m)-[e2]->(s): no triangle in a chain.
        let (g, ..) = chain3();
        let p = PathPattern::concat(vec![
            node("s"),
            edge_r("e1"),
            node("m"),
            edge_r("e2"),
            node("s"),
        ]);
        assert!(run(&g, p, None, None).is_empty());

        // Add the closing edge: the triangle appears.
        let mut g = g;
        let (a, c) = (g.node_by_name("a").unwrap(), g.node_by_name("c").unwrap());
        g.add_edge("e3", Endpoints::directed(c, a), ["T"], []);
        let p = PathPattern::concat(vec![
            node("s"),
            edge_r("e1"),
            node("m"),
            edge_r("e2"),
            node("n"),
            edge_r("e3"),
            node("s"),
        ]);
        let ms = run(&g, p, None, None);
        assert_eq!(ms.len(), 3); // one per rotation
    }

    #[test]
    fn bounded_quantifier_lengths() {
        let (g, [a, _, c], _) = chain3();
        // (s)[()-[t]->()]{1,2}(d): paths of length 1 or 2.
        let body = PathPattern::concat(vec![
            PathPattern::Node(NodePattern::any()),
            edge_r("t"),
            PathPattern::Node(NodePattern::any()),
        ])
        .paren();
        let p = PathPattern::concat(vec![
            node("s"),
            body.quantified(Quantifier::range(1, Some(2))),
            node("d"),
        ]);
        let ms = run(&g, p, None, None);
        // length 1: a→b, b→c; length 2: a→b→c.
        assert_eq!(ms.len(), 3);
        let two = ms.iter().find(|m| m.path.len() == 2).unwrap();
        assert_eq!(two.get("s"), Some(&BoundValue::Node(a)));
        assert_eq!(two.get("d"), Some(&BoundValue::Node(c)));
        assert_eq!(
            two.get("t"),
            Some(&BoundValue::EdgeGroup(vec![EdgeId(0), EdgeId(1)]))
        );
    }

    #[test]
    fn zero_iterations_bind_empty_groups() {
        let (g, ..) = chain3();
        let body = PathPattern::concat(vec![
            PathPattern::Node(NodePattern::any()),
            edge_r("t"),
            PathPattern::Node(NodePattern::any()),
        ])
        .paren();
        let p = PathPattern::concat(vec![
            node("s"),
            body.quantified(Quantifier::range(0, Some(1))),
        ]);
        let ms = run(&g, p, None, None);
        // 3 zero-iteration matches + 2 one-iteration matches.
        assert_eq!(ms.len(), 5);
        let zero = ms.iter().filter(|m| m.path.is_empty()).count();
        assert_eq!(zero, 3);
        for m in ms.iter().filter(|m| m.path.is_empty()) {
            assert_eq!(m.get("t"), Some(&BoundValue::EdgeGroup(vec![])));
        }
    }

    #[test]
    fn trail_restrictor_prunes_repeated_edges() {
        // Two-node cycle: a→b→a→b... TRAIL caps at 2 edges.
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["N"], []);
        let b = g.add_node("b", ["N"], []);
        g.add_edge("ab", Endpoints::directed(a, b), ["T"], []);
        g.add_edge("ba", Endpoints::directed(b, a), ["T"], []);
        let body = PathPattern::concat(vec![
            PathPattern::Node(NodePattern::any()),
            edge_r("t"),
            PathPattern::Node(NodePattern::any()),
        ])
        .paren();
        let p = PathPattern::concat(vec![
            node("s"),
            body.quantified(Quantifier::plus()),
            node("d"),
        ]);
        let ms = run(&g, p, Some(Restrictor::Trail), None);
        // From a: a→b, a→b→a; from b: b→a, b→a→b. All trails.
        assert_eq!(ms.len(), 4);
        assert!(ms.iter().all(|m| m.path.is_trail()));
    }

    #[test]
    fn acyclic_restrictor_prunes_repeated_nodes() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["N"], []);
        let b = g.add_node("b", ["N"], []);
        g.add_edge("ab", Endpoints::directed(a, b), ["T"], []);
        g.add_edge("ba", Endpoints::directed(b, a), ["T"], []);
        let body = PathPattern::concat(vec![
            PathPattern::Node(NodePattern::any()),
            edge_r("t"),
            PathPattern::Node(NodePattern::any()),
        ])
        .paren();
        let p = PathPattern::concat(vec![
            node("s"),
            body.quantified(Quantifier::plus()),
            node("d"),
        ]);
        let ms = run(&g, p, Some(Restrictor::Acyclic), None);
        // Only the two single-edge paths are acyclic.
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn simple_restrictor_allows_closing_cycle() {
        // Triangle: SIMPLE admits the full cycle, ACYCLIC does not.
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["N"], []);
        let b = g.add_node("b", ["N"], []);
        let c = g.add_node("c", ["N"], []);
        g.add_edge("ab", Endpoints::directed(a, b), ["T"], []);
        g.add_edge("bc", Endpoints::directed(b, c), ["T"], []);
        g.add_edge("ca", Endpoints::directed(c, a), ["T"], []);
        let body = PathPattern::concat(vec![
            PathPattern::Node(NodePattern::any()),
            edge_r("t"),
            PathPattern::Node(NodePattern::any()),
        ])
        .paren();
        let p = PathPattern::concat(vec![
            node("s"),
            body.clone().quantified(Quantifier::range(3, Some(3))),
            node("s"),
        ]);
        let simple = run(&g, p.clone(), Some(Restrictor::Simple), None);
        assert_eq!(simple.len(), 3); // one rotation per start
        let acyclic = run(&g, p, Some(Restrictor::Acyclic), None);
        assert!(acyclic.is_empty());
    }

    #[test]
    fn selector_pruning_terminates_on_cycles() {
        // a→b→a cycle with an unbounded star and no restrictor: selector
        // pruning must terminate and find the shortest paths.
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["N"], []);
        let b = g.add_node("b", ["N"], []);
        g.add_edge("ab", Endpoints::directed(a, b), ["T"], []);
        g.add_edge("ba", Endpoints::directed(b, a), ["T"], []);
        let body = PathPattern::concat(vec![
            PathPattern::Node(NodePattern::any()),
            edge_r("t"),
            PathPattern::Node(NodePattern::any()),
        ])
        .paren();
        let p = PathPattern::concat(vec![
            node("s"),
            body.quantified(Quantifier::star()),
            node("d"),
        ]);
        let ms = run(&g, p, None, Some(1));
        // Shortest per partition: (a,a) len 0, (b,b) len 0, (a,b) len 1,
        // (b,a) len 1. Dominance pruning may keep a few extras; at minimum
        // the shortest ones exist and the search terminated.
        assert!(ms.iter().any(|m| m.path.is_empty()));
        assert!(ms
            .iter()
            .any(|m| m.path.len() == 1 && m.path.start() == a && m.path.end() == b));
        assert!(ms
            .iter()
            .any(|m| m.path.len() == 1 && m.path.start() == b && m.path.end() == a));
        // Nothing longer than |N| per partition survives pruning at k=1.
        assert!(ms.iter().all(|m| m.path.len() <= 2));
    }

    #[test]
    fn question_mark_exposes_conditional_singletons() {
        let (g, [_, b, c], [_, e2]) = chain3();
        // (x) [-[e]->(y)]?
        let opt = PathPattern::Questioned(Box::new(
            PathPattern::concat(vec![edge_r("e"), node("y")]).paren(),
        ));
        let p = PathPattern::concat(vec![labeled("x", "N"), opt]);
        let ms = run(&g, p, None, None);
        // x∈{a,b} each with: no match, plus one extension. a→b, b→c.
        assert_eq!(ms.len(), 4);
        let with_edge: Vec<_> = ms.iter().filter(|m| m.path.len() == 1).collect();
        assert_eq!(with_edge.len(), 2);
        // Bound as singletons, not groups.
        let m = with_edge
            .iter()
            .find(|m| m.get("x") == Some(&BoundValue::Node(b)))
            .unwrap();
        assert_eq!(m.get("e"), Some(&BoundValue::Edge(e2)));
        assert_eq!(m.get("y"), Some(&BoundValue::Node(c)));
        // Unmatched option leaves variables unbound.
        let without: Vec<_> = ms.iter().filter(|m| m.path.is_empty()).collect();
        assert!(without.iter().all(|m| m.get("e").is_none()));
    }

    #[test]
    fn union_and_alternation_marks() {
        let (g, ..) = chain3();
        // (x:N) | (x:N): same matches; marks only differ for |+|.
        let u = PathPattern::Union(vec![labeled("x", "N"), labeled("x", "N")]);
        let ms = run(&g, u, None, None);
        assert!(ms.iter().all(|m| m.alt_marks.is_empty()));

        let alt = PathPattern::Alternation(vec![labeled("x", "N"), labeled("x", "N")]);
        let ms = run(&g, alt, None, None);
        assert_eq!(ms.len(), 4); // 2 nodes × 2 branches
        assert!(ms.iter().all(|m| m.alt_marks.len() == 1));
    }

    #[test]
    fn per_iteration_predicate() {
        // [()-[t]->() WHERE t.w>1]{1,2} — only heavy edges.
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["N"], []);
        let b = g.add_node("b", ["N"], []);
        let c = g.add_node("c", ["N"], []);
        g.add_edge(
            "ab",
            Endpoints::directed(a, b),
            ["T"],
            [("w", Value::Int(5))],
        );
        g.add_edge(
            "bc",
            Endpoints::directed(b, c),
            ["T"],
            [("w", Value::Int(0))],
        );
        let body = PathPattern::Paren {
            restrictor: None,
            inner: Box::new(PathPattern::concat(vec![
                PathPattern::Node(NodePattern::any()),
                edge_r("t"),
                PathPattern::Node(NodePattern::any()),
            ])),
            predicate: Some(Expr::cmp(
                crate::ast::CmpOp::Gt,
                Expr::prop("t", "w"),
                Expr::lit(1),
            )),
        };
        let p = PathPattern::concat(vec![
            node("s"),
            PathPattern::Quantified {
                inner: Box::new(body),
                quantifier: Quantifier::range(1, Some(2)),
            },
            node("d"),
        ]);
        let ms = run(&g, p, None, None);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].path.len(), 1);
        assert_eq!(ms[0].get("s"), Some(&BoundValue::Node(a)));
    }

    #[test]
    fn question_mark_nested_in_quantifier_groups_outward() {
        // (s) [ (□)-[e]->(□) [~[u]~(p)]? ]{1,2} : the `?` exposes u/p as
        // singletons within each iteration, and the enclosing quantifier
        // then collects them into groups.
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["N"], []);
        let b = g.add_node("b", ["N"], []);
        let c = g.add_node("c", ["N"], []);
        let p1 = g.add_node("p1", ["P"], []);
        g.add_edge("ab", Endpoints::directed(a, b), ["T"], []);
        g.add_edge("bc", Endpoints::directed(b, c), ["T"], []);
        g.add_edge("u1", Endpoints::undirected(b, p1), ["U"], []);
        let opt = PathPattern::Questioned(Box::new(
            PathPattern::concat(vec![
                PathPattern::Edge(EdgePattern::any(Direction::Undirected).with_var("u")),
                PathPattern::Node(NodePattern::var("p").with_label(LabelExpr::label("P"))),
            ])
            .paren(),
        ));
        let body = PathPattern::concat(vec![
            PathPattern::Node(NodePattern::any()),
            PathPattern::Edge(
                EdgePattern::any(Direction::Right)
                    .with_var("e")
                    .with_label(LabelExpr::label("T")),
            ),
            PathPattern::Node(NodePattern::any()),
            opt,
        ])
        .paren();
        let pattern = PathPattern::concat(vec![
            node("s"),
            PathPattern::Quantified {
                inner: Box::new(body),
                quantifier: Quantifier::range(1, Some(2)),
            },
        ]);
        let ms = run(&g, pattern, None, None);
        // Walks from a: a→b (±u1 detour), a→b~p1; a→b→c combinations; from
        // b: b→c (no detour possible at c). Check the group classification:
        // u and p become groups at the top level.
        assert!(!ms.is_empty());
        for m in &ms {
            if let Some(v) = m.get("u") {
                assert!(
                    matches!(v, BoundValue::EdgeGroup(_)),
                    "u must be grouped outward, got {v:?}"
                );
            }
            if let Some(v) = m.get("p") {
                assert!(matches!(v, BoundValue::NodeGroup(_)), "{v:?}");
            }
        }
        // At least one match took the optional detour.
        assert!(ms.iter().any(|m| matches!(
            m.get("u"),
            Some(BoundValue::EdgeGroup(es)) if !es.is_empty()
        )));
    }

    #[test]
    fn deferred_prefilter_on_later_variable() {
        // (a WHERE a.x = d.x) -[e]-> (d): the prefilter mentions d before
        // it is bound and must be re-checked at completion.
        let mut g = PropertyGraph::new();
        let a = g.add_node("a", ["N"], [("x", Value::Int(7))]);
        let b = g.add_node("b", ["N"], [("x", Value::Int(7))]);
        let c = g.add_node("c", ["N"], [("x", Value::Int(9))]);
        g.add_edge("ab", Endpoints::directed(a, b), ["T"], []);
        g.add_edge("ac", Endpoints::directed(a, c), ["T"], []);
        let p = PathPattern::concat(vec![
            PathPattern::Node(
                NodePattern::var("a").with_predicate(Expr::prop("a", "x").eq(Expr::prop("d", "x"))),
            ),
            edge_r("e"),
            node("d"),
        ]);
        let ms = run(&g, p, None, None);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].get("d"), Some(&BoundValue::Node(b)));
    }
}
