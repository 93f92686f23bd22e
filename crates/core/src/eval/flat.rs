//! The flat edge-centric plan IR, its compiler, and its
//! trail-backtracking interpreter.
//!
//! A normalized path pattern compiles by Thompson construction straight
//! into a [`FlatProgram`] — one contiguous `Vec<Instr>` where *transitions
//! are primary and states are implicit*: each instruction carries its
//! opcode, operand table index, and target program counter inline, and a
//! state survives only as the PC of its first instruction, and the inner
//! matching loop is a linear walk over contiguous memory.
//!
//! # Watermark backtracking
//!
//! Instead of cloning a state per ε-transition, the interpreter keeps ONE
//! mutable working state plus an *undo trail*. The DFS stack holds bare
//! `(pc, trail watermark)` pairs; popping an entry truncates the trail
//! back to its watermark — undoing, in reverse order, every mutation made
//! since that configuration was current — and then applies the popped
//! instruction in place. The restored state is byte-identical to the
//! state a clone-per-transition walk would hold at that point, so the
//! search takes exactly the program's transitions; the agreement
//! test-suite checks its results against the §6 spec-literal engine in
//! [`crate::baseline`].

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;

use property_graph::{NodeId, Path, PropertyGraph};

use crate::ast::{EdgePattern, Expr, NodePattern, PathPattern, Quantifier, Restrictor};
use crate::binding::{BoundValue, PathBinding};
use crate::error::{Error, Result};
use crate::eval::labels::ProgramLabels;
use crate::eval::search::{
    self, BindSite, Frame, JoinKeyNodes, Loop, MergeEffect, PruneMode, RunState, Scope,
};
use crate::eval::{EvalOptions, Tally};
use crate::normalize::is_anonymous;
use crate::params::Params;

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
    match p {
        PathPattern::Node(n) => {
            if let Some(v) = &n.var {
                if !is_anonymous(v) && !out.iter().any(|(n2, _)| n2 == v) {
                    out.push((v.clone(), false));
                }
            }
        }
        PathPattern::Edge(e) => {
            if let Some(v) = &e.var {
                if !is_anonymous(v) && !out.iter().any(|(n2, _)| n2 == v) {
                    out.push((v.clone(), true));
                }
            }
        }
        PathPattern::Concat(parts) => parts.iter().for_each(|x| collect_vars(x, out)),
        PathPattern::Paren { inner, .. } => collect_vars(inner, out),
        PathPattern::Quantified { inner, .. } => collect_vars(inner, out),
        PathPattern::Questioned(inner) => collect_vars(inner, out),
        PathPattern::Union(bs) | PathPattern::Alternation(bs) => {
            bs.iter().for_each(|x| collect_vars(x, out))
        }
    }
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
// The undo trail
// ---------------------------------------------------------------------------

/// One reversible mutation of the working [`RunState`]. Backtracking pops
/// trail entries (most recent first) down to a watermark, restoring the
/// state exactly as it was when that watermark was taken.
enum Undo {
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

/// The flat-program interpreter: the executor of every path stage the
/// shortest-path kernel does not take (see [`super::kernel`]). Step and
/// accept decisions come from [`search::try_step`] and
/// [`search::finalize`]; the ε-closure and frontier are its own.
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
        let static_cap = search::static_edge_bound(pattern, graph, path_restrictor);
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
        let mut queue: VecDeque<RunState> = VecDeque::new();
        let mut seen: HashMap<Vec<u64>, BTreeSet<usize>> = HashMap::new();

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
            self.closure(init, &mut queue, &mut results, &mut seen)?;
        }

        while let Some(state) = queue.pop_front() {
            self.counts.bump(|c| c.nodes_expanded += 1);
            if state.path.len() >= self.max_edges {
                continue;
            }
            // Linear scan of the state's block for its Consume entries —
            // the flat replacement for the per-state edge vector.
            let mut pc = state.at;
            loop {
                let ins = self.prog.instrs[pc];
                if ins.op == Op::Consume {
                    let arg = ins.arg as usize;
                    let (ep, scan) = (&self.prog.edge_pats[arg], &self.labels.edges[arg]);
                    for step in scan.steps(self.graph, state.current()) {
                        self.counts.bump(|c| c.edges_traversed += 1);
                        if !scan.admits(self.graph, step) {
                            continue;
                        }
                        if let Some(next) = search::try_step(
                            self.graph,
                            self.params,
                            &state,
                            ins.target as usize,
                            ep,
                            *step,
                        ) {
                            self.closure(next, &mut queue, &mut results, &mut seen)?;
                        }
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

    /// ε-closure over the flat program: one working state, an undo
    /// trail, and a DFS stack of bare `(pc, trail watermark)` pairs.
    /// Backtracking is watermark truncation of the trail instead of a
    /// clone per transition.
    fn closure(
        &self,
        seed: RunState,
        queue: &mut VecDeque<RunState>,
        results: &mut Vec<PathBinding>,
        seen: &mut HashMap<Vec<u64>, BTreeSet<usize>>,
    ) -> Result<()> {
        let mut work = seed;
        let mut trail: Vec<Undo> = Vec::new();
        let mut stack: Vec<(u32, u32)> = Vec::new();
        let mut visited: HashSet<Vec<u64>> = HashSet::new();

        self.visit(&work, 0, &mut stack, &mut visited, queue, results, seen)?;
        while let Some((pc, mark)) = stack.pop() {
            if trail.len() > mark as usize {
                self.counts.bump(|c| c.backtrack_truncations += 1);
                undo_to(&mut work, &mut trail, mark as usize);
            }
            let ins = self.prog.instrs[pc as usize];
            if self.apply(&mut work, &mut trail, ins) {
                work.at = ins.target as usize;
                let wm = trail.len() as u32;
                self.visit(&work, wm, &mut stack, &mut visited, queue, results, seen)?;
            }
        }
        Ok(())
    }

    /// Processes a newly reached configuration: dedup on the visited key,
    /// record accepts, push the block's ε-instructions (applied lazily at
    /// pop), and enqueue a frontier snapshot if the block can consume.
    #[allow(clippy::too_many_arguments)]
    fn visit(
        &self,
        work: &RunState,
        watermark: u32,
        stack: &mut Vec<(u32, u32)>,
        visited: &mut HashSet<Vec<u64>>,
        queue: &mut VecDeque<RunState>,
        results: &mut Vec<PathBinding>,
        seen: &mut HashMap<Vec<u64>, BTreeSet<usize>>,
    ) -> Result<()> {
        if !visited.insert(self.vkey(work)) {
            return Ok(());
        }
        if work.at == self.prog.accept as usize {
            if let Some(b) = search::finalize(self.graph, self.params, work) {
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
            self.enqueue(work.clone(), queue, seen)?;
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
                    match work.bind_where(v, BoundValue::Node(n)) {
                        None => return false,
                        Some(BindSite::Existing) => {}
                        Some(site) => trail.push(Undo::Inserted {
                            var: v.clone(),
                            global: site == BindSite::Globals,
                        }),
                    }
                }
                if let Some(pred) = &np.predicate {
                    if !self.prefilter(work, trail, pred) {
                        return false;
                    }
                }
                true
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
                if let Some(pred) = &self.prog.parens[arg].predicate {
                    if !self.prefilter(work, trail, pred) {
                        return false;
                    }
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
                    let (effect, ok) = search::merge_binding(work, &var, val, q.expose_conditional);
                    match effect {
                        MergeEffect::None => {}
                        MergeEffect::Inserted { global } => {
                            trail.push(Undo::Inserted { var, global })
                        }
                        MergeEffect::Extended { global, old_len } => trail.push(Undo::Extended {
                            var,
                            global,
                            old_len,
                        }),
                    }
                    if !ok {
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
                            match work.bind_where(var, empty) {
                                None => return false,
                                Some(BindSite::Existing) => {}
                                Some(site) => trail.push(Undo::Inserted {
                                    var: var.clone(),
                                    global: site == BindSite::Globals,
                                }),
                            }
                        }
                    }
                }
                true
            }
            Op::Consume | Op::Halt => unreachable!("not an ε-instruction"),
        }
    }

    /// Prefilter evaluation with trail bookkeeping for a deferral.
    fn prefilter(&self, work: &mut RunState, trail: &mut Vec<Undo>, pred: &Expr) -> bool {
        let before = work.deferred.len();
        let ok = search::check_prefilter(self.graph, self.params, work, pred);
        if work.deferred.len() > before {
            trail.push(Undo::Deferred);
        }
        ok
    }

    /// Frontier admission: dominance pruning (see [`search`]'s module docs)
    /// and the frontier limit, over structural keys.
    fn enqueue(
        &self,
        state: RunState,
        queue: &mut VecDeque<RunState>,
        seen: &mut HashMap<Vec<u64>, BTreeSet<usize>>,
    ) -> Result<()> {
        if let PruneMode::ShortestGroups(k) = self.prune {
            // Pruning is only sound for states without live restrictor
            // scopes (scope memory affects future matchability).
            if state.scopes.is_empty() {
                let key = self.prune_key(&state);
                let lengths = seen.entry(key).or_default();
                let len = state.path.len();
                let shorter = lengths.range(..len).count();
                if shorter >= k {
                    return Ok(());
                }
                lengths.insert(len);
            }
        }
        if queue.len() >= self.opts.max_frontier {
            return Err(Error::LimitExceeded {
                what: "frontier states",
                limit: self.opts.max_frontier,
            });
        }
        queue.push_back(state);
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
    /// and the walk body (see [`search`]'s module docs).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Direction, GraphPattern, LabelExpr};
    use crate::normalize::normalize;

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
}
