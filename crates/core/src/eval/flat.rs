//! The flat edge-centric plan IR and its trail-backtracking interpreter.
//!
//! Walking the compiled NFA directly would chase `Vec<StateData>` →
//! `Vec<EpsTrans>` indirections and clone the whole run state per
//! ε-transition. This module lowers that NFA into a [`FlatProgram`] — one contiguous
//! `Vec<Instr>` where *transitions are primary and states are implicit*:
//! each instruction carries its opcode, operand table index, and target
//! program counter inline, and a state survives only as the PC of its
//! first instruction. The inner matching loop becomes a linear walk over
//! contiguous memory.
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
//! search takes exactly the NFA's transitions; the agreement test-suite
//! checks its results against the §6 spec-literal engine in
//! [`crate::baseline`].
//!
//! # Binary layout
//!
//! [`FlatProgram::to_bytes`] emits a versioned little-endian encoding:
//!
//! ```text
//! magic "GPLN" | version u32 | fnv1a-64 checksum of payload | payload
//! ```
//!
//! The payload is `start`, `accept`, the instruction array, and the four
//! operand tables (node patterns, edge patterns, quantifier and paren
//! metadata), with every string length-prefixed and every enum tagged.
//! [`FlatProgram::from_bytes`] verifies magic, version, and checksum,
//! bounds-checks every instruction target and operand index, and rejects
//! trailing bytes — round-tripping is structural equality. The server
//! uses this encoding to persist its shared plan cache across restarts.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;

use property_graph::{NodeId, Path, PropertyGraph, Value};

use crate::ast::{
    AggArg, AggFunc, ArithOp, CmpOp, Direction, EdgePattern, Expr, GraphPattern, LabelExpr,
    NodePattern, PathPattern, PathPatternExpr, Quantifier, Restrictor, Selector,
};
use crate::binding::{BoundValue, PathBinding};
use crate::error::{Error, Result};
use crate::eval::nfa::{
    self, Action, BindSite, Frame, Loop, MergeEffect, Nfa, ParenMeta, PruneMode, QuantMeta,
    RunState, Scope, SemiJoinFilters,
};
use crate::eval::{EvalOptions, StageCounters};
use crate::params::Params;

// ---------------------------------------------------------------------------
// Instruction set
// ---------------------------------------------------------------------------

/// Flat-program opcodes: the nine ε-actions of the NFA, plus `Consume`
/// (a graph step under an edge pattern) and `Halt` (a dead state).
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
    fn from_u8(b: u8) -> Option<Op> {
        Some(match b {
            0 => Op::Jump,
            1 => Op::NodeTest,
            2 => Op::OpenParen,
            3 => Op::CloseParen,
            4 => Op::EnterQuant,
            5 => Op::IterStart,
            6 => Op::IterEnd,
            7 => Op::ExitQuant,
            8 => Op::AltMark,
            9 => Op::Consume,
            10 => Op::Halt,
            _ => return None,
        })
    }

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

/// One flat-program instruction: 10 bytes of opcode + operand index +
/// target PC, laid out contiguously per state block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

/// A compiled path stage in flat edge-centric form: one contiguous
/// instruction array plus its operand tables. States exist only as
/// program counters (the first instruction of each state's block).
///
/// Produced by lowering the compiled NFA at prepare time; executed by
/// the flat interpreter; serialized with [`FlatProgram::to_bytes`] for
/// plan-cache persistence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatProgram {
    instrs: Vec<Instr>,
    start: u32,
    accept: u32,
    node_pats: Vec<NodePattern>,
    edge_pats: Vec<EdgePattern>,
    quants: Vec<QuantMeta>,
    parens: Vec<ParenMeta>,
}

impl FlatProgram {
    /// Lowers a compiled NFA into flat form. Each state becomes a block
    /// of instructions — its ε-transitions in order, then its consuming
    /// transitions in order (a `Halt` for states with neither) — with the
    /// block's last instruction flagged as the scan terminator.
    pub(crate) fn from_nfa(nfa: &Nfa) -> FlatProgram {
        let mut block_start = Vec::with_capacity(nfa.states.len());
        let mut next = 0u32;
        for s in &nfa.states {
            block_start.push(next);
            next += (s.eps.len() + s.edges.len()).max(1) as u32;
        }
        let mut instrs = Vec::with_capacity(next as usize);
        for s in &nfa.states {
            let begin = instrs.len();
            for t in &s.eps {
                let (op, arg) = match t.action {
                    Action::None => (Op::Jump, 0),
                    Action::NodeTest(i) => (Op::NodeTest, i as u32),
                    Action::OpenParen(i) => (Op::OpenParen, i as u32),
                    Action::CloseParen(i) => (Op::CloseParen, i as u32),
                    Action::EnterQuant(i) => (Op::EnterQuant, i as u32),
                    Action::IterStart(i) => (Op::IterStart, i as u32),
                    Action::IterEnd(i) => (Op::IterEnd, i as u32),
                    Action::ExitQuant(i) => (Op::ExitQuant, i as u32),
                    Action::AltMark(i) => (Op::AltMark, i),
                };
                instrs.push(Instr {
                    op,
                    last: false,
                    arg,
                    target: block_start[t.to],
                });
            }
            for &(target, ep_idx) in &s.edges {
                instrs.push(Instr {
                    op: Op::Consume,
                    last: false,
                    arg: ep_idx as u32,
                    target: block_start[target],
                });
            }
            if instrs.len() == begin {
                instrs.push(Instr {
                    op: Op::Halt,
                    last: false,
                    arg: 0,
                    target: 0,
                });
            }
            instrs.last_mut().expect("block is non-empty").last = true;
        }
        FlatProgram {
            instrs,
            start: block_start[nfa.start],
            accept: block_start[nfa.accept],
            node_pats: nfa.node_pats.clone(),
            edge_pats: nfa.edge_pats.clone(),
            quants: nfa.quants.clone(),
            parens: nfa.parens.clone(),
        }
    }

    /// Number of instructions in the program (the plan-introspection
    /// metric, replacing compiler-internal NFA state counts).
    pub fn instr_count(&self) -> usize {
        self.instrs.len()
    }

    /// Size of the binary encoding in bytes.
    pub fn encoded_len(&self) -> usize {
        self.to_bytes().len()
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
// Binary encoding
// ---------------------------------------------------------------------------

const MAGIC: &[u8; 4] = b"GPLN";
/// Current binary-format version. Bump on any layout change; decoders
/// reject other versions with [`PlanDecodeError::WrongVersion`].
pub const PLAN_FORMAT_VERSION: u32 = 1;
const MAX_DECODE_DEPTH: u32 = 512;

/// Why a byte buffer failed to decode as a [`FlatProgram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanDecodeError {
    /// The buffer does not start with the `GPLN` magic.
    BadMagic,
    /// The buffer was written by a different format version.
    WrongVersion(u32),
    /// The payload checksum does not match (corruption).
    BadChecksum,
    /// The payload is structurally invalid (truncated, bad tag,
    /// out-of-bounds target, trailing bytes, ...).
    Malformed(&'static str),
}

impl fmt::Display for PlanDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanDecodeError::BadMagic => write!(f, "not a GPLN plan (bad magic)"),
            PlanDecodeError::WrongVersion(v) => {
                write!(f, "unsupported plan format version {v}")
            }
            PlanDecodeError::BadChecksum => write!(f, "plan checksum mismatch"),
            PlanDecodeError::Malformed(what) => write!(f, "malformed plan: {what}"),
        }
    }
}

impl std::error::Error for PlanDecodeError {}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

// ---- writer -------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt<T>(out: &mut Vec<u8>, v: &Option<T>, enc: impl FnOnce(&mut Vec<u8>, &T)) {
    match v {
        None => put_u8(out, 0),
        Some(x) => {
            put_u8(out, 1);
            enc(out, x);
        }
    }
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(out, 0),
        Value::Bool(b) => {
            put_u8(out, 1);
            put_bool(out, *b);
        }
        Value::Int(i) => {
            put_u8(out, 2);
            put_i64(out, *i);
        }
        Value::Float(x) => {
            put_u8(out, 3);
            put_u64(out, x.to_bits());
        }
        Value::Str(s) => {
            put_u8(out, 4);
            put_str(out, s);
        }
    }
}

fn put_label(out: &mut Vec<u8>, l: &LabelExpr) {
    match l {
        LabelExpr::Wildcard => put_u8(out, 0),
        LabelExpr::Label(s) => {
            put_u8(out, 1);
            put_str(out, s);
        }
        LabelExpr::Not(a) => {
            put_u8(out, 2);
            put_label(out, a);
        }
        LabelExpr::And(a, b) => {
            put_u8(out, 3);
            put_label(out, a);
            put_label(out, b);
        }
        LabelExpr::Or(a, b) => {
            put_u8(out, 4);
            put_label(out, a);
            put_label(out, b);
        }
    }
}

fn put_expr(out: &mut Vec<u8>, e: &Expr) {
    match e {
        Expr::Literal(v) => {
            put_u8(out, 0);
            put_value(out, v);
        }
        Expr::Parameter(s) => {
            put_u8(out, 1);
            put_str(out, s);
        }
        Expr::Var(s) => {
            put_u8(out, 2);
            put_str(out, s);
        }
        Expr::Property(v, p) => {
            put_u8(out, 3);
            put_str(out, v);
            put_str(out, p);
        }
        Expr::Not(a) => {
            put_u8(out, 4);
            put_expr(out, a);
        }
        Expr::And(a, b) => {
            put_u8(out, 5);
            put_expr(out, a);
            put_expr(out, b);
        }
        Expr::Or(a, b) => {
            put_u8(out, 6);
            put_expr(out, a);
            put_expr(out, b);
        }
        Expr::Cmp(op, a, b) => {
            put_u8(out, 7);
            put_u8(
                out,
                match op {
                    CmpOp::Eq => 0,
                    CmpOp::Ne => 1,
                    CmpOp::Lt => 2,
                    CmpOp::Le => 3,
                    CmpOp::Gt => 4,
                    CmpOp::Ge => 5,
                },
            );
            put_expr(out, a);
            put_expr(out, b);
        }
        Expr::Arith(op, a, b) => {
            put_u8(out, 8);
            put_u8(
                out,
                match op {
                    ArithOp::Add => 0,
                    ArithOp::Sub => 1,
                    ArithOp::Mul => 2,
                    ArithOp::Div => 3,
                },
            );
            put_expr(out, a);
            put_expr(out, b);
        }
        Expr::IsNull(a, neg) => {
            put_u8(out, 9);
            put_expr(out, a);
            put_bool(out, *neg);
        }
        Expr::IsDirected(s) => {
            put_u8(out, 10);
            put_str(out, s);
        }
        Expr::IsSourceOf { node, edge } => {
            put_u8(out, 11);
            put_str(out, node);
            put_str(out, edge);
        }
        Expr::IsDestinationOf { node, edge } => {
            put_u8(out, 12);
            put_str(out, node);
            put_str(out, edge);
        }
        Expr::Same(vs) => {
            put_u8(out, 13);
            put_u32(out, vs.len() as u32);
            vs.iter().for_each(|v| put_str(out, v));
        }
        Expr::AllDifferent(vs) => {
            put_u8(out, 14);
            put_u32(out, vs.len() as u32);
            vs.iter().for_each(|v| put_str(out, v));
        }
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => {
            put_u8(out, 15);
            put_u8(
                out,
                match func {
                    AggFunc::Count => 0,
                    AggFunc::Sum => 1,
                    AggFunc::Avg => 2,
                    AggFunc::Min => 3,
                    AggFunc::Max => 4,
                },
            );
            match arg {
                AggArg::Var(v) => {
                    put_u8(out, 0);
                    put_str(out, v);
                }
                AggArg::VarStar(v) => {
                    put_u8(out, 1);
                    put_str(out, v);
                }
                AggArg::Property(v, p) => {
                    put_u8(out, 2);
                    put_str(out, v);
                    put_str(out, p);
                }
            }
            put_bool(out, *distinct);
        }
        Expr::Exists(gp) => {
            put_u8(out, 16);
            put_graph_pattern(out, gp);
        }
    }
}

fn put_restrictor(out: &mut Vec<u8>, r: &Restrictor) {
    put_u8(
        out,
        match r {
            Restrictor::Trail => 0,
            Restrictor::Acyclic => 1,
            Restrictor::Simple => 2,
        },
    );
}

fn put_direction(out: &mut Vec<u8>, d: Direction) {
    put_u8(
        out,
        match d {
            Direction::Left => 0,
            Direction::Undirected => 1,
            Direction::Right => 2,
            Direction::LeftOrUndirected => 3,
            Direction::UndirectedOrRight => 4,
            Direction::LeftOrRight => 5,
            Direction::Any => 6,
        },
    );
}

fn put_selector(out: &mut Vec<u8>, s: &Selector) {
    match s {
        Selector::AnyShortest => put_u8(out, 0),
        Selector::AllShortest => put_u8(out, 1),
        Selector::Any => put_u8(out, 2),
        Selector::AnyK(k) => {
            put_u8(out, 3);
            put_u32(out, *k);
        }
        Selector::ShortestK(k) => {
            put_u8(out, 4);
            put_u32(out, *k);
        }
        Selector::ShortestKGroup(k) => {
            put_u8(out, 5);
            put_u32(out, *k);
        }
        Selector::AnyCheapest { weight } => {
            put_u8(out, 6);
            put_str(out, weight);
        }
        Selector::CheapestK { k, weight } => {
            put_u8(out, 7);
            put_u32(out, *k);
            put_str(out, weight);
        }
    }
}

fn put_node_pat(out: &mut Vec<u8>, np: &NodePattern) {
    put_opt(out, &np.var, |o, v| put_str(o, v));
    put_opt(out, &np.label, put_label);
    put_opt(out, &np.predicate, put_expr);
}

fn put_edge_pat(out: &mut Vec<u8>, ep: &EdgePattern) {
    put_opt(out, &ep.var, |o, v| put_str(o, v));
    put_opt(out, &ep.label, put_label);
    put_opt(out, &ep.predicate, put_expr);
    put_direction(out, ep.direction);
}

fn put_path_pattern(out: &mut Vec<u8>, p: &PathPattern) {
    match p {
        PathPattern::Node(np) => {
            put_u8(out, 0);
            put_node_pat(out, np);
        }
        PathPattern::Edge(ep) => {
            put_u8(out, 1);
            put_edge_pat(out, ep);
        }
        PathPattern::Concat(parts) => {
            put_u8(out, 2);
            put_u32(out, parts.len() as u32);
            parts.iter().for_each(|x| put_path_pattern(out, x));
        }
        PathPattern::Paren {
            restrictor,
            inner,
            predicate,
        } => {
            put_u8(out, 3);
            put_opt(out, restrictor, put_restrictor);
            put_path_pattern(out, inner);
            put_opt(out, predicate, put_expr);
        }
        PathPattern::Quantified { inner, quantifier } => {
            put_u8(out, 4);
            put_path_pattern(out, inner);
            put_u32(out, quantifier.min);
            put_opt(out, &quantifier.max, |o, m| put_u32(o, *m));
        }
        PathPattern::Questioned(inner) => {
            put_u8(out, 5);
            put_path_pattern(out, inner);
        }
        PathPattern::Union(bs) => {
            put_u8(out, 6);
            put_u32(out, bs.len() as u32);
            bs.iter().for_each(|x| put_path_pattern(out, x));
        }
        PathPattern::Alternation(bs) => {
            put_u8(out, 7);
            put_u32(out, bs.len() as u32);
            bs.iter().for_each(|x| put_path_pattern(out, x));
        }
    }
}

fn put_graph_pattern(out: &mut Vec<u8>, gp: &GraphPattern) {
    put_u32(out, gp.paths.len() as u32);
    for pe in &gp.paths {
        put_opt(out, &pe.selector, put_selector);
        put_opt(out, &pe.restrictor, put_restrictor);
        put_opt(out, &pe.path_var, |o, v| put_str(o, v));
        put_path_pattern(out, &pe.pattern);
    }
    put_opt(out, &gp.where_clause, put_expr);
}

// ---- reader -------------------------------------------------------------

type DecodeResult<T> = std::result::Result<T, PlanDecodeError>;

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(PlanDecodeError::Malformed("truncated payload"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> DecodeResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(PlanDecodeError::Malformed("bad bool")),
        }
    }

    fn u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn i64(&mut self) -> DecodeResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn str(&mut self) -> DecodeResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PlanDecodeError::Malformed("invalid utf-8 string"))
    }

    fn opt<T>(
        &mut self,
        dec: impl FnOnce(&mut Self) -> DecodeResult<T>,
    ) -> DecodeResult<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(dec(self)?)),
            _ => Err(PlanDecodeError::Malformed("bad option tag")),
        }
    }

    fn value(&mut self) -> DecodeResult<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.bool()?),
            2 => Value::Int(self.i64()?),
            3 => Value::Float(f64::from_bits(self.u64()?)),
            4 => Value::Str(self.str()?),
            _ => return Err(PlanDecodeError::Malformed("bad value tag")),
        })
    }

    fn label(&mut self, depth: u32) -> DecodeResult<LabelExpr> {
        if depth > MAX_DECODE_DEPTH {
            return Err(PlanDecodeError::Malformed("nesting too deep"));
        }
        Ok(match self.u8()? {
            0 => LabelExpr::Wildcard,
            1 => LabelExpr::Label(self.str()?),
            2 => LabelExpr::Not(Box::new(self.label(depth + 1)?)),
            3 => LabelExpr::And(
                Box::new(self.label(depth + 1)?),
                Box::new(self.label(depth + 1)?),
            ),
            4 => LabelExpr::Or(
                Box::new(self.label(depth + 1)?),
                Box::new(self.label(depth + 1)?),
            ),
            _ => return Err(PlanDecodeError::Malformed("bad label tag")),
        })
    }

    fn strings(&mut self) -> DecodeResult<Vec<String>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(self.str()?);
        }
        Ok(out)
    }

    fn expr(&mut self, depth: u32) -> DecodeResult<Expr> {
        if depth > MAX_DECODE_DEPTH {
            return Err(PlanDecodeError::Malformed("nesting too deep"));
        }
        let d = depth + 1;
        Ok(match self.u8()? {
            0 => Expr::Literal(self.value()?),
            1 => Expr::Parameter(self.str()?),
            2 => Expr::Var(self.str()?),
            3 => Expr::Property(self.str()?, self.str()?),
            4 => Expr::Not(Box::new(self.expr(d)?)),
            5 => Expr::And(Box::new(self.expr(d)?), Box::new(self.expr(d)?)),
            6 => Expr::Or(Box::new(self.expr(d)?), Box::new(self.expr(d)?)),
            7 => {
                let op = match self.u8()? {
                    0 => CmpOp::Eq,
                    1 => CmpOp::Ne,
                    2 => CmpOp::Lt,
                    3 => CmpOp::Le,
                    4 => CmpOp::Gt,
                    5 => CmpOp::Ge,
                    _ => return Err(PlanDecodeError::Malformed("bad cmp op")),
                };
                Expr::Cmp(op, Box::new(self.expr(d)?), Box::new(self.expr(d)?))
            }
            8 => {
                let op = match self.u8()? {
                    0 => ArithOp::Add,
                    1 => ArithOp::Sub,
                    2 => ArithOp::Mul,
                    3 => ArithOp::Div,
                    _ => return Err(PlanDecodeError::Malformed("bad arith op")),
                };
                Expr::Arith(op, Box::new(self.expr(d)?), Box::new(self.expr(d)?))
            }
            9 => Expr::IsNull(Box::new(self.expr(d)?), self.bool()?),
            10 => Expr::IsDirected(self.str()?),
            11 => Expr::IsSourceOf {
                node: self.str()?,
                edge: self.str()?,
            },
            12 => Expr::IsDestinationOf {
                node: self.str()?,
                edge: self.str()?,
            },
            13 => Expr::Same(self.strings()?),
            14 => Expr::AllDifferent(self.strings()?),
            15 => {
                let func = match self.u8()? {
                    0 => AggFunc::Count,
                    1 => AggFunc::Sum,
                    2 => AggFunc::Avg,
                    3 => AggFunc::Min,
                    4 => AggFunc::Max,
                    _ => return Err(PlanDecodeError::Malformed("bad aggregate func")),
                };
                let arg = match self.u8()? {
                    0 => AggArg::Var(self.str()?),
                    1 => AggArg::VarStar(self.str()?),
                    2 => AggArg::Property(self.str()?, self.str()?),
                    _ => return Err(PlanDecodeError::Malformed("bad aggregate arg")),
                };
                Expr::Aggregate {
                    func,
                    arg,
                    distinct: self.bool()?,
                }
            }
            16 => Expr::Exists(Box::new(self.graph_pattern(d)?)),
            _ => return Err(PlanDecodeError::Malformed("bad expr tag")),
        })
    }

    fn restrictor(&mut self) -> DecodeResult<Restrictor> {
        Ok(match self.u8()? {
            0 => Restrictor::Trail,
            1 => Restrictor::Acyclic,
            2 => Restrictor::Simple,
            _ => return Err(PlanDecodeError::Malformed("bad restrictor")),
        })
    }

    fn direction(&mut self) -> DecodeResult<Direction> {
        Ok(match self.u8()? {
            0 => Direction::Left,
            1 => Direction::Undirected,
            2 => Direction::Right,
            3 => Direction::LeftOrUndirected,
            4 => Direction::UndirectedOrRight,
            5 => Direction::LeftOrRight,
            6 => Direction::Any,
            _ => return Err(PlanDecodeError::Malformed("bad direction")),
        })
    }

    fn selector(&mut self) -> DecodeResult<Selector> {
        Ok(match self.u8()? {
            0 => Selector::AnyShortest,
            1 => Selector::AllShortest,
            2 => Selector::Any,
            3 => Selector::AnyK(self.u32()?),
            4 => Selector::ShortestK(self.u32()?),
            5 => Selector::ShortestKGroup(self.u32()?),
            6 => Selector::AnyCheapest {
                weight: self.str()?,
            },
            7 => Selector::CheapestK {
                k: self.u32()?,
                weight: self.str()?,
            },
            _ => return Err(PlanDecodeError::Malformed("bad selector")),
        })
    }

    fn node_pat(&mut self, depth: u32) -> DecodeResult<NodePattern> {
        Ok(NodePattern {
            var: self.opt(|r| r.str())?,
            label: self.opt(|r| r.label(depth))?,
            predicate: self.opt(|r| r.expr(depth))?,
        })
    }

    fn edge_pat(&mut self, depth: u32) -> DecodeResult<EdgePattern> {
        Ok(EdgePattern {
            var: self.opt(|r| r.str())?,
            label: self.opt(|r| r.label(depth))?,
            predicate: self.opt(|r| r.expr(depth))?,
            direction: self.direction()?,
        })
    }

    fn path_pattern(&mut self, depth: u32) -> DecodeResult<PathPattern> {
        if depth > MAX_DECODE_DEPTH {
            return Err(PlanDecodeError::Malformed("nesting too deep"));
        }
        let d = depth + 1;
        Ok(match self.u8()? {
            0 => PathPattern::Node(self.node_pat(d)?),
            1 => PathPattern::Edge(self.edge_pat(d)?),
            2 => {
                let n = self.u32()? as usize;
                let mut parts = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    parts.push(self.path_pattern(d)?);
                }
                PathPattern::Concat(parts)
            }
            3 => PathPattern::Paren {
                restrictor: self.opt(|r| r.restrictor())?,
                inner: Box::new(self.path_pattern(d)?),
                predicate: self.opt(|r| r.expr(d))?,
            },
            4 => PathPattern::Quantified {
                inner: Box::new(self.path_pattern(d)?),
                quantifier: Quantifier {
                    min: self.u32()?,
                    max: self.opt(|r| r.u32())?,
                },
            },
            5 => PathPattern::Questioned(Box::new(self.path_pattern(d)?)),
            6 => {
                let n = self.u32()? as usize;
                let mut bs = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    bs.push(self.path_pattern(d)?);
                }
                PathPattern::Union(bs)
            }
            7 => {
                let n = self.u32()? as usize;
                let mut bs = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    bs.push(self.path_pattern(d)?);
                }
                PathPattern::Alternation(bs)
            }
            _ => return Err(PlanDecodeError::Malformed("bad path-pattern tag")),
        })
    }

    fn graph_pattern(&mut self, depth: u32) -> DecodeResult<GraphPattern> {
        if depth > MAX_DECODE_DEPTH {
            return Err(PlanDecodeError::Malformed("nesting too deep"));
        }
        let d = depth + 1;
        let n = self.u32()? as usize;
        let mut paths = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            paths.push(PathPatternExpr {
                selector: self.opt(|r| r.selector())?,
                restrictor: self.opt(|r| r.restrictor())?,
                path_var: self.opt(|r| r.str())?,
                pattern: self.path_pattern(d)?,
            });
        }
        Ok(GraphPattern {
            paths,
            where_clause: self.opt(|r| r.expr(d))?,
        })
    }
}

impl FlatProgram {
    /// Serializes the program into the versioned, checksummed binary
    /// format described in the module docs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(64 + self.instrs.len() * 10);
        put_u32(&mut payload, self.start);
        put_u32(&mut payload, self.accept);
        put_u32(&mut payload, self.instrs.len() as u32);
        for ins in &self.instrs {
            put_u8(&mut payload, ins.op as u8);
            put_bool(&mut payload, ins.last);
            put_u32(&mut payload, ins.arg);
            put_u32(&mut payload, ins.target);
        }
        put_u32(&mut payload, self.node_pats.len() as u32);
        for np in &self.node_pats {
            put_node_pat(&mut payload, np);
        }
        put_u32(&mut payload, self.edge_pats.len() as u32);
        for ep in &self.edge_pats {
            put_edge_pat(&mut payload, ep);
        }
        put_u32(&mut payload, self.quants.len() as u32);
        for q in &self.quants {
            put_u32(&mut payload, q.min);
            put_opt(&mut payload, &q.max, |o, m| put_u32(o, *m));
            put_bool(&mut payload, q.expose_conditional);
            put_u32(&mut payload, q.body_vars.len() as u32);
            for (v, is_edge) in &q.body_vars {
                put_str(&mut payload, v);
                put_bool(&mut payload, *is_edge);
            }
        }
        put_u32(&mut payload, self.parens.len() as u32);
        for p in &self.parens {
            put_opt(&mut payload, &p.restrictor, put_restrictor);
            put_opt(&mut payload, &p.predicate, put_expr);
        }

        let mut out = Vec::with_capacity(16 + payload.len());
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, PLAN_FORMAT_VERSION);
        put_u64(&mut out, fnv1a(&payload));
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes a buffer produced by [`FlatProgram::to_bytes`], verifying
    /// magic, version, checksum, and every instruction's operand and
    /// target bounds. Round-tripping is structural equality, and a
    /// decoded program executes identically to the original.
    pub fn from_bytes(bytes: &[u8]) -> DecodeResult<FlatProgram> {
        if bytes.len() < 16 {
            return Err(if bytes.len() < 4 || &bytes[..4] != MAGIC {
                PlanDecodeError::BadMagic
            } else {
                PlanDecodeError::Malformed("truncated header")
            });
        }
        if &bytes[..4] != MAGIC {
            return Err(PlanDecodeError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4"));
        if version != PLAN_FORMAT_VERSION {
            return Err(PlanDecodeError::WrongVersion(version));
        }
        let checksum = u64::from_le_bytes(bytes[8..16].try_into().expect("8"));
        let payload = &bytes[16..];
        if fnv1a(payload) != checksum {
            return Err(PlanDecodeError::BadChecksum);
        }

        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        let start = r.u32()?;
        let accept = r.u32()?;
        let n_instrs = r.u32()? as usize;
        let mut instrs = Vec::with_capacity(n_instrs.min(1 << 16));
        for _ in 0..n_instrs {
            let op = Op::from_u8(r.u8()?).ok_or(PlanDecodeError::Malformed("bad opcode"))?;
            instrs.push(Instr {
                op,
                last: r.bool()?,
                arg: r.u32()?,
                target: r.u32()?,
            });
        }
        let n = r.u32()? as usize;
        let mut node_pats = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            node_pats.push(r.node_pat(0)?);
        }
        let n = r.u32()? as usize;
        let mut edge_pats = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            edge_pats.push(r.edge_pat(0)?);
        }
        let n = r.u32()? as usize;
        let mut quants = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let min = r.u32()?;
            let max = r.opt(|x| x.u32())?;
            let expose_conditional = r.bool()?;
            let nb = r.u32()? as usize;
            let mut body_vars = Vec::with_capacity(nb.min(1024));
            for _ in 0..nb {
                body_vars.push((r.str()?, r.bool()?));
            }
            quants.push(QuantMeta {
                min,
                max,
                expose_conditional,
                body_vars,
            });
        }
        let n = r.u32()? as usize;
        let mut parens = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            parens.push(ParenMeta {
                restrictor: r.opt(|x| x.restrictor())?,
                predicate: r.opt(|x| x.expr(0))?,
            });
        }
        if r.pos != r.buf.len() {
            return Err(PlanDecodeError::Malformed("trailing bytes"));
        }

        // Structural validation: the interpreter indexes instrs and the
        // operand tables unchecked in its hot loop, so reject anything
        // out of bounds (or an unterminated final block) here.
        let len = instrs.len() as u32;
        if len == 0 {
            return Err(PlanDecodeError::Malformed("empty program"));
        }
        if !instrs[len as usize - 1].last {
            return Err(PlanDecodeError::Malformed("unterminated final block"));
        }
        if start >= len || accept >= len {
            return Err(PlanDecodeError::Malformed("entry point out of bounds"));
        }
        for ins in &instrs {
            if ins.target >= len {
                return Err(PlanDecodeError::Malformed("jump target out of bounds"));
            }
            let table_len = match ins.op {
                Op::NodeTest => node_pats.len(),
                Op::Consume => edge_pats.len(),
                Op::OpenParen | Op::CloseParen => parens.len(),
                Op::EnterQuant | Op::IterStart | Op::IterEnd | Op::ExitQuant => quants.len(),
                Op::Jump | Op::AltMark | Op::Halt => usize::MAX,
            };
            if table_len != usize::MAX && ins.arg as usize >= table_len {
                return Err(PlanDecodeError::Malformed("operand index out of bounds"));
            }
        }
        Ok(FlatProgram {
            instrs,
            start,
            accept,
            node_pats,
            edge_pats,
            quants,
            parens,
        })
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
    while trail.len() > mark {
        match trail.pop().expect("trail is longer than mark") {
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
                let l = work.loops.last_mut().expect("loop for undo");
                l.count = count;
                l.stalled = stalled;
            }
            Undo::FramePushed => {
                work.frames.pop();
            }
            Undo::FramePopped(f) => work.frames.push(f),
            Undo::Inserted { var, global } => {
                let target = if global {
                    &mut work.globals
                } else {
                    &mut work.frames.last_mut().expect("frame for undo").locals
                };
                target.remove(&var);
            }
            Undo::Extended {
                var,
                global,
                old_len,
            } => {
                let target = if global {
                    &mut work.globals
                } else {
                    &mut work.frames.last_mut().expect("frame for undo").locals
                };
                match target.get_mut(&var) {
                    Some(BoundValue::NodeGroup(g)) => g.truncate(old_len),
                    Some(BoundValue::EdgeGroup(g)) => g.truncate(old_len),
                    _ => {}
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The interpreter
// ---------------------------------------------------------------------------

/// The flat-program interpreter: the one executor of path stages. Step
/// and accept decisions come from [`nfa::try_step`] and
/// [`nfa::finalize`]; the ε-closure and frontier are its own.
pub(crate) struct FlatMatcher<'a> {
    graph: &'a PropertyGraph,
    prog: &'a FlatProgram,
    opts: &'a EvalOptions,
    params: &'a Params,
    path_restrictor: Option<Restrictor>,
    prune: PruneMode,
    max_edges: usize,
    filters: Option<&'a SemiJoinFilters>,
    interner: KeyInterner,
    nodes_expanded: Cell<u64>,
    edges_traversed: Cell<u64>,
    rows_pruned: Cell<u64>,
    instrs_dispatched: Cell<u64>,
    backtrack_truncations: Cell<u64>,
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
        let static_cap = nfa::static_edge_bound(pattern, graph, path_restrictor);
        let max_edges = static_cap.min(opts.max_path_length);
        FlatMatcher {
            graph,
            prog,
            opts,
            params,
            path_restrictor,
            prune,
            max_edges,
            filters: None,
            interner: KeyInterner::new(),
            nodes_expanded: Cell::new(0),
            edges_traversed: Cell::new(0),
            rows_pruned: Cell::new(0),
            instrs_dispatched: Cell::new(0),
            backtrack_truncations: Cell::new(0),
        }
    }

    /// Installs semi-join endpoint filters for this search. Filtering only
    /// ever removes bindings the cross-stage join would reject, so — for
    /// the stages the executor deems eligible — results are unchanged.
    pub(crate) fn with_filters(mut self, filters: &'a SemiJoinFilters) -> FlatMatcher<'a> {
        self.filters = Some(filters);
        self
    }

    /// Adds this interpreter's search tallies into `counters` and resets
    /// them.
    pub(crate) fn flush_counters(&self, counters: &StageCounters) {
        counters.add(
            self.nodes_expanded.take(),
            self.edges_traversed.take(),
            self.rows_pruned.take(),
            self.instrs_dispatched.take(),
            self.backtrack_truncations.take(),
        );
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
            self.nodes_expanded.set(self.nodes_expanded.get() + 1);
            if state.path.len() >= self.max_edges {
                continue;
            }
            // Linear scan of the state's block for its Consume entries —
            // the flat replacement for the per-state edge vector.
            let mut pc = state.at;
            loop {
                let ins = self.prog.instrs[pc];
                if ins.op == Op::Consume {
                    let ep = &self.prog.edge_pats[ins.arg as usize];
                    let cur = state.current();
                    for step in self.graph.steps(cur) {
                        self.edges_traversed.set(self.edges_traversed.get() + 1);
                        if let Some(next) = nfa::try_step(
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
                self.backtrack_truncations
                    .set(self.backtrack_truncations.get() + 1);
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
            if let Some(b) = nfa::finalize(self.graph, self.params, work) {
                results.push(b);
            }
        }
        let mut pc = work.at;
        let mut has_consume = false;
        loop {
            let ins = self.prog.instrs[pc];
            self.instrs_dispatched.set(self.instrs_dispatched.get() + 1);
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
                if let Some(l) = &np.label {
                    if !l.matches(&self.graph.node(n).labels) {
                        return false;
                    }
                }
                if let Some(v) = &np.var {
                    // The semi-join endpoint check: a node outside the
                    // accumulated key set can never survive the join.
                    if let Some(allowed) = self.filters.and_then(|f| f.get(v)) {
                        if !allowed.contains(&n) {
                            self.rows_pruned.set(self.rows_pruned.get() + 1);
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
                if work.scopes.last().is_some_and(|s| s.paren == arg) {
                    let scope = work.scopes.pop().expect("just checked");
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
                    let (effect, ok) = nfa::merge_binding(work, &var, val, q.expose_conditional);
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
        let ok = nfa::check_prefilter(self.graph, self.params, work, pred);
        if work.deferred.len() > before {
            trail.push(Undo::Deferred);
        }
        ok
    }

    /// Frontier admission: dominance pruning (see [`nfa`]'s module docs)
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
    /// and the walk body (see [`nfa`]'s module docs).
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
    use crate::eval::nfa::compile;
    use crate::normalize::normalize;

    fn program_for(pattern: PathPattern) -> FlatProgram {
        let normalized = normalize(&GraphPattern::single(pattern));
        FlatProgram::from_nfa(&compile(&normalized.paths[0].pattern))
    }

    fn sample_pattern() -> PathPattern {
        // (x:Account WHERE x.owner = 'Ada') (-[t:Transfer]-> (y)){1,3}
        PathPattern::Concat(vec![
            PathPattern::Node(
                NodePattern::var("x")
                    .with_label(LabelExpr::label("Account"))
                    .with_predicate(Expr::prop("x", "owner").eq(Expr::lit("Ada"))),
            ),
            PathPattern::Quantified {
                inner: Box::new(PathPattern::Concat(vec![
                    PathPattern::Edge(
                        EdgePattern::any(Direction::Right)
                            .with_var("t")
                            .with_label(LabelExpr::label("Transfer")),
                    ),
                    PathPattern::Node(NodePattern::var("y")),
                ])),
                quantifier: Quantifier {
                    min: 1,
                    max: Some(3),
                },
            },
        ])
    }

    #[test]
    fn lowering_emits_one_block_per_state() {
        let prog = program_for(sample_pattern());
        assert!(prog.instr_count() > 0);
        // Every block is terminated and every target is a valid pc.
        assert!(prog.instrs.last().expect("non-empty").last);
        for ins in &prog.instrs {
            assert!((ins.target as usize) < prog.instrs.len());
        }
    }

    #[test]
    fn round_trip_is_structural_equality() {
        let prog = program_for(sample_pattern());
        let bytes = prog.to_bytes();
        assert_eq!(bytes.len(), prog.encoded_len());
        let back = FlatProgram::from_bytes(&bytes).expect("round trip");
        assert_eq!(prog, back);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = program_for(sample_pattern()).to_bytes();
        bytes[0] = b'X';
        assert_eq!(
            FlatProgram::from_bytes(&bytes),
            Err(PlanDecodeError::BadMagic)
        );
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = program_for(sample_pattern()).to_bytes();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            FlatProgram::from_bytes(&bytes),
            Err(PlanDecodeError::WrongVersion(99))
        );
    }

    #[test]
    fn corruption_is_rejected_by_checksum() {
        let mut bytes = program_for(sample_pattern()).to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert_eq!(
            FlatProgram::from_bytes(&bytes),
            Err(PlanDecodeError::BadChecksum)
        );
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = program_for(sample_pattern()).to_bytes();
        for cut in [0, 3, 8, 15, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                FlatProgram::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn disassembly_names_opcodes_and_tests() {
        let prog = program_for(sample_pattern());
        let dis = prog.to_string();
        assert!(dis.contains("ntest"), "disassembly: {dis}");
        assert!(dis.contains("step"), "disassembly: {dis}");
        assert!(dis.contains("Transfer"), "disassembly: {dis}");
    }
}
