//! The shortest-path kernel: a second executor over a stage's
//! [`FlatProgram`] for `ANY` / `ANY SHORTEST` stages.
//!
//! Both selectors keep, per `(start, end)` partition, the one walk that
//! sorts first by length and then by [`PathBinding`] (see
//! [`super::selector`]). The interpreter finds it by listing every
//! shortest walk as a full run state and letting the selector throw all
//! but one away. The kernel picks it during the search instead: one
//! layered breadth-first search per start node over *product states*
//! `(consume pc, node, capped loop count)`, where the first arrival at a
//! state is the canonical one and the first arrival at the accept state
//! for a node is the partition's answer.
//!
//! # Eligibility
//!
//! [`KernelPlan::for_stage`] decides at prepare time, from the stage's
//! pattern alone, whether the canonical walk is determined by product
//! states. All of these must hold:
//!
//! * the selector is `ANY` or `ANY SHORTEST` and no restrictor appears
//!   anywhere (no live scope, no parenthesized `WHERE`);
//! * there is no `|`, `|+|` or `?`, and at most one quantifier, whose body
//!   is a plain sequence consuming at least one edge;
//! * each named variable occurs once, and named singletons outside the
//!   quantifier sit only on the first or last node pattern;
//! * each predicate reads only its own element, the start variable and
//!   `$params`, so no prefilter is ever deferred.
//!
//! Then the walk fixes every binding: each segment consumes a fixed number
//! of edges, so group variables are rebuilt by position from the chosen
//! walk, and the future of a search branch depends only on its product
//! state.
//!
//! # Walk order
//!
//! [`Path`] orders by its node sequence first and its edge sequence second.
//! Every state in a BFS layer carries `nrank`, the dense rank of its
//! walk's node sequence among the layer's walks. A step from parent `p`
//! over edge `e` to node `n` sorts by `(nrank(p), n, e)`, and candidates
//! are admitted in that order, so the first arrival at each product state
//! carries the smallest shortest walk that reaches it.
//!
//! The edge sequence needs no rank of its own: in an eligible stage it
//! never decides an admission or an accept. Two states of one layer that
//! share a node sequence share their last node, so they sit in different
//! `(pc, count)` planes (one plane admits a node once). The prefix, the
//! body and the suffix each consume a fixed number of edges, so a layer's
//! length fixes which `Consume` each plane's closure reaches, and at what
//! count, and which one reaches the accept state: two such planes never
//! feed one arrival plane or one accept plane. Only steps out of one
//! parent compete there, and `e` orders those. Widening eligibility to
//! `|`, `?` or several quantifiers breaks this argument; such a change
//! must bring back an edge-sequence tie-break, with a test that fails
//! without it.
//!
//! # Closures as arc tables
//!
//! A closure's outcome depends only on the program, its entry PC and the
//! arriving loop count, never on the graph. So [`KernelPlan::for_stage`]
//! walks the ε-instructions once per entry, at prepare, and stores one
//! [`ClosureArc`] per `Consume` or accept reached, in the order the walk
//! reaches them; at run time a closure is a loop over its entry's arcs,
//! and admissions into the next layer keep the walk's order.

use std::collections::BTreeMap;

use property_graph::{EdgeId, NodeId, Path, PropertyGraph, Step};

use crate::ast::{EdgePattern, Expr, NodePattern, PathPattern, PathPatternExpr, Selector};
use crate::binding::{BoundValue, PathBinding};
use crate::error::{Error, Result};
use crate::eval::flat::{static_edge_bound, FlatProgram, Op};
use crate::eval::labels::{EdgeScan, ProgramLabels};
use crate::eval::{filter, EvalOptions, Tally};
use crate::normalize::is_anonymous;
use crate::params::Params;

// ---------------------------------------------------------------------------
// Eligibility and the prepare-time plan
// ---------------------------------------------------------------------------

/// One node or edge pattern of a kernel-eligible pattern, in walk order.
#[derive(Clone, Debug)]
struct Elem {
    edge: bool,
    /// The named (non-anonymous) variable it binds, if any.
    var: Option<String>,
}

/// What the kernel needs beyond the stage's program: the pattern's shape
/// (to rebuild bindings from a walk) and the product-state slot of every
/// program counter that names one.
#[derive(Clone, Debug)]
pub(crate) struct KernelPlan {
    /// Elements before the quantifier (all of them when there is none).
    prefix: Vec<Elem>,
    /// The quantifier body; empty when the pattern has no quantifier.
    body: Vec<Elem>,
    /// Elements after the quantifier.
    suffix: Vec<Elem>,
    /// Edges the prefix and suffix consume together.
    fixed_edges: usize,
    /// Edges one body iteration consumes (≥ 1 when there is a body).
    body_edges: usize,
    /// The first node pattern's variable, which any predicate may read.
    start_var: Option<String>,
    /// Per PC: the visited-slot base of a `Consume` (its state at `base`,
    /// its arrivals at `base + 1`) or of the accept state; `u32::MAX`
    /// elsewhere.
    slot: Vec<u32>,
    /// Number of visited slots per loop count.
    slots: usize,
    /// The loop-count cap (as in the interpreter's dominance key: the
    /// quantifier's `max` when bounded, its `min` otherwise).
    cap: u32,
    /// Per PC: the range of [`Self::arcs`] holding the closure that
    /// starts there (the program's start and each `Consume` target);
    /// empty elsewhere.
    closures: Vec<(u32, u32)>,
    /// Every closure's arcs, grouped by entry, each group in the order
    /// the closure reaches them.
    arcs: Vec<ClosureArc>,
}

/// One ε-path of a closure: from the closure's entry, through
/// ε-instructions only, to a `Consume` or the accept state. It is taken
/// when the arriving loop count lies in `lo..=hi` and the arrival node
/// passes every guard, and it leaves the count set by `update`.
#[derive(Clone, Debug)]
struct ClosureArc {
    /// The `Consume` PC or the accept PC the path ends at; while the
    /// table is built, the PC the walk has reached.
    to: u32,
    /// The node patterns the path tests, in path order; a pattern with
    /// no label and no predicate holds on every node and is left out.
    guards: Vec<u32>,
    lo: u32,
    hi: u32,
    update: CountUpdate,
}

/// How an arc sets the loop count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CountUpdate {
    /// The arriving count plus `k`, capped at [`KernelPlan::cap`].
    Add(u32),
    /// `k` (already capped), whatever the count was.
    Reset(u32),
}

impl CountUpdate {
    fn apply(self, count: u32, cap: u32) -> u32 {
        match self {
            CountUpdate::Add(k) => count.saturating_add(k).min(cap),
            CountUpdate::Reset(k) => k,
        }
    }
}

impl ClosureArc {
    /// Keeps the arriving counts whose updated count `v` satisfies
    /// `v < bound` (`below`) or `v >= bound` (otherwise); `None` when
    /// none is left. The updated count `min(c + k, cap)` grows with `c`,
    /// so the counts kept are again an interval.
    fn constrain(mut self, below: bool, bound: u32, cap: u32) -> Option<ClosureArc> {
        match self.update {
            CountUpdate::Reset(v) => return (below == (v < bound)).then_some(self),
            // A capped count never reaches `bound`.
            CountUpdate::Add(_) if below && cap < bound => {}
            CountUpdate::Add(k) if below => self.hi = self.hi.min(bound.checked_sub(k + 1)?),
            CountUpdate::Add(_) if cap < bound => return None,
            CountUpdate::Add(k) => self.lo = self.lo.max(bound.saturating_sub(k)),
        }
        (self.lo <= self.hi).then_some(self)
    }
}

/// Appends to `arcs` the closure from `entry`: it walks the ε-instructions
/// with the same stack discipline as a run-time walk would, so the arcs
/// come out in the order such a walk reaches their ends, and for any one
/// arriving count the arcs it admits are exactly the paths that walk
/// takes. Eligible programs have no ε-cycle (every loop through the
/// quantifier body consumes an edge), so the walk ends.
fn closure_arcs(
    prog: &FlatProgram,
    entry: u32,
    (min, max, cap): (u32, Option<u32>, u32),
    arcs: &mut Vec<ClosureArc>,
) {
    let mut stack = vec![ClosureArc {
        to: entry,
        guards: Vec::new(),
        lo: 0,
        hi: u32::MAX,
        update: CountUpdate::Add(0),
    }];
    while let Some(w) = stack.pop() {
        if w.to == prog.accept {
            arcs.push(w.clone());
        }
        let mut p = w.to as usize;
        loop {
            let ins = prog.instrs[p];
            let mut next = ClosureArc {
                to: ins.target,
                ..w.clone()
            };
            let next = match ins.op {
                Op::Consume => {
                    next.to = p as u32;
                    arcs.push(next);
                    None
                }
                Op::Halt => None,
                Op::Jump | Op::AltMark | Op::OpenParen | Op::CloseParen => Some(next),
                Op::NodeTest => {
                    let np = &prog.node_pats[ins.arg as usize];
                    if np.label.is_some() || np.predicate.is_some() {
                        next.guards.push(ins.arg);
                    }
                    Some(next)
                }
                Op::EnterQuant => {
                    next.update = CountUpdate::Reset(0);
                    Some(next)
                }
                Op::IterStart => match max {
                    Some(m) => next.constrain(true, m, cap),
                    None => Some(next),
                },
                Op::IterEnd => {
                    next.update = match w.update {
                        CountUpdate::Add(k) => CountUpdate::Add(k + 1),
                        CountUpdate::Reset(v) => CountUpdate::Reset((v + 1).min(cap)),
                    };
                    Some(next)
                }
                Op::ExitQuant => next.constrain(false, min, cap).map(|mut n| {
                    n.update = CountUpdate::Reset(0);
                    n
                }),
            };
            stack.extend(next);
            if ins.last {
                break;
            }
            p += 1;
        }
    }
}

/// A flattened top-level part of an eligible pattern.
enum Part<'p> {
    Node(&'p NodePattern),
    Edge(&'p EdgePattern),
    Quant(&'p PathPattern, crate::ast::Quantifier),
}

/// Flattens concatenations and plain parentheses; `None` for any
/// construct the kernel does not take (restrictor or `WHERE` parens,
/// unions, alternations, `?`).
fn flatten<'p>(p: &'p PathPattern, out: &mut Vec<Part<'p>>) -> Option<()> {
    let mut eligible = true;
    p.walk(&mut |p| {
        match p {
            PathPattern::Node(n) => out.push(Part::Node(n)),
            PathPattern::Edge(e) => out.push(Part::Edge(e)),
            PathPattern::Concat(_)
            | PathPattern::Paren {
                restrictor: None,
                predicate: None,
                ..
            } => {}
            PathPattern::Quantified { inner, quantifier } => {
                out.push(Part::Quant(inner, *quantifier));
                return false;
            }
            PathPattern::Paren { .. }
            | PathPattern::Questioned(_)
            | PathPattern::Union(_)
            | PathPattern::Alternation(_) => eligible = false,
        }
        eligible
    });
    eligible.then_some(())
}

/// The element list of flattened parts with no quantifier among them,
/// or `None` when a predicate reads anything but its own element, the
/// start variable `start` and parameters (it could be deferred).
fn elems(parts: &[Part<'_>], start: Option<&str>) -> Option<Vec<Elem>> {
    parts
        .iter()
        .map(|p| {
            let (edge, var, pred) = match p {
                Part::Node(n) => (false, &n.var, &n.predicate),
                Part::Edge(e) => (true, &e.var, &e.predicate),
                Part::Quant(..) => return None,
            };
            if let Some(pred) = pred {
                let mut ok = true;
                pred.visit_vars(&mut |v, aggregated| {
                    ok &= !aggregated && (Some(v) == var.as_deref() || Some(v) == start);
                });
                if !ok {
                    return None;
                }
            }
            let var = var.clone().filter(|v| !is_anonymous(v));
            Some(Elem { edge, var })
        })
        .collect()
}

impl KernelPlan {
    /// The kernel plan for a normalized stage, or `None` when the stage
    /// is not kernel-eligible (see the module docs) and stays on the
    /// interpreter. O(pattern + program); runs once, at prepare.
    pub(crate) fn for_stage(expr: &PathPatternExpr, prog: &FlatProgram) -> Option<KernelPlan> {
        if !matches!(expr.selector, Some(Selector::Any | Selector::AnyShortest))
            || expr.restrictor.is_some()
        {
            return None;
        }
        let mut parts = Vec::new();
        flatten(&expr.pattern, &mut parts)?;
        let start_var = match parts.first() {
            Some(Part::Node(n)) => n.var.clone(),
            _ => None,
        };
        let start = start_var.as_deref();
        let quant_at: Vec<usize> = (0..parts.len())
            .filter(|&i| matches!(parts[i], Part::Quant(..)))
            .collect();
        let (prefix, body, suffix, quantifier) = match quant_at[..] {
            [] => (elems(&parts, start)?, Vec::new(), Vec::new(), None),
            [q] => {
                let Part::Quant(inner, quantifier) = parts[q] else {
                    return None;
                };
                let mut inner_parts = Vec::new();
                flatten(inner, &mut inner_parts)?;
                (
                    elems(&parts[..q], start)?,
                    elems(&inner_parts, start)?,
                    elems(&parts[q + 1..], start)?,
                    Some(quantifier),
                )
            }
            _ => return None,
        };
        let count_edges = |es: &[Elem]| es.iter().filter(|e| e.edge).count();
        let body_edges = count_edges(&body);
        if quantifier.is_some() && body_edges == 0 {
            return None;
        }

        // Named singletons only on the first or last node pattern, and
        // each named variable once.
        let last = parts.len().saturating_sub(1);
        for (i, part) in parts.iter().enumerate() {
            let named = match part {
                Part::Node(n) if i != 0 && i != last => n.var.as_deref(),
                Part::Edge(e) => e.var.as_deref(),
                _ => None,
            };
            if named.is_some_and(|v| !is_anonymous(v)) {
                return None;
            }
        }
        let mut seen: Vec<&str> = prefix
            .iter()
            .chain(&body)
            .chain(&suffix)
            .filter_map(|e| e.var.as_deref())
            .collect();
        let named = seen.len();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != named {
            return None;
        }

        // Visited slots: two per `Consume` (its state, its arrivals), one
        // for the accept state.
        let mut slot = vec![u32::MAX; prog.instrs.len()];
        let mut slots = 0usize;
        for (pc, ins) in prog.instrs.iter().enumerate() {
            if ins.op == Op::Consume {
                slot[pc] = slots as u32;
                slots += 2;
            }
        }
        slot[prog.accept as usize] = slots as u32;
        slots += 1;

        // One closure per entry: the start and each `Consume` target.
        let (min, max) = quantifier.map_or((0, Some(0)), |q| (q.min, q.max));
        let cap = max.unwrap_or(min);
        let mut closures = vec![(0, 0); prog.instrs.len()];
        let mut arcs = Vec::new();
        let entries = prog.instrs.iter().filter(|i| i.op == Op::Consume);
        for entry in std::iter::once(prog.start).chain(entries.map(|i| i.target)) {
            let from = arcs.len() as u32;
            closure_arcs(prog, entry, (min, max, cap), &mut arcs);
            closures[entry as usize] = (from, arcs.len() as u32);
        }

        Some(KernelPlan {
            fixed_edges: count_edges(&prefix) + count_edges(&suffix),
            body_edges,
            prefix,
            body,
            suffix,
            start_var,
            slot,
            slots,
            cap,
            closures,
            arcs,
        })
    }

    /// The arcs of the closure that starts at `pc`.
    fn arcs_from(&self, pc: u32) -> &[ClosureArc] {
        let (from, to) = self.closures[pc as usize];
        &self.arcs[from as usize..to as usize]
    }

    /// The variable map the interpreter would build for `path`: prefix and
    /// suffix singletons by position, body variables as groups with one
    /// entry per iteration.
    fn bindings(&self, path: &Path) -> BTreeMap<String, BoundValue> {
        let (nodes, edges) = (path.nodes(), path.edges());
        let mut out = BTreeMap::new();
        let mut pos = 0usize;
        let single = |out: &mut BTreeMap<String, BoundValue>, el: &Elem, pos: &mut usize| {
            if let Some(v) = &el.var {
                let value = if el.edge {
                    BoundValue::Edge(edges[*pos])
                } else {
                    BoundValue::Node(nodes[*pos])
                };
                out.insert(v.clone(), value);
            }
            *pos += el.edge as usize;
        };
        for el in &self.prefix {
            single(&mut out, el, &mut pos);
        }
        let body_len = edges.len().saturating_sub(self.fixed_edges);
        if let Some(iterations) = body_len.checked_div(self.body_edges) {
            let mut groups: Vec<BoundValue> = self
                .body
                .iter()
                .map(|el| match el.edge {
                    true => BoundValue::EdgeGroup(Vec::with_capacity(iterations)),
                    false => BoundValue::NodeGroup(Vec::with_capacity(iterations)),
                })
                .collect();
            for _ in 0..iterations {
                for (el, group) in self.body.iter().zip(&mut groups) {
                    match group {
                        BoundValue::EdgeGroup(g) => g.push(edges[pos]),
                        BoundValue::NodeGroup(g) => g.push(nodes[pos]),
                        _ => {}
                    }
                    pos += el.edge as usize;
                }
            }
            for (el, group) in self.body.iter().zip(groups) {
                if let Some(v) = &el.var {
                    out.insert(v.clone(), group);
                }
            }
        }
        for el in &self.suffix {
            single(&mut out, el, &mut pos);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------------

/// No parent: the root link of a search.
const ROOT: u32 = u32::MAX;

/// One step of a walk in the per-start arena: the walk of a link is its
/// parent's walk extended by `edge` to `node`.
#[derive(Clone, Copy)]
struct Link {
    parent: u32,
    edge: EdgeId,
    node: NodeId,
}

/// A product state admitted to a BFS layer: the `Consume` at `pc`, the
/// node it stands on, the capped loop count, its walk (an arena link) and
/// the rank of that walk's node sequence among the layer's. An arrival —
/// the start of an ε-closure — has the same shape, with `pc` where the
/// closure starts.
#[derive(Clone, Copy)]
struct Entry {
    pc: u32,
    count: u32,
    node: NodeId,
    link: u32,
    nrank: u32,
}

/// One step out of a layer's state. Sorting candidates sorts the extended
/// walks by node sequence; `edge` orders parallel edges out of one
/// parent, and `from` only breaks the ties that never compete (see the
/// module docs).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Cand {
    nrank: u32,
    node: NodeId,
    edge: EdgeId,
    from: u32,
}

/// Dense visited marks, one plane of `|V|` generation stamps per
/// (slot, loop count), allocated on first touch. A new start bumps the
/// generation instead of clearing the planes.
struct Visited {
    generation: u32,
    nodes: usize,
    planes: Vec<Vec<u32>>,
}

impl Visited {
    fn contains(&self, plane: usize, n: NodeId) -> bool {
        self.planes
            .get(plane)
            .and_then(|p| p.get(n.index()))
            .is_some_and(|&s| s == self.generation)
    }

    /// Marks `n` in `plane`; false when it already was.
    fn insert(&mut self, plane: usize, n: NodeId) -> bool {
        if plane >= self.planes.len() {
            self.planes.resize_with(plane + 1, Vec::new);
        }
        let p = &mut self.planes[plane];
        if p.is_empty() {
            p.resize(self.nodes, 0);
        }
        let stamp = &mut p[n.index()];
        let fresh = *stamp != self.generation;
        *stamp = self.generation;
        fresh
    }

    fn next_generation(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.planes.iter_mut().for_each(|p| p.fill(0));
            self.generation = 1;
        }
    }
}

/// The per-run buffers, reused across start nodes.
struct Scratch {
    visited: Visited,
    arena: Vec<Link>,
    layer: Vec<Entry>,
    next: Vec<Entry>,
    cands: Vec<Cand>,
    /// The guards one closure has tested so far, with their outcomes.
    tested: Vec<(u32, bool)>,
}

/// The kernel executor for one stage search: see the module docs.
pub(crate) struct ShortestKernel<'a> {
    graph: &'a PropertyGraph,
    prog: &'a FlatProgram,
    plan: &'a KernelPlan,
    opts: &'a EvalOptions,
    params: &'a Params,
    max_edges: usize,
    /// The program's node and edge patterns resolved against `graph`.
    labels: ProgramLabels,
    /// This search's work, flushed by the executor once it returns.
    pub(crate) counts: Tally,
}

impl<'a> ShortestKernel<'a> {
    /// Builds the kernel over a stage's program and its kernel plan.
    /// `pattern` is the normalized pattern both came from, read only for
    /// the static edge bound.
    pub(crate) fn over(
        graph: &'a PropertyGraph,
        prog: &'a FlatProgram,
        plan: &'a KernelPlan,
        pattern: &PathPattern,
        opts: &'a EvalOptions,
        params: &'a Params,
    ) -> ShortestKernel<'a> {
        let static_cap = static_edge_bound(pattern, graph, None);
        ShortestKernel {
            graph,
            prog,
            plan,
            opts,
            params,
            max_edges: static_cap.min(opts.max_path_length),
            labels: ProgramLabels::resolve(prog, graph),
            counts: Tally::default(),
        }
    }

    /// The canonical walk of every partition starting in `starts`, one
    /// binding per reachable end node. Searches from different starts are
    /// independent, as in the interpreter, so partitions of a start set
    /// can run on different workers.
    pub(crate) fn run_from(&self, starts: &[NodeId]) -> Result<Vec<PathBinding>> {
        let mut s = Scratch {
            visited: Visited {
                generation: 0,
                nodes: self.graph.node_count(),
                planes: Vec::new(),
            },
            arena: Vec::new(),
            layer: Vec::new(),
            next: Vec::new(),
            cands: Vec::new(),
            tested: Vec::new(),
        };
        let mut results = Vec::new();
        for &start in starts {
            s.visited.next_generation();
            self.search(start, &mut s, &mut results)?;
            if results.len() > self.opts.max_matches {
                return Err(Error::LimitExceeded {
                    what: "matches",
                    limit: self.opts.max_matches,
                });
            }
        }
        Ok(results)
    }

    /// The visited plane of `slot` (a base from [`KernelPlan::slot`],
    /// plus 1 for arrivals) at loop count `count`.
    fn plane(&self, slot: u32, count: u32) -> usize {
        count as usize * self.plan.slots + slot as usize
    }

    /// One layered BFS from `start`.
    fn search(&self, start: NodeId, s: &mut Scratch, results: &mut Vec<PathBinding>) -> Result<()> {
        s.arena.clear();
        s.arena.push(Link {
            parent: ROOT,
            edge: EdgeId(0),
            node: start,
        });
        s.next.clear();
        let root = Entry {
            pc: self.prog.start,
            count: 0,
            node: start,
            link: 0,
            nrank: 0,
        };
        self.closure(root, start, s, results)?;
        std::mem::swap(&mut s.layer, &mut s.next);

        let mut depth = 0usize;
        while !s.layer.is_empty() && depth < self.max_edges {
            depth += 1;
            s.cands.clear();
            for (i, e) in s.layer.iter().enumerate() {
                self.counts.bump(|c| c.nodes_expanded += 1);
                let arg = self.prog.instrs[e.pc as usize].arg as usize;
                let (ep, scan) = (&self.prog.edge_pats[arg], &self.labels.edges[arg]);
                let arrivals = self.plane(self.plan.slot[e.pc as usize] + 1, e.count);
                for step in scan.steps(self.graph, e.node) {
                    self.counts.bump(|c| c.edges_traversed += 1);
                    if !s.visited.contains(arrivals, step.to) && self.edge_ok(ep, scan, step, start)
                    {
                        s.cands.push(Cand {
                            nrank: e.nrank,
                            node: step.to,
                            edge: step.edge,
                            from: i as u32,
                        });
                    }
                }
            }
            s.cands.sort_unstable();

            s.next.clear();
            let mut nrank = 0u32;
            let mut last_nkey = None;
            for ci in 0..s.cands.len() {
                let c = s.cands[ci];
                let parent = s.layer[c.from as usize];
                let arrivals = self.plane(self.plan.slot[parent.pc as usize] + 1, parent.count);
                if !s.visited.insert(arrivals, c.node) {
                    continue;
                }
                if last_nkey != Some((c.nrank, c.node)) {
                    nrank += 1;
                    last_nkey = Some((c.nrank, c.node));
                }
                let link = s.arena.len() as u32;
                s.arena.push(Link {
                    parent: parent.link,
                    edge: c.edge,
                    node: c.node,
                });
                let ins = self.prog.instrs[parent.pc as usize];
                let arrival = Entry {
                    pc: ins.target,
                    count: parent.count,
                    node: c.node,
                    link,
                    nrank,
                };
                self.closure(arrival, start, s, results)?;
            }
            std::mem::swap(&mut s.layer, &mut s.next);
        }
        Ok(())
    }

    /// The ε-closure of one arrival: takes each arc of the closure that
    /// starts at the arrival's PC whose count interval and guards admit
    /// it, in table order, testing each guard against the arrival node at
    /// most once. Every `Consume` reached admits a product state to the
    /// next layer unless an earlier arrival already did, and reaching the
    /// accept state for the first time records the walk.
    fn closure(
        &self,
        a: Entry,
        start: NodeId,
        s: &mut Scratch,
        results: &mut Vec<PathBinding>,
    ) -> Result<()> {
        let arcs = self.plan.arcs_from(a.pc);
        self.counts
            .bump(|c| c.instrs_dispatched += arcs.len() as u64);
        s.tested.clear();
        for arc in arcs {
            if a.count < arc.lo || a.count > arc.hi {
                continue;
            }
            let mut guards = arc.guards.iter();
            if !guards.all(|&g| self.guard(g, a.node, start, &mut s.tested)) {
                continue;
            }
            let count = arc.update.apply(a.count, self.plan.cap);
            let plane = self.plane(self.plan.slot[arc.to as usize], count);
            if !s.visited.insert(plane, a.node) {
                continue;
            }
            if arc.to == self.prog.accept {
                results.push(self.binding(&s.arena, a.link));
                continue;
            }
            if s.next.len() >= self.opts.max_frontier {
                return Err(Error::LimitExceeded {
                    what: "frontier states",
                    limit: self.opts.max_frontier,
                });
            }
            s.next.push(Entry {
                pc: arc.to,
                count,
                ..a
            });
        }
        Ok(())
    }

    /// Node pattern `g` against `n`, answered from `tested` when this
    /// closure has already tested it.
    fn guard(&self, g: u32, n: NodeId, start: NodeId, tested: &mut Vec<(u32, bool)>) -> bool {
        if let Some(&(_, ok)) = tested.iter().find(|t| t.0 == g) {
            return ok;
        }
        let ok = self.node_ok(g as usize, n, start);
        tested.push((g, ok));
        ok
    }

    /// Node pattern `arg` of the program against node `n`.
    fn node_ok(&self, arg: usize, n: NodeId, start: NodeId) -> bool {
        if !self.labels.nodes[arg].node(self.graph, n) {
            return false;
        }
        let np = &self.prog.node_pats[arg];
        match &np.predicate {
            Some(pred) => self.holds(pred, np.var.as_deref(), BoundValue::Node(n), start),
            None => true,
        }
    }

    /// Edge pattern `ep` against a step its scan read.
    fn edge_ok(&self, ep: &EdgePattern, scan: &EdgeScan, step: &Step, start: NodeId) -> bool {
        if !scan.admits(self.graph, step) {
            return false;
        }
        match &ep.predicate {
            Some(pred) => self.holds(pred, ep.var.as_deref(), BoundValue::Edge(step.edge), start),
            None => true,
        }
    }

    /// Whether `pred` holds of one element, bound to `own`, with the
    /// start variable bound to `start`: all an eligible predicate reads.
    fn holds(&self, pred: &Expr, own: Option<&str>, value: BoundValue, start: NodeId) -> bool {
        let start = (self.plan.start_var.as_deref(), BoundValue::Node(start));
        let vars = |v: &str| {
            if Some(v) == own {
                Some(&value)
            } else {
                (Some(v) == start.0).then_some(&start.1)
            }
        };
        filter::truth(self.graph, &filter::Scope::new(&vars, self.params), pred) == Some(true)
    }

    /// The binding of the walk ending in arena link `link`.
    fn binding(&self, arena: &[Link], link: u32) -> PathBinding {
        let mut nodes = Vec::new();
        let mut edges = Vec::new();
        let mut at = link;
        while let Some(l) = arena.get(at as usize) {
            nodes.push(l.node);
            if l.parent == ROOT {
                break;
            }
            edges.push(l.edge);
            at = l.parent;
        }
        nodes.reverse();
        edges.reverse();
        let path = Path::new(nodes, edges);
        PathBinding {
            bindings: self.plan.bindings(&path),
            path,
            alt_marks: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::ast::{CmpOp, Direction, GraphPattern, LabelExpr, Quantifier, Restrictor};
    use crate::normalize::normalize;
    use crate::plan::PathStage;
    use property_graph::{Endpoints, Value};

    fn node(v: Option<&str>) -> NodePattern {
        NodePattern {
            var: v.map(str::to_owned),
            ..NodePattern::any()
        }
    }

    fn edge(v: Option<&str>, d: Direction) -> EdgePattern {
        EdgePattern {
            var: v.map(str::to_owned),
            ..EdgePattern::any(d)
        }
    }

    fn seq(parts: Vec<PathPattern>) -> PathPattern {
        PathPattern::concat(parts)
    }

    fn n(p: NodePattern) -> PathPattern {
        PathPattern::Node(p)
    }

    fn e(p: EdgePattern) -> PathPattern {
        PathPattern::Edge(p)
    }

    /// `[ (x?) -[e?]- (y?) ... ]` as a quantified body.
    fn body(parts: Vec<PathPattern>, q: Quantifier) -> PathPattern {
        seq(parts).paren().quantified(q)
    }

    fn stage(selector: Selector, restrictor: Option<Restrictor>, p: PathPattern) -> PathStage {
        let gp = GraphPattern {
            paths: vec![PathPatternExpr {
                selector: Some(selector),
                restrictor,
                path_var: Some("p".into()),
                pattern: p,
            }],
            where_clause: None,
        };
        let normalized = normalize(&gp);
        analyze(&normalized).unwrap();
        PathStage::lower(&normalized.paths[0])
    }

    /// Every kernel-eligible shape the kernel must agree on: stars and
    /// pluses, bounded ranges, multi-edge bodies, every direction, prefix
    /// and suffix steps, predicates on the start variable and a parameter,
    /// a leading quantifier (no start variable) and no quantifier at all.
    fn eligible() -> Vec<(Selector, PathPattern)> {
        use Direction::*;
        let any = || n(node(None));
        let w_ge = |v: &str, rhs: Expr| Expr::cmp(CmpOp::Ge, Expr::prop(v, "w"), rhs);
        vec![
            (
                Selector::AnyShortest,
                seq(vec![
                    n(node(Some("a"))),
                    body(
                        vec![any(), e(edge(Some("t"), Right)), any()],
                        Quantifier::star(),
                    ),
                    n(node(Some("b"))),
                ]),
            ),
            (
                Selector::AnyShortest,
                seq(vec![
                    n(node(Some("a")).with_label(LabelExpr::label("A"))),
                    body(
                        vec![
                            any(),
                            e(edge(None, Right).with_label(LabelExpr::label("T"))),
                            any(),
                        ],
                        Quantifier::plus(),
                    ),
                    n(node(Some("b")).with_label(LabelExpr::label("B"))),
                ]),
            ),
            (
                Selector::Any,
                seq(vec![
                    n(node(Some("a"))),
                    body(
                        vec![
                            n(node(Some("x"))),
                            e(edge(Some("e"), Any)),
                            n(node(Some("y"))),
                        ],
                        Quantifier::range(1, Some(2)),
                    ),
                    n(node(Some("b"))),
                ]),
            ),
            (
                Selector::AnyShortest,
                seq(vec![
                    n(node(Some("a")).with_predicate(w_ge("a", Expr::lit(1)))),
                    body(
                        vec![
                            any(),
                            e(edge(Some("e"), UndirectedOrRight)
                                .with_predicate(w_ge("e", Expr::prop("a", "w")))),
                            any(),
                        ],
                        Quantifier::star(),
                    ),
                    n(node(Some("b"))),
                ]),
            ),
            (
                Selector::AnyShortest,
                seq(vec![
                    n(node(Some("a"))),
                    e(edge(None, Right).with_label(LabelExpr::label("T"))),
                    any(),
                    body(
                        vec![any(), e(edge(Some("t"), Undirected)), any()],
                        Quantifier::plus(),
                    ),
                    n(node(Some("b")).with_predicate(w_ge("b", Expr::Parameter("p".into())))),
                ]),
            ),
            (
                Selector::AnyShortest,
                seq(vec![
                    n(node(Some("a"))),
                    body(
                        vec![
                            any(),
                            e(edge(Some("e"), Right)),
                            n(node(Some("m"))),
                            e(edge(Some("f"), LeftOrRight)),
                            any(),
                        ],
                        Quantifier::star(),
                    ),
                    n(node(Some("b"))),
                ]),
            ),
            (
                Selector::Any,
                seq(vec![
                    n(node(Some("a"))),
                    body(
                        vec![any(), e(edge(None, Right)), any()],
                        Quantifier::range(2, Some(2)),
                    ),
                    e(edge(None, LeftOrUndirected)),
                    n(node(Some("b"))),
                ]),
            ),
            (
                Selector::AnyShortest,
                body(
                    vec![
                        n(node(Some("x"))),
                        e(edge(Some("e"), Left)),
                        n(node(Some("y"))),
                    ],
                    Quantifier::plus(),
                ),
            ),
            (
                Selector::AnyShortest,
                seq(vec![
                    n(node(Some("a"))),
                    body(
                        vec![any(), e(edge(None, UndirectedOrRight)), any()],
                        Quantifier::range(2, None),
                    ),
                ]),
            ),
            (
                Selector::Any,
                seq(vec![
                    n(node(Some("a"))),
                    e(edge(None, Any)),
                    n(node(Some("b"))),
                ]),
            ),
            (Selector::AnyShortest, n(node(Some("a")))),
        ]
    }

    /// Small seeded graphs with parallel edges, self-loops, both edge
    /// kinds and two labels of each sort.
    fn graph(seed: u64) -> PropertyGraph {
        let mut state = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut g = PropertyGraph::new();
        let count = 3 + next(4) as usize;
        let ids: Vec<NodeId> = (0..count)
            .map(|i| {
                let label = if next(2) == 0 { "A" } else { "B" };
                g.add_node(
                    &format!("n{i}"),
                    [label],
                    [("w", Value::Int(next(4) as i64))],
                )
            })
            .collect();
        let edges = 2 + next(2 * count as u64) as usize;
        for i in 0..edges {
            let u = ids[next(count as u64) as usize];
            // Every third edge repeats the previous endpoints (parallel
            // edges) and every fifth is a self-loop.
            let v = match i % 5 {
                4 => u,
                _ => ids[next(count as u64) as usize],
            };
            let ends = if next(3) == 0 {
                Endpoints::undirected(u, v)
            } else {
                Endpoints::directed(u, v)
            };
            let label = if next(2) == 0 { "T" } else { "U" };
            let w = Value::Int(next(4) as i64);
            g.add_edge(&format!("e{i}"), ends, [label], [("w", w.clone())]);
            if i % 3 == 0 {
                g.add_edge(&format!("e{i}b"), ends, [label], [("w", w)]);
            }
        }
        g
    }

    #[test]
    fn kernel_agrees_with_the_interpreter() {
        let opts = EvalOptions::default();
        let params = Params::new().with("p", 2);
        let mut compared = 0;
        for (i, (selector, pattern)) in eligible().into_iter().enumerate() {
            let stage = stage(selector, None, pattern);
            assert!(stage.kernel.is_some(), "pattern {i} is kernel-eligible");
            for seed in 0..60 {
                let g = graph(seed);
                let starts: Vec<NodeId> = g.nodes().collect();
                let run = |kernel: bool| {
                    let raw = if kernel {
                        stage.matches_from(&g, &opts, &params, &starts, None, None)
                    } else {
                        stage.interpret(&g, &opts, &params, &starts, None, None)
                    };
                    stage.finish_bindings(&g, &opts, raw.unwrap()).unwrap()
                };
                let want = run(false);
                assert_eq!(
                    run(true),
                    want,
                    "pattern {i}: {} on seed {seed}",
                    stage.expr
                );
                compared += want.len();
            }
        }
        assert!(compared > 1000, "only {compared} bindings compared");
    }

    #[test]
    fn kernel_yields_one_walk_per_partition() {
        // One raw binding per reached end node: the selector has nothing
        // left to drop.
        let (selector, pattern) = eligible().swap_remove(0);
        let stage = stage(selector, None, pattern);
        let opts = EvalOptions::default();
        for seed in 0..20 {
            let g = graph(seed);
            let starts: Vec<NodeId> = g.nodes().collect();
            let raw = stage
                .matches_from(&g, &opts, &Params::new(), &starts, None, None)
                .unwrap();
            let finished = stage.finish_bindings(&g, &opts, raw.clone()).unwrap();
            assert_eq!(raw.len(), finished.len(), "seed {seed}");
        }
    }

    /// The benchmark's `path_search` statement, with its parameter.
    fn path_search(q: Quantifier) -> PathStage {
        let account = || LabelExpr::label("Account");
        stage(
            Selector::AnyShortest,
            None,
            seq(vec![
                n(node(Some("x"))
                    .with_label(account())
                    .with_predicate(Expr::prop("x", "owner").eq(Expr::Parameter("owner".into())))),
                e(edge(None, Direction::Right).with_label(LabelExpr::label("Transfer")))
                    .quantified(q),
                n(node(Some("y"))
                    .with_label(account())
                    .with_predicate(Expr::prop("y", "isBlocked").eq(Expr::lit("yes")))),
            ]),
        )
    }

    /// One line per arc, closures in PC order and arcs in table order.
    fn arc_listing(stage: &PathStage) -> Vec<String> {
        let plan = stage.kernel.as_ref().expect("kernel-eligible");
        let mut out = Vec::new();
        for (pc, &(from, to)) in plan.closures.iter().enumerate() {
            for arc in &plan.arcs[from as usize..to as usize] {
                let dest = match arc.to == stage.prog.accept {
                    true => "accept".to_owned(),
                    false => format!("step {}", arc.to),
                };
                let guards: Vec<String> = arc.guards.iter().map(|g| format!("n{g}")).collect();
                let guards = match guards.is_empty() {
                    true => String::new(),
                    false => format!(" if {}", guards.join(" and ")),
                };
                let counts = match arc.hi {
                    u32::MAX => format!("{}..", arc.lo),
                    hi => format!("{}..={hi}", arc.lo),
                };
                let update = match arc.update {
                    CountUpdate::Add(k) => format!("count := min(count + {k}, {})", plan.cap),
                    CountUpdate::Reset(k) => format!("count := {k}"),
                };
                out.push(format!("{pc}: {dest}{guards}, counts {counts}, {update}"));
            }
        }
        out
    }

    #[test]
    fn path_search_arc_table_is_pinned() {
        // Program: 1 ntest n0 (x), 8 ntest n1 (□1), 10 step e0,
        // 12 ntest n2 (□2), 16 ntest n3 (y), 17 accept. The anonymous
        // node patterns hold everywhere and test nothing.
        let stage = path_search(Quantifier::plus());
        assert_eq!(stage.prog.instrs[10].op, Op::Consume);
        assert_eq!((stage.prog.start, stage.prog.accept), (0, 17));
        assert_eq!(
            arc_listing(&stage),
            [
                "0: step 10 if n0, counts 0.., count := 0",
                "11: accept if n3, counts 0.., count := 0",
                "11: step 10, counts 0.., count := min(count + 1, 1)",
            ]
        );
    }

    #[test]
    fn arc_tables_do_not_grow_with_the_bounds() {
        let small = arc_listing(&path_search(Quantifier::range(1, Some(3))));
        let large = arc_listing(&path_search(Quantifier::range(1, Some(100_000))));
        assert_eq!(small.len(), large.len(), "{small:?} vs {large:?}");
        assert_eq!(
            small[2],
            "11: step 10, counts 0..=1, count := min(count + 1, 3)"
        );
        assert_eq!(
            large[2],
            "11: step 10, counts 0..=99998, count := min(count + 1, 100000)"
        );
    }

    #[test]
    fn loop_counts_stay_within_the_cap() {
        // A directed 5-cycle under `{2,}`: loop counts cap at 2, so each
        // start has at most 1 `Consume` × 3 counts × 5 nodes product
        // states to expand, however long the walks grow.
        let mut g = PropertyGraph::new();
        let ids: Vec<NodeId> = (0..5)
            .map(|i| g.add_node(&format!("n{i}"), ["A"], []))
            .collect();
        for i in 0..5 {
            let ends = Endpoints::directed(ids[i], ids[(i + 1) % 5]);
            g.add_edge(&format!("e{i}"), ends, ["T"], []);
        }
        let pattern = seq(vec![
            n(node(Some("a"))),
            body(
                vec![
                    n(node(None)),
                    e(edge(None, Direction::Right)),
                    n(node(None)),
                ],
                Quantifier::range(2, None),
            ),
            n(node(Some("b"))),
        ]);
        let stage = stage(Selector::AnyShortest, None, pattern);
        let counters = crate::eval::StageCounters::default();
        let opts = EvalOptions::default();
        let raw = stage
            .matches_from(&g, &opts, &Params::new(), &ids, None, Some(&counters))
            .unwrap();
        assert_eq!(raw.len(), 25);
        assert!(
            counters.nodes_expanded() <= 5 * 15,
            "{:?}",
            counters.counts()
        );
    }

    #[test]
    fn ineligible_stages_stay_on_the_interpreter() {
        use Direction::Right;
        let star = |a: &str, t: Option<&str>, b: &str| {
            seq(vec![
                n(node(Some(a))),
                body(
                    vec![n(node(None)), e(edge(t, Right)), n(node(None))],
                    Quantifier::star(),
                ),
                n(node(Some(b))),
            ])
        };
        let cases = [
            (Selector::AllShortest, None, star("a", Some("t"), "b")),
            (Selector::ShortestK(2), None, star("a", Some("t"), "b")),
            (
                Selector::AnyShortest,
                Some(Restrictor::Trail),
                star("a", None, "b"),
            ),
            // A repeated variable is an equi-join.
            (Selector::AnyShortest, None, star("a", None, "a")),
            // A named singleton edge outside the quantifier.
            (
                Selector::Any,
                None,
                seq(vec![
                    n(node(Some("a"))),
                    e(edge(Some("e"), Right)),
                    n(node(Some("b"))),
                ]),
            ),
            // A predicate reading the end variable from the start.
            (
                Selector::AnyShortest,
                None,
                seq(vec![
                    n(node(Some("a"))
                        .with_predicate(Expr::prop("a", "w").eq(Expr::prop("b", "w")))),
                    body(
                        vec![n(node(None)), e(edge(None, Right)), n(node(None))],
                        Quantifier::star(),
                    ),
                    n(node(Some("b"))),
                ]),
            ),
            // Two quantifiers.
            (
                Selector::AnyShortest,
                None,
                seq(vec![
                    n(node(Some("a"))),
                    body(
                        vec![n(node(None)), e(edge(None, Right)), n(node(None))],
                        Quantifier::star(),
                    ),
                    body(
                        vec![n(node(None)), e(edge(None, Right)), n(node(None))],
                        Quantifier::star(),
                    ),
                    n(node(Some("b"))),
                ]),
            ),
            // A union.
            (
                Selector::Any,
                None,
                PathPattern::Union(vec![n(node(Some("a"))), n(node(Some("a")))]),
            ),
        ];
        for (i, (selector, restrictor, pattern)) in cases.into_iter().enumerate() {
            assert!(
                stage(selector, restrictor, pattern).kernel.is_none(),
                "case {i}"
            );
        }
    }
}
