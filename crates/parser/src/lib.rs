//! Parser for GPML concrete syntax (§4 of *Graph Pattern Matching in GQL
//! and SQL/PGQ*, SIGMOD 2022).
//!
//! The grammar mixes "ASCII-art" punctuation (`(x:Account)`, `-[t]->`,
//! `<~`, `|+|`) with SQL-style keywords (`MATCH`, `WHERE`, `ALL SHORTEST
//! TRAIL`), so the parser is scannerless: a recursive-descent walk over
//! the raw character stream with context-dependent tokenization. Pattern
//! context and expression context never conflict — `*` and `+` are
//! quantifiers after a pattern factor but arithmetic inside a `WHERE`.
//!
//! All seven edge orientations of Figure 5 are supported in both the full
//! bracketed form and the abbreviation, as are label expressions
//! (`& | ! % ()`), quantifiers (Figure 6, plus `?`), restrictors
//! (Figure 7), selectors (Figure 8), path variables, path-pattern union
//! `|` and multiset alternation `|+|`, and the paper's `5M`-style numeric
//! shorthand (K/M/B suffixes), so every query in the paper parses
//! verbatim.
//!
//! # Example
//!
//! ```
//! let q = "MATCH TRAIL (a WHERE a.owner='Dave')-[t:Transfer]->*
//!          (b WHERE b.owner='Aretha')";
//! let pattern = gpml_parser::parse(q).unwrap();
//! assert_eq!(pattern.paths.len(), 1);
//! assert!(pattern.paths[0].restrictor.is_some());
//! ```

use std::fmt;

use gpml_core::ast::{
    AggArg, AggFunc, ArithOp, CmpOp, Direction, EdgePattern, Expr, GraphPattern, LabelExpr,
    NodePattern, PathPattern, PathPatternExpr, Quantifier, Restrictor, Selector,
};
use gpml_core::plan::Projection;
use property_graph::Value;

/// A parse failure, with the byte offset where it happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub pos: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ParseError>;

/// Parses a complete `MATCH` statement (a graph pattern with an optional
/// final `WHERE`), requiring all input to be consumed.
pub fn parse(input: &str) -> Result<GraphPattern> {
    let mut p = Parser::new(input);
    p.expect_kw("MATCH")?;
    let g = p.parse_graph_pattern()?;
    p.expect_eof()?;
    Ok(g)
}

/// Parses a graph pattern without the leading `MATCH` keyword.
pub fn parse_pattern(input: &str) -> Result<GraphPattern> {
    let mut p = Parser::new(input);
    let g = p.parse_graph_pattern()?;
    p.expect_eof()?;
    Ok(g)
}

/// Parses a standalone scalar/boolean expression (used by hosts for
/// projection lists and by tests).
pub fn parse_expr(input: &str) -> Result<Expr> {
    let mut p = Parser::new(input);
    let e = p.parse_expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// The parser state. Hosts (GQL, SQL/PGQ) drive it directly so they can
/// continue with their own clauses (`RETURN`, `COLUMNS`, ...) after the
/// embedded graph pattern.
pub struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// A parser over `input`, positioned at the start.
    pub fn new(input: &'a str) -> Parser<'a> {
        Parser {
            src: input,
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    /// The unconsumed remainder of the input.
    pub fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(ParseError {
            pos: self.pos,
            message: message.into(),
        })
    }

    // -- Character-level helpers -------------------------------------------

    /// Skips whitespace.
    pub fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.bytes.get(self.pos + off).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s)
    }

    /// Consumes `s` if the input starts with it (after whitespace).
    pub fn eat(&mut self, s: &str) -> bool {
        self.skip_ws();
        if self.starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    /// Consumes `s` (after whitespace), or fails at the current position.
    pub fn expect(&mut self, s: &str) -> Result<()> {
        if self.eat(s) {
            Ok(())
        } else {
            self.err(format!("expected `{s}`"))
        }
    }

    /// True at end of input (after whitespace).
    pub fn at_eof(&mut self) -> bool {
        self.skip_ws();
        self.pos >= self.bytes.len()
    }

    /// Requires the input to be fully consumed.
    pub fn expect_eof(&mut self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            self.err("unexpected trailing input")
        }
    }

    // -- Keywords and identifiers -------------------------------------------

    /// Peeks the next identifier-shaped token without consuming it.
    fn peek_word(&mut self) -> Option<&'a str> {
        self.skip_ws();
        let start = self.pos;
        let mut end = start;
        while end < self.bytes.len()
            && (self.bytes[end].is_ascii_alphanumeric() || self.bytes[end] == b'_')
        {
            end += 1;
        }
        (end > start && !self.bytes[start].is_ascii_digit()).then(|| &self.src[start..end])
    }

    /// Consumes keyword `kw` (case-insensitive, whole word) if present.
    pub fn eat_kw(&mut self, kw: &str) -> bool {
        match self.peek_word() {
            Some(w) if w.eq_ignore_ascii_case(kw) => {
                self.pos += w.len();
                true
            }
            _ => false,
        }
    }

    /// Requires keyword `kw`.
    pub fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected keyword {kw}"))
        }
    }

    /// Words that can never be identifiers (they would swallow following
    /// clauses otherwise).
    fn is_reserved(word: &str) -> bool {
        // NB: SOURCE, DESTINATION, OF, and DIRECTED are *contextual*
        // keywords — they are only recognized after IS, so they stay
        // usable as identifiers/aliases.
        const RESERVED: &[&str] = &[
            "MATCH",
            "WHERE",
            "AND",
            "OR",
            "NOT",
            "IS",
            "NULL",
            "TRUE",
            "FALSE",
            "TRAIL",
            "ACYCLIC",
            "SIMPLE",
            "ANY",
            "ALL",
            "SHORTEST",
            "GROUP",
            "SAME",
            "ALL_DIFFERENT",
            "COUNT",
            "SUM",
            "AVG",
            "MIN",
            "MAX",
            "DISTINCT",
            "RETURN",
            "COLUMNS",
            "AS",
            "ORDER",
            "BY",
            "LIMIT",
            "SKIP",
            "ASC",
            "DESC",
            "CHEAPEST",
            "EXISTS",
        ];
        RESERVED.iter().any(|r| word.eq_ignore_ascii_case(r))
    }

    /// Parses an identifier (variable, label, or property name).
    pub fn ident(&mut self) -> Result<String> {
        match self.peek_word() {
            Some(w) if !Self::is_reserved(w) => {
                self.pos += w.len();
                Ok(w.to_owned())
            }
            Some(w) => self.err(format!("reserved word {w} cannot be an identifier")),
            None => self.err("expected identifier"),
        }
    }

    fn unsigned(&mut self) -> Result<u32> {
        self.skip_ws();
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected number");
        }
        self.src[start..self.pos].parse().map_err(|_| ParseError {
            pos: start,
            message: "number too large".into(),
        })
    }

    // -- Graph patterns -------------------------------------------------------

    /// `path_pattern (',' path_pattern)* (WHERE expr)?`
    pub fn parse_graph_pattern(&mut self) -> Result<GraphPattern> {
        let mut paths = vec![self.parse_path_pattern_expr()?];
        while self.eat(",") {
            paths.push(self.parse_path_pattern_expr()?);
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(GraphPattern {
            paths,
            where_clause,
        })
    }

    /// `selector? restrictor? (ident '=')? pattern`
    pub fn parse_path_pattern_expr(&mut self) -> Result<PathPatternExpr> {
        let selector = self.parse_selector()?;
        let restrictor = self.parse_restrictor();
        // Path variable: identifier followed by `=`.
        let path_var = {
            let save = self.pos;
            match self.ident() {
                Ok(name) if self.eat("=") => Some(name),
                _ => {
                    self.pos = save;
                    None
                }
            }
        };
        let pattern = self.parse_union()?;
        Ok(PathPatternExpr {
            selector,
            restrictor,
            path_var,
            pattern,
        })
    }

    /// Figure 8's selectors: `ANY SHORTEST`, `ALL SHORTEST`, `ANY`,
    /// `ANY k`, `SHORTEST k`, `SHORTEST k GROUP`.
    fn parse_selector(&mut self) -> Result<Option<Selector>> {
        if self.eat_kw("ALL") {
            self.expect_kw("SHORTEST")?;
            return Ok(Some(Selector::AllShortest));
        }
        if self.eat_kw("ANY") {
            if self.eat_kw("SHORTEST") {
                return Ok(Some(Selector::AnyShortest));
            }
            if self.eat_kw("CHEAPEST") {
                self.expect("(")?;
                let weight = self.ident()?;
                self.expect(")")?;
                return Ok(Some(Selector::AnyCheapest { weight }));
            }
            // `ANY 3` vs plain `ANY`.
            self.skip_ws();
            if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                let k = self.unsigned()?;
                return Ok(Some(Selector::AnyK(k)));
            }
            return Ok(Some(Selector::Any));
        }
        if self.eat_kw("SHORTEST") {
            let k = self.unsigned()?;
            if self.eat_kw("GROUP") {
                return Ok(Some(Selector::ShortestKGroup(k)));
            }
            return Ok(Some(Selector::ShortestK(k)));
        }
        if self.eat_kw("CHEAPEST") {
            let k = self.unsigned()?;
            self.expect("(")?;
            let weight = self.ident()?;
            self.expect(")")?;
            return Ok(Some(Selector::CheapestK { k, weight }));
        }
        Ok(None)
    }

    /// Figure 7's restrictors.
    fn parse_restrictor(&mut self) -> Option<Restrictor> {
        if self.eat_kw("TRAIL") {
            Some(Restrictor::Trail)
        } else if self.eat_kw("ACYCLIC") {
            Some(Restrictor::Acyclic)
        } else if self.eat_kw("SIMPLE") {
            Some(Restrictor::Simple)
        } else {
            None
        }
    }

    /// `concat (('|' | '|+|') concat)*` — `|` is set union, `|+|` multiset
    /// alternation (§4.5).
    fn parse_union(&mut self) -> Result<PathPattern> {
        let first = self.parse_concat()?;
        let mut branches = vec![first];
        let mut multiset: Option<bool> = None;
        loop {
            self.skip_ws();
            let is_alt = self.starts_with("|+|");
            let is_union = !is_alt && self.peek() == Some(b'|');
            if !is_alt && !is_union {
                break;
            }
            self.pos += if is_alt { 3 } else { 1 };
            match multiset {
                None => multiset = Some(is_alt),
                Some(m) if m != is_alt => {
                    return self.err("mixing `|` and `|+|` requires bracketing");
                }
                Some(_) => {}
            }
            branches.push(self.parse_concat()?);
        }
        if branches.len() == 1 {
            return Ok(branches.pop().expect("non-empty"));
        }
        Ok(if multiset == Some(true) {
            PathPattern::Alternation(branches)
        } else {
            PathPattern::Union(branches)
        })
    }

    /// One or more factors.
    fn parse_concat(&mut self) -> Result<PathPattern> {
        let mut parts = vec![self.parse_factor()?];
        while self.factor_ahead() {
            parts.push(self.parse_factor()?);
        }
        Ok(PathPattern::concat(parts))
    }

    fn factor_ahead(&mut self) -> bool {
        self.skip_ws();
        matches!(
            self.peek(),
            Some(b'(') | Some(b'[') | Some(b'<') | Some(b'~') | Some(b'-')
        )
    }

    /// `(node | edge | paren) postfix*` where postfix is a quantifier or `?`.
    fn parse_factor(&mut self) -> Result<PathPattern> {
        self.skip_ws();
        let mut base = match self.peek() {
            Some(b'(') => self.parse_node_pattern()?,
            Some(b'[') => self.parse_paren_pattern()?,
            Some(b'<') | Some(b'~') | Some(b'-') => self.parse_edge_pattern()?,
            _ => return self.err("expected a node, edge, or parenthesized pattern"),
        };
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'{') => {
                    let q = self.parse_brace_quantifier()?;
                    base = base.quantified(q);
                }
                Some(b'*') => {
                    self.pos += 1;
                    base = base.quantified(Quantifier::star());
                }
                Some(b'+') => {
                    self.pos += 1;
                    base = base.quantified(Quantifier::plus());
                }
                Some(b'?') => {
                    self.pos += 1;
                    base = PathPattern::Questioned(Box::new(base));
                }
                _ => break,
            }
        }
        Ok(base)
    }

    /// `{m,n}`, `{m,}`, `{m}` (exactly m).
    fn parse_brace_quantifier(&mut self) -> Result<Quantifier> {
        self.expect("{")?;
        let min = self.unsigned()?;
        let q = if self.eat(",") {
            self.skip_ws();
            if self.peek() == Some(b'}') {
                Quantifier::range(min, None)
            } else {
                let max = self.unsigned()?;
                Quantifier::range(min, Some(max))
            }
        } else {
            Quantifier::range(min, Some(min))
        };
        self.expect("}")?;
        Ok(q)
    }

    /// `( var? (':' labelExpr)? (WHERE expr)? )`
    fn parse_node_pattern(&mut self) -> Result<PathPattern> {
        self.expect("(")?;
        let (var, label, predicate) = self.parse_element_spec()?;
        self.skip_ws();
        if self.peek() == Some(b'{') {
            // Targeted message for the common Cypher habit.
            return self.err("property maps `{k: v}` are Cypher syntax; use WHERE");
        }
        self.expect(")")?;
        Ok(PathPattern::Node(NodePattern {
            var,
            label,
            predicate,
        }))
    }

    /// The shared `var? (':' labelExpr)? (WHERE expr)?` body of node and
    /// edge patterns.
    fn parse_element_spec(&mut self) -> Result<(Option<String>, Option<LabelExpr>, Option<Expr>)> {
        self.skip_ws();
        let var = if self.peek_word().is_some_and(|w| !Self::is_reserved(w)) {
            Some(self.ident()?)
        } else {
            None
        };
        let label = if self.eat(":") {
            Some(self.parse_label_expr()?)
        } else {
            None
        };
        let predicate = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok((var, label, predicate))
    }

    /// `[ restrictor? pattern (WHERE expr)? ]`
    fn parse_paren_pattern(&mut self) -> Result<PathPattern> {
        self.expect("[")?;
        let restrictor = self.parse_restrictor();
        let inner = self.parse_union()?;
        let predicate = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        self.expect("]")?;
        Ok(PathPattern::Paren {
            restrictor,
            inner: Box::new(inner),
            predicate,
        })
    }

    /// All fourteen edge forms of Figure 5 (seven orientations, full and
    /// abbreviated).
    ///
    /// `-[`, `~[`, `<-[`, `<~[` are ambiguous: they may open a bracketed
    /// edge (`-[e:T]->`) or be an abbreviation followed by a parenthesized
    /// pattern (`- [ (x)->(y) ]`). The bracketed-edge reading is attempted
    /// first; on failure the parser backtracks and emits the bare
    /// abbreviation, leaving `[` for the next factor.
    fn parse_edge_pattern(&mut self) -> Result<PathPattern> {
        self.skip_ws();
        let save = self.pos;
        match self.parse_bracketed_edge() {
            Ok(Some(e)) => return Ok(e),
            Ok(None) => {}
            Err(_) => self.pos = save,
        }
        self.parse_edge_abbreviation()
    }

    /// Attempts the full bracketed forms; `Ok(None)` when the input does
    /// not start with a bracket opener at all.
    fn parse_bracketed_edge(&mut self) -> Result<Option<PathPattern>> {
        if self.starts_with("<-[") {
            self.pos += 3;
            let (var, label, predicate) = self.parse_element_spec()?;
            self.expect("]")?;
            let direction = if self.eat("->") {
                Direction::LeftOrRight
            } else if self.eat("-") {
                Direction::Left
            } else {
                return self.err("expected `]-` or `]->`");
            };
            return Ok(Some(PathPattern::Edge(EdgePattern {
                var,
                label,
                predicate,
                direction,
            })));
        }
        if self.starts_with("<~[") {
            self.pos += 3;
            let (var, label, predicate) = self.parse_element_spec()?;
            self.expect("]")?;
            self.expect("~")?;
            return Ok(Some(PathPattern::Edge(EdgePattern {
                var,
                label,
                predicate,
                direction: Direction::LeftOrUndirected,
            })));
        }
        if self.starts_with("~[") {
            self.pos += 2;
            let (var, label, predicate) = self.parse_element_spec()?;
            self.expect("]")?;
            let direction = if self.eat("~>") {
                Direction::UndirectedOrRight
            } else if self.eat("~") {
                Direction::Undirected
            } else {
                return self.err("expected `]~` or `]~>`");
            };
            return Ok(Some(PathPattern::Edge(EdgePattern {
                var,
                label,
                predicate,
                direction,
            })));
        }
        if self.starts_with("-[") {
            self.pos += 2;
            let (var, label, predicate) = self.parse_element_spec()?;
            self.expect("]")?;
            let direction = if self.eat("->") {
                Direction::Right
            } else if self.eat("-") {
                Direction::Any
            } else {
                return self.err("expected `]-` or `]->`");
            };
            return Ok(Some(PathPattern::Edge(EdgePattern {
                var,
                label,
                predicate,
                direction,
            })));
        }
        Ok(None)
    }

    /// Figure 5 abbreviations (longest match first).
    fn parse_edge_abbreviation(&mut self) -> Result<PathPattern> {
        self.skip_ws();
        let direction = if self.starts_with("<->") {
            self.pos += 3;
            Direction::LeftOrRight
        } else if self.starts_with("<-") {
            self.pos += 2;
            Direction::Left
        } else if self.starts_with("<~") {
            self.pos += 2;
            Direction::LeftOrUndirected
        } else if self.starts_with("~>") {
            self.pos += 2;
            Direction::UndirectedOrRight
        } else if self.starts_with("~") {
            self.pos += 1;
            Direction::Undirected
        } else if self.starts_with("->") {
            self.pos += 2;
            Direction::Right
        } else if self.starts_with("-") {
            self.pos += 1;
            Direction::Any
        } else {
            return self.err("expected an edge pattern");
        };
        Ok(PathPattern::Edge(EdgePattern::any(direction)))
    }

    /// Label expressions: `|` (lowest), `&`, `!`, `%`, parentheses (§4.1).
    pub fn parse_label_expr(&mut self) -> Result<LabelExpr> {
        let mut e = self.parse_label_term()?;
        loop {
            self.skip_ws();
            // `|` binds labels only inside element brackets; `|+|` never
            // appears here.
            if self.peek() == Some(b'|') && !self.starts_with("|+|") {
                self.pos += 1;
                e = e.or(self.parse_label_term()?);
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn parse_label_term(&mut self) -> Result<LabelExpr> {
        let mut e = self.parse_label_factor()?;
        while self.eat("&") {
            e = e.and(self.parse_label_factor()?);
        }
        Ok(e)
    }

    fn parse_label_factor(&mut self) -> Result<LabelExpr> {
        self.skip_ws();
        if self.eat("!") {
            return Ok(self.parse_label_factor()?.not());
        }
        if self.eat("%") {
            return Ok(LabelExpr::Wildcard);
        }
        if self.eat("(") {
            let e = self.parse_label_expr()?;
            self.expect(")")?;
            return Ok(e);
        }
        Ok(LabelExpr::Label(self.ident()?))
    }

    // -- Host projection clauses -----------------------------------------------

    /// A projection's item list, `expr [AS alias] (, expr [AS alias])*`:
    /// the body of GQL's `RETURN` and of SQL/PGQ's `COLUMNS ( … )`. An
    /// item without an alias is named by its expression's text.
    pub fn parse_items(&mut self) -> Result<Vec<(Expr, String)>> {
        let mut items = Vec::new();
        loop {
            let expr = self.parse_expr()?;
            let alias = if self.eat_kw("AS") {
                self.ident()?
            } else {
                expr.to_string()
            };
            items.push((expr, alias));
            if !self.eat(",") {
                return Ok(items);
            }
        }
    }

    /// What follows GQL's `RETURN`: `[DISTINCT] items [ORDER BY expr
    /// [ASC|DESC], …] [SKIP n] [LIMIT n]`. An `ORDER BY` key naming an
    /// item's alias sorts by that item's expression.
    pub fn parse_return(&mut self) -> Result<Projection> {
        let distinct = self.eat_kw("DISTINCT");
        let items = self.parse_items()?;
        let mut order = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let mut key = self.parse_expr()?;
                if let Expr::Var(name) = &key {
                    if let Some((expr, _)) = items.iter().find(|(_, alias)| alias == name) {
                        key = expr.clone();
                    }
                }
                let ascending = !self.eat_kw("DESC");
                if ascending {
                    self.eat_kw("ASC");
                }
                order.push((key, ascending));
                if !self.eat(",") {
                    break;
                }
            }
        }
        let skip = self.eat_kw("SKIP").then(|| self.count()).transpose()?;
        let limit = self.eat_kw("LIMIT").then(|| self.count()).transpose()?;
        Ok(Projection {
            items,
            order,
            distinct,
            skip,
            limit,
        })
    }

    /// A `SKIP` or `LIMIT` count: a non-negative integer literal.
    fn count(&mut self) -> Result<usize> {
        self.skip_ws();
        let at = self.pos;
        match self.parse_expr()? {
            Expr::Literal(Value::Int(n)) if n >= 0 => Ok(n as usize),
            other => Err(ParseError {
                pos: at,
                message: format!("expected a count, got {other}"),
            }),
        }
    }

    // -- Expressions ----------------------------------------------------------

    /// `OR`-level entry point.
    pub fn parse_expr(&mut self) -> Result<Expr> {
        let mut e = self.parse_and()?;
        while self.eat_kw("OR") {
            e = e.or(self.parse_and()?);
        }
        Ok(e)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut e = self.parse_not()?;
        while self.eat_kw("AND") {
            e = e.and(self.parse_not()?);
        }
        Ok(e)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            return Ok(self.parse_not()?.not());
        }
        self.parse_predicate()
    }

    /// Comparisons and the `IS`-family predicates (§4.7).
    fn parse_predicate(&mut self) -> Result<Expr> {
        let lhs = self.parse_additive()?;
        self.skip_ws();
        if self.eat_kw("IS") {
            if self.eat_kw("NOT") {
                self.expect_kw("NULL")?;
                return Ok(Expr::IsNull(Box::new(lhs), false));
            }
            if self.eat_kw("NULL") {
                return Ok(Expr::IsNull(Box::new(lhs), true));
            }
            if self.eat_kw("DIRECTED") {
                let Expr::Var(v) = lhs else {
                    return self.err("IS DIRECTED applies to a variable");
                };
                return Ok(Expr::IsDirected(v));
            }
            let source = if self.eat_kw("SOURCE") {
                true
            } else if self.eat_kw("DESTINATION") {
                false
            } else {
                return self.err("expected NULL, DIRECTED, SOURCE, or DESTINATION after IS");
            };
            self.expect_kw("OF")?;
            let Expr::Var(node) = lhs else {
                return self.err("IS SOURCE/DESTINATION OF applies to a variable");
            };
            let edge = self.ident()?;
            return Ok(if source {
                Expr::IsSourceOf { node, edge }
            } else {
                Expr::IsDestinationOf { node, edge }
            });
        }
        let op = if self.eat("<>") {
            Some(CmpOp::Ne)
        } else if self.eat("<=") {
            Some(CmpOp::Le)
        } else if self.eat(">=") {
            Some(CmpOp::Ge)
        } else if self.eat("!=") {
            Some(CmpOp::Ne)
        } else if self.eat("=") {
            Some(CmpOp::Eq)
        } else if self.peek() == Some(b'<')
            && self.peek_at(1) != Some(b'-')
            && self.peek_at(1) != Some(b'~')
        {
            self.pos += 1;
            Some(CmpOp::Lt)
        } else if self.eat(">") {
            Some(CmpOp::Gt)
        } else {
            None
        };
        match op {
            Some(op) => Ok(Expr::cmp(op, lhs, self.parse_additive()?)),
            None => Ok(lhs),
        }
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut e = self.parse_multiplicative()?;
        loop {
            self.skip_ws();
            if self.eat("+") {
                e = Expr::Arith(
                    ArithOp::Add,
                    Box::new(e),
                    Box::new(self.parse_multiplicative()?),
                );
            } else if self.peek() == Some(b'-')
                && self.peek_at(1) != Some(b'[')
                && self.peek_at(1) != Some(b'>')
            {
                self.pos += 1;
                e = Expr::Arith(
                    ArithOp::Sub,
                    Box::new(e),
                    Box::new(self.parse_multiplicative()?),
                );
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut e = self.parse_primary()?;
        loop {
            self.skip_ws();
            if self.eat("*") {
                e = Expr::Arith(ArithOp::Mul, Box::new(e), Box::new(self.parse_primary()?));
            } else if self.eat("/") {
                e = Expr::Arith(ArithOp::Div, Box::new(e), Box::new(self.parse_primary()?));
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        self.skip_ws();
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                let e = self.parse_expr()?;
                self.expect(")")?;
                Ok(e)
            }
            Some(b'$') => {
                // `$name`: a query parameter, bound at execute time. The
                // text stays a reusable skeleton, so one cached plan
                // serves every binding of the parameter. The name must be
                // byte-adjacent to the sigil — `$ min` is an error, and a
                // stray `$` must not swallow the next keyword as a name.
                self.pos += 1;
                let start = self.pos;
                let mut end = start;
                while end < self.bytes.len()
                    && (self.bytes[end].is_ascii_alphanumeric() || self.bytes[end] == b'_')
                {
                    end += 1;
                }
                if end == start || self.bytes[start].is_ascii_digit() {
                    return self.err("expected a parameter name after $");
                }
                let name = self.src[start..end].to_owned();
                self.pos = end;
                Ok(Expr::Parameter(name))
            }
            Some(b'\'') => Ok(Expr::Literal(Value::Str(self.string_literal()?))),
            Some(c) if c.is_ascii_digit() => self.number_literal(),
            _ => self.word_primary(),
        }
    }

    /// Keyword-led primaries: literals, aggregates, `SAME`,
    /// `ALL_DIFFERENT`, variables, and property accesses.
    fn word_primary(&mut self) -> Result<Expr> {
        let Some(word) = self.peek_word() else {
            return self.err("expected expression");
        };
        let upper = word.to_ascii_uppercase();
        match upper.as_str() {
            "TRUE" => {
                self.pos += word.len();
                Ok(Expr::lit(true))
            }
            "FALSE" => {
                self.pos += word.len();
                Ok(Expr::lit(false))
            }
            "NULL" => {
                self.pos += word.len();
                Ok(Expr::Literal(Value::Null))
            }
            "EXISTS" => {
                self.pos += word.len();
                self.expect("{")?;
                let gp = self.parse_graph_pattern()?;
                self.expect("}")?;
                Ok(Expr::Exists(Box::new(gp)))
            }
            "SAME" | "ALL_DIFFERENT" => {
                self.pos += word.len();
                self.expect("(")?;
                let mut vars = vec![self.ident()?];
                while self.eat(",") {
                    vars.push(self.ident()?);
                }
                self.expect(")")?;
                Ok(if upper == "SAME" {
                    Expr::Same(vars)
                } else {
                    Expr::AllDifferent(vars)
                })
            }
            "COUNT" | "SUM" | "AVG" | "MIN" | "MAX" => {
                self.pos += word.len();
                let func = match upper.as_str() {
                    "COUNT" => AggFunc::Count,
                    "SUM" => AggFunc::Sum,
                    "AVG" => AggFunc::Avg,
                    "MIN" => AggFunc::Min,
                    _ => AggFunc::Max,
                };
                self.expect("(")?;
                let distinct = self.eat_kw("DISTINCT");
                let var = self.ident()?;
                let arg = if self.eat(".") {
                    if self.eat("*") {
                        AggArg::VarStar(var)
                    } else {
                        AggArg::Property(var, self.ident()?)
                    }
                } else {
                    AggArg::Var(var)
                };
                self.expect(")")?;
                Ok(Expr::Aggregate {
                    func,
                    arg,
                    distinct,
                })
            }
            _ => {
                let var = self.ident()?;
                if self.eat(".") {
                    let prop = self.ident()?;
                    Ok(Expr::Property(var, prop))
                } else {
                    Ok(Expr::Var(var))
                }
            }
        }
    }

    /// `'...'` with `''` as the escaped quote.
    fn string_literal(&mut self) -> Result<String> {
        self.expect("'")?;
        let mut out = String::new();
        loop {
            match self.rest().chars().next() {
                Some('\'') if self.peek_at(1) == Some(b'\'') => {
                    out.push('\'');
                    self.pos += 2;
                }
                Some('\'') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(ch) => {
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
                None => return self.err("unterminated string literal"),
            }
        }
    }

    /// Numbers with the paper's K/M/B readability suffixes: `5M` is five
    /// million.
    fn number_literal(&mut self) -> Result<Expr> {
        self.skip_ws();
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') && self.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.src[start..self.pos];
        let multiplier: i64 = match self.peek() {
            Some(b'K') | Some(b'k') => {
                self.pos += 1;
                1_000
            }
            Some(b'M') | Some(b'm') => {
                self.pos += 1;
                1_000_000
            }
            Some(b'B') | Some(b'b') => {
                self.pos += 1;
                1_000_000_000
            }
            _ => 1,
        };
        if is_float {
            let v: f64 = text.parse().map_err(|_| ParseError {
                pos: start,
                message: "bad number".into(),
            })?;
            let scaled = v * multiplier as f64;
            // `1.5M` is a whole number of units; keep integers exact.
            if scaled.fract() == 0.0 && scaled.abs() < i64::MAX as f64 {
                Ok(Expr::lit(scaled as i64))
            } else {
                Ok(Expr::lit(scaled))
            }
        } else {
            let v: i64 = text.parse().map_err(|_| ParseError {
                pos: start,
                message: "number too large".into(),
            })?;
            Ok(Expr::lit(v * multiplier))
        }
    }
}

#[cfg(test)]
mod tests;
