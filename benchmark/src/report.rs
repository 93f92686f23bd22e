//! The benchmark's contract (metric names, units, bounds — mirrored by
//! `BENCHMARK.json`, a test holds them together) and its JSON output.

use std::fmt;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [Metric; 5] = [
    Metric {
        name: "p50_us",
        unit: "us",
        lower_is_better: true,
        bound: 0.25,
    },
    Metric {
        name: "throughput_rps",
        unit: "req/s",
        lower_is_better: false,
        bound: 0.25,
    },
    Metric {
        name: "commit_p50_us",
        unit: "us",
        lower_is_better: true,
        bound: 0.25,
    },
    Metric {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MiB",
        lower_is_better: true,
        bound: 0.15,
    },
];

/// Every per-layer metric of the traced run, with its unit. Layer names are
/// this repository's modules.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("parser.parse_us", "us"),
    ("plan.prepare_us", "us"),
    ("plan.stages", "count"),
    ("plan.flat_instrs", "count"),
    ("cost.report_us", "us"),
    ("cost.q_error", "ratio"),
    ("eval.match_us", "us"),
    ("eval.edges_per_row", "ratio"),
    ("eval.nodes_expanded", "count"),
    ("eval.instrs_dispatched", "count"),
    ("join.us", "us"),
    ("join.rows_pruned", "count"),
    ("gql.project_us", "us"),
    ("gql.cache_hit_share", "ratio"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("codec.bytes_per_row", "bytes"),
    ("server.overhead_us", "us"),
    ("server.overhead_share", "ratio"),
    ("storage.apply_us", "us"),
    ("storage.append_us", "us"),
    ("storage.fsync_us", "us"),
    ("storage.swap_us", "us"),
    ("storage.compact_us", "us"),
    ("storage.wal_bytes_per_commit", "bytes"),
    ("storage.snapshots_taken", "count"),
    ("storage.recovery_us", "us"),
    ("pgq.view_build_us", "us"),
    ("obs.trace_overhead_pct", "%"),
];

/// A JSON value: rendered by `Display`, read back by [`J::parse`].
#[derive(Clone, Debug, PartialEq)]
pub enum J {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn opt(v: Option<f64>) -> J {
        v.map_or(J::Null, J::Num)
    }

    /// `{"value": v, "unit": u}` — how every metric is reported.
    pub fn metric(value: f64, unit: &str) -> J {
        J::obj([("value", J::Num(value)), ("unit", J::str(unit))])
    }
}

impl J {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&J> {
        match self {
            J::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            J::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Parses one JSON document (what this module writes, and
    /// `BENCHMARK.json`).
    pub fn parse(text: &str) -> Result<J, String> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.at));
        }
        Ok(value)
    }

    fn is_container(&self) -> bool {
        matches!(self, J::Arr(_) | J::Obj(_))
    }

    /// Multi-line rendering for files people diff: a container is broken
    /// over lines when it holds containers, and kept on one line otherwise.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth + 1);
        let close = "  ".repeat(depth);
        match self {
            J::Arr(items) if items.iter().any(J::is_container) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&format!("{close}]"));
            }
            J::Obj(pairs) if pairs.iter().any(|(_, v)| v.is_container()) => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(&format!("{pad}{}: ", J::str(k.as_str())));
                    v.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                out.push_str(&format!("{close}}}"));
            }
            leaf => out.push_str(&leaf.to_string()),
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(token.as_bytes());
        if hit {
            self.at += token.len();
        }
        hit
    }

    fn expect(&mut self, token: &str) -> Result<(), String> {
        self.skip_ws();
        if self.eat(token) {
            Ok(())
        } else {
            Err(format!("expected `{token}` at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<J, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(J::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(":")?;
                    pairs.push((key, self.value()?));
                    self.skip_ws();
                    if !self.eat(",") {
                        break;
                    }
                }
                self.expect("}")?;
                Ok(J::Obj(pairs))
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(J::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if !self.eat(",") {
                        break;
                    }
                }
                self.expect("]")?;
                Ok(J::Arr(items))
            }
            Some(b'"') => self.string().map(J::Str),
            _ if self.eat("null") => Ok(J::Null),
            _ if self.eat("true") => Ok(J::Bool(true)),
            _ if self.eat("false") => Ok(J::Bool(false)),
            _ => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b"+-.eE".contains(b) || b.is_ascii_digit())
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|n| n.parse().ok())
                    .map(J::Num)
                    .ok_or(format!("expected a value at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected a string at byte {}", self.at));
        }
        let mut out = Vec::new();
        loop {
            let b = *self.bytes.get(self.at).ok_or("unterminated string")?;
            self.at += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let e = *self.bytes.get(self.at).ok_or("unterminated escape")?;
                    self.at += 1;
                    let c = match e {
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self.bytes.get(self.at..self.at + 4);
                            self.at += 4;
                            hex.and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?
                        }
                        other => other as char, // `\"`, `\\`, `\/`
                    };
                    out.extend(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                b => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|e| e.to_string())
    }
}

fn quote(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            J::Null => f.write_str("null"),
            J::Bool(b) => write!(f, "{b}"),
            // JSON has no NaN or infinity.
            J::Num(n) if !n.is_finite() => f.write_str("null"),
            J::Num(n) => write!(f, "{n}"),
            J::Str(s) => quote(s, f),
            J::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            J::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    quote(k, f)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SPECS;

    #[test]
    fn json_renders_and_escapes() {
        let v = J::obj([
            ("a", J::Num(1.5)),
            ("b", J::Arr(vec![J::Bool(true), J::Null, J::Num(f64::NAN)])),
            ("c", J::str("q\"\\\n")),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"a": 1.5, "b": [true, null, null], "c": "q\"\\\n"}"#
        );
        assert_eq!(J::Num(215.0).to_string(), "215");
        assert_eq!(
            v.pretty(),
            "{\n  \"a\": 1.5,\n  \"b\": [true, null, null],\n  \"c\": \"q\\\"\\\\\\n\"\n}\n"
        );
    }

    #[test]
    fn json_parses_what_it_renders() {
        let v = J::obj([
            ("a", J::Num(-1.5e-3)),
            ("b", J::Arr(vec![J::Bool(false), J::Null, J::Arr(vec![])])),
            ("c", J::str("q\"\\\n\u{1}é")),
            ("d", J::obj::<&str>([])),
        ]);
        assert_eq!(J::parse(&v.to_string()), Ok(v.clone()));
        assert_eq!(J::parse(&v.pretty()), Ok(v.clone()));
        assert_eq!(v.get("a").and_then(J::as_f64), Some(-0.0015));
        assert!(J::parse("{\"a\": 1} x").is_err());
        assert!(J::parse("[1, ").is_err());
    }

    /// `BENCHMARK.json` is what the driver reads; the constants above and
    /// the workload table are what the harness runs. They must agree.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = J::parse(&text).expect("BENCHMARK.json parses");
        let field = |entry: &J, key: &str| match entry.get(key) {
            Some(J::Str(s)) => s.clone(),
            Some(other) => other.to_string(),
            None => panic!("{entry} lacks {key}"),
        };
        let rows = |section: &str, keys: &[&str]| -> Vec<Vec<String>> {
            let Some(J::Arr(entries)) = json.get(section) else {
                panic!("BENCHMARK.json lacks the list {section}")
            };
            entries
                .iter()
                .map(|entry| keys.iter().map(|k| field(entry, k)).collect())
                .collect()
        };
        let want: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|m| {
                let better = if m.lower_is_better { "lower" } else { "higher" };
                vec![
                    m.name.into(),
                    m.unit.into(),
                    better.into(),
                    m.bound.to_string(),
                ]
            })
            .collect();
        assert_eq!(
            rows("end_to_end", &["name", "unit", "better", "bound"]),
            want
        );
        let want: Vec<Vec<String>> = PER_LAYER
            .iter()
            .map(|(name, unit)| vec![name.to_string(), unit.to_string()])
            .collect();
        assert_eq!(rows("per_layer", &["name", "unit"]), want);
        let want: Vec<Vec<String>> = SPECS
            .iter()
            .map(|s| vec![s.name.to_owned(), s.why.to_owned()])
            .collect();
        assert_eq!(rows("workloads", &["name", "why"]), want);
        assert!(SPECS.iter().all(|s| s.why.len() <= 200));
    }
}
