//! Machine-readable serialization of query results and values.
//!
//! Two codecs live here:
//!
//! * the **wire codec** — a lossless, line-oriented tagged-text encoding
//!   of [`GqlValue`] cells and whole [`QueryResult`] tables. It is what
//!   the `gpmld` wire protocol ships inside its frames: every value
//!   round-trips *bit-for-bit* (floats are encoded as their IEEE-754 bit
//!   pattern, strings escape the structural characters), so a client can
//!   assert `decode(encode(r)) == r` with plain equality. Scalar
//!   parameter values use the same tags in `EXECUTE` requests.
//! * the **CSV writer** — [`QueryResult::to_csv`], an RFC-4180-style
//!   human/tool-facing export used by the CLI's `--format csv` (JSON
//!   lives in [`crate::json`]).
//!
//! Wire grammar, one value per cell:
//!
//! | tag | payload | example |
//! |-----|---------|---------|
//! | `N` | — (scalar NULL) | `N` |
//! | `B:` | `true` / `false` | `B:true` |
//! | `I:` | decimal `i64` | `I:-42` |
//! | `F:` | 16 hex digits of `f64::to_bits` | `F:3ff0000000000000` |
//! | `S:` | escaped string scalar | `S:Ankh-Morpork` |
//! | `E:` | escaped element name | `E:a4` |
//! | `G:` | `,`-separated escaped element names | `G:t5,t2` |
//! | `P:` | escaped path rendering | `P:path(a6,t5,a3)` |
//!
//! Escapes: `\\`, `\t`, `\n`, `\r`, and `\,` (the comma escape is only
//! *produced* inside `G:` items but always *accepted*). A result table is
//! one line of tab-separated escaped column names followed by one line
//! per row of tab-separated encoded cells.

use std::fmt::{self, Write as _};

use property_graph::Value;

use crate::{GqlValue, QueryResult};

/// A wire-codec decoding failure (malformed tag, payload, or shape).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(msg.into()))
}

/// A string payload with the structural characters of the wire codec
/// escaped. With the flag set, commas are escaped too (group items are
/// comma-separated).
struct Escaped<'a>(&'a str, bool);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Escaped(s, escape_comma) = *self;
        let mut start = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'\\' => "\\\\",
                b'\t' => "\\t",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b',' if escape_comma => "\\,",
                _ => continue,
            };
            f.write_str(&s[start..i])?;
            f.write_str(escape)?;
            start = i + 1;
        }
        f.write_str(&s[start..])
    }
}

/// Reverses [`Escaped`]; accepts every escape the encoder can produce.
fn unesc(s: &str) -> Result<String, CodecError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(',') => out.push(','),
            other => return err(format!("bad escape \\{:?} in {s:?}", other)),
        }
    }
    Ok(out)
}

/// Splits `s` on unescaped commas (group items keep their `\,` escapes
/// for [`unesc`] to resolve).
fn split_group(s: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let bytes = s.as_bytes();
    let mut start = 0;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if escaped {
            escaped = false;
        } else if b == b'\\' {
            escaped = true;
        } else if b == b',' {
            items.push(&s[start..i]);
            start = i + 1;
        }
    }
    items.push(&s[start..]);
    items
}

/// Encodes a scalar [`Value`] — the subset of the codec `EXECUTE`
/// parameter bindings use.
pub fn encode_scalar(v: &Value) -> String {
    Scalar(v).to_string()
}

/// The encoding of a scalar [`Value`].
struct Scalar<'a>(&'a Value);

impl fmt::Display for Scalar<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Value::Null => f.write_str("N"),
            Value::Bool(b) => write!(f, "B:{b}"),
            Value::Int(i) => write!(f, "I:{i}"),
            Value::Float(x) => write!(f, "F:{:016x}", x.to_bits()),
            Value::Str(s) => write!(f, "S:{}", Escaped(s, false)),
        }
    }
}

/// Decodes a scalar [`Value`] (tags `N`, `B:`, `I:`, `F:`, `S:`).
pub fn decode_scalar(s: &str) -> Result<Value, CodecError> {
    match decode_value(s)? {
        GqlValue::Scalar(v) => Ok(v),
        other => err(format!("expected a scalar, got {other:?}")),
    }
}

/// Encodes one result cell.
pub fn encode_value(v: &GqlValue) -> String {
    Cell(v).to_string()
}

/// The encoding of one result cell: the one cell writer behind
/// [`encode_value`], [`encode_result`] and the cursor's row sizes.
struct Cell<'a>(&'a GqlValue);

impl fmt::Display for Cell<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            GqlValue::Scalar(v) => Scalar(v).fmt(f),
            GqlValue::Element(n) => write!(f, "E:{}", Escaped(n, false)),
            GqlValue::Group(ns) => {
                f.write_str("G:")?;
                for (i, n) in ns.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    Escaped(n, true).fmt(f)?;
                }
                Ok(())
            }
            GqlValue::Path(p) => write!(f, "P:{}", Escaped(p, false)),
        }
    }
}

/// Appends one encoded row of a result table to `out`: its leading
/// newline, then its cells separated by tabs.
pub(crate) fn write_row(out: &mut String, row: &[GqlValue]) {
    out.push('\n');
    for (i, v) in row.iter().enumerate() {
        let sep = if i == 0 { "" } else { "\t" };
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{sep}{}", Cell(v));
    }
}

/// Decodes one result cell. Inverse of [`encode_value`]:
/// `decode_value(&encode_value(v)) == Ok(v)` for every `GqlValue`,
/// including non-finite floats (the bit pattern is preserved).
pub fn decode_value(s: &str) -> Result<GqlValue, CodecError> {
    if s == "N" {
        return Ok(GqlValue::Scalar(Value::Null));
    }
    let Some((tag, payload)) = s.split_once(':') else {
        return err(format!("untagged value {s:?}"));
    };
    match tag {
        "B" => match payload {
            "true" => Ok(GqlValue::Scalar(Value::Bool(true))),
            "false" => Ok(GqlValue::Scalar(Value::Bool(false))),
            _ => err(format!("bad boolean {payload:?}")),
        },
        "I" => payload
            .parse::<i64>()
            .map(|i| GqlValue::Scalar(Value::Int(i)))
            .map_err(|e| CodecError(format!("bad integer {payload:?}: {e}"))),
        "F" => {
            if payload.len() != 16 {
                return err(format!("bad float bits {payload:?}"));
            }
            u64::from_str_radix(payload, 16)
                .map(|bits| GqlValue::Scalar(Value::Float(f64::from_bits(bits))))
                .map_err(|e| CodecError(format!("bad float bits {payload:?}: {e}")))
        }
        "S" => Ok(GqlValue::Scalar(Value::Str(unesc(payload)?))),
        "E" => Ok(GqlValue::Element(unesc(payload)?)),
        "G" => {
            if payload.is_empty() {
                return Ok(GqlValue::Group(Vec::new()));
            }
            let items: Result<Vec<String>, CodecError> =
                split_group(payload).into_iter().map(unesc).collect();
            Ok(GqlValue::Group(items?))
        }
        "P" => Ok(GqlValue::Path(unesc(payload)?)),
        _ => err(format!("unknown tag {tag:?}")),
    }
}

/// Encodes a whole result table: a column-name header line, then one
/// line per row.
pub fn encode_result(r: &QueryResult) -> String {
    let mut out = String::new();
    for (i, c) in r.columns.iter().enumerate() {
        let sep = if i == 0 { "" } else { "\t" };
        let _ = write!(out, "{sep}{}", Escaped(c, false));
    }
    for row in &r.rows {
        write_row(&mut out, row);
    }
    out
}

/// Decodes a result table. Inverse of [`encode_result`]; ragged rows are
/// a [`CodecError`].
pub fn decode_result(s: &str) -> Result<QueryResult, CodecError> {
    let mut lines = s.split('\n');
    let header = lines.next().unwrap_or("");
    let columns: Vec<String> = if header.is_empty() {
        Vec::new()
    } else {
        header.split('\t').map(unesc).collect::<Result<_, _>>()?
    };
    let mut rows = Vec::new();
    for line in lines {
        let cells: Vec<GqlValue> = if line.is_empty() {
            Vec::new()
        } else {
            line.split('\t')
                .map(decode_value)
                .collect::<Result<_, _>>()?
        };
        if cells.len() != columns.len() {
            return err(format!(
                "row has {} cells for {} columns",
                cells.len(),
                columns.len()
            ));
        }
        rows.push(cells);
    }
    Ok(QueryResult { columns, rows })
}

/// Quotes a CSV field when it contains a separator, quote, or newline.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

impl QueryResult {
    /// The result as RFC-4180-style CSV: a header line of column names,
    /// one line per row. Cells render like the CLI table (elements and
    /// paths by name, groups as `[a,b]`); fields containing separators
    /// are quoted.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let header: Vec<String> = self.columns.iter().map(|c| csv_field(c)).collect();
        out.push_str(&header.join(","));
        for row in &self.rows {
            out.push('\n');
            let cells: Vec<String> = row.iter().map(|c| csv_field(&c.to_string())).collect();
            out.push_str(&cells.join(","));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: GqlValue) {
        let encoded = encode_value(&v);
        assert!(
            !encoded.contains('\t') && !encoded.contains('\n'),
            "structural chars leaked: {encoded:?}"
        );
        assert_eq!(decode_value(&encoded), Ok(v));
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(GqlValue::Scalar(Value::Null));
        roundtrip(GqlValue::Scalar(Value::Bool(true)));
        roundtrip(GqlValue::Scalar(Value::Bool(false)));
        roundtrip(GqlValue::Scalar(Value::Int(i64::MIN)));
        roundtrip(GqlValue::Scalar(Value::Int(i64::MAX)));
        roundtrip(GqlValue::Scalar(Value::str("tab\ttab \\ new\nline,comma")));
        roundtrip(GqlValue::Scalar(Value::str("")));
    }

    #[test]
    fn floats_roundtrip_bit_for_bit() {
        for f in [
            0.0,
            -0.0,
            1.5,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            let encoded = encode_scalar(&Value::Float(f));
            let Ok(Value::Float(back)) = decode_scalar(&encoded) else {
                panic!("not a float: {encoded}");
            };
            assert_eq!(back.to_bits(), f.to_bits(), "{f} mangled");
        }
    }

    #[test]
    fn elements_groups_paths_roundtrip() {
        roundtrip(GqlValue::Element("a4".into()));
        roundtrip(GqlValue::Group(vec![]));
        roundtrip(GqlValue::Group(vec!["t5".into(), "t2".into()]));
        roundtrip(GqlValue::Group(vec!["odd,name".into(), "o\\ther".into()]));
        roundtrip(GqlValue::Path("path(a6,t5,a3,t2,a2)".into()));
    }

    #[test]
    fn malformed_values_are_errors_not_panics() {
        for bad in [
            "",
            "X:1",
            "B:maybe",
            "I:1.5",
            "F:zz",
            "F:3ff",
            "S:trail\\",
            "raw",
            "G:a\\",
        ] {
            assert!(decode_value(bad).is_err(), "{bad:?} decoded");
        }
    }

    #[test]
    fn results_roundtrip() {
        let r = QueryResult {
            columns: vec!["o".into(), "n".into(), "g".into()],
            rows: vec![
                vec![
                    GqlValue::Scalar(Value::str("Ankh-Morpork")),
                    GqlValue::Scalar(Value::Int(5)),
                    GqlValue::Group(vec!["t1".into(), "t2".into()]),
                ],
                vec![
                    GqlValue::Scalar(Value::Null),
                    GqlValue::Scalar(Value::Float(f64::NAN)),
                    GqlValue::Path("path(a1)".into()),
                ],
            ],
        };
        let back = decode_result(&encode_result(&r)).unwrap();
        // NaN cells: compare through Value's total equality (bit-based),
        // which derived PartialEq on QueryResult already uses.
        assert_eq!(back, r);

        let empty = QueryResult {
            columns: vec!["x".into()],
            rows: vec![],
        };
        assert_eq!(decode_result(&encode_result(&empty)).unwrap(), empty);
    }

    #[test]
    fn ragged_rows_are_rejected() {
        assert!(decode_result("a\tb\nI:1").is_err());
    }

    #[test]
    fn csv_escapes_separators() {
        let r = QueryResult {
            columns: vec!["owner".into(), "note".into()],
            rows: vec![vec![
                GqlValue::Scalar(Value::str("Ankh, Morpork")),
                GqlValue::Scalar(Value::str("say \"hi\"")),
            ]],
        };
        assert_eq!(
            r.to_csv(),
            "owner,note\n\"Ankh, Morpork\",\"say \"\"hi\"\"\""
        );
    }
}
