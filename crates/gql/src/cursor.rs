//! Resumable iteration over a [`QueryResult`] — the server side of
//! cursor-based result streaming.
//!
//! A [`ResultCursor`] owns a materialized result table and hands it out
//! in order, chunk by chunk, so a result does not have to fit in one
//! wire frame and a slow consumer does not have to hold the producer.
//! Chunking is **byte-budgeted**: [`ResultCursor::fetch_bounded`] never
//! emits a chunk whose wire encoding (per [`crate::codec`]) would
//! exceed the caller's budget, which is what lets gpmld stream tables
//! far larger than its 16 MiB frame cap without ever building an
//! oversized frame.
//!
//! The cursor is deliberately dumb: it does not re-execute anything and
//! it preserves row order exactly, so the concatenation of every chunk
//! is bit-for-bit the original table (the server's cursor proptests
//! assert this).

use std::collections::VecDeque;

use crate::codec;
use crate::{GqlValue, QueryResult};

/// A result table being consumed front-to-back in chunks.
#[derive(Debug)]
pub struct ResultCursor {
    columns: Vec<String>,
    rows: VecDeque<Vec<GqlValue>>,
    origin: u64,
}

impl ResultCursor {
    /// Wraps a materialized result for chunked consumption.
    pub fn new(result: QueryResult) -> ResultCursor {
        ResultCursor {
            columns: result.columns,
            rows: result.rows.into(),
            origin: 0,
        }
    }

    /// Tags the cursor with an opaque caller token (gpmld stores the
    /// originating request's trace id here, so later `FETCH` drains can
    /// credit their encode/stream time back to the request that produced
    /// the table). 0 means untagged.
    pub fn set_origin(&mut self, origin: u64) {
        self.origin = origin;
    }

    /// The opaque origin tag set by [`ResultCursor::set_origin`].
    pub fn origin(&self) -> u64 {
        self.origin
    }

    /// The table's column names (every chunk carries the same header).
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Rows not yet fetched.
    pub fn remaining(&self) -> usize {
        self.rows.len()
    }

    /// `true` once every row has been fetched.
    pub fn is_done(&self) -> bool {
        self.rows.is_empty()
    }

    /// Takes up to `n` rows off the front, in order.
    pub fn fetch(&mut self, n: usize) -> QueryResult {
        self.fetch_bounded(n, usize::MAX)
    }

    /// Takes up to `n` rows off the front, stopping early before any row
    /// that would push the chunk's encoded size past `byte_budget`.
    ///
    /// A single row larger than the whole budget yields an **empty**
    /// chunk with the row still queued — the caller can tell (empty and
    /// `!is_done()`) and report the oversized row instead of silently
    /// dropping it.
    pub fn fetch_bounded(&mut self, n: usize, byte_budget: usize) -> QueryResult {
        let mut rows = Vec::new();
        let mut spent = 0usize;
        let mut buf = String::new();
        while rows.len() < n {
            let Some(front) = self.rows.front() else {
                break;
            };
            // The row's exact size inside an encoded result table.
            buf.clear();
            codec::write_row(&mut buf, front);
            let cost = buf.len();
            if spent.saturating_add(cost) > byte_budget {
                break;
            }
            spent += cost;
            rows.push(self.rows.pop_front().expect("front() was Some"));
        }
        QueryResult {
            columns: self.columns.clone(),
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use property_graph::Value;

    fn table(n: usize) -> QueryResult {
        QueryResult {
            columns: vec!["i".into(), "s".into()],
            rows: (0..n)
                .map(|i| {
                    vec![
                        GqlValue::Scalar(Value::Int(i as i64)),
                        GqlValue::Scalar(Value::str(format!("row-{i}\twith\ttabs"))),
                    ]
                })
                .collect(),
        }
    }

    #[test]
    fn chunks_concatenate_to_the_original_in_order() {
        for n in [1, 3, 64] {
            let original = table(10);
            let mut cursor = ResultCursor::new(original.clone());
            let mut rows = Vec::new();
            loop {
                let chunk = cursor.fetch(n);
                assert_eq!(chunk.columns, original.columns);
                assert!(chunk.rows.len() <= n);
                if chunk.rows.is_empty() {
                    break;
                }
                rows.extend(chunk.rows);
            }
            assert!(cursor.is_done());
            assert_eq!(rows, original.rows);
        }
    }

    #[test]
    fn byte_budget_is_respected_and_exact() {
        let original = table(50);
        let mut cursor = ResultCursor::new(original.clone());
        let budget = 200;
        let mut rows = Vec::new();
        while !cursor.is_done() {
            let chunk = cursor.fetch_bounded(usize::MAX, budget);
            assert!(!chunk.rows.is_empty(), "budget fits at least one row");
            // The encoded chunk body (rows only) fits the budget.
            let encoded = codec::encode_result(&chunk);
            let header_len = encoded.split('\n').next().unwrap().len();
            assert!(encoded.len() - header_len <= budget, "{}", encoded.len());
            rows.extend(chunk.rows);
        }
        assert_eq!(rows, original.rows);
    }

    #[test]
    fn oversized_single_row_yields_empty_chunk_not_loss() {
        let mut cursor = ResultCursor::new(table(2));
        let chunk = cursor.fetch_bounded(10, 1);
        assert!(chunk.rows.is_empty());
        assert!(!cursor.is_done());
        assert_eq!(cursor.remaining(), 2);
    }
}
