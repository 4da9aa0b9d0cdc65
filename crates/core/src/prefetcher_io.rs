//! Persistence for the expert-correlation table.
//!
//! §8 of the paper: expert selections from the pre-run are "recorded and
//! tabulated in JSON format", and §6.2: online updates are deliberately
//! *not* saved back, "to prevent the prefetching tendencies of other tasks
//! from influencing current tasks". This module provides exactly that
//! lifecycle: serialize the warm-up table once, load it at engine start,
//! never write the drifted in-memory copy back.
//!
//! The format is a small line-oriented text codec (one header line plus one
//! line per non-zero counter) rather than JSON: the workspace builds offline
//! from path dependencies alone (`vendor/` holds a stand-in only for crates
//! the seed code already imported), so it carries no JSON crate, and the
//! table is a pure counter dump with no nesting to express.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use crate::prefetcher::CorrelationTable;

/// Format identifier written on the first line.
const MAGIC: &str = "klotski-correlation-table v1";

/// Errors from parsing a serialized correlation table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The first line is not the expected magic/version header.
    BadHeader(String),
    /// A line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// An index was out of the declared table bounds.
    OutOfBounds {
        /// 1-based line number.
        line: usize,
        /// What overflowed.
        what: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadHeader(h) => write!(f, "unrecognized header {h:?}"),
            CodecError::BadLine { line, content } => {
                write!(f, "unparseable line {line}: {content:?}")
            }
            CodecError::OutOfBounds { line, what } => {
                write!(f, "line {line}: {what} out of bounds")
            }
        }
    }
}

impl Error for CodecError {}

/// Serializes `table` to the text format.
///
/// Layout:
///
/// ```text
/// klotski-correlation-table v1
/// dims <layers> <experts>
/// m <layer> <expert> <count>        # marginal counters
/// t <layer> <prev> <cur> <count>    # transition counters
/// ```
///
/// Zero counters are omitted; lines are emitted in index order so output is
/// canonical (diff-able, hashable).
pub fn serialize_table(table: &CorrelationTable) -> String {
    let layers = table.n_layers();
    let experts = table.n_experts();
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push('\n');
    out.push_str(&format!("dims {layers} {experts}\n"));
    for layer in 0..layers {
        for e in 0..experts as u16 {
            let c = table.marginal_count(layer, e);
            if c > 0 {
                out.push_str(&format!("m {layer} {e} {c}\n"));
            }
        }
    }
    for layer in 0..layers {
        for prev in 0..experts as u16 {
            for cur in 0..experts as u16 {
                let c = table.transition_count(layer, prev, cur);
                if c > 0 {
                    out.push_str(&format!("t {layer} {prev} {cur} {c}\n"));
                }
            }
        }
    }
    out
}

/// Parses a table serialized by [`serialize_table`].
///
/// # Errors
///
/// Returns [`CodecError`] on malformed headers, lines, or out-of-bounds
/// indices. Blank lines and `#` comments are ignored.
pub fn parse_table(text: &str) -> Result<CorrelationTable, CodecError> {
    let mut lines = text.lines().enumerate();
    let header = lines.next().map(|(_, l)| l.trim()).unwrap_or_default();
    if header != MAGIC {
        return Err(CodecError::BadHeader(header.to_owned()));
    }

    fn field<T: FromStr>(
        parts: &mut std::str::SplitWhitespace<'_>,
        line: usize,
        content: &str,
    ) -> Result<T, CodecError> {
        parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| CodecError::BadLine {
                line,
                content: content.to_owned(),
            })
    }

    let mut table: Option<CorrelationTable> = None;
    for (idx, raw) in lines {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tag = parts.next().unwrap_or_default();
        match (tag, &mut table) {
            ("dims", slot) if slot.is_none() => {
                let layers: u32 = field(&mut parts, line_no, line)?;
                let experts: u32 = field(&mut parts, line_no, line)?;
                *slot = Some(CorrelationTable::new(layers, experts));
            }
            ("m", Some(t)) => {
                let layer: u32 = field(&mut parts, line_no, line)?;
                let e: u16 = field(&mut parts, line_no, line)?;
                let count: u64 = field(&mut parts, line_no, line)?;
                if layer >= t.n_layers() || e as u32 >= t.n_experts() {
                    return Err(CodecError::OutOfBounds {
                        line: line_no,
                        what: "marginal index",
                    });
                }
                t.record_marginal(layer, e, count);
            }
            ("t", Some(t)) => {
                let layer: u32 = field(&mut parts, line_no, line)?;
                let prev: u16 = field(&mut parts, line_no, line)?;
                let cur: u16 = field(&mut parts, line_no, line)?;
                let count: u64 = field(&mut parts, line_no, line)?;
                if layer >= t.n_layers()
                    || prev as u32 >= t.n_experts()
                    || cur as u32 >= t.n_experts()
                {
                    return Err(CodecError::OutOfBounds {
                        line: line_no,
                        what: "transition index",
                    });
                }
                t.add_transition(layer, prev, cur, count);
            }
            _ => {
                return Err(CodecError::BadLine {
                    line: line_no,
                    content: line.to_owned(),
                })
            }
        }
    }
    table.ok_or(CodecError::BadHeader("missing dims line".to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski_model::spec::ModelSpec;
    use klotski_model::trace::{GatingModel, TraceConfig};

    fn warmed() -> CorrelationTable {
        let cfg = TraceConfig::for_model(&ModelSpec::mixtral_8x7b(), 4);
        let model = GatingModel::new(&cfg);
        let mut t = CorrelationTable::new(cfg.n_moe_layers, cfg.n_experts);
        t.warm_up(&model, 1024, 9);
        t
    }

    #[test]
    fn round_trip_preserves_every_counter() {
        let t = warmed();
        let text = serialize_table(&t);
        let parsed = parse_table(&text).expect("round trip");
        assert_eq!(parsed.n_layers(), t.n_layers());
        assert_eq!(parsed.n_experts(), t.n_experts());
        assert_eq!(parsed.total_records(), t.total_records());
        for layer in 0..t.n_layers() {
            for prev in 0..t.n_experts() as u16 {
                for cur in 0..t.n_experts() as u16 {
                    assert_eq!(
                        parsed.transition_count(layer, prev, cur),
                        t.transition_count(layer, prev, cur),
                        "({layer},{prev},{cur})"
                    );
                }
            }
        }
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let t = warmed();
        let parsed = parse_table(&serialize_table(&t)).unwrap();
        let prev: Vec<u16> = (0..64).map(|i| (i % 8) as u16).collect();
        for layer in 1..t.n_layers() {
            assert_eq!(parsed.predict(layer, &prev, 2), t.predict(layer, &prev, 2));
        }
    }

    #[test]
    fn serialization_is_canonical() {
        let t = warmed();
        assert_eq!(serialize_table(&t), serialize_table(&t));
        let reparsed = parse_table(&serialize_table(&t)).unwrap();
        assert_eq!(serialize_table(&reparsed), serialize_table(&t));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = format!("{MAGIC}\n\n# a comment\ndims 2 4\nm 0 1 7\n\nt 1 0 2 3\n");
        let t = parse_table(&text).unwrap();
        assert_eq!(t.marginal_count(0, 1), 7);
        assert_eq!(t.transition_count(1, 0, 2), 3);
    }

    #[test]
    fn errors_are_specific() {
        assert!(matches!(
            parse_table("nonsense\n"),
            Err(CodecError::BadHeader(_))
        ));
        let bad_line = format!("{MAGIC}\ndims 2 4\nq 1 2 3\n");
        assert!(matches!(
            parse_table(&bad_line),
            Err(CodecError::BadLine { line: 3, .. })
        ));
        let oob = format!("{MAGIC}\ndims 2 4\nm 9 0 1\n");
        assert!(matches!(
            parse_table(&oob),
            Err(CodecError::OutOfBounds { .. })
        ));
        let display = parse_table("x").unwrap_err().to_string();
        assert!(display.contains("unrecognized header"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Arbitrary sparse counter sets survive a serialize → parse cycle.
        #[test]
        fn arbitrary_tables_round_trip(
            records in proptest::collection::vec((0u32..4, 0u16..6, 0u16..6, 1u64..1000), 0..100),
        ) {
            let mut t = CorrelationTable::new(4, 6);
            for &(layer, prev, cur, count) in &records {
                t.add_transition(layer, prev, cur, count);
                t.record_marginal(layer, cur, count);
            }
            let parsed = parse_table(&serialize_table(&t)).unwrap();
            for &(layer, prev, cur, _) in &records {
                prop_assert_eq!(
                    parsed.transition_count(layer, prev, cur),
                    t.transition_count(layer, prev, cur)
                );
            }
            prop_assert_eq!(parsed.total_records(), t.total_records());
        }
    }
}
