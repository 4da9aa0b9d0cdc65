//! The rule engine: five invariant checks over lexed source, with a
//! per-line allowlist.
//!
//! Directives are ordinary (non-doc) `//` comments:
//!
//! * `analyze: no_alloc` — the next brace-delimited block must not
//!   lexically contain allocation tokens.
//! * `analyze: allow(<rule>) -- <justification>` — suppresses a finding
//!   of `<rule>` on the same line or the line directly below. The
//!   justification is mandatory, unknown rule names are errors, and an
//!   allow that suppresses nothing is itself reported (stale allows rot).

use crate::lexer::{lex, LexedLine};

/// Rule identifiers, also the names accepted by `allow(...)`.
pub const RULE_DETERMINISM: &str = "determinism";
pub const RULE_BIT_EXACT: &str = "bit_exact";
pub const RULE_UNSAFE: &str = "unsafe_hygiene";
pub const RULE_NO_ALLOC: &str = "no_alloc";
pub const RULE_PANIC: &str = "panic";
/// Malformed or stale directives are findings of this pseudo-rule.
pub const RULE_DIRECTIVE: &str = "directive";

const ALLOWABLE_RULES: &[&str] = &[RULE_DETERMINISM, RULE_BIT_EXACT, RULE_UNSAFE, RULE_NO_ALLOC];

/// Unordered-iteration and wall-clock tokens. Simulated time
/// (`klotski-sim`) is the sanctioned clock; everything else must be
/// reproducible run-to-run.
const DETERMINISM_TOKENS: &[&str] = &["HashMap", "HashSet", "Instant::now", "SystemTime"];

/// Fused multiply-add contracts away the intermediate rounding that the
/// scalar reference performs, so any use breaks scalar==SIMD byte
/// equality in the numeric crates.
const BIT_EXACT_TOKENS: &[&str] = &["mul_add", "fmadd", "vfma"];

/// Tokens that always allocate. `resize`/`reserve`/`extend` are *not*
/// listed: against pre-reserved buffers they are amortized-free, which
/// is exactly the pattern the hot paths use (and the alloc-pin test
/// verifies the steady state dynamically).
const ALLOC_TOKENS: &[&str] = &[
    "Vec::new",
    "vec!",
    ".to_vec",
    ".collect",
    "Box::new",
    "format!",
    "String::from",
    "String::new",
    ".to_string",
    ".to_owned",
    ".clone()",
    "with_capacity",
    "Matrix::zeros",
];

/// How many lines above an `unsafe` token a `SAFETY:` comment may sit.
const SAFETY_WINDOW: usize = 10;

/// How far below its marker a `no_alloc` block may open.
const NO_ALLOC_SEARCH: usize = 20;

/// One reported violation. Ordering is the report ordering.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub path: String,
    /// 1-based; 0 marks a whole-crate finding.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

/// Per-file analysis result.
#[derive(Debug, Default)]
pub struct FileReport {
    pub findings: Vec<Finding>,
    /// Non-test `.unwrap()` / `.expect(` sites, for the panic ratchet.
    pub panic_sites: usize,
    /// Non-test, non-blank code lines — the per-crate size the analyzer
    /// reports. Comment-only lines do not count, so prose neither grows
    /// nor shrinks a crate.
    pub code_lines: usize,
}

enum Directive {
    NoAlloc,
    Allow { rule: String },
}

struct Allow {
    line: usize,
    rule: String,
    used: bool,
}

/// Runs every per-file rule over one source file. `rel_path` is the
/// workspace-relative path with `/` separators; it selects which rules
/// apply (e.g. bit-exactness only guards the numeric crates).
pub fn analyze_source(rel_path: &str, src: &str) -> FileReport {
    let lines = lex(src);
    let in_test = test_regions(&lines);
    let mut rep = FileReport::default();

    // Pass 1: directives.
    let mut allows: Vec<Allow> = Vec::new();
    let mut no_alloc_markers: Vec<usize> = Vec::new();
    for (l, line) in lines.iter().enumerate() {
        match parse_directive(&line.comment) {
            None => {}
            Some(Ok(Directive::NoAlloc)) => no_alloc_markers.push(l),
            Some(Ok(Directive::Allow { rule })) => allows.push(Allow {
                line: l,
                rule,
                used: false,
            }),
            Some(Err(msg)) => rep
                .findings
                .push(finding(rel_path, l + 1, RULE_DIRECTIVE, msg)),
        }
    }

    // A finding at line `l` (0-based) is suppressed by an allow on the
    // same line or the line directly above.
    let suppress = |allows: &mut Vec<Allow>, l: usize, rule: &str| -> bool {
        for a in allows.iter_mut() {
            if a.rule == rule && (a.line == l || a.line + 1 == l) {
                a.used = true;
                return true;
            }
        }
        false
    };

    // Pass 2: token rules.
    let bit_exact_scope =
        rel_path.starts_with("crates/tensor/") || rel_path.starts_with("crates/moe/");
    for (l, line) in lines.iter().enumerate() {
        if !in_test[l] {
            for tok in DETERMINISM_TOKENS {
                if has_token(&line.code, tok) && !suppress(&mut allows, l, RULE_DETERMINISM) {
                    rep.findings.push(finding(
                        rel_path,
                        l + 1,
                        RULE_DETERMINISM,
                        format!("`{tok}` in non-test code: unordered iteration / wall-clock reads make runs non-reproducible"),
                    ));
                }
            }
            rep.panic_sites += count_token(&line.code, ".unwrap()");
            rep.panic_sites += count_token(&line.code, ".expect(");
            if !line.code.trim().is_empty() {
                rep.code_lines += 1;
            }
        }
        if bit_exact_scope {
            for tok in BIT_EXACT_TOKENS {
                if has_token(&line.code, tok) && !suppress(&mut allows, l, RULE_BIT_EXACT) {
                    rep.findings.push(finding(
                        rel_path,
                        l + 1,
                        RULE_BIT_EXACT,
                        format!("`{tok}` fuses the intermediate rounding and breaks scalar==SIMD byte equality"),
                    ));
                }
            }
        }
        if has_token(&line.code, "unsafe") {
            let lo = l.saturating_sub(SAFETY_WINDOW);
            let documented = lines[lo..=l]
                .iter()
                .any(|ln| ln.comment.contains("SAFETY:"));
            if !documented && !suppress(&mut allows, l, RULE_UNSAFE) {
                rep.findings.push(finding(
                    rel_path,
                    l + 1,
                    RULE_UNSAFE,
                    format!("`unsafe` without a `// SAFETY:` comment on the same line or the {SAFETY_WINDOW} lines above"),
                ));
            }
        }
    }

    // Pass 3: no_alloc blocks.
    for &m in &no_alloc_markers {
        match block_span(&lines, m) {
            None => rep.findings.push(finding(
                rel_path,
                m + 1,
                RULE_DIRECTIVE,
                format!(
                    "`analyze: no_alloc` marker with no `{{` block within {NO_ALLOC_SEARCH} lines"
                ),
            )),
            Some((start, end)) => {
                for (l, line) in lines.iter().enumerate().take(end + 1).skip(start) {
                    for tok in ALLOC_TOKENS {
                        if has_token(&line.code, tok) && !suppress(&mut allows, l, RULE_NO_ALLOC) {
                            rep.findings.push(finding(
                                rel_path,
                                l + 1,
                                RULE_NO_ALLOC,
                                format!(
                                    "`{tok}` allocates inside a block marked `analyze: no_alloc`"
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }

    // Pass 4: stale allows.
    for a in &allows {
        if !a.used {
            rep.findings.push(finding(
                rel_path,
                a.line + 1,
                RULE_DIRECTIVE,
                format!(
                    "stale `allow({})`: it suppresses nothing on this or the next line",
                    a.rule
                ),
            ));
        }
    }

    rep.findings.sort();
    rep
}

fn finding(path: &str, line: usize, rule: &'static str, message: impl Into<String>) -> Finding {
    Finding {
        path: path.to_string(),
        line,
        rule,
        message: message.into(),
    }
}

fn parse_directive(comment: &str) -> Option<Result<Directive, String>> {
    let at = comment.find("analyze:")?;
    let rest = comment[at + "analyze:".len()..].trim_start();
    if rest.starts_with("no_alloc") {
        return Some(Ok(Directive::NoAlloc));
    }
    let Some(inner) = rest.strip_prefix("allow(") else {
        return Some(Err(format!(
            "unrecognized directive `analyze: {}` (expected `no_alloc` or `allow(<rule>) -- <justification>`)",
            rest.split_whitespace().next().unwrap_or("")
        )));
    };
    let Some(close) = inner.find(')') else {
        return Some(Err("unclosed `allow(`".to_string()));
    };
    let rule = inner[..close].trim().to_string();
    if !ALLOWABLE_RULES.contains(&rule.as_str()) {
        return Some(Err(if rule == RULE_PANIC {
            "rule `panic` is ratcheted per crate and cannot be allowlisted per line".to_string()
        } else {
            format!("unknown rule `{rule}` in `allow(...)`")
        }));
    }
    let tail = inner[close + 1..].trim_start();
    let justified = tail
        .strip_prefix("--")
        .map(str::trim)
        .is_some_and(|j| !j.is_empty());
    if !justified {
        return Some(Err(format!(
            "`allow({rule})` without a justification (expected `-- <why this is sound>`)"
        )));
    }
    Some(Ok(Directive::Allow { rule }))
}

/// Marks lines belonging to `#[cfg(test)]` items (and bare `#[test]`
/// functions) by brace matching from the attribute.
fn test_regions(lines: &[LexedLine]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let code = &lines[i].code;
        let is_marker = !mask[i]
            && (code.contains("#[cfg(test)]")
                || code.contains("#[cfg(all(test")
                || code.contains("#[test]"));
        if !is_marker {
            i += 1;
            continue;
        }
        let mut depth: i32 = 0;
        let mut opened = false;
        let mut j = i;
        'scan: while j < lines.len() {
            mask[j] = true;
            for ch in lines[j].code.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth <= 0 {
                            break 'scan;
                        }
                    }
                    // `#[cfg(test)] mod tests;` declares an out-of-line
                    // module: nothing more to mask in this file.
                    ';' if !opened => break 'scan,
                    _ => {}
                }
            }
            j += 1;
        }
        i = j + 1;
    }
    mask
}

/// Finds the brace block a `no_alloc` marker on line `m` attaches to:
/// the first `{` on or after the marker line, matched to its close.
/// Returns inclusive 0-based (start, end) lines.
fn block_span(lines: &[LexedLine], m: usize) -> Option<(usize, usize)> {
    let limit = (m + NO_ALLOC_SEARCH).min(lines.len().saturating_sub(1));
    let (start, col) = (m..=limit).find_map(|j| lines[j].code.find('{').map(|p| (j, p)))?;
    let mut depth: i32 = 0;
    for (k, line) in lines.iter().enumerate().skip(start) {
        let code = &line.code;
        let chars: Box<dyn Iterator<Item = char>> = if k == start {
            Box::new(code.chars().skip(code[..col].chars().count()))
        } else {
            Box::new(code.chars())
        };
        for ch in chars {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((start, k));
                    }
                }
                _ => {}
            }
        }
    }
    // Unclosed block: treat everything to EOF as the span rather than
    // silently checking nothing.
    Some((start, lines.len().saturating_sub(1)))
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Word-boundary-aware substring match: when the token starts or ends
/// with an identifier character, the neighbouring source character must
/// not extend the identifier (`MyHashMapLike` does not match `HashMap`).
fn has_token(code: &str, tok: &str) -> bool {
    count_token(code, tok) > 0
}

fn count_token(code: &str, tok: &str) -> usize {
    let first_ident = tok.bytes().next().is_some_and(is_ident_byte);
    let last_ident = tok.bytes().last().is_some_and(is_ident_byte);
    let bytes = code.as_bytes();
    let mut n = 0;
    let mut from = 0;
    while let Some(pos) = code[from..].find(tok) {
        let p = from + pos;
        let before_ok = !first_ident || p == 0 || !is_ident_byte(bytes[p - 1]);
        let end = p + tok.len();
        let after_ok = !last_ident || end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            n += 1;
        }
        from = p + tok.len();
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(path: &str, src: &str) -> Vec<(usize, &'static str)> {
        analyze_source(path, src)
            .findings
            .into_iter()
            .map(|f| (f.line, f.rule))
            .collect()
    }

    #[test]
    fn determinism_catches_hashmap_outside_tests() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = todo(); }\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        let got = rules_of("crates/core/src/x.rs", src);
        assert_eq!(got, vec![(1, RULE_DETERMINISM), (2, RULE_DETERMINISM)]);
    }

    #[test]
    fn determinism_catches_wall_clock() {
        let got = rules_of(
            "crates/serve/src/x.rs",
            "fn f() { let t = Instant::now(); }\n",
        );
        assert_eq!(got, vec![(1, RULE_DETERMINISM)]);
    }

    #[test]
    fn determinism_ignores_strings_and_docs() {
        let src = "/// A HashMap-like structure, SystemTime notes.\nfn f() { let s = \"HashMap SystemTime\"; }\n";
        assert!(rules_of("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_suppresses_and_is_consumed() {
        let src = "// analyze: allow(determinism) -- timing site is reported only\nlet t = Instant::now();\n";
        assert!(rules_of("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_without_justification_is_an_error() {
        let src = "// analyze: allow(determinism)\nlet t = Instant::now();\n";
        let got = rules_of("crates/core/src/x.rs", src);
        assert!(got.contains(&(1, RULE_DIRECTIVE)), "{got:?}");
        assert!(
            got.contains(&(2, RULE_DETERMINISM)),
            "unjustified allow must not suppress"
        );
    }

    #[test]
    fn stale_allow_is_an_error() {
        let src = "// analyze: allow(determinism) -- nothing here needs it\nlet x = 1;\n";
        assert_eq!(
            rules_of("crates/core/src/x.rs", src),
            vec![(1, RULE_DIRECTIVE)]
        );
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let src = "// analyze: allow(speed) -- gotta go fast\nlet x = 1;\n";
        assert_eq!(
            rules_of("crates/core/src/x.rs", src),
            vec![(1, RULE_DIRECTIVE)]
        );
    }

    #[test]
    fn bit_exact_scoped_to_numeric_crates() {
        let src = "fn f(a: f32) -> f32 { a.mul_add(2.0, 1.0) }\n";
        assert_eq!(
            rules_of("crates/tensor/src/x.rs", src),
            vec![(1, RULE_BIT_EXACT)]
        );
        assert_eq!(
            rules_of("crates/moe/src/x.rs", src),
            vec![(1, RULE_BIT_EXACT)]
        );
        assert!(rules_of("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn unsafe_requires_safety_comment_within_window() {
        let ok = "// SAFETY: bounds checked by caller.\n#[inline]\nunsafe fn f() {}\n";
        assert!(rules_of("crates/tensor/src/x.rs", ok).is_empty());
        let bad = "unsafe fn f() {}\n";
        assert_eq!(
            rules_of("crates/tensor/src/x.rs", bad),
            vec![(1, RULE_UNSAFE)]
        );
        let doc_only =
            "/// # Safety\n/// SAFETY: in a doc comment does not count.\nunsafe fn f() {}\n";
        assert_eq!(
            rules_of("crates/tensor/src/x.rs", doc_only),
            vec![(3, RULE_UNSAFE)]
        );
    }

    #[test]
    fn no_alloc_block_flags_allocation_tokens() {
        let src = "// analyze: no_alloc\nfn hot(\n    xs: &[f32],\n) {\n    let v = vec![0.0; 8];\n    let w = xs.to_vec();\n}\nfn cold() { let v = vec![1]; }\n";
        let got = rules_of("crates/tensor/src/x.rs", src);
        assert_eq!(got, vec![(5, RULE_NO_ALLOC), (6, RULE_NO_ALLOC)]);
    }

    #[test]
    fn no_alloc_respects_block_extent_and_allows() {
        let src = "// analyze: no_alloc\nfn hot() {\n    // analyze: allow(no_alloc) -- one-time growth, amortized away\n    let v = Vec::new();\n}\n";
        assert!(rules_of("crates/tensor/src/x.rs", src).is_empty());
    }

    #[test]
    fn no_alloc_marker_without_block_is_an_error() {
        let src = "// analyze: no_alloc\nconst X: usize = 3;\n";
        assert_eq!(
            rules_of("crates/tensor/src/x.rs", src),
            vec![(1, RULE_DIRECTIVE)]
        );
    }

    #[test]
    fn panic_sites_counted_outside_tests_only() {
        let src = "fn f() { x.unwrap(); y.expect(\"msg\"); z.unwrap_or(0); }\n#[cfg(test)]\nmod tests {\n    fn g() { q.unwrap(); }\n}\n";
        let rep = analyze_source("crates/core/src/x.rs", src);
        assert_eq!(
            rep.panic_sites, 2,
            "unwrap_or must not count, test unwraps must not count"
        );
    }

    #[test]
    fn code_lines_skip_tests_blanks_and_comment_only_lines() {
        let src = "//! Doc header.\nfn f() {\n    let x = 1;\n}\n\n// a comment\n#[cfg(test)]\nmod tests {\n    fn g() {}\n}\n";
        let rep = analyze_source("crates/core/src/x.rs", src);
        assert_eq!(
            rep.code_lines, 3,
            "only `fn f() {{`, its body line, and its `}}` are non-test code"
        );
    }

    #[test]
    fn token_boundaries_respected() {
        assert!(!has_token("struct MyHashMapLike;", "HashMap"));
        assert!(has_token("HashMap::new()", "HashMap"));
        assert_eq!(count_token("a.unwrap_or(b.unwrap())", ".unwrap()"), 1);
    }

    #[test]
    fn bare_test_attribute_masks_function() {
        let src = "#[test]\nfn check() {\n    let m = HashMap::new();\n    m.unwrap();\n}\n";
        let rep = analyze_source("crates/core/src/x.rs", src);
        assert!(rep.findings.is_empty());
        assert_eq!(rep.panic_sites, 0);
    }
}
