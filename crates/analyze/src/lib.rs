//! `klotski-analyze` — a workspace invariant checker.
//!
//! Klotski's experiments lean on three properties the compiler cannot
//! enforce: runs are *deterministic* (same inputs → same schedule, same
//! tokens), the compute kernels are *bit-exact* across backends, and the
//! steady-state decode path is *allocation-free*. This crate is a small,
//! dependency-free static analyzer that walks the workspace's own
//! sources and checks the lexical footprint of those invariants:
//!
//! 1. **determinism** — no `HashMap`/`HashSet`/`Instant::now`/
//!    `SystemTime` in non-test library code (ordered collections and
//!    simulated time only).
//! 2. **bit_exact** — no fused multiply-add (`mul_add`, FMA intrinsics)
//!    in `crates/tensor` or `crates/moe`.
//! 3. **unsafe_hygiene** — every `unsafe` carries a nearby `// SAFETY:`
//!    comment.
//! 4. **no_alloc** — blocks marked `// analyze: no_alloc` contain no
//!    allocation tokens (backed dynamically by the alloc-pin test).
//! 5. **panic** — per-crate ratcheted ceilings on the number of
//!    `.unwrap()`/`.expect(` sites in non-test code (see [`ratchet`]).
//!
//! Genuine exceptions are allowlisted in place with
//! `analyze: allow(<rule>) -- <justification>` comments; stale or
//! unjustified allows are themselves findings. Run it with
//! `cargo run -p klotski-analyze` (add `--deny` to exit nonzero on any
//! finding, as CI does).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod ratchet;
pub mod rules;

pub use rules::{analyze_source, Finding};

/// Panic-ratchet standing for one crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrateCount {
    pub krate: String,
    /// Measured non-test unwrap/expect sites.
    pub sites: usize,
    /// Non-test, non-blank code lines.
    pub code_lines: usize,
    /// Ratchet site ceiling, if the crate is registered.
    pub ceiling: Option<usize>,
}

/// Whole-workspace analysis result.
#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: usize,
    /// All findings, sorted by (path, line, rule, message).
    pub findings: Vec<Finding>,
    /// Per-crate panic counts, sorted by crate key.
    pub panics: Vec<CrateCount>,
}

impl Report {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// The source directories the analyzer covers: the root facade plus
/// every crate under `crates/` (including this one — the analyzer must
/// hold itself to the same rules). Vendored stand-ins are third-party
/// idiom and stay out of scope.
pub fn source_roots(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut roots = Vec::new();
    let facade = root.join("src");
    if facade.is_dir() {
        roots.push(facade);
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut names: Vec<PathBuf> = fs::read_dir(&crates)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        names.sort();
        for dir in names {
            let src = dir.join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    Ok(roots)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Workspace-relative path with `/` separators, for stable reports
/// across platforms.
fn rel_path(root: &Path, p: &Path) -> String {
    let rel = p.strip_prefix(root).unwrap_or(p);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Crate key for the ratchet: `crates/<key>/...`, else the root facade.
fn crate_key(rel: &str) -> String {
    match rel.strip_prefix("crates/") {
        Some(rest) => rest.split('/').next().unwrap_or("crates").to_string(),
        None => "klotski".to_string(),
    }
}

/// Runs the full analysis over the workspace rooted at `root`.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for src_root in source_roots(root)? {
        collect_rs(&src_root, &mut files)?;
    }

    let mut report = Report::default();
    let mut panic_counts: Vec<(String, usize, usize)> = Vec::new();
    for file in &files {
        let rel = rel_path(root, file);
        let src = fs::read_to_string(file)?;
        let file_rep = rules::analyze_source(&rel, &src);
        report.findings.extend(file_rep.findings);
        report.files_scanned += 1;
        let key = crate_key(&rel);
        match panic_counts.iter_mut().find(|(k, _, _)| *k == key) {
            Some((_, n, loc)) => {
                *n += file_rep.panic_sites;
                *loc += file_rep.code_lines;
            }
            None => panic_counts.push((key, file_rep.panic_sites, file_rep.code_lines)),
        }
    }

    panic_counts.sort();
    for (krate, sites, code_lines) in panic_counts {
        let ceiling = ratchet::ceiling(&krate);
        match ceiling {
            None => report.findings.push(Finding {
                path: format!("crates/{krate}"),
                line: 0,
                rule: rules::RULE_PANIC,
                message: format!(
                    "crate `{krate}` has no panic-ratchet ceiling; add it to crates/analyze/src/ratchet.rs"
                ),
            }),
            Some(max) if sites > max => report.findings.push(Finding {
                path: format!("crates/{krate}"),
                line: 0,
                rule: rules::RULE_PANIC,
                message: format!(
                    "crate `{krate}` has {sites} non-test unwrap/expect sites, \
                     over its ratchet ceiling of {max}"
                ),
            }),
            Some(_) => {}
        }
        report.panics.push(CrateCount {
            krate,
            sites,
            code_lines,
            ceiling,
        });
    }

    report.findings.sort();
    Ok(report)
}

/// Renders the report in its stable, diff-friendly text form.
pub fn render(report: &Report) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "klotski-analyze: {} files scanned, {} finding(s)\n",
        report.files_scanned,
        report.findings.len()
    ));
    out.push_str("panic ratchet (non-test unwrap/expect sites / ceiling, non-test lines):\n");
    for c in &report.panics {
        match c.ceiling {
            Some(max) => out.push_str(&format!(
                "  {:<12} {:>3} / {:<3} {:>5} lines\n",
                c.krate, c.sites, max, c.code_lines
            )),
            None => out.push_str(&format!(
                "  {:<12} {:>3} / (unregistered) {:>5} lines\n",
                c.krate, c.sites, c.code_lines
            )),
        }
    }
    for f in &report.findings {
        if f.line == 0 {
            out.push_str(&format!("{}: [{}] {}\n", f.path, f.rule, f.message));
        } else {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.path, f.line, f.rule, f.message
            ));
        }
    }
    out
}
