#![forbid(unsafe_code)]
//! `skq-lint`: the workspace's own rule engine.
//!
//! Clippy enforces Rust-level hygiene; this crate enforces *repo-level*
//! contracts that no general-purpose linter can know about — the
//! request-path no-panic policy, the `skq_` metrics registry discipline,
//! fail-point registry coverage, `ResultSink` propagation, and the
//! paper-invariant audit hooks. It runs as `cargo run -p skq-lint` and
//! as a CI gate, and it is std-only (like `skq-obs`) so the zero-dep
//! gate `cargo tree -p skq-lint` proves the auditor can never drag a
//! dependency into the workspace it audits.
//!
//! Architecture: [`Workspace`] is an immutable snapshot of the source
//! tree (loadable from disk or from memory, so every rule is testable
//! against tiny fixtures); [`lex`] turns each file into a lossless,
//! span-accurate token stream exactly once; [`scan::SourceFile`] derives
//! the masked text view from the tokens and tracks `#[cfg(test)]`
//! regions; [`rules`] holds one function per line-oriented rule ID and
//! [`conc`] the token-level concurrency pass (L15–L18). Findings flow
//! through inline suppressions (`// skq-lint: allow(Lxx)
//! <justification>`) and the checked-in baseline (`lint-baseline.txt`)
//! before they fail the build.

pub mod conc;
pub mod lex;
pub mod rules;
pub mod scan;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use scan::SourceFile;

/// Version of the rule set / engine, embedded in `--json` output so
/// downstream consumers (CI artifacts, dashboards) can tell which
/// contract produced a findings file. Bump when rules are added,
/// removed, or change meaning.
///
/// History: 1 = masked-line engine, L01–L14; 2 = token-stream engine,
/// L01–L18; 3 = L02 retired (the query surface it kept in step is one
/// trait now).
pub const RULE_VERSION: u32 = 3;

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule ID (`"L01"` … `"L11"`), listed in [`rules::RULES`].
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {} {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// An immutable snapshot of the source tree the rules run over.
pub struct Workspace {
    /// Every `.rs` file, scanned.
    pub files: Vec<SourceFile>,
    /// Non-Rust documents some rules cross-check (keyed by
    /// workspace-relative path; currently only `DESIGN.md`).
    pub docs: BTreeMap<String, String>,
}

/// Directories never scanned: build output, vendored stand-ins, VCS.
const SKIP_DIRS: &[&str] = &["target", "third_party", ".git", ".github"];

/// Relative-path fragments that mark a file as wholly test code.
fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/fixtures/")
}

impl Workspace {
    /// Loads every `.rs` file (plus `DESIGN.md`) under `root`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from walking or reading the tree.
    pub fn load(root: &Path) -> io::Result<Self> {
        let mut files = Vec::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            let mut entries: Vec<_> = fs::read_dir(&dir)?.collect::<io::Result<_>>()?;
            entries.sort_by_key(std::fs::DirEntry::file_name);
            for entry in entries {
                let path = entry.path();
                let name = entry.file_name().to_string_lossy().into_owned();
                if path.is_dir() {
                    if !SKIP_DIRS.contains(&name.as_str()) {
                        stack.push(path);
                    }
                } else if name.ends_with(".rs") {
                    let rel = rel_path(root, &path);
                    let raw = fs::read_to_string(&path)?;
                    let force_test = is_test_path(&rel);
                    files.push(SourceFile::new(rel, raw, force_test));
                }
            }
        }
        files.sort_by(|a, b| a.path.cmp(&b.path));
        let mut docs = BTreeMap::new();
        let design = root.join("DESIGN.md");
        if design.is_file() {
            docs.insert("DESIGN.md".to_string(), fs::read_to_string(design)?);
        }
        Ok(Self { files, docs })
    }

    /// Builds a snapshot from in-memory `(path, contents)` pairs —
    /// the fixture entry point. Paths ending in `.md` become docs.
    pub fn from_memory(sources: &[(&str, &str)]) -> Self {
        let mut files = Vec::new();
        let mut docs = BTreeMap::new();
        for (path, contents) in sources {
            if path.ends_with(".md") {
                docs.insert((*path).to_string(), (*contents).to_string());
            } else {
                files.push(SourceFile::new(
                    (*path).to_string(),
                    (*contents).to_string(),
                    is_test_path(path),
                ));
            }
        }
        Self { files, docs }
    }

    /// The scanned file at `path`, if present.
    pub fn file(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Runs every rule over the snapshot. Raw output: suppressions and the
/// baseline are applied by [`apply_suppressions`] / [`Baseline`].
pub fn run_rules(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (_, _, run) in rules::RULES {
        run(ws, &mut findings);
    }
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    findings
}

/// Splits findings into `(active, suppressed)` by honouring inline
/// `// skq-lint: allow(Lxx) <justification>` comments on the finding's
/// line or the line directly above. A suppression with no justification
/// text after the closing parenthesis suppresses nothing.
pub fn apply_suppressions(ws: &Workspace, findings: Vec<Finding>) -> (Vec<Finding>, Vec<Finding>) {
    findings.into_iter().partition(|f| !is_suppressed(ws, f))
}

fn is_suppressed(ws: &Workspace, finding: &Finding) -> bool {
    let Some(file) = ws.file(&finding.path) else {
        return false;
    };
    let lines = [finding.line, finding.line.saturating_sub(1)];
    for line in lines {
        if line == 0 || line > file.line_starts.len() {
            continue;
        }
        if suppresses(file.line_text(line), finding.rule) {
            return true;
        }
    }
    false
}

/// Whether `text` carries a justified `skq-lint: allow(...)` marker
/// covering `rule`.
fn suppresses(text: &str, rule: &str) -> bool {
    let Some(at) = text.find("skq-lint: allow(") else {
        return false;
    };
    let rest = &text[at + "skq-lint: allow(".len()..];
    let Some(close) = rest.find(')') else {
        return false;
    };
    let listed = rest[..close].split(',').any(|r| r.trim() == rule);
    let justified = !rest[close + 1..].trim().is_empty();
    listed && justified
}

/// The checked-in baseline: findings accepted as legacy debt.
///
/// Format — one entry per line, `RULE path  # reason`; blank lines and
/// `#`-comment lines ignored. Matching is by rule + path (not line), so
/// unrelated edits to a baselined file do not churn the baseline.
#[derive(Debug, Default)]
pub struct Baseline {
    entries: Vec<(String, String)>,
}

impl Baseline {
    /// Parses baseline text.
    pub fn parse(text: &str) -> Self {
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            if let (Some(rule), Some(path)) = (parts.next(), parts.next()) {
                entries.push((rule.to_string(), path.to_string()));
            }
        }
        Self { entries }
    }

    /// Whether `finding` is accepted by the baseline.
    pub fn accepts(&self, finding: &Finding) -> bool {
        self.entries
            .iter()
            .any(|(rule, path)| rule == finding.rule && *path == finding.path)
    }

    /// Splits findings into `(active, baselined)`.
    pub fn apply(&self, findings: Vec<Finding>) -> (Vec<Finding>, Vec<Finding>) {
        findings.into_iter().partition(|f| !self.accepts(f))
    }

    /// Number of entries (for reporting).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the baseline is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Renders findings as a JSON object `{"rule_version": N, "findings":
/// [...]}` (hand-rolled; the crate is dependency-free by design).
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = format!("{{\"rule_version\":{RULE_VERSION},\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
            f.rule,
            json_escape(&f.path),
            f.line,
            f.col,
            json_escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// Renders findings as GitHub Actions `::error` annotations.
pub fn render_github(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "::error file={},line={},col={},title=skq-lint {}::{}\n",
            f.path,
            f.line,
            f.col,
            f.rule,
            f.message.replace('\n', " ")
        ));
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_requires_justification() {
        assert!(suppresses(
            "x(); // skq-lint: allow(L01) legacy wrapper kept for API compat",
            "L01"
        ));
        assert!(!suppresses("x(); // skq-lint: allow(L01)", "L01"));
        assert!(!suppresses(
            "x(); // skq-lint: allow(L03) wrong rule",
            "L01"
        ));
        assert!(suppresses(
            "// skq-lint: allow(L01,L07) two rules, one reason",
            "L07"
        ));
    }

    #[test]
    fn baseline_matches_rule_and_path() {
        let b = Baseline::parse("# legacy debt\nL01 crates/core/src/suite.rs  # wrapper\n\n");
        assert_eq!(b.len(), 1);
        let hit = Finding {
            rule: "L01",
            path: "crates/core/src/suite.rs".into(),
            line: 9,
            col: 1,
            message: String::new(),
        };
        assert!(b.accepts(&hit));
        let miss = Finding {
            rule: "L03",
            ..hit.clone()
        };
        assert!(!b.accepts(&miss));
    }

    #[test]
    fn json_output_is_escaped() {
        let f = Finding {
            rule: "L03",
            path: "a.rs".into(),
            line: 1,
            col: 2,
            message: "name \"x\" bad".into(),
        };
        let json = render_json(&[f]);
        assert!(json.contains("\\\"x\\\""));
        assert!(json.starts_with("{\"rule_version\":"));
        assert!(json.contains(&format!("\"rule_version\":{RULE_VERSION}")));
        assert!(json.contains("\"findings\":["));
    }
}
