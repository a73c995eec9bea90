//! The rule set: repo-specific contracts clippy cannot express.
//!
//! Each rule is a plain function over the [`Workspace`] snapshot; the
//! registry [`RULES`] drives the engine and the `--list` CLI output.
//! Rule IDs are stable — they appear in suppression comments and the
//! baseline, so renumbering is a breaking change. All rules skip
//! `#[cfg(test)]` regions and test-path files unless noted.

use crate::scan::{offsets_of, SourceFile};
use crate::{Finding, Workspace};

/// Rule function signature: append findings for the whole workspace.
pub type RuleFn = fn(&Workspace, &mut Vec<Finding>);

/// The registry: `(id, summary, implementation)`.
pub const RULES: &[(&str, &str, RuleFn)] = &[
    (
        "L01",
        "no unwrap/expect/panic-family macros in request-path modules outside tests",
        l01_no_panics_in_request_path,
    ),
    (
        "L03",
        "metric names start with `skq_`, keep one kind per name, and appear in DESIGN.md",
        l03_metric_discipline,
    ),
    (
        "L04",
        "fail-point sites are unique, registered in SITES, and every SITES entry is armed by a call site",
        l04_failpoint_registry,
    ),
    (
        "L05",
        "every ResultSink::emit call site propagates ControlFlow::Break",
        l05_emit_propagates_break,
    ),
    (
        "L06",
        "framework/dimred traversals with a sink parameter never collect via Vec::push",
        l06_no_push_in_sink_traversals,
    ),
    (
        "L07",
        "every #[allow(...)] outside tests carries a justification comment",
        l07_justified_allows,
    ),
    (
        "L08",
        "every SkqError variant is constructed somewhere outside tests",
        l08_error_variants_constructed,
    ),
    (
        "L09",
        "every crate root starts with #![forbid(unsafe_code)]",
        l09_forbid_unsafe,
    ),
    (
        "L10",
        "no println!/eprintln!/dbg! in library code (bins and bench excepted)",
        l10_no_stdout_in_libs,
    ),
    (
        "L11",
        "every `pub fn try_*` documents a `# Errors` section",
        l11_try_fns_document_errors,
    ),
    (
        "L12",
        "every trace-span name (`Span::enter*` literal) appears in DESIGN.md \u{a7}13",
        l12_trace_spans_documented,
    ),
    (
        "L13",
        "every file with a serialized-section impl (`impl Persist for`) references SCHEMA_VERSION",
        l13_persist_impls_reference_schema_version,
    ),
    (
        "L14",
        "every fail-point site in SITES appears in DESIGN.md's fail-point table",
        l14_failpoint_sites_documented,
    ),
    (
        "L15",
        "no cycles in the inter-crate lock-order graph (deadlock risk; see --lock-graph)",
        crate::conc::lock_order_cycles,
    ),
    (
        "L16",
        "Ordering::Relaxed needs an inline `// relaxed: <reason>`; Release stores need an Acquire read on the same field",
        crate::conc::atomic_discipline,
    ),
    (
        "L17",
        "Condvar::wait/wait_timeout must sit inside a predicate-re-checking loop",
        crate::conc::condvar_wait_in_loop,
    ),
    (
        "L18",
        "no .lock().unwrap() outside tests — recover poisoned guards with PoisonError::into_inner",
        crate::conc::lock_unwrap_ban,
    ),
];

/// Modules on the request path: panics here would take down a serving
/// process instead of failing one query. Mirrors the per-module
/// `#[warn(clippy::disallowed_methods)]` opt-ins in `skq-core`'s root.
const REQUEST_PATH: &[&str] = &[
    "crates/core/src/batch.rs",
    "crates/core/src/dynamic.rs",
    "crates/core/src/planner.rs",
    "crates/core/src/suite.rs",
];

fn push(out: &mut Vec<Finding>, rule: &'static str, file: &SourceFile, offset: usize, msg: String) {
    let (line, col) = file.position(offset);
    out.push(Finding {
        rule,
        path: file.path.clone(),
        line,
        col,
        message: msg,
    });
}

// ---------------------------------------------------------------- L01

fn l01_no_panics_in_request_path(ws: &Workspace, out: &mut Vec<Finding>) {
    const BANNED: &[&str] = &[
        ".unwrap()",
        ".expect(",
        "panic!(",
        "todo!(",
        "unimplemented!(",
        "unreachable!(",
    ];
    for file in &ws.files {
        if !REQUEST_PATH.contains(&file.path.as_str()) {
            continue;
        }
        for token in BANNED {
            for o in file.masked_offsets(token) {
                if file.is_test_at(o) {
                    continue;
                }
                push(
                    out,
                    "L01",
                    file,
                    o,
                    format!(
                        "`{}` in request-path module; return SkqError (or use the guarded surface) instead",
                        token.trim_start_matches('.').trim_end_matches('(')
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------- L03

fn l03_metric_discipline(ws: &Workspace, out: &mut Vec<Finding>) {
    const REGISTER: &[(&str, &str)] = &[
        (".counter(", "counter"),
        (".gauge(", "gauge"),
        (".histogram(", "histogram"),
    ];
    let design = ws.docs.get("DESIGN.md").map(String::as_str).unwrap_or("");
    // (name, kind, file index, offset)
    let mut uses: Vec<(String, &'static str, usize, usize)> = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        for (token, kind) in REGISTER {
            for o in file.masked_offsets(token) {
                if file.is_test_at(o) {
                    continue;
                }
                let open = o + token.len();
                let Some(name) = literal_after(file, open) else {
                    continue; // registered via a const — out of scope here
                };
                uses.push((name, kind, fi, o));
            }
        }
    }
    for (name, kind, fi, o) in &uses {
        let file = &ws.files[*fi];
        if !is_metric_name(name) {
            push(
                out,
                "L03",
                file,
                *o,
                format!("metric name `{name}` must match `skq_[a-z0-9_]+`"),
            );
            continue;
        }
        if !design.contains(name.as_str()) {
            push(
                out,
                "L03",
                file,
                *o,
                format!("metric `{name}` is not documented in DESIGN.md \u{a7}9"),
            );
        }
        if let Some((_, first_kind, _, _)) = uses.iter().find(|(n, _, _, _)| n == name) {
            if first_kind != kind {
                push(
                    out,
                    "L03",
                    file,
                    *o,
                    format!(
                        "metric `{name}` registered as {kind} here but as {first_kind} elsewhere; \
                         one name, one kind"
                    ),
                );
            }
        }
    }
}

fn is_metric_name(name: &str) -> bool {
    name.strip_prefix("skq_").is_some_and(|rest| {
        !rest.is_empty()
            && rest
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    })
}

// ---------------------------------------------------------------- L04

/// Parses the `SITES` array from `failpoints.rs` raw text (the masking
/// blanks literals): `(site name, raw offset)` per entry.
fn parse_failpoint_sites(reg_file: &SourceFile) -> Option<Vec<(String, usize)>> {
    let decl = reg_file.raw.find("pub const SITES")?;
    let end = reg_file.raw[decl..]
        .find("];")
        .map(|e| decl + e)
        .unwrap_or(reg_file.raw.len());
    let block = &reg_file.raw[decl..end];
    let mut sites: Vec<(String, usize)> = Vec::new();
    let mut from = 0usize;
    while let Some(q) = block[from..].find('"') {
        let start = from + q + 1;
        let Some(len) = block[start..].find('"') else {
            break;
        };
        sites.push((block[start..start + len].to_string(), decl + start));
        from = start + len + 1;
    }
    Some(sites)
}

fn l04_failpoint_registry(ws: &Workspace, out: &mut Vec<Finding>) {
    let Some(reg_file) = ws.file("crates/core/src/failpoints.rs") else {
        return;
    };
    let Some(sites) = parse_failpoint_sites(reg_file) else {
        push(
            out,
            "L04",
            reg_file,
            0,
            "failpoints.rs lost its `pub const SITES` registry".to_string(),
        );
        return;
    };
    for (i, (site, o)) in sites.iter().enumerate() {
        if sites[..i].iter().any(|(s, _)| s == site) {
            push(
                out,
                "L04",
                reg_file,
                *o,
                format!("duplicate fail-point site `{site}` in SITES"),
            );
        }
    }
    // Every check("…") call site must name a registered site, and every
    // registered site must have at least one call site.
    let mut called: Vec<String> = Vec::new();
    for file in &ws.files {
        for o in file.masked_offsets("failpoints::check(") {
            if file.is_test_at(o) {
                continue;
            }
            let open = o + "failpoints::check(".len();
            let Some(site) = literal_after(file, open) else {
                continue; // `check(site)` forwarding inside failpoints.rs
            };
            if !sites.iter().any(|(s, _)| *s == site) {
                push(
                    out,
                    "L04",
                    file,
                    o,
                    format!("fail point `{site}` is not registered in failpoints::SITES"),
                );
            }
            called.push(site);
        }
    }
    for (site, o) in &sites {
        if !called.iter().any(|c| c == site) {
            push(
                out,
                "L04",
                reg_file,
                *o,
                format!("registered fail point `{site}` has no check() call site"),
            );
        }
    }
}

// ---------------------------------------------------------------- L05

fn l05_emit_propagates_break(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        let masked = file.masked.as_bytes();
        for o in file.masked_offsets(".emit(") {
            if file.is_test_at(o) {
                continue;
            }
            let open = o + ".emit(".len() - 1; // the '('
            let Some(close) = matching_paren(&file.masked, open) else {
                continue;
            };
            let mut j = close + 1;
            while j < masked.len() && (masked[j] == b' ' || masked[j] == b'\n') {
                j += 1;
            }
            let next = masked.get(j).copied().unwrap_or(b'}');
            // `?`, a method chain (`.is_break()`), a comparison, or a
            // tail/argument position all consume the ControlFlow.
            if matches!(next, b'?' | b'.' | b'=' | b'!' | b'}' | b')' | b',') {
                continue;
            }
            if next == b';' {
                // Statement position: fine when the value is bound or
                // tested, a bare `sink.emit(x);` drops the Break.
                let stmt_start = file.masked[..o]
                    .rfind([';', '{', '}'])
                    .map(|s| s + 1)
                    .unwrap_or(0);
                let stmt = &file.masked[stmt_start..o];
                const CONSUMERS: &[&str] =
                    &["let ", "if ", "while ", "match ", "return ", "=> ", "= "];
                if CONSUMERS.iter().any(|c| stmt.contains(c)) {
                    continue;
                }
            }
            push(
                out,
                "L05",
                file,
                o,
                "ResultSink::emit result is discarded; propagate ControlFlow::Break \
                 (`sink.emit(x)?` or check `.is_break()`)"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------- L06

fn l06_no_push_in_sink_traversals(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        if !(file.path.starts_with("crates/core/src/framework/")
            || file.path.starts_with("crates/core/src/dimred/"))
        {
            continue;
        }
        for (sig_start, body_start, body_end) in fn_spans(&file.masked) {
            let sig = &file.masked[sig_start..body_start];
            if !sig.contains("Sink") {
                continue;
            }
            for rel in offsets_of(&file.masked[body_start..body_end], ".push(") {
                let o = body_start + rel;
                if file.is_test_at(o) {
                    continue;
                }
                push(
                    out,
                    "L06",
                    file,
                    o,
                    "Vec::push inside a sink-carrying traversal; results must flow \
                     through ResultSink::emit so limits and cancellation hold"
                        .to_string(),
                );
            }
        }
    }
}

// ---------------------------------------------------------------- L07

fn l07_justified_allows(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        for token in ["#[allow(", "#![allow("] {
            for o in file.masked_offsets(token) {
                if file.is_test_at(o) {
                    continue;
                }
                let (line, _) = file.position(o);
                let attr_line = file.line_text(line);
                let after_attr = attr_line
                    .find(']')
                    .map(|b| &attr_line[b..])
                    .unwrap_or(attr_line);
                let same_line = after_attr.contains("//");
                let prev_line = line > 1 && file.line_text(line - 1).trim_start().starts_with("//");
                if !(same_line || prev_line) {
                    push(
                        out,
                        "L07",
                        file,
                        o,
                        "#[allow(...)] without a justification comment (same line or \
                         the line above)"
                            .to_string(),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------- L08

fn l08_error_variants_constructed(ws: &Workspace, out: &mut Vec<Finding>) {
    let Some(err_file) = ws.file("crates/core/src/error.rs") else {
        return;
    };
    let Some(decl) = err_file.masked.find("pub enum SkqError") else {
        return;
    };
    let Some(open) = err_file.masked[decl..].find('{').map(|b| decl + b) else {
        return;
    };
    let Some(close) = matching_brace(&err_file.masked, open) else {
        return;
    };
    // Variant names: capitalized identifiers at the start of a line in
    // the (doc-comment-masked) enum body.
    let mut variants: Vec<(String, usize)> = Vec::new();
    let body = &err_file.masked[open + 1..close];
    let mut line_start = 0usize;
    for seg in body.split_inclusive('\n') {
        let trimmed = seg.trim_start();
        let indent = seg.len() - trimmed.len();
        if trimmed
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_uppercase())
        {
            let name = ident_at(body, line_start + indent);
            if !name.is_empty() {
                variants.push((name, open + 1 + line_start + indent));
            }
        }
        line_start += seg.len();
    }
    for (variant, decl_offset) in &variants {
        let token = format!("SkqError::{variant}");
        let mut constructed = false;
        'files: for file in &ws.files {
            for o in file.masked_offsets(&token) {
                if file.is_test_at(o) {
                    continue;
                }
                // The declaration itself.
                if file.path == err_file.path && o >= decl && o <= close {
                    continue;
                }
                // A match arm pattern (`SkqError::X(..) => …`) is a
                // use, not a construction — but an arrow *before* the
                // token means the construction sits on an arm's right
                // side, which counts.
                let (line, col) = file.position(o);
                if let Some(arrow) = file.line_text(line).find("=>") {
                    if arrow >= col {
                        continue;
                    }
                }
                constructed = true;
                break 'files;
            }
        }
        if !constructed {
            push(
                out,
                "L08",
                err_file,
                *decl_offset,
                format!(
                    "SkqError::{variant} is never constructed outside tests; dead error \
                     surface (remove it or wire it up)"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- L09

fn l09_forbid_unsafe(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        let is_crate_root = file.path == "src/lib.rs"
            || (file.path.starts_with("crates/") && file.path.ends_with("/src/lib.rs"));
        if !is_crate_root {
            continue;
        }
        if !file.masked.contains("#![forbid(unsafe_code)]") {
            push(
                out,
                "L09",
                file,
                0,
                "crate root must declare #![forbid(unsafe_code)]".to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------- L10

fn l10_no_stdout_in_libs(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        let exempt = file.path.starts_with("crates/bench/")
            || file.path.starts_with("examples/")
            || file.path.contains("/bin/")
            || file.path.ends_with("main.rs");
        if exempt {
            continue;
        }
        for token in ["println!(", "eprintln!(", "print!(", "eprint!(", "dbg!("] {
            for o in file.masked_offsets(token) {
                if file.is_test_at(o) {
                    continue;
                }
                push(
                    out,
                    "L10",
                    file,
                    o,
                    format!(
                        "`{}` in library code; route output through skq-obs or return it",
                        token.trim_end_matches('(')
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------- L11

fn l11_try_fns_document_errors(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        for o in file.masked_offsets("pub fn try_") {
            if file.is_test_at(o) {
                continue;
            }
            let (line, _) = file.position(o);
            let mut documented = false;
            let mut l = line;
            while l > 1 {
                l -= 1;
                let text = file.line_text(l);
                let t = text.trim_start();
                if t.starts_with("///") {
                    if t.contains("# Errors") {
                        documented = true;
                        break;
                    }
                } else if !(t.starts_with("#[") || t.starts_with("#![") || t.is_empty()) {
                    break;
                }
            }
            if !documented {
                let name = ident_at(&file.masked, o + "pub fn ".len());
                push(
                    out,
                    "L11",
                    file,
                    o,
                    format!("`pub fn {name}` has no `# Errors` doc section"),
                );
            }
        }
    }
}

// ---------------------------------------------------------------- L12

/// Span names are the coordinate system of the exported traces: a name
/// that exists only in source cannot be interpreted by anyone reading a
/// Perfetto capture. Every literal passed to `Span::enter` /
/// `Span::enter_in` outside tests must therefore appear in DESIGN.md's
/// span table (§13). Names built from non-literal expressions are out
/// of scope, mirroring L03's treatment of const-registered metrics.
fn l12_trace_spans_documented(ws: &Workspace, out: &mut Vec<Finding>) {
    let design = ws.docs.get("DESIGN.md").map(String::as_str).unwrap_or("");
    let check = |file: &SourceFile, o: usize, name: String, out: &mut Vec<Finding>| {
        if !design.contains(name.as_str()) {
            push(
                out,
                "L12",
                file,
                o,
                format!("trace span `{name}` is not documented in DESIGN.md \u{a7}13"),
            );
        }
    };
    for file in &ws.files {
        // `Span::enter("name")` — the name is the first argument.
        for o in file.masked_offsets("Span::enter(") {
            if file.is_test_at(o) {
                continue;
            }
            let open = o + "Span::enter(".len();
            if let Some(name) = literal_after(file, open) {
                check(file, o, name, out);
            }
        }
        // `Span::enter_in(registry, "name")` — the name is the second
        // argument: the literal after the first top-level comma.
        for o in file.masked_offsets("Span::enter_in(") {
            if file.is_test_at(o) {
                continue;
            }
            let open = o + "Span::enter_in".len(); // the '('
            let bytes = file.masked.as_bytes();
            let mut depth = 0i64;
            let mut i = open;
            while i < bytes.len() {
                match bytes[i] {
                    b'(' => depth += 1,
                    b')' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    b',' if depth == 1 => break,
                    _ => {}
                }
                i += 1;
            }
            if bytes.get(i) == Some(&b',') {
                if let Some(name) = literal_after(file, i + 1) {
                    check(file, o, name, out);
                }
            }
        }
    }
}

// ---------------------------------------------------------------- L13

/// A file that implements [`Persist`] owns part of the on-disk layout
/// (DESIGN.md §15), so an edit to it can silently change the bytes. The
/// schema constant is the bump site for such changes; requiring every
/// serializing file to reference `SCHEMA_VERSION` keeps the constant in
/// view at each place where a layout edit could originate. References
/// in comments and strings do not count — the token must survive
/// masking (an import or a real use in the encoding code).
fn l13_persist_impls_reference_schema_version(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        let Some(o) = file.masked_offsets("impl Persist for").into_iter().next() else {
            continue;
        };
        if file.is_test_at(o) {
            continue;
        }
        if file.masked_offsets("SCHEMA_VERSION").is_empty() {
            let name = ident_at(&file.masked, o + "impl Persist for ".len());
            push(
                out,
                "L13",
                file,
                o,
                format!(
                    "`impl Persist for {name}` serializes a section but the file never \
                     references SCHEMA_VERSION (the bump site for layout changes, \
                     DESIGN.md \u{a7}15)"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- L14

/// A fail point is an operational contract: chaos tests and the
/// `skq-crash` driver arm sites by name, so a site that exists only in
/// source is an undocumented knob nobody can reach for. Every entry in
/// `failpoints::SITES` must therefore appear in DESIGN.md's fail-point
/// table (§11), mirroring how L03/L12 pin metric and span names.
fn l14_failpoint_sites_documented(ws: &Workspace, out: &mut Vec<Finding>) {
    let Some(reg_file) = ws.file("crates/core/src/failpoints.rs") else {
        return;
    };
    let Some(sites) = parse_failpoint_sites(reg_file) else {
        return; // A missing registry is already an L04 finding.
    };
    let design = ws.docs.get("DESIGN.md").map(String::as_str).unwrap_or("");
    for (site, o) in &sites {
        if !design.contains(site.as_str()) {
            push(
                out,
                "L14",
                reg_file,
                *o,
                format!("fail-point site `{site}` is not documented in DESIGN.md \u{a7}11"),
            );
        }
    }
}

// ------------------------------------------------------------ helpers

/// The identifier starting at `offset` (empty if none).
fn ident_at(text: &str, offset: usize) -> String {
    text[offset..]
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect()
}

/// If (after whitespace) a string literal opens at `offset` in the raw
/// text, returns its contents.
fn literal_after(file: &SourceFile, offset: usize) -> Option<String> {
    let raw = file.raw.as_bytes();
    let mut i = offset;
    while i < raw.len() && (raw[i] == b' ' || raw[i] == b'\n') {
        i += 1;
    }
    if raw.get(i) != Some(&b'"') {
        return None;
    }
    let start = i + 1;
    let len = file.raw[start..].find('"')?;
    Some(file.raw[start..start + len].to_string())
}

/// Offset of the `)` matching the `(` at `open`.
fn matching_paren(text: &str, open: usize) -> Option<usize> {
    matching(text, open, b'(', b')')
}

/// Offset of the `}` matching the `{` at `open`.
fn matching_brace(text: &str, open: usize) -> Option<usize> {
    matching(text, open, b'{', b'}')
}

fn matching(text: &str, open: usize, inc: u8, dec: u8) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut depth = 0i64;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if b == inc {
            depth += 1;
        } else if b == dec {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// `(signature_start, body_start, body_end)` for every `fn` in the
/// masked text.
fn fn_spans(masked: &str) -> Vec<(usize, usize, usize)> {
    let mut spans = Vec::new();
    for o in offsets_of(masked, "fn ") {
        // Word boundary: reject `often `, accept start-of-text.
        if o > 0 {
            let prev = masked.as_bytes()[o - 1];
            if prev.is_ascii_alphanumeric() || prev == b'_' {
                continue;
            }
        }
        // The body brace: first `{` at zero paren/angle-free depth.
        let bytes = masked.as_bytes();
        let mut depth = 0i64;
        let mut body_start = None;
        for (i, &b) in bytes.iter().enumerate().skip(o) {
            match b {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b'{' if depth == 0 => {
                    body_start = Some(i);
                    break;
                }
                b';' if depth == 0 => break, // trait method without body
                _ => {}
            }
        }
        if let Some(bs) = body_start {
            if let Some(be) = matching_brace(masked, bs) {
                spans.push((o, bs, be));
            }
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_spans_find_bodies() {
        let src = "fn a(x: i32) -> i32 { x }\nfn b() { if true { } }\ntrait T { fn c(); }\n";
        let spans = fn_spans(src);
        assert_eq!(spans.len(), 2, "trait method without body is skipped");
        assert!(src[spans[0].1..spans[0].2].contains('x'));
    }

    #[test]
    fn metric_name_shape() {
        assert!(is_metric_name("skq_query_total"));
        assert!(!is_metric_name("queries_total"));
        assert!(!is_metric_name("skq_Query"));
        assert!(!is_metric_name("skq_"));
    }
}
