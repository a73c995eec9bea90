//! Fixture tests: seed one violation of every rule in an in-memory
//! workspace and assert the engine reports the expected rule ID and
//! span (acceptance criterion of the rule engine).

use skq_lint::{apply_suppressions, run_rules, Workspace};

/// Runs the engine over `(path, contents)` fixtures, suppressions
/// applied.
fn lint(sources: &[(&str, &str)]) -> Vec<skq_lint::Finding> {
    let ws = Workspace::from_memory(sources);
    let (active, _suppressed) = apply_suppressions(&ws, run_rules(&ws));
    active
}

fn assert_one(findings: &[skq_lint::Finding], rule: &str, path: &str, line: usize, col: usize) {
    let hits: Vec<_> = findings.iter().filter(|f| f.rule == rule).collect();
    assert_eq!(
        hits.len(),
        1,
        "expected exactly one {rule} finding, got: {findings:?}"
    );
    let f = hits[0];
    assert_eq!((f.path.as_str(), f.line, f.col), (path, line, col), "{f}");
}

#[test]
fn l01_flags_panics_in_request_path() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    let findings = lint(&[("crates/core/src/batch.rs", src)]);
    assert_one(&findings, "L01", "crates/core/src/batch.rs", 2, 6);
}

#[test]
fn l01_skips_test_regions_strings_and_other_modules() {
    let test_mod = "#[cfg(test)]\nmod tests {\n    fn f() { None::<u32>.unwrap(); }\n}\n";
    let string_only = "pub fn f() -> &'static str {\n    \"don't .unwrap() me\"\n}\n";
    let findings = lint(&[
        ("crates/core/src/batch.rs", test_mod),
        ("crates/core/src/suite.rs", string_only),
        // Same token outside the request path: not L01's business.
        (
            "crates/core/src/orp.rs",
            "pub fn g(x: Option<u32>) -> u32 { x.unwrap() }\n",
        ),
    ]);
    assert!(
        findings.iter().all(|f| f.rule != "L01"),
        "false positives: {findings:?}"
    );
}

#[test]
fn l03_flags_undocumented_and_misshapen_metrics() {
    let src = "pub fn f(reg: &R) {\n    reg.counter(\"skq_good_total\", &[]).inc();\n    reg.counter(\"bad_name\", &[]).inc();\n    reg.gauge(\"skq_missing_from_design\", &[]).set(1.0);\n}\n";
    let findings = lint(&[
        ("crates/core/src/telemetry.rs", src),
        ("DESIGN.md", "| `skq_good_total` | — | telemetry |\n"),
    ]);
    let l03: Vec<_> = findings.iter().filter(|f| f.rule == "L03").collect();
    assert_eq!(l03.len(), 2, "{findings:?}");
    assert!(l03
        .iter()
        .any(|f| f.line == 3 && f.message.contains("bad_name")));
    assert!(l03
        .iter()
        .any(|f| f.line == 4 && f.message.contains("skq_missing_from_design")));
}

#[test]
fn l03_flags_one_name_two_kinds() {
    let src = "pub fn f(reg: &R) {\n    reg.counter(\"skq_x_total\", &[]).inc();\n    reg.histogram(\"skq_x_total\", &[]).observe(1);\n}\n";
    let findings = lint(&[
        ("crates/core/src/telemetry.rs", src),
        ("DESIGN.md", "`skq_x_total`\n"),
    ]);
    assert_one(&findings, "L03", "crates/core/src/telemetry.rs", 3, 8);
}

#[test]
fn l04_checks_site_registration_both_ways() {
    let registry = "pub const SITES: &[&str] = &[\n    \"orp::build\",\n    \"orp::build\",\n    \"never::called\",\n];\n";
    let caller =
        "pub fn f() -> Result<(), E> {\n    failpoints::check(\"orp::build\")?;\n    failpoints::check(\"rogue::site\")?;\n    Ok(())\n}\n";
    let findings = lint(&[
        ("crates/core/src/failpoints.rs", registry),
        ("crates/core/src/orp.rs", caller),
    ]);
    let l04: Vec<_> = findings.iter().filter(|f| f.rule == "L04").collect();
    assert_eq!(l04.len(), 3, "{findings:?}");
    assert!(l04
        .iter()
        .any(|f| f.line == 3 && f.message.contains("duplicate")));
    assert!(l04
        .iter()
        .any(|f| f.message.contains("rogue::site") && f.path.ends_with("orp.rs")));
    assert!(l04
        .iter()
        .any(|f| f.message.contains("never::called") && f.message.contains("no check()")));
}

#[test]
fn l05_flags_discarded_emit() {
    let bad = "fn f<S: ResultSink>(sink: &mut S) {\n    sink.emit(7);\n    other();\n}\n";
    let findings = lint(&[("crates/core/src/rr.rs", bad)]);
    assert_one(&findings, "L05", "crates/core/src/rr.rs", 2, 9);
}

#[test]
fn l05_accepts_all_propagation_forms() {
    let good = "fn a<S: ResultSink>(sink: &mut S) -> ControlFlow<()> {\n    sink.emit(1)?;\n    if sink.emit(2).is_break() {\n        return ControlFlow::Break(());\n    }\n    let flow = sink.emit(3);\n    flow\n}\nfn b<S: ResultSink>(sink: &mut S) -> ControlFlow<()> {\n    sink.emit(4)\n}\n";
    let findings = lint(&[("crates/core/src/rr.rs", good)]);
    assert!(
        findings.iter().all(|f| f.rule != "L05"),
        "false positives: {findings:?}"
    );
}

#[test]
fn l06_flags_push_in_sink_traversals() {
    let bad =
        "fn visit<S: ResultSink>(&self, sink: &mut S, out: &mut Vec<u32>) {\n    out.push(1);\n}\n";
    let findings = lint(&[("crates/core/src/framework/index.rs", bad)]);
    assert_one(&findings, "L06", "crates/core/src/framework/index.rs", 2, 8);
    // The same push in a sink-free helper is fine.
    let good = "fn collect(out: &mut Vec<u32>) {\n    out.push(1);\n}\n";
    assert!(lint(&[("crates/core/src/framework/index.rs", good)]).is_empty());
}

#[test]
fn l07_requires_justified_allows() {
    let bad = "#[allow(dead_code)]\nfn f() {}\n";
    let findings = lint(&[("crates/core/src/rr.rs", bad)]);
    assert_one(&findings, "L07", "crates/core/src/rr.rs", 1, 1);

    let same_line = "#[allow(dead_code)] // kept for the ffi surface\nfn f() {}\n";
    assert!(lint(&[("crates/core/src/rr.rs", same_line)]).is_empty());
    let line_above = "// kept for the ffi surface\n#[allow(dead_code)]\nfn f() {}\n";
    assert!(lint(&[("crates/core/src/rr.rs", line_above)]).is_empty());
}

#[test]
fn l08_flags_never_constructed_variants() {
    let error_rs = "pub enum SkqError {\n    /// Used.\n    InvalidQuery(String),\n    /// Dead.\n    Cancelled,\n}\n";
    let user =
        "pub fn f() -> Result<(), SkqError> {\n    Err(SkqError::InvalidQuery(String::new()))\n}\nfn display(e: &SkqError) -> &str {\n    match e {\n        SkqError::InvalidQuery(_) => \"iq\",\n        SkqError::Cancelled => \"c\",\n    }\n}\n";
    let findings = lint(&[
        ("crates/core/src/error.rs", error_rs),
        ("crates/core/src/guard.rs", user),
    ]);
    let l08: Vec<_> = findings.iter().filter(|f| f.rule == "L08").collect();
    assert_eq!(l08.len(), 1, "{findings:?}");
    assert_eq!((l08[0].line, l08[0].col), (5, 5));
    assert!(l08[0].message.contains("Cancelled"));
}

#[test]
fn l08_counts_arm_rhs_construction() {
    let error_rs = "pub enum SkqError {\n    Internal(String),\n}\n";
    let user = "pub fn f(x: bool) -> SkqError {\n    match x {\n        true => SkqError::Internal(String::new()),\n        false => SkqError::Internal(String::from(\"n\")),\n    }\n}\n";
    let findings = lint(&[
        ("crates/core/src/error.rs", error_rs),
        ("crates/core/src/guard.rs", user),
    ]);
    assert!(
        findings.iter().all(|f| f.rule != "L08"),
        "arm-RHS construction must count: {findings:?}"
    );
}

#[test]
fn l09_requires_forbid_unsafe_in_crate_roots() {
    let findings = lint(&[("crates/geom/src/lib.rs", "pub fn f() {}\n")]);
    assert_one(&findings, "L09", "crates/geom/src/lib.rs", 1, 1);
    assert!(lint(&[(
        "crates/geom/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f() {}\n"
    )])
    .is_empty());
}

#[test]
fn l10_flags_prints_in_libs_only() {
    let src = "pub fn f() {\n    println!(\"hi\");\n}\n";
    let findings = lint(&[("crates/core/src/stats.rs", src)]);
    assert_one(&findings, "L10", "crates/core/src/stats.rs", 2, 5);
    for exempt in [
        "crates/bench/src/lib.rs",
        "src/bin/skq.rs",
        "examples/demo.rs",
    ] {
        assert!(
            lint(&[(exempt, src)]).iter().all(|f| f.rule != "L10"),
            "{exempt} should be exempt from L10"
        );
    }
}

#[test]
fn l11_requires_errors_doc_on_try_fns() {
    let bad = "/// Does things.\npub fn try_build() -> Result<(), ()> {\n    Ok(())\n}\n";
    let findings = lint(&[("crates/core/src/rr.rs", bad)]);
    assert_one(&findings, "L11", "crates/core/src/rr.rs", 2, 1);

    let good = "/// Does things.\n///\n/// # Errors\n///\n/// Never, actually.\n#[inline]\npub fn try_build() -> Result<(), ()> {\n    Ok(())\n}\n";
    assert!(lint(&[("crates/core/src/rr.rs", good)]).is_empty());
}

#[test]
fn l12_requires_documented_span_names() {
    let src = "pub fn f(reg: &MetricsRegistry) {\n    let _a = skq_obs::Span::enter(\"orp.query\");\n    let _b = Span::enter_in(reg, \"rogue.span\");\n}\n";
    let findings = lint(&[
        ("crates/core/src/orp.rs", src),
        ("DESIGN.md", "| `orp.query` | query wrapper | — |\n"),
    ]);
    assert_one(&findings, "L12", "crates/core/src/orp.rs", 3, 14);
    assert!(findings[0].message.contains("rogue.span"), "{findings:?}");
    // Test regions and non-literal names are out of scope.
    let exempt = "#[cfg(test)]\nmod tests {\n    fn f() { let _s = Span::enter(\"undocumented\"); }\n}\npub fn g(name: &str) {\n    let _s = Span::enter(name);\n}\n";
    assert!(lint(&[("crates/core/src/orp.rs", exempt)])
        .iter()
        .all(|f| f.rule != "L12"));
}

#[test]
fn l13_persist_impls_must_reference_schema_version() {
    let bad = "pub struct Thing;\nimpl Persist for Thing {\n    fn to_pages(&self) {}\n}\n";
    let findings = lint(&[("crates/core/src/thing.rs", bad)]);
    assert_one(&findings, "L13", "crates/core/src/thing.rs", 2, 1);
    assert!(findings[0].message.contains("Thing"), "{findings:?}");

    // An import (or any masked-source use) of the constant satisfies
    // the rule; mentions in comments or strings do not.
    let good =
        "use crate::persist::SCHEMA_VERSION;\npub struct Thing;\nimpl Persist for Thing {}\n";
    assert!(lint(&[("crates/core/src/thing.rs", good)]).is_empty());
    let comment_only =
        "// SCHEMA_VERSION is mentioned but never referenced\npub struct T;\nimpl Persist for T {}\n";
    let findings = lint(&[("crates/core/src/thing.rs", comment_only)]);
    assert_one(&findings, "L13", "crates/core/src/thing.rs", 3, 1);
    // Files that do not serialize anything are out of scope.
    assert!(lint(&[("crates/core/src/plain.rs", "pub fn f() {}\n")]).is_empty());
}

#[test]
fn l14_requires_documented_failpoint_sites() {
    let registry =
        "pub const SITES: &[&str] = &[\n    \"orp::build\",\n    \"store::fsync\",\n];\n";
    let caller = "pub fn f() -> Result<(), E> {\n    failpoints::check(\"orp::build\")?;\n    failpoints::check(\"store::fsync\")?;\n    Ok(())\n}\n";
    let findings = lint(&[
        ("crates/core/src/failpoints.rs", registry),
        ("crates/core/src/orp.rs", caller),
        ("DESIGN.md", "| `orp::build` | ORP build path |\n"),
    ]);
    let l14: Vec<_> = findings.iter().filter(|f| f.rule == "L14").collect();
    assert_eq!(l14.len(), 1, "{findings:?}");
    assert_eq!((l14[0].line, l14[0].col), (3, 6));
    assert!(l14[0].message.contains("store::fsync"), "{findings:?}");

    // Both sites documented: no findings.
    let findings = lint(&[
        ("crates/core/src/failpoints.rs", registry),
        ("crates/core/src/orp.rs", caller),
        (
            "DESIGN.md",
            "| `orp::build` | ORP build path |\n| `store::fsync` | durable sync |\n",
        ),
    ]);
    assert!(findings.iter().all(|f| f.rule != "L14"), "{findings:?}");
}

#[test]
fn inline_suppression_needs_justification() {
    let justified = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // skq-lint: allow(L01) fixture: reason given\n}\n";
    assert!(lint(&[("crates/core/src/batch.rs", justified)]).is_empty());

    let bare = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // skq-lint: allow(L01)\n}\n";
    let findings = lint(&[("crates/core/src/batch.rs", bare)]);
    assert_eq!(
        findings.len(),
        1,
        "unjustified suppression must not hide the finding"
    );
}

#[test]
fn every_rule_id_is_covered_by_a_fixture() {
    // Meta-check: the registry and the fixture files must grow
    // together (L01–L14 here, L15–L18 in tests/conc_fixtures.rs; L02
    // was retired with the duplicated query surface it policed).
    let covered = [
        "L01", "L03", "L04", "L05", "L06", "L07", "L08", "L09", "L10", "L11", "L12", "L13", "L14",
        "L15", "L16", "L17", "L18",
    ];
    for (id, _, _) in skq_lint::rules::RULES {
        assert!(covered.contains(id), "rule {id} has no fixture test");
    }
    assert_eq!(covered.len(), skq_lint::rules::RULES.len());
}

#[test]
fn each_file_is_lexed_exactly_once_per_run() {
    // The rules all share one token stream per file: constructing a
    // workspace lexes each file once, and running every rule (twice)
    // must not lex anything again.
    let sources: &[(&str, &str)] = &[
        ("crates/a/src/x.rs", "pub fn a() -> u32 { 1 }\n"),
        ("crates/a/src/y.rs", "pub fn b() -> u32 { 2 }\n"),
        ("crates/b/src/z.rs", "pub fn c() -> u32 { 3 }\n"),
    ];
    let before = skq_lint::lex::lex_runs();
    let ws = Workspace::from_memory(sources);
    let after_load = skq_lint::lex::lex_runs();
    assert_eq!(
        after_load - before,
        sources.len(),
        "workspace construction lexes each file exactly once"
    );
    let _ = skq_lint::run_rules(&ws);
    let _ = skq_lint::run_rules(&ws);
    assert_eq!(
        skq_lint::lex::lex_runs(),
        after_load,
        "running the rules must reuse the shared token streams, not re-lex"
    );
}
