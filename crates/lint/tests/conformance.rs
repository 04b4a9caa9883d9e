//! Fixture-corpus conformance tests for `anonet-lint`.
//!
//! Every rule has one failing and one passing fixture under
//! `tests/fixtures/{fail,pass}/`. Fixtures are fed through
//! [`check_source`] under a virtual workspace path that puts them in the
//! rule's scope — they are corpus data, not compiled code (the workspace
//! walker skips any `fixtures` directory for the same reason).

use std::path::Path;

use anonet_lint::{check_source, check_workspace, run_check, Config, FileReport};
use anonet_obs::Json;

fn fixture(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path:?}: {e}"))
}

fn check_fixture(rel: &str, virtual_path: &str) -> FileReport {
    check_source(virtual_path, &fixture(rel), &Config::workspace())
}

fn count(report: &FileReport, rule: &str) -> usize {
    report.findings.iter().filter(|f| f.rule == rule && !f.waived).count()
}

#[test]
fn determinism_fixtures() {
    let fail = check_fixture("fail/determinism.rs", "crates/graph/src/fixture.rs");
    assert_eq!(count(&fail, "determinism"), 3, "{:?}", fail.findings);
    let pass = check_fixture("pass/determinism.rs", "crates/graph/src/fixture.rs");
    assert_eq!(count(&pass, "determinism"), 0, "{:?}", pass.findings);
    // The dirty-set pattern specifically lands in the views scope: the
    // incremental refinement worklist must sweep in sorted order.
    let views = check_fixture("fail/determinism.rs", "crates/views/src/refinement.rs");
    assert_eq!(count(&views, "determinism"), 3, "{:?}", views.findings);
    let views_pass = check_fixture("pass/determinism.rs", "crates/views/src/refinement.rs");
    assert_eq!(count(&views_pass, "determinism"), 0, "{:?}", views_pass.findings);
}

#[test]
fn anonymity_fixtures() {
    let fail = check_fixture("fail/anonymity.rs", "crates/algorithms/src/fixture.rs");
    assert_eq!(count(&fail, "anonymity"), 2, "{:?}", fail.findings);
    let pass = check_fixture("pass/anonymity.rs", "crates/algorithms/src/fixture.rs");
    assert_eq!(count(&pass, "anonymity"), 0, "{:?}", pass.findings);
    // The same bad source is fine in a sanctioned verifier module.
    let sanctioned = check_fixture("fail/anonymity.rs", "crates/algorithms/src/verify.rs");
    assert_eq!(count(&sanctioned, "anonymity"), 0, "{:?}", sanctioned.findings);
}

#[test]
fn randomness_fixtures() {
    let fail = check_fixture("fail/randomness.rs", "crates/core/src/fixture.rs");
    assert!(count(&fail, "randomness") >= 2, "{:?}", fail.findings);
    let pass = check_fixture("pass/randomness.rs", "crates/core/src/fixture.rs");
    assert_eq!(count(&pass, "randomness"), 0, "{:?}", pass.findings);
    // The same source is sanctioned in the randomness layer and testkit.
    let layer = check_fixture("fail/randomness.rs", "crates/runtime/src/randomness.rs");
    assert_eq!(count(&layer, "randomness"), 0, "{:?}", layer.findings);
    let testkit = check_fixture("fail/randomness.rs", "crates/testkit/src/fixture.rs");
    assert_eq!(count(&testkit, "randomness"), 0, "{:?}", testkit.findings);
}

#[test]
fn panic_hygiene_fixtures() {
    let fail = check_fixture("fail/panic.rs", "crates/runtime/src/fixture.rs");
    assert_eq!(count(&fail, "panic-hygiene"), 3, "{:?}", fail.findings);
    let pass = check_fixture("pass/panic.rs", "crates/runtime/src/fixture.rs");
    assert_eq!(count(&pass, "panic-hygiene"), 0, "{:?}", pass.findings);
    // Out of the hot-path scope the same source is not flagged.
    let cold = check_fixture("fail/panic.rs", "crates/views/src/fixture.rs");
    assert_eq!(count(&cold, "panic-hygiene"), 0, "{:?}", cold.findings);
}

#[test]
fn obs_naming_fixtures() {
    // Under the names-file path both constant values and call-site
    // literals are judged.
    let fail = check_fixture("fail/obs_naming.rs", "crates/obs/src/lib.rs");
    assert_eq!(count(&fail, "obs-naming"), 6, "{:?}", fail.findings);
    let pass = check_fixture("pass/obs_naming.rs", "crates/obs/src/lib.rs");
    assert_eq!(count(&pass, "obs-naming"), 0, "{:?}", pass.findings);
}

/// Asserts every unwaived finding in `report` belongs to `rule` — the
/// fail fixtures must trigger exactly their own rule.
fn only_rule(report: &FileReport, rule: &str) {
    for f in report.findings.iter().filter(|f| !f.waived) {
        assert_eq!(f.rule, rule, "unexpected finding: {f:?}");
    }
}

#[test]
fn lock_discipline_fixtures() {
    let fail = check_fixture("fail/lock_discipline.rs", "crates/store/src/fixture.rs");
    // Two cycle edges, one re-entrant acquisition, one guard held
    // across a submit site.
    assert_eq!(count(&fail, "lock-discipline"), 4, "{:?}", fail.findings);
    only_rule(&fail, "lock-discipline");
    let pass = check_fixture("pass/lock_discipline.rs", "crates/store/src/fixture.rs");
    assert!(pass.findings.is_empty(), "{:?}", pass.findings);
}

#[test]
fn thread_leak_fixtures() {
    let fail = check_fixture("fail/thread_leak.rs", "crates/views/src/fixture.rs");
    assert_eq!(count(&fail, "thread-leak"), 2, "{:?}", fail.findings);
    only_rule(&fail, "thread-leak");
    let pass = check_fixture("pass/thread_leak.rs", "crates/views/src/fixture.rs");
    assert!(pass.findings.is_empty(), "{:?}", pass.findings);
}

#[test]
fn error_swallow_fixtures() {
    let fail = check_fixture("fail/error_swallow.rs", "crates/runtime/src/fixture.rs");
    // Three bare-name swallows plus one `std::fs::write` beside a unit
    // `fn write`.
    assert_eq!(count(&fail, "error-swallow"), 4, "{:?}", fail.findings);
    only_rule(&fail, "error-swallow");
    let pass = check_fixture("pass/error_swallow.rs", "crates/runtime/src/fixture.rs");
    assert!(pass.findings.is_empty(), "{:?}", pass.findings);
}

#[test]
fn commit_order_fixtures() {
    let fail = check_fixture("fail/commit_order.rs", "crates/batch/src/fixture.rs");
    // One completion-order accumulation, one `mpsc`, one `recv`.
    assert_eq!(count(&fail, "commit-order"), 3, "{:?}", fail.findings);
    only_rule(&fail, "commit-order");
    let pass = check_fixture("pass/commit_order.rs", "crates/batch/src/fixture.rs");
    assert!(pass.findings.is_empty(), "{:?}", pass.findings);
    // The same accumulation pattern outside the parallel-driver scope is
    // not the commit-order rule's business.
    let elsewhere = check_fixture("fail/commit_order.rs", "crates/graph/src/fixture.rs");
    assert_eq!(count(&elsewhere, "commit-order"), 0, "{:?}", elsewhere.findings);
}

#[test]
fn lock_cycle_is_detected_across_files() {
    // Each file is clean in isolation: the cycle only exists in the
    // workspace-wide lock-order graph.
    let forward = "
use std::sync::Mutex;
pub struct A { pub shards: Mutex<u32>, pub tables: Mutex<u32> }
impl A {
    fn forward(&self) {
        let a = self.shards.lock();
        let b = self.tables.lock();
        use_both(a, b);
    }
}
";
    let backward = "
use std::sync::Mutex;
pub struct B { pub shards: Mutex<u32>, pub tables: Mutex<u32> }
impl B {
    fn backward(&self) {
        let b = self.tables.lock();
        let a = self.shards.lock();
        use_both(a, b);
    }
}
";
    let cfg = Config::workspace();
    for (src, path) in [(forward, "crates/store/src/fwd.rs"), (backward, "crates/store/src/bwd.rs")]
    {
        let alone = check_source(path, src, &cfg);
        assert!(alone.findings.is_empty(), "{path} alone: {:?}", alone.findings);
    }
    let files = vec![
        ("crates/store/src/fwd.rs".to_string(), forward.to_string()),
        ("crates/store/src/bwd.rs".to_string(), backward.to_string()),
    ];
    let report = check_workspace(&files, &cfg);
    let cycles: Vec<_> = report.findings.iter().filter(|f| f.rule == "lock-discipline").collect();
    assert_eq!(cycles.len(), 2, "{:?}", report.findings);
    assert!(cycles.iter().any(|f| f.file == "crates/store/src/fwd.rs"));
    assert!(cycles.iter().any(|f| f.file == "crates/store/src/bwd.rs"));
}

#[test]
fn may_lock_propagates_across_files_through_calls() {
    // `helper` (file 1) takes the shard lock; `outer` (file 2) calls it
    // while holding the same class — a self-deadlock only visible
    // through the cross-file call graph.
    let helper = "
use std::sync::Mutex;
pub struct Store { pub shards: Mutex<u32> }
impl Store {
    pub fn shard_stats(&self) -> u32 {
        let g = self.shards.lock();
        read(g)
    }
}
";
    let caller = "
impl Store {
    pub fn outer(&self) -> u32 {
        let g = self.shards.lock();
        let stats = self.shard_stats();
        combine(g, stats)
    }
}
";
    let files = vec![
        ("crates/store/src/helper.rs".to_string(), helper.to_string()),
        ("crates/store/src/caller.rs".to_string(), caller.to_string()),
    ];
    let report = check_workspace(&files, &Config::workspace());
    let hits: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "lock-discipline" && f.message.contains("shard_stats"))
        .collect();
    assert_eq!(hits.len(), 1, "{:?}", report.findings);
    assert_eq!(hits[0].file, "crates/store/src/caller.rs");
}

#[test]
fn flow_findings_accept_waivers_like_any_other() {
    let src = "
fn persist(x: u32) -> Result<u32, String> { Ok(x) }
fn best_effort(x: u32) {
    // anonet-lint: allow(error-swallow, reason = \"fixture: failure is benign here\")
    let _ = persist(x);
}
";
    let r = check_source("crates/runtime/src/fixture.rs", src, &Config::workspace());
    assert_eq!(count(&r, "error-swallow"), 0, "{:?}", r.findings);
    assert_eq!(r.findings.iter().filter(|f| f.waived).count(), 1);
    assert!(r.unused_waivers.is_empty());
}

#[test]
fn valid_waiver_suppresses_and_is_tracked() {
    let src = r#"
fn hot() -> u32 {
    // anonet-lint: allow(panic-hygiene, reason = "demo invariant")
    Some(1).unwrap()
}
"#;
    let r = check_source("crates/runtime/src/fixture.rs", src, &Config::workspace());
    assert_eq!(count(&r, "panic-hygiene"), 0, "{:?}", r.findings);
    assert_eq!(r.findings.iter().filter(|f| f.waived).count(), 1);
    assert_eq!(r.findings[0].reason.as_deref(), Some("demo invariant"));
    assert_eq!(r.waivers_total, 1);
    assert!(r.unused_waivers.is_empty());
}

#[test]
fn trailing_waiver_covers_its_own_line() {
    let src = "fn hot() -> u32 { Some(1).unwrap() } // anonet-lint: allow(panic-hygiene, reason = \"demo\")\n";
    let r = check_source("crates/runtime/src/fixture.rs", src, &Config::workspace());
    assert_eq!(count(&r, "panic-hygiene"), 0, "{:?}", r.findings);
}

#[test]
fn file_scope_waiver_covers_the_whole_file() {
    let src = r#"
// anonet-lint: allow-file(panic-hygiene, reason = "demo module")
fn a() { panic!("x"); }
fn b() -> u32 { Some(1).unwrap() }
"#;
    let r = check_source("crates/runtime/src/fixture.rs", src, &Config::workspace());
    assert_eq!(count(&r, "panic-hygiene"), 0, "{:?}", r.findings);
    assert_eq!(r.findings.iter().filter(|f| f.waived).count(), 2);
}

#[test]
fn waiver_without_reason_is_rejected_and_suppresses_nothing() {
    let src = r#"
fn hot() -> u32 {
    // anonet-lint: allow(panic-hygiene)
    Some(1).unwrap()
}
"#;
    let r = check_source("crates/runtime/src/fixture.rs", src, &Config::workspace());
    // The original finding stays…
    assert_eq!(count(&r, "panic-hygiene"), 1, "{:?}", r.findings);
    // …and the malformed waiver is its own (unwaivable) finding.
    assert_eq!(count(&r, "waiver"), 1, "{:?}", r.findings);
}

#[test]
fn unknown_rule_in_waiver_is_rejected() {
    let src = "// anonet-lint: allow(speling, reason = \"oops\")\n";
    let r = check_source("crates/runtime/src/fixture.rs", src, &Config::workspace());
    assert_eq!(count(&r, "waiver"), 1, "{:?}", r.findings);
}

#[test]
fn unused_waivers_are_reported() {
    let src = "// anonet-lint: allow(determinism, reason = \"nothing here iterates\")\nfn f() {}\n";
    let r = check_source("crates/graph/src/fixture.rs", src, &Config::workspace());
    assert!(r.findings.is_empty());
    assert_eq!(r.unused_waivers, vec![(1, "determinism".to_string())]);
}

#[test]
fn test_modules_are_exempt() {
    let src = r#"
pub fn ok() {}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() {
        let m: HashMap<u32, u32> = HashMap::new();
        for x in &m {}
        Some(1).unwrap();
        let v = NodeId::new(0);
        let _ = v.index();
    }
}
"#;
    for path in [
        "crates/graph/src/fixture.rs",
        "crates/runtime/src/fixture.rs",
        "crates/algorithms/src/fixture.rs",
    ] {
        let r = check_source(path, src, &Config::workspace());
        assert!(r.findings.is_empty(), "{path}: {:?}", r.findings);
    }
}

#[test]
fn workspace_self_check_is_clean() {
    // The acceptance gate: the repo itself must come out clean — every
    // true finding fixed or waived with a reason, no stale waivers.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run_check(&root, &Config::workspace()).expect("walk the workspace");
    assert!(report.files_scanned > 50, "only scanned {} files", report.files_scanned);
    let unwaived: Vec<_> = report.findings.iter().filter(|f| !f.waived).collect();
    assert!(unwaived.is_empty(), "unwaived findings: {unwaived:#?}");
    assert!(report.unused_waivers.is_empty(), "unused waivers: {:?}", report.unused_waivers);
    // Every waiver that is in use carries a non-empty reason.
    for f in report.findings.iter().filter(|f| f.waived) {
        assert!(
            f.reason.as_deref().is_some_and(|r| !r.trim().is_empty()),
            "waived finding without a reason: {f:?}"
        );
    }
}

#[test]
fn json_report_round_trips_through_the_shared_serializer() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run_check(&root, &Config::workspace()).expect("walk the workspace");
    let parsed = Json::parse(&report.to_json().pretty()).expect("self-produced JSON parses");
    assert_eq!(parsed.get("tool").and_then(Json::as_str), Some("anonet-lint"));
    assert_eq!(
        parsed.get("files_scanned").and_then(Json::as_f64),
        Some(report.files_scanned as f64)
    );
    assert_eq!(parsed.get("unwaived").and_then(Json::as_f64), Some(0.0));
    let findings = parsed.get("findings").and_then(Json::items).expect("findings array");
    assert_eq!(findings.len(), report.findings.len());
    for f in findings {
        assert!(f.get("waived").and_then(Json::as_bool).unwrap());
        assert!(!f.get("reason").and_then(Json::as_str).unwrap().is_empty());
    }
    let by_rule = parsed.get("by_rule").expect("by_rule object");
    for rule in anonet_lint::RULES {
        assert_eq!(
            by_rule.get(rule).and_then(|r| r.get("unwaived")).and_then(Json::as_f64),
            Some(0.0),
            "rule {rule}"
        );
    }
}
