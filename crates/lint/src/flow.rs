//! The four flow-aware rules, each a traversal of the
//! [`ItemGraph`](crate::itemgraph::ItemGraph).
//!
//! * **lock-discipline** — builds the global lock-order graph from every
//!   guard hold region (edges `A → B` when `B` is acquired — directly or
//!   through a resolvable call — while `A` is held), then flags
//!   re-acquisition of a held class, edges that close a cross-file
//!   cycle, and guards held across a spawn/submit site.
//! * **thread-leak** — taints bindings derived from `thread_local!`
//!   statics or thread-confined types (`Config::thread_local_types`) and
//!   flags them when captured by a closure handed to a scheduler or thread
//!   spawn: the legitimate pattern accesses the thread-local *inside* the
//!   worker.
//! * **error-swallow** — flags `Result`s silently discarded in non-test
//!   code: `let _ = fallible(…)`, statement-terminal `.ok();`, and
//!   `Err(…) => {}` match arms, where "fallible" means every workspace
//!   definition of the called name returns `Result` (plus a short list
//!   of std fs operations, and any `fs::<name>` call to a fallible std fs
//!   function regardless of workspace names).
//! * **commit-order** — inside the parallel drivers, flags result
//!   collection that depends on completion order: channel-based
//!   folding (`mpsc`, `recv`) and accumulation into a shared container
//!   from inside a submitted closure without a later index sort. The
//!   byte-identity guarantee requires committing by submission index.
//!
//! Findings come back as `(file index, RawFinding)`; the engine applies
//! `#[cfg(test)]` exemption and waiver resolution exactly as for the
//! per-file rules.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::itemgraph::{submit_closures, FnNode, ItemGraph, SubmitSite};
use crate::lexer::{Tok, TokKind};
use crate::parser::{match_paren, Closure};
use crate::rules::RawFinding;

/// Std filesystem calls that return `Result` and are commonly "fired
/// and forgotten"; their failures must be observed too.
const STD_RESULT_FNS: &[&str] =
    &["create_dir_all", "remove_dir_all", "remove_file", "copy", "rename", "hard_link"];

/// Std filesystem calls that return `Result` but whose bare names are too
/// common to match alone; they count as fallible when path-qualified.
const STD_FS_QUALIFIED_FNS: &[&str] = &["write"];

/// Is the identifier at `j` a `fs::<name>` / `std::fs::<name>` call to a
/// `Result`-returning std fs function? Such a call is fallible whatever
/// the workspace defines under the same bare name (a unit `fn write` on
/// a hasher must not hide a discarded `std::fs::write`).
fn std_fs_call(tokens: &[Tok], j: usize) -> bool {
    let name = tokens[j].text.as_str();
    (STD_RESULT_FNS.contains(&name) || STD_FS_QUALIFIED_FNS.contains(&name))
        && j >= 3
        && tokens[j - 1].is_punct(':')
        && tokens[j - 2].is_punct(':')
        && tokens[j - 3].is_ident("fs")
}

/// Runs every flow rule; returns `(file index, finding)` pairs.
pub fn run(graph: &ItemGraph<'_>, cfg: &Config) -> Vec<(usize, RawFinding)> {
    let mut out = Vec::new();
    lock_discipline(graph, cfg, &mut out);
    thread_leak(graph, cfg, &mut out);
    error_swallow(graph, cfg, &mut out);
    commit_order(graph, cfg, &mut out);
    out
}

fn raw(line: u32, rule: &'static str, message: String) -> RawFinding {
    RawFinding { line, rule, message }
}

fn in_scope(graph: &ItemGraph<'_>, scopes: &[String], file: usize) -> bool {
    Config::in_scopes(scopes, graph.files[file].path)
}

/// **lock-discipline** — the global lock-order graph.
fn lock_discipline(graph: &ItemGraph<'_>, cfg: &Config, out: &mut Vec<(usize, RawFinding)>) {
    // (from, to) → first site that witnesses the edge, in traversal
    // (= file/fn/token) order.
    let mut edges: BTreeMap<(String, String), (usize, u32)> = BTreeMap::new();

    for node in &graph.fns {
        if !in_scope(graph, &cfg.lock_scopes, node.file) {
            continue;
        }
        for site in &node.facts.locks {
            // Direct re-acquisition or ordered acquisition while held.
            for other in &node.facts.locks {
                if other.tok > site.tok && other.tok <= site.region_end {
                    if other.class == site.class {
                        out.push((
                            node.file,
                            raw(
                                other.line,
                                "lock-discipline",
                                format!(
                                    "lock class `{}` acquired again while a guard for it is \
                                     still held (self-deadlock)",
                                    site.class
                                ),
                            ),
                        ));
                    } else {
                        edges
                            .entry((site.class.clone(), other.class.clone()))
                            .or_insert((node.file, other.line));
                    }
                }
            }
            // Acquisitions through resolvable callees.
            for call in &node.facts.calls {
                if call.tok <= site.tok || call.tok > site.region_end {
                    continue;
                }
                for class in graph.call_may_lock(call) {
                    if *class == site.class {
                        out.push((
                            node.file,
                            raw(
                                call.line,
                                "lock-discipline",
                                format!(
                                    "call re-enters lock class `{}` while a guard for it is \
                                     still held (self-deadlock through `{}`)",
                                    site.class,
                                    graph.fns[call.target].item.qualified()
                                ),
                            ),
                        ));
                    } else {
                        edges
                            .entry((site.class.clone(), class.clone()))
                            .or_insert((node.file, call.line));
                    }
                }
            }
            // Guards held across a submit/spawn: the worker can block on
            // the same class, or the submit can block while holding it.
            for submit in &node.facts.submits {
                if submit.tok > site.tok && submit.tok <= site.region_end {
                    out.push((
                        node.file,
                        raw(
                            submit.line,
                            "lock-discipline",
                            format!(
                                "guard for lock class `{}` held across a spawn/submit site; \
                                 release it before handing work to other threads",
                                site.class
                            ),
                        ),
                    ));
                }
            }
        }
    }

    // Cycle detection: flag every edge whose reversal is already implied,
    // i.e. `A → B` where `B ⇒* A` through the edge set.
    let adj: BTreeMap<&str, BTreeSet<&str>> = {
        let mut m: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (a, b) in edges.keys() {
            m.entry(a.as_str()).or_default().insert(b.as_str());
        }
        m
    };
    for ((a, b), (file, line)) in &edges {
        if reaches(&adj, b, a) {
            out.push((
                *file,
                raw(
                    *line,
                    "lock-discipline",
                    format!("lock-order cycle: acquiring `{b}` while holding `{a}` closes a cycle"),
                ),
            ));
        }
    }
}

/// Is `to` reachable from `from` over `adj`?
fn reaches(adj: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    let mut seen = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        if !seen.insert(n) {
            continue;
        }
        if let Some(next) = adj.get(n) {
            stack.extend(next.iter().copied());
        }
    }
    false
}

/// **thread-leak** — thread-local-derived bindings crossing into
/// submitted closures.
fn thread_leak(graph: &ItemGraph<'_>, cfg: &Config, out: &mut Vec<(usize, RawFinding)>) {
    for node in &graph.fns {
        if !in_scope(graph, &cfg.thread_leak_scopes, node.file) {
            continue;
        }
        if node.facts.submits.is_empty() {
            continue;
        }
        let tokens = graph.files[node.file].tokens;
        let tainted = tainted_bindings(graph, node, tokens, cfg);
        if tainted.is_empty() {
            continue;
        }
        for submit in &node.facts.submits {
            for closure in submit_closures(tokens, submit) {
                let params = closure_params(tokens, &closure);
                for name in &tainted {
                    if params.contains(name.as_str()) || shadowed_in(tokens, &closure, name) {
                        continue;
                    }
                    let used = (closure.body.0..=closure.body.1)
                        .any(|i| i < tokens.len() && tokens[i].is_ident(name));
                    if used {
                        out.push((
                            node.file,
                            raw(
                                tokens[closure.body.0].line,
                                "thread-leak",
                                format!(
                                    "binding `{name}` derives from thread-local state but is \
                                     captured by a closure submitted to another thread; access \
                                     the thread-local inside the worker instead"
                                ),
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Bindings in this fn whose initializer (or parameter type) mentions a
/// `thread_local!` static or a thread-confined type.
fn tainted_bindings(
    graph: &ItemGraph<'_>,
    node: &FnNode<'_>,
    tokens: &[Tok],
    cfg: &Config,
) -> BTreeSet<String> {
    let (lo, hi) = node.item.body.expect("graph holds only bodied fns");
    let hi = hi.min(tokens.len().saturating_sub(1));
    let is_source = |t: &Tok| {
        t.kind == TokKind::Ident
            && (graph.thread_locals.contains(&t.text) || cfg.thread_local_types.contains(&t.text))
    };
    let mut out = BTreeSet::new();
    // `let [mut] NAME = … SOURCE … ;` statements in the body.
    let mut i = lo;
    while i <= hi {
        if tokens[i].is_ident("let") {
            let mut k = i + 1;
            if k <= hi && tokens[k].is_ident("mut") {
                k += 1;
            }
            if k <= hi && tokens[k].kind == TokKind::Ident && tokens[k].text != "_" {
                let name = tokens[k].text.clone();
                // Scan the statement to its `;` at depth 0.
                let mut depth = 0i32;
                let mut j = k + 1;
                let mut mentions = false;
                while j <= hi {
                    let t = &tokens[j];
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    } else if depth == 0 && t.is_punct(';') {
                        break;
                    } else if is_source(t) {
                        mentions = true;
                    }
                    j += 1;
                }
                if mentions {
                    out.insert(name);
                }
                i = j;
                continue;
            }
        }
        i += 1;
    }
    // Parameters typed with a thread-confined type: `NAME : [&][mut] TYPE`.
    let sig_lo = lo.saturating_sub(120);
    for i in sig_lo..lo {
        if !is_source(&tokens[i]) {
            continue;
        }
        let mut j = i;
        while j > sig_lo {
            j -= 1;
            let t = &tokens[j];
            if t.is_punct('&') || t.is_ident("mut") {
                continue;
            }
            if t.is_punct(':') && j >= 1 && tokens[j - 1].kind == TokKind::Ident {
                out.insert(tokens[j - 1].text.clone());
            }
            break;
        }
    }
    out
}

/// The closure's parameter names.
fn closure_params<'t>(tokens: &'t [Tok], closure: &Closure) -> BTreeSet<&'t str> {
    let mut out = BTreeSet::new();
    let mut i = closure.params_open + 1;
    while i < tokens.len() && !tokens[i].is_punct('|') {
        if tokens[i].kind == TokKind::Ident && tokens[i].text != "mut" {
            out.insert(tokens[i].text.as_str());
        }
        i += 1;
    }
    out
}

/// Is `name` re-bound by a `let` inside the closure body?
fn shadowed_in(tokens: &[Tok], closure: &Closure, name: &str) -> bool {
    (closure.body.0..closure.body.1).any(|i| {
        tokens[i].is_ident("let")
            && i + 2 < tokens.len()
            && (tokens[i + 1].is_ident(name)
                || (tokens[i + 1].is_ident("mut") && tokens[i + 2].is_ident(name)))
    })
}

/// **error-swallow** — silently discarded `Result`s.
fn error_swallow(graph: &ItemGraph<'_>, cfg: &Config, out: &mut Vec<(usize, RawFinding)>) {
    for node in &graph.fns {
        if !in_scope(graph, &cfg.error_swallow_scopes, node.file) {
            continue;
        }
        let tokens = graph.files[node.file].tokens;
        let (lo, hi) = node.item.body.expect("graph holds only bodied fns");
        let hi = hi.min(tokens.len().saturating_sub(1));
        let fallible =
            |name: &str| graph.result_names.contains(name) || STD_RESULT_FNS.contains(&name);

        let mut i = lo;
        while i <= hi {
            // `let _ = …;` discarding a fallible call.
            if tokens[i].is_ident("let")
                && i + 2 <= hi
                && tokens[i + 1].is_ident("_")
                && tokens[i + 2].is_punct('=')
            {
                let mut depth = 0i32;
                let mut j = i + 3;
                let mut culprit: Option<&str> = None;
                while j <= hi {
                    let t = &tokens[j];
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                        depth -= 1;
                    } else if depth == 0 && t.is_punct(';') {
                        break;
                    }
                    if t.kind == TokKind::Ident
                        && j < hi
                        && tokens[j + 1].is_punct('(')
                        && (fallible(&t.text) || std_fs_call(tokens, j))
                        && culprit.is_none()
                    {
                        culprit = Some(t.text.as_str());
                    }
                    j += 1;
                }
                if let Some(name) = culprit {
                    out.push((
                        node.file,
                        raw(
                            tokens[i].line,
                            "error-swallow",
                            format!(
                                "`let _` discards the Result of `{name}`; handle the error or \
                                 bind and report it"
                            ),
                        ),
                    ));
                }
                i = j;
                continue;
            }
            // Statement-terminal `.ok();` — the error is never observed.
            if tokens[i].is_punct('.')
                && i + 4 <= hi
                && tokens[i + 1].is_ident("ok")
                && tokens[i + 2].is_punct('(')
                && tokens[i + 3].is_punct(')')
                && tokens[i + 4].is_punct(';')
                && !statement_binds(tokens, lo, i)
            {
                out.push((
                    node.file,
                    raw(
                        tokens[i + 1].line,
                        "error-swallow",
                        "statement-terminal `.ok()` swallows the error; handle it or \
                         propagate with `?`"
                            .to_string(),
                    ),
                ));
                i += 5;
                continue;
            }
            // `Err(_) => {}` / `Err(..) => ()` — the error is matched away
            // without even naming a variant. An arm that matches a
            // specific error variant (`Err(E::Known { .. }) => {}`) has
            // observed the error and is deliberate handling.
            if tokens[i].is_ident("Err") && i < hi && tokens[i + 1].is_punct('(') {
                if let Some(close) = match_paren(tokens, i + 1) {
                    let discriminates = (i + 2..close).any(|j| {
                        tokens[j].kind == TokKind::Ident && !tokens[j].text.starts_with('_')
                    });
                    let empty_block = !discriminates
                        && close + 2 <= hi
                        && tokens[close + 1].is_punct('=')
                        && tokens[close + 2].is_punct('>')
                        && close + 4 <= hi
                        && ((tokens[close + 3].is_punct('{') && tokens[close + 4].is_punct('}'))
                            || (tokens[close + 3].is_punct('(')
                                && tokens[close + 4].is_punct(')')));
                    if empty_block {
                        out.push((
                            node.file,
                            raw(
                                tokens[i].line,
                                "error-swallow",
                                "match arm discards the error without observing it".to_string(),
                            ),
                        ));
                    }
                }
            }
            i += 1;
        }
    }
}

/// Does the statement containing token `at` bind or return its value?
/// (`let x = f().ok();`, `return f().ok();`, `x = f().ok();` all do.)
fn statement_binds(tokens: &[Tok], floor: usize, at: usize) -> bool {
    let mut depth = 0i32;
    let mut i = at;
    while i > floor {
        i -= 1;
        let t = &tokens[i];
        if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth += 1;
        } else if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            if depth == 0 {
                return false;
            }
            depth -= 1;
        } else if depth == 0 {
            if t.is_punct(';') {
                return false;
            }
            if t.is_ident("let") || t.is_ident("return") || t.is_punct('=') {
                return true;
            }
        }
    }
    false
}

/// **commit-order** — completion-order result folding in the parallel
/// drivers.
fn commit_order(graph: &ItemGraph<'_>, cfg: &Config, out: &mut Vec<(usize, RawFinding)>) {
    const RECV_METHODS: &[&str] = &["recv", "try_recv", "recv_timeout"];
    const ACCUM_METHODS: &[&str] = &["push", "extend", "append"];

    for node in &graph.fns {
        if !in_scope(graph, &cfg.commit_order_scopes, node.file) {
            continue;
        }
        let tokens = graph.files[node.file].tokens;
        let (lo, hi) = node.item.body.expect("graph holds only bodied fns");
        let hi = hi.min(tokens.len().saturating_sub(1));

        // Channel-based folding: arrival order is completion order.
        let mut flagged_lines = BTreeSet::new();
        for i in lo..=hi {
            let hit = tokens[i].is_ident("mpsc")
                || (tokens[i].is_punct('.')
                    && i + 2 <= hi
                    && tokens[i + 1].kind == TokKind::Ident
                    && RECV_METHODS.contains(&tokens[i + 1].text.as_str())
                    && tokens[i + 2].is_punct('('));
            if hit && flagged_lines.insert(tokens[i].line) {
                out.push((
                    node.file,
                    raw(
                        tokens[i].line,
                        "commit-order",
                        "channel receive folds parallel results in completion order; commit \
                         by submission index to keep outputs byte-identical"
                            .to_string(),
                    ),
                ));
            }
        }

        // Accumulation into an outer container from inside a submitted
        // closure, with no later index sort.
        for submit in &node.facts.submits {
            for closure in submit_closures(tokens, submit) {
                let params = closure_params(tokens, &closure);
                for i in closure.body.0..=closure.body.1.min(hi) {
                    if !(tokens[i].is_punct('.')
                        && i + 2 <= hi
                        && tokens[i + 1].kind == TokKind::Ident
                        && ACCUM_METHODS.contains(&tokens[i + 1].text.as_str())
                        && tokens[i + 2].is_punct('('))
                    {
                        continue;
                    }
                    let Some(head) = chain_head(tokens, i, closure.body.0) else { continue };
                    let name = tokens[head].text.as_str();
                    if params.contains(name)
                        || declared_in(tokens, closure.body.0, i, name)
                        || sorted_later(tokens, submit, hi, name)
                    {
                        continue;
                    }
                    out.push((
                        node.file,
                        raw(
                            tokens[i + 1].line,
                            "commit-order",
                            format!(
                                "worker closure accumulates into `{name}` in completion \
                                 order; commit results keyed by submission index instead"
                            ),
                        ),
                    ));
                }
            }
        }
    }
}

/// The identifier heading a postfix chain ending at the `.` at `dot`:
/// `results.lock().push(` → `results`. Walks back over `)`→`(` pairs,
/// `]`→`[` pairs, and `.`-joined idents.
fn chain_head(tokens: &[Tok], dot: usize, floor: usize) -> Option<usize> {
    let mut i = dot;
    let mut head: Option<usize> = None;
    while i > floor {
        i -= 1;
        let t = &tokens[i];
        if t.is_punct(')') {
            let mut depth = 1i32;
            while i > floor && depth > 0 {
                i -= 1;
                if tokens[i].is_punct(')') {
                    depth += 1;
                } else if tokens[i].is_punct('(') {
                    depth -= 1;
                }
            }
            continue;
        }
        if t.is_punct(']') {
            let mut depth = 1i32;
            while i > floor && depth > 0 {
                i -= 1;
                if tokens[i].is_punct(']') {
                    depth += 1;
                } else if tokens[i].is_punct('[') {
                    depth -= 1;
                }
            }
            continue;
        }
        if t.kind == TokKind::Ident {
            head = Some(i);
            continue;
        }
        if t.is_punct('.') {
            continue;
        }
        break;
    }
    head
}

/// Is `name` declared by a `let` between `lo` and `at`?
fn declared_in(tokens: &[Tok], lo: usize, at: usize, name: &str) -> bool {
    (lo..at).any(|i| {
        tokens[i].is_ident("let")
            && i + 2 < tokens.len()
            && (tokens[i + 1].is_ident(name)
                || (tokens[i + 1].is_ident("mut") && tokens[i + 2].is_ident(name)))
    })
}

/// Is `name` sorted (any `sort*` method) after the submit site?
fn sorted_later(tokens: &[Tok], submit: &SubmitSite, hi: usize, name: &str) -> bool {
    (submit.args.1..=hi).any(|i| {
        tokens[i].is_ident(name)
            && i + 2 <= hi
            && tokens[i + 1].is_punct('.')
            && tokens[i + 2].kind == TokKind::Ident
            && tokens[i + 2].text.starts_with("sort")
    })
}
