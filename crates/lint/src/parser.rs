//! A lightweight item parser on top of the [`lexer`](crate::lexer).
//!
//! This is still *not* a Rust parser: it recovers exactly the structure
//! the flow rules need — the item skeleton of a file (functions with
//! their body token ranges and enclosing `impl` type, `use` declarations,
//! `thread_local!` statics) — from the token stream, with brace matching
//! as the only notion of nesting. Everything it cannot classify it skips,
//! so unparseable corners degrade to "no facts" rather than errors.
//!
//! The output feeds [`itemgraph`](crate::itemgraph), which assembles the
//! per-file skeletons into the workspace-wide item graph.

use crate::lexer::{Tok, TokKind};

/// One `fn` item (free function or method).
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Bare name (`put`).
    pub name: String,
    /// Enclosing `impl` type, when the fn is a method (`Store`).
    pub impl_type: Option<String>,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// `true` iff the return type mentions `Result`.
    pub returns_result: bool,
    /// Token range of the body, inclusive of both braces, when the fn has
    /// one (trait method declarations do not).
    pub body: Option<(usize, usize)>,
}

impl FnItem {
    /// `Type::name` for methods, bare `name` for free functions.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One `use` declaration, flattened: `use a::b::{c, d as e};` yields the
/// paths `[a, b, c]` and `[a, b, d]` (aliases keep the original tail so
/// resolution still reaches the defining item).
#[derive(Clone, Debug)]
pub struct UseDecl {
    /// Path segments, innermost last.
    pub path: Vec<String>,
    /// The name the item is visible under locally (alias or last segment).
    pub visible: String,
}

/// The parsed skeleton of one file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// Every `fn`, in source order (nested fns included).
    pub fns: Vec<FnItem>,
    /// Every `use` declaration, flattened.
    pub uses: Vec<UseDecl>,
    /// Names of statics declared inside `thread_local! { … }` blocks.
    pub thread_locals: Vec<String>,
    /// Names of modules declared inline (`mod name {`) or out of line.
    pub mods: Vec<String>,
}

/// Parses the item skeleton out of a token stream.
pub fn parse(tokens: &[Tok]) -> ParsedFile {
    let mut out = ParsedFile::default();
    // Brace stack: `Some(type)` frames are impl bodies.
    let mut stack: Vec<Option<String>> = Vec::new();
    // When an `impl` header has been seen, the type to tag its `{` with.
    let mut pending_impl: Option<String> = None;
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('{') {
            stack.push(pending_impl.take());
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            stack.pop();
            i += 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "impl" => {
                pending_impl = impl_type_name(tokens, i);
                i += 1;
            }
            "fn" if i + 1 < tokens.len() && tokens[i + 1].kind == TokKind::Ident => {
                let impl_type = stack.iter().rev().find_map(|f| f.clone());
                if let Some((item, _next)) = parse_fn(tokens, i, impl_type) {
                    out.fns.push(item);
                }
                // Do not skip the body: nested fns and the brace stack are
                // handled by the main loop walking straight through it.
                i += 2;
            }
            "use" if stack.iter().all(|f| f.is_none()) || !stack.is_empty() => {
                let (decls, next) = parse_use(tokens, i);
                out.uses.extend(decls);
                i = next;
            }
            "thread_local" if i + 2 < tokens.len() && tokens[i + 1].is_punct('!') => {
                let (statics, next) = parse_thread_local(tokens, i + 2);
                out.thread_locals.extend(statics);
                i = next;
            }
            "mod" if i + 1 < tokens.len() && tokens[i + 1].kind == TokKind::Ident => {
                out.mods.push(tokens[i + 1].text.clone());
                i += 2;
            }
            _ => i += 1,
        }
    }
    out
}

/// The nominal self type of an `impl` header starting at `impl_idx`:
/// the first identifier after `for` if the header has one (trait impls),
/// else the first identifier after the generics.
fn impl_type_name(tokens: &[Tok], impl_idx: usize) -> Option<String> {
    let mut angle = 0i32;
    let mut first: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    for t in tokens.iter().skip(impl_idx + 1).take(60) {
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.is_punct('{') || t.is_punct(';') {
            break;
        } else if angle == 0 && t.kind == TokKind::Ident {
            if t.text == "for" {
                saw_for = true;
            } else if t.text == "where" {
                break;
            } else if saw_for {
                if after_for.is_none() {
                    after_for = Some(t.text.clone());
                }
            } else if first.is_none() {
                first = Some(t.text.clone());
            }
        }
    }
    after_for.or(first)
}

/// Parses one `fn` item starting at the `fn` keyword; returns the item
/// and the index just past the signature head.
fn parse_fn(tokens: &[Tok], fn_idx: usize, impl_type: Option<String>) -> Option<(FnItem, usize)> {
    let name_tok = &tokens[fn_idx + 1];
    let name = name_tok.text.clone();
    // Find the parameter list's `(` (skipping generics).
    let mut j = fn_idx + 2;
    let mut angle = 0i32;
    while j < tokens.len() {
        if tokens[j].is_punct('<') {
            angle += 1;
        } else if tokens[j].is_punct('>') {
            angle -= 1;
        } else if angle == 0 && tokens[j].is_punct('(') {
            break;
        } else if tokens[j].is_punct('{') || tokens[j].is_punct(';') {
            return None;
        }
        j += 1;
    }
    if j >= tokens.len() {
        return None;
    }
    let params_end = match_paren(tokens, j)?;
    // Between `)` and the body `{` (or `;`): the return type and any
    // `where` clause; `Result` anywhere there counts.
    let mut k = params_end + 1;
    let mut returns_result = false;
    let mut depth = 0i32;
    while k < tokens.len() {
        let t = &tokens[k];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_punct('{') {
            let body_end = match_brace(tokens, k)?;
            return Some((
                FnItem {
                    name,
                    impl_type,
                    line: name_tok.line,
                    returns_result,
                    body: Some((k, body_end)),
                },
                params_end + 1,
            ));
        } else if depth == 0 && t.is_punct(';') {
            return Some((
                FnItem { name, impl_type, line: name_tok.line, returns_result, body: None },
                params_end + 1,
            ));
        } else if t.is_ident("Result") {
            returns_result = true;
        }
        k += 1;
    }
    None
}

/// Parses `use …;` starting at the `use` keyword; returns the flattened
/// declarations and the index past the `;`.
fn parse_use(tokens: &[Tok], use_idx: usize) -> (Vec<UseDecl>, usize) {
    // Collect the declaration's tokens up to `;`.
    let mut end = use_idx + 1;
    while end < tokens.len() && !tokens[end].is_punct(';') {
        end += 1;
    }
    let decl = &tokens[use_idx + 1..end];
    let mut out = Vec::new();
    flatten_use(decl, &[], &mut out);
    (out, end + 1)
}

/// Recursively flattens a use tree (`a::b::{c, d as e}`) into paths.
fn flatten_use(tokens: &[Tok], prefix: &[String], out: &mut Vec<UseDecl>) {
    fn flush(
        path: &mut Vec<String>,
        alias: &mut Option<String>,
        prefix: &[String],
        out: &mut Vec<UseDecl>,
    ) {
        if let Some(last) = path.last() {
            if last == "*" {
                path.clear();
                *alias = None;
                return;
            }
            let mut full = prefix.to_vec();
            full.extend(path.iter().cloned());
            let visible = alias.take().unwrap_or_else(|| last.clone());
            out.push(UseDecl { path: full, visible });
        }
        path.clear();
    }
    let mut i = 0usize;
    let mut path: Vec<String> = Vec::new();
    let mut alias: Option<String> = None;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('{') {
            // Group: recurse per comma-separated element.
            let close = match_brace(tokens, i).unwrap_or(tokens.len().saturating_sub(1));
            let mut lo = i + 1;
            let mut depth = 0i32;
            let mut new_prefix = prefix.to_vec();
            new_prefix.extend(path.iter().cloned());
            for j in i + 1..close {
                if tokens[j].is_punct('{') {
                    depth += 1;
                } else if tokens[j].is_punct('}') {
                    depth -= 1;
                } else if depth == 0 && tokens[j].is_punct(',') {
                    flatten_use(&tokens[lo..j], &new_prefix, out);
                    lo = j + 1;
                }
            }
            if lo < close {
                flatten_use(&tokens[lo..close], &new_prefix, out);
            }
            path.clear();
            i = close + 1;
            continue;
        }
        if t.kind == TokKind::Ident {
            if t.text == "as" {
                if i + 1 < tokens.len() && tokens[i + 1].kind == TokKind::Ident {
                    alias = Some(tokens[i + 1].text.clone());
                    i += 2;
                    continue;
                }
            } else {
                path.push(t.text.clone());
            }
        } else if t.is_punct('*') {
            path.push("*".to_string());
        } else if t.is_punct(',') {
            flush(&mut path, &mut alias, prefix, out);
        }
        i += 1;
    }
    flush(&mut path, &mut alias, prefix, out);
}

/// Parses a `thread_local! { … }` body starting at its `{`; returns the
/// static names and the index past the closing `}`.
fn parse_thread_local(tokens: &[Tok], open: usize) -> (Vec<String>, usize) {
    if open >= tokens.len() || !tokens[open].is_punct('{') {
        return (Vec::new(), open + 1);
    }
    let close = match_brace(tokens, open).unwrap_or(tokens.len().saturating_sub(1));
    let mut statics = Vec::new();
    let mut i = open + 1;
    while i + 1 < close {
        if tokens[i].is_ident("static") && tokens[i + 1].kind == TokKind::Ident {
            statics.push(tokens[i + 1].text.clone());
            i += 2;
        } else {
            i += 1;
        }
    }
    (statics, close + 1)
}

/// Index of the `)` matching the `(` at `open`.
pub fn match_paren(tokens: &[Tok], open: usize) -> Option<usize> {
    match_delim(tokens, open, '(', ')')
}

/// Index of the `}` matching the `{` at `open`.
pub fn match_brace(tokens: &[Tok], open: usize) -> Option<usize> {
    match_delim(tokens, open, '{', '}')
}

fn match_delim(tokens: &[Tok], open: usize, lo: char, hi: char) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(lo) {
            depth += 1;
        } else if t.is_punct(hi) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// A closure expression found in an argument list: parameter pipe span
/// and body token range (inclusive).
#[derive(Clone, Copy, Debug)]
pub struct Closure {
    /// Token index of the opening `|`.
    pub params_open: usize,
    /// Body range, inclusive; `{ … }` braces included when present.
    pub body: (usize, usize),
}

/// Finds closure expressions between `lo` and `hi` (typically the
/// argument tokens of a call): a `|` in argument position (after `(`,
/// `,`, or `move`) opens parameters up to the next `|`, and the body is
/// either a brace block or the expression up to the next depth-0 `,` /
/// closing delimiter.
pub fn closures_in(tokens: &[Tok], lo: usize, hi: usize) -> Vec<Closure> {
    let mut out = Vec::new();
    let mut i = lo;
    while i <= hi && i < tokens.len() {
        let starts_closure = tokens[i].is_punct('|')
            && i > 0
            && (tokens[i - 1].is_punct('(')
                || tokens[i - 1].is_punct(',')
                || tokens[i - 1].is_punct('=')
                || tokens[i - 1].is_ident("move"));
        if !starts_closure {
            i += 1;
            continue;
        }
        // Parameter list: up to the closing `|` (tolerate `||`).
        let mut j = i + 1;
        while j <= hi && !tokens[j].is_punct('|') {
            j += 1;
        }
        if j > hi {
            break;
        }
        let body_start = j + 1;
        if body_start > hi {
            break;
        }
        let body_end = if tokens[body_start].is_punct('{') {
            match_brace(tokens, body_start).unwrap_or(hi).min(hi)
        } else {
            // Expression body: to the next depth-0 `,` or the end.
            let mut depth = 0i32;
            let mut k = body_start;
            let mut end = hi;
            while k <= hi {
                let t = &tokens[k];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    if depth == 0 {
                        end = k.saturating_sub(1);
                        break;
                    }
                    depth -= 1;
                } else if depth == 0 && t.is_punct(',') {
                    end = k.saturating_sub(1);
                    break;
                }
                k += 1;
            }
            end
        };
        out.push(Closure { params_open: i, body: (body_start, body_end) });
        i = body_end + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn fns_and_methods_are_found_with_bodies() {
        let src = "
fn free(a: u32) -> Result<u32, E> { a }
impl Store {
    pub fn put(&self, k: &[u8]) -> Result<()> { self.go(k) }
    fn helper(&self) { }
}
impl<T: Label> Fancy for Wrapper<T> {
    fn run(&self) -> io::Result<()> { Ok(()) }
}
";
        let p = parse(&lex(src).tokens);
        let names: Vec<String> = p.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, vec!["free", "Store::put", "Store::helper", "Wrapper::run"]);
        assert!(p.fns[0].returns_result);
        assert!(p.fns[1].returns_result);
        assert!(!p.fns[2].returns_result);
        assert!(p.fns[3].returns_result);
        assert!(p.fns.iter().all(|f| f.body.is_some()));
    }

    #[test]
    fn nested_fns_and_trait_decls() {
        let src = "
trait T { fn decl(&self) -> Result<u8>; }
fn outer() { fn inner() {} }
";
        let p = parse(&lex(src).tokens);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["decl", "outer", "inner"]);
        assert!(p.fns[0].body.is_none());
        assert!(p.fns[1].body.is_some());
    }

    #[test]
    fn uses_flatten_groups_and_aliases() {
        let src = "use a::b::{c, d as e, f::g}; use x::Y; use z::*;";
        let p = parse(&lex(src).tokens);
        let flat: Vec<(String, String)> =
            p.uses.iter().map(|u| (u.path.join("::"), u.visible.clone())).collect();
        assert_eq!(
            flat,
            vec![
                ("a::b::c".into(), "c".into()),
                ("a::b::d".into(), "e".into()),
                ("a::b::f::g".into(), "g".into()),
                ("x::Y".into(), "Y".into()),
            ]
        );
    }

    #[test]
    fn thread_local_statics_are_collected() {
        let src = "
thread_local! {
    static ARENA: RefCell<Scratch> = RefCell::new(Scratch::new());
    static ORDINAL: u64 = next();
}
fn f() {}
";
        let p = parse(&lex(src).tokens);
        assert_eq!(p.thread_locals, vec!["ARENA", "ORDINAL"]);
        assert_eq!(p.fns.len(), 1);
    }

    #[test]
    fn closures_in_argument_lists() {
        let src = "sched.run(&jobs, |_, j| { work(j) }); other(move || tail());";
        let toks = lex(src).tokens;
        let all = closures_in(&toks, 0, toks.len() - 1);
        assert_eq!(all.len(), 2);
        let body: Vec<&str> =
            toks[all[0].body.0..=all[0].body.1].iter().map(|t| t.text.as_str()).collect();
        assert!(body.contains(&"work"));
    }
}
