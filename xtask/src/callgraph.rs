//! Cross-crate call-graph construction over parsed [`crate::items`].
//!
//! Name resolution is deliberately conservative — every rule errs toward
//! *more* edges, because the consumer is a panic-reachability certifier
//! and a missed edge is a missed panic:
//!
//! * `self.method(…)` resolves precisely to the enclosing impl's method
//!   when one exists (and only then).
//! * `Type::method(…)` and `Self::method(…)` resolve to the named type's
//!   methods; an unknown qualifier falls back to every function of that
//!   name.
//! * `.method(…)` on any other receiver fans out to **every** function
//!   named `method` in the analyzed set — this is what soundly
//!   approximates trait-object dispatch through the `kspin-core::modules`
//!   traits (`NetworkDistance` / `LowerBound`): a `dist.distance(…)` call
//!   edges into every `distance` implementation.
//! * Bare `helper(…)` calls resolve to free functions of that name.
//!
//! Items marked test-only or debug-only by the parser are dropped from
//! resolution entirely: the certificate is about the release serving
//! binary, where `#[cfg(debug_assertions)]`/`#[cfg(test)]`/`feature =
//! "audit"` code does not exist. For the same reason the body scanner
//! skips `debug_assert*!` argument lists and statements under a
//! debug/test `cfg` attribute.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::items::{match_brace, parse_fields, type_head, Item};
use crate::lex::{Token, TokenKind};
use crate::scope::SourceFile;

/// The workspace call graph: items plus a conservative edge list.
#[derive(Debug)]
pub struct CallGraph {
    /// Every parsed item (certified or not), across all files.
    pub items: Vec<Item>,
    /// `edges[i]` = indices of items `items[i]` may call (deduplicated,
    /// ascending). Empty for non-certified items.
    pub edges: Vec<Vec<usize>>,
    /// `(struct, field)` → type head, from every named-struct
    /// declaration; types `self.field.method(…)` receivers.
    pub field_types: BTreeMap<(String, String), String>,
    /// `(self type, method)` pairs with a certified definition — the
    /// allocation classifier skips growth calls on such receivers
    /// because the call-graph edge charges the callee body instead.
    pub certified_methods: BTreeSet<(String, String)>,
}

/// Result of a breadth-first reachability sweep.
#[derive(Debug)]
pub struct Reach {
    /// `parent[i]` = predecessor of item `i` on a shortest call chain
    /// from an entry point; `Some(i)` marks an entry point itself.
    parent: Vec<Option<usize>>,
    /// Whether item `i` is reachable.
    reached: Vec<bool>,
}

impl Reach {
    /// Whether item `i` is reachable from any entry point.
    pub fn reached(&self, i: usize) -> bool {
        self.reached[i]
    }

    /// The shortest entry-to-`i` call chain as item indices (entry first).
    pub fn chain(&self, mut i: usize) -> Vec<usize> {
        let mut chain = vec![i];
        while let Some(p) = self.parent[i] {
            if p == i {
                break;
            }
            chain.push(p);
            i = p;
        }
        chain.reverse();
        chain
    }
}

impl CallGraph {
    /// Builds the call graph over `files` (parallel to the `file_idx`
    /// fields of the parsed items).
    pub fn build(files: &[SourceFile]) -> CallGraph {
        let mut items = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            items.extend(crate::items::parse_items(file, fi));
        }
        let mut field_types = BTreeMap::new();
        for file in files {
            for (s, f, ty) in parse_fields(file) {
                field_types.insert((s, f), ty);
            }
        }
        let mut certified_methods = BTreeSet::new();
        for item in &items {
            if item.certified() {
                if let Some(t) = &item.self_type {
                    certified_methods.insert((t.clone(), item.name.clone()));
                }
            }
        }
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_of: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (i, item) in items.iter().enumerate() {
            if !item.certified() {
                continue;
            }
            by_name.entry(&item.name).or_default().push(i);
            match &item.self_type {
                Some(t) => methods_of
                    .entry((t.as_str(), &item.name))
                    .or_default()
                    .push(i),
                None => free_by_name.entry(&item.name).or_default().push(i),
            }
        }
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); items.len()];
        for (i, item) in items.iter().enumerate() {
            if !item.certified() {
                continue;
            }
            let file = &files[item.file_idx];
            let mut targets = BTreeSet::new();
            for k in body_tokens(file, &items, i) {
                if let Some(site) = call_at(file, &items, i, k) {
                    resolve(
                        &site,
                        item,
                        &by_name,
                        &free_by_name,
                        &methods_of,
                        &mut targets,
                    );
                }
            }
            targets.remove(&i); // direct recursion adds nothing to reachability
            edges[i] = targets.into_iter().collect();
        }
        CallGraph {
            items,
            edges,
            field_types,
            certified_methods,
        }
    }

    /// Resolves an entry-point spec (`Type::method` or a bare free-fn
    /// name) to certified item indices.
    pub fn resolve_entry(&self, spec: &str) -> Vec<usize> {
        let (ty, name) = match spec.split_once("::") {
            Some((t, n)) => (Some(t), n),
            None => (None, spec),
        };
        self.items
            .iter()
            .enumerate()
            .filter(|(_, it)| {
                it.certified()
                    && it.name == name
                    && ty.is_none_or(|t| it.self_type.as_deref() == Some(t))
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Breadth-first reachability from `entries`, recording shortest-path
    /// parents for chain reporting.
    pub fn reach(&self, entries: &[usize]) -> Reach {
        self.reach_avoiding(entries, &[])
    }

    /// [`Self::reach`] that never enters the `avoid` set — the allocation
    /// certifier's warm-up boundary. An avoided item is unreachable even
    /// when listed as an entry (avoid wins), and nothing behind it is
    /// reached *through* it.
    pub fn reach_avoiding(&self, entries: &[usize], avoid: &[usize]) -> Reach {
        let mut parent = vec![None; self.items.len()];
        let mut reached = vec![false; self.items.len()];
        let mut blocked = vec![false; self.items.len()];
        for &a in avoid {
            blocked[a] = true;
        }
        let mut queue = VecDeque::new();
        for &e in entries {
            if !reached[e] && !blocked[e] {
                reached[e] = true;
                parent[e] = Some(e);
                queue.push_back(e);
            }
        }
        while let Some(i) = queue.pop_front() {
            for &j in &self.edges[i] {
                if !reached[j] && !blocked[j] {
                    reached[j] = true;
                    parent[j] = Some(i);
                    queue.push_back(j);
                }
            }
        }
        Reach { parent, reached }
    }

    /// Best-effort types of the local bindings visible in `items[idx]`:
    /// `name: Type` (params and typed lets), `let x = Type::ctor(…)`,
    /// `let x = Type { … }`, `let v = vec![…]`. A name bound to two
    /// different heads — or to a form the scan cannot type — is dropped,
    /// which errs in the conservative direction for the allocation
    /// classifier: unknown receivers are flagged, not skipped.
    pub fn local_types(&self, file: &SourceFile, idx: usize) -> BTreeMap<String, String> {
        let (start, end) = self.items[idx].body;
        if start >= end {
            return BTreeMap::new();
        }
        // Rewind from the body to the `fn` keyword so params are in range.
        let mut fn_k = None;
        let mut j = start;
        while j > 0 {
            j -= 1;
            if tok(file, j).is_ident("fn") && tok(file, j + 1).text == self.items[idx].name {
                fn_k = Some(j);
                break;
            }
        }
        let Some(fn_k) = fn_k else {
            return BTreeMap::new();
        };
        let mut map: BTreeMap<String, Option<String>> = BTreeMap::new();
        let mut bind = |name: String, ty: Option<String>| {
            map.entry(name)
                .and_modify(|e| {
                    if *e != ty {
                        *e = None;
                    }
                })
                .or_insert(ty);
        };
        let mut k = fn_k;
        while k < end {
            let t = tok(file, k);
            // `IDENT : Type` — a param, typed let, or (harmlessly) a
            // struct-literal field; the head of an expression initializer
            // never names a certified-method self type.
            if t.kind == TokenKind::Ident
                && k + 2 < end
                && tok(file, k + 1).is_punct(":")
                && !KEYWORDS.contains(&t.text.as_str())
            {
                let mut stop = k + 2;
                let mut depth = 0i32;
                while stop < end {
                    let s = tok(file, stop);
                    if depth <= 0 && matches!(s.text.as_str(), "," | ")" | ";" | "=" | "{" | "}") {
                        break;
                    }
                    depth += crate::items::delim_depth(s);
                    stop += 1;
                }
                bind(t.text.clone(), type_head(file, k + 2, stop));
                k = stop;
                continue;
            }
            // `let [mut] IDENT = rhs` — type the binding from the rhs
            // shape, or poison it when the shape is unrecognized.
            if t.is_ident("let") {
                let mut n = k + 1;
                if n < end && tok(file, n).is_ident("mut") {
                    n += 1;
                }
                if n + 1 < end
                    && tok(file, n).kind == TokenKind::Ident
                    && tok(file, n + 1).is_punct("=")
                {
                    bind(tok(file, n).text.clone(), rhs_type(file, n + 2, end));
                    k = n + 2;
                    continue;
                }
            }
            k += 1;
        }
        map.into_iter()
            .filter_map(|(name, ty)| ty.map(|t| (name, t)))
            .collect()
    }

    /// Resolves the receiver type of the dot-call whose method name sits
    /// at code index `k` (`k - 1` is the `.`): `self` → the enclosing
    /// impl's self type, `self.field` → the declared field type, a bare
    /// local → its inferred binding type. `None` for chained or
    /// unrecognized receivers, which the allocation classifier treats as
    /// "may allocate".
    pub fn receiver_type(
        &self,
        file: &SourceFile,
        idx: usize,
        k: usize,
        locals: &BTreeMap<String, String>,
    ) -> Option<String> {
        if k < 2 {
            return None;
        }
        let r = tok(file, k - 2);
        if r.kind != TokenKind::Ident {
            return None;
        }
        let self_ty = self.items[idx].self_type.as_deref();
        if r.text == "self" {
            if k >= 3 && tok(file, k - 3).is_punct(".") {
                return None;
            }
            return self_ty.map(str::to_string);
        }
        if k >= 4 && tok(file, k - 3).is_punct(".") && tok(file, k - 4).is_ident("self") {
            if k >= 5 && tok(file, k - 5).is_punct(".") {
                return None;
            }
            return self_ty.and_then(|t| {
                self.field_types
                    .get(&(t.to_string(), r.text.clone()))
                    .cloned()
            });
        }
        if k >= 3 && tok(file, k - 3).is_punct(".") {
            return None; // `x.y.m(…)` on a non-self chain: unknown
        }
        locals.get(&r.text).cloned()
    }
}

/// Types a `let` initializer by shape: `vec![…]` → `Vec`,
/// `A::…::Type::ctor(…)` → `Type`, `Type { … }` → `Type`. `None`
/// otherwise (bare calls, literals, method chains — return types are
/// beyond this scan).
fn rhs_type(file: &SourceFile, r: usize, end: usize) -> Option<String> {
    if r >= end || tok(file, r).kind != TokenKind::Ident {
        return None;
    }
    if tok(file, r).is_ident("vec") && r + 1 < end && tok(file, r + 1).is_punct("!") {
        return Some("Vec".to_string());
    }
    if KEYWORDS.contains(&tok(file, r).text.as_str()) {
        return None;
    }
    // Walk the `A :: B :: c` path.
    let mut segs = vec![r];
    let mut j = r + 1;
    while j + 1 < end && tok(file, j).is_punct("::") && tok(file, j + 1).kind == TokenKind::Ident {
        segs.push(j + 1);
        j += 2;
    }
    if j < end && tok(file, j).is_punct("{") && segs.len() == 1 {
        return Some(tok(file, r).text.clone()); // struct literal
    }
    if j < end && tok(file, j).is_punct("(") && segs.len() >= 2 {
        // `Type::ctor(…)` — the binding has the qualifier's type.
        return Some(tok(file, segs[segs.len() - 2]).text.clone());
    }
    None
}

/// A syntactic call site.
#[derive(Debug)]
enum CallSite {
    /// `self.name(…)` — receiver is literally `self`.
    SelfMethod(String),
    /// `.name(…)` on any other receiver.
    Method(String),
    /// `Qual::name(…)`.
    Qualified(String, String),
    /// `name(…)`.
    Bare(String),
}

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "break", "continue",
    "else", "unsafe", "let", "ref", "box", "yield",
];

fn tok(file: &SourceFile, k: usize) -> &Token {
    &file.tokens[file.code[k]]
}

/// The code-token indices of `items[idx]`'s body that belong to the
/// certified release artifact: nested child items, `debug_assert*!`
/// argument lists, attribute groups, and statements gated by a
/// debug/test `cfg` attribute are all skipped.
pub(crate) fn body_tokens(file: &SourceFile, items: &[Item], idx: usize) -> Vec<usize> {
    let (start, end) = items[idx].body;
    // Nested items (same file, body strictly inside ours).
    let children: Vec<(usize, usize)> = items
        .iter()
        .enumerate()
        .filter(|(j, it)| {
            *j != idx
                && it.file_idx == items[idx].file_idx
                && it.body.0 >= start
                && it.body.1 <= end
        })
        .map(|(_, it)| it.body)
        .collect();
    let mut out = Vec::new();
    let mut k = start;
    while k < end {
        if let Some(&(_, ce)) = children.iter().find(|(cs, ce)| *cs <= k && k < *ce) {
            k = ce;
            continue;
        }
        let t = tok(file, k);
        // debug_assert!(…) / debug_assert_eq!(…) / debug_assert_ne!(…):
        // compiled out of release builds.
        if t.kind == TokenKind::Ident
            && t.text.starts_with("debug_assert")
            && k + 2 < end
            && tok(file, k + 1).is_punct("!")
            && tok(file, k + 2).is_punct("(")
        {
            k = skip_group(file, k + 2, end, "(", ")");
            continue;
        }
        if t.is_punct("#") {
            if let Some(next) = skip_attr_and_gated_stmt(file, k, end) {
                k = next;
                continue;
            }
        }
        out.push(k);
        k += 1;
    }
    out
}

/// Skips past the balanced group opened at `k` (which holds `open`);
/// returns the index just past the closer.
fn skip_group(file: &SourceFile, k: usize, end: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    for j in k..end {
        let t = tok(file, j);
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
    }
    end
}

/// Handles a `#` at code index `k`: skips the attribute group, and — when
/// the attribute cfg-gates on `debug_assertions`/`test`/the audit feature
/// — the statement it gates as well (to the next depth-0 `;`, or the end
/// of the first depth-0 brace block).
fn skip_attr_and_gated_stmt(file: &SourceFile, k: usize, end: usize) -> Option<usize> {
    let mut j = k + 1;
    if j < end && tok(file, j).is_punct("!") {
        j += 1;
    }
    if !(j < end && tok(file, j).is_punct("[")) {
        return None;
    }
    let mut depth = 0usize;
    let mut idents: Vec<String> = Vec::new();
    let mut strs: Vec<String> = Vec::new();
    let mut after = end;
    for i in j..end {
        let t = tok(file, i);
        match t.kind {
            TokenKind::Punct if t.text == "[" => depth += 1,
            TokenKind::Punct if t.text == "]" => {
                depth -= 1;
                if depth == 0 {
                    after = i + 1;
                    break;
                }
            }
            TokenKind::Ident => idents.push(t.text.clone()),
            TokenKind::StrLit => strs.push(t.text.clone()),
            _ => {}
        }
    }
    let has = |s: &str| idents.iter().any(|i| i == s);
    let gated = has("cfg")
        && !has("not")
        && (has("debug_assertions")
            || has("test")
            || (has("feature") && strs.iter().any(|s| s == "\"audit\"")));
    if !gated {
        return Some(after);
    }
    // Skip the gated statement.
    let mut depth = 0usize;
    let mut i = after;
    while i < end {
        let t = tok(file, i);
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            ";" if depth == 0 => return Some(i + 1),
            "{" if depth == 0 => return Some(match_brace(file, i, end) + 1),
            _ => {}
        }
        i += 1;
    }
    Some(end)
}

/// Classifies the token at code index `k` as a call site, if it is one:
/// an identifier followed by `(` (optionally through a `::<…>` turbofish).
fn call_at(file: &SourceFile, items: &[Item], idx: usize, k: usize) -> Option<CallSite> {
    let t = tok(file, k);
    if t.kind != TokenKind::Ident || KEYWORDS.contains(&t.text.as_str()) {
        return None;
    }
    let end = items[idx].body.1;
    let mut j = k + 1;
    // `name::<T>(…)` turbofish.
    if j + 1 < end && tok(file, j).is_punct("::") && tok(file, j + 1).is_punct("<") {
        let mut depth = 0i32;
        j += 1;
        while j < end {
            depth += match tok(file, j).text.as_str() {
                "<" => 1,
                ">" => -1,
                "<<" => 2,
                ">>" => -2,
                _ => 0,
            };
            j += 1;
            if depth == 0 {
                break;
            }
        }
    }
    if !(j < end && tok(file, j).is_punct("(")) {
        return None;
    }
    let name = t.text.clone();
    if k == items[idx].body.0 {
        return Some(CallSite::Bare(name));
    }
    let prev = tok(file, k - 1);
    if prev.is_punct(".") {
        let is_self = k >= 2
            && tok(file, k - 2).is_ident("self")
            && !(k >= 3 && tok(file, k - 3).is_punct("."));
        return Some(if is_self {
            CallSite::SelfMethod(name)
        } else {
            CallSite::Method(name)
        });
    }
    if prev.is_punct("::") {
        if k >= 2 && tok(file, k - 2).kind == TokenKind::Ident {
            return Some(CallSite::Qualified(tok(file, k - 2).text.clone(), name));
        }
        // `<T as Trait>::name(…)` — qualifier unrecoverable, fan out.
        return Some(CallSite::Method(name));
    }
    if prev.is_ident("fn") {
        return None; // a definition, not a call
    }
    Some(CallSite::Bare(name))
}

/// Applies the resolution rules documented on the module.
fn resolve(
    site: &CallSite,
    caller: &Item,
    by_name: &BTreeMap<&str, Vec<usize>>,
    free_by_name: &BTreeMap<&str, Vec<usize>>,
    methods_of: &BTreeMap<(&str, &str), Vec<usize>>,
    targets: &mut BTreeSet<usize>,
) {
    let extend = |targets: &mut BTreeSet<usize>, v: Option<&Vec<usize>>| {
        if let Some(v) = v {
            targets.extend(v.iter().copied());
        }
    };
    match site {
        CallSite::SelfMethod(name) => {
            if let Some(ty) = &caller.self_type {
                if let Some(v) = methods_of.get(&(ty.as_str(), name.as_str())) {
                    targets.extend(v.iter().copied());
                    return;
                }
            }
            extend(targets, by_name.get(name.as_str()));
        }
        CallSite::Method(name) => extend(targets, by_name.get(name.as_str())),
        CallSite::Qualified(qual, name) => {
            let ty = if qual == "Self" {
                caller.self_type.clone().unwrap_or_else(|| qual.clone())
            } else {
                qual.clone()
            };
            if let Some(v) = methods_of.get(&(ty.as_str(), name.as_str())) {
                targets.extend(v.iter().copied());
            } else if let Some(v) = free_by_name.get(name.as_str()) {
                targets.extend(v.iter().copied());
            } else {
                extend(targets, by_name.get(name.as_str()));
            }
        }
        CallSite::Bare(name) => extend(targets, free_by_name.get(name.as_str())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(src: &str) -> CallGraph {
        CallGraph::build(&[SourceFile::from_source("fixture.rs", src)])
    }

    fn idx(g: &CallGraph, q: &str) -> usize {
        g.items
            .iter()
            .position(|i| i.qualified() == q)
            .unwrap_or_else(|| panic!("item `{q}` missing"))
    }

    fn calls(g: &CallGraph, from: &str, to: &str) -> bool {
        g.edges[idx(g, from)].contains(&idx(g, to))
    }

    #[test]
    fn self_calls_resolve_precisely() {
        let src = "\
impl Heap {
    pub fn pop(&mut self) { self.sift_down(0); }
    fn sift_down(&mut self, i: usize) { work() }
}
impl Other {
    fn sift_down(&mut self) { other_work() }
}
fn work() {}
fn other_work() {}
";
        let g = graph(src);
        assert!(calls(&g, "Heap::pop", "Heap::sift_down"));
        assert!(
            !calls(&g, "Heap::pop", "Other::sift_down"),
            "self.m() must not fan out across impls"
        );
    }

    #[test]
    fn trait_object_method_calls_fan_out() {
        let src = "\
trait Distance { fn distance(&mut self) -> u32; }
impl Distance for Exact { fn distance(&mut self) -> u32 { exact() } }
impl Distance for Approx { fn distance(&mut self) -> u32 { approx() } }
fn query(d: &mut dyn Distance) { d.distance(); }
fn exact() -> u32 { 0 }
fn approx() -> u32 { 0 }
";
        let g = graph(src);
        assert!(calls(&g, "query", "Exact::distance"));
        assert!(calls(&g, "query", "Approx::distance"));
        let r = g.reach(&g.resolve_entry("query"));
        assert!(r.reached(idx(&g, "exact")) && r.reached(idx(&g, "approx")));
    }

    #[test]
    fn qualified_and_turbofish_calls_resolve() {
        let src = "\
impl Heap { pub fn new(n: usize) -> Self { Heap } }
fn make() { let h = Heap::new(4); let v = parse::<u32>(\"1\"); }
fn parse<T>(s: &str) -> T { todo_impl() }
fn todo_impl<T>() -> T { loop {} }
";
        let g = graph(src);
        assert!(calls(&g, "make", "Heap::new"));
        assert!(calls(&g, "make", "parse"), "turbofish call missed");
    }

    #[test]
    fn closure_captured_calls_belong_to_the_enclosing_fn() {
        let src = "\
fn outer(xs: &[u32]) -> u32 { xs.iter().map(|x| helper(*x)).sum() }
fn helper(x: u32) -> u32 { x }
";
        let g = graph(src);
        assert!(calls(&g, "outer", "helper"));
    }

    #[test]
    fn nested_fn_calls_are_not_charged_to_the_parent() {
        let src = "\
fn parent() { child(); }
fn child() { fn grand() { deep(); } grand(); }
fn deep() {}
";
        let g = graph(src);
        assert!(calls(&g, "parent", "child"));
        assert!(calls(&g, "child", "grand"));
        assert!(calls(&g, "grand", "deep"));
        assert!(
            !calls(&g, "child", "deep"),
            "grand's body must not leak into child"
        );
    }

    #[test]
    fn recursion_cycles_terminate() {
        let src = "\
fn even(n: u32) -> bool { if n == 0 { true } else { odd(n - 1) } }
fn odd(n: u32) -> bool { if n == 0 { false } else { even(n - 1) } }
fn selfrec(n: u32) { selfrec(n) }
";
        let g = graph(src);
        let r = g.reach(&g.resolve_entry("even"));
        assert!(r.reached(idx(&g, "odd")));
        let chain = r.chain(idx(&g, "odd"));
        assert_eq!(chain.len(), 2, "shortest chain is even → odd");
        let r2 = g.reach(&g.resolve_entry("selfrec"));
        assert!(r2.reached(idx(&g, "selfrec")));
    }

    #[test]
    fn debug_and_test_code_is_outside_the_graph() {
        let src = "\
fn live() {
    debug_assert!(check());
    #[cfg(debug_assertions)]
    audit();
    real();
}
#[cfg(any(debug_assertions, feature = \"audit\"))]
fn audit() { boom() }
fn check() -> bool { true }
fn real() {}
fn boom() {}
#[cfg(test)]
mod tests {
    fn helper() { boom_test() }
}
";
        let g = graph(src);
        assert!(calls(&g, "live", "real"));
        assert!(
            !calls(&g, "live", "check"),
            "debug_assert! args are compiled out of release"
        );
        assert!(
            !calls(&g, "live", "audit"),
            "cfg(debug_assertions)-gated statement is compiled out"
        );
        let r = g.reach(&g.resolve_entry("live"));
        assert!(!r.reached(idx(&g, "boom")));
    }

    #[test]
    fn reach_avoiding_blocks_the_warm_up_boundary() {
        let src = "\
impl Engine {
    pub fn serve(&self) { self.step(); Engine::new(); }
    fn step(&self) { kernel(); }
    pub fn new() -> Self { warm_helper(); Engine }
}
fn kernel() {}
fn warm_helper() {}
";
        let g = graph(src);
        let avoid = g.resolve_entry("Engine::new");
        let r = g.reach_avoiding(&g.resolve_entry("Engine::serve"), &avoid);
        assert!(r.reached(idx(&g, "kernel")));
        assert!(!r.reached(idx(&g, "Engine::new")), "avoided item reached");
        assert!(
            !r.reached(idx(&g, "warm_helper")),
            "nothing behind the boundary may be reached through it"
        );
        // Avoid wins even over entry listing.
        let r2 = g.reach_avoiding(&g.resolve_entry("Engine::new"), &avoid);
        assert!(!r2.reached(idx(&g, "Engine::new")));
    }

    #[test]
    fn receiver_typing_resolves_self_fields_and_locals() {
        let src = "\
struct Heap { entries: Vec<u64>, scratch: Buffer }
impl Heap {
    fn grow(&mut self, n: usize, out: &mut Vec<u32>) {
        self.entries.push(1);
        out.push(2);
        let mut local = Vec::new();
        local.push(3);
        let b = Buffer { data: 0 };
        b.push(4);
        unknown.push(5);
        a.b.push(6);
        self.scratch.push(7);
    }
    fn reheap(&mut self) {}
}
";
        let file = SourceFile::from_source("fixture.rs", src);
        let g = CallGraph::build(&[SourceFile::from_source("fixture.rs", src)]);
        let i = idx(&g, "Heap::grow");
        let locals = g.local_types(&file, i);
        assert_eq!(locals.get("local").map(String::as_str), Some("Vec"));
        assert_eq!(locals.get("b").map(String::as_str), Some("Buffer"));
        assert_eq!(locals.get("out").map(String::as_str), Some("Vec"));
        assert!(!locals.contains_key("unknown"));

        // Receiver per planted `push` call, in source order.
        let receivers: Vec<Option<String>> = (0..file.code.len())
            .filter(|&k| file.tokens[file.code[k]].text == "push")
            .map(|k| g.receiver_type(&file, i, k, &locals))
            .collect();
        assert_eq!(
            receivers,
            vec![
                Some("Vec".into()),    // self.entries.push — declared field
                Some("Vec".into()),    // out.push — typed param
                Some("Vec".into()),    // local.push — Vec::new binding
                Some("Buffer".into()), // b.push — struct-literal binding
                None,                  // unknown.push — unbound local
                None,                  // a.b.push — non-self chain
                Some("Buffer".into()), // self.scratch.push — declared field
            ]
        );
        assert!(g
            .certified_methods
            .contains(&("Heap".into(), "reheap".into())));
        assert_eq!(
            g.field_types
                .get(&("Heap".into(), "entries".into()))
                .map(String::as_str),
            Some("Vec")
        );
    }

    #[test]
    fn entry_specs_resolve_by_type_and_method() {
        let src = "\
impl Engine { pub fn top_k(&mut self) { self.inner(); } fn inner(&mut self) {} }
impl Other { pub fn top_k(&mut self) {} }
";
        let g = graph(src);
        assert_eq!(g.resolve_entry("Engine::top_k").len(), 1);
        assert_eq!(g.resolve_entry("top_k").len(), 2);
        assert!(g.resolve_entry("Engine::missing").is_empty());
    }
}
