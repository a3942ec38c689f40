//! The workspace IR every rule runs on: each file's tokens, test mask and
//! parsed fns, plus call resolution, reachability, effective lock sets and
//! lock-order cycle detection over all of them.
//!
//! Resolution is deliberately conservative in both directions. Method
//! calls with std-collection names (`insert`, `get`, `next`, ...) never
//! resolve to workspace functions (see [`crate::parser::STD_METHODS`]),
//! `drop` never resolves (a `drop(pool)` would otherwise wire the
//! reactor to the pool's joining destructor), and `self.method(...)`
//! resolves within the receiver's own impl before falling back to a
//! name-wide search. Unresolved calls simply contribute no edges: the
//! graph under-approximates cross-crate dispatch and over-approximates
//! same-name dispatch, which is the right trade for deny-by-default
//! rules — every edge it does draw corresponds to a real possible call.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use crate::lexer::{lex, test_code_mask, Token};
use crate::parser::{parse_fns, FnItem, Site, STD_METHODS};

/// A function's address in the workspace IR.
pub type FnId = usize;

/// One source file as the rules see it.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The token stream (comments already stripped by the lexer).
    pub tokens: Vec<Token>,
    /// One flag per token: true when inside `#[cfg(test)]` code.
    pub test_mask: Vec<bool>,
    /// All recovered functions, including carved-out closures.
    pub fns: Vec<FnItem>,
}

impl SourceFile {
    /// Lexes and parses `src` as the file at `path`.
    pub fn new(path: &str, src: &str) -> SourceFile {
        let tokens = lex(src);
        let test_mask = test_code_mask(&tokens);
        let fns = parse_fns(&tokens, &test_mask);
        SourceFile { path: path.to_owned(), tokens, test_mask, fns }
    }
}

/// The assembled workspace: every file plus the resolved call graph.
pub struct Workspace {
    /// The files, in input order.
    pub files: Vec<SourceFile>,
    /// Flat function table: `(file index, fn index within file)`.
    pub fn_table: Vec<(usize, usize)>,
    /// Resolved call edges: for each fn, the (callee, call-site line,
    /// lock keys held at the call) triples.
    pub edges: Vec<Vec<Edge>>,
}

/// A fact in a function reachable from some set of roots.
pub struct Reached<'a> {
    /// The file the fact sits in.
    pub file: &'a str,
    /// The fact.
    pub site: &'a Site,
    /// Qualified fn names from the root to the fn holding the fact (a
    /// single name when the fact is in a root's own body).
    pub chain: Vec<String>,
}

/// One resolved call edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Callee function id.
    pub to: FnId,
    /// 1-based line of the call site in the caller's file.
    pub line: u32,
    /// Lock keys held at the call site.
    pub held: Vec<String>,
}

impl Workspace {
    /// Assembles the IR and resolves every call site.
    pub fn build(files: Vec<SourceFile>) -> Workspace {
        let mut fn_table: Vec<(usize, usize)> = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            for (ji, _) in file.fns.iter().enumerate() {
                fn_table.push((fi, ji));
            }
        }
        // Name and (owner, name) indexes over non-closure fns.
        let mut by_name: HashMap<&str, Vec<FnId>> = HashMap::new();
        let mut by_owner: HashMap<(&str, &str), Vec<FnId>> = HashMap::new();
        for (id, &(fi, ji)) in fn_table.iter().enumerate() {
            let f = &files[fi].fns[ji];
            if f.is_closure {
                continue;
            }
            by_name.entry(f.name.as_str()).or_default().push(id);
            if let Some(owner) = &f.owner {
                by_owner.entry((owner.as_str(), f.name.as_str())).or_default().push(id);
            }
        }
        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); fn_table.len()];
        for (id, &(fi, ji)) in fn_table.iter().enumerate() {
            let caller = &files[fi].fns[ji];
            for call in &caller.calls {
                let targets: Vec<FnId> = if let Some(q) = &call.qualifier {
                    // `Foo::bar(...)`: the impl index if the qualifier is a
                    // workspace type; `module::bar(...)` (lowercase path
                    // segment) falls back to a name-wide search. Foreign
                    // types (`Instant::now`) resolve to nothing.
                    match by_owner.get(&(q.as_str(), call.name.as_str())) {
                        Some(ids) => ids.clone(),
                        None if q.chars().next().is_some_and(char::is_lowercase) => {
                            by_name.get(call.name.as_str()).cloned().unwrap_or_default()
                        }
                        None => Vec::new(),
                    }
                } else if call.method {
                    if STD_METHODS.contains(&call.name.as_str()) {
                        Vec::new()
                    } else if call.recv_self {
                        // `self.bar(...)`: prefer the receiver's own impl.
                        caller
                            .owner
                            .as_deref()
                            .and_then(|o| by_owner.get(&(o, call.name.as_str())))
                            .or_else(|| by_name.get(call.name.as_str()))
                            .cloned()
                            .unwrap_or_default()
                    } else {
                        by_name.get(call.name.as_str()).cloned().unwrap_or_default()
                    }
                } else {
                    by_name.get(call.name.as_str()).cloned().unwrap_or_default()
                };
                for to in targets {
                    edges[id].push(Edge { to, line: call.line, held: call.held.clone() });
                }
            }
        }
        Workspace { files, fn_table, edges }
    }

    /// The function behind an id.
    pub fn fn_item(&self, id: FnId) -> &FnItem {
        let (fi, ji) = self.fn_table[id];
        &self.files[fi].fns[ji]
    }

    /// The file path a function lives in.
    pub fn fn_path(&self, id: FnId) -> &str {
        &self.files[self.fn_table[id].0].path
    }

    /// Ids of every fn, carved-out closures included, whose file is in
    /// `paths`.
    pub fn fns_in_files(&self, paths: &[&str]) -> Vec<FnId> {
        (0..self.fn_table.len()).filter(|&id| paths.contains(&self.fn_path(id))).collect()
    }

    /// BFS from `roots` over call edges. Returns, for each reached fn, the
    /// (parent fn, call-site line) it was first discovered through — roots
    /// map to `None`. Closures are never *entered* via edges (resolution
    /// gives them no incoming edges), but a root that is a closure still
    /// explores its own calls.
    pub fn reachable(&self, roots: &[FnId]) -> BTreeMap<FnId, Option<(FnId, u32)>> {
        let mut seen: BTreeMap<FnId, Option<(FnId, u32)>> = BTreeMap::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        for &r in roots {
            if seen.insert(r, None).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            for e in &self.edges[id] {
                if let Entry::Vacant(slot) = seen.entry(e.to) {
                    slot.insert(Some((id, e.line)));
                    queue.push_back(e.to);
                }
            }
        }
        seen
    }

    /// Every fact `facts` selects in a fn reachable from `roots`, once per
    /// (file, line), with the call chain that reaches it.
    pub fn reachable_sites(
        &self,
        roots: &[FnId],
        facts: fn(&FnItem) -> &[Site],
    ) -> Vec<Reached<'_>> {
        let reached = self.reachable(roots);
        let mut seen: BTreeSet<(&str, u32)> = BTreeSet::new();
        let mut out = Vec::new();
        for &id in reached.keys() {
            let file = self.fn_path(id);
            for site in facts(self.fn_item(id)) {
                if seen.insert((file, site.line)) {
                    out.push(Reached { file, site, chain: self.chain_to(&reached, id) });
                }
            }
        }
        out
    }

    /// The call chain from a BFS root to `id`, as qualified fn names
    /// (`parents` comes from [`Workspace::reachable`], whose parent
    /// pointers always lead back to a root).
    fn chain_to(&self, parents: &BTreeMap<FnId, Option<(FnId, u32)>>, id: FnId) -> Vec<String> {
        let mut chain = vec![self.fn_item(id).qualified_name()];
        let mut cur = id;
        while let Some(Some((parent, _))) = parents.get(&cur) {
            chain.push(self.fn_item(*parent).qualified_name());
            cur = *parent;
        }
        chain.reverse();
        chain
    }

    /// Every lock key a function may acquire, directly or via any callee
    /// (memoized; cycles contribute their partial sets).
    pub fn effective_locks(&self) -> Vec<BTreeSet<String>> {
        let n = self.fn_table.len();
        let mut memo: Vec<Option<BTreeSet<String>>> = vec![None; n];
        let mut visiting = vec![false; n];
        for id in 0..n {
            self.locks_of(id, &mut memo, &mut visiting);
        }
        memo.into_iter().map(Option::unwrap_or_default).collect()
    }

    fn locks_of(
        &self,
        id: FnId,
        memo: &mut Vec<Option<BTreeSet<String>>>,
        visiting: &mut Vec<bool>,
    ) -> BTreeSet<String> {
        if let Some(set) = &memo[id] {
            return set.clone();
        }
        if visiting[id] {
            return BTreeSet::new(); // recursion: break the cycle with ∅
        }
        visiting[id] = true;
        let mut set: BTreeSet<String> =
            self.fn_item(id).locks.iter().map(|l| l.key.clone()).collect();
        let callees: Vec<FnId> = self.edges[id].iter().map(|e| e.to).collect();
        for to in callees {
            set.extend(self.locks_of(to, memo, visiting));
        }
        visiting[id] = false;
        memo[id] = Some(set.clone());
        set
    }

    /// Builds the lock-order graph: an edge `A -> B` means some function
    /// acquires `B` (directly or transitively) while holding `A`. Each
    /// edge carries a witness describing where.
    pub fn lock_order_edges(&self) -> BTreeMap<String, BTreeMap<String, LockWitness>> {
        let effective = self.effective_locks();
        let mut graph: BTreeMap<String, BTreeMap<String, LockWitness>> = BTreeMap::new();
        let mut add = |a: &str, b: &str, w: LockWitness| {
            if a != b {
                graph.entry(a.to_owned()).or_default().entry(b.to_owned()).or_insert(w);
            }
        };
        for id in 0..self.fn_table.len() {
            let f = self.fn_item(id);
            let path = self.fn_path(id);
            // Direct: a later acquisition while an earlier guard is held.
            for acq in &f.locks {
                for held in &acq.held {
                    add(
                        held,
                        &acq.key,
                        LockWitness {
                            func: f.qualified_name(),
                            file: path.to_owned(),
                            line: acq.line,
                            via: None,
                        },
                    );
                }
            }
            // Transitive: calling into code that acquires, guard in hand.
            for e in &self.edges[id] {
                if e.held.is_empty() {
                    continue;
                }
                let callee = self.fn_item(e.to);
                for inner in &effective[e.to] {
                    for held in &e.held {
                        add(
                            held,
                            inner,
                            LockWitness {
                                func: f.qualified_name(),
                                file: path.to_owned(),
                                line: e.line,
                                via: Some(callee.qualified_name()),
                            },
                        );
                    }
                }
            }
        }
        graph
    }
}

/// Where a lock-order edge was observed.
#[derive(Debug, Clone)]
pub struct LockWitness {
    /// Qualified name of the function holding the first lock.
    pub func: String,
    /// Its file.
    pub file: String,
    /// Line of the second acquisition (or of the call that leads to it).
    pub line: u32,
    /// The callee the second acquisition happens through, if transitive.
    pub via: Option<String>,
}

/// A lock-order cycle: the key sequence (first repeated at the end) and
/// one witness per edge.
#[derive(Debug)]
pub struct LockCycle {
    /// Keys along the cycle, `[A, B, ..., A]`.
    pub keys: Vec<String>,
    /// Witness for each consecutive edge.
    pub witnesses: Vec<LockWitness>,
}

/// Finds every elementary cycle in the lock-order graph, deduplicated by
/// rotation (each cycle reported once, starting from its smallest key).
pub fn find_lock_cycles(graph: &BTreeMap<String, BTreeMap<String, LockWitness>>) -> Vec<LockCycle> {
    let mut cycles: Vec<LockCycle> = Vec::new();
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    // DFS from each node; a back edge onto the current stack is a cycle.
    for start in graph.keys() {
        let mut stack: Vec<&str> = vec![start];
        let mut iters: Vec<Box<dyn Iterator<Item = &String>>> = vec![Box::new(graph[start].keys())];
        while let Some(it) = iters.last_mut() {
            match it.next() {
                None => {
                    stack.pop();
                    iters.pop();
                }
                Some(next) => {
                    if let Some(pos) = stack.iter().position(|&k| k == next.as_str()) {
                        // Cycle: stack[pos..] + next. Canonicalize by
                        // rotating the smallest key to the front.
                        let cyc: Vec<String> =
                            stack[pos..].iter().map(|s| (*s).to_owned()).collect();
                        let min_at = cyc
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, k)| k.as_str())
                            .map_or(0, |(i, _)| i);
                        let canon: Vec<String> =
                            (0..cyc.len()).map(|i| cyc[(min_at + i) % cyc.len()].clone()).collect();
                        if seen.insert(canon.clone()) {
                            let mut keys = canon.clone();
                            keys.push(canon[0].clone());
                            let witnesses = keys
                                .windows(2)
                                .filter_map(|w| {
                                    graph.get(&w[0]).and_then(|m| m.get(&w[1])).cloned()
                                })
                                .collect();
                            cycles.push(LockCycle { keys, witnesses });
                        }
                    } else if graph.contains_key(next.as_str()) && stack.len() < 16 {
                        stack.push(next.as_str());
                        iters.push(Box::new(graph[next.as_str()].keys()));
                    }
                }
            }
        }
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(files.iter().map(|(path, src)| SourceFile::new(path, src)).collect())
    }

    #[test]
    fn self_method_calls_resolve_within_the_owner_impl() {
        let ws = build(&[(
            "a.rs",
            "impl A { fn outer(&self) { self.inner(); } fn inner(&self) {} }\n\
             impl B { fn inner(&self) {} }",
        )]);
        let outer = (0..ws.fn_table.len()).find(|&id| ws.fn_item(id).name == "outer").unwrap();
        let targets: Vec<String> =
            ws.edges[outer].iter().map(|e| ws.fn_item(e.to).qualified_name()).collect();
        assert_eq!(targets, vec!["A::inner"]);
    }

    #[test]
    fn std_method_names_never_resolve() {
        let ws = build(&[(
            "a.rs",
            "fn caller(m: M) { m.insert(1); } impl M { fn insert(&mut self, k: u32) { x.unwrap(); } }",
        )]);
        let caller = (0..ws.fn_table.len()).find(|&id| ws.fn_item(id).name == "caller").unwrap();
        assert!(ws.edges[caller].is_empty());
    }

    #[test]
    fn reachability_follows_transitive_chains() {
        let ws = build(&[("a.rs", "fn a() { b(); } fn b() { c(); } fn c() {} fn lone() {}")]);
        let a = (0..ws.fn_table.len()).find(|&id| ws.fn_item(id).name == "a").unwrap();
        let reached = ws.reachable(&[a]);
        let names: Vec<&str> = reached.keys().map(|&id| ws.fn_item(id).name.as_str()).collect();
        assert_eq!(names.len(), 3);
        assert!(!names.contains(&"lone"));
        let c = (0..ws.fn_table.len()).find(|&id| ws.fn_item(id).name == "c").unwrap();
        assert_eq!(ws.chain_to(&reached, c), vec!["a", "b", "c"]);
    }

    #[test]
    fn transitive_lock_edges_and_cycles() {
        let ws = build(&[(
            "a.rs",
            "impl S {\n\
             fn ab(&self) { let a = self.alpha.lock(); self.take_beta(); }\n\
             fn take_beta(&self) { let b = self.beta.lock(); }\n\
             fn ba(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); }\n\
             }",
        )]);
        let graph = ws.lock_order_edges();
        let cycles = find_lock_cycles(&graph);
        assert_eq!(cycles.len(), 1, "graph: {graph:?}");
        assert_eq!(cycles[0].keys, vec!["S::self.alpha", "S::self.beta", "S::self.alpha"]);
    }

    #[test]
    fn consistent_order_has_no_cycle() {
        let ws = build(&[(
            "a.rs",
            "impl S {\n\
             fn x(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
             fn y(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
             }",
        )]);
        assert!(find_lock_cycles(&ws.lock_order_edges()).is_empty());
    }
}
