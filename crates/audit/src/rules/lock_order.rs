//! Rule `lock-order`: consistent `Mutex`/`RwLock` acquisition order.
//!
//! The runtime's executor, supervisor, and watchdog coordinate through a
//! handful of locks; a deadlock between them stalls a whole search run.
//! This rule extracts, per function, every lock acquisition together
//! with the locks whose guards were live at that point (the shared
//! [`guards`] tracker: the same acquisition forms, helper functions and
//! liveness windows `blocking-in-lock` uses), builds a workspace-wide
//! acquired-before graph keyed by lock name (a leading `self.` stripped
//! so methods and free functions agree on a lock's name), and reports
//! every pair of locks acquired in both orders.
//!
//! Re-acquiring the *same* lock while it is held is *not* flagged here
//! (loops that re-lock per iteration are common and correct).

use crate::diagnostics::Diagnostic;
use crate::parser;
use crate::rules::guards;
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// One lock acquisition site.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Normalized path naming the lock (`shared.state`).
    pub lock: String,
    /// 1-based line of the acquisition.
    pub line: u32,
    /// Locks whose let-bound guards were live at this acquisition.
    pub held: Vec<String>,
}

/// The acquisitions of one function.
#[derive(Debug, Clone)]
pub struct FnLocks {
    /// Function name.
    pub function: String,
    /// File the function lives in (workspace-relative).
    pub file: PathBuf,
    /// Acquisitions in source order.
    pub acquisitions: Vec<Acquisition>,
}

/// Extracts per-function acquisitions from one file. `guard_fns` are the
/// configured guard-returning helpers (`[blocking-in-lock] guard-fns`).
pub fn collect(src: &SourceFile, guard_fns: &[String]) -> Vec<FnLocks> {
    let toks = &src.tokens;
    let mut out = Vec::new();
    for f in parser::functions(src) {
        let live = guards::live_guards(toks, f.body, guard_fns);
        let acquisitions: Vec<Acquisition> =
            parser::calls_in(toks, (f.body.0 + 1, f.body.1.saturating_sub(1)))
                .iter()
                .filter(|c| guards::is_acquisition(toks, c, guard_fns))
                .filter_map(|c| {
                    Some(Acquisition {
                        lock: guards::lock_name(toks, c)?,
                        line: c.line,
                        held: live
                            .iter()
                            .filter(|g| g.covers(c.name_idx))
                            .filter_map(|g| g.lock.clone())
                            .collect(),
                    })
                })
                .collect();
        if !acquisitions.is_empty() {
            out.push(FnLocks {
                function: f.name,
                file: src.rel_path.clone(),
                acquisitions,
            });
        }
    }
    out
}

/// A witness that `first` was acquired before `second`.
#[derive(Debug, Clone)]
struct Edge {
    function: String,
    file: PathBuf,
    line: u32,
}

/// Builds the acquired-before graph and reports both-orders pairs.
pub fn report(functions: &[FnLocks]) -> Vec<Diagnostic> {
    // (first, second) -> first witness.
    let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();
    for f in functions {
        for b in &f.acquisitions {
            for a in &b.held {
                if *a == b.lock {
                    continue; // re-acquiring in a loop is not an inversion
                }
                edges
                    .entry((a.clone(), b.lock.clone()))
                    .or_insert_with(|| Edge {
                        function: f.function.clone(),
                        file: f.file.clone(),
                        line: b.line,
                    });
            }
        }
    }
    let mut out = Vec::new();
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    for ((a, b), fwd) in &edges {
        let key = if a < b {
            (a.clone(), b.clone())
        } else {
            (b.clone(), a.clone())
        };
        if reported.contains(&key) {
            continue;
        }
        if let Some(rev) = edges.get(&(b.clone(), a.clone())) {
            reported.insert(key);
            out.push(Diagnostic::new(
                "lock-order",
                &fwd.file,
                fwd.line,
                format!(
                    "potential deadlock: `{a}` is acquired before `{b}` in `{}` \
                     ({}:{}), but `{b}` before `{a}` in `{}` ({}:{})",
                    fwd.function,
                    fwd.file.display(),
                    fwd.line,
                    rev.function,
                    rev.file.display(),
                    rev.line,
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn locks_of(src: &str) -> Vec<FnLocks> {
        collect(&SourceFile::parse(Path::new("f.rs"), src), &["lock".into()])
    }

    #[test]
    fn extracts_ordered_acquisitions_with_self_stripped() {
        let fns = locks_of(
            "impl W {\n\
               fn register(&self) {\n\
                 let a = self.shared.state.lock().unwrap();\n\
                 let b = queue.write();\n\
               }\n\
             }\n\
             fn watch(shared: &S) { let g = shared.state.lock(); }\n",
        );
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].function, "register");
        assert_eq!(fns[0].acquisitions[0].lock, "shared.state");
        assert_eq!(fns[0].acquisitions[1].lock, "queue");
        assert_eq!(fns[1].acquisitions[0].lock, "shared.state");
    }

    #[test]
    fn io_write_with_arguments_is_not_an_acquisition() {
        let fns = locks_of("fn f(w: &mut W) { w.write(buf); out.write_all(b).unwrap(); }\n");
        assert!(fns.is_empty(), "{fns:?}");
    }

    #[test]
    fn inversion_across_functions_is_reported_once() {
        let fns = locks_of(
            "fn ab() { let x = a.lock(); let y = b.lock(); }\n\
             fn ba() { let y = b.lock(); let x = a.lock(); }\n",
        );
        let diags = report(&fns);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("potential deadlock"));
        assert!(diags[0].message.contains("`ab`") && diags[0].message.contains("`ba`"));
    }

    #[test]
    fn helper_and_method_forms_agree_on_a_locks_name() {
        // `lock(&self.shared.jobs)` and `shared.jobs.lock()` are the same
        // lock, so an inversion across the two forms is still one.
        let fns = locks_of(
            "impl S {\n\
               fn admit(&self) {\n\
                 let jobs = lock(&self.shared.jobs);\n\
                 let wal = lock(&mut self.shared.manifest);\n\
               }\n\
             }\n\
             fn gc(shared: &Shared) {\n\
               let wal = shared.manifest.lock().unwrap();\n\
               let n = shared.jobs.lock().unwrap().len();\n\
             }\n",
        );
        assert_eq!(fns[0].acquisitions[1].lock, "shared.manifest");
        assert_eq!(fns[0].acquisitions[1].held, vec!["shared.jobs"]);
        assert_eq!(fns[1].acquisitions[1].held, vec!["shared.manifest"]);
        assert_eq!(report(&fns).len(), 1);
        // A helper argument that is not a plain path names no lock.
        assert!(locks_of("fn f() { let g = lock(&pick(i)); }\n").is_empty());
    }

    #[test]
    fn relocking_in_a_loop_is_not_flagged() {
        let fns = locks_of("fn pump() { loop { let j = rx.lock(); drop(j); } }\n");
        let diags = report(&fns);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn consistent_order_across_functions_is_clean() {
        let fns = locks_of(
            "fn one() { let x = a.lock(); let y = b.lock(); }\n\
             fn two() { let x = a.lock(); let y = b.lock(); }\n",
        );
        assert!(report(&fns).is_empty());
    }
}
