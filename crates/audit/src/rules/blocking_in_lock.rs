//! Rule `blocking-in-lock`: no blocking I/O or sleeps while a
//! `Mutex`/`RwLock` guard is live.
//!
//! The lock-order rule catches *inversions*; this rule catches the
//! other deadlock-and-latency family: holding a guard across a call
//! that can block indefinitely (socket reads, fsyncs, `sleep`,
//! `join`). In the serve daemon one connection thread sleeping inside
//! a shared-state guard stalls every other tenant — the fairness
//! guarantees are only as good as the critical sections are short.
//!
//! Guard liveness comes from the shared tracker in [`guards`]: between
//! a let-bound guard's birth and its death, any call whose name is in
//! the configured blocking list is flagged.
//!
//! Honest limits: a blocking call hidden behind a project-local helper
//! name is invisible unless that name is added to the blocking list.
//! The condvar idiom `cv.wait(guard)` is exempted when a live guard is
//! passed as an argument — handing the guard over is the correct
//! pattern, not a violation.

use crate::config::BlockingInLockConfig;
use crate::diagnostics::Diagnostic;
use crate::parser;
use crate::rules::guards;
use crate::source::SourceFile;

/// Checks one file (the rule is workspace-global, path-unscoped).
pub fn check(src: &SourceFile, cfg: &BlockingInLockConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let toks = &src.tokens;
    for f in parser::functions(src) {
        if src.is_test_code(f.body.0) {
            continue;
        }
        let guards = guards::live_guards(toks, f.body, &cfg.guard_fns);
        if guards.is_empty() {
            continue;
        }
        for c in parser::calls_in(toks, (f.body.0 + 1, f.body.1.saturating_sub(1))) {
            if c.is_macro || !cfg.blocking.iter().any(|b| b == &c.name) {
                continue;
            }
            let live: Vec<&guards::Guard> =
                guards.iter().filter(|g| g.covers(c.name_idx)).collect();
            if live.is_empty() {
                continue;
            }
            // Condvar handoff: `cv.wait(guard)` consumes the guard.
            if matches!(c.name.as_str(), "wait" | "wait_timeout" | "wait_while")
                && c.arg_idents(toks).any(|a| live.iter().any(|g| g.name == a))
            {
                continue;
            }
            if src.is_test_code(c.name_idx) {
                continue;
            }
            out.push(Diagnostic::new(
                "blocking-in-lock",
                &src.rel_path,
                c.line,
                format!(
                    "`{}` can block while guard `{}` is live (held since line {}): \
                     shorten the critical section — copy what you need out of the \
                     guard, drop it, then do the blocking work",
                    c.name,
                    live.iter()
                        .map(|g| g.name.as_str())
                        .collect::<Vec<_>>()
                        .join("`, `"),
                    toks[live[0].from.min(toks.len() - 1)].line,
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

    fn cfg() -> BlockingInLockConfig {
        BlockingInLockConfig {
            enabled: true,
            guard_fns: vec!["lock".into()],
            blocking: vec![
                "sleep".into(),
                "write_all".into(),
                "sync_all".into(),
                "read_frame".into(),
                "join".into(),
                "wait".into(),
            ],
        }
    }

    fn run(src: &str) -> Vec<Diagnostic> {
        check(&SourceFile::parse(Path::new("f.rs"), src), &cfg())
    }

    #[test]
    fn blocking_call_under_guard_is_flagged() {
        let diags = run("fn f() {\n\
               let g = state.lock().unwrap();\n\
               std::thread::sleep(d);\n\
               use_it(&g);\n\
             }\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`sleep`"));
        assert!(diags[0].message.contains("guard `g`"));
    }

    #[test]
    fn dropping_the_guard_first_is_clean() {
        let diags = run("fn f() {\n\
               let g = state.lock().unwrap();\n\
               let want = g.want;\n\
               drop(g);\n\
               std::thread::sleep(want);\n\
             }\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn inner_block_scope_ends_the_guard() {
        let diags = run("fn f() {\n\
               { let g = state.write(); g.push(1); }\n\
               out.write_all(buf)?;\n\
             }\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn guard_helper_fn_counts_and_condvar_wait_is_exempt() {
        let diags = run("fn f() {\n\
               let mut g = lock(&shared.state);\n\
               g = cv.wait(g).unwrap();\n\
               handle.join();\n\
             }\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`join`"));
    }

    #[test]
    fn io_write_with_args_is_not_an_acquisition() {
        let diags = run("fn f() { let n = sock.write(buf); std::thread::sleep(d); }\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn value_taken_out_of_a_temporary_guard_is_not_a_guard() {
        // The guard inside `take(&mut *lock(..))` dies at the `;` — the
        // bound Vec is plain data and joining afterwards is the correct
        // drain idiom, not a violation.
        let diags = run("fn f() {\n\
               let threads = std::mem::take(&mut *lock(&shared.threads));\n\
               for t in threads { let _ = t.join(); }\n\
             }\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn lock_inside_a_match_init_is_not_a_guard() {
        let diags = run("fn f() {\n\
               let resp = match req {\n\
                 Req::List => lock(&shared.jobs).len(),\n\
                 Req::Ping => 0,\n\
               };\n\
               conn.read_frame();\n\
               send(resp);\n\
             }\n");
        assert!(diags.is_empty(), "{diags:?}");
    }
}
