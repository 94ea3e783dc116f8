//! Guard tracking shared by `lock-order` and `blocking-in-lock`: which
//! calls acquire a `Mutex`/`RwLock` guard, which lock each one names,
//! and over which token window a let-bound guard stays live.
//!
//! An acquisition is `recv.lock()` / `.read()` / `.write()` (exactly the
//! zero-argument forms `Mutex::lock`, `RwLock::read`, `RwLock::write`
//! take — `io::Write::write(buf)` never matches) or a call of a
//! configured guard-returning helper (`lock(&m)`). A guard is *held*
//! only when a `let` binds it: it is born at the end of that statement
//! and dies at the end of its enclosing block or at an explicit
//! `drop(g)`.
//!
//! Honest limit: temporary guards (`lock(&m).cancel(job)`, or a guard
//! inside a larger initializer such as
//! `let v = std::mem::take(&mut *lock(&m))`) die within their statement
//! and are never treated as held.

use crate::lexer::Token;
use crate::parser::{self, Call};

/// A let-bound guard and the token window over which it is live.
#[derive(Debug, Clone)]
pub struct Guard {
    /// The binding's name.
    pub name: String,
    /// The lock it guards ([`lock_name`] of the acquiring call).
    pub lock: Option<String>,
    /// Token index one past the binding statement: the guard is born here.
    pub from: usize,
    /// Token index where the guard dies (scope end or `drop(name)`).
    pub to: usize,
}

impl Guard {
    /// Whether the guard is live at token `idx`.
    pub fn covers(&self, idx: usize) -> bool {
        idx > self.from && idx < self.to
    }
}

/// Whether `c` acquires a guard.
pub fn is_acquisition(toks: &[Token], c: &Call, guard_fns: &[String]) -> bool {
    if c.is_macro {
        return false;
    }
    let zero_args = c.args.1 == c.args.0 + 1;
    if c.name_idx > 0 && toks[c.name_idx - 1].is_punct('.') {
        zero_args && matches!(c.name.as_str(), "lock" | "read" | "write")
    } else {
        !zero_args && guard_fns.iter().any(|g| g == &c.name)
    }
}

/// The lock an acquisition names: the receiver path of the method form,
/// or the helper's sole `&path` argument (`lock(&self.shared.jobs)` →
/// `shared.jobs`, so methods and free functions agree on a lock's name).
/// `None` when that is not a plain ident path (`make().lock()`).
pub fn lock_name(toks: &[Token], c: &Call) -> Option<String> {
    if c.path.is_none() {
        return c.recv.clone();
    }
    let mut first = c.args.0 + 1;
    if toks[first].is_punct('&') {
        first += 1;
    }
    if toks[first].is_ident("mut") {
        first += 1;
    }
    let leaf = c.args.1 - 1;
    let (start, _) = parser::receiver_span(toks, leaf)?;
    (start == first).then(|| parser::receiver_path(toks, leaf))?
}

/// The guards `let`-bound in the function body `body`, in source order.
pub fn live_guards(toks: &[Token], body: (usize, usize), guard_fns: &[String]) -> Vec<Guard> {
    let mut out = Vec::new();
    for b in parser::let_bindings(toks, body) {
        if b.names.len() != 1 || b.init.0 > b.init.1 {
            continue;
        }
        let Some(acquire) = guard_valued_init(toks, b.init, guard_fns) else {
            continue;
        };
        let name = &b.names[0];
        let mut to = parser::scope_end(toks, b.stmt_end, body);
        // An explicit `drop(g)` ends the guard early.
        if let Some(dropped) = parser::calls_in(toks, (b.stmt_end, to))
            .iter()
            .find(|c| c.name == "drop" && !c.is_macro && c.arg_idents(toks).eq([name.as_str()]))
        {
            to = dropped.start;
        }
        out.push(Guard {
            name: name.clone(),
            lock: lock_name(toks, &acquire),
            from: b.stmt_end,
            to,
        });
    }
    out
}

/// The acquisition whose guard *is* the initializer's value: the
/// expression's trailing call, after peeling `.unwrap()`/`.expect(…)`
/// wrappers.
///
/// Trailing-call position matters: in
/// `let v = std::mem::take(&mut *lock(&m))` or a `match` arm that locks
/// internally, the guard is a *temporary* that dies within the
/// statement — the bound name is plain data, not a guard.
fn guard_valued_init(toks: &[Token], init: (usize, usize), guard_fns: &[String]) -> Option<Call> {
    let calls = parser::calls_in(toks, init);
    let mut end = init.1;
    loop {
        let c = calls.iter().find(|c| !c.is_macro && c.args.1 == end)?;
        let is_method = c.name_idx > 0 && toks[c.name_idx - 1].is_punct('.');
        if is_method && c.name_idx >= 2 && matches!(c.name.as_str(), "unwrap" | "expect") {
            // Peel the wrapper and look at its receiver chain, which
            // must itself end in a call.
            end = c.name_idx - 2;
            if !toks[end].is_punct(')') {
                return None;
            }
        } else {
            return is_acquisition(toks, c, guard_fns).then(|| c.clone());
        }
    }
}
