//! `datamime-worker`: the evaluation worker process of the distributed
//! search backend.
//!
//! Spawned by the broker (`datamime clone ... --backend proc`), never run
//! by hand: it rebuilds the search's evaluation context from its command
//! line, proves protocol version / binary identity / context fingerprint
//! in the handshake over its stdin and stdout, and then serves
//! instantiate → profile → error evaluations until the broker closes its
//! stdin. All the logic lives in [`datamime::distproc`].

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match datamime::distproc::run_worker(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("datamime-worker: {e}");
            ExitCode::FAILURE
        }
    }
}
