//! The worker: the process-side half of the distributed evaluation
//! plane.
//!
//! A worker binary is its broker's child. It parses its command line,
//! rebuilds the evaluation context (generator, machine config, profiling
//! config), derives the same context fingerprint the broker computed, and
//! calls [`serve`] on its stdin and stdout with a closure that evaluates
//! one point. [`serve`] owns the whole protocol conversation:
//! `Hello`/`HelloAck` negotiation, the `Eval` → `EvalOk`/`EvalErr` loop
//! over the in-process supervisor's own [`run_attempt`], the worker-side
//! half of the [`FaultPlan`] carried on [`WorkerConfig`], and a clean
//! return when the broker closes the worker's stdin.
//!
//! Everything scheduling-related (deadlines, retries, re-dispatch) lives
//! broker-side; the worker is a pure request server, which is what makes
//! the determinism argument in DESIGN.md §8 short.

// Supervised evaluation path: no panics outside tests (crates/audit/README.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::protocol::{
    read_frame, worker_identity, write_frame, Frame, ProtocolError, PROTOCOL_VERSION,
};
use datamime_runtime::supervisor::run_attempt;
use datamime_runtime::telemetry::StageTimes;
use datamime_runtime::FaultPlan;
use std::io::{Read, Write};

/// How a worker process introduces itself to the broker.
///
/// `protocol_version` and `identity` default to this build's real values;
/// tests override them to exercise the broker's negotiation rejects.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Fingerprint of the evaluation context this worker rebuilt.
    pub ctx_fingerprint: u64,
    /// Protocol version to claim in `Hello`.
    pub protocol_version: u16,
    /// Worker-binary identity to claim in `Hello`.
    pub identity: u64,
    /// Deterministic fault plan (`--fault`; tests and CI only): its eval
    /// entries fail requests before `eval` runs, and `kill` aborts the
    /// process.
    pub faults: FaultPlan,
}

impl WorkerConfig {
    /// A config claiming this build's true protocol version and identity.
    pub fn new(ctx_fingerprint: u64) -> Self {
        WorkerConfig {
            ctx_fingerprint,
            protocol_version: PROTOCOL_VERSION,
            identity: worker_identity(),
            faults: FaultPlan::new(),
        }
    }
}

/// One evaluation request, as decoded from an `Eval` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRequest {
    /// Global evaluation index.
    pub index: u64,
    /// Supervision attempt number (0-based).
    pub attempt: u32,
    /// Dispatch count for this point, including transparent
    /// re-dispatches after worker deaths — fault plans key `KillWorker`
    /// on it.
    pub dispatch: u32,
    /// The unit-cube point, reconstructed bit-exactly from the wire.
    pub unit: Vec<f64>,
}

/// Negotiates with the broker, then serves the evaluation requests read
/// from `reader`, writing each reply to `writer`, until the broker hangs
/// up (EOF on `reader` at a frame boundary, the only stop).
///
/// `eval` computes the objective for one request, recording stage
/// timings as it goes. A `kill` entry of `cfg.faults` for the request's
/// dispatch aborts the process without a reply; otherwise the request is
/// one [`run_attempt`], the in-process supervisor's own, without a
/// deadline (the broker's SIGKILL enforces it), and a failed attempt is
/// reported as an `EvalErr` frame with the kind and detail the
/// in-process supervisor would journal.
///
/// # Errors
///
/// Returns a message when the broker rejects the handshake
/// (version/identity/context skew) or the pipes fail mid-conversation.
pub fn serve<F>(
    cfg: &WorkerConfig,
    mut reader: impl Read,
    mut writer: impl Write,
    mut eval: F,
) -> Result<(), String>
where
    F: FnMut(&EvalRequest, &mut StageTimes) -> f64,
{
    write_frame(
        &mut writer,
        &Frame::Hello {
            protocol_version: cfg.protocol_version,
            ctx_fingerprint: cfg.ctx_fingerprint,
            identity: cfg.identity,
        },
    )
    .map_err(|e| format!("handshake write failed: {e}"))?;
    match read_frame(&mut reader) {
        Ok(Frame::HelloAck { .. }) => {}
        Ok(_) => return Err("broker answered Hello with an unexpected frame".to_string()),
        Err(ProtocolError::Closed) => {
            return Err(
                "broker rejected the handshake (protocol, identity, or context mismatch) \
                 and closed the pipe"
                    .to_string(),
            )
        }
        Err(e) => return Err(format!("handshake read failed: {e}")),
    }

    loop {
        let frame = match read_frame(&mut reader) {
            Ok(f) => f,
            Err(ProtocolError::Closed) => return Ok(()),
            Err(e) => return Err(format!("broker pipe failed: {e}")),
        };
        let reply = match frame {
            Frame::Eval {
                index,
                attempt,
                dispatch,
                unit_bits,
            } => {
                if cfg.faults.kills(index as usize, dispatch) {
                    // Simulates a worker crash: SIGABRT, no unwinding, no
                    // reply frame — the broker sees the worker's stdout close.
                    std::process::abort();
                }
                let req = EvalRequest {
                    index,
                    attempt,
                    dispatch,
                    unit: unit_bits.iter().copied().map(f64::from_bits).collect(),
                };
                let outcome = run_attempt(
                    &cfg.faults,
                    index as usize,
                    attempt,
                    None,
                    &req.unit,
                    &mut |_, stages, _| eval(&req, stages),
                );
                match outcome {
                    Ok((error, stages)) => Frame::EvalOk {
                        index,
                        error_bits: error.to_bits(),
                        stage_ms: stages
                            .to_millis()
                            .into_iter()
                            .map(|(name, ms)| (name, ms.to_bits()))
                            .collect(),
                    },
                    Err(failed) => Frame::EvalErr {
                        index,
                        kind: failed.kind.tag().to_string(),
                        detail: failed.detail,
                    },
                }
            }
            _ => return Err("broker sent a frame other than Eval".to_string()),
        };
        if let Err(e) = write_frame(&mut writer, &reply) {
            return Err(format!("broker pipe failed: {e}"));
        }
    }
}
