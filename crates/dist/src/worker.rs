//! The worker: the process-side half of the distributed evaluation
//! plane.
//!
//! A worker binary is its broker's child. It parses its command line,
//! rebuilds the evaluation context (generator, machine config, profiling
//! config), derives the same context fingerprint the broker computed, and
//! calls [`serve`] on its stdin and stdout with a closure that evaluates
//! one point. [`serve`] owns the whole protocol conversation:
//! `Hello`/`HelloAck` negotiation, the `Eval` → `EvalOk`/`EvalErr` loop
//! with panic containment, the worker-side half of the [`FaultPlan`]
//! carried on [`WorkerConfig`], and a clean return when the broker closes
//! the worker's stdin.
//!
//! Everything scheduling-related (deadlines, retries, re-dispatch) lives
//! broker-side; the worker is a pure request server, which is what makes
//! the determinism argument in DESIGN.md §8 short.

use crate::protocol::{
    read_frame, worker_identity, write_frame, Frame, ProtocolError, PROTOCOL_VERSION,
};
use datamime_runtime::supervisor::{CancelToken, FailureKind};
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
/// timings as it goes. `cfg.faults` is applied first: a `kill` entry for
/// the request's dispatch aborts the process without a reply, and any
/// other entry for its attempt replaces `eval`, as in the in-process
/// supervisor. Panics are contained and reported as `EvalErr` frames; a
/// non-finite value is classified worker-side exactly like the
/// in-process supervisor would (`nonfinite`, detail `objective evaluated
/// to {value}`).
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
                answer(&req, &cfg.faults, &mut eval)
            }
            _ => return Err("broker sent a frame other than Eval".to_string()),
        };
        if let Err(e) = write_frame(&mut writer, &reply) {
            return Err(format!("broker pipe failed: {e}"));
        }
    }
}

/// Runs one evaluation (or the fault `faults` schedules in its place)
/// under panic containment and classifies the outcome into the frame the
/// broker expects.
fn answer<F>(req: &EvalRequest, faults: &FaultPlan, eval: &mut F) -> Frame
where
    F: FnMut(&EvalRequest, &mut StageTimes) -> f64,
{
    let mut stages = StageTimes::new();
    // Deadlines are the broker's SIGKILL, so the token never fires and an
    // injected stall simply elapses.
    let token = CancelToken::new();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        match faults.apply(req.index as usize, req.attempt, &token) {
            Some(injected) => injected,
            None => eval(req, &mut stages),
        }
    }));
    match result {
        Ok(value) if value.is_finite() => Frame::EvalOk {
            index: req.index,
            error_bits: value.to_bits(),
            stage_ms: stages
                .to_millis()
                .into_iter()
                .map(|(name, ms)| (name, ms.to_bits()))
                .collect(),
        },
        Ok(value) => Frame::EvalErr {
            index: req.index,
            kind: FailureKind::NonFinite.tag().to_string(),
            detail: format!("objective evaluated to {value}"),
        },
        Err(payload) => Frame::EvalErr {
            index: req.index,
            kind: FailureKind::Panic.tag().to_string(),
            detail: panic_message(payload.as_ref()),
        },
    }
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}
