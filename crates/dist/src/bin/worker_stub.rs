//! Test worker for the datamime-dist integration tests.
//!
//! Serves a cheap, deterministic quadratic objective so the broker
//! machinery (negotiation, dispatch, deadlines, crash respawn) can be
//! exercised without dragging the simulator in. The `--bad-*` flags make
//! it misrepresent itself in `Hello` to trigger the broker's negotiation
//! rejects, and `--fault` accepts a `FaultPlan` spec, which
//! [`datamime_dist::serve`] applies.

#![forbid(unsafe_code)]
use datamime_dist::{serve, WorkerConfig};
use datamime_runtime::FaultPlan;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn main() {
    if let Err(e) = run() {
        eprintln!("dist-worker-stub: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let mut socket: Option<PathBuf> = None;
    let mut worker_id: u64 = 0;
    let mut ctx: u64 = 0;
    let mut bad_version = false;
    let mut bad_identity = false;
    let mut faults = FaultPlan::new();
    let mut stall_connect_ms: u64 = 0;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
            "--worker-id" => {
                worker_id = value("--worker-id")?
                    .parse()
                    .map_err(|e| format!("bad --worker-id: {e}"))?;
            }
            "--ctx" => {
                ctx = value("--ctx")?
                    .parse()
                    .map_err(|e| format!("bad --ctx: {e}"))?;
            }
            "--fault" => faults = FaultPlan::from_spec(&value("--fault")?)?,
            "--stall-connect-ms" => {
                stall_connect_ms = value("--stall-connect-ms")?
                    .parse()
                    .map_err(|e| format!("bad --stall-connect-ms: {e}"))?;
            }
            "--bad-version" => bad_version = true,
            "--bad-identity" => bad_identity = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let socket = socket.ok_or("--socket is required")?;

    if stall_connect_ms > 0 {
        std::thread::sleep(Duration::from_millis(stall_connect_ms));
    }

    let mut cfg = WorkerConfig::new(socket, worker_id, ctx);
    cfg.faults = faults;
    if bad_version {
        cfg.protocol_version = cfg.protocol_version.wrapping_add(1);
    }
    if bad_identity {
        cfg.identity ^= 0xDEAD_BEEF;
    }

    serve(&cfg, |req, stages| {
        let start = Instant::now();
        let value = objective(&req.unit);
        stages.record("evaluate", start.elapsed());
        value
    })
}

/// A deterministic quadratic bowl: pure function of the unit point, so
/// every worker (and the in-process backend) computes identical bits.
fn objective(unit: &[f64]) -> f64 {
    unit.iter()
        .enumerate()
        .map(|(i, x)| {
            let target = 0.25 * (i as f64 + 1.0);
            (x - target) * (x - target)
        })
        .sum()
}
