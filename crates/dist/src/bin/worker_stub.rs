//! Test worker for the datamime-dist integration tests.
//!
//! Serves a cheap, deterministic quadratic objective over its stdin and
//! stdout so the broker machinery (negotiation, dispatch, deadlines, crash respawn) can be
//! exercised without dragging the simulator in. The `--bad-*` flags make
//! it misrepresent itself in `Hello` to trigger the broker's negotiation
//! rejects, and `--fault` accepts a `FaultPlan` spec, which
//! [`datamime_dist::serve`] applies.

#![forbid(unsafe_code)]
// Durability/IPC path: no discarded results outside tests (crates/audit/README.md).
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), deny(clippy::unused_result_ok, unused_must_use))]
use datamime_dist::{serve, WorkerConfig};
use datamime_runtime::FaultPlan;
use std::time::Instant;

fn main() {
    if let Err(e) = run() {
        eprintln!("dist-worker-stub: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let mut ctx: u64 = 0;
    let mut bad_version = false;
    let mut bad_identity = false;
    let mut faults = FaultPlan::new();

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--ctx" => {
                ctx = value("--ctx")?
                    .parse()
                    .map_err(|e| format!("bad --ctx: {e}"))?;
            }
            "--fault" => faults = FaultPlan::from_spec(&value("--fault")?)?,
            "--bad-version" => bad_version = true,
            "--bad-identity" => bad_identity = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let mut cfg = WorkerConfig::new(ctx);
    cfg.faults = faults;
    if bad_version {
        cfg.protocol_version = cfg.protocol_version.wrapping_add(1);
    }
    if bad_identity {
        cfg.identity ^= 0xDEAD_BEEF;
    }

    serve(
        &cfg,
        std::io::stdin().lock(),
        std::io::stdout().lock(),
        |req, stages| {
            let start = Instant::now();
            let value = objective(&req.unit);
            stages.record("evaluate", start.elapsed());
            value
        },
    )
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
