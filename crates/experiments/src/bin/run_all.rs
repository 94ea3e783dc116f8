//! Regenerates the paper's evaluation under `results/`: every experiment
//! in [`FIGURES`] order, or only those named (`run_all fig3 fig10`), in
//! one process whose searches each run once. An unknown name exits 2.

#![forbid(unsafe_code)]
use datamime_experiments::{or_exit, Searches, Settings, FIGURES};
use std::time::Instant;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = names
        .iter()
        .find(|name| !FIGURES.iter().any(|(known, _)| known == name))
    {
        let valid: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        or_exit::<()>(Err(format!(
            "unknown experiment {unknown:?}; valid: {}",
            valid.join(" ")
        )));
    }
    let s = Settings::from_env();
    let mut searches = Searches::default();
    let total = Instant::now();
    for (name, figure) in FIGURES {
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        let t0 = Instant::now();
        eprintln!(">>> {name}");
        figure(&s, &mut searches).finish();
        eprintln!("<<< {name} ok in {:.1?}", t0.elapsed());
    }
    eprintln!("all experiments done in {:.1?}", total.elapsed());
}
