//! The paper's tables and figures, and the extensions, one module each.
//! Each reads its searches from the shared [`Searches`] table and returns
//! its [`Report`] unwritten.

use crate::{Report, Searches, Settings};

mod ablations;
mod ext_compress;
mod ext_constrained;
mod ext_tail_latency;
mod fig1;
mod fig10;
mod fig11;
mod fig12;
mod fig3;
mod fig4;
mod fig6;
mod fig7;
mod fig8;
mod fig9_table4;
mod table2;

/// One table or figure: its report under the given settings.
pub type Figure = fn(&Settings, &mut Searches) -> Report;

/// Every experiment, by the name of its `results/<name>.txt`, in the
/// order `run_all` runs them.
pub const FIGURES: [(&str, Figure); 15] = [
    ("table2", table2::run),
    ("fig1", fig1::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9_table4", fig9_table4::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("ablations", ablations::run),
    ("ext_compress", ext_compress::run),
    ("ext_tail_latency", ext_tail_latency::run),
    ("ext_constrained", ext_constrained::run),
];

#[cfg(test)]
mod tests {
    use super::FIGURES;

    #[test]
    fn figures_are_unique_and_are_the_committed_results() {
        let mut names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FIGURES.len(), "duplicate figure name");

        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut committed: Vec<String> = std::fs::read_dir(results)
            .expect("results/ is committed")
            .map(|entry| entry.expect("readable entry").file_name())
            .filter_map(|file| file.to_str()?.strip_suffix(".txt").map(str::to_owned))
            .collect();
        committed.sort_unstable();
        assert_eq!(names, committed);
    }
}
