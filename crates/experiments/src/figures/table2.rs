//! Table II: specifications of the three evaluation platforms.

use crate::{Report, Searches, Settings};
use datamime_sim::MachineConfig;

pub(super) fn run(s: &Settings, _: &mut Searches) -> Report {
    let mut r = Report::new("table2", s);
    for m in [
        MachineConfig::broadwell(),
        MachineConfig::zen2(),
        MachineConfig::silvermont(),
    ] {
        r.line(format!("-- {} --", m.name));
        r.line(format!(
            "  cores        1 simulated core @ {:.2} GHz, width {}",
            m.freq_ghz, m.issue_width
        ));
        r.line(format!("  L1I          {}", m.l1i));
        r.line(format!("  L1D          {}", m.l1d));
        r.line(format!("  L2           {}", m.l2));
        match m.llc {
            Some(llc) => r.line(format!(
                "  L3           {llc}; CAT partitions: {}",
                m.llc_partitions()
            )),
            None => r.line("  L3           none (L2 is the last level)"),
        }
        r.line(format!(
            "  ITLB/DTLB    {} / {} entries",
            m.itlb.entries, m.dtlb.entries
        ));
        r.line(format!(
            "  penalties    L2 {:.0}c, LLC {:.0}c, mem {:.0}c, mispredict {:.0}c, MLP {:.1}",
            m.penalties.l2_hit,
            m.penalties.llc_hit,
            m.penalties.memory,
            m.penalties.branch_mispredict,
            m.penalties.mlp
        ));
    }
    r
}
