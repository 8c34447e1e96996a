//! Pretty-printers that regenerate the paper's tables as text.
//!
//! Used by the `experiments` example; kept here so the formatting is
//! testable and the example stays trivial.

use crate::area::{
    control_object_modules, memory_block_modules, physical_object_modules, total_area, ModuleArea,
};
use crate::scaling::{table4, ApComposition};
use std::fmt::Write;

fn render_area_table(title: &str, modules: &[ModuleArea]) -> String {
    let mut out = String::new();
    writeln!(out, "{title}").unwrap();
    writeln!(
        out,
        "{:<28} {:>10} {:>14}",
        "Modules", "Process[um]", "Area[lambda^2]"
    )
    .unwrap();
    for m in modules {
        writeln!(
            out,
            "{:<28} {:>10.2} {:>14.3e}",
            m.name, m.process_um, m.area_lambda2
        )
        .unwrap();
    }
    writeln!(
        out,
        "{:<28} {:>10} {:>14.3e}",
        "Total",
        "",
        total_area(modules)
    )
    .unwrap();
    out
}

/// Renders Table 1 (physical object area requirement).
pub fn table1() -> String {
    render_area_table(
        "Table 1: Physical Object Area Requirement",
        physical_object_modules(),
    )
}

/// Renders Table 2 (memory block area requirement).
pub fn table2() -> String {
    render_area_table(
        "Table 2: Memory Block Area Requirement",
        memory_block_modules(),
    )
}

/// Renders Table 3 (control objects area requirement).
pub fn table3() -> String {
    render_area_table(
        "Table 3: Control Objects Area Requirement",
        control_object_modules(),
    )
}

/// Renders Table 4 (number of APs, wire delay, and peak GOPS) for a
/// composition.
pub fn table4_text(comp: &ApComposition) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Table 4: Number of APs, Wire Delay, and Peak GOPS ({} PO + {} MO per AP, 1 cm^2 die)",
        comp.compute_objects, comp.memory_objects
    )
    .unwrap();
    writeln!(
        out,
        "{:>5} {:>8} {:>10} {:>12} {:>10}",
        "Year", "Process", "Avail.APs", "WireDelay", "PeakGOPS"
    )
    .unwrap();
    for r in table4(comp) {
        writeln!(
            out,
            "{:>5} {:>6.0}nm {:>10} {:>10.2}ns {:>10.1}",
            r.year, r.process_nm, r.available_aps, r.wire_delay_ns, r.peak_gops
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_all_rows() {
        let t1 = table1();
        assert!(t1.contains("64b fDiv"));
        assert!(t1.contains("Total"));
        let t2 = table2();
        assert!(t2.contains("64KB SRAM"));
        let t3 = table3();
        assert!(t3.contains("WSRF"));
    }

    #[test]
    fn table4_renders_six_years() {
        let t = table4_text(&ApComposition::default());
        for y in 2010..=2015 {
            assert!(t.contains(&y.to_string()), "missing year {y}:\n{t}");
        }
        assert!(t.contains("45nm"));
        assert!(t.contains("12"));
        assert!(t.contains("41"));
    }
}
