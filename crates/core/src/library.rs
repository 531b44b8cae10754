//! The component library.
//!
//! "Instruction sets are generated from a library of components covering
//! a spectrum of space/time trade-off alternatives" (abstract). Each
//! entry pairs a hardware building block with its CLB cost and the
//! cycle effect it has on the microinstruction sequences; the iterative
//! optimiser enumerates applicable entries when a timing violation must
//! be fixed.

use pscp_fpga::area::{self, Clb};
use pscp_tep::TepArch;
use std::fmt;

/// A library element the optimiser can add to an architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Widen the data bus / calculation unit to the given width.
    WidenBus(u8),
    /// Add the multiply/divide extension.
    MulDivUnit,
    /// Add a dedicated comparator (the `if (a == b)` pattern rule, §4).
    Comparator,
    /// Add the two's-complement path (the `x = -x` pattern rule, §4).
    TwosComplement,
    /// Grow the register file to the given size.
    RegisterFile(u8),
    /// Pipeline the microinstruction fetch (§6 future-work extension).
    Pipeline,
    /// Replicate the TEP (another processing element).
    ExtraTep,
}

impl Component {
    /// All elements in the order the optimiser should consider them —
    /// "improvements are applied in increasing order of difficulty"
    /// (§4): cheap datapath patterns first, replication last. The
    /// pipelined fetch (future work in the paper) is not in the default
    /// catalog; use [`Component::catalog_extended`] to enable it.
    pub fn catalog() -> Vec<Component> {
        vec![
            Component::Comparator,
            Component::TwosComplement,
            Component::WidenBus(16),
            Component::MulDivUnit,
            Component::RegisterFile(8),
            Component::ExtraTep,
        ]
    }

    /// The default catalog plus the §6 future-work extensions, with the
    /// pipeline considered cheaper than replication.
    pub fn catalog_extended() -> Vec<Component> {
        vec![
            Component::Comparator,
            Component::TwosComplement,
            Component::WidenBus(16),
            Component::MulDivUnit,
            Component::RegisterFile(8),
            Component::Pipeline,
            Component::ExtraTep,
        ]
    }

    /// Incremental CLB cost of adding this element to `arch`.
    pub fn area_cost(&self, arch: &TepArch) -> Clb {
        match self {
            Component::WidenBus(w) => {
                let old = area::clbs_for_alu(arch.calc.width);
                let new = area::clbs_for_alu(*w);
                Clb(new.0.saturating_sub(old.0))
            }
            Component::MulDivUnit => area::clbs_for_muldiv(arch.calc.width),
            Component::Comparator => area::clbs_for_comparator(arch.calc.width),
            Component::TwosComplement => area::clbs_for_twos_complement(arch.calc.width),
            Component::RegisterFile(n) => {
                let old = area::clbs_for_register_file(arch.register_file, arch.calc.width);
                let new = area::clbs_for_register_file(*n, arch.calc.width);
                Clb(new.0.saturating_sub(old.0))
            }
            Component::Pipeline => Clb(arch.calc.width as u32 / 2 + 8),
            // The full cost of a TEP is computed by the area model; this
            // is only the marker entry.
            Component::ExtraTep => Clb(0),
        }
    }

    /// Whether the element is already present / saturated in `arch`.
    pub fn already_in(&self, arch: &TepArch) -> bool {
        match self {
            Component::WidenBus(w) => arch.calc.width >= *w,
            Component::MulDivUnit => arch.calc.muldiv,
            Component::Comparator => arch.calc.comparator,
            Component::TwosComplement => arch.calc.twos_complement,
            Component::RegisterFile(n) => arch.register_file >= *n,
            Component::Pipeline => arch.pipelined,
            Component::ExtraTep => false,
        }
    }

    /// Applies the element to a TEP architecture (ExtraTep is handled
    /// at the PSCP level).
    pub fn apply(&self, arch: &mut TepArch) {
        match self {
            Component::WidenBus(w) => arch.calc.width = (*w).max(arch.calc.width),
            Component::MulDivUnit => arch.calc.muldiv = true,
            Component::Comparator => arch.calc.comparator = true,
            Component::TwosComplement => arch.calc.twos_complement = true,
            Component::RegisterFile(n) => arch.register_file = (*n).max(arch.register_file),
            Component::Pipeline => arch.pipelined = true,
            Component::ExtraTep => {}
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Component::WidenBus(w) => write!(f, "widen bus to {w} bits"),
            Component::MulDivUnit => write!(f, "multiply/divide unit"),
            Component::Comparator => write!(f, "comparator"),
            Component::TwosComplement => write!(f, "two's-complement path"),
            Component::RegisterFile(n) => write!(f, "register file ({n} regs)"),
            Component::Pipeline => write!(f, "pipelined fetch"),
            Component::ExtraTep => write!(f, "additional TEP"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_orders_replication_last() {
        let c = Component::catalog();
        assert_eq!(*c.last().unwrap(), Component::ExtraTep);
        assert!(c.contains(&Component::MulDivUnit));
    }

    #[test]
    fn already_in_detection() {
        let minimal = TepArch::minimal();
        let md = TepArch::md16_optimized();
        assert!(!Component::MulDivUnit.already_in(&minimal));
        assert!(Component::MulDivUnit.already_in(&md));
        assert!(!Component::WidenBus(16).already_in(&minimal));
        assert!(Component::WidenBus(16).already_in(&md));
    }

    #[test]
    fn apply_upgrades_arch() {
        let mut a = TepArch::minimal();
        Component::MulDivUnit.apply(&mut a);
        Component::WidenBus(16).apply(&mut a);
        Component::Comparator.apply(&mut a);
        assert!(a.calc.muldiv && a.calc.comparator);
        assert_eq!(a.calc.width, 16);
        // Never downgrade.
        Component::WidenBus(8).apply(&mut a);
        assert_eq!(a.calc.width, 16);
    }

    #[test]
    fn muldiv_is_the_expensive_one() {
        let a = TepArch::minimal();
        assert!(
            Component::MulDivUnit.area_cost(&a).0
                > Component::Comparator.area_cost(&a).0
        );
    }
}
