//! CLB area estimation.
//!
//! XC4000 CLB capacity assumptions (see \[12\], The Programmable Logic
//! Data Book): two 4-input function generators + combiner per CLB, two
//! flip-flops per CLB, or 32 bits of LUT RAM per CLB. The estimators
//! here turn logic/datapath/memory structures into CLB counts; the
//! coefficients were calibrated so the paper's example lands near its
//! published Table 4 areas (224 / 421 / 773 CLBs).


/// A CLB count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Clb(pub u32);

impl std::ops::Add for Clb {
    type Output = Clb;
    fn add(self, rhs: Clb) -> Clb {
        Clb(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Clb {
    fn add_assign(&mut self, rhs: Clb) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for Clb {
    fn sum<I: Iterator<Item = Clb>>(iter: I) -> Clb {
        Clb(iter.map(|c| c.0).sum())
    }
}

impl std::fmt::Display for Clb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} CLBs", self.0)
    }
}

/// Maps a multi-level gate network onto 4-input LUTs: a gate of fan-in
/// `k` needs `ceil((k-1)/3)` chained LUTs; two LUTs fit one CLB.
/// `fanins` yields the fan-in of every gate (NOT gates fold into their
/// consumers and should be passed as fan-in 1, costing nothing).
pub fn clbs_for_gates<I: IntoIterator<Item = usize>>(fanins: I) -> Clb {
    let luts: usize = fanins
        .into_iter()
        .map(|k| if k <= 1 { 0 } else { k.saturating_sub(1).div_ceil(3) })
        .sum();
    Clb(luts.div_ceil(2) as u32)
}

/// Flip-flop storage: 2 per CLB.
pub fn clbs_for_flip_flops(bits: u32) -> Clb {
    Clb(bits.div_ceil(2))
}

/// LUT RAM: 32 bits per CLB.
pub fn clbs_for_ram(bits: u32) -> Clb {
    Clb(bits.div_ceil(32))
}

/// ROM (microcode, transition address table): also LUT-based, 32 bits
/// per CLB.
pub fn clbs_for_rom(bits: u32) -> Clb {
    clbs_for_ram(bits)
}

/// A `width`-bit ripple ALU with the standard op set (add/sub/logic):
/// roughly one CLB per bit including operand muxing.
pub fn clbs_for_alu(width: u8) -> Clb {
    Clb(width as u32)
}

/// Shifter block.
pub fn clbs_for_shifter(width: u8) -> Clb {
    Clb((width as u32).div_ceil(2))
}

/// Dedicated comparator.
pub fn clbs_for_comparator(width: u8) -> Clb {
    Clb((width as u32).div_ceil(2))
}

/// Two's-complement negate path.
pub fn clbs_for_twos_complement(width: u8) -> Clb {
    Clb((width as u32).div_ceil(4).max(1))
}

/// Serial multiply/divide unit: datapath (partial remainder/product
/// registers, subtract/add, shift) plus its step controller. This is
/// the big-ticket item that separates the minimal TEP from the M/D TEP.
pub fn clbs_for_muldiv(width: u8) -> Clb {
    Clb(width as u32 * 5 + 10)
}

/// Register file of `regs` registers of `width` bits (flip-flops plus
/// read muxing).
pub fn clbs_for_register_file(regs: u8, width: u8) -> Clb {
    if regs == 0 {
        return Clb(0);
    }
    clbs_for_flip_flops(regs as u32 * width as u32) + Clb(regs as u32)
}

/// One custom fused instruction: extra datapath of `depth` gate levels
/// across `width` bits.
pub fn clbs_for_custom_op(depth: u8, width: u8) -> Clb {
    Clb(((depth as u32) * (width as u32)).div_ceil(4).max(1))
}

/// Port architecture interface: address decode plus data muxing per
/// port.
pub fn clbs_for_ports(port_count: usize) -> Clb {
    Clb(6 + 2 * port_count as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_mapping() {
        // Fan-in 4 gate: 1 LUT. Two of them: 1 CLB.
        assert_eq!(clbs_for_gates([4, 4]), Clb(1));
        // Fan-in 10 gate: ceil(9/3)=3 LUTs -> 2 CLBs.
        assert_eq!(clbs_for_gates([10]), Clb(2));
        // Inverters are free.
        assert_eq!(clbs_for_gates([1, 1, 1]), Clb(0));
        assert_eq!(clbs_for_gates(std::iter::empty()), Clb(0));
    }

    #[test]
    fn memory_mapping() {
        assert_eq!(clbs_for_flip_flops(16), Clb(8));
        assert_eq!(clbs_for_ram(1024), Clb(32));
        assert_eq!(clbs_for_ram(1), Clb(1));
    }

    #[test]
    fn muldiv_dominates_minimal_datapath() {
        let md16 = clbs_for_muldiv(16);
        let alu8 = clbs_for_alu(8);
        assert!(md16.0 > 4 * alu8.0);
    }

    #[test]
    fn clb_arithmetic() {
        let total: Clb = [Clb(3), Clb(4)].into_iter().sum();
        assert_eq!(total, Clb(7));
        assert_eq!(Clb(1) + Clb(2), Clb(3));
    }
}
