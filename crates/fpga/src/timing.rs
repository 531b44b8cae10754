//! Combinational delay budget for the FPGA target.
//!
//! "Our target platform is based on FPGAs, which requires special
//! consideration … of the attainable system speeds" (§1), and custom
//! instructions must not "become the critical paths inside the TEP"
//! (§3.3). The model: each LUT level costs a fixed delay plus average
//! routing; a clock frequency therefore admits a maximum number of gate
//! levels between registers.


/// Delay model for an XC4000-class part (-5 speed grade ballpark).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayModel {
    /// Combinational delay through one CLB function generator, ns.
    pub lut_delay_ns: f64,
    /// Average routing delay per level, ns.
    pub route_delay_ns: f64,
    /// Clock-to-out plus setup overhead, ns.
    pub register_overhead_ns: f64,
}

impl Default for DelayModel {
    fn default() -> Self {
        DelayModel { lut_delay_ns: 4.5, route_delay_ns: 2.5, register_overhead_ns: 6.0 }
    }
}

impl DelayModel {
    /// Critical-path delay of `levels` gate levels, ns.
    pub fn path_ns(&self, levels: u32) -> f64 {
        self.register_overhead_ns + levels as f64 * (self.lut_delay_ns + self.route_delay_ns)
    }

    /// Maximum gate levels that close timing at `freq_mhz`.
    pub fn max_levels_at(&self, freq_mhz: f64) -> u32 {
        let period = 1000.0 / freq_mhz;
        let budget = period - self.register_overhead_ns;
        if budget <= 0.0 {
            return 0;
        }
        (budget / (self.lut_delay_ns + self.route_delay_ns)).floor() as u32
    }

    /// Whether a path of `levels` levels meets timing at `freq_mhz`.
    pub fn meets(&self, levels: u32, freq_mhz: f64) -> bool {
        self.path_ns(levels) <= 1000.0 / freq_mhz
    }

    /// Maximum clock frequency (MHz) for a design whose longest
    /// register-to-register path has `levels` gate levels.
    pub fn fmax_mhz(&self, levels: u32) -> f64 {
        1000.0 / self.path_ns(levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_mhz_budget_is_generous() {
        let m = DelayModel::default();
        // 15 MHz = 66.7ns period: plenty of levels.
        assert!(m.max_levels_at(15.0) >= 6);
        assert!(m.meets(6, 15.0));
    }

    #[test]
    fn high_frequency_tightens_budget() {
        let m = DelayModel::default();
        assert!(m.max_levels_at(100.0) < m.max_levels_at(15.0));
        assert_eq!(m.max_levels_at(1000.0), 0);
    }

    #[test]
    fn fmax_monotone_in_levels() {
        let m = DelayModel::default();
        assert!(m.fmax_mhz(2) > m.fmax_mhz(8));
    }

    #[test]
    fn meets_consistent_with_fmax() {
        let m = DelayModel::default();
        for levels in 1..10 {
            let f = m.fmax_mhz(levels);
            assert!(m.meets(levels, f - 0.1));
            assert!(!m.meets(levels, f + 1.0));
        }
    }
}
