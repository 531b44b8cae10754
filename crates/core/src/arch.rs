//! The PSCP architecture description.
//!
//! "The PSCP is designed to contain a variable number of process
//! elements. The key to our approach is to fine-tune the architectural
//! parameters and the instruction set generated for a particular
//! application to satisfy all timing constraints." (§1)

use pscp_statechart::encoding::EncodingStyle;
use pscp_tep::TepArch;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

/// A hardware down-counter timer (§6: "the addition of timers" is
/// listed as future work; this implements it). A routine arms the timer
/// by writing a cycle count to its port; when the counter reaches zero
/// the timer raises its chart event at the next configuration cycle.
/// Writing 0 disarms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TimerSpec {
    /// Timer name (diagnostics).
    pub name: String,
    /// Chart event raised on expiry.
    pub event: String,
    /// Data-port address the controller writes the reload value to.
    pub port_address: u16,
}

/// A complete PSCP configuration: the shared statechart hardware plus
/// `n_teps` replicated transition execution processors.
#[derive(Debug, Clone, PartialEq)]
pub struct PscpArch {
    /// Number of TEPs (Fig. 1 shows two; "TEPs can be replicated to
    /// form PSCP versions with several processing elements in the style
    /// of a MIMD machine", §3.3).
    pub n_teps: u8,
    /// The TEP configuration (all TEPs identical).
    pub tep: TepArch,
    /// CR state-encoding style.
    pub encoding: EncodingStyle,
    /// Mutual-exclusion classes: sets of transition indices whose
    /// routines must never be scheduled in parallel ("designers must
    /// indicate which transition routines should be mutually exclusive.
    /// Then, additional decode logic can be generated so that mutually
    /// exclusive routines are not scheduled in parallel", §4).
    pub mutual_exclusion: Vec<BTreeSet<u32>>,
    /// Reference clock in MHz (the example uses 15 MHz).
    pub clock_mhz: f64,
    /// Hardware timers (§6 extension; empty in the paper's
    /// configurations).
    pub timers: Vec<TimerSpec>,
    /// Events handled with interrupt priority (§6 extension): their
    /// transitions are dispatched to the TEPs ahead of everything else
    /// and preempt the parallel-sibling penalty in the timing analysis.
    pub interrupt_events: BTreeSet<String>,
    /// Human-readable label for reports ("1 minimal TEP", …).
    pub label: String,
}

/// Content hash for memo keys and system fingerprints. Written by hand
/// because `clock_mhz` is a float: it hashes by its bits. The pattern
/// names every field, so a new field fails to compile until it is
/// hashed too.
impl Hash for PscpArch {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let PscpArch {
            n_teps,
            tep,
            encoding,
            mutual_exclusion,
            clock_mhz,
            timers,
            interrupt_events,
            label,
        } = self;
        n_teps.hash(state);
        tep.hash(state);
        encoding.hash(state);
        mutual_exclusion.hash(state);
        clock_mhz.to_bits().hash(state);
        timers.hash(state);
        interrupt_events.hash(state);
        label.hash(state);
    }
}

impl PscpArch {
    /// The Table 4 row-1 baseline: one minimal TEP.
    pub fn minimal() -> Self {
        PscpArch {
            n_teps: 1,
            tep: TepArch::minimal(),
            encoding: EncodingStyle::Exclusivity,
            mutual_exclusion: Vec::new(),
            clock_mhz: 15.0,
            timers: Vec::new(),
            interrupt_events: BTreeSet::new(),
            label: "1 minimal TEP".into(),
        }
    }

    /// Table 4 row 2: one 16-bit M/D TEP, unoptimised code.
    pub fn md16_unoptimized() -> Self {
        PscpArch {
            tep: TepArch::md16_unoptimized(),
            label: "16bit M/D TEP, unoptimized code".into(),
            ..PscpArch::minimal()
        }
    }

    /// Table 4 row 3: one 16-bit M/D TEP, optimised code.
    pub fn md16_optimized() -> Self {
        PscpArch {
            tep: TepArch::md16_optimized(),
            label: "16bit M/D TEP, optimized code".into(),
            ..PscpArch::minimal()
        }
    }

    /// Table 4 row 4/5: two 16-bit M/D TEPs.
    pub fn dual_md16(optimized: bool) -> Self {
        let base = if optimized {
            PscpArch::md16_optimized()
        } else {
            PscpArch::md16_unoptimized()
        };
        PscpArch {
            n_teps: 2,
            label: format!(
                "2 16bit M/D TEP, {} code",
                if optimized { "optimized" } else { "unoptimized" }
            ),
            ..base
        }
    }

    /// Whether two transitions may run on different TEPs concurrently.
    pub fn may_run_parallel(&self, a: u32, b: u32) -> bool {
        if self.n_teps < 2 {
            return false;
        }
        !self
            .mutual_exclusion
            .iter()
            .any(|class| class.contains(&a) && class.contains(&b))
    }
}

impl Default for PscpArch {
    fn default() -> Self {
        PscpArch::minimal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table4_rows() {
        assert_eq!(PscpArch::minimal().n_teps, 1);
        assert!(!PscpArch::minimal().tep.calc.muldiv);
        assert!(PscpArch::md16_unoptimized().tep.calc.muldiv);
        assert!(!PscpArch::md16_unoptimized().tep.optimize_code);
        assert!(PscpArch::md16_optimized().tep.optimize_code);
        assert_eq!(PscpArch::dual_md16(true).n_teps, 2);
    }

    #[test]
    fn mutual_exclusion_blocks_parallelism() {
        let mut a = PscpArch::dual_md16(false);
        assert!(a.may_run_parallel(0, 1));
        a.mutual_exclusion.push([0u32, 1].into());
        assert!(!a.may_run_parallel(0, 1));
        assert!(a.may_run_parallel(0, 2));
        // Single TEP never parallel.
        assert!(!PscpArch::minimal().may_run_parallel(0, 2));
    }
}
