//! XC4000-family device models.

use std::fmt;

/// One FPGA device: a square grid of configurable logic blocks.
///
/// Each XC4000 CLB contains two 4-input function generators plus a
/// third 3-input combiner, two flip-flops, and can alternatively act as
/// 32 bits of LUT RAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    /// Device name, e.g. `XC4025`.
    pub name: String,
    /// CLB rows.
    pub rows: u16,
    /// CLB columns.
    pub cols: u16,
}

impl Device {
    /// The paper's target: XC4025, 32x32 = 1024 CLBs.
    pub fn xc4025() -> Self {
        Device { name: "XC4025".into(), rows: 32, cols: 32 }
    }

    /// XC4013, 24x24 = 576 CLBs.
    pub fn xc4013() -> Self {
        Device { name: "XC4013".into(), rows: 24, cols: 24 }
    }

    /// XC4010, 20x20 = 400 CLBs.
    pub fn xc4010() -> Self {
        Device { name: "XC4010".into(), rows: 20, cols: 20 }
    }

    /// XC4005, 14x14 = 196 CLBs.
    pub fn xc4005() -> Self {
        Device { name: "XC4005".into(), rows: 14, cols: 14 }
    }

    /// The whole family, smallest first.
    pub fn family() -> Vec<Device> {
        vec![Device::xc4005(), Device::xc4010(), Device::xc4013(), Device::xc4025()]
    }

    /// Total CLB count.
    pub fn clbs(&self) -> u32 {
        self.rows as u32 * self.cols as u32
    }

    /// Flip-flops available (2 per CLB).
    pub fn flip_flops(&self) -> u32 {
        self.clbs() * 2
    }

    /// LUT-RAM bits available (32 per CLB).
    pub fn ram_bits(&self) -> u32 {
        self.clbs() * 32
    }

    /// The smallest family member with at least `clbs` CLBs.
    pub fn smallest_fitting(clbs: u32) -> Option<Device> {
        Device::family().into_iter().find(|d| d.clbs() >= clbs)
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}x{} = {} CLBs)", self.name, self.rows, self.cols, self.clbs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xc4025_matches_paper() {
        let d = Device::xc4025();
        assert_eq!(d.clbs(), 1024);
        assert_eq!(d.rows, 32);
    }

    #[test]
    fn smallest_fitting_picks_correctly() {
        assert_eq!(Device::smallest_fitting(150).unwrap().name, "XC4005");
        assert_eq!(Device::smallest_fitting(300).unwrap().name, "XC4010");
        assert_eq!(Device::smallest_fitting(800).unwrap().name, "XC4025");
        assert!(Device::smallest_fitting(2000).is_none());
    }

    #[test]
    fn resource_counts() {
        let d = Device::xc4005();
        assert_eq!(d.flip_flops(), 392);
        assert_eq!(d.ram_bits(), 6272);
    }
}
