//! Greedy macro-block floorplanner (Fig. 8).
//!
//! Blocks are placed as rectangles on the CLB grid with a shelf
//! algorithm: sort by area descending, fill rows left-to-right, open a
//! new shelf when a block does not fit. The result renders as an ASCII
//! floorplan in the spirit of the paper's Fig. 8.

use crate::area::Clb;
use crate::device::Device;
use std::fmt;

/// A macro block to place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Block name (shown in the legend).
    pub name: String,
    /// Area in CLBs.
    pub area: Clb,
}

impl Block {
    /// Creates a block.
    pub fn new(name: impl Into<String>, area: Clb) -> Self {
        Block { name: name.into(), area }
    }
}

/// A placed block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// The block.
    pub block: Block,
    /// Left column.
    pub x: u16,
    /// Top row.
    pub y: u16,
    /// Width in CLBs.
    pub w: u16,
    /// Height in CLBs.
    pub h: u16,
}

/// A finished floorplan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Floorplan {
    /// Target device.
    pub device: Device,
    /// Placements in placement order.
    pub placements: Vec<Placement>,
    /// Blocks that did not fit.
    pub unplaced: Vec<Block>,
}

impl Floorplan {
    /// Places `blocks` on `device`. Returns a floorplan even when some
    /// blocks do not fit (reported in [`Floorplan::unplaced`]).
    pub fn place(device: &Device, blocks: &[Block]) -> Floorplan {
        let mut sorted: Vec<Block> = blocks.to_vec();
        sorted.sort_by(|a, b| b.area.0.cmp(&a.area.0).then(a.name.cmp(&b.name)));

        let cols = device.cols;
        let rows = device.rows;
        let mut placements = Vec::new();
        let mut unplaced = Vec::new();
        // Shelves: (y, height, cursor_x). First-fit over existing
        // shelves, new shelf at the bottom when none fits.
        let mut shelves: Vec<(u16, u16, u16)> = Vec::new();
        let mut bottom: u16 = 0;

        'blocks: for b in sorted {
            if b.area.0 == 0 {
                continue;
            }
            // Large blocks take full-width bands (they would otherwise
            // strand unusable L-shaped leftovers); small blocks stay
            // near-square.
            let w0 = if b.area.0 >= cols as u32 * 6 {
                cols
            } else {
                ((b.area.0 as f64).sqrt().ceil() as u16).clamp(1, cols)
            };
            let h0 = (b.area.0 as u16).div_ceil(w0);

            // 1. Try existing shelves (block reshaped to the shelf
            //    height when that helps).
            #[allow(clippy::needless_range_loop)] // index mutated below
            for i in 0..shelves.len() {
                let (sy, sh, sx) = shelves[i];
                // Fill the shelf's full height: the narrowest footprint
                // wastes no shelf area.
                let h = sh;
                let w = (b.area.0 as u16).div_ceil(h);
                if sx + w <= cols {
                    placements.push(Placement { block: b, x: sx, y: sy, w, h });
                    shelves[i].2 += w;
                    continue 'blocks;
                }
            }
            // 2. Open a new shelf at the bottom, reshaping to the
            //    remaining height when necessary.
            let rem = rows - bottom;
            if rem == 0 {
                unplaced.push(b);
                continue;
            }
            let h = h0.min(rem);
            let w = (b.area.0 as u16).div_ceil(h);
            if w <= cols {
                placements.push(Placement { block: b, x: 0, y: bottom, w, h });
                shelves.push((bottom, h, w));
                bottom += h;
            } else {
                unplaced.push(b);
            }
        }

        Floorplan { device: device.clone(), placements, unplaced }
    }

    /// True when every block was placed.
    pub fn fits(&self) -> bool {
        self.unplaced.is_empty()
    }

    /// Total placed area.
    pub fn used(&self) -> Clb {
        self.placements.iter().map(|p| p.block.area).sum()
    }

    /// Utilisation of the device in percent.
    pub fn utilization(&self) -> f64 {
        100.0 * self.used().0 as f64 / self.device.clbs() as f64
    }

    /// Renders an ASCII floorplan with a legend (one letter per block).
    pub fn render(&self) -> String {
        let cols = self.device.cols as usize;
        let rows = self.device.rows as usize;
        let mut grid = vec![vec!['.'; cols]; rows];
        let letters: Vec<char> =
            "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz".chars().collect();
        for (i, p) in self.placements.iter().enumerate() {
            let ch = letters[i % letters.len()];
            let mut remaining = p.block.area.0;
            'outer: for y in p.y..p.y + p.h {
                for x in p.x..p.x + p.w {
                    if remaining == 0 {
                        break 'outer;
                    }
                    if (y as usize) < rows && (x as usize) < cols {
                        grid[y as usize][x as usize] = ch;
                        remaining -= 1;
                    }
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{} floorplan — {} used ({:.1}%)\n",
            self.device,
            self.used(),
            self.utilization()
        ));
        for row in grid {
            out.push_str(&row.into_iter().collect::<String>());
            out.push('\n');
        }
        out.push('\n');
        for (i, p) in self.placements.iter().enumerate() {
            out.push_str(&format!(
                "  {} = {:<24} {:>4} CLBs at ({:>2},{:>2}) {}x{}\n",
                letters[i % letters.len()],
                p.block.name,
                p.block.area.0,
                p.x,
                p.y,
                p.w,
                p.h
            ));
        }
        for b in &self.unplaced {
            out.push_str(&format!("  ! UNPLACED {} ({})\n", b.name, b.area));
        }
        out
    }
}

impl fmt::Display for Floorplan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(spec: &[(&str, u32)]) -> Vec<Block> {
        spec.iter().map(|(n, a)| Block::new(*n, Clb(*a))).collect()
    }

    #[test]
    fn places_blocks_without_overlap() {
        let d = Device::xc4025();
        let fp = Floorplan::place(&d, &blocks(&[("sla", 70), ("tep0", 350), ("tep1", 350)]));
        assert!(fp.fits());
        // Overlap check via cell claims.
        let mut claimed = vec![vec![false; 32]; 32];
        for p in &fp.placements {
            for y in p.y..p.y + p.h {
                for x in p.x..p.x + p.w {
                    assert!(!claimed[y as usize][x as usize], "overlap at {x},{y}");
                    claimed[y as usize][x as usize] = true;
                }
            }
        }
    }

    #[test]
    fn reports_unplaced_when_too_big() {
        let d = Device::xc4005(); // 196 CLBs
        let fp = Floorplan::place(&d, &blocks(&[("huge", 400)]));
        assert!(!fp.fits());
        assert_eq!(fp.unplaced.len(), 1);
    }

    #[test]
    fn utilization_computed() {
        let d = Device::xc4025();
        let fp = Floorplan::place(&d, &blocks(&[("half", 512)]));
        assert!((fp.utilization() - 50.0).abs() < 0.01);
    }

    #[test]
    fn render_contains_legend() {
        let d = Device::xc4010();
        let fp = Floorplan::place(&d, &blocks(&[("sla", 30), ("tep", 100)]));
        let text = fp.render();
        assert!(text.contains("A = "));
        assert!(text.contains("B = "));
        assert!(text.contains("XC4010"));
        // Grid is rows lines of cols chars.
        let grid_lines: Vec<&str> =
            text.lines().skip(1).take(20).collect();
        assert!(grid_lines.iter().all(|l| l.len() == 20));
    }

    #[test]
    fn zero_area_blocks_skipped() {
        let d = Device::xc4005();
        let fp = Floorplan::place(&d, &blocks(&[("empty", 0), ("real", 10)]));
        assert_eq!(fp.placements.len(), 1);
        assert!(fp.fits());
    }
}
