//! Logic-analyzer view of the SLA: renders a sequence of CR images as
//! a VCD waveform.
//!
//! This is the signal-level hook into [`crate::SlaSim`] /
//! [`crate::CompiledNet`]: capture one CR image per configuration
//! cycle (e.g. `CrLayout::encode` after each `SlaSim` step, or the
//! input vector handed to `CompiledNet::eval_into`) and hand the
//! frames here. Signals follow the CR layout — one multi-bit wire per
//! exclusivity-set state field (or one scalar per state in one-hot
//! style), one scalar per event, one wire per condition.

use pscp_obs::vcd::VcdWriter;
use pscp_statechart::encoding::{CrLayout, EncodingStyle};
use pscp_statechart::Chart;

fn field_value(bits: &[bool], offset: u32, width: u32) -> u64 {
    let mut v = 0u64;
    for k in 0..width.min(64) {
        if bits.get((offset + k) as usize).copied().unwrap_or(false) {
            v |= 1 << k;
        }
    }
    v
}

/// Renders CR `frames` (one per configuration cycle, cycle `i` shown
/// at time `i`) as a VCD document.
pub fn cr_waveform(chart: &Chart, layout: &CrLayout, frames: &[Vec<bool>]) -> String {
    let mut w = VcdWriter::new();
    // (signal, offset, width) in CR order.
    let mut wires = Vec::new();
    match layout.style() {
        EncodingStyle::Exclusivity => {
            for f in layout.fields() {
                if f.width == 0 {
                    continue;
                }
                let name = format!("st_{}", chart.state(f.owner).name);
                wires.push((w.add_signal(&name, f.width), f.offset, f.width));
            }
        }
        EncodingStyle::OneHot => {
            for s in chart.state_ids() {
                if let Some(bit) = layout.onehot_bit(s) {
                    let name = format!("st_{}", chart.state(s).name);
                    wires.push((w.add_signal(&name, 1), bit, 1));
                }
            }
        }
    }
    for e in chart.event_ids() {
        let name = format!("ev_{}", chart.event(e).name);
        wires.push((w.add_signal(&name, 1), layout.event_bit(e), 1));
    }
    for c in chart.condition_ids() {
        let decl = chart.condition(c);
        let width = (decl.width.max(1)) as u32;
        let name = format!("cond_{}", decl.name);
        wires.push((w.add_signal(&name, width), layout.condition_bit(c), width));
    }

    for (t, frame) in frames.iter().enumerate() {
        if t > 0 {
            w.set_time(t as u64);
        }
        for &(sig, offset, width) in &wires {
            w.change(sig, field_value(frame, offset, width));
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_statechart::parse::parse_chart;
    use pscp_statechart::semantics::Executor;

    #[test]
    fn waveform_tracks_a_toggle() {
        let chart = parse_chart(
            r#"
            event TICK period 100;
            orstate Top { contains Off, On; default Off; }
            basicstate Off { transition { target On;  label "TICK"; } }
            basicstate On  { transition { target Off; label "TICK"; } }
            "#,
        )
        .unwrap();
        let layout = CrLayout::new(&chart, EncodingStyle::Exclusivity);
        let mut exec = Executor::new(&chart);
        let tick = chart.event_by_name("TICK").unwrap();
        let mut frames = vec![layout.encode(&chart, exec.configuration())];
        for _ in 0..3 {
            exec.step(&[tick], |_| Default::default());
            frames.push(layout.encode(&chart, exec.configuration()));
        }
        let vcd = cr_waveform(&chart, &layout, &frames);
        assert!(vcd.contains("$var wire 1 ! st_Top $end"));
        assert!(vcd.contains("ev_TICK"));
        // The state field toggles every frame: a change line at each
        // sample time.
        assert!(vcd.contains("#1\n"), "vcd:\n{vcd}");
        assert!(vcd.contains("#2\n"));
        assert!(vcd.contains("#3\n"));
    }
}
