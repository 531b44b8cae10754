//! SLA synthesis scaling: the median wall time of
//! `pscp_sla::synth::synthesize` (exclusivity encoding) on the gang
//! chart at 2 / 16 / 32 / 64 regions (70 / 560 / 1 120 / 2 240
//! transitions), with the emitted node count and the cost ratio of each
//! size to the previous one. Synthesis cost should grow with the net it
//! emits, so each doubling should cost about 2×, not 4×.
//!
//! `cargo run --release -p pscp-bench --bin sla_scaling`

use pscp_bench::gang_chart_with;
use pscp_core::report::Table;
use pscp_sla::synth::synthesize;
use pscp_statechart::encoding::{CrLayout, EncodingStyle};
use std::hint::black_box;
use std::time::Instant;

/// Timed synthesis runs per size, after one untimed warm-up (the
/// median is reported).
const RUNS: usize = 21;

fn main() {
    println!("SLA synthesis scaling (gang chart, exclusivity encoding, median of {RUNS})\n");
    let mut t = Table::new(["Regions", "Transitions", "Synthesis us", "Nodes", "x prev"]);
    let mut prev: Option<f64> = None;
    for regions in [2, 16, 32, 64] {
        let chart = gang_chart_with(regions);
        let layout = CrLayout::new(&chart, EncodingStyle::Exclusivity);
        let nodes = synthesize(&chart, &layout).net.len();
        let mut us: Vec<f64> = (0..RUNS)
            .map(|_| {
                let start = Instant::now();
                black_box(synthesize(black_box(&chart), black_box(&layout)));
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        us.sort_by(f64::total_cmp);
        let median = us[RUNS / 2];
        t.row([
            regions.to_string(),
            chart.transition_count().to_string(),
            format!("{median:.0}"),
            nodes.to_string(),
            prev.map_or("-".to_string(), |p| format!("{:.2}", median / p)),
        ]);
        prev = Some(median);
    }
    println!("{t}");
    println!("host: {}", host_line());
}

/// Processors and CPU model, from `/proc/cpuinfo` where it exists.
fn host_line() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.split_once(':').filter(|(k, _)| k.trim() == "model name"))
        .map_or("unknown CPU", |(_, v)| v.trim());
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("{cpus} CPU(s), {model}")
}
