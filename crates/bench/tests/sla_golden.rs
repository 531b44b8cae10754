//! Golden netlists for SLA synthesis.
//!
//! The BLIF and VHDL text that `pscp-sla` emits is the paper's hardware
//! path, so synthesis must keep it byte-for-byte, not merely
//! equivalent: every `NodeId` is fixed by the order in which synthesis
//! pushes nodes. This test pins
//!
//! - the pickup head's full `to_blif` and `to_vhdl` text under both
//!   encodings, and
//! - for the 560-transition gang chart, the `KeyHasher::key` of that
//!   text plus the network's node count and product-term count.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p pscp-bench --test
//! sla_golden` (only when a change to the emitted netlist is intended).

use pscp_bench::gang_chart;
use pscp_motors::pickup_head_chart;
use pscp_sla::synth::{synthesize, SlaSynthesis};
use pscp_sla::{blif, vhdl};
use pscp_statechart::encoding::{CrLayout, EncodingStyle};
use pscp_statechart::Chart;
use pscp_tep::codegen::KeyHasher;
use std::path::PathBuf;

const STYLES: [(EncodingStyle, &str); 2] =
    [(EncodingStyle::Exclusivity, "exclusivity"), (EncodingStyle::OneHot, "onehot")];

fn synth(chart: &Chart, style: EncodingStyle) -> SlaSynthesis {
    synthesize(chart, &CrLayout::new(chart, style))
}

/// Compares `got` with the golden file `name`, or records it under
/// `UPDATE_GOLDEN`.
fn check(name: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sla").join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("golden {} unreadable ({e}); record with UPDATE_GOLDEN=1", path.display())
    });
    if got != want {
        let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        panic!(
            "{name} differs from its golden (first differing line: {line:?}; {} vs {} lines)",
            got.lines().count(),
            want.lines().count()
        );
    }
}

#[test]
fn pickup_head_netlists_are_byte_identical() {
    let chart = pickup_head_chart();
    for (style, tag) in STYLES {
        let sla = synth(&chart, style);
        check(&format!("pickup_head_{tag}.blif"), &blif::to_blif(&sla.net, "pickup_sla"));
        check(&format!("pickup_head_{tag}.vhd"), &vhdl::to_vhdl(&sla.net, "pickup_sla"));
    }
}

#[test]
fn gang_chart_netlist_digests_are_unchanged() {
    let chart = gang_chart();
    let mut got = String::new();
    for (style, tag) in STYLES {
        let sla = synth(&chart, style);
        let blif = blif::to_blif(&sla.net, "gang_sla");
        let vhdl = vhdl::to_vhdl(&sla.net, "gang_sla");
        got.push_str(&format!(
            "{tag}: nodes={} product_terms={} blif_key={:032x} vhdl_key={:032x}\n",
            sla.net.len(),
            sla.product_terms(),
            KeyHasher::key(blif.as_str()),
            KeyHasher::key(vhdl.as_str()),
        ));
    }
    check("gang_chart.txt", &got);
}
