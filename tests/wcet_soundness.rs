//! WCET soundness on the real workload: for every routine of the
//! pickup-head controller, measured execution cycles never exceed the
//! static bound the timing validator uses. The inputs are the Table 4
//! architectures, an M/D TEP with pipelined fetch and fused custom
//! (`AluMem`) ops, and the system `optimize` reaches from the minimal
//! architecture with two TEPs allowed, whose code keeps hot globals in
//! the register file. The full analysis is the only WCET computation,
//! so this suite is its oracle.

use pscp::action_lang::interp::RecordingHost;
use pscp::core::arch::PscpArch;
use pscp::core::compile::{chart_env, compile_system, CompiledSystem};
use pscp::core::optimize::{optimize, OptimizeOptions};
use pscp::core::timing::{wcet_report, TimingOptions};
use pscp::motors::{pickup_head_actions, pickup_head_chart};
use pscp::tep::codegen::CodegenOptions;
use pscp::tep::machine::TepMachine;
use pscp::tep::StorageClass;

#[test]
fn measured_cycles_never_exceed_wcet() {
    let chart = pickup_head_chart();
    let actions = pickup_head_actions();
    let compiled = |arch: PscpArch| {
        compile_system(&chart, &actions, &arch, &CodegenOptions::default()).unwrap()
    };
    let mut pipelined_custom = PscpArch::md16_optimized();
    pipelined_custom.tep.pipelined = true;
    pipelined_custom.tep.custom_instructions = true;
    pipelined_custom.label = format!("{} + pipelined + custom ops", pipelined_custom.label);
    let ir = pscp::action_lang::compile_with_env(&actions, &chart_env(&chart)).unwrap();
    let options = OptimizeOptions { max_teps: 2, ..OptimizeOptions::default() };
    let optimized = optimize(&chart, &ir, &PscpArch::minimal(), &options).unwrap();
    assert!(
        optimized.codegen.global_promotions.values().any(|&c| c == StorageClass::Register),
        "the optimised system must keep globals in the register file"
    );
    let pipelined_custom = compiled(pipelined_custom);
    assert!(!pipelined_custom.arch.tep.custom_ops.is_empty(), "no custom op was fused");
    let systems: Vec<CompiledSystem> = vec![
        compiled(PscpArch::minimal()),
        compiled(PscpArch::md16_unoptimized()),
        compiled(PscpArch::md16_optimized()),
        pipelined_custom,
        optimized.system,
    ];
    for sys in &systems {
        let report = wcet_report(sys, &TimingOptions::default());

        // Argument sets that drive both ramp phases and all byte_no arms.
        let arg_sets: Vec<Vec<i64>> = vec![vec![], vec![0], vec![1], vec![7], vec![255]];
        let mut checked = 0usize;
        for f in &sys.program.functions {
            if f.name.starts_with("__") {
                continue; // runtime measured through its callers
            }
            let bound = report.of(&f.name).unwrap();
            for args in &arg_sets {
                if args.len() != f.param_count as usize {
                    continue;
                }
                // Fresh machine per call: globals at reset (worst-ish
                // paths come from zeros: max-length ramps, byte_no 0).
                let mut m = TepMachine::new(&sys.program);
                let mut h = RecordingHost::new();
                if m.call(&f.name, args, &mut h).is_ok() {
                    assert!(
                        m.cycles() <= bound,
                        "{}: measured {} > WCET {} on `{}`",
                        sys.arch.label,
                        m.cycles(),
                        bound,
                        f.name
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "{}: no routine call ran to completion", sys.arch.label);
    }
}

#[test]
fn wcet_scales_down_with_architecture_upgrades() {
    let chart = pickup_head_chart();
    let actions = pickup_head_actions();
    let wcet_of = |arch: &PscpArch, name: &str| {
        let sys = compile_system(&chart, &actions, arch, &CodegenOptions::default()).unwrap();
        wcet_report(&sys, &TimingOptions::default()).of(name).unwrap()
    };
    for routine in ["DeltaTX", "GetByte", "PrepareMove", "CheckBounds"] {
        let minimal = wcet_of(&PscpArch::minimal(), routine);
        let unopt = wcet_of(&PscpArch::md16_unoptimized(), routine);
        let opt = wcet_of(&PscpArch::md16_optimized(), routine);
        assert!(minimal >= unopt, "{routine}: {minimal} < {unopt}");
        assert!(unopt > opt, "{routine}: {unopt} <= {opt}");
    }
    // The mul/div-heavy routine collapses hardest with the M/D unit.
    let dx_min = wcet_of(&PscpArch::minimal(), "DeltaTX");
    let dx_md = wcet_of(&PscpArch::md16_unoptimized(), "DeltaTX");
    assert!(dx_min > 5 * dx_md, "software mul/div must dominate: {dx_min} vs {dx_md}");
}
