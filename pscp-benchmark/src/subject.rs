//! The system a workload runs: its chart, action IR, architecture,
//! codegen options and the compiled result — everything the stage
//! probes need to re-run each compile layer on the workload's own
//! inputs.

use pscp_action_lang::ir::Program;
use pscp_core::arch::PscpArch;
use pscp_core::compile::{chart_env, compile_system_from_ir, CompiledSystem};
use pscp_statechart::Chart;
use pscp_tep::codegen::CodegenOptions;

/// A compiled system together with the inputs it was compiled from.
#[derive(Debug, Clone)]
pub struct Subject {
    pub chart: Chart,
    pub ir: Program,
    pub arch: PscpArch,
    pub opts: CodegenOptions,
    pub system: CompiledSystem,
    /// The action source the IR came from, where the workload has it.
    pub actions: Option<String>,
}

impl Subject {
    /// Compiles `chart` + `ir` for `arch`.
    pub fn compile(chart: Chart, ir: Program, arch: PscpArch, opts: CodegenOptions) -> Self {
        let system =
            compile_system_from_ir(&chart, &ir, &arch, &opts).expect("benchmark system compiles");
        Subject {
            chart,
            ir,
            arch,
            opts,
            system,
            actions: None,
        }
    }

    /// Compiles a chart against action-language source.
    pub fn from_source(chart: Chart, actions: &str, arch: PscpArch) -> Self {
        let ir = pscp_action_lang::compile_with_env(actions, &chart_env(&chart))
            .expect("benchmark actions compile");
        Subject {
            actions: Some(actions.to_string()),
            ..Self::compile(chart, ir, arch, CodegenOptions::default())
        }
    }

    /// The pickup head for `arch`, with the §4 storage promotion of the
    /// "optimized code" configurations — the same system
    /// `pscp_bench::example_system` builds.
    pub fn pickup_head(arch: PscpArch) -> Self {
        let (chart, ir) = pscp_bench::pickup_head_inputs();
        let mut opts = CodegenOptions::default();
        if arch.tep.optimize_code && arch.tep.register_file > 0 {
            for slot in
                pscp_core::optimize::hottest_scalar_globals(&ir, arch.tep.register_file as usize)
            {
                opts.global_promotions
                    .insert(slot, pscp_tep::StorageClass::Register);
            }
        }
        Subject {
            actions: Some(pscp_motors::pickup_head_actions()),
            ..Self::compile(chart, ir, arch, opts)
        }
    }

    /// The SLA-bound gang workload system (`pscp_bench::gang_system`).
    pub fn gang() -> Self {
        Self::from_source(
            pscp_bench::gang_chart(),
            pscp_bench::GANG_ACTIONS,
            PscpArch::dual_md16(true),
        )
    }
}
