//! The end-to-end compile flow.
//!
//! Chart (textual or built) + extended-C action routines + a PSCP
//! architecture → a [`CompiledSystem`]: encoded configuration register,
//! synthesised SLA, compiled TEP program, and the *transition bindings*
//! that connect each chart transition to the routines its label calls
//! (with resolved arguments). This is the Fig. 1 system in data form.

use crate::arch::PscpArch;
use pscp_action_lang::ir::Program;
use pscp_action_lang::sema::{PortSpec, ProgramEnv};
use pscp_diag::{Diagnostic, DiagnosticSink, Source};
use pscp_sla::synth::{synthesize, SlaSynthesis};
use pscp_sla::TransitionAddressTable;
use pscp_statechart::encoding::{CrLayout, EncodingStyle};
use pscp_statechart::model::PortDirection;
use pscp_statechart::semantics::SelectionTables;
use pscp_statechart::{Chart, ConditionId, EventId, TransitionId};
use pscp_tep::codegen::{
    compile_program, compile_program_cached, CodegenCache, CodegenOptions, TepProgram,
};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// How one textual action argument is produced at dispatch time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArgSpec {
    /// A literal or enum-variant constant.
    Const(i64),
    /// The current value of a global slot.
    Global(u32),
}

/// One routine call bound to a transition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BoundCall {
    /// Routine index into the TEP program's function table.
    pub func: u32,
    /// Resolved arguments.
    pub args: Vec<ArgSpec>,
}

/// All routine calls of one transition, in label order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct TransitionBinding {
    /// The calls.
    pub calls: Vec<BoundCall>,
}

/// Precomputed scheduler tables.
///
/// Everything the per-cycle scheduler loop would otherwise derive from
/// strings — interrupt priority of a transition, mutual-exclusion
/// partners, the chart ids behind the TEP program's event / condition /
/// port indices — is resolved once here at compile time, so
/// [`PscpMachine::step`](crate::machine::PscpMachine::step) runs without
/// name lookups or expression scans.
#[derive(Debug, Clone, Default, PartialEq, Hash)]
pub struct SchedulerTables {
    /// Per transition: does an interrupt-priority event (§6) appear
    /// positively in its trigger or guard?
    pub interrupt: Vec<bool>,
    /// Per transition: sorted indices of the transitions it shares a
    /// mutual-exclusion class with (self excluded).
    pub exclusion: Vec<Vec<u32>>,
    /// TEP-program event index → chart event id.
    pub program_event: Vec<Option<EventId>>,
    /// TEP-program condition index → chart condition id.
    pub program_condition: Vec<Option<ConditionId>>,
    /// TEP-program port index → hardware-timer index, for ports whose
    /// address belongs to a timer.
    pub port_timer: Vec<Option<u32>>,
    /// Hardware-timer index → chart id of its expiry event.
    pub timer_event: Vec<Option<EventId>>,
}

impl SchedulerTables {
    /// Builds the tables for a chart / architecture / program triple.
    pub fn build(chart: &Chart, arch: &PscpArch, program: &TepProgram) -> Self {
        let interrupt = chart
            .transitions()
            .map(|t| {
                arch.interrupt_events.iter().any(|ev| {
                    t.trigger.as_ref().is_some_and(|e| e.mentions_positively(ev))
                        || t.guard.as_ref().is_some_and(|e| e.mentions_positively(ev))
                })
            })
            .collect();

        let mut exclusion: Vec<Vec<u32>> = vec![Vec::new(); chart.transition_count()];
        for class in &arch.mutual_exclusion {
            for &a in class {
                let Some(row) = exclusion.get_mut(a as usize) else { continue };
                row.extend(class.iter().copied().filter(|&b| b != a));
            }
        }
        for row in &mut exclusion {
            row.sort_unstable();
            row.dedup();
        }

        SchedulerTables {
            interrupt,
            exclusion,
            program_event: program.events.iter().map(|n| chart.event_by_name(n)).collect(),
            program_condition: program
                .conditions
                .iter()
                .map(|n| chart.condition_by_name(n))
                .collect(),
            port_timer: program
                .ports
                .iter()
                .map(|p| {
                    arch.timers
                        .iter()
                        .position(|t| t.port_address == p.address)
                        .map(|i| i as u32)
                })
                .collect(),
            timer_event: arch.timers.iter().map(|t| chart.event_by_name(&t.event)).collect(),
        }
    }
}

/// The complete compiled system.
///
/// The chart-derived members (`chart`, `layout`, `sla`, `selection`)
/// are immutable once built and identical for every candidate of a DSE
/// run, so they are `Arc`-shared: cloning a system (or building many
/// candidates from one [`SystemArtifacts`]) copies four pointers, not
/// four deep structures. `Arc<T>` hashes and compares as `T`, so sharing
/// never changes the system's equality or fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledSystem {
    /// The chart.
    pub chart: Arc<Chart>,
    /// CR layout.
    pub layout: Arc<CrLayout>,
    /// Synthesised SLA.
    pub sla: Arc<SlaSynthesis>,
    /// The chart's transition-selection and name tables, which every
    /// machine over the system runs on.
    pub selection: Arc<SelectionTables>,
    /// Compiled TEP program (shared by all TEPs — they execute different
    /// transitions of the same program memory image).
    pub program: TepProgram,
    /// Per-transition routine bindings, parallel to chart transitions.
    pub bindings: Vec<TransitionBinding>,
    /// Entry-action bindings, parallel to chart states.
    pub entry_bindings: Vec<TransitionBinding>,
    /// Exit-action bindings, parallel to chart states.
    pub exit_bindings: Vec<TransitionBinding>,
    /// The PSCP architecture this system was compiled for.
    pub arch: PscpArch,
    /// Precomputed scheduler tables (see [`SchedulerTables`]).
    pub tables: SchedulerTables,
}

/// Hashes every member but `selection`, in declaration order. The
/// selection tables are a function of the chart, which is hashed, so
/// leaving them out keeps the hash a function of content and equal to
/// the hash of a system without them.
impl Hash for CompiledSystem {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let CompiledSystem {
            chart,
            layout,
            sla,
            selection: _,
            program,
            bindings,
            entry_bindings,
            exit_bindings,
            arch,
            tables,
        } = self;
        chart.hash(state);
        layout.hash(state);
        sla.hash(state);
        program.hash(state);
        bindings.hash(state);
        entry_bindings.hash(state);
        exit_bindings.hash(state);
        arch.hash(state);
        tables.hash(state);
    }
}

impl CompiledSystem {
    /// The transition address table of the SLA.
    pub fn address_table(&self) -> &TransitionAddressTable {
        &self.sla.table
    }

    /// Binding of a transition.
    pub fn binding(&self, t: TransitionId) -> &TransitionBinding {
        &self.bindings[t.index()]
    }
}

/// Builds the [`ProgramEnv`] a chart induces for the action compiler:
/// all chart events are raisable, all conditions writable, and every
/// declared data port becomes an extern port.
pub fn chart_env(chart: &Chart) -> ProgramEnv {
    ProgramEnv {
        events: chart.events().map(|e| e.name.clone()).collect(),
        conditions: chart.conditions().map(|c| c.name.clone()).collect(),
        ports: chart
            .data_ports()
            .map(|p| PortSpec {
                name: p.name.clone(),
                width: p.width,
                address: p.address,
                readable: p.direction != PortDirection::Output,
                writable: p.direction != PortDirection::Input,
            })
            .collect(),
    }
}

/// Compiles a system from a chart and action-language source.
///
/// # Errors
///
/// Returns the first diagnostic: an action-language error
/// (`AL101`/`AL201`/`AL301`), or a label-binding error — an unknown
/// routine (`PS401`), an unresolvable argument (`PS402`) or an arity
/// mismatch (`PS403`).
pub fn compile_system(
    chart: &Chart,
    action_source: &str,
    arch: &PscpArch,
    options: &CodegenOptions,
) -> Result<CompiledSystem, Diagnostic> {
    let env = chart_env(chart);
    let ir = pscp_action_lang::compile_with_env(action_source, &env)?;
    compile_system_from_ir(chart, &ir, arch, options)
}

/// The chart-derived compile artifacts that are identical for every
/// candidate architecture of a DSE run: the chart itself, its CR
/// layout, the synthesised SLA, and the selection tables the machine's
/// executor runs on. Built once per (chart, encoding) and shared by
/// `Arc` into every [`CompiledSystem`] compiled from it.
#[derive(Debug, Clone)]
pub struct SystemArtifacts {
    chart: Arc<Chart>,
    layout: Arc<CrLayout>,
    sla: Arc<SlaSynthesis>,
    selection: Arc<SelectionTables>,
    encoding: EncodingStyle,
}

impl SystemArtifacts {
    /// Encodes the chart, synthesises the SLA and builds the selection
    /// tables for one encoding style.
    pub fn build(chart: &Chart, encoding: EncodingStyle) -> Self {
        let layout = CrLayout::new(chart, encoding);
        let sla = synthesize(chart, &layout);
        SystemArtifacts {
            chart: Arc::new(chart.clone()),
            layout: Arc::new(layout),
            sla: Arc::new(sla),
            selection: Arc::new(SelectionTables::new(chart)),
            encoding,
        }
    }

    /// The chart these artifacts were built from.
    pub fn chart(&self) -> &Chart {
        &self.chart
    }

    /// The encoding style the layout was built for.
    pub fn encoding(&self) -> EncodingStyle {
        self.encoding
    }
}

/// Compiles a system from a chart and pre-compiled action IR.
///
/// # Errors
///
/// Same as [`compile_system`], minus the action-language phase.
pub fn compile_system_from_ir(
    chart: &Chart,
    ir: &Program,
    arch: &PscpArch,
    options: &CodegenOptions,
) -> Result<CompiledSystem, Diagnostic> {
    let artifacts = SystemArtifacts::build(chart, arch.encoding);
    compile_system_with(&artifacts, ir, arch, options, None)
}

/// Compiles a system against prebuilt [`SystemArtifacts`], optionally
/// serving routine bodies from a [`CodegenCache`]. This is the DSE
/// inner-loop entry point: the chart, layout, SLA and selection tables
/// are shared, codegen reuses unchanged routines, and only bindings +
/// scheduler tables are rebuilt per candidate. The output is identical to
/// [`compile_system_from_ir`] for the same inputs.
///
/// If `arch.encoding` differs from the artifacts' encoding style, fresh
/// artifacts are built for the call (correctness guard — the current
/// optimiser never mutates the encoding).
///
/// # Errors
///
/// Same as [`compile_system_from_ir`].
pub fn compile_system_with(
    artifacts: &SystemArtifacts,
    ir: &Program,
    arch: &PscpArch,
    options: &CodegenOptions,
    cache: Option<&CodegenCache>,
) -> Result<CompiledSystem, Diagnostic> {
    let mut sink = DiagnosticSink::new();
    let sys = compile_system_collect(artifacts, ir, arch, options, cache, &mut sink);
    sink.into_result(Some(sys))
}

/// Recovering core of [`compile_system_with`]: binds every transition
/// and state reaction even after failures, pushing *every* binding
/// error into `sink` in check order (`PS401` unknown routine, `PS402`
/// unresolvable argument, `PS403` arity mismatch). Calls that failed to
/// bind are omitted from their binding.
pub(crate) fn compile_system_collect(
    artifacts: &SystemArtifacts,
    ir: &Program,
    arch: &PscpArch,
    options: &CodegenOptions,
    cache: Option<&CodegenCache>,
    sink: &mut DiagnosticSink,
) -> CompiledSystem {
    let rebuilt;
    let artifacts = if arch.encoding == artifacts.encoding {
        artifacts
    } else {
        rebuilt = SystemArtifacts::build(&artifacts.chart, arch.encoding);
        &rebuilt
    };
    let chart = &*artifacts.chart;
    let mut program = match cache {
        Some(cache) => compile_program_cached(ir, &arch.tep, options, cache),
        None => compile_program(ir, &arch.tep, options),
    };

    let mut arch = arch.clone();
    if arch.tep.custom_instructions {
        // Custom-instruction extraction is part of the "optimized code"
        // configuration; it rewrites the program and registers the fused
        // ops in the architecture.
        crate::optimize::custom::extract_custom_ops_in(&mut program, &mut arch);
    }
    let arch = &arch;

    let bind = |actions: &[pscp_statechart::model::ActionCall],
                site: usize,
                sink: &mut DiagnosticSink|
     -> TransitionBinding {
        let mut calls = Vec::new();
        for call in actions {
            let routine = &call.function;
            let Some(func) = program.function_index(routine) else {
                sink.push(Diagnostic::error(
                    Source::System,
                    "PS401",
                    format!("transition {site} calls unknown routine `{routine}`"),
                ));
                continue;
            };
            let params = program.functions[func as usize].param_count as usize;
            if params != call.args.len() {
                sink.push(Diagnostic::error(
                    Source::System,
                    "PS403",
                    format!("`{routine}` expects {params} arguments, got {}", call.args.len()),
                ));
                continue;
            }
            let mut args = Vec::with_capacity(call.args.len());
            let mut ok = true;
            for text in &call.args {
                match resolve_arg(text, ir) {
                    Some(a) => args.push(a),
                    None => {
                        sink.push(Diagnostic::error(
                            Source::System,
                            "PS402",
                            format!("argument `{text}` of `{routine}` is not a constant or global"),
                        ));
                        ok = false;
                    }
                }
            }
            if ok {
                calls.push(BoundCall { func, args });
            }
        }
        TransitionBinding { calls }
    };

    let mut bindings = Vec::with_capacity(chart.transition_count());
    for (ti, t) in chart.transitions().enumerate() {
        bindings.push(bind(&t.actions, ti, sink));
    }
    let mut entry_bindings = Vec::with_capacity(chart.state_count());
    let mut exit_bindings = Vec::with_capacity(chart.state_count());
    for (si, s) in chart.states().enumerate() {
        entry_bindings.push(bind(&s.entry_actions, si, sink));
        exit_bindings.push(bind(&s.exit_actions, si, sink));
    }

    // Built last, against the post-custom-op program and architecture.
    let tables = SchedulerTables::build(chart, arch, &program);

    CompiledSystem {
        chart: Arc::clone(&artifacts.chart),
        layout: Arc::clone(&artifacts.layout),
        sla: Arc::clone(&artifacts.sla),
        selection: Arc::clone(&artifacts.selection),
        program,
        bindings,
        entry_bindings,
        exit_bindings,
        arch: arch.clone(),
        tables,
    }
}

/// Resolves a textual label argument: integer literal, enum variant, or
/// scalar global.
fn resolve_arg(text: &str, ir: &Program) -> Option<ArgSpec> {
    let t = text.trim();
    if let Ok(v) = t.parse::<i64>() {
        return Some(ArgSpec::Const(v));
    }
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        if let Ok(v) = i64::from_str_radix(hex, 16) {
            return Some(ArgSpec::Const(v));
        }
    }
    if let Some(&v) = ir.consts.get(t) {
        return Some(ArgSpec::Const(v));
    }
    ir.globals
        .iter()
        .position(|g| g.name == t)
        .map(|slot| ArgSpec::Global(slot as u32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_statechart::{ChartBuilder, StateKind};

    fn toggle_chart() -> Chart {
        let mut b = ChartBuilder::new("t");
        b.event("TICK", Some(500));
        b.condition("DONE", false);
        b.state("Top", StateKind::Or).contains(["Off", "On"]).default_child("Off");
        b.state("Off", StateKind::Basic).transition("On", "TICK/Enter(3)");
        b.state("On", StateKind::Basic).transition("Off", "TICK/Leave(limit)");
        b.build().unwrap()
    }

    const ACTIONS: &str = r#"
        int:16 limit = 40;
        int:16 count;
        void Enter(int:16 n) { count = count + n; DONE = count > limit; }
        void Leave(int:16 l) { if (count > l) { count = 0; } }
    "#;

    #[test]
    fn compiles_toggle_system() {
        let chart = toggle_chart();
        let sys = compile_system(
            &chart,
            ACTIONS,
            &PscpArch::md16_unoptimized(),
            &CodegenOptions::default(),
        )
        .unwrap();
        assert_eq!(sys.bindings.len(), 2);
        assert_eq!(sys.bindings[0].calls.len(), 1);
        assert_eq!(sys.bindings[0].calls[0].args, vec![ArgSpec::Const(3)]);
        // `limit` resolved as a global read.
        assert!(matches!(sys.bindings[1].calls[0].args[0], ArgSpec::Global(_)));
        assert_eq!(sys.address_table().len(), 2);
    }

    #[test]
    fn unknown_routine_rejected() {
        let mut b = ChartBuilder::new("t");
        b.event("E", None);
        b.state("A", StateKind::Basic).transition("B", "E/Nope()");
        b.basic("B");
        let chart = b.build().unwrap();
        let err = compile_system(
            &chart,
            "void Other() { }",
            &PscpArch::minimal(),
            &CodegenOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err.code, "PS401");
        assert_eq!(err.message, "transition 0 calls unknown routine `Nope`");
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut b = ChartBuilder::new("t");
        b.event("E", None);
        b.state("A", StateKind::Basic).transition("B", "E/F(1, 2)");
        b.basic("B");
        let chart = b.build().unwrap();
        let err = compile_system(
            &chart,
            "void F(int:8 x) { }",
            &PscpArch::minimal(),
            &CodegenOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err.code, "PS403");
        assert_eq!(err.message, "`F` expects 1 arguments, got 2");
    }

    #[test]
    fn bad_argument_rejected() {
        let mut b = ChartBuilder::new("t");
        b.event("E", None);
        b.state("A", StateKind::Basic).transition("B", "E/F(mystery)");
        b.basic("B");
        let chart = b.build().unwrap();
        let err = compile_system(
            &chart,
            "void F(int:8 x) { }",
            &PscpArch::minimal(),
            &CodegenOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err.code, "PS402");
        assert_eq!(err.message, "argument `mystery` of `F` is not a constant or global");
    }

    #[test]
    fn enum_variant_arguments_resolve() {
        let mut b = ChartBuilder::new("t");
        b.event("E", None);
        b.state("A", StateKind::Basic).transition("B", "E/Start(MX)");
        b.basic("B");
        let chart = b.build().unwrap();
        let src = "enum Motor { MX, MY, MZ };\nvoid Start(uint:8 m) { }";
        let sys =
            compile_system(&chart, src, &PscpArch::minimal(), &CodegenOptions::default())
                .unwrap();
        assert_eq!(sys.bindings[0].calls[0].args, vec![ArgSpec::Const(0)]);
    }
}
