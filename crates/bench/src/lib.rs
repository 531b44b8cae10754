//! Shared plumbing for the experiment harness.
//!
//! One binary per table/figure of the paper lives in `src/bin/`. This
//! library provides the example system builders they share, which the
//! tests and the `pscp-benchmark` package reuse as workload fixtures.

use pscp_action_lang::ir::Program;
use pscp_core::arch::PscpArch;
use pscp_core::compile::CompiledSystem;
use pscp_core::timing::{validate_timing, TimingOptions, TimingReport};
use pscp_motors::{pickup_head_actions, pickup_head_chart};
use pscp_statechart::{Chart, ChartBuilder, StateKind};
use pscp_tep::codegen::CodegenOptions;

/// The five architectures of Table 4, in row order.
pub fn table4_architectures() -> Vec<PscpArch> {
    vec![
        PscpArch::minimal(),
        PscpArch::md16_unoptimized(),
        PscpArch::md16_optimized(),
        PscpArch::dual_md16(false),
        PscpArch::dual_md16(true),
    ]
}

/// Paper values of Table 4: (label, area, crit-path X/Y, crit-path
/// DATA_VALID); `None` encodes the paper's "> 1000" / "> 3000" entries.
pub fn table4_paper_values() -> Vec<(&'static str, u32, Option<u64>, Option<u64>)> {
    vec![
        ("1 minimal TEP", 224, None, None),
        ("16bit M/D TEP, unoptimized code", 421, Some(878), Some(2041)),
        ("16bit M/D TEP, optimized code", 421, Some(524), Some(1317)),
        ("2 16bit M/D TEP, unoptimized code", 773, Some(469), Some(1081)),
        ("2 16bit M/D TEP, optimized code", 773, Some(282), Some(699)),
    ]
}

/// Table 3 paper values: (cycle path, length).
pub fn table3_paper_values() -> Vec<(&'static str, u64)> {
    vec![
        ("{Idle1, ReachPosition, Idle1}", 235),
        ("{OpReady, OpReady}", 747),
        ("{Idle1, OpReady}", 105),
        ("{OpReady, EmptyBuf, Idle1}", 772),
        ("{OpReady, EmptyBuf, Bounds, Idle1}", 1414),
        ("{OpReady, EmptyBuf, Bounds, NoData}", 2041),
        ("{NoData, OpReady}", 747),
        ("{NoData, Idle1}", 130),
        ("{NoData, ErrState, Idle1}", 180),
        ("{RunX, RunX}", 878),
        ("{RunY, RunY}", 878),
        ("{RunPhi, RunPhi}", 878),
    ]
}

/// The pickup-head chart and compiled action IR — the raw inputs of
/// [`pscp_core::optimize::optimize`], shared by the design-space
/// exploration benches and the determinism tests.
pub fn pickup_head_inputs() -> (Chart, Program) {
    let chart = pickup_head_chart();
    let env = pscp_core::compile::chart_env(&chart);
    let ir = pscp_action_lang::compile_with_env(&pickup_head_actions(), &env)
        .expect("actions compile");
    (chart, ir)
}

/// A scaled design-space-exploration workload: one pickup-head
/// controller driving `heads` independent gantries in parallel (real
/// SMD placement machines mount several pickup heads on one beam).
/// The data-preparation region is shared; each head gets its own
/// motion region — per-axis ramp routines, finish conditions, pulse
/// events and counter ports, all suffixed with the head index. The
/// returned pair feeds [`pscp_core::optimize::optimize`] exactly like
/// [`pickup_head_inputs`], with `heads * 10` routines instead of ~20 —
/// large enough that per-candidate compile/validate work, not loop
/// fixed costs, dominates the exploration.
pub fn multi_head_inputs(heads: usize) -> (Chart, Program) {
    use pscp_statechart::model::PortDirection::{Input, Output};
    let mut b = ChartBuilder::new("MultiHead");

    b.event("POWER", None);
    b.event("INIT", None);
    b.event("ALLRESET", None);
    b.event("ERROR", None);
    b.event("DATA_VALID", Some(1500));
    b.event("GRAB_RELEASE", None);
    b.internal_event("BUF_READY");
    b.internal_event("PARAMS_READY");
    b.internal_event("BOUNDS_OK");
    b.internal_event("END_DATA");
    b.condition("MOVEMENT", false);
    b.data_port("BUFFER", 8, 0x10, Input);
    b.data_port("STOPALL_P", 8, 0x11, Output);
    b.data_port("STATUS_P", 16, 0x12, Output);
    for h in 0..heads {
        b.event(format!("X_PULSE{h}"), Some(300));
        b.event(format!("Y_PULSE{h}"), Some(300));
        b.event(format!("PHI_PULSE{h}"), Some(1600));
        b.event(format!("X_STEPS{h}"), None);
        b.event(format!("Y_STEPS{h}"), None);
        b.event(format!("PHI_STEPS{h}"), None);
        b.internal_event(format!("END_MOVE{h}"));
        b.condition(format!("XFINISH{h}"), false);
        b.condition(format!("YFINISH{h}"), false);
        b.condition(format!("PHIFINISH{h}"), false);
        let base = 0x20 + 0x10 * h as u16;
        b.data_port(format!("XPERIOD{h}"), 16, base, Output);
        b.data_port(format!("YPERIOD{h}"), 16, base + 1, Output);
        b.data_port(format!("PHIPERIOD{h}"), 16, base + 2, Output);
        b.data_port(format!("XSTEPS_P{h}"), 16, base + 3, Output);
        b.data_port(format!("YSTEPS_P{h}"), 16, base + 4, Output);
        b.data_port(format!("PHISTEPS_P{h}"), 16, base + 5, Output);
        b.data_port(format!("XDIR_P{h}"), 8, base + 6, Output);
        b.data_port(format!("YDIR_P{h}"), 8, base + 7, Output);
        b.data_port(format!("PHIDIR_P{h}"), 8, base + 8, Output);
    }

    let mut regions = vec!["DataPreparation".to_string()];
    regions.extend((0..heads).map(|h| format!("ReachPosition{h}")));
    b.state("Controller", StateKind::Or)
        .contains(["OFF", "Idle1", "Operation", "ErrState"])
        .default_child("OFF");
    b.state("OFF", StateKind::Basic).transition("Idle1", "POWER");
    b.state("Idle1", StateKind::Basic)
        .transition("OpReady", "[DATA_VALID]/GetByte()");
    b.state("Operation", StateKind::And)
        .contains(regions)
        .transition("Idle1", "INIT or ALLRESET/InitializeAll()")
        .transition("ErrState", "ERROR/Stop()")
        .transition("Idle1", "END_DATA/Finish()");
    b.state("ErrState", StateKind::Basic)
        .transition("Idle1", "INIT or ALLRESET/InitializeAll()");

    b.state("DataPreparation", StateKind::Or)
        .contains(["OpReady", "EmptyBuf", "Bounds", "NoData"])
        .default_child("OpReady");
    b.state("OpReady", StateKind::Basic)
        .transition("OpReady", "[DATA_VALID]/GetByte()")
        .transition("EmptyBuf", "BUF_READY/DecodeOpcode()");
    b.state("EmptyBuf", StateKind::Basic)
        .transition("Bounds", "PARAMS_READY/CheckBounds()");
    b.state("Bounds", StateKind::Basic)
        .transition("NoData", "BOUNDS_OK/PrepareMove()");
    b.state("NoData", StateKind::Basic)
        .transition("OpReady", "not (X_PULSE0 or Y_PULSE0)/PhiParameters()")
        .transition("OpReady", "[DATA_VALID]/GetByte()");

    for h in 0..heads {
        b.state(format!("ReachPosition{h}"), StateKind::Or)
            .contains([format!("Idle2_{h}"), format!("Moving{h}")])
            .default_child(format!("Idle2_{h}"));
        b.state(format!("Idle2_{h}"), StateKind::Basic)
            .transition(format!("Moving{h}"), "[MOVEMENT]");
        b.state(format!("Moving{h}"), StateKind::And)
            .contains([format!("MoveX{h}"), format!("MoveY{h}"), format!("MovePhi{h}")])
            .transition(
                format!("Idle2_{h}"),
                &format!(
                    "[XFINISH{h} and YFINISH{h} and PHIFINISH{h}]/EndMove{h}()"
                ),
            );
        for (axis, pulse, steps, delta) in [
            ("X", "X_PULSE", "X_STEPS", "DeltaTX"),
            ("Y", "Y_PULSE", "Y_STEPS", "DeltaTY"),
            ("Phi", "PHI_PULSE", "PHI_STEPS", "DeltaTPhi"),
        ] {
            b.state(format!("Move{axis}{h}"), StateKind::Or)
                .contains([
                    format!("{axis}Start{h}"),
                    format!("Run{axis}{h}"),
                    format!("{axis}End{h}"),
                ])
                .default_child(format!("{axis}Start{h}"));
            b.state(format!("{axis}Start{h}"), StateKind::Basic)
                .transition(format!("Run{axis}{h}"), &format!("/StartMotor{axis}{h}()"));
            b.state(format!("Run{axis}{h}"), StateKind::Basic)
                .transition(format!("Run{axis}{h}"), &format!("{pulse}{h}/{delta}{h}()"))
                .transition(format!("{axis}End{h}"), &format!("{steps}{h}/Finish{axis}{h}()"));
            b.basic(format!("{axis}End{h}"));
        }
    }
    let chart = b.build().expect("multi-head chart is well-formed");

    let mut src = String::from(
        "uint:8 byte_no;\nuint:8 opcode;\nuint:16 cmd_x;\nuint:16 cmd_y;\nuint:16 cmd_phi;\n\
         int:16 moves_done;\nint:16 min_period_xy = 300;\nint:16 start_period_xy = 16800;\n\
         int:16 phi_period = 1666;\nuint:16 max_coord = 20000;\n",
    );
    for h in 0..heads {
        src.push_str(&format!(
            "uint:16 pos_x{h}; uint:16 pos_y{h}; uint:16 pos_phi{h};\n\
             int:16 xc{h}; int:16 xn{h}; int:16 xleft{h};\n\
             int:16 yc{h}; int:16 yn{h}; int:16 yleft{h};\n"
        ));
    }
    src.push_str(
        r#"
void GetByte() {
    uint:16 b = BUFFER;
    if (byte_no < 3) {
        if (byte_no == 0) {
            opcode = b;
            if (opcode == 255) { raise END_DATA; } else { byte_no = 1; }
        } else if (byte_no == 1) { cmd_x = b; byte_no = 2; }
        else { cmd_x = cmd_x + (b << 8); byte_no = 3; }
    } else if (byte_no < 5) {
        if (byte_no == 3) { cmd_y = b; byte_no = 4; }
        else { cmd_y = cmd_y + (b << 8); byte_no = 5; }
    } else if (byte_no == 5) { cmd_phi = b; byte_no = 6; }
    else {
        cmd_phi = cmd_phi + (b << 8);
        byte_no = 0;
        raise BUF_READY;
    }
}
void DecodeOpcode() {
    if (opcode == 1) { raise PARAMS_READY; } else { raise ERROR; }
}
void CheckBounds() {
    if (cmd_x > max_coord) { raise ERROR; }
    else if (cmd_y > max_coord) { raise ERROR; }
    else if (cmd_phi > 3600) { raise ERROR; }
    else { raise BOUNDS_OK; }
}
void Stop() { STOPALL_P = 1; MOVEMENT = 0; }
void Finish() { STOPALL_P = 0; STATUS_P = moves_done; }
"#,
    );
    // PrepareMove arms every head; PhiParameters only refreshes the
    // shared status word (the per-head Z axes are untracked).
    src.push_str("void PrepareMove() {\n");
    for h in 0..heads {
        src.push_str(&format!(
            "    if (cmd_x >= pos_x{h}) {{ xleft{h} = cmd_x - pos_x{h}; XDIR_P{h} = 0; }}\n\
             else {{ xleft{h} = pos_x{h} - cmd_x; XDIR_P{h} = 1; }}\n\
             if (cmd_y >= pos_y{h}) {{ yleft{h} = cmd_y - pos_y{h}; YDIR_P{h} = 0; }}\n\
             else {{ yleft{h} = pos_y{h} - cmd_y; YDIR_P{h} = 1; }}\n\
             if (cmd_phi >= pos_phi{h}) {{ PHIDIR_P{h} = 0; }} else {{ PHIDIR_P{h} = 1; }}\n"
        ));
    }
    src.push_str("    MOVEMENT = 1;\n}\n");
    src.push_str("void PhiParameters() { STATUS_P = moves_done; }\n");
    src.push_str("void InitializeAll() {\n    byte_no = 0;\n    opcode = 0;\n    MOVEMENT = 0;\n");
    for h in 0..heads {
        src.push_str(&format!(
            "    XFINISH{h} = 0;\n    YFINISH{h} = 0;\n    PHIFINISH{h} = 0;\n"
        ));
    }
    src.push_str("    STOPALL_P = 1;\n}\n");
    for h in 0..heads {
        src.push_str(&format!(
            r#"
void StartMotorX{h}() {{
    xc{h} = start_period_xy;
    xn{h} = 0;
    if (xleft{h} == 0) {{ XFINISH{h} = 1; }}
    else {{
        XFINISH{h} = 0;
        XPERIOD{h} = xc{h};
        XSTEPS_P{h} = xleft{h};
    }}
}}
void StartMotorY{h}() {{
    yc{h} = start_period_xy;
    yn{h} = 0;
    if (yleft{h} == 0) {{ YFINISH{h} = 1; }}
    else {{
        YFINISH{h} = 0;
        YPERIOD{h} = yc{h};
        YSTEPS_P{h} = yleft{h};
    }}
}}
void StartMotorPhi{h}() {{
    uint:16 dphi;
    if (cmd_phi >= pos_phi{h}) {{ dphi = cmd_phi - pos_phi{h}; }}
    else {{ dphi = pos_phi{h} - cmd_phi; }}
    if (dphi == 0) {{ PHIFINISH{h} = 1; }}
    else {{
        PHIFINISH{h} = 0;
        PHIPERIOD{h} = phi_period;
        PHISTEPS_P{h} = dphi;
    }}
}}
void DeltaTX{h}() {{
    xn{h} = xn{h} + 1;
    xleft{h} = xleft{h} - 1;
    if (xleft{h} < xn{h}) {{
        xc{h} = xc{h} + (2 * xc{h}) / (4 * xleft{h} + 1);
    }} else if (xc{h} > min_period_xy) {{
        xc{h} = xc{h} - (2 * xc{h}) / (4 * xn{h} + 1);
        if (xc{h} < min_period_xy) {{ xc{h} = min_period_xy; }}
    }}
    XPERIOD{h} = xc{h};
}}
void DeltaTY{h}() {{
    yn{h} = yn{h} + 1;
    yleft{h} = yleft{h} - 1;
    if (yleft{h} < yn{h}) {{
        yc{h} = yc{h} + (2 * yc{h}) / (4 * yleft{h} + 1);
    }} else if (yc{h} > min_period_xy) {{
        yc{h} = yc{h} - (2 * yc{h}) / (4 * yn{h} + 1);
        if (yc{h} < min_period_xy) {{ yc{h} = min_period_xy; }}
    }}
    YPERIOD{h} = yc{h};
}}
void DeltaTPhi{h}() {{ PHIPERIOD{h} = phi_period; }}
void FinishX{h}() {{ XFINISH{h} = 1; pos_x{h} = cmd_x; }}
void FinishY{h}() {{ YFINISH{h} = 1; pos_y{h} = cmd_y; }}
void FinishPhi{h}() {{ PHIFINISH{h} = 1; pos_phi{h} = cmd_phi; }}
void EndMove{h}() {{
    MOVEMENT = 0;
    XFINISH{h} = 0;
    YFINISH{h} = 0;
    PHIFINISH{h} = 0;
    moves_done = moves_done + 1;
    STATUS_P = moves_done;
    raise END_MOVE{h};
}}
"#
        ));
    }

    let env = pscp_core::compile::chart_env(&chart);
    let ir = pscp_action_lang::compile_with_env(&src, &env)
        .expect("multi-head actions compile");
    (chart, ir)
}

/// Compiles the pickup-head example for an architecture. The
/// "optimized code" configurations include the storage promotion of §4:
/// the hottest scalar globals move into the register file.
pub fn example_system(arch: &PscpArch) -> CompiledSystem {
    let chart = pickup_head_chart();
    let env = pscp_core::compile::chart_env(&chart);
    let ir = pscp_action_lang::compile_with_env(&pickup_head_actions(), &env)
        .expect("actions compile");
    let mut options = CodegenOptions::default();
    if arch.tep.optimize_code && arch.tep.register_file > 0 {
        for slot in pscp_core::optimize::hottest_scalar_globals(
            &ir,
            arch.tep.register_file as usize,
        ) {
            options
                .global_promotions
                .insert(slot, pscp_tep::StorageClass::Register);
        }
    }
    pscp_core::compile::compile_system_from_ir(&chart, &ir, arch, &options)
        .expect("pickup-head example compiles")
}

/// How many parallel regions [`gang_system`] builds.
pub const GANG_REGIONS: usize = 16;
/// States (and ring transitions) per region in [`gang_system`].
pub const GANG_STATES: usize = 5;
/// Shared probe events; every state listens to six of them.
pub const GANG_PROBES: usize = 8;

/// An SLA-bound workload for gang-simulation benchmarking: one AND
/// state of [`GANG_REGIONS`] independent rotors, each an OR-state ring
/// of [`GANG_STATES`] basic states advanced by its own event, plus
/// six shared probe events per state that also advance the ring.
/// With 560 transitions (112 of them on active sources every cycle)
/// and a wide CR, per-cycle cost is dominated by transition selection /
/// SLA evaluation rather than TEP execution — the plane the bit-sliced
/// gang probe (`pscp_sla::gang`) evaluates for 64 lanes at once. One
/// rotor carries a counting action so the TEP path is still exercised
/// on firing cycles.
pub fn gang_chart() -> Chart {
    gang_chart_with(GANG_REGIONS)
}

/// [`gang_chart`] with `regions` rotors instead of [`GANG_REGIONS`]:
/// `regions × 35` transitions, for scaling measurements. The probe
/// events stay [`GANG_PROBES`]; only the `E{r}` region events grow.
pub fn gang_chart_with(regions: usize) -> Chart {
    let mut b = ChartBuilder::new("gangload");
    for r in 0..regions {
        b.event(format!("E{r}"), None);
    }
    for p in 0..GANG_PROBES {
        b.event(format!("P{p}"), None);
    }
    let regions: Vec<String> = (0..regions).map(|r| format!("R{r}")).collect();
    b.state("Top", StateKind::Or).contains(["Run"]).default_child("Run");
    b.state("Run", StateKind::And).contains(regions.clone());
    for (r, region) in regions.iter().enumerate() {
        let states: Vec<String> =
            (0..GANG_STATES).map(|s| format!("R{r}S{s}")).collect();
        b.state(region, StateKind::Or)
            .contains(states.clone())
            .default_child(&states[0]);
        for s in 0..GANG_STATES {
            let next = &states[(s + 1) % GANG_STATES];
            let label = if r == 0 && s == GANG_STATES - 1 {
                format!("E{r}/Bump()")
            } else {
                format!("E{r}")
            };
            let mut scope = b.state(&states[s], StateKind::Basic);
            scope.transition(next, &label);
            for j in 0..6 {
                scope.transition(next, &format!("P{}", (r + s + j) % GANG_PROBES));
            }
        }
    }
    b.build().expect("gang workload chart builds")
}

/// Action source for [`gang_chart`].
pub const GANG_ACTIONS: &str = "int:16 laps; void Bump() { laps = laps + 1; }";

/// Compiles the gang workload for the paper's final architecture.
pub fn gang_system() -> CompiledSystem {
    pscp_core::compile::compile_system(
        &gang_chart(),
        GANG_ACTIONS,
        &PscpArch::dual_md16(true),
        &CodegenOptions::default(),
    )
    .expect("gang workload compiles")
}

/// Deterministic sparse scripts for [`gang_system`]: scenario `i` gets
/// `cycles` script steps with roughly 3% of them carrying one region
/// event and a rare probe event (~0.2%, firing every region at once),
/// so scenarios idle most cycles and fire out of phase — the regime
/// the bit-sliced gang was built for.
pub fn gang_scripts(scenarios: usize, cycles: usize) -> Vec<Vec<Vec<String>>> {
    (0..scenarios)
        .map(|i| {
            (0..cycles)
                .map(|c| {
                    if (i * 7 + c) % 37 == 0 {
                        vec![format!("E{}", (i + c) % GANG_REGIONS)]
                    } else if (i * 11 + c) % 499 == 0 {
                        vec![format!("P{}", (i + c) % GANG_PROBES)]
                    } else {
                        Vec::new()
                    }
                })
                .collect()
        })
        .collect()
}

/// Runs the timing validation with default options.
pub fn example_timing(system: &CompiledSystem) -> TimingReport {
    validate_timing(system, &TimingOptions::default())
}

/// Worst X/Y pulse-servicing cycle of a report (the Table 4 "Crit. Path
/// X, Y" column).
pub fn crit_path_xy(report: &TimingReport) -> Option<u64> {
    [report.worst_for("X_PULSE"), report.worst_for("Y_PULSE")]
        .into_iter()
        .flatten()
        .max()
}

/// Worst DATA_VALID cycle (the Table 4 "Crit. Path DATA_VALID" column).
pub fn crit_path_data_valid(report: &TimingReport) -> Option<u64> {
    report.worst_for("DATA_VALID")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_core::area::pscp_area;

    #[test]
    fn table4_shape_reproduced() {
        // The qualitative claims of Table 4 must hold on our numbers:
        // each architecture step improves both critical paths, and area
        // grows monotonically except rows 2->3 (same hardware).
        let mut xy = Vec::new();
        let mut dv = Vec::new();
        let mut area = Vec::new();
        for arch in table4_architectures() {
            let sys = example_system(&arch);
            let rep = example_timing(&sys);
            xy.push(crit_path_xy(&rep).expect("X/Y cycles found"));
            dv.push(crit_path_data_valid(&rep).expect("DATA_VALID cycles found"));
            area.push(pscp_area(&sys).total().0);
        }
        // Row 1 (minimal) is far worse than row 2 (M/D unit).
        assert!(xy[0] > 2 * xy[1], "minimal {} !>> md16 {}", xy[0], xy[1]);
        assert!(dv[0] > 2 * dv[1], "minimal {} !>> md16 {}", dv[0], dv[1]);
        // Optimised code beats unoptimised on the same hardware.
        assert!(xy[2] < xy[1]);
        assert!(dv[2] < dv[1]);
        // A second TEP beats one TEP at the same code level.
        assert!(xy[3] < xy[1]);
        assert!(dv[3] < dv[1]);
        // The final architecture is the best of all.
        assert!(xy[4] == *xy.iter().min().unwrap());
        assert!(dv[4] == *dv.iter().min().unwrap());
        // Areas: md16 > minimal; 2 TEPs > 1 TEP.
        assert!(area[1] > area[0]);
        assert!(area[3] > area[1]);
        assert!(area[4] > area[2]);
        // And everything still fits the XC4025.
        assert!(area.iter().all(|&a| a <= 1024), "areas: {area:?}");
    }

    #[test]
    fn final_architecture_meets_all_constraints() {
        let sys = example_system(&PscpArch::dual_md16(true));
        let rep = example_timing(&sys);
        assert!(
            rep.ok(),
            "the paper's final architecture fulfils all timing requirements: {:?}",
            rep.violations
        );
    }

    #[test]
    fn minimal_architecture_violates_constraints() {
        let sys = example_system(&PscpArch::minimal());
        let rep = example_timing(&sys);
        assert!(!rep.ok(), "the minimal TEP must violate Table 2");
        let events: Vec<&str> =
            rep.violations.iter().map(|v| v.event.as_str()).collect();
        assert!(events.contains(&"X_PULSE"), "X deadline blown: {events:?}");
    }
}
