//! Quickstart: specify a small reactive system as a textual statechart
//! plus extended-C actions, compile it for a PSCP, validate its timing,
//! and run it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use pscp::core::arch::PscpArch;
use pscp::core::compile::{chart_env, compile_system};
use pscp::core::machine::{PscpMachine, ScriptedEnvironment};
use pscp::core::optimize::{optimize, MemoPersistence, OptimizeOptions};
use pscp::core::timing::{validate_timing, TimingOptions};
use pscp::statechart::parse::parse_chart;
use pscp::tep::codegen::CodegenOptions;

const CHART: &str = r#"
    chart Blinker;
    event TICK period 2000;
    event RESET;
    condition FAST;

    orstate Top {
        contains Off, On;
        default Off;
    }
    basicstate Off {
        transition { target On; label "TICK/Brighten()"; }
    }
    basicstate On {
        transition { target Off; label "TICK [not FAST]/Dim()"; }
        transition { target Off; label "RESET/Reset()"; }
    }
"#;

const ACTIONS: &str = r#"
    port LAMP : 8 @ 0x10 out;
    int:16 level;

    void Brighten() {
        level = level + 25;
        if (level > 200) { level = 200; }
        FAST = level >= 100;
        LAMP = level;
    }

    void Dim() {
        level = level / 2;
        LAMP = level;
    }

    void Reset() { level = 0; LAMP = 0; }
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Parse the chart and compile the whole system for a PSCP.
    let chart = parse_chart(CHART)?;
    let arch = PscpArch::md16_optimized();
    let system = compile_system(&chart, ACTIONS, &arch, &CodegenOptions::default())?;
    println!(
        "compiled `{}` for {}: {} instructions, CR {} bits, SLA {} product terms",
        chart.name(),
        arch.label,
        system.program.instruction_count(),
        system.layout.width(),
        system.sla.product_terms(),
    );

    // 2. Static timing validation against the TICK arrival period.
    let report = validate_timing(&system, &TimingOptions::default());
    println!(
        "timing: {} event cycles found, {} violation(s)",
        report.cycles.len(),
        report.violations.len()
    );
    for c in report.cycles.iter().take(4) {
        println!("  {}", c.display(&system.chart));
    }

    // 3. Run it.
    let mut machine = PscpMachine::new(&system);
    let mut env = ScriptedEnvironment::new(vec![
        vec!["TICK"],
        vec!["TICK"],
        vec!["TICK"],
        vec!["TICK"],
        vec!["RESET"],
        vec!["TICK"],
    ]);
    for _ in 0..6 {
        let r = machine.step(&mut env)?;
        println!(
            "cycle {:>2}: fired {:?}, {} clock cycles",
            machine.stats().config_cycles,
            r.fired.iter().map(|t| t.index()).collect::<Vec<_>>(),
            r.cycle_length
        );
    }
    println!("lamp levels written: {:?}", env.port_writes);
    println!("final level = {:?}", machine.tep().global_by_name("level"));

    // 4. When the improvement loop runs out of step budget, the result
    // says so structurally: `budget_exhausted` plus the surviving worst
    // cycle per violated event — no need to scrape stderr. Force it
    // here with an impossible TICK period and a one-step budget.
    let tight = parse_chart(&CHART.replace("period 2000", "period 10"))?;
    let ir = pscp::action_lang::compile_with_env(ACTIONS, &chart_env(&tight))?;
    let options = OptimizeOptions {
        max_steps: 1,
        memo: MemoPersistence::Disabled,
        ..OptimizeOptions::default()
    };
    let result = optimize(&tight, &ir, &PscpArch::minimal(), &options)?;
    println!(
        "tight-deadline run: satisfied={}, budget_exhausted={}",
        result.satisfied, result.budget_exhausted
    );
    for cycle in &result.exhausted_worst_cycles {
        println!(
            "  unresolved: {} needs {} cycles through {{{}}}",
            cycle.event,
            cycle.length,
            cycle.path_names(&result.system.chart).join(", ")
        );
    }
    Ok(())
}
