//! The TEP's cost table is the cost model, priced ahead: for every
//! instruction of every routine, the cycles a [`TepMachine`] charges
//! equal [`CostModel::cost`], on the pickup head for each Table 4
//! architecture (and one with pipelined fetch and fused custom ops)
//! and on the gang system.

use pscp_bench::{example_system, gang_system, table4_architectures};
use pscp_core::arch::PscpArch;
use pscp_core::compile::CompiledSystem;
use pscp_tep::machine::TepMachine;
use pscp_tep::timing::CostModel;

/// Asserts the table of `sys` equals the model; returns how many
/// instructions span more than one limb.
fn assert_table_is_model(sys: &CompiledSystem) -> usize {
    let model = CostModel::new(&sys.program.arch);
    let machine = TepMachine::new(&sys.program);
    let mut wide = 0;
    for (fi, f) in sys.program.functions.iter().enumerate() {
        for (pc, inst) in f.code.iter().enumerate() {
            assert_eq!(
                machine.instruction_cost(fi as u32, pc),
                model.cost(inst),
                "{}: `{}` pc {pc} ({inst:?})",
                sys.arch.label,
                f.name
            );
            wide += usize::from(sys.program.arch.limbs(inst.width.max(1)) > 1);
        }
    }
    assert!(sys.program.instruction_count() > 0, "{}: no code", sys.arch.label);
    wide
}

#[test]
fn cost_table_equals_the_cost_model() {
    let mut archs = table4_architectures();
    let mut pipelined_custom = PscpArch::md16_optimized();
    pipelined_custom.tep.pipelined = true;
    pipelined_custom.tep.custom_instructions = true;
    archs.push(pipelined_custom);
    let wide: usize = archs.iter().map(|arch| assert_table_is_model(&example_system(arch))).sum();
    assert_table_is_model(&gang_system());
    // A narrow calculation unit splits wide operands into limbs, so the
    // scaling the table must carry is exercised.
    assert!(wide > 0, "no multi-limb instruction");
}
