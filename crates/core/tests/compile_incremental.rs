//! Property-based differential test for function-granularity
//! incremental compilation: for random action programs and random
//! single-knob perturbations, a cached recompile on the cache that
//! compiled the base program — the path `optimize` runs — must produce
//! a `TepProgram` byte-identical to a fresh full compile, whose full
//! WCET analysis therefore gives an identical `WcetReport` (WCET has
//! no incremental path; `tests/wcet_soundness.rs` is its oracle). Also
//! pins the cache-poisoning defence and the system-level cached == full
//! differential.

use proptest::prelude::*;
use pscp_action_lang::ProgramEnv;
use pscp_core::arch::PscpArch;
use pscp_core::compile::{chart_env, compile_system_from_ir, compile_system_with, SystemArtifacts};
use pscp_statechart::{Chart, ChartBuilder, StateKind};
use pscp_tep::codegen::{compile_program, compile_program_cached, CodegenCache, CodegenOptions};
use pscp_tep::isa::{AsmFunction, AsmInst, Instr};
use pscp_tep::{StorageClass, TepArch, WcetAnalysis};
use std::sync::Arc;

/// A random program shape: a couple of globals plus a subset of
/// routine templates covering the op classes the routine key tracks
/// (mul/div → runtime calls, compares, unary negate, loops, plain
/// arithmetic over distinct global slots).
#[derive(Debug, Clone)]
struct ProgSpec {
    n_globals: usize,
    wide: bool,
    use_mul: bool,
    use_cmp: bool,
    use_neg: bool,
    use_loop: bool,
}

impl ProgSpec {
    fn source(&self) -> String {
        let ty = if self.wide { "int:16" } else { "int:8" };
        let mut s = String::new();
        for i in 0..self.n_globals {
            s.push_str(&format!("{ty} g{i} = {};\n", i as i64 + 1));
        }
        let g = |i: usize| format!("g{}", i % self.n_globals);
        s.push_str(&format!(
            "void tick({ty} n) {{ {0} = ({0} + n) ^ 3; }}\n",
            g(0)
        ));
        if self.use_mul {
            s.push_str(&format!(
                "void fmul({ty} n) {{ {0} = {0} * n + n / 3; }}\n",
                g(1)
            ));
        }
        if self.use_cmp {
            s.push_str(&format!(
                "void fcmp({ty} n) {{ if (n > {0}) {{ {0} = n; }} }}\n",
                g(2)
            ));
        }
        if self.use_neg {
            s.push_str(&format!("void fneg({ty} n) {{ {0} = -n; }}\n", g(0)));
        }
        if self.use_loop {
            s.push_str(&format!(
                "{ty} floop({ty} n) {{ {ty} s = 0; while (n > 0) {{ s += n; n = n - 1; }} return s; }}\n"
            ));
        }
        s
    }
}

fn prog_spec() -> impl Strategy<Value = ProgSpec> {
    (
        2usize..=4,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(n_globals, wide, use_mul, use_cmp, use_neg, use_loop)| ProgSpec {
            n_globals,
            wide,
            use_mul,
            use_cmp,
            use_neg,
            use_loop,
        })
}

/// A single DSE-style perturbation of the architecture or the codegen
/// options — the delta shapes `optimize()` actually produces.
#[derive(Debug, Clone, Copy)]
enum Perturb {
    /// Hardware multiply/divide toggles the runtime-routine set.
    Muldiv,
    /// Dedicated comparator changes compare lowering.
    Comparator,
    /// Two's-complement path changes negate lowering.
    TwosComplement,
    /// Peephole on/off rewrites every routine.
    OptimizeCode,
    /// Cost-model-only knobs: must invalidate nothing.
    Pipelined,
    Shifter,
    Width,
    /// Promote one global slot to a faster storage class.
    Promote(u32, bool),
}

impl Perturb {
    fn apply(self, arch: &mut TepArch, opts: &mut CodegenOptions, n_globals: u32) {
        match self {
            Perturb::Muldiv => arch.calc.muldiv = !arch.calc.muldiv,
            Perturb::Comparator => arch.calc.comparator = !arch.calc.comparator,
            Perturb::TwosComplement => {
                arch.calc.twos_complement = !arch.calc.twos_complement
            }
            Perturb::OptimizeCode => arch.optimize_code = !arch.optimize_code,
            Perturb::Pipelined => arch.pipelined = !arch.pipelined,
            Perturb::Shifter => arch.calc.shifter = !arch.calc.shifter,
            Perturb::Width => {
                arch.calc.width = if arch.calc.width == 8 { 16 } else { 8 }
            }
            Perturb::Promote(slot, to_register) => {
                let class = if to_register && arch.register_file > 0 {
                    StorageClass::Register
                } else {
                    StorageClass::Internal
                };
                opts.global_promotions.insert(slot % n_globals, class);
            }
        }
    }

    /// Knobs that never reach lowering: a seeded cache must serve
    /// every routine without a single recompile.
    fn is_cost_only(self) -> bool {
        matches!(self, Perturb::Pipelined | Perturb::Shifter | Perturb::Width)
    }
}

fn perturb() -> impl Strategy<Value = Perturb> {
    prop_oneof![
        Just(Perturb::Muldiv),
        Just(Perturb::Comparator),
        Just(Perturb::TwosComplement),
        Just(Perturb::OptimizeCode),
        Just(Perturb::Pipelined),
        Just(Perturb::Shifter),
        Just(Perturb::Width),
        (0u32..4, any::<bool>()).prop_map(|(s, r)| Perturb::Promote(s, r)),
    ]
}

fn base_arch(which: u8) -> TepArch {
    match which % 3 {
        0 => TepArch::minimal(),
        1 => TepArch::md16_unoptimized(),
        _ => TepArch::md16_optimized(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core differential: a cached recompile after one
    /// perturbation, on the cache the base compile warmed, is
    /// byte-identical to a from-scratch compile, with an identical WCET
    /// report.
    #[test]
    fn delta_compile_is_byte_identical_to_full(
        spec in prog_spec(),
        which_arch in 0u8..3,
        p in perturb(),
    ) {
        let ir = pscp_action_lang::compile_with_env(
            &spec.source(),
            &ProgramEnv::default(),
        )
        .unwrap();
        let arch0 = base_arch(which_arch);
        let opts0 = CodegenOptions::default();
        let cache = CodegenCache::with_enabled(true);
        // The base compile warms the cache the delta compile reads.
        compile_program_cached(&ir, &arch0, &opts0, &cache);
        let base_misses = cache.stats().misses;

        let mut arch1 = arch0.clone();
        let mut opts1 = opts0.clone();
        p.apply(&mut arch1, &mut opts1, spec.n_globals as u32);

        let delta = compile_program_cached(&ir, &arch1, &opts1, &cache);
        let full = compile_program(&ir, &arch1, &opts1);

        prop_assert_eq!(delta, full, "program diverged for {:?}", p);
        prop_assert_eq!(
            WcetAnalysis::new(&arch1).analyze(&delta),
            WcetAnalysis::new(&arch1).analyze(&full),
            "WCET report diverged for {:?}", p
        );

        // Cost-model-only knobs must reuse every routine the base
        // compile cached.
        if p.is_cost_only() {
            let stats = cache.stats();
            prop_assert_eq!(
                stats.misses - base_misses, 0, "cost-only knob recompiled: {:?}", stats
            );
        }
    }

    /// A poisoned cache (stale entries forced in) is always detected or
    /// harmlessly recompiled — output never changes.
    #[test]
    fn poisoned_cache_never_changes_output(
        spec in prog_spec(),
        which_arch in 0u8..3,
    ) {
        let ir = pscp_action_lang::compile_with_env(
            &spec.source(),
            &ProgramEnv::default(),
        )
        .unwrap();
        let arch = base_arch(which_arch);
        let opts = CodegenOptions::default();
        let cache = CodegenCache::with_enabled(true);
        let want = compile_program_cached(&ir, &arch, &opts, &cache);

        let bogus = AsmFunction {
            name: "__poison__".into(),
            param_count: 7,
            frame: Vec::new(),
            code: vec![AsmInst::new(Instr::Return, 1, false)],
            loop_bound: None,
        };
        cache.poison_for_tests(&bogus);
        let got = compile_program_cached(&ir, &arch, &opts, &cache);
        prop_assert_eq!(got, want, "poisoned cache changed output");
        let stats = cache.stats();
        prop_assert!(stats.invalidations > 0, "poison went undetected: {:?}", stats);
    }
}

fn chart() -> Chart {
    let mut b = ChartBuilder::new("inc");
    b.event("E", Some(10_000));
    b.state("A", StateKind::Basic).transition("B", "E/F(5)");
    b.state("B", StateKind::Basic).transition("A", "E/G(9)");
    b.build().unwrap()
}

const SYSTEM_SRC: &str = r#"
    int:16 g = 12;
    int:16 h = 3;
    void F(int:16 n) { g = ((g ^ n) & 255) | (n * h); }
    void G(int:16 n) { if (n > h) { h = -n; } }
"#;

/// System-level differential: a cached `compile_system_with` is
/// byte-identical to the plain `compile_system_from_ir` path, both on
/// the cold compile and on a warm recompile (which must hit).
#[test]
fn cached_system_compile_matches_full() {
    let chart = chart();
    let env = chart_env(&chart);
    let ir = pscp_action_lang::compile_with_env(SYSTEM_SRC, &env).unwrap();
    let opts = CodegenOptions::default();

    for arch in [
        PscpArch::minimal(),
        PscpArch::md16_unoptimized(),
        PscpArch::md16_optimized(),
        PscpArch::dual_md16(true),
    ] {
        let artifacts = SystemArtifacts::build(&chart, arch.encoding);
        let cache = CodegenCache::with_enabled(true);
        let cold = compile_system_with(&artifacts, &ir, &arch, &opts, Some(&cache)).unwrap();
        let full = compile_system_from_ir(&chart, &ir, &arch, &opts).unwrap();
        assert_eq!(
            cold,
            full,
            "cached system compile diverged (cold) for {}",
            arch.label
        );

        let warm = compile_system_with(&artifacts, &ir, &arch, &opts, Some(&cache)).unwrap();
        assert!(
            Arc::ptr_eq(&cold.chart, &warm.chart)
                && Arc::ptr_eq(&cold.layout, &warm.layout)
                && Arc::ptr_eq(&cold.sla, &warm.sla)
                && Arc::ptr_eq(&cold.selection, &warm.selection),
            "systems from one set of artifacts must share its chart, layout, SLA and tables"
        );
        assert_eq!(
            warm,
            full,
            "cached system compile diverged (warm) for {}",
            arch.label
        );
        let stats = cache.stats();
        assert!(stats.hits > 0, "warm recompile never hit: {stats:?}");
    }
}

/// The DSE shape end-to-end: flip one TEP knob per candidate against a
/// shared cache and check every candidate system against the oracle.
#[test]
fn dse_candidate_sweep_matches_oracle() {
    let chart = chart();
    let env = chart_env(&chart);
    let ir = pscp_action_lang::compile_with_env(SYSTEM_SRC, &env).unwrap();
    let opts = CodegenOptions::default();
    let base = PscpArch::md16_unoptimized();
    let artifacts = SystemArtifacts::build(&chart, base.encoding);
    let cache = CodegenCache::with_enabled(true);

    let mut candidates = vec![base.clone()];
    for f in [
        |a: &mut PscpArch| a.tep.calc.muldiv = !a.tep.calc.muldiv,
        |a: &mut PscpArch| a.tep.calc.comparator = !a.tep.calc.comparator,
        |a: &mut PscpArch| a.tep.optimize_code = !a.tep.optimize_code,
        |a: &mut PscpArch| a.tep.pipelined = !a.tep.pipelined,
    ] {
        let mut c = base.clone();
        f(&mut c);
        candidates.push(c);
    }

    for cand in &candidates {
        let cached = compile_system_with(&artifacts, &ir, cand, &opts, Some(&cache)).unwrap();
        let oracle = compile_system_from_ir(&chart, &ir, cand, &opts).unwrap();
        assert_eq!(cached, oracle, "candidate {} diverged", cand.label);
    }
    let stats = cache.stats();
    assert!(stats.hits > 0, "sweep shared no routines: {stats:?}");
}
