//! Property-based differential tests: randomly generated action-language
//! programs must behave identically on the IR interpreter and on the
//! cycle-accurate TEP machine, across every architecture variant — and
//! the static WCET must upper-bound the measured cycles for loop-free
//! programs.

use proptest::prelude::*;
use pscp_action_lang::interp::{Interp, RecordingHost};
use pscp_action_lang::ProgramEnv;
use pscp_tep::codegen::{compile_program, CodegenOptions};
use pscp_tep::machine::TepMachine;
use pscp_tep::{TepArch, WcetAnalysis};

/// Random expression over two parameters and small constants.
#[derive(Debug, Clone)]
enum E {
    A,
    B,
    K(i8),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Div(Box<E>, Box<E>),
    And(Box<E>, Box<E>),
    Or(Box<E>, Box<E>),
    Xor(Box<E>, Box<E>),
    Shl(Box<E>),
    Shr(Box<E>),
    Neg(Box<E>),
    Lt(Box<E>, Box<E>),
    Eq(Box<E>, Box<E>),
}

impl E {
    fn to_src(&self) -> String {
        match self {
            E::A => "a".into(),
            E::B => "b".into(),
            E::K(k) => format!("({k})"),
            E::Add(x, y) => format!("({} + {})", x.to_src(), y.to_src()),
            E::Sub(x, y) => format!("({} - {})", x.to_src(), y.to_src()),
            E::Mul(x, y) => format!("({} * {})", x.to_src(), y.to_src()),
            // Divisor shaped to be non-zero: |y| + 1.
            E::Div(x, y) => format!(
                "({} / (({}) * (({}) < 0) * (-2) + ({}) + 1))",
                x.to_src(),
                y.to_src(),
                y.to_src(),
                y.to_src()
            ),
            E::And(x, y) => format!("({} & {})", x.to_src(), y.to_src()),
            E::Or(x, y) => format!("({} | {})", x.to_src(), y.to_src()),
            E::Xor(x, y) => format!("({} ^ {})", x.to_src(), y.to_src()),
            E::Shl(x) => format!("({} << 2)", x.to_src()),
            E::Shr(x) => format!("({} >> 1)", x.to_src()),
            E::Neg(x) => format!("(-({}))", x.to_src()),
            E::Lt(x, y) => format!("(({}) < ({}))", x.to_src(), y.to_src()),
            E::Eq(x, y) => format!("(({}) == ({}))", x.to_src(), y.to_src()),
        }
    }
}

fn expr() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![Just(E::A), Just(E::B), any::<i8>().prop_map(E::K)];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Add(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Sub(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Mul(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Div(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::And(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Or(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Xor(Box::new(x), Box::new(y))),
            inner.clone().prop_map(|x| E::Shl(Box::new(x))),
            inner.clone().prop_map(|x| E::Shr(Box::new(x))),
            inner.clone().prop_map(|x| E::Neg(Box::new(x))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Lt(Box::new(x), Box::new(y))),
            (inner.clone(), inner).prop_map(|(x, y)| E::Eq(Box::new(x), Box::new(y))),
        ]
    })
}

fn archs() -> Vec<TepArch> {
    vec![TepArch::minimal(), TepArch::md16_unoptimized(), TepArch::md16_optimized()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn machine_matches_interpreter(e in expr(), a in -100i64..100, b in -100i64..100) {
        let src = format!("int:16 f(int:16 a, int:16 b) {{ return {}; }}", e.to_src());
        let ir = match pscp_action_lang::compile_with_env(&src, &ProgramEnv::default()) {
            Ok(ir) => ir,
            Err(err) => return Err(TestCaseError::fail(format!("compile: {err}\n{src}"))),
        };
        let mut interp = Interp::new(&ir);
        let mut h = RecordingHost::new();
        let expected = match interp.call("f", &[a, b], &mut h) {
            Ok(v) => v,
            // Division by zero can still sneak through the shaping when
            // the divisor expression wraps; skip those cases.
            Err(_) => return Ok(()),
        };
        for arch in archs() {
            let p = compile_program(&ir, &arch, &CodegenOptions::default());
            let mut m = TepMachine::new(&p);
            let mut hm = RecordingHost::new();
            let got = m.call("f", &[a, b], &mut hm);
            match got {
                Ok(v) => prop_assert_eq!(
                    Some(v), expected,
                    "arch w={} muldiv={} opt={}\nsrc: {}",
                    arch.calc.width, arch.calc.muldiv, arch.optimize_code, &src
                ),
                Err(err) => return Err(TestCaseError::fail(format!("machine: {err}\n{src}"))),
            }
        }
    }

    #[test]
    fn wcet_bounds_measured_cycles(e in expr(), a in -50i64..50, b in -50i64..50) {
        let src = format!("int:16 f(int:16 a, int:16 b) {{ return {}; }}", e.to_src());
        let Ok(ir) = pscp_action_lang::compile_with_env(
            &src,
            &ProgramEnv::default(),
        ) else { return Ok(()) };
        for arch in archs() {
            let p = compile_program(&ir, &arch, &CodegenOptions::default());
            let report = WcetAnalysis::new(&arch).analyze(&p);
            let bound = report.of("f").unwrap();
            let mut m = TepMachine::new(&p);
            let mut h = RecordingHost::new();
            if m.call("f", &[a, b], &mut h).is_ok() {
                prop_assert!(
                    m.cycles() <= bound,
                    "measured {} > WCET {} on w={} muldiv={}\nsrc: {}",
                    m.cycles(), bound, arch.calc.width, arch.calc.muldiv, &src
                );
            }
        }
    }

    #[test]
    fn globals_and_conditions_differential(
        vals in proptest::collection::vec(-100i64..100, 1..6),
    ) {
        let src = r#"
            condition OVER;
            int:16 acc;
            int:16 peak;
            void feed(int:16 v) {
                acc = acc + v;
                if (acc > peak) { peak = acc; }
                if (acc < -50) { acc = 0; }
                OVER = peak > 75;
            }
        "#;
        let ir = pscp_action_lang::compile_with_env(src, &ProgramEnv::default()).unwrap();
        let mut interp = Interp::new(&ir);
        let mut hi = RecordingHost::new();
        for &v in &vals {
            interp.call("feed", &[v], &mut hi).unwrap();
        }
        for arch in archs() {
            let p = compile_program(&ir, &arch, &CodegenOptions::default());
            let mut m = TepMachine::new(&p);
            let mut hm = RecordingHost::new();
            for &v in &vals {
                m.call("feed", &[v], &mut hm).unwrap();
            }
            prop_assert_eq!(m.global_by_name("acc"), interp.global("acc"));
            prop_assert_eq!(m.global_by_name("peak"), interp.global("peak"));
            prop_assert_eq!(&hm.cond_writes, &hi.cond_writes);
        }
    }
}
