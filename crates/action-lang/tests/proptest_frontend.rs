//! Property-based front-end robustness: the lexer and parser must never
//! panic on arbitrary input, compilation must be deterministic, and the
//! scalar wrapping semantics must hold their algebraic properties.

use proptest::prelude::*;
use pscp_action_lang::types::Scalar;
use pscp_action_lang::{compile_diag, ProgramEnv};
use pscp_diag::DiagnosticSink;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lexer_never_panics(src in ".{0,200}") {
        let mut sink = DiagnosticSink::new();
        let _ = compile_diag(&src, &ProgramEnv::default(), &mut sink);
    }

    #[test]
    fn parser_never_panics(src in "[ -~\n]{0,200}") {
        // Printable ASCII lexes cleanly far more often, so the parser
        // sees real token streams.
        let mut sink = DiagnosticSink::new();
        let _ = compile_diag(&src, &ProgramEnv::default(), &mut sink);
    }

    #[test]
    fn parser_never_panics_on_c_like_soup(
        toks in proptest::collection::vec(
            prop_oneof![
                Just("int:16".to_string()),
                Just("uint:8".to_string()),
                Just("void".to_string()),
                Just("f".to_string()),
                Just("x".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just("{".to_string()),
                Just("}".to_string()),
                Just(";".to_string()),
                Just("=".to_string()),
                Just("+".to_string()),
                Just("if".to_string()),
                Just("while".to_string()),
                Just("return".to_string()),
                Just("raise".to_string()),
                Just("42".to_string()),
                Just("B:1010".to_string()),
            ],
            0..40,
        )
    ) {
        let src = toks.join(" ");
        let _ = pscp_action_lang::compile_with_env(&src, &ProgramEnv::default());
    }

    #[test]
    fn compilation_is_deterministic(a in -100i64..100) {
        let src = format!(
            "int:16 g = {a};\nint:16 f(int:16 x) {{ return g * x + {a}; }}"
        );
        let p1 = pscp_action_lang::compile_with_env(&src, &ProgramEnv::default()).unwrap();
        let p2 = pscp_action_lang::compile_with_env(&src, &ProgramEnv::default()).unwrap();
        prop_assert_eq!(p1, p2);
    }

    #[test]
    fn wrap_is_involutive_and_in_range(v in any::<i64>(), w in 1u8..=32, signed in any::<bool>()) {
        let t = Scalar { width: w, signed };
        let once = t.wrap(v);
        prop_assert_eq!(t.wrap(once), once, "wrap must be idempotent");
        if signed {
            let lo = -(1i64 << (w - 1));
            let hi = (1i64 << (w - 1)) - 1;
            prop_assert!(once >= lo && once <= hi);
        } else {
            prop_assert!(once >= 0 && (once as u64) <= t.mask());
        }
    }

    #[test]
    fn join_is_commutative_and_absorbing(
        w1 in 1u8..=32, s1 in any::<bool>(),
        w2 in 1u8..=32, s2 in any::<bool>(),
    ) {
        let a = Scalar { width: w1, signed: s1 };
        let b = Scalar { width: w2, signed: s2 };
        prop_assert_eq!(a.join(b), b.join(a));
        prop_assert_eq!(a.join(a), a);
        let j = a.join(b);
        prop_assert!(j.width >= a.width && j.width >= b.width);
        prop_assert_eq!(j.signed, a.signed || b.signed);
    }

    #[test]
    fn fitting_round_trips(v in -(1i64 << 31)..(1i64 << 31)) {
        let t = Scalar::fitting(v);
        prop_assert_eq!(t.wrap(v), v, "fitting({}) -> {} must represent v exactly", v, t);
    }
}
