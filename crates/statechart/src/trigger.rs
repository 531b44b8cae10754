//! Boolean trigger/guard expressions on transition labels.
//!
//! The figures of the paper use labels such as `INIT or ALLRESET`,
//! `not (X_PULSE or Y_PULSE)` and guards like
//! `[XFINISH and YFINISH and PHIFINISH]`. Atoms are event or condition
//! names; the resolution against a concrete [`crate::Chart`] happens in
//! [`crate::validate`] and in the evaluation helpers here.

use std::collections::BTreeSet;
use std::fmt;

/// A boolean expression over named atoms (events or conditions).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// An event or condition name.
    Atom(String),
    /// Logical negation.
    Not(Box<Expr>),
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constructor for an atom.
    pub fn atom(name: impl Into<String>) -> Self {
        Expr::Atom(name.into())
    }

    /// `not e`
    #[allow(clippy::should_implement_trait)]
    pub fn not(e: Expr) -> Self {
        Expr::Not(Box::new(e))
    }

    /// `a and b`
    pub fn and(a: Expr, b: Expr) -> Self {
        Expr::And(Box::new(a), Box::new(b))
    }

    /// `a or b`
    pub fn or(a: Expr, b: Expr) -> Self {
        Expr::Or(Box::new(a), Box::new(b))
    }

    /// Conjunction of all expressions in the iterator; `None` when empty.
    pub fn all<I: IntoIterator<Item = Expr>>(items: I) -> Option<Expr> {
        items.into_iter().reduce(Expr::and)
    }

    /// Disjunction of all expressions in the iterator; `None` when empty.
    pub fn any<I: IntoIterator<Item = Expr>>(items: I) -> Option<Expr> {
        items.into_iter().reduce(Expr::or)
    }

    /// Evaluates the expression with `truth(atom)` supplying atom values.
    pub fn eval<F: Fn(&str) -> bool + Copy>(&self, truth: F) -> bool {
        match self {
            Expr::Atom(a) => truth(a),
            Expr::Not(e) => !e.eval(truth),
            Expr::And(a, b) => a.eval(truth) && b.eval(truth),
            Expr::Or(a, b) => a.eval(truth) || b.eval(truth),
        }
    }

    /// Collects the set of atom names used in the expression.
    pub fn atoms(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        self.collect_atoms(&mut out);
        out
    }

    fn collect_atoms<'a>(&'a self, out: &mut BTreeSet<&'a str>) {
        match self {
            Expr::Atom(a) => {
                out.insert(a.as_str());
            }
            Expr::Not(e) => e.collect_atoms(out),
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_atoms(out);
                b.collect_atoms(out);
            }
        }
    }

    /// True if any *positive* (non-negated) occurrence of `name` exists.
    ///
    /// The timing validator uses this to find states whose outgoing
    /// transitions *consume* a given event: a transition triggered by
    /// `not X` does not consume `X`.
    pub fn mentions_positively(&self, name: &str) -> bool {
        self.polarity_mentions(name, true)
    }

    fn polarity_mentions(&self, name: &str, positive: bool) -> bool {
        match self {
            Expr::Atom(a) => positive && a == name,
            Expr::Not(e) => e.polarity_mentions(name, !positive),
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.polarity_mentions(name, positive) || b.polarity_mentions(name, positive)
            }
        }
    }

    /// Rewrites the expression to negation normal form (negations pushed
    /// onto atoms). Used by the SLA synthesiser before building product
    /// terms.
    pub fn to_nnf(&self) -> Nnf {
        fn go(e: &Expr, neg: bool) -> Nnf {
            match e {
                Expr::Atom(a) => Nnf::Literal { name: a.clone(), negated: neg },
                Expr::Not(inner) => go(inner, !neg),
                Expr::And(a, b) if !neg => Nnf::And(Box::new(go(a, false)), Box::new(go(b, false))),
                Expr::And(a, b) => Nnf::Or(Box::new(go(a, true)), Box::new(go(b, true))),
                Expr::Or(a, b) if !neg => Nnf::Or(Box::new(go(a, false)), Box::new(go(b, false))),
                Expr::Or(a, b) => Nnf::And(Box::new(go(a, true)), Box::new(go(b, true))),
            }
        }
        go(self, false)
    }

    /// Expands the expression into sum-of-products form: a list of product
    /// terms, each a list of `(atom, negated)` literals. The SLA is a
    /// two-level logic array, so every trigger/guard must be flattened to
    /// this form before synthesis.
    pub fn to_sop(&self) -> Vec<Vec<(String, bool)>> {
        self.to_nnf().to_sop()
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Atom(a) => write!(f, "{a}"),
            Expr::Not(e) => match **e {
                Expr::Atom(_) => write!(f, "not {e}"),
                _ => write!(f, "not ({e})"),
            },
            Expr::And(a, b) => {
                fmt_operand(a, f, true)?;
                write!(f, " and ")?;
                fmt_operand(b, f, true)
            }
            Expr::Or(a, b) => {
                fmt_operand(a, f, false)?;
                write!(f, " or ")?;
                fmt_operand(b, f, false)
            }
        }
    }
}

fn fmt_operand(e: &Expr, f: &mut fmt::Formatter<'_>, in_and: bool) -> fmt::Result {
    let needs_parens = matches!(e, Expr::Or(..)) && in_and;
    if needs_parens {
        write!(f, "({e})")
    } else {
        write!(f, "{e}")
    }
}

/// Negation normal form of an [`Expr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Nnf {
    /// A possibly-negated atom.
    Literal {
        /// Atom name.
        name: String,
        /// True when the literal is `not name`.
        negated: bool,
    },
    /// Conjunction.
    And(Box<Nnf>, Box<Nnf>),
    /// Disjunction.
    Or(Box<Nnf>, Box<Nnf>),
}

impl Nnf {
    /// Flattens into sum-of-products (distributes AND over OR).
    pub fn to_sop(&self) -> Vec<Vec<(String, bool)>> {
        match self {
            Nnf::Literal { name, negated } => vec![vec![(name.clone(), *negated)]],
            Nnf::Or(a, b) => {
                let mut out = a.to_sop();
                out.extend(b.to_sop());
                out
            }
            Nnf::And(a, b) => {
                let left = a.to_sop();
                let right = b.to_sop();
                let mut out = Vec::with_capacity(left.len() * right.len());
                for l in &left {
                    for r in &right {
                        let mut term = l.clone();
                        term.extend(r.iter().cloned());
                        out.push(term);
                    }
                }
                out
            }
        }
    }
}

/// Parses a trigger/guard expression.
///
/// Grammar (lowest to highest precedence):
///
/// ```text
/// expr   := term ("or" term)*
/// term   := factor ("and" factor)*
/// factor := "not" factor | "(" expr ")" | IDENT
/// ```
///
/// # Errors
///
/// Returns a message describing the first syntax error.
pub fn parse_expr(input: &str) -> Result<Expr, String> {
    let tokens = tokenize(input)?;
    let mut p = ExprParser { tokens: &tokens, pos: 0 };
    let e = p.expr()?;
    if p.pos != tokens.len() {
        return Err(format!("unexpected trailing input `{}`", p.peek_text()));
    }
    Ok(e)
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Not,
    And,
    Or,
    LParen,
    RParen,
}

fn tokenize(input: &str) -> Result<Vec<Tok>, String> {
    let mut out = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '(' {
            chars.next();
            out.push(Tok::LParen);
        } else if c == ')' {
            chars.next();
            out.push(Tok::RParen);
        } else if c.is_alphanumeric() || c == '_' || c == '@' {
            let mut word = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_alphanumeric() || c == '_' || c == '@' {
                    word.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            out.push(match word.to_ascii_lowercase().as_str() {
                "not" => Tok::Not,
                "and" => Tok::And,
                "or" => Tok::Or,
                _ => Tok::Ident(word),
            });
        } else {
            return Err(format!("unexpected character `{c}` in expression"));
        }
    }
    Ok(out)
}

struct ExprParser<'a> {
    tokens: &'a [Tok],
    pos: usize,
}

impl ExprParser<'_> {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    fn peek_text(&self) -> String {
        match self.peek() {
            Some(Tok::Ident(s)) => s.clone(),
            Some(t) => format!("{t:?}"),
            None => "<eof>".into(),
        }
    }

    fn expr(&mut self) -> Result<Expr, String> {
        let mut lhs = self.term()?;
        while self.peek() == Some(&Tok::Or) {
            self.pos += 1;
            let rhs = self.term()?;
            lhs = Expr::or(lhs, rhs);
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Expr, String> {
        let mut lhs = self.factor()?;
        while self.peek() == Some(&Tok::And) {
            self.pos += 1;
            let rhs = self.factor()?;
            lhs = Expr::and(lhs, rhs);
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<Expr, String> {
        match self.peek() {
            Some(Tok::Not) => {
                self.pos += 1;
                Ok(Expr::not(self.factor()?))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let e = self.expr()?;
                if self.peek() != Some(&Tok::RParen) {
                    return Err("expected `)`".into());
                }
                self.pos += 1;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                let e = Expr::atom(name.clone());
                self.pos += 1;
                Ok(e)
            }
            other => Err(format!("expected expression, found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_labels() {
        let e = parse_expr("INIT or ALLRESET").unwrap();
        assert_eq!(e, Expr::or(Expr::atom("INIT"), Expr::atom("ALLRESET")));

        let e = parse_expr("not (X_PULSE or Y_PULSE)").unwrap();
        assert!(e.eval(|a| a == "NEITHER"));
        assert!(!e.eval(|a| a == "X_PULSE"));

        let e = parse_expr("XFINISH and YFINISH and PHIFINISH").unwrap();
        assert!(e.eval(|_| true));
        assert!(!e.eval(|a| a != "YFINISH"));
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        let e = parse_expr("A or B and C").unwrap();
        assert_eq!(e, Expr::or(Expr::atom("A"), Expr::and(Expr::atom("B"), Expr::atom("C"))));
    }

    #[test]
    fn display_round_trips() {
        for src in ["A or B", "not (A or B)", "A and (B or C)", "not A and B"] {
            let e = parse_expr(src).unwrap();
            let printed = e.to_string();
            let reparsed = parse_expr(&printed).unwrap();
            assert_eq!(e, reparsed, "round trip failed for `{src}` -> `{printed}`");
        }
    }

    #[test]
    fn sop_of_negated_disjunction() {
        let e = parse_expr("not (A or B)").unwrap();
        let sop = e.to_sop();
        assert_eq!(sop, vec![vec![("A".to_string(), true), ("B".to_string(), true)]]);
    }

    #[test]
    fn sop_distributes() {
        let e = parse_expr("A and (B or C)").unwrap();
        let sop = e.to_sop();
        assert_eq!(sop.len(), 2);
        assert!(sop.contains(&vec![("A".to_string(), false), ("B".to_string(), false)]));
        assert!(sop.contains(&vec![("A".to_string(), false), ("C".to_string(), false)]));
    }

    #[test]
    fn positive_mentions_respect_polarity() {
        let e = parse_expr("not (X or Y) and Z").unwrap();
        assert!(!e.mentions_positively("X"));
        assert!(e.mentions_positively("Z"));
        let e = parse_expr("not not X").unwrap();
        assert!(e.mentions_positively("X"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_expr("A or").is_err());
        assert!(parse_expr("(A").is_err());
        assert!(parse_expr("A ! B").is_err());
        assert!(parse_expr("A B").is_err());
    }

    #[test]
    fn atoms_collects_all_names() {
        let e = parse_expr("A and not (B or C)").unwrap();
        let atoms: Vec<&str> = e.atoms().into_iter().collect();
        assert_eq!(atoms, vec!["A", "B", "C"]);
    }
}
