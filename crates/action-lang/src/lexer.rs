//! Tokeniser for the extended-C action language.
//!
//! Deviations from plain C, per §2 of the paper:
//!
//! * `int:16` — the colon-width suffix is lexed as separate tokens and
//!   assembled by the parser;
//! * `B:001011` — binary constants with explicit width (the number of
//!   digits), lexed as a single [`Tok::BinLit`];
//! * `0700` — leading-zero literals are octal, exactly as in C (Fig. 2b
//!   uses octal port addresses).

use crate::diag::Emitter;
use crate::error::{CompileError, Span};
use std::fmt;

/// Token kinds of the action language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal with an optional intrinsic width.
    Int {
        /// The literal value.
        value: i64,
        /// Width in bits when the literal pins one (`B:` literals).
        width: Option<u8>,
    },
    /// Binary literal `B:001011` (value plus digit-count width).
    BinLit {
        /// The literal value.
        value: i64,
        /// Width = number of binary digits.
        width: u8,
    },
    /// Punctuation and operators, one or two characters.
    Sym(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int { value, .. } => write!(f, "integer {value}"),
            Tok::BinLit { value, width } => write!(f, "B-literal {value} ({width} bits)"),
            Tok::Sym(s) => write!(f, "`{s}`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token plus its position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpannedTok {
    /// The token.
    pub tok: Tok,
    /// Its position.
    pub span: Span,
}

const TWO_CHAR_SYMS: &[&str] = &[
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
    "^=", "++", "--",
];

const ONE_CHAR_SYMS: &[char] = &[
    '+', '-', '*', '/', '%', '&', '|', '^', '~', '!', '<', '>', '=', '(', ')', '{', '}', '[',
    ']', ';', ',', ':', '.', '@',
];

/// Tokenises `src`, recovering from lexical errors: every problem is
/// reported through `em` and the scan keeps going (bad characters are
/// skipped, malformed literals become `0`), so the parser always gets a
/// complete, EOF-terminated token stream.
pub(crate) fn tokenize_into(src: &str, em: &mut Emitter) -> Vec<SpannedTok> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut pos = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! advance {
        () => {{
            if bytes[pos] == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            pos += 1;
        }};
    }
    // The span of everything consumed since `start`, with byte offsets.
    macro_rules! span_from {
        ($start:expr) => {{
            let (sl, sc, sp) = $start;
            Span::range((sl, sc, sp as u32), (line, col, pos as u32))
        }};
    }

    while pos < bytes.len() {
        let b = bytes[pos];
        let start = (line, col, pos);
        let span = Span::range((line, col, pos as u32), (line, col + 1, pos as u32 + 1));

        // The language is ASCII; reject multi-byte characters up front
        // (also keeps all later byte-indexed slicing on char boundaries).
        if !b.is_ascii() {
            em.emit(CompileError::lex(span, "non-ASCII character in source"));
            // Skip the whole byte run so one multi-byte character does
            // not fan out into one diagnostic per byte.
            while pos < bytes.len() && !bytes[pos].is_ascii() {
                pos += 1;
                col += 1;
            }
            continue;
        }
        if b.is_ascii_whitespace() {
            advance!();
            continue;
        }
        // Comments.
        if b == b'/' && bytes.get(pos + 1) == Some(&b'/') {
            while pos < bytes.len() && bytes[pos] != b'\n' {
                advance!();
            }
            continue;
        }
        if b == b'/' && bytes.get(pos + 1) == Some(&b'*') {
            advance!();
            advance!();
            while pos + 1 < bytes.len() && !(bytes[pos] == b'*' && bytes[pos + 1] == b'/') {
                advance!();
            }
            if pos + 1 >= bytes.len() {
                em.emit(CompileError::lex(span, "unterminated block comment"));
                break;
            }
            advance!();
            advance!();
            continue;
        }

        // `B:0101` binary literal (identifier `B` followed by `:` digits).
        if b == b'B' && bytes.get(pos + 1) == Some(&b':') {
            let mut end = pos + 2;
            while end < bytes.len() && (bytes[end] == b'0' || bytes[end] == b'1') {
                end += 1;
            }
            if end > pos + 2 {
                let digits = &src[pos + 2..end];
                while pos < end {
                    advance!();
                }
                let span = span_from!(start);
                let tok = match i64::from_str_radix(digits, 2) {
                    Err(_) => {
                        em.emit(CompileError::lex(span, "binary literal overflows"));
                        Tok::Int { value: 0, width: None }
                    }
                    Ok(_) if digits.len() > 32 => {
                        em.emit(CompileError::lex(span, "binary literal wider than 32 bits"));
                        Tok::Int { value: 0, width: None }
                    }
                    Ok(value) => Tok::BinLit { value, width: digits.len() as u8 },
                };
                out.push(SpannedTok { tok, span });
                continue;
            }
        }

        if b.is_ascii_alphabetic() || b == b'_' {
            let begin = pos;
            while pos < bytes.len()
                && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_')
            {
                advance!();
            }
            out.push(SpannedTok {
                tok: Tok::Ident(src[begin..pos].to_string()),
                span: span_from!(start),
            });
            continue;
        }

        if b.is_ascii_digit() {
            let begin = pos;
            let hex = b == b'0' && matches!(bytes.get(pos + 1), Some(b'x') | Some(b'X'));
            if hex {
                advance!();
                advance!();
            }
            while pos < bytes.len()
                && (bytes[pos].is_ascii_hexdigit() && (hex || bytes[pos].is_ascii_digit()))
            {
                advance!();
            }
            let text = &src[begin..pos];
            let span = span_from!(start);
            let value = if hex {
                i64::from_str_radix(&text[2..], 16)
            } else if text.len() > 1 && text.starts_with('0') {
                // Leading zero means octal, as in C (Fig. 2b: `0700`).
                i64::from_str_radix(&text[1..], 8)
            } else {
                text.parse::<i64>()
            }
            .unwrap_or_else(|_| {
                em.emit(CompileError::lex(span, format!("invalid number `{text}`")));
                0
            });
            out.push(SpannedTok { tok: Tok::Int { value, width: None }, span });
            continue;
        }

        // Two-character symbols first.
        if let Some(two) = src.get(pos..pos + 2) {
            if let Some(&sym) = TWO_CHAR_SYMS.iter().find(|&&s| s == two) {
                advance!();
                advance!();
                out.push(SpannedTok { tok: Tok::Sym(sym), span: span_from!(start) });
                continue;
            }
        }
        if let Some(&c) = ONE_CHAR_SYMS.iter().find(|&&c| c == b as char) {
            advance!();
            // Leak-free static str lookup.
            let sym: &'static str = match c {
                '+' => "+",
                '-' => "-",
                '*' => "*",
                '/' => "/",
                '%' => "%",
                '&' => "&",
                '|' => "|",
                '^' => "^",
                '~' => "~",
                '!' => "!",
                '<' => "<",
                '>' => ">",
                '=' => "=",
                '(' => "(",
                ')' => ")",
                '{' => "{",
                '}' => "}",
                '[' => "[",
                ']' => "]",
                ';' => ";",
                ',' => ",",
                ':' => ":",
                '.' => ".",
                '@' => "@",
                _ => unreachable!(),
            };
            out.push(SpannedTok { tok: Tok::Sym(sym), span: span_from!(start) });
            continue;
        }

        em.emit(CompileError::lex(span, format!("unexpected character `{}`", b as char)));
        advance!();
    }

    let eof = (line, col, pos);
    out.push(SpannedTok { tok: Tok::Eof, span: span_from!(eof) });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tokenises `src`, failing with the first lexical error.
    fn tokenize(src: &str) -> Result<Vec<SpannedTok>, pscp_diag::Diagnostic> {
        let mut sink = pscp_diag::DiagnosticSink::new();
        let toks = tokenize_into(src, &mut Emitter::new(&mut sink));
        sink.into_result(Some(toks))
    }

    fn toks(src: &str) -> Vec<Tok> {
        tokenize(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn b_literals_carry_width() {
        let t = toks("B:001011");
        assert_eq!(t[0], Tok::BinLit { value: 0b001011, width: 6 });
    }

    #[test]
    fn octal_and_hex() {
        assert_eq!(toks("0700")[0], Tok::Int { value: 0o700, width: None });
        assert_eq!(toks("0x1F")[0], Tok::Int { value: 31, width: None });
        assert_eq!(toks("0")[0], Tok::Int { value: 0, width: None });
    }

    #[test]
    fn int_colon_width_is_three_tokens() {
        let t = toks("int:16");
        assert_eq!(
            t[..3],
            [
                Tok::Ident("int".into()),
                Tok::Sym(":"),
                Tok::Int { value: 16, width: None }
            ]
        );
    }

    #[test]
    fn two_char_operators() {
        let t = toks("a <= b && c >> 2");
        assert!(t.contains(&Tok::Sym("<=")));
        assert!(t.contains(&Tok::Sym("&&")));
        assert!(t.contains(&Tok::Sym(">>")));
    }

    #[test]
    fn comments_ignored() {
        let t = toks("a /* x */ b // y\nc");
        assert_eq!(t.len(), 4); // a b c eof
    }

    #[test]
    fn unterminated_comment_errors() {
        let err = tokenize("/* oops").unwrap_err();
        assert_eq!(err.code, "AL101");
        assert_eq!(err.message, "unterminated block comment");
    }

    #[test]
    fn b_ident_still_identifier() {
        // `B` not followed by `:binary-digits` stays an identifier.
        let t = toks("B + Bx");
        assert_eq!(t[0], Tok::Ident("B".into()));
        assert_eq!(t[2], Tok::Ident("Bx".into()));
    }
}
