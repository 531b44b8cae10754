//! Tokeniser for the textual statechart format.

use crate::error::ParseError;
use std::fmt;

/// A token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What kind of token.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub column: u32,
}

/// Token kinds of the textual format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident(String),
    /// Decimal (`1500`) or hexadecimal (`0x1CF`) number.
    Number(u64),
    /// Double-quoted string (transition labels).
    Str(String),
    /// Single punctuation character: `{ } ; ,`.
    Punct(char),
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::Number(n) => write!(f, "number {n}"),
            TokenKind::Str(s) => write!(f, "string \"{s}\""),
            TokenKind::Punct(c) => write!(f, "`{c}`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// Streaming tokeniser behind [`crate::parse::parse_chart_pages`].
#[derive(Debug)]
pub struct Lexer<'s> {
    src: &'s str,
    bytes: &'s [u8],
    pos: usize,
    line: u32,
    column: u32,
}

impl<'s> Lexer<'s> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'s str) -> Self {
        Lexer { src, bytes: src.as_bytes(), pos: 0, line: 1, column: 1 }
    }

    /// Tokenises the whole input, recovering from lexical errors: every
    /// problem is appended to `errs` and the scan keeps going (bad
    /// characters are skipped, overlong numbers become `0`, an
    /// unterminated string yields its partial text), so the parser
    /// always gets a complete, EOF-terminated token stream.
    pub(crate) fn tokenize_diag(mut self, errs: &mut Vec<ParseError>) -> Vec<Token> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia();
            let (line, column) = (self.line, self.column);
            let Some(&b) = self.bytes.get(self.pos) else {
                out.push(Token { kind: TokenKind::Eof, line, column });
                return out;
            };
            let kind = match b {
                b'{' | b'}' | b';' | b',' => {
                    self.advance();
                    TokenKind::Punct(b as char)
                }
                b'"' => self.string(line, column, errs),
                b'0'..=b'9' => self.number(line, column, errs),
                c if c.is_ascii_alphabetic() || c == b'_' || c == b'@' => self.ident(),
                c => {
                    errs.push(ParseError::new(
                        line,
                        column,
                        format!("unexpected character `{}`", c as char),
                    ));
                    // Skip the byte (the whole run for a multi-byte
                    // character) and resume scanning.
                    self.advance();
                    while self.bytes.get(self.pos).is_some_and(|b| !b.is_ascii()) {
                        self.advance();
                    }
                    continue;
                }
            };
            out.push(Token { kind, line, column });
        }
    }

    fn advance(&mut self) {
        if self.bytes[self.pos] == b'\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        self.pos += 1;
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.bytes.get(self.pos) {
                Some(b) if b.is_ascii_whitespace() => self.advance(),
                Some(b'/') if self.bytes.get(self.pos + 1) == Some(&b'/') => {
                    while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                        self.advance();
                    }
                }
                Some(b'/') if self.bytes.get(self.pos + 1) == Some(&b'*') => {
                    self.advance();
                    self.advance();
                    while self.pos + 1 < self.bytes.len()
                        && !(self.bytes[self.pos] == b'*' && self.bytes[self.pos + 1] == b'/')
                    {
                        self.advance();
                    }
                    if self.pos + 1 < self.bytes.len() {
                        self.advance();
                        self.advance();
                    }
                }
                _ => break,
            }
        }
    }

    fn ident(&mut self) -> TokenKind {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'@' {
                self.advance();
            } else {
                break;
            }
        }
        TokenKind::Ident(self.src[start..self.pos].to_string())
    }

    fn number(&mut self, line: u32, column: u32, errs: &mut Vec<ParseError>) -> TokenKind {
        let start = self.pos;
        let hex = self.bytes[self.pos] == b'0'
            && matches!(self.bytes.get(self.pos + 1), Some(b'x') | Some(b'X'));
        if hex {
            self.advance();
            self.advance();
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_hexdigit() && (hex || b.is_ascii_digit()) {
                self.advance();
            } else {
                break;
            }
        }
        let text = &self.src[start..self.pos];
        let value = if hex {
            u64::from_str_radix(&text[2..], 16)
        } else {
            text.parse::<u64>()
        };
        TokenKind::Number(value.unwrap_or_else(|_| {
            errs.push(ParseError::new(line, column, format!("invalid number `{text}`")));
            0
        }))
    }

    fn string(&mut self, line: u32, column: u32, errs: &mut Vec<ParseError>) -> TokenKind {
        self.advance(); // opening quote
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' {
                let s = self.src[start..self.pos].to_string();
                self.advance(); // closing quote
                return TokenKind::Str(s);
            }
            self.advance();
        }
        errs.push(ParseError::new(line, column, "unterminated string literal"));
        TokenKind::Str(self.src[start..].to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tokenises `src`, failing with the first lexical error.
    fn tokenize(src: &str) -> Result<Vec<Token>, ParseError> {
        let mut errs = Vec::new();
        let toks = Lexer::new(src).tokenize_diag(&mut errs);
        match errs.into_iter().next() {
            Some(e) => Err(e),
            None => Ok(toks),
        }
    }

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        let k = kinds("orstate A { contains B, C; }");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("orstate".into()),
                TokenKind::Ident("A".into()),
                TokenKind::Punct('{'),
                TokenKind::Ident("contains".into()),
                TokenKind::Ident("B".into()),
                TokenKind::Punct(','),
                TokenKind::Ident("C".into()),
                TokenKind::Punct(';'),
                TokenKind::Punct('}'),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn numbers_dec_and_hex() {
        assert_eq!(kinds("1500")[0], TokenKind::Number(1500));
        assert_eq!(kinds("0x1CF")[0], TokenKind::Number(0x1CF));
        assert_eq!(kinds("0X0a")[0], TokenKind::Number(10));
    }

    #[test]
    fn strings_and_positions() {
        let toks = tokenize("a\n  \"hello/world()\"").unwrap();
        assert_eq!(toks[1].kind, TokenKind::Str("hello/world()".into()));
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[1].column, 3);
    }

    #[test]
    fn comments_skipped() {
        let k = kinds("A // line comment\n/* block\ncomment */ B");
        assert_eq!(
            k,
            vec![TokenKind::Ident("A".into()), TokenKind::Ident("B".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        let e = tokenize("\"oops").unwrap_err();
        assert!(e.message.contains("unterminated"));
    }

    #[test]
    fn bad_character_errors() {
        let e = tokenize("a $ b").unwrap_err();
        assert!(e.message.contains('$'));
        assert_eq!(e.column, 3);
    }
}
