//! A minimal, dependency-free JSON writer and reader.
//!
//! The observability exporters (metrics snapshots, Chrome traces) and
//! the `obs_report` pretty-printer carry their own tiny JSON layer:
//! [`JsonWriter`] emits with correct escaping and comma placement,
//! [`parse`] reads any well-formed document nested at most
//! [`MAX_DEPTH`] deep into a [`JsonValue`] tree.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Scope {
    Object,
    Array,
}

/// An incremental JSON emitter handling commas and escaping; scopes
/// are explicit (`begin_object` / `end_object`, `begin_array` /
/// `end_array`) and keys are separate from values.
#[derive(Default)]
pub struct JsonWriter {
    buf: String,
    stack: Vec<(Scope, bool /* has at least one element */)>,
    pending_key: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn before_value(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return;
        }
        if let Some((_, has_elem)) = self.stack.last_mut() {
            if *has_elem {
                self.buf.push(',');
            }
            *has_elem = true;
        }
    }

    /// Emits an object key; the next call must emit its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        if let Some((Scope::Object, has_elem)) = self.stack.last_mut() {
            if *has_elem {
                self.buf.push(',');
            }
            *has_elem = true;
        }
        escape_into(&mut self.buf, k);
        self.buf.push(':');
        self.pending_key = true;
        self
    }

    /// Opens `{`.
    pub fn begin_object(&mut self) -> &mut Self {
        self.before_value();
        self.buf.push('{');
        self.stack.push((Scope::Object, false));
        self
    }

    /// Closes `}`.
    pub fn end_object(&mut self) -> &mut Self {
        // The pop must happen outside the assertion — release builds
        // compile `debug_assert!` bodies out entirely.
        let closed = self.stack.pop();
        debug_assert_eq!(closed.map(|(s, _)| s), Some(Scope::Object));
        self.buf.push('}');
        self
    }

    /// Opens `[`.
    pub fn begin_array(&mut self) -> &mut Self {
        self.before_value();
        self.buf.push('[');
        self.stack.push((Scope::Array, false));
        self
    }

    /// Closes `]`.
    pub fn end_array(&mut self) -> &mut Self {
        let closed = self.stack.pop();
        debug_assert_eq!(closed.map(|(s, _)| s), Some(Scope::Array));
        self.buf.push(']');
        self
    }

    /// Emits a string value.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.before_value();
        escape_into(&mut self.buf, s);
        self
    }

    /// Emits an unsigned integer value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.before_value();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Emits a float value (`null` when not finite).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.before_value();
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Emits a boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.before_value();
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Emits pre-rendered JSON verbatim as one value.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.before_value();
        self.buf.push_str(json);
        self
    }

    /// The rendered document.
    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "unclosed JSON scope");
        self.buf
    }
}

/// A parsed JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<JsonValue>),
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements when this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The text when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, when numeric.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|n| n as u64)
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so the bound keeps hostile input from overflowing
/// the stack.
pub const MAX_DEPTH: usize = 256;

/// Parses a JSON document. Returns a message with a byte offset on
/// malformed input or on nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos))
            }
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogate pairs are not needed for our own
                            // output; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8".to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_emits_nested_document() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("name").string("a \"b\"\n");
        w.key("n").u64(7);
        w.key("xs").begin_array().u64(1).u64(2).end_array();
        w.key("sub").begin_object().key("ok").bool(true).end_object();
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"name":"a \"b\"\n","n":7,"xs":[1,2],"sub":{"ok":true}}"#
        );
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("s").string("tab\there");
        w.key("arr").begin_array().f64(1.5).bool(false).end_array();
        w.end_object();
        let doc = parse(&w.finish()).unwrap();
        assert_eq!(doc.get("s").and_then(JsonValue::as_str), Some("tab\there"));
        assert_eq!(doc.get("arr").and_then(JsonValue::as_array).map(<[_]>::len), Some(2));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(err, format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}"));
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let too_deep = MAX_DEPTH + 1;
        let objects = format!("{}1{}", "{\"a\":".repeat(too_deep), "}".repeat(too_deep));
        assert!(parse(&objects).is_err());
    }
}
