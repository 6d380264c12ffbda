//! A minimal JSON writer and parser.
//!
//! The build environment vendors no `serde_json`, so the exporters write
//! JSON by hand through [`Writer`] and the tests (and any downstream
//! tooling) parse it back through [`parse`]. The parser accepts the full
//! JSON grammar for objects, arrays, strings (with escapes), numbers,
//! booleans and null — everything the exporters emit and then some — and
//! rejects trailing garbage.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a string into a JSON string literal (with surrounding quotes).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// An incremental JSON value writer over an owned `String`.
///
/// The caller is responsible for structural validity (the writer tracks
/// comma placement per nesting level, nothing more); the telemetry tests
/// verify the result by parsing it back.
#[derive(Debug, Default)]
pub struct Writer {
    buf: String,
    /// `true` once a value has been written at the current nesting level.
    needs_comma: Vec<bool>,
}

impl Writer {
    /// A fresh writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn before_value(&mut self) {
        if let Some(last) = self.needs_comma.last_mut() {
            if *last {
                self.buf.push(',');
            }
            *last = true;
        }
    }

    /// Opens an object (`{`).
    pub fn begin_object(&mut self) {
        self.before_value();
        self.buf.push('{');
        self.needs_comma.push(false);
    }

    /// Closes an object (`}`).
    pub fn end_object(&mut self) {
        self.needs_comma.pop();
        self.buf.push('}');
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) {
        self.before_value();
        self.buf.push('[');
        self.needs_comma.push(false);
    }

    /// Closes an array (`]`).
    pub fn end_array(&mut self) {
        self.needs_comma.pop();
        self.buf.push(']');
    }

    /// Writes an object key; the next write is its value.
    pub fn key(&mut self, k: &str) {
        self.before_value();
        self.buf.push_str(&escape(k));
        self.buf.push(':');
        // The value that follows must not get a comma.
        if let Some(last) = self.needs_comma.last_mut() {
            *last = false;
        }
    }

    /// Writes a string value.
    pub fn string(&mut self, s: &str) {
        self.before_value();
        self.buf.push_str(&escape(s));
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, v: u64) {
        self.before_value();
        let _ = write!(self.buf, "{v}");
    }

    /// Writes a signed integer value.
    pub fn i64(&mut self, v: i64) {
        self.before_value();
        let _ = write!(self.buf, "{v}");
    }

    /// Writes a finite float value (non-finite values become `null`).
    pub fn f64(&mut self, v: f64) {
        self.before_value();
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, v: bool) {
        self.before_value();
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Convenience: `key` + string value.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.string(v);
    }

    /// Convenience: `key` + unsigned value.
    pub fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.u64(v);
    }

    /// Convenience: `key` + float value.
    pub fn field_f64(&mut self, k: &str, v: f64) {
        self.key(k);
        self.f64(v);
    }

    /// The accumulated JSON text.
    #[must_use]
    pub fn finish(self) -> String {
        self.buf
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is not preserved (keys sort).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value at `key` if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The number if this is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one complete JSON document.
///
/// # Errors
///
/// Returns a message with a byte offset on malformed input or trailing
/// non-whitespace.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Value::String(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Number)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips_through_parser() {
        let mut w = Writer::new();
        w.begin_object();
        w.field_str("name", "ring \"0\"\n");
        w.field_u64("count", 42);
        w.field_f64("ratio", 0.5);
        w.key("flags");
        w.begin_array();
        w.bool(true);
        w.bool(false);
        w.i64(-7);
        w.end_array();
        w.key("nested");
        w.begin_object();
        w.field_u64("x", 1);
        w.end_object();
        w.end_object();
        let text = w.finish();
        let v = parse(&text).expect("round trip");
        assert_eq!(v.get("name").unwrap().as_str(), Some("ring \"0\"\n"));
        assert_eq!(v.get("count").unwrap().as_f64(), Some(42.0));
        assert_eq!(v.get("flags").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("nested").unwrap().get("x").unwrap().as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn parser_accepts_plain_json() {
        let v = parse(r#" { "a" : [1, 2.5, -3e2], "b": null, "c": "A" } "#).unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b"), Some(&Value::Null));
        assert_eq!(v.get("c").unwrap().as_str(), Some("A"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = Writer::new();
        w.begin_object();
        w.field_f64("nan", f64::NAN);
        w.end_object();
        let v = parse(&w.finish()).unwrap();
        assert_eq!(v.get("nan"), Some(&Value::Null));
    }
}
