//! The one JSON reader and string writer of the workspace.
//!
//! Every machine-readable artifact the stack leaves behind — run
//! manifests, drive-event JSONL traces, span exports, the Chrome trace —
//! is written by hand (there is no serializer dependency) and read back
//! through [`parse`]. The reader covers the whole grammar those files
//! use: objects, arrays, strings with every escape including `\uXXXX`,
//! numbers, and booleans (`null` is rejected — no artifact contains it).
//! [`write_string`] is the single place string escapes are produced.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source text so integers round-trip exactly.
    Num(String),
    /// A string literal, unescaped.
    Str(String),
    /// An object; insertion order is irrelevant to every consumer.
    Obj(BTreeMap<String, Value>),
    /// An array.
    Arr(Vec<Value>),
}

impl Value {
    /// The boolean payload, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string payload, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number parsed as `u64`, if this is an integral [`Value::Num`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `f64`, if this is a [`Value::Num`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The key/value map, if this is a [`Value::Obj`].
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The element slice, if this is a [`Value::Arr`].
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string literal.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a quoted, escaped JSON string literal (see [`write_string`]).
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_string(&mut out, s);
    out
}

/// Parses `text` as one JSON value followed only by whitespace.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, at: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.text.len() {
        return Err(format!("trailing garbage at byte {}", p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') | Some(b'f') => self.boolean(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected `{}` at byte {}", b as char, self.at)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.at)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = (self.text.get(self.at + 1..self.at + 5))
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape codepoint")?);
                            self.at += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at)),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar, not one byte: every
                    // other step moves over ASCII, so `at` sits on a char
                    // boundary of the input.
                    let c = (self.text.get(self.at..))
                        .and_then(|rest| rest.chars().next())
                        .ok_or("unterminated string")?;
                    out.push(c);
                    self.at += c.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn boolean(&mut self) -> Result<Value, String> {
        if self.text.as_bytes()[self.at..].starts_with(b"true") {
            self.at += 4;
            Ok(Value::Bool(true))
        } else if self.text.as_bytes()[self.at..].starts_with(b"false") {
            self.at += 5;
            Ok(Value::Bool(false))
        } else {
            Err(format!("expected boolean at byte {}", self.at))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.at;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        let text = self.text[start..self.at].to_string();
        // Validate it parses as a number at all.
        text.parse::<f64>()
            .map_err(|_| format!("bad number `{text}` at byte {start}"))?;
        Ok(Value::Num(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_written_escape_reads_back() {
        let awkward = "q\"b\\s/n\nt\tr\rc\u{1}\u{1f}é\u{10348}";
        let lit = string(awkward);
        assert!(lit.contains("\\u0001") && lit.contains("\\u001f"), "{lit}");
        assert_eq!(parse(&lit).unwrap(), Value::Str(awkward.to_string()));
        assert_eq!(
            parse(r#""\u00e9\/""#).unwrap(),
            Value::Str("é/".to_string())
        );
    }

    #[test]
    fn nested_values_and_exact_integers() {
        let v = parse(r#" {"a": [1, -2.5e3, true], "b": {"n": 18446744073709551615}} "#).unwrap();
        let obj = v.as_object().unwrap();
        let arr = obj["a"].as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[1].as_u64(), None, "not an unsigned integer");
        assert_eq!(arr[2].as_bool(), Some(true));
        assert_eq!(obj["b"].as_object().unwrap()["n"].as_u64(), Some(u64::MAX));
    }

    #[test]
    fn rejects_what_no_artifact_contains() {
        for bad in [
            "",
            "null",
            "{\"a\":1} x",
            "{\"a\"}",
            "[1,",
            "\"open",
            "\"\\q\"",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
