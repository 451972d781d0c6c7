//! The one JSON writer behind every report in the workspace, plus a
//! syntax validator for what it writes.
//!
//! A document is built as a [`Json`] value and rendered with
//! `to_string()` in one fixed layout: `"key": value` pairs and array
//! items separated by `", "`, no newlines.  Floats carry a fixed number
//! of decimals chosen by the emitter (the precision its figure has), so
//! rendering is byte-deterministic.
//!
//! # Example
//!
//! ```
//! use tm_obs::{json_is_well_formed, Json};
//!
//! let doc = Json::object([
//!     ("name", Json::from("say \"hi\"")),
//!     ("count", Json::from(3u64)),
//!     ("mean_ps", Json::Fixed(1.5, 3)),
//!     ("buckets", Json::array([Json::from(1u64), Json::from(2u64)])),
//! ]);
//! let text = doc.to_string();
//! assert_eq!(
//!     text,
//!     r#"{"name": "say \"hi\"", "count": 3, "mean_ps": 1.500, "buckets": [1, 2]}"#
//! );
//! json_is_well_formed(&text).unwrap();
//! ```

use std::fmt::{self, Write as _};

/// A JSON value under construction.  See the [module documentation](self).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// An unsigned integer.
    Int(u64),
    /// A float written with exactly this many decimals (`{:.N}`).
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An already-written JSON document, embedded verbatim.
    Raw(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; fields keep their insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An array of `items`, in order.
    #[must_use]
    pub fn array(items: impl IntoIterator<Item = Json>) -> Self {
        Json::Array(items.into_iter().collect())
    }

    /// An object of `fields`, in order.
    #[must_use]
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Int(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Int(v as u64)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Int(v) => write!(f, "{v}"),
            Json::Fixed(v, decimals) => write!(f, "{v:.decimals$}"),
            Json::Str(s) => write_string(f, s),
            Json::Raw(doc) => f.write_str(doc),
            Json::Array(items) => write_list(f, ('[', ']'), items, |f, item| write!(f, "{item}")),
            Json::Object(fields) => write_list(f, ('{', '}'), fields, |f, (key, value)| {
                write_string(f, key)?;
                write!(f, ": {value}")
            }),
        }
    }
}

/// Writes `items` between `open` and `close`, separated by `", "` — the one
/// layout rule for arrays and objects.
fn write_list<T>(
    f: &mut fmt::Formatter<'_>,
    (open, close): (char, char),
    items: &[T],
    mut write_item: impl FnMut(&mut fmt::Formatter<'_>, &T) -> fmt::Result,
) -> fmt::Result {
    f.write_char(open)?;
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        write_item(f, item)?;
    }
    f.write_char(close)
}

/// Writes `s` as a JSON string literal (quotes, backslashes and control
/// characters escaped).
fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Validates JSON syntax (objects, arrays, strings, numbers, literals)
/// without building a document — enough to guarantee an exported trace
/// or snapshot parses in any consumer.
///
/// # Errors
///
/// Returns the byte offset and a description of the first syntax
/// error.
pub fn json_is_well_formed(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(bytes, pos);
                parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                skip_ws(bytes, pos);
                parse_value(bytes, pos)?;
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(bytes, pos);
                parse_value(bytes, pos)?;
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(bytes, pos),
        Some(b't') => parse_literal(bytes, pos, "true"),
        Some(b'f') => parse_literal(bytes, pos, "false"),
        Some(b'n') => parse_literal(bytes, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            *pos += 1;
            while bytes.get(*pos).is_some_and(|c| {
                c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
            }) {
                *pos += 1;
            }
            Ok(())
        }
        _ => Err(format!("expected a value at byte {pos}")),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(bytes, pos, b'"')?;
    while let Some(&c) = bytes.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(()),
            b'\\' => {
                *pos += 1; // the escaped byte (\uXXXX hex digits also pass as plain bytes)
            }
            _ => {}
        }
    }
    Err("unterminated string".to_string())
}

fn parse_literal(bytes: &[u8], pos: &mut usize, literal: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(())
    } else {
        Err(format!("malformed literal at byte {pos}"))
    }
}

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", char::from(want)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_and_floats_keep_their_decimals() {
        let doc = Json::object([
            ("quote\"back\\slash", Json::from("line\nbreak \u{1} tab\t")),
            ("text", Json::from("naïve ✓ 東京")),
            ("a", Json::Fixed(1.5, 3)),
            ("b", Json::Fixed(2.0, 1)),
            (
                "c",
                Json::array([Json::Raw("{\"x\": 1}".into()), Json::from(7usize)]),
            ),
            ("empty", Json::object(Vec::<(String, Json)>::new())),
        ]);
        let text = doc.to_string();
        json_is_well_formed(&text).unwrap();
        assert_eq!(
            text,
            "{\"quote\\\"back\\\\slash\": \"line\\nbreak \\u0001 tab\\t\", \
             \"text\": \"naïve ✓ 東京\", \"a\": 1.500, \"b\": 2.0, \
             \"c\": [{\"x\": 1}, 7], \"empty\": {}}"
        );
    }

    #[test]
    fn validator_rejects_defects() {
        assert!(json_is_well_formed("{\"a\": 1,}").is_err());
        assert!(json_is_well_formed("[1, 2").is_err());
        assert!(json_is_well_formed("{\"a\" 1}").is_err());
        assert!(json_is_well_formed("{} extra").is_err());
        json_is_well_formed("{\"a\": [1, -2.5e3, \"x\\\"y\", true, null]}").unwrap();
    }
}
