//! A minimal JSON document model with a parser and a compact writer.
//!
//! The workspace has no serde: the sweep exports, the store's entry lines
//! and the frames of the three JSON-lines daemons are all written and read
//! by this hand-rolled module. It implements exactly what they need:
//!
//! * [`Json`] — an ordered document tree (object keys keep insertion order,
//!   so encoding is deterministic).
//! * [`Json::parse`] — a strict RFC 8259 parser with a recursion-depth cap,
//!   safe to point at bytes from a crashed or adversarial worker.
//! * `Json::to_string` (via [`std::fmt::Display`]) — a compact single-line writer whose output never
//!   contains a raw newline, which is what makes JSON-lines framing sound.
//!
//! Numbers are `f64` and are written in Rust's shortest-round-trip notation,
//! so `parse(write(x))` reproduces every finite float bit-for-bit — the
//! property the byte-identical sharded-sweep guarantee rests on. Non-finite
//! numbers are unrepresentable in JSON; the writer maps them to `null`
//! (which is what [`crate::export`] prints for them) and the wire codec
//! rejects them before they ever reach a document.

use std::fmt::{self, Write as _};

/// Maximum nesting depth the parser accepts. Deeper documents error instead
/// of overflowing the stack; the dispatcher protocol nests a handful of
/// levels at most.
const MAX_DEPTH: usize = 128;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order so encoding is deterministic.
    Obj(Vec<(String, Json)>),
}

/// Error raised by [`Json::parse`]: a message plus the byte offset it
/// occurred at.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Convenience constructor for object values.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key of an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a nonnegative integer, if it is a number with no
    /// fractional part that fits `usize` without precision loss.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(v)
                if v.is_finite() && *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) =>
            {
                Some(*v as usize)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document; trailing whitespace is allowed, trailing
    /// content is not.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input, excessive nesting, or
    /// trailing garbage.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        parser.skip_whitespace();
        let value = parser.value(0)?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.fail("trailing content after the document"));
        }
        Ok(value)
    }

    /// Writes the value as compact single-line JSON (no raw newlines, so one
    /// document fits one JSON-lines frame). Non-finite numbers become
    /// `null`; the wire codec never produces them.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => {
                if v.is_finite() {
                    // Writing to a `String` cannot fail.
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    write_member_key(i, key, out);
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Writes an object with the value of `key` left out, as the text
    /// before it and the text after it: `head + v + tail` is the object's
    /// encoding with `v` as that value. `None` when the value is not an
    /// object or has no such key.
    pub(crate) fn split_at_value(&self, key: &str) -> Option<(String, String)> {
        let Json::Obj(pairs) = self else {
            return None;
        };
        let at = pairs.iter().position(|(k, _)| k == key)?;
        let (mut head, mut tail) = (String::from("{"), String::new());
        for (i, (k, value)) in pairs.iter().enumerate() {
            let out = if i <= at { &mut head } else { &mut tail };
            write_member_key(i, k, out);
            if i != at {
                value.write(out);
            }
        }
        tail.push('}');
        Some((head, tail))
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// The separator (before every member but the first) and the `"key":` of
/// an object member.
fn write_member_key(index: usize, key: &str, out: &mut String) {
    if index > 0 {
        out.push(',');
    }
    write_string(key, out);
    out.push(':');
}

/// JSON string literal with the escapes required by RFC 8259.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn fail(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn skip_whitespace(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.fail(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.fail("document nests too deeply"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.fail(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.fail("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.fail("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.fail("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes up to the next quote/escape.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.fail("invalid UTF-8 in string"))?;
                out.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.fail("raw control character in string")),
                None => return Err(self.fail("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            _ => return Err(self.fail("invalid escape sequence")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let high = self.hex4()?;
        if (0xD800..0xDC00).contains(&high) {
            // High surrogate: require a low surrogate right after.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let low = self.hex4()?;
                if (0xDC00..0xE000).contains(&low) {
                    let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                    return char::from_u32(code).ok_or_else(|| self.fail("invalid surrogate pair"));
                }
            }
            return Err(self.fail("unpaired high surrogate"));
        }
        if (0xDC00..0xE000).contains(&high) {
            return Err(self.fail("unpaired low surrogate"));
        }
        char::from_u32(high).ok_or_else(|| self.fail("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.fail("expected four hex digits")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while let Some(b'0'..=b'9') = self.peek() {
                    self.pos += 1;
                }
            }
            _ => return Err(self.fail("malformed number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.fail("digit required after decimal point"));
            }
            while let Some(b'0'..=b'9') = self.peek() {
                self.pos += 1;
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.fail("digit required in exponent"));
            }
            while let Some(b'0'..=b'9') = self.peek() {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("a number token is always ASCII");
        let value: f64 = text
            .parse()
            .map_err(|_| self.fail(format!("unparseable number '{text}'")))?;
        if !value.is_finite() {
            return Err(self.fail(format!("number '{text}' overflows f64")));
        }
        Ok(Json::Num(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) -> Json {
        Json::parse(&v.to_string()).unwrap()
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-1.5),
            Json::Num(1e300),
            Json::Num(5e-324), // smallest subnormal
            Json::Num(0.1 + 0.2),
            Json::str("héllo \"quoted\"\nline\t\\"),
            Json::str(""),
        ] {
            assert_eq!(roundtrip(&v), v, "{v}");
        }
    }

    #[test]
    fn floats_round_trip_bit_for_bit() {
        // Shortest-round-trip Display plus exact parse: bits must survive.
        for bits in [
            0x3FB999999999999Au64, // 0.1
            0x3FF0000000000001,    // 1.0 + ulp
            0x7FEFFFFFFFFFFFFF,    // f64::MAX
            0x0000000000000001,    // smallest subnormal
            0x8000000000000000,    // -0.0
        ] {
            let v = f64::from_bits(bits);
            let Json::Num(back) = roundtrip(&Json::Num(v)) else {
                panic!("number expected");
            };
            assert_eq!(back.to_bits(), bits);
        }
    }

    #[test]
    fn containers_round_trip_and_keep_order() {
        let doc = Json::obj(vec![
            ("zeta", Json::Num(1.0)),
            ("alpha", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            (
                "nested",
                Json::obj(vec![("k", Json::str("v")), ("n", Json::Num(2.5))]),
            ),
        ]);
        assert_eq!(roundtrip(&doc), doc);
        // Keys keep insertion order, so encoding is deterministic.
        assert_eq!(
            doc.to_string(),
            r#"{"zeta":1,"alpha":[null,true],"nested":{"k":"v","n":2.5}}"#
        );
    }

    #[test]
    fn a_split_object_rejoins_around_any_value() {
        let nested = Json::obj(vec![
            ("k", Json::Arr(vec![Json::Num(1.5), Json::Null])),
            ("n", Json::obj(vec![("deep", Json::str("x"))])),
        ]);
        let base = Json::obj(vec![
            ("first", Json::Bool(false)),
            ("middle", Json::Bool(false)),
            ("last", Json::Bool(false)),
        ]);
        for key in ["first", "middle", "last"] {
            let (head, tail) = base.split_at_value(key).unwrap();
            for value in [Json::Num(0.25), nested.clone()] {
                let Json::Obj(mut pairs) = base.clone() else {
                    unreachable!()
                };
                pairs.iter_mut().find(|(k, _)| k == key).unwrap().1 = value.clone();
                assert_eq!(
                    format!("{head}{value}{tail}"),
                    Json::Obj(pairs).to_string(),
                    "split at {key}"
                );
            }
        }
        // A lone member splits into the braces around its value.
        let single = Json::obj(vec![("only", Json::Null)]);
        assert_eq!(
            single.split_at_value("only"),
            Some((r#"{"only":"#.to_owned(), "}".to_owned()))
        );
        assert_eq!(base.split_at_value("absent"), None);
        assert_eq!(Json::Arr(vec![]).split_at_value("first"), None);
    }

    #[test]
    fn output_is_single_line() {
        let doc = Json::obj(vec![("text", Json::str("line1\nline2"))]);
        assert!(!doc.to_string().contains('\n'));
        assert_eq!(roundtrip(&doc), doc);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let doc = Json::parse(" { \"a\" : [ 1 , \"\\u00e9\\u0041\" , { } ] } ").unwrap();
        assert_eq!(
            doc,
            Json::obj(vec![(
                "a",
                Json::Arr(vec![Json::Num(1.0), Json::str("éA"), Json::Obj(vec![])])
            )])
        );
        // Surrogate pair: U+1F600.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::str("\u{1F600}")
        );
    }

    #[test]
    fn accessors_match_shapes() {
        let doc = Json::obj(vec![
            ("n", Json::Num(7.0)),
            ("s", Json::str("x")),
            ("b", Json::Bool(true)),
            ("a", Json::Arr(vec![Json::Num(1.0)])),
        ]);
        assert_eq!(doc.get("n").unwrap().as_usize(), Some(7));
        assert_eq!(doc.get("n").unwrap().as_f64(), Some(7.0));
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(doc.get("missing"), None);
        // Type mismatches come back None instead of panicking.
        assert_eq!(doc.get("s").unwrap().as_f64(), None);
        assert_eq!(Json::Num(1.5).as_usize(), None);
        assert_eq!(Json::Num(-1.0).as_usize(), None);
        assert_eq!(Json::Num(2f64.powi(54)).as_usize(), None);
    }

    #[test]
    fn malformed_documents_error_instead_of_panicking() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "nul",
            "01",
            "1.",
            "1e",
            "-",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"\\ud800\"",
            "[1] trailing",
            "NaN",
            "Infinity",
            "1e999",
            "{\"a\":1,}",
            "\u{0007}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        // Nesting bomb: deep but bounded error, no stack overflow.
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn non_finite_numbers_write_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }
}
