//! Minimal, std-only JSON for the workspace's export and report paths.
//!
//! Replaces the external `serde`/`serde_json` dependency with exactly
//! what the experiment harnesses need: an order-preserving [`Json`]
//! value, a compact/pretty writer, a strict reader, and the
//! [`ToJson`]/[`FromJson`] conversion traits the data-record types
//! implement by hand.
//!
//! Numbers are stored as `f64`; every integer the workspace serializes
//! (gate counts, qubit indices) is far below 2⁵³, so round-trips are
//! exact. Non-finite floats serialize as `null`, mirroring `serde_json`.
//!
//! # Examples
//!
//! ```
//! use qcs_json::Json;
//!
//! let v = Json::object([
//!     ("name", Json::from("qft-004")),
//!     ("swaps", Json::from(17usize)),
//! ]);
//! let text = v.to_string_pretty();
//! let back = qcs_json::parse(&text)?;
//! assert_eq!(back.get("swaps").and_then(Json::as_usize), Some(17));
//! # Ok::<(), qcs_json::JsonError>(())
//! ```

use std::fmt::Write as _;

/// Errors raised while parsing or converting JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Malformed input text at a byte offset.
    Parse {
        /// Byte offset of the error.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// A conversion found the wrong shape (e.g. string where a number was
    /// expected).
    Type {
        /// What the converter wanted.
        expected: &'static str,
    },
    /// A required object field was absent.
    MissingField {
        /// The absent key.
        field: String,
    },
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::Parse { offset, message } => {
                write!(f, "JSON parse error at byte {offset}: {message}")
            }
            JsonError::Type { expected } => write!(f, "JSON type error: expected {expected}"),
            JsonError::MissingField { field } => write!(f, "missing JSON field '{field}'"),
        }
    }
}

impl std::error::Error for JsonError {}

/// A JSON document: object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers are written without a fractional part).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order.
    Object(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Number(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Number(n as f64)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Number(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::String(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::String(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>, V: Into<Json>>(
        members: impl IntoIterator<Item = (K, V)>,
    ) -> Self {
        Json::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// Object member lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `usize`, if it is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Replaces the value of `key` in an object (or appends the member
    /// when absent). No-op on non-objects. Member order is preserved, so
    /// rewriting a member keeps the serialization stable everywhere else
    /// — the property the router's deadline-budget rewrite relies on.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        if let Json::Object(members) = self {
            let value = value.into();
            match members.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value,
                None => members.push((key.to_string(), value)),
            }
        }
    }

    /// Required-field lookup for manual deserializers.
    ///
    /// # Errors
    ///
    /// [`JsonError::MissingField`] when `key` is absent (or `self` is not
    /// an object).
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key).ok_or_else(|| JsonError::MissingField {
            field: key.to_string(),
        })
    }

    /// Serializes compactly (no whitespace).
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(n) => write_number(out, *n),
            Json::String(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // `{}` on f64 prints the shortest string that round-trips.
        let _ = write!(out, "{n}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// How deeply arrays and objects may nest (serde_json's default): the
/// reader recurses once per level, so without a bound a few kilobytes
/// of `[` overflow the stack of whatever thread parses them.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document; trailing whitespace is allowed, trailing
/// content is not.
///
/// # Errors
///
/// [`JsonError::Parse`] with a byte offset on malformed input, including
/// arrays and objects nested more than 128 levels deep.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing content after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError::Parse {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses an array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error("arrays and objects nest more than 128 levels deep"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: require a paired \uXXXX.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.error("invalid surrogate pair"))?
                            } else {
                                char::from_u32(cp)
                                    .ok_or_else(|| self.error("invalid unicode escape"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                // RFC 8259 §7: control characters must arrive escaped; a
                // raw one in the byte stream is malformed input, not data.
                Some(c) if c < 0x20 => return Err(self.error("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so slices
                    // at char boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let cp = u32::from_str_radix(digits, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.error("invalid number"))
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Json;
}

/// Conversion out of a [`Json`] value.
pub trait FromJson: Sized {
    /// Converts a JSON value into `Self`.
    ///
    /// # Errors
    ///
    /// [`JsonError::Type`] / [`JsonError::MissingField`] on shape
    /// mismatches.
    fn from_json(value: &Json) -> Result<Self, JsonError>;
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Number(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        // `null` reads back as NaN, mirroring the writer's treatment of
        // non-finite floats.
        if matches!(value, Json::Null) {
            return Ok(f64::NAN);
        }
        value.as_f64().ok_or(JsonError::Type { expected: "number" })
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Number(*self as f64)
    }
}

impl FromJson for usize {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.as_usize().ok_or(JsonError::Type {
            expected: "non-negative integer",
        })
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.as_bool().ok_or(JsonError::Type {
            expected: "boolean",
        })
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::String(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or(JsonError::Type { expected: "string" })
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_array()
            .ok_or(JsonError::Type { expected: "array" })?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

/// Reads one typed field out of a JSON object (deserializer helper).
///
/// # Errors
///
/// Missing-field and type errors from the lookup and conversion.
pub fn field<T: FromJson>(object: &Json, key: &str) -> Result<T, JsonError> {
    T::from_json(object.field(key)?)
}

/// Implements [`ToJson`] and [`FromJson`] for a struct with named public
/// fields, mapping each field to an identically-named object member.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// struct Point { x: f64, y: f64 }
/// qcs_json::impl_json_object!(Point { x, y });
///
/// use qcs_json::{FromJson, ToJson};
/// let p = Point { x: 1.0, y: 2.0 };
/// let back = Point::from_json(&p.to_json()).unwrap();
/// assert_eq!(back, p);
/// ```
#[macro_export]
macro_rules! impl_json_object {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Object(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::ToJson::to_json(&self.$field),
                    ),)+
                ])
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::Json) -> Result<Self, $crate::JsonError> {
                Ok(Self {
                    $($field: $crate::field(value, stringify!($field))?,)+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_replaces_in_place_and_appends_when_absent() {
        let mut v = parse(r#"{"a":1,"deadline_ms":500,"z":"end"}"#).unwrap();
        v.set("deadline_ms", 123u64);
        assert_eq!(
            v.to_compact_string(),
            r#"{"a":1,"deadline_ms":123,"z":"end"}"#,
            "member order must be preserved"
        );
        v.set("new", "x");
        assert_eq!(v.get("new").and_then(Json::as_str), Some("x"));
        // No-op on non-objects.
        let mut n = Json::from(7u64);
        n.set("k", 1u64);
        assert_eq!(n, Json::from(7u64));
    }

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "1e-3"] {
            let v = parse(text).unwrap();
            let back = parse(&v.to_compact_string()).unwrap();
            assert_eq!(v, back, "{text}");
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Number(42.0).to_compact_string(), "42");
        assert_eq!(Json::Number(-3.0).to_compact_string(), "-3");
        assert_eq!(Json::Number(2.5).to_compact_string(), "2.5");
    }

    #[test]
    fn f64_round_trips_exactly() {
        for v in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -2.5e-7] {
            let text = Json::Number(v).to_compact_string();
            let back = parse(&text).unwrap();
            assert_eq!(back.as_f64(), Some(v), "{text}");
        }
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(Json::Number(f64::NAN).to_compact_string(), "null");
        assert_eq!(Json::Number(f64::INFINITY).to_compact_string(), "null");
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let tricky = "he said \"hi\"\n\tunicode: λ→\u{1F600}\\ done";
        let v = Json::from(tricky);
        let back = parse(&v.to_compact_string()).unwrap();
        assert_eq!(back.as_str(), Some(tricky));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse(r#""é""#).unwrap().as_str(), Some("é"));
        // Surrogate pair for 😀 (U+1F600).
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn object_preserves_order() {
        let v = Json::object([("z", 1usize), ("a", 2usize), ("m", 3usize)]);
        let text = v.to_compact_string();
        assert_eq!(text, r#"{"z":1,"a":2,"m":3}"#);
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_format_shape() {
        let v = Json::object([("k", Json::Array(vec![Json::Number(1.0)]))]);
        assert_eq!(v.to_string_pretty(), "{\n  \"k\": [\n    1\n  ]\n}");
    }

    #[test]
    fn nested_round_trip() {
        let v = Json::object([
            (
                "records",
                Json::Array(vec![
                    Json::object([("name", Json::from("a")), ("ok", Json::from(true))]),
                    Json::object([("name", Json::from("b")), ("ok", Json::from(false))]),
                ]),
            ),
            ("mean", Json::from(0.25)),
        ]);
        for text in [v.to_compact_string(), v.to_string_pretty()] {
            assert_eq!(parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn parse_errors_are_located() {
        for bad in ["", "{", "[1,", "\"open", "{\"a\" 1}", "tru", "1 2", "[1,]"] {
            assert!(matches!(parse(bad), Err(JsonError::Parse { .. })), "{bad}");
        }
    }

    #[test]
    fn field_helpers() {
        let v = Json::object([("n", 5usize)]);
        assert_eq!(field::<usize>(&v, "n").unwrap(), 5);
        assert!(matches!(
            field::<usize>(&v, "missing"),
            Err(JsonError::MissingField { .. })
        ));
        assert!(matches!(
            field::<String>(&v, "n"),
            Err(JsonError::Type { .. })
        ));
    }

    #[test]
    fn vec_conversions() {
        let xs = vec![1.5f64, -2.0, 0.0];
        let v = xs.to_json();
        assert_eq!(Vec::<f64>::from_json(&v).unwrap(), xs);
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse("  {\r\n \"a\" :\t[ 1 , 2 ] }  ").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_array).unwrap().len(), 2);
    }

    #[test]
    fn every_control_character_round_trips() {
        // Exhaustive: all of C0, plus DEL and the JS-hostile separators.
        let mut exotic: Vec<char> = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        exotic.extend(['\u{7f}', '\u{2028}', '\u{2029}', '\u{1F600}']);
        for c in exotic {
            let original = Json::String(format!("a{c}z"));
            let text = original.to_compact_string();
            assert_eq!(parse(&text).unwrap(), original, "char U+{:04X}", c as u32);
        }
    }

    #[test]
    fn control_characters_use_short_escapes() {
        let s = Json::String("\u{8}\u{c}\n\r\t\u{1}".to_string());
        assert_eq!(s.to_compact_string(), "\"\\b\\f\\n\\r\\t\\u0001\"");
    }

    #[test]
    fn raw_control_characters_in_strings_are_rejected() {
        for c in (0u8..0x20).map(char::from) {
            let text = format!("\"a{c}z\"");
            assert!(
                matches!(parse(&text), Err(JsonError::Parse { .. })),
                "raw U+{:04X} must be rejected",
                c as u32
            );
        }
        // Escaped forms of the same characters stay legal.
        assert_eq!(
            parse("\"\\u0000\\b\\f\\n\\r\\t\"").unwrap(),
            Json::String("\0\u{8}\u{c}\n\r\t".to_string())
        );
        // Raw DEL and beyond are not control characters for RFC 8259.
        assert_eq!(
            parse("\"\u{7f}\"").unwrap(),
            Json::String("\u{7f}".to_string())
        );
    }

    #[test]
    fn nesting_past_128_levels_is_an_error_not_a_stack_overflow() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| r#"{"a":"#.repeat(depth) + "1" + &"}".repeat(depth);
        for text in [arrays(128), objects(128)] {
            assert!(parse(&text).is_ok(), "128 levels must parse");
        }
        for text in [
            arrays(129),
            objects(129),
            "[".repeat(100_000),
            objects(100_000),
        ] {
            match parse(&text) {
                Err(JsonError::Parse { offset, message }) => {
                    assert!(message.contains("128 levels"), "{message}");
                    assert!(offset <= 129 * 5, "offset {offset}");
                }
                other => panic!("expected a nesting error, got {other:?}"),
            }
        }
    }
}
