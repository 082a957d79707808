//! Minimal JSON encoding and flat-object decoding.
//!
//! The build environment has no `serde_json`, and the telemetry layer only
//! needs a small, deterministic subset of JSON: flat objects whose values
//! are numbers, booleans, and strings. Floats are encoded with Rust's
//! shortest-round-trip `Display`, so a decoded value is bit-identical to
//! the recorded one, and two runs that compute the same values byte-match.

use std::fmt::Write as _;

/// Appends a JSON string literal (with escaping) to `out`.
pub fn push_json_str(out: &mut String, s: &str) {
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

/// Appends a JSON number for `v`: shortest round-trip form, with the
/// non-finite values (which JSON cannot represent) encoded as `null`.
pub fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let s = v.to_string(); // positional shortest-round-trip form
        out.push_str(&s);
        // `Display` prints integral floats without a dot ("3"); keep the
        // value unambiguously a float so decoders round-trip the type.
        if !s.contains('.') {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// An incrementally built single-line JSON object.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject { buf: String::new() }
    }

    fn key(&mut self, name: &str) {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        push_json_str(&mut self.buf, name);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn str(&mut self, name: &str, v: &str) -> &mut Self {
        self.key(name);
        push_json_str(&mut self.buf, v);
        self
    }

    /// Adds a float field.
    pub fn f64(&mut self, name: &str, v: f64) -> &mut Self {
        self.key(name);
        push_json_f64(&mut self.buf, v);
        self
    }

    /// Adds an unsigned-integer field.
    pub fn u64(&mut self, name: &str, v: u64) -> &mut Self {
        self.key(name);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, name: &str, v: bool) -> &mut Self {
        self.key(name);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a pre-encoded JSON value verbatim (array or nested object).
    pub fn raw(&mut self, name: &str, json: &str) -> &mut Self {
        self.key(name);
        self.buf.push_str(json);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        if self.buf.is_empty() {
            self.buf.push('{');
        }
        self.buf.push('}');
        self.buf
    }
}

/// One decoded value of a flat JSON object.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A number (all JSON numbers decode as `f64`).
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// `null`.
    Null,
    /// An array of scalars (one nesting level; used by checkpoint schemas
    /// for Q-table rows and histogram counts).
    Arr(Vec<JsonValue>),
}

impl JsonValue {
    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(v) => Some(v),
            _ => None,
        }
    }
}

/// Appends a JSON array of floats (shortest-round-trip form, like
/// [`push_json_f64`]) to `out`.
pub fn push_json_f64_array(out: &mut String, values: &[f64]) {
    out.push('[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_f64(out, v);
    }
    out.push(']');
}

/// Appends a JSON array of unsigned integers to `out`.
///
/// Values must stay below 2⁵³ to round-trip exactly through the decoder
/// (all JSON numbers decode as `f64`); counters bounded by simulated slots
/// are far inside that range. Encode full-range words (RNG state) as hex
/// strings instead.
pub fn push_json_u64_array(out: &mut String, values: &[u64]) {
    out.push('[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

/// Decodes one flat JSON object (one JSONL line) into `(key, value)` pairs
/// in document order. Values may be scalars or arrays of scalars (the
/// checkpoint schema stores Q-table rows and histogram counts as arrays);
/// nested arrays and objects are errors — the telemetry record and
/// manifest schemas are deliberately flat. Duplicate keys are kept; read
/// untrusted input through [`Fields`], which rejects them.
///
/// # Errors
///
/// Returns a message describing the first syntax problem.
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err("trailing bytes after object".into());
        }
        return Ok(fields);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        let value = p.value()?;
        fields.push((key, value));
        p.skip_ws();
        match p.next() {
            Some(b',') => continue,
            Some(b'}') => break,
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing bytes after object".into());
    }
    Ok(fields)
}

/// Largest integer the [`Fields`] integer accessors accept, 2⁵³ − 1. JSON
/// numbers decode as `f64`, which holds every integer up to here exactly;
/// 2⁵³ itself is refused because `9007199254740993` decodes to it too.
pub const MAX_EXACT_INT: u64 = (1 << 53) - 1;

/// The fields of one flat JSON object, read by key through typed
/// accessors — the one reader for request bodies, checkpoints and
/// manifests.
///
/// Construction rejects duplicate keys. Each accessor takes its key, so a
/// key is read at most once, and its error names the key: a required key
/// that is missing, a value of the wrong type, a non-finite number, or an
/// integer that is fractional, negative or above [`MAX_EXACT_INT`].
/// [`Fields::finish`] rejects any key no accessor took, so typos fail
/// loudly.
///
/// ```
/// use hbm_telemetry::json::Fields;
///
/// let mut f = Fields::parse(r#"{"seed":3,"cap_w":90.5,"sede":4}"#).unwrap();
/// assert_eq!(f.u64("seed"), Ok(3));
/// assert_eq!(f.opt_f64("cap_w"), Ok(Some(90.5)));
/// assert_eq!(f.opt_f64("days"), Ok(None));
/// assert_eq!(f.finish().unwrap_err(), r#"unknown field "sede""#);
/// assert!(Fields::parse(r#"{"seed":3,"seed":4}"#).is_err());
/// ```
#[derive(Debug)]
pub struct Fields(Vec<(String, JsonValue)>);

impl Fields {
    /// Parses one flat JSON object (see [`parse_flat_object`]).
    ///
    /// # Errors
    ///
    /// Returns a message for a syntax error or a duplicate key.
    pub fn parse(text: &str) -> Result<Fields, String> {
        let fields = parse_flat_object(text)?;
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        if let Some(pair) = keys.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(format!("duplicate field {:?}", pair[0]));
        }
        Ok(Fields(fields))
    }

    fn take(&mut self, key: &str) -> Option<JsonValue> {
        let pos = self.0.iter().position(|(k, _)| k == key)?;
        Some(self.0.remove(pos).1)
    }

    fn value(&mut self, key: &str) -> Result<JsonValue, String> {
        self.take(key)
            .ok_or_else(|| format!("missing required field {key:?}"))
    }

    /// A required finite number.
    pub fn f64(&mut self, key: &str) -> Result<f64, String> {
        named(key, finite(&self.value(key)?))
    }

    /// An optional finite number; `None` when the key is absent.
    pub fn opt_f64(&mut self, key: &str) -> Result<Option<f64>, String> {
        self.take(key).map(|v| named(key, finite(&v))).transpose()
    }

    /// A required key holding a finite number or `null` (`None`).
    pub fn f64_or_null(&mut self, key: &str) -> Result<Option<f64>, String> {
        match self.value(key)? {
            JsonValue::Null => Ok(None),
            v => named(key, finite(&v)).map(Some),
        }
    }

    /// A required integer in `[0, MAX_EXACT_INT]`.
    pub fn u64(&mut self, key: &str) -> Result<u64, String> {
        named(key, exact_u64(&self.value(key)?))
    }

    /// An optional integer in `[0, MAX_EXACT_INT]`; `None` when absent.
    pub fn opt_u64(&mut self, key: &str) -> Result<Option<u64>, String> {
        self.take(key)
            .map(|v| named(key, exact_u64(&v)))
            .transpose()
    }

    /// A required boolean.
    pub fn bool(&mut self, key: &str) -> Result<bool, String> {
        named(key, self.value(key)?.as_bool().ok_or("must be a boolean"))
    }

    /// A required string.
    pub fn str(&mut self, key: &str) -> Result<String, String> {
        named(key, string(self.value(key)?))
    }

    /// An optional string; `None` when the key is absent.
    pub fn opt_str(&mut self, key: &str) -> Result<Option<String>, String> {
        self.take(key).map(|v| named(key, string(v))).transpose()
    }

    /// A required array, its elements unchecked.
    pub fn array(&mut self, key: &str) -> Result<Vec<JsonValue>, String> {
        match self.value(key)? {
            JsonValue::Arr(items) => Ok(items),
            _ => named(key, Err("must be an array")),
        }
    }

    /// A required array of finite numbers.
    pub fn f64_array(&mut self, key: &str) -> Result<Vec<f64>, String> {
        self.elements(key, finite)
    }

    /// A required array of integers in `[0, MAX_EXACT_INT]`.
    pub fn u64_array(&mut self, key: &str) -> Result<Vec<u64>, String> {
        self.elements(key, exact_u64)
    }

    fn elements<T>(
        &mut self,
        key: &str,
        convert: fn(&JsonValue) -> Result<T, &'static str>,
    ) -> Result<Vec<T>, String> {
        self.array(key)?
            .iter()
            .enumerate()
            .map(|(i, v)| convert(v).map_err(|why| format!("field {key:?} element {i} {why}")))
            .collect()
    }

    /// Ends the read.
    ///
    /// # Errors
    ///
    /// Names the first key, in document order, that no accessor took.
    pub fn finish(self) -> Result<(), String> {
        match self.0.first() {
            Some((key, _)) => Err(format!("unknown field {key:?}")),
            None => Ok(()),
        }
    }
}

fn named<T>(key: &str, converted: Result<T, &'static str>) -> Result<T, String> {
    converted.map_err(|why| format!("field {key:?} {why}"))
}

fn finite(v: &JsonValue) -> Result<f64, &'static str> {
    v.as_f64()
        .filter(|x| x.is_finite())
        .ok_or("must be a finite number")
}

fn exact_u64(v: &JsonValue) -> Result<u64, &'static str> {
    let x = finite(v)?;
    if x < 0.0 || x.fract() != 0.0 {
        Err("must be a non-negative integer")
    } else if x > MAX_EXACT_INT as f64 {
        Err("overflows the exact integer range [0, 2^53)")
    } else {
        Ok(x as u64)
    }
}

fn string(v: JsonValue) -> Result<String, &'static str> {
    match v {
        JsonValue::Str(s) => Ok(s),
        _ => Err("must be a string"),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.next() {
            Some(got) if got == b => Ok(()),
            got => Err(format!("expected {:?}, got {got:?}", b as char)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next().ok_or("unterminated string")? {
                b'"' => return Ok(out),
                b'\\' => match self.next().ok_or("unterminated escape")? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or("truncated \\u escape")? as char;
                            code = code * 16 + d.to_digit(16).ok_or("bad hex in \\u escape")?;
                        }
                        out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                    }
                    e => return Err(format!("unsupported escape \\{}", e as char)),
                },
                b => {
                    // Re-assemble multi-byte UTF-8 (the input is a &str, so
                    // the bytes are guaranteed valid).
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    self.pos = start + len;
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        if self.peek() == Some(b'[') {
            self.array()
        } else {
            self.scalar()
        }
    }

    /// A non-array value. Arrays hold only scalars, so a `[` here is an
    /// error rather than a recursive descent that deep nesting could use
    /// to overflow the stack.
    fn scalar(&mut self) -> Result<JsonValue, String> {
        match self.peek().ok_or("missing value")? {
            b'"' => Ok(JsonValue::Str(self.string()?)),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'n' => self.literal("null", JsonValue::Null),
            b'[' => Err("nested arrays are not supported".into()),
            _ => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
                text.parse::<f64>()
                    .map(JsonValue::Num)
                    .map_err(|e| format!("bad number {text:?}: {e}"))
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.scalar()?);
            self.skip_ws();
            match self.next() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Arr(items)),
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("expected {word}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [0.1, -3.75, 1.0 / 3.0, 6.02e23, 1e-300, 7.0, -0.0] {
            let mut s = String::new();
            push_json_f64(&mut s, v);
            let parsed = parse_flat_object(&format!("{{\"x\":{s}}}")).unwrap();
            assert_eq!(parsed[0].1.as_f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        let mut s = String::new();
        push_json_f64(&mut s, 3.0);
        assert_eq!(s, "3.0");
        let mut s = String::new();
        push_json_f64(&mut s, -2e300);
        assert!(s.contains('e') || s.contains('.'), "got {s}");
    }

    #[test]
    fn non_finite_encodes_as_null() {
        let mut s = String::new();
        push_json_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn object_builder_and_parser_agree() {
        let mut o = JsonObject::new();
        o.str("name", "fig9 \"snapshot\"\n")
            .u64("slot", 42)
            .f64("kw", 7.25)
            .bool("capping", true);
        let line = o.finish();
        let fields = parse_flat_object(&line).unwrap();
        assert_eq!(fields[0].0, "name");
        assert_eq!(fields[0].1.as_str().unwrap(), "fig9 \"snapshot\"\n");
        assert_eq!(fields[1].1.as_f64().unwrap(), 42.0);
        assert_eq!(fields[2].1.as_f64().unwrap(), 7.25);
        assert!(fields[3].1.as_bool().unwrap());
    }

    #[test]
    fn empty_object_parses() {
        assert!(parse_flat_object("{}").unwrap().is_empty());
        assert!(JsonObject::new().finish() == "{}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_flat_object("{\"a\":1} trailing").is_err());
        assert!(parse_flat_object("[1,2]").is_err());
        assert!(parse_flat_object("{\"a\"}").is_err());
        assert!(parse_flat_object("{\"a\":[1,2}").is_err());
        assert!(parse_flat_object("{\"a\":[1,]}").is_err());
    }

    #[test]
    fn arrays_round_trip_bit_exactly() {
        let values = [0.1, -3.75, 1.0 / 3.0, 6.02e23, 7.0, -0.0];
        let mut arr = String::new();
        push_json_f64_array(&mut arr, &values);
        let mut o = JsonObject::new();
        o.raw("q", &arr).u64("slot", 3);
        let fields = parse_flat_object(&o.finish()).unwrap();
        let JsonValue::Arr(parsed) = &fields[0].1 else {
            panic!("q is an array")
        };
        assert_eq!(parsed.len(), values.len());
        for (p, v) in parsed.iter().zip(values) {
            assert_eq!(p.as_f64().unwrap().to_bits(), v.to_bits());
        }
        assert_eq!(fields[1].1.as_f64().unwrap(), 3.0);
    }

    #[test]
    fn u64_arrays_and_empties_parse() {
        let mut arr = String::new();
        push_json_u64_array(&mut arr, &[0, 1, 1 << 53]);
        assert_eq!(arr, "[0,1,9007199254740992]");
        let fields = parse_flat_object("{\"v\":[ ],\"w\":[true,null,\"s\"]}").unwrap();
        assert_eq!(fields[0].1, JsonValue::Arr(Vec::new()));
        let JsonValue::Arr(w) = &fields[1].1 else {
            panic!("w is an array")
        };
        assert_eq!(w[0].as_bool(), Some(true));
        assert_eq!(w[1], JsonValue::Null);
        assert_eq!(w[2].as_str(), Some("s"));
    }

    #[test]
    fn deeply_nested_arrays_fail_without_recursing() {
        let body = format!("{{\"policy\":{}", "[".repeat(60_000));
        let err = parse_flat_object(&body).unwrap_err();
        assert!(err.contains("nested"), "{err}");
        assert!(parse_flat_object("{\"a\":[[1]]}").is_err());
        assert!(parse_flat_object("{\"a\":[1,[2]]}").is_err());
    }

    #[test]
    fn fields_reject_duplicates_and_untaken_keys() {
        let err = Fields::parse("{\"a\":1,\"b\":2,\"a\":1}").unwrap_err();
        assert!(err.contains("duplicate field \"a\""), "{err}");
        let mut f = Fields::parse("{\"a\":1,\"typo\":2}").unwrap();
        assert_eq!(f.u64("a"), Ok(1));
        assert!(f.u64("a").unwrap_err().contains("missing"));
        assert!(f.finish().unwrap_err().contains("unknown field \"typo\""));
    }

    #[test]
    fn fields_check_types_and_ranges() {
        let mut f = Fields::parse(
            "{\"inf\":1e999,\"big\":9007199254740993,\"max\":9007199254740991,\
             \"neg\":-3,\"half\":1.5,\"nil\":null,\"s\":\"x\",\"b\":true,\
             \"q\":[1,2.5],\"h\":[1,-1],\"w\":[0,1e999]}",
        )
        .unwrap();
        assert!(f
            .f64("inf")
            .unwrap_err()
            .contains("\"inf\" must be a finite number"));
        assert!(f.u64("big").unwrap_err().contains("overflows"));
        assert_eq!(f.u64("max"), Ok(MAX_EXACT_INT));
        assert!(f.u64("neg").unwrap_err().contains("non-negative integer"));
        assert!(f.opt_u64("half").is_err());
        assert_eq!(f.f64_or_null("nil"), Ok(None));
        assert!(f.bool("s").is_err());
        assert_eq!(f.opt_str("b").unwrap_err(), "field \"b\" must be a string");
        assert_eq!(f.f64_array("q"), Ok(vec![1.0, 2.5]));
        assert!(f.u64_array("h").unwrap_err().contains("element 1"));
        assert!(f.f64_array("w").unwrap_err().contains("element 1"));
        assert_eq!(f.opt_f64("absent"), Ok(None));
        f.finish().unwrap();
    }
}
