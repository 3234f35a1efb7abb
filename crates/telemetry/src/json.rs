//! Minimal JSON parsing and JSON-Schema-subset validation.
//!
//! The workspace's offline `serde_json` stand-in only serializes, so
//! the golden-file tests and the `validate_profile` binary need their
//! own parser. [`parse`] produces the same [`serde::json::Value`] tree
//! the serializer consumes; [`validate`] checks a value against the
//! subset of JSON Schema the checked-in `schemas/profile.schema.json`
//! uses: `type` (string or list), `required`, `properties`, `items`,
//! `minimum`, and `minItems`.
//!
//! [`read_object`] is the one way a spec (fleet, cluster, workload)
//! turns a parsed tree into typed values; its errors name the field's
//! path (`node.fleet.gpu.num_smm`, `jobs[3].priority`).

use serde::json::Value;

/// Maximum container nesting [`parse`] accepts. Every recursive
/// descent into an object or array counts one level; hostile input
/// like `[[[[…` otherwise recurses once per byte and overflows the
/// stack — an abort, not an `Err`. 128 levels is an order of magnitude
/// beyond the deepest document any producer in this workspace writes
/// (profiles nest 4 levels).
pub const MAX_DEPTH: usize = 128;

/// Why a document failed to parse. Carries the byte offset where the
/// parser stopped; [`std::fmt::Display`] renders the one-line message
/// the CLI prints, and `From<JsonError> for String` keeps the
/// string-error callers (spec parsers, tests) source-compatible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Containers nested deeper than [`MAX_DEPTH`]: almost certainly
    /// hostile or corrupt input, refused before the recursion can
    /// touch the stack guard page.
    TooDeep {
        /// The limit that was exceeded ([`MAX_DEPTH`]).
        limit: usize,
        /// Byte offset of the opening bracket one past the limit.
        at: usize,
    },
    /// Any other syntax error (unterminated string, bad escape, stray
    /// token, trailing data).
    Syntax {
        /// What the parser expected or rejected.
        msg: String,
        /// Byte offset where it happened.
        at: usize,
    },
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::TooDeep { limit, at } => {
                write!(f, "nesting deeper than {limit} levels at byte {at}")
            }
            JsonError::Syntax { msg, at } => write!(f, "{msg} at byte {at}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

/// Parse a JSON document. Errors carry a byte offset and message.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser { text, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(JsonError::Syntax { msg: "trailing data".into(), at: p.pos });
    }
    Ok(v)
}

/// Recursive-descent state. `pos` only ever advances past ASCII
/// tokens or whole runs of string content, so it always sits on a
/// char boundary of `text`.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: &str) -> Result<T, JsonError> {
        Err(JsonError::Syntax { msg: msg.into(), at: self.pos })
    }

    /// Count one container level on entry to an object or array; the
    /// matching [`Parser::descend_end`] runs after its closing
    /// bracket. Refusing *before* recursing keeps the stack bounded by
    /// `MAX_DEPTH` frames no matter what the input holds.
    fn descend(&mut self) -> Result<(), JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(JsonError::TooDeep { limit: MAX_DEPTH, at: self.pos });
        }
        self.depth += 1;
        Ok(())
    }

    fn descend_end(&mut self) {
        self.depth -= 1;
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err(&format!("expected '{word}'"))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.descend()?;
        let v = self.object_inner();
        self.descend_end();
        v
    }

    fn object_inner(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.descend()?;
        let v = self.array_inner();
        self.descend_end();
        v
    }

    fn array_inner(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.text.len() {
                                return self.err("truncated \\u escape");
                            }
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or(JsonError::Syntax {
                                    msg: "bad \\u escape".into(),
                                    at: self.pos,
                                })?;
                            // Surrogate pairs are not needed by any
                            // producer in this workspace; map lone
                            // surrogates to the replacement character.
                            s.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash
                    // in one step. Both are ASCII, so the run ends on
                    // a char boundary; a run that reaches the end of
                    // the input is reported as unterminated above.
                    let rest = &self.text[self.pos..];
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    s.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| JsonError::Syntax { msg: format!("bad number '{text}'"), at: start })
    }
}

/// A scalar a [`Fields`] reader can extract.
pub trait Field: Sized {
    /// Convert `v`, or say why it does not fit; the reader prefixes
    /// the message with the field's path.
    fn from_value(v: &Value) -> Result<Self, String>;
}

impl Field for String {
    fn from_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(format!("is not a string: {other:?}")),
        }
    }
}

/// Integers narrow with a check: `"clock_mhz": 4294968296` is an error
/// naming the field, never a silent `as` truncation to 1000.
macro_rules! integer_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn from_value(v: &Value) -> Result<Self, String> {
                let x: i128 = match v {
                    Value::U64(x) => (*x).into(),
                    Value::I64(x) => (*x).into(),
                    other => return Err(format!("is not an integer: {other:?}")),
                };
                <$t>::try_from(x)
                    .map_err(|_| format!("value {x} does not fit in {}", stringify!($t)))
            }
        }
    )*};
}
integer_field!(u32, u64, usize, i64);

/// Every float in the workspace's specs is a rate, size, time, or
/// delay: `1e400` (which parses to infinity) would poison every
/// downstream makespan, and a negative value would make work finish
/// before it starts, so both are refused here.
impl Field for f64 {
    fn from_value(v: &Value) -> Result<Self, String> {
        let x = as_f64(v).ok_or_else(|| format!("is not a number: {v:?}"))?;
        if !x.is_finite() {
            return Err(format!("is not finite: {x}"));
        }
        if x < 0.0 {
            return Err(format!("is negative: {x}"));
        }
        Ok(x)
    }
}

/// An object being read field by field; see [`read_object`].
pub struct Fields<'v> {
    /// Path prefix of this object's keys: `""` or `"jobs[3]."`.
    prefix: String,
    fields: &'v [(String, Value)],
    read: Vec<bool>,
}

impl<'v> Fields<'v> {
    fn path(&self, key: &str) -> String {
        format!("{}{key}", self.prefix)
    }

    /// The value under `key`, marking it read.
    fn find(&mut self, key: &str) -> Option<&'v Value> {
        let i = self.fields.iter().position(|(k, _)| k == key)?;
        self.read[i] = true;
        Some(&self.fields[i].1)
    }

    fn require(&mut self, key: &str) -> Result<&'v Value, String> {
        self.find(key).ok_or_else(|| format!("missing field '{}'", self.path(key)))
    }

    fn convert<T: Field>(&self, key: &str, v: &Value) -> Result<T, String> {
        T::from_value(v).map_err(|e| format!("field '{}' {e}", self.path(key)))
    }

    /// A required scalar field.
    pub fn req<T: Field>(&mut self, key: &str) -> Result<T, String> {
        let v = self.require(key)?;
        self.convert(key, v)
    }

    /// A required integer field that must be at least 1: a count the
    /// program divides by or schedules onto.
    pub fn req_count<T: Field + Copy + Into<u64>>(&mut self, key: &str) -> Result<T, String> {
        let v: T = self.req(key)?;
        if v.into() == 0 {
            return Err(format!("field '{}' must be at least 1", self.path(key)));
        }
        Ok(v)
    }

    /// An optional scalar field; `null` means absent.
    pub fn opt<T: Field>(&mut self, key: &str) -> Result<Option<T>, String> {
        match self.find(key) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => self.convert(key, v).map(Some),
        }
    }

    /// A required nested object, read with `read` (see [`read_object`]).
    pub fn object<T>(
        &mut self,
        key: &str,
        read: impl FnOnce(&mut Fields<'v>) -> Result<T, String>,
    ) -> Result<T, String> {
        let v = self.require(key)?;
        read_object(v, &self.path(key), read)
    }

    /// A required array of objects, each read with `read`.
    pub fn objects<T>(
        &mut self,
        key: &str,
        read: impl FnMut(&mut Fields<'v>) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let v = self.require(key)?;
        read_objects(v, &self.path(key), read)
    }
}

/// Read the object `v`, found at dotted `path` in its document (`""`
/// for the root), with `read`; then refuse the first key `read` never
/// looked up, so a typo'd or stale key is an error, not ignored.
pub fn read_object<'v, T>(
    v: &'v Value,
    path: &str,
    read: impl FnOnce(&mut Fields<'v>) -> Result<T, String>,
) -> Result<T, String> {
    let Value::Object(fields) = v else {
        let what = if path.is_empty() { "document".into() } else { format!("field '{path}'") };
        return Err(format!("{what} is not an object: {v:?}"));
    };
    let prefix = if path.is_empty() { String::new() } else { format!("{path}.") };
    let mut f = Fields { prefix, fields, read: vec![false; fields.len()] };
    let out = read(&mut f)?;
    match f.read.iter().position(|&r| !r) {
        Some(i) => Err(format!("unknown field '{}'", f.path(&fields[i].0))),
        None => Ok(out),
    }
}

/// Read every element of the array `v`, found at `path`, as an object
/// with `read`; element `i` reports its fields as `path[i].key`.
pub fn read_objects<'v, T>(
    v: &'v Value,
    path: &str,
    mut read: impl FnMut(&mut Fields<'v>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let Value::Array(items) = v else {
        return Err(format!("field '{path}' is not an array: {v:?}"));
    };
    let item = |i: usize| format!("{path}[{i}]");
    items.iter().enumerate().map(|(i, v)| read_object(v, &item(i), &mut read)).collect()
}

fn get<'v>(obj: &'v Value, key: &str) -> Option<&'v Value> {
    match obj {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn type_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "boolean",
        Value::I64(_) | Value::U64(_) => "integer",
        Value::F64(_) => "number",
        Value::Str(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

fn matches_type(v: &Value, ty: &str) -> bool {
    match ty {
        "number" => matches!(v, Value::I64(_) | Value::U64(_) | Value::F64(_)),
        "integer" => match v {
            Value::I64(_) | Value::U64(_) => true,
            Value::F64(x) => x.fract() == 0.0 && x.is_finite(),
            _ => false,
        },
        other => type_name(v) == other,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::I64(i) => Some(*i as f64),
        Value::U64(u) => Some(*u as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

/// Validate `value` against a JSON-Schema-subset `schema`. Returns
/// every violation found (empty error list never occurs: `Ok` means
/// the document conforms).
pub fn validate(value: &Value, schema: &Value) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    validate_at(value, schema, "$", &mut errors);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn validate_at(value: &Value, schema: &Value, path: &str, errors: &mut Vec<String>) {
    // type: "x" | ["x", "y"]
    if let Some(ty) = get(schema, "type") {
        let ok = match ty {
            Value::Str(t) => matches_type(value, t),
            Value::Array(ts) => ts.iter().any(|t| match t {
                Value::Str(t) => matches_type(value, t),
                _ => false,
            }),
            _ => true,
        };
        if !ok {
            errors.push(format!("{path}: expected type {ty:?}, got {}", type_name(value)));
            return;
        }
    }
    if let Some(Value::Array(req)) = get(schema, "required") {
        for r in req {
            if let Value::Str(name) = r {
                if get(value, name).is_none() {
                    errors.push(format!("{path}: missing required property '{name}'"));
                }
            }
        }
    }
    if let Some(Value::Object(props)) = get(schema, "properties") {
        for (name, sub) in props {
            if let Some(v) = get(value, name) {
                validate_at(v, sub, &format!("{path}.{name}"), errors);
            }
        }
    }
    if let Some(items) = get(schema, "items") {
        if let Value::Array(vs) = value {
            for (i, v) in vs.iter().enumerate() {
                validate_at(v, items, &format!("{path}[{i}]"), errors);
            }
        }
    }
    if let Some(min) = get(schema, "minimum").and_then(as_f64) {
        if let Some(x) = as_f64(value) {
            if x < min {
                errors.push(format!("{path}: {x} below minimum {min}"));
            }
        }
    }
    if let Some(min) = get(schema, "minItems").and_then(as_f64) {
        if let Value::Array(vs) = value {
            if (vs.len() as f64) < min {
                errors.push(format!("{path}: {} items below minItems {min}", vs.len()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("42").unwrap(), Value::U64(42));
        assert_eq!(parse("-7").unwrap(), Value::I64(-7));
        assert_eq!(parse("2.5").unwrap(), Value::F64(2.5));
        assert_eq!(parse("1e3").unwrap(), Value::F64(1000.0));
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": 2.0}], "c": "x"}"#).unwrap();
        assert_eq!(get(&v, "c"), Some(&Value::Str("x".into())));
        match get(&v, "a") {
            Some(Value::Array(items)) => {
                assert_eq!(items[0], Value::U64(1));
                assert_eq!(get(&items[1], "b"), Some(&Value::F64(2.0)));
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn every_truncation_of_a_profile_errors_without_panicking() {
        // Chop a representative profile document at every byte
        // boundary: each prefix must come back as a clean parse error
        // (or, for a lucky few, a smaller valid document) — never a
        // panic. This is the CLI-reachable path: `validate_profile`
        // reads arbitrary files off disk.
        let doc = r#"{"schema_version": 5, "name": "x \"esc\\", "spans": [{"seconds": 0.5, "kernel": "mbir_update\n"}], "rmse": null, "u": "A"}"#;
        assert!(parse(doc).is_ok());
        for cut in 0..doc.len() {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            let _ = parse(&doc[..cut]); // must not panic
        }
        // The specific regression: input ending mid-escape / mid-string.
        assert!(parse(r#"{"name": "ab"#).is_err());
        assert!(parse("\"ab\\").is_err());
        assert!(parse("\"ab\\u00").is_err());
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // Regression: before the depth guard, each of these recursed
        // once per byte and aborted the process on the stack guard
        // page. They must come back as a typed error.
        for open in ["[", "{\"k\":"] {
            let deep = open.repeat(100_000);
            match parse(&deep) {
                Err(JsonError::TooDeep { limit, .. }) => assert_eq!(limit, MAX_DEPTH),
                other => panic!("expected TooDeep, got {other:?}"),
            }
        }
        // Mixed nesting counts the same budget.
        let mixed = "[{\"a\":".repeat(60_000);
        assert!(matches!(parse(&mixed), Err(JsonError::TooDeep { .. })));
    }

    #[test]
    fn nesting_at_the_limit_parses_and_one_past_does_not() {
        let ok = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok(), "exactly MAX_DEPTH levels must parse");
        let too_deep = format!("{}0{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        match parse(&too_deep) {
            Err(JsonError::TooDeep { limit, at }) => {
                assert_eq!(limit, MAX_DEPTH);
                assert_eq!(at, MAX_DEPTH, "offset names the bracket past the limit");
            }
            other => panic!("expected TooDeep, got {other:?}"),
        }
        // The error formats as the one-liner the CLI prints.
        let msg: String = parse(&too_deep).unwrap_err().into();
        assert!(msg.contains("nesting deeper than"), "{msg}");
    }

    #[test]
    fn depth_resets_between_siblings() {
        // Wide-but-shallow documents must not accumulate depth: only
        // the *current* nesting counts.
        let wide = format!("[{}0]", "[0],".repeat(10_000));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn multibyte_characters_survive_inside_strings_and_next_to_escapes() {
        // 2-, 3- and 4-byte UTF-8 scalars, alone, in runs, and directly
        // before and after escapes.
        let cases: &[(&str, &str)] = &[
            (r#""é""#, "é"),
            (r#""日本""#, "日本"),
            (r#""🦀""#, "🦀"),
            (r#""a\"é\n日\t🦀\\""#, "a\"é\n日\t🦀\\"),
            (r#""\u00e9é""#, "éé"),
            (r#""🦀\u0041""#, "🦀A"),
        ];
        for (doc, want) in cases {
            assert_eq!(parse(doc).unwrap(), Value::Str(want.to_string()), "{doc}");
        }
        let v = parse(r#"{"ключ": ["値", "x🦀y"]}"#).unwrap();
        assert_eq!(
            get(&v, "ключ"),
            Some(&Value::Array(vec![Value::Str("値".into()), Value::Str("x🦀y".into())]))
        );
        // A string cut off after a multibyte character is unterminated.
        assert!(parse("\"日本").is_err());
    }

    fn read_doc<T>(
        text: &str,
        read: impl FnOnce(&mut Fields<'_>) -> Result<T, String>,
    ) -> Result<T, String> {
        read_object(&parse(text).unwrap(), "", read)
    }

    #[test]
    fn reader_extracts_every_type() {
        let doc = r#"{"s": "x", "a": 7, "b": 8, "c": 9, "i": -3, "f": 2.5, "g": 4,
                      "n": {"k": 1}, "l": [{"k": 2}, {"k": 3}]}"#;
        let got = read_doc(doc, |f| {
            Ok((
                f.req::<String>("s")?,
                f.req::<u32>("a")?,
                f.req::<u64>("b")?,
                f.req::<usize>("c")?,
                f.req::<i64>("i")?,
                f.req::<f64>("f")?,
                f.req::<f64>("g")?,
                f.object("n", |n| n.req::<u32>("k"))?,
                f.objects("l", |e| e.req::<u32>("k"))?,
            ))
        })
        .unwrap();
        assert_eq!(got, ("x".into(), 7, 8, 9, -3, 2.5, 4.0, 1, vec![2, 3]));
    }

    #[test]
    fn reader_errors_name_the_path_and_keep_the_wording() {
        let cases: &[(&str, &str)] = &[
            (
                r#"{"a": {"b": {"k": 4294968296}}}"#,
                "field 'a.b.k' value 4294968296 does not fit in u32",
            ),
            (r#"{"a": {"b": {"k": -1}}}"#, "field 'a.b.k' value -1 does not fit in u32"),
            (r#"{"a": {"b": {"k": "7"}}}"#, "field 'a.b.k' is not an integer"),
            (r#"{"a": {"b": {}}}"#, "missing field 'a.b.k'"),
            (r#"{"a": {"b": 3}}"#, "field 'a.b' is not an object"),
            (r#"{"a": {"b": {"k": 1, "kk": 2}}}"#, "unknown field 'a.b.kk'"),
        ];
        for (doc, needle) in cases {
            let err = read_doc(doc, |f| f.object("a", |a| a.object("b", |b| b.req::<u32>("k"))))
                .unwrap_err();
            assert!(err.contains(needle), "{doc}: {err:?} lacks {needle:?}");
        }
        let f64_cases: &[(&str, &str)] = &[
            (r#"{"l": [{"x": 1}, {"x": 1e400}]}"#, "field 'l[1].x' is not finite"),
            (r#"{"l": [{"x": -0.5}]}"#, "field 'l[0].x' is negative: -0.5"),
            (r#"{"l": [{"x": "1"}]}"#, "field 'l[0].x' is not a number"),
            (r#"{"l": {"x": 1}}"#, "field 'l' is not an array"),
        ];
        for (doc, needle) in f64_cases {
            let err = read_doc(doc, |f| f.objects("l", |e| e.req::<f64>("x"))).unwrap_err();
            assert!(err.contains(needle), "{doc}: {err:?} lacks {needle:?}");
        }
        let err = read_doc(r#"{"s": 1}"#, |f| f.req::<String>("s")).unwrap_err();
        assert!(err.contains("field 's' is not a string"), "{err}");
        let err = read_doc(r#"{"i": 9223372036854775808}"#, |f| f.req::<i64>("i")).unwrap_err();
        assert!(err.contains("does not fit in i64"), "{err}");
        let err = read_object(&Value::U64(1), "", |f| f.req::<u32>("k")).unwrap_err();
        assert!(err.contains("document is not an object"), "{err}");
    }

    #[test]
    fn reader_treats_null_as_absent_and_refuses_unread_keys() {
        let doc = r#"{"a": null, "b": 2}"#;
        let got =
            read_doc(doc, |f| Ok((f.opt::<f64>("a")?, f.opt::<u32>("b")?, f.opt::<u32>("c")?)));
        assert_eq!(got.unwrap(), (None, Some(2), None));
        // A required field given as null is present but of the wrong type.
        assert!(read_doc(doc, |f| f.req::<f64>("a")).is_err());
        // Reading only `a` leaves `b` unread: an error naming it.
        let err = read_doc(doc, |f| f.opt::<f64>("a")).unwrap_err();
        assert_eq!(err, "unknown field 'b'");
        // The caller's own error wins over the unknown-key check.
        let err = read_doc(doc, |f| f.req::<u32>("z")).unwrap_err();
        assert_eq!(err, "missing field 'z'");
    }

    #[test]
    fn serializer_round_trip() {
        let v = Value::Object(vec![
            ("x".into(), Value::F64(0.25)),
            ("y".into(), Value::Array(vec![Value::U64(1), Value::Null])),
            ("s".into(), Value::Str("q\"uote".into())),
        ]);
        let text = serde_json::to_string_pretty(&v).unwrap();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn validates_types_required_and_items() {
        let schema = parse(
            r#"{
                "type": "object",
                "required": ["name", "spans"],
                "properties": {
                    "name": {"type": "string"},
                    "spans": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "type": "object",
                            "required": ["seconds"],
                            "properties": {"seconds": {"type": "number", "minimum": 0}}
                        }
                    },
                    "rmse": {"type": ["number", "null"]}
                }
            }"#,
        )
        .unwrap();
        let good = parse(r#"{"name": "x", "spans": [{"seconds": 0.5}], "rmse": null}"#).unwrap();
        assert!(validate(&good, &schema).is_ok());

        let bad = parse(r#"{"name": 3, "spans": [{"seconds": -1}]}"#).unwrap();
        let errs = validate(&bad, &schema).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("$.name")));
        assert!(errs.iter().any(|e| e.contains("below minimum")));

        let missing = parse(r#"{"name": "x", "spans": []}"#).unwrap();
        let errs = validate(&missing, &schema).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("minItems")));
    }

    #[test]
    fn integer_accepts_integral_floats() {
        let schema = parse(r#"{"type": "integer"}"#).unwrap();
        assert!(validate(&Value::F64(3.0), &schema).is_ok());
        assert!(validate(&Value::F64(3.5), &schema).is_err());
        assert!(validate(&Value::U64(3), &schema).is_ok());
    }
}
