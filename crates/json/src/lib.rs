//! A minimal, dependency-free JSON toolkit for the rtbh workspace.
//!
//! The workspace's hermetic-build policy (see DESIGN.md, "Dependency
//! policy") forbids crates.io dependencies, so this crate replaces `serde` +
//! `serde_json` for the narrow slice the analysis pipeline needs: a [`Json`]
//! value type, a strict recursive-descent parser, compact and pretty
//! serializers, the [`ToJson`]/[`FromJson`] conversion traits, and the
//! [`impl_json!`] macro that derives those traits for plain structs and
//! enums.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Serialization visits struct fields in declaration
//!    order and map entries in key order; two equal values always produce
//!    byte-identical JSON. The pipeline's sequential-vs-parallel report
//!    identity checks rest on this.
//! 2. **Round-trip fidelity.** Integers stay integers (`u64`/`i64` lanes,
//!    no silent `f64` funnel) and floats print with Rust's shortest
//!    round-trip formatting, so `parse(serialize(x)) == x` for every value
//!    the workspace emits.
//! 3. **Strictness.** The parser rejects trailing input, unterminated
//!    strings, bad escapes, and nesting deeper than [`MAX_DEPTH`]; a corrupt
//!    corpus fails with a typed error instead of panicking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod macros;
mod parse;
mod ser;
mod traits;

pub use parse::parse;
pub use traits::{FromJson, JsonKey, ToJson};

/// Maximum nesting depth the parser accepts.
pub const MAX_DEPTH: usize = 128;

/// A parsed or constructed JSON document.
///
/// Objects preserve insertion order (the serializer does not sort them), so
/// struct-derived output keeps field declaration order, exactly like a
/// `serde` derive.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`.
    U64(u64),
    /// A negative integer that fits `i64`.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A conversion or parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
    /// Innermost-first path of fields/indices leading to the failure.
    path: Vec<String>,
}

impl JsonError {
    /// A new error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        Self {
            msg: msg.into(),
            path: Vec::new(),
        }
    }

    /// Wraps the error with the field or variant it occurred in.
    pub fn in_field(mut self, field: &str) -> Self {
        self.path.push(field.to_string());
        self
    }

    /// The bare message, without the path.
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.path.is_empty() {
            write!(f, "{}", self.msg)
        } else {
            let mut path: Vec<&str> = self.path.iter().map(String::as_str).collect();
            path.reverse();
            write!(f, "{}: {}", path.join("."), self.msg)
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// The type name used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::U64(_) | Json::I64(_) | Json::F64(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a key in an object, yielding `Null` when absent.
    ///
    /// Missing fields deserialize as `null`, which [`FromJson`] for
    /// `Option<T>` maps to `None` — the same leniency `serde` derives give
    /// optional fields — while non-optional types reject the `null`.
    pub fn field(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&Json::Null)
    }

    /// Requires the value to be an object.
    pub fn expect_obj(&self, what: &str) -> Result<&[(String, Json)], JsonError> {
        match self {
            Json::Obj(entries) => Ok(entries),
            other => Err(JsonError::new(format!(
                "expected object for {what}, found {}",
                other.type_name()
            ))),
        }
    }

    /// Requires the value to be an array.
    pub fn expect_arr(&self, what: &str) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(JsonError::new(format!(
                "expected array for {what}, found {}",
                other.type_name()
            ))),
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A single-entry object — the externally-tagged enum representation.
    pub fn tagged(tag: &str, value: Json) -> Json {
        Json::Obj(vec![(tag.to_string(), value)])
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&ser::to_compact(self))
    }
}

/// Serializes a value to compact JSON.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    ser::to_compact(&value.to_json())
}

/// Serializes a value to pretty JSON (two-space indent).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    ser::to_pretty(&value.to_json())
}

/// Serializes a value to compact JSON bytes.
pub fn to_vec<T: ToJson + ?Sized>(value: &T) -> Vec<u8> {
    to_string(value).into_bytes()
}

/// Serializes a value to pretty JSON bytes.
pub fn to_vec_pretty<T: ToJson + ?Sized>(value: &T) -> Vec<u8> {
    to_string_pretty(value).into_bytes()
}

/// Converts a value to a [`Json`] tree.
pub fn to_value<T: ToJson + ?Sized>(value: &T) -> Json {
    value.to_json()
}

/// Parses a value from JSON text.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&parse(text)?)
}

/// Parses a value from JSON bytes (must be UTF-8).
pub fn from_slice<T: FromJson>(bytes: &[u8]) -> Result<T, JsonError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| JsonError::new(format!("invalid UTF-8 in JSON input: {e}")))?;
    from_str(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trips_through_text() {
        let v = Json::Obj(vec![
            ("a".into(), Json::U64(7)),
            ("b".into(), Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("c".into(), Json::Str("x \"y\" \n z".into())),
            ("d".into(), Json::I64(-3)),
            ("e".into(), Json::F64(1.5)),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn integers_keep_their_lane() {
        assert_eq!(parse("18446744073709551615").unwrap(), Json::U64(u64::MAX));
        assert_eq!(parse("-9223372036854775808").unwrap(), Json::I64(i64::MIN));
        assert_eq!(parse("1.0").unwrap(), Json::F64(1.0));
    }

    #[test]
    fn floats_serialize_with_round_trip_precision() {
        assert_eq!(to_string(&0.1f64), "0.1");
        assert_eq!(to_string(&1.0f64), "1.0");
        assert_eq!(to_string(&f64::NAN), "null");
        let x = 1.0 / 3.0;
        let back: f64 = from_str(&to_string(&x)).unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn pretty_matches_two_space_style() {
        let v = Json::Obj(vec![
            ("a".into(), Json::U64(1)),
            ("b".into(), Json::Arr(vec![Json::U64(2)])),
            ("c".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(
            to_string_pretty(&v),
            "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ],\n  \"c\": {}\n}"
        );
    }

    #[test]
    fn strict_parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "}",
            "[1,]",
            "{\"a\":}",
            "\"\\q\"",
            "01",
            "1e",
            "tru",
            "nul",
            "1 2",
            "\"unterminated",
            "+1",
            "--1",
            "1.",
            ".5",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            parse("\"\\u00e9\\uD83D\\uDE00\"").unwrap(),
            Json::Str("é😀".into())
        );
        // Lone surrogates are rejected.
        assert!(parse("\"\\uD83D\"").is_err());
    }

    #[test]
    fn control_characters_escape() {
        let s = "\u{1}\t\n\"\\";
        let text = to_string(s);
        assert_eq!(text, "\"\\u0001\\t\\n\\\"\\\\\"");
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn error_paths_name_the_field() {
        #[derive(Debug, PartialEq)]
        struct Inner {
            n: u32,
        }
        crate::impl_json! { struct Inner { n } }
        #[derive(Debug, PartialEq)]
        struct Outer {
            inner: Inner,
        }
        crate::impl_json! { struct Outer { inner } }
        let err = from_str::<Outer>("{\"inner\":{\"n\":\"x\"}}").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("Outer.inner"), "{text}");
        assert!(text.contains("Inner.n"), "{text}");
    }
}
