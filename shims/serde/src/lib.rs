//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! a minimal serialization facility with serde's surface syntax: a
//! [`Serialize`] trait (here rendering directly to a JSON [`Value`] rather
//! than through a generic `Serializer`), a no-op `Deserialize` derive, and
//! `#[derive(Serialize)]` support via the sibling `serde_derive` shim.
//! The `serde_json` shim builds its `to_string`/`to_value`/`json!` API on
//! top of this crate; [`Value`]'s `Display` is its JSON writer, as in the
//! real `serde_json`.

#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::fmt::{self, Write};

pub use serde_derive::{Deserialize, Serialize};

/// A JSON value tree (the shim's serialization target).
///
/// Objects preserve insertion order so serialized field order matches
/// declaration order, like `serde_json` with default settings.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON booleans.
    Bool(bool),
    /// Integer numbers (covers every integer width used in the workspace).
    Int(i128),
    /// Floating-point numbers.
    Float(f64),
    /// JSON strings.
    String(String),
    /// JSON arrays.
    Array(Vec<Value>),
    /// JSON objects in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value as a `u64`, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, when it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`: floats directly, integers widened.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The entries of an object value, in insertion order.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Looks up a key of an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Compact JSON with `{}`, indented by two spaces with `{:#}` — what
/// `serde_json::Value`'s `Display` writes.  Everything is written straight
/// into the formatter: no number or string is rendered into a temporary.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let indent = f.alternate().then_some(2);
        write_value(self, f, indent, 0)
    }
}

fn write_value(
    value: &Value,
    out: &mut fmt::Formatter<'_>,
    indent: Option<usize>,
    depth: usize,
) -> fmt::Result {
    match value {
        Value::Null => out.write_str("null"),
        Value::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
        Value::Int(i) => write!(out, "{i}"),
        // `Display` for a finite float never uses an exponent and omits the
        // decimal point exactly when the value is integral ("0", not
        // "0.0"); keep the float-ness on the wire so the value re-parses as
        // Float, not Int.
        Value::Float(x) if x.is_finite() && x.fract() == 0.0 => write!(out, "{x}.0"),
        Value::Float(x) if x.is_finite() => write!(out, "{x}"),
        Value::Float(_) => out.write_str("null"),
        Value::String(s) => write_json_string(s, out),
        Value::Array(items) => {
            out.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                newline_indent(out, indent, depth + 1)?;
                write_value(item, out, indent, depth + 1)?;
            }
            if !items.is_empty() {
                newline_indent(out, indent, depth)?;
            }
            out.write_char(']')
        }
        Value::Object(entries) => {
            out.write_char('{')?;
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                newline_indent(out, indent, depth + 1)?;
                write_json_string(key, out)?;
                out.write_str(if indent.is_some() { ": " } else { ":" })?;
                write_value(item, out, indent, depth + 1)?;
            }
            if !entries.is_empty() {
                newline_indent(out, indent, depth)?;
            }
            out.write_char('}')
        }
    }
}

fn newline_indent(
    out: &mut fmt::Formatter<'_>,
    indent: Option<usize>,
    depth: usize,
) -> fmt::Result {
    if let Some(width) = indent {
        out.write_char('\n')?;
        for _ in 0..width * depth {
            out.write_char(' ')?;
        }
    }
    Ok(())
}

/// Writes `s` as a JSON string literal, copying each run of characters
/// that need no escape in one piece.
fn write_json_string(s: &str, out: &mut fmt::Formatter<'_>) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (at, c) in s.char_indices() {
        if c != '"' && c != '\\' && c >= ' ' {
            continue;
        }
        out.write_str(&s[run..at])?;
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c => write!(out, "\\u{:04x}", c as u32)?,
        }
        run = at + c.len_utf8();
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

/// Types that can render themselves as a JSON [`Value`].
pub trait Serialize {
    /// Renders `self` as a JSON value.
    fn to_value(&self) -> Value;

    /// `self` as a JSON value, borrowed when it already is one, so that
    /// writing a [`Value`] does not copy its tree.
    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Owned(self.to_value())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Borrowed(self)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

macro_rules! impl_serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
    )*};
}

impl_serialize_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, i128, isize);

impl Serialize for u128 {
    fn to_value(&self) -> Value {
        // May exceed i128; fall back to a decimal string in that case.
        match i128::try_from(*self) {
            Ok(v) => Value::Int(v),
            Err(_) => Value::String(self.to_string()),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(v) => v.to_value(),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        (**self).as_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_and_vec_round_trip_shapes() {
        assert_eq!(None::<u32>.to_value(), Value::Null);
        assert_eq!(Some(3u32).to_value(), Value::Int(3));
        assert_eq!(
            vec!["a".to_string()].to_value(),
            Value::Array(vec![Value::String("a".into())])
        );
    }

    #[test]
    fn object_indexing_finds_keys() {
        let v = Value::Object(vec![("k".into(), Value::Bool(true))]);
        assert_eq!(v["k"], Value::Bool(true));
        assert_eq!(v["missing"], Value::Null);
    }
}
