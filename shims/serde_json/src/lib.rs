//! Offline stand-in for the `serde_json` crate, layered on the `serde` shim.
//!
//! Provides [`Value`] (re-exported from the shim `serde`, with the real
//! crate's `Display`: compact, or indented with `{:#}`), [`to_value`],
//! [`to_string`], [`to_string_pretty`], a [`from_str`] parser (enough JSON to
//! round-trip this workspace's own output — the service's request frames,
//! and `benchmark/`'s result files when it compares two runs), and a
//! [`json!`] macro
//! supporting the flat `json!({ "key": expr, ... })` object form (plus bare
//! expressions and `json!([ ... ])` arrays).

#![forbid(unsafe_code)]

use std::fmt;

pub use serde::Value;
use serde::Serialize;

/// Serialization error (the shim's direct-to-value encoding cannot fail, but
/// the `Result` API mirrors the real crate).
#[derive(Debug, Clone)]
pub struct Error(());

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serialization error")
    }
}

impl std::error::Error for Error {}

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize>(value: T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Serializes to a compact JSON string (a [`Value`] is written in place,
/// not copied first).
pub fn to_string<T: Serialize>(value: T) -> Result<String, Error> {
    Ok(value.as_value().to_string())
}

/// Serializes to an indented JSON string.
pub fn to_string_pretty<T: Serialize>(value: T) -> Result<String, Error> {
    Ok(format!("{:#}", value.as_value()))
}

/// Parses a JSON document into a [`Value`] tree.
///
/// Supports the full value grammar this workspace emits: objects, arrays,
/// strings with `\uXXXX` and the common escapes, integers, floats (including
/// exponents), booleans, and `null`.  Trailing garbage is an error.
pub fn from_str(input: &str) -> Result<Value, Error> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error(()));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), Error> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(Error(()))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                entries.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(entries));
                    }
                    _ => return Err(Error(())),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(Error(())),
                }
            }
        }
        Some(b'"') => parse_string(bytes, pos).map(Value::String),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(_) => parse_number(bytes, pos),
        None => Err(Error(())),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = bytes.get(*pos + 1..*pos + 5).ok_or(Error(()))?;
                        let hex = std::str::from_utf8(hex).map_err(|_| Error(()))?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| Error(()))?;
                        // Surrogate pairs don't occur in this workspace's
                        // output; reject rather than mis-decode.
                        out.push(char::from_u32(code).ok_or(Error(()))?);
                        *pos += 4;
                    }
                    _ => return Err(Error(())),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences intact).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| Error(()))?;
                let c = rest.chars().next().ok_or(Error(()))?;
                out.push(c);
                *pos += c.len_utf8();
            }
            None => return Err(Error(())),
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| Error(()))?;
    if text.is_empty() || text == "-" {
        return Err(Error(()));
    }
    if is_float {
        text.parse::<f64>().map(Value::Float).map_err(|_| Error(()))
    } else {
        text.parse::<i128>().map(Value::Int).map_err(|_| Error(()))
    }
}

/// Builds a [`Value`] from a flat object, array, or single expression.
#[macro_export]
macro_rules! json {
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( ($key.to_string(), $crate::to_value(&$value).expect("shim to_value is infallible")) ),*
        ])
    };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![
            $( $crate::to_value(&$item).expect("shim to_value is infallible") ),*
        ])
    };
    (null) => { $crate::Value::Null };
    ($other:expr) => {
        $crate::to_value(&$other).expect("shim to_value is infallible")
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering_matches_serde_json_shape() {
        let v = json!({ "exact": false, "query": "a·(b+c)", "n": 3 });
        let s = to_string(&v).unwrap();
        assert_eq!(s, "{\"exact\":false,\"query\":\"a·(b+c)\",\"n\":3}");
    }

    #[test]
    fn pretty_rendering_is_indented_and_reparsable_shape() {
        let v = json!({ "rows": vec![json!({ "k": 1 })] });
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains("\n  \"rows\": ["));
    }

    #[test]
    fn escapes_quotes_and_controls() {
        let s = to_string("a\"b\\c\nd").unwrap();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn index_and_eq_work_through_the_reexport() {
        let v = json!({ "flag": true });
        assert_eq!(v["flag"], Value::Bool(true));
    }

    #[test]
    fn from_str_round_trips_own_output() {
        let v = json!({
            "name": "rpq eval |V|=2000",
            "dense_ms": 12.5,
            "count": 42,
            "neg": -3,
            "flags": vec![true, false],
            "nested": json!({ "unicode": "a·b\nε", "none": Value::Null }),
        });
        for rendered in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            let parsed = from_str(&rendered).expect("own output parses");
            assert_eq!(parsed, v, "round trip through {rendered}");
        }
        // Exponent floats parse; numeric accessors widen integers.
        assert_eq!(from_str("1.5e3").unwrap().as_f64(), Some(1500.0));
        assert_eq!(v["count"].as_f64(), Some(42.0));
        assert_eq!(v["flags"].as_array().map(<[Value]>::len), Some(2));
    }

    #[test]
    fn integral_floats_stay_floats_on_the_wire() {
        // A `Float(0.0)` must render as "0.0", not "0" — otherwise the value
        // re-parses as Int and snapshot diffs see the type flip.
        let v = json!({ "rejection_rate": 0.0, "neg": -0.0, "big": 1e21, "half": 0.5 });
        let s = to_string(&v).unwrap();
        assert!(s.contains("\"rejection_rate\":0.0"), "got {s}");
        assert!(s.contains("\"half\":0.5"), "got {s}");
        let parsed = from_str(&s).unwrap();
        assert!(matches!(parsed["rejection_rate"], Value::Float(_)));
        assert!(matches!(parsed["neg"], Value::Float(_)));
        assert!(matches!(parsed["big"], Value::Float(_)));
        assert_eq!(parsed, v);
    }

    #[test]
    fn integers_render_exactly_to_the_extremes_of_i128() {
        for i in [
            0,
            1,
            -1,
            9,
            10,
            -10,
            i128::from(i64::MIN),
            i128::from(u64::MAX),
            i128::MIN,
            i128::MAX,
        ] {
            let rendered = to_string(Value::Int(i)).unwrap();
            assert_eq!(rendered, i.to_string());
            assert_eq!(from_str(&rendered).unwrap(), Value::Int(i));
        }
    }

    #[test]
    fn floats_render_as_format_plus_a_decimal_point_when_integral() {
        // The rendering `Display` replaced: format, then add ".0" unless the
        // text already reads as a float.
        let formatted = |x: f64| {
            let text = format!("{x}");
            if text.contains(['.', 'e', 'E']) {
                text
            } else {
                text + ".0"
            }
        };
        let mut x = 1.0e-9_f64;
        let mut samples = vec![0.0, -0.0, 0.5, -2.0, 1e21, 1e300, f64::MAX, f64::MIN_POSITIVE];
        while x < 1e25 {
            samples.extend([x, -x, x.trunc(), x * 1.000_000_1]);
            x *= 7.3;
        }
        for x in samples {
            assert_eq!(to_string(Value::Float(x)).unwrap(), formatted(x), "{x:e}");
        }
        assert_eq!(to_string(Value::Float(f64::NAN)).unwrap(), "null");
        assert_eq!(to_string(Value::Float(f64::NEG_INFINITY)).unwrap(), "null");
    }

    #[test]
    fn nested_values_round_trip_through_both_renderings() {
        let v = Value::Object(vec![
            (
                "floats".into(),
                json!([0.5, -0.0, 1e21, 1e-7, f64::MAX, f64::MIN_POSITIVE, -3.25]),
            ),
            ("escapes".into(), json!("q\"b\\s\n\r\t\u{1}\u{1f}/é·ε")),
            ("empty".into(), json!([Value::Array(vec![]), Value::Object(vec![]), ""])),
            (
                "q\"key\n".into(),
                Value::Object(vec![(
                    String::new(),
                    json!([Value::Null, true, i128::MIN, i128::MAX, -1]),
                )]),
            ),
        ]);
        for rendered in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            assert_eq!(from_str(&rendered).unwrap(), v, "round trip through {rendered}");
        }
        assert_eq!(to_string(&v).unwrap(), v.to_string());
        assert_eq!(to_string_pretty(&v).unwrap(), format!("{v:#}"));
    }

    #[test]
    fn from_str_rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "12 34", "\"unterminated", "truthy"] {
            assert!(from_str(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn from_str_handles_escapes_and_empty_containers() {
        let v = from_str(r#"{"s":"a\"b\\cé","arr":[],"obj":{}}"#).unwrap();
        assert_eq!(v["s"].as_str(), Some("a\"b\\cé"));
        assert_eq!(v["arr"], Value::Array(vec![]));
        assert_eq!(v["obj"], Value::Object(vec![]));
    }
}
