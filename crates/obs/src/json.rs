//! A minimal recursive-descent JSON parser — just enough for the two
//! dependency-free consumers in the workspace: `mnc-bench` reading
//! `BENCH_MNC.json` baselines back in, and `mnc-served` parsing `/v1`
//! request bodies. Accepts strict RFC 8259 JSON; numbers parse as `f64`,
//! which is lossless for everything both emit.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (the benchmark never exceeds f64 precision).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with sorted keys.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member lookup for objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an object map, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. Far above any document
/// the workspace emits or accepts (a `/v1` body nests four levels), and low
/// enough that the recursive descent stays well inside a 2 MiB thread
/// stack: deeper input is an `Err`, never a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed). Arrays
/// and objects nested deeper than [`MAX_DEPTH`] are rejected.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, MAX_DEPTH)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
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
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

/// `depth` is how many more levels of nesting may still be opened.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == 0 => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_object(b, pos, depth - 1),
        Some(b'[') => parse_array(b, pos, depth - 1),
        Some(b'"') => Ok(JsonValue::String(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    s.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| format!("bad number `{s}` at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash in one piece. Both
        // are ASCII, so the run ends on a char boundary of the (valid UTF-8)
        // input and each byte is validated once: linear in the string.
        let start = *pos;
        while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
            *pos += 1;
        }
        out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            _ => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Surrogate pairs are not emitted by our writers;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        map.insert(key, parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(map));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a": 1.5, "b": [true, null, "x\"y"], "c": {"d": -2e3}}"#).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_f64), Some(1.5));
        let b = match v.get("b") {
            Some(JsonValue::Array(items)) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(b[0], JsonValue::Bool(true));
        assert_eq!(b[1], JsonValue::Null);
        assert_eq!(b[2].as_str(), Some("x\"y"));
        assert_eq!(
            v.get("c")
                .and_then(|c| c.get("d"))
                .and_then(JsonValue::as_f64),
            Some(-2000.0)
        );
    }

    #[test]
    fn round_trips_the_obs_escapes() {
        use crate::export::json_escape;
        let original = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("{{\"s\": \"{}\"}}", json_escape(original));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some(original));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"open", "{\"a\":}"] {
            assert!(parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn strings_mix_runs_escapes_and_multibyte_chars() {
        let v = parse(r#"["", "plain", "é€😀", "aéb\n\"c\\", "\/\b\f\r\t", "\ud800"]"#).unwrap();
        let expected = [
            "",
            "plain",
            "é€😀",
            "aéb\n\"c\\",
            "/\u{8}\u{c}\r\t",
            "\u{FFFD}",
        ];
        let JsonValue::Array(items) = v else {
            panic!("expected array")
        };
        let got: Vec<_> = items.iter().map(|s| s.as_str().unwrap()).collect();
        assert_eq!(got, expected);
        for bad in [r#""\x""#, r#""\u12""#, r#""ab\"#, r#""ab"#] {
            assert!(parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_without_exhausting_the_stack() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&arrays(MAX_DEPTH + 1)).is_err());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
        // A hostile 1 MiB body of `[` on a connection-sized (2 MiB) thread
        // stack is an error, not an abort.
        let hostile = "[".repeat(1 << 20);
        let res = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&hostile).is_err())
            .unwrap()
            .join();
        assert_eq!(res.ok(), Some(true));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Best of several runs, so a preempted run does not skew the ratio.
        let best_secs = |len: usize| {
            let doc = format!("\"{}\"", "aé\\n€".repeat(len / 8));
            (0..7)
                .map(|_| {
                    let t = std::time::Instant::now();
                    let v = parse(&doc).unwrap();
                    let secs = t.elapsed().as_secs_f64();
                    assert_eq!(v.as_str().map(str::len), Some(len / 8 * 7));
                    secs
                })
                .fold(f64::INFINITY, f64::min)
        };
        let small = best_secs(64 << 10);
        let large = best_secs(1 << 20);
        assert!(
            large <= 32.0 * small,
            "16x the input took {:.1}x the time ({small:.6}s -> {large:.6}s)",
            large / small
        );
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), JsonValue::Object(BTreeMap::new()));
        assert_eq!(parse("[]").unwrap(), JsonValue::Array(Vec::new()));
        assert_eq!(parse("  42 ").unwrap(), JsonValue::Number(42.0));
    }
}
