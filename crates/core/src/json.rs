//! The one JSON format of the repository's machine-readable files: worker
//! result records, the grid manifest, the JSONL metric stream and the
//! `BENCH_*.json` reports (a baseline is an earlier report). Each is built
//! as a [`Json`] value, written by its compact `Display` and read back
//! with the strict [`Json::parse`] (the build is offline, so no serde).
//!
//! A number keeps its literal text, so a `u64` past 2⁵³ reads back
//! exactly, and every finite `f64` is written in its shortest round-trip
//! form; non-finite floats have no JSON form and are written as `null`.
//! The parser accepts RFC 8259 JSON only: no trailing commas, leading
//! zeros, `.5`, `1.`, `NaN`, lone surrogates, raw control characters or
//! trailing data.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Arrays and objects nested deeper than this are refused, so a hostile
/// file cannot exhaust the parser's stack.
const MAX_DEPTH: usize = 128;

/// A JSON value. Object members keep their order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its literal text (numbers compare by that text).
    Number(String),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, members in document order.
    Object(Vec<(String, Json)>),
}

/// A parse or decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// An object with `members`, in the given order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser { text, pos: 0 };
        let value = parser.value(0)?;
        parser.skip_whitespace();
        if parser.pos < text.len() {
            return Err(parser.error("trailing data after the value"));
        }
        Ok(value)
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let members = self.as_object()?;
        members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The first value stored under `key` anywhere in this value, in
    /// document order.
    pub fn find(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => {
                members
                    .iter()
                    .find_map(|(k, v)| if k == key { Some(v) } else { v.find(key) })
            }
            Json::Array(items) => items.iter().find_map(|item| item.find(key)),
            _ => None,
        }
    }

    /// The member `key` decoded as `T`, or an error naming the key.
    pub fn read<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        let value = self
            .get(key)
            .ok_or_else(|| JsonError(format!("missing `{key}`")))?;
        T::from_json(value).map_err(|e| JsonError(format!("`{key}`: {e}")))
    }

    /// The number's literal parsed as `T`: an `f64` is correctly rounded,
    /// an integer type needs an integer literal in its range.
    pub fn number<T: std::str::FromStr>(&self) -> Option<T> {
        match self {
            Json::Number(literal) => literal.parse().ok(),
            _ => None,
        }
    }

    /// The string's contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The array's items.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object's members, in document order.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// Types decoded from a [`Json`] value (see [`Json::read`]).
pub trait FromJson: Sized {
    /// Decodes `json`, or says what it expected instead.
    fn from_json(json: &Json) -> Result<Self, JsonError>;
}

/// `From<T> for Json` and [`FromJson`] for a scalar type: how it is
/// written, how it is read back, and what a mismatch expected.
macro_rules! json_scalar {
    ($($ty:ty: $encode:expr, $decode:expr, $what:literal;)*) => {$(
        impl From<$ty> for Json {
            fn from(value: $ty) -> Self {
                $encode(value)
            }
        }

        impl FromJson for $ty {
            fn from_json(json: &Json) -> Result<Self, JsonError> {
                $decode(json).ok_or_else(|| JsonError(concat!("expected ", $what).to_string()))
            }
        }
    )*};
}

json_scalar! {
    // The shortest literal that reads back as the same bits; JSON has no
    // NaN or infinities.
    f64: |v: f64| if v.is_finite() { Json::Number(format!("{v:?}")) } else { Json::Null },
        Json::number::<f64>, "a number";
    u64: |v: u64| Json::Number(v.to_string()), Json::number::<u64>, "an unsigned integer";
    usize: |v: usize| Json::Number(v.to_string()), Json::number::<usize>, "an unsigned integer";
    bool: Json::Bool, |json: &Json| match json {
        Json::Bool(b) => Some(*b),
        _ => None,
    }, "a boolean";
    String: Json::String, |json: &Json| json.as_str().map(str::to_string), "a string";
    i32: |v: i32| Json::Number(v.to_string()), Json::number::<i32>, "an integer";
}

impl FromJson for Json {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(json.clone())
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Null => Ok(None),
            json => T::from_json(json).map(Some),
        }
    }
}

impl<T: FromJson> FromJson for BTreeMap<String, T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let members = json
            .as_object()
            .ok_or_else(|| JsonError("expected an object".to_string()))?;
        members
            .iter()
            .map(|(key, value)| {
                let value = T::from_json(value).map_err(|e| JsonError(format!("`{key}`: {e}")))?;
                Ok((key.clone(), value))
            })
            .collect()
    }
}

/// Gives a struct a JSON form: an object keyed by field name, through
/// `From<T> for Json` and [`FromJson`]. Wrap the struct's definition in
/// it, so every field is carried, or list the fields of a struct defined
/// elsewhere (`json_struct!(Counts { a, b })`); the exhaustive destructure
/// and the struct literal then make a field missing from the list a
/// compile error.
#[macro_export]
macro_rules! json_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $ty:ident {
            $($(#[$field_meta:meta])* $field_vis:vis $field:ident: $field_ty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $ty {
            $($(#[$field_meta])* $field_vis $field: $field_ty),*
        }
        $crate::json_struct!($ty { $($field),* });
    };
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl From<$ty> for $crate::json::Json {
            fn from(value: $ty) -> Self {
                let $ty { $($field),* } = value;
                $crate::json::Json::object([$((stringify!($field), $field.into())),*])
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(json: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok($ty { $($field: json.read(stringify!($field))?),* })
            }
        }
    };
}

impl From<&str> for Json {
    fn from(value: &str) -> Self {
        Json::String(value.to_string())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Self {
        value.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Self {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<BTreeMap<String, T>> for Json {
    fn from(map: BTreeMap<String, T>) -> Self {
        Json::object(map.into_iter().map(|(key, value)| (key, value.into())))
    }
}

/// The compact form: one line, no whitespace between tokens.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Number(literal) => f.write_str(literal),
            Json::String(s) => write_string(f, s),
            Json::Array(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    write!(f, "{}{item}", if i == 0 { "" } else { "," })?;
                }
                f.write_char(']')
            }
            Json::Object(members) => {
                f.write_char('{')?;
                for (i, (key, value)) in members.iter().enumerate() {
                    f.write_str(if i == 0 { "" } else { "," })?;
                    write_string(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if c < ' ' => write!(f, "\\u{:04x}", u32::from(c))?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> JsonError {
        JsonError(format!("byte {}: {what}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let next = self.peek() == Some(byte);
        self.pos += usize::from(next);
        next
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.skip_whitespace();
        let literal = |p: &mut Self, word: &str, value: Json| {
            if p.text[p.pos..].starts_with(word) {
                p.pos += word.len();
                Ok(value)
            } else {
                Err(p.error("unexpected character"))
            }
        };
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => literal(self, "null", Json::Null),
            Some(b't') => literal(self, "true", Json::Bool(true)),
            Some(b'f') => literal(self, "false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[' | b'{') if depth >= MAX_DEPTH => Err(self.error("nested too deeply")),
            Some(b'[') => Ok(Json::Array(self.items(b']', |p| p.value(depth + 1))?)),
            Some(b'{') => Ok(Json::Object(self.items(b'}', |p| {
                if p.peek() != Some(b'"') {
                    return Err(p.error("expected a string key"));
                }
                let key = p.string()?;
                p.skip_whitespace();
                if !p.eat(b':') {
                    return Err(p.error("expected `:`"));
                }
                Ok((key, p.value(depth + 1)?))
            })?)),
            Some(_) => Err(self.error("unexpected character")),
        }
    }

    /// The comma-separated items after an opening bracket, through the
    /// matching `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            self.skip_whitespace();
            items.push(item(self)?);
            self.skip_whitespace();
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return Err(self.error("expected `,` or a closing bracket"));
            }
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        let leading_zero = self.peek() == Some(b'0');
        let integer = self.digits();
        let mut ok = integer > 0 && !(leading_zero && integer > 1);
        if self.eat(b'.') {
            ok &= self.digits() > 0;
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            ok &= self.digits() > 0;
        }
        if !ok {
            return Err(self.error("malformed number"));
        }
        Ok(Json::Number(self.text[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let c = self.text[self.pos..]
                .chars()
                .next()
                .ok_or_else(|| self.error("unterminated string"))?;
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let escape = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated string"))?;
                    self.pos += 1;
                    out.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.error("bad escape")),
                    });
                }
                c if c < ' ' => return Err(self.error("raw control character in a string")),
                c => out.push(c),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    /// The character of a `\uXXXX` escape (after its `\u`), joining a
    /// surrogate pair; a lone surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.error("lone surrogate"));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).ok_or_else(|| self.error("lone surrogate"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: a dependency-free stream of well-mixed `u64`s.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn round_trip(value: &Json) -> Json {
        Json::parse(&value.to_string()).expect("written JSON parses")
    }

    #[test]
    fn random_finite_f64_bit_patterns_round_trip() {
        let mut state = 0x5EED;
        let specials = [0.0, -0.0, f64::MIN_POSITIVE, 5e-324, f64::MAX, f64::MIN];
        let random = (0..200_000).map(|_| f64::from_bits(splitmix(&mut state)));
        for value in specials.into_iter().chain(random) {
            if !value.is_finite() {
                assert_eq!(Json::from(value), Json::Null);
                continue;
            }
            let back = round_trip(&Json::from(value))
                .number::<f64>()
                .expect("a number");
            assert_eq!(back.to_bits(), value.to_bits(), "{value:?}");
        }
    }

    #[test]
    fn integers_keep_their_literal_past_two_to_the_53() {
        let json = round_trip(&Json::from(u64::MAX));
        assert_eq!(json.to_string(), "18446744073709551615");
        assert_eq!(json.number::<u64>(), Some(u64::MAX));
        let past_53 = Json::parse("9007199254740993").unwrap();
        assert_eq!(past_53.number::<u64>(), Some((1 << 53) + 1));
        assert_eq!(Json::parse("1.5").unwrap().number::<u64>(), None);
        assert_eq!(Json::parse("-1").unwrap().number::<u64>(), None);
        assert_eq!(Json::parse("1.5E9").unwrap().number::<f64>(), Some(1.5e9));
        assert_eq!(Json::parse("1e+6").unwrap().number::<f64>(), Some(1e6));
        assert_eq!(Json::parse("-0.0e-0").unwrap().number::<f64>(), Some(-0.0));
    }

    #[test]
    fn strings_round_trip_every_escape_class() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        let text = format!("quote \" backslash \\ slash / {controls} del \u{7f} é 𝄞 \u{2028}");
        let json = Json::from(text.as_str());
        let written = json.to_string();
        assert!(!written.contains('\n'), "one line: {written}");
        assert!(written.contains("\\u0000") && written.contains("\\u001f"));
        assert_eq!(round_trip(&json).as_str(), Some(text.as_str()));
        let escaped = r#""\" \\ \/ \b \f \n \r \t é 𝄞 𝄞""#;
        assert_eq!(
            Json::parse(escaped).unwrap().as_str(),
            Some("\" \\ / \u{8} \u{c} \n \r \t é 𝄞 𝄞")
        );
    }

    #[test]
    fn documents_round_trip_and_keep_member_order() {
        let json = Json::object([
            ("z", Json::from(1u64)),
            ("a", Json::from(vec![Json::Null, true.into(), 2.5.into()])),
            ("m", Json::object([("k", Json::from("v"))])),
            ("e", Json::Array(Vec::new())),
            ("o", Json::object(Vec::<(String, Json)>::new())),
        ]);
        let compact = r#"{"z":1,"a":[null,true,2.5],"m":{"k":"v"},"e":[],"o":{}}"#;
        assert_eq!(json.to_string(), compact);
        assert_eq!(round_trip(&json), json);
        let spaced = " {\n\t\"z\" : 1 , \"a\" : [ null , true , 2.5 ] ,\r\n \"m\":{\"k\":\"v\"},\"e\":[ ],\"o\":{ } } ";
        assert_eq!(Json::parse(spaced).unwrap(), json);
    }

    #[test]
    fn lookups_and_typed_reads() {
        let json = Json::parse(r#"{"a": [{"x": 1}], "x": 2, "m": {"k": {"x": "s"}}}"#).unwrap();
        assert_eq!(
            json.find("x").and_then(Json::number::<u64>),
            Some(1),
            "document order"
        );
        assert_eq!(json.get("x").and_then(Json::number::<u64>), Some(2));
        assert_eq!(json.find("y"), None);
        assert_eq!(json.read::<u64>("x"), Ok(2));
        assert_eq!(json.read::<u64>("y").unwrap_err().0, "missing `y`");
        assert_eq!(
            json.read::<String>("x").unwrap_err().0,
            "`x`: expected a string"
        );
        let nested = json.read::<BTreeMap<String, BTreeMap<String, u64>>>("m");
        assert_eq!(
            nested.unwrap_err().0,
            "`m`: `k`: `x`: expected an unsigned integer"
        );
    }

    #[test]
    fn malformed_input_is_refused() {
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let cases: &[(&str, &str)] = &[
            ("[1,]", "trailing comma in an array"),
            (r#"{"a":1,}"#, "trailing comma in an object"),
            ("01", "leading zero"),
            ("-01", "negative leading zero"),
            (".5", "bare fraction"),
            ("1.", "empty fraction"),
            ("1e", "empty exponent"),
            ("-", "bare minus"),
            ("+1", "plus sign"),
            (r#""\ud800""#, "lone high surrogate"),
            (r#""\ud800A""#, "high surrogate without a low one"),
            (r#""\udc00""#, "lone low surrogate"),
            ("\"a\u{1}b\"", "raw control character"),
            ("\"a\nb\"", "raw newline"),
            (r#""\x""#, "bad escape"),
            (r#""\u12""#, "short unicode escape"),
            ("\"abc", "unterminated string"),
            ("{} x", "trailing data"),
            ("NaN", "NaN"),
            ("Infinity", "Infinity"),
            ("[1 2]", "missing comma"),
            (r#"{"a" 1}"#, "missing colon"),
            ("{a:1}", "unquoted key"),
            ("tru", "truncated literal"),
            ("", "empty input"),
            (&deep, "nesting past the depth limit"),
        ];
        for (input, why) in cases {
            assert!(Json::parse(input).is_err(), "{why}: {input:?} parsed");
        }
        let within = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&within).is_ok());
    }
}
