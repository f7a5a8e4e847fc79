//! A minimal JSON reader (the workspace is dependency-free) plus the
//! JSON-described plan format the `mim-analyze` CLI accepts.
//!
//! The plan document mirrors [`Program`] directly:
//!
//! ```json
//! {
//!   "name": "crossed",
//!   "nranks": 2,
//!   "comms": [[0, 1]],
//!   "windows": [0],
//!   "ranks": [
//!     [{"op": "recv", "src": 1},          {"op": "send", "dst": 1, "bytes": 4}],
//!     [{"op": "recv", "src": "any"},      {"op": "send", "dst": 0, "bytes": 4}]
//!   ]
//! }
//! ```
//!
//! * `comms` (optional) lists *additional* communicators (world is always
//!   comm 0; the first entry here becomes comm 1, and so on);
//! * `windows` (optional) lists one communicator id per window;
//! * ops: `send` (`dst`, `bytes`, optional `tag`/`comm`), `recv` (`src` as a
//!   rank or `"any"`, optional `tag` as a number or `"any"`, optional
//!   `comm`), `coll` (`kind`, optional `root`/`comm`), `put`/`get`/`acc`
//!   (`win`, `target`, optional `offset`/`bytes`), `fence` (`win`).

use std::fmt;

use crate::plan::{CollKind, CommId, Op, Program, Src, Tag, WinId};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (f64 covers every integer the plan format needs).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a JSON document.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num(n) if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) => Some(n as u64),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.message)
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError { pos: self.pos, message: msg.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by any plan
                            // file; map them to the replacement character.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = self.text.get(self.pos..).ok_or_else(|| self.err("bad utf8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("bad utf8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        // Only ASCII was consumed, so both ends are character boundaries.
        self.text[start..self.pos].parse::<f64>().map(Json::Num).map_err(|_| self.err("bad number"))
    }
}

/// Decode a JSON plan document (see the module docs for the format).
///
/// # Errors
/// Returns a human-readable description of the first syntax or schema
/// problem.
pub fn program_from_json(text: &str) -> Result<Program, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let name = doc.get("name").and_then(Json::as_str).unwrap_or("json-plan").to_string();
    let nranks =
        doc.get("nranks").and_then(Json::as_u64).ok_or("missing or invalid \"nranks\"")? as usize;
    let mut prog = Program::new(name, nranks);
    if let Some(comms) = doc.get("comms") {
        for (i, c) in comms.as_arr().ok_or("\"comms\" must be an array")?.iter().enumerate() {
            let members: Vec<usize> = c
                .as_arr()
                .ok_or_else(|| format!("comms[{i}] must be an array of ranks"))?
                .iter()
                .map(|m| m.as_u64().map(|v| v as usize))
                .collect::<Option<_>>()
                .ok_or_else(|| format!("comms[{i}] must contain non-negative ranks"))?;
            prog.add_comm(members);
        }
    }
    if let Some(wins) = doc.get("windows") {
        for (i, w) in wins.as_arr().ok_or("\"windows\" must be an array")?.iter().enumerate() {
            let comm =
                w.as_u64().ok_or_else(|| format!("windows[{i}] must be a communicator id"))?;
            prog.add_window(CommId(comm as u32));
        }
    }
    let ranks = doc.get("ranks").and_then(Json::as_arr).ok_or("missing \"ranks\" array")?;
    if ranks.len() != nranks {
        return Err(format!("\"ranks\" has {} entries but nranks = {nranks}", ranks.len()));
    }
    for (r, ops) in ranks.iter().enumerate() {
        let ops = ops.as_arr().ok_or_else(|| format!("ranks[{r}] must be an array of ops"))?;
        for (i, op) in ops.iter().enumerate() {
            let op = decode_op(op).map_err(|e| format!("ranks[{r}][{i}]: {e}"))?;
            prog.push(r, op);
        }
    }
    Ok(prog)
}

fn decode_op(j: &Json) -> Result<Op, String> {
    let kind = j.get("op").and_then(Json::as_str).ok_or("missing \"op\" field")?;
    let comm = CommId(j.get("comm").and_then(Json::as_u64).unwrap_or(0) as u32);
    let u = |field: &str, default: u64| -> Result<u64, String> {
        match j.get(field) {
            None => Ok(default),
            Some(v) => v.as_u64().ok_or_else(|| format!("invalid \"{field}\"")),
        }
    };
    let required = |field: &str| -> Result<u64, String> {
        j.get(field).and_then(Json::as_u64).ok_or_else(|| format!("missing or invalid \"{field}\""))
    };
    match kind {
        "send" => Ok(Op::Send {
            comm,
            dst: required("dst")? as usize,
            tag: u("tag", 0)? as u32,
            bytes: u("bytes", 0)?,
        }),
        "recv" => {
            let src = match j.get("src") {
                Some(Json::Str(s)) if s == "any" => Src::Any,
                Some(v) => {
                    Src::Rank(v.as_u64().ok_or("invalid \"src\" (rank or \"any\")")? as usize)
                }
                None => return Err("missing \"src\" (rank or \"any\")".into()),
            };
            let tag = match j.get("tag") {
                Some(Json::Str(s)) if s == "any" => Tag::Any,
                Some(v) => Tag::Is(v.as_u64().ok_or("invalid \"tag\" (number or \"any\")")? as u32),
                None => Tag::Is(0),
            };
            Ok(Op::Recv { comm, src, tag })
        }
        "coll" => {
            let name = j.get("kind").and_then(Json::as_str).ok_or("missing \"kind\"")?;
            let kind = CollKind::ALL
                .into_iter()
                .find(|k| k.as_str() == name)
                .ok_or_else(|| format!("unknown collective kind {name:?}"))?;
            let root = j.get("root").map(|v| v.as_u64().ok_or("invalid \"root\"")).transpose()?;
            Ok(Op::Coll { comm, kind, root: root.map(|r| r as usize) })
        }
        "put" | "get" | "acc" => {
            let win = WinId(required("win")? as u32);
            let target = required("target")? as usize;
            let offset = u("offset", 0)?;
            let bytes = u("bytes", 0)?;
            Ok(match kind {
                "put" => Op::Put { win, target, offset, bytes },
                "get" => Op::Get { win, target, offset, bytes },
                _ => Op::Accumulate { win, target, offset, bytes },
            })
        }
        "fence" => Ok(Op::Fence { win: WinId(required("win")? as u32) }),
        other => Err(format!("unknown op {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn string(doc: &str) -> Result<String, ParseError> {
        Json::parse(doc).map(|j| j.as_str().expect("a string document").to_string())
    }

    #[test]
    fn multi_byte_scalars_survive_around_every_escape() {
        // 2-, 3- and 4-byte scalars on both sides of each escape kind.
        let escapes = [
            ("\\\"", '"'),
            ("\\\\", '\\'),
            ("\\/", '/'),
            ("\\n", '\n'),
            ("\\t", '\t'),
            ("\\r", '\r'),
            ("\\b", '\u{8}'),
            ("\\f", '\u{c}'),
            ("\\u00e9", 'é'),
            ("\\u20AC", '€'),
        ];
        for (esc, c) in escapes {
            for (before, after) in [("é", "€"), ("€", "𝄞"), ("𝄞", "é"), ("", "𝄞"), ("é", "")]
            {
                let doc = format!("\"{before}{esc}{after}\"");
                assert_eq!(string(&doc), Ok(format!("{before}{c}{after}")), "{doc}");
            }
        }
        assert_eq!(string("\"héllo — 𝄞\""), Ok("héllo — 𝄞".to_string()));
    }

    #[test]
    fn surrogates_become_the_replacement_character() {
        assert_eq!(string(r#""a\ud800b""#), Ok("a\u{fffd}b".to_string()));
        assert_eq!(string(r#""\ud83d\ude00""#), Ok("\u{fffd}\u{fffd}".to_string()));
    }

    #[test]
    fn bad_escapes_are_errors_with_a_position() {
        let err = |doc: &str| string(doc).expect_err(doc);
        // Truncation inside an escape, at every length.
        assert_eq!(err("\"ab\\").message, "unterminated escape");
        assert_eq!(err("\"ab\\").pos, 4);
        for doc in ["\"\\u", "\"\\u1", "\"\\u12", "\"\\u123", "\"é\\u12"] {
            assert_eq!(err(doc).message, "bad \\u escape", "{doc}");
        }
        assert_eq!(err("\"\\u12").pos, 3);
        // Four bytes that are not four hex digits: a sign, a multi-byte
        // scalar inside the window, one straddling its end.
        for doc in ["\"\\u+123\"", "\"\\u00é0\"", "\"\\u012é\"", "\"\\u01𝄞\""] {
            assert_eq!(err(doc).message, "bad \\u escape", "{doc}");
        }
        // A multi-byte scalar as the escape character itself.
        assert_eq!(err("\"\\é\"").message, "unknown escape");
        assert_eq!(err("\"\\x41\"").message, "unknown escape");
    }

    #[test]
    fn truncated_strings_are_errors_not_panics() {
        for doc in ["\"", "\"abc", "\"é", "\"𝄞\\n", "{\"k\":\"v"] {
            let e = Json::parse(doc).expect_err(doc);
            assert_eq!((e.pos, e.message.as_str()), (doc.len(), "unterminated string"), "{doc}");
        }
        // A document cut inside a multi-byte character cannot reach the
        // parser as `&str`; the nearest thing is every prefix of one that
        // does, and none of them may panic.
        let doc = "{\"né𝄞\\u00e9\":[\"€\\\"\",1.5e3,true,null]}";
        for end in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            assert!(Json::parse(&doc[..end]).is_err(), "prefix {end}");
        }
        assert!(Json::parse(doc).is_ok());
    }
}
