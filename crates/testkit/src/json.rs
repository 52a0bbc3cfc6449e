//! Minimal JSON syntax validation.
//!
//! The workspace hand-rolls all of its JSON artifacts (sweep aggregates,
//! `BENCH_lab.json`, Chrome traces) rather than pulling in a serializer,
//! so the tests need an independent check that what we emit actually
//! *parses*. This is a strict RFC 8259 recursive-descent validator — it
//! builds no values, it only accepts or rejects, with a byte offset on
//! rejection.

/// Validates that `input` is one complete JSON value.
///
/// Returns `Err` with a human-readable message including the byte offset
/// of the first violation.
pub(crate) fn validate_json(input: &str) -> Result<(), String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

/// Panics with `name` and the parse error if `input` is not valid JSON.
pub fn assert_valid_json(name: &str, input: &str) {
    if let Err(e) = validate_json(input) {
        panic!("{name}: invalid JSON — {e}");
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, "true"),
        Some(b'f') => literal(b, pos, "false"),
        Some(b'n') => literal(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *pos)),
        None => Err(format!("unexpected end of input at byte {pos}")),
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("malformed literal at byte {pos} (expected {lit})"))
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume opening quote
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            match b.get(*pos) {
                                Some(h) if h.is_ascii_hexdigit() => *pos += 1,
                                _ => {
                                    return Err(format!("bad \\u escape at byte {pos}"));
                                }
                            }
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            0x00..=0x1f => return Err(format!("raw control byte in string at {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    // Integer part: a lone 0, or a nonzero digit followed by more digits.
    match b.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(c) if c.is_ascii_digit() => {
            while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
                *pos += 1;
            }
        }
        _ => return Err(format!("malformed number at byte {start}")),
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            return Err(format!("malformed fraction at byte {pos}"));
        }
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            return Err(format!("malformed exponent at byte {pos}"));
        }
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "null",
            "true",
            "-0.5e+3",
            "\"a\\u00e9\\n\"",
            "[]",
            "{}",
            "[1, 2, [3, {\"k\": null}]]",
            "{\"a\": {\"b\": [1.5, \"x\"]}, \"c\": false}",
            "  {\n\"pretty\" : [ 1 , 2 ]\n}  ",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("rejected {ok:?}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{'a': 1}",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad\\q\"",
            "nul",
            "[1] trailing",
            "\"tab\there\"",
        ] {
            assert!(
                validate_json(bad).is_err(),
                "accepted malformed input {bad:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid JSON")]
    fn assert_valid_json_panics_with_name() {
        assert_valid_json("artifact", "{broken");
    }
}
