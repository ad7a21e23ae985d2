//! On-disk trace codecs.
//!
//! Two CSV dialects are supported, one per trace family analyzed in the
//! paper:
//!
//! * [`alicloud`] — the format of the Alibaba `block-traces` release:
//!   `device_id,opcode,offset,length,timestamp`, with `opcode` in
//!   `{R, W}` and `timestamp` in microseconds.
//! * [`msrc`] — the format of the MSR Cambridge release on SNIA:
//!   `Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime`, with
//!   `Timestamp`/`ResponseTime` in Windows 100 ns ticks and `Type` in
//!   `{Read, Write}`.
//!
//! Both readers are plain-`Iterator` line parsers over any
//! [`std::io::BufRead`] source, yield `Result<_, TraceError>` items with
//! one-based line numbers on failure, skip blank lines, and never
//! allocate per record on the happy path (MSRC hostname interning aside).
//!
//! In addition to the CSV dialects, [`cbt`] implements the **columnar
//! binary trace format**: a compact delta/varint-encoded representation
//! that a CSV corpus is converted to once (via `cbs-convert`) and then
//! re-ingested at a large multiple of CSV decode speed.

pub mod alicloud;
pub mod cbt;
pub mod files;
pub mod msrc;
pub mod parallel;

use crate::error::ParseRecordError;

/// Splits `line` on commas and returns field `index`, or a
/// `MissingField` error naming it.
pub(crate) fn field<'a>(
    fields: &mut std::str::Split<'a, char>,
    index: usize,
    name: &'static str,
) -> Result<&'a str, ParseRecordError> {
    fields
        .next()
        .map(str::trim)
        .ok_or(ParseRecordError::MissingField { index, name })
}

/// Parses an unsigned integer field.
pub(crate) fn parse_u64(text: &str, name: &'static str) -> Result<u64, ParseRecordError> {
    text.parse::<u64>()
        .map_err(|_| ParseRecordError::InvalidNumber {
            name,
            text: text.to_owned(),
        })
}

/// Parses a request-length field into `u32`, reporting overflow as
/// `OutOfRange` (the real corpora never exceed a few MiB per request).
pub(crate) fn parse_len(text: &str, name: &'static str) -> Result<u32, ParseRecordError> {
    let wide = parse_u64(text, name)?;
    u32::try_from(wide).map_err(|_| ParseRecordError::OutOfRange {
        name,
        text: text.to_owned(),
    })
}

/// Rejects a request whose byte range `offset..offset + len` runs past
/// `u64::MAX`, reporting it as `OutOfRange` on the length field `name`:
/// every block span and end offset downstream relies on the sum fitting.
pub(crate) fn check_extent(
    offset: u64,
    len: u32,
    name: &'static str,
) -> Result<(), ParseRecordError> {
    match offset.checked_add(u64::from(len)) {
        Some(_) => Ok(()),
        None => Err(ParseRecordError::OutOfRange {
            name,
            text: format!("{len} at offset {offset}"),
        }),
    }
}

// --- byte-slice fast path -------------------------------------------------
//
// The parallel decoder parses fields straight out of the input buffer,
// skipping the per-line `String` allocation and UTF-8 validation of the
// `str` path. Semantics match the `str` parsers for ASCII input (the
// only kind the corpora contain): fields are trimmed of ASCII
// whitespace, and error payloads carry the lossily-decoded field text.

/// Trims ASCII whitespace from both ends of a byte field.
pub(crate) fn trim_ascii(mut bytes: &[u8]) -> &[u8] {
    while let [first, rest @ ..] = bytes {
        if first.is_ascii_whitespace() {
            bytes = rest;
        } else {
            break;
        }
    }
    while let [rest @ .., last] = bytes {
        if last.is_ascii_whitespace() {
            bytes = rest;
        } else {
            break;
        }
    }
    bytes
}

/// Splits off the next comma-separated field of `line`, trimmed, or a
/// `MissingField` error naming it.
pub(crate) fn field_bytes<'a>(
    fields: &mut std::slice::Split<'a, u8, impl FnMut(&u8) -> bool>,
    index: usize,
    name: &'static str,
) -> Result<&'a [u8], ParseRecordError> {
    fields
        .next()
        .map(trim_ascii)
        .ok_or(ParseRecordError::MissingField { index, name })
}

/// Parses an unsigned decimal integer directly from bytes.
pub(crate) fn parse_u64_bytes(bytes: &[u8], name: &'static str) -> Result<u64, ParseRecordError> {
    let invalid = || ParseRecordError::InvalidNumber {
        name,
        text: String::from_utf8_lossy(bytes).into_owned(),
    };
    // `str::parse::<u64>` accepts one leading `+`.
    let digits = match bytes {
        [b'+', rest @ ..] => rest,
        _ => bytes,
    };
    if digits.is_empty() || digits.len() > 20 {
        // 20 digits can overflow u64; `str::parse` rejects those too.
        return Err(invalid());
    }
    let mut value: u64 = 0;
    for &b in digits {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return Err(invalid());
        }
        value = value
            .checked_mul(10)
            .and_then(|v| v.checked_add(u64::from(digit)))
            .ok_or_else(invalid)?;
    }
    Ok(value)
}

/// Byte-slice counterpart of [`parse_len`].
pub(crate) fn parse_len_bytes(bytes: &[u8], name: &'static str) -> Result<u32, ParseRecordError> {
    let wide = parse_u64_bytes(bytes, name)?;
    u32::try_from(wide).map_err(|_| ParseRecordError::OutOfRange {
        name,
        text: String::from_utf8_lossy(bytes).into_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trim_ascii_matches_str_trim() {
        for s in ["", " ", "a", " a ", "\t4096\r", "  1 2  "] {
            assert_eq!(trim_ascii(s.as_bytes()), s.trim().as_bytes(), "{s:?}");
        }
    }

    #[test]
    fn parse_u64_bytes_matches_str_parse() {
        for s in [
            "0",
            "1",
            "4096",
            "18446744073709551615",
            "1577808000000046",
            "+1",
        ] {
            assert_eq!(
                parse_u64_bytes(s.as_bytes(), "f").unwrap(),
                s.parse::<u64>().unwrap()
            );
        }
        for s in [
            "",
            "abc",
            "-1",
            "1.5",
            "18446744073709551616",
            "1e9",
            "+",
            "++1",
        ] {
            assert!(parse_u64_bytes(s.as_bytes(), "f").is_err(), "{s:?}");
            assert!(s.parse::<u64>().is_err(), "{s:?}");
        }
    }

    #[test]
    fn parse_len_bytes_reports_overflow() {
        assert!(matches!(
            parse_len_bytes(b"99999999999", "length"),
            Err(ParseRecordError::OutOfRange { name: "length", .. })
        ));
        assert_eq!(parse_len_bytes(b"4096", "length").unwrap(), 4096);
    }
}
