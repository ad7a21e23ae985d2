//! Codec for the MSR Cambridge block-trace CSV format.
//!
//! Rows are `Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime`:
//!
//! ```text
//! 128166372003061629,hm,1,Read,383496192,32768,113736
//! 128166372016382155,src1,0,Write,8192,4096,23855
//! ```
//!
//! * `Timestamp` and `ResponseTime` — Windows 100 ns ticks (the former
//!   since 1601-01-01, the latter a duration);
//! * `Hostname` + `DiskNumber` — together identify a volume (e.g. the
//!   paper's `src1_0`); the reader assigns each distinct pair a dense
//!   [`VolumeId`] via [`VolumeRegistry`];
//! * `Type` — `Read` or `Write`;
//! * `Offset`, `Size` — bytes.
//!
//! Timestamps are normalized to microseconds (ticks / 10). The response
//! time is preserved on the side ([`MsrcRecord::response_time`]) because
//! the paper's analyses exclude latency but downstream users may want it.

use std::collections::HashMap;
use std::io::{BufRead, Write};

use crate::error::{ParseRecordError, TraceError};
use crate::{IoRequest, OpKind, TimeDelta, Timestamp, VolumeId};

use super::{
    check_extent, field, field_bytes, parse_len, parse_len_bytes, parse_u64, parse_u64_bytes,
};

/// Number of Windows 100 ns ticks per microsecond.
const TICKS_PER_MICRO: u64 = 10;

/// One parsed MSRC row: the normalized request plus the fields the
/// normalized model does not carry (volume name, response time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsrcRecord {
    request: IoRequest,
    response_time: TimeDelta,
}

impl MsrcRecord {
    /// The normalized request.
    pub fn request(&self) -> &IoRequest {
        &self.request
    }

    /// Consumes the record, returning the normalized request.
    pub fn into_request(self) -> IoRequest {
        self.request
    }

    /// The recorded device response time.
    pub fn response_time(&self) -> TimeDelta {
        self.response_time
    }

    /// Rewrites the record's volume id — used by the parallel decoder to
    /// translate chunk-local registry ids into global ones.
    pub(crate) fn remap_volume(&mut self, id: VolumeId) {
        self.request = IoRequest::new(
            id,
            self.request.op(),
            self.request.offset(),
            self.request.len(),
            self.request.ts(),
        );
    }
}

/// Maps MSRC `(hostname, disk-number)` pairs to dense [`VolumeId`]s.
///
/// Ids are assigned in first-appearance order, so a single-threaded read
/// of a given file set is deterministic.
///
/// # Example
///
/// ```
/// use cbs_trace::codec::msrc::VolumeRegistry;
///
/// let mut reg = VolumeRegistry::new();
/// let a = reg.resolve("src1", 0);
/// let b = reg.resolve("hm", 1);
/// assert_ne!(a, b);
/// assert_eq!(reg.resolve("src1", 0), a); // stable
/// assert_eq!(reg.name_of(a), Some("src1_0"));
/// ```
#[derive(Debug, Default, Clone)]
pub struct VolumeRegistry {
    by_name: HashMap<String, VolumeId>,
    names: Vec<String>,
}

impl VolumeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `(hostname, disk)`, assigning the next dense id
    /// on first sight.
    pub fn resolve(&mut self, hostname: &str, disk: u32) -> VolumeId {
        self.resolve_name(&format!("{hostname}_{disk}"))
    }

    /// Returns the id for a pre-joined `hostname_disk` name, assigning
    /// the next dense id on first sight. Used by the parallel decoder to
    /// merge chunk-local registries back into a global one while
    /// preserving first-appearance id order.
    pub fn resolve_name(&mut self, name: &str) -> VolumeId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = VolumeId::new(self.names.len() as u32);
        self.by_name.insert(name.to_owned(), id);
        self.names.push(name.to_owned());
        id
    }

    /// Returns the `hostname_disk` name of a previously assigned id.
    pub fn name_of(&self, id: VolumeId) -> Option<&str> {
        self.names.get(id.as_usize()).map(String::as_str)
    }

    /// Returns the id previously assigned to `hostname_disk`, if any.
    pub fn lookup(&self, name: &str) -> Option<VolumeId> {
        self.by_name.get(name).copied()
    }

    /// Number of volumes registered so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if no volume has been registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(VolumeId, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (VolumeId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (VolumeId::new(i as u32), n.as_str()))
    }
}

/// Parses one MSRC CSV row, resolving the volume through `registry`.
///
/// # Errors
///
/// Returns a [`ParseRecordError`] describing the first malformed field.
pub fn parse_record(
    line: &str,
    registry: &mut VolumeRegistry,
) -> Result<MsrcRecord, ParseRecordError> {
    let mut fields = line.split(',');
    let timestamp = field(&mut fields, 0, "timestamp")?;
    let hostname = field(&mut fields, 1, "hostname")?;
    let disk = field(&mut fields, 2, "disk_number")?;
    let kind = field(&mut fields, 3, "type")?;
    let offset = field(&mut fields, 4, "offset")?;
    let size = field(&mut fields, 5, "size")?;
    let response = field(&mut fields, 6, "response_time")?;

    let ticks = parse_u64(timestamp, "timestamp")?;
    let disk = parse_u64(disk, "disk_number")?;
    let disk = u32::try_from(disk).map_err(|_| ParseRecordError::OutOfRange {
        name: "disk_number",
        text: disk.to_string(),
    })?;
    let op: OpKind = kind.parse().map_err(|_| ParseRecordError::InvalidOp {
        text: kind.to_owned(),
    })?;
    let offset = parse_u64(offset, "offset")?;
    let len = parse_len(size, "size")?;
    check_extent(offset, len, "size")?;
    let response_ticks = parse_u64(response, "response_time")?;

    let volume = registry.resolve(hostname, disk);
    Ok(MsrcRecord {
        request: IoRequest::new(
            volume,
            op,
            offset,
            len,
            Timestamp::from_micros(ticks / TICKS_PER_MICRO),
        ),
        response_time: TimeDelta::from_micros(response_ticks / TICKS_PER_MICRO),
    })
}

/// Parses one MSRC CSV row directly from bytes — the allocation-light
/// fast path used by [`crate::codec::parallel::ParallelDecoder`]
/// (hostname interning aside, nothing is allocated per row).
///
/// Semantics match [`parse_record`] for ASCII input.
///
/// # Errors
///
/// Returns a [`ParseRecordError`] describing the first malformed field.
pub fn parse_record_bytes(
    line: &[u8],
    registry: &mut VolumeRegistry,
) -> Result<MsrcRecord, ParseRecordError> {
    let mut fields = line.split(|&b| b == b',');
    let timestamp = field_bytes(&mut fields, 0, "timestamp")?;
    let hostname = field_bytes(&mut fields, 1, "hostname")?;
    let disk = field_bytes(&mut fields, 2, "disk_number")?;
    let kind = field_bytes(&mut fields, 3, "type")?;
    let offset = field_bytes(&mut fields, 4, "offset")?;
    let size = field_bytes(&mut fields, 5, "size")?;
    let response = field_bytes(&mut fields, 6, "response_time")?;

    let ticks = parse_u64_bytes(timestamp, "timestamp")?;
    let disk = parse_u64_bytes(disk, "disk_number")?;
    let disk = u32::try_from(disk).map_err(|_| ParseRecordError::OutOfRange {
        name: "disk_number",
        text: disk.to_string(),
    })?;
    let op = match kind {
        b"R" | b"r" | b"Read" | b"read" | b"READ" => OpKind::Read,
        b"W" | b"w" | b"Write" | b"write" | b"WRITE" => OpKind::Write,
        _ => {
            return Err(ParseRecordError::InvalidOp {
                text: String::from_utf8_lossy(kind).into_owned(),
            })
        }
    };
    let offset = parse_u64_bytes(offset, "offset")?;
    let len = parse_len_bytes(size, "size")?;
    check_extent(offset, len, "size")?;
    let response_ticks = parse_u64_bytes(response, "response_time")?;

    let volume = registry.resolve(&String::from_utf8_lossy(hostname), disk);
    Ok(MsrcRecord {
        request: IoRequest::new(
            volume,
            op,
            offset,
            len,
            Timestamp::from_micros(ticks / TICKS_PER_MICRO),
        ),
        response_time: TimeDelta::from_micros(response_ticks / TICKS_PER_MICRO),
    })
}

/// Formats a request (plus metadata) as one MSRC CSV row (no newline).
pub fn format_record(req: &IoRequest, hostname: &str, disk: u32, response: TimeDelta) -> String {
    format!(
        "{},{},{},{},{},{},{}",
        req.ts().as_micros() * TICKS_PER_MICRO,
        hostname,
        disk,
        req.op().as_word(),
        req.offset(),
        req.len(),
        response.as_micros() * TICKS_PER_MICRO,
    )
}

/// Streaming reader over MSRC CSV rows.
///
/// Yields [`MsrcRecord`]s; the volume registry is owned by the reader and
/// can be taken out afterwards via [`MsrcReader::into_registry`] (or
/// borrowed with [`MsrcReader::registry`]) to translate ids back to
/// `hostname_disk` names. A header line starting with `Timestamp,` is
/// skipped automatically.
#[derive(Debug)]
pub struct MsrcReader<R> {
    lines: std::io::Lines<R>,
    registry: VolumeRegistry,
    line_no: u64,
}

impl<R: BufRead> MsrcReader<R> {
    /// Creates a reader over `inner` with a fresh volume registry.
    pub fn new(inner: R) -> Self {
        Self::with_registry(inner, VolumeRegistry::new())
    }

    /// Creates a reader that continues assigning ids in an existing
    /// registry — used when reading a corpus split across many files.
    pub fn with_registry(inner: R, registry: VolumeRegistry) -> Self {
        MsrcReader {
            lines: inner.lines(),
            registry,
            line_no: 0,
        }
    }

    /// The registry accumulated so far.
    pub fn registry(&self) -> &VolumeRegistry {
        &self.registry
    }

    /// Consumes the reader, returning the registry.
    pub fn into_registry(self) -> VolumeRegistry {
        self.registry
    }
}

impl<R: BufRead> Iterator for MsrcReader<R> {
    type Item = Result<MsrcRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let line = match self.lines.next()? {
                Ok(line) => line,
                Err(e) => return Some(Err(TraceError::Io(e))),
            };
            self.line_no += 1;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if self.line_no == 1 && trimmed.starts_with("Timestamp,") {
                continue; // header
            }
            return Some(
                parse_record(trimmed, &mut self.registry)
                    .map_err(|e| TraceError::parse(self.line_no, e)),
            );
        }
    }
}

/// Streaming writer emitting MSRC CSV rows.
///
/// The writer needs the `hostname`/`disk` identity that [`IoRequest`]
/// does not carry, so rows are written through
/// [`MsrcWriter::write_record`] with explicit identity, or through
/// [`MsrcWriter::write_named`] using a `name` of the `hostname_disk`
/// form.
#[derive(Debug)]
pub struct MsrcWriter<W> {
    inner: W,
}

impl<W: Write> MsrcWriter<W> {
    /// Creates a writer over `inner`.
    pub fn new(inner: W) -> Self {
        MsrcWriter { inner }
    }

    /// Writes one row with explicit volume identity.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_record(
        &mut self,
        req: &IoRequest,
        hostname: &str,
        disk: u32,
        response: TimeDelta,
    ) -> std::io::Result<()> {
        writeln!(
            self.inner,
            "{}",
            format_record(req, hostname, disk, response)
        )
    }

    /// Writes one row deriving identity from a `hostname_disk` name
    /// (the last `_`-separated component is the disk number; if it does
    /// not parse, disk 0 is used and the whole name is the hostname).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_named(
        &mut self,
        req: &IoRequest,
        name: &str,
        response: TimeDelta,
    ) -> std::io::Result<()> {
        let (host, disk) = match name.rsplit_once('_') {
            Some((host, digits)) => match digits.parse::<u32>() {
                Ok(d) => (host, d),
                Err(_) => (name, 0),
            },
            None => (name, 0),
        };
        self.write_record(req, host, disk, response)
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the flush failure.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROW: &str = "128166372003061629,hm,1,Read,383496192,32768,113736";

    #[test]
    fn parses_release_style_row() {
        let mut reg = VolumeRegistry::new();
        let rec = parse_record(ROW, &mut reg).unwrap();
        let r = rec.request();
        assert_eq!(r.volume(), VolumeId::new(0));
        assert_eq!(reg.name_of(r.volume()), Some("hm_1"));
        assert_eq!(r.op(), OpKind::Read);
        assert_eq!(r.offset(), 383_496_192);
        assert_eq!(r.len(), 32_768);
        // ticks / 10 = microseconds
        assert_eq!(r.ts().as_micros(), 12_816_637_200_306_162);
        assert_eq!(rec.response_time(), TimeDelta::from_micros(11_373));
    }

    #[test]
    fn registry_assigns_dense_stable_ids() {
        let mut reg = VolumeRegistry::new();
        let a = reg.resolve("src1", 0);
        let b = reg.resolve("src1", 1);
        let c = reg.resolve("hm", 0);
        assert_eq!(a, VolumeId::new(0));
        assert_eq!(b, VolumeId::new(1));
        assert_eq!(c, VolumeId::new(2));
        assert_eq!(reg.resolve("src1", 1), b);
        assert_eq!(reg.len(), 3);
        assert!(!reg.is_empty());
        assert_eq!(reg.lookup("hm_0"), Some(c));
        assert_eq!(reg.lookup("nope_9"), None);
        let names: Vec<_> = reg.iter().map(|(_, n)| n.to_owned()).collect();
        assert_eq!(names, vec!["src1_0", "src1_1", "hm_0"]);
    }

    #[test]
    fn byte_parser_matches_str_parser() {
        let lines = [
            ROW,
            "128166372016382155,src1,0,Write,8192,4096,23855",
            " 1 , hm , 1 , read , 0 , 512 , 0 ",
            "1,hm,1,Erase,0,0,0",
            "1,hm,1,Read,0,512",
            "x,hm,1,Read,0,512,0",
            "1,hm,99999999999,Read,0,512,0",
        ];
        for line in lines {
            let mut reg_a = VolumeRegistry::new();
            let mut reg_b = VolumeRegistry::new();
            assert_eq!(
                parse_record_bytes(line.as_bytes(), &mut reg_a),
                parse_record(line, &mut reg_b),
                "{line:?}"
            );
            assert_eq!(reg_a.len(), reg_b.len());
        }
    }

    #[test]
    fn resolve_name_matches_resolve() {
        let mut reg = VolumeRegistry::new();
        let a = reg.resolve_name("src1_0");
        assert_eq!(reg.resolve("src1", 0), a);
        assert_eq!(reg.name_of(a), Some("src1_0"));
    }

    #[test]
    fn reader_skips_header_and_blank_lines() {
        let text = format!(
            "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n{ROW}\n\n{ROW}\n"
        );
        let reader = MsrcReader::new(text.as_bytes());
        let recs: Vec<_> = reader.collect::<Result<_, _>>().unwrap();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn reader_reports_line_numbers() {
        let text = format!("{ROW}\n128,hm,1,Erase,0,0,0\n");
        let results: Vec<_> = MsrcReader::new(text.as_bytes()).collect();
        assert!(results[0].is_ok());
        assert_eq!(results[1].as_ref().unwrap_err().line(), Some(2));
    }

    #[test]
    fn shared_registry_across_files() {
        let reader1 = MsrcReader::new(ROW.as_bytes());
        let (recs1, reg) = reader1.by_ref_collect();
        let reader2 = MsrcReader::with_registry(ROW.as_bytes(), reg);
        let recs2: Vec<_> = reader2.collect::<Result<_, _>>().unwrap();
        // Same (hostname, disk) pair resolves to the same id in file 2.
        assert_eq!(recs2[0].request().volume(), recs1[0].request().volume());
    }

    // Helper: collect records and return the registry too.
    trait ByRefCollect {
        fn by_ref_collect(self) -> (Vec<MsrcRecord>, VolumeRegistry);
    }
    impl<R: BufRead> ByRefCollect for MsrcReader<R> {
        fn by_ref_collect(mut self) -> (Vec<MsrcRecord>, VolumeRegistry) {
            let mut out = Vec::new();
            for item in &mut self {
                out.push(item.unwrap());
            }
            (out, self.into_registry())
        }
    }

    #[test]
    fn format_parse_roundtrip() {
        let req = IoRequest::new(
            VolumeId::new(0),
            OpKind::Write,
            8192,
            4096,
            Timestamp::from_micros(55),
        );
        let line = format_record(&req, "src1", 0, TimeDelta::from_micros(7));
        let mut reg = VolumeRegistry::new();
        let rec = parse_record(&line, &mut reg).unwrap();
        assert_eq!(rec.request(), &req);
        assert_eq!(rec.response_time(), TimeDelta::from_micros(7));
        assert_eq!(reg.name_of(VolumeId::new(0)), Some("src1_0"));
    }

    #[test]
    fn writer_named_splits_disk_suffix() {
        let req = IoRequest::new(
            VolumeId::new(0),
            OpKind::Read,
            0,
            512,
            Timestamp::from_micros(1),
        );
        let mut buf = Vec::new();
        {
            let mut w = MsrcWriter::new(&mut buf);
            w.write_named(&req, "proj_2", TimeDelta::ZERO).unwrap();
            w.write_named(&req, "weird", TimeDelta::ZERO).unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert!(lines.next().unwrap().contains(",proj,2,"));
        assert!(lines.next().unwrap().contains(",weird,0,"));
    }

    #[test]
    fn missing_field_named() {
        let mut reg = VolumeRegistry::new();
        let e = parse_record("1,hm,1,Read,0,512", &mut reg).unwrap_err();
        assert!(matches!(
            e,
            ParseRecordError::MissingField {
                name: "response_time",
                ..
            }
        ));
    }

    #[test]
    fn extent_past_u64_max_is_out_of_range() {
        let mut reg = VolumeRegistry::new();
        let line = "1,hm,1,Read,18446744073709551515,4096,5";
        for result in [
            parse_record(line, &mut reg),
            parse_record_bytes(line.as_bytes(), &mut reg),
        ] {
            assert!(matches!(
                result.unwrap_err(),
                ParseRecordError::OutOfRange { name: "size", .. }
            ));
        }
        // Ending exactly at u64::MAX is still a valid extent.
        assert!(parse_record("1,hm,1,Read,18446744073709547519,4096,5", &mut reg).is_ok());
    }

    #[test]
    fn into_request_moves_out() {
        let mut reg = VolumeRegistry::new();
        let rec = parse_record(ROW, &mut reg).unwrap();
        let req = rec.clone().into_request();
        assert_eq!(&req, rec.request());
    }
}
