//! Trace-set persistence.
//!
//! A compact little-endian binary format (`SCAT` magic, version 1) so
//! campaigns can be acquired once and re-analyzed many times — the
//! paper's 100k-trace acquisitions are exactly the kind of artifact one
//! wants on disk. The format is self-contained and versioned; no
//! external serialization crate is required.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::TraceSet;

const MAGIC: &[u8; 4] = b"SCAT";
const VERSION: u32 = 1;

/// Writes a trace set to any writer.
///
/// # Errors
///
/// Propagates I/O errors. A `&mut` reference can be passed as the writer.
pub fn write_traces<W: Write>(mut writer: W, traces: &TraceSet) -> io::Result<()> {
    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&(traces.samples_per_trace() as u64).to_le_bytes())?;
    writer.write_all(&(traces.len() as u64).to_le_bytes())?;
    for i in 0..traces.len() {
        let input = traces.input(i);
        writer.write_all(&(input.len() as u32).to_le_bytes())?;
        writer.write_all(input)?;
        for &sample in traces.trace(i) {
            writer.write_all(&sample.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads a trace set from any reader.
///
/// # Errors
///
/// Returns `InvalidData` for bad magic/version or truncated content, and
/// propagates I/O errors.
pub fn read_traces<R: Read>(mut reader: R) -> io::Result<TraceSet> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a trace-set file",
        ));
    }
    let mut u32_buf = [0u8; 4];
    reader.read_exact(&mut u32_buf)?;
    let version = u32::from_le_bytes(u32_buf);
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported trace-set version {version}"),
        ));
    }
    let mut u64_buf = [0u8; 8];
    reader.read_exact(&mut u64_buf)?;
    let samples = usize::try_from(u64::from_le_bytes(u64_buf))
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "sample count overflows"))?;
    reader.read_exact(&mut u64_buf)?;
    let count = u64::from_le_bytes(u64_buf);

    // The header's counts are untrusted: buffers grow only as bytes
    // arrive, so a corrupt header fails at the end of the data instead
    // of allocating what it claims.
    let mut set = TraceSet::new(samples);
    for _ in 0..count {
        reader.read_exact(&mut u32_buf)?;
        let input_len = u64::from(u32::from_le_bytes(u32_buf));
        let mut input = Vec::new();
        if (&mut reader).take(input_len).read_to_end(&mut input)? as u64 != input_len {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let mut trace = Vec::new();
        for _ in 0..samples {
            reader.read_exact(&mut u32_buf)?;
            trace.push(f32::from_le_bytes(u32_buf));
        }
        set.push(trace, input);
    }
    Ok(set)
}

impl TraceSet {
    /// Saves the set to a file (buffered).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_traces(BufWriter::new(File::create(path)?), self)
    }

    /// Loads a set from a file (buffered).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and format violations.
    pub fn load(path: impl AsRef<Path>) -> io::Result<TraceSet> {
        read_traces(BufReader::new(File::open(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> TraceSet {
        let mut set = TraceSet::new(3);
        set.push(vec![1.0, -2.5, 3.25], vec![0xaa, 0xbb]);
        set.push(vec![0.0, 1e-7, -1e9], vec![]);
        set
    }

    #[test]
    fn round_trip_through_memory() {
        let set = sample_set();
        let mut buffer = Vec::new();
        write_traces(&mut buffer, &set).expect("writes");
        let back = read_traces(buffer.as_slice()).expect("reads");
        assert_eq!(back.len(), set.len());
        assert_eq!(back.samples_per_trace(), set.samples_per_trace());
        for i in 0..set.len() {
            assert_eq!(back.trace(i), set.trace(i));
            assert_eq!(back.input(i), set.input(i));
        }
    }

    #[test]
    fn round_trip_through_file() {
        let set = sample_set();
        let path = std::env::temp_dir().join("sca_power_io_test.traces");
        set.save(&path).expect("saves");
        let back = TraceSet::load(&path).expect("loads");
        assert_eq!(back.len(), 2);
        assert_eq!(back.trace(0), set.trace(0));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        assert!(read_traces(&b"NOPE"[..]).is_err());
        let mut buffer = Vec::new();
        write_traces(&mut buffer, &sample_set()).expect("writes");
        buffer[4] = 99; // corrupt version
        assert!(read_traces(buffer.as_slice()).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let mut buffer = Vec::new();
        write_traces(&mut buffer, &sample_set()).expect("writes");
        buffer.truncate(buffer.len() - 3);
        assert!(read_traces(buffer.as_slice()).is_err());
    }

    /// A header claiming `samples` samples per trace and `count`
    /// traces, then `rest`.
    fn header(samples: u64, count: u64, rest: &[u8]) -> Vec<u8> {
        let mut buffer = MAGIC.to_vec();
        buffer.extend_from_slice(&VERSION.to_le_bytes());
        buffer.extend_from_slice(&samples.to_le_bytes());
        buffer.extend_from_slice(&count.to_le_bytes());
        buffer.extend_from_slice(rest);
        buffer
    }

    #[test]
    fn rejects_a_header_claiming_2_pow_62_samples() {
        // 28 bytes: the header plus an empty input; used to panic with
        // "capacity overflow" reserving the claimed trace.
        let buffer = header(1 << 62, 1, &0u32.to_le_bytes());
        assert_eq!(buffer.len(), 28);
        let err = read_traces(buffer.as_slice()).expect_err("corrupt header");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn rejects_an_input_length_past_the_end_without_allocating_it() {
        // A 4 GiB input claim used to be allocated before the read
        // failed.
        let buffer = header(3, 1, &[&u32::MAX.to_le_bytes()[..], b"abc"].concat());
        let err = read_traces(buffer.as_slice()).expect_err("corrupt header");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn empty_set_round_trips() {
        let set = TraceSet::new(5);
        let mut buffer = Vec::new();
        write_traces(&mut buffer, &set).expect("writes");
        let back = read_traces(buffer.as_slice()).expect("reads");
        assert!(back.is_empty());
        assert_eq!(back.samples_per_trace(), 5);
    }
}
