//! Model checkpointing: a compact binary format for parameter sets, plus
//! the sectioned container scheme used by deployment artifacts.
//!
//! The checkpoint format is deliberately simple (little-endian, no
//! compression):
//!
//! ```text
//! magic "THNT" | version u32 | param_count u32
//! per param: name_len u16 | name utf-8 | trainable u8 | rank u8
//!            | dims u32 × rank | data f32 × numel
//! ```
//!
//! Loading validates names, shapes and order, so a checkpoint can only be
//! restored into an identically-constructed model — the failure mode is an
//! error, never silent weight corruption.
//!
//! [`SectionWriter`] / [`SectionReaderRef`] extend the same header scheme
//! into a versioned multi-section container (magic `THN2`, a section table
//! of tag/length pairs, then the payloads). The writer emits only the
//! current, 8-byte-aligned layout; the reader also accepts the older
//! unpadded ones. `thnt-core` uses it for the `.thnt2` packed-model
//! artifact; the scheme itself is model-agnostic.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io::{self, Read, Write};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use thnt_tensor::Tensor;

use crate::model::Model;

const MAGIC: &[u8; 4] = b"THNT";
const VERSION: u32 = 1;

/// Magic bytes of the sectioned (`.thnt2`) container.
pub const SECTION_MAGIC: &[u8; 4] = b"THN2";
/// Current version of the sectioned container layout, the only one
/// [`SectionWriter`] writes. Version 2 added the optional
/// quantization-schedule (`QNT8`) section. Version 3 made the container
/// mmap-friendly: the section table is followed by zero padding
/// to the next 8-byte boundary, and every payload is zero-padded at its end
/// to a multiple of 8 bytes (the table records the *exact* payload length;
/// the padding is implied by the version). Readers accept every version
/// back to 1 — unknown tags are simply skipped.
pub const SECTION_VERSION: u32 = 3;

/// Oldest container version this reader still accepts.
pub const SECTION_MIN_VERSION: u32 = 1;

/// First container version with 8-byte-aligned section payloads.
pub const SECTION_ALIGNED_VERSION: u32 = 3;

/// Payload alignment (bytes) of [`SECTION_ALIGNED_VERSION`]+ containers:
/// every section payload starts on a multiple of this offset within the
/// file, so `u64` bitplane words can be borrowed in place from an aligned
/// buffer.
pub const SECTION_ALIGN: usize = 8;

/// Rounds `n` up to the next multiple of [`SECTION_ALIGN`].
fn align8(n: usize) -> usize {
    n.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

/// Zero source for alignment padding; pads are always shorter than
/// [`SECTION_ALIGN`].
const ZERO_PAD: [u8; SECTION_ALIGN] = [0; SECTION_ALIGN];

/// Shorthand for the `InvalidData` errors every loader in this module uses.
/// `#[cold]` keeps the error construction out of the decoders' hot paths:
/// the zero-copy loader's cost budget is nanoseconds per section.
#[cold]
pub fn invalid_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Serializes `model`'s parameters to `writer`.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn save_model<W: Write>(model: &dyn Model, mut writer: W) -> io::Result<()> {
    let params = model.params();
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(params.len() as u32);
    for p in &params {
        let name = p.name.as_bytes();
        buf.put_u16_le(name.len() as u16);
        buf.put_slice(name);
        buf.put_u8(p.trainable as u8);
        let dims = p.value.dims();
        buf.put_u8(dims.len() as u8);
        for &d in dims {
            buf.put_u32_le(d as u32);
        }
        for &v in p.value.data() {
            buf.put_f32_le(v);
        }
    }
    writer.write_all(&buf)
}

/// Restores parameters saved by [`save_model`] into `model`.
///
/// # Errors
///
/// Returns `InvalidData` if the header, parameter names, shapes or count do
/// not exactly match the model, or any I/O error from the reader.
pub fn load_model<R: Read>(model: &mut dyn Model, mut reader: R) -> io::Result<()> {
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    let mut buf = Bytes::from(raw);
    let fail = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if buf.remaining() < 12 || &buf.copy_to_bytes(4)[..] != MAGIC {
        return Err(fail("bad magic"));
    }
    if buf.get_u32_le() != VERSION {
        return Err(fail("unsupported version"));
    }
    let count = buf.get_u32_le() as usize;
    let mut params = model.params_mut();
    if count != params.len() {
        return Err(fail(&format!(
            "parameter count mismatch: checkpoint has {count}, model has {}",
            params.len()
        )));
    }
    for p in params.iter_mut() {
        if buf.remaining() < 2 {
            return Err(fail("truncated checkpoint"));
        }
        let name_len = buf.get_u16_le() as usize;
        if buf.remaining() < name_len {
            return Err(fail("truncated name"));
        }
        let name_bytes = buf.copy_to_bytes(name_len);
        let name = std::str::from_utf8(&name_bytes).map_err(|_| fail("non-utf8 name"))?;
        if name != p.name {
            return Err(fail(&format!("parameter name mismatch: {name} vs {}", p.name)));
        }
        if buf.remaining() < 2 {
            return Err(fail("truncated header"));
        }
        let trainable = buf.get_u8() != 0;
        let rank = buf.get_u8() as usize;
        if buf.remaining() < 4 * rank {
            return Err(fail("truncated dims"));
        }
        let dims: Vec<usize> = (0..rank).map(|_| buf.get_u32_le() as usize).collect();
        if dims != p.value.dims() {
            return Err(fail(&format!(
                "shape mismatch for {}: checkpoint {dims:?}, model {:?}",
                p.name,
                p.value.dims()
            )));
        }
        let numel: usize = dims.iter().product();
        if buf.remaining() < 4 * numel {
            return Err(fail("truncated data"));
        }
        let mut data = Vec::with_capacity(numel);
        for _ in 0..numel {
            data.push(buf.get_f32_le());
        }
        p.value = Tensor::from_vec(data, &dims);
        p.trainable = trainable;
    }
    if buf.has_remaining() {
        return Err(fail("trailing bytes after last parameter"));
    }
    Ok(())
}

/// Saves a model to a file path.
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn save_model_file(model: &dyn Model, path: impl AsRef<std::path::Path>) -> io::Result<()> {
    save_model(model, std::fs::File::create(path)?)
}

/// Loads a model from a file path.
///
/// # Errors
///
/// Propagates file-open/read errors and format mismatches.
pub fn load_model_file(model: &mut dyn Model, path: impl AsRef<std::path::Path>) -> io::Result<()> {
    load_model(model, std::fs::File::open(path)?)
}

// ---------------------------------------------------------------------------
// Sectioned container (magic THN2).
// ---------------------------------------------------------------------------

/// Builds a sectioned binary container at the current [`SECTION_VERSION`]:
///
/// ```text
/// magic "THN2" | version u32 | section_count u32
/// section table: per section: tag [u8; 4] | payload_len u64
/// zero pad to the next multiple of 8
/// payloads in table order, each zero-padded to a multiple of 8
/// ```
///
/// Sections are identified by a four-byte ASCII tag. Writers append
/// sections with [`SectionWriter::section`]; readers locate them by tag, so
/// new section kinds can be added in later versions without breaking older
/// payload layouts (a reader skips tags it does not know and fails loudly
/// on missing required ones).
#[derive(Debug, Default)]
pub struct SectionWriter {
    sections: Vec<([u8; 4], BytesMut)>,
}

impl SectionWriter {
    /// An empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new section and returns its payload buffer.
    ///
    /// # Panics
    ///
    /// Panics if `tag` was already added — duplicate tags would make
    /// [`SectionReaderRef::take`] ambiguous.
    pub fn section(&mut self, tag: [u8; 4]) -> &mut BytesMut {
        assert!(
            self.sections.iter().all(|(t, _)| *t != tag),
            "duplicate section tag {:?}",
            String::from_utf8_lossy(&tag)
        );
        let i = self.sections.len();
        self.sections.push((tag, BytesMut::new()));
        &mut self.sections[i].1
    }

    /// Writes the header, the section table and the payloads to `writer`,
    /// zero-padding the table and every payload to the next 8-byte
    /// boundary (see [`SECTION_VERSION`]).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn write_to<W: Write>(self, mut writer: W) -> io::Result<()> {
        let mut buf = BytesMut::new();
        buf.put_slice(SECTION_MAGIC);
        buf.put_u32_le(SECTION_VERSION);
        buf.put_u32_le(self.sections.len() as u32);
        for (tag, payload) in &self.sections {
            buf.put_slice(tag);
            buf.put_u64_le(payload.len() as u64);
        }
        buf.put_slice(&ZERO_PAD[..align8(buf.len()) - buf.len()]);
        for (_, payload) in &self.sections {
            buf.put_slice(payload);
            buf.put_slice(&ZERO_PAD[..align8(payload.len()) - payload.len()]);
        }
        writer.write_all(&buf)
    }
}

/// Parses a container *in place* and hands out payload `&[u8]` slices that
/// alias the input buffer. This is the parser under both `.thnt2` loaders —
/// its cost is O(header), independent of payload sizes. It reads every
/// container version from [`SECTION_MIN_VERSION`] on.
#[derive(Debug)]
pub struct SectionReaderRef<'a> {
    version: u32,
    sections: Vec<([u8; 4], &'a [u8])>,
}

impl<'a> SectionReaderRef<'a> {
    /// Parses and validates the whole container without copying a payload
    /// byte.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on bad magic, unsupported version, duplicate
    /// tags, payload bytes not exactly matching the section table
    /// (truncated or trailing data), or — for aligned (v3+) containers —
    /// non-zero padding bytes.
    pub fn parse(buf: &'a [u8]) -> io::Result<Self> {
        if buf.len() < 12 || &buf[..4] != SECTION_MAGIC {
            return Err(invalid_data("bad container magic (want THN2)"));
        }
        let word = |at: usize| -> u32 {
            u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
        };
        let version = word(4);
        if !(SECTION_MIN_VERSION..=SECTION_VERSION).contains(&version) {
            return Err(invalid_data(format!("unsupported container version {version}")));
        }
        let aligned = version >= SECTION_ALIGNED_VERSION;
        let count = word(8) as usize;
        let table_end = 12usize
            .checked_add(
                count
                    .checked_mul(12)
                    .ok_or_else(|| invalid_data("section table length overflow"))?,
            )
            .ok_or_else(|| invalid_data("section table length overflow"))?;
        if buf.len() < table_end {
            return Err(invalid_data("truncated section table"));
        }
        let mut table = Vec::with_capacity(count);
        for i in 0..count {
            let at = 12 + i * 12;
            let tag: [u8; 4] = [buf[at], buf[at + 1], buf[at + 2], buf[at + 3]];
            let mut len_bytes = [0u8; 8];
            len_bytes.copy_from_slice(&buf[at + 4..at + 12]);
            let len = u64::from_le_bytes(len_bytes);
            if table.iter().any(|(t, _)| *t == tag) {
                return Err(invalid_data(format!(
                    "duplicate section {:?}",
                    String::from_utf8_lossy(&tag)
                )));
            }
            table.push((tag, len));
        }
        let overflow = || invalid_data("section table length overflow");
        let mut total: u64 = 0;
        for (_, len) in &table {
            // Checked u64 arithmetic: a corrupt length near u64::MAX must
            // become an error, not an overflow panic.
            let stored = if aligned {
                len.checked_add(SECTION_ALIGN as u64 - 1).ok_or_else(overflow)?
                    & !(SECTION_ALIGN as u64 - 1)
            } else {
                *len
            };
            total = total.checked_add(stored).ok_or_else(overflow)?;
        }
        let data_start = if aligned { align8(table_end) } else { table_end };
        let pad_is_zero = |range: std::ops::Range<usize>| -> io::Result<()> {
            match buf.get(range.clone()) {
                Some(pad) if pad.iter().all(|&b| b == 0) => Ok(()),
                Some(_) => {
                    Err(invalid_data(format!("non-zero padding bytes at offset {}", range.start)))
                }
                None => Err(invalid_data("truncated container padding")),
            }
        };
        pad_is_zero(table_end..data_start)?;
        if total != (buf.len() - data_start) as u64 {
            return Err(invalid_data(format!(
                "section table claims {total} payload bytes, container has {}",
                buf.len() - data_start
            )));
        }
        let mut sections = Vec::with_capacity(count);
        let mut cur = data_start;
        for (tag, len) in table {
            let len = len as usize;
            // `total` already proved every payload fits the buffer exactly.
            let bytes = &buf[cur..cur + len];
            sections.push((tag, bytes));
            if aligned {
                pad_is_zero(cur + len..cur + align8(len))?;
                cur += align8(len);
            } else {
                cur += len;
            }
        }
        Ok(Self { version, sections })
    }

    /// The container's layout version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Removes and returns the payload of the section tagged `tag` (pad
    /// bytes excluded), or `None` if absent.
    pub fn take(&mut self, tag: [u8; 4]) -> Option<&'a [u8]> {
        let i = self.sections.iter().position(|(t, _)| *t == tag)?;
        Some(self.sections.remove(i).1)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::model::Sequential;
    use rand::SeedableRng;

    fn net(seed: u64) -> Sequential {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        Sequential::new(vec![
            Box::new(Dense::new(4, 6, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(6, 3, &mut rng)),
        ])
    }

    #[test]
    fn save_load_roundtrip_restores_outputs() {
        let mut a = net(1);
        let mut b = net(2); // different weights
        let x = Tensor::ones(&[2, 4]);
        let ya = a.forward(&x, false);
        let yb = b.forward(&x, false);
        assert_ne!(ya.data(), yb.data());

        let mut blob = Vec::new();
        save_model(&a, &mut blob).unwrap();
        load_model(&mut b, blob.as_slice()).unwrap();
        let yb2 = b.forward(&x, false);
        assert_eq!(ya.data(), yb2.data());
    }

    #[test]
    fn trainable_flags_roundtrip() {
        let mut a = net(3);
        a.params_mut()[0].freeze();
        let mut blob = Vec::new();
        save_model(&a, &mut blob).unwrap();
        let mut b = net(4);
        load_model(&mut b, blob.as_slice()).unwrap();
        assert!(!b.params_mut()[0].trainable);
        assert!(b.params_mut()[1].trainable);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = net(5);
        let mut blob = Vec::new();
        save_model(&a, &mut blob).unwrap();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(6);
        let mut wrong = Sequential::new(vec![
            Box::new(Dense::new(4, 7, &mut rng)), // 7 != 6
            Box::new(Relu::new()),
            Box::new(Dense::new(7, 3, &mut rng)),
        ]);
        let err = load_model(&mut wrong, blob.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let mut a = net(7);
        let err = load_model(&mut a, b"NOPE............".as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_blob_is_rejected() {
        let mut a = net(8);
        let mut blob = Vec::new();
        save_model(&a, &mut blob).unwrap();
        blob.truncate(blob.len() / 2);
        let err = load_model(&mut a, blob.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    fn two_section_blob() -> Vec<u8> {
        let mut w = SectionWriter::new();
        w.section(*b"AAAA").put_slice(&[1, 2, 3]);
        w.section(*b"BBBB").put_u32_le(0xDEAD_BEEF);
        let mut blob = Vec::new();
        w.write_to(&mut blob).unwrap();
        blob
    }

    #[test]
    fn sections_roundtrip_by_tag() {
        let blob = two_section_blob();
        let mut r = SectionReaderRef::parse(&blob).unwrap();
        // Out-of-order lookup works; unknown tags are simply absent.
        let b = r.take(*b"BBBB").unwrap();
        assert_eq!(u32::from_le_bytes(b.try_into().unwrap()), 0xDEAD_BEEF);
        assert_eq!(r.take(*b"AAAA").unwrap(), &[1, 2, 3]);
        assert!(r.take(*b"ZZZZ").is_none());
        // `take` consumes: a section is handed out once.
        assert!(r.take(*b"AAAA").is_none());
        assert!(r.take(*b"BBBB").is_none());
    }

    #[test]
    fn sections_reject_bad_magic_and_version() {
        let mut blob = two_section_blob();
        let err = SectionReaderRef::parse(b"NOPE....").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        blob[4] = 0xFF; // version
        let err = SectionReaderRef::parse(&blob).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn sections_reject_any_truncation_or_trailing_bytes() {
        let blob = two_section_blob();
        for cut in 0..blob.len() {
            let err = SectionReaderRef::parse(&blob[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
        let mut extended = blob.clone();
        extended.push(0);
        let err = SectionReaderRef::parse(&extended).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn overflowing_section_lengths_are_rejected() {
        // Two u64 lengths that wrap to the real payload size must not pass
        // the total check (or panic): the reader errors on the overflow.
        let mut blob: Vec<u8> = Vec::new();
        blob.put_slice(SECTION_MAGIC);
        blob.put_u32_le(SECTION_VERSION);
        blob.put_u32_le(2);
        blob.put_slice(b"AAAA");
        blob.put_u64_le(1u64 << 63);
        blob.put_slice(b"BBBB");
        blob.put_u64_le((1u64 << 63) + 3);
        blob.put_slice(&[1, 2, 3]);
        let err = SectionReaderRef::parse(&blob).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    #[test]
    #[should_panic(expected = "duplicate section")]
    fn duplicate_section_tags_panic_at_write() {
        let mut w = SectionWriter::new();
        w.section(*b"AAAA");
        w.section(*b"AAAA");
    }

    #[test]
    fn empty_container_roundtrips() {
        let mut blob = Vec::new();
        SectionWriter::new().write_to(&mut blob).unwrap();
        let mut r = SectionReaderRef::parse(&blob).unwrap();
        assert_eq!(r.version(), SECTION_VERSION);
        assert!(r.take(*b"AAAA").is_none());
    }

    /// The writer only emits v3, so the v2 layout is built by hand: no
    /// padding anywhere, exact header + table + payloads. The reader still
    /// hands back every payload byte for byte.
    #[test]
    fn v2_containers_still_roundtrip() {
        let mut blob: Vec<u8> = Vec::new();
        blob.put_slice(SECTION_MAGIC);
        blob.put_u32_le(2);
        blob.put_u32_le(2);
        blob.put_slice(b"AAAA");
        blob.put_u64_le(5);
        blob.put_slice(b"BBBB");
        blob.put_u64_le(3);
        blob.put_slice(&[9; 5]);
        blob.put_slice(&[7; 3]);
        assert_eq!(blob.len(), 12 + 2 * 12 + 5 + 3);
        let mut r = SectionReaderRef::parse(&blob).unwrap();
        assert_eq!(r.version(), 2);
        assert_eq!(r.take(*b"AAAA").unwrap(), &[9; 5]);
        assert_eq!(r.take(*b"BBBB").unwrap(), &[7; 3]);
        // Any cut of the unpadded layout is still a typed error.
        for cut in 0..blob.len() {
            assert!(SectionReaderRef::parse(&blob[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn v3_payloads_start_on_aligned_offsets() {
        let mut w = SectionWriter::new();
        w.section(*b"AAAA").put_slice(&[1, 2, 3]); // 3 bytes -> 5 pad bytes
        w.section(*b"BBBB").put_slice(&[4; 9]); // 9 bytes -> 7 pad bytes
        let mut blob = Vec::new();
        w.write_to(&mut blob).unwrap();
        // Header 12 + table 24 = 36, padded to 40; payloads 8 + 16.
        assert_eq!(blob.len(), 40 + 8 + 16);
        let mut r = SectionReaderRef::parse(&blob).unwrap();
        let a = r.take(*b"AAAA").unwrap();
        let b = r.take(*b"BBBB").unwrap();
        let offset = |s: &[u8]| s.as_ptr() as usize - blob.as_ptr() as usize;
        assert_eq!((offset(a), offset(b)), (40, 48));
        assert_eq!(a, &[1, 2, 3]);
        assert_eq!(b, &[4; 9]);
        // Every inter-payload pad byte the writer emitted is zero.
        assert!(blob[36..40].iter().all(|&x| x == 0));
        assert!(blob[40 + 3..48].iter().all(|&x| x == 0));
        assert!(blob[48 + 9..].iter().all(|&x| x == 0));
    }

    #[test]
    fn misaligned_v3_container_is_a_typed_error_not_a_panic() {
        // Hand-build a v3 container that omits the alignment padding — the
        // v2 layout under a v3 version stamp. The reader must reject it
        // with InvalidData (the total-bytes check fails because v3
        // requires padded payload storage).
        let mut blob: Vec<u8> = Vec::new();
        blob.put_slice(SECTION_MAGIC);
        blob.put_u32_le(3);
        blob.put_u32_le(1);
        blob.put_slice(b"AAAA");
        blob.put_u64_le(3);
        blob.put_slice(&[1, 2, 3]); // unpadded table AND payload
        let err = SectionReaderRef::parse(&blob).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn nonzero_v3_padding_is_rejected() {
        let mut w = SectionWriter::new();
        w.section(*b"AAAA").put_slice(&[1, 2, 3]);
        w.section(*b"BBBB").put_slice(&[4, 5]);
        let mut blob = Vec::new();
        w.write_to(&mut blob).unwrap();
        // Header 12 + table 24 = 36 -> 4 table pad bytes at 36..40.
        // Corrupt a table pad byte and a payload pad byte in turn.
        for at in [37, blob.len() - 1] {
            let mut bad = blob.clone();
            assert_eq!(bad[at], 0, "offset {at} should be padding");
            bad[at] = 0xFF;
            let err = SectionReaderRef::parse(&bad).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "offset {at}");
            assert!(err.to_string().contains("padding"), "{err}");
        }
    }

    #[test]
    fn ref_reader_payloads_alias_the_input_buffer() {
        let mut w = SectionWriter::new();
        w.section(*b"AAAA").put_slice(&[5; 24]);
        let mut blob = Vec::new();
        w.write_to(&mut blob).unwrap();
        let mut r = SectionReaderRef::parse(&blob).unwrap();
        let s = r.take(*b"AAAA").unwrap();
        let blob_range = blob.as_ptr() as usize..blob.as_ptr() as usize + blob.len();
        assert!(blob_range.contains(&(s.as_ptr() as usize)), "payload must alias input");
    }
}
