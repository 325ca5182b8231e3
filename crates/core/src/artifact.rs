//! The `.thnt2` packed-model artifact: serialize a compiled
//! [`PackedStHybrid`] and reload it **without the training stack**.
//!
//! The training pipeline ends with `PackedStHybrid::compile`, which needs a
//! live [`crate::StHybridNet`] in memory. On a deployment target none of the
//! `thnt-nn` machinery exists; what ships is this artifact — the bitplanes,
//! affines and tree topology, exactly as the engine executes them — and
//! [`load_thnt2`] rebuilds the engine from those bytes alone.
//!
//! # Format
//!
//! A `.thnt2` file is a [`thnt_nn::SectionWriter`] container (magic `THN2`,
//! version, a tag/length section table, then payloads). The writer emits
//! container version 3, which zero-pads the table and every payload to
//! 8-byte file offsets so `u64` bitplane words can be *borrowed* in place
//! by [`load_thnt2_ref`]; both loaders also read the unpadded v1 and v2
//! containers of older writers. [`SaveOptions`] only chooses how the
//! weight matrices are stored: inline bitplanes or run-length coded.
//! Sections:
//!
//! ```text
//! FRNT  the compiled front-end stack:
//!       layer_count u32, then per layer a kind byte:
//!         0 conv       wb | â | wc | bias | spec
//!         1 depthwise  wb_signs | â | wc_signs | bias | spec | c u32 | m u32
//!         2 dense      wb | â | wc | bias
//!         3 affine     scale | shift
//!         4 relu       (no payload)
//!         5 gap        (no payload)
//! TREE  the compiled Bonsai head:
//!       depth u32 | sharpness f32 | sigma f32 | num_classes u32
//!       | z dense | theta dense × num_internal | w dense × num_nodes
//!       | v dense × num_nodes
//! META  (optional) serving metadata:
//!       norm_mean | norm_std | MFCC config (9 scalars)
//! QNT8  (optional, container version ≥ 2) the bit-sliced activation
//!       schedule of a quantized engine:
//!       front_count u32 | (in_scale f32, hidden_scale f32) × front_count
//!       | z in_scale f32 | z hidden_scale f32 | zhat_scale f32
//!       | node_count u32 | hidden_scale f32 × node_count
//! RLEW  (optional, container version ≥ 3) run-length-coded weight blobs:
//!       `byte_len u32 | bytes` per mode-1 matrix, in decode order (all of
//!       FRNT front to back, then TREE). See [`SaveOptions::rle_weights`].
//! ```
//!
//! A *packed ternary matrix* begins `rows u32 | cols u32`. In containers
//! before v3 the bitplanes follow directly: `plus u64 × rows·wpr | minus
//! u64 × rows·wpr` (the stable layout of [`PackedTernary::plus_words`]). In
//! v3 a `mode u8` follows the dims: mode 0 (inline) zero-pads to the next
//! 8-byte payload offset and then stores the same two planes — which is
//! what lets the zero-copy loader alias them — while mode 1 (RLE) stores
//! nothing inline; the planes are decoded from the next `RLEW` blob. The
//! RLE bit code is self-delimiting, row-major over *logical* columns (row
//! padding bits are not stored): a zero weight is the single bit `0`, a
//! nonzero weight is `1` followed by a sign bit (`0` = +1, `1` = −1), so a
//! run of n zeros is n `0` bits — a unary run-length marker, after
//! NativeTernary. The stream is zero-padded to a byte boundary.
//!
//! An *f32 vector* is `len u32 | f32 × len`, a *sign vector* is `len u32 |
//! i8 × len` with entries in `{-1, 0, 1}`, a *dense* is `wb | â | wc |
//! bias`, and a *spec* is eight `u32`s
//! (`kh kw stride_h stride_w pad_top pad_bottom pad_left pad_right`).
//!
//! Loading validates every structural invariant — word counts, padding
//! bits, plane overlap, cross-field dimension consistency, layer-to-layer
//! widths, finiteness, topology counts, and a `META` front-end the engine
//! can serve — and fails with `InvalidData` on the first violation.
//! Matching the checkpoint contract in `thnt_nn::io`: the failure mode is
//! an error, never silent corruption. Unknown sections are skipped so later
//! versions can add data without breaking this loader.
//!
//! # Zero-copy loading
//!
//! [`load_thnt2`] reads any supported container into a fully owned engine.
//! [`load_thnt2_ref`] decodes straight from a byte slice and, for a v3
//! container on a little-endian target whose buffer is 8-byte aligned
//! (see [`AlignedBytes`]), borrows every inline bitplane from the input —
//! no bitplane byte is copied, so load cost is header validation plus
//! invariant scans. `f32` and sign vectors are borrowed too where they sit
//! at their natural alignment in the buffer (see
//! [`PackedStHybrid::bitplanes_borrowed`]). When any of those conditions
//! fails it transparently falls back to copying (`Cow::Owned`), so
//! unaligned buffers and v2 artifacts still load correctly.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::borrow::Cow;
use std::io::{self, Read, Write};
use std::path::Path;

use bytes::{BufMut, BytesMut};
use thnt_bonsai::TreeTopology;
use thnt_dsp::MfccConfig;
use thnt_nn::io::{
    invalid_data, SectionReaderRef, SectionWriter, SECTION_ALIGN, SECTION_ALIGNED_VERSION,
};
use thnt_strassen::PackedTernary;
use thnt_tensor::Conv2dSpec;

use crate::engine::{
    ChannelAffine, PackedBonsai, PackedConv2d, PackedDense, PackedDepthwise2d, PackedLayer,
    PackedStHybrid, PackedStStack,
};
use crate::quantized::{LayerScales, QuantSchedule, QuantizedStHybrid};

const TAG_FRONT: [u8; 4] = *b"FRNT";
const TAG_TREE: [u8; 4] = *b"TREE";
const TAG_META: [u8; 4] = *b"META";
const TAG_QUANT: [u8; 4] = *b"QNT8";
const TAG_RLE: [u8; 4] = *b"RLEW";

/// v3 packed-matrix storage mode: bitplane words inline, 8-byte aligned.
const MODE_INLINE: u8 = 0;
/// v3 packed-matrix storage mode: planes run-length coded in `RLEW`.
const MODE_RLE: u8 = 1;

const KIND_CONV: u8 = 0;
const KIND_DEPTHWISE: u8 = 1;
const KIND_DENSE: u8 = 2;
const KIND_AFFINE: u8 = 3;
const KIND_RELU: u8 = 4;
const KIND_GAP: u8 = 5;

/// Highest `META` sample rate a loader accepts, in Hz. A window is one
/// second of audio, so the rate sets its frame count and bounds the rows
/// each session holds per open window.
const MAX_SAMPLE_RATE: f32 = 48_000.0;
/// Largest `META` FFT size a loader accepts. It bounds the FFT tables and,
/// through `num_mel <= fft_size / 2 + 1`, the mel filterbank.
const MAX_FFT_SIZE: usize = 4096;

/// Serving metadata embedded alongside the packed weights so a detector can
/// be stood up from the artifact alone: the MFCC front-end configuration
/// and the per-coefficient normalization statistics of the training data.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceMeta {
    /// MFCC extraction parameters the model was trained against.
    pub mfcc: MfccConfig,
    /// Per-coefficient feature means (length `mfcc.num_coeffs`).
    pub norm_mean: Vec<f32>,
    /// Per-coefficient feature standard deviations (same length, positive).
    pub norm_std: Vec<f32>,
}

/// Encoding options for [`save_thnt2_with`] / [`save_quantized_thnt2_with`].
/// Every artifact is an aligned v3 container; the default stores inline
/// bitplanes ([`SaveOptions::v3`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SaveOptions {
    /// Store ternary weight matrices run-length coded in an `RLEW` section
    /// instead of inline bitplanes. Smaller on disk (a zero weight costs one
    /// bit instead of two, and row padding bits are not stored), but the
    /// loader must decode to owned planes — mutually exclusive with
    /// zero-copy borrowing.
    pub rle_weights: bool,
}

impl SaveOptions {
    /// Inline bitplanes (zero-copy loadable); the default.
    pub fn v3() -> Self {
        Self { rle_weights: false }
    }

    /// Run-length-coded weights (smallest files).
    pub fn v3_rle() -> Self {
        Self { rle_weights: true }
    }
}

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

fn put_f32_vec(buf: &mut BytesMut, v: &[f32]) {
    buf.put_u32_le(v.len() as u32);
    for &x in v {
        buf.put_f32_le(x);
    }
}

fn put_signs(buf: &mut BytesMut, v: &[i8]) {
    buf.put_u32_le(v.len() as u32);
    for &x in v {
        buf.put_u8(x as u8);
    }
}

fn put_spec(buf: &mut BytesMut, s: &Conv2dSpec) {
    for d in [s.kh, s.kw, s.stride_h, s.stride_w, s.pad_top, s.pad_bottom, s.pad_left, s.pad_right]
    {
        buf.put_u32_le(d as u32);
    }
}

/// Appends the self-delimiting RLE bit code of `p` (see the module docs),
/// zero-padded to a byte boundary.
fn rle_encode(p: &PackedTernary) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut acc = 0u8;
    let mut filled = 0u8;
    let mut push_bit = |bytes: &mut Vec<u8>, bit: bool| {
        acc |= (bit as u8) << filled;
        filled += 1;
        if filled == 8 {
            bytes.push(acc);
            acc = 0;
            filled = 0;
        }
    };
    for r in 0..p.rows() {
        for c in 0..p.cols() {
            let v = p.get(r, c);
            if v == 0.0 {
                push_bit(&mut bytes, false);
            } else {
                push_bit(&mut bytes, true);
                push_bit(&mut bytes, v < 0.0);
            }
        }
    }
    // Flush the partial byte; its unused high bits are already zero.
    if filled > 0 {
        bytes.push(acc);
    }
    bytes
}

/// Weight-section encoder: stores each packed matrix inline or, when
/// weights are run-length coded, accumulates its blob for the `RLEW`
/// payload.
struct Enc {
    rle: Option<BytesMut>,
}

impl Enc {
    fn new(opts: SaveOptions) -> Self {
        Self { rle: opts.rle_weights.then(BytesMut::new) }
    }

    fn put_packed(&mut self, buf: &mut BytesMut, p: &PackedTernary) {
        buf.put_u32_le(p.rows() as u32);
        buf.put_u32_le(p.cols() as u32);
        if let Some(rle) = &mut self.rle {
            buf.put_u8(MODE_RLE);
            let blob = rle_encode(p);
            rle.put_u32_le(blob.len() as u32);
            rle.put_slice(&blob);
            return;
        }
        buf.put_u8(MODE_INLINE);
        // Pad to the next 8-byte *payload* offset; v3 payloads start on
        // 8-byte file offsets, so the words land 8-byte aligned in the file
        // and a zero-copy reader can borrow them in place.
        while !buf.len().is_multiple_of(SECTION_ALIGN) {
            buf.put_u8(0);
        }
        for &w in p.plus_words() {
            buf.put_u64_le(w);
        }
        for &w in p.minus_words() {
            buf.put_u64_le(w);
        }
    }

    fn put_dense(&mut self, buf: &mut BytesMut, d: &PackedDense) {
        self.put_packed(buf, &d.wb);
        put_f32_vec(buf, &d.a_hat);
        self.put_packed(buf, &d.wc);
        put_f32_vec(buf, &d.bias);
    }

    fn encode_front(&mut self, front: &PackedStStack) -> BytesMut {
        let mut buf = BytesMut::new();
        buf.put_u32_le(front.layers().len() as u32);
        for layer in front.layers() {
            match layer {
                PackedLayer::Conv(c) => {
                    buf.put_u8(KIND_CONV);
                    self.put_packed(&mut buf, &c.wb);
                    put_f32_vec(&mut buf, &c.a_hat);
                    self.put_packed(&mut buf, &c.wc);
                    put_f32_vec(&mut buf, &c.bias);
                    put_spec(&mut buf, &c.spec);
                }
                PackedLayer::Depthwise(d) => {
                    buf.put_u8(KIND_DEPTHWISE);
                    put_signs(&mut buf, &d.wb_signs);
                    put_f32_vec(&mut buf, &d.a_hat);
                    put_signs(&mut buf, &d.wc_signs);
                    put_f32_vec(&mut buf, &d.bias);
                    put_spec(&mut buf, &d.spec);
                    buf.put_u32_le(d.channels as u32);
                    buf.put_u32_le(d.multiplier as u32);
                }
                PackedLayer::Dense(f) => {
                    buf.put_u8(KIND_DENSE);
                    self.put_dense(&mut buf, f);
                }
                PackedLayer::Affine(a) => {
                    buf.put_u8(KIND_AFFINE);
                    put_f32_vec(&mut buf, &a.scale);
                    put_f32_vec(&mut buf, &a.shift);
                }
                PackedLayer::Relu => buf.put_u8(KIND_RELU),
                PackedLayer::GlobalAvgPool => buf.put_u8(KIND_GAP),
            }
        }
        buf
    }

    fn encode_tree(&mut self, tree: &PackedBonsai) -> BytesMut {
        let mut buf = BytesMut::new();
        buf.put_u32_le(tree.topo.depth() as u32);
        buf.put_f32_le(tree.sharpness);
        buf.put_f32_le(tree.sigma);
        buf.put_u32_le(tree.num_classes as u32);
        self.put_dense(&mut buf, &tree.z);
        for d in &tree.nodes {
            self.put_dense(&mut buf, d);
        }
        buf
    }
}

fn encode_meta(meta: &InferenceMeta) -> BytesMut {
    let mut buf = BytesMut::new();
    put_f32_vec(&mut buf, &meta.norm_mean);
    put_f32_vec(&mut buf, &meta.norm_std);
    let m = &meta.mfcc;
    buf.put_f32_le(m.sample_rate);
    buf.put_u32_le(m.frame_len as u32);
    buf.put_u32_le(m.hop as u32);
    buf.put_u32_le(m.fft_size as u32);
    buf.put_u32_le(m.num_mel as u32);
    buf.put_u32_le(m.num_coeffs as u32);
    buf.put_f32_le(m.f_lo);
    buf.put_f32_le(m.f_hi);
    buf.put_f32_le(m.preemphasis);
    buf
}

fn encode_schedule(schedule: &QuantSchedule) -> BytesMut {
    let mut buf = BytesMut::new();
    buf.put_u32_le(schedule.front.len() as u32);
    for ls in &schedule.front {
        buf.put_f32_le(ls.in_scale);
        buf.put_f32_le(ls.hidden_scale);
    }
    buf.put_f32_le(schedule.z.in_scale);
    buf.put_f32_le(schedule.z.hidden_scale);
    buf.put_f32_le(schedule.zhat_scale);
    buf.put_u32_le(schedule.node_hidden.len() as u32);
    for &s in &schedule.node_hidden {
        buf.put_f32_le(s);
    }
    buf
}

/// Writes `engine` (and optionally `meta`) as a `.thnt2` artifact.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn save_thnt2_with<W: Write>(
    engine: &PackedStHybrid,
    meta: Option<&InferenceMeta>,
    opts: SaveOptions,
    writer: W,
) -> io::Result<()> {
    write_artifact(engine, None, meta, opts, writer)
}

/// Writes a quantized engine as a `.thnt2` artifact: the packed weight
/// sections plus a `QNT8` schedule section. [`load_thnt2`] reads the same
/// bytes back as an f32 packed engine (ignoring the schedule);
/// [`load_quantized_thnt2`] reconstructs the quantized engine.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn save_quantized_thnt2_with<W: Write>(
    engine: &QuantizedStHybrid<'_>,
    meta: Option<&InferenceMeta>,
    opts: SaveOptions,
    writer: W,
) -> io::Result<()> {
    write_artifact(engine.base(), Some(engine.schedule()), meta, opts, writer)
}

fn write_artifact<W: Write>(
    engine: &PackedStHybrid,
    schedule: Option<&QuantSchedule>,
    meta: Option<&InferenceMeta>,
    opts: SaveOptions,
    writer: W,
) -> io::Result<()> {
    let mut enc = Enc::new(opts);
    let mut sections = SectionWriter::new();
    *sections.section(TAG_FRONT) = enc.encode_front(&engine.front);
    *sections.section(TAG_TREE) = enc.encode_tree(&engine.tree);
    if let Some(s) = schedule {
        *sections.section(TAG_QUANT) = encode_schedule(s);
    }
    if let Some(m) = meta {
        *sections.section(TAG_META) = encode_meta(m);
    }
    if let Some(rle) = enc.rle {
        *sections.section(TAG_RLE) = rle;
    }
    sections.write_to(writer)
}

// ---------------------------------------------------------------------------
// Decoding. Every read is bounds-checked; every cross-field invariant is
// validated before the value is used.
// ---------------------------------------------------------------------------

/// Shared decode state threaded through the weight sections: the container
/// version (selects the packed-matrix layout), whether bitplanes may alias
/// the input buffer, and the `RLEW` section for mode-1 matrices.
struct DecodeCtx<'a> {
    version: u32,
    /// Bitplane words may be borrowed from the buffer (v3 container,
    /// little-endian target, caller opted in). Pointer alignment is still
    /// checked per matrix; a misaligned buffer silently falls back to
    /// copying.
    borrow: bool,
    /// `byte_len u32 | bytes` per run-length-coded matrix, in decode order.
    rle: Option<Cursor<'a>>,
}

/// Decodes one RLE blob back into bitplanes for a `rows x cols` matrix.
/// Verifies the stream holds exactly `rows·cols` entries and that the
/// byte-boundary padding bits are zero.
fn rle_decode(
    blob: &[u8],
    rows: usize,
    cols: usize,
    what: &str,
) -> io::Result<(Vec<u64>, Vec<u64>)> {
    let total_bits = blob.len() * 8;
    // Every entry costs at least one bit: refuse a shape the stream cannot
    // hold before allocating planes for it.
    if rows.saturating_mul(cols) > total_bits {
        return Err(invalid_data(format!("{what}: RLE stream truncated")));
    }
    let wpr = cols.div_ceil(64);
    let mut plus = vec![0u64; rows * wpr];
    let mut minus = vec![0u64; rows * wpr];
    let mut bit = 0usize;
    let next = |bit: &mut usize| -> io::Result<bool> {
        if *bit >= total_bits {
            return Err(invalid_data(format!("{what}: RLE stream truncated")));
        }
        let b = blob[*bit / 8] >> (*bit % 8) & 1;
        *bit += 1;
        Ok(b != 0)
    };
    for r in 0..rows {
        for c in 0..cols {
            if next(&mut bit)? {
                let word = r * wpr + c / 64;
                let mask = 1u64 << (c % 64);
                if next(&mut bit)? {
                    minus[word] |= mask;
                } else {
                    plus[word] |= mask;
                }
            }
        }
    }
    // The stream must end in the byte holding the last entry (no trailing
    // bytes) and its padding bits must be zero — the same no-slack contract
    // every other decoder in this module enforces.
    if bit.div_ceil(8) != blob.len() {
        return Err(invalid_data(format!(
            "{what}: RLE blob has {} trailing bytes",
            blob.len() - bit.div_ceil(8)
        )));
    }
    while bit < total_bits {
        if next(&mut bit)? {
            return Err(invalid_data(format!("{what}: non-zero RLE padding bits")));
        }
    }
    Ok((plus, minus))
}

/// A bounds-checked little-endian reader over one section payload. Borrows
/// the payload, so decoded matrices can alias it.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8], section: &'static str) -> Self {
        Self { buf, pos: 0, section }
    }

    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[cold]
    fn truncated(&self, bytes: usize, what: &str) -> io::Error {
        invalid_data(format!(
            "{} section truncated reading {what}: need {bytes} bytes, have {}",
            self.section,
            self.remaining()
        ))
    }

    #[inline]
    fn take(&mut self, bytes: usize, what: &str) -> io::Result<&'a [u8]> {
        if self.remaining() < bytes {
            return Err(self.truncated(bytes, what));
        }
        let s = &self.buf[self.pos..self.pos + bytes];
        self.pos += bytes;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    #[inline]
    fn array<const N: usize>(&mut self, what: &str) -> io::Result<[u8; N]> {
        let Some((head, _)) = self.buf[self.pos..].split_first_chunk::<N>() else {
            return Err(self.truncated(N, what));
        };
        self.pos += N;
        Ok(*head)
    }

    #[inline]
    fn u8(&mut self, what: &str) -> io::Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    #[inline]
    fn u32(&mut self, what: &str) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    fn f32(&mut self, what: &str) -> io::Result<f32> {
        let v = f32::from_le_bytes(self.array(what)?);
        if !v.is_finite() {
            return Err(invalid_data(format!("{}: non-finite {what}", self.section)));
        }
        Ok(v)
    }

    fn f32_vec(&mut self, what: &str) -> io::Result<Vec<f32>> {
        Ok(self.f32_cow(false, what)?.into_owned())
    }

    /// Reads a length-prefixed `f32` run: borrowed straight from the
    /// payload when the decode context allows aliasing and the slice is
    /// 4-byte aligned in memory, copied otherwise.
    #[inline]
    fn f32_cow(&mut self, borrow: bool, what: &str) -> io::Result<Cow<'a, [f32]>> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(4 * len, what)?;
        if borrow && cfg!(target_endian = "little") && (bytes.as_ptr() as usize).is_multiple_of(4) {
            // SAFETY: the slice is 4-byte aligned (checked above), its
            // length is an exact multiple of 4, and every bit pattern is a
            // valid f32. On little-endian targets the in-memory values equal
            // the wire encoding, so no conversion is needed.
            let (head, mid, tail) = unsafe { bytes.align_to::<f32>() };
            debug_assert!(head.is_empty() && tail.is_empty() && mid.len() == len);
            return Ok(Cow::Borrowed(mid));
        }
        // Content scan: owning loads validate every value; borrowing loads
        // treat the mapped artifact as trusted and skip the O(model) scan —
        // any bit pattern is a valid f32, so this trades error reporting
        // (never safety) for cold-start speed.
        let mut vals = Cursor::new(bytes, self.section);
        let out = (0..len)
            .map(|_| if borrow { vals.array(what).map(f32::from_le_bytes) } else { vals.f32(what) })
            .collect::<io::Result<Vec<f32>>>()?;
        Ok(Cow::Owned(out))
    }

    /// Reads a length-prefixed ternary sign run (`{−1, 0, 1}` as `i8`):
    /// borrowed from the payload when the decode context allows aliasing
    /// (`i8` has alignment 1, so a borrow never needs padding), copied
    /// otherwise.
    #[inline]
    fn signs(&mut self, borrow: bool, what: &str) -> io::Result<Cow<'a, [i8]>> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        // Same trust model as `f32_cow`: only owning loads pay the content
        // scan. A non-ternary sign in a trusted artifact skews the affected
        // channel's output; it cannot index out of bounds.
        if !borrow {
            for &b in bytes {
                let v = b as i8;
                if !(-1..=1).contains(&v) {
                    return Err(invalid_data(format!(
                        "{}: non-ternary sign {v} in {what}",
                        self.section
                    )));
                }
            }
        }
        if borrow {
            // SAFETY: `i8` and `u8` have identical size and alignment, and
            // every bit pattern is a valid i8.
            let signs =
                unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const i8, bytes.len()) };
            return Ok(Cow::Borrowed(signs));
        }
        Ok(Cow::Owned(bytes.iter().map(|&b| b as i8).collect()))
    }

    /// Skips zero padding up to the next 8-byte payload offset (v3 inline
    /// matrices only). Rejects non-zero pad bytes.
    #[inline]
    fn skip_pad8(&mut self, what: &str) -> io::Result<()> {
        let pad = (SECTION_ALIGN - self.pos % SECTION_ALIGN) % SECTION_ALIGN;
        let bytes = self.take(pad, what)?;
        if bytes.iter().any(|&b| b != 0) {
            return Err(invalid_data(format!(
                "{}: non-zero alignment padding before {what}",
                self.section
            )));
        }
        Ok(())
    }

    /// Reads `words` little-endian `u64`s: borrowed straight from the
    /// payload when the decode context allows aliasing and the slice is
    /// 8-byte aligned in memory, copied otherwise.
    #[inline]
    fn u64_words(&mut self, words: usize, borrow: bool, what: &str) -> io::Result<Cow<'a, [u64]>> {
        let bytes = self.take(8 * words, what)?;
        if borrow && cfg!(target_endian = "little") && (bytes.as_ptr() as usize).is_multiple_of(8) {
            // SAFETY: the slice is 8-byte aligned (checked above), its
            // length is an exact multiple of 8, and every bit pattern is a
            // valid u64. On little-endian targets the in-memory words equal
            // the wire encoding, so no conversion is needed.
            let (head, mid, tail) = unsafe { bytes.align_to::<u64>() };
            debug_assert!(head.is_empty() && tail.is_empty() && mid.len() == words);
            return Ok(Cow::Borrowed(mid));
        }
        let mut words_cur = Cursor::new(bytes, self.section);
        let out = (0..words)
            .map(|_| words_cur.array(what).map(u64::from_le_bytes))
            .collect::<io::Result<Vec<u64>>>()?;
        Ok(Cow::Owned(out))
    }

    #[inline]
    fn packed(&mut self, ctx: &mut DecodeCtx<'a>, what: &str) -> io::Result<PackedTernary<'a>> {
        let rows = self.u32(what)? as usize;
        let cols = self.u32(what)? as usize;
        // Checked arithmetic: corrupt dimensions must become an error, not
        // a debug-build overflow panic (the byte count check right after
        // rejects any size the section cannot actually hold).
        let words = rows
            .checked_mul(cols.div_ceil(64))
            .filter(|&w| w <= usize::MAX / 16)
            .ok_or_else(|| {
                invalid_data(format!(
                    "{}: {what}: implausible packed dims {rows}x{cols}",
                    self.section
                ))
            })?;
        let (plus, minus) = if ctx.version >= SECTION_ALIGNED_VERSION {
            match self.u8(what)? {
                MODE_INLINE => {
                    self.skip_pad8(what)?;
                    (
                        self.u64_words(words, ctx.borrow, what)?,
                        self.u64_words(words, ctx.borrow, what)?,
                    )
                }
                MODE_RLE => {
                    let stream = ctx.rle.as_mut().ok_or_else(|| {
                        invalid_data(format!(
                            "{}: {what} is RLE-coded but the artifact has no RLEW section",
                            self.section
                        ))
                    })?;
                    let len = stream.u32(what)? as usize;
                    let blob = stream.take(len, what)?;
                    let (p, m) = rle_decode(blob, rows, cols, what)?;
                    (Cow::Owned(p), Cow::Owned(m))
                }
                other => {
                    return Err(invalid_data(format!(
                        "{}: {what}: unknown packed storage mode {other}",
                        self.section
                    )))
                }
            }
        } else {
            (self.u64_words(words, false, what)?, self.u64_words(words, false, what)?)
        };
        // Borrowing loads skip the O(words) dual-claimed-entry scan under
        // the same trust model as `f32_cow`; the O(rows) padding-bit check
        // runs on both paths, since a padding bit indexes past `cols`.
        let parts = if ctx.borrow {
            PackedTernary::from_cow_parts_trusted(rows, cols, plus, minus)
        } else {
            PackedTernary::from_cow_parts(rows, cols, plus, minus)
        };
        parts.map_err(|e| invalid_data(format!("{}: {what}: {e}", self.section)))
    }

    fn spec(&mut self, what: &str) -> io::Result<Conv2dSpec> {
        let mut d = [0usize; 8];
        for slot in &mut d {
            *slot = self.u32(what)? as usize;
        }
        if d[0] == 0 || d[1] == 0 || d[2] == 0 || d[3] == 0 {
            return Err(invalid_data(format!(
                "{}: {what}: kernel and stride must be positive",
                self.section
            )));
        }
        // Compiled specs pad `same` or `valid`: less than one kernel per
        // axis. More only adds outputs that see no input, and would let a
        // corrupt spec size an output arbitrarily large.
        if d[4].saturating_add(d[5]) >= d[0] || d[6].saturating_add(d[7]) >= d[1] {
            return Err(invalid_data(format!(
                "{}: {what}: padding of a whole kernel or more",
                self.section
            )));
        }
        Ok(Conv2dSpec {
            kh: d[0],
            kw: d[1],
            stride_h: d[2],
            stride_w: d[3],
            pad_top: d[4],
            pad_bottom: d[5],
            pad_left: d[6],
            pad_right: d[7],
        })
    }

    /// Reads a packed dense layer and checks its internal geometry:
    /// `W_b: [r, in]`, `â: [r]`, `W_c: [out, r]`, `bias: [out]`.
    #[inline]
    fn dense(&mut self, ctx: &mut DecodeCtx<'a>, what: &str) -> io::Result<PackedDense<'a>> {
        let wb = self.packed(ctx, what)?;
        let a_hat = self.f32_cow(ctx.borrow, what)?;
        let wc = self.packed(ctx, what)?;
        let bias = self.f32_cow(ctx.borrow, what)?;
        if wb.rows() != a_hat.len() || wc.cols() != a_hat.len() || wc.rows() != bias.len() {
            return Err(invalid_data(format!(
                "{}: {what}: inconsistent dense geometry (wb {}x{}, â {}, wc {}x{}, bias {})",
                self.section,
                wb.rows(),
                wb.cols(),
                a_hat.len(),
                wc.rows(),
                wc.cols(),
                bias.len()
            )));
        }
        Ok(PackedDense { wb, a_hat, wc, bias })
    }

    fn finish(self) -> io::Result<()> {
        if self.remaining() > 0 {
            return Err(invalid_data(format!(
                "{} section has {} trailing bytes",
                self.section,
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn decode_front<'a>(buf: &'a [u8], ctx: &mut DecodeCtx<'a>) -> io::Result<PackedStStack<'a>> {
    let mut cur = Cursor::new(buf, "FRNT");
    let count = cur.u32("layer count")? as usize;
    let mut layers = Vec::with_capacity(count.min(1024));
    for i in 0..count {
        let kind = cur.u8("layer kind")?;
        let layer = match kind {
            KIND_CONV => {
                let wb = cur.packed(ctx, "conv wb")?;
                let a_hat = cur.f32_cow(ctx.borrow, "conv â")?;
                let wc = cur.packed(ctx, "conv wc")?;
                let bias = cur.f32_cow(ctx.borrow, "conv bias")?;
                let spec = cur.spec("conv spec")?;
                let Some(patch) = spec.kh.checked_mul(spec.kw) else {
                    return Err(invalid_data(format!(
                        "FRNT: layer {i}: implausible conv kernel {}x{}",
                        spec.kh, spec.kw
                    )));
                };
                if wb.rows() != a_hat.len()
                    || wc.cols() != a_hat.len()
                    || wc.rows() != bias.len()
                    || wb.cols() == 0
                    || wb.cols() % patch != 0
                {
                    return Err(invalid_data(format!(
                        "FRNT: layer {i}: inconsistent conv geometry"
                    )));
                }
                PackedLayer::Conv(PackedConv2d { wb, a_hat, wc, bias, spec })
            }
            KIND_DEPTHWISE => {
                let wb_signs = cur.signs(ctx.borrow, "depthwise wb")?;
                let a_hat = cur.f32_cow(ctx.borrow, "depthwise â")?;
                let wc_signs = cur.signs(ctx.borrow, "depthwise wc")?;
                let bias = cur.f32_cow(ctx.borrow, "depthwise bias")?;
                let spec = cur.spec("depthwise spec")?;
                let channels = cur.u32("depthwise channels")? as usize;
                let multiplier = cur.u32("depthwise multiplier")? as usize;
                let hidden = channels.saturating_mul(multiplier);
                // `hidden·kh·kw` under checked arithmetic: on corrupt bytes
                // the product must fail validation, not overflow-panic.
                let taps = spec.kh.checked_mul(spec.kw).and_then(|p| p.checked_mul(hidden));
                if channels == 0
                    || multiplier == 0
                    || wc_signs.len() != hidden
                    || a_hat.len() != hidden
                    || bias.len() != channels
                    || taps != Some(wb_signs.len())
                {
                    return Err(invalid_data(format!(
                        "FRNT: layer {i}: inconsistent depthwise geometry"
                    )));
                }
                PackedLayer::Depthwise(PackedDepthwise2d {
                    wb_signs,
                    a_hat,
                    wc_signs,
                    bias,
                    spec,
                    channels,
                    multiplier,
                })
            }
            KIND_DENSE => PackedLayer::Dense(cur.dense(ctx, "dense layer")?),
            KIND_AFFINE => {
                let scale = cur.f32_vec("affine scale")?;
                let shift = cur.f32_vec("affine shift")?;
                if scale.len() != shift.len() {
                    return Err(invalid_data(format!(
                        "FRNT: layer {i}: affine scale/shift length mismatch"
                    )));
                }
                PackedLayer::Affine(ChannelAffine { scale, shift })
            }
            KIND_RELU => PackedLayer::Relu,
            KIND_GAP => PackedLayer::GlobalAvgPool,
            other => {
                return Err(invalid_data(format!("FRNT: layer {i}: unknown layer kind {other}")))
            }
        };
        layers.push(layer);
    }
    cur.finish()?;
    Ok(PackedStStack { layers })
}

fn decode_tree<'a>(buf: &'a [u8], ctx: &mut DecodeCtx<'a>) -> io::Result<PackedBonsai<'a>> {
    let mut cur = Cursor::new(buf, "TREE");
    let depth = cur.u32("depth")? as usize;
    if depth > 16 {
        return Err(invalid_data(format!("TREE: implausible tree depth {depth}")));
    }
    let sharpness = cur.f32("sharpness")?;
    let sigma = cur.f32("sigma")?;
    let num_classes = cur.u32("num_classes")? as usize;
    if num_classes == 0 {
        return Err(invalid_data("TREE: num_classes must be positive"));
    }
    let topo = TreeTopology::new(depth);
    let z = cur.dense(ctx, "projection z")?;
    let proj_dim = z.bias.len();
    let kinds = [
        (topo.num_internal(), 1, "branch node θ"),
        (topo.num_nodes(), num_classes, "score node W"),
        (topo.num_nodes(), num_classes, "gate node V"),
    ];
    let mut nodes = Vec::with_capacity(kinds.iter().map(|k| k.0).sum());
    for (count, out_dim, what) in kinds {
        for _ in 0..count {
            let d = cur.dense(ctx, what)?;
            if d.wb.cols() != proj_dim || d.bias.len() != out_dim {
                return Err(invalid_data(format!(
                    "TREE: {what} shape [{} -> {}] does not match proj_dim {proj_dim} / \
                     out_dim {out_dim}",
                    d.wb.cols(),
                    d.bias.len()
                )));
            }
            nodes.push(d);
        }
    }
    cur.finish()?;
    Ok(PackedBonsai { z, nodes, topo, sharpness, sigma, num_classes })
}

fn decode_meta(buf: &[u8]) -> io::Result<InferenceMeta> {
    let mut cur = Cursor::new(buf, "META");
    let norm_mean = cur.f32_vec("norm_mean")?;
    let norm_std = cur.f32_vec("norm_std")?;
    let mfcc = MfccConfig {
        sample_rate: cur.f32("sample_rate")?,
        frame_len: cur.u32("frame_len")? as usize,
        hop: cur.u32("hop")? as usize,
        fft_size: cur.u32("fft_size")? as usize,
        num_mel: cur.u32("num_mel")? as usize,
        num_coeffs: cur.u32("num_coeffs")? as usize,
        f_lo: cur.f32("f_lo")?,
        f_hi: cur.f32("f_hi")?,
        preemphasis: cur.f32("preemphasis")?,
    };
    cur.finish()?;
    if norm_mean.len() != norm_std.len() || norm_mean.len() != mfcc.num_coeffs {
        return Err(invalid_data(format!(
            "META: normalization length {} / {} does not match num_coeffs {}",
            norm_mean.len(),
            norm_std.len(),
            mfcc.num_coeffs
        )));
    }
    if norm_std.iter().any(|&s| s <= 0.0) {
        return Err(invalid_data("META: norm_std entries must be positive"));
    }
    // Enforce every invariant `Mfcc::new` (and the FFT/mel stages under it)
    // would otherwise assert at detector-construction time: a META section
    // that cannot drive the front-end must fail here, at load.
    if mfcc.sample_rate <= 0.0 || mfcc.frame_len == 0 || mfcc.hop == 0 {
        return Err(invalid_data("META: MFCC geometry must be positive"));
    }
    // The fields also size allocations — the feature rows of every window a
    // session has open, the FFT tables, the mel filterbank — so a corrupt
    // value must not ask for terabytes.
    if mfcc.sample_rate > MAX_SAMPLE_RATE || mfcc.fft_size > MAX_FFT_SIZE {
        return Err(invalid_data(format!(
            "META: sample rate {} Hz / fft_size {} exceed the {MAX_SAMPLE_RATE} Hz / \
             {MAX_FFT_SIZE} caps",
            mfcc.sample_rate, mfcc.fft_size
        )));
    }
    if !mfcc.fft_size.is_power_of_two() || mfcc.fft_size < mfcc.frame_len {
        return Err(invalid_data(format!(
            "META: fft_size {} must be a power of two >= frame_len {}",
            mfcc.fft_size, mfcc.frame_len
        )));
    }
    if mfcc.num_mel == 0
        || mfcc.num_coeffs == 0
        || mfcc.num_coeffs > mfcc.num_mel
        || mfcc.num_mel > mfcc.fft_size / 2 + 1
    {
        return Err(invalid_data(format!(
            "META: need 0 < num_coeffs ({}) <= num_mel ({}) <= fft_size / 2 + 1 ({})",
            mfcc.num_coeffs,
            mfcc.num_mel,
            mfcc.fft_size / 2 + 1
        )));
    }
    if !(mfcc.f_lo < mfcc.f_hi && mfcc.f_hi <= mfcc.sample_rate / 2.0) {
        return Err(invalid_data(format!(
            "META: invalid mel band [{}, {}] for sample rate {}",
            mfcc.f_lo, mfcc.f_hi, mfcc.sample_rate
        )));
    }
    Ok(InferenceMeta { mfcc, norm_mean, norm_std })
}

/// `spec.out_dims(h, w)`, or `None` where that would panic: a kernel
/// larger than the padded input.
fn checked_out_dims(spec: &Conv2dSpec, (h, w): (usize, usize)) -> Option<(usize, usize)> {
    let fits = h.saturating_add(spec.pad_top + spec.pad_bottom) >= spec.kh
        && w.saturating_add(spec.pad_left + spec.pad_right) >= spec.kw;
    fits.then(|| spec.out_dims(h, w))
}

/// Checks that the decoded layers chain: each takes the channel width and
/// the rank its predecessor gives, from the one-channel MFCC image through
/// the pool to the tree's projection — and, when `meta` fixes the image's
/// `[frames, coeffs]` size, that every conv and depthwise kernel fits the
/// padded map it gets. Each layer's own geometry is checked while decoding;
/// a broken chain would load and then panic on the first inference.
fn check_chain(
    front: &PackedStStack<'_>,
    tree: &PackedBonsai<'_>,
    meta: Option<&InferenceMeta>,
) -> io::Result<()> {
    // `[n, width, h, w]` until the pool, `[n, width]` after it.
    let (mut width, mut pooled) = (1usize, false);
    let mut dims =
        meta.map(|m| (m.mfcc.num_frames(m.mfcc.sample_rate as usize), m.mfcc.num_coeffs));
    for (i, layer) in front.layers.iter().enumerate() {
        // (width taken, pooled input required / forbidden / either, given)
        let (takes, wants_pooled, gives) = match layer {
            PackedLayer::Conv(c) => {
                (c.wb.cols() / (c.spec.kh * c.spec.kw), Some(false), c.bias.len())
            }
            PackedLayer::Depthwise(d) => (d.channels, Some(false), d.channels),
            PackedLayer::Dense(d) => (d.wb.cols(), Some(true), d.bias.len()),
            PackedLayer::Affine(a) => (a.scale.len(), None, a.scale.len()),
            PackedLayer::Relu => (width, None, width),
            PackedLayer::GlobalAvgPool => (width, Some(false), width),
        };
        if takes != width || wants_pooled.is_some_and(|p| p != pooled) {
            return Err(invalid_data(format!(
                "FRNT: layer {i} cannot take the width-{width} {} the layers before it give",
                if pooled { "features" } else { "image" }
            )));
        }
        if let (
            PackedLayer::Conv(PackedConv2d { spec, .. })
            | PackedLayer::Depthwise(PackedDepthwise2d { spec, .. }),
            Some(hw),
        ) = (layer, dims)
        {
            dims = Some(checked_out_dims(spec, hw).ok_or_else(|| {
                invalid_data(format!(
                    "FRNT: layer {i}: {}x{} kernel exceeds the padded {}x{} map the META \
                     front-end gives",
                    spec.kh, spec.kw, hw.0, hw.1
                ))
            })?);
        }
        width = gives;
        pooled |= matches!(layer, PackedLayer::GlobalAvgPool);
    }
    if !pooled || tree.z.wb.cols() != width {
        return Err(invalid_data(format!(
            "TREE: projection takes {} pooled features, the front-end gives {width}{}",
            tree.z.wb.cols(),
            if pooled { "" } else { " unpooled" }
        )));
    }
    Ok(())
}

/// Decodes the engine and its metadata out of a parsed container.
/// `allow_borrow` selects the zero-copy path ([`load_thnt2_ref`]) vs.
/// forced copies ([`load_thnt2`]).
fn decode_artifact<'a>(
    sections: &mut SectionReaderRef<'a>,
    allow_borrow: bool,
) -> io::Result<(PackedStHybrid<'a>, Option<InferenceMeta>)> {
    let version = sections.version();
    let front = sections
        .take(TAG_FRONT)
        .ok_or_else(|| invalid_data("artifact is missing the FRNT section"))?;
    let tree = sections
        .take(TAG_TREE)
        .ok_or_else(|| invalid_data("artifact is missing the TREE section"))?;
    let rle = sections.take(TAG_RLE);
    let meta = sections.take(TAG_META).map(decode_meta).transpose()?;
    // Any other section is from a newer writer; ignoring it cannot corrupt
    // the engine because all required data is self-contained above.
    let mut ctx = DecodeCtx {
        version,
        borrow: allow_borrow && version >= SECTION_ALIGNED_VERSION,
        rle: rle.map(|s| Cursor::new(s, "RLEW")),
    };
    let front = decode_front(front, &mut ctx)?;
    let tree = decode_tree(tree, &mut ctx)?;
    check_chain(&front, &tree, meta.as_ref())?;
    if let Some(stream) = ctx.rle {
        stream.finish()?;
    }
    Ok((PackedStHybrid { front, tree }, meta))
}

/// Reconstructs a [`PackedStHybrid`] (and embedded [`InferenceMeta`], if
/// present) from a `.thnt2` artifact. The loader references no `thnt-nn`
/// training type: the engine is rebuilt directly from the serialized
/// bitplanes. Every weight is copied into owned storage; see
/// [`load_thnt2_ref`] for the zero-copy variant.
///
/// # Errors
///
/// Returns `InvalidData` on any malformed artifact, or I/O errors from the
/// reader.
pub fn load_thnt2<R: Read>(
    mut reader: R,
) -> io::Result<(PackedStHybrid<'static>, Option<InferenceMeta>)> {
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    let (engine, meta) = decode_artifact(&mut SectionReaderRef::parse(&raw)?, false)?;
    Ok((engine.into_owned(), meta))
}

/// Reconstructs a [`PackedStHybrid`] that *borrows* its bitplanes from
/// `bytes` wherever possible: for a v3 container on a little-endian target
/// with an 8-byte-aligned buffer (e.g. a memory-mapped file, or
/// [`AlignedBytes`]), no inline bitplane is copied — the engine aliases the
/// artifact, so N serving processes mapping the same file share one copy of
/// the weights and cold start is header validation plus a walk of the
/// section structure. Misaligned buffers, big-endian targets, v2 artifacts
/// and RLE-coded matrices transparently fall back to owned (copied) planes.
///
/// # Trust model
///
/// Structural invariants (section table, lengths, geometry, layer-to-layer
/// widths, alignment padding) are always enforced — truncated or misframed
/// artifacts fail exactly as they do in [`load_thnt2`] — and so is the
/// O(rows) check that bitplane padding bits are clear, because a set
/// padding bit would name a column past the end of the activations. The
/// O(model) *content* scans (f32 finiteness, ternary sign range, bitplane
/// overlap) run only on the owning path: a mapped artifact is treated as
/// trusted, the same way an mmap'd executable's text is. Content those
/// scans would reject only skews logits: every index it can produce stays
/// in bounds. Load through [`load_thnt2`] when the artifact comes from an
/// untrusted source.
///
/// Use [`PackedStHybrid::bitplanes_borrowed`] to check which path was
/// taken, and [`PackedStHybrid::into_owned`] to detach the result from the
/// buffer.
///
/// # Errors
///
/// Returns `InvalidData` on any malformed artifact.
pub fn load_thnt2_ref(bytes: &[u8]) -> io::Result<(PackedStHybrid<'_>, Option<InferenceMeta>)> {
    decode_artifact(&mut SectionReaderRef::parse(bytes)?, true)
}

fn decode_schedule(buf: &[u8]) -> io::Result<QuantSchedule> {
    let mut cur = Cursor::new(buf, "QNT8");
    let front_count = cur.u32("front layer count")? as usize;
    if front_count > 4096 {
        return Err(invalid_data(format!("QNT8: implausible front layer count {front_count}")));
    }
    let mut front = Vec::with_capacity(front_count);
    for _ in 0..front_count {
        front.push(LayerScales {
            in_scale: cur.f32("front in_scale")?,
            hidden_scale: cur.f32("front hidden_scale")?,
        });
    }
    let z =
        LayerScales { in_scale: cur.f32("z in_scale")?, hidden_scale: cur.f32("z hidden_scale")? };
    let zhat_scale = cur.f32("zhat_scale")?;
    let node_count = cur.u32("node scale count")? as usize;
    if node_count > 1 << 20 {
        return Err(invalid_data(format!("QNT8: implausible node scale count {node_count}")));
    }
    let mut node_hidden = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        node_hidden.push(cur.f32("node hidden_scale")?);
    }
    cur.finish()?;
    let schedule = QuantSchedule { front, z, zhat_scale, node_hidden };
    schedule.validate().map_err(|e| invalid_data(format!("QNT8: {e}")))?;
    Ok(schedule)
}

/// Reconstructs a [`QuantizedStHybrid`] from a `.thnt2` artifact carrying a
/// `QNT8` schedule section. The schedule is cross-validated against the
/// decoded weights — a schedule whose layer counts do not match the packed
/// engine is rejected, matching the loader's everything-validated contract.
///
/// # Errors
///
/// Returns `InvalidData` on any malformed artifact, a missing `QNT8`
/// section, or a schedule/weight mismatch.
pub fn load_quantized_thnt2<R: Read>(
    mut reader: R,
) -> io::Result<(QuantizedStHybrid<'static>, Option<InferenceMeta>)> {
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    let mut sections = SectionReaderRef::parse(&raw)?;
    let quant = sections
        .take(TAG_QUANT)
        .ok_or_else(|| invalid_data("artifact is missing the QNT8 section"))?;
    let schedule = decode_schedule(quant)?;
    let (engine, meta) = decode_artifact(&mut sections, false)?;
    let quantized = QuantizedStHybrid::compile(engine.into_owned(), schedule)
        .map_err(|e| invalid_data(format!("QNT8: {e}")))?;
    Ok((quantized, meta))
}

/// A heap byte buffer whose storage is 8-byte aligned (it is backed by a
/// `Vec<u64>`), so [`load_thnt2_ref`] can borrow bitplanes from it in
/// place. A plain `Vec<u8>` makes no alignment promise; reading an
/// artifact into one works, but may silently fall back to the copying
/// path.
#[derive(Debug, Clone)]
pub struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    /// Copies `bytes` into freshly allocated 8-byte-aligned storage.
    pub fn from_slice(bytes: &[u8]) -> Self {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        // SAFETY: the u64 allocation holds at least `bytes.len()` bytes and
        // u8 has no alignment or validity requirements.
        let dst =
            unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), bytes.len()) };
        dst.copy_from_slice(bytes);
        Self { words, len: bytes.len() }
    }

    /// Reads a whole file into aligned storage.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from reading the file.
    pub fn read_file<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(Self::from_slice(&std::fs::read(path)?))
    }

    /// The buffer contents. The slice's pointer is 8-byte aligned.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: the backing u64 allocation holds at least `len` fully
        // initialized bytes.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

impl std::ops::Deref for AlignedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::config::HybridConfig;
    use crate::engine::PackedStHybrid;
    use crate::st_hybrid::StHybridNet;
    use crate::streaming::{StreamingConfig, StreamingDetector};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use thnt_nn::Model;
    use thnt_strassen::Strassenified;

    fn tiny_engine(seed: u64) -> (StHybridNet, PackedStHybrid<'static>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut net = StHybridNet::new(
            HybridConfig {
                ds_blocks: 1,
                width: 8,
                proj_dim: 6,
                tree_depth: 1,
                ..HybridConfig::paper()
            },
            &mut rng,
        );
        net.activate_quantization();
        net.freeze_ternary();
        let engine = PackedStHybrid::compile(&net);
        (net, engine)
    }

    fn paper_meta() -> InferenceMeta {
        InferenceMeta {
            mfcc: MfccConfig::paper(),
            norm_mean: vec![0.25; 10],
            norm_std: vec![1.5; 10],
        }
    }

    #[test]
    fn roundtrip_is_bitwise_identical() {
        let (_, engine) = tiny_engine(0);
        let mut blob = Vec::new();
        engine.save(Some(&paper_meta()), &mut blob).unwrap();
        let (reloaded, meta) = PackedStHybrid::load(blob.as_slice()).unwrap();
        assert_eq!(reloaded, engine);
        assert_eq!(meta.unwrap(), paper_meta());
    }

    #[test]
    fn roundtrip_without_meta() {
        let (_, engine) = tiny_engine(1);
        let mut blob = Vec::new();
        engine.save(None, &mut blob).unwrap();
        let (reloaded, meta) = PackedStHybrid::load(blob.as_slice()).unwrap();
        assert_eq!(reloaded, engine);
        assert!(meta.is_none());
    }

    #[test]
    fn reloaded_engine_matches_dense_forward() {
        let (mut net, engine) = tiny_engine(2);
        let mut blob = Vec::new();
        engine.save(None, &mut blob).unwrap();
        let (reloaded, _) = PackedStHybrid::load(blob.as_slice()).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let x = thnt_tensor::gaussian(&[2, 1, 49, 10], 0.0, 1.0, &mut rng);
        let dense = net.forward(&x, false);
        let got = reloaded.forward(&x);
        thnt_tensor::assert_close(got.data(), dense.data(), 1e-4, 1e-4);
        assert_eq!(reloaded.adds_per_sample(), engine.adds_per_sample());
        assert_eq!(reloaded.packed_bytes(), engine.packed_bytes());
    }

    #[test]
    fn missing_sections_are_rejected() {
        let mut blob = Vec::new();
        SectionWriter::new().write_to(&mut blob).unwrap();
        let err = PackedStHybrid::load(blob.as_slice()).unwrap_err();
        assert!(err.to_string().contains("FRNT"), "{err}");
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let (_, engine) = tiny_engine(4);
        let mut enc = Enc::new(SaveOptions::v3());
        let mut sections = SectionWriter::new();
        sections.section(*b"XTRA").put_u32_le(42);
        *sections.section(TAG_FRONT) = enc.encode_front(&engine.front);
        *sections.section(TAG_TREE) = enc.encode_tree(&engine.tree);
        let mut blob = Vec::new();
        sections.write_to(&mut blob).unwrap();
        let (reloaded, meta) = PackedStHybrid::load(blob.as_slice()).unwrap();
        assert_eq!(reloaded, engine);
        assert!(meta.is_none());
    }

    #[test]
    fn inconsistent_tree_geometry_is_rejected() {
        let (_, engine) = tiny_engine(5);
        // Swap the tree's num_classes without touching the node shapes: the
        // loader must notice the W/V out-dims no longer match.
        let mut bad = engine.clone();
        bad.tree.num_classes += 1;
        let mut blob = Vec::new();
        bad.save(None, &mut blob).unwrap();
        let err = PackedStHybrid::load(blob.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Layers that are each well formed but do not fit together, or a conv
    /// padded by a whole kernel, would load and then panic (or size a huge
    /// output) on the first inference: both loaders refuse them.
    #[test]
    fn layers_that_do_not_chain_are_rejected() {
        let (_, engine) = tiny_engine(6);
        let mut unpooled = engine.clone();
        unpooled.front.layers.retain(|l| !matches!(l, PackedLayer::GlobalAvgPool));
        let mut headless = engine.clone();
        headless.front.layers.drain(..3); // the first conv, its affine and relu
        let mut padded = engine.clone();
        let PackedLayer::Conv(conv) = &mut padded.front.layers[0] else { panic!("conv first") };
        conv.spec.pad_left = conv.spec.kw;
        for (what, bad) in [("unpooled", unpooled), ("headless", headless), ("padded", padded)] {
            let mut blob = Vec::new();
            save_thnt2_with(&bad, None, SaveOptions::v3(), &mut blob).unwrap();
            let aligned = AlignedBytes::from_slice(&blob);
            assert!(load_thnt2_ref(&aligned).is_err(), "{what}: borrowed load");
            assert!(load_thnt2(blob.as_slice()).is_err(), "{what}: owning load");
        }
    }

    #[test]
    fn meta_that_cannot_drive_the_front_end_is_rejected_at_load() {
        let (_, engine) = tiny_engine(7);
        for bad in [
            // fft_size below frame_len (would assert in Mfcc::new).
            InferenceMeta {
                mfcc: MfccConfig { fft_size: 512, ..MfccConfig::paper() },
                ..paper_meta()
            },
            // Non-power-of-two FFT.
            InferenceMeta {
                mfcc: MfccConfig { fft_size: 1000, ..MfccConfig::paper() },
                ..paper_meta()
            },
            // Inverted mel band.
            InferenceMeta {
                mfcc: MfccConfig { f_lo: 8000.0, f_hi: 20.0, ..MfccConfig::paper() },
                ..paper_meta()
            },
        ] {
            let mut blob = Vec::new();
            engine.save(Some(&bad), &mut blob).unwrap();
            let err = PackedStHybrid::load(blob.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{:?}", bad.mfcc);
        }
    }

    /// META fields size allocations (a session's window rows, the FFT and
    /// mel tables) and the feature map the front end gets. Both loaders refuse
    /// a META that would abort the process on a terabyte allocation or
    /// panic on the first window; whatever they accept from a flipped
    /// `sample_rate` or `num_mel` bit serves one window.
    #[test]
    fn meta_that_would_abort_or_panic_the_front_end_is_rejected_at_load() {
        let (_, engine) = tiny_engine(25);
        let paper = MfccConfig::paper();
        let save = |mfcc: MfccConfig| {
            let coeffs = mfcc.num_coeffs;
            let meta =
                InferenceMeta { mfcc, norm_mean: vec![0.25; coeffs], norm_std: vec![1.5; coeffs] };
            let mut blob = Vec::new();
            engine.save(Some(&meta), &mut blob).unwrap();
            blob
        };
        let flip = |v: f32, bit: u32| f32::from_bits(v.to_bits() ^ (1 << bit));
        for (what, mfcc) in [
            ("a 6.9e13 Hz rate", MfccConfig { sample_rate: flip(paper.sample_rate, 28), ..paper }),
            ("2^30 + 40 mel filters", MfccConfig { num_mel: paper.num_mel ^ (1 << 30), ..paper }),
            ("no frame in the window", MfccConfig { frame_len: 32_768, fft_size: 32_768, ..paper }),
            ("a map narrower than the first kernel", MfccConfig { num_coeffs: 1, ..paper }),
        ] {
            let blob = save(mfcc);
            let aligned = AlignedBytes::from_slice(&blob);
            let owned = load_thnt2(blob.as_slice()).map(|_| ());
            let borrowed = load_thnt2_ref(&aligned).map(|_| ());
            for (loader, result) in [("owning", owned), ("borrowed", borrowed)] {
                let kind = result.map_err(|e| e.kind());
                assert_eq!(kind, Err(io::ErrorKind::InvalidData), "{what}: {loader} load");
            }
        }
        // Flips that loaded, per field.
        let mut served = [("sample_rate", 0usize), ("num_mel", 0)];
        for bit in 0..32 {
            let flipped = [
                MfccConfig { sample_rate: flip(paper.sample_rate, bit), ..paper },
                MfccConfig { num_mel: paper.num_mel ^ (1 << bit), ..paper },
            ];
            for ((field, count), mfcc) in served.iter_mut().zip(flipped) {
                let blob = save(mfcc);
                let aligned = AlignedBytes::from_slice(&blob);
                for loaded in [load_thnt2(blob.as_slice()), load_thnt2_ref(&aligned)] {
                    let Ok((engine, Some(meta))) = loaded else { continue };
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let config = StreamingConfig::default();
                        let mut detector = StreamingDetector::from_meta(&engine, config, &meta);
                        detector.push(&vec![0.1; meta.mfcc.sample_rate as usize]);
                    }));
                    assert!(outcome.is_ok(), "{field} bit {bit}: an accepted META panicked");
                    *count += 1;
                }
            }
        }
        assert!(served.iter().all(|&(_, n)| n > 0), "a field never loaded: {served:?}");
    }

    fn tiny_quantized(seed: u64) -> QuantizedStHybrid<'static> {
        let (_, engine) = tiny_engine(seed);
        let calib = thnt_tensor::Tensor::from_vec(
            (0..4 * 49 * 10).map(|i| ((i % 23) as f32 - 11.0) / 8.0).collect(),
            &[4, 1, 49, 10],
        );
        QuantizedStHybrid::calibrate_and_compile(
            &engine,
            &calib,
            thnt_quant::CalibrationMethod::default(),
        )
        .unwrap()
    }

    #[test]
    fn quantized_roundtrip_is_bitwise_identical() {
        let quantized = tiny_quantized(8);
        let mut blob = Vec::new();
        quantized.save(Some(&paper_meta()), &mut blob).unwrap();
        let (reloaded, meta) = QuantizedStHybrid::load(blob.as_slice()).unwrap();
        assert_eq!(reloaded, quantized);
        assert_eq!(meta.unwrap().mfcc, MfccConfig::paper());
        // Round-trip losslessness includes every scale bit.
        let a: Vec<u32> = quantized.schedule().node_hidden.iter().map(|s| s.to_bits()).collect();
        let b: Vec<u32> = reloaded.schedule().node_hidden.iter().map(|s| s.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn packed_loader_ignores_the_quant_section() {
        let quantized = tiny_quantized(9);
        let mut blob = Vec::new();
        quantized.save(None, &mut blob).unwrap();
        let (reloaded, _) = PackedStHybrid::load(blob.as_slice()).unwrap();
        assert_eq!(&reloaded, quantized.base());
    }

    #[test]
    fn quantized_loader_requires_the_quant_section() {
        let (_, engine) = tiny_engine(10);
        let mut blob = Vec::new();
        engine.save(None, &mut blob).unwrap();
        let err = QuantizedStHybrid::load(blob.as_slice()).unwrap_err();
        assert!(err.to_string().contains("QNT8"), "{err}");
    }

    #[test]
    fn quantized_loader_rejects_schedule_weight_mismatch() {
        // A structurally valid QNT8 section whose layer counts don't match
        // the packed weights must fail cross-validation at load.
        let quantized = tiny_quantized(11);
        let base = quantized.base();
        let mut bad = quantized.schedule().clone();
        bad.front.pop();
        let mut enc = Enc::new(SaveOptions::v3());
        let mut sections = SectionWriter::new();
        *sections.section(TAG_FRONT) = enc.encode_front(&base.front);
        *sections.section(TAG_TREE) = enc.encode_tree(&base.tree);
        *sections.section(TAG_QUANT) = encode_schedule(&bad);
        let mut blob = Vec::new();
        sections.write_to(&mut blob).unwrap();
        let err = QuantizedStHybrid::load(blob.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn quantized_loader_rejects_non_positive_scales() {
        let quantized = tiny_quantized(12);
        let base = quantized.base();
        let mut bad = quantized.schedule().clone();
        bad.zhat_scale = 0.0;
        let mut enc = Enc::new(SaveOptions::v3());
        let mut sections = SectionWriter::new();
        *sections.section(TAG_FRONT) = enc.encode_front(&base.front);
        *sections.section(TAG_TREE) = enc.encode_tree(&base.tree);
        *sections.section(TAG_QUANT) = encode_schedule(&bad);
        let mut blob = Vec::new();
        sections.write_to(&mut blob).unwrap();
        let err = QuantizedStHybrid::load(blob.as_slice()).unwrap_err();
        assert!(err.to_string().contains("positive"), "{err}");
    }

    #[test]
    fn reloaded_quantized_engine_forwards_identically() {
        let quantized = tiny_quantized(13);
        let mut blob = Vec::new();
        quantized.save(None, &mut blob).unwrap();
        let (reloaded, _) = QuantizedStHybrid::load(blob.as_slice()).unwrap();
        let mut rng = SmallRng::seed_from_u64(13);
        let x = thnt_tensor::gaussian(&[3, 1, 49, 10], 0.0, 1.0, &mut rng);
        let a = quantized.forward(&x);
        let b = reloaded.forward(&x);
        let ab: Vec<u32> = a.data().iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u32> = b.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(ab, bb);
    }

    #[test]
    fn file_roundtrip() {
        let (_, engine) = tiny_engine(6);
        let path = std::env::temp_dir().join("thnt_artifact_test.thnt2");
        engine.save_file(Some(&paper_meta()), &path).unwrap();
        let (reloaded, meta) = PackedStHybrid::load_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(reloaded, engine);
        assert_eq!(meta.unwrap().mfcc, MfccConfig::paper());
    }

    fn ternary(
        rows: usize,
        cols: usize,
        f: impl Fn(usize, usize) -> f32,
    ) -> PackedTernary<'static> {
        let data = (0..rows * cols).map(|i| f(i / cols, i % cols)).collect();
        PackedTernary::from_tensor(&thnt_tensor::Tensor::from_vec(data, &[rows, cols]))
    }

    /// The raw RLE bit code round-trips at both extremes (all-zero and
    /// zero-free matrices) and on odd shapes whose rows straddle bytes and
    /// words.
    #[test]
    fn rle_codec_identity_including_extremes() {
        let cases: Vec<(&str, PackedTernary<'static>)> = vec![
            ("all zero", ternary(5, 67, |_, _| 0.0)),
            ("all plus", ternary(3, 64, |_, _| 1.0)),
            ("all minus", ternary(4, 13, |_, _| -1.0)),
            ("no zeros mixed", ternary(7, 9, |r, c| if (r + c) % 2 == 0 { 1.0 } else { -1.0 })),
            ("one entry", ternary(1, 1, |_, _| -1.0)),
            ("thirds", ternary(6, 70, |r, c| ((r * 70 + c) % 3) as f32 - 1.0)),
        ];
        for (what, p) in cases {
            let blob = rle_encode(&p);
            let (plus, minus) = rle_decode(&blob, p.rows(), p.cols(), what).unwrap();
            assert_eq!(plus, p.plus_words(), "{what}: plus plane");
            assert_eq!(minus, p.minus_words(), "{what}: minus plane");
        }
    }

    /// An all-zero matrix costs exactly one bit per entry; a zero-free one
    /// exactly two. The code is tight at both extremes.
    #[test]
    fn rle_code_is_tight_at_the_extremes() {
        let zeros = ternary(5, 67, |_, _| 0.0);
        assert_eq!(rle_encode(&zeros).len(), (5 * 67usize).div_ceil(8));
        let dense = ternary(5, 67, |_, _| 1.0);
        assert_eq!(rle_encode(&dense).len(), (2 * 5 * 67usize).div_ceil(8));
    }

    #[test]
    fn rle_decode_rejects_truncation_trailing_bytes_and_dirty_padding() {
        let p = ternary(6, 70, |r, c| ((r * 70 + c) % 3) as f32 - 1.0);
        let blob = rle_encode(&p);
        // Truncated stream.
        let err = rle_decode(&blob[..blob.len() - 1], 6, 70, "t").unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // Trailing bytes.
        let mut long = blob.clone();
        long.push(0);
        let err = rle_decode(&long, 6, 70, "t").unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
        // Dirty padding bits in the final byte (the all-zero matrix leaves
        // 420 % 8 = 4 pad bits).
        let zeros = ternary(6, 70, |_, _| 0.0);
        let mut dirty = rle_encode(&zeros);
        *dirty.last_mut().unwrap() |= 0x80;
        let err = rle_decode(&dirty, 6, 70, "t").unwrap_err();
        assert!(err.to_string().contains("padding"), "{err}");
    }

    /// The committed golden blobs of `tests/artifact_properties.rs`, written by the
    /// retired v2 writer and its v3 peer from the same engines.
    const PACKED_V2: &[u8] = include_bytes!("../tests/data/packed_v2.thnt2");
    const PACKED_V3: &[u8] = include_bytes!("../tests/data/packed_v3.thnt2");
    const QUANTIZED_V2: &[u8] = include_bytes!("../tests/data/quantized_v2.thnt2");
    const QUANTIZED_V3: &[u8] = include_bytes!("../tests/data/quantized_v3.thnt2");

    /// Both write formats round-trip bitwise, the quantized container too,
    /// and v2 blobs read back to the engines of their v3 peers.
    #[test]
    fn all_formats_roundtrip() {
        let (v2, v2_meta) = load_thnt2(PACKED_V2).unwrap();
        let (v3, v3_meta) = load_thnt2(PACKED_V3).unwrap();
        assert_eq!((v2, v2_meta), (v3, v3_meta));
        assert_eq!(
            load_quantized_thnt2(QUANTIZED_V2).unwrap(),
            load_quantized_thnt2(QUANTIZED_V3).unwrap()
        );

        let (_, engine) = tiny_engine(21);
        let quantized = tiny_quantized(21);
        for opts in [SaveOptions::v3(), SaveOptions::v3_rle()] {
            let mut blob = Vec::new();
            save_thnt2_with(&engine, Some(&paper_meta()), opts, &mut blob).unwrap();
            let (reloaded, meta) = PackedStHybrid::load(blob.as_slice()).unwrap();
            assert_eq!(reloaded, engine, "{opts:?}");
            assert_eq!(meta.unwrap(), paper_meta());

            let mut qblob = Vec::new();
            save_quantized_thnt2_with(&quantized, None, opts, &mut qblob).unwrap();
            let (qreloaded, _) = QuantizedStHybrid::load(qblob.as_slice()).unwrap();
            assert_eq!(qreloaded, quantized, "{opts:?}");
        }
    }

    /// A zero-copy load of an aligned v3 artifact borrows **every**
    /// bitplane from the buffer, and every conv and dense `â`/bias and
    /// depthwise sign vector; v3-rle and v2 decode to owned planes; a
    /// deliberately misaligned buffer still loads correctly, just owned.
    #[test]
    fn zero_copy_load_borrows_exactly_when_aligned_v3_inline() {
        let (_, engine) = tiny_engine(22);
        let mut blob = Vec::new();
        save_thnt2_with(&engine, None, SaveOptions::v3(), &mut blob).unwrap();
        let aligned = AlignedBytes::from_slice(&blob);
        let (borrowed, _) = load_thnt2_ref(&aligned).unwrap();
        assert!(borrowed.bitplanes_borrowed(), "aligned v3 inline must not copy planes");
        assert_eq!(borrowed, engine);
        let lent = |v: &Cow<'_, [f32]>| matches!(v, Cow::Borrowed(_));
        let dense_lent = |d: &PackedDense<'_>| lent(&d.a_hat) && lent(&d.bias);
        for (i, layer) in borrowed.front.layers.iter().enumerate() {
            let payloads_lent = match layer {
                PackedLayer::Conv(c) => lent(&c.a_hat) && lent(&c.bias),
                PackedLayer::Dense(d) => dense_lent(d),
                PackedLayer::Depthwise(d) => {
                    matches!((&d.wb_signs, &d.wc_signs), (Cow::Borrowed(_), Cow::Borrowed(_)))
                }
                _ => true,
            };
            assert!(payloads_lent, "layer {i}: aligned v3 inline copied a payload");
        }
        let tree = &borrowed.tree;
        let mut nodes = std::iter::once(&tree.z).chain(&tree.nodes);
        assert!(nodes.all(dense_lent), "tree â/bias must be borrowed");

        // Shift the same bytes off 8-byte alignment: the loader falls back
        // to copying, bit-for-bit identically.
        let mut shifted = vec![0u8; blob.len() + 8];
        let off = (8 - (shifted.as_ptr() as usize % 8)) % 8 + 1;
        shifted[off..off + blob.len()].copy_from_slice(&blob);
        let (owned, _) = load_thnt2_ref(&shifted[off..off + blob.len()]).unwrap();
        assert!(!owned.bitplanes_borrowed());
        assert_eq!(owned, engine);

        let mut rle = Vec::new();
        save_thnt2_with(&engine, None, SaveOptions::v3_rle(), &mut rle).unwrap();
        let aligned = AlignedBytes::from_slice(&rle);
        let (reloaded, _) = load_thnt2_ref(&aligned).unwrap();
        assert!(!reloaded.bitplanes_borrowed(), "v3-rle cannot borrow");
        assert_eq!(reloaded, engine);

        let aligned = AlignedBytes::from_slice(PACKED_V2);
        let (reloaded, _) = load_thnt2_ref(&aligned).unwrap();
        assert!(!reloaded.bitplanes_borrowed(), "v2 cannot borrow");
        assert_eq!(reloaded, load_thnt2(PACKED_V3).unwrap().0);
    }

    /// The borrowed load skips the O(words) plane scans, but a set padding
    /// bit names an activation column past `cols` — a read out of bounds
    /// in the SIMD `matmul_rhs` stripes — so it must still be refused.
    #[test]
    fn zero_copy_load_rejects_a_set_padding_bit() {
        let (_, engine) = tiny_engine(24);
        let mut blob = Vec::new();
        save_thnt2_with(&engine, None, SaveOptions::v3(), &mut blob).unwrap();
        let PackedLayer::Conv(conv) = &engine.front.layers[0] else {
            panic!("front starts with a conv")
        };
        assert_eq!(conv.wb.cols(), 40, "each row is one word with 24 padding bits");
        let plane: Vec<u8> = conv.wb.plus_words().iter().flat_map(|w| w.to_le_bytes()).collect();
        let at = blob.windows(plane.len()).position(|w| w == plane).unwrap();
        assert!(load_thnt2_ref(&AlignedBytes::from_slice(&blob)).is_ok());
        blob[at + 7] |= 0x80; // bit 63 of row 0's word
        let err = load_thnt2_ref(&AlignedBytes::from_slice(&blob)).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("row 0 has set bits in the padding region"), "{err}");
        assert!(load_thnt2(blob.as_slice()).is_err());
    }

    /// The acceptance criterion for RLE: on a standard ternary net (about a
    /// third of the weights are zero) the artifact is smaller on disk than
    /// the packed model is in memory, and smaller than its inline peer.
    #[test]
    fn rle_artifacts_are_smaller_on_disk_than_the_model_in_memory() {
        let (_, engine) = tiny_engine(23);
        let model_bytes = thnt_nn::InferenceBackend::model_bytes(&engine);
        let mut inline = Vec::new();
        save_thnt2_with(&engine, None, SaveOptions::v3(), &mut inline).unwrap();
        let mut rle = Vec::new();
        save_thnt2_with(&engine, None, SaveOptions::v3_rle(), &mut rle).unwrap();
        assert!(
            rle.len() < inline.len(),
            "RLE ({}) must beat inline ({})",
            rle.len(),
            inline.len()
        );
        assert!(
            rle.len() < model_bytes,
            "bytes_on_disk ({}) must beat model_bytes ({model_bytes})",
            rle.len()
        );
    }

    #[test]
    fn aligned_bytes_really_are_aligned() {
        for n in [0usize, 1, 7, 8, 9, 4096, 4097] {
            let data: Vec<u8> = (0..n).map(|i| i as u8).collect();
            let a = AlignedBytes::from_slice(&data);
            assert_eq!(a.as_ptr() as usize % 8, 0);
            assert_eq!(&a[..], &data[..]);
        }
    }
}
