//! The packed GEMM right operand, at any storage precision.
//!
//! [`PackedAny`] is `B` repacked once into strips of [`NR`] consecutive
//! rows, transposed so that for each depth index `dd` the `NR` row values
//! are contiguous: `payload[s*d*NR + dd*NR + l] = Q(B[s*NR + l][dd])`,
//! tail lanes zero-padded. One load then feeds `NR` output columns. The
//! payload is tagged with its element width:
//!
//! * **f32** — the reference;
//! * **f16** — bit-exact binary16 (2 bytes/element);
//! * **int8** — per-row symmetric quantization with one scale per lane
//!   (`scales[row]`, 0 for padded lanes), so a strip's 8 scales load once
//!   and serve its whole depth walk (1 byte/element + 4 bytes/row).
//!
//! The blocked GEMM ([`crate::gemm`]) and the fused reductions
//! ([`crate::fused`]) tile against it through one register-block loop.
//! Its micro-kernel is chosen by payload and [`SimdLevel`]: the scalar
//! reference, the AVX2 mul+add kernels (F16C widening for f16,
//! `cvtepi8_epi32` for int8) and, for f32 only, the opt-in FMA kernel.
//! Every exact kernel accumulates each lane strictly in depth order with
//! separate multiply and add, so scores are bitwise equal to the naive
//! sequential `dot` against the *dequantized* operand
//! ([`crate::quantize_roundtrip`]) whatever the level or tile geometry.
//! Quantized payloads dequantize inside the register block, so an f32 copy
//! of the operand never exists. Panel sizing follows the element width:
//! narrower payloads keep more strips hot per L2 panel.
//!
//! Packing runs on the pool, one strip per item. [`PackedBuilder`] fills
//! the same payload from row chunks — a strip depends only on its own `NR`
//! rows — so snapshots stream from disk ([`pack_snapshot_stream`]) with
//! O(chunk) memory above the packed output.
//!
//! Telemetry (when enabled): `gemm.packed_bytes` for f32 payloads; a
//! `quant.pack` span with `quant.rows` and `quant.packed_bytes` for
//! f16/int8 ones; `quant.stream.chunks` per streamed snapshot chunk.

use crate::error::LinalgError;
use crate::gemm::{MR, NR, PANEL_BYTES};
use crate::matrix::Matrix;
use crate::parallel::{par_row_chunks_mut_grained, Grain};
use crate::quant::{
    dequantize_value_int8, f16_bits_to_f32, f32_to_f16_bits, int8_row_scale, quantize_value_int8,
    Precision,
};
use crate::simd::SimdLevel;
use crate::snapshot::SnapshotReader;
use crate::Result;
use entmatcher_support::telemetry;
use std::ops::Range;

/// Strip-layout storage at one element width.
#[derive(Debug, Clone)]
enum Payload {
    F32(Vec<f32>),
    F16(Vec<u16>),
    Int8 { q: Vec<i8>, scales: Vec<f32> },
}

impl Payload {
    /// An empty payload with room for `strips` strips of depth `d`.
    fn with_capacity(precision: Precision, strips: usize, d: usize) -> Payload {
        let elems = strips * d * NR;
        match precision {
            Precision::F32 => Payload::F32(Vec::with_capacity(elems)),
            Precision::F16 => Payload::F16(Vec::with_capacity(elems)),
            Precision::Int8 => Payload::Int8 {
                q: Vec::with_capacity(elems),
                scales: Vec::with_capacity(strips * NR),
            },
        }
    }

    fn precision(&self) -> Precision {
        match self {
            Payload::F32(_) => Precision::F32,
            Payload::F16(_) => Precision::F16,
            Payload::Int8 { .. } => Precision::Int8,
        }
    }

    fn bytes(&self) -> usize {
        match self {
            Payload::F32(f) => f.len() * 4,
            Payload::F16(h) => h.len() * 2,
            Payload::Int8 { q, scales } => q.len() + scales.len() * 4,
        }
    }

    /// Appends `rows.div_ceil(NR)` strips packed from the row-major
    /// `rows x d` block `src`.
    fn append(&mut self, src: &[f32], rows: usize, d: usize) {
        let strips = rows.div_ceil(NR);
        match self {
            Payload::F32(f) => fill_strips(grow(f, strips * d * NR), src, rows, d, |_, v| v),
            Payload::F16(h) => fill_strips(grow(h, strips * d * NR), src, rows, d, |_, v| {
                f32_to_f16_bits(v)
            }),
            Payload::Int8 { q, scales } => {
                let lanes = grow(scales, strips * NR);
                for (r, scale) in lanes.iter_mut().take(rows).enumerate() {
                    *scale = int8_row_scale(&src[r * d..(r + 1) * d]);
                }
                let lanes = &*lanes;
                fill_strips(grow(q, strips * d * NR), src, rows, d, |r, v| {
                    quantize_value_int8(v, lanes[r])
                });
            }
        }
    }
}

/// Extends `v` by `extra` default elements and returns the new tail.
fn grow<T: Copy + Default>(v: &mut Vec<T>, extra: usize) -> &mut [T] {
    let start = v.len();
    v.resize(start + extra, T::default());
    &mut v[start..]
}

/// Packs rows `0..rows` of `src` into the zeroed strip buffer `out`,
/// storing `conv(row, value)` per element; one strip per pool item.
fn fill_strips<T: Send>(
    out: &mut [T],
    src: &[f32],
    rows: usize,
    d: usize,
    conv: impl Fn(usize, f32) -> T + Sync,
) {
    if rows == 0 || d == 0 {
        return;
    }
    par_row_chunks_mut_grained(
        out,
        d * NR,
        Grain::for_item_cost(d * NR),
        |strip0, chunk| {
            for (si, strip) in chunk.chunks_exact_mut(d * NR).enumerate() {
                let s = strip0 + si;
                for l in 0..NR.min(rows - s * NR) {
                    let r = s * NR + l;
                    for (dd, &v) in src[r * d..(r + 1) * d].iter().enumerate() {
                        strip[dd * NR + l] = conv(r, v);
                    }
                }
            }
        },
    );
}

/// A packed GEMM right operand at any storage precision — what the
/// similarity stage, the fused route, IVF posting lists and the serving
/// index store, so one code path handles full and reduced precision.
#[derive(Debug, Clone)]
pub struct PackedAny {
    payload: Payload,
    /// Valid (unpadded) row count.
    n: usize,
    /// Shared depth (columns of `A` and of the packed `B`).
    d: usize,
}

impl PackedAny {
    /// Packs `b` (an `n x d` row-major matrix) at `precision`.
    pub fn pack(b: &Matrix, precision: Precision) -> PackedAny {
        let mut span = (precision != Precision::F32).then(|| telemetry::span("quant.pack"));
        let mut builder = PackedBuilder::with_capacity(precision, b.cols(), b.rows());
        builder.append(b).expect("the builder takes b's own width");
        let packed = builder.finish();
        if let Some(span) = span.as_mut() {
            span.add_bytes(packed.packed_bytes() as u64);
        }
        packed
    }

    /// Storage precision of the payload.
    pub fn precision(&self) -> Precision {
        self.payload.precision()
    }

    /// Valid row count of the packed operand.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Shared depth of the packed operand.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Number of [`NR`]-row strips (including the zero-padded tail strip).
    pub fn strips(&self) -> usize {
        self.n.div_ceil(NR)
    }

    /// Heap bytes held by the payload (+ scales for int8): ~`4d` per row
    /// for f32, ~`2d` for f16, ~`d + 4` for int8.
    pub fn packed_bytes(&self) -> usize {
        self.payload.bytes()
    }

    /// Strips per L2 cache panel, sized by the element width.
    pub fn panel_strips(&self) -> usize {
        let strip_bytes = (self.d * NR * self.precision().elem_bytes()).max(1);
        (PANEL_BYTES / strip_bytes).max(1)
    }

    /// Rows `rows` of the operand as an f32 matrix: exactly the values the
    /// kernels multiply by, so at f16/int8 these are the rows of
    /// [`crate::quantize_roundtrip`] of the packed matrix.
    pub fn unpack_rows(&self, rows: Range<usize>) -> Matrix {
        assert!(
            rows.end <= self.n,
            "rows {rows:?} out of bounds ({})",
            self.n
        );
        let (start, d) = (rows.start, self.d);
        Matrix::from_fn(rows.len(), d, |i, c| {
            let r = start + i;
            let at = (r / NR) * d * NR + c * NR + r % NR;
            match &self.payload {
                Payload::F32(f) => f[at],
                Payload::F16(h) => f16_bits_to_f32(h[at]),
                Payload::Int8 { q, scales } => dequantize_value_int8(q[at], scales[r]),
            }
        })
    }

    /// The micro-kernel level this payload runs at: the requested level
    /// clamped to what the CPU supports; quantized kernels have no FMA
    /// variant (they stay bitwise exact), and the f16 vector kernel needs
    /// F16C on top of AVX2.
    fn effective_level(&self, level: SimdLevel) -> SimdLevel {
        match (&self.payload, crate::simd::clamp_supported(level)) {
            (Payload::F32(_), level) => level,
            (Payload::F16(_), SimdLevel::Avx2 | SimdLevel::Fma) if !crate::simd::has_f16c() => {
                SimdLevel::Scalar
            }
            (_, SimdLevel::Fma) => SimdLevel::Avx2,
            (_, level) => level,
        }
    }

    /// Computes the tile `A[row0..row0+rows] x strips` into `out`
    /// (row-major, stride `out_stride`, column 0 = output column
    /// `col_base`; tail lanes past [`PackedAny::n`] trimmed) at `level`.
    /// Returns micro-kernel invocations.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn block_into(
        &self,
        a: &Matrix,
        row0: usize,
        rows: usize,
        strips: Range<usize>,
        out: &mut [f32],
        out_stride: usize,
        col_base: usize,
        level: SimdLevel,
    ) -> u64 {
        let len = self.d * NR;
        let at = |s: usize| s * len..(s + 1) * len;
        let tile = (a, row0, rows, self.n, strips);
        match (&self.payload, self.effective_level(level)) {
            #[cfg(target_arch = "x86_64")]
            (Payload::F32(f), vector @ (SimdLevel::Avx2 | SimdLevel::Fma)) => {
                drive(tile, out, out_stride, col_base, |a_rows, s, acc| {
                    // SAFETY: `effective_level` keeps a vector level only
                    // when the CPU supports it, and every row of `a` has
                    // `d = strip.len() / NR` elements.
                    unsafe {
                        if vector == SimdLevel::Fma {
                            crate::simd::micro_fma(a_rows, &f[at(s)], acc);
                        } else {
                            crate::simd::micro_avx2(a_rows, &f[at(s)], acc);
                        }
                    }
                })
            }
            #[cfg(target_arch = "x86_64")]
            (Payload::F16(h), SimdLevel::Avx2) => {
                drive(tile, out, out_stride, col_base, |a_rows, s, acc| {
                    // SAFETY: as above; Avx2 for f16 also implies F16C.
                    unsafe { crate::simd::micro_avx2_f16(a_rows, &h[at(s)], acc) };
                })
            }
            #[cfg(target_arch = "x86_64")]
            (Payload::Int8 { q, scales }, SimdLevel::Avx2) => {
                drive(tile, out, out_stride, col_base, |a_rows, s, acc| {
                    let mut lane = [0.0f32; NR];
                    lane.copy_from_slice(&scales[s * NR..(s + 1) * NR]);
                    // SAFETY: as for the f32 kernel above.
                    unsafe { crate::simd::micro_avx2_i8(a_rows, &q[at(s)], &lane, acc) };
                })
            }
            (Payload::F32(f), _) => {
                drive::<MR>(tile, out, out_stride, col_base, |a_rows, s, acc| {
                    micro_scalar(a_rows, &f[at(s)], acc, |v, _| v)
                })
            }
            (Payload::F16(h), _) => {
                drive::<MR>(tile, out, out_stride, col_base, |a_rows, s, acc| {
                    micro_scalar(a_rows, &h[at(s)], acc, |v, _| f16_bits_to_f32(v))
                })
            }
            (Payload::Int8 { q, scales }, _) => {
                drive::<MR>(tile, out, out_stride, col_base, |a_rows, s, acc| {
                    let lane = &scales[s * NR..(s + 1) * NR];
                    micro_scalar(a_rows, &q[at(s)], acc, |v, l| {
                        dequantize_value_int8(v, lane[l])
                    })
                })
            }
        }
    }
}

/// The register-block loop every payload and level shares: `MRV`-row
/// blocks of `A` rows `row0..row0+rows` against each strip in `strips`
/// of an `n`-row operand, stored into `out` (stride `out_stride`, column
/// 0 = output column `col_base`, tail lanes trimmed). A remainder block
/// clamps its trailing row pointers to the last valid row; those
/// duplicate rows are computed but never stored, so one fixed-arity
/// kernel serves every shape. Returns micro-kernel invocations.
#[inline]
fn drive<const MRV: usize>(
    (a, row0, rows, n, strips): (&Matrix, usize, usize, usize, Range<usize>),
    out: &mut [f32],
    out_stride: usize,
    col_base: usize,
    kernel: impl Fn(&[&[f32]; MRV], usize, &mut [[f32; NR]; MRV]),
) -> u64 {
    let mut tiles = 0u64;
    let mut r = 0usize;
    while r < rows {
        let mr = MRV.min(rows - r);
        let a_rows: [&[f32]; MRV] = std::array::from_fn(|i| a.row(row0 + r + i.min(mr - 1)));
        for s in strips.clone() {
            let mut acc = [[0.0f32; NR]; MRV];
            kernel(&a_rows, s, &mut acc);
            let col = s * NR;
            let valid = NR.min(n - col);
            for (i, lanes) in acc.iter().enumerate().take(mr) {
                let dst = (r + i) * out_stride + (col - col_base);
                out[dst..dst + valid].copy_from_slice(&lanes[..valid]);
            }
            tiles += 1;
        }
        r += mr;
    }
    tiles
}

/// The scalar reference micro-kernel: `MRV` rows of `A` against one strip
/// whose elements `widen(value, lane)` turns into f32, accumulated into
/// the zeroed `acc`. Each lane walks depth in strict order with a
/// separate multiply and add — the exact operation sequence of the AVX2
/// kernels.
#[inline]
fn micro_scalar<const MRV: usize, T: Copy>(
    a_rows: &[&[f32]; MRV],
    strip: &[T],
    acc: &mut [[f32; NR]; MRV],
    widen: impl Fn(T, usize) -> f32,
) {
    for (dd, chunk) in strip.chunks_exact(NR).enumerate() {
        let b8: [f32; NR] = std::array::from_fn(|l| widen(chunk[l], l));
        for i in 0..MRV {
            let av = a_rows[i][dd];
            for l in 0..NR {
                acc[i][l] += av * b8[l];
            }
        }
    }
}

/// Incrementally packs row chunks into a [`PackedAny`] without ever
/// holding the full f32 operand: each appended chunk packs its full strips
/// at once, and only a `< NR`-row carry persists between appends.
#[derive(Debug)]
pub struct PackedBuilder {
    payload: Payload,
    d: usize,
    /// Rows packed into full strips so far (a multiple of `NR`).
    packed_rows: usize,
    /// The `< NR` trailing rows (row-major f32) awaiting a full strip.
    carry: Vec<f32>,
    carry_rows: usize,
}

impl PackedBuilder {
    /// Starts a builder for `d`-dimensional rows at `precision`.
    pub fn new(precision: Precision, d: usize) -> PackedBuilder {
        PackedBuilder::with_capacity(precision, d, 0)
    }

    /// Starts a builder with payload room for `rows_hint` total rows (e.g.
    /// from a snapshot header), so appends never reallocate.
    pub fn with_capacity(precision: Precision, d: usize, rows_hint: usize) -> PackedBuilder {
        PackedBuilder {
            payload: Payload::with_capacity(precision, rows_hint.div_ceil(NR), d),
            d,
            packed_rows: 0,
            carry: Vec::new(),
            carry_rows: 0,
        }
    }

    /// Rows appended so far.
    pub fn rows(&self) -> usize {
        self.packed_rows + self.carry_rows
    }

    /// Appends a chunk of rows (its column count must match `d`).
    pub fn append(&mut self, chunk: &Matrix) -> Result<()> {
        if chunk.cols() != self.d {
            return Err(LinalgError::DimMismatch {
                op: "quant_pack_append",
                left: (self.rows(), self.d),
                right: chunk.shape(),
            });
        }
        let d = self.d;
        let (mut src, mut rows) = (chunk.as_slice(), chunk.rows());
        if self.carry_rows > 0 {
            let take = (NR - self.carry_rows).min(rows);
            self.carry.extend_from_slice(&src[..take * d]);
            self.carry_rows += take;
            (src, rows) = (&src[take * d..], rows - take);
            if self.carry_rows < NR {
                return Ok(());
            }
            self.payload.append(&self.carry, NR, d);
            self.packed_rows += NR;
            self.carry.clear();
            self.carry_rows = 0;
        }
        let full = rows / NR * NR;
        self.payload.append(&src[..full * d], full, d);
        self.packed_rows += full;
        self.carry.extend_from_slice(&src[full * d..]);
        self.carry_rows = rows - full;
        Ok(())
    }

    /// Finishes the operand, packing any carry into a final zero-padded
    /// strip, and records the packed-bytes counters.
    pub fn finish(mut self) -> PackedAny {
        if self.carry_rows > 0 {
            self.payload.append(&self.carry, self.carry_rows, self.d);
        }
        let packed = PackedAny {
            n: self.rows(),
            d: self.d,
            payload: self.payload,
        };
        let bytes = packed.packed_bytes() as u64;
        if packed.precision() == Precision::F32 {
            telemetry::add("gemm.packed_bytes", bytes);
        } else {
            telemetry::add("quant.rows", packed.n as u64);
            telemetry::add("quant.packed_bytes", bytes);
        }
        packed
    }
}

/// Streams a snapshot file into a packed operand in `chunk_rows`-row
/// chunks: each chunk is buffered-read, packed on the pool, and dropped,
/// so aux memory above the packed output is O(chunk), independent of
/// snapshot size. Emits a `quant.pack` span with `quant.stream.chunks`.
pub fn pack_snapshot_stream(
    path: &std::path::Path,
    precision: Precision,
    chunk_rows: usize,
) -> Result<PackedAny> {
    let mut span = telemetry::span("quant.pack");
    let mut reader = SnapshotReader::open(path)?;
    let chunk_rows = chunk_rows.max(1);
    let mut builder = PackedBuilder::with_capacity(precision, reader.cols(), reader.rows());
    let mut chunks = 0u64;
    while let Some(chunk) = reader.next_chunk(chunk_rows)? {
        builder.append(&chunk)?;
        chunks += 1;
    }
    telemetry::add("quant.stream.chunks", chunks);
    let packed = builder.finish();
    span.add_bytes(packed.packed_bytes() as u64);
    Ok(packed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul_blocked_packed;
    use crate::quant::quantize_roundtrip;

    const ALL: [Precision; 3] = [Precision::F32, Precision::F16, Precision::Int8];

    fn seq_matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            (((r * 31 + c * 17 + salt * 7) % 23) as f32 - 11.0) * 0.25
        })
    }

    #[test]
    fn f32_layout_transposes_strips_and_zero_pads() {
        let b = seq_matrix(10, 3, 1);
        let p = PackedAny::pack(&b, Precision::F32);
        assert_eq!((p.n(), p.d(), p.strips()), (10, 3, 2));
        let Payload::F32(data) = &p.payload else {
            panic!("f32 payload expected")
        };
        // Element (row j, depth dd) lives at strip j/NR, offset dd*NR + j%NR.
        for j in 0..10 {
            for dd in 0..3 {
                assert_eq!(data[(j / NR) * 3 * NR + dd * NR + j % NR], b.get(j, dd));
            }
        }
        // Padded tail lanes of the last strip are zero.
        for dd in 0..3 {
            for l in 2..NR {
                assert_eq!(data[3 * NR + dd * NR + l], 0.0);
            }
        }
    }

    #[test]
    fn unpacked_rows_are_the_roundtripped_matrix() {
        let b = seq_matrix(21, 9, 4);
        for precision in ALL {
            let p = PackedAny::pack(&b, precision);
            assert_eq!(p.unpack_rows(0..21), quantize_roundtrip(&b, precision));
            assert_eq!(
                p.unpack_rows(5..13),
                quantize_roundtrip(&b, precision)
                    .select_rows(&(5..13).collect::<Vec<_>>())
                    .unwrap(),
                "{}",
                precision.name()
            );
        }
    }

    #[test]
    fn quantized_gemm_equals_dense_product_of_roundtripped_operand() {
        // The dequantize-fused kernel must produce exactly the scores of a
        // full-precision GEMM against the dequantized operand — fusion
        // changes memory traffic, never values.
        let a = seq_matrix(13, 19, 0);
        let b = seq_matrix(21, 19, 5);
        for precision in [Precision::F16, Precision::Int8] {
            let fused = matmul_blocked_packed(&a, &PackedAny::pack(&b, precision)).unwrap();
            let roundtripped = quantize_roundtrip(&b, precision);
            let reference =
                matmul_blocked_packed(&a, &PackedAny::pack(&roundtripped, Precision::F32)).unwrap();
            assert_eq!(fused, reference, "{}", precision.name());
        }
    }

    #[test]
    fn panel_strips_scale_with_element_width() {
        let b = seq_matrix(64, 128, 1);
        let strips = |p| PackedAny::pack(&b, p).panel_strips();
        assert_eq!(strips(Precision::F16), strips(Precision::F32) * 2);
        assert_eq!(strips(Precision::Int8), strips(Precision::F32) * 4);
        // Positive even when one strip outgrows the panel.
        assert!(PackedAny::pack(&Matrix::zeros(2, 1_000_000), Precision::F32).panel_strips() >= 1);
    }

    #[test]
    fn packed_bytes_shrink_by_element_width() {
        let b = seq_matrix(512, 64, 2);
        let bytes = |p| PackedAny::pack(&b, p).packed_bytes() as f64;
        assert_eq!(bytes(Precision::F32), 512.0 * 64.0 * 4.0);
        assert_eq!(bytes(Precision::F16), bytes(Precision::F32) / 2.0);
        let ratio = bytes(Precision::F32) / bytes(Precision::Int8);
        assert!(ratio >= 3.5, "int8 ratio {ratio}");
    }

    #[test]
    fn builder_matches_one_shot_pack_across_chunkings() {
        let b = seq_matrix(53, 11, 7);
        let a = seq_matrix(9, 11, 8);
        for precision in ALL {
            let reference = matmul_blocked_packed(&a, &PackedAny::pack(&b, precision)).unwrap();
            // Chunk sizes that are strip-aligned, misaligned, and > n.
            for chunk in [1usize, 5, 8, 24, 100] {
                let mut builder = PackedBuilder::with_capacity(precision, 11, b.rows());
                let mut r = 0;
                while r < b.rows() {
                    let rows = chunk.min(b.rows() - r);
                    let chunk_m = Matrix::from_fn(rows, 11, |i, c| b.get(r + i, c));
                    builder.append(&chunk_m).unwrap();
                    r += rows;
                }
                let packed = builder.finish();
                assert_eq!(packed.n(), b.rows());
                assert_eq!(
                    matmul_blocked_packed(&a, &packed).unwrap(),
                    reference,
                    "{} chunk={chunk}",
                    precision.name()
                );
            }
        }
    }

    #[test]
    fn builder_rejects_width_mismatch_and_handles_empty() {
        let mut builder = PackedBuilder::new(Precision::Int8, 4);
        assert!(builder.append(&Matrix::zeros(2, 5)).is_err());
        builder.append(&Matrix::zeros(0, 4)).unwrap();
        let packed = builder.finish();
        assert_eq!(packed.n(), 0);
        assert_eq!(packed.packed_bytes(), 0);
        // Zero-width rows still count.
        assert_eq!(PackedAny::pack(&Matrix::zeros(5, 0), Precision::F32).n(), 5);
    }

    #[test]
    fn snapshot_stream_pack_equals_in_memory_pack() {
        let b = seq_matrix(41, 7, 9);
        let a = seq_matrix(6, 7, 10);
        let dir = std::env::temp_dir().join(format!("entmatcher-packed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.emb");
        std::fs::write(&path, crate::snapshot::to_bytes(&b)).unwrap();
        for precision in ALL {
            let streamed = pack_snapshot_stream(&path, precision, 12).unwrap();
            let reference = PackedAny::pack(&b, precision);
            assert_eq!(streamed.n(), reference.n());
            assert_eq!(streamed.packed_bytes(), reference.packed_bytes());
            assert_eq!(
                matmul_blocked_packed(&a, &streamed).unwrap(),
                matmul_blocked_packed(&a, &reference).unwrap(),
                "{}",
                precision.name()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
