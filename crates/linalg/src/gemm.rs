//! Cache-blocked `A * B^T` kernel with operand packing and register tiling.
//!
//! The naive kernel in [`crate::ops`] computes each output element as an
//! independent sequential dot product. That formulation has two costs at
//! scale: the reduction over `d` is a serial FP dependency chain (no SIMD —
//! f32 addition is not associative, so LLVM cannot reassociate it), and the
//! whole `B` operand is streamed from memory once per `A` row.
//!
//! This module restructures the computation the BLIS way:
//!
//! * **Packing** — `B` is repacked once into a [`PackedAny`]: strips of
//!   [`NR`] consecutive `B` rows, transposed so that for each depth index
//!   `d` the `NR` values `B[j..j+NR][d]` are contiguous, at f32, f16 or
//!   int8 width. One packed load feeds `NR` output columns.
//! * **Register tiling** — the micro-kernel (in [`crate::packed`], one per
//!   payload width and SIMD level) keeps an `MR x NR` accumulator
//!   block in registers and walks the full depth once per tile. SIMD runs
//!   *across the `NR` output columns*, never across `d`: each accumulator
//!   lane sums its column strictly in `d` order, so every output element is
//!   **bit-identical** to the naive sequential `dot` of the same rows. The
//!   fused kernels in [`crate::fused`] and the dense path therefore agree
//!   exactly, whatever the tile geometry.
//! * **Cache blocking** — panels of [`PANEL_BYTES`] worth of packed strips
//!   stay resident in L2 while every row block of the worker's chunk is
//!   streamed against them, so `B` traffic drops from `m` passes to
//!   `m / chunk_rows` passes.
//!
//! Telemetry (when enabled): `gemm.tiles` (micro-kernel invocations),
//! `gemm.packed_bytes` (bytes packed), `gemm.panels` (L2 panel passes).

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::packed::PackedAny;
use crate::parallel::{par_row_chunks_mut_grained, Grain};
use crate::quant::Precision;
use crate::simd::SimdLevel;
use crate::Result;
use entmatcher_support::telemetry;

/// Rows of `A` per register tile.
pub const MR: usize = 4;

/// Rows of `B` (output columns) per packed strip / register tile. Eight
/// f32 lanes map onto one 256-bit vector register.
pub const NR: usize = 8;

/// Target bytes of packed `B` kept hot per cache panel (~half a typical
/// 512 KiB L2, leaving room for the `A` row block and the output tile).
pub const PANEL_BYTES: usize = 256 * 1024;

/// Blocked `A * B^T` against a pre-packed right operand (any precision),
/// using the process-wide SIMD dispatch decision ([`crate::simd::active`]).
pub fn matmul_blocked_packed(a: &Matrix, packed: &PackedAny) -> Result<Matrix> {
    matmul_blocked_packed_with(a, packed, crate::simd::active())
}

/// Blocked `A * B^T` against a pre-packed right operand with an explicit
/// micro-kernel level — the entry point for scalar-vs-SIMD equivalence
/// tests and benchmarks. The output chunk rows are parallelized on the
/// persistent pool; within each task the packed panels loop outermost so
/// each panel is read from L2, not memory.
pub fn matmul_blocked_packed_with(
    a: &Matrix,
    packed: &PackedAny,
    level: SimdLevel,
) -> Result<Matrix> {
    if a.cols() != packed.d() {
        return Err(LinalgError::DimMismatch {
            op: "matmul_blocked",
            left: a.shape(),
            right: (packed.n(), packed.d()),
        });
    }
    let (m, n) = (a.rows(), packed.n());
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return Ok(out);
    }
    let panel = packed.panel_strips();
    let strips = packed.strips();
    let tiles = std::sync::atomic::AtomicU64::new(0);
    let panels = std::sync::atomic::AtomicU64::new(0);
    // One output row costs n * d flops; never split tasks below the
    // register-block height so every task runs full-width tiles.
    let grain =
        Grain::for_item_cost(n.saturating_mul(packed.d().max(1))).at_least(crate::simd::MR_SIMD);
    par_row_chunks_mut_grained(out.as_mut_slice(), n, grain, |start_row, chunk| {
        let rows = chunk.len() / n;
        let mut local_tiles = 0u64;
        let mut local_panels = 0u64;
        let mut s0 = 0usize;
        while s0 < strips {
            let s1 = (s0 + panel).min(strips);
            local_tiles += packed.block_into(a, start_row, rows, s0..s1, chunk, n, 0, level);
            local_panels += 1;
            s0 = s1;
        }
        tiles.fetch_add(local_tiles, std::sync::atomic::Ordering::Relaxed);
        panels.fetch_add(local_panels, std::sync::atomic::Ordering::Relaxed);
    });
    telemetry::add("gemm.tiles", tiles.into_inner());
    telemetry::add("gemm.panels", panels.into_inner());
    Ok(out)
}

/// Blocked `A * B^T`: packs `B` and multiplies. Drop-in replacement for the
/// naive kernel — see the module docs for why results are bit-identical.
pub fn matmul_blocked(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    matmul_blocked_with(a, b, crate::simd::active())
}

/// [`matmul_blocked`] with an explicit micro-kernel level (see
/// [`matmul_blocked_packed_with`]).
pub fn matmul_blocked_with(a: &Matrix, b: &Matrix, level: SimdLevel) -> Result<Matrix> {
    if a.cols() != b.cols() {
        return Err(LinalgError::DimMismatch {
            op: "matmul_blocked",
            left: a.shape(),
            right: b.shape(),
        });
    }
    matmul_blocked_packed_with(a, &PackedAny::pack(b, Precision::F32), level)
}

/// Computes the scores tile `A[row0..row0+rows] x strips[s0..s1]` into the
/// caller's scratch buffer (`rows x (s1-s0)*NR` row-major, tail columns
/// trimmed to `packed.n()`); used by the fused streaming kernels, which
/// reduce the tile immediately instead of materializing the full matrix.
/// Returns the valid (trimmed) tile width.
pub(crate) fn tile_into(
    a: &Matrix,
    row0: usize,
    rows: usize,
    packed: &PackedAny,
    s0: usize,
    s1: usize,
    scratch: &mut [f32],
) -> (usize, u64) {
    let col_base = s0 * NR;
    let width = (packed.n().min(s1 * NR)) - col_base;
    let stride = (s1 - s0) * NR;
    debug_assert!(scratch.len() >= rows * stride);
    let tiles = packed.block_into(
        a,
        row0,
        rows,
        s0..s1,
        scratch,
        stride,
        col_base,
        crate::simd::active(),
    );
    (width, tiles)
}

/// Width of the scratch buffer rows handed to [`tile_into`] for a strip
/// range of `count` strips.
pub(crate) fn tile_stride(count: usize) -> usize {
    count * NR
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{dot, matmul_naive};

    fn seq_matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            (((r * 31 + c * 17 + salt * 7) % 23) as f32 - 11.0) * 0.25
        })
    }

    #[test]
    fn blocked_is_bitwise_equal_to_naive() {
        // Sequential d-order accumulation makes the blocked kernel exactly
        // reproduce the naive dot, not just approximately.
        let a = seq_matrix(13, 19, 0);
        let b = seq_matrix(21, 19, 5);
        let blocked = matmul_blocked(&a, &b).unwrap();
        let naive = matmul_naive(&a, &b).unwrap();
        assert_eq!(blocked, naive);
        for i in [0usize, 12] {
            for j in [0usize, 7, 20] {
                assert_eq!(blocked.get(i, j), dot(a.row(i), b.row(j)));
            }
        }
    }

    #[test]
    fn blocked_checks_inner_dim() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        assert!(matmul_blocked(&a, &b).is_err());
    }

    #[test]
    fn empty_shapes_yield_empty_outputs() {
        for (m, n, d) in [(0usize, 5usize, 3usize), (5, 0, 3), (5, 5, 0), (0, 0, 0)] {
            let a = Matrix::zeros(m, d);
            let b = Matrix::zeros(n, d);
            let out = matmul_blocked(&a, &b).unwrap();
            assert_eq!(out.shape(), (m, n));
            assert!(out.as_slice().iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn tile_into_matches_full_product() {
        let a = seq_matrix(9, 11, 2);
        let b = seq_matrix(20, 11, 3);
        let packed = PackedAny::pack(&b, Precision::F32);
        let full = matmul_blocked_packed(&a, &packed).unwrap();
        // Tile covering strips 1..3 => columns 8..20 (trimmed at n = 20).
        let stride = tile_stride(2);
        let mut scratch = vec![0.0f32; 4 * stride];
        let (width, _) = tile_into(&a, 3, 4, &packed, 1, 3, &mut scratch);
        assert_eq!(width, 12);
        for r in 0..4 {
            for c in 0..width {
                assert_eq!(scratch[r * stride + c], full.get(3 + r, 8 + c));
            }
        }
    }
}
