//! Tiled, register-blocked GEMM microkernels — the shared compute core of
//! the optimised matmul and the im2col-lowered convolutions.
//!
//! Layout: `C[M,N] = A[M,K] × B[K,N]`, all row-major. The inner microkernel
//! computes a [`MICRO_ROWS`]×(2·[`LANES`]) output tile (8×32) held entirely
//! in registers: per `k` step it loads two 16-float groups of a packed B
//! panel once, broadcasts one `A[i,k]` per tile row and issues 16
//! independent fused-multiply–add chains, hiding FMA latency without
//! reassociating any single output's sum. Sharing each B load across 8 rows
//! and packing B's panels contiguously ([`pack_b_panels`]) is what makes
//! the kernel compute-bound instead of L2/TLB-bound. Build with
//! `target-cpu=native` (see `.cargo/config.toml`) so each 16-lane group
//! maps onto one 512-bit register (or a ymm pair on AVX2 parts).
//!
//! One kernel serves every row count: B is packed whenever it has a full
//! 32-column panel, and rows run in register-blocked groups of 8, then 4,
//! 2 and 1, all through [`panel_rows`] on the packed panels. The Tiny
//! zoo's convolutions have 1 (a depthwise group) to 64 output channels,
//! mostly 4–16, so the remainder groups are as hot as the full ones. A
//! single row packs too: measured, the sequential panel reads outrun an
//! unpacked 8-vector row even without reuse of the copy (DESIGN.md §4h).
//! Row blocks are the parallel unit only for a
//! direct matmul; the lowered convolutions parallelise over images and
//! call this kernel from inside that region, where it runs sequentially.
//!
//! **Bit-exactness contract**: every output element `C[i,j]` accumulates
//! its `K` products in strictly increasing `k` order into a single `f32`
//! accumulator via [`f32::mul_add`] (fused multiply–add, one rounding per
//! product), exactly like the naive reference kernel — so exact-FP32
//! results are bit-for-bit identical to [`super::reference`], for any tile
//! boundary and any rayon thread count (parallel tasks own disjoint row
//! blocks and never split a `k` loop). FMA is part of the contract: both
//! sides must use it, and `mul_add` lowers to the same single-rounding
//! operation whether the target has an FMA unit or falls back to libm.
//!
//! [`gemm_lut`] is the integer twin for the LUT approximate-multiplier
//! path: `i16`-quantised operands, table-served products, `i64`
//! accumulation (associative, hence trivially order-independent).

use crate::f16;
use crate::instrument;
use crate::lut::LutTable;
use rayon::prelude::*;

/// SIMD lane count the microkernel is unrolled for (f32x16 ≙ AVX-512 zmm;
/// lowers to a ymm pair on AVX2-only parts).
pub const LANES: usize = 16;
/// Output rows per rayon task (fixed, so partitioning is deterministic).
const ROW_BLOCK: usize = 8;

/// What happens to each accumulated output element before it is stored.
///
/// The variants replicate — expression for expression — the epilogues of
/// the reference kernels, so fused execution stays bit-identical to the
/// unfused op sequence.
#[derive(Clone, Copy)]
pub enum Epilogue<'a> {
    /// Store the raw accumulator.
    Raw,
    /// Convolution epilogue: `v = acc·scale + bias[row]`, then optional
    /// fp16 quantisation, then optional fused ReLU (in that order — the
    /// same order the unfused conv → relu node sequence applies them).
    Conv {
        /// Filter-sampling compensation factor (1.0 when exact).
        scale: f32,
        /// Per-output-channel bias, indexed by GEMM row; `None` adds 0.0
        /// (the reference kernel also always adds its `bias_v`).
        bias: Option<&'a [f32]>,
        /// Quantise through binary16 after bias.
        fp16: bool,
        /// Apply `max(v, 0)` last (fused ReLU).
        relu: bool,
    },
    /// Dense-layer epilogue: optional fp16 quantisation of the product,
    /// then per-*column* bias, then fp16 again — matching the unfused
    /// `matmul` → `bias_add_rows` pair exactly.
    Dense {
        /// Per-column bias.
        bias: Option<&'a [f32]>,
        /// Quantise through binary16 (before and after the bias add).
        fp16: bool,
    },
}

impl Epilogue<'_> {
    /// Applies the epilogue to whole output rows: `out` holds the raw
    /// accumulators of rows `row0..` (the bias index of a conv), each `n`
    /// wide. Resolving the variant and its flags once per call instead of
    /// per element lets the row loops vectorise.
    pub fn apply_rows(&self, out: &mut [f32], row0: usize, n: usize) {
        match *self {
            Epilogue::Raw => {}
            Epilogue::Conv {
                scale,
                bias,
                fp16,
                relu,
            } => {
                let row = match (fp16, relu) {
                    (false, false) => conv_row::<false, false>,
                    (false, true) => conv_row::<false, true>,
                    (true, false) => conv_row::<true, false>,
                    (true, true) => conv_row::<true, true>,
                };
                for (di, orow) in out.chunks_mut(n).enumerate() {
                    row(orow, scale, bias.map_or(0.0, |b| b[row0 + di]));
                }
            }
            Epilogue::Dense { bias, fp16 } => {
                let row = if fp16 {
                    dense_row::<true>
                } else {
                    dense_row::<false>
                };
                for orow in out.chunks_mut(n) {
                    row(orow, bias);
                }
            }
        }
    }
}

/// One output row of [`Epilogue::Conv`] with the row's bias `b`.
fn conv_row<const FP16: bool, const RELU: bool>(orow: &mut [f32], scale: f32, b: f32) {
    for o in orow {
        let mut v = *o * scale + b;
        if FP16 {
            v = f16::quantize(v);
        }
        if RELU {
            v = v.max(0.0);
        }
        *o = v;
    }
}

/// One output row of [`Epilogue::Dense`].
fn dense_row<const FP16: bool>(orow: &mut [f32], bias: Option<&[f32]>) {
    let q = |v: f32| if FP16 { f16::quantize(v) } else { v };
    match bias {
        None => orow.iter_mut().for_each(|o| *o = q(*o)),
        Some(b) => {
            for (o, &bj) in orow.iter_mut().zip(b) {
                *o = q(q(*o) + bj);
            }
        }
    }
}

/// Rows per multi-row microkernel call. Each `B[k, panel]` vector load is
/// shared across this many output rows' accumulator chains, which divides
/// the kernel's B-panel cache traffic by the same factor — the classic
/// register-blocking trade: more independent FMA chains in flight per byte
/// loaded. 8 rows × 2 vectors = 16 accumulator vectors + 2 B vectors + 1
/// broadcast, within the 32 SIMD registers of AVX-512.
const MICRO_ROWS: usize = 8;

/// `R` output rows over a `V·LANES`-column panel, sharing each B vector
/// load across all `R` rows. `b` starts at the panel's first element and
/// `bstride` is the distance between consecutive `k` rows of the panel —
/// `n` for an unpacked row-major B, `V·LANES` for a packed panel (see
/// [`pack_b_panels`]), in which case the `k` loop walks memory purely
/// sequentially and the hardware prefetcher keeps it fed.
///
/// Every output element still accumulates its `K` products in strictly
/// increasing `k` order into its own single `f32`, so the result is
/// bit-identical to the single-row kernel and the naive reference.
// The `0..k` counter loop with `arows[r][kk]` indexing is deliberate: it is
// the shape LLVM turns into the spill-free broadcast+FMA loop; the iterator
// rewrite clippy suggests pessimises register allocation here.
#[allow(clippy::needless_range_loop)]
#[inline]
fn panel_rows<const R: usize, const V: usize>(
    a: &[f32],
    k: usize,
    i0: usize,
    b: &[f32],
    bstride: usize,
) -> [[[f32; LANES]; V]; R] {
    let mut acc = [[[0.0f32; LANES]; V]; R];
    // Whole-row slices of length k: the `arows[r][kk]` access below is then
    // provably in bounds for every `kk` in `0..k`, so no checks survive in
    // the hot loop.
    let arows: [&[f32]; R] = core::array::from_fn(|r| &a[(i0 + r) * k..(i0 + r + 1) * k]);
    for kk in 0..k {
        let base = kk * bstride;
        let brow = &b[base..base + V * LANES];
        let mut bv = [[0.0f32; LANES]; V];
        for (c, bvc) in bv.iter_mut().enumerate() {
            *bvc = match brow[c * LANES..(c + 1) * LANES].try_into() {
                Ok(v) => v,
                // The slice is exactly LANES long by construction; keep the
                // zero-cost reinterpret without an unwrap in the hot loop.
                Err(_) => unreachable!("panel slice is exactly LANES wide"),
            };
        }
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = arows[r][kk];
            for (c, accv) in accr.iter_mut().enumerate() {
                for (l, s) in accv.iter_mut().enumerate() {
                    *s = av.mul_add(bv[c][l], *s);
                }
            }
        }
    }
    acc
}

/// Reorders B's full-width column panels into contiguous `K×(2·LANES)`
/// slabs, panel-major. Row-major B is read with stride `n` inside the
/// microkernel's `k` loop — at GEMM sizes that is a fresh cache line (and
/// every other step a fresh page) per iteration, which stalls on L2/TLB
/// because stride prefetchers give up at page boundaries. Packing costs one
/// `O(K·N)` pass and turns the `O(M·K·N)` hot loop into sequential reads.
/// Pure data movement: the arithmetic, and therefore every output bit, is
/// unchanged.
fn pack_b_panels(k: usize, n: usize, b: &[f32]) -> Vec<f32> {
    let wide = 2 * LANES;
    let npanels = n / wide;
    let mut packed = Vec::with_capacity(npanels * k * wide);
    for p in 0..npanels {
        for kk in 0..k {
            let at = kk * n + p * wide;
            packed.extend_from_slice(&b[at..at + wide]);
        }
    }
    packed
}

/// Scalar column tail (fewer than [`LANES`] columns remain).
fn panel_row_tail(arow: &[f32], b: &[f32], n: usize, j0: usize, dst: &mut [f32]) {
    for (dj, d) in dst.iter_mut().enumerate() {
        let j = j0 + dj;
        let mut acc = 0.0f32;
        for (kk, &av) in arow.iter().enumerate() {
            acc = av.mul_add(b[kk * n + j], acc);
        }
        *d = acc;
    }
}

/// Computes `R` consecutive output rows starting at A row `i0` into `dst`
/// (`R·n` raw accumulators, epilogue applied later): the packed 32-column
/// panels first, then at most one unpacked 16-column panel read with
/// stride `n`, then the scalar tail. `packed` holds the `npanels` panels
/// built by [`pack_b_panels`].
#[allow(clippy::too_many_arguments)]
#[inline]
fn row_group<const R: usize>(
    a: &[f32],
    k: usize,
    n: usize,
    b: &[f32],
    packed: &[f32],
    npanels: usize,
    i0: usize,
    dst: &mut [f32],
) {
    let wide = 2 * LANES;
    let mut j = 0;
    for p in 0..npanels {
        let bpanel = &packed[p * k * wide..(p + 1) * k * wide];
        let acc = panel_rows::<R, 2>(a, k, i0, bpanel, wide);
        for (r, accr) in acc.iter().enumerate() {
            for (c, accv) in accr.iter().enumerate() {
                let o = r * n + j + c * LANES;
                dst[o..o + LANES].copy_from_slice(accv);
            }
        }
        j += wide;
    }
    while j + LANES <= n {
        let acc = panel_rows::<R, 1>(a, k, i0, &b[j..], n);
        for (r, accr) in acc.iter().enumerate() {
            let o = r * n + j;
            dst[o..o + LANES].copy_from_slice(&accr[0]);
        }
        j += LANES;
    }
    if j < n {
        for (r, drow) in dst.chunks_exact_mut(n).enumerate() {
            let arow = &a[(i0 + r) * k..(i0 + r + 1) * k];
            panel_row_tail(arow, b, n, j, &mut drow[j..]);
        }
    }
}

/// Tiled f32 GEMM with fused epilogue: `out[M,N] = epi(A[M,K] × B[K,N])`.
///
/// B's full 32-column panels are packed once whenever `n ≥ 32`, whatever
/// `m` is, and every row count runs through the same register-blocked
/// [`panel_rows`] kernel: groups of 8 rows, then 4, 2 and 1 for the
/// remainder. Parallelised over fixed [`ROW_BLOCK`]-row chunks; inside a
/// chunk the column-panel loop is outermost so each `K×32` B panel is
/// reused across the group's rows while it is cache-resident. Called from
/// inside another parallel region (the image-parallel convolution), the
/// row-block loop runs sequentially on the calling thread.
pub fn gemm_f32(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    epi: &Epilogue,
) {
    assert_eq!(a.len(), m * k, "gemm A size");
    assert_eq!(b.len(), k * n, "gemm B size");
    assert_eq!(out.len(), m * n, "gemm C size");
    if m == 0 || n == 0 {
        return;
    }
    instrument::add_muls((m * k * n) as u64);
    // Shared read-only packed copy of B's 32-column panels (none when B
    // is narrower than one panel).
    let npanels = n / (2 * LANES);
    let packed = if npanels > 0 {
        pack_b_panels(k, n, b)
    } else {
        Vec::new()
    };
    out.par_chunks_mut(ROW_BLOCK * n)
        .enumerate()
        .for_each(|(blk, ob)| {
            let i0 = blk * ROW_BLOCK;
            let rows = ob.len() / n;
            let mut di = 0;
            while di < rows {
                let (i, dst) = (i0 + di, &mut ob[di * n..]);
                let left = rows - di;
                let (pk, np) = (&packed[..], npanels);
                di += if left >= MICRO_ROWS {
                    let dst = &mut dst[..MICRO_ROWS * n];
                    row_group::<MICRO_ROWS>(a, k, n, b, pk, np, i, dst);
                    MICRO_ROWS
                } else if left >= 4 {
                    row_group::<4>(a, k, n, b, pk, np, i, &mut dst[..4 * n]);
                    4
                } else if left >= 2 {
                    row_group::<2>(a, k, n, b, pk, np, i, &mut dst[..2 * n]);
                    2
                } else {
                    row_group::<1>(a, k, n, b, pk, np, i, &mut dst[..n]);
                    1
                };
            }
            epi.apply_rows(ob, i0, n);
        });
}

/// Integer GEMM over LUT-quantised operands: products served from `table`,
/// accumulated in `i64`, dequantised by `dequant` (= scale_A · scale_B)
/// before the epilogue.
#[allow(clippy::too_many_arguments)]
pub fn gemm_lut(
    m: usize,
    k: usize,
    n: usize,
    a: &[i16],
    b: &[i16],
    table: &LutTable,
    dequant: f32,
    out: &mut [f32],
    epi: &Epilogue,
) {
    assert_eq!(a.len(), m * k, "gemm_lut A size");
    assert_eq!(b.len(), k * n, "gemm_lut B size");
    assert_eq!(out.len(), m * n, "gemm_lut C size");
    if m == 0 || n == 0 {
        return;
    }
    instrument::add_muls((m * k * n) as u64);
    out.par_chunks_mut(ROW_BLOCK * n)
        .enumerate()
        .for_each(|(blk, ob)| {
            let i0 = blk * ROW_BLOCK;
            let mut acc = vec![0i64; n];
            for (di, orow) in ob.chunks_mut(n).enumerate() {
                let i = i0 + di;
                acc.fill(0);
                let arow = &a[i * k..(i + 1) * k];
                for (kk, &av) in arow.iter().enumerate() {
                    if av == 0 {
                        // Integer sums are order-independent; skipping exact
                        // zeros cannot change the result.
                        continue;
                    }
                    let neg = av < 0;
                    let row = table.row(av.unsigned_abs() as usize);
                    let brow = &b[kk * n..(kk + 1) * n];
                    for (s, &bv) in acc.iter_mut().zip(brow) {
                        let p = i64::from(row[bv.unsigned_abs() as usize]);
                        *s += if (bv < 0) != neg { -p } else { p };
                    }
                }
                for (o, &s) in orow.iter_mut().zip(acc.iter()) {
                    *o = s as f32 * dequant;
                }
                epi.apply_rows(orow, i, n);
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_gemm_matches_hand_product() {
        // [2,3] × [3,2]
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [7.0f32, 8.0, 9.0, 10.0, 11.0, 12.0];
        let mut c = [0.0f32; 4];
        gemm_f32(2, 3, 2, &a, &b, &mut c, &Epilogue::Raw);
        assert_eq!(c, [58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn wide_panel_and_tails_agree_with_scalar() {
        // n = 2·32 + 13 exercises the packed panels and the scalar tail in
        // one call, on a 2 + 1 row split.
        let m = 3;
        let k = 17;
        let n = 77;
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 7) % 13) as f32 - 6.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 5) % 11) as f32 - 5.0).collect();
        let mut c = vec![0.0f32; m * n];
        gemm_f32(m, k, n, &a, &b, &mut c, &Epilogue::Raw);
        for i in 0..m {
            for j in 0..n {
                let mut want = 0.0f32;
                for kk in 0..k {
                    want = a[i * k + kk].mul_add(b[kk * n + j], want);
                }
                assert_eq!(c[i * n + j].to_bits(), want.to_bits(), "({i},{j})");
            }
        }
    }

    /// Every row group (8/4/2/1) and every column path (packed 32-wide
    /// panels, the unpacked 16-wide panel, the scalar tail), under a raw
    /// and a quantising fused-ReLU epilogue, against a naive `mul_add`
    /// loop, bit for bit.
    #[test]
    fn every_row_and_column_split_matches_naive_loop() {
        for k in [0usize, 1, 7, 36] {
            for n in [1usize, 15, 16, 31, 32, 33, 64, 77, 100] {
                for m in 1..=17usize {
                    let a: Vec<f32> = (0..m * k)
                        .map(|i| ((i * 7 + 3) % 19) as f32 * 0.37 - 3.1)
                        .collect();
                    let b: Vec<f32> = (0..k * n)
                        .map(|i| ((i * 5 + 1) % 23) as f32 * 0.29 - 2.9)
                        .collect();
                    let bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.13 - 1.0).collect();
                    let conv = Epilogue::Conv {
                        scale: 0.75,
                        bias: Some(&bias),
                        fp16: true,
                        relu: true,
                    };
                    for (name, epi) in [("raw", Epilogue::Raw), ("conv-fp16-relu", conv)] {
                        let mut c = vec![f32::NAN; m * n];
                        gemm_f32(m, k, n, &a, &b, &mut c, &epi);
                        for i in 0..m {
                            for j in 0..n {
                                let mut acc = 0.0f32;
                                for kk in 0..k {
                                    acc = a[i * k + kk].mul_add(b[kk * n + j], acc);
                                }
                                let want = match epi {
                                    Epilogue::Raw => acc,
                                    _ => f16::quantize(acc * 0.75 + bias[i]).max(0.0),
                                };
                                assert_eq!(
                                    c[i * n + j].to_bits(),
                                    want.to_bits(),
                                    "{name} m={m} k={k} n={n} at ({i},{j})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn conv_epilogue_order() {
        let e = Epilogue::Conv {
            scale: 2.0,
            bias: Some(&[5.0, 1.0]),
            fp16: false,
            relu: true,
        };
        // Row 1 of a 2-wide block: bias 1.0.
        let mut rows = [0.0, 0.0, 3.0, -3.0];
        e.apply_rows(&mut rows[2..], 1, 2);
        assert_eq!(rows[2], 7.0);
        assert_eq!(rows[3], 0.0, "relu after bias");
    }

    #[test]
    fn dense_epilogue_matches_unfused_fp16_path() {
        let bias = [0.1f32, 0.2];
        let e = Epilogue::Dense {
            bias: Some(&bias),
            fp16: true,
        };
        let acc = 1.2345678f32;
        let want = crate::f16::quantize(crate::f16::quantize(acc) + bias[1]);
        let mut row = [acc, acc];
        e.apply_rows(&mut row, 0, 2);
        assert_eq!(row[1].to_bits(), want.to_bits());
    }

    #[test]
    fn lut_gemm_matches_scalar_reference() {
        let m = 2;
        let k = 9;
        let n = 13;
        let a: Vec<i16> = (0..m * k).map(|i| (i as i16 % 11) - 5).collect();
        let b: Vec<i16> = (0..k * n).map(|i| (i as i16 % 9) - 4).collect();
        let table = crate::lut::lut_for(4);
        let dq = 0.25f32;
        let mut c = vec![0.0f32; m * n];
        gemm_lut(m, k, n, &a, &b, table, dq, &mut c, &Epilogue::Raw);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0i64;
                for kk in 0..k {
                    s += i64::from(table.mul(a[i * k + kk], b[kk * n + j]));
                }
                assert_eq!(c[i * n + j], s as f32 * dq, "({i},{j})");
            }
        }
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut c: Vec<f32> = vec![];
        gemm_f32(0, 4, 0, &[], &[], &mut c, &Epilogue::Raw);
        let mut c1 = vec![0.0f32; 3];
        // K = 0: outputs are the epilogue of a zero accumulator.
        gemm_f32(
            1,
            0,
            3,
            &[],
            &[],
            &mut c1,
            &Epilogue::Conv {
                scale: 1.0,
                bias: Some(&[5.0]),
                fp16: false,
                relu: false,
            },
        );
        assert_eq!(c1, [5.0, 5.0, 5.0]);
    }
}
