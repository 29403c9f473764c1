//! Differential kernel test harness.
//!
//! The optimized tiled/SIMD kernels (`ops::matmul_ex`, `ops::conv2d` via
//! im2col+GEMM) are checked against the frozen naive oracle in
//! `ops::reference` under proptest-fuzzed shapes and knob settings:
//!
//! * exact FP32 paths must match the oracle **bit for bit** — the fast
//!   kernels accumulate every output element in the same strictly
//!   increasing-k order as the naive loops;
//! * approximate paths (FP16, filter sampling, perforation, LUT
//!   multipliers) must also match the oracle bitwise, *and* stay inside
//!   pinned error envelopes relative to the exact FP32 result — so a bug
//!   that drifts oracle and kernel together still trips the harness;
//! * results must be identical across rayon thread counts (1/2/4), since
//!   partitioning never splits one output element's accumulation chain.

use at_tensor::ops::conv::Conv2dParams;
use at_tensor::ops::{
    batchnorm2d, conv2d, conv2d_abft, flip_bit, matmul_ex, reference, relu, tanh_op,
};
use at_tensor::TensorError;
use at_tensor::{f16, ConvApprox, MulApprox, PerforationDim, Precision, Shape, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tensor(shape: Shape, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::uniform(shape, -1.0, 1.0, &mut rng)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Mean squared error normalised by the exact result's mean square, so the
/// envelope is scale-free.
fn rel_mse(approx: &Tensor, exact: &Tensor) -> f64 {
    let ms: f64 = exact
        .data()
        .iter()
        .map(|&x| (x as f64) * (x as f64))
        .sum::<f64>()
        / exact.data().len().max(1) as f64;
    approx.mse(exact).unwrap() / ms.max(1e-30)
}

/// A fuzzed conv setting: shape, padding/stride, grouping.
#[derive(Debug, Clone)]
struct ConvCase {
    n: usize,
    groups: usize,
    cpg: usize,
    kpg: usize,
    h: usize,
    w: usize,
    r: usize,
    s: usize,
    pad: (usize, usize),
    stride: (usize, usize),
    seed: u64,
}

impl ConvCase {
    fn tensors(&self) -> (Tensor, Tensor, Tensor) {
        let cin = self.groups * self.cpg;
        let k = self.groups * self.kpg;
        let x = tensor(Shape::nchw(self.n, cin, self.h, self.w), self.seed);
        let wt = tensor(Shape::nchw(k, self.cpg, self.r, self.s), self.seed ^ 0xABCD);
        let b = tensor(Shape::new(&[k]), self.seed ^ 0x1234);
        (x, wt, b)
    }

    fn params(&self, approx: ConvApprox, precision: Precision, mul: MulApprox) -> Conv2dParams {
        Conv2dParams {
            pad: self.pad,
            stride: self.stride,
            groups: self.groups,
            approx,
            precision,
            mul,
        }
    }
}

fn conv_case() -> impl Strategy<Value = ConvCase> {
    (
        (1usize..=2, 1usize..=3, 1usize..=3, 1usize..=3), // n, groups, cpg, kpg
        // h; w crosses the 8-wide SIMD panel boundary; r/s kernel extents.
        (1usize..=9, 1usize..=11, 1usize..=3, 1usize..=3),
        (
            (0usize..=2, 0usize..=2),
            (1usize..=2, 1usize..=3),
            0u64..1000,
        ),
    )
        .prop_map(
            |((n, groups, cpg, kpg), (h, w, r, s), (pad, stride, seed))| ConvCase {
                n,
                groups,
                cpg,
                kpg,
                h,
                w,
                r,
                s,
                pad,
                stride,
                seed,
            },
        )
        // The kernel must fit the padded input.
        .prop_filter("kernel fits", |c| {
            c.h + 2 * c.pad.0 >= c.r && c.w + 2 * c.pad.1 >= c.s
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exact FP32 matmul: bit-for-bit against the naive oracle, across
    /// shapes that straddle every panel boundary (scalar tail, 8-wide,
    /// 64-wide, and the 8-row rayon blocks).
    #[test]
    fn matmul_fp32_bitwise(
        m in 1usize..40,
        k in 1usize..24,
        n in 1usize..80,
        seed in 0u64..1000,
    ) {
        let a = tensor(Shape::mat(m, k), seed);
        let b = tensor(Shape::mat(k, n), seed ^ 0x55);
        let fast = matmul_ex(&a, &b, None, Precision::Fp32, MulApprox::Exact).unwrap();
        let naive = reference::matmul_reference(&a, &b, Precision::Fp32).unwrap();
        prop_assert_eq!(bits(&fast), bits(&naive));
    }

    /// FP16 matmul: bitwise against the oracle, and inside the pinned
    /// quality envelope vs exact FP32 (operand+output quantisation at
    /// 2^-11 relative error each).
    #[test]
    fn matmul_fp16_bitwise_and_enveloped(
        m in 1usize..16,
        k in 1usize..24,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let a = tensor(Shape::mat(m, k), seed);
        let b = tensor(Shape::mat(k, n), seed ^ 0x55);
        let fast = matmul_ex(&a, &b, None, Precision::Fp16, MulApprox::Exact).unwrap();
        let naive = reference::matmul_reference(&a, &b, Precision::Fp16).unwrap();
        prop_assert_eq!(bits(&fast), bits(&naive));
        let exact = reference::matmul_reference(&a, &b, Precision::Fp32).unwrap();
        let e = rel_mse(&fast, &exact);
        prop_assert!(e < 1e-4, "fp16 rel MSE {} out of envelope", e);
    }

    /// LUT-multiplier matmul: bitwise against the oracle (integer
    /// accumulation is order-free, so this holds at any thread count) and
    /// inside a pinned envelope vs exact.
    #[test]
    fn matmul_lut_bitwise_and_enveloped(
        m in 1usize..12,
        k in 2usize..24,
        n in 1usize..24,
        bits_w in proptest::sample::select(vec![8u8, 6, 4]),
        seed in 0u64..1000,
    ) {
        let a = tensor(Shape::mat(m, k), seed);
        let b = tensor(Shape::mat(k, n), seed ^ 0x55);
        let mul = MulApprox::Lut { bits: bits_w };
        let fast = matmul_ex(&a, &b, None, Precision::Fp32, mul).unwrap();
        let naive = reference::matmul_ex_reference(&a, &b, None, Precision::Fp32, mul).unwrap();
        prop_assert_eq!(bits(&fast), bits(&naive));
        let exact = reference::matmul_reference(&a, &b, Precision::Fp32).unwrap();
        let e = rel_mse(&fast, &exact);
        // 4-bit quantisation plus Mitchell bias is coarse but must never be
        // garbage; 8-bit stays much tighter.
        let cap = if bits_w == 8 { 0.3 } else { 2.0 };
        prop_assert!(e.is_finite() && e < cap, "lut{} rel MSE {}", bits_w, e);
    }

    /// Exact FP32 conv (arbitrary stride/padding/groups, including
    /// depthwise when groups == cin): bit-for-bit against the oracle.
    #[test]
    fn conv_fp32_bitwise(case in conv_case()) {
        let (x, w, b) = case.tensors();
        let p = case.params(ConvApprox::Exact, Precision::Fp32, MulApprox::Exact);
        let fast = conv2d(&x, &w, Some(&b), p).unwrap();
        let naive = reference::conv2d_reference(&x, &w, Some(&b), p).unwrap();
        prop_assert_eq!(bits(&fast), bits(&naive));
    }

    /// Approximate conv paths: every fuzzed case is checked bitwise against
    /// the oracle and against pinned envelopes vs the exact result.
    #[test]
    fn conv_approx_bitwise_and_enveloped(
        case in conv_case(),
        which in 0usize..4,
    ) {
        let (x, w, b) = case.tensors();
        let exact_p = case.params(ConvApprox::Exact, Precision::Fp32, MulApprox::Exact);
        let exact = conv2d(&x, &w, Some(&b), exact_p).unwrap();
        let (approx, precision, mul, cap) = match which {
            0 => (ConvApprox::Exact, Precision::Fp16, MulApprox::Exact, 1e-4),
            1 => (
                ConvApprox::FilterSampling { k: 2, offset: 0 },
                Precision::Fp32,
                MulApprox::Exact,
                4.0,
            ),
            2 => (
                ConvApprox::Perforation { dim: PerforationDim::Col, k: 2, offset: 0 },
                Precision::Fp32,
                MulApprox::Exact,
                4.0,
            ),
            _ => (ConvApprox::Exact, Precision::Fp32, MulApprox::Lut { bits: 8 }, 0.5),
        };
        let p = case.params(approx, precision, mul);
        if let Ok(fast) = conv2d(&x, &w, Some(&b), p) {
            let naive = reference::conv2d_reference(&x, &w, Some(&b), p).unwrap();
            prop_assert_eq!(bits(&fast), bits(&naive));
            let e = rel_mse(&fast, &exact);
            prop_assert!(e.is_finite() && e < cap, "{:?} rel MSE {}", p.approx, e);
        } else {
            // Knob invalid for this shape (e.g. sampling a 1x1 kernel);
            // the oracle must reject it identically.
            prop_assert!(reference::conv2d_reference(&x, &w, Some(&b), p).is_err());
        }
    }
}

/// Degenerate shapes the tiling must survive: 1×1 kernels, K=1 reduction,
/// widths below one SIMD lane-group, single-pixel planes.
#[test]
fn degenerate_shapes_bitwise() {
    let cases = [
        (1, 1, 1, 1, 1, 1, 1), // everything 1
        (1, 1, 3, 3, 1, 1, 1), // 1x1 kernel
        (2, 3, 5, 6, 2, 3, 3), // W < 8 (sub-lane width)
        (1, 2, 1, 9, 1, 1, 1), // single-row input
    ];
    for &(n, c, h, w, k, r, s) in &cases {
        let x = tensor(Shape::nchw(n, c, h, w), 42);
        let wt = tensor(Shape::nchw(k, c, r, s), 43);
        let p = Conv2dParams::default();
        let fast = conv2d(&x, &wt, None, p).unwrap();
        let naive = reference::conv2d_reference(&x, &wt, None, p).unwrap();
        assert_eq!(
            bits(&fast),
            bits(&naive),
            "case {n}x{c}x{h}x{w} k{k} {r}x{s}"
        );
    }
    // K=1 matmul (single reduction step) and 1-wide output.
    for (m, k, n) in [(5, 1, 7), (1, 9, 1), (8, 8, 1)] {
        let a = tensor(Shape::mat(m, k), 7);
        let b = tensor(Shape::mat(k, n), 8);
        let fast = matmul_ex(&a, &b, None, Precision::Fp32, MulApprox::Exact).unwrap();
        let naive = reference::matmul_reference(&a, &b, Precision::Fp32).unwrap();
        assert_eq!(bits(&fast), bits(&naive), "matmul {m}x{k}x{n}");
    }
}

/// The kernels must produce identical bits no matter how many rayon worker
/// partitions execute them: partitioning is by whole output rows/planes, so
/// no accumulation chain is ever split, and elementwise maps are placed by
/// block index.
#[test]
fn deterministic_across_thread_counts() {
    let a = tensor(Shape::mat(37, 19), 11);
    let b = tensor(Shape::mat(19, 71), 12);
    let x = tensor(Shape::nchw(2, 3, 13, 17), 13);
    let w = tensor(Shape::nchw(4, 3, 3, 3), 14);
    let params = [
        Conv2dParams::default(),
        Conv2dParams {
            approx: ConvApprox::Perforation {
                dim: PerforationDim::Row,
                k: 2,
                offset: 0,
            },
            ..Default::default()
        },
        Conv2dParams {
            precision: Precision::Fp16,
            ..Default::default()
        },
        Conv2dParams {
            mul: MulApprox::Lut { bits: 6 },
            ..Default::default()
        },
    ];
    // Elementwise ops over an odd length above `f16`'s parallel threshold
    // (1 << 14), so blocks end mid-way through every partition scheme.
    let e = tensor(Shape::nchw(1, 3, 73, 79), 15);
    let channel = |v: [f32; 3]| Tensor::from_vec(Shape::vec(3), v.to_vec()).unwrap();
    let (gamma, beta) = (channel([0.5, 1.5, -2.0]), channel([0.1, -0.3, 0.0]));
    let (mean, var) = (channel([0.2, -0.1, 0.05]), channel([0.5, 1.0, 2.0]));
    // Batch 5 splits unevenly over every thread count's image blocks, and
    // K = 12 runs the GEMM's 8 + 4 row groups.
    let x2 = tensor(Shape::nchw(5, 3, 16, 16), 16);
    let w2 = tensor(Shape::nchw(12, 3, 3, 3), 17);
    let b2 = tensor(Shape::vec(12), 18);
    let padded = |approx, precision, mul| Conv2dParams {
        pad: (1, 1),
        approx,
        precision,
        mul,
        ..Default::default()
    };
    let perforated = |dim| ConvApprox::Perforation {
        dim,
        k: 2,
        offset: 1,
    };
    let (fp32, exact) = (Precision::Fp32, MulApprox::Exact);
    let params2 = [
        padded(ConvApprox::Exact, fp32, exact),
        padded(ConvApprox::Exact, Precision::Fp16, exact),
        padded(perforated(PerforationDim::Row), fp32, exact),
        padded(perforated(PerforationDim::Col), fp32, exact),
        padded(ConvApprox::FilterSampling { k: 3, offset: 1 }, fp32, exact),
        padded(ConvApprox::Exact, fp32, MulApprox::Lut { bits: 6 }),
    ];
    let run = || {
        let mm = matmul_ex(&a, &b, None, Precision::Fp32, MulApprox::Exact).unwrap();
        let mut convs: Vec<Vec<u32>> = params
            .iter()
            .map(|&p| bits(&conv2d(&x, &w, None, p).unwrap()))
            .collect();
        convs.extend(
            params2
                .iter()
                .map(|&p| bits(&conv2d(&x2, &w2, Some(&b2), p).unwrap())),
        );
        convs.push(bits(&conv2d_abft(&x2, &w2, Some(&b2), params2[0]).unwrap()));
        let mut elementwise: Vec<Vec<u32>> = [Precision::Fp32, Precision::Fp16]
            .into_iter()
            .flat_map(|p| [relu(&e, p).unwrap(), tanh_op(&e, p).unwrap()])
            .map(|t| bits(&t))
            .collect();
        elementwise.push(
            f16::quantized(e.data())
                .iter()
                .map(|v| v.to_bits())
                .collect(),
        );
        let bn = batchnorm2d(&e, &gamma, &beta, &mean, &var, 1e-5, Precision::Fp16).unwrap();
        elementwise.push(bits(&bn));
        (bits(&mm), convs, elementwise)
    };
    let reference_run = run();
    for threads in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let got = pool.install(run);
        assert_eq!(got, reference_run, "results differ at {threads} threads");
    }
}

/// A corrupted ABFT convolution reports the lowest corrupted image, at any
/// thread count. A flip of the top exponent bit turns a value in [1, 2)
/// into a NaN, which no checksum comparison can pass.
#[test]
fn abft_conv_reports_the_lowest_corrupted_image_at_any_thread_count() {
    let w = tensor(Shape::nchw(12, 3, 3, 3), 21);
    let mut x = tensor(Shape::nchw(5, 3, 16, 16), 22);
    let image = 3 * 16 * 16;
    let data = x.data_mut();
    for img in [3, 1] {
        let at = img * image + 100;
        data[at] = 1.5;
        flip_bit(data, at, 30);
    }
    let params = Conv2dParams {
        pad: (1, 1),
        ..Default::default()
    };
    for threads in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        match pool.install(|| conv2d_abft(&x, &w, None, params)) {
            Err(TensorError::CorruptionDetected { op, detail }) => {
                assert_eq!(op, "conv2d");
                assert!(
                    detail.starts_with("image 1, group 0:"),
                    "{threads} threads: {detail}"
                );
            }
            other => panic!("{threads} threads: want CorruptionDetected, got {other:?}"),
        }
    }
}
