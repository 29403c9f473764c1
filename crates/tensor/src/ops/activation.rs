//! Elementwise activation / map operations.

use crate::error::TensorError;
use crate::knobs::Precision;
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Elementwise unary operations supported as `map` ops.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UnaryOp {
    /// max(x, 0)
    Relu,
    /// clamp(x, lo, hi)
    ClippedRelu(f32, f32),
    /// hyperbolic tangent
    Tanh,
    /// absolute value
    Abs,
    /// x * s
    Scale(f32),
    /// x + c
    Offset(f32),
    /// square root of max(x, 0)
    SqrtPos,
}

impl UnaryOp {
    /// Applies the op to a scalar.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            UnaryOp::Relu => x.max(0.0),
            UnaryOp::ClippedRelu(lo, hi) => x.clamp(lo, hi),
            UnaryOp::Tanh => x.tanh(),
            UnaryOp::Abs => x.abs(),
            UnaryOp::Scale(s) => x * s,
            UnaryOp::Offset(c) => x + c,
            UnaryOp::SqrtPos => x.max(0.0).sqrt(),
        }
    }
}

/// Applies a unary map over the tensor, honouring FP16 semantics.
pub fn map_unary(input: &Tensor, op: UnaryOp, precision: Precision) -> Result<Tensor, TensorError> {
    // max(·, 0) and |·| map FP16 values to FP16 values, so quantising
    // their output again would change no bit.
    let closed = matches!(op, UnaryOp::Relu | UnaryOp::Abs);
    let xs = input.data();
    // One loop per variant, each with the variant fixed: a `match` on `op`
    // inside the element loop keeps the loop from vectorising.
    let data = match op {
        UnaryOp::Relu => map_slice(xs, precision, closed, |x| UnaryOp::Relu.apply(x)),
        UnaryOp::ClippedRelu(lo, hi) => map_slice(xs, precision, closed, move |x| {
            UnaryOp::ClippedRelu(lo, hi).apply(x)
        }),
        UnaryOp::Tanh => map_slice(xs, precision, closed, |x| UnaryOp::Tanh.apply(x)),
        UnaryOp::Abs => map_slice(xs, precision, closed, |x| UnaryOp::Abs.apply(x)),
        UnaryOp::Scale(c) => map_slice(xs, precision, closed, move |x| UnaryOp::Scale(c).apply(x)),
        UnaryOp::Offset(c) => {
            map_slice(xs, precision, closed, move |x| UnaryOp::Offset(c).apply(x))
        }
        UnaryOp::SqrtPos => map_slice(xs, precision, closed, |x| UnaryOp::SqrtPos.apply(x)),
    };
    // Parallel map preserves length; shape unchanged.
    Tensor::from_vec(input.shape(), data)
}

/// `f` over `xs` in parallel; under FP16, `q(f(q(x)))`, or `f(q(x))` when
/// `closed` says `f` maps binary16 values to binary16 values.
fn map_slice(
    xs: &[f32],
    precision: Precision,
    closed: bool,
    f: impl Fn(f32) -> f32 + Sync,
) -> Vec<f32> {
    use crate::f16::quantize;
    match precision {
        Precision::Fp32 => xs.par_iter().map(|&x| f(x)).collect(),
        Precision::Fp16 if closed => xs.par_iter().map(|&x| f(quantize(x))).collect(),
        Precision::Fp16 => xs.par_iter().map(|&x| quantize(f(quantize(x)))).collect(),
    }
}

/// ReLU activation.
pub fn relu(input: &Tensor, precision: Precision) -> Result<Tensor, TensorError> {
    map_unary(input, UnaryOp::Relu, precision)
}

/// Clipped ReLU (e.g. ReLU6 in MobileNet).
pub fn clipped_relu(
    input: &Tensor,
    lo: f32,
    hi: f32,
    precision: Precision,
) -> Result<Tensor, TensorError> {
    map_unary(input, UnaryOp::ClippedRelu(lo, hi), precision)
}

/// Tanh activation.
pub fn tanh_op(input: &Tensor, precision: Precision) -> Result<Tensor, TensorError> {
    map_unary(input, UnaryOp::Tanh, precision)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor::from_vec(Shape::vec(4), vec![-1.0, 0.0, 2.0, -3.0]).unwrap();
        let r = relu(&t, Precision::Fp32).unwrap();
        assert_eq!(r.data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn clipped_relu6() {
        let t = Tensor::from_vec(Shape::vec(3), vec![-2.0, 3.0, 9.0]).unwrap();
        let r = clipped_relu(&t, 0.0, 6.0, Precision::Fp32).unwrap();
        assert_eq!(r.data(), &[0.0, 3.0, 6.0]);
    }

    #[test]
    fn tanh_bounded() {
        let t = Tensor::from_vec(Shape::vec(3), vec![-100.0, 0.0, 100.0]).unwrap();
        let r = tanh_op(&t, Precision::Fp32).unwrap();
        assert_eq!(r.data(), &[-1.0, 0.0, 1.0]);
    }

    #[test]
    fn fp16_relu_and_abs_skip_the_output_quantisation_bit_for_bit() {
        use crate::f16::{quantize, F16};
        // Every binary16 value, then f32-only inputs: infinities, NaN,
        // f32 subnormals, and a strided sweep over all f32 bit patterns.
        let mut xs: Vec<f32> = (0..=u16::MAX).map(|h| F16(h).to_f32()).collect();
        xs.extend([f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN]);
        xs.extend(
            [1u32, 0x0000_0400, 0x007F_FFFF]
                .iter()
                .flat_map(|&b| [f32::from_bits(b), -f32::from_bits(b)]),
        );
        xs.extend((0..=u32::MAX).step_by(4099).map(f32::from_bits));
        let t = Tensor::from_vec(Shape::vec(xs.len()), xs.clone()).unwrap();
        for op in [UnaryOp::Relu, UnaryOp::Abs] {
            let got = map_unary(&t, op, Precision::Fp16).unwrap();
            for (&x, &y) in xs.iter().zip(got.data()) {
                let want = quantize(op.apply(quantize(x)));
                assert_eq!(
                    y.to_bits(),
                    want.to_bits(),
                    "{op:?} at {:#010x}",
                    x.to_bits()
                );
            }
        }
    }

    #[test]
    fn fp16_map_quantises() {
        let x = 1.0 + 2.0_f32.powi(-13); // not representable in fp16
        let t = Tensor::from_vec(Shape::vec(1), vec![x]).unwrap();
        let r = relu(&t, Precision::Fp16).unwrap();
        assert_eq!(r.data()[0], 1.0);
    }
}
