//! Allocation-free inference kernels: im2col + cache-blocked GEMM.
//!
//! Every kernel here reproduces the exact f32 operation sequence of the
//! naive loops it replaces — same terms, same order, same accumulator
//! start — so outputs are **bit-identical** to the pre-kernel code. That
//! invariant is what lets the 1-vs-4-thread determinism suite treat
//! kernel and non-kernel paths as interchangeable.
//!
//! Buffers come from a caller-owned [`Scratch`] arena; in steady state
//! (same network, same batch shape) a forward pass through
//! [`crate::Sequential::infer_scratch`] performs zero heap allocations.

/// Block width (columns of the output) for the GEMM inner loops. One
/// output block plus one rhs row block stay resident in L1 while the
/// `p` loop streams over the shared dimension.
const GEMM_BLOCK: usize = 64;

/// A small fixed-rank shape, copyable so layer kernels can pass it by
/// value instead of allocating `Vec<usize>` per call.
///
/// # Examples
/// ```
/// # use msvs_nn::Shape;
/// let s = Shape::rank3(2, 4, 16);
/// assert_eq!(s.dims(), &[2, 4, 16]);
/// assert_eq!(s.len(), 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    dims: [usize; 3],
    rank: usize,
}

impl Shape {
    /// A rank-2 shape `[a, b]`.
    pub fn rank2(a: usize, b: usize) -> Self {
        Self {
            dims: [a, b, 1],
            rank: 2,
        }
    }

    /// A rank-3 shape `[a, b, c]`.
    pub fn rank3(a: usize, b: usize, c: usize) -> Self {
        Self {
            dims: [a, b, c],
            rank: 3,
        }
    }

    /// Builds a shape from a dims slice.
    ///
    /// # Panics
    /// Panics if `dims` is empty or longer than 3.
    pub fn from_dims(dims: &[usize]) -> Self {
        assert!(
            !dims.is_empty() && dims.len() <= 3,
            "kernel shapes are rank 1..=3, got {dims:?}"
        );
        let mut d = [1usize; 3];
        d[..dims.len()].copy_from_slice(dims);
        Self {
            dims: d,
            rank: dims.len(),
        }
    }

    /// The dims as a slice of length `rank`.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// The rank (1..=3).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.dims().iter().product()
    }

    /// Always false: shapes have at least one dim by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The dims as an owned vector (for [`Tensor`](crate::Tensor) round-trips).
    pub fn to_vec(&self) -> Vec<usize> {
        self.dims().to_vec()
    }
}

/// Reusable per-worker buffer arena for inference.
///
/// `bufs` ping-pong layer activations through
/// [`crate::Sequential::infer_scratch`]; `patch` holds the im2col
/// expansion of the current conv input. All three grow to a high-water
/// mark on first use and are reused verbatim afterwards.
#[derive(Debug, Default)]
pub struct Scratch {
    pub(crate) bufs: [Vec<f32>; 2],
    pub(crate) patch: Vec<f32>,
}

impl Scratch {
    /// Builds an empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current total capacity across the arena's buffers, in elements.
    /// Steady-state inference leaves this constant call-to-call.
    pub fn capacity(&self) -> usize {
        self.bufs[0].capacity() + self.bufs[1].capacity() + self.patch.capacity()
    }
}

/// `out[m, n] = a[m, k] x b[k, n]`, skipping zero elements of `a`.
///
/// Bit-identical to the naive `i/p/j` triple loop with an `a == 0.0`
/// skip: per output element the same terms accumulate in the same
/// (increasing-`p`) order from a `0.0` start. Column blocking only
/// reorders *which element* is updated next, never the term order
/// within one element, so IEEE-754 results are unchanged.
///
/// # Panics
/// Panics (debug) if slice lengths disagree with `m`/`k`/`n`.
pub fn gemm_zero_skip(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let dst = &mut out[i * n..(i + 1) * n];
        dst.fill(0.0);
        let a_row = &a[i * k..(i + 1) * k];
        let mut j0 = 0;
        while j0 < n {
            let jw = GEMM_BLOCK.min(n - j0);
            for (p, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_blk = &b[p * n + j0..p * n + j0 + jw];
                let d_blk = &mut dst[j0..j0 + jw];
                for (d, &bv) in d_blk.iter_mut().zip(b_blk) {
                    *d += av * bv;
                }
            }
            j0 += jw;
        }
    }
}

/// Dense inference: `out[batch, out_dim] = input x w_t + bias` with
/// `w_t` the **pre-transposed** weight in `[in_dim, out_dim]` row-major
/// layout (see `Dense`'s cached transpose).
///
/// The multiply is [`gemm_zero_skip`] verbatim, so the `input == 0.0`
/// skip sits one loop *above* a contiguous branch-free inner axpy —
/// putting the skip in the innermost dot product instead defeats
/// auto-vectorisation and costs ~4x on the DDQN hot path. Bit-identical
/// to `input.matmul(&weight.transpose())` followed by a bias add: same
/// terms, same increasing-`p` order, bias after the sum.
pub fn dense_infer(
    input: &[f32],
    w_t: &[f32],
    bias: &[f32],
    out: &mut [f32],
    batch: usize,
    in_dim: usize,
    out_dim: usize,
) {
    debug_assert_eq!(input.len(), batch * in_dim);
    debug_assert_eq!(w_t.len(), in_dim * out_dim);
    debug_assert_eq!(bias.len(), out_dim);
    debug_assert_eq!(out.len(), batch * out_dim);
    gemm_zero_skip(input, w_t, out, batch, in_dim, out_dim);
    for dst in out.chunks_exact_mut(out_dim) {
        for (d, &bv) in dst.iter_mut().zip(bias) {
            *d += bv;
        }
    }
}

/// Fills `patch[out_len, in_ch * kernel]` with the im2col expansion of
/// one batch row `x = [in_ch, in_len]`:
/// `patch[t][ic * kernel + k] = x[ic][t * stride + k]`.
fn im2col_rows(
    x: &[f32],
    patch: &mut [f32],
    in_ch: usize,
    in_len: usize,
    kernel: usize,
    stride: usize,
    out_len: usize,
) {
    let ick = in_ch * kernel;
    debug_assert_eq!(x.len(), in_ch * in_len);
    debug_assert_eq!(patch.len(), out_len * ick);
    for t in 0..out_len {
        let start = t * stride;
        let row = &mut patch[t * ick..(t + 1) * ick];
        for ic in 0..in_ch {
            let src = &x[ic * in_len + start..ic * in_len + start + kernel];
            row[ic * kernel..(ic + 1) * kernel].copy_from_slice(src);
        }
    }
}

/// 1-D convolution inference via im2col + row-dot GEMM.
///
/// `input` is `[batch, in_ch, in_len]`, `weight` is
/// `[out_ch, in_ch, kernel]` (both row-major), `out` is
/// `[batch, out_ch, out_len]`. Per batch the input is unrolled into
/// `patch[out_len, in_ch * kernel]` with
/// `patch[t][ic * kernel + k] = input[b][ic][t * stride + k]`, which
/// makes each output element one contiguous dot product against a
/// weight row. The accumulator starts at `bias[oc]` and adds terms in
/// `ic`-major / `k`-minor order with no zero skip — the exact sequence
/// of the direct 5-deep loop, hence bit-identical.
#[allow(clippy::too_many_arguments)]
pub fn conv1d_infer(
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    out: &mut [f32],
    patch: &mut Vec<f32>,
    batch: usize,
    in_ch: usize,
    in_len: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    out_len: usize,
) {
    let ick = in_ch * kernel;
    debug_assert_eq!(input.len(), batch * in_ch * in_len);
    debug_assert_eq!(weight.len(), out_ch * ick);
    debug_assert_eq!(bias.len(), out_ch);
    debug_assert_eq!(out.len(), batch * out_ch * out_len);
    patch.clear();
    patch.resize(out_len * ick, 0.0);
    for b in 0..batch {
        let x = &input[b * in_ch * in_len..(b + 1) * in_ch * in_len];
        im2col_rows(x, patch, in_ch, in_len, kernel, stride, out_len);
        let dst = &mut out[b * out_ch * out_len..(b + 1) * out_ch * out_len];
        for oc in 0..out_ch {
            let w = &weight[oc * ick..(oc + 1) * ick];
            let base = bias[oc];
            for t in 0..out_len {
                let row = &patch[t * ick..(t + 1) * ick];
                let mut acc = base;
                for (&wv, &pv) in w.iter().zip(row) {
                    acc += wv * pv;
                }
                dst[oc * out_len + t] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vec(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| {
                // Mix in exact zeros so the zero-skip branch is exercised.
                if rng.gen_range(0..5) == 0 {
                    0.0f32
                } else {
                    rng.gen_range(-2.0..2.0) as f32
                }
            })
            .collect()
    }

    /// The pre-kernel matmul: i/p/j loop, zero skip, memory-slot
    /// accumulation. The GEMM must match it to the bit.
    fn reference_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += av * b[p * n + j];
                }
            }
        }
        out
    }

    /// The pre-kernel direct 5-deep conv loop.
    #[allow(clippy::too_many_arguments)]
    fn reference_conv(
        input: &[f32],
        weight: &[f32],
        bias: &[f32],
        batch: usize,
        in_ch: usize,
        in_len: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        out_len: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; batch * out_ch * out_len];
        for b in 0..batch {
            for oc in 0..out_ch {
                for t in 0..out_len {
                    let start = t * stride;
                    let mut acc = bias[oc];
                    for ic in 0..in_ch {
                        for k in 0..kernel {
                            acc += weight[(oc * in_ch + ic) * kernel + k]
                                * input[(b * in_ch + ic) * in_len + start + k];
                        }
                    }
                    out[(b * out_ch + oc) * out_len + t] = acc;
                }
            }
        }
        out
    }

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn gemm_bit_identical_to_reference_across_shapes() {
        let mut rng = StdRng::seed_from_u64(0xB10C);
        // Spans tiny, non-square, and wider-than-one-block shapes.
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 4), (7, 5, 130), (16, 33, 64), (3, 90, 9)] {
            let a = random_vec(&mut rng, m * k);
            let b = random_vec(&mut rng, k * n);
            let mut out = vec![f32::NAN; m * n]; // kernel must overwrite
            gemm_zero_skip(&a, &b, &mut out, m, k, n);
            let want = reference_matmul(&a, &b, m, k, n);
            assert_bits_eq(&out, &want, &format!("gemm {m}x{k}x{n}"));
        }
    }

    #[test]
    fn dense_bit_identical_to_matmul_transpose_reference() {
        let mut rng = StdRng::seed_from_u64(0xDE5E);
        for &(batch, in_dim, out_dim) in &[(1, 1, 1), (4, 7, 3), (9, 16, 80)] {
            let input = random_vec(&mut rng, batch * in_dim);
            let weight = random_vec(&mut rng, out_dim * in_dim);
            let bias = random_vec(&mut rng, out_dim);
            // Reference: matmul against explicit transpose, bias after.
            let mut wt = vec![0.0f32; in_dim * out_dim];
            for o in 0..out_dim {
                for p in 0..in_dim {
                    wt[p * out_dim + o] = weight[o * in_dim + p];
                }
            }
            let mut want = reference_matmul(&input, &wt, batch, in_dim, out_dim);
            for b in 0..batch {
                for o in 0..out_dim {
                    want[b * out_dim + o] += bias[o];
                }
            }
            let mut out = vec![f32::NAN; batch * out_dim];
            dense_infer(&input, &wt, &bias, &mut out, batch, in_dim, out_dim);
            assert_bits_eq(&out, &want, &format!("dense {batch}x{in_dim}x{out_dim}"));
        }
    }

    #[test]
    fn conv_bit_identical_to_direct_loop_reference() {
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for &(batch, in_ch, in_len, out_ch, kernel, stride) in &[
            (1, 1, 3, 1, 3, 1),
            (2, 4, 16, 8, 3, 2),
            (3, 8, 7, 8, 3, 2),
            (5, 2, 31, 6, 5, 3),
        ] {
            let out_len = (in_len - kernel) / stride + 1;
            let input = random_vec(&mut rng, batch * in_ch * in_len);
            let weight = random_vec(&mut rng, out_ch * in_ch * kernel);
            let bias = random_vec(&mut rng, out_ch);
            let mut out = vec![f32::NAN; batch * out_ch * out_len];
            let mut patch = Vec::new();
            conv1d_infer(
                &input, &weight, &bias, &mut out, &mut patch, batch, in_ch, in_len, out_ch, kernel,
                stride, out_len,
            );
            let want = reference_conv(
                &input, &weight, &bias, batch, in_ch, in_len, out_ch, kernel, stride, out_len,
            );
            assert_bits_eq(
                &out,
                &want,
                &format!("conv b{batch} c{in_ch}->{out_ch} l{in_len} k{kernel} s{stride}"),
            );
        }
    }

    #[test]
    fn shape_round_trips() {
        let s = Shape::from_dims(&[3, 4]);
        assert_eq!(s, Shape::rank2(3, 4));
        assert_eq!(s.rank(), 2);
        assert_eq!(s.len(), 12);
        assert_eq!(s.to_vec(), vec![3, 4]);
        assert!(!s.is_empty());
        let t = Shape::from_dims(&[2, 3, 4]);
        assert_eq!(t, Shape::rank3(2, 3, 4));
        assert_eq!(t.dims(), &[2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "rank 1..=3")]
    fn shape_rejects_rank_4() {
        let _ = Shape::from_dims(&[1, 2, 3, 4]);
    }

    #[test]
    fn scratch_capacity_is_stable_across_repeated_inference() {
        use crate::{Conv1d, Dense, Flatten, Relu, Sequential};
        let net = Sequential::new(vec![
            Box::new(Conv1d::new(4, 8, 3, 2, 1)),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(8 * 7, 8, 2)),
        ]);
        let x = Tensor::from_vec(
            (0..2 * 4 * 16)
                .map(|i| (i % 13) as f32 * 0.1 - 0.6)
                .collect(),
            vec![2, 4, 16],
        )
        .unwrap();
        let mut scratch = Scratch::new();
        let first: Vec<f32> = {
            let (data, shape) = net.infer_scratch(&x, &mut scratch);
            assert_eq!(shape.dims(), &[2, 8]);
            data.to_vec()
        };
        let warm = scratch.capacity();
        assert!(warm > 0);
        for _ in 0..10 {
            let (data, _) = net.infer_scratch(&x, &mut scratch);
            assert_eq!(data, &first[..], "steady-state outputs identical");
        }
        assert_eq!(
            scratch.capacity(),
            warm,
            "no buffer growth after the first pass"
        );
    }
}
