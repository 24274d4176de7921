//! Slice kernels for the layers' forward and backward passes: im2col,
//! cache-blocked GEMM, and the parameter and input gradients.
//!
//! Every kernel here reproduces the exact f32 operation sequence of the
//! naive loops it replaces — same terms, same order, same accumulator
//! start — so outputs are **bit-identical** to the pre-kernel code. That
//! invariant is what lets the 1-vs-4-thread determinism suite treat
//! kernel and non-kernel paths as interchangeable.
//!
//! Inference buffers come from a caller-owned [`Scratch`] arena; in
//! steady state (same network, same batch shape) a forward pass through
//! [`crate::Sequential::infer_scratch`] performs zero heap allocations.

use std::ops::Range;

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

    /// The same shape with its first dim (the batch) set to `batch`.
    pub(crate) fn with_batch(mut self, batch: usize) -> Self {
        self.dims[0] = batch;
        self
    }

    /// The dims as an owned vector (for [`Tensor`](crate::Tensor) round-trips).
    pub fn to_vec(&self) -> Vec<usize> {
        self.dims().to_vec()
    }
}

/// Reusable per-worker buffer arena for inference.
///
/// `bufs` ping-pong layer activations through
/// [`crate::Sequential::infer_scratch`]; `patch` is the conv kernel's
/// workspace (the im2col expansion of the current input, the transposed
/// weight and the per-channel lanes). All three grow to a high-water
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
/// to the naive `i/p/j` product of `input` and the transposed weight
/// followed by a bias add: same terms, same increasing-`p` order, bias
/// after the sum.
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

/// 1-D convolution inference via im2col, vectorised across output
/// channels.
///
/// `input` is `[batch, in_ch, in_len]`, `weight` is
/// `[out_ch, in_ch, kernel]` (both row-major), `out` is
/// `[batch, out_ch, out_len]`. Per batch the input is unrolled into
/// `patch[out_len, in_ch * kernel]` with
/// `patch[t][ic * kernel + k] = input[b][ic][t * stride + k]`, so each
/// output element is one dot product of a patch row with a weight row.
/// All `out_ch` dot products of one `t` run side by side, one lane per
/// channel, against the weight transposed to `[in_ch * kernel, out_ch]`.
/// Each lane starts at `bias[oc]` and adds terms in `ic`-major /
/// `k`-minor order with no zero skip — the exact sequence of the direct
/// 5-deep loop, hence bit-identical. `work` holds every row's patch
/// (row-major, `batch · out_len · in_ch · kernel` values at its front,
/// where [`conv1d_param_grads`] reads them after a training forward pass),
/// the transposed weight and the lanes.
#[allow(clippy::too_many_arguments)]
pub fn conv1d_infer(
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    out: &mut [f32],
    work: &mut Vec<f32>,
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
    // Every region is written before it is read, so a reused buffer
    // needs no zero fill.
    let patches_len = batch * out_len * ick;
    work.resize(patches_len + ick * out_ch + out_ch, 0.0);
    let (patches, rest) = work.split_at_mut(patches_len);
    let (w_t, lanes) = rest.split_at_mut(ick * out_ch);
    for (oc, w_row) in weight.chunks_exact(ick).enumerate() {
        for (p, &wv) in w_row.iter().enumerate() {
            w_t[p * out_ch + oc] = wv;
        }
    }
    for ((x, dst), patch) in input
        .chunks_exact(in_ch * in_len)
        .zip(out.chunks_exact_mut(out_ch * out_len))
        .zip(patches.chunks_exact_mut(out_len * ick))
    {
        im2col_rows(x, patch, in_ch, in_len, kernel, stride, out_len);
        for (t, p_row) in patch.chunks_exact(ick).enumerate() {
            lanes.copy_from_slice(bias);
            for (&pv, w_col) in p_row.iter().zip(w_t.chunks_exact(out_ch)) {
                for (acc, &wv) in lanes.iter_mut().zip(w_col) {
                    *acc += wv * pv;
                }
            }
            for (oc, &acc) in lanes.iter().enumerate() {
                dst[oc * out_len + t] = acc;
            }
        }
    }
}

/// Dense parameter gradients of the output units `units`:
/// `w_grad[o, i] += Σ_b g[b, o] · input[b, i]` and `b_grad[o] += Σ_b g[b, o]`
/// for `o` in `units`, with `g = grad_out[batch, out_dim]`.
///
/// `rows` yields the batch as `(input, grad_out)` row blocks in batch
/// order, and `w_grad`/`b_grad` hold only the rows of `units`. Each
/// weight-gradient sum starts from `0.0` in its own accumulator, skips
/// `g == 0.0` terms and adds them in increasing `b`; the finished sum is
/// then added to `w_grad`. Bias gradients add every term, zeros
/// included, straight into `b_grad` in increasing `b`. That is the term
/// sequence of the naive zero-skip product of `grad_out`'s transpose and
/// `input`, followed by an axpy and a row-sum loop, so results are
/// bit-identical to it however the batch is blocked and the units are
/// split: no element's sum depends on another unit or on a block edge.
/// Walking `b` outermost keeps one input row hot across the units
/// without building the transpose.
pub fn dense_param_grads<'a>(
    rows: impl IntoIterator<Item = (&'a [f32], &'a [f32])>,
    w_grad: &mut [f32],
    b_grad: &mut [f32],
    in_dim: usize,
    out_dim: usize,
    units: Range<usize>,
) {
    debug_assert_eq!(w_grad.len(), units.len() * in_dim);
    debug_assert_eq!(b_grad.len(), units.len());
    let mut dw = vec![0.0f32; units.len() * in_dim];
    for (input, grad_out) in rows {
        debug_assert_eq!(input.len() / in_dim, grad_out.len() / out_dim);
        for (x, g_row) in input
            .chunks_exact(in_dim)
            .zip(grad_out.chunks_exact(out_dim))
        {
            for ((&g, d_row), bg) in g_row[units.clone()]
                .iter()
                .zip(dw.chunks_exact_mut(in_dim))
                .zip(b_grad.iter_mut())
            {
                *bg += g;
                if g == 0.0 {
                    continue;
                }
                for (d, &xv) in d_row.iter_mut().zip(x) {
                    *d += g * xv;
                }
            }
        }
    }
    for (w, &d) in w_grad.iter_mut().zip(&dw) {
        *w += d;
    }
}

/// Conv1d parameter gradients of the output channels `units`: for every
/// non-zero `g = grad_out[b][oc][t]` with `oc` in `units`,
/// `b_grad[oc] += g` and `w_grad[oc][ic][k] += g · input[b][ic][t · stride + k]`.
///
/// `rows` yields the batch as `(patches, grad_out)` row blocks in batch
/// order: `patches` is the im2col expansion of the block's input that
/// [`conv1d_infer`] leaves at the front of its workspace (`out_len` rows
/// of `ick = in_ch · kernel` values per batch row), and `grad_out` is
/// `[rows, out_ch, out_len]`. `w_grad`/`b_grad` hold only the rows of
/// `units`. Terms go straight into `w_grad` and `b_grad` (no separate
/// accumulator) in batch-major, then increasing-`t` order, skipping
/// `g == 0.0`: the sequence of the direct `b/oc/t/ic/k` loop, hence
/// bit-identical to it however the batch is blocked and the channels are
/// split. One `(oc, t)` term is a contiguous axpy of a patch row into
/// the `oc` weight row.
pub fn conv1d_param_grads<'a>(
    rows: impl IntoIterator<Item = (&'a [f32], &'a [f32])>,
    w_grad: &mut [f32],
    b_grad: &mut [f32],
    ick: usize,
    out_ch: usize,
    out_len: usize,
    units: Range<usize>,
) {
    debug_assert_eq!(w_grad.len(), units.len() * ick);
    debug_assert_eq!(b_grad.len(), units.len());
    let own = units.start * out_len..units.end * out_len;
    for (patches, grad_out) in rows {
        for (patch, g_b) in patches
            .chunks_exact(out_len * ick)
            .zip(grad_out.chunks_exact(out_ch * out_len))
        {
            for ((g_row, w_row), bg) in g_b[own.clone()]
                .chunks_exact(out_len)
                .zip(w_grad.chunks_exact_mut(ick))
                .zip(b_grad.iter_mut())
            {
                for (&g, p_row) in g_row.iter().zip(patch.chunks_exact(ick)) {
                    if g == 0.0 {
                        continue;
                    }
                    *bg += g;
                    for (w, &pv) in w_row.iter_mut().zip(p_row) {
                        *w += g * pv;
                    }
                }
            }
        }
    }
}

/// Conv1d input gradient: `grad_in[b][ic][t · stride + k] +=
/// g · weight[oc][ic][k]` for every non-zero `g = grad_out[b][oc][t]`.
///
/// `grad_in` is overwritten: each element starts from `0.0` and adds
/// its terms in `oc`-major, then increasing-`t` order, skipping
/// `g == 0.0` — the direct loop's sequence, so overlapping windows
/// (`kernel > stride`) sum in the same order and the result is
/// bit-identical.
#[allow(clippy::too_many_arguments)]
pub fn conv1d_input_grad(
    grad_out: &[f32],
    weight: &[f32],
    grad_in: &mut [f32],
    batch: usize,
    in_ch: usize,
    in_len: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    out_len: usize,
) {
    let ick = in_ch * kernel;
    debug_assert_eq!(grad_out.len(), batch * out_ch * out_len);
    debug_assert_eq!(weight.len(), out_ch * ick);
    debug_assert_eq!(grad_in.len(), batch * in_ch * in_len);
    grad_in.fill(0.0);
    for (gi, g_b) in grad_in
        .chunks_exact_mut(in_ch * in_len)
        .zip(grad_out.chunks_exact(out_ch * out_len))
    {
        for (g_row, w_oc) in g_b.chunks_exact(out_len).zip(weight.chunks_exact(ick)) {
            for (t, &g) in g_row.iter().enumerate() {
                if g == 0.0 {
                    continue;
                }
                let start = t * stride;
                for (gi_ic, w) in gi.chunks_exact_mut(in_len).zip(w_oc.chunks_exact(kernel)) {
                    for (d, &wv) in gi_ic[start..start + kernel].iter_mut().zip(w) {
                        *d += g * wv;
                    }
                }
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

    /// A gradient with exact zeros and negative zeros mixed in, so the
    /// `g == 0.0` skip (which both zeros take) and the sign of an empty
    /// sum are exercised.
    fn grad_vec(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| match rng.gen_range(0..10) {
                0 | 1 => 0.0f32,
                2 => -0.0f32,
                _ => rng.gen_range(-2.0..2.0) as f32,
            })
            .collect()
    }

    /// A gradient of nothing but `+0.0` and `-0.0` (a dead unit): every
    /// term is skipped, so only the accumulator start decides the sign
    /// of each result.
    fn dead_vec(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| if rng.gen::<bool>() { 0.0f32 } else { -0.0f32 })
            .collect()
    }

    /// The pre-kernel `Dense::backward`: the zero-skip product of
    /// `grad_out`'s transpose and `input` into a fresh buffer, an axpy of
    /// it into `w_grad`, a row-sum loop into `b_grad`, and the product of
    /// `grad_out` and `weight` as the input gradient.
    #[allow(clippy::too_many_arguments)]
    fn reference_dense_backward(
        input: &[f32],
        grad_out: &[f32],
        weight: &[f32],
        w_grad: &mut [f32],
        b_grad: &mut [f32],
        batch: usize,
        in_dim: usize,
        out_dim: usize,
    ) -> Vec<f32> {
        let mut g_t = vec![0.0f32; out_dim * batch];
        for b in 0..batch {
            for o in 0..out_dim {
                g_t[o * batch + b] = grad_out[b * out_dim + o];
            }
        }
        let dw = reference_matmul(&g_t, input, out_dim, batch, in_dim);
        for (w, &d) in w_grad.iter_mut().zip(&dw) {
            *w += 1.0 * d;
        }
        for b in 0..batch {
            for o in 0..out_dim {
                b_grad[o] += grad_out[b * out_dim + o];
            }
        }
        reference_matmul(grad_out, weight, batch, out_dim, in_dim)
    }

    /// The pre-kernel `Conv1d::backward`: the direct `b/oc/t/ic/k` loop.
    #[allow(clippy::too_many_arguments)]
    fn reference_conv_backward(
        input: &[f32],
        grad_out: &[f32],
        weight: &[f32],
        w_grad: &mut [f32],
        b_grad: &mut [f32],
        batch: usize,
        in_ch: usize,
        in_len: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        out_len: usize,
    ) -> Vec<f32> {
        let mut grad_in = vec![0.0f32; batch * in_ch * in_len];
        for b in 0..batch {
            for oc in 0..out_ch {
                for t in 0..out_len {
                    let g = grad_out[(b * out_ch + oc) * out_len + t];
                    if g == 0.0 {
                        continue;
                    }
                    let start = t * stride;
                    b_grad[oc] += g;
                    for ic in 0..in_ch {
                        for k in 0..kernel {
                            w_grad[(oc * in_ch + ic) * kernel + k] +=
                                g * input[(b * in_ch + ic) * in_len + start + k];
                            grad_in[(b * in_ch + ic) * in_len + start + k] +=
                                g * weight[(oc * in_ch + ic) * kernel + k];
                        }
                    }
                }
            }
        }
        grad_in
    }

    /// Ragged contiguous ranges covering `0..n`, sizes cycling through
    /// 1, 2, 3, … from `first`: the uneven row blocks and unit blocks a
    /// pooled training pass can hand its workers.
    fn ragged(n: usize, first: usize) -> Vec<Range<usize>> {
        let mut out = Vec::new();
        let (mut lo, mut size) = (0, first.max(1));
        while lo < n {
            let hi = (lo + size).min(n);
            out.push(lo..hi);
            lo = hi;
            size = size % 3 + 1;
        }
        out
    }

    /// Runs a parameter-gradient kernel the way the pooled backward pass
    /// does: the batch in ragged row blocks, the units in ragged blocks,
    /// each unit block accumulating into its own copy of its gradient
    /// rows, written back afterwards.
    fn blocked_param_grads(
        w_grad: &mut [f32],
        b_grad: &mut [f32],
        units: usize,
        per_unit: usize,
        kernel: impl Fn(&mut [f32], &mut [f32], Range<usize>),
    ) {
        for r in ragged(units, 2) {
            let (w, b) = (r.start * per_unit..r.end * per_unit, r.clone());
            let (mut w_own, mut b_own) = (w_grad[w.clone()].to_vec(), b_grad[b.clone()].to_vec());
            kernel(&mut w_own, &mut b_own, r);
            w_grad[w].copy_from_slice(&w_own);
            b_grad[b].copy_from_slice(&b_own);
        }
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
    fn dense_backward_bit_identical_to_reference() {
        let mut rng = StdRng::seed_from_u64(0xBAC0);
        // Both widths cross one 64-column block somewhere: `in_dim` is
        // the row width of the weight gradient and of the input gradient.
        for &(batch, in_dim, out_dim, dead) in &[
            (1, 1, 1, false),
            (3, 5, 2, false),
            (9, 130, 7, false),
            (5, 16, 80, false),
            (33, 70, 66, false),
            (4, 9, 6, true),
        ] {
            let what = format!("dense b{batch} {in_dim}->{out_dim} dead={dead}");
            let input = random_vec(&mut rng, batch * in_dim);
            let weight = random_vec(&mut rng, out_dim * in_dim);
            // Gradients accumulate onto earlier values, negative zeros too.
            let (grad_out, w_grad, b_grad) = if dead {
                (
                    dead_vec(&mut rng, batch * out_dim),
                    vec![-0.0f32; out_dim * in_dim],
                    vec![-0.0f32; out_dim],
                )
            } else {
                (
                    grad_vec(&mut rng, batch * out_dim),
                    grad_vec(&mut rng, out_dim * in_dim),
                    grad_vec(&mut rng, out_dim),
                )
            };
            let (mut want_w, mut want_b) = (w_grad.clone(), b_grad.clone());
            let want_in = reference_dense_backward(
                &input,
                &grad_out,
                &weight,
                &mut want_w,
                &mut want_b,
                batch,
                in_dim,
                out_dim,
            );
            let (mut split_w, mut split_b) = (w_grad.clone(), b_grad.clone());
            let (mut got_w, mut got_b) = (w_grad, b_grad);
            dense_param_grads(
                [(&input[..], &grad_out[..])],
                &mut got_w,
                &mut got_b,
                in_dim,
                out_dim,
                0..out_dim,
            );
            let row_blocks = ragged(batch, 3);
            blocked_param_grads(&mut split_w, &mut split_b, out_dim, in_dim, |w, b, r| {
                let rows = row_blocks.iter().map(|rb| {
                    (
                        &input[rb.start * in_dim..rb.end * in_dim],
                        &grad_out[rb.start * out_dim..rb.end * out_dim],
                    )
                });
                dense_param_grads(rows, w, b, in_dim, out_dim, r);
            });
            let mut got_in = vec![f32::NAN; batch * in_dim];
            gemm_zero_skip(&grad_out, &weight, &mut got_in, batch, out_dim, in_dim);
            assert_bits_eq(&got_w, &want_w, &format!("{what} weight grad"));
            assert_bits_eq(&got_b, &want_b, &format!("{what} bias grad"));
            assert_bits_eq(&split_w, &want_w, &format!("{what} blocked weight grad"));
            assert_bits_eq(&split_b, &want_b, &format!("{what} blocked bias grad"));
            assert_bits_eq(&got_in, &want_in, &format!("{what} input grad"));
        }
    }

    #[test]
    fn conv_backward_bit_identical_to_direct_loop_reference() {
        let mut rng = StdRng::seed_from_u64(0xC0B4);
        // kernel > stride overlaps windows (an input element sums terms
        // from several `t`), kernel < stride leaves gaps, and the long
        // rows run past one 64-column block.
        for &(batch, in_ch, in_len, out_ch, kernel, stride, dead) in &[
            (1, 1, 3, 1, 3, 1, false),
            (2, 4, 16, 8, 3, 2, false),
            (3, 8, 7, 8, 3, 2, false),
            (2, 3, 150, 5, 5, 1, false),
            (4, 2, 31, 6, 2, 3, false),
            (3, 5, 97, 4, 4, 4, false),
            (2, 4, 16, 8, 3, 2, true),
        ] {
            let what = format!(
                "conv b{batch} c{in_ch}->{out_ch} l{in_len} k{kernel} s{stride} dead={dead}"
            );
            let out_len = (in_len - kernel) / stride + 1;
            let input = random_vec(&mut rng, batch * in_ch * in_len);
            let weight = random_vec(&mut rng, out_ch * in_ch * kernel);
            let (grad_out, w_grad, b_grad) = if dead {
                (
                    dead_vec(&mut rng, batch * out_ch * out_len),
                    vec![-0.0f32; out_ch * in_ch * kernel],
                    vec![-0.0f32; out_ch],
                )
            } else {
                (
                    grad_vec(&mut rng, batch * out_ch * out_len),
                    grad_vec(&mut rng, out_ch * in_ch * kernel),
                    grad_vec(&mut rng, out_ch),
                )
            };
            let (mut want_w, mut want_b) = (w_grad.clone(), b_grad.clone());
            let want_in = reference_conv_backward(
                &input,
                &grad_out,
                &weight,
                &mut want_w,
                &mut want_b,
                batch,
                in_ch,
                in_len,
                out_ch,
                kernel,
                stride,
                out_len,
            );
            let ick = in_ch * kernel;
            let mut patches = vec![0.0f32; batch * out_len * ick];
            for (x, p) in input
                .chunks_exact(in_ch * in_len)
                .zip(patches.chunks_exact_mut(out_len * ick))
            {
                im2col_rows(x, p, in_ch, in_len, kernel, stride, out_len);
            }
            let (mut split_w, mut split_b) = (w_grad.clone(), b_grad.clone());
            let (mut got_w, mut got_b) = (w_grad, b_grad);
            conv1d_param_grads(
                [(&patches[..], &grad_out[..])],
                &mut got_w,
                &mut got_b,
                ick,
                out_ch,
                out_len,
                0..out_ch,
            );
            let row_blocks = ragged(batch, 1);
            blocked_param_grads(&mut split_w, &mut split_b, out_ch, ick, |w, b, r| {
                let rows = row_blocks.iter().map(|rb| {
                    (
                        &patches[rb.start * out_len * ick..rb.end * out_len * ick],
                        &grad_out[rb.start * out_ch * out_len..rb.end * out_ch * out_len],
                    )
                });
                conv1d_param_grads(rows, w, b, ick, out_ch, out_len, r);
            });
            assert_bits_eq(&split_w, &want_w, &format!("{what} blocked weight grad"));
            assert_bits_eq(&split_b, &want_b, &format!("{what} blocked bias grad"));
            let mut got_in = vec![f32::NAN; batch * in_ch * in_len];
            conv1d_input_grad(
                &grad_out,
                &weight,
                &mut got_in,
                batch,
                in_ch,
                in_len,
                out_ch,
                kernel,
                stride,
                out_len,
            );
            assert_bits_eq(&got_w, &want_w, &format!("{what} weight grad"));
            assert_bits_eq(&got_b, &want_b, &format!("{what} bias grad"));
            assert_bits_eq(&got_in, &want_in, &format!("{what} input grad"));
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
