//! Layer composition.

use std::ops::Range;
use std::time::Instant;

use msvs_par::{ParStats, Pool};

use crate::kernels::{Scratch, Shape};
use crate::layers::{Layer, TapeRows};
use crate::tensor::Tensor;

/// Fewest batch rows a training pass splits into row blocks on a pool of
/// more than one worker; a smaller batch runs as one block on the
/// caller's thread. Each pooled pass spawns its workers afresh (once
/// per network forward, once per layer with parameters in backward), so
/// a small batch trains faster serially. Measured with `CnnCompressor::train_with` at 1 vs 2
/// workers on a 2-vCPU x86-64 VM (alternating pairs): at window 16 and
/// 10 epochs the pooled pass lost at 64-256 rows (1.25-2.7x slower),
/// broke even at 384 and won at 512 (0.86x, 14 of 15 pairs) and 1,000
/// (0.77x); at window 32 and 60 epochs it lost at 120 rows (1.10x) and
/// won from 256 (0.80x).
pub const MIN_POOLED_ROWS: usize = 512;

/// Row and unit blocks per worker. More blocks than workers lets the
/// pool's dynamic hand-out even out uneven ones: dead-ReLU columns skip
/// their terms, so equal blocks are not equal work.
const BLOCKS_PER_WORKER: usize = 4;

/// A feed-forward stack of layers applied in order.
///
/// # Examples
/// ```
/// use msvs_nn::{Sequential, Dense, Relu, Tensor};
/// let mut net = Sequential::new(vec![
///     Box::new(Dense::new(4, 8, 1)),
///     Box::new(Relu::new()),
///     Box::new(Dense::new(8, 2, 2)),
/// ]);
/// let x = Tensor::zeros(vec![3, 4]);
/// assert_eq!(net.infer(&x).shape(), &[3, 2]);
/// ```
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// The last [`Sequential::forward_train_with`], one entry per row
    /// block in batch order, consumed by [`Sequential::backward_with`].
    tape: Vec<TapeBlock>,
    /// Whether `tape` holds a forward pass that no backward pass has
    /// consumed yet.
    taped: bool,
}

/// One row block of a training forward pass.
#[derive(Default)]
struct TapeBlock {
    /// The block's batch rows.
    rows: Range<usize>,
    /// Each layer's input rows, then the network's output rows (which a
    /// lone block hands over as the pass's result).
    acts: Vec<Vec<f32>>,
    /// The shape of each entry of `acts`.
    shapes: Vec<Shape>,
    /// Each layer's forward workspace (a convolution's im2col patches).
    work: Vec<Vec<f32>>,
}

impl TapeBlock {
    /// Runs every layer's forward computation over this block's rows of
    /// `input` (laid out per `shape`, the whole batch's shape).
    fn forward(&mut self, layers: &[Box<dyn Layer>], input: &[f32], shape: Shape) {
        let row_len = shape.len() / shape.dims()[0];
        self.acts.resize_with(layers.len() + 1, Vec::new);
        self.work.resize_with(layers.len(), Vec::new);
        self.acts[0].clear();
        self.acts[0].extend_from_slice(&input[self.rows.start * row_len..self.rows.end * row_len]);
        self.shapes.clear();
        self.shapes.push(shape.with_batch(self.rows.len()));
        for (l, layer) in layers.iter().enumerate() {
            let (done, next) = self.acts.split_at_mut(l + 1);
            let shape = layer.infer_into(&done[l], self.shapes[l], &mut next[0], &mut self.work[l]);
            self.shapes.push(shape);
        }
    }
}

/// One task of a pooled backward step.
enum BackwardTask {
    /// Chain the input gradient through a segment's layers for one row
    /// block.
    Rows(usize),
    /// Sum the parameter gradients of a block of units.
    Units(Range<usize>),
}

/// Splits `0..n` into at most `parts` contiguous blocks of near-equal
/// length (one empty block when `n` is 0).
fn split(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    (0..parts)
        .map(|i| i * n / parts..(i + 1) * n / parts)
        .collect()
}

/// How many blocks to cut work into for `pool`: one on the caller's
/// thread, [`BLOCKS_PER_WORKER`] per worker otherwise.
fn blocks_for(pool: &Pool) -> usize {
    match pool.threads() {
        1 => 1,
        threads => threads * BLOCKS_PER_WORKER,
    }
}

/// Runs `f` on the caller's thread, timed as a serial pool call.
fn timed<R>(f: impl FnOnce() -> R) -> (R, ParStats) {
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed();
    let stats = ParStats {
        threads: 1,
        tasks: 1,
        busy: wall,
        wall,
    };
    (out, stats)
}

/// Clones the layers only: the copy starts with an empty tape, so a
/// target network or a frozen model does not carry training buffers.
impl Clone for Sequential {
    fn clone(&self) -> Self {
        Self::new(self.layers.clone())
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layers.len())
            .field("param_count", &self.count_params())
            .finish()
    }
}

impl Sequential {
    /// Builds a network from an ordered list of layers.
    ///
    /// # Panics
    /// Panics if `layers` is empty.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        assert!(!layers.is_empty(), "network needs at least one layer");
        Self {
            layers,
            tape: Vec::new(),
            taped: false,
        }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Always false: construction requires at least one layer.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// [`Sequential::forward_train_with`] on the caller's thread.
    pub fn forward_train(&mut self, input: &Tensor) -> Tensor {
        self.forward_train_with(input, &Pool::serial()).0
    }

    /// Training forward pass: runs every layer's forward computation and
    /// keeps each layer's input and workspace on the tape so
    /// [`Sequential::backward_with`] can run. Bit-identical to
    /// [`Sequential::infer`] at any pool size.
    ///
    /// A batch of at least [`MIN_POOLED_ROWS`] rows on a pool of more
    /// than one worker is split into row blocks, and each worker runs
    /// every layer over its blocks in one pool call. Every forward kernel
    /// computes each row from that row alone, so the blocks give the rows
    /// of the whole batch bit for bit. The statistics cover the pool call.
    pub fn forward_train_with(&mut self, input: &Tensor, pool: &Pool) -> (Tensor, ParStats) {
        let shape = Shape::from_dims(input.shape());
        let batch = shape.dims()[0];
        let parts = if batch < MIN_POOLED_ROWS {
            1
        } else {
            blocks_for(pool)
        };
        let blocks = split(batch, parts);
        // Blocks keep their buffers from the last pass, so a pooled
        // training loop over one batch shape allocates once.
        let tape = &mut self.tape;
        tape.resize_with(blocks.len(), TapeBlock::default);
        for (block, rows) in tape.iter_mut().zip(blocks) {
            block.rows = rows;
        }
        let layers = &self.layers;
        let stats = pool.for_each_mut(tape, |_, block| block.forward(layers, input.data(), shape));
        let top = layers.len();
        let out_shape = tape[0].shapes[top].with_batch(batch);
        let out = match tape.as_mut_slice() {
            [block] => std::mem::take(&mut block.acts[top]),
            blocks => blocks.iter().flat_map(|b| &b.acts[top]).copied().collect(),
        };
        self.taped = true;
        let out = Tensor::from_vec(out, out_shape.to_vec()).expect("kernel output matches shape");
        (out, stats)
    }

    /// Inference-only forward pass through `&self`: keeps no tape, so a
    /// frozen network can be shared across threads (`Sequential: Sync`).
    pub fn infer(&self, input: &Tensor) -> Tensor {
        let mut scratch = Scratch::new();
        let (data, shape) = self.infer_scratch(input, &mut scratch);
        Tensor::from_vec(data.to_vec(), shape.to_vec()).expect("kernel output matches shape")
    }

    /// Allocation-free inference: activations ping-pong through the two
    /// buffers of a caller-owned [`Scratch`] arena, so steady-state calls
    /// (same architecture and batch shape) perform zero heap allocations.
    /// Returns a view of the final activation plus its shape, bit-identical
    /// to [`Sequential::infer`].
    pub fn infer_scratch<'s>(
        &self,
        input: &Tensor,
        scratch: &'s mut Scratch,
    ) -> (&'s [f32], Shape) {
        let mut cur = std::mem::take(&mut scratch.bufs[0]);
        let mut next = std::mem::take(&mut scratch.bufs[1]);
        let mut patch = std::mem::take(&mut scratch.patch);
        let mut shape = Shape::from_dims(input.shape());
        shape = self.layers[0].infer_into(input.data(), shape, &mut cur, &mut patch);
        for layer in &self.layers[1..] {
            shape = layer.infer_into(&cur, shape, &mut next, &mut patch);
            std::mem::swap(&mut cur, &mut next);
        }
        scratch.bufs[0] = cur;
        scratch.bufs[1] = next;
        scratch.patch = patch;
        (&scratch.bufs[0][..shape.len()], shape)
    }

    /// [`Sequential::backward_with`] on the caller's thread for a network
    /// whose input gradient nobody reads.
    ///
    /// # Panics
    /// Panics if no training forward pass has run since the last backward.
    pub fn backward_params(&mut self, grad_out: &Tensor) {
        self.backward_with(grad_out, &Pool::serial(), false);
    }

    /// Backpropagates the loss gradient through the last training forward
    /// pass, consuming its tape and accumulating parameter gradients.
    /// Returns the gradient with respect to the network's input when
    /// `input_grad` is set (otherwise the first layer skips it), and the
    /// statistics of the pool calls.
    ///
    /// The layers are walked top down in segments: a layer with
    /// parameters plus the parameter-free layers under it. Each segment is
    /// one pool call whose tasks are the forward pass's row blocks, each
    /// chaining the input gradient through the segment's layers, and
    /// blocks of the top layer's units, each summing its parameter
    /// gradients over every row in batch order into private accumulators
    /// seeded from the current gradients. No sum changes its terms or
    /// their order, so the result is bit-identical at any pool size. A
    /// tape of one block runs on the caller's thread and accumulates the
    /// parameter gradients in place.
    ///
    /// # Panics
    /// Panics if no training forward pass has run since the last backward.
    pub fn backward_with(
        &mut self,
        grad_out: &Tensor,
        pool: &Pool,
        input_grad: bool,
    ) -> (Option<Tensor>, ParStats) {
        assert!(
            std::mem::take(&mut self.taped),
            "backward requires a preceding forward_train"
        );
        if self.tape.len() == 1 {
            return timed(|| self.backward_block(grad_out, input_grad));
        }
        let tape = &self.tape;
        let unit_parts = blocks_for(pool);
        let mut stats = ParStats::default();
        // The gradient of the current segment's output, one buffer per row
        // block; `None` while it is still `grad_out`.
        let mut grads: Option<Vec<Vec<f32>>> = None;
        let mut top = self.layers.len();
        while top > 0 {
            let l = top - 1;
            let mut bottom = l;
            while bottom > 0 && self.layers[bottom - 1].units() == 0 {
                bottom -= 1;
            }
            let g: Vec<&[f32]> = match &grads {
                Some(grads) => grads.iter().map(Vec::as_slice).collect(),
                None => {
                    let row_len = grad_out.len() / tape.iter().map(|b| b.rows.len()).sum::<usize>();
                    tape.iter()
                        .map(|b| &grad_out.data()[b.rows.start * row_len..b.rows.end * row_len])
                        .collect()
                }
            };
            let rows: Vec<TapeRows<'_>> = tape
                .iter()
                .zip(&g)
                .map(|(b, &grad_out)| TapeRows {
                    input: &b.acts[l],
                    shape: b.shapes[l],
                    work: &b.work[l],
                    grad_out,
                })
                .collect();
            let mut tasks = Vec::new();
            if bottom > 0 || input_grad {
                tasks.extend((0..tape.len()).map(BackwardTask::Rows));
            }
            let units = self.layers[l].units();
            if units > 0 {
                tasks.extend(
                    split(units, unit_parts)
                        .into_iter()
                        .map(BackwardTask::Units),
                );
            }
            let layers = &self.layers;
            // A row task yields its block's input gradient, a unit task
            // its units' weight- and bias-gradient rows.
            let (done, call) = pool.map_stats(&tasks, |_, task| match task {
                BackwardTask::Rows(k) => {
                    let block = &tape[*k];
                    let (mut grad_in, mut next) = (Vec::new(), Vec::new());
                    layers[l].input_grad(&block.acts[l], block.shapes[l], g[*k], &mut grad_in);
                    for j in (bottom..l).rev() {
                        layers[j].input_grad(&block.acts[j], block.shapes[j], &grad_in, &mut next);
                        std::mem::swap(&mut grad_in, &mut next);
                    }
                    (grad_in, Vec::new())
                }
                BackwardTask::Units(r) => layers[l].unit_grads(&rows, r.clone()),
            });
            stats.merge(call);
            let mut next_grads = Vec::new();
            for (task, (first, second)) in tasks.iter().zip(done) {
                match task {
                    BackwardTask::Rows(_) => next_grads.push(first),
                    BackwardTask::Units(r) => {
                        let (w_grad, b_grad) = self.layers[l].grads_mut();
                        let per_unit = w_grad.len() / units;
                        w_grad[r.start * per_unit..r.end * per_unit].copy_from_slice(&first);
                        b_grad[r.clone()].copy_from_slice(&second);
                    }
                }
            }
            grads = Some(next_grads);
            top = bottom;
        }
        let grad_in = input_grad.then(|| {
            let batch = tape.iter().map(|b| b.rows.len()).sum();
            let shape = tape[0].shapes[0].with_batch(batch);
            let grads = grads.expect("the network has a layer").concat();
            Tensor::from_vec(grads, shape.to_vec()).expect("input gradient matches shape")
        });
        (grad_in, stats)
    }

    /// [`Sequential::backward_with`] over a tape of one block, top layer
    /// first: each layer adds its parameter gradients in place, then
    /// hands its input gradient down.
    fn backward_block(&mut self, grad_out: &Tensor, input_grad: bool) -> Option<Tensor> {
        let block = &self.tape[0];
        let top = self.layers.len() - 1;
        let (mut cur, mut next) = (Vec::new(), Vec::new());
        for (l, layer) in self.layers.iter_mut().enumerate().rev() {
            let g = if l == top { grad_out.data() } else { &cur };
            let rows = [TapeRows {
                input: &block.acts[l],
                shape: block.shapes[l],
                work: &block.work[l],
                grad_out: g,
            }];
            layer.accumulate_grads(&rows);
            if l > 0 || input_grad {
                layer.input_grad(&block.acts[l], block.shapes[l], g, &mut next);
                std::mem::swap(&mut cur, &mut next);
            }
        }
        input_grad.then(|| {
            Tensor::from_vec(cur, block.shapes[0].to_vec()).expect("input gradient matches shape")
        })
    }

    /// Frees the training tape (every layer's input rows and workspace
    /// from the last training forward pass). For a network that is done
    /// training; a later training pass allocates the tape afresh.
    pub fn clear_tape(&mut self) {
        self.tape = Vec::new();
        self.taped = false;
    }

    /// Zeroes all accumulated parameter gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            let (w, b) = layer.grads_mut();
            w.fill(0.0);
            b.fill(0.0);
        }
    }

    /// Visits every `(value, grad)` parameter pair in stable order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Total number of scalar parameters.
    pub fn count_params(&self) -> usize {
        // `visit_params` needs `&mut self`, so count on a clone.
        let mut me = self.clone();
        let mut n = 0;
        me.visit_params(&mut |v, _| n += v.len());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv1d, Dense, Flatten, Relu};

    fn tiny_net(seed: u64) -> Sequential {
        Sequential::new(vec![
            Box::new(Dense::new(2, 4, seed)),
            Box::new(Relu::new()),
            Box::new(Dense::new(4, 1, seed + 1)),
        ])
    }

    #[test]
    fn forward_shape() {
        let net = tiny_net(3);
        let y = net.infer(&Tensor::zeros(vec![5, 2]));
        assert_eq!(y.shape(), &[5, 1]);
    }

    #[test]
    fn count_params() {
        let net = tiny_net(3);
        // Dense(2,4): 8 + 4; Dense(4,1): 4 + 1.
        assert_eq!(net.count_params(), 17);
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
        }
    }

    /// The compressor's encoder: every layer kind a model here runs.
    fn conv_net() -> (Sequential, Tensor) {
        let net = Sequential::new(vec![
            Box::new(Conv1d::new(3, 6, 3, 2, 21)),
            Box::new(Relu::new()),
            Box::new(Conv1d::new(6, 6, 3, 2, 22)),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(6 * 3, 4, 23)),
        ]);
        let x = Tensor::from_vec(
            (0..2 * 3 * 16)
                .map(|i| ((i * 11) % 17) as f32 * 0.1 - 0.8)
                .collect(),
            vec![2, 3, 16],
        )
        .unwrap();
        (net, x)
    }

    /// A dense net whose hidden unit 2 has all-zero weights, so behind
    /// the ReLU its gradient column is all zeros.
    fn dead_unit_net() -> Sequential {
        let mut first = Dense::new(5, 6, 31);
        let mut w = Tensor::zeros(vec![6, 5]);
        for (i, v) in w.data_mut().iter_mut().enumerate() {
            if i / 5 != 2 {
                *v = ((i * 7) % 11) as f32 * 0.1 - 0.5;
            }
        }
        first.set_weights(w);
        Sequential::new(vec![
            Box::new(first),
            Box::new(Relu::new()),
            Box::new(Dense::new(6, 3, 32)),
        ])
    }

    /// `n` values with exact zeros and negative zeros among them.
    fn fill(n: usize, salt: usize) -> Vec<f32> {
        (0..n)
            .map(|i| match (i * 13 + salt) % 9 {
                0 => 0.0,
                1 => -0.0,
                r => ((i * 31 + salt) % 17) as f32 * 0.125 - 1.0 + r as f32 * 0.01,
            })
            .collect()
    }

    /// The two test networks with a `batch`-row input each.
    fn cases(batch: usize) -> Vec<(Sequential, Tensor)> {
        [
            (conv_net().0, vec![batch, 3, 16]),
            (dead_unit_net(), vec![batch, 5]),
        ]
        .into_iter()
        .map(|(net, shape)| {
            let x = Tensor::from_vec(fill(shape.iter().product(), batch), shape).unwrap();
            (net, x)
        })
        .collect()
    }

    #[test]
    fn infer_matches_eval_forward() {
        // The training forward and `infer` must agree bit for bit.
        let dense_x = Tensor::from_vec(vec![0.4, -1.2, 0.0, 2.5], vec![2, 2]).unwrap();
        for (mut net, x) in [(tiny_net(7), dense_x), conv_net()] {
            let via_infer = net.infer(&x);
            assert_bits_eq(&net.forward_train(&x), &via_infer);
        }
    }

    #[test]
    fn infer_between_forward_train_and_backward_leaves_gradients_unchanged() {
        let (mut plain, x) = conv_net();
        let mut interleaved = plain.clone();
        let grad = Tensor::from_vec(
            vec![0.5, -0.25, 1.0, 0.75, -1.0, 0.125, 0.0, 2.0],
            vec![2, 4],
        )
        .unwrap();
        let grads = |net: &mut Sequential| {
            let mut all = Vec::new();
            net.visit_params(&mut |_, g| all.push(g.clone()));
            all
        };
        plain.forward_train(&x);
        plain.backward_params(&grad);
        interleaved.forward_train(&x);
        let mut other = x.clone();
        other.data_mut().iter_mut().for_each(|v| *v = -*v);
        interleaved.infer(&other);
        interleaved.backward_params(&grad);
        for (a, b) in grads(&mut plain).iter().zip(&grads(&mut interleaved)) {
            assert_bits_eq(a, b);
        }
    }

    /// Every bit of a training step — outputs, input gradients and
    /// accumulated parameter gradients — is the same at pools of 1 to 4
    /// workers: below the pooled-row minimum, at it (fewer rows per
    /// block than elsewhere) and above it with ragged row blocks, through
    /// a dead ReLU unit whose gradient column is all zeros, and onto the
    /// non-zero gradients a previous step left (the kernels accumulate).
    #[test]
    fn pooled_training_step_is_bit_identical_at_any_pool_size() {
        for batch in [
            5,
            MIN_POOLED_ROWS - 1,
            MIN_POOLED_ROWS,
            MIN_POOLED_ROWS + 37,
        ] {
            for (net, x) in cases(batch) {
                let steps = |threads: usize| {
                    let pool = Pool::new(threads);
                    let mut net = net.clone();
                    let mut bits = Vec::new();
                    for (step, input_grad) in [true, true, false].into_iter().enumerate() {
                        let (y, forward) = net.forward_train_with(&x, &pool);
                        let g = Tensor::from_vec(fill(y.len(), step), y.shape().to_vec()).unwrap();
                        let (dx, backward) = net.backward_with(&g, &pool, input_grad);
                        assert_eq!(dx.is_some(), input_grad);
                        let pooled = threads > 1 && batch >= MIN_POOLED_ROWS;
                        assert_eq!(
                            forward.threads > 1,
                            pooled,
                            "batch {batch}, {threads} threads"
                        );
                        assert_eq!(
                            backward.threads > 1,
                            pooled,
                            "batch {batch}, {threads} threads"
                        );
                        bits.extend(y.data().iter().map(|v| v.to_bits()));
                        bits.extend(dx.iter().flat_map(|d| d.data().iter().map(|v| v.to_bits())));
                        net.visit_params(&mut |_, g| {
                            bits.extend(g.data().iter().map(|v| v.to_bits()))
                        });
                    }
                    bits
                };
                let serial = steps(1);
                for threads in [2, 3, 4] {
                    assert!(steps(threads) == serial, "batch {batch}, {threads} threads");
                }
            }
        }
    }

    /// Leaving out the network's input gradient (the first segment's row
    /// tasks on a pool) leaves every parameter gradient bit for bit where
    /// the full backward pass leaves it, over two steps so the second
    /// accumulates onto non-zero gradients.
    #[test]
    fn backward_without_input_grad_leaves_the_same_param_grads() {
        for batch in [MIN_POOLED_ROWS - 1, MIN_POOLED_ROWS + 5] {
            for (net, x) in cases(batch) {
                for threads in [1, 4] {
                    let pool = Pool::new(threads);
                    let param_grads = |input_grad: bool| {
                        let mut net = net.clone();
                        let mut bits = Vec::new();
                        for step in 0..2 {
                            let (y, _) = net.forward_train_with(&x, &pool);
                            let g =
                                Tensor::from_vec(fill(y.len(), step), y.shape().to_vec()).unwrap();
                            let (dx, stats) = net.backward_with(&g, &pool, input_grad);
                            assert_eq!(dx.is_some(), input_grad);
                            let pooled = threads > 1 && batch >= MIN_POOLED_ROWS;
                            assert_eq!(stats.threads > 1, pooled, "batch {batch}");
                        }
                        net.visit_params(&mut |_, g| {
                            bits.extend(g.data().iter().map(|v| v.to_bits()))
                        });
                        bits
                    };
                    assert!(
                        param_grads(false) == param_grads(true),
                        "batch {batch}, {threads} threads"
                    );
                }
            }
        }
    }

    /// A clone starts without a tape, and a cleared tape frees its
    /// buffers: either needs a new training forward pass before backward.
    #[test]
    fn clones_and_cleared_networks_carry_no_tape() {
        let (mut net, x) = conv_net();
        net.forward_train(&x);
        let copy = net.clone();
        assert!(copy.tape.is_empty() && !copy.taped);
        net.clear_tape();
        assert!(net.tape.is_empty() && !net.taped);
        let mut again = net.clone();
        let y = again.forward_train(&x);
        again.backward_params(&y);
    }

    #[test]
    #[should_panic(expected = "backward requires a preceding forward_train")]
    fn backward_without_forward_train_panics() {
        let mut net = tiny_net(1);
        let x = Tensor::from_vec(vec![0.3, -0.8], vec![1, 2]).unwrap();
        net.infer(&x);
        net.backward_params(&Tensor::zeros(vec![1, 1]));
    }

    #[test]
    fn infer_is_shareable_across_threads() {
        let net = tiny_net(7);
        let x = Tensor::from_vec(vec![0.4, -1.2], vec![1, 2]).unwrap();
        let expected = net.infer(&x);
        let outputs: Vec<Tensor> = std::thread::scope(|s| {
            (0..4)
                .map(|_| s.spawn(|| net.infer(&x)))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for y in outputs {
            assert_eq!(y.data(), expected.data());
        }
    }

    #[test]
    fn debug_is_nonempty() {
        let net = tiny_net(0);
        let s = format!("{net:?}");
        assert!(s.contains("Sequential"));
        assert!(s.contains("param_count"));
    }
}
