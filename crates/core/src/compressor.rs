//! The 1D-CNN time-series compressor.
//!
//! The paper: "we first utilize a one-dimensional convolution neural
//! network (1D-CNN) to compress the time-series UDTs' data." We realise
//! this as a convolutional autoencoder: the encoder (two strided `Conv1d`
//! layers plus a dense head) maps a `[channels, window]` twin history to a
//! small embedding; a dense decoder reconstructs the input, providing the
//! training signal without labels.

use std::borrow::Borrow;
use std::cell::RefCell;

use msvs_nn::{mse_loss, Adam, Conv1d, Dense, Flatten, Relu, Scratch, Sequential, Tensor};
use msvs_par::{ParStats, Pool};
use msvs_telemetry::{stages, SpanAttrs, SpanCollector};
use msvs_types::{Error, Result};
use msvs_udt::FeatureWindow;

use crate::features::{embedding_features, windows_to_tensor};

/// The CNN's compute backend: selects nothing.
///
/// Training and encoding always run the scalar kernels in
/// `msvs_nn::kernels`. The SIMD and int8 backends were removed because
/// neither showed an end-to-end win: encode is under 4% of an interval,
/// and the 8-wide kernels were no faster at 120 users on one thread.
/// The type survives with its one variant only because the `e2ebench`
/// harness, a workspace of its own, still names it through
/// `SimulationConfig::backend` and `CompressorConfig::backend`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The scalar kernels.
    #[default]
    Scalar,
}

/// Hyperparameters of the [`CnnCompressor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressorConfig {
    /// Input window length (time steps per attribute).
    pub window: usize,
    /// Number of input channels (twin attributes).
    pub channels: usize,
    /// Embedding dimensionality.
    pub embed_dim: usize,
    /// Conv filters per layer.
    pub filters: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Training epochs over the batch per `train` call.
    pub epochs: usize,
    /// Weight applied to the preference vector when forming clustering
    /// features (balances dynamics vs taste distance scales).
    pub preference_weight: f64,
    /// RNG seed for weight initialisation.
    pub seed: u64,
    /// Always [`BackendKind::Scalar`]; see its docs.
    pub backend: BackendKind,
}

impl Default for CompressorConfig {
    fn default() -> Self {
        Self {
            window: 32,
            channels: 4,
            embed_dim: 8,
            filters: 8,
            learning_rate: 2e-3,
            epochs: 60,
            preference_weight: 2.0,
            seed: 0,
            backend: BackendKind::Scalar,
        }
    }
}

impl CompressorConfig {
    fn validate(&self) -> Result<()> {
        if self.window < 8 {
            return Err(Error::invalid_config("window", "must be at least 8"));
        }
        if self.channels == 0 || self.embed_dim == 0 || self.filters == 0 {
            return Err(Error::invalid_config(
                "compressor dims",
                "channels, embed_dim and filters must be positive",
            ));
        }
        if self.learning_rate <= 0.0 {
            return Err(Error::invalid_config("learning_rate", "must be positive"));
        }
        if self.epochs == 0 {
            return Err(Error::invalid_config("epochs", "must be positive"));
        }
        if self.preference_weight < 0.0 {
            return Err(Error::invalid_config(
                "preference_weight",
                "must be non-negative",
            ));
        }
        Ok(())
    }
}

/// A trainable 1D-CNN autoencoder that compresses twin windows to
/// embeddings.
///
/// Lifecycle: [`train`](Self::train) while unfrozen, then
/// [`freeze`](Self::freeze) to enter the inference phase. Encoding takes
/// `&self`, so a frozen compressor can be shared across worker threads;
/// [`thaw`](Self::thaw) re-opens training (e.g. after
/// `invalidate_compressor`).
pub struct CnnCompressor {
    config: CompressorConfig,
    encoder: Sequential,
    decoder: Sequential,
    enc_opt: Adam,
    dec_opt: Adam,
    trained_epochs: usize,
    frozen: bool,
}

impl std::fmt::Debug for CnnCompressor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CnnCompressor")
            .field("window", &self.config.window)
            .field("embed_dim", &self.config.embed_dim)
            .field("trained_epochs", &self.trained_epochs)
            .field("frozen", &self.frozen)
            .finish()
    }
}

impl CnnCompressor {
    /// Builds an untrained compressor.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] for out-of-range hyperparameters.
    pub fn new(config: CompressorConfig) -> Result<Self> {
        config.validate()?;
        let conv1 = Conv1d::new(config.channels, config.filters, 3, 2, config.seed ^ 0xA1);
        let l1 = conv1
            .out_len(config.window)
            .ok_or_else(|| Error::invalid_config("window", "too short for conv stack"))?;
        let conv2 = Conv1d::new(config.filters, config.filters, 3, 2, config.seed ^ 0xA2);
        let l2 = conv2
            .out_len(l1)
            .ok_or_else(|| Error::invalid_config("window", "too short for conv stack"))?;
        let flat = config.filters * l2;
        let encoder = Sequential::new(vec![
            Box::new(conv1),
            Box::new(Relu::new()),
            Box::new(conv2),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(flat, config.embed_dim, config.seed ^ 0xA3)),
        ]);
        let out = config.channels * config.window;
        let decoder = Sequential::new(vec![
            Box::new(Dense::new(config.embed_dim, flat, config.seed ^ 0xA4)),
            Box::new(Relu::new()),
            Box::new(Dense::new(flat, out, config.seed ^ 0xA5)),
        ]);
        Ok(Self {
            enc_opt: Adam::new(config.learning_rate),
            dec_opt: Adam::new(config.learning_rate),
            encoder,
            decoder,
            config,
            trained_epochs: 0,
            frozen: false,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &CompressorConfig {
        &self.config
    }

    /// Total epochs trained so far.
    pub fn trained_epochs(&self) -> usize {
        self.trained_epochs
    }

    /// Marks the compressor read-only: subsequent [`train`](Self::train)
    /// calls fail until [`thaw`](Self::thaw). Encoding is unaffected.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Re-opens training after a [`freeze`](Self::freeze).
    pub fn thaw(&mut self) {
        self.frozen = false;
    }

    /// Whether the compressor is in the frozen (inference-only) phase.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Trains the autoencoder on a batch of windows for
    /// `config.epochs` epochs on the caller's thread; returns the
    /// reconstruction loss per epoch. Bit-identical to
    /// [`train_with`](Self::train_with) at any pool size.
    ///
    /// # Errors
    /// - [`Error::InvalidConfig`] if the compressor is frozen;
    /// - shape errors from malformed windows.
    pub fn train(&mut self, windows: &[FeatureWindow]) -> Result<Vec<f32>> {
        Ok(self.train_with(windows, &Pool::serial())?.0)
    }

    /// Pooled [`train`](Self::train) on precomputed windows; see
    /// [`train_fused`](Self::train_fused).
    ///
    /// # Errors
    /// As [`train`](Self::train).
    pub fn train_with(
        &mut self,
        windows: &[FeatureWindow],
        pool: &Pool,
    ) -> Result<(Vec<f32>, ParStats)> {
        self.train_fused(windows, |w| w, pool)
    }

    /// Trains on `items` with the pool's workers: each
    /// [`ENCODE_BATCH`](Self::ENCODE_BATCH)-item batch builds its windows
    /// with `window_of` and stacks them inside a worker, then every epoch
    /// runs the networks' training passes on the pool
    /// ([`Sequential::forward_train_with`], [`Sequential::backward_with`]).
    /// The loss and Adam steps run on the caller's thread. No sum changes
    /// its terms or their order, so the losses and weights are
    /// bit-identical at any thread count. Returns the loss per epoch and
    /// the statistics of the training passes' pool calls (a batch below
    /// the networks' pooled-row minimum trains on the caller's thread and
    /// reports one thread).
    ///
    /// # Errors
    /// As [`train`](Self::train).
    pub fn train_fused<'a, T: Sync, W: Borrow<FeatureWindow>>(
        &mut self,
        items: &'a [T],
        window_of: impl Fn(&'a T) -> W + Sync,
        pool: &Pool,
    ) -> Result<(Vec<f32>, ParStats)> {
        if self.frozen {
            return Err(Error::invalid_config(
                "compressor",
                "cannot train a frozen compressor; call thaw() first",
            ));
        }
        if items.is_empty() {
            return Err(Error::insufficient("at least one feature window"));
        }
        let chunks: Vec<&'a [T]> = items.chunks(Self::ENCODE_BATCH).collect();
        let (parts, _) = pool.map_stats(&chunks, |_, c| {
            let windows: Vec<W> = c.iter().map(&window_of).collect();
            windows_to_tensor(&windows)
        });
        let mut data = Vec::with_capacity(items.len() * self.config.channels * self.config.window);
        for part in parts {
            let part = part?;
            self.check_input(&part)?;
            data.extend_from_slice(part.data());
        }
        let x = Tensor::from_vec(
            data,
            vec![items.len(), self.config.channels, self.config.window],
        )?;
        let flat_target = x
            .clone()
            .reshape(vec![items.len(), self.config.channels * self.config.window])
            .expect("same element count");
        let mut losses = Vec::with_capacity(self.config.epochs);
        let mut stats = ParStats::default();
        for _ in 0..self.config.epochs {
            let (code, s1) = self.encoder.forward_train_with(&x, pool);
            let (recon, s2) = self.decoder.forward_train_with(&code, pool);
            let (loss, grad) = mse_loss(&recon, &flat_target);
            self.encoder.zero_grad();
            self.decoder.zero_grad();
            let (grad_code, s3) = self.decoder.backward_with(&grad, pool, true);
            let grad_code = grad_code.expect("the decoder's input gradient was requested");
            let (_, s4) = self.encoder.backward_with(&grad_code, pool, false);
            for s in [s1, s2, s3, s4] {
                stats.merge(s);
            }
            self.dec_opt.step(&mut self.decoder);
            self.enc_opt.step(&mut self.encoder);
            losses.push(loss);
            self.trained_epochs += 1;
        }
        // The tapes only carry buffers from one epoch to the next.
        self.encoder.clear_tape();
        self.decoder.clear_tape();
        Ok((losses, stats))
    }

    /// Encodes windows (owned or borrowed) into clustering features: CNN
    /// embedding plus the weighted preference vector (see
    /// [`embedding_features`]). Immutable — safe to call from many threads
    /// on a shared (typically frozen) compressor.
    ///
    /// # Errors
    /// Propagates shape errors from malformed windows.
    pub fn encode<W: Borrow<FeatureWindow>>(&self, windows: &[W]) -> Result<Vec<Vec<f64>>> {
        // One scratch arena per worker thread: the pool spawns scoped
        // workers per call beside the caller, and within a call every
        // batch a worker encodes reuses the same high-water-mark
        // buffers, so the steady-state encoder forward pass allocates
        // nothing.
        thread_local! {
            static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
        }
        let x = windows_to_tensor(windows)?;
        self.check_input(&x)?;
        SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let (code, shape) = self.encoder.infer_scratch(&x, &mut scratch);
            let embed = shape.dims()[1];
            Ok(windows
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    let emb = &code[i * embed..(i + 1) * embed];
                    embedding_features(emb, &w.borrow().preference, self.config.preference_weight)
                })
                .collect())
        })
    }

    /// Items per worker batch in [`encode_traced`](Self::encode_traced).
    /// Fixed (not derived from the thread count) so the batch fan-out —
    /// and the span tree recording it — is identical at any thread
    /// count.
    pub const ENCODE_BATCH: usize = 32;

    /// Parallel [`encode`](Self::encode) of precomputed windows; see
    /// [`encode_traced`](Self::encode_traced).
    ///
    /// # Errors
    /// Propagates shape errors from malformed windows.
    pub fn encode_with(
        &self,
        windows: &[FeatureWindow],
        pool: &Pool,
    ) -> Result<(Vec<Vec<f64>>, ParStats)> {
        self.encode_traced(windows, |w| w, pool, None)
    }

    /// Encodes `items` on the pool's workers: splits them into fixed-size
    /// batches, builds each batch's windows with `window_of` inside the
    /// worker, encodes the batch and merges results back in item order.
    /// Every network op is independent per batch row, so the output is
    /// bit-identical to the serial `encode` of the same windows at any
    /// thread count.
    ///
    /// `window_of` may borrow (`|w| w` over precomputed windows) or build
    /// (a twin's feature window), so extraction runs on the pool too.
    /// With `trace` — a `(collector, parent span id)` pair — each batch
    /// records one `cnn_encode_batch` span into a per-batch scratch,
    /// adopted in batch index order after the pool joins, so the merged
    /// span structure is deterministic.
    ///
    /// # Errors
    /// Propagates shape errors from malformed windows.
    pub fn encode_traced<'a, T: Sync, W: Borrow<FeatureWindow>>(
        &self,
        items: &'a [T],
        window_of: impl Fn(&'a T) -> W + Sync,
        pool: &Pool,
        trace: Option<(&SpanCollector, u64)>,
    ) -> Result<(Vec<Vec<f64>>, ParStats)> {
        if items.is_empty() {
            return Ok((Vec::new(), ParStats::serial(0, std::time::Duration::ZERO)));
        }
        let chunks: Vec<&'a [T]> = items.chunks(Self::ENCODE_BATCH).collect();
        let encode_chunk = |c: &'a [T]| {
            let windows: Vec<W> = c.iter().map(&window_of).collect();
            self.encode(&windows)
        };
        let collector = trace.map(|(c, _)| c);
        let (encoded, stats) = pool.map_stats(&chunks, |i, &c| match collector {
            Some(collector) => {
                let mut scratch = collector.scratch();
                let out = scratch.record(
                    stages::CNN_ENCODE_BATCH,
                    SpanAttrs {
                        batch: Some(i as u64),
                        ..Default::default()
                    },
                    |_| encode_chunk(c),
                );
                (out, Some(scratch))
            }
            None => (encode_chunk(c), None),
        });
        let mut out = Vec::with_capacity(items.len());
        for (part, scratch) in encoded {
            if let (Some((collector, parent)), Some(scratch)) = (trace, scratch) {
                collector.adopt(Some(parent), scratch);
            }
            out.extend(part?);
        }
        Ok((out, stats))
    }

    fn check_input(&self, x: &Tensor) -> Result<()> {
        if x.shape()[1] != self.config.channels || x.shape()[2] != self.config.window {
            return Err(Error::shape(
                format!("[_, {}, {}]", self.config.channels, self.config.window),
                format!("{:?}", x.shape()),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn config() -> CompressorConfig {
        CompressorConfig {
            window: 16,
            epochs: 40,
            ..Default::default()
        }
    }

    /// Two archetypes: "campus resident near DC with good channel, long
    /// watches" vs "cell-edge commuter with poor channel, quick swipes".
    fn archetype_windows(n_per: usize, seed: u64) -> (Vec<FeatureWindow>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut windows = Vec::new();
        let mut labels = Vec::new();
        for arche in 0..2 {
            for _ in 0..n_per {
                let (snr, x, y, watch) = if arche == 0 {
                    (0.8, 0.5, 0.5, 0.7)
                } else {
                    (0.2, 0.9, 0.1, 0.15)
                };
                let noisy = |base: f64, rng: &mut StdRng| -> Vec<f32> {
                    (0..16)
                        .map(|_| (base + rng.gen::<f64>() * 0.08 - 0.04).clamp(0.0, 1.0) as f32)
                        .collect()
                };
                windows.push(FeatureWindow {
                    series: vec![
                        noisy(snr, &mut rng),
                        noisy(x, &mut rng),
                        noisy(y, &mut rng),
                        noisy(watch, &mut rng),
                    ],
                    preference: vec![0.125; 8],
                });
                labels.push(arche);
            }
        }
        (windows, labels)
    }

    #[test]
    fn rejects_invalid_config() {
        assert!(CnnCompressor::new(CompressorConfig {
            window: 4,
            ..Default::default()
        })
        .is_err());
        assert!(CnnCompressor::new(CompressorConfig {
            embed_dim: 0,
            ..Default::default()
        })
        .is_err());
        assert!(CnnCompressor::new(CompressorConfig {
            learning_rate: 0.0,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn training_reduces_reconstruction_loss() {
        let mut comp = CnnCompressor::new(config()).unwrap();
        let (windows, _) = archetype_windows(20, 1);
        let losses = comp.train(&windows).unwrap();
        let head: f32 = losses[..5].iter().sum::<f32>() / 5.0;
        let tail: f32 = losses[losses.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(
            tail < head * 0.6,
            "loss should drop substantially: {head} -> {tail}"
        );
        assert_eq!(comp.trained_epochs(), 40);
    }

    #[test]
    fn embeddings_separate_archetypes() {
        let mut comp = CnnCompressor::new(config()).unwrap();
        let (windows, labels) = archetype_windows(25, 2);
        comp.train(&windows).unwrap();
        let feats = comp.encode(&windows).unwrap();
        // Mean intra-class distance should be well below inter-class.
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        };
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for i in 0..feats.len() {
            for j in (i + 1)..feats.len() {
                let d = dist(&feats[i], &feats[j]);
                if labels[i] == labels[j] {
                    intra.push(d);
                } else {
                    inter.push(d);
                }
            }
        }
        let intra_mean = msvs_types::stats::mean(&intra);
        let inter_mean = msvs_types::stats::mean(&inter);
        assert!(
            inter_mean > intra_mean * 1.5,
            "archetypes should separate: intra {intra_mean:.4} vs inter {inter_mean:.4}"
        );
    }

    #[test]
    fn encode_output_dims() {
        let comp = CnnCompressor::new(config()).unwrap();
        let (windows, _) = archetype_windows(3, 3);
        let feats = comp.encode(&windows).unwrap();
        assert_eq!(feats.len(), 6);
        for f in &feats {
            assert_eq!(f.len(), 8 + 8, "embed_dim + preference");
        }
    }

    #[test]
    fn encode_rejects_wrong_window() {
        let comp = CnnCompressor::new(config()).unwrap();
        let bad = FeatureWindow {
            series: vec![vec![0.5; 20]; 4],
            preference: vec![0.125; 8],
        };
        assert!(comp.encode(&[bad]).is_err());
    }

    #[test]
    fn frozen_compressor_rejects_training_until_thawed() {
        let mut comp = CnnCompressor::new(config()).unwrap();
        let (windows, _) = archetype_windows(4, 5);
        comp.freeze();
        assert!(comp.is_frozen());
        assert!(comp.train(&windows).is_err());
        assert!(comp.train_with(&windows, &Pool::new(2)).is_err());
        // Encoding still works while frozen.
        assert!(comp.encode(&windows).is_ok());
        comp.thaw();
        assert!(!comp.is_frozen());
        assert!(comp.train(&windows).is_ok());
    }

    #[test]
    fn parallel_encode_bit_identical_to_serial() {
        let mut comp = CnnCompressor::new(config()).unwrap();
        let (windows, _) = archetype_windows(30, 6);
        comp.train(&windows).unwrap();
        comp.freeze();
        let serial = comp.encode(&windows).unwrap();
        for threads in [2, 4] {
            let (par, stats) = comp.encode_with(&windows, &Pool::new(threads)).unwrap();
            assert_eq!(serial, par, "threads={threads}");
            assert!(stats.tasks >= 1, "chunk tasks recorded");
        }
        // The empty input short-circuits.
        let (empty, stats) = comp.encode_with(&[], &Pool::new(4)).unwrap();
        assert!(empty.is_empty());
        assert_eq!(stats.tasks, 0);
    }

    #[test]
    fn traced_encode_spans_one_batch_each_and_match_across_thread_counts() {
        let mut comp = CnnCompressor::new(config()).unwrap();
        let (windows, _) = archetype_windows(40, 6); // 80 windows -> 3 batches
        comp.train(&windows).unwrap();
        comp.freeze();
        let serial = comp.encode(&windows).unwrap();
        let structures: Vec<_> = [1usize, 4]
            .into_iter()
            .map(|threads| {
                let collector = SpanCollector::new();
                let parent = collector.enter(stages::CNN_FORWARD);
                let (out, _) = comp
                    .encode_traced(
                        &windows,
                        |w| w,
                        &Pool::new(threads),
                        Some((&collector, parent.id())),
                    )
                    .unwrap();
                drop(parent);
                assert_eq!(out, serial, "threads={threads}");
                let spans = collector.snapshot();
                let batches: Vec<_> = spans
                    .iter()
                    .filter(|s| s.name == stages::CNN_ENCODE_BATCH)
                    .collect();
                assert_eq!(
                    batches.len(),
                    windows.len().div_ceil(CnnCompressor::ENCODE_BATCH)
                );
                assert!(batches.iter().all(|s| s.parent == Some(0)));
                spans
                    .iter()
                    .map(msvs_telemetry::SpanRecord::structure)
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(structures[0], structures[1]);
    }

    /// The fused path (twin → window → encode, inside each worker batch)
    /// gives the same features, bit for bit, as `encode_with` on windows
    /// extracted up front, at any pool size.
    #[test]
    fn fused_twin_encode_matches_precomputed_windows() {
        use msvs_types::{Position, SimTime, UserId};
        use msvs_udt::UserDigitalTwin;
        let mut rng = StdRng::seed_from_u64(9);
        // 70 twins -> 3 batches, the last one partial.
        let twins: Vec<UserDigitalTwin> = (0..70u32)
            .map(|u| {
                let mut twin = UserDigitalTwin::new(UserId(u));
                // Short histories exercise the window's left padding.
                for step in 0..u64::from(u % 24) {
                    let t = SimTime::from_secs(step * 5);
                    twin.update_channel(t, rng.gen::<f64>() * 30.0);
                    twin.update_location(
                        t,
                        Position::new(rng.gen::<f64>() * 1200.0, rng.gen::<f64>() * 1000.0),
                    );
                }
                twin
            })
            .collect();
        let comp = CnnCompressor::new(config()).unwrap();
        let window_of = |t: &UserDigitalTwin| t.feature_window(16, 1200.0, 1000.0);
        let windows: Vec<FeatureWindow> = twins.iter().map(window_of).collect();
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let (precomputed, _) = comp.encode_with(&windows, &pool).unwrap();
            let (fused, stats) = comp.encode_traced(&twins, window_of, &pool, None).unwrap();
            let bits =
                |f: &[Vec<f64>]| -> Vec<u64> { f.iter().flatten().map(|v| v.to_bits()).collect() };
            assert_eq!(bits(&fused), bits(&precomputed), "threads={threads}");
            assert_eq!(fused.len(), twins.len());
            assert_eq!(
                stats.tasks,
                twins.len().div_ceil(CnnCompressor::ENCODE_BATCH)
            );
        }
    }

    /// FNV-1a over the bit patterns, so a golden value pins every bit.
    fn bits_digest(bits: impl IntoIterator<Item = u64>) -> u64 {
        bits.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Pins training end to end: the loss of every epoch and every bit of
    /// the trained encoder's features. The golden values were captured
    /// from the naive backward loops the slice kernels replaced, on the
    /// caller's thread. The 40-row batch is below the networks'
    /// pooled-row minimum, so every pool trains it on the caller's
    /// thread; `fused_training_matches_training_on_precomputed_windows`
    /// holds the pooled passes to these serial bits.
    #[test]
    fn seeded_training_matches_golden_bits() {
        let (windows, _) = archetype_windows(20, 1);
        for threads in [1, 2, 4] {
            let mut comp = CnnCompressor::new(CompressorConfig {
                seed: 7,
                ..config()
            })
            .unwrap();
            let (losses, stats) = comp.train_with(&windows, &Pool::new(threads)).unwrap();
            assert_eq!(stats.threads, 1, "a 40-row batch trains serially");
            let feats = comp.encode(&windows).unwrap();
            let loss_digest = bits_digest(losses.iter().map(|l| u64::from(l.to_bits())));
            let feat_digest = bits_digest(feats.iter().flatten().map(|f| f.to_bits()));
            assert_eq!(
                losses[losses.len() - 1].to_bits(),
                0x3e4c_43c6,
                "threads={threads}"
            );
            assert_eq!(loss_digest, 0xb83c_51ef_c9e1_60c7, "threads={threads}");
            assert_eq!(feat_digest, 0x9a2b_f3bf_2fb0_1525, "threads={threads}");
        }
    }

    /// `train` is `train_with` on the caller's thread, and pooled or
    /// fused (twin → window inside each worker batch) training trains the
    /// same weights as serial training on precomputed windows: identical
    /// losses and features, bit for bit, on a batch above the pooled-row
    /// minimum whose last window batch is partial.
    #[test]
    fn fused_training_matches_training_on_precomputed_windows() {
        // 2 * 263 = 526 windows: above the minimum, 17 window batches.
        let n_per = msvs_nn::network::MIN_POOLED_ROWS / 2 + 7;
        let (windows, _) = archetype_windows(n_per, 4);
        let trained = |threads: Option<usize>, fused: bool| {
            let mut comp = CnnCompressor::new(CompressorConfig {
                epochs: 3,
                ..config()
            })
            .unwrap();
            let losses = match (threads, fused) {
                (None, _) => comp.train(&windows).unwrap(),
                (Some(t), fused) => {
                    let pool = Pool::new(t);
                    let ids: Vec<usize> = (0..windows.len()).collect();
                    let (losses, stats) = if fused {
                        comp.train_fused(&ids, |&i| windows[i].clone(), &pool)
                    } else {
                        comp.train_with(&windows, &pool)
                    }
                    .unwrap();
                    assert_eq!(stats.threads, t, "training ran on the pool");
                    losses
                }
            };
            let feats = comp.encode(&windows).unwrap();
            (
                losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                feats
                    .iter()
                    .flatten()
                    .map(|f| f.to_bits())
                    .collect::<Vec<_>>(),
            )
        };
        let serial = trained(None, false);
        for threads in [1, 2, 3, 4] {
            assert_eq!(trained(Some(threads), false), serial, "threads={threads}");
            assert_eq!(
                trained(Some(threads), true),
                serial,
                "fused, threads={threads}"
            );
        }
    }

    #[test]
    fn compression_ratio_is_substantial() {
        let cfg = config();
        // 4 channels x 16 steps = 64 inputs -> 8-dim embedding: 8x smaller.
        assert!(cfg.channels * cfg.window >= 8 * cfg.embed_dim);
    }
}
