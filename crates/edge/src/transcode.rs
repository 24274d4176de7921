//! Transcoding compute cost model.

use msvs_types::{CpuCycles, RepresentationLevel, SimDuration};

/// Cycles-per-output-bit transcode cost model.
///
/// Video transcoding cost is dominated by encoding the *output*
/// representation; decoding the (higher) input adds a fixed overhead
/// fraction. A 1080p→480p transcode of a 30 s clip therefore costs roughly
/// `cycles_per_bit * bits(480p, 30 s) * (1 + decode_overhead)` cycles,
/// which matches the linear-in-output-bitrate models used in edge
/// transcoding literature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranscodeModel {
    /// Encoder cost per output bit, cycles/bit (H.264 software ≈ 50–100).
    pub cycles_per_output_bit: f64,
    /// Extra fraction for decoding the source representation.
    pub decode_overhead: f64,
}

impl Default for TranscodeModel {
    fn default() -> Self {
        Self {
            cycles_per_output_bit: 70.0,
            decode_overhead: 0.25,
        }
    }
}

impl TranscodeModel {
    /// Cycle cost of transcoding `duration` of video from `from` down to
    /// `to`.
    ///
    /// Returns zero when `from == to` (served as-is). Uses the nominal
    /// ladder bitrate of the *output* level.
    ///
    /// # Panics
    /// Panics if `from < to` — the edge only transcodes downwards (the
    /// cache never holds a lower representation than it can serve from).
    pub fn cost(
        &self,
        from: RepresentationLevel,
        to: RepresentationLevel,
        duration: SimDuration,
    ) -> CpuCycles {
        assert!(
            from >= to,
            "edge transcoding is downscale-only: {from} -> {to}"
        );
        if from == to {
            return CpuCycles::ZERO;
        }
        let output_bits = to.nominal_bitrate().as_bits_per_sec() * duration.as_secs_f64();
        CpuCycles(output_bits * self.cycles_per_output_bit * (1.0 + self.decode_overhead))
    }

    /// Cycle cost per second of output video at `to` (for demand
    /// prediction without knowing exact durations).
    pub fn cost_rate(&self, to: RepresentationLevel) -> CpuCycles {
        CpuCycles(
            to.nominal_bitrate().as_bits_per_sec()
                * self.cycles_per_output_bit
                * (1.0 + self.decode_overhead),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_level_is_free() {
        let m = TranscodeModel::default();
        assert_eq!(
            m.cost(
                RepresentationLevel::P720,
                RepresentationLevel::P720,
                SimDuration::from_secs(30)
            ),
            CpuCycles::ZERO
        );
    }

    #[test]
    fn cost_scales_with_duration_and_level() {
        let m = TranscodeModel::default();
        let c30 = m.cost(
            RepresentationLevel::P1080,
            RepresentationLevel::P480,
            SimDuration::from_secs(30),
        );
        let c60 = m.cost(
            RepresentationLevel::P1080,
            RepresentationLevel::P480,
            SimDuration::from_secs(60),
        );
        assert!((c60.value() - 2.0 * c30.value()).abs() < 1.0);
        let c_hi = m.cost(
            RepresentationLevel::P1080,
            RepresentationLevel::P720,
            SimDuration::from_secs(30),
        );
        assert!(c_hi.value() > c30.value(), "higher output costs more");
    }

    #[test]
    fn cost_matches_hand_calc() {
        let m = TranscodeModel {
            cycles_per_output_bit: 100.0,
            decode_overhead: 0.0,
        };
        // P240 = 0.4 Mbps, 10 s -> 4e6 bits -> 4e8 cycles.
        let c = m.cost(
            RepresentationLevel::P1080,
            RepresentationLevel::P240,
            SimDuration::from_secs(10),
        );
        assert!((c.value() - 4e8).abs() < 1.0);
    }

    #[test]
    fn cost_rate_consistent_with_cost() {
        let m = TranscodeModel::default();
        let rate = m.cost_rate(RepresentationLevel::P360);
        let one_sec = m.cost(
            RepresentationLevel::P1080,
            RepresentationLevel::P360,
            SimDuration::from_secs(1),
        );
        assert!((rate.value() - one_sec.value()).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "downscale-only")]
    fn upscale_panics() {
        let m = TranscodeModel::default();
        let _ = m.cost(
            RepresentationLevel::P240,
            RepresentationLevel::P720,
            SimDuration::from_secs(1),
        );
    }
}
