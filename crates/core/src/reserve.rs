//! Resource reservation from predicted demand (the paper's future work).
//!
//! "For future work, we will investigate how to effectively reserve radio
//! and computing resources based on the predicted multicast groups'
//! resource demand." This module implements the natural policy: reserve
//! `prediction × (1 + headroom)` per group, clipped to the cell's budget,
//! and score each interval's outcome — covered or violated, and how much
//! reserved capacity sat idle.

use msvs_types::{CpuCycles, Error, GroupId, ResourceBlocks, Result};

use crate::demand::GroupDemandPrediction;

/// Reservation policy parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReservationPolicy {
    /// Safety margin on top of the prediction (0.1 = +10%).
    pub headroom: f64,
    /// Total radio budget of the cell, resource blocks.
    pub radio_budget: ResourceBlocks,
    /// Total computing budget of the edge per interval, cycles.
    pub computing_budget: CpuCycles,
}

impl Default for ReservationPolicy {
    fn default() -> Self {
        Self {
            headroom: 0.10,
            // 100 RBs (a 20 MHz LTE carrier) and a 16-core 3 GHz edge box
            // over a 5-minute interval.
            radio_budget: ResourceBlocks(100.0),
            computing_budget: CpuCycles(16.0 * 3e9 * 300.0),
        }
    }
}

impl ReservationPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    /// Returns `InvalidConfig` when the headroom is negative/non-finite or
    /// a budget is non-positive.
    pub fn validate(&self) -> Result<()> {
        if !self.headroom.is_finite() || self.headroom < 0.0 {
            return Err(Error::invalid_config(
                "headroom",
                "must be finite and non-negative",
            ));
        }
        if self.radio_budget.value() <= 0.0 {
            return Err(Error::invalid_config("radio_budget", "must be positive"));
        }
        if self.computing_budget.value() <= 0.0 {
            return Err(Error::invalid_config(
                "computing_budget",
                "must be positive",
            ));
        }
        Ok(())
    }
}

/// A per-group radio + computing reservation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupReservation {
    /// The group.
    pub group: GroupId,
    /// Radio blocks set aside for the group.
    pub radio: ResourceBlocks,
    /// Computing cycles set aside for the group.
    pub computing: CpuCycles,
}

/// One interval's reservation across all groups.
#[derive(Debug, Clone, PartialEq)]
pub struct ReservationPlan {
    /// Per-group reservations.
    pub groups: Vec<GroupReservation>,
}

impl ReservationPlan {
    /// Total reserved radio.
    pub fn total_radio(&self) -> ResourceBlocks {
        self.groups.iter().map(|g| g.radio).sum()
    }

    /// Total reserved computing.
    pub fn total_computing(&self) -> CpuCycles {
        self.groups.iter().map(|g| g.computing).sum()
    }
}

/// How an interval's reservation played out against measured demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReservationOutcome {
    /// Reserved radio covered the actual radio demand.
    pub radio_covered: bool,
    /// Fraction of reserved radio left idle (0 when violated).
    pub radio_idle_fraction: f64,
    /// Unserved radio demand when violated, resource blocks.
    pub radio_shortfall: ResourceBlocks,
    /// Reserved computing covered actual transcoding demand.
    pub computing_covered: bool,
    /// Fraction of reserved computing left idle (0 when violated).
    pub computing_idle_fraction: f64,
}

/// Builds one interval's reservation plan.
///
/// `groups` carry the pipeline's per-group demand, which sets each group's
/// share; `radio` and `computing` are the scored predictor's totals, which
/// the shares split after padding by `(1 + headroom) × margin` (`margin`
/// is the degradation ladder's, 1 without one). A padded total over its
/// budget scales every group down proportionally (weighted fair sharing).
///
/// # Errors
/// Propagates policy validation errors.
pub fn plan_reservation(
    groups: &[GroupDemandPrediction],
    radio: ResourceBlocks,
    computing: CpuCycles,
    margin: f64,
    policy: &ReservationPolicy,
) -> Result<ReservationPlan> {
    policy.validate()?;
    let pad = (1.0 + policy.headroom) * margin;
    let radio = fit(
        groups.iter().map(|g| g.radio.value()),
        policy.headroom,
        radio.value() * pad,
        policy.radio_budget.value(),
    );
    let computing = fit(
        groups.iter().map(|g| g.computing.value()),
        policy.headroom,
        computing.value() * pad,
        policy.computing_budget.value(),
    );
    let groups = groups
        .iter()
        .zip(radio.into_iter().zip(computing))
        .map(|(g, (radio, computing))| GroupReservation {
            group: g.group,
            radio: ResourceBlocks(radio),
            computing: CpuCycles(computing),
        })
        .collect();
    Ok(ReservationPlan { groups })
}

/// One resource of [`plan_reservation`]: splits `target` over the groups
/// in proportion to `demand`, then scales the split down to `budget` if
/// it exceeds it. An all-zero demand reserves nothing.
///
/// The split starts from the demand padded by `headroom` and fitted to
/// the budget. In exact arithmetic that step cancels out; it stays so
/// the plans keep their rounding bit for bit.
fn fit(demand: impl Iterator<Item = f64>, headroom: f64, target: f64, budget: f64) -> Vec<f64> {
    let mut split: Vec<f64> = demand.map(|d| d * (1.0 + headroom)).collect();
    let total: f64 = split.iter().sum();
    if total > budget && total > 0.0 {
        let scale = budget / total;
        split.iter_mut().for_each(|v| *v *= scale);
    }
    let total: f64 = split.iter().sum();
    let scale = if total > 0.0 { target / total } else { 1.0 };
    split.iter_mut().for_each(|v| *v *= scale);
    let over = split.iter().sum::<f64>() / budget;
    if over > 1.0 {
        split.iter_mut().for_each(|v| *v /= over);
    }
    split
}

/// Scores a plan against the measured interval demand.
pub fn score_reservation(
    plan: &ReservationPlan,
    actual_radio: ResourceBlocks,
    actual_computing: CpuCycles,
) -> ReservationOutcome {
    let reserved_radio = plan.total_radio().value();
    let reserved_comp = plan.total_computing().value();
    let radio_covered = reserved_radio >= actual_radio.value();
    let computing_covered = reserved_comp >= actual_computing.value();
    ReservationOutcome {
        radio_covered,
        radio_idle_fraction: if radio_covered && reserved_radio > 0.0 {
            (reserved_radio - actual_radio.value()) / reserved_radio
        } else {
            0.0
        },
        radio_shortfall: if radio_covered {
            ResourceBlocks::ZERO
        } else {
            ResourceBlocks(actual_radio.value() - reserved_radio)
        },
        computing_covered,
        computing_idle_fraction: if computing_covered && reserved_comp > 0.0 {
            (reserved_comp - actual_computing.value()) / reserved_comp
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msvs_types::RepresentationLevel;

    /// Plans groups demanding `radios` RBs (and `r × 1e9` cycles) with
    /// the scored totals equal to the groups' sum.
    fn plan(radios: &[f64], margin: f64, policy: ReservationPolicy) -> ReservationPlan {
        let groups: Vec<GroupDemandPrediction> = radios
            .iter()
            .enumerate()
            .map(|(i, &r)| GroupDemandPrediction {
                group: GroupId(i as u32),
                members: vec![],
                level: RepresentationLevel::P720,
                min_efficiency: 2.0,
                radio: ResourceBlocks(r),
                computing: CpuCycles(r * 1e9),
                expected_slots: 10.0,
                expected_traffic_mb: 100.0,
                expected_waste_mb: 5.0,
            })
            .collect();
        let total: f64 = radios.iter().sum();
        plan_reservation(
            &groups,
            ResourceBlocks(total),
            CpuCycles(total * 1e9),
            margin,
            &policy,
        )
        .unwrap()
    }

    #[test]
    fn plan_applies_headroom() {
        let policy = ReservationPolicy {
            headroom: 0.1,
            ..Default::default()
        };
        let p = plan(&[10.0, 20.0], 1.0, policy);
        assert!((p.total_radio().value() - 33.0).abs() < 1e-9);
        assert!((p.groups[0].radio.value() - 11.0).abs() < 1e-9);
        // The degradation margin widens the padding multiplicatively.
        let p = plan(&[10.0, 20.0], 1.5, policy);
        assert!((p.total_radio().value() - 49.5).abs() < 1e-9);
    }

    #[test]
    fn plan_scales_to_budget() {
        let p = plan(
            &[80.0, 80.0],
            1.0,
            ReservationPolicy {
                headroom: 0.0,
                radio_budget: ResourceBlocks(100.0),
                ..Default::default()
            },
        );
        assert!((p.total_radio().value() - 100.0).abs() < 1e-9);
        // Proportional split preserved.
        assert!((p.groups[0].radio.value() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn score_covered_vs_violated() {
        let p = plan(&[50.0], 1.0, ReservationPolicy::default());
        let covered = score_reservation(&p, ResourceBlocks(50.0), CpuCycles(1e9));
        assert!(covered.radio_covered);
        assert!(covered.radio_idle_fraction > 0.0);
        assert_eq!(covered.radio_shortfall, ResourceBlocks::ZERO);

        let violated = score_reservation(&p, ResourceBlocks(90.0), CpuCycles(1e9));
        assert!(!violated.radio_covered);
        assert_eq!(violated.radio_idle_fraction, 0.0);
        assert!((violated.radio_shortfall.value() - (90.0 - 55.0)).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_policy() {
        assert!(ReservationPolicy {
            headroom: -0.1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ReservationPolicy {
            radio_budget: ResourceBlocks(0.0),
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn empty_outcome_plans_empty() {
        let p = plan(&[], 1.0, ReservationPolicy::default());
        assert_eq!(p.total_radio(), ResourceBlocks::ZERO);
        let score = score_reservation(&p, ResourceBlocks::ZERO, CpuCycles::ZERO);
        assert!(score.radio_covered);
    }
}
