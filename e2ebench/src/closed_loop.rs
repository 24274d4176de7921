//! The closed loop: set up a simulation, then run scored intervals back
//! to back, timing each public call from outside and validating every
//! interval's output.

use std::time::{Duration, Instant};

use msvs_sim::{IntervalRecord, Simulation, SimulationConfig};

use crate::stats::Digest;

/// Builds and warms up a simulation, returning it with the seconds that
/// took (the time until the first reservation can be issued).
pub fn timed_setup(config: SimulationConfig) -> msvs_types::Result<(Simulation, f64)> {
    let start = Instant::now();
    let mut sim = Simulation::new(config)?;
    sim.warm_up()?;
    Ok((sim, start.elapsed().as_secs_f64()))
}

/// Per-interval output validation plus the accuracy and digest record.
#[derive(Debug)]
pub struct Checker {
    k_min: usize,
    k_max: usize,
    users: usize,
    pub problems: Vec<String>,
    pub digest: Digest,
    pub radio_accuracy: Vec<f64>,
    pub computing_accuracy: Vec<f64>,
    /// Scored intervals the degradation ladder marked degraded.
    pub degraded: usize,
    pub updates_sent: u64,
}

impl Checker {
    pub fn new(config: &SimulationConfig) -> Self {
        Self {
            k_min: config.scheme.grouping.k_min,
            k_max: config.scheme.grouping.k_max,
            users: config.n_users,
            problems: Vec::new(),
            digest: Digest::default(),
            radio_accuracy: Vec::new(),
            computing_accuracy: Vec::new(),
            degraded: 0,
            updates_sent: 0,
        }
    }

    fn fail(&mut self, index: usize, what: String) {
        // Keep the report short: one problem already makes the run
        // incorrect.
        if self.problems.len() < 20 {
            self.problems.push(format!("interval {index}: {what}"));
        }
    }

    /// Validates scored interval `index` right after `run_interval`
    /// returned `record`.
    pub fn check(&mut self, index: usize, record: &IntervalRecord, sim: &Simulation) {
        self.digest.add(
            record.k,
            record.predicted_radio.value(),
            record.predicted_computing.value(),
        );
        self.radio_accuracy.push(record.radio_accuracy);
        self.computing_accuracy.push(record.computing_accuracy);
        self.degraded += usize::from(record.degraded);
        self.updates_sent += record.updates_sent;
        for (name, acc) in [
            ("radio_accuracy", record.radio_accuracy),
            ("computing_accuracy", record.computing_accuracy),
        ] {
            if !(acc.is_finite() && (0.0..=1.0).contains(&acc)) {
                self.fail(index, format!("{name} {acc} outside [0, 1]"));
            }
        }
        if !(self.k_min..=self.k_max).contains(&record.k) {
            self.fail(
                index,
                format!("k {} outside [{}, {}]", record.k, self.k_min, self.k_max),
            );
        }
        // Twins are conserved through churn, handover, crash failover and
        // restore: every user keeps exactly one.
        let twins = sim.store().len();
        if twins != self.users {
            self.fail(
                index,
                format!("store holds {twins} twins, expected {}", self.users),
            );
        }
        let Some(outcome) = sim.last_outcome() else {
            self.fail(index, "no prediction outcome".into());
            return;
        };
        let g = &outcome.grouping;
        if g.k != record.k || g.assignments.len() != outcome.user_order.len() {
            self.fail(index, "grouping does not match the record".into());
            return;
        }
        if g.assignments.iter().any(|&a| a >= g.k) {
            self.fail(index, "assignment beyond k".into());
        }
        let mut order = outcome.user_order.clone();
        order.sort();
        order.dedup();
        if order.len() != outcome.user_order.len() || order.len() != self.users {
            self.fail(index, "user_order is not the population".into());
        }
        let mut members: Vec<_> = outcome
            .groups
            .iter()
            .flat_map(|grp| grp.members.iter().copied())
            .collect();
        members.sort();
        if members != order {
            self.fail(index, "groups do not partition user_order".into());
        }
    }
}

/// What the scored phase of one run measured.
#[derive(Debug, Default)]
pub struct Scored {
    pub attempted: usize,
    pub failed: usize,
    /// Wall of each successful `run_interval`, milliseconds.
    pub interval_ms: Vec<f64>,
    /// Summed wall of every attempted `run_interval`.
    pub wall: Duration,
    pub errors: Vec<String>,
}

/// Runs `intervals` scored intervals of `sim` back to back into `out`,
/// stopping early once `out` holds `deadline` of interval wall (a guard
/// against a wedged program; runs are sized well inside it). `after`
/// runs outside the timed span after each attempt, with the interval
/// index, the record (`None` on error), the start and the wall of the
/// `run_interval` call.
pub fn scored_loop(
    sim: &mut Simulation,
    intervals: usize,
    deadline: Duration,
    out: &mut Scored,
    mut after: impl FnMut(usize, Option<&IntervalRecord>, &Simulation, Instant, Duration),
) {
    for index in 0..intervals {
        if out.wall >= deadline {
            break;
        }
        let start = Instant::now();
        let result = sim.run_interval(index);
        let dur = start.elapsed();
        out.attempted += 1;
        out.wall += dur;
        match &result {
            Ok(_) => out.interval_ms.push(crate::trace::ms(dur)),
            Err(e) => {
                out.failed += 1;
                if out.errors.len() < 20 {
                    out.errors.push(format!("interval {index}: {e}"));
                }
            }
        }
        after(index, result.as_ref().ok(), sim, start, dur);
    }
}

/// Peak resident set of this process in megabytes (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    msvs_sim::peak_rss_kb().map(|kb| kb as f64 / 1024.0)
}
