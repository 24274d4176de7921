//! Plain-text tables and CSV export for simulation reports. The
//! scorecard, stage and outage tables read journal entries, so `msvs
//! run` and `msvs report` print them from the same record.

use std::collections::BTreeMap;

use msvs_core::demand::prediction_accuracy;
use msvs_telemetry::{Entry, Event};

use crate::metrics::SimulationReport;

/// Renders rows as an aligned plain-text table.
///
/// # Panics
/// Panics if any row's length differs from the header's.
///
/// # Examples
/// ```
/// let t = msvs_sim::format_table(
///     &["k", "acc"],
///     &[vec!["4".into(), "0.95".into()]],
/// );
/// assert!(t.contains("k"));
/// assert!(t.contains("0.95"));
/// ```
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width must match header");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, (c, w)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{c:>w$}", w = *w));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(headers.to_vec(), &widths));
    let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(rule));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect(), &widths));
    }
    out
}

/// Serialises a [`SimulationReport`] to CSV (header + one row per
/// interval).
pub fn to_csv(report: &SimulationReport) -> String {
    let mut out = String::from(
        "interval,k,silhouette,predicted_radio_rb,actual_radio_rb,radio_accuracy,\
         predicted_computing_gcycles,actual_computing_gcycles,computing_accuracy,\
         actual_unicast_rb,actual_traffic_mb,predicted_waste_mb,actual_waste_mb,\
         predict_wall_ms,updates_sent,handovers,grouping_stability,\
         reservation_covered,reservation_idle\n",
    );
    for r in &report.intervals {
        let (covered, idle) = match &r.reservation {
            Some(o) => (
                if o.radio_covered { "1" } else { "0" }.to_string(),
                format!("{:.4}", o.radio_idle_fraction),
            ),
            None => (String::new(), String::new()),
        };
        let stability = r
            .grouping_stability
            .map(|s| format!("{s:.4}"))
            .unwrap_or_default();
        out.push_str(&format!(
            "{},{},{:.4},{:.3},{:.3},{:.4},{:.3},{:.3},{:.4},{:.3},{:.3},{:.3},{:.3},{:.3},{},{},{},{},{}\n",
            r.index,
            r.k,
            r.silhouette,
            r.predicted_radio.value(),
            r.actual_radio.value(),
            r.radio_accuracy,
            r.predicted_computing.as_gigacycles(),
            r.actual_computing.as_gigacycles(),
            r.computing_accuracy,
            r.actual_unicast_radio.value(),
            r.actual_traffic_mb,
            r.predicted_waste_mb,
            r.actual_waste_mb,
            r.predict_wall_ms,
            r.updates_sent,
            r.handovers,
            stability,
            covered,
            idle,
        ));
    }
    out
}

/// Renders the per-interval scorecard (the Fig. 3(b)-style series) from
/// a journal's `IntervalCompleted` entries.
pub fn interval_table(entries: &[Entry]) -> String {
    let accuracy = |p: f64, a: f64| format!("{:.1}%", 100.0 * prediction_accuracy(p, a));
    let rows: Vec<Vec<String>> = entries
        .iter()
        .filter_map(|e| match &e.event {
            Event::IntervalCompleted {
                interval,
                k,
                silhouette,
                predicted_rb,
                actual_rb,
                predicted_gcycles,
                actual_gcycles,
                ..
            } => Some(vec![
                interval.to_string(),
                k.to_string(),
                format!("{silhouette:.3}"),
                format!("{predicted_rb:.1}"),
                format!("{actual_rb:.1}"),
                accuracy(*predicted_rb, *actual_rb),
                format!("{predicted_gcycles:.2}"),
                format!("{actual_gcycles:.2}"),
                accuracy(*predicted_gcycles, *actual_gcycles),
            ]),
            _ => None,
        })
        .collect();
    format_table(
        &[
            "interval",
            "K",
            "sil",
            "pred RB",
            "actual RB",
            "radio acc",
            "pred Gcyc",
            "actual Gcyc",
            "comp acc",
        ],
        &rows,
    )
}

/// Renders a journal's closing `StageSummary` entries as the stage
/// latency table, or `None` when it holds none.
pub fn stage_table(entries: &[Entry]) -> Option<String> {
    let rows: Vec<Vec<String>> = entries
        .iter()
        .filter_map(|e| match &e.event {
            Event::StageSummary {
                stage,
                count,
                mean_ms,
                p50_ms,
                p90_ms,
                p99_ms,
                max_ms,
                total_ms,
            } => {
                let mut row = vec![stage.clone(), count.to_string()];
                row.extend(
                    [mean_ms, p50_ms, p90_ms, p99_ms, max_ms, total_ms].map(|v| format!("{v:.3}")),
                );
                Some(row)
            }
            _ => None,
        })
        .collect();
    (!rows.is_empty()).then(|| {
        format_table(
            &[
                "stage", "count", "mean ms", "p50 ms", "p90 ms", "p99 ms", "max ms", "total ms",
            ],
            &rows,
        )
    })
}

/// One shard's outage record, folded from a journal's `ShardDown` and
/// `ShardRestored` entries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardOutageRow {
    /// The shard.
    pub shard: u64,
    /// Outage windows the shard entered.
    pub outages: u64,
    /// Users crash failover relabelled away from the shard.
    pub failed_over: u64,
    /// Scored intervals the shard spent inside an outage window.
    pub down_intervals: u64,
    /// Fraction of the scored intervals the shard was live.
    pub availability: f64,
}

/// Folds a journal's outage events into one row per shard that went
/// down, in shard order. A `ShardDown` at interval `d` answered by a
/// `ShardRestored` at interval `r` means the shard missed intervals
/// `d..r`; an unanswered `ShardDown` is down through the end of the run
/// (the journal's `IntervalCompleted` count).
pub fn shard_outages(entries: &[Entry]) -> Vec<ShardOutageRow> {
    let total_intervals = entries
        .iter()
        .filter(|e| matches!(e.event, Event::IntervalCompleted { .. }))
        .count() as u64;
    // Per shard: its row so far and the interval of an open outage.
    let mut shards: BTreeMap<u64, (ShardOutageRow, Option<u64>)> = BTreeMap::new();
    for e in entries {
        match &e.event {
            Event::ShardDown {
                interval,
                shard,
                failed_over,
                ..
            } => {
                let (row, open) = shards.entry(*shard).or_default();
                row.outages += 1;
                row.failed_over += failed_over;
                *open = Some(*interval);
            }
            Event::ShardRestored {
                interval, shard, ..
            } => {
                let (row, open) = shards.entry(*shard).or_default();
                if let Some(down_at) = open.take() {
                    row.down_intervals += interval.saturating_sub(down_at);
                }
            }
            _ => {}
        }
    }
    shards
        .into_iter()
        .map(|(shard, (row, open))| {
            let down_intervals = row.down_intervals
                + open.map_or(0, |down_at| total_intervals.saturating_sub(down_at));
            let availability = if total_intervals == 0 {
                1.0
            } else {
                1.0 - down_intervals as f64 / total_intervals as f64
            };
            ShardOutageRow {
                shard,
                down_intervals,
                availability,
                ..row
            }
        })
        .collect()
}

/// Renders [`shard_outages`] as the per-shard outage table, or `None`
/// when no shard went down.
pub fn outage_table(entries: &[Entry]) -> Option<String> {
    let rows: Vec<Vec<String>> = shard_outages(entries)
        .iter()
        .map(|r| {
            vec![
                r.shard.to_string(),
                r.outages.to_string(),
                r.failed_over.to_string(),
                r.down_intervals.to_string(),
                format!("{:.1}%", 100.0 * r.availability),
            ]
        })
        .collect();
    (!rows.is_empty()).then(|| {
        format_table(
            &[
                "shard",
                "outages",
                "failed over",
                "down intervals",
                "availability",
            ],
            &rows,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::IntervalRecord;
    use msvs_types::{CpuCycles, ResourceBlocks};

    fn report() -> SimulationReport {
        SimulationReport {
            intervals: vec![IntervalRecord {
                index: 0,
                k: 4,
                silhouette: 0.62,
                predicted_radio: ResourceBlocks(120.5),
                actual_radio: ResourceBlocks(126.0),
                radio_accuracy: 0.956,
                predicted_computing: CpuCycles(2.1e9),
                actual_computing: CpuCycles(2.0e9),
                computing_accuracy: 0.95,
                actual_unicast_radio: ResourceBlocks(600.0),
                actual_traffic_mb: 800.0,
                predicted_waste_mb: 70.0,
                actual_waste_mb: 75.0,
                handovers: 4,
                grouping_stability: Some(0.9),
                predict_wall_ms: 12.0,
                updates_sent: 1234,
                degraded: false,
                twin_coverage: None,
                reservation: None,
            }],
            ..Default::default()
        }
    }

    #[test]
    fn table_aligns_and_includes_values() {
        let t = format_table(
            &["a", "bbb"],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "20".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].contains('1'));
        assert!(lines[3].contains("20"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_panic() {
        let _ = format_table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = to_csv(&report());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("interval,k,"));
        assert!(lines[1].starts_with("0,4,0.6200,120.500,126.000,0.9560,"));
    }

    #[test]
    fn interval_table_renders() {
        let completed = Entry {
            t_ms: 300_000,
            event: Event::IntervalCompleted {
                interval: 0,
                k: 4,
                silhouette: 0.62,
                groups: 4,
                predicted_rb: 120.5,
                actual_rb: 126.0,
                predicted_gcycles: 2.1,
                actual_gcycles: 2.0,
                hit_ratio: 0.5,
            },
        };
        let started = Entry {
            t_ms: 0,
            event: Event::IntervalStarted { interval: 0 },
        };
        let t = interval_table(&[started, completed]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3, "{t}");
        assert!(lines[0].contains("actual RB"));
        let cells: Vec<&str> = lines[2].split_whitespace().collect();
        assert_eq!(
            cells,
            ["0", "4", "0.620", "120.5", "126.0", "95.6%", "2.10", "2.00", "95.0%"]
        );
    }

    #[test]
    fn stage_table_prints_the_summary_rows() {
        let row = Entry {
            t_ms: 0,
            event: Event::StageSummary {
                stage: "scheme_predict".into(),
                count: 10,
                mean_ms: 5.5,
                p50_ms: 5.0,
                p90_ms: 9.0,
                p99_ms: 10.0,
                max_ms: 10.0,
                total_ms: 55.0,
            },
        };
        let table = stage_table(&[row]).expect("one stage row");
        let cells: Vec<&str> = table.lines().nth(2).unwrap().split_whitespace().collect();
        assert_eq!(
            cells,
            [
                "scheme_predict",
                "10",
                "5.500",
                "5.000",
                "9.000",
                "10.000",
                "10.000",
                "55.000"
            ]
        );
        assert!(stage_table(&[]).is_none());
    }
}
