//! Campus streaming: the paper's full evaluation scenario — 120 users on
//! the Waterloo campus, an hour of 5-minute reservation intervals — with a
//! look inside the final interval's multicast groups and swiping curves.
//!
//! ```text
//! cargo run --release --example campus_streaming [-- --csv out.csv]
//! ```

use msvs::sim::{report, Simulation, SimulationConfig};
use msvs::types::VideoCategory;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let csv_path = std::env::args().skip_while(|a| a != "--csv").nth(1);

    let config = SimulationConfig {
        n_users: 120,
        n_intervals: 12, // one hour of 5-minute intervals
        warmup_intervals: 2,
        seed: 42,
        ..Default::default()
    };
    let mut sim = Simulation::new(config)?;
    let result = sim.run_schedule()?;

    println!(
        "== per-interval scorecard ==\n{}",
        report::interval_table(&sim.telemetry().journal().entries())
    );
    println!(
        "radio accuracy {:.2}% | computing accuracy {:.2}% | multicast saving {:.1}%\n",
        100.0 * result.mean_radio_accuracy(),
        100.0 * result.mean_computing_accuracy(),
        100.0 * result.mean_multicast_saving()
    );

    // Inspect the final interval's groups.
    let outcome = sim.last_outcome().expect("at least one interval ran");
    println!(
        "== final interval: {} multicast groups ==",
        outcome.grouping.k
    );
    for (g, pred) in outcome.groups.iter().enumerate() {
        let swiping = &outcome.swiping[g];
        let favourite = swiping.ranked_categories()[0].0;
        println!(
            "group {g}: {:>3} members | level {} | {:.1} RB | {:.1} Gcyc | favourite {}",
            pred.members.len(),
            pred.level,
            pred.radio.value(),
            pred.computing.as_gigacycles(),
            favourite
        );
    }

    // Swiping curves of the largest group (Fig. 3(a) style, text form).
    let largest = outcome
        .groups
        .iter()
        .enumerate()
        .max_by_key(|(_, p)| p.members.len())
        .map(|(g, _)| g)
        .expect("at least one group");
    println!("\n== group {largest} cumulative swiping probability ==");
    print!("{:>10}", "t (s)");
    for cat in [
        VideoCategory::News,
        VideoCategory::Music,
        VideoCategory::Game,
    ] {
        print!("{:>10}", cat.name());
    }
    println!();
    for t in [2.0, 5.0, 10.0, 20.0, 40.0, 60.0] {
        print!("{t:>10.0}");
        for cat in [
            VideoCategory::News,
            VideoCategory::Music,
            VideoCategory::Game,
        ] {
            print!(
                "{:>10.3}",
                outcome.swiping[largest].cumulative_probability(cat, t)
            );
        }
        println!();
    }

    if let Some(path) = csv_path {
        std::fs::write(&path, report::to_csv(&result))?;
        println!("\nwrote {path}");
    }
    Ok(())
}
