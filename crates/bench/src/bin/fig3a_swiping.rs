//! Fig. 3(a): cumulative swiping probability of multicast group 1 per
//! video category vs engagement time.
//!
//! The paper's observation: in the group it plots, News videos are watched
//! the longest (swipe CDF rises slowest) and Game videos the least (CDF
//! rises fastest). We run the campus scenario, pick the group whose
//! favourite category is News, and print its per-category cumulative
//! swiping probability series.
//!
//! ```text
//! cargo run --release -p msvs-bench --bin fig3a_swiping
//! ```

use msvs_bench::paper_scenario;
use msvs_sim::Simulation;
use msvs_types::VideoCategory;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut sim = Simulation::new(paper_scenario(120, 12, 42))?;
    sim.run_schedule()?;
    let outcome = sim.last_outcome().expect("intervals ran");

    // "Multicast group 1": the paper plots a News-leaning group (News
    // watched most). Pick the group whose recommendation pool carries the
    // most News probability mass — that is the group whose members'
    // preferences lean News.
    let catalog = sim.catalog();
    let group = outcome
        .recommendations
        .iter()
        .enumerate()
        .max_by(|a, b| {
            let news_mass = |r: &msvs_core::GroupRecommendation| {
                r.category_mix(catalog)[VideoCategory::News.index()]
            };
            news_mass(a.1)
                .partial_cmp(&news_mass(b.1))
                .expect("finite masses")
        })
        .map(|(g, _)| g)
        .expect("at least one group");
    let swiping = &outcome.swiping[group];

    println!("# Fig. 3(a) — cumulative swiping probability, multicast group {group}");
    println!("# (paper: News watched most / swiped latest, Game least)");
    print!("{:>6}", "t(s)");
    for cat in VideoCategory::ALL {
        print!("{:>10}", cat.name());
    }
    println!();
    for t in [1, 2, 3, 5, 8, 10, 15, 20, 30, 40, 50, 60] {
        print!("{t:>6}");
        for cat in VideoCategory::ALL {
            print!("{:>10.3}", swiping.cumulative_probability(cat, t as f64));
        }
        println!();
    }

    println!("\n# retention per category (ranked; * = fewer than 100 samples):");
    for (cat, mean) in swiping.ranked_categories() {
        let n = swiping.sample_count(cat);
        let marker = if n < 100 { "*" } else { " " };
        println!("{:>10}{marker}: {mean:>6.2} s ({n} samples)", cat.name());
    }
    // The paper's visual check: the favourite category's curve rises the
    // slowest. Compare the cumulative swiping probability at 10 s among
    // categories with meaningful support (lower = retained longer).
    let mut at_10s: Vec<(VideoCategory, f64)> = VideoCategory::ALL
        .iter()
        .filter(|&&c| swiping.sample_count(c) >= 100)
        .map(|&c| (c, swiping.cumulative_probability(c, 10.0)))
        .collect();
    at_10s.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite probabilities"));
    println!("\n# check: F(10 s) among well-sampled categories (lower = retained longer):");
    for (c, f) in &at_10s {
        println!("#   {:<10} {f:.3}", c.name());
    }
    println!(
        "# News swiped latest: {}",
        at_10s
            .first()
            .map(|(c, _)| *c == VideoCategory::News)
            .unwrap_or(false)
    );
    Ok(())
}
