//! Simulated metrics repeat exactly for a seed and move with the seed.

use rbcd_perf::{run, Options, Window, Workload};

const SIMULATED: [&str; 3] = ["sim_kcycles_per_frame", "sim_uj_per_frame", "pair_recall"];

fn simulated(seed: u64) -> Vec<u64> {
    let out = run(&Options {
        workload: Workload::Swarm,
        seed,
        seconds: 0.0,
        frames: Some(16),
        trace: false,
    })
    .expect("swarm runs");
    assert!(
        out.correct,
        "seed {seed}: {} of {} steps failed",
        out.failed, out.attempted
    );
    SIMULATED
        .iter()
        .map(|name| {
            let (_, v, _) = out
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .expect("metric emitted");
            v.to_bits()
        })
        .collect()
}

#[test]
fn simulated_metrics_are_bit_identical_for_a_seed_and_differ_across_seeds() {
    assert_ne!(
        Window::from_seed(1).offset,
        Window::from_seed(2).offset,
        "seeds 1 and 2 pick different windows"
    );
    let a = simulated(1);
    assert_eq!(a, simulated(1), "same seed, same simulated metrics");
    let b = simulated(2);
    assert_ne!(
        a[0], b[0],
        "another seed renders other frames, so other cycle counts"
    );
}
