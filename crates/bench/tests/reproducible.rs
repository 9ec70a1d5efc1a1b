//! Every priced `repro` experiment, run twice at a small scale on fresh
//! clusters, reports the same figures bit for bit, and those figures are
//! the committed golden: simulated time prices counted work, never the
//! host's clock. `MRINV_REGEN_GOLDEN=1` rewrites the golden file.

use std::fmt::Write as _;

use mrinv_bench::experiments::{
    fig6, fig7, fig8, nb_sweep, node_death_experiment, resume_recovery, sec74, sec8_spark,
    stragglers, table1, table2,
};
use mrinv_bench::suite::SuiteMatrix;
use mrinv_mapreduce::PipelineAnalytics;

/// The largest scale every suite `nb` divides: M4 runs at order 800.
const SCALE: usize = 128;

/// The simulated part of a run's analytics (`lost_cpu_secs` is measured).
fn simulated(a: &PipelineAnalytics) -> String {
    format!(
        "retried {} lost {:?} total {:?} waves {:?}",
        a.retried_attempts, a.lost_task_secs, a.total_task_secs, a.waves
    )
}

/// Every figure the priced experiments report, one line each.
fn figures() -> String {
    let m5 = SuiteMatrix::by_name("M5").unwrap();
    let mut out = String::new();
    let mut line = |name: &str, figures: String| writeln!(out, "{name}: {figures}").unwrap();
    line("table1", format!("{:?}", table1(&m5, SCALE, &[4, 16])));
    line("table2", format!("{:?}", table2(&m5, SCALE, &[4, 16])));
    line("fig6", format!("{:?}", fig6(SCALE, &[1, 4])));
    line("fig7", format!("{:?}", fig7(SCALE, &[4, 8])));
    line("fig8", format!("{:?}", fig8(SCALE, &[4, 16])));
    let big = sec74(SCALE, true);
    let analytics = simulated(&big.failure_analytics);
    line("sec74", format!("{:?} {analytics}", big.outcomes));
    let node = node_death_experiment(&m5, 64, 4);
    line(
        "sec74-node",
        format!(
            "{:?} victim {} at {:?}: lost {} / {} outputs, {} timeouts, {} markers, \
             local {:?}, diff {:?}, {}",
            node.outcomes,
            node.victim,
            node.t_kill_secs,
            node.node_lost,
            node.output_lost,
            node.timeouts,
            node.death_markers,
            node.data_local_fraction,
            node.max_abs_diff,
            simulated(&node.death_analytics)
        ),
    );
    line(
        "nb-sweep",
        format!("{:?}", nb_sweep(SCALE, 16, &[16, 32, 128])),
    );
    line("spark", format!("{:?}", sec8_spark(SCALE, &[4, 16])));
    line(
        "stragglers",
        format!("{:?}", stragglers(SCALE, &[1.0, 0.25])),
    );
    line("resume", format!("{:?}", resume_recovery(SCALE)));
    out
}

#[test]
fn priced_experiments_repeat_exactly_and_match_the_golden() {
    let (first, second) = std::thread::scope(|s| {
        let first = s.spawn(figures);
        (first.join().unwrap(), figures())
    });
    assert_eq!(first, second, "two runs on fresh clusters must agree");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/figures_small.txt"
    );
    if std::env::var_os("MRINV_REGEN_GOLDEN").is_some() {
        std::fs::write(path, &first).unwrap();
        return;
    }
    let golden = include_str!("golden/figures_small.txt");
    for (now, pinned) in first.lines().zip(golden.lines()) {
        assert_eq!(
            now, pinned,
            "a figure moved; if the pricing changed on purpose, regenerate \
             with MRINV_REGEN_GOLDEN=1 cargo test -p mrinv-bench --test reproducible"
        );
    }
    assert_eq!(first.lines().count(), golden.lines().count());
}
