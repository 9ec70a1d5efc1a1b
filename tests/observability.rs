//! End-to-end observability: the canonical n=64/nb=4 inversion with the
//! labeled registry, kernel perf counters, and cost-model audit on —
//! and the guarantee that turning them all off changes nothing about
//! the run itself.

use mrinv::obs::full_snapshot;
use mrinv::InversionConfig;
use mrinv_mapreduce::obs::Labels;
use mrinv_mapreduce::{Cluster, ClusterConfig};
use mrinv_matrix::kernel;
use mrinv_matrix::random::random_well_conditioned;

fn cluster(observed: bool) -> Cluster {
    let mut cfg = ClusterConfig::medium(4);
    cfg.tracing = observed;
    cfg.observability = observed;
    Cluster::new(cfg)
}

/// The acceptance run: a full traced inversion must export a Prometheus
/// snapshot with per-job task-latency histograms, job-latency and steal
/// series and per-backend kernel GFLOP/s, plus a cost-model audit with
/// every planned job run and every stage within its band, and leave
/// nothing live in the DFS.
#[test]
fn traced_run_exports_prometheus_and_clean_audit() {
    kernel::perf::reset();
    kernel::perf::set_enabled(true);
    let cl = cluster(true);
    let a = random_well_conditioned(64, 42);
    let out = mrinv::Request::invert(&a)
        .config(&InversionConfig::with_nb(4))
        .submit(&cl)
        .unwrap();
    kernel::perf::set_enabled(false);

    let snap = full_snapshot(&cl);
    let text = snap.prometheus_text();
    mrinv_mapreduce::obs::validate_prometheus_text(&text).unwrap();

    // Per-job task-latency histograms, labeled by job and wave.
    assert!(
        text.contains("mrinv_task_run_seconds_bucket{job=\"lu-level:"),
        "missing lu-level task latency histogram"
    );
    assert!(
        text.contains("mrinv_task_run_seconds_bucket{job=\"final-inverse:"),
        "missing final-inverse task latency histogram"
    );
    assert!(text.contains("mrinv_task_wait_seconds_bucket{"));
    assert!(text.contains("mrinv_job_seconds_count{"));
    // Present (at 0) even when no backup won: the runner resolves the
    // steal counter unconditionally so dashboards never miss it.
    assert!(text.contains("mrinv_sched_steals_total{"));
    // Per-backend kernel perf: the pipeline's GEMM work runs on the
    // packed engine.
    assert!(
        text.contains("mrinv_kernel_gflops{backend=\"packed"),
        "missing packed-backend kernel GFLOP/s:\n{}",
        text.lines()
            .filter(|l| l.contains("kernel"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(text.contains("mrinv_kernel_flops_total{backend="));
    // Node utilization and DFS bridges.
    assert!(text.contains("mrinv_node_busy_seconds{node="));
    assert!(text.contains("mrinv_dfs_replica_hit_ratio"));

    // What a finished invert holds in the DFS: nothing. Every file it
    // wrote, `RESULT/` and the factor forest included, was released; the
    // peak was not every byte ever written.
    let gauge = |name: &str| snap.gauges.iter().find(|g| g.name == name).map(|g| g.value);
    let written = (snap.counters.iter())
        .find(|c| c.name == "mrinv_dfs_write_bytes_total")
        .map(|c| c.value as f64)
        .expect("the DFS exports its write bytes");
    assert_eq!(
        gauge("mrinv_dfs_live_bytes"),
        Some(0.0),
        "a file outlived its last reader"
    );
    let peak = gauge("mrinv_dfs_live_bytes_peak").expect("the DFS exports its peak");
    assert!(peak < written, "peak {peak} of {written} written");

    // The cost-model audit: attached, structurally sound, and every
    // stage within its band on a homogeneous cluster.
    let audit = out
        .report
        .audit
        .as_ref()
        .expect("traced run attaches audit");
    assert!(audit.structure_ok);
    assert!(audit.within_bands, "{audit}");
    assert_eq!(
        audit
            .stages
            .iter()
            .map(|s| s.stage.as_str())
            .collect::<Vec<_>>(),
        ["lu-transfer", "final-inverse-reads", "total-writes"]
    );

    // The audit serializes with the report (the CLI's --metrics-json).
    let json = serde_json::to_string(&out.report).unwrap();
    assert!(json.contains("\"within_bands\""));
}

/// With every observability feature off, the run must be exactly the
/// seed's run: same inverse bits, same report numbers, no audit, and an
/// empty registry.
#[test]
fn disabled_observability_leaves_the_run_bit_identical() {
    let a = random_well_conditioned(64, 43);

    let off = cluster(false);
    let out_off = mrinv::Request::invert(&a)
        .config(&InversionConfig::with_nb(4))
        .submit(&off)
        .unwrap();

    let on = cluster(true);
    let out_on = mrinv::Request::invert(&a)
        .config(&InversionConfig::with_nb(4))
        .submit(&on)
        .unwrap();

    assert_eq!(
        out_off.inverse().unwrap().as_slice(),
        out_on.inverse().unwrap().as_slice(),
        "observability must not perturb the arithmetic"
    );
    // Every report field is counted or priced from counts, never timed,
    // so each must match exactly — the simulated seconds to the bit.
    let bits =
        |r: &mrinv::RunReport| [r.sim_secs, r.master_secs, r.data_local_fraction].map(f64::to_bits);
    assert_eq!(bits(&out_off.report), bits(&out_on.report));
    assert_eq!(
        out_off.report.remote_read_bytes,
        out_on.report.remote_read_bytes
    );
    assert_eq!(out_off.report.jobs, out_on.report.jobs);
    assert_eq!(out_off.report.n, out_on.report.n);
    assert_eq!(
        out_off.report.dfs_bytes_written,
        out_on.report.dfs_bytes_written
    );
    assert_eq!(out_off.report.dfs_bytes_read, out_on.report.dfs_bytes_read);
    assert_eq!(out_off.report.shuffle_bytes, out_on.report.shuffle_bytes);
    assert_eq!(out_off.report.task_failures, out_on.report.task_failures);

    assert!(out_off.report.audit.is_none(), "no audit without tracing");
    assert!(out_on.report.audit.is_some());

    // The clock and the job sequence are always-on unlabeled series; with
    // observability off nothing *labeled* may appear, and no histograms
    // at all.
    let snap_off = off.obs().snapshot();
    assert!(snap_off.histograms.is_empty());
    assert!(snap_off
        .counters
        .iter()
        .all(|c| c.labels == mrinv_mapreduce::obs::Labels::new()));
    assert!(snap_off
        .gauges
        .iter()
        .all(|g| g.labels == mrinv_mapreduce::obs::Labels::new()));
    let snap_on = on.obs().snapshot();
    assert!(!snap_on.histograms.is_empty());
}

/// Two identical observed runs produce the same metric *structure*:
/// identical task-latency series (name + labels, in snapshot order)
/// with identical observation counts, and identical per-job attempt
/// counters. (The priced durations inside the buckets repeat as well: the
/// simulated clock prices counted work.)
#[test]
fn identical_runs_snapshot_identical_structure() {
    let a = random_well_conditioned(64, 44);
    let run = || {
        let cl = cluster(true);
        mrinv::Request::invert(&a)
            .config(&InversionConfig::with_nb(4))
            .submit(&cl)
            .unwrap();
        let snap = cl.obs().snapshot();
        let attempts: Vec<_> = snap
            .counters
            .iter()
            .filter(|c| c.name == "mrinv_task_attempts_total")
            .map(|c| (c.labels.clone(), c.value))
            .collect();
        let run_counts: Vec<_> = snap
            .histograms
            .iter()
            .filter(|h| h.name == "mrinv_task_run_seconds")
            .map(|h| (h.labels.clone(), h.hist.count))
            .collect();
        assert!(!attempts.is_empty() && !run_counts.is_empty());
        (attempts, run_counts)
    };
    assert_eq!(run(), run());
}

/// `{job,wave}`-style rendering of the label keys a series carries.
fn label_keys(l: &Labels) -> String {
    let keys = [
        ("job", l.job.is_some()),
        ("wave", l.wave.is_some()),
        ("node", l.node.is_some()),
        ("task_kind", l.task_kind.is_some()),
        ("backend", l.backend.is_some()),
        ("tenant", l.tenant.is_some()),
    ];
    let set: Vec<&str> = keys.iter().filter(|k| k.1).map(|k| k.0).collect();
    format!("{{{}}}", set.join(","))
}

/// `job/wave/backend` of a job- or wave-labelled series (`-` when unset).
fn job_wave(l: &Labels) -> String {
    let or_dash = |v: &Option<String>| v.clone().unwrap_or_else(|| "-".to_string());
    format!(
        "{} {} {}",
        or_dash(&l.job),
        or_dash(&l.wave),
        or_dash(&l.backend)
    )
}

/// The series census of the canonical traced n=64/nb=4 inversion (seed
/// 42, 4 medium nodes): the sorted `(kind, metric name, label keys)` set,
/// then one line per `job`/`wave`-labelled series with its counter value
/// or histogram observation count. Node-labelled series appear in the set
/// only, and `mrinv_wave_remote_read_bytes_total` is left out altogether —
/// placement, and so which waves read remotely, follows measured time.
fn series_census() -> String {
    let cl = cluster(true);
    let a = random_well_conditioned(64, 42);
    mrinv::Request::invert(&a)
        .config(&InversionConfig::with_nb(4))
        .submit(&cl)
        .unwrap();
    let snap = cl.obs().snapshot();
    let placed = |name: &str| name == "mrinv_wave_remote_read_bytes_total";
    let mut set = std::collections::BTreeSet::new();
    let mut values = Vec::new();
    let labelled = |l: &Labels| l.node.is_none() && (l.job.is_some() || l.wave.is_some());
    for c in snap.counters.iter().filter(|c| !placed(&c.name)) {
        set.insert(format!("counter {}{}", c.name, label_keys(&c.labels)));
        if labelled(&c.labels) {
            values.push(format!("{} {} = {}", c.name, job_wave(&c.labels), c.value));
        }
    }
    for g in &snap.gauges {
        set.insert(format!("gauge {}{}", g.name, label_keys(&g.labels)));
    }
    for h in &snap.histograms {
        set.insert(format!("histogram {}{}", h.name, label_keys(&h.labels)));
        if labelled(&h.labels) {
            let (name, count) = (&h.name, h.hist.count);
            values.push(format!("{name} {} = {count}", job_wave(&h.labels)));
        }
    }
    values.sort();
    let set: Vec<String> = set.into_iter().collect();
    format!("{}\n\n{}\n", set.join("\n"), values.join("\n"))
}

/// Pins which labeled series one inversion produces and how many
/// observations each job/wave series holds. Set `MRINV_REGEN_GOLDEN=1` to
/// rewrite the golden file instead of comparing (then commit the diff
/// deliberately).
#[test]
fn n64_series_census_matches_golden() {
    let census = series_census();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/obs_series_n64_nb4.txt"
    );
    if std::env::var_os("MRINV_REGEN_GOLDEN").is_some() {
        std::fs::write(path, &census).unwrap();
        return;
    }
    let golden = include_str!("golden/obs_series_n64_nb4.txt");
    assert_eq!(
        census.trim_end(),
        golden.trim_end(),
        "the labeled series of the n=64/nb=4 run changed; if that is \
         intentional, regenerate with MRINV_REGEN_GOLDEN=1 cargo test -p \
         mrinv --test observability"
    );
}
