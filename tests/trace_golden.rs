//! Golden-file tests for the Chrome/Perfetto trace export.
//!
//! Two layers of pinning:
//!
//! 1. An exact golden string over hand-built [`TaskEvent`]s — any change
//!    to the exporter's field order, field names, or number formatting
//!    shows up as a readable diff here. Perfetto and `chrome://tracing`
//!    are external consumers, so the byte shape is a compatibility
//!    surface, not an implementation detail.
//! 2. A pinned FNV-1a fingerprint of the canonical n=64/nb=4 traced
//!    inversion, computed over the *deterministic* projection of every
//!    event (wall-clock fields excluded; simulated ones included). The
//!    same run executed twice must fingerprint identically, and the value
//!    itself is pinned so an accidental change to scheduling, pricing, or
//!    event emission fails loudly. Beside it, the total flops the run
//!    charges are pinned as an exact integer.

use mrinv::{InversionConfig, Optimizations};
use mrinv_mapreduce::tracelog::TaskEvent;
use mrinv_mapreduce::{chrome_trace_json, Cluster, ClusterConfig, TracePhase};
use mrinv_matrix::random::random_well_conditioned;

/// Two synthetic attempts: a successful map and a failed retry, plus a
/// master span on the driver track — covering every branch of the
/// exporter's name/args logic.
fn synthetic_events() -> Vec<TaskEvent> {
    vec![
        TaskEvent {
            job: "lu-level:demo".to_string(),
            job_seq: Some(3),
            phase: TracePhase::Map,
            task: 1,
            attempt: 0,
            node: Some(2),
            sim_start_secs: 1.5,
            sim_end_secs: 2.25,
            cpu_secs: 0.125,
            flops: 65536,
            cpu_sim_secs: 0.5,
            io_sim_secs: 0.25,
            read_bytes: 4096,
            write_bytes: 1024,
            shuffle_bytes: 512,
            remote_read_bytes: 256,
            failure: None,
        },
        TaskEvent {
            job: "lu-level:demo".to_string(),
            job_seq: Some(3),
            phase: TracePhase::Reduce,
            task: 0,
            attempt: 1,
            node: Some(0),
            sim_start_secs: 2.25,
            sim_end_secs: 2.5,
            cpu_secs: 0.03125,
            flops: 0,
            cpu_sim_secs: 0.125,
            io_sim_secs: 0.0625,
            read_bytes: 2048,
            write_bytes: 0,
            shuffle_bytes: 0,
            remote_read_bytes: 0,
            failure: Some("injected".to_string()),
        },
        TaskEvent {
            job: "partition".to_string(),
            job_seq: None,
            phase: TracePhase::Master,
            task: 0,
            attempt: 0,
            node: None,
            sim_start_secs: 0.0,
            sim_end_secs: 1.5,
            cpu_secs: 0.25,
            flops: 1_048_576,
            cpu_sim_secs: 1.5,
            io_sim_secs: 0.0,
            read_bytes: 0,
            write_bytes: 0,
            shuffle_bytes: 0,
            remote_read_bytes: 0,
            failure: None,
        },
    ]
}

/// FNV-1a 64 over the sorted deterministic projection of the events: the
/// structure (which jobs ran, their sequence numbers, every wave's
/// task/attempt set, the exact I/O volumes) and the simulated clock
/// (`ts`/`dur` in the export: `sim_start_secs`, `sim_end_secs`, and the
/// `cpu_sim_secs` / `io_sim_secs` split), which the cost model prices from
/// counted work alone. Only `cpu_secs`, measured wall time, is left out.
fn fingerprint(events: &[TaskEvent]) -> u64 {
    let mut lines: Vec<String> = events
        .iter()
        .map(|e| {
            format!(
                "{}|{:?}|{}|{}|{}|{}|{}|{}|{:?}|{}|{}|{}|{}",
                e.job,
                e.job_seq,
                e.phase.label(),
                e.task,
                e.attempt,
                e.read_bytes,
                e.write_bytes,
                e.shuffle_bytes,
                e.failure,
                e.sim_start_secs,
                e.sim_end_secs,
                e.cpu_sim_secs,
                e.io_sim_secs
            )
        })
        .collect();
    lines.sort();
    let mut hash: u64 = 0xcbf29ce484222325;
    for line in &lines {
        for b in line.as_bytes() {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x100000001b3);
        }
        hash ^= u64::from(b'\n');
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

fn traced_n64_events_with(opts: Optimizations) -> Vec<TaskEvent> {
    let mut cfg = ClusterConfig::medium(4);
    cfg.tracing = true;
    let cluster = Cluster::new(cfg);
    let a = random_well_conditioned(64, 42);
    let mut icfg = InversionConfig::with_nb(4);
    icfg.opts = opts;
    mrinv::Request::invert(&a)
        .config(&icfg)
        .submit(&cluster)
        .unwrap();
    cluster.trace.events()
}

fn traced_n64_events() -> Vec<TaskEvent> {
    traced_n64_events_with(Optimizations::all())
}

/// Set `MRINV_REGEN_GOLDEN=1` to rewrite the golden file instead of
/// comparing (then commit the diff deliberately).
#[test]
fn chrome_export_matches_golden() {
    let json = chrome_trace_json(&synthetic_events());
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/chrome_trace_synthetic.json"
    );
    if std::env::var_os("MRINV_REGEN_GOLDEN").is_some() {
        std::fs::write(path, &json).unwrap();
        return;
    }
    let golden = include_str!("golden/chrome_trace_synthetic.json");
    assert_eq!(
        json.trim_end(),
        golden.trim_end(),
        "chrome trace export drifted from the golden file; if the change \
         is intentional, regenerate with MRINV_REGEN_GOLDEN=1 cargo test \
         -p mrinv --test trace_golden"
    );
}

#[test]
fn n64_trace_fingerprint_is_pinned() {
    let first = fingerprint(&traced_n64_events());
    let second = fingerprint(&traced_n64_events());
    assert_eq!(first, second, "identical runs must trace identically");
    assert_eq!(
        first, PINNED_N64_FINGERPRINT,
        "the n=64/nb=4 trace changed; if scheduling/pricing/emission \
         changed on purpose, update PINNED_N64_FINGERPRINT"
    );
}

/// Every flop the canonical run charges, tasks and master alike, is one
/// closed form of a kernel's shapes: leaving out any charge site, or
/// changing one form, moves these totals. The second run turns transposed
/// `U` off, so its four Equation 7 sites charge `STRIDED_SLOWDOWN` times
/// their flops.
#[test]
fn n64_flops_are_pinned() {
    let flops = |events: &[TaskEvent]| events.iter().map(|e| e.flops).sum::<u64>();
    assert_eq!(flops(&traced_n64_events()), PINNED_N64_FLOPS);
    let strided = Optimizations {
        transpose_u: false,
        ..Optimizations::all()
    };
    assert_eq!(
        flops(&traced_n64_events_with(strided)),
        PINNED_N64_STRIDED_FLOPS
    );
}

/// Fingerprint of the canonical n=64/nb=4 run (seed 42, 4 medium nodes).
/// Last moved when the projection gained the simulated clock, once the
/// clock priced counted work instead of measured CPU; the projection
/// without those four fields still hashed to 3694281442768935279.
const PINNED_N64_FINGERPRINT: u64 = 18426081460659255201;

/// Flops the canonical run charges (`n64_flops_are_pinned`).
const PINNED_N64_FLOPS: u64 = 532_512;

/// The same with transposed `U` off.
const PINNED_N64_STRIDED_FLOPS: u64 = 2_884_608;
