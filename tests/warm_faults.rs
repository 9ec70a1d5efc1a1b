//! Minor page faults of a warm service request, on a client that runs on
//! the process's main thread, as the benchmark's `serve-mixed` client does.
//!
//! A matrix-sized buffer that a request allocates and frees costs more than
//! its copy. Freeing such transients can leave more than glibc's trim
//! threshold (twice the dynamic mmap threshold: ~1 MB once a 512 KB block
//! has been freed) free at the top of the main heap; glibc then returns it
//! to the kernel, and the next request faults it back in. A warm n = 256
//! invert took 214–224 minor faults that way while the client built the
//! request's byte vector, bincode's value tree and an owned `inverse`
//! field; now it takes none. The main heap is the point: libtest runs every
//! test on a spawned thread, whose glibc arena does not trim in this
//! pattern, so this target has no harness and runs its client in `main`.

use std::sync::Arc;

use mrinv::client::ServiceClient;
use mrinv::service::{ServerHandle, ServiceConfig};
use mrinv::InversionConfig;
use mrinv_mapreduce::{Cluster, ClusterConfig};
use mrinv_matrix::random::{random_matrix, random_well_conditioned};

/// The `serve-mixed` benchmark's shape.
const N: usize = 256;
const NB: usize = 32;
/// Warm requests sent before counting, so every buffer has its size.
const WARM_UP: usize = 20;
const COUNTED: u64 = 10;
/// Minor faults a warm invert may take, on average.
const BUDGET: f64 = 8.0;

/// The process's minor page faults so far: field 10 of `/proc/self/stat`,
/// counted after the parenthesised command name, which may hold spaces.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    let after_name = &stat[stat.rfind(')').expect("a command name") + 1..];
    let field = after_name.split_whitespace().nth(10 - 3).expect("field 10");
    field.parse().expect("a count")
}

fn main() {
    if !cfg!(all(target_os = "linux", target_env = "gnu")) {
        println!("warm_faults: glibc's heap trimming is what this measures; skipped");
        return;
    }
    let mut config = ClusterConfig::medium(4);
    config.observability = true;
    let server = ServerHandle::start(Arc::new(Cluster::new(config)), ServiceConfig::default())
        .expect("an ephemeral loopback port binds");
    let mut client = ServiceClient::connect(&server.addr().to_string(), "faults").unwrap();
    let a = random_well_conditioned(N, 7);
    let rhs = [random_matrix(N, 1, 8).into_vec()];
    let cfg = InversionConfig::with_nb(NB);

    // Prime, then warm up with the benchmark's mix of inverts and solves.
    assert!(!client.invert(&a, &cfg).unwrap().cache_hit);
    for i in 0..WARM_UP {
        let reply = if i % 2 == 0 {
            client.invert(&a, &cfg)
        } else {
            client.solve(&a, &rhs, &cfg)
        };
        assert!(reply.unwrap().cache_hit);
    }

    let before = minor_faults();
    for _ in 0..COUNTED {
        let reply = client.invert(&a, &cfg).unwrap();
        assert!(reply.cache_hit && reply.inverse.is_some());
    }
    let faults = (minor_faults() - before) as f64 / COUNTED as f64;
    println!("warm_faults: {faults:.1} minor page faults per warm n={N} invert (budget {BUDGET})");
    assert!(
        faults <= BUDGET,
        "a warm invert took {faults:.1} minor page faults"
    );
}
