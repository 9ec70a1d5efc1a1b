//! Allocation budget of a warm service request. A cache hit runs no
//! pipeline job, so what it costs is copies of the matrix: encoding,
//! frames, bincode's value tree, decoding. This binary counts every byte
//! the process allocates (client and server threads alike) while one
//! `ServiceClient` sends warm n = 256 requests to an in-process
//! `ServerHandle`, and bounds the bytes per request in units of one
//! matrix payload (n² · 8 bytes).
//!
//! These are counts, not timings: in the steady state a request takes the
//! same allocations every time, so the ratios repeat exactly. A frame
//! buffer that is no longer reused costs about two payloads per frame (a
//! fresh buffer grows by doubling as the body arrives), which is what the
//! bounds catch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mrinv::client::ServiceClient;
use mrinv::service::{ServerHandle, ServiceConfig};
use mrinv::InversionConfig;
use mrinv_mapreduce::{Cluster, ClusterConfig};
use mrinv_matrix::random::{random_matrix, random_well_conditioned};

/// Bytes requested from the allocator so far: every `alloc`, and the new
/// size of every `realloc` (a grown buffer counts whole, as the copy it
/// may be).
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` under this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` under this `layout`, and the
        // caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The `serve-mixed` benchmark's shape.
const N: usize = 256;
const NB: usize = 32;
/// Warm requests sent before counting, so every buffer has its size.
const WARM_UP: usize = 20;
const COUNTED: u64 = 10;

/// Bytes allocated per call of `request`, in matrix payloads.
fn payloads_per_call(mut request: impl FnMut()) -> f64 {
    let before = ALLOCATED.load(Ordering::SeqCst);
    for _ in 0..COUNTED {
        request();
    }
    let bytes = ALLOCATED.load(Ordering::SeqCst) - before;
    bytes as f64 / COUNTED as f64 / (N * N * 8) as f64
}

/// The only test in this binary: the counter is process-wide, so nothing
/// may run beside it.
#[test]
fn warm_requests_stay_within_their_allocation_budget() {
    let mut config = ClusterConfig::medium(4);
    config.observability = true;
    let server = ServerHandle::start(Arc::new(Cluster::new(config)), ServiceConfig::default())
        .expect("an ephemeral loopback port binds");
    let mut client = ServiceClient::connect(&server.addr().to_string(), "budget").unwrap();
    let a = random_well_conditioned(N, 7);
    let rhs = [random_matrix(N, 1, 8).into_vec()];
    let cfg = InversionConfig::with_nb(NB);

    // Prime: a cold invert files the factors and the inverse, the first
    // solve assembles L and U.
    assert!(!client.invert(&a, &cfg).unwrap().cache_hit);
    assert!(client.solve(&a, &rhs, &cfg).unwrap().cache_hit);
    for i in 0..WARM_UP {
        let reply = if i % 2 == 0 {
            client.invert(&a, &cfg)
        } else {
            client.solve(&a, &rhs, &cfg)
        };
        assert!(reply.unwrap().cache_hit);
    }

    let invert = payloads_per_call(|| {
        let reply = client.invert(&a, &cfg).unwrap();
        assert!(reply.cache_hit && reply.inverse.is_some());
    });
    let solve = payloads_per_call(|| {
        let reply = client.solve(&a, &rhs, &cfg).unwrap();
        assert!(reply.cache_hit && reply.solutions.len() == 1);
    });
    println!("payloads allocated per warm request: invert {invert:.3}, solve {solve:.3}");
    assert!(
        invert <= 11.0,
        "a warm invert allocated {invert:.3} payloads"
    );
    assert!(solve <= 6.0, "a warm solve allocated {solve:.3} payloads");
}
