//! Allocation budget of a warm service request. A cache hit runs no
//! pipeline job, so what it costs is copies of the matrix: encoding,
//! frames, bincode's value tree, decoding. This binary counts every byte
//! the process allocates (client and server threads alike) while one
//! `ServiceClient` sends warm n = 256 requests to an in-process
//! `ServerHandle`, and bounds the bytes per request in units of one
//! matrix payload (n² · 8 bytes).
//!
//! These are counts, not timings: in the steady state a request takes the
//! same allocations every time, so the ratios repeat exactly. A warm
//! request goes by name, so the server decodes no matrix: a warm invert
//! copies the matrix once (the client's returned inverse), a warm solve
//! never (what it allocates is its vectors and the decoded frame's small
//! nodes). A warm request sent in full — each round's resend, and every
//! request from a peer built before names — adds the server's one decoded
//! `a`; it is counted from a raw connection that sends prebuilt
//! `WireRequest` frames and reads each reply as `ServiceClient` does. On
//! either path a frame buffer that is no longer reused costs about two
//! payloads per matrix-sized frame (a fresh buffer grows by doubling as
//! the body arrives), and a byte field copied out of the frame one
//! payload, which is what the bounds catch.
//!
//! The first solve against an entry an invert primed is counted too, and
//! held to a warm solve's bound: the cold invert that primed the entry
//! packed `L` and `U` into it, so the solve builds nothing (0.063
//! payloads). A solve that packed the factors itself would allocate at
//! least the one payload of the packed matrix and fail the bound.
//! What those transient buffers cost in page faults is `warm_faults.rs`'s
//! count: it needs a client on the main thread.
//!
//! One cold row counts allocator *calls* (`alloc`, `alloc_zeroed`,
//! `realloc`) instead: one cold n = 64, nb = 4 solve in process, the third
//! of three identical runs (so nothing initialized on first use lands in
//! it), on a rayon pool capped at one thread (so the count does not depend
//! on the pool's width: the parallel GEMM nest keeps per-thread buffers).
//! A cold run is the pipeline's per-job and per-task bookkeeping — DFS
//! reads, their placement, descriptors, kernel buffers — so a per-touch
//! allocation that comes back shows here by count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bincode::ValueRef;
use mrinv::client::ServiceClient;
use mrinv::service::{ServerHandle, ServiceConfig, WireOp, WireRequest};
use mrinv::{InversionConfig, Request};
use mrinv_mapreduce::wire::{read_frame, write_frame};
use mrinv_mapreduce::{Cluster, ClusterConfig};
use mrinv_matrix::io::{decode_binary, encode_binary_vec};
use mrinv_matrix::random::{random_matrix, random_well_conditioned};
use mrinv_matrix::Matrix;

/// Bytes requested from the allocator so far: every `alloc`, and the new
/// size of every `realloc` (a grown buffer counts whole, as the copy it
/// may be).
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// Calls that asked the allocator for memory: `alloc`, `alloc_zeroed` and
/// `realloc`.
static CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` under this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
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
/// The cold row's bound: its count (4,744), plus a little room.
const COLD_SOLVE_CALLS: u64 = 4800;

/// Bytes allocated per call of `request` over `calls` calls, in matrix
/// payloads.
fn payloads_per_call(calls: u64, mut request: impl FnMut()) -> f64 {
    let before = ALLOCATED.load(Ordering::SeqCst);
    for _ in 0..calls {
        request();
    }
    let bytes = ALLOCATED.load(Ordering::SeqCst) - before;
    bytes as f64 / calls as f64 / (N * N * 8) as f64
}

/// The service's frame tags (`service::TAG_REQUEST` / `TAG_RESPONSE`).
const TAG_REQUEST: u8 = 1;
const TAG_RESPONSE: u8 = 2;

/// A connection that sends every request in full, as a peer built before
/// names does: each request's frame body is serialized once, up front,
/// and each reply is read into one reused buffer and decoded as
/// `ServiceClient` decodes it — the frame read as a borrowing view, its
/// matrix copied out once. The name the server admits is ignored.
struct FullRequests {
    stream: TcpStream,
    reply: Vec<u8>,
}

impl FullRequests {
    /// The body of a warm request for `a` under `cfg`.
    fn body(op: WireOp, a: &Matrix, rhs: &[Vec<f64>], cfg: &InversionConfig) -> Vec<u8> {
        bincode::serialize(&WireRequest {
            tenant: "budget".to_string(),
            id: 1,
            op,
            a: encode_binary_vec(a),
            rhs: rhs.to_vec(),
            nb: cfg.nb as u64,
            separate_intermediate_files: cfg.opts.separate_intermediate_files,
            block_wrap: cfg.opts.block_wrap,
            transpose_u: cfg.opts.transpose_u,
        })
    }

    /// Sends `body` and reads the reply: whether the cache served it, the
    /// inverse it carries (if any) and its number of solutions.
    fn ask(&mut self, body: &[u8]) -> (bool, Option<Matrix>, usize) {
        write_frame(&mut self.stream, TAG_REQUEST, body).unwrap();
        assert_eq!(
            read_frame(&mut self.stream, &mut self.reply).unwrap(),
            TAG_RESPONSE
        );
        let reply = bincode::bytes_to_value_ref(&self.reply).unwrap();
        assert_eq!(reply.get("ok"), Some(&ValueRef::Bool(true)), "{reply:?}");
        let inverse = reply.get("inverse").unwrap().to_bytes().unwrap();
        let inverse = (!inverse.is_empty()).then(|| decode_binary(&inverse).unwrap());
        let Some(ValueRef::Array(solutions)) = reply.get("solutions") else {
            panic!("a reply carries its solutions")
        };
        let hit = reply.get("cache_hit") == Some(&ValueRef::Bool(true));
        (hit, inverse, solutions.len())
    }
}

/// Allocator calls of one cold n = 64, nb = 4 solve, each on a fresh
/// cluster: the third of three identical runs, the pool capped at one
/// thread.
fn cold_solve_calls() -> u64 {
    let previous = rayon::set_thread_cap(1);
    let a = random_well_conditioned(64, 3);
    let b = random_matrix(64, 1, 4).into_vec();
    let mut calls = 0;
    for _ in 0..3 {
        let cluster = Cluster::new(ClusterConfig::medium(4));
        let rhs = b.clone();
        let before = CALLS.load(Ordering::SeqCst);
        let out = Request::solve(&a).rhs(rhs).nb(4).submit(&cluster).unwrap();
        calls = CALLS.load(Ordering::SeqCst) - before;
        assert_eq!(out.solutions().len(), 1);
    }
    rayon::set_thread_cap(previous);
    calls
}

/// The only test in this binary: the counters are process-wide, so
/// nothing may run beside it (the cold row runs before the server starts).
#[test]
fn warm_requests_stay_within_their_allocation_budget() {
    // 4,744 calls; 6,903 while each map-side read copied its path into a
    // log the planner looked up again, factor nodes rebuilt their
    // permutations on every assembly, and the partition plan rebuilt its
    // row split for every piece.
    let cold = cold_solve_calls();
    println!("allocator calls of one cold n=64/nb=4 solve: {cold}");
    assert!(
        cold <= COLD_SOLVE_CALLS,
        "a cold solve made {cold} allocator calls"
    );

    let mut config = ClusterConfig::medium(4);
    config.observability = true;
    let server = ServerHandle::start(Arc::new(Cluster::new(config)), ServiceConfig::default())
        .expect("an ephemeral loopback port binds");
    let mut client = ServiceClient::connect(&server.addr().to_string(), "budget").unwrap();
    let a = random_well_conditioned(N, 7);
    let rhs = [random_matrix(N, 1, 8).into_vec()];
    let cfg = InversionConfig::with_nb(NB);

    // Prime: a cold invert files the packed factors and the inverse, so
    // the first solve is as warm as any later one.
    assert!(!client.invert(&a, &cfg).unwrap().cache_hit);
    let first_solve = payloads_per_call(1, || {
        assert!(client.solve(&a, &rhs, &cfg).unwrap().cache_hit);
    });
    println!("payloads allocated by the first solve: {first_solve:.3}");
    let mut full = FullRequests {
        stream: TcpStream::connect(server.addr()).unwrap(),
        reply: Vec::new(),
    };
    let full_invert = FullRequests::body(WireOp::Invert, &a, &[], &cfg);
    let full_solve = FullRequests::body(WireOp::Solve, &a, &rhs, &cfg);
    for i in 0..WARM_UP {
        let reply = if i % 2 == 0 {
            client.invert(&a, &cfg)
        } else {
            client.solve(&a, &rhs, &cfg)
        };
        assert!(reply.unwrap().cache_hit);
        assert!(
            full.ask(if i % 2 == 0 {
                &full_invert
            } else {
                &full_solve
            })
            .0
        );
    }

    let invert = payloads_per_call(COUNTED, || {
        let reply = client.invert(&a, &cfg).unwrap();
        assert!(reply.cache_hit && reply.inverse.is_some());
    });
    let solve = payloads_per_call(COUNTED, || {
        let reply = client.solve(&a, &rhs, &cfg).unwrap();
        assert!(reply.cache_hit && reply.solutions.len() == 1);
    });
    let full_invert = payloads_per_call(COUNTED, || {
        let (hit, inverse, _) = full.ask(&full_invert);
        assert!(hit && inverse.is_some());
    });
    let full_solve = payloads_per_call(COUNTED, || {
        let (hit, _, solutions) = full.ask(&full_solve);
        assert!(hit && solutions == 1);
    });
    println!("payloads allocated per warm request: invert {invert:.3}, solve {solve:.3}");
    println!(
        "payloads allocated per warm request sent in full: \
         invert {full_invert:.3}, solve {full_solve:.3}"
    );
    assert!(
        first_solve <= 0.1,
        "the first solve allocated {first_solve:.3} payloads"
    );
    assert!(
        invert <= 1.1,
        "a warm invert allocated {invert:.3} payloads"
    );
    assert!(solve <= 0.1, "a warm solve allocated {solve:.3} payloads");
    assert!(
        full_invert <= 2.1,
        "a warm invert sent in full allocated {full_invert:.3} payloads"
    );
    assert!(
        full_solve <= 1.1,
        "a warm solve sent in full allocated {full_solve:.3} payloads"
    );
}
