//! Service acceptance: the multi-tenant `mrinv serve` daemon under
//! concurrent clients must produce bytes bit-identical to sequential
//! in-process runs, serve warmed requests from the factor cache with
//! zero pipeline jobs, enforce per-tenant admission limits, and survive
//! malformed clients without wedging the listener.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use mrinv::client::ServiceClient;
use mrinv::service::{ServerHandle, ServiceConfig, WireOp, WireRequest, WireResponse};
use mrinv::{CacheStatus, FactorCache, InversionConfig, Optimizations, Request};
use mrinv_mapreduce::wire::{read_frame, write_frame};
use mrinv_mapreduce::{Cluster, ClusterConfig, CostModel};
use mrinv_matrix::io::{encode_binary, encode_binary_vec};
use mrinv_matrix::random::random_well_conditioned;
use mrinv_matrix::Matrix;
use proptest::prelude::*;

fn unit_cluster() -> Cluster {
    let mut cfg = ClusterConfig::medium(4);
    cfg.cost = CostModel::unit_for_tests();
    Cluster::new(cfg)
}

fn start_server(config: ServiceConfig) -> ServerHandle {
    ServerHandle::start(Arc::new(unit_cluster()), config).unwrap()
}

fn rhs_for(i: usize, n: usize) -> Vec<f64> {
    (0..n)
        .map(|k| (k as f64) + (i as f64) * 0.5 + 1.0)
        .collect()
}

/// N concurrent clients — mixed invert/solve/lu, shared and distinct
/// matrices — receive bytes bit-identical to sequential single runs on
/// fresh clusters, and every post-warm solve of the shared matrix is a
/// cache hit that runs zero pipeline jobs.
#[test]
fn concurrent_clients_match_sequential_runs_bit_for_bit() {
    const CLIENTS: usize = 5;
    let handle = start_server(ServiceConfig::default());
    let addr = handle.addr().to_string();

    let shared = random_well_conditioned(64, 17);
    let shared_cfg = InversionConfig::with_nb(16);
    let own: Vec<Matrix> = (0..CLIENTS)
        .map(|i| random_well_conditioned(48, 100 + i as u64))
        .collect();
    let own_cfg = InversionConfig::with_nb(12);

    // Sequential references, each on its own fresh cluster: exactly what
    // a pre-service single run produced.
    let ref_inverse = encode_binary(
        Request::invert(&shared)
            .config(&shared_cfg)
            .submit(&unit_cluster())
            .unwrap()
            .inverse()
            .unwrap(),
    )
    .to_vec();
    let ref_solutions: Vec<Vec<f64>> = (0..CLIENTS)
        .map(|i| {
            Request::solve(&shared)
                .rhs(rhs_for(i, 64))
                .config(&shared_cfg)
                .submit(&unit_cluster())
                .unwrap()
                .into_solutions()
                .remove(0)
        })
        .collect();
    let ref_own: Vec<Vec<u8>> = own
        .iter()
        .enumerate()
        .map(|(i, m)| {
            if i % 2 == 0 {
                encode_binary(
                    Request::invert(m)
                        .config(&own_cfg)
                        .submit(&unit_cluster())
                        .unwrap()
                        .inverse()
                        .unwrap(),
                )
                .to_vec()
            } else {
                let f = Request::lu(m)
                    .config(&own_cfg)
                    .submit(&unit_cluster())
                    .unwrap()
                    .into_factors();
                let mut bytes = encode_binary(&f.l).to_vec();
                bytes.extend_from_slice(&encode_binary(&f.u));
                bytes
            }
        })
        .collect();

    struct ClientResult {
        inverse: Vec<u8>,
        solution: Vec<f64>,
        own_bytes: Vec<u8>,
        solve_hit: bool,
        solve_jobs: u64,
        solve_sim_secs: f64,
    }

    let results: Vec<ClientResult> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let addr = addr.clone();
                let (shared, own) = (&shared, &own);
                let (shared_cfg, own_cfg) = (&shared_cfg, &own_cfg);
                s.spawn(move || {
                    let mut client = ServiceClient::connect(&addr, format!("tenant-{i}")).unwrap();
                    let inv = client.invert(shared, shared_cfg).unwrap();
                    let sol = client.solve(shared, &[rhs_for(i, 64)], shared_cfg).unwrap();
                    let own_bytes = if i % 2 == 0 {
                        let r = client.invert(&own[i], own_cfg).unwrap();
                        encode_binary(r.inverse.as_ref().unwrap()).to_vec()
                    } else {
                        let r = client.lu(&own[i], own_cfg).unwrap();
                        let f = r.factors.as_ref().unwrap();
                        let mut bytes = encode_binary(&f.l).to_vec();
                        bytes.extend_from_slice(&encode_binary(&f.u));
                        bytes
                    };
                    ClientResult {
                        inverse: encode_binary(inv.inverse.as_ref().unwrap()).to_vec(),
                        solution: sol.solutions[0].clone(),
                        own_bytes,
                        solve_hit: sol.cache_hit,
                        solve_jobs: sol.jobs,
                        solve_sim_secs: sol.sim_secs,
                    }
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });

    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.inverse, ref_inverse, "client {i}: inverse bytes differ");
        assert_eq!(r.solution, ref_solutions[i], "client {i}: solution differs");
        assert_eq!(
            r.own_bytes, ref_own[i],
            "client {i}: own-matrix bytes differ"
        );
        // The solve follows that client's invert response, so the shared
        // matrix is warm by the time it arrives: hit, zero jobs.
        assert!(r.solve_hit, "client {i}: solve should hit the warmed cache");
        assert_eq!(
            r.solve_jobs, 0,
            "client {i}: cached solve ran pipeline jobs"
        );
        assert_eq!(
            r.solve_sim_secs, 0.0,
            "client {i}: cached solve cost sim time"
        );
    }
    let stats = handle.cache_stats();
    assert!(
        stats.hits >= CLIENTS as u64,
        "every client's solve hits: {stats:?}"
    );
    assert_eq!(handle.served(), (CLIENTS * 3) as u64);
}

/// Over the wire: a warm invert turns the subsequent solve of the same
/// matrix into a pure cache hit, and its answer matches a cold
/// in-process solve bit for bit.
#[test]
fn cached_solve_after_warm_invert_over_the_wire() {
    let handle = start_server(ServiceConfig::default());
    let mut client = ServiceClient::connect(&handle.addr().to_string(), "warm").unwrap();

    let a = random_well_conditioned(32, 23);
    let cfg = InversionConfig::with_nb(8);
    let b = rhs_for(0, 32);

    let inv = client.invert(&a, &cfg).unwrap();
    assert!(!inv.cache_hit);
    assert!(inv.jobs > 0);

    let sol = client.solve(&a, std::slice::from_ref(&b), &cfg).unwrap();
    assert!(
        sol.cache_hit,
        "solve after invert must be served from cache"
    );
    assert_eq!(sol.jobs, 0);
    assert_eq!(sol.sim_secs, 0.0);

    let cold = Request::solve(&a)
        .rhs(b)
        .config(&cfg)
        .submit(&unit_cluster())
        .unwrap()
        .into_solutions();
    assert_eq!(
        sol.solutions, cold,
        "cached and cold solutions must agree exactly"
    );
}

/// A running server's metric series are keyed by (tenant, operation), so
/// traffic from a known tenant adds none: 200 warm requests leave the
/// registry's series count where the first few requests put it.
#[test]
fn warm_requests_add_no_metric_series() {
    let cluster = Arc::new(unit_cluster());
    let handle = ServerHandle::start(cluster.clone(), ServiceConfig::default()).unwrap();
    let mut client = ServiceClient::connect(&handle.addr().to_string(), "steady").unwrap();
    let a = random_well_conditioned(16, 41);
    let cfg = InversionConfig::with_nb(4);
    let b = [rhs_for(0, 16)];

    // One cold and one warm request per operation: every series this
    // tenant can own now exists.
    client.invert(&a, &cfg).unwrap();
    assert!(client.invert(&a, &cfg).unwrap().cache_hit);
    assert!(client.solve(&a, &b, &cfg).unwrap().cache_hit);
    let series = cluster.metrics.obs().series_count();

    for i in 0..200 {
        let reply = if i % 2 == 0 {
            client.invert(&a, &cfg).unwrap()
        } else {
            client.solve(&a, &b, &cfg).unwrap()
        };
        assert!(reply.cache_hit, "request {i} should be warm");
    }
    assert_eq!(cluster.metrics.obs().series_count(), series);
}

/// A tenant over its admission limit is rejected immediately with a
/// diagnostic, not admitted and starved.
#[test]
fn admission_limit_rejects_excess_cold_requests() {
    let handle = start_server(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        max_queue_per_tenant: 0,
    });
    let mut client = ServiceClient::connect(&handle.addr().to_string(), "greedy").unwrap();
    let a = random_well_conditioned(16, 5);
    let err = client.invert(&a, &InversionConfig::with_nb(4)).unwrap_err();
    assert!(
        err.to_string().contains("admission limit"),
        "expected an admission rejection, got: {err}"
    );
}

/// A malformed frame drops only that connection; the listener keeps
/// accepting and the cache survives.
#[test]
fn malformed_frame_drops_connection_but_not_server() {
    let handle = start_server(ServiceConfig::default());
    let addr = handle.addr().to_string();
    let a = random_well_conditioned(16, 3);
    let cfg = InversionConfig::with_nb(4);

    let mut first = ServiceClient::connect(&addr, "ok").unwrap();
    let warm = first.invert(&a, &cfg).unwrap();

    // A client speaking garbage: bogus tag, junk body.
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(&5u32.to_le_bytes()).unwrap();
    raw.write_all(&[9, 1, 2, 3, 4]).unwrap();
    let mut buf = [0u8; 16];
    let n = raw.read(&mut buf).unwrap_or(0);
    assert_eq!(
        n, 0,
        "the malformed connection must be closed, not answered"
    );

    // The server still accepts and serves — from the warmed cache.
    let mut second = ServiceClient::connect(&addr, "after").unwrap();
    let reply = second.invert(&a, &cfg).unwrap();
    assert!(reply.cache_hit);
    assert_eq!(
        encode_binary(reply.inverse.as_ref().unwrap()),
        encode_binary(warm.inverse.as_ref().unwrap())
    );
}

/// `nb = 0` is one field any tenant can send: it must come back as an
/// error reply under the request's own id — not a handler panic that
/// kills the socket — and the same connection must keep serving.
#[test]
fn zero_nb_is_an_error_reply_and_the_connection_survives() {
    // The service's frame tags (`service::TAG_REQUEST` / `TAG_RESPONSE`).
    const TAG_REQUEST: u8 = 1;
    const TAG_RESPONSE: u8 = 2;
    let handle = start_server(ServiceConfig::default());
    let a = random_well_conditioned(16, 5);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut ask = |id: u64, nb: u64| -> WireResponse {
        let req = WireRequest {
            tenant: "zero".to_string(),
            id,
            op: WireOp::Invert,
            a: encode_binary_vec(&a),
            rhs: Vec::new(),
            nb,
            separate_intermediate_files: true,
            block_wrap: true,
            transpose_u: true,
        };
        write_frame(&mut stream, TAG_REQUEST, &bincode::serialize(&req)).unwrap();
        let mut body = Vec::new();
        let tag = read_frame(&mut stream, &mut body).expect("the connection must stay open");
        assert_eq!(tag, TAG_RESPONSE);
        bincode::deserialize(&body).unwrap()
    };

    let refused = ask(7, 0);
    assert_eq!(refused.id, 7);
    assert!(!refused.ok);
    assert!(
        refused.error.contains("nb must be at least 1"),
        "{}",
        refused.error
    );

    let served = ask(8, 4);
    assert_eq!(served.id, 8);
    assert!(served.ok, "{}", served.error);
    let want = Request::invert(&a).nb(4).submit(&unit_cluster()).unwrap();
    assert_eq!(served.inverse, encode_binary_vec(want.inverse().unwrap()));
}

/// Shutdown closes client sockets, joins every thread, and is
/// idempotent; a connection caught mid-shutdown sees EOF, not a hang.
#[test]
fn shutdown_closes_sockets_and_is_idempotent() {
    let mut handle = start_server(ServiceConfig::default());
    let addr = handle.addr().to_string();
    let mut lingering = TcpStream::connect(&addr).unwrap();
    handle.shutdown();
    let mut buf = [0u8; 4];
    match lingering.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("expected EOF after shutdown, read {n} bytes"),
    }
    handle.shutdown(); // idempotent
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The factor cache hits on an identical (matrix, config)
    /// fingerprint, misses on any perturbation — a 1-ulp matrix nudge, a
    /// different block bound, different optimization flags — and
    /// invalidates (then re-primes) when the factor files vanish from
    /// the DFS.
    #[test]
    fn factor_cache_hit_miss_and_invalidation((seed, perturb) in (0u64..1_000, 0usize..3)) {
        let cluster = unit_cluster();
        let cache = FactorCache::new();
        let a = random_well_conditioned(32, seed);
        let cfg = InversionConfig::with_nb(8);

        let primed = Request::lu(&a).config(&cfg).cache(&cache).submit(&cluster).unwrap();
        prop_assert_eq!(primed.cache, CacheStatus::Miss);

        let hit = Request::lu(&a).config(&cfg).cache(&cache).submit(&cluster).unwrap();
        prop_assert_eq!(hit.cache, CacheStatus::Hit);
        prop_assert_eq!(hit.report.jobs, 0);

        let perturbed = match perturb {
            0 => {
                let mut a2 = a.clone();
                a2[(0, 0)] += 1e-13;
                Request::lu(&a2).config(&cfg).cache(&cache).submit(&cluster).unwrap()
            }
            1 => Request::lu(&a)
                .config(&InversionConfig::with_nb(16))
                .cache(&cache)
                .submit(&cluster)
                .unwrap(),
            _ => {
                let mut cfg2 = InversionConfig::with_nb(8);
                cfg2.opts = Optimizations::none();
                Request::lu(&a).config(&cfg2).cache(&cache).submit(&cluster).unwrap()
            }
        };
        prop_assert_eq!(perturbed.cache, CacheStatus::Miss);

        // Deleting the priming run's DFS files kills the entry: the next
        // identical request is a miss that re-runs the pipeline.
        let removed = cluster.dfs.delete_dir(&primed.report.workdir);
        prop_assert!(removed > 0, "the factor forest lives under the workdir");
        let after = Request::lu(&a).config(&cfg).cache(&cache).submit(&cluster).unwrap();
        prop_assert_eq!(after.cache, CacheStatus::Miss);
        prop_assert!(after.report.jobs > 0);
        prop_assert!(cache.stats().invalidations >= 1);
    }
}
