//! Service acceptance: the multi-tenant `mrinv serve` daemon under
//! concurrent clients must produce bytes bit-identical to sequential
//! in-process runs, serve warmed requests from the factor cache with
//! zero pipeline jobs, enforce per-tenant admission limits, and survive
//! malformed clients without wedging the listener. A matrix a connection
//! already sent travels by name, answers only that connection and tenant,
//! and is sent again in full when the server asks.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mrinv::client::ServiceClient;
use mrinv::service::{ServerHandle, ServiceConfig, WireOp, WireRequest, WireResponse};
use mrinv::{CacheStatus, FactorCache, InversionConfig, Optimizations, Request};
use mrinv_mapreduce::obs::Labels;
use mrinv_mapreduce::wire::{read_frame, write_frame};
use mrinv_mapreduce::{Cluster, ClusterConfig, CostModel};
use mrinv_matrix::io::{encode_binary, encode_binary_vec, encode_text};
use mrinv_matrix::random::random_well_conditioned;
use mrinv_matrix::Matrix;
use proptest::prelude::*;
use serde::{Number, Serialize, Value};

/// The service's frame tags (`service::TAG_REQUEST` / `TAG_RESPONSE`).
const TAG_REQUEST: u8 = 1;
const TAG_RESPONSE: u8 = 2;

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

/// A long-running server holds, per cold invert, only what its factor
/// cache serves from: every live DFS byte belongs to a listed file, and
/// no `RESULT/` file outlives the master's assembly of the inverse.
#[test]
fn cold_inverts_leave_no_result_files_in_the_server_dfs() {
    let cluster = Arc::new(unit_cluster());
    let handle = ServerHandle::start(cluster.clone(), ServiceConfig::default()).unwrap();
    let mut client = ServiceClient::connect(&handle.addr().to_string(), "footprint").unwrap();
    let cfg = InversionConfig::with_nb(8);
    for seed in 0..3 {
        let reply = client.invert(&random_well_conditioned(32, 60 + seed), &cfg);
        assert!(!reply.unwrap().cache_hit, "cold invert {seed}");
    }
    let dfs = &cluster.dfs;
    let files = dfs.list("");
    let listed: u64 = files.iter().map(|p| dfs.len(p).unwrap()).sum();
    assert_eq!(dfs.live_bytes(), listed);
    let results: Vec<_> = files.iter().filter(|p| p.contains("/RESULT/")).collect();
    assert!(
        results.is_empty(),
        "RESULT/ outlived its reader: {results:?}"
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

/// `value` with its byte field `key` in the shape a peer built before the
/// packed byte node sends it: an array of one number per byte.
fn with_legacy_bytes(value: Value, key: &str) -> Value {
    let Value::Object(fields) = value else {
        panic!("a wire struct is an object")
    };
    let legacy = |v: Value| match v {
        Value::Bytes(bytes) => Value::Array(
            bytes
                .into_iter()
                .map(|b| Value::Number(Number::U(b.into())))
                .collect(),
        ),
        other => other,
    };
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| if k == key { (k, legacy(v)) } else { (k, v) })
            .collect(),
    )
}

/// Sends one request body over `stream` and reads the response.
fn ask_raw(stream: &mut TcpStream, body: &[u8]) -> WireResponse {
    write_frame(stream, TAG_REQUEST, body).unwrap();
    let mut reply = Vec::new();
    assert_eq!(read_frame(stream, &mut reply).unwrap(), TAG_RESPONSE);
    bincode::deserialize(&reply).unwrap()
}

/// Compatibility runs one way, and this is the way it runs: a client built
/// before the packed byte node sends `a` as an array of one number per
/// byte, and is served the same inverse, bit for bit, as a current client.
#[test]
fn a_request_in_the_pre_tag9_shape_is_served_bit_identically() {
    let handle = start_server(ServiceConfig::default());
    let a = random_well_conditioned(16, 29);
    let request = |id: u64| WireRequest {
        tenant: "old".to_string(),
        id,
        op: WireOp::Invert,
        a: encode_binary_vec(&a),
        rhs: Vec::new(),
        nb: 4,
        separate_intermediate_files: true,
        block_wrap: true,
        transpose_u: true,
    };
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let current = ask_raw(&mut stream, &bincode::serialize(&request(1)));
    let old_body = bincode::value_to_bytes(&with_legacy_bytes(request(2).to_value(), "a"));
    assert!(old_body.len() > 8 * encode_binary_vec(&a).len());
    let old = ask_raw(&mut stream, &old_body);
    assert!(current.ok && old.ok, "{} / {}", current.error, old.error);
    assert_eq!(old.id, 2);
    assert_eq!(old.inverse, current.inverse);
    let want = Request::invert(&a).nb(4).submit(&unit_cluster()).unwrap();
    assert_eq!(old.inverse, encode_binary_vec(want.inverse().unwrap()));
}

/// The other half: a server that answers with the inverse as an array of
/// one number per byte is still read by `ServiceClient`.
#[test]
fn the_client_reads_an_inverse_in_the_pre_tag9_shape() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let inverse = random_well_conditioned(8, 31);
    let payload = encode_binary_vec(&inverse);
    let old_server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut body = Vec::new();
        assert_eq!(read_frame(&mut stream, &mut body).unwrap(), TAG_REQUEST);
        let id = bincode::deserialize::<WireRequest>(&body).unwrap().id;
        let response = WireResponse {
            id,
            ok: true,
            error: String::new(),
            cache_hit: true,
            inverse: payload,
            l: Vec::new(),
            u: Vec::new(),
            perm: Vec::new(),
            solutions: Vec::new(),
            jobs: 0,
            sim_secs: 0.0,
        };
        let old = with_legacy_bytes(response.to_value(), "inverse");
        write_frame(&mut stream, TAG_RESPONSE, &bincode::value_to_bytes(&old)).unwrap();
    });
    let mut client = ServiceClient::connect(&addr, "t").unwrap();
    let reply = client
        .invert(&Matrix::identity(8), &InversionConfig::with_nb(2))
        .unwrap();
    old_server.join().unwrap();
    assert!(reply.cache_hit);
    assert_eq!(
        encode_binary(reply.inverse.as_ref().unwrap()),
        encode_binary(&inverse)
    );
}

/// Cold solves of one never-seen matrix, sent from several connections
/// while a cold invert occupies the executor, share one factorization:
/// every one of them queues, the first the executor reaches runs the
/// pipeline, and each of the others is answered from the entry it filed —
/// a cache hit with no job, counted as one. Each reply carries that
/// member's own solutions, bit-identical to a solo `Request::solve`.
#[test]
fn same_key_cold_solves_share_one_factorization() {
    const MEMBERS: usize = 4;
    let cluster = Arc::new(unit_cluster());
    let handle = ServerHandle::start(cluster.clone(), ServiceConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    let busy = random_well_conditioned(768, 37);
    let a = random_well_conditioned(24, 41);
    let cfg = InversionConfig::with_nb(6);
    // Member i sends i + 1 right-hand sides.
    let rhs: Vec<Vec<Vec<f64>>> = (0..MEMBERS)
        .map(|i| (0..=i).map(|j| rhs_for(10 * i + j, 24)).collect())
        .collect();
    let solo: Vec<Vec<Vec<f64>>> = rhs
        .iter()
        .map(|b| {
            Request::solve(&a)
                .rhs_all(b.iter().cloned())
                .config(&cfg)
                .submit(&unit_cluster())
                .unwrap()
                .into_solutions()
        })
        .collect();

    let replies = std::thread::scope(|s| {
        let mut blocker = ServiceClient::connect(&addr, "busy").unwrap();
        let busy = &busy;
        let busy = s.spawn(move || blocker.invert(busy, &InversionConfig::with_nb(8)).unwrap());
        // The invert's first job has written its files: the executor is
        // running it, and the solves queue behind it.
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while cluster.dfs.counters().files_written == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "the invert never started"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let members: Vec<_> = rhs
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let addr = &addr;
                let (a, cfg) = (&a, &cfg);
                s.spawn(move || {
                    let mut client = ServiceClient::connect(addr, format!("member-{i}")).unwrap();
                    client.solve(a, b, cfg).unwrap()
                })
            })
            .collect();
        assert!(!busy.join().unwrap().cache_hit);
        members
            .into_iter()
            .map(|m| m.join().unwrap())
            .collect::<Vec<_>>()
    });
    let bits = |v: &[Vec<f64>]| -> Vec<Vec<u64>> {
        v.iter()
            .map(|x| x.iter().map(|f| f.to_bits()).collect())
            .collect()
    };
    let cold: Vec<usize> = (0..MEMBERS).filter(|&i| !replies[i].cache_hit).collect();
    assert_eq!(cold.len(), 1, "members {cold:?} ran a pipeline");
    let counted = |name: &str, i: usize| {
        let labels = Labels::new()
            .tenant(format!("member-{i}"))
            .task_kind("solve");
        cluster.metrics.obs().counter(name, &labels).get()
    };
    for (i, reply) in replies.iter().enumerate() {
        assert_eq!(reply.jobs > 0, !reply.cache_hit, "member {i}");
        let hit = u64::from(reply.cache_hit);
        assert_eq!(
            counted("mrinv_service_cache_hits_total", i),
            hit,
            "member {i}"
        );
        assert_eq!(
            counted("mrinv_service_cache_misses_total", i),
            1 - hit,
            "member {i}"
        );
        assert_eq!(bits(&reply.solutions), bits(&solo[i]), "member {i}");
    }
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

    /// The factor cache hits on an identical (matrix, nb) key, misses on a 1-ulp matrix nudge or a different block
    /// bound, hits under different optimization flags (the same bits), and
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
        // Other optimization flags move no bit of the answer, so the
        // entry the first run filed serves them.
        let toggles_only = perturb == 2;
        let verdict = if toggles_only { CacheStatus::Hit } else { CacheStatus::Miss };
        prop_assert_eq!(perturbed.cache, verdict);
        if toggles_only {
            let (got, want) = (perturbed.factors().unwrap(), primed.factors().unwrap());
            prop_assert_eq!(encode_binary(&got.l), encode_binary(&want.l));
            prop_assert_eq!(encode_binary(&got.u), encode_binary(&want.u));
        }

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

// ---- Names ---------------------------------------------------------------

/// A loopback relay in front of a server, counting every byte a client
/// sends up through it. A client writes its whole request before it reads
/// the reply, and the relay counts a byte before forwarding it, so once a
/// request's reply is back the count holds all of the request.
struct Relay {
    addr: String,
    up: Arc<AtomicU64>,
}

impl Relay {
    fn start(server: SocketAddr) -> Relay {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let up = Arc::new(AtomicU64::new(0));
        let counter = up.clone();
        std::thread::spawn(move || {
            for client in listener.incoming() {
                let Ok(client) = client else { return };
                let upstream = TcpStream::connect(server).unwrap();
                let (mut from_client, mut to_server) =
                    (client.try_clone().unwrap(), upstream.try_clone().unwrap());
                let counter = counter.clone();
                std::thread::spawn(move || {
                    let mut buf = vec![0u8; 64 * 1024];
                    while let Ok(n @ 1..) = from_client.read(&mut buf) {
                        counter.fetch_add(n as u64, Ordering::SeqCst);
                        if to_server.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                    let _ = to_server.shutdown(Shutdown::Write);
                });
                let (mut from_server, mut to_client) = (upstream, client);
                std::thread::spawn(move || {
                    let _ = std::io::copy(&mut from_server, &mut to_client);
                    let _ = to_client.shutdown(Shutdown::Write);
                });
            }
        });
        Relay { addr, up }
    }

    /// `request`'s result and the bytes it sent up.
    fn sent<T>(&self, request: impl FnOnce() -> T) -> (T, u64) {
        let before = self.up.load(Ordering::SeqCst);
        let result = request();
        (result, self.up.load(Ordering::SeqCst) - before)
    }
}

fn bits(vectors: &[Vec<f64>]) -> Vec<Vec<u64>> {
    vectors
        .iter()
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn factor_bytes(reply: &mrinv::client::ServiceReply) -> Vec<u8> {
    let f = reply.factors.as_ref().expect("an lu reply carries factors");
    let mut bytes = encode_binary_vec(&f.l);
    bytes.extend(encode_binary_vec(&f.u));
    bytes.extend(f.perm.as_slice().iter().flat_map(|s| s.to_le_bytes()));
    bytes
}

/// Once a connection has sent a matrix in full, its invert, solve and lu
/// requests carry only the name — a few hundred bytes beside the
/// right-hand sides — and each returns the bits the full request returns.
#[test]
fn named_requests_send_no_matrix_and_return_the_full_requests_bits() {
    let handle = start_server(ServiceConfig::default());
    let relay = Relay::start(handle.addr());
    let (n, cfg) = (48, InversionConfig::with_nb(12));
    let payload = (n * n * 8) as u64;
    let a = random_well_conditioned(n, 61);
    let b = [rhs_for(3, n)];
    let mut client = ServiceClient::connect(&relay.addr, "named").unwrap();
    let (cold, up) = relay.sent(|| client.invert(&a, &cfg).unwrap());
    assert!(!cold.cache_hit && up > payload, "{up} bytes up");

    // Each operation in full, from a connection that never sent `a`.
    let full = || ServiceClient::connect(&handle.addr().to_string(), "named").unwrap();
    let (inverse, solve, lu) = (
        full().invert(&a, &cfg).unwrap(),
        full().solve(&a, &b, &cfg).unwrap(),
        full().lu(&a, &cfg).unwrap(),
    );

    let (named, up) = relay.sent(|| client.invert(&a, &cfg).unwrap());
    assert!(named.cache_hit && up < 512, "named invert: {up} bytes up");
    assert_eq!(
        encode_binary_vec(named.inverse.as_ref().unwrap()),
        encode_binary_vec(inverse.inverse.as_ref().unwrap())
    );
    let (named, up) = relay.sent(|| client.solve(&a, &b, &cfg).unwrap());
    assert!(
        named.cache_hit && up < 512 + 9 * n as u64,
        "named solve: {up} bytes up"
    );
    assert_eq!(bits(&named.solutions), bits(&solve.solutions));
    let (named, up) = relay.sent(|| client.lu(&a, &cfg).unwrap());
    assert!(named.cache_hit && up < 512, "named lu: {up} bytes up");
    assert_eq!(factor_bytes(&named), factor_bytes(&lu));
}

/// The byte count the names exist for: a warm n = 256 solve sends its
/// right-hand side and its keys, not the 512 KB matrix.
#[test]
fn a_warm_named_solve_of_order_256_sends_under_4_kb() {
    let handle = start_server(ServiceConfig::default());
    let relay = Relay::start(handle.addr());
    let a = random_well_conditioned(256, 7);
    let b = [rhs_for(0, 256)];
    let cfg = InversionConfig::with_nb(32);
    let mut client = ServiceClient::connect(&relay.addr, "bench").unwrap();
    let (_, full) = relay.sent(|| client.invert(&a, &cfg).unwrap());
    assert!(
        full > 256 * 256 * 8,
        "the first request is full: {full} bytes"
    );
    let (reply, up) = relay.sent(|| client.solve(&a, &b, &cfg).unwrap());
    assert!(reply.cache_hit);
    assert!(up <= 4096, "a warm named solve sent {up} bytes");
}

/// A full invert request from a raw socket, as a peer built before names
/// sends one.
fn raw_invert(tenant: &str, id: u64, a: &Matrix, nb: u64) -> WireRequest {
    WireRequest {
        tenant: tenant.to_string(),
        id,
        op: WireOp::Invert,
        a: encode_binary_vec(a),
        rhs: Vec::new(),
        nb,
        separate_intermediate_files: true,
        block_wrap: true,
        transpose_u: true,
    }
}

/// `request` by name: `a` emptied and the `name` key added.
fn named_body(request: &WireRequest, name: &Value) -> Vec<u8> {
    let mut request = request.clone();
    request.a.clear();
    let Value::Object(mut fields) = request.to_value() else {
        panic!("a wire struct is an object")
    };
    fields.push(("name".to_string(), name.clone()));
    bincode::value_to_bytes(&Value::Object(fields))
}

/// Sends one request body and reads the response, as the struct and as
/// the value tree (which also holds the keys the struct does not).
fn ask_value(stream: &mut TcpStream, body: &[u8]) -> (WireResponse, Value) {
    write_frame(stream, TAG_REQUEST, body).unwrap();
    let mut reply = Vec::new();
    assert_eq!(read_frame(stream, &mut reply).unwrap(), TAG_RESPONSE);
    (
        bincode::deserialize(&reply).unwrap(),
        bincode::bytes_to_value(&reply).unwrap(),
    )
}

fn resend(response: &(WireResponse, Value)) -> bool {
    !response.0.ok && response.1.get("resend") == Some(&Value::Bool(true))
}

/// A name answers only on the connection, and for the tenant, that sent
/// the matrix in full, and only while the entry it was admitted against
/// is what the cache serves: anyone else, and anything after the factor
/// files are gone, gets `resend`.
#[test]
fn a_name_answers_only_its_connection_and_tenant_and_only_while_its_entry_lives() {
    let cluster = Arc::new(unit_cluster());
    let handle = ServerHandle::start(cluster.clone(), ServiceConfig::default()).unwrap();
    let a = random_well_conditioned(16, 71);
    let mut first = TcpStream::connect(handle.addr()).unwrap();
    let full = ask_value(
        &mut first,
        &bincode::serialize(&raw_invert("alice", 1, &a, 4)),
    );
    assert!(full.0.ok, "{}", full.0.error);
    let name = full
        .1
        .get("admitted")
        .expect("a served full request admits")
        .clone();
    assert_eq!(name.as_array().map(Vec::len), Some(3));
    assert_eq!(name.as_array().unwrap()[0].as_u64(), Some(16));

    let named = ask_value(
        &mut first,
        &named_body(&raw_invert("alice", 2, &a, 4), &name),
    );
    assert!(named.0.ok && named.0.cache_hit, "{}", named.0.error);
    assert_eq!(named.0.id, 2);
    assert_eq!(named.0.inverse, full.0.inverse);
    assert!(
        named.1.get("admitted").is_none(),
        "a named request admits nothing"
    );

    // Another tenant on the same connection.
    let bob = ask_value(&mut first, &named_body(&raw_invert("bob", 3, &a, 4), &name));
    assert!(resend(&bob), "{:?}", bob.0);
    // The same tenant under another block bound.
    let other = ask_value(
        &mut first,
        &named_body(&raw_invert("alice", 4, &a, 2), &name),
    );
    assert!(resend(&other), "{:?}", other.0);
    // The same tenant on another connection.
    let mut second = TcpStream::connect(handle.addr()).unwrap();
    let elsewhere = ask_value(
        &mut second,
        &named_body(&raw_invert("alice", 5, &a, 4), &name),
    );
    assert!(resend(&elsewhere), "{:?}", elsewhere.0);
    assert_eq!(elsewhere.0.id, 5);

    // The factor files are gone: the name's entry is invalid.
    assert!(cluster.dfs.delete_dir("") > 0);
    let gone = ask_value(
        &mut first,
        &named_body(&raw_invert("alice", 6, &a, 4), &name),
    );
    assert!(resend(&gone), "{:?}", gone.0);
    let again = ask_value(
        &mut first,
        &bincode::serialize(&raw_invert("alice", 7, &a, 4)),
    );
    assert!(again.0.ok && !again.0.cache_hit, "{}", again.0.error);
    assert_eq!(again.0.inverse, full.0.inverse);
    assert_eq!(again.1.get("admitted"), Some(&name));
}

/// A name binds per (tenant, nb): a named request under other
/// optimization toggles is served by name with the full request's bits,
/// since the toggles move no bit of the answer, and one under another `nb`
/// gets `resend`.
#[test]
fn a_name_serves_other_toggles_but_not_another_nb() {
    let handle = start_server(ServiceConfig::default());
    let a = random_well_conditioned(24, 73);
    let mut conn = TcpStream::connect(handle.addr()).unwrap();
    let full = ask_value(
        &mut conn,
        &bincode::serialize(&raw_invert("alice", 1, &a, 6)),
    );
    assert!(full.0.ok && !full.0.cache_hit, "{}", full.0.error);
    let name = full.1.get("admitted").expect("admitted").clone();

    let mut untransposed = raw_invert("alice", 2, &a, 6);
    untransposed.transpose_u = false;
    let named = ask_value(&mut conn, &named_body(&untransposed, &name));
    assert!(!resend(&named), "{:?}", named.0);
    assert!(named.0.ok && named.0.cache_hit, "{}", named.0.error);
    assert_eq!(named.0.inverse, full.0.inverse);

    let other_nb = ask_value(
        &mut conn,
        &named_body(&raw_invert("alice", 3, &a, 4), &name),
    );
    assert!(resend(&other_nb), "{:?}", other_nb.0);
    assert_eq!(handle.cache_stats().entries, 1);
}

/// `ServiceClient` recovers from `resend` by sending the request in full
/// once: after the entry its name was admitted against is replaced (an
/// invert upgrades an lu-primed entry), and after its files are deleted.
/// Each time the answer has the bits it had before, and the next request
/// goes by name again.
#[test]
fn the_client_resends_in_full_after_its_entry_is_replaced_or_deleted() {
    let cluster = Arc::new(unit_cluster());
    let handle = ServerHandle::start(cluster.clone(), ServiceConfig::default()).unwrap();
    let relay = Relay::start(handle.addr());
    let (n, cfg) = (32, InversionConfig::with_nb(8));
    let payload = (n * n * 8) as u64;
    let a = random_well_conditioned(n, 83);
    let b = [rhs_for(1, n)];
    let mut client = ServiceClient::connect(&relay.addr, "t").unwrap();
    assert!(!client.lu(&a, &cfg).unwrap().cache_hit);
    let (first, up) = relay.sent(|| client.solve(&a, &b, &cfg).unwrap());
    assert!(first.cache_hit && up < payload, "named: {up} bytes up");

    // Another connection's invert replaces the entry with one that holds
    // the inverse too.
    let mut other = ServiceClient::connect(&handle.addr().to_string(), "t").unwrap();
    assert!(!other.invert(&a, &cfg).unwrap().cache_hit);
    let (replaced, up) = relay.sent(|| client.solve(&a, &b, &cfg).unwrap());
    assert!(
        replaced.cache_hit && up > payload,
        "resent in full: {up} bytes up"
    );
    assert_eq!(bits(&replaced.solutions), bits(&first.solutions));
    let (named, up) = relay.sent(|| client.solve(&a, &b, &cfg).unwrap());
    assert!(
        named.cache_hit && up < payload,
        "named again: {up} bytes up"
    );

    assert!(cluster.dfs.delete_dir("") > 0);
    let (rerun, up) = relay.sent(|| client.solve(&a, &b, &cfg).unwrap());
    assert!(!rerun.cache_hit && rerun.jobs > 0, "the pipeline ran again");
    assert!(up > payload, "resent in full: {up} bytes up");
    assert_eq!(bits(&rerun.solutions), bits(&first.solutions));
    let (named, up) = relay.sent(|| client.solve(&a, &b, &cfg).unwrap());
    assert!(
        named.cache_hit && up < payload,
        "named again: {up} bytes up"
    );
}

/// A client that knows nothing of names sends every request in full and
/// is served as before: its decoder skips `admitted`, and the reply is
/// byte for byte the struct's encoding plus that one key.
#[test]
fn a_raw_client_built_before_names_is_served_unchanged() {
    let handle = start_server(ServiceConfig::default());
    let a = random_well_conditioned(16, 89);
    let want = Request::invert(&a).nb(4).submit(&unit_cluster()).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    for id in 1..=3 {
        let body = bincode::serialize(&raw_invert("old", id, &a, 4));
        write_frame(&mut stream, TAG_REQUEST, &body).unwrap();
        let mut reply = Vec::new();
        assert_eq!(read_frame(&mut stream, &mut reply).unwrap(), TAG_RESPONSE);
        let old: WireResponse = bincode::deserialize(&reply).unwrap();
        assert!(old.ok, "{}", old.error);
        assert_eq!((old.id, old.cache_hit), (id, id > 1));
        assert_eq!(old.inverse, encode_binary_vec(want.inverse().unwrap()));
        let Value::Object(mut fields) = bincode::bytes_to_value(&reply).unwrap() else {
            panic!("a response is an object")
        };
        let extra = fields.iter().position(|(k, _)| k == "admitted");
        fields.remove(extra.expect("the reply admits the name"));
        assert_eq!(
            bincode::value_to_bytes(&Value::Object(fields)),
            bincode::serialize(&old)
        );
    }
}

/// A server that never echoes `admitted` — one built before names — never
/// receives a named request: every frame the client sends carries the
/// matrix.
#[test]
fn a_server_that_never_admits_never_receives_a_name() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let a = random_well_conditioned(8, 97);
    let payload = encode_binary_vec(&a);
    let old_server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut body = Vec::new();
        let mut served = 0;
        while read_frame(&mut stream, &mut body).is_ok() {
            let value = bincode::bytes_to_value(&body).unwrap();
            assert!(
                value.get("name").is_none(),
                "a named frame reached the old server"
            );
            let request: WireRequest = bincode::deserialize(&body).unwrap();
            assert_eq!(request.a, payload);
            let response = WireResponse {
                id: request.id,
                ok: true,
                error: String::new(),
                cache_hit: served > 0,
                inverse: encode_binary_vec(&Matrix::identity(8)),
                l: Vec::new(),
                u: Vec::new(),
                perm: Vec::new(),
                solutions: Vec::new(),
                jobs: 0,
                sim_secs: 0.0,
            };
            write_frame(&mut stream, TAG_RESPONSE, &bincode::serialize(&response)).unwrap();
            served += 1;
        }
        served
    });
    let mut client = ServiceClient::connect(&addr, "t").unwrap();
    for _ in 0..3 {
        client.invert(&a, &InversionConfig::with_nb(2)).unwrap();
    }
    drop(client);
    assert_eq!(old_server.join().unwrap(), 3);
}

// ---- `mrinv --connect`: the CLI's remote runs --------------------------

/// The `mrinv` binary of this package.
const MRINV: &str = env!("CARGO_BIN_EXE_mrinv");

/// A fresh directory holding `a.txt` (n = 64) and `b.txt` (two
/// right-hand sides) for one CLI test.
fn cli_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mrinv-cli-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let a = random_well_conditioned(64, 43);
    let b = Matrix::from_vec(64, 2, (0..128).map(|k| k as f64 - 60.0).collect()).unwrap();
    std::fs::write(dir.join("a.txt"), encode_text(&a)).unwrap();
    std::fs::write(dir.join("b.txt"), encode_text(&b)).unwrap();
    dir
}

/// Runs `mrinv args` in `dir`: its exit code and its stderr.
fn mrinv(dir: &Path, args: &[&str]) -> (i32, String) {
    let out = Command::new(MRINV)
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code().unwrap_or(-1), stderr)
}

/// Runs `mrinv args` in `dir` for at most 30 s: its exit code (`None` if
/// it was still running and was killed) and its stderr. For commands that
/// block, such as `serve`, when they fail to refuse their arguments.
fn mrinv_within(dir: &Path, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(MRINV)
        .args(args)
        .current_dir(dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break Some(status);
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    let mut pipe = child.stderr.take().unwrap();
    pipe.read_to_string(&mut stderr).unwrap();
    (status.and_then(|s| s.code()), stderr)
}

/// A remote run's flags are checked before anything is read or sent: an
/// invert with no `--output` is a usage error the server never sees.
#[test]
fn a_remote_run_missing_its_output_is_refused_before_it_is_sent() {
    let handle = start_server(ServiceConfig::default());
    let addr = handle.addr().to_string();
    let dir = cli_dir("no-output");
    let (code, stderr) = mrinv(&dir, &["invert", "--connect", &addr, "--input", "a.txt"]);
    assert_eq!(code, 2, "{stderr}");
    assert_eq!(handle.served(), 0, "the request reached the server");
    assert!(stderr.starts_with("usage:"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `invert`, `lu` and `solve` write the same bytes computed here or served,
/// and a served inverse is checked on the client like a local one — with
/// no claim about the server's node count.
#[test]
fn remote_runs_write_the_bytes_local_runs_write() {
    let handle = start_server(ServiceConfig::default());
    let addr = handle.addr().to_string();
    let dir = cli_dir("same-bytes");
    let runs: [&[&str]; 3] = [
        &["invert", "--output", "x.txt"],
        &["lu", "--l", "l.txt", "--u", "u.txt"],
        &["solve", "--rhs", "../b.txt", "--output", "x.txt"],
    ];
    for run in runs {
        let outputs = run
            .iter()
            .filter(|a| a.ends_with(".txt") && !a.starts_with("../"));
        let mut written = Vec::new();
        for side in ["local", "remote"] {
            let side_dir = dir.join(side);
            let _ = std::fs::remove_dir_all(&side_dir);
            std::fs::create_dir(&side_dir).unwrap();
            let mut args = run.to_vec();
            args.extend(["--input", "../a.txt", "--nb", "16"]);
            if side == "remote" {
                args.extend(["--connect", addr.as_str()]);
            }
            let (code, stderr) = mrinv(&side_dir, &args);
            assert_eq!(code, 0, "{run:?} ({side}): {stderr}");
            if run[0] == "invert" {
                assert!(stderr.contains("max |I - A*A^-1| = "), "{stderr}");
            }
            let claims_nodes = stderr.contains("simulated nodes");
            assert_eq!(claims_nodes, side == "local", "{run:?} ({side}): {stderr}");
            let files = outputs
                .clone()
                .map(|f| std::fs::read(side_dir.join(f)).unwrap());
            written.push(files.collect::<Vec<_>>());
        }
        assert!(written[0].iter().all(|bytes| !bytes.is_empty()));
        assert_eq!(
            written[0], written[1],
            "{run:?}: local and served files differ"
        );
    }
    assert_eq!(handle.served(), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A wrong inverse from a server is caught by the client's residual check:
/// the file is written, and the run exits 3.
#[test]
fn a_wrong_served_inverse_exits_3() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let liar = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut body = Vec::new();
        assert_eq!(read_frame(&mut stream, &mut body).unwrap(), TAG_REQUEST);
        let response = WireResponse {
            id: bincode::deserialize::<WireRequest>(&body).unwrap().id,
            ok: true,
            error: String::new(),
            cache_hit: true,
            inverse: encode_binary_vec(&Matrix::identity(64)),
            l: Vec::new(),
            u: Vec::new(),
            perm: Vec::new(),
            solutions: Vec::new(),
            jobs: 0,
            sim_secs: 0.0,
        };
        write_frame(&mut stream, TAG_RESPONSE, &bincode::serialize(&response)).unwrap();
    });
    let dir = cli_dir("wrong-inverse");
    let args = [
        "invert",
        "--connect",
        &addr,
        "--input",
        "a.txt",
        "--output",
        "x.txt",
    ];
    let (code, stderr) = mrinv(&dir, &args);
    liar.join().unwrap();
    assert_eq!(code, 3, "{stderr}");
    assert!(stderr.contains("residual exceeds"), "{stderr}");
    assert!(dir.join("x.txt").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every flag only a local run reads is a usage error beside `--connect`,
/// before the input is read or the server asked.
#[test]
fn local_only_flags_are_refused_beside_connect() {
    let handle = start_server(ServiceConfig::default());
    let addr = handle.addr().to_string();
    let dir = cli_dir("local-only");
    let flags: [&[&str]; 5] = [
        &["--trace-out", "t.json"],
        &["--metrics-json", "m.json"],
        &["--metrics-prom", "m.prom"],
        &["--progress"],
        &["--backend", "tcp:2"],
    ];
    for flag in flags {
        let mut args = vec!["invert", "--connect", &addr, "--input", "a.txt"];
        args.extend(["--output", "x.txt"]);
        args.extend(flag);
        let (code, stderr) = mrinv(&dir, &args);
        assert_eq!(code, 2, "{flag:?}: {stderr}");
        assert!(stderr.contains(flag[0]), "{flag:?}: {stderr}");
        assert!(!dir.join("x.txt").exists(), "{flag:?} wrote an output");
    }
    assert_eq!(handle.served(), 0, "a refused run reached the server");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The checkpoint flags could not work in a fresh process (the DFS dies
/// with it), so they are gone: each is an unknown flag, refused before
/// the input is read, and the usage text names none of them.
#[test]
fn checkpoint_flags_are_unknown() {
    let dir = cli_dir("checkpoint-flags");
    let flags: [&[&str]; 4] = [
        &["--workdir", "w"],
        &["--checkpoint"],
        &["--resume"],
        &["--kill-after-job", "1"],
    ];
    for flag in flags {
        let mut args = vec!["invert", "--input", "a.txt", "--output", "x.txt"];
        args.extend(flag);
        let (code, stderr) = mrinv(&dir, &args);
        assert_eq!(code, 2, "{flag:?}: {stderr}");
        let reason = format!("mrinv: unknown flag {}", flag[0]);
        assert!(stderr.contains(&reason), "{flag:?}: {stderr}");
        assert!(!dir.join("x.txt").exists(), "{flag:?} wrote an output");
    }
    let (code, usage) = mrinv(&dir, &[]);
    assert_eq!(code, 2);
    assert!(usage.contains("mrinv invert"), "{usage}");
    for flag in flags {
        assert!(!usage.contains(flag[0]), "usage lists {}", flag[0]);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--tenant` names who a server serves; a local run has no server, so
/// the flag is a usage error there, before the input is read.
#[test]
fn a_tenant_without_connect_is_refused() {
    let dir = cli_dir("local-tenant");
    let args = [
        "invert",
        "--input",
        "nothere.txt",
        "--output",
        "x.txt",
        "--tenant",
        "alice",
    ];
    let (code, stderr) = mrinv(&dir, &args);
    assert_eq!(code, 2, "{stderr}");
    assert!(
        stderr.contains("--tenant applies to a --connect run"),
        "{stderr}"
    );
    assert!(!dir.join("x.txt").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--nodes 0` is a usage error for a compute subcommand and for `serve`,
/// as `--nb 0` is; neither runs nor listens.
#[test]
fn zero_nodes_is_a_usage_error() {
    let dir = cli_dir("zero-nodes");
    let args = [
        "invert", "--input", "a.txt", "--output", "x.txt", "--nodes", "0",
    ];
    let (code, stderr) = mrinv(&dir, &args);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--nodes must be at least 1"), "{stderr}");
    assert!(!dir.join("x.txt").exists());

    let (code, _) = mrinv_within(&dir, &["serve", "--listen", "127.0.0.1:0", "--nodes", "0"]);
    assert_eq!(code, Some(2), "serve --nodes 0 ran");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A flag the subcommand does not read is a usage error naming it, before
/// any file is read or written or any port bound: `serve` no longer
/// listens past a `--trace-out` it would never write, nor `gen` and
/// `invert` run past flags that belong to another subcommand.
#[test]
fn flags_a_subcommand_does_not_read_are_refused() {
    let dir = cli_dir("foreign-flags");
    let serve = ["serve", "--listen", "127.0.0.1:0"];
    let gen = ["gen", "--order", "4", "--output", "x.txt"];
    let invert = ["invert", "--input", "a.txt", "--output", "x.txt"];
    let cases: [(&[&str], &[&str]); 13] = [
        (&serve, &["--trace-out", "t.json"]),
        (&serve, &["--progress"]),
        (&serve, &["--nb", "7"]),
        (&serve, &["--input", "nothere.txt"]),
        (&serve, &["--backend", "tcp:2"]),
        (&serve, &["--output", "x.txt"]),
        (&gen, &["--nb", "4"]),
        (&gen, &["--listen", "1.2.3.4:5"]),
        (&gen, &["--max-queue", "3"]),
        (&invert, &["--listen", "1.2.3.4:5"]),
        (&invert, &["--max-queue", "3"]),
        (&invert, &["--seed", "9"]),
        (&invert, &["--order", "77"]),
    ];
    for (base, flag) in cases {
        let args = [base, flag].concat();
        let (code, stderr) = mrinv_within(&dir, &args);
        assert_eq!(code, Some(2), "{args:?} was not refused: {stderr}");
        let reason = format!("mrinv: {} does not apply to {}", flag[0], base[0]);
        assert!(stderr.contains(&reason), "{args:?}: {stderr}");
        for out in ["x.txt", "t.json"] {
            assert!(!dir.join(out).exists(), "{args:?} wrote {out}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
