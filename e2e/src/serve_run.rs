//! `serve-mixed` driver: one tenant waiting for its replies. One
//! `ServiceClient` connection to an in-process `ServerHandle`; a round
//! is one cold invert of a matrix the server never saw, then five warm
//! inverts and four warm solves of the four primed matrices.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mrinv::client::{ServiceClient, ServiceReply};
use mrinv::inmem::invert_single_node;
use mrinv::service::{ServerHandle, ServiceConfig, WireOp, WireRequest, WireResponse};
use mrinv::{cache_key, CacheStatus, FactorCache, InversionConfig, Request};
use mrinv_mapreduce::{Cluster, ClusterConfig};
use mrinv_matrix::io::encode_binary;
use mrinv_matrix::norms::inversion_residual;
use mrinv_matrix::random::{random_matrix, random_well_conditioned};
use mrinv_matrix::Matrix;

use crate::lib_run::new_cluster;
use crate::pass::{
    measure, proc_status_mb, solve_residual, warm_up, within_accuracy, Checker, PassData, RunCtx,
};
use crate::probes::secs_per_rep;
use crate::span::SpanId;
use crate::spec::NODES;
use crate::stats::{derive_seed, hash_f64s};

/// Primed matrices.
const PRIMED: usize = 4;
/// Warm operations of a round, by primed matrix: inverts then solves,
/// interleaved below. Five inverts and four solves.
const WARM_PLAN: [(bool, usize); 9] = [
    (true, 0),
    (false, 1),
    (true, 2),
    (false, 3),
    (true, 1),
    (false, 0),
    (true, 3),
    (false, 2),
    (true, 0),
];

struct Primed {
    a: Matrix,
    b: Vec<f64>,
}

struct Session<'a> {
    client: ServiceClient,
    cluster: Arc<Cluster>,
    cfg: InversionConfig,
    primed: Vec<Primed>,
    checker: Checker,
    name: &'a str,
    n: usize,
}

/// Runs `ctx.rounds` rounds against a fresh in-process server.
pub fn run(name: &str, n: usize, nb: usize, ctx: &mut RunCtx<'_>) -> PassData {
    let traced = ctx.rec.is_enabled();
    let mut data = PassData {
        workload: name.to_string(),
        rounds_planned: ctx.rounds as u64,
        ..PassData::default()
    };

    let setup_start = Instant::now();
    let setup_span = ctx.rec.enter("setup", "harness");
    let t = Instant::now();
    let primed: Vec<Primed> = (0..PRIMED as u64)
        .map(|i| Primed {
            a: random_well_conditioned(n, derive_seed(ctx.seed, name, 2 * i)),
            b: random_matrix(n, 1, derive_seed(ctx.seed, name, 2 * i + 1)).into_vec(),
        })
        .collect();
    for p in &primed {
        data.input_hashes.push(hash_f64s(p.a.as_slice()));
        data.input_hashes.push(hash_f64s(&p.b));
    }
    ctx.rec.leaf("generate inputs", "harness", t, t.elapsed());

    let t = Instant::now();
    // The cluster `mrinv serve` builds: the registry is the service's
    // flight recorder and always on; the task log only when traced.
    let mut cfg = ClusterConfig::medium(NODES);
    cfg.observability = true;
    cfg.tracing = traced;
    let cluster = Arc::new(Cluster::new(cfg));
    let mut server = ServerHandle::start(cluster.clone(), ServiceConfig::default())
        .expect("an ephemeral loopback port binds");
    ctx.rec
        .leaf("ServerHandle::start", "core.service", t, t.elapsed());
    let addr = server.addr().to_string();
    let t = Instant::now();
    let client = ServiceClient::connect(&addr, "bench").expect("the server accepts");
    let d = t.elapsed();
    ctx.rec.leaf("ServiceClient::connect", "core.client", t, d);
    data.push("wire.connect_ms", d.as_secs_f64() * 1e3);

    let mut s = Session {
        client,
        cluster,
        cfg: InversionConfig::with_nb(nb),
        primed,
        checker: Checker::default(),
        name,
        n,
    };
    // Prime: a cold invert stores factors and inverse, the first solve
    // assembles L and U once; every later request for these four hits.
    let prime_span = ctx.rec.enter("prime", "harness");
    let mut unmeasured = PassData::default();
    for i in 0..PRIMED {
        let t = Instant::now();
        let reference = invert_single_node(&s.primed[i].a).expect("input inverts");
        ctx.rec
            .leaf("invert_single_node", "core.inmem", t, t.elapsed());
        s.invert(i, false, Some(&reference), ctx, &mut unmeasured, None);
        s.solve(i, ctx, &mut unmeasured, None);
    }
    data.absorb_failures(unmeasured);
    ctx.rec.exit(prime_span);
    let mut round = |id: u64, ctx: &mut RunCtx<'_>, data: &mut PassData| s.round(id, ctx, data);
    warm_up(ctx, &mut data, &mut round);
    ctx.rec.exit(setup_span);
    data.setup_s = setup_start.elapsed().as_secs_f64();

    let stats_before = server.cache_stats();
    let rss_before = proc_status_mb("VmRSS");
    measure(ctx, &mut data, 1 + WARM_PLAN.len(), &mut round);
    let stats = server.cache_stats();
    let hits = stats.hits - stats_before.hits;
    let misses = stats.misses - stats_before.misses;
    data.push(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    data.push(
        "serve.rss_per_cold_kb",
        (proc_status_mb("VmRSS") - rss_before) * 1024.0 / data.rounds_completed.max(1) as f64,
    );

    if traced {
        ctx.rec.set_request(u64::MAX);
        let span = ctx.rec.enter("cache and wire probes", "harness");
        for _ in 0..4 {
            let t = Instant::now();
            let extra = ServiceClient::connect(&addr, "bench-probe");
            let d = t.elapsed();
            ctx.rec.leaf("ServiceClient::connect", "core.client", t, d);
            if extra.is_ok() {
                data.push("wire.connect_ms", d.as_secs_f64() * 1e3);
            }
        }
        probes(&s.primed[0], nb, ctx, &mut data);
        ctx.rec.exit(span);
    }
    drop(s);
    server.shutdown();
    data.peak_rss_mb = proc_status_mb("VmHWM");
    data
}

impl Session<'_> {
    /// One round: the cold invert first, then the nine warm operations.
    fn round(&mut self, id: u64, ctx: &mut RunCtx<'_>, data: &mut PassData) {
        let round_span = ctx.rec.enter("round", "harness");
        // The never-seen matrix is made here, between timed spans.
        let cold = random_well_conditioned(self.n, derive_seed(ctx.seed, self.name, 1000 + id));
        let failed_before = data.failed;
        let mut round_ms = 0.0;
        self.cold_invert(&cold, id, ctx, data, &mut round_ms);
        for (invert, i) in WARM_PLAN {
            if invert {
                self.invert(i, true, None, ctx, data, Some(&mut round_ms));
            } else {
                self.solve(i, ctx, data, Some(&mut round_ms));
            }
        }
        if data.failed == failed_before {
            data.push("round_ms", round_ms);
        }
        ctx.rec.exit(round_span);
    }

    /// Imports the server's task log under `op` and empties it, so the
    /// next operation starts from a clean log.
    fn import_server_log(&self, op: SpanId, ctx: &mut RunCtx<'_>) {
        if ctx.rec.is_enabled() {
            ctx.rec.import(op, &self.cluster.trace.events());
            self.cluster.trace.clear();
        }
    }

    /// A reply whose `cache_hit` disagrees with the plan is a failure.
    fn planned(reply: &ServiceReply, want_hit: bool, what: &str) -> Result<(), String> {
        if reply.cache_hit == want_hit {
            Ok(())
        } else {
            Err(format!(
                "{what}: cache_hit is {}, the plan says {want_hit}",
                reply.cache_hit
            ))
        }
    }

    fn cold_invert(
        &mut self,
        a: &Matrix,
        id: u64,
        ctx: &mut RunCtx<'_>,
        data: &mut PassData,
        round_ms: &mut f64,
    ) {
        data.attempted += 1;
        let t = Instant::now();
        let reply = self.client.invert(a, &self.cfg);
        let d = t.elapsed();
        let op = ctx
            .rec
            .leaf("ServiceClient::invert (cold)", "core.client", t, d);
        let ms = d.as_secs_f64() * 1e3;
        *round_ms += ms;
        self.import_server_log(op, ctx);
        let reply = match reply.map_err(|e| e.to_string()).and_then(|r| {
            Self::planned(&r, false, "cold invert")?;
            Ok(r)
        }) {
            Ok(r) => r,
            Err(e) => return data.fail(e),
        };
        data.push("wire.cold_invert_ms", ms);
        let t = Instant::now();
        let verdict = match &reply.inverse {
            None => Err(format!("cold invert {id}: reply carries no inverse")),
            Some(inv) => inversion_residual(a, inv)
                .map_err(|e| e.to_string())
                .and_then(within_accuracy)
                .map_err(|e| format!("cold invert {id}: {e}")),
        };
        if let Err(e) = verdict {
            data.wrong(e);
        }
        ctx.rec.leaf("check invert", "harness", t, t.elapsed());
    }

    /// Invert of primed matrix `i`; `warm` says whether the plan expects
    /// a cache hit. Timed into `round_ms` and `invert_ms` when warm.
    fn invert(
        &mut self,
        i: usize,
        warm: bool,
        reference: Option<&Matrix>,
        ctx: &mut RunCtx<'_>,
        data: &mut PassData,
        round_ms: Option<&mut f64>,
    ) {
        data.attempted += 1;
        let a = &self.primed[i].a;
        let t = Instant::now();
        let reply = self.client.invert(a, &self.cfg);
        let d = t.elapsed();
        let op = ctx.rec.leaf(
            if warm {
                "ServiceClient::invert (warm)"
            } else {
                "ServiceClient::invert (prime)"
            },
            "core.client",
            t,
            d,
        );
        let ms = d.as_secs_f64() * 1e3;
        if let Some(total) = round_ms {
            *total += ms;
        }
        self.import_server_log(op, ctx);
        let what = format!("invert of primed {i}");
        let reply = match reply.map_err(|e| e.to_string()).and_then(|r| {
            Self::planned(&r, warm, &what)?;
            Ok(r)
        }) {
            Ok(r) => r,
            Err(e) => return data.fail(e),
        };
        if warm {
            data.push("invert_ms", ms);
        }
        let t = Instant::now();
        let verdict = match &reply.inverse {
            None => Err(format!("{what}: reply carries no inverse")),
            Some(inv) => {
                self.checker
                    .output(&format!("invert {i}"), hash_f64s(inv.as_slice()), || {
                        within_accuracy(inversion_residual(a, inv).map_err(|e| e.to_string())?)?;
                        let Some(reference) = reference else {
                            return Ok(());
                        };
                        let gap = inv.max_abs_diff(reference).map_err(|e| e.to_string())?;
                        within_accuracy(gap).map_err(|e| format!("against invert_single_node: {e}"))
                    })
            }
        };
        if let Err(e) = verdict {
            data.wrong(e);
        }
        ctx.rec.leaf("check invert", "harness", t, t.elapsed());
    }

    /// Solve against primed matrix `i` (always a hit: priming inverted
    /// it first). Timed into `round_ms` and `solve_ms` inside a round.
    fn solve(
        &mut self,
        i: usize,
        ctx: &mut RunCtx<'_>,
        data: &mut PassData,
        round_ms: Option<&mut f64>,
    ) {
        data.attempted += 1;
        let p = &self.primed[i];
        let t = Instant::now();
        let reply = self
            .client
            .solve(&p.a, std::slice::from_ref(&p.b), &self.cfg);
        let d = t.elapsed();
        ctx.rec
            .leaf("ServiceClient::solve (warm)", "core.client", t, d);
        let ms = d.as_secs_f64() * 1e3;
        let in_round = round_ms.is_some();
        if let Some(total) = round_ms {
            *total += ms;
        }
        let what = format!("solve of primed {i}");
        let reply = match reply.map_err(|e| e.to_string()).and_then(|r| {
            Self::planned(&r, true, &what)?;
            Ok(r)
        }) {
            Ok(r) => r,
            Err(e) => return data.fail(e),
        };
        if in_round {
            data.push("solve_ms", ms);
        }
        let t = Instant::now();
        let verdict = match reply.solutions.first() {
            None => Err(format!("{what}: reply carries no solution")),
            Some(x) => self
                .checker
                .output(&format!("solve {i}"), hash_f64s(x), || {
                    within_accuracy(solve_residual(&p.a, x, &p.b)?)
                }),
        };
        if let Err(e) = verdict {
            data.wrong(e);
        }
        ctx.rec.leaf("check solve", "harness", t, t.elapsed());
    }
}

/// The `core.cache` hit path without the wire, and the wire's codec
/// without the cache: what a warm request costs in each half.
fn probes(p: &Primed, nb: usize, ctx: &mut RunCtx<'_>, data: &mut PassData) {
    let cfg = InversionConfig::with_nb(nb);
    let cluster = new_cluster(false);
    let cache = FactorCache::new();
    let primed_ok = Request::invert(&p.a)
        .config(&cfg)
        .cache(&cache)
        .submit(&cluster)
        .is_ok()
        && Request::solve(&p.a)
            .rhs(p.b.clone())
            .config(&cfg)
            .cache(&cache)
            .submit(&cluster)
            .is_ok();
    if !primed_ok {
        return data.fail("cache probe: priming failed");
    }
    let rec = &mut *ctx.rec;
    let key_s = secs_per_rep(rec, "cache_key", "core.cache", 9, 1, || {
        black_box(cache_key(&p.a, &cfg, &cluster));
    });
    data.push("cache.key_ms_256", key_s * 1e3);
    let mut all_hits = true;
    let hit_invert_s = secs_per_rep(rec, "Request::invert (hit)", "core.cache", 9, 1, || {
        let out = Request::invert(&p.a)
            .config(&cfg)
            .cache(&cache)
            .submit(&cluster);
        all_hits &= out.as_ref().is_ok_and(|o| o.cache == CacheStatus::Hit);
        black_box(out).ok();
    });
    data.push("cache.hit_invert_ms_256", hit_invert_s * 1e3);
    let hit_solve_s = secs_per_rep(rec, "Request::solve (hit)", "core.cache", 9, 1, || {
        let out = Request::solve(&p.a)
            .rhs(p.b.clone())
            .config(&cfg)
            .cache(&cache)
            .submit(&cluster);
        all_hits &= out.as_ref().is_ok_and(|o| o.cache == CacheStatus::Hit);
        black_box(out).ok();
    });
    data.push("cache.hit_solve_ms_256", hit_solve_s * 1e3);
    if !all_hits {
        data.fail("cache probe: an in-process request for a primed matrix missed");
    }

    // One warm invert's two frames, built as client and server build them.
    let payload = encode_binary(&p.a).to_vec();
    let payload_mb = payload.len() as f64 / 1e6;
    let request = WireRequest {
        tenant: "bench".to_string(),
        id: 1,
        op: WireOp::Invert,
        a: payload.clone(),
        rhs: Vec::new(),
        nb: nb as u64,
        separate_intermediate_files: cfg.opts.separate_intermediate_files,
        block_wrap: cfg.opts.block_wrap,
        transpose_u: cfg.opts.transpose_u,
    };
    let response = WireResponse {
        id: 1,
        ok: true,
        error: String::new(),
        cache_hit: true,
        inverse: payload.clone(),
        l: Vec::new(),
        u: Vec::new(),
        perm: Vec::new(),
        solutions: Vec::new(),
        jobs: 0,
        sim_secs: 0.0,
    };
    let request_bytes = bincode::serialize(&request);
    let response_bytes = bincode::serialize(&response);
    // Each frame adds a 4-byte length and a tag byte.
    data.push(
        "wire.bytes_per_payload_byte",
        (request_bytes.len() + response_bytes.len() + 10) as f64 / (2 * payload.len()) as f64,
    );
    let ser_s = secs_per_rep(rec, "bincode::serialize", "core.service", 5, 1, || {
        black_box(bincode::serialize(&request));
    });
    data.push("wire.bincode_ser_mbps", payload_mb / ser_s);
    let de_s = secs_per_rep(rec, "bincode::deserialize", "core.service", 5, 1, || {
        black_box(bincode::deserialize::<WireRequest>(&request_bytes)).ok();
    });
    data.push("wire.bincode_de_mbps", payload_mb / de_s);
}
