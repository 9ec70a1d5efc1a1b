//! `mrinv serve`: the multi-tenant inversion service.
//!
//! A long-running daemon that accepts concurrent [`crate::Request`]-shaped
//! work over TCP — `invert(A)`, `lu(A)`, `solve(A, b…)` — from many
//! tenants against one shared [`Cluster`], backed by one shared
//! [`FactorCache`]. The wire protocol is the worker backend's frame codec
//! ([`mrinv_mapreduce::wire`]: `u32` little-endian length, one tag byte,
//! bincode body), with two tags:
//!
//! | dir | tag | frame      | body                     |
//! |-----|-----|------------|--------------------------|
//! | →   | 1   | `Request`  | bincode [`WireRequest`]  |
//! | ←   | 2   | `Response` | bincode [`WireResponse`] |
//!
//! # What a frame costs
//!
//! A matrix crosses as the binary codec's bytes (20-byte header + 8 bytes
//! per element) inside one packed bincode byte node (tag 9: 9 bytes of
//! overhead per matrix), so a frame is its payload plus a few hundred bytes
//! of field names and scalars — 1.0004 wire bytes per payload byte at
//! n = 256, pinned by `frames_cost_their_payload` below. `rhs` /
//! `solutions` are plain `f64` arrays at 9 bytes per 8.
//!
//! In memory, each side writes a matrix's bytes once
//! ([`encode_binary_vec`]) and bincode copies them once into the value
//! tree and once into the frame; the receiver copies them out of the frame
//! into the value tree, into the field, and decodes them into a `Matrix`.
//! The frame itself is not a fresh buffer: each connection — this
//! server's handler and [`crate::client::ServiceClient`] alike — reads
//! every frame into one buffer and serializes every reply into it
//! ([`bincode::serialize_into`], sized exactly from the value tree), so in
//! the steady state a frame allocates nothing. A connection therefore
//! retains capacity for its largest frame until it closes. Measured with
//! a counting allocator at n = 256 (`tests/alloc_budget.rs`), a warm
//! invert allocates about 10 matrix-sized buffers across both sides, a
//! warm solve about 5.
//!
//! Compatibility runs one way. This decoder also accepts the older shape
//! of a byte field (an array of one number per byte, 9 wire bytes per
//! payload byte), so a client built before tag 9 is still served. A server
//! built before tag 9 cannot read a new client's request ("unknown tag byte
//! 9") and hangs up without saying so. From this protocol revision on a
//! server says so: a request body that does not decode is answered with an
//! error response whose `id` is 0 ("undecodable request: …") before the
//! connection is dropped, and [`crate::client::ServiceClient`] reports that
//! text — what a client gets to read from any future incompatible peer.
//!
//! # Threading model
//!
//! One accept thread, one handler thread per connection, and **one**
//! pipeline executor thread. Handler threads serve cache *hits*
//! themselves (hits touch no driver state and use uncounted DFS reads,
//! so any number can run concurrently); everything cold is queued for
//! the executor, which runs pipelines strictly one at a time. That
//! serialization is what keeps [`crate::RunReport`]s correct — the
//! cluster's metrics are delta-based, so two interleaved pipeline runs
//! would corrupt each other's accounting — and it is also the
//! determinism argument: each cold run sees the DFS exactly as a
//! sequential run would, so concurrent clients get bit-identical bytes
//! to back-to-back requests.
//!
//! # Admission control, fairness, batching
//!
//! Each tenant owns a bounded FIFO queue
//! ([`ServiceConfig::max_queue_per_tenant`]); a request arriving at a
//! full queue is rejected immediately rather than admitted and starved.
//! The executor drains queues tenant-round-robin, so one tenant
//! submitting a thousand requests cannot lock out another submitting
//! one. When the executor picks a `solve`, it also drains every other
//! queued `solve` with the same cache key (any tenant) and serves the
//! whole batch from a single factorization + substitution pass.
//!
//! # One key, bounded series
//!
//! [`cache_key`] reads every word of the matrix once (a 128-bit digest,
//! see [`crate::cache`]), so a request computes it exactly once, on
//! arrival; the handler's cache probe, the queued job, solve batching and
//! the executor's submit all carry that [`CacheKey`]. The service's metric
//! series are keyed by tenant and operation only — there is no
//! per-request label — so a long-running server's series count is bounded
//! by who talks to it, not by how much.

use std::collections::{BTreeMap, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use mrinv_mapreduce::obs::Labels;
use mrinv_mapreduce::wire::{read_frame, write_frame};
use mrinv_mapreduce::Cluster;
use mrinv_matrix::io::{decode_binary, encode_binary_vec};
use mrinv_matrix::Matrix;
use serde::{Deserialize, Serialize};

use crate::cache::{cache_key, CacheKey, CacheStats, FactorCache};
use crate::config::{InversionConfig, Optimizations};
use crate::error::{CoreError, Result};
use crate::request::{CacheStatus, Op, Outcome, Request};

pub(crate) const TAG_REQUEST: u8 = 1;
pub(crate) const TAG_RESPONSE: u8 = 2;

/// The operation field of a [`WireRequest`] (unit variants only — the
/// vendored codec's enum support).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireOp {
    /// Full inversion.
    Invert,
    /// LU factorization; the response carries `L`, `U`, and the pivots.
    Lu,
    /// Linear solve of the attached right-hand sides.
    Solve,
}

impl WireOp {
    fn op(self) -> Op {
        match self {
            WireOp::Invert => Op::Invert,
            WireOp::Lu => Op::Lu,
            WireOp::Solve => Op::Solve,
        }
    }
}

/// One request frame. Matrices ride as the binary codec's bytes
/// (bit-exact `f64`s), the configuration as its unpacked fields.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireRequest {
    /// Tenant the request is accounted (and admission-controlled) under.
    pub tenant: String,
    /// Client-chosen request id, echoed back in the response.
    pub id: u64,
    /// Which computation to run.
    pub op: WireOp,
    /// The input matrix, encoded with the binary codec.
    pub a: Vec<u8>,
    /// Right-hand sides (required for `Solve`, optional otherwise).
    pub rhs: Vec<Vec<f64>>,
    /// Block bound `nb`.
    pub nb: u64,
    /// [`Optimizations::separate_intermediate_files`].
    pub separate_intermediate_files: bool,
    /// [`Optimizations::block_wrap`].
    pub block_wrap: bool,
    /// [`Optimizations::transpose_u`].
    pub transpose_u: bool,
}

impl WireRequest {
    /// The configuration as the client sent it; `Request::validate`
    /// refuses `nb = 0`, so it comes back as an error reply.
    fn config(&self) -> InversionConfig {
        InversionConfig {
            nb: usize::try_from(self.nb).unwrap_or(usize::MAX),
            opts: Optimizations {
                separate_intermediate_files: self.separate_intermediate_files,
                block_wrap: self.block_wrap,
                transpose_u: self.transpose_u,
            },
        }
    }
}

/// One response frame. Empty byte vectors stand for absent matrices. An
/// error response with `id` 0 (clients number requests from 1) is about the
/// connection, not a request: the server could not decode the frame.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireResponse {
    /// Echo of [`WireRequest::id`].
    pub id: u64,
    /// Whether the computation succeeded; on `false` only `error` is
    /// meaningful.
    pub ok: bool,
    /// Error rendering when `ok` is false.
    pub error: String,
    /// Whether the factor cache served this request.
    pub cache_hit: bool,
    /// The inverse (invert requests), binary-encoded; empty otherwise.
    pub inverse: Vec<u8>,
    /// `L` (lu requests), binary-encoded; empty otherwise.
    pub l: Vec<u8>,
    /// `U` (lu requests), binary-encoded; empty otherwise.
    pub u: Vec<u8>,
    /// Pivot sources (lu requests): entry `i` of `P·A` is row `perm[i]`
    /// of `A`. Empty otherwise.
    pub perm: Vec<u64>,
    /// Solutions, one per attached right-hand side.
    pub solutions: Vec<Vec<f64>>,
    /// Pipeline jobs this request ran (0 on a cache hit).
    pub jobs: u64,
    /// Simulated seconds this request cost (0.0 on a cache hit).
    pub sim_secs: f64,
}

impl WireResponse {
    fn err(id: u64, message: impl Into<String>) -> WireResponse {
        WireResponse {
            id,
            ok: false,
            error: message.into(),
            cache_hit: false,
            inverse: Vec::new(),
            l: Vec::new(),
            u: Vec::new(),
            perm: Vec::new(),
            solutions: Vec::new(),
            jobs: 0,
            sim_secs: 0.0,
        }
    }

    fn from_outcome(id: u64, out: &Outcome) -> WireResponse {
        let (l, u, perm) = match out.factors() {
            Some(f) => (
                encode_binary_vec(&f.l),
                encode_binary_vec(&f.u),
                f.perm.as_slice().iter().map(|&s| s as u64).collect(),
            ),
            None => (Vec::new(), Vec::new(), Vec::new()),
        };
        WireResponse {
            id,
            ok: true,
            error: String::new(),
            cache_hit: out.cache == CacheStatus::Hit,
            inverse: out.inverse().map(encode_binary_vec).unwrap_or_default(),
            l,
            u,
            perm,
            solutions: out.solutions().to_vec(),
            jobs: out.report.jobs,
            sim_secs: out.report.sim_secs,
        }
    }
}

/// Tuning knobs for [`ServerHandle::start`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Admission-control bound: a tenant with this many queued cold
    /// requests has further cold requests rejected until the executor
    /// catches up. Cache hits are never rejected (they consume no
    /// executor capacity).
    pub max_queue_per_tenant: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            max_queue_per_tenant: 64,
        }
    }
}

/// A cold request parked for the executor.
struct QueuedJob {
    tenant: String,
    id: u64,
    op: Op,
    a: Matrix,
    rhs: Vec<Vec<f64>>,
    cfg: InversionConfig,
    key: CacheKey,
    resp: mpsc::Sender<WireResponse>,
}

/// Per-tenant FIFO queues plus the round-robin draining order. A tenant
/// has an entry in both exactly while it has a job queued, so a
/// long-running server holds nothing for tenants it has drained.
#[derive(Default)]
struct Queues {
    tenants: BTreeMap<String, VecDeque<QueuedJob>>,
    rr: VecDeque<String>,
}

impl Queues {
    fn push(&mut self, job: QueuedJob) {
        let tenant = job.tenant.clone();
        let q = self.tenants.entry(tenant.clone()).or_default();
        q.push_back(job);
        if !self.rr.contains(&tenant) {
            self.rr.push_back(tenant);
        }
    }

    /// Pops the next job in tenant-round-robin order.
    fn pop(&mut self) -> Option<QueuedJob> {
        let tenant = self.rr.pop_front()?;
        let q = self.tenants.get_mut(&tenant)?;
        let job = q.pop_front();
        if q.is_empty() {
            self.tenants.remove(&tenant);
        } else {
            self.rr.push_back(tenant);
        }
        job
    }

    /// Drains every queued solve sharing `key` (any tenant) for batching.
    fn drain_matching_solves(&mut self, key: CacheKey) -> Vec<QueuedJob> {
        let mut batch = Vec::new();
        for q in self.tenants.values_mut() {
            let mut keep = VecDeque::with_capacity(q.len());
            for job in q.drain(..) {
                if job.op == Op::Solve && job.key == key {
                    batch.push(job);
                } else {
                    keep.push_back(job);
                }
            }
            *q = keep;
        }
        self.tenants.retain(|_, q| !q.is_empty());
        let tenants = &self.tenants;
        self.rr.retain(|tenant| tenants.contains_key(tenant));
        batch
    }

    fn pending(&self, tenant: &str) -> usize {
        self.tenants.get(tenant).map_or(0, VecDeque::len)
    }

    fn drain_all(&mut self) -> Vec<QueuedJob> {
        self.rr.clear();
        std::mem::take(&mut self.tenants)
            .into_values()
            .flatten()
            .collect()
    }
}

struct Shared {
    cluster: Arc<Cluster>,
    cache: FactorCache,
    config: ServiceConfig,
    queues: Mutex<Queues>,
    work: Condvar,
    shutdown: AtomicBool,
    /// One entry per connection whose handler has not been reaped: the
    /// handler thread and a clone of its socket, shut down (not just
    /// dropped) on server shutdown so a blocked handler read wakes
    /// immediately. The accept loop reaps finished entries, so this holds
    /// O(live connections), not one entry per client ever seen.
    conns: Mutex<Vec<(JoinHandle<()>, Option<TcpStream>)>>,
    served: AtomicU64,
}

impl Shared {
    /// Bumps a service counter, labelled by tenant and operation.
    fn count(&self, name: &str, tenant: &str, op: &str) {
        let labels = Labels::new().tenant(tenant).task_kind(op);
        self.cluster.metrics.obs().counter(name, &labels).add(1);
    }

    /// Counts one served request and its cache verdict.
    fn note_served(&self, tenant: &str, op: Op, out: &Outcome) {
        self.served.fetch_add(1, Ordering::Relaxed);
        let verdict = match out.cache {
            CacheStatus::Hit => "mrinv_service_cache_hits_total",
            CacheStatus::Miss => "mrinv_service_cache_misses_total",
            CacheStatus::Bypass => return,
        };
        self.count(verdict, tenant, op.name());
    }
}

/// A running service. Dropping the handle shuts the server down: the
/// listener stops accepting, every client socket is shut down, queued
/// jobs are failed with a shutdown error, and all threads are joined —
/// no orphan sockets or wedged accept loops survive the handle.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    executor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Binds, spawns the accept and executor threads, and returns.
    pub fn start(cluster: Arc<Cluster>, config: ServiceConfig) -> Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| CoreError::Invariant(format!("cannot bind {}: {e}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| CoreError::Invariant(format!("listener address: {e}")))?;
        let shared = Arc::new(Shared {
            cluster,
            cache: FactorCache::new(),
            config,
            queues: Mutex::new(Queues::default()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            served: AtomicU64::new(0),
        });
        let executor = {
            let shared = shared.clone();
            std::thread::spawn(move || executor_loop(&shared))
        };
        let accept = {
            let shared = shared.clone();
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            executor: Some(executor),
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters of the shared factor cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Requests served to completion (success or error response sent).
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// Stops the service and joins every thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection, and wait
        // for it: once it is gone no connection can be added behind us.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conns lock"));
        // Wake blocked handler reads.
        for (_, socket) in &conns {
            if let Some(socket) = socket {
                let _ = socket.shutdown(Shutdown::Both);
            }
        }
        // Wake the executor so it drains and exits.
        self.shared.work.notify_all();
        if let Some(t) = self.executor.take() {
            let _ = t.join();
        }
        for (handler, _) in conns {
            let _ = handler.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // The wake-up connection (or a late client); close and exit.
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        let _ = stream.set_nodelay(true);
        let socket = stream.try_clone().ok();
        let handler_shared = shared.clone();
        let handler = std::thread::spawn(move || {
            let (mut stream, shared) = (stream, handler_shared);
            // A panicking handler must not leak its socket: catch the
            // unwind and shut the stream down either way, so the client
            // sees EOF instead of a wedged connection, and the listener
            // (a different thread) is never affected.
            let result = catch_unwind(AssertUnwindSafe(|| handle_connection(&mut stream, &shared)));
            let _ = stream.shutdown(Shutdown::Both);
            drop(result);
        });
        // Reap the connections that ended since the last accept: join the
        // finished handler (it never blocks) and drop its socket clone.
        let mut conns = shared.conns.lock().expect("conns lock");
        let (done, live) = std::mem::take(&mut *conns)
            .into_iter()
            .partition(|(handler, _)| handler.is_finished());
        *conns = live;
        conns.push((handler, socket));
        drop(conns);
        for (handler, _) in done {
            let _ = handler.join();
        }
    }
}

/// Serves one client connection: a loop of request frames, each answered
/// with exactly one response frame. Malformed frames drop the connection
/// (the protocol has no way to resynchronize a corrupt stream); a request
/// frame whose body does not decode is told why first, under id 0, so an
/// incompatible peer reads a reason instead of a bare EOF.
fn handle_connection(stream: &mut TcpStream, shared: &Arc<Shared>) {
    // Every request is read, and every response written, from here.
    let mut frame = Vec::new();
    loop {
        let Ok(tag) = read_frame(stream, &mut frame) else {
            return; // EOF, reset, or shutdown
        };
        if tag != TAG_REQUEST {
            return;
        }
        let (resp, hang_up) = match bincode::deserialize::<WireRequest>(&frame) {
            Ok(req) => (serve_request(shared, req), false),
            Err(e) => (
                WireResponse::err(0, format!("undecodable request: {}", e.0)),
                true,
            ),
        };
        frame.clear();
        bincode::serialize_into(&mut frame, &resp);
        if write_frame(stream, TAG_RESPONSE, &frame).is_err() || hang_up {
            return;
        }
    }
}

/// Serves one decoded request: cache hits inline, cold work through the
/// executor queue.
fn serve_request(shared: &Arc<Shared>, req: WireRequest) -> WireResponse {
    let op = req.op.op();
    shared.count("mrinv_service_requests_total", &req.tenant, op.name());
    let a = match decode_binary(&req.a) {
        Ok(a) => a,
        Err(e) => return WireResponse::err(req.id, format!("bad matrix: {e}")),
    };
    let cfg = req.config();
    // Hashed once: the probe here, the executor's lookup, the run it files
    // and solve batching all use this key.
    let key = cache_key(&a, &cfg, &shared.cluster);

    // Fast path: serve a cache hit right here, concurrently with
    // whatever the executor is doing (hits never touch driver state).
    let probe = build_request(shared, key, &a, op, &req.rhs, &cfg);
    match probe.submit_cached_only(&shared.cluster) {
        Err(e) => return WireResponse::err(req.id, e.to_string()),
        Ok(Some(out)) => {
            shared.note_served(&req.tenant, op, &out);
            return WireResponse::from_outcome(req.id, &out);
        }
        Ok(None) => {}
    }

    // Cold: admission-check, queue for the executor, wait.
    let (tx, rx) = mpsc::channel();
    {
        let mut queues = shared.queues.lock().expect("queues lock");
        if shared.shutdown.load(Ordering::SeqCst) {
            return WireResponse::err(req.id, "server is shutting down");
        }
        if queues.pending(&req.tenant) >= shared.config.max_queue_per_tenant {
            shared.count("mrinv_service_rejected_total", &req.tenant, op.name());
            return WireResponse::err(
                req.id,
                format!(
                    "tenant {} has {} queued requests (admission limit)",
                    req.tenant, shared.config.max_queue_per_tenant
                ),
            );
        }
        queues.push(QueuedJob {
            tenant: req.tenant.clone(),
            id: req.id,
            op,
            a,
            rhs: req.rhs,
            cfg,
            key,
            resp: tx,
        });
    }
    shared.work.notify_one();
    match rx.recv() {
        Ok(resp) => resp,
        Err(_) => WireResponse::err(req.id, "server dropped the request (shutting down)"),
    }
}

/// The [`Request`] for one wire request against the shared cache, under
/// the `key` already computed for `(a, cfg)` on the shared cluster.
fn build_request<'a>(
    shared: &'a Shared,
    key: CacheKey,
    a: &'a Matrix,
    op: Op,
    rhs: &[Vec<f64>],
    cfg: &InversionConfig,
) -> Request<'a> {
    let req = match op {
        Op::Invert => Request::invert(a),
        Op::Lu => Request::lu(a),
        Op::Solve => Request::solve(a),
    };
    req.rhs_all(rhs.iter().cloned())
        .config(cfg)
        .cache(&shared.cache)
        .keyed(key)
}

/// The single pipeline executor: pops jobs tenant-round-robin, batches
/// same-key solves, runs each cold pipeline alone, answers through the
/// jobs' channels.
fn executor_loop(shared: &Arc<Shared>) {
    loop {
        let (job, batch) = {
            let mut queues = shared.queues.lock().expect("queues lock");
            let job = loop {
                if let Some(job) = queues.pop() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queues = shared.work.wait(queues).expect("queues lock");
            };
            let batch = if job.op == Op::Solve {
                queues.drain_matching_solves(job.key)
            } else {
                Vec::new()
            };
            (job, batch)
        };
        execute_batch(shared, job, batch);
        if shared.shutdown.load(Ordering::SeqCst) {
            // Fail whatever is still queued rather than leaving handler
            // threads blocked on their channels.
            let orphans = {
                let mut queues = shared.queues.lock().expect("queues lock");
                queues.drain_all()
            };
            for job in orphans {
                let _ = job
                    .resp
                    .send(WireResponse::err(job.id, "server is shutting down"));
            }
            return;
        }
    }
}

/// Runs `job` (plus any batched same-key solves) through one pipeline /
/// substitution pass and answers every participant.
fn execute_batch(shared: &Arc<Shared>, job: QueuedJob, batch: Vec<QueuedJob>) {
    // Merge the batch's right-hand sides behind the leader's, remembering
    // each participant's slice.
    let mut rhs = job.rhs.clone();
    let mut spans = vec![(0usize, job.rhs.len())];
    for follower in &batch {
        spans.push((rhs.len(), follower.rhs.len()));
        rhs.extend(follower.rhs.iter().cloned());
    }

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        build_request(shared, job.key, &job.a, job.op, &rhs, &job.cfg).submit(&shared.cluster)
    }));
    let outcome = match outcome {
        Ok(result) => result,
        Err(_) => Err(CoreError::Invariant(
            "request panicked in the pipeline executor".to_string(),
        )),
    };

    match outcome {
        Ok(out) => {
            let participants: Vec<(&QueuedJob, (usize, usize))> = std::iter::once(&job)
                .chain(batch.iter())
                .zip(spans)
                .collect();
            for (member, (start, len)) in participants {
                let mut resp = WireResponse::from_outcome(member.id, &out);
                resp.solutions = out.solutions()[start..start + len].to_vec();
                shared.note_served(&member.tenant, member.op, &out);
                let _ = member.resp.send(resp);
            }
        }
        Err(e) => {
            let message = e.to_string();
            for member in std::iter::once(&job).chain(batch.iter()) {
                let _ = member
                    .resp
                    .send(WireResponse::err(member.id, message.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One frame into a buffer of its own, as a test's raw socket reads it.
    fn read_frame<R: std::io::Read>(stream: &mut R) -> std::io::Result<(u8, Vec<u8>)> {
        let mut body = Vec::new();
        let tag = mrinv_mapreduce::wire::read_frame(stream, &mut body)?;
        Ok((tag, body))
    }

    /// A key standing for the `k`-th distinct matrix.
    fn key(k: u64) -> CacheKey {
        CacheKey {
            order: 2,
            digest: [k, 0],
            config: 0,
        }
    }

    fn job(tenant: &str, id: u64, op: Op, k: u64) -> (QueuedJob, mpsc::Receiver<WireResponse>) {
        let (tx, rx) = mpsc::channel();
        (
            QueuedJob {
                tenant: tenant.to_string(),
                id,
                op,
                a: Matrix::identity(2),
                rhs: Vec::new(),
                cfg: InversionConfig::with_nb(1),
                key: key(k),
                resp: tx,
            },
            rx,
        )
    }

    #[test]
    fn queues_drain_round_robin_across_tenants() {
        let mut q = Queues::default();
        for i in 0..3 {
            q.push(job("alice", i, Op::Invert, 0).0);
        }
        q.push(job("bob", 10, Op::Invert, 0).0);
        let order: Vec<(String, u64)> = std::iter::from_fn(|| q.pop())
            .map(|j| (j.tenant, j.id))
            .collect();
        // Bob's single request is served second, not fourth.
        assert_eq!(
            order,
            vec![
                ("alice".to_string(), 0),
                ("bob".to_string(), 10),
                ("alice".to_string(), 1),
                ("alice".to_string(), 2),
            ]
        );
    }

    #[test]
    fn solve_batching_drains_same_key_only() {
        let mut q = Queues::default();
        q.push(job("a", 1, Op::Solve, 42).0);
        q.push(job("b", 2, Op::Solve, 42).0);
        q.push(job("b", 3, Op::Solve, 7).0);
        q.push(job("c", 4, Op::Invert, 42).0);
        let leader = q.pop().unwrap();
        assert_eq!(leader.id, 1);
        let batch = q.drain_matching_solves(key(42));
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].id, 2);
        // The different-key solve and the invert stay queued.
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|j| j.id).collect();
        assert_eq!(rest.len(), 2);
        assert!(rest.contains(&3) && rest.contains(&4));
    }

    /// A drained tenant leaves nothing behind, whichever way its queue
    /// emptied: popped by the executor or batch-drained behind a leader.
    #[test]
    fn drained_tenants_leave_no_queue_behind() {
        let mut q = Queues::default();
        for i in 0..1000u64 {
            let tenant = format!("tenant-{i}");
            if i % 2 == 0 {
                q.push(job(&tenant, i, Op::Invert, 0).0);
                assert_eq!(q.pop().map(|j| j.id), Some(i));
            } else {
                q.push(job(&tenant, i, Op::Solve, i).0);
                assert_eq!(q.drain_matching_solves(key(i)).len(), 1);
            }
            assert_eq!(q.pending(&tenant), 0);
        }
        assert!(
            q.tenants.is_empty(),
            "{} empty queues kept",
            q.tenants.len()
        );
        assert!(
            q.rr.is_empty(),
            "{} tenants left in the rotation",
            q.rr.len()
        );
        assert!(q.pop().is_none());
    }

    #[test]
    fn connection_bookkeeping_is_bounded_by_live_connections() {
        use std::io::Read;
        let cluster = Arc::new(Cluster::medium(1));
        let server = ServerHandle::start(cluster, ServiceConfig::default()).unwrap();
        // One whole connection lifetime: a frame with an unknown tag makes
        // the handler hang up, and reading to EOF waits for that.
        let cycle = || {
            let mut client = TcpStream::connect(server.addr()).unwrap();
            write_frame(&mut client, 0xFF, &[]).unwrap();
            assert_eq!(client.read_to_end(&mut Vec::new()).unwrap(), 0);
        };
        let tracked = || server.shared.conns.lock().unwrap().len();
        for _ in 0..200 {
            cycle();
        }
        // Each accept reaps the handlers that have finished. A handler
        // thread exits just *after* its client sees EOF, so keep cycling
        // until the last few are reaped too.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while tracked() > 2 {
            let now = std::time::Instant::now();
            assert!(
                now < deadline,
                "{} entries for 0 live connections",
                tracked()
            );
            cycle();
        }
    }

    #[test]
    fn wire_structs_round_trip() {
        let req = WireRequest {
            tenant: "t".to_string(),
            id: 9,
            op: WireOp::Solve,
            a: encode_binary_vec(&Matrix::identity(3)),
            rhs: vec![vec![1.0, 2.0, 3.0]],
            nb: 2,
            separate_intermediate_files: true,
            block_wrap: false,
            transpose_u: true,
        };
        let back = bincode::deserialize::<WireRequest>(&bincode::serialize(&req)).unwrap();
        assert_eq!(back.tenant, "t");
        assert_eq!(back.op, WireOp::Solve);
        assert_eq!(back.rhs, req.rhs);
        assert_eq!(back.config().nb, 2);
        assert!(back.config().opts.separate_intermediate_files);
        assert!(!back.config().opts.block_wrap);

        let resp = WireResponse::err(9, "nope");
        let back = bincode::deserialize::<WireResponse>(&bincode::serialize(&resp)).unwrap();
        assert!(!back.ok);
        assert_eq!(back.id, 9);
        assert_eq!(back.error, "nope");
    }

    #[test]
    fn frames_cost_their_payload() {
        let m = mrinv_matrix::random::random_matrix(256, 256, 7);
        let payload = encode_binary_vec(&m);
        let request = bincode::serialize(&WireRequest {
            tenant: "t".to_string(),
            id: 1,
            op: WireOp::Invert,
            a: payload.clone(),
            rhs: Vec::new(),
            nb: 32,
            separate_intermediate_files: true,
            block_wrap: true,
            transpose_u: true,
        });
        assert!(
            request.len() <= payload.len() + 512,
            "request frame is {} bytes for a {}-byte matrix",
            request.len(),
            payload.len()
        );
        let mut resp = WireResponse::err(1, "");
        resp.ok = true;
        resp.inverse = payload.clone();
        let response = bincode::serialize(&resp);
        assert!(
            response.len() <= payload.len() + 512,
            "response frame is {} bytes for a {}-byte inverse",
            response.len(),
            payload.len()
        );
        let back = bincode::deserialize::<WireRequest>(&request).unwrap();
        assert_eq!(back.a, payload);
        let back = bincode::deserialize::<WireResponse>(&response).unwrap();
        assert_eq!(back.inverse, payload);
    }

    #[test]
    fn undecodable_request_is_answered_before_the_hangup() {
        use std::io::Read;
        let cluster = Arc::new(Cluster::medium(1));
        let server = ServerHandle::start(cluster, ServiceConfig::default()).unwrap();
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        // A request frame whose body is no bincode value at all.
        write_frame(&mut raw, TAG_REQUEST, &[42, 1, 2, 3]).unwrap();
        let (tag, body) = read_frame(&mut raw).unwrap();
        assert_eq!(tag, TAG_RESPONSE);
        let resp = bincode::deserialize::<WireResponse>(&body).unwrap();
        assert!(!resp.ok);
        assert_eq!(resp.id, 0);
        assert_eq!(resp.error, "undecodable request: unknown tag byte 42");
        assert_eq!(raw.read_to_end(&mut Vec::new()).unwrap(), 0, "then EOF");

        // A well-formed value of the wrong shape names the field, not its
        // megabyte of contents.
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        let wrong = serde::Value::Object(vec![(
            "tenant".to_string(),
            serde::Value::Bytes(vec![0; 1 << 20]),
        )]);
        write_frame(&mut raw, TAG_REQUEST, &bincode::value_to_bytes(&wrong)).unwrap();
        let (_, body) = read_frame(&mut raw).unwrap();
        let resp = bincode::deserialize::<WireResponse>(&body).unwrap();
        assert_eq!(resp.id, 0);
        assert!(resp
            .error
            .starts_with("undecodable request: field \"tenant\""));
        assert!(resp.error.len() < 200, "{} bytes", resp.error.len());
    }

    #[test]
    fn client_reports_an_id_zero_error_as_the_server_error_it_is() {
        // A peer that cannot read the client's frames (a server predating
        // the packed byte node answers exactly this) and hangs up.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let old_server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let (tag, _) = read_frame(&mut stream).unwrap();
            assert_eq!(tag, TAG_REQUEST);
            let resp = WireResponse::err(0, "undecodable request: unknown tag byte 9");
            write_frame(&mut stream, TAG_RESPONSE, &bincode::serialize(&resp)).unwrap();
        });
        let mut client = crate::client::ServiceClient::connect(&addr, "t").unwrap();
        let err = client
            .invert(&Matrix::identity(2), &InversionConfig::with_nb(1))
            .unwrap_err()
            .to_string();
        old_server.join().unwrap();
        assert!(
            err.contains("server error: undecodable request: unknown tag byte 9"),
            "{err}"
        );
        assert!(!err.contains("response id"), "{err}");
    }

    /// Asks a fake server for the LU factors of a 2×2 matrix; it answers
    /// with `l`, `u` and `perm` under the request's id.
    fn lu_from_fake_server(
        l: &Matrix,
        u: &Matrix,
        perm: Vec<u64>,
    ) -> Result<crate::client::ServiceReply> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut resp = WireResponse::err(0, "");
        resp.ok = true;
        resp.l = encode_binary_vec(l);
        resp.u = encode_binary_vec(u);
        resp.perm = perm;
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let (tag, body) = read_frame(&mut stream).unwrap();
            assert_eq!(tag, TAG_REQUEST);
            resp.id = bincode::deserialize::<WireRequest>(&body).unwrap().id;
            write_frame(&mut stream, TAG_RESPONSE, &bincode::serialize(&resp)).unwrap();
        });
        let mut client = crate::client::ServiceClient::connect(&addr, "t").unwrap();
        let reply = client.lu(&Matrix::identity(2), &InversionConfig::with_nb(1));
        server.join().unwrap();
        reply
    }

    #[test]
    fn client_rejects_pivots_that_are_not_a_permutation() {
        let i2 = Matrix::identity(2);
        let good = lu_from_fake_server(&i2, &i2, vec![1, 0]).unwrap();
        assert_eq!(good.factors.unwrap().perm.as_slice(), &[1, 0]);
        for perm in [vec![0, 0], vec![0, 2], vec![u64::MAX, 0]] {
            let err = lu_from_fake_server(&i2, &i2, perm.clone()).unwrap_err();
            assert!(
                matches!(
                    err,
                    CoreError::Matrix(mrinv_matrix::MatrixError::NotAPermutation { .. })
                ),
                "{perm:?}: {err}"
            );
        }
    }

    #[test]
    fn client_rejects_factors_and_pivots_of_different_orders() {
        let (i2, i3) = (Matrix::identity(2), Matrix::identity(3));
        for (l, u, perm) in [
            (&i2, &i3, vec![1, 0]),
            (&i3, &i2, vec![2, 1, 0]),
            (&i2, &i2, vec![0]),
            (&i2, &i2, vec![2, 1, 0]),
        ] {
            let err = lu_from_fake_server(l, u, perm).unwrap_err().to_string();
            assert!(err.contains("lu reply: L is"), "{err}");
        }
        let wide = Matrix::zeros(2, 3);
        let err = lu_from_fake_server(&wide, &i2, vec![1, 0]).unwrap_err();
        assert!(matches!(err, CoreError::Matrix(_)), "{err}");
    }
}
