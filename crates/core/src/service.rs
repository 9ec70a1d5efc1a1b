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
//! Three optional keys ride in those objects beside the structs' fields,
//! each written only when it is used; a frame without them is exactly the
//! struct's bytes, and the derived decoders skip keys they do not know,
//! so an older peer reads a newer frame:
//!
//! | dir | key        | value                | meaning                                   |
//! |-----|------------|----------------------|-------------------------------------------|
//! | →   | `name`     | `[order, d0, d1]`    | the matrix, by name; `a` is empty         |
//! | ←   | `admitted` | `[order, d0, d1]`    | the name this full request now stands for |
//! | ←   | `resend`   | `true` (`ok: false`) | the name is not bound here: send `a`      |
//!
//! # Names
//!
//! A name is a matrix's order and the 128-bit digest of its words, the
//! matrix half of its [`CacheKey`]. The server never takes one on trust:
//! it admits a name only for a full request on this connection that it
//! answered, computes the name from the matrix itself, binds it — per
//! tenant and `nb`, the rest of the key — to the cache entry that
//! answered (a `Weak` pointer, compared by address), and echoes it as
//! `admitted`. A later request on the connection that carries the name
//! instead of `a`, under the same `nb` and whatever its optimization
//! toggles, is answered from that entry, through the same lookup and
//! answer tail as a full hit; under another `nb` it gets `resend`. If the
//! key no longer finds an entry, finds a different one (it was replaced),
//! or the entry lost a file or lacks what the operation needs, the reply
//! is `resend` and the client sends the request in full once. A name sent
//! on a connection, or by a tenant, that never uploaded it gets `resend`
//! too — never an answer. The client stores a name only when the server's
//! echo equals its own digest, so it never names a matrix to a server that
//! predates names. Each end keeps at most `NAMES` (64) names per
//! connection and forgets the least recently used first. The full request that admits a name is where an answer's
//! certificate has one place to run.
//!
//! # What a frame costs
//!
//! A matrix crosses as the binary codec's bytes (20-byte header + 8 bytes
//! per element) inside one packed bincode byte node (tag 9: 9 bytes of
//! overhead per matrix), so a frame is its payload plus a few hundred bytes
//! of field names and scalars — 1.0004 wire bytes per payload byte at
//! n = 256, pinned by `frames_cost_their_payload` below. `rhs` /
//! `solutions` are plain `f64` arrays at 9 bytes per 8. A named request
//! carries no matrix: a warm n = 256 solve is ~2.6 KB from client to
//! server — its right-hand side and ~300 bytes of keys and scalars —
//! where the full request is ~527 KB.
//!
//! In memory, a matrix is copied only where it is received. Both ends
//! speak through this module's frame codec: `encode_request` /
//! `encode_response` write a frame node by node from borrowed parts into
//! the connection's frame buffer — all of it but a matrix's elements,
//! which they return as [`Splice`]s lent from the caller's `&Matrix` or
//! the `&Outcome` the cache or the executor produced
//! ([`encode_binary_lending`]) — and [`write_spliced_frame`] sends buffer
//! and splices in one vectored write, so a served inverse goes to the
//! socket from the cache entry's own memory. [`RequestView`] /
//! [`ResponseView`] read a frame into a view whose matrix fields are
//! slices of it, which [`decode_binary`] turns once into the `Matrix` the
//! receiver keeps. The bytes are exactly what `bincode::serialize` gives
//! the equivalent [`WireRequest`] / [`WireResponse`]; those structs stay
//! as the protocol's reference. The frame buffer is not a fresh one: each
//! connection — this server's handler and
//! [`crate::client::ServiceClient`] alike — reads every frame into one
//! buffer and writes every frame's non-matrix bytes into it, so in the
//! steady state a frame allocates nothing, and a connection retains
//! capacity for its largest received frame until it closes. Measured with
//! a counting allocator at n = 256 (`tests/alloc_budget.rs`), a warm named
//! invert allocates about 1 matrix-sized buffer across both sides (the
//! client's inverse), a warm named solve about a tenth of one; a full
//! request adds the server's decoded `a`. Splicing changed none of those
//! counts — the copy it removed went into a buffer already retained — but
//! it took a ~527 KB memcpy off every warm invert's reply.
//!
//! Copies matter beyond their memcpy. When the client still built a
//! matrix-sized byte vector, bincode's value tree and an owned `inverse`
//! field per request, freeing them left more than glibc's trim threshold
//! (twice the dynamic mmap threshold, ~1 MB once a 512 KB block has been
//! freed) at the top of the heap, so glibc returned it to the kernel and
//! the next request faulted it back in: 214–224 minor page faults per warm
//! n = 256 invert on a client on the process's main thread, now 0
//! (`tests/warm_faults.rs` bounds them).
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
//! # Admission control and fairness
//!
//! Each tenant owns a bounded FIFO queue
//! ([`ServiceConfig::max_queue_per_tenant`]); a request arriving at a
//! full queue is rejected immediately rather than admitted and starved.
//! The executor drains queues tenant-round-robin, so one tenant
//! submitting a thousand requests cannot lock out another submitting
//! one. Every queued job is one request and gets one answer: the
//! executor submits it through [`Request::submit`], which probes the
//! cache first, so a job queued behind the one that factors its matrix
//! is answered from that factorization, as a cache hit that runs no job.
//!
//! # One key, bounded series
//!
//! [`cache_key`] reads every word of the matrix once (a 128-bit digest,
//! see [`crate::cache`]), so a full request computes it exactly once, on
//! arrival; the handler's cache probe, the queued job, the executor's
//! submit and the name it admits all carry that [`CacheKey`].
//! A named request hashes nothing: its key was computed at admission. The
//! service's metric series are keyed by tenant and operation only — there
//! is no per-request label — so a long-running server's series count is
//! bounded by who talks to it, not by how much.

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;

use mrinv_mapreduce::obs::Labels;
use mrinv_mapreduce::wire::{read_frame, write_spliced_frame, Splice};
use mrinv_mapreduce::Cluster;
use mrinv_matrix::io::{binary_size, decode_binary, encode_binary_lending};
use mrinv_matrix::Matrix;
use serde::{Deserialize, Serialize, Value};

use crate::cache::{cache_key, CacheKey, CacheStats, FactorCache, Factorization, Name};
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

// ---- The frame codec -----------------------------------------------------

/// An upper bound on a frame buffer's bytes beyond its vectors' items and
/// its strings: the field names, node headers and scalars of either frame
/// and its matrices' 20-byte codec headers (under 400 bytes;
/// `frames_cost_their_payload` pins 512). Reserved up front with the
/// rest, so no field write has to grow the buffer. A matrix's elements
/// are not among them: they are spliced in as the frame is written.
const FIXED_BYTES: usize = 512;

/// One object field whose value bincode writes as `value`'s [`Serialize`]
/// tree: the scalars and strings.
fn field<T: Serialize + ?Sized>(frame: &mut Vec<u8>, key: &str, value: &T) {
    bincode::write_key(frame, key);
    bincode::serialize_into(frame, value);
}

/// Bytes of `m`'s binary encoding; none for an absent matrix.
fn matrix_len(m: Option<&Matrix>) -> usize {
    m.map_or(0, |m| binary_size(m.rows(), m.cols()) as usize)
}

/// A byte field holding `m`'s binary encoding: its headers go into the
/// frame, and its elements are returned as the splice that follows them,
/// lent from the matrix. An absent matrix is the empty byte string, and
/// an empty splice.
fn matrix_field<'m>(frame: &mut Vec<u8>, key: &str, m: Option<&'m Matrix>) -> Splice<'m> {
    bincode::write_key(frame, key);
    bincode::write_bytes_header(frame, matrix_len(m));
    let elements = m.map(|m| encode_binary_lending(frame, m.rows(), m.cols(), m.as_slice()));
    Splice::new(frame.len(), elements.unwrap_or_default())
}

/// Bytes of the array nodes [`vectors_field`] writes for `vectors`' items.
fn vectors_len(vectors: &[Vec<f64>]) -> usize {
    vectors.iter().map(|v| 9 + 9 * v.len()).sum()
}

/// A `Vec<Vec<f64>>` field, written from the borrowed vectors.
fn vectors_field(frame: &mut Vec<u8>, key: &str, vectors: &[Vec<f64>]) {
    bincode::write_key(frame, key);
    bincode::write_array_header(frame, vectors.len());
    for v in vectors {
        bincode::write_array_header(frame, v.len());
        for x in v {
            bincode::serialize_into(frame, x);
        }
    }
}

/// A `[order, d0, d1]` field.
fn name_field(frame: &mut Vec<u8>, key: &str, name: &Name) {
    bincode::write_key(frame, key);
    bincode::write_array_header(frame, name.len());
    for word in name {
        bincode::serialize_into(frame, word);
    }
}

/// What a request frame carries for its matrix.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Operand<'a> {
    /// The matrix, in `a`.
    Matrix(&'a Matrix),
    /// Its name, in `name`, with `a` empty.
    Named(Name),
}

/// Appends a request frame's body to `frame`, less `a`'s elements, which
/// are returned as the splice that completes it: with them, the bytes
/// `bincode::serialize` gives the [`WireRequest`] of these parts — or, for
/// a named operand, with `a` empty and the `name` key after the struct's
/// fields.
pub(crate) fn encode_request<'a>(
    frame: &mut Vec<u8>,
    tenant: &str,
    id: u64,
    op: WireOp,
    operand: Operand<'a>,
    rhs: &[Vec<f64>],
    cfg: &InversionConfig,
) -> Splice<'a> {
    let (a, name) = match operand {
        Operand::Matrix(a) => (Some(a), None),
        Operand::Named(name) => (None, Some(name)),
    };
    // `a`'s elements are spliced, but the buffer is still reserved for
    // them: the reply is read into it, and an invert's or an LU's reply
    // carries as large a matrix. One exact reservation spares the
    // reader's doubling growth, whose freed blocks stay in the heap and
    // raise the client's peak RSS.
    frame.reserve(FIXED_BYTES + tenant.len() + matrix_len(a) + vectors_len(rhs));
    bincode::write_object_header(frame, 9 + usize::from(name.is_some()));
    field(frame, "tenant", tenant);
    field(frame, "id", &id);
    field(frame, "op", &op);
    let a = matrix_field(frame, "a", a);
    vectors_field(frame, "rhs", rhs);
    field(frame, "nb", &(cfg.nb as u64));
    let opts = &cfg.opts;
    field(
        frame,
        "separate_intermediate_files",
        &opts.separate_intermediate_files,
    );
    field(frame, "block_wrap", &opts.block_wrap);
    field(frame, "transpose_u", &opts.transpose_u);
    if let Some(name) = name {
        name_field(frame, "name", &name);
    }
    a
}

/// What a response frame says.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reply<'o> {
    /// A served outcome, and the name the request admitted, if it did.
    Served(&'o Outcome, Option<Name>),
    /// An error text.
    Failed(&'o str),
    /// The request's name is not bound on this connection: send it in
    /// full.
    Resend,
}

/// The error text of a [`Reply::Resend`], for a reader that only knows
/// `ok` and `error`.
const RESEND: &str = "this connection holds no matrix under the request's name; send it in full";

/// Appends a response frame's body to `frame`, less the elements of its
/// matrices, which are returned as the splices that complete it, lent
/// from the outcome: with them, the bytes `bincode::serialize` gives the
/// [`WireResponse`] of `reply` under `id`, then the `admitted` or `resend`
/// key when the reply has one.
pub(crate) fn encode_response<'o>(
    frame: &mut Vec<u8>,
    id: u64,
    reply: Reply<'o>,
) -> [Splice<'o>; 3] {
    let (out, error, admitted) = match reply {
        Reply::Served(out, admitted) => (Some(out), "", admitted),
        Reply::Failed(error) => (None, error, None),
        Reply::Resend => (None, RESEND, None),
    };
    let resend = matches!(reply, Reply::Resend);
    let solutions = out.map_or(&[][..], Outcome::solutions);
    let inverse = out.and_then(Outcome::inverse);
    let factors = out.and_then(Outcome::factors);
    let (l, u) = (factors.map(|f| &f.l), factors.map(|f| &f.u));
    let perm = factors.map_or(&[][..], |f| f.perm.as_slice());
    frame.reserve(FIXED_BYTES + error.len() + 9 * perm.len() + vectors_len(solutions));
    let extra = usize::from(admitted.is_some()) + usize::from(resend);
    bincode::write_object_header(frame, 11 + extra);
    field(frame, "id", &id);
    field(frame, "ok", &out.is_some());
    field(frame, "error", error);
    field(
        frame,
        "cache_hit",
        &out.is_some_and(|o| o.cache == CacheStatus::Hit),
    );
    let splices = [
        matrix_field(frame, "inverse", inverse),
        matrix_field(frame, "l", l),
        matrix_field(frame, "u", u),
    ];
    bincode::write_key(frame, "perm");
    bincode::write_array_header(frame, perm.len());
    for &source in perm {
        bincode::serialize_into(frame, &(source as u64));
    }
    vectors_field(frame, "solutions", solutions);
    field(frame, "jobs", &out.map_or(0, |o| o.report.jobs));
    field(frame, "sim_secs", &out.map_or(0.0, |o| o.report.sim_secs));
    if let Some(name) = admitted {
        name_field(frame, "admitted", &name);
    }
    if resend {
        field(frame, "resend", &true);
    }
    splices
}

/// The fields of a frame's root object, each decoded as the wire structs'
/// derived `Deserialize` decodes it, with the same errors.
struct Fields<'v, 'f>(&'v bincode::ValueRef<'f>);

impl<'f> Fields<'_, 'f> {
    fn missing(key: &str) -> bincode::Error {
        bincode::Error(format!("missing field {key:?}"))
    }

    fn named(key: &str, e: serde::DeError) -> bincode::Error {
        bincode::Error(format!("field {key:?}: {}", e.0))
    }

    /// A scalar or vector field, through its owned serde decoding.
    fn get<T: Deserialize>(&self, key: &str) -> std::result::Result<T, bincode::Error> {
        match self.0.get(key) {
            Some(node) => T::from_value(&node.to_value()).map_err(|e| Self::named(key, e)),
            None => T::from_value(&Value::Null).map_err(|_| Self::missing(key)),
        }
    }

    /// A `Vec<Vec<f64>>` field, read straight off the tree when it has
    /// that shape; any other shape goes through [`Fields::get`] for its
    /// error.
    fn vectors(&self, key: &str) -> std::result::Result<Vec<Vec<f64>>, bincode::Error> {
        let number = |x: &bincode::ValueRef<'_>| match x {
            bincode::ValueRef::Number(n) => Value::Number(*n).as_f64(),
            _ => None,
        };
        let direct = match self.0.get(key) {
            Some(bincode::ValueRef::Array(vectors)) => vectors
                .iter()
                .map(|v| match v {
                    bincode::ValueRef::Array(xs) => xs.iter().map(number).collect(),
                    _ => None,
                })
                .collect(),
            _ => None,
        };
        direct.map_or_else(|| self.get(key), Ok)
    }

    /// An optional `[order, d0, d1]` field: absent is `None`; three
    /// numbers of which the order is a square matrix one frame can carry
    /// is the name; anything else is an error.
    fn name(&self, key: &str) -> std::result::Result<Option<Name>, bincode::Error> {
        let Some(words) = self.get::<Option<Vec<u64>>>(key)? else {
            return Ok(None);
        };
        let invalid = |why: String| Self::named(key, serde::DeError(why));
        let name: Name = words
            .try_into()
            .map_err(|w: Vec<u64>| invalid(format!("a name is 3 numbers, not {}", w.len())))?;
        if !(1..=MAX_NAMED_ORDER).contains(&name[0]) {
            return Err(invalid(format!("no matrix of order {} is named", name[0])));
        }
        Ok(Some(name))
    }

    /// A byte field: a slice of the frame, or an owned copy of the
    /// pre-tag-9 array of numbers.
    fn bytes(&self, key: &str) -> std::result::Result<Cow<'f, [u8]>, bincode::Error> {
        let node = self.0.get(key).ok_or_else(|| Self::missing(key))?;
        node.to_bytes().map_err(|e| Self::named(key, e))
    }
}

/// The largest order a name may carry: that of the largest square matrix
/// whose encoding fits in one frame, whose length is a `u32`.
const MAX_NAMED_ORDER: u64 = 23_170;

/// A request frame as the server reads it: [`WireRequest`]'s fields, with
/// the matrix a slice of the frame (an owned copy only from a peer that
/// predates the packed byte node), and the optional `name`.
#[derive(Debug)]
pub struct RequestView<'f> {
    /// [`WireRequest::tenant`].
    pub(crate) tenant: String,
    /// [`WireRequest::id`].
    pub(crate) id: u64,
    /// [`WireRequest::op`].
    pub(crate) op: WireOp,
    /// [`WireRequest::a`].
    pub(crate) a: Cow<'f, [u8]>,
    /// [`WireRequest::rhs`].
    pub(crate) rhs: Vec<Vec<f64>>,
    /// [`WireRequest::nb`].
    pub(crate) nb: u64,
    /// [`WireRequest::separate_intermediate_files`].
    pub(crate) separate_intermediate_files: bool,
    /// [`WireRequest::block_wrap`].
    pub(crate) block_wrap: bool,
    /// [`WireRequest::transpose_u`].
    pub(crate) transpose_u: bool,
    /// The matrix's name, standing in for an empty `a`.
    pub(crate) name: Option<Name>,
}

impl<'f> RequestView<'f> {
    /// Reads a request frame's body, accepting and refusing what
    /// `bincode::deserialize::<WireRequest>` does, with the same errors —
    /// and refusing a malformed `name`, or one beside a non-empty `a`.
    pub fn read(frame: &'f [u8]) -> std::result::Result<RequestView<'f>, bincode::Error> {
        let root = bincode::bytes_to_value_ref(frame)?;
        let fields = Fields(&root);
        let view = RequestView {
            tenant: fields.get("tenant")?,
            id: fields.get("id")?,
            op: fields.get("op")?,
            a: fields.bytes("a")?,
            rhs: fields.vectors("rhs")?,
            nb: fields.get("nb")?,
            separate_intermediate_files: fields.get("separate_intermediate_files")?,
            block_wrap: fields.get("block_wrap")?,
            transpose_u: fields.get("transpose_u")?,
            name: fields.name("name")?,
        };
        if view.name.is_some() && !view.a.is_empty() {
            let why = "a named request carries no matrix".to_string();
            return Err(Fields::named("name", serde::DeError(why)));
        }
        Ok(view)
    }

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

/// A response frame as the client reads it: [`WireResponse`]'s fields,
/// with the matrices slices of the frame (owned copies only from a peer
/// that predates the packed byte node), and the optional `admitted` and
/// `resend`.
#[derive(Debug)]
pub struct ResponseView<'f> {
    /// [`WireResponse::id`].
    pub(crate) id: u64,
    /// [`WireResponse::ok`].
    pub(crate) ok: bool,
    /// [`WireResponse::error`].
    pub(crate) error: String,
    /// [`WireResponse::cache_hit`].
    pub(crate) cache_hit: bool,
    /// [`WireResponse::inverse`].
    pub(crate) inverse: Cow<'f, [u8]>,
    /// [`WireResponse::l`].
    pub(crate) l: Cow<'f, [u8]>,
    /// [`WireResponse::u`].
    pub(crate) u: Cow<'f, [u8]>,
    /// [`WireResponse::perm`].
    pub(crate) perm: Vec<u64>,
    /// [`WireResponse::solutions`].
    pub(crate) solutions: Vec<Vec<f64>>,
    /// [`WireResponse::jobs`].
    pub(crate) jobs: u64,
    /// [`WireResponse::sim_secs`].
    pub(crate) sim_secs: f64,
    /// The name the request admitted.
    pub(crate) admitted: Option<Name>,
    /// Whether the server asks for the request in full.
    pub(crate) resend: bool,
}

impl<'f> ResponseView<'f> {
    /// Reads a response frame's body, accepting and refusing what
    /// `bincode::deserialize::<WireResponse>` does, with the same errors —
    /// and refusing a malformed `admitted` or `resend`.
    pub fn read(frame: &'f [u8]) -> std::result::Result<ResponseView<'f>, bincode::Error> {
        let root = bincode::bytes_to_value_ref(frame)?;
        let fields = Fields(&root);
        Ok(ResponseView {
            id: fields.get("id")?,
            ok: fields.get("ok")?,
            error: fields.get("error")?,
            cache_hit: fields.get("cache_hit")?,
            inverse: fields.bytes("inverse")?,
            l: fields.bytes("l")?,
            u: fields.bytes("u")?,
            perm: fields.get("perm")?,
            solutions: fields.vectors("solutions")?,
            jobs: fields.get("jobs")?,
            sim_secs: fields.get("sim_secs")?,
            admitted: fields.name("admitted")?,
            resend: fields.get::<Option<bool>>("resend")?.unwrap_or(false),
        })
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

/// The most names either end of a connection keeps: a constant, not a
/// knob. Past it the least recently used name is forgotten, and its next
/// request goes (or is asked for) in full.
pub(crate) const NAMES: usize = 64;

/// One end's table of a connection's names: at most [`NAMES`] entries,
/// the least recently used evicted first. Lookups take a predicate, so a
/// key with a borrowed part needs no allocation to look for.
#[derive(Debug)]
pub(crate) struct Names<K, V> {
    /// Least recently used first.
    entries: Vec<(K, V)>,
}

impl<K: PartialEq, V> Names<K, V> {
    pub(crate) fn new() -> Self {
        Names {
            entries: Vec::with_capacity(NAMES),
        }
    }

    /// The entry whose key `is` accepts, now the most recently used.
    pub(crate) fn find(&mut self, is: impl Fn(&K) -> bool) -> Option<&(K, V)> {
        let i = self.entries.iter().position(|(k, _)| is(k))?;
        self.entries[i..].rotate_left(1);
        self.entries.last()
    }

    /// Files `value` under `key` as the most recently used, forgetting the
    /// least recently used when the table is full.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        self.forget(|k| *k == key);
        if self.entries.len() == NAMES {
            self.entries.remove(0);
        }
        self.entries.push((key, value));
    }

    /// Forgets the key `is` accepts.
    pub(crate) fn forget(&mut self, is: impl Fn(&K) -> bool) {
        self.entries.retain(|(k, _)| !is(k));
    }
}

/// The server's table: per tenant, the key a name was admitted under (its
/// name and `nb`) and the entry that answered then.
type ServerNames = Names<(String, CacheKey), Weak<Factorization>>;

/// How the handler answers one request.
enum Verdict {
    /// A served outcome, and the name the request admitted.
    Served(Box<Outcome>, Option<Name>),
    /// An error text.
    Failed(String),
    /// The request's name is not bound here.
    Resend,
}

/// A cold request parked for the executor.
struct QueuedJob {
    tenant: String,
    op: Op,
    a: Matrix,
    rhs: Vec<Vec<f64>>,
    cfg: InversionConfig,
    key: CacheKey,
    resp: mpsc::Sender<Answer>,
}

/// What a request's reply is written from: its outcome, or the error text.
type Answer = std::result::Result<Outcome, String>;

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
    // The names this connection admitted.
    let mut names = ServerNames::new();
    loop {
        let Ok(tag) = read_frame(stream, &mut frame) else {
            return; // EOF, reset, or shutdown
        };
        if tag != TAG_REQUEST {
            return;
        }
        let (id, verdict, hang_up) = match RequestView::read(&frame) {
            Ok(req) => (req.id, serve_request(shared, req, &mut names), false),
            Err(e) => (
                0,
                Verdict::Failed(format!("undecodable request: {}", e.0)),
                true,
            ),
        };
        frame.clear();
        let reply = match &verdict {
            Verdict::Served(out, admitted) => Reply::Served(out, *admitted),
            Verdict::Failed(message) => Reply::Failed(message),
            Verdict::Resend => Reply::Resend,
        };
        let splices = encode_response(&mut frame, id, reply);
        if write_spliced_frame(stream, TAG_RESPONSE, &frame, &splices).is_err() || hang_up {
            return;
        }
    }
}

/// Serves one decoded request: a named one from the entry its name is
/// bound to, a full one from the cache or through the executor — and a
/// served full request admits its matrix's name on this connection.
fn serve_request(shared: &Arc<Shared>, req: RequestView<'_>, names: &mut ServerNames) -> Verdict {
    let op = req.op.op();
    shared.count("mrinv_service_requests_total", &req.tenant, op.name());
    let cfg = req.config();
    if let Some(name) = req.name {
        return serve_named(shared, &req.tenant, name, op, req.rhs, &cfg, names);
    }
    let a = match decode_binary(&req.a) {
        Ok(a) => a,
        Err(e) => return Verdict::Failed(format!("bad matrix: {e}")),
    };
    // Hashed once: the probe here, the executor's lookup, the run it files
    // and the name it admits all use this key.
    let key = cache_key(&a, &cfg, &shared.cluster);
    match serve_full(shared, &req.tenant, op, a, req.rhs, &cfg, key) {
        Ok(out) => {
            let admitted = out.entry().map(|entry| {
                names.insert((req.tenant, key), entry.clone());
                key.name()
            });
            Verdict::Served(Box::new(out), admitted)
        }
        Err(message) => Verdict::Failed(message),
    }
}

/// Serves a named request from the entry its name is bound to under this
/// tenant and `nb`, through the same lookup and answer tail as a full hit;
/// the toggles need not match, as they move no bit of the answer. No
/// binding, or a binding whose entry the cache no longer serves, is a
/// [`Verdict::Resend`].
fn serve_named(
    shared: &Shared,
    tenant: &str,
    name: Name,
    op: Op,
    rhs: Vec<Vec<f64>>,
    cfg: &InversionConfig,
    names: &mut ServerNames,
) -> Verdict {
    let this = |(t, k): &(String, CacheKey)| t == tenant && k.name() == name && k.nb == cfg.nb;
    let Some(((_, key), entry)) = names.find(this) else {
        return Verdict::Resend;
    };
    let named = Request::named(op, *key, entry.clone())
        .rhs_all(rhs)
        .config(cfg)
        .cache(&shared.cache);
    match named.submit_cached_only(&shared.cluster) {
        Ok(Some(out)) => {
            shared.note_served(tenant, op, &out);
            Verdict::Served(Box::new(out), None)
        }
        Ok(None) => {
            names.forget(this);
            Verdict::Resend
        }
        Err(e) => Verdict::Failed(e.to_string()),
    }
}

/// Serves a full request under `key`: a cache hit inline, cold work
/// through the executor queue.
fn serve_full(
    shared: &Arc<Shared>,
    tenant: &str,
    op: Op,
    a: Matrix,
    rhs: Vec<Vec<f64>>,
    cfg: &InversionConfig,
    key: CacheKey,
) -> Answer {
    // Fast path: serve a cache hit right here, concurrently with
    // whatever the executor is doing (hits never touch driver state).
    let probe = build_request(shared, key, &a, op, &rhs, cfg);
    match probe.submit_cached_only(&shared.cluster) {
        Err(e) => return Err(e.to_string()),
        Ok(Some(out)) => {
            shared.note_served(tenant, op, &out);
            return Ok(out);
        }
        Ok(None) => {}
    }

    // Cold: admission-check, queue for the executor, wait.
    let (tx, rx) = mpsc::channel();
    {
        let mut queues = shared.queues.lock().expect("queues lock");
        if shared.shutdown.load(Ordering::SeqCst) {
            return Err("server is shutting down".to_string());
        }
        if queues.pending(tenant) >= shared.config.max_queue_per_tenant {
            shared.count("mrinv_service_rejected_total", tenant, op.name());
            return Err(format!(
                "tenant {tenant} has {} queued requests (admission limit)",
                shared.config.max_queue_per_tenant
            ));
        }
        queues.push(QueuedJob {
            tenant: tenant.to_string(),
            op,
            a,
            rhs,
            cfg: cfg.clone(),
            key,
            resp: tx,
        });
    }
    shared.work.notify_one();
    rx.recv()
        .unwrap_or_else(|_| Err("server dropped the request (shutting down)".to_string()))
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

/// The single pipeline executor: pops jobs tenant-round-robin, runs each
/// alone, answers each through its own channel.
fn executor_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queues = shared.queues.lock().expect("queues lock");
            loop {
                if let Some(job) = queues.pop() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queues = shared.work.wait(queues).expect("queues lock");
            }
        };
        execute(shared, job);
        if shared.shutdown.load(Ordering::SeqCst) {
            // Fail whatever is still queued rather than leaving handler
            // threads blocked on their channels.
            let orphans = {
                let mut queues = shared.queues.lock().expect("queues lock");
                queues.drain_all()
            };
            for job in orphans {
                let _ = job.resp.send(Err("server is shutting down".to_string()));
            }
            return;
        }
    }
}

/// Submits `job`: a cache hit if a job before it filed its matrix, a
/// pipeline run otherwise. A panic is answered as an error.
fn execute(shared: &Arc<Shared>, job: QueuedJob) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        build_request(shared, job.key, &job.a, job.op, &job.rhs, &job.cfg).submit(&shared.cluster)
    }));
    let outcome = match outcome {
        Ok(result) => result,
        Err(_) => Err(CoreError::Invariant(
            "request panicked in the pipeline executor".to_string(),
        )),
    };
    let answer = match outcome {
        Ok(out) => {
            shared.note_served(&job.tenant, job.op, &out);
            Ok(out)
        }
        Err(e) => Err(e.to_string()),
    };
    let _ = job.resp.send(answer);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::FactorCache;
    use mrinv_mapreduce::wire::write_frame;
    use mrinv_matrix::io::encode_binary_vec;
    use mrinv_matrix::random::{random_matrix, random_well_conditioned};
    use proptest::prelude::*;

    impl WireResponse {
        /// An error response, as the server's codec writes one.
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
    }

    /// One frame into a buffer of its own, as a test's raw socket reads it.
    fn read_frame<R: std::io::Read>(stream: &mut R) -> std::io::Result<(u8, Vec<u8>)> {
        let mut body = Vec::new();
        let tag = mrinv_mapreduce::wire::read_frame(stream, &mut body)?;
        Ok((tag, body))
    }

    /// The body a frame buffer and its splices put on the wire.
    fn sent(frame: &[u8], splices: &[Splice<'_>]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_spliced_frame(&mut wire, TAG_RESPONSE, frame, splices).unwrap();
        read_frame(&mut wire.as_slice()).unwrap().1
    }

    /// A queued invert, told apart from the others by [`id`].
    fn job(tenant: &str, id: u64) -> QueuedJob {
        QueuedJob {
            tenant: tenant.to_string(),
            op: Op::Invert,
            a: Matrix::from_vec(1, 1, vec![id as f64]).unwrap(),
            rhs: Vec::new(),
            cfg: InversionConfig::with_nb(1),
            key: CacheKey {
                order: 1,
                digest: [id, 0],
                nb: 1,
            },
            resp: mpsc::channel().0,
        }
    }

    /// The `id` a test [`job`] was made with.
    fn id(job: &QueuedJob) -> u64 {
        job.a[(0, 0)] as u64
    }

    #[test]
    fn queues_drain_round_robin_across_tenants() {
        let mut q = Queues::default();
        for i in 0..3 {
            q.push(job("alice", i));
        }
        q.push(job("bob", 10));
        let order: Vec<(u64, String)> = std::iter::from_fn(|| q.pop())
            .map(|j| (id(&j), j.tenant))
            .collect();
        // Bob's single request is served second, not fourth.
        assert_eq!(
            order,
            vec![
                (0, "alice".to_string()),
                (10, "bob".to_string()),
                (1, "alice".to_string()),
                (2, "alice".to_string()),
            ]
        );
    }

    /// A tenant the executor drained leaves nothing behind.
    #[test]
    fn drained_tenants_leave_no_queue_behind() {
        let mut q = Queues::default();
        for i in 0..1000u64 {
            let tenant = format!("tenant-{i}");
            q.push(job(&tenant, i));
            assert_eq!(q.pop().map(|j| id(&j)), Some(i));
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
        let frame = bincode::serialize(&req);
        let back = RequestView::read(&frame).unwrap();
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

    /// `value` with every byte string in the shape a peer built before the
    /// packed byte node sends it: an array of one number per byte.
    fn legacy(value: Value) -> Value {
        match value {
            Value::Bytes(bytes) => Value::Array(
                bytes
                    .into_iter()
                    .map(|b| Value::Number(serde::Number::U(b.into())))
                    .collect(),
            ),
            Value::Object(fields) => {
                Value::Object(fields.into_iter().map(|(k, v)| (k, legacy(v))).collect())
            }
            other => other,
        }
    }

    /// The frame a struct serializes to, and its pre-tag-9 shape.
    fn both_shapes<T: Serialize>(reference: &T) -> [Vec<u8>; 2] {
        [
            bincode::serialize(reference),
            bincode::value_to_bytes(&legacy(reference.to_value())),
        ]
    }

    /// Vectors compared by their bits, so a NaN equals itself.
    fn bits(vectors: &[Vec<f64>]) -> Vec<Vec<u64>> {
        vectors
            .iter()
            .map(|v| v.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The request codec writes exactly what `bincode::serialize` gives
        /// the equivalent `WireRequest`, and the server's view reads every
        /// struct-serialized request, legacy byte arrays included, back to
        /// the same fields.
        #[test]
        fn request_frames_are_the_structs_bytes(
            ((rows, cols, seed), tenant, id, op, rhs, nb, flags) in (
                (0usize..5, 0usize..5, any::<u64>()),
                "[a-z_é]{0,12}",
                any::<u64>(),
                0usize..3,
                prop::collection::vec(
                    prop::collection::vec(any::<u64>().prop_map(f64::from_bits), 0..5usize),
                    0..3usize,
                ),
                1usize..64,
                0u8..8,
            )
        ) {
            // Arbitrary bits: NaNs, infinities and -0.0 turn up.
            let values = (0..rows * cols)
                .map(|i| f64::from_bits(seed.wrapping_mul(2 * i as u64 + 1)))
                .collect();
            let a = Matrix::from_vec(rows, cols, values).unwrap();
            let op = [WireOp::Invert, WireOp::Lu, WireOp::Solve][op];
            let cfg = InversionConfig {
                nb,
                opts: Optimizations {
                    separate_intermediate_files: flags & 1 != 0,
                    block_wrap: flags & 2 != 0,
                    transpose_u: flags & 4 != 0,
                },
            };
            let reference = WireRequest {
                tenant: tenant.clone(),
                id,
                op,
                a: encode_binary_vec(&a),
                rhs: rhs.clone(),
                nb: nb as u64,
                separate_intermediate_files: cfg.opts.separate_intermediate_files,
                block_wrap: cfg.opts.block_wrap,
                transpose_u: cfg.opts.transpose_u,
            };
            // The codec appends, after whatever the buffer holds.
            let mut frame = vec![0xA5];
            let splice = encode_request(&mut frame, &tenant, id, op, Operand::Matrix(&a), &rhs, &cfg);
            let [bytes, old] = both_shapes(&reference);
            prop_assert_eq!(&sent(&frame, &[splice])[1..], &bytes[..]);
            for frame in [bytes, old] {
                let view = RequestView::read(&frame).unwrap();
                prop_assert_eq!(&view.tenant, &tenant);
                prop_assert_eq!((view.id, view.op, view.nb), (id, op, nb as u64));
                prop_assert_eq!(&*view.a, &reference.a[..]);
                prop_assert_eq!(bits(&view.rhs), bits(&rhs));
                let opts = &view.config().opts;
                prop_assert_eq!(opts, &cfg.opts);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The response codec writes exactly what `bincode::serialize` gives
        /// the `WireResponse` of the same outcome — inverse, factors,
        /// solutions, cold or from the cache — or of the same error, and the client's view reads every
        /// struct-serialized response, legacy byte arrays included, back to
        /// the same fields.
        #[test]
        fn response_frames_are_the_structs_bytes(
            (n, nb, op, k, seed, hit, id, error) in (
                1usize..9,
                1usize..9,
                0usize..3,
                0usize..4,
                any::<u64>(),
                any::<bool>(),
                any::<u64>(),
                "[a-z é]{0,24}",
            )
        ) {
            let (cluster, cache) = (Cluster::medium(2), FactorCache::new());
            let a = random_well_conditioned(n, seed);
            let k = if op == 2 { k.max(1) } else { k };
            let rhs: Vec<Vec<f64>> =
                (0..k).map(|i| random_matrix(n, 1, seed ^ i as u64).into_vec()).collect();
            let run = || {
                let req = [Request::invert, Request::lu, Request::solve][op](&a);
                req.rhs_all(rhs.iter().cloned()).nb(nb).cache(&cache).submit(&cluster).unwrap()
            };
            let mut out = run();
            if hit {
                out = run();
                prop_assert_eq!(out.cache, CacheStatus::Hit);
            }
            let factors = out.factors();
            let served = WireResponse {
                id,
                ok: true,
                error: String::new(),
                cache_hit: out.cache == CacheStatus::Hit,
                inverse: out.inverse().map(encode_binary_vec).unwrap_or_default(),
                l: factors.map(|f| encode_binary_vec(&f.l)).unwrap_or_default(),
                u: factors.map(|f| encode_binary_vec(&f.u)).unwrap_or_default(),
                perm: factors.map_or(Vec::new(), |f| {
                    f.perm.as_slice().iter().map(|&s| s as u64).collect()
                }),
                solutions: out.solutions().to_vec(),
                jobs: out.report.jobs,
                sim_secs: out.report.sim_secs,
            };
            let failed = WireResponse::err(id, error.clone());
            let replies = [
                (Reply::Served(&out, None), &served),
                (Reply::Failed(error.as_str()), &failed),
            ];
            for (reply, reference) in replies {
                let mut frame = vec![0xA5];
                let splices = encode_response(&mut frame, id, reply);
                let [bytes, old] = both_shapes(reference);
                prop_assert_eq!(&sent(&frame, &splices)[1..], &bytes[..]);
                for frame in [bytes, old] {
                    let view = ResponseView::read(&frame).unwrap();
                    prop_assert_eq!(
                        (view.id, view.ok, view.cache_hit, view.jobs),
                        (reference.id, reference.ok, reference.cache_hit, reference.jobs)
                    );
                    prop_assert_eq!(view.sim_secs.to_bits(), reference.sim_secs.to_bits());
                    prop_assert_eq!(&view.error, &reference.error);
                    prop_assert_eq!(&*view.inverse, &reference.inverse[..]);
                    prop_assert_eq!(&*view.l, &reference.l[..]);
                    prop_assert_eq!(&*view.u, &reference.u[..]);
                    prop_assert_eq!(&view.perm, &reference.perm);
                    prop_assert_eq!(bits(&view.solutions), bits(&reference.solutions));
                }
            }
        }
    }

    /// A named request is the struct's fields with `a` empty, plus `name`:
    /// an older reader decodes it (and finds no matrix), the view reads the
    /// name back. A reply's `admitted` and `resend` ride the same way.
    #[test]
    fn named_frames_carry_their_keys_beside_the_structs_fields() {
        let name = [3, u64::MAX, 7];
        let cfg = InversionConfig::with_nb(2);
        let rhs = vec![vec![1.0, -0.0, f64::NAN]];
        let mut frame = Vec::new();
        let splice = encode_request(
            &mut frame,
            "t",
            5,
            WireOp::Solve,
            Operand::Named(name),
            &rhs,
            &cfg,
        );
        assert!(splice.bytes.is_empty(), "a named request carries no matrix");
        let old = bincode::deserialize::<WireRequest>(&frame).unwrap();
        assert_eq!((old.id, old.op, old.nb), (5, WireOp::Solve, 2));
        assert!(old.a.is_empty());
        let view = RequestView::read(&frame).unwrap();
        assert_eq!(view.name, Some(name));
        assert_eq!(bits(&view.rhs), bits(&rhs));
        let mut full = Vec::new();
        let a = Matrix::identity(3);
        let splice = encode_request(
            &mut full,
            "t",
            5,
            WireOp::Solve,
            Operand::Matrix(&a),
            &rhs,
            &cfg,
        );
        assert_eq!(
            RequestView::read(&sent(&full, &[splice])).unwrap().name,
            None
        );

        let (cluster, cache) = (Cluster::medium(2), FactorCache::new());
        let out = Request::invert(&a)
            .nb(1)
            .cache(&cache)
            .submit(&cluster)
            .unwrap();
        for (reply, admitted, resend) in [
            (Reply::Served(&out, Some(name)), Some(name), false),
            (Reply::Served(&out, None), None, false),
            (Reply::Failed("no"), None, false),
            (Reply::Resend, None, true),
        ] {
            frame.clear();
            let splices = encode_response(&mut frame, 9, reply);
            let body = sent(&frame, &splices);
            let old = bincode::deserialize::<WireResponse>(&body).unwrap();
            assert_eq!(old.ok, matches!(reply, Reply::Served(..)));
            let view = ResponseView::read(&body).unwrap();
            assert_eq!((view.id, view.admitted, view.resend), (9, admitted, resend));
            assert!(frame.len() <= FIXED_BYTES + old.error.len());
        }
    }

    /// A served matrix never enters the frame buffer: the buffer holds the
    /// field names, scalars and codec headers, and the elements are
    /// spliced from the outcome's own memory.
    #[test]
    fn a_served_matrix_stays_out_of_the_frame_buffer() {
        let (cluster, cache) = (Cluster::medium(2), FactorCache::new());
        let a = random_well_conditioned(64, 3);
        for request in [Request::invert, Request::lu] {
            let out = request(&a).nb(16).cache(&cache).submit(&cluster).unwrap();
            let mut frame = Vec::new();
            let splices = encode_response(&mut frame, 1, Reply::Served(&out, None));
            assert!(frame.len() < 1024, "{} bytes in the buffer", frame.len());
            let lent = [
                out.inverse(),
                out.factors().map(|f| &f.l),
                out.factors().map(|f| &f.u),
            ];
            for (splice, m) in splices.iter().zip(lent) {
                let elements = m.map_or(&[][..], |m| m.as_slice());
                assert_eq!(splice.bytes.len(), 8 * elements.len());
                if cfg!(target_endian = "little") && !elements.is_empty() {
                    assert_eq!(splice.bytes.as_ptr(), elements.as_ptr().cast::<u8>());
                }
            }
        }
    }

    /// A client that sends a full n = 256 invert and hangs up without
    /// reading the reply costs the server its handler and nothing else.
    #[test]
    fn a_client_that_hangs_up_mid_reply_ends_only_its_handler() {
        let cluster = Arc::new(Cluster::medium(1));
        let server = ServerHandle::start(cluster, ServiceConfig::default()).unwrap();
        let (a, cfg) = (
            random_well_conditioned(256, 5),
            InversionConfig::with_nb(64),
        );
        let mut frame = Vec::new();
        let splice = encode_request(
            &mut frame,
            "t",
            1,
            WireOp::Invert,
            Operand::Matrix(&a),
            &[],
            &cfg,
        );
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        write_spliced_frame(&mut raw, TAG_REQUEST, &frame, &[splice]).unwrap();
        drop(raw);
        // The reply (~527 KB) meets a closed socket, or fills the socket's
        // buffers and then meets its reset; either way the handler ends.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while server.served() == 0 {
            assert!(std::time::Instant::now() < deadline, "never served");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let tracked = || server.shared.conns.lock().unwrap().len();
        let mut client =
            crate::client::ServiceClient::connect(&server.addr().to_string(), "t").unwrap();
        let reply = client.invert(&a, &cfg).unwrap();
        assert!(reply.cache_hit, "the hung-up request's factors were cached");
        assert!(reply.inverse.is_some());
        assert_eq!(server.served(), 2);
        // Each accept reaps finished handlers; the hung-up one must be
        // among them, leaving the live client and at most one other.
        while tracked() > 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "{} entries for 1 live connection",
                tracked()
            );
            drop(TcpStream::connect(server.addr()).unwrap());
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        drop(client);
    }

    /// A name is three numbers whose order one frame could carry, and
    /// never stands beside a matrix; anything else is a decode error.
    #[test]
    fn malformed_names_are_decode_errors() {
        let base = bincode::serialize(&WireRequest {
            tenant: "t".to_string(),
            id: 1,
            op: WireOp::Invert,
            a: Vec::new(),
            rhs: Vec::new(),
            nb: 2,
            separate_intermediate_files: true,
            block_wrap: true,
            transpose_u: true,
        });
        let with = |name: Value, a: Vec<u8>| {
            let Value::Object(mut fields) = bincode::bytes_to_value(&base).unwrap() else {
                unreachable!("a struct is an object")
            };
            fields.push(("name".to_string(), name));
            for (key, value) in &mut fields {
                if key == "a" {
                    *value = Value::Bytes(a.clone());
                }
            }
            let frame = bincode::value_to_bytes(&Value::Object(fields));
            RequestView::read(&frame).map(|view| view.name)
        };
        let words = |w: &[u64]| {
            Value::Array(
                w.iter()
                    .map(|&x| Value::Number(serde::Number::U(x)))
                    .collect(),
            )
        };
        assert_eq!(with(words(&[4, 1, 2]), Vec::new()), Ok(Some([4, 1, 2])));
        let biggest = [MAX_NAMED_ORDER, 0, 0];
        assert!(with(words(&biggest), Vec::new()).is_ok());
        for (name, a) in [
            (words(&[4, 1]), Vec::new()),
            (words(&[4, 1, 2, 3]), Vec::new()),
            (words(&[0, 1, 2]), Vec::new()),
            (words(&[MAX_NAMED_ORDER + 1, 1, 2]), Vec::new()),
            (words(&[u64::MAX, 1, 2]), Vec::new()),
            (Value::String("name".to_string()), Vec::new()),
            (Value::Bytes(vec![1, 2, 3]), Vec::new()),
            (words(&[4, 1, 2]), vec![0; 20]),
        ] {
            let err = with(name.clone(), a).unwrap_err();
            assert!(err.0.starts_with("field \"name\""), "{name:?}: {}", err.0);
        }
        // The largest named order is the largest square matrix a frame holds.
        let fits = |n: u64| binary_size(n as usize, n as usize) < u64::from(u32::MAX);
        assert!(fits(MAX_NAMED_ORDER) && !fits(MAX_NAMED_ORDER + 1));
    }

    /// A table holds [`NAMES`] names and forgets the least recently used.
    #[test]
    fn names_forget_the_least_recently_used() {
        let mut names = Names::new();
        for k in 0..NAMES {
            names.insert(k, k * 10);
        }
        assert_eq!(names.find(|&k| k == 0), Some(&(0, 0)));
        names.insert(NAMES, 0);
        assert!(names.find(|&k| k == 1).is_none(), "1 was the least recent");
        assert!(names.find(|&k| k == 0).is_some(), "0 was used");
        names.insert(0, 7);
        assert_eq!(names.find(|&k| k == 0), Some(&(0, 7)));
        names.forget(|&k| k == 0);
        assert!(names.find(|&k| k == 0).is_none());
        assert_eq!(names.entries.len(), NAMES - 1);
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
