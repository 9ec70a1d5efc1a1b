//! Blocking client for the [`crate::service`] daemon.
//!
//! One [`ServiceClient`] owns one TCP connection and issues one request
//! at a time (the protocol is strict request/response per connection);
//! open several clients for concurrency. Matrices cross the wire through
//! the binary codec, so results are bit-identical to running the same
//! [`crate::Request`] in-process, and as one packed byte node each, so a
//! frame costs its payload plus a few hundred bytes. The client speaks
//! through the service's frame codec, over one frame buffer it keeps: the
//! caller's matrix is never copied into the request frame but spliced
//! from its own memory as the frame is written, and a reply is read as a
//! view whose matrices are slices of the frame, so the returned inverse
//! (or factors) is the one copy a request makes on this side, and a warm
//! request faults no memory back in (see [`crate::service`], "What a
//! frame costs"). Request ids start at 1: an
//! error response under id 0 is the server's verdict on the frame itself
//! ("undecodable request: …") and is reported as the server error it is.
//! A server that predates both the byte node and that reply just hangs up
//! ("service connection recv: …").
//!
//! A client names what it already sent. Every request hashes its matrix
//! (the cache key's digest, ~10–15 µs at n = 256); once the server has
//! answered a full request for that matrix and configuration and echoed
//! the same name as `admitted`, later requests for it carry the name and
//! an empty matrix, so a warm solve moves its right-hand side and a few
//! hundred bytes instead of the matrix. If the server answers `resend` —
//! it no longer holds that entry, or the name fell out of its table — the
//! client forgets the name and sends the request in full once, which
//! admits it again. A server that never echoes `admitted` (one that
//! predates names) is never sent a name. The client keeps at most
//! `NAMES` (64) names, forgetting the least recently used.

use std::net::TcpStream;

use mrinv_matrix::io::decode_binary;
use mrinv_matrix::{Matrix, Permutation};

use crate::cache::{name_of, Name};
use crate::config::InversionConfig;
use crate::error::{CoreError, Result};
use crate::request::LuFactors;
use crate::service::{
    encode_request, Names, Operand, ResponseView, WireOp, TAG_REQUEST, TAG_RESPONSE,
};
use mrinv_mapreduce::wire::{read_frame, write_spliced_frame};

/// What the server sent back for one request.
#[derive(Debug, Clone)]
pub struct ServiceReply {
    /// The inverse, for invert requests.
    pub inverse: Option<Matrix>,
    /// Assembled factors, for lu requests.
    pub factors: Option<LuFactors>,
    /// Solutions, one per submitted right-hand side.
    pub solutions: Vec<Vec<f64>>,
    /// Whether the server's factor cache served the request.
    pub cache_hit: bool,
    /// Pipeline jobs the request ran server-side (0 on a cache hit).
    pub jobs: u64,
    /// Simulated seconds the request cost server-side.
    pub sim_secs: f64,
}

/// A blocking connection to an `mrinv serve` instance.
pub struct ServiceClient {
    stream: TcpStream,
    tenant: String,
    next_id: u64,
    /// Every request is serialized and every response read here.
    frame: Vec<u8>,
    /// The names the server admitted for this connection, by
    /// configuration.
    names: Names<(Name, InversionConfig), ()>,
}

impl std::fmt::Debug for ServiceClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceClient")
            .field("stream", &self.stream)
            .field("tenant", &self.tenant)
            .field("next_id", &self.next_id)
            .finish_non_exhaustive()
    }
}

impl ServiceClient {
    /// Connects to `addr` (e.g. `"127.0.0.1:7171"`), identifying every
    /// request as `tenant`.
    pub fn connect(addr: &str, tenant: impl Into<String>) -> Result<ServiceClient> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| CoreError::Invariant(format!("cannot connect to {addr}: {e}")))?;
        let _ = stream.set_nodelay(true);
        Ok(ServiceClient {
            stream,
            tenant: tenant.into(),
            next_id: 0,
            frame: Vec::new(),
            names: Names::new(),
        })
    }

    /// Requests the inverse of `a`.
    pub fn invert(&mut self, a: &Matrix, cfg: &InversionConfig) -> Result<ServiceReply> {
        self.roundtrip(WireOp::Invert, a, &[], cfg)
    }

    /// Requests the LU factorization of `a`.
    pub fn lu(&mut self, a: &Matrix, cfg: &InversionConfig) -> Result<ServiceReply> {
        self.roundtrip(WireOp::Lu, a, &[], cfg)
    }

    /// Requests solutions of `A·x = b` for every right-hand side.
    pub fn solve(
        &mut self,
        a: &Matrix,
        rhs: &[Vec<f64>],
        cfg: &InversionConfig,
    ) -> Result<ServiceReply> {
        self.roundtrip(WireOp::Solve, a, rhs, cfg)
    }

    /// One request: by name if the server admitted this matrix and
    /// configuration on this connection, in full otherwise — and in full
    /// once more if the server asks for it.
    fn roundtrip(
        &mut self,
        op: WireOp,
        a: &Matrix,
        rhs: &[Vec<f64>],
        cfg: &InversionConfig,
    ) -> Result<ServiceReply> {
        let name = name_of(a);
        let this = |(n, c): &(Name, InversionConfig)| *n == name && c == cfg;
        if self.names.find(this).is_some() {
            if let Some(reply) = self.exchange(op, name, Operand::Named(name), rhs, cfg)? {
                return Ok(reply);
            }
            self.names.forget(this);
        }
        let reply = self.exchange(op, name, Operand::Matrix(a), rhs, cfg)?;
        reply.ok_or_else(|| {
            CoreError::Invariant("the server asked again for a matrix it was sent".to_string())
        })
    }

    /// Sends one request frame for the matrix named `name` and reads its
    /// response: the reply, or `None` when the server asks for the request
    /// in full. A full request's `admitted` name is stored if it is
    /// `name`.
    fn exchange(
        &mut self,
        op: WireOp,
        name: Name,
        operand: Operand<'_>,
        rhs: &[Vec<f64>],
        cfg: &InversionConfig,
    ) -> Result<Option<ServiceReply>> {
        self.next_id += 1;
        let id = self.next_id;
        let net = |what: &str, e: &dyn std::fmt::Display| {
            CoreError::Invariant(format!("service connection {what}: {e}"))
        };
        self.frame.clear();
        let a = encode_request(&mut self.frame, &self.tenant, id, op, operand, rhs, cfg);
        write_spliced_frame(&mut self.stream, TAG_REQUEST, &self.frame, &[a])
            .map_err(|e| net("send", &e))?;
        let tag = read_frame(&mut self.stream, &mut self.frame).map_err(|e| net("recv", &e))?;
        if tag != TAG_RESPONSE {
            return Err(CoreError::Invariant(format!(
                "expected a response frame, got tag {tag}"
            )));
        }
        let resp = ResponseView::read(&self.frame)
            .map_err(|e| CoreError::Invariant(format!("undecodable response: {e}")))?;
        // Id 0 is never issued: an error under it is about this frame.
        let about_the_frame = resp.id == 0 && !resp.ok;
        if resp.id != id && !about_the_frame {
            return Err(CoreError::Invariant(format!(
                "response id {} for request {id}",
                resp.id
            )));
        }
        if resp.resend && !resp.ok {
            return Ok(None);
        }
        if !resp.ok {
            return Err(CoreError::Invariant(format!(
                "server error: {}",
                resp.error
            )));
        }
        if matches!(operand, Operand::Matrix(_)) && resp.admitted == Some(name) {
            self.names.insert((name, cfg.clone()), ());
        }
        decode_reply(resp).map(Some)
    }
}

/// The reply a response view stands for: each matrix decoded out of the
/// frame once, the pivots checked.
fn decode_reply(resp: ResponseView<'_>) -> Result<ServiceReply> {
    let inverse = if resp.inverse.is_empty() {
        None
    } else {
        Some(decode_binary(&resp.inverse)?)
    };
    let factors = if resp.l.is_empty() {
        None
    } else {
        let l = decode_binary(&resp.l)?;
        let u = decode_binary(&resp.u)?;
        let pivots = resp
            .perm
            .iter()
            .map(|&s| usize::try_from(s).unwrap_or(usize::MAX));
        let perm = Permutation::from_vec(pivots.collect())?;
        let n = l.order()?;
        if u.rows() != n || u.cols() != n || perm.len() != n {
            return Err(CoreError::Invariant(format!(
                "lu reply: L is {n}x{n}, U is {}x{}, {} pivots",
                u.rows(),
                u.cols(),
                perm.len()
            )));
        }
        Some(LuFactors { l, u, perm })
    };
    Ok(ServiceReply {
        inverse,
        factors,
        solutions: resp.solutions,
        cache_hit: resp.cache_hit,
        jobs: resp.jobs,
        sim_secs: resp.sim_secs,
    })
}
