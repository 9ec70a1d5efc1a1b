//! Blocking client for the [`crate::service`] daemon.
//!
//! One [`ServiceClient`] owns one TCP connection and issues one request
//! at a time (the protocol is strict request/response per connection);
//! open several clients for concurrency. Matrices cross the wire through
//! the binary codec, so results are bit-identical to running the same
//! [`crate::Request`] in-process, and as one packed byte node each, so a
//! frame costs its payload plus a few hundred bytes (see
//! [`crate::service`], "What a frame costs"). Request ids start at 1: an
//! error response under id 0 is the server's verdict on the frame itself
//! ("undecodable request: …") and is reported as the server error it is.
//! A server that predates both the byte node and that reply just hangs up
//! ("service connection recv: …").

use std::net::TcpStream;

use mrinv_matrix::io::{decode_binary, encode_binary_vec};
use mrinv_matrix::{Matrix, Permutation};

use crate::config::InversionConfig;
use crate::error::{CoreError, Result};
use crate::request::LuFactors;
use crate::service::{WireOp, WireRequest, WireResponse, TAG_REQUEST, TAG_RESPONSE};
use mrinv_mapreduce::wire::{read_frame, write_frame};

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

    fn roundtrip(
        &mut self,
        op: WireOp,
        a: &Matrix,
        rhs: &[Vec<f64>],
        cfg: &InversionConfig,
    ) -> Result<ServiceReply> {
        self.next_id += 1;
        let id = self.next_id;
        let req = WireRequest {
            tenant: self.tenant.clone(),
            id,
            op,
            a: encode_binary_vec(a),
            rhs: rhs.to_vec(),
            nb: cfg.nb as u64,
            separate_intermediate_files: cfg.opts.separate_intermediate_files,
            block_wrap: cfg.opts.block_wrap,
            transpose_u: cfg.opts.transpose_u,
        };
        let net = |what: &str, e: &dyn std::fmt::Display| {
            CoreError::Invariant(format!("service connection {what}: {e}"))
        };
        self.frame.clear();
        bincode::serialize_into(&mut self.frame, &req);
        write_frame(&mut self.stream, TAG_REQUEST, &self.frame).map_err(|e| net("send", &e))?;
        let tag = read_frame(&mut self.stream, &mut self.frame).map_err(|e| net("recv", &e))?;
        if tag != TAG_RESPONSE {
            return Err(CoreError::Invariant(format!(
                "expected a response frame, got tag {tag}"
            )));
        }
        let resp = bincode::deserialize::<WireResponse>(&self.frame)
            .map_err(|e| CoreError::Invariant(format!("undecodable response: {e}")))?;
        // Id 0 is never issued: an error under it is about this frame.
        let about_the_frame = resp.id == 0 && !resp.ok;
        if resp.id != id && !about_the_frame {
            return Err(CoreError::Invariant(format!(
                "response id {} for request {id}",
                resp.id
            )));
        }
        if !resp.ok {
            return Err(CoreError::Invariant(format!(
                "server error: {}",
                resp.error
            )));
        }
        decode_reply(resp)
    }
}

fn decode_reply(resp: WireResponse) -> Result<ServiceReply> {
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
