//! The `TcpWorkers` backend: real worker processes over TCP.
//!
//! The driver binds an ephemeral loopback listener and spawns N copies of
//! a worker binary (each runs [`worker_serve`]); workers dial back and
//! identify themselves with a `Hello` frame. Each task attempt checks one
//! worker out of the pool, ships a bincode-serialized
//! [`TaskDescriptor`], and then *serves the
//! worker's DFS traffic inline* on the same socket until the worker
//! reports `Done` — the driver process is the namenode+datanode, so byte
//! accounting and replica bookkeeping are identical to in-process runs.
//!
//! # Wire format
//!
//! Frames are [`crate::wire`]'s: `u32` little-endian length, then one tag
//! byte, then the body. Control structures (descriptors, results, errors)
//! are bincode; DFS file contents ride as raw bytes (bit-exact, no value
//! tree in the middle). Each side builds and reads every frame of a
//! conversation in one buffer: the driver one per task attempt, the
//! worker one for its connection. A file's bytes never enter that buffer
//! on the way out: the driver's read reply splices in the stored
//! [`Bytes`], and a worker's write request the task's own (see
//! [`crate::wire::Splice`]).
//!
//! | dir | tag | frame      | body                                        |
//! |-----|-----|------------|---------------------------------------------|
//! | →   | 0   | `Run`      | bincode `TaskDescriptor`                    |
//! | →   | 1   | `DfsResp`  | status byte + reply / bincode `MrError`     |
//! | →   | 2   | `Shutdown` | —                                           |
//! | ←   | 16  | `Hello`    | `u64` worker id                             |
//! | ←   | 17  | `DfsReq`   | op byte + `u32` path len + path + raw data  |
//! | ←   | 18  | `Done`     | status byte + bincode result / error        |
//!
//! A successful read's reply is the file's surviving replica homes — a
//! `u32` count, then each node as a `u32` — followed by the file's raw
//! bytes ([`decode_read_reply`]), so a worker's map task tallies its
//! locality in its own [`crate::job::TaskIo`] exactly as an in-process one
//! does, and its result carries the tally, not a list of paths.
//!
//! # Fault mapping
//!
//! A broken socket, EOF, read timeout or malformed frame (a `DfsReq` op
//! other than read 0 or write 1 included) while a worker owns a task kills
//! the worker process and surfaces [`MrError::WorkerLost`] — the runner
//! retries at once, and since the dead worker left the pool, the retry
//! lands on a surviving worker (steering). The pool respawns one worker
//! when the last one dies, so a run can always make progress. Simulated
//! node deaths stay in the scheduler and touch no worker process.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use bytes::Bytes;

use super::{ExecBackend, TaskDescriptor, TaskRegistry, WireTaskResult};
use crate::dfs::{Dfs, DfsAccess, Homes};
use crate::error::{MrError, Result};
use crate::wire::{read_frame, write_frame, write_spliced_frame, Splice};
use std::sync::Arc;

const TAG_RUN: u8 = 0;
const TAG_DFS_RESP: u8 = 1;
const TAG_SHUTDOWN: u8 = 2;
const TAG_HELLO: u8 = 16;
const TAG_DFS_REQ: u8 = 17;
const TAG_DONE: u8 = 18;

const OP_READ: u8 = 0;
const OP_WRITE: u8 = 1;

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

/// Configuration for [`TcpWorkers::spawn`].
#[derive(Debug, Clone)]
pub struct TcpWorkersConfig {
    /// Number of worker processes to spawn.
    pub workers: usize,
    /// Path to the worker binary. It must accept
    /// `--connect <addr> --worker-id <n>` and call [`worker_serve`] with a
    /// registry matching the driver's.
    pub worker_bin: std::path::PathBuf,
    /// Wall-clock limit per attempt: if the worker produces no frame for
    /// this long it is declared dead and the attempt retried elsewhere.
    pub attempt_timeout: Duration,
}

impl TcpWorkersConfig {
    /// `workers` processes of `worker_bin` with the default 600 s
    /// per-attempt timeout.
    pub fn new(workers: usize, worker_bin: impl Into<std::path::PathBuf>) -> Self {
        TcpWorkersConfig {
            workers: workers.max(1),
            worker_bin: worker_bin.into(),
            attempt_timeout: Duration::from_secs(600),
        }
    }
}

/// Handle to one worker process, shared between the [`Worker`] that talks
/// to it and the backend-wide kill-on-drop registry. `None` once the
/// process has been reaped (killed or waited), so each child is released
/// exactly once no matter which holder gets there first.
type ChildSlot = Arc<Mutex<Option<Child>>>;

/// Kills and reaps the slot's process if it is still owned.
fn kill_slot(slot: &ChildSlot) {
    if let Some(mut child) = slot.lock().expect("child lock").take() {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Reaps the slot's process without killing it (it was told to exit).
fn wait_slot(slot: &ChildSlot) {
    if let Some(mut child) = slot.lock().expect("child lock").take() {
        let _ = child.wait();
    }
}

/// One live worker process the driver can talk to.
struct Worker {
    id: usize,
    stream: TcpStream,
    child: ChildSlot,
}

struct Pool {
    /// Workers not currently running a task.
    idle: Vec<Worker>,
    /// Workers alive in total (idle + checked out).
    alive: usize,
    /// Next worker id to assign on respawn.
    next_id: usize,
    /// Set once [`ExecBackend::shutdown`] has run: checked-in workers are
    /// told to exit instead of rejoining the pool.
    shutting_down: bool,
}

/// The multi-process TCP execution backend. See the module docs for the
/// protocol and fault mapping.
pub struct TcpWorkers {
    config: TcpWorkersConfig,
    listener: TcpListener,
    pool: Mutex<Pool>,
    available: Condvar,
    /// Every child ever spawned, shared with the `Worker` handles. A
    /// `Worker` checked out of the pool when the driver unwinds (a
    /// panicking job body) is dropped on some rayon thread's stack without
    /// passing through [`TcpWorkers::checkin`]; this registry is what lets
    /// [`Drop`] still kill its process instead of leaking an orphan
    /// `mrinv-worker`.
    children: Mutex<Vec<ChildSlot>>,
    /// The DFS worker requests are served from; installed by
    /// [`TcpWorkers::attach_dfs`] once the cluster exists.
    dfs_slot: Mutex<Option<Arc<Dfs>>>,
}

impl std::fmt::Debug for TcpWorkers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpWorkers")
            .field("workers", &self.config.workers)
            .field("worker_bin", &self.config.worker_bin)
            .finish_non_exhaustive()
    }
}

impl TcpWorkers {
    /// Binds a loopback listener, spawns the worker processes, and waits
    /// for each one's `Hello`.
    pub fn spawn(config: TcpWorkersConfig) -> Result<TcpWorkers> {
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| MrError::Other(format!("cannot bind worker listener: {e}")))?;
        let backend = TcpWorkers {
            pool: Mutex::new(Pool {
                idle: Vec::new(),
                alive: 0,
                next_id: 0,
                shutting_down: false,
            }),
            available: Condvar::new(),
            children: Mutex::new(Vec::new()),
            dfs_slot: Mutex::new(None),
            listener,
            config,
        };
        {
            let mut pool = backend.pool.lock().expect("pool lock");
            for _ in 0..backend.config.workers {
                let w = backend.spawn_one(pool.next_id)?;
                pool.next_id += 1;
                pool.alive += 1;
                pool.idle.push(w);
            }
        }
        Ok(backend)
    }

    /// Spawns one worker process and accepts its connection.
    fn spawn_one(&self, id: usize) -> Result<Worker> {
        let addr = self
            .listener
            .local_addr()
            .map_err(|e| MrError::Other(format!("listener address: {e}")))?;
        let mut child = Command::new(&self.config.worker_bin)
            .arg("--connect")
            .arg(addr.to_string())
            .arg("--worker-id")
            .arg(id.to_string())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| {
                MrError::Other(format!(
                    "cannot spawn worker {:?}: {e}",
                    self.config.worker_bin
                ))
            })?;
        // Accept until we get this child's Hello (another worker's late
        // connection cannot appear: spawns are serialized under the pool
        // lock and each worker connects exactly once).
        let (mut stream, _) = self.listener.accept().map_err(|e| {
            let _ = child.kill();
            MrError::Other(format!("worker {id} never connected: {e}"))
        })?;
        stream
            .set_nodelay(true)
            .map_err(|e| MrError::Other(format!("worker {id} socket: {e}")))?;
        let mut hello = Vec::new();
        let tag = read_frame(&mut stream, &mut hello)
            .map_err(|e| MrError::Other(format!("worker {id} sent no Hello: {e}")))?;
        if tag != TAG_HELLO || hello.len() != 8 {
            let _ = child.kill();
            let _ = child.wait();
            return Err(MrError::Other(format!("worker {id} sent a bad Hello")));
        }
        let child: ChildSlot = Arc::new(Mutex::new(Some(child)));
        self.children
            .lock()
            .expect("children lock")
            .push(child.clone());
        Ok(Worker { id, stream, child })
    }

    /// Checks a worker out of the pool, blocking until one is idle;
    /// respawns a worker when none are left alive.
    fn checkout(&self) -> Result<Worker> {
        let mut pool = self.pool.lock().expect("pool lock");
        loop {
            if pool.shutting_down {
                return Err(MrError::Other("worker pool is shut down".into()));
            }
            if let Some(w) = pool.idle.pop() {
                return Ok(w);
            }
            if pool.alive == 0 {
                // Every worker is dead: respawn one so the run can finish
                // (Hadoop restarts tasktrackers; we restart a worker).
                let id = pool.next_id;
                pool.next_id += 1;
                let w = self.spawn_one(id)?;
                pool.alive += 1;
                return Ok(w);
            }
            pool = self.available.wait(pool).expect("pool lock");
        }
    }

    /// Returns a healthy worker to the pool.
    fn checkin(&self, worker: Worker) {
        let mut pool = self.pool.lock().expect("pool lock");
        if pool.shutting_down {
            pool.alive -= 1;
            let mut w = worker;
            let _ = write_frame(&mut w.stream, TAG_SHUTDOWN, &[]);
            wait_slot(&w.child);
            return;
        }
        pool.idle.push(worker);
        drop(pool);
        self.available.notify_one();
    }

    /// Reaps a dead worker: kill the process, drop it from the pool.
    fn reap(&self, worker: Worker) {
        kill_slot(&worker.child);
        let mut pool = self.pool.lock().expect("pool lock");
        pool.alive -= 1;
        drop(pool);
        // A checkout may be blocked waiting for this worker; wake it so it
        // can respawn if the pool is now empty.
        self.available.notify_all();
    }

    /// Ships a descriptor to `worker` and serves its DFS traffic until it
    /// reports `Done`.
    fn run_on_worker(
        &self,
        worker: &mut Worker,
        desc: &TaskDescriptor,
        dfs: &Dfs,
    ) -> std::result::Result<Result<WireTaskResult>, String> {
        let io_err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
        worker
            .stream
            .set_read_timeout(Some(self.config.attempt_timeout))
            .map_err(|e| io_err("set timeout", &e))?;
        let mut frame = bincode::serialize(desc);
        write_frame(&mut worker.stream, TAG_RUN, &frame).map_err(|e| io_err("send task", &e))?;
        loop {
            let tag = read_frame(&mut worker.stream, &mut frame).map_err(|e| {
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    format!(
                        "attempt exceeded the {:.0} s backend timeout",
                        self.config.attempt_timeout.as_secs_f64()
                    )
                } else {
                    io_err("read frame", &e)
                }
            })?;
            match tag {
                TAG_DFS_REQ => {
                    let file =
                        serve_dfs_request(&mut frame, dfs).map_err(|e| io_err("dfs req", &e))?;
                    send_dfs_response(&mut worker.stream, &frame, file.as_ref())
                        .map_err(|e| io_err("send dfs resp", &e))?;
                }
                TAG_DONE => {
                    let Some((&status, payload)) = frame.split_first() else {
                        return Err("empty Done frame".into());
                    };
                    return Ok(match status {
                        STATUS_OK => bincode::deserialize::<WireTaskResult>(payload)
                            .map_err(|e| MrError::Other(format!("bad task result: {e}"))),
                        _ => Err(
                            bincode::deserialize::<MrError>(payload).unwrap_or_else(|e| {
                                MrError::Other(format!("undecodable worker error: {e}"))
                            }),
                        ),
                    });
                }
                other => return Err(format!("unexpected frame tag {other} from worker")),
            }
        }
    }

    /// The DFS the backend serves worker requests from; installed once by
    /// the cluster.
    fn dfs(&self) -> Option<Arc<Dfs>> {
        self.dfs_slot.lock().expect("dfs lock").clone()
    }

    /// Installs the DFS workers read and write through. Must be called
    /// (see [`crate::cluster::Cluster::set_backend`] call sites) before
    /// the first remote task runs.
    pub fn attach_dfs(&self, dfs: Arc<Dfs>) {
        *self.dfs_slot.lock().expect("dfs lock") = Some(dfs);
    }
}

/// Handles the worker DFS request in `frame` against the driver's store
/// and replaces it with the `DfsResp` body — all of it but the file a
/// read found, which is returned for [`send_dfs_response`] to splice in.
fn serve_dfs_request(frame: &mut Vec<u8>, dfs: &Dfs) -> std::result::Result<Option<Bytes>, String> {
    let Some((&op, rest)) = frame.split_first() else {
        return Err("empty DfsReq".into());
    };
    if rest.len() < 4 {
        return Err("truncated DfsReq".into());
    }
    let path_len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
    if rest.len() < 4 + path_len {
        return Err("truncated DfsReq path".into());
    }
    let path = std::str::from_utf8(&rest[4..4 + path_len]).map_err(|e| e.to_string())?;
    let data = &rest[4 + path_len..];
    match op {
        OP_READ => {
            let read = dfs.read(path);
            frame.clear();
            match read {
                Ok((bytes, homes)) => {
                    frame.push(STATUS_OK);
                    frame.extend_from_slice(&(homes.len() as u32).to_le_bytes());
                    for &node in homes.iter() {
                        frame.extend_from_slice(&(node as u32).to_le_bytes());
                    }
                    return Ok(Some(bytes));
                }
                Err(e) => {
                    frame.push(STATUS_ERR);
                    bincode::serialize_into(frame, &e);
                }
            }
        }
        OP_WRITE => {
            dfs.write(path, Bytes::from(data.to_vec()));
            frame.clear();
            frame.push(STATUS_OK);
        }
        other => return Err(format!("unknown DFS op {other}")),
    }
    Ok(None)
}

/// Sends a `DfsResp` frame: `body`, then the file a read found, written
/// from the store's own [`Bytes`].
fn send_dfs_response<W: Write>(
    stream: &mut W,
    body: &[u8],
    file: Option<&Bytes>,
) -> std::io::Result<()> {
    let file = file.map(|f| Splice::new(body.len(), &f[..]));
    write_spliced_frame(stream, TAG_DFS_RESP, body, file.as_slice())
}

/// Sends a `DfsReq` frame built in `frame`: the op byte, the path, then
/// `data` written from the caller's memory.
fn send_dfs_request<W: Write>(
    stream: &mut W,
    frame: &mut Vec<u8>,
    op: u8,
    path: &str,
    data: &[u8],
) -> std::io::Result<()> {
    frame.clear();
    frame.push(op);
    frame.extend_from_slice(&(path.len() as u32).to_le_bytes());
    frame.extend_from_slice(path.as_bytes());
    let data = [Splice::new(frame.len(), data)];
    write_spliced_frame(stream, TAG_DFS_REQ, frame, &data)
}

impl ExecBackend for TcpWorkers {
    fn name(&self) -> &str {
        "tcp-workers"
    }

    fn wants_descriptors(&self) -> bool {
        true
    }

    fn execute(&self, desc: &TaskDescriptor) -> Result<WireTaskResult> {
        let Some(dfs) = self.dfs() else {
            return Err(MrError::Other(
                "TcpWorkers has no DFS attached (call attach_dfs)".into(),
            ));
        };
        let mut worker = self.checkout()?;
        match self.run_on_worker(&mut worker, desc, &dfs) {
            Ok(result) => {
                self.checkin(worker);
                result
            }
            Err(message) => {
                let id = worker.id;
                self.reap(worker);
                Err(MrError::WorkerLost {
                    worker: id,
                    message,
                })
            }
        }
    }

    fn shutdown(&self) {
        let mut pool = self.pool.lock().expect("pool lock");
        if pool.shutting_down {
            return;
        }
        pool.shutting_down = true;
        let idle = std::mem::take(&mut pool.idle);
        pool.alive -= idle.len();
        drop(pool);
        for mut w in idle {
            let _ = write_frame(&mut w.stream, TAG_SHUTDOWN, &[]);
            wait_slot(&w.child);
        }
        self.available.notify_all();
    }
}

impl Drop for TcpWorkers {
    fn drop(&mut self) {
        self.shutdown();
        // Kill-on-drop guard: sweep every child ever spawned, not just the
        // idle pool. A worker checked out when a job body panicked never
        // came back through checkin/reap — its slot is still occupied and
        // is killed here, so a driver unwind leaves no orphan processes.
        // Slots of gracefully-exited workers are already empty (the wait
        // took the Child), making the sweep a no-op for them.
        for slot in self.children.lock().expect("children lock").drain(..) {
            kill_slot(&slot);
        }
    }
}

// ---- Worker side ---------------------------------------------------------

/// The worker's end of its driver connection: the socket, and the one
/// buffer every frame on it is built and read in.
struct Conn {
    stream: TcpStream,
    frame: Vec<u8>,
}

/// [`DfsAccess`] implementation that forwards every operation to the
/// driver over the task's own socket.
struct RemoteDfs {
    conn: Mutex<Conn>,
}

impl RemoteDfs {
    /// Sends one request and decodes its `DfsResp` body in place, in the
    /// connection's buffer.
    fn request<T>(
        &self,
        op: u8,
        path: &str,
        data: &[u8],
        decode: impl FnOnce(&[u8]) -> Result<T>,
    ) -> Result<T> {
        let lost =
            |e: std::io::Error| MrError::Other(format!("worker lost driver connection: {e}"));
        let mut conn = self.conn.lock().expect("connection lock");
        let Conn { stream, frame } = &mut *conn;
        send_dfs_request(stream, frame, op, path, data).map_err(lost)?;
        let tag = read_frame(stream, frame).map_err(lost)?;
        if tag != TAG_DFS_RESP {
            return Err(MrError::Other(format!("expected DfsResp, got tag {tag}")));
        }
        decode(frame)
    }
}

/// The payload of a `DfsResp` body whose status byte says success, or the
/// error the driver sent.
fn reply_payload(body: &[u8]) -> Result<&[u8]> {
    match body.split_first() {
        None => Err(MrError::Other("empty DfsResp".into())),
        Some((&STATUS_OK, payload)) => Ok(payload),
        Some((_, error)) => Err(bincode::deserialize::<MrError>(error)
            .unwrap_or_else(|e| MrError::Other(format!("undecodable DFS error: {e}")))),
    }
}

/// Decodes the `DfsResp` body of a read, as a worker receives it: the
/// status byte, then the file's surviving replica homes (a `u32` count,
/// each node a `u32`) and its bytes — or the driver's error. A count the
/// body cannot hold is an error, never an allocation.
pub fn decode_read_reply(body: &[u8]) -> Result<(Bytes, Homes)> {
    let payload = reply_payload(body)?;
    let malformed = || MrError::Other("malformed DFS read reply".into());
    let (count, rest) = payload.split_first_chunk::<4>().ok_or_else(malformed)?;
    let homes_len = (u32::from_le_bytes(*count) as usize)
        .checked_mul(4)
        .filter(|&len| len <= rest.len())
        .ok_or_else(malformed)?;
    let (homes, file) = rest.split_at(homes_len);
    let homes = homes
        .chunks_exact(4)
        .map(|node| u32::from_le_bytes(node.try_into().expect("4 bytes")) as usize)
        .collect();
    Ok((Bytes::from(file.to_vec()), homes))
}

impl DfsAccess for RemoteDfs {
    fn read(&self, path: &str) -> Result<(Bytes, Homes)> {
        self.request(OP_READ, path, &[], decode_read_reply)
    }

    fn write(&self, path: &str, data: Bytes) {
        // DfsAccess::write is infallible by contract (the in-memory store
        // cannot fail); a broken socket here surfaces on the next read or
        // at Done time, and the driver reaps the worker either way.
        let _ = self.request(OP_WRITE, path, &data, |body| reply_payload(body).map(drop));
    }
}

/// Worker process main loop: connect back to the driver, say hello, then
/// run every task descriptor it sends until `Shutdown` (or EOF).
///
/// The worker binary calls this with a [`TaskRegistry`] built from the
/// same registrations as the driver's.
pub fn worker_serve(addr: &str, worker_id: usize, registry: &TaskRegistry) -> Result<()> {
    let net_err = |what: &str, e: &dyn std::fmt::Display| {
        MrError::Other(format!("worker {worker_id} {what}: {e}"))
    };
    let stream = TcpStream::connect(addr).map_err(|e| net_err("connect", &e))?;
    stream
        .set_nodelay(true)
        .map_err(|e| net_err("socket", &e))?;
    {
        let mut s = stream.try_clone().map_err(|e| net_err("socket", &e))?;
        write_frame(&mut s, TAG_HELLO, &(worker_id as u64).to_le_bytes())
            .map_err(|e| net_err("hello", &e))?;
    }
    let remote = Arc::new(RemoteDfs {
        conn: Mutex::new(Conn {
            stream,
            frame: Vec::new(),
        }),
    });
    loop {
        let mut conn = remote.conn.lock().expect("connection lock");
        let Conn { stream, frame } = &mut *conn;
        let Ok(tag) = read_frame(stream, frame) else {
            // EOF/reset: the driver went away; exit quietly.
            return Ok(());
        };
        match tag {
            TAG_RUN => {
                let desc = bincode::deserialize::<TaskDescriptor>(frame);
                // The task's DFS requests take the connection in turn.
                drop(conn);
                let outcome = desc
                    .map_err(|e| MrError::Other(format!("bad task descriptor: {e}")))
                    .and_then(|desc| {
                        let codec = registry.get(&desc.family).ok_or_else(|| {
                            MrError::InvalidJob(format!(
                                "worker has no registered family {:?}",
                                desc.family
                            ))
                        })?;
                        codec.run(&desc, remote.clone() as Arc<dyn DfsAccess>)
                    });
                let mut conn = remote.conn.lock().expect("connection lock");
                let Conn { stream, frame } = &mut *conn;
                frame.clear();
                match outcome {
                    Ok(result) => {
                        frame.push(STATUS_OK);
                        bincode::serialize_into(frame, &result);
                    }
                    Err(e) => {
                        frame.push(STATUS_ERR);
                        bincode::serialize_into(frame, &e);
                    }
                }
                write_frame(stream, TAG_DONE, frame).map_err(|e| net_err("send done", &e))?;
            }
            TAG_SHUTDOWN => return Ok(()),
            other => {
                return Err(MrError::Other(format!(
                    "worker {worker_id} got unexpected frame tag {other}"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `serve_dfs_request` and `write_frame` sent before the file
    /// was spliced in: the whole body in the frame buffer.
    fn contiguous(tag: u8, body: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, tag, body).unwrap();
        wire
    }

    #[test]
    fn dfs_frames_keep_their_contiguous_layout() {
        let file: Vec<u8> = (0..1000u32).map(|i| (i * 31) as u8).collect();
        let dfs = Dfs::new(1);
        dfs.write("dir/file", Bytes::from(file.clone()));

        // A worker's write request, and its read request.
        let mut frame = Vec::new();
        for (op, data) in [(OP_WRITE, &file[..]), (OP_READ, &[][..])] {
            let mut wire = Vec::new();
            send_dfs_request(&mut wire, &mut frame, op, "dir/file", data).unwrap();
            let mut body = vec![op, 8, 0, 0, 0];
            body.extend_from_slice(b"dir/file");
            body.extend_from_slice(data);
            assert_eq!(wire, contiguous(TAG_DFS_REQ, &body), "op {op}");

            // The driver's reply to it, read back from the request frame.
            let mut request = Vec::new();
            read_frame(&mut wire.as_slice(), &mut request).unwrap();
            let found = serve_dfs_request(&mut request, &dfs).unwrap();
            let mut wire = Vec::new();
            send_dfs_response(&mut wire, &request, found.as_ref()).unwrap();
            let body = match op {
                // One home (a one-node store): count 1, node 0.
                OP_READ => [&[STATUS_OK, 1, 0, 0, 0, 0, 0, 0, 0][..], &file].concat(),
                _ => vec![STATUS_OK],
            };
            assert_eq!(wire, contiguous(TAG_DFS_RESP, &body), "op {op}");
            if op == OP_READ {
                let (bytes, homes) = decode_read_reply(&body).unwrap();
                assert_eq!((&bytes[..], &homes[..]), (&file[..], &[0][..]));
            }
        }

        // A read of a missing file: the error, with nothing spliced in.
        let mut request = Vec::new();
        send_dfs_request(&mut request, &mut frame, OP_READ, "missing", &[]).unwrap();
        read_frame(&mut request.as_slice(), &mut frame).unwrap();
        let found = serve_dfs_request(&mut frame, &dfs).unwrap();
        assert!(found.is_none());
        assert_eq!(frame[0], STATUS_ERR);
        let mut wire = Vec::new();
        send_dfs_response(&mut wire, &frame, None).unwrap();
        assert_eq!(wire, contiguous(TAG_DFS_RESP, &frame));
    }

    /// A request the driver cannot serve is refused before it touches the
    /// store: an op byte that is neither read nor write (2 was the retired
    /// `exists`), an empty body, a cut length and a cut path. The attempt
    /// then ends as a lost worker.
    #[test]
    fn malformed_dfs_requests_are_refused_and_change_nothing() {
        let dfs = Dfs::new(1);
        dfs.write("dir/file", Bytes::from_static(b"kept"));
        let store = |dfs: &Dfs| (dfs.list(""), dfs.counters(), dfs.live_bytes());
        let before = store(&dfs);
        let request = |op: u8, path: &[u8], data: &[u8]| {
            let mut body = vec![op];
            body.extend_from_slice(&8u32.to_le_bytes());
            body.extend_from_slice(path);
            body.extend_from_slice(data);
            body
        };
        for (mut frame, refusal) in [
            (request(2, b"dir/file", b""), "unknown DFS op 2"),
            (request(2, b"dir/made", b"data"), "unknown DFS op 2"),
            (Vec::new(), "empty DfsReq"),
            (vec![OP_WRITE, 8, 0], "truncated DfsReq"),
            (request(OP_WRITE, b"dir/f", b""), "truncated DfsReq path"),
        ] {
            let err = serve_dfs_request(&mut frame, &dfs).unwrap_err();
            assert_eq!(err, refusal);
            assert_eq!(store(&dfs), before, "{refusal}");
        }
        assert_eq!(&dfs.read("dir/file").unwrap().0[..], b"kept");
    }

    /// A read reply carries the block's surviving homes ahead of its
    /// bytes; a count the body cannot hold is an error, and so is the
    /// driver's error status.
    #[test]
    fn read_replies_carry_homes_and_refuse_lying_counts() {
        let dfs = Dfs::with_nodes(2, 4);
        dfs.write("in/1", Bytes::from_static(b"seven"));
        dfs.kill_node(2);
        let mut frame = Vec::new();
        let mut request = Vec::new();
        send_dfs_request(&mut request, &mut frame, OP_READ, "in/1", &[]).unwrap();
        read_frame(&mut request.as_slice(), &mut frame).unwrap();
        let file = serve_dfs_request(&mut frame, &dfs).unwrap().unwrap();
        frame.extend_from_slice(&file);
        assert_eq!(frame[..9], [STATUS_OK, 1, 0, 0, 0, 3, 0, 0, 0]);
        let (bytes, homes) = decode_read_reply(&frame).unwrap();
        assert_eq!((&bytes[..], &homes[..]), (&b"seven"[..], &[3][..]));

        for lying in [2u32, u32::MAX] {
            frame[1..5].copy_from_slice(&lying.to_le_bytes());
            let short = &frame[..9];
            assert!(
                matches!(decode_read_reply(short), Err(MrError::Other(_))),
                "{lying}"
            );
        }
        assert!(
            decode_read_reply(&[STATUS_OK, 0, 0]).is_err(),
            "a cut count"
        );
        assert!(decode_read_reply(&[]).is_err());
        let mut error = vec![STATUS_ERR];
        bincode::serialize_into(&mut error, &MrError::Other("gone".into()));
        assert!(matches!(decode_read_reply(&error), Err(MrError::Other(m)) if m == "gone"));
    }
}
