//! Differential acceptance for the `tcp-workers` execution backend: the
//! full 17-job acceptance pipeline (n = 64, nb = 4) run through real
//! worker processes must be bit-identical — inverse bytes, job
//! fingerprints, and every job's DFS and shuffle byte accounting — to the
//! in-process backend. A worker whose connection is cut or stalls mid-task
//! (through the frame-aware [`proxy`] below) must be replaced with the
//! attempt retried to the same answer, and a simulated node death must
//! give both backends the same answer, simulated seconds and failures.

use std::sync::{Arc, Mutex, MutexGuard};
#[cfg(unix)]
use std::time::{Duration, Instant};

use mrinv::{InversionConfig, Request};
use mrinv_mapreduce::{Cluster, ClusterConfig, CostModel, JobReport, TcpWorkers, TcpWorkersConfig};
use mrinv_matrix::io::encode_binary;
use mrinv_matrix::random::random_well_conditioned;

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_mrinv-worker");

fn unit_config(m0: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::medium(m0);
    cfg.cost = CostModel::unit_for_tests();
    cfg
}

/// Held while this binary starts processes or writes the proxy's wrapper
/// script: a process forked while the script is open for writing keeps it
/// open until it execs, and running the script then fails with "text file
/// busy".
fn spawning() -> MutexGuard<'static, ()> {
    static SPAWNING: Mutex<()> = Mutex::new(());
    SPAWNING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A cluster whose task attempts run in `workers` real `mrinv-worker`
/// processes over TCP.
fn tcp_cluster(cfg: ClusterConfig, workers: usize) -> Cluster {
    tcp_cluster_with(cfg, TcpWorkersConfig::new(workers, WORKER_BIN))
}

/// A cluster on the TCP backend `workers` describes.
fn tcp_cluster_with(cfg: ClusterConfig, workers: TcpWorkersConfig) -> Cluster {
    let mut cluster = Cluster::new(cfg);
    let backend = {
        let _spawning = spawning();
        TcpWorkers::spawn(workers).expect("spawn workers")
    };
    backend.attach_dfs(cluster.dfs.clone());
    cluster.set_backend(Arc::new(backend));
    cluster.set_registry(Arc::new(mrinv::exec_registry()));
    cluster
}

#[test]
fn tcp_backend_matches_in_process_bit_for_bit() {
    let (n, nb) = (64, 4);
    let a = random_well_conditioned(n, 17);
    let cfg = InversionConfig::with_nb(nb);

    // Each cluster has its own in-memory DFS, so both unpinned runs land
    // in `mrinv/run-0` and their job specs — and hence the fingerprints —
    // can agree.
    let local = Cluster::new(unit_config(4));
    let baseline = Request::invert(&a).config(&cfg).submit(&local).unwrap();
    assert_eq!(baseline.report.jobs, 17);
    assert_eq!(baseline.report.backend, "in-process");

    let remote = tcp_cluster(unit_config(4), 2);
    let out = Request::invert(&a).config(&cfg).submit(&remote).unwrap();
    assert_eq!(out.report.jobs, 17);
    assert_eq!(out.report.backend, "tcp-workers");

    // The inverse must match to the byte, not just to a tolerance.
    assert_eq!(
        encode_binary(out.inverse().unwrap()),
        encode_binary(baseline.inverse().unwrap()),
        "tcp-workers inverse bytes differ from in-process"
    );

    // Same jobs, same specs, same order: every job fingerprint (which
    // mixes run config, job spec, and sequence) must agree.
    let (local_jobs, remote_jobs) = (&baseline.report.job_reports, &out.report.job_reports);
    let fingerprints = |jobs: &[JobReport]| -> Vec<(String, u64)> {
        jobs.iter()
            .map(|r| (r.name.clone(), r.fingerprint))
            .collect()
    };
    assert_eq!(local_jobs.len(), 17);
    assert_eq!(fingerprints(local_jobs), fingerprints(remote_jobs));

    // A worker charges reads, writes and shuffled pairs exactly as the
    // driver does, job by job and in total.
    let bytes = |jobs: &[JobReport]| -> Vec<(String, [u64; 3])> {
        let io = |r: &JobReport| {
            let s = &r.stats;
            [s.read_bytes, s.write_bytes, s.shuffle_bytes]
        };
        jobs.iter().map(|r| (r.name.clone(), io(r))).collect()
    };
    assert_eq!(bytes(local_jobs), bytes(remote_jobs));
    let totals = |r: &mrinv::RunReport| [r.dfs_bytes_read, r.dfs_bytes_written, r.shuffle_bytes];
    assert_eq!(totals(&out.report), totals(&baseline.report));

    // A worker charges the driver's flops, and the clock prices only
    // counted work: both backends land on the same simulated seconds, job
    // by job and in total.
    let priced = |jobs: &[JobReport]| -> Vec<(String, u64, f64)> {
        let job = |r: &JobReport| (r.name.clone(), r.stats.flops, r.sim_secs);
        jobs.iter().map(job).collect()
    };
    assert_eq!(priced(local_jobs), priced(remote_jobs));
    assert_eq!(out.report.sim_secs, baseline.report.sim_secs);
}

/// 2-way replication, so a node death never destroys the only copy of a
/// block.
fn replicated_config(m0: usize) -> ClusterConfig {
    let mut cfg = unit_config(m0);
    cfg.cost.replication = 2;
    cfg
}

/// A simulated node death touches no worker process: the scheduler models
/// it alone, so the TCP backend lands on the in-process run's inverse,
/// simulated seconds and failures.
#[test]
fn a_node_death_prices_alike_on_both_backends() {
    let a = random_well_conditioned(64, 17);
    let cfg = InversionConfig::with_nb(8);
    let clean = Request::invert(&a)
        .config(&cfg)
        .submit(&Cluster::new(replicated_config(4)))
        .unwrap();
    let t_kill = clean.report.sim_secs / 2.0;

    let local = Cluster::new(replicated_config(4));
    local.faults.kill_node(1, t_kill);
    let baseline = Request::invert(&a).config(&cfg).submit(&local).unwrap();
    assert!(
        baseline.report.sim_secs > clean.report.sim_secs,
        "three survivors are slower than four nodes"
    );

    let remote = tcp_cluster(replicated_config(4), 2);
    remote.faults.kill_node(1, t_kill);
    let out = Request::invert(&a).config(&cfg).submit(&remote).unwrap();
    assert_eq!(out.report.backend, "tcp-workers");
    assert_eq!(
        encode_binary(out.inverse().unwrap()),
        encode_binary(baseline.inverse().unwrap())
    );
    assert_eq!(out.report.sim_secs, baseline.report.sim_secs);
    assert_eq!(out.report.task_failures, baseline.report.task_failures);
}

/// A proxy between a [`TcpWorkers`] driver and its workers that reads the
/// workers' frames (`u32` little-endian length counting the tag, then the
/// tag; see `mrinv_mapreduce::wire`) and breaks one connection at the
/// k-th `DfsReq` frame it sees.
#[cfg(unix)]
mod proxy {
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread::JoinHandle;

    /// The tag of a worker's DFS request frame.
    const TAG_DFS_REQ: u8 = 17;

    /// What the proxy does instead of forwarding the k-th `DfsReq`.
    #[derive(Debug, Clone, Copy)]
    pub enum Fault {
        /// Shut both sockets down.
        Cut,
        /// Hold both sockets open and forward nothing more.
        Stall,
    }

    pub struct Proxy {
        dir: PathBuf,
        addr: std::net::SocketAddr,
        stop: Arc<AtomicBool>,
        acceptor: Option<JoinHandle<()>>,
    }

    impl Proxy {
        /// Starts a proxy that applies `fault` to the `at`-th `DfsReq`
        /// (counted from 1 over every connection) and forwards everything
        /// else.
        pub fn start(fault: Fault, at: usize) -> Proxy {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let unique = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("mrinv-proxy-{}-{unique}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let stop = Arc::new(AtomicBool::new(false));
            let acceptor = {
                let (dir, stop) = (dir.clone(), stop.clone());
                let seen = Arc::new(AtomicUsize::new(0));
                std::thread::spawn(move || {
                    for worker in listener.incoming() {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        let Ok(worker) = worker else { continue };
                        let (dir, seen) = (dir.clone(), seen.clone());
                        std::thread::spawn(move || relay(&dir, worker, fault, at, &seen));
                    }
                })
            };
            Proxy {
                dir,
                addr,
                stop,
                acceptor: Some(acceptor),
            }
        }

        /// Writes the wrapper script to hand the driver as its worker
        /// binary: it records the driver's address for the proxy and runs
        /// `worker_bin` against the proxy instead.
        pub fn worker_bin(&self, worker_bin: &str) -> PathBuf {
            use std::os::unix::fs::PermissionsExt;
            let dir = self.dir.display();
            let script = format!(
                "#!/bin/sh\n\
                 # worker.sh --connect <driver> --worker-id <n>\n\
                 printf '%s' \"$2\" > '{dir}/driver.'$$ && mv '{dir}/driver.'$$ '{dir}/driver'\n\
                 shift 2\n\
                 exec '{worker_bin}' --connect {} \"$@\"\n",
                self.addr
            );
            let path = self.dir.join("worker.sh");
            let _spawning = super::spawning();
            std::fs::write(&path, script).unwrap();
            std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
            path
        }
    }

    impl Drop for Proxy {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::Relaxed);
            let _ = TcpStream::connect(self.addr);
            if let Some(acceptor) = self.acceptor.take() {
                let _ = acceptor.join();
            }
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    /// Connects one worker to the driver whose address its wrapper script
    /// recorded, and relays both ways until either side closes.
    fn relay(dir: &Path, worker: TcpStream, fault: Fault, at: usize, seen: &AtomicUsize) {
        let driver_addr = std::fs::read_to_string(dir.join("driver")).unwrap();
        let driver = TcpStream::connect(driver_addr.trim()).unwrap();
        for socket in [&worker, &driver] {
            socket.set_nodelay(true).unwrap();
        }
        let (mut down_from, mut down_to) =
            (driver.try_clone().unwrap(), worker.try_clone().unwrap());
        let down = std::thread::spawn(move || {
            let _ = std::io::copy(&mut down_from, &mut down_to);
            let _ = down_to.shutdown(Shutdown::Write);
        });
        relay_frames(worker, driver, fault, at, seen);
        let _ = down.join();
    }

    /// Forwards the worker's frames to the driver one at a time, breaking
    /// the connection at the `at`-th `DfsReq` seen on any connection.
    fn relay_frames(
        mut worker: TcpStream,
        mut driver: TcpStream,
        fault: Fault,
        at: usize,
        seen: &AtomicUsize,
    ) {
        let mut frame = Vec::new();
        loop {
            frame.resize(5, 0);
            if worker.read_exact(&mut frame).is_err() {
                break;
            }
            let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
            let Some(body) = len.checked_sub(1) else {
                break;
            };
            frame.resize(5 + body, 0);
            if worker.read_exact(&mut frame[5..]).is_err() {
                break;
            }
            if frame[4] == TAG_DFS_REQ && seen.fetch_add(1, Ordering::SeqCst) + 1 == at {
                match fault {
                    Fault::Cut => {
                        let _ = worker.shutdown(Shutdown::Both);
                        let _ = driver.shutdown(Shutdown::Both);
                    }
                    // Until the worker's side closes (the driver kills the
                    // worker when its attempt times out).
                    Fault::Stall => {
                        let _ = std::io::copy(&mut worker, &mut std::io::sink());
                    }
                }
                return;
            }
            if driver.write_all(&frame).is_err() {
                break;
            }
        }
        let _ = driver.shutdown(Shutdown::Write);
    }
}

/// Inverts the n = 64, nb = 4 acceptance matrix on 2 workers behind a
/// proxy that applies `fault` to one `DfsReq` mid-run: the broken attempt
/// is the run's one failure, its retry lands on the in-process bytes, and
/// a follow-up invert on the surviving pool runs clean. Returns how long
/// the faulted invert took.
#[cfg(unix)]
fn a_broken_attempt_is_retried(fault: proxy::Fault, attempt_timeout: Duration) -> Duration {
    let (n, nb) = (64, 4);
    let a = random_well_conditioned(n, 17);
    let cfg = InversionConfig::with_nb(nb);
    let baseline = Request::invert(&a)
        .config(&cfg)
        .submit(&Cluster::new(unit_config(4)))
        .unwrap();

    let proxy = proxy::Proxy::start(fault, FAULTED_DFS_REQ);
    let mut workers = TcpWorkersConfig::new(2, proxy.worker_bin(WORKER_BIN));
    workers.attempt_timeout = attempt_timeout;
    let remote = tcp_cluster_with(unit_config(4), workers);
    let started = Instant::now();
    let out = Request::invert(&a).config(&cfg).submit(&remote).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(
        out.report.task_failures, 1,
        "{fault:?}: the one broken attempt"
    );
    assert_eq!(
        encode_binary(out.inverse().unwrap()),
        encode_binary(baseline.inverse().unwrap()),
        "{fault:?}: the retried run's inverse bytes"
    );

    let again = Request::invert(&a).config(&cfg).submit(&remote).unwrap();
    assert_eq!(again.report.task_failures, 0, "{fault:?}: the follow-up");
    assert_eq!(
        encode_binary(again.inverse().unwrap()),
        encode_binary(baseline.inverse().unwrap())
    );
    elapsed
}

/// The `DfsReq` frame, counted from 1 over every connection, that the
/// proxy breaks: mid-run, of the 877 a clean n = 64, nb = 4 run sends.
#[cfg(unix)]
const FAULTED_DFS_REQ: usize = 400;

#[cfg(unix)]
#[test]
fn a_cut_connection_is_retried_on_another_worker() {
    a_broken_attempt_is_retried(proxy::Fault::Cut, Duration::from_secs(600));
}

#[cfg(unix)]
#[test]
fn a_stalled_attempt_times_out_and_is_retried() {
    let timeout = Duration::from_secs(2);
    let elapsed = a_broken_attempt_is_retried(proxy::Fault::Stall, timeout);
    assert!(
        elapsed >= timeout,
        "the stall held the attempt: {elapsed:?}"
    );
    assert!(
        elapsed < timeout + Duration::from_secs(5),
        "the retry follows the timeout: {elapsed:?}"
    );
}
