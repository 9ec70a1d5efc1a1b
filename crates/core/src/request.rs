//! The unified front door: one fluent [`Request`] builder for inversion,
//! LU decomposition, and linear solves, returning one typed [`Outcome`].
//!
//! ```
//! use mrinv::{InversionConfig, Request};
//! use mrinv_mapreduce::Cluster;
//! use mrinv_matrix::random::random_well_conditioned;
//!
//! let cluster = Cluster::medium(4);
//! let a = random_well_conditioned(32, 7);
//! let out = Request::invert(&a)
//!     .config(&InversionConfig::with_nb(8))
//!     .submit(&cluster)
//!     .unwrap();
//! assert_eq!(out.report.jobs, mrinv::schedule::total_jobs(32, 8));
//! let _inverse = out.into_inverse();
//! ```
//!
//! Every consumer — the CLI, the `mrinv serve` network service, the repro
//! experiments, and the tests — goes through this one type; the server is
//! just the network projection of it. A request can pin its run directory,
//! attach right-hand sides to any operation, and attach a
//! [`FactorCache`] so repeated requests for the same (matrix, nb) skip
//! the pipeline entirely.
//!
//! A request is answered in two steps. Something produces the packed
//! factors and the inverse — the cache finds an entry, or the pipeline
//! runs and packs what the request or the cache needs — and then one
//! private tail (`Request::answer`) turns them into the [`Outcome`]:
//! substitute, pick the operation's products. A hit and a cold run differ
//! only in what they hand that tail, so whatever an answer must carry is
//! built in one place. An inverse travels with its certificate
//! ([`Outcome::certificate`], O(n²)): a cold run takes it once, after its
//! factor forest is released and outside its report's window, and the
//! cache entry keeps it beside the inverse, so a hit computes nothing.
//! The service's *named*
//! requests — a matrix its connection already sent, named by key — are
//! crate-private key-only requests: they carry no matrix, can only be
//! hits, and go through the same lookup and the same tail.

use std::sync::{Arc, Weak};

use mrinv_mapreduce::{Cluster, PipelineDriver, RunId, RunReport, TaskIo};
use mrinv_matrix::norms::inverse_certificate;
use mrinv_matrix::triangular::{back_substitution, forward_substitution};
use mrinv_matrix::{lu, Matrix, Permutation};

use crate::cache::{cache_key, CacheKey, CertifiedInverse, FactorCache, Factorization};
use crate::config::InversionConfig;
use crate::error::{CoreError, Result};
use crate::inverse::{fresh_run_id, run_fingerprint};
use crate::lu_mr::lu_decompose_mr;
use crate::partition::{ingest_input, run_partition_job, PartitionPlan};
use crate::tri_inv_mr::invert_factors_mr;

/// What a [`Request`] computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// Full pipeline of Figure 2: partition job → LU pipeline → final
    /// inversion job.
    Invert,
    /// Partition + LU pipeline only; the factors are assembled on the
    /// master for the caller.
    Lu,
    /// Partition + LU pipeline, then master-side substitution
    /// (`L·y = P·b`, `U·x = y`) per right-hand side.
    Solve,
}

impl Op {
    /// Stable lowercase name (obs labels, wire protocol, CLI).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Op::Invert => "invert",
            Op::Lu => "lu",
            Op::Solve => "solve",
        }
    }
}

/// Whether (and how) the factor cache participated in an [`Outcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// No cache was attached to the request.
    Bypass,
    /// A cache was attached but held no usable entry; the pipeline ran
    /// (and primed the cache for next time).
    Miss,
    /// Served from cached factors: zero pipeline jobs, zero simulated
    /// seconds.
    Hit,
}

/// Dense LU factors returned by an `Op::Lu` outcome, unpacked from the
/// factorization's packed `L`/`U` for that outcome alone.
#[derive(Debug, Clone)]
pub struct LuFactors {
    /// Unit lower-triangular factor.
    pub l: Matrix,
    /// Upper-triangular factor.
    pub u: Matrix,
    /// Pivot permutation with `P·A = L·U`.
    pub perm: Permutation,
}

/// What a request names its matrix by.
#[derive(Debug)]
enum Input<'a> {
    /// The matrix itself.
    Matrix(&'a Matrix),
    /// Only the key of a matrix an earlier request was answered for, and
    /// the cache entry that answered it: the request is served from that
    /// entry or not at all.
    Entry(CacheKey, Weak<Factorization>),
}

/// A fully described unit of work against a cluster: operation, input,
/// configuration, run placement, and (optionally) a factor cache.
#[derive(Debug)]
pub struct Request<'a> {
    input: Input<'a>,
    op: Op,
    rhs: Vec<Vec<f64>>,
    cfg: InversionConfig,
    run: Option<RunId>,
    cache: Option<&'a FactorCache>,
    key: Option<CacheKey>,
}

impl<'a> Request<'a> {
    fn new(input: Input<'a>, op: Op) -> Self {
        Request {
            input,
            op,
            rhs: Vec::new(),
            cfg: InversionConfig::default(),
            run: None,
            cache: None,
            key: None,
        }
    }

    /// An inversion request for `a`.
    pub fn invert(a: &'a Matrix) -> Self {
        Request::new(Input::Matrix(a), Op::Invert)
    }

    /// An LU-decomposition request for `a`.
    pub fn lu(a: &'a Matrix) -> Self {
        Request::new(Input::Matrix(a), Op::Lu)
    }

    /// A linear-solve request for `a`; add right-hand sides with
    /// [`Request::rhs`].
    pub fn solve(a: &'a Matrix) -> Self {
        Request::new(Input::Matrix(a), Op::Solve)
    }

    /// A key-only request: `op` on the matrix `key` was computed from,
    /// served from `entry` — the cache entry an earlier request for that
    /// matrix was answered from — if the attached cache still files it
    /// under `key`, and not at all otherwise.
    /// It runs no pipeline: [`Request::submit_cached_only`] is its one
    /// door.
    pub(crate) fn named(op: Op, key: CacheKey, entry: Weak<Factorization>) -> Self {
        Request::new(Input::Entry(key, entry), op)
    }

    /// Adds one right-hand side `b` (length `n`). Valid on any operation:
    /// a solve requires at least one, while invert/lu requests with
    /// right-hand sides additionally return the substituted solutions.
    pub fn rhs(mut self, b: impl Into<Vec<f64>>) -> Self {
        self.rhs.push(b.into());
        self
    }

    /// Adds many right-hand sides at once.
    pub fn rhs_all(mut self, rhs: impl IntoIterator<Item = Vec<f64>>) -> Self {
        self.rhs.extend(rhs);
        self
    }

    /// Sets the inversion configuration (block bound and optimization
    /// toggles). Defaults to [`InversionConfig::default`].
    pub fn config(mut self, cfg: &InversionConfig) -> Self {
        self.cfg = cfg.clone();
        self
    }

    /// Shorthand for [`Request::config`] with block bound `nb` and every
    /// optimization on. `nb = 0` is refused at submit time.
    pub fn nb(mut self, nb: usize) -> Self {
        self.cfg = InversionConfig {
            nb,
            ..InversionConfig::default()
        };
        self
    }

    /// Pins the run directory: the run's files, job names and fingerprints
    /// name `run`, which, like an unpinned run's, is empty once it ends.
    pub fn workdir(mut self, run: &RunId) -> Self {
        self.run = Some(run.clone());
        self
    }

    /// Attaches a factor cache. A usable entry (same matrix bytes, same
    /// `nb`; the toggles and the cluster's shape move no bit of the
    /// answer) short-circuits the pipeline — the cache takes precedence
    /// over any pinned run directory. A miss runs the
    /// pipeline and primes the cache with the packed factors (and the
    /// inverse, for an invert), which the entry owns: it reads no DFS
    /// file again.
    pub fn cache(mut self, cache: &'a FactorCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Supplies the [`cache_key`] the caller already computed for this
    /// request's matrix and `nb`, so one service request hashes its
    /// matrix once.
    pub(crate) fn keyed(mut self, key: CacheKey) -> Self {
        self.key = Some(key);
        self
    }

    /// Executes the request on `cluster`.
    ///
    /// Cold runs are bit-identical to the historical free functions: the
    /// same driver, job sequence, job fingerprints, and master-side
    /// assembly, in the pinned directory or the lowest free
    /// `mrinv/run-<k>`. A cold run leaves nothing in the DFS: a failed one
    /// is deleted whole, since nothing can read what it wrote.
    pub fn submit(self, cluster: &Cluster) -> Result<Outcome> {
        let n = self.validate()?;
        let keyed = self.keyed_cache(cluster);
        if let Some(hit) = self.serve_hit(cluster, n, keyed, true)? {
            return Ok(hit);
        }
        let Input::Matrix(a) = self.input else {
            return Err(CoreError::Invariant(
                "a key-only request is served from its cache entry or not at all".to_string(),
            ));
        };
        let run = self.run.clone().unwrap_or_else(|| fresh_run_id(cluster));
        let cold = self.run_pipeline(cluster, a, &run, keyed);
        if cold.is_err() {
            cluster.dfs.delete_dir(run.dir());
        }
        cold
    }

    /// The matrix order, once the request is known to be well-formed: a
    /// positive block bound, a square matrix, right-hand sides of that
    /// length, and at least one of them for a solve.
    fn validate(&self) -> Result<usize> {
        if self.cfg.nb == 0 {
            return Err(CoreError::Invariant("nb must be at least 1".to_string()));
        }
        let n = match &self.input {
            Input::Matrix(a) => a.order()?,
            Input::Entry(key, _) => key.order,
        };
        for (i, b) in self.rhs.iter().enumerate() {
            if b.len() != n {
                return Err(CoreError::Invariant(format!(
                    "rhs {i} has length {}, expected {n}",
                    b.len()
                )));
            }
        }
        if self.op == Op::Solve && self.rhs.is_empty() {
            return Err(CoreError::Invariant(
                "a solve request needs at least one right-hand side (Request::rhs)".to_string(),
            ));
        }
        Ok(n)
    }

    /// The attached cache with this request's key. Called once per
    /// submit: the same key looks the entry up and, on a miss, files the
    /// finished run.
    fn keyed_cache(&self, cluster: &Cluster) -> Option<(&'a FactorCache, CacheKey)> {
        let key = || match &self.input {
            Input::Matrix(a) => self.key.unwrap_or_else(|| cache_key(a, &self.cfg, cluster)),
            Input::Entry(key, _) => *key,
        };
        self.cache.map(|cache| (cache, key()))
    }

    /// Serves the request from the attached cache if (and only if) a
    /// usable entry exists — one that holds what the operation needs and,
    /// for a key-only request, is the entry it names: no driver, no jobs,
    /// no DFS reads. The report carries zero pipeline numbers and no run
    /// directory, since nothing ran. `Ok(None)` is a miss, counted when
    /// `count_miss` is set.
    fn serve_hit(
        &self,
        cluster: &Cluster,
        n: usize,
        keyed: Option<(&FactorCache, CacheKey)>,
        count_miss: bool,
    ) -> Result<Option<Outcome>> {
        let usable = |e: &Factorization| {
            let named = match &self.input {
                Input::Matrix(_) => true,
                Input::Entry(_, entry) => std::ptr::eq(entry.as_ptr(), e),
            };
            named && (self.op != Op::Invert || e.inverse.is_some())
        };
        let Some(hit) = keyed.and_then(|(cache, key)| cache.lookup_if(key, count_miss, usable))
        else {
            return Ok(None);
        };
        let report = RunReport {
            n,
            nodes: cluster.nodes(),
            nb: hit.nb,
            backend: "factor-cache".to_string(),
            ..RunReport::default()
        };
        let lu = Some(hit.lu.clone());
        let mut outcome = self.answer(lu, hit.inverse.clone(), CacheStatus::Hit, report)?;
        outcome.entry = Some(Arc::downgrade(&hit));
        Ok(Some(outcome))
    }

    /// [`Request::submit`] without the cold path: a miss comes back as
    /// `Ok(None)`, uncounted, and runs nothing. The service's handler
    /// threads use this to answer hits concurrently while cold requests
    /// queue for the single pipeline executor.
    pub(crate) fn submit_cached_only(self, cluster: &Cluster) -> Result<Option<Outcome>> {
        let n = self.validate()?;
        self.serve_hit(cluster, n, self.keyed_cache(cluster), false)
    }

    /// The cold path, and the only place the pipeline's job sequence is
    /// written: partition, the LU jobs, then (for an invert) the final
    /// job, each committed by one `PipelineDriver::step`, in `run`'s
    /// directory. `keyed` is the attached cache with this request's key,
    /// if any; the finished run is filed under it.
    fn run_pipeline(
        &self,
        cluster: &Cluster,
        a: &Matrix,
        run: &RunId,
        keyed: Option<(&FactorCache, CacheKey)>,
    ) -> Result<Outcome> {
        let n = a.rows();
        let plan = PartitionPlan::new(n, cluster, &self.cfg, run.dir());
        ingest_input(cluster, a, &plan)?;

        // Invert runs every job; lu/solve stop before the final inversion
        // job.
        let planned_jobs = match self.op {
            Op::Invert => crate::schedule::total_jobs(n, self.cfg.nb),
            Op::Lu | Op::Solve => crate::schedule::total_jobs(n, self.cfg.nb) - 1,
        };
        let mut driver = PipelineDriver::new(cluster, run.clone());
        driver.set_config_fingerprint(run_fingerprint(&plan, &self.cfg.opts));
        if cluster.config.progress {
            driver.enable_progress(planned_jobs);
        }
        let (source, _) = run_partition_job(&mut driver, &plan)?;
        // The recursion reads the partition tree through windows of one
        // descriptor; only once its root returns is the whole tree dead.
        let factors = lu_decompose_mr(&mut driver, &plan.root, &source, &plan, &self.cfg.opts)?;
        driver.release(source.paths());
        let inverse = match self.op {
            Op::Invert => Some(invert_factors_mr(
                &mut driver,
                &factors,
                &plan,
                &self.cfg.opts,
            )?),
            Op::Lu | Op::Solve => None,
        };

        let mut report = driver.finish(n, self.cfg.nb);
        if cluster.trace.is_enabled() {
            report.audit = Some(crate::audit::cost_audit(&report, planned_jobs));
        }

        // Outside the measured window, the master packs the factors the
        // operation, a right-hand side or the cache needs; then the forest,
        // the run's last files, goes back to the DFS.
        let packs = keyed.is_some() || self.op != Op::Invert || !self.rhs.is_empty();
        let mut io = TaskIo::new(cluster.dfs.clone());
        let lu = packs
            .then(|| factors.assemble_packed(&mut io).map(Arc::new))
            .transpose()?;
        driver.release(factors.paths());
        // The inverse's certificate, once: a hit hands this value back.
        let inverse = match inverse {
            Some(matrix) => Some(CertifiedInverse {
                certificate: inverse_certificate(a, &matrix)?,
                matrix: Arc::new(matrix),
            }),
            None => None,
        };

        let status = match keyed {
            Some(_) => CacheStatus::Miss,
            None => CacheStatus::Bypass,
        };
        let mut outcome = self.answer(lu.clone(), inverse.clone(), status, report)?;
        if let (Some((cache, key)), Some(lu)) = (keyed, lu) {
            let done = Factorization {
                nb: self.cfg.nb,
                lu,
                inverse,
            };
            outcome.entry = Some(Arc::downgrade(&cache.insert(key, done)));
        }
        Ok(outcome)
    }

    /// The one answer tail: turns a finished factorization — found in the
    /// cache or just produced by the pipeline — into this request's
    /// [`Outcome`]: substitutes through the packed factors `lu` and picks
    /// the products the operation returns. `lu` is there whenever the
    /// operation or a right-hand side needs it.
    fn answer(
        &self,
        lu: Option<Arc<lu::LuFactors>>,
        inverse: Option<CertifiedInverse>,
        cache: CacheStatus,
        report: RunReport,
    ) -> Result<Outcome> {
        let mut solutions = Vec::with_capacity(self.rhs.len());
        for b in &self.rhs {
            let f = lu.as_ref().expect("packed when rhs present");
            solutions.push(substitute(f, b)?);
        }
        let factors = lu.filter(|_| self.op == Op::Lu).map(|f| {
            Arc::new(LuFactors {
                l: f.unit_lower(),
                u: f.upper(),
                perm: f.perm.clone(),
            })
        });
        Ok(Outcome {
            op: self.op,
            inverse: inverse.filter(|_| self.op == Op::Invert),
            factors,
            solutions,
            cache,
            report,
            entry: None,
        })
    }
}

/// `x` with `A·x = b` via the packed factors: `P·b`, forward through the
/// strict lower triangle (unit `L`), back through the upper one.
fn substitute(f: &lu::LuFactors, b: &[f64]) -> Result<Vec<f64>> {
    let n = f.perm.len();
    // P·b: entry i of the permuted vector is b[S[i]].
    let pb: Vec<f64> = (0..n).map(|i| b[f.perm.source_of(i)]).collect();
    let y = forward_substitution(&f.lu, &pb)?;
    Ok(back_substitution(&f.lu, &y)?)
}

/// The typed result of a [`Request`]: whichever products the operation
/// yields, plus run accounting and the cache verdict.
#[derive(Debug, Clone)]
pub struct Outcome {
    op: Op,
    inverse: Option<CertifiedInverse>,
    factors: Option<Arc<LuFactors>>,
    solutions: Vec<Vec<f64>>,
    /// Whether the factor cache served this request.
    pub cache: CacheStatus,
    /// Run accounting: on a cold run, the pipeline's report of its own
    /// jobs and master calls ([`mrinv_mapreduce::PipelineDriver::finish`]); all
    /// zero pipeline numbers (jobs, simulated seconds, I/O) on a cache
    /// hit.
    pub report: RunReport,
    /// The cache entry that answered the request (a hit), or that its run
    /// filed (a miss); none without a cache.
    entry: Option<Weak<Factorization>>,
}

impl Outcome {
    /// The computed inverse (`Op::Invert` outcomes only).
    pub fn inverse(&self) -> Option<&Matrix> {
        self.inverse.as_ref().map(|c| &*c.matrix)
    }

    /// The inverse's certificate (`Op::Invert` outcomes only, cold or
    /// hit): [`mrinv_matrix::norms::inverse_certificate`] of the inverse
    /// against the matrix whose run computed it, taken once, when the
    /// inverse was made. A hit hands back its entry's value and computes
    /// nothing. It is at most `n` times the paper's metric `max |I − A·X|`,
    /// so an inverse that meets [`mrinv_matrix::PAPER_ACCURACY`] by that
    /// factor reads below it; a worse one reads below the paper's metric
    /// with probability at most 2⁻¹⁶.
    pub fn certificate(&self) -> Option<f64> {
        self.inverse.as_ref().map(|c| c.certificate)
    }

    /// Consumes the outcome, returning the inverse.
    ///
    /// # Panics
    /// If the request was not an invert.
    pub fn into_inverse(self) -> Matrix {
        let shared = self
            .inverse
            .unwrap_or_else(|| panic!("outcome of {:?} has no inverse", self.op));
        Arc::unwrap_or_clone(shared.matrix)
    }

    /// The assembled factors (`Op::Lu` outcomes only).
    pub fn factors(&self) -> Option<&LuFactors> {
        self.factors.as_deref()
    }

    /// Consumes the outcome, returning the assembled factors.
    ///
    /// # Panics
    /// If the request was not an LU decomposition.
    pub fn into_factors(self) -> LuFactors {
        let shared = self
            .factors
            .unwrap_or_else(|| panic!("outcome of {:?} has no assembled factors", self.op));
        Arc::unwrap_or_clone(shared)
    }

    /// Solutions, one per right-hand side (in the order they were added).
    pub fn solutions(&self) -> &[Vec<f64>] {
        &self.solutions
    }

    /// Consumes the outcome, returning the solutions.
    pub fn into_solutions(self) -> Vec<Vec<f64>> {
        self.solutions
    }

    /// The cache entry that answered the request or that its run filed.
    pub(crate) fn entry(&self) -> Option<&Weak<Factorization>> {
        self.entry.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Optimizations;
    use mrinv_mapreduce::dfs::DfsCountersSnapshot;
    use mrinv_mapreduce::{ClusterConfig, CostModel};
    use mrinv_matrix::norms::{inversion_residual, vec_norm};
    use mrinv_matrix::random::{random_invertible, random_well_conditioned};
    use mrinv_matrix::PAPER_ACCURACY;

    fn test_cluster(m0: usize) -> Cluster {
        let mut cfg = ClusterConfig::medium(m0);
        cfg.cost = CostModel::unit_for_tests();
        Cluster::new(cfg)
    }

    /// A matrix's words as their bits, for comparisons that allow no
    /// rounding.
    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn end_to_end_inversion_is_accurate() {
        let cluster = test_cluster(4);
        let a = random_well_conditioned(48, 1);
        let out = Request::invert(&a).nb(12).submit(&cluster).unwrap();
        assert_eq!(out.cache, CacheStatus::Bypass);
        let res = inversion_residual(&a, out.inverse().unwrap()).unwrap();
        assert!(res < PAPER_ACCURACY, "residual {res}");
    }

    #[test]
    fn inversion_matches_in_memory_reference() {
        let cluster = test_cluster(4);
        let a = random_invertible(40, 2);
        let out = Request::invert(&a).nb(10).submit(&cluster).unwrap();
        let reference = crate::inmem::invert_block(&a, 10).unwrap();
        assert_eq!(bits(&out.into_inverse()), bits(&reference));
    }

    #[test]
    fn job_count_matches_schedule() {
        for &(n, nb) in &[(32usize, 8usize), (64, 8), (16, 16), (48, 6)] {
            let cluster = test_cluster(4);
            let a = random_invertible(n, n as u64);
            let out = Request::invert(&a).nb(nb).submit(&cluster).unwrap();
            assert_eq!(
                out.report.jobs,
                crate::schedule::total_jobs(n, nb),
                "n={n} nb={nb}"
            );
        }
    }

    #[test]
    fn lu_request_returns_valid_factors() {
        let cluster = test_cluster(4);
        let a = random_invertible(32, 5);
        let out = Request::lu(&a).nb(8).submit(&cluster).unwrap();
        let report_jobs = out.report.jobs;
        let f = out.into_factors();
        let pa = f.perm.apply_rows(&a);
        assert!((&f.l * &f.u).approx_eq(&pa, 1e-8));
        // LU alone runs the partition + pipeline jobs, no final job.
        assert_eq!(report_jobs, crate::schedule::total_jobs(32, 8) - 1);
    }

    #[test]
    fn report_accounts_io_and_time() {
        let cluster = test_cluster(4);
        let a = random_well_conditioned(32, 7);
        let out = Request::invert(&a).nb(8).submit(&cluster).unwrap();
        let r = &out.report;
        assert_eq!(r.n, 32);
        assert_eq!(r.nodes, 4);
        assert!(r.sim_secs > 0.0);
        assert!(r.master_secs > 0.0);
        assert!(
            r.dfs_bytes_written as f64 > (32.0 * 32.0) * 8.0,
            "at least the partition"
        );
        assert!(r.dfs_bytes_read > 0);
        assert_eq!(r.task_failures, 0);
        assert!((r.hours - r.sim_secs / 3600.0).abs() < 1e-12);
        // A run reports each of its jobs and names its workdir.
        assert_eq!(r.job_reports.len() as u64, r.jobs);
        assert!(r.workdir.starts_with("mrinv/run-"), "workdir {}", r.workdir);
    }

    /// A run's report depends on its request alone: five identical
    /// unpinned inverts on one cluster, the fifth after an unrelated
    /// (32, 8) invert, all run in `mrinv/run-0` and report the same
    /// simulated and master seconds, locality and remote bytes, bit for
    /// bit, and the same job fingerprints.
    #[test]
    fn repeated_runs_report_identical_bits() {
        let cluster = Cluster::new(ClusterConfig::medium(4));
        let a = random_well_conditioned(64, 42);
        let other = random_well_conditioned(32, 43);
        let invert = |a: &Matrix| Request::invert(a).nb(4).submit(&cluster).unwrap().report;
        let mut reports: Vec<RunReport> = (0..4).map(|_| invert(&a)).collect();
        Request::invert(&other).nb(8).submit(&cluster).unwrap();
        reports.push(invert(&a));
        let ledger = |r: &RunReport| {
            let secs = [r.sim_secs, r.master_secs, r.data_local_fraction].map(f64::to_bits);
            let fingerprints: Vec<u64> = r.job_reports.iter().map(|j| j.fingerprint).collect();
            (r.workdir.clone(), secs, r.remote_read_bytes, fingerprints)
        };
        assert_eq!(reports[0].jobs, 17);
        assert_eq!(reports[0].workdir, "mrinv/run-0");
        assert_eq!(reports[0].sim_secs, 110.5069998158333, "run-0's bits");
        for (k, r) in reports.iter().enumerate().skip(1) {
            assert_eq!(ledger(r), ledger(&reports[0]), "run {k}");
        }
    }

    #[test]
    fn traced_run_reports_analytics_and_exports() {
        let mut ccfg = ClusterConfig::medium(4);
        ccfg.cost = CostModel::unit_for_tests();
        ccfg.tracing = true;
        let cluster = Cluster::new(ccfg);
        let a = random_well_conditioned(32, 31);
        let out = Request::invert(&a).nb(8).submit(&cluster).unwrap();
        let analytics = out.report.analytics.as_ref().expect("tracing enabled");
        // Every job contributes at least its map wave.
        assert!(analytics.waves.len() >= out.report.jobs as usize);
        assert_eq!(analytics.retried_attempts, 0);
        assert!(analytics.total_task_secs > 0.0);
        assert!(analytics.worst_straggler_ratio() >= 1.0);
        // The whole run exports as a valid Chrome trace with one process
        // per pipeline job (plus the cluster/master process).
        let events = cluster.trace.events();
        let json = mrinv_mapreduce::chrome_trace_json(&events);
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        let spans = doc.get("traceEvents").unwrap().as_array().unwrap();
        let job_pids: std::collections::BTreeSet<u64> = spans
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .filter_map(|e| e.get("pid").and_then(|p| p.as_u64()))
            .filter(|&pid| pid > 0)
            .collect();
        assert_eq!(
            job_pids.len() as u64,
            out.report.jobs,
            "one trace process per job"
        );

        // Without tracing, the identical run carries no analytics.
        let plain = test_cluster(4);
        let out2 = Request::invert(&a).nb(8).submit(&plain).unwrap();
        assert!(out2.report.analytics.is_none());
        assert!(out2
            .inverse()
            .unwrap()
            .approx_eq(out.inverse().unwrap(), 0.0));
    }

    /// A run's files live under its own directory and nowhere else: two
    /// unpinned runs and a pinned one give the same bits, the second
    /// unpinned run reuses the `mrinv/run-0` the first gave back, and a
    /// file outside every run directory is left as it was.
    #[test]
    fn runs_are_isolated_by_workdir() {
        let cluster = test_cluster(2);
        let a = random_well_conditioned(16, 9);
        let mut io = TaskIo::new(cluster.dfs.clone());
        let foreign = Matrix::identity(3);
        crate::source::write_block(&mut io, "user/mine", &foreign);
        let run = RunId::new("pinned");
        let outs = [
            Request::invert(&a).nb(4).submit(&cluster).unwrap(),
            Request::invert(&a).nb(4).submit(&cluster).unwrap(),
            Request::invert(&a)
                .nb(4)
                .workdir(&run)
                .submit(&cluster)
                .unwrap(),
        ];
        let dirs: Vec<&str> = outs.iter().map(|o| o.report.workdir.as_str()).collect();
        assert_eq!(dirs, ["mrinv/run-0", "mrinv/run-0", run.dir()]);
        for out in &outs[1..] {
            assert_eq!(
                bits(out.inverse().unwrap()),
                bits(outs[0].inverse().unwrap()),
                "same input, same output"
            );
        }
        assert_eq!(cluster.dfs.list(""), ["user/mine"]);
        let kept = crate::source::read_block(&mut io, "user/mine", (3, 3));
        assert_eq!(bits(&kept.unwrap()), bits(&foreign));
    }

    #[test]
    fn optimizations_do_not_change_results() {
        let a = random_invertible(24, 11);
        let reference = {
            let cluster = test_cluster(4);
            Request::invert(&a)
                .nb(6)
                .submit(&cluster)
                .unwrap()
                .into_inverse()
        };
        let mut cfg = InversionConfig::with_nb(6);
        cfg.opts = Optimizations::none();
        let cluster = test_cluster(4);
        let unopt = Request::invert(&a)
            .config(&cfg)
            .submit(&cluster)
            .unwrap()
            .into_inverse();
        assert_eq!(bits(&unopt), bits(&reference));
    }

    #[test]
    fn unoptimized_run_costs_more_io() {
        let a = random_well_conditioned(32, 13);
        let opt = {
            let cluster = test_cluster(4);
            Request::invert(&a).nb(8).submit(&cluster).unwrap().report
        };
        let mut cfg = InversionConfig::with_nb(8);
        cfg.opts = Optimizations::none();
        let unopt = {
            let cluster = test_cluster(4);
            Request::invert(&a)
                .config(&cfg)
                .submit(&cluster)
                .unwrap()
                .report
        };
        assert!(
            unopt.dfs_bytes_read > opt.dfs_bytes_read,
            "no block wrap => more read I/O ({} vs {})",
            unopt.dfs_bytes_read,
            opt.dfs_bytes_read
        );
        assert!(
            unopt.dfs_bytes_written > opt.dfs_bytes_written,
            "combining writes more"
        );
    }

    #[test]
    fn singular_input_errors_cleanly() {
        let cluster = test_cluster(2);
        let mut a = random_well_conditioned(16, 15);
        let row = a.row(2).to_vec();
        a.row_mut(9).copy_from_slice(&row);
        assert!(Request::invert(&a).nb(4).submit(&cluster).is_err());
    }

    /// A cold run that fails is deleted whole, pinned or not: the
    /// cluster's DFS is left as the request found it. Without the cleanup
    /// the partition tree, `B` cells and factors written before the
    /// failing leaf would stay for good.
    #[test]
    fn a_failed_cold_run_leaves_the_dfs_as_it_found_it() {
        let c = test_cluster(2);
        let cache = FactorCache::new();
        let good = random_well_conditioned(16, 14);
        Request::invert(&good)
            .nb(4)
            .cache(&cache)
            .submit(&c)
            .unwrap();
        let mut singular = random_well_conditioned(16, 15);
        let row = singular.row(2).to_vec();
        singular.row_mut(9).copy_from_slice(&row);

        let held = |c: &Cluster| (c.dfs.file_count(), c.dfs.live_bytes());
        let before = held(&c);
        let written = c.dfs.counters().files_written;
        let failed = Request::invert(&singular).nb(4).cache(&cache).submit(&c);
        assert!(failed.is_err());
        assert!(c.dfs.counters().files_written > written, "it wrote files");
        assert_eq!(held(&c), before);
        assert_eq!(cache.stats().entries, 1);

        // So does one in a directory the caller pinned.
        let run = RunId::new("pinned");
        let written = c.dfs.counters().files_written;
        let failed = Request::invert(&singular).nb(4).workdir(&run).submit(&c);
        assert!(failed.is_err());
        assert!(c.dfs.counters().files_written > written, "it wrote files");
        assert_eq!(held(&c), before);
    }

    /// A fresh run takes the lowest directory that holds no file, and
    /// never one that does: a file written straight to `mrinv/run-0` sends
    /// the next run to `run-1`, which leaves the file as it was and is
    /// empty again once the run ends.
    #[test]
    fn a_fresh_run_never_lands_in_a_live_directory() {
        let c = test_cluster(2);
        let a = random_invertible(16, 1);
        let first = Request::lu(&a).nb(4).submit(&c).unwrap();
        assert_eq!(first.report.workdir, "mrinv/run-0");
        let mut io = TaskIo::new(c.dfs.clone());
        let foreign = Matrix::identity(3);
        crate::source::write_block(&mut io, "mrinv/run-0/mine", &foreign);
        let next = Request::lu(&a).nb(4).submit(&c).unwrap();
        assert_eq!(next.report.workdir, "mrinv/run-1");
        assert_eq!(c.dfs.list("mrinv"), ["mrinv/run-0/mine"]);
        let kept = crate::source::read_block(&mut io, "mrinv/run-0/mine", (3, 3));
        assert_eq!(bits(&kept.unwrap()), bits(&foreign));
        assert_eq!(
            bits(&next.factors().unwrap().u),
            bits(&first.factors().unwrap().u)
        );
    }

    /// After a plain run the DFS holds nothing, with a cache or without,
    /// for every operation, under every optimization set, at an even and an
    /// odd order, and with block wrap off at n=24 / nb=6 / m0=4, where
    /// `B`'s cells do not line up with `B`'s own split and so windows
    /// share cells: whatever the answer needs is in the outcome and the
    /// cache entry.
    #[test]
    fn plain_runs_keep_only_their_products() {
        let mut variants = Vec::new();
        for sep in [true, false] {
            for wrap in [true, false] {
                for tr in [true, false] {
                    variants.push(Optimizations {
                        separate_intermediate_files: sep,
                        block_wrap: wrap,
                        transpose_u: tr,
                    });
                }
            }
        }
        for (n, nb) in [(32, 8), (37, 9), (24, 6)] {
            let a = random_invertible(n, n as u64);
            for opts in &variants {
                let cfg = InversionConfig { nb, opts: *opts };
                for (op, cached) in [Op::Invert, Op::Lu, Op::Solve]
                    .into_iter()
                    .flat_map(|op| [(op, true), (op, false)])
                {
                    let c = test_cluster(4);
                    let cache = FactorCache::new();
                    let req = match op {
                        Op::Invert => Request::invert(&a),
                        Op::Lu => Request::lu(&a),
                        Op::Solve => Request::solve(&a).rhs(vec![1.0; n]),
                    };
                    let req = if cached { req.cache(&cache) } else { req };
                    req.config(&cfg).submit(&c).unwrap();
                    let what = format!("{op:?} cached {cached} {opts:?}");
                    assert_eq!((c.dfs.file_count(), c.dfs.live_bytes()), (0, 0), "{what}");
                    assert!(c.dfs.live_bytes_peak() > 0, "{what}");
                    assert_eq!(cache.stats().entries, usize::from(cached), "{what}");
                }
            }
        }
    }

    /// A server's DFS stays empty across cold inverts and their hits.
    #[test]
    fn each_cold_invert_adds_only_its_products() {
        let c = test_cluster(4);
        let cache = FactorCache::new();
        let cfg = InversionConfig::with_nb(8);
        let empty = |c: &Cluster| (c.dfs.file_count(), c.dfs.live_bytes()) == (0, 0);
        for seed in 0..3 {
            let a = random_well_conditioned(32, 90 + seed);
            let cold = Request::invert(&a).config(&cfg).cache(&cache).submit(&c);
            assert_eq!(cold.unwrap().cache, CacheStatus::Miss);
            assert!(empty(&c), "cold invert {seed}");
            let hit = Request::invert(&a).config(&cfg).cache(&cache).submit(&c);
            assert_eq!(hit.unwrap().cache, CacheStatus::Hit);
            assert!(empty(&c), "hit {seed}");
        }
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn non_square_input_rejected() {
        let cluster = test_cluster(2);
        let a = Matrix::zeros(4, 6);
        assert!(Request::invert(&a).submit(&cluster).is_err());
    }

    #[test]
    fn zero_nb_is_an_error_not_a_panic() {
        let cluster = test_cluster(2);
        let a = random_well_conditioned(8, 2);
        let cfg = InversionConfig {
            nb: 0,
            ..InversionConfig::default()
        };
        for req in [
            Request::invert(&a).config(&cfg),
            Request::lu(&a).nb(0),
            Request::solve(&a).rhs(vec![1.0; 8]).nb(0),
        ] {
            let err = req.submit(&cluster).unwrap_err().to_string();
            assert!(err.contains("nb must be at least 1"), "{err}");
        }
        let untouched = DfsCountersSnapshot::default();
        assert_eq!(cluster.dfs.counters(), untouched, "validation is free");
    }

    #[test]
    fn one_node_cluster_end_to_end() {
        let cluster = test_cluster(1);
        let a = random_well_conditioned(20, 21);
        let out = Request::invert(&a).nb(5).submit(&cluster).unwrap();
        assert!(inversion_residual(&a, out.inverse().unwrap()).unwrap() < PAPER_ACCURACY);
    }

    #[test]
    fn many_node_cluster_end_to_end() {
        let cluster = test_cluster(16);
        let a = random_well_conditioned(64, 23);
        let out = Request::invert(&a).nb(16).submit(&cluster).unwrap();
        assert!(inversion_residual(&a, out.inverse().unwrap()).unwrap() < PAPER_ACCURACY);
    }

    #[test]
    fn solve_recovers_known_solutions() {
        let c = test_cluster(4);
        let n = 48;
        let a = random_invertible(n, 3);
        let xs: Vec<Vec<f64>> = (0..3)
            .map(|k| (0..n).map(|i| ((i + k) as f64 * 0.31).cos()).collect())
            .collect();
        let rhs: Vec<Vec<f64>> = xs.iter().map(|x| a.mul_vec(x).unwrap()).collect();
        let out = Request::solve(&a).rhs_all(rhs).nb(12).submit(&c).unwrap();
        for (got, want) in out.solutions().iter().zip(&xs) {
            let err: Vec<f64> = got.iter().zip(want).map(|(g, w)| g - w).collect();
            assert!(vec_norm(&err) / vec_norm(want) < 1e-9);
        }
        assert!(out.report.jobs > 0);
        assert!(out.inverse().is_none(), "solve computes no inverse");
    }

    #[test]
    fn solve_validates_rhs() {
        let c = test_cluster(4);
        let a = random_well_conditioned(8, 1);
        // Wrong-length rhs is rejected before any job runs.
        let err = Request::solve(&a).rhs(vec![0.0; 7]).nb(4).submit(&c);
        assert!(err.is_err());
        // A solve with no rhs at all is rejected too.
        assert!(Request::solve(&a).nb(4).submit(&c).is_err());
        let untouched = DfsCountersSnapshot::default();
        assert_eq!(c.dfs.counters(), untouched, "validation is free");
    }

    #[test]
    fn invert_with_rhs_returns_both_products() {
        let c = test_cluster(2);
        let n = 16;
        let a = random_invertible(n, 40);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
        let b = a.mul_vec(&x).unwrap();
        let out = Request::invert(&a).rhs(b).nb(4).submit(&c).unwrap();
        assert!(out.inverse().is_some());
        let got = &out.solutions()[0];
        let err: Vec<f64> = got.iter().zip(&x).map(|(g, w)| g - w).collect();
        assert!(vec_norm(&err) / vec_norm(&x) < 1e-9);
    }

    #[test]
    fn cached_solve_after_warm_lu_runs_zero_jobs() {
        let c = test_cluster(4);
        let cache = FactorCache::new();
        let n = 32;
        let a = random_invertible(n, 50);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.07).cos()).collect();
        let b = a.mul_vec(&x).unwrap();

        // Warm: a cold lu primes the cache.
        let warm = Request::lu(&a).nb(8).cache(&cache).submit(&c).unwrap();
        assert_eq!(warm.cache, CacheStatus::Miss);
        let files_after_warm = c.dfs.file_count();
        let io_after_warm = c.dfs.counters();

        // Hit: zero pipeline jobs, zero simulated seconds, no DFS reads,
        // no new DFS files.
        let hit = Request::solve(&a)
            .rhs(b.clone())
            .nb(8)
            .cache(&cache)
            .submit(&c)
            .unwrap();
        assert_eq!(hit.cache, CacheStatus::Hit);
        assert_eq!(hit.report.jobs, 0);
        assert_eq!(hit.report.sim_secs, 0.0);
        assert_eq!(hit.report.backend, "factor-cache");
        assert_eq!(hit.report.workdir, "", "a hit runs in no directory");
        assert_eq!(c.dfs.file_count(), files_after_warm);
        assert_eq!(c.dfs.counters(), io_after_warm, "hits read nothing");

        // And the answer is bit-identical to a cold solve.
        let cold = Request::solve(&a).rhs(b).nb(8).submit(&c).unwrap();
        assert_eq!(hit.solutions(), cold.solutions());

        // An invert against the lu-primed entry is a miss (no inverse
        // stored) and upgrades the entry; the next invert hits.
        let miss = Request::invert(&a).nb(8).cache(&cache).submit(&c).unwrap();
        assert_eq!(miss.cache, CacheStatus::Miss);
        let hit2 = Request::invert(&a).nb(8).cache(&cache).submit(&c).unwrap();
        assert_eq!(hit2.cache, CacheStatus::Hit);
        assert!(hit2
            .inverse()
            .unwrap()
            .approx_eq(miss.inverse().unwrap(), 0.0));
    }

    /// Every invert outcome carries its inverse's certificate, taken once
    /// by the cold run: a hit, full or named, hands back the same bits.
    /// An `lu` or `solve` outcome carries none, cold or hit. (That a hit
    /// runs no engine call is checked in `tests/count_gates.rs`, whose
    /// tests alone may read the process-wide kernel counters.)
    #[test]
    fn every_invert_outcome_carries_the_cold_runs_certificate() {
        let c = test_cluster(4);
        let cache = FactorCache::new();
        let a = random_invertible(32, 71);
        let cfg = InversionConfig::with_nb(8);
        let cold = Request::invert(&a).config(&cfg).cache(&cache).submit(&c);
        let cold = cold.unwrap();
        let certificate = cold.certificate().expect("a cold invert is certified");
        assert!(certificate < PAPER_ACCURACY, "{certificate}");
        assert!(certificate > 0.0, "the rounding residue of n = 32 shows");

        let hit = Request::invert(&a).config(&cfg).cache(&cache).submit(&c);
        let hit = hit.unwrap();
        assert_eq!(hit.cache, CacheStatus::Hit);
        let key = cache_key(&a, &cfg, &c);
        let entry = cold.entry().unwrap().clone();
        let named = Request::named(Op::Invert, key, entry).cache(&cache);
        let named = named.submit_cached_only(&c).unwrap().expect("a named hit");
        for out in [&hit, &named] {
            assert_eq!(
                out.certificate().map(f64::to_bits),
                Some(certificate.to_bits())
            );
            assert_eq!(bits(out.inverse().unwrap()), bits(cold.inverse().unwrap()));
        }

        let b = vec![1.0; 32];
        for cached in [false, true] {
            let run = |req: Request<'_>| {
                let req = if cached { req.cache(&cache) } else { req };
                req.config(&cfg).submit(&c).unwrap()
            };
            let lu = run(Request::lu(&a));
            let solve = run(Request::solve(&a).rhs(b.clone()));
            assert_eq!(lu.cache == CacheStatus::Hit, cached);
            assert_eq!((lu.certificate(), solve.certificate()), (None, None));
        }
    }

    #[test]
    fn cache_entry_and_outcomes_share_one_inverse() {
        let c = test_cluster(4);
        let cache = FactorCache::new();
        let a = random_invertible(32, 70);
        let invert = || Request::invert(&a).nb(8).cache(&cache).submit(&c).unwrap();
        let address = |out: &Outcome| out.inverse().unwrap().as_slice().as_ptr();

        let cold = invert();
        assert_eq!(cold.cache, CacheStatus::Miss);
        let (warm1, warm2) = (invert(), invert());
        assert_eq!(warm1.cache, CacheStatus::Hit);
        assert_eq!(warm2.cache, CacheStatus::Hit);
        // Two hits hand out the entry's inverse, not copies of it...
        assert_eq!(address(&warm1), address(&warm2));
        // ...and the entry holds the very matrix the cold run returned.
        assert_eq!(address(&cold), address(&warm1));
        // Taking ownership copies out of the shared entry, never from it.
        let owned = cold.into_inverse();
        assert_ne!(owned.as_slice().as_ptr(), address(&warm1));
        assert!(owned.approx_eq(warm1.inverse().unwrap(), 0.0));
    }

    /// An entry filed by a run on 4 nodes serves a 2-node cluster over the
    /// same DFS: the key is (matrix, nb), and a hit answers from the
    /// entry's packed factors. Every product has the bits a cold 2-node run
    /// computes.
    #[test]
    fn an_entry_primed_on_four_nodes_serves_a_two_node_cluster() {
        let four = test_cluster(4);
        let mut two = test_cluster(2);
        two.dfs = four.dfs.clone();
        let cache = FactorCache::new();
        let a = random_invertible(37, 8);
        let b: Vec<f64> = (0..37).map(|i| (i as f64 * 0.3).sin()).collect();
        let primed = Request::invert(&a).nb(9).cache(&cache).submit(&four);
        assert_eq!(primed.unwrap().cache, CacheStatus::Miss);

        let hit = Request::invert(&a).nb(9).rhs(b.clone()).cache(&cache);
        let hit = hit.submit(&two).unwrap();
        assert_eq!(hit.cache, CacheStatus::Hit);
        assert_eq!(hit.report.jobs, 0);
        let solo = Request::invert(&a).nb(9).rhs(b.clone());
        let solo = solo.submit(&test_cluster(2)).unwrap();
        assert_eq!(bits(hit.inverse().unwrap()), bits(solo.inverse().unwrap()));
        assert_eq!(hit.solutions(), solo.solutions());

        let hit = Request::lu(&a).nb(9).cache(&cache).submit(&two).unwrap();
        assert_eq!(hit.cache, CacheStatus::Hit);
        let solo = Request::lu(&a).nb(9).submit(&test_cluster(2)).unwrap();
        let (got, want) = (hit.into_factors(), solo.into_factors());
        assert_eq!(got.perm, want.perm);
        assert_eq!(bits(&got.l), bits(&want.l));
        assert_eq!(bits(&got.u), bits(&want.u));
    }

    #[test]
    fn cache_misses_on_any_perturbation() {
        let c = test_cluster(4);
        let cache = FactorCache::new();
        let a = random_invertible(16, 60);
        let _ = Request::lu(&a).nb(4).cache(&cache).submit(&c).unwrap();

        // Different nb: miss.
        let out = Request::lu(&a).nb(8).cache(&cache).submit(&c).unwrap();
        assert_eq!(out.cache, CacheStatus::Miss);
        // Different opts: a hit, since they move no bit of the answer.
        let mut cfg = InversionConfig::with_nb(4);
        cfg.opts = Optimizations::none();
        let out = Request::lu(&a)
            .config(&cfg)
            .cache(&cache)
            .submit(&c)
            .unwrap();
        assert_eq!(out.cache, CacheStatus::Hit);
        // Perturbed matrix: miss.
        let mut a2 = a.clone();
        a2[(0, 0)] += 1e-13;
        let out = Request::lu(&a2).nb(4).cache(&cache).submit(&c).unwrap();
        assert_eq!(out.cache, CacheStatus::Miss);
        // The original still hits.
        let out = Request::lu(&a).nb(4).cache(&cache).submit(&c).unwrap();
        assert_eq!(out.cache, CacheStatus::Hit);
    }
}
