//! Labeled observability registry: counters, gauges, and log-bucketed
//! histograms keyed by `{job, wave, node, task-kind, gemm-backend}`.
//!
//! A run's own report ([`crate::RunReport`]) answers "how much in
//! total"; this registry answers "which job / wave / node / backend", and
//! how much the whole cluster has done. Design constraints, in order:
//!
//! * **Lock-free hot path.** Recording on a series handle is a relaxed
//!   atomic op ([`Counter::add`], [`Gauge::add`], [`Histogram::observe`]).
//!   The registry's one lock is taken only by [`Registry::counter`]-style
//!   get-or-create lookups; the runner resolves a wave's handles once, on
//!   the driver thread, after the wave has run. Floating-point
//!   accumulation uses `AtomicF64`, a CAS loop over the `f64` bit
//!   pattern in an `AtomicU64`.
//! * **Off by default, one relaxed load when disabled.** Labeled
//!   recording sites check `Registry::is_enabled` first, exactly like
//!   [`crate::tracelog::TraceLog`].
//! * **Bounded cardinality.** The registry is one `(name, labels) →
//!   series` map holding at most the bound [`Registry::new`] takes, of any
//!   kind; past the cap, lookups return detached handles (recorded values
//!   are dropped) and [`Registry::dropped_series`] counts the overflow.
//! * **Deterministic snapshots.** [`Registry::snapshot`] is sorted by
//!   `(metric name, labels)`, so identical recorded histories produce
//!   identical [`ObsSnapshot`]s, byte for byte.
//!
//! Snapshots export as Prometheus text exposition
//! ([`ObsSnapshot::prometheus_text`]) and JSON ([`ObsSnapshot::to_json`]).
//! The module also defines the cost-model audit report ([`CostAudit`])
//! that `mrinv` attaches to a traced run's `RunReport`: the planned job
//! count and the closed forms of the paper's Tables 1–2 next to what the
//! run's job reports counted.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// An `f64` accumulator over an `AtomicU64` bit pattern: lock-free adds
/// via compare-and-swap, no mutex anywhere on the metrics path.
#[derive(Debug, Default)]
struct AtomicF64 {
    bits: AtomicU64,
}

impl AtomicF64 {
    /// Current value.
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Adds `v` with a CAS loop.
    pub(crate) fn add(&self, v: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// A monotonically increasing integer series.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` and returns the value *before* the add (used for
    /// sequence-number allocation).
    pub(crate) fn fetch_add(&self, n: u64) -> u64 {
        self.value.fetch_add(n, Ordering::Relaxed)
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A floating-point level (may go up and down), e.g. accumulated busy
/// seconds per node.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicF64,
}

impl Gauge {
    /// Adds to the level (lock-free; see `AtomicF64`).
    pub fn add(&self, v: f64) {
        self.value.add(v);
    }

    /// Current level.
    pub(crate) fn get(&self) -> f64 {
        self.value.get()
    }
}

/// Number of histogram buckets: 40 power-of-two upper bounds from `2^-20`
/// (~1 µs) through `2^19` (~6 days of simulated seconds), plus one
/// overflow (`+Inf`) bucket.
pub const HIST_BUCKETS: usize = 41;

/// Upper bound of bucket `i` (`+Inf` for the overflow bucket).
pub fn bucket_bound(i: usize) -> f64 {
    if i + 1 >= HIST_BUCKETS {
        f64::INFINITY
    } else {
        2f64.powi(i as i32 - 20)
    }
}

/// Bucket index for an observation: the first bucket whose upper bound is
/// `>= v`. Exact (no float log): `m · 2^e` with `m == 1` lands on the
/// `2^e` bound, `m > 1` spills into the next bucket.
fn bucket_index(v: f64) -> usize {
    // Zero, negative, and NaN observations all land in the first bucket
    // rather than poisoning the distribution.
    if v.is_nan() || v <= 0.0 {
        return 0;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    if exp <= -21 {
        return 0; // subnormals and anything below the first bound
    }
    let mantissa = bits & ((1u64 << 52) - 1);
    let idx = exp + 20 + i32::from(mantissa != 0);
    idx.clamp(0, HIST_BUCKETS as i32 - 1) as usize
}

/// A log-bucketed latency/size distribution with lock-free observation.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicF64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicF64::default(),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: f64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.add(v);
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.get(),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]. Merging snapshots is a
/// bucket-wise add, which is associative and commutative — shard-local
/// histograms can be combined in any order.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`HIST_BUCKETS`] entries; see
    /// [`bucket_bound`] for the upper bounds).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Folds `other` into `self` bucket by bucket.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Upper bound of the bucket holding the `q`-quantile observation
    /// (`q` in `0..=1`); `+Inf` when it fell in the overflow bucket, 0
    /// when the histogram is empty.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        f64::INFINITY
    }

    /// Median upper bound.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile upper bound.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// The fixed label scheme: every series is keyed by (a subset of) these
/// six dimensions. A fixed struct instead of a free-form map keeps
/// cardinality analyzable and snapshot ordering total.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Labels {
    /// MapReduce job name (e.g. `lu-level:2/...`).
    pub job: Option<String>,
    /// Wave within the job: `"map"` or `"reduce"`.
    pub wave: Option<String>,
    /// Virtual node index.
    pub node: Option<u32>,
    /// Task/work kind: failure class, master-call label, and similar.
    pub task_kind: Option<String>,
    /// GEMM backend name (kernel perf series).
    pub backend: Option<String>,
    /// Service tenant name (multi-tenant `mrinv serve` series).
    pub tenant: Option<String>,
}

impl Labels {
    /// No labels (the cluster-global series).
    pub fn new() -> Self {
        Labels::default()
    }

    /// Sets the job label.
    pub fn job(mut self, job: impl Into<String>) -> Self {
        self.job = Some(job.into());
        self
    }

    /// Sets the wave label.
    pub fn wave(mut self, wave: impl Into<String>) -> Self {
        self.wave = Some(wave.into());
        self
    }

    /// Sets the node label.
    pub fn node(mut self, node: usize) -> Self {
        self.node = Some(node as u32);
        self
    }

    /// Sets the task-kind label.
    pub fn task_kind(mut self, kind: impl Into<String>) -> Self {
        self.task_kind = Some(kind.into());
        self
    }

    /// Sets the GEMM-backend label.
    pub fn backend(mut self, backend: impl Into<String>) -> Self {
        self.backend = Some(backend.into());
        self
    }

    /// Sets the service-tenant label.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Prometheus label-set rendering (`{job="...",wave="..."}`), empty
    /// string when no label is set. The `extra` pair, when given, is
    /// appended last (used for the histogram `le` label).
    fn prom(&self, extra: Option<(&str, &str)>) -> String {
        let mut parts: Vec<String> = Vec::new();
        let mut push = |k: &str, v: &str| parts.push(format!("{k}=\"{}\"", escape_label(v)));
        if let Some(v) = &self.job {
            push("job", v);
        }
        if let Some(v) = &self.wave {
            push("wave", v);
        }
        if let Some(v) = self.node {
            push("node", &v.to_string());
        }
        if let Some(v) = &self.task_kind {
            push("task_kind", v);
        }
        if let Some(v) = &self.backend {
            push("backend", v);
        }
        if let Some(v) = &self.tenant {
            push("tenant", v);
        }
        if let Some((k, v)) = extra {
            push(k, v);
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", parts.join(","))
        }
    }
}

/// Escapes a label value per the Prometheus text exposition rules.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Default bound on live series across all metric kinds.
const DEFAULT_MAX_SERIES: usize = 4096;

/// One registered series of any kind.
#[derive(Debug)]
enum Series {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// The labeled metric registry. See the module docs for the contract.
#[derive(Debug)]
pub struct Registry {
    enabled: AtomicBool,
    max_series: usize,
    dropped: Counter,
    series: Mutex<BTreeMap<(String, Labels), Series>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new(DEFAULT_MAX_SERIES)
    }
}

impl Registry {
    /// A disabled registry holding at most `max_series` series.
    pub fn new(max_series: usize) -> Self {
        Registry {
            enabled: AtomicBool::new(false),
            max_series,
            dropped: Counter::default(),
            series: Mutex::new(BTreeMap::new()),
        }
    }

    /// Turns labeled recording on or off. Registration and snapshots
    /// work either way; the flag is the hot-path gate call sites check.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// One relaxed load: should call sites record labeled metrics?
    #[inline]
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Series discarded because the registry was at its cardinality bound.
    pub fn dropped_series(&self) -> u64 {
        self.dropped.get()
    }

    /// Live series across all kinds.
    pub fn series_count(&self) -> usize {
        self.series.lock().len()
    }

    /// Get-or-create under the one lock; `wrap` / `unwrap` name the kind.
    /// Past the cap — or when the name and labels are already registered
    /// under another kind — the caller gets a detached series: the call
    /// site still works, but its values never reach a snapshot.
    fn get_or_create<T: Default>(
        &self,
        name: &str,
        labels: &Labels,
        wrap: fn(Arc<T>) -> Series,
        unwrap: fn(&Series) -> Option<&Arc<T>>,
    ) -> Arc<T> {
        let mut series = self.series.lock();
        let key = (name.to_string(), labels.clone());
        if let Some(existing) = series.get(&key) {
            if let Some(live) = unwrap(existing) {
                return Arc::clone(live);
            }
        } else if series.len() < self.max_series {
            let handle = Arc::<T>::default();
            series.insert(key, wrap(Arc::clone(&handle)));
            return handle;
        }
        self.dropped.add(1);
        Arc::default()
    }

    /// Get-or-create a counter series. Hoist the returned handle out of
    /// loops: the lookup takes the registry lock, increments don't.
    pub fn counter(&self, name: &str, labels: &Labels) -> Arc<Counter> {
        self.get_or_create(name, labels, Series::Counter, |s| match s {
            Series::Counter(c) => Some(c),
            _ => None,
        })
    }

    /// Get-or-create a gauge series.
    pub fn gauge(&self, name: &str, labels: &Labels) -> Arc<Gauge> {
        self.get_or_create(name, labels, Series::Gauge, |s| match s {
            Series::Gauge(g) => Some(g),
            _ => None,
        })
    }

    /// Get-or-create a histogram series.
    pub fn histogram(&self, name: &str, labels: &Labels) -> Arc<Histogram> {
        self.get_or_create(name, labels, Series::Histogram, |s| match s {
            Series::Histogram(h) => Some(h),
            _ => None,
        })
    }

    /// Deterministic point-in-time copy of every live series, each kind
    /// sorted by `(name, labels)`.
    pub fn snapshot(&self) -> ObsSnapshot {
        let mut snap = ObsSnapshot {
            dropped_series: self.dropped.get(),
            ..ObsSnapshot::default()
        };
        for ((name, labels), series) in self.series.lock().iter() {
            let (name, labels) = (name.clone(), labels.clone());
            match series {
                Series::Counter(c) => snap.counters.push(CounterSeries {
                    name,
                    labels,
                    value: c.get(),
                }),
                Series::Gauge(g) => snap.gauges.push(GaugeSeries {
                    name,
                    labels,
                    value: g.get(),
                }),
                Series::Histogram(h) => snap.histograms.push(HistogramSeries {
                    name,
                    labels,
                    hist: h.snapshot(),
                }),
            }
        }
        snap
    }
}

/// One counter series in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSeries {
    /// Metric name.
    pub name: String,
    /// Label set.
    pub labels: Labels,
    /// Counter value.
    pub value: u64,
}

/// One gauge series in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSeries {
    /// Metric name.
    pub name: String,
    /// Label set.
    pub labels: Labels,
    /// Gauge level.
    pub value: f64,
}

/// One histogram series in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSeries {
    /// Metric name.
    pub name: String,
    /// Label set.
    pub labels: Labels,
    /// The distribution.
    pub hist: HistogramSnapshot,
}

/// A deterministic point-in-time copy of a [`Registry`], extensible with
/// series bridged from outside the registry (DFS counters, kernel perf)
/// before export.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ObsSnapshot {
    /// Counter series, sorted by `(name, labels)` at snapshot time.
    pub counters: Vec<CounterSeries>,
    /// Gauge series.
    pub gauges: Vec<GaugeSeries>,
    /// Histogram series.
    pub histograms: Vec<HistogramSeries>,
    /// Series dropped by the cardinality cap.
    pub dropped_series: u64,
}

impl ObsSnapshot {
    /// Appends a counter series (exporters re-sort, so order of pushes
    /// does not matter).
    pub fn push_counter(&mut self, name: &str, labels: Labels, value: u64) {
        self.counters.push(CounterSeries {
            name: name.to_string(),
            labels,
            value,
        });
    }

    /// Appends a gauge series.
    pub fn push_gauge(&mut self, name: &str, labels: Labels, value: f64) {
        self.gauges.push(GaugeSeries {
            name: name.to_string(),
            labels,
            value,
        });
    }

    /// Pretty-printed JSON of the whole snapshot.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("obs snapshot serializes")
    }

    /// Prometheus text exposition (format version 0.0.4): one `# TYPE`
    /// comment per metric, `_bucket`/`_sum`/`_count` expansion with
    /// cumulative `le` buckets for histograms.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        // One kind's block: series sorted by `(name, labels)`, a `# TYPE`
        // comment ahead of each new metric name.
        let mut section = |kind: &str, mut rows: Vec<PromRow<'_>>| {
            rows.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
            let mut last = None;
            for (name, _, samples) in rows {
                if last != Some(name) {
                    out.push_str(&format!("# TYPE {name} {kind}\n"));
                    last = Some(name);
                }
                out.push_str(&samples);
            }
        };
        section("counter", self.counters.iter().map(|s| s.row()).collect());
        section("gauge", self.gauges.iter().map(|s| s.row()).collect());
        section(
            "histogram",
            self.histograms.iter().map(|s| s.row()).collect(),
        );
        out.push_str(&format!(
            "# TYPE mrinv_obs_dropped_series gauge\nmrinv_obs_dropped_series {}\n",
            self.dropped_series
        ));
        out
    }
}

/// One series' sort key and exposition lines.
type PromRow<'a> = (&'a str, &'a Labels, String);

/// One exposition line: `name[suffix]{labels} value`.
fn sample(name: &str, suffix: &str, labels: &Labels, value: impl std::fmt::Display) -> String {
    format!("{name}{suffix}{} {value}\n", labels.prom(None))
}

impl CounterSeries {
    fn row(&self) -> PromRow<'_> {
        let line = sample(&self.name, "", &self.labels, self.value);
        (&self.name, &self.labels, line)
    }
}

impl GaugeSeries {
    fn row(&self) -> PromRow<'_> {
        let line = sample(&self.name, "", &self.labels, self.value);
        (&self.name, &self.labels, line)
    }
}

impl HistogramSeries {
    /// The `_bucket` (cumulative, by `le`), `_sum` and `_count` lines.
    fn row(&self) -> PromRow<'_> {
        let mut out = String::new();
        let mut cum = 0u64;
        for (i, &c) in self.hist.counts.iter().enumerate() {
            cum += c;
            // Only buckets that change the cumulative count, plus the
            // mandatory +Inf bucket, keep the exposition compact.
            let is_inf = i + 1 >= self.hist.counts.len();
            if c == 0 && !is_inf {
                continue;
            }
            let le = if is_inf {
                "+Inf".to_string()
            } else {
                format!("{}", bucket_bound(i))
            };
            let labels = self.labels.prom(Some(("le", &le)));
            out.push_str(&format!("{}_bucket{labels} {cum}\n", self.name));
        }
        out.push_str(&sample(&self.name, "_sum", &self.labels, self.hist.sum));
        out.push_str(&sample(&self.name, "_count", &self.labels, self.hist.count));
        (&self.name, &self.labels, out)
    }
}

/// Validates Prometheus text exposition line grammar: every non-comment
/// line must be `name{labels} value` (or `name value`) with a legal
/// metric name, balanced/escaped label quoting, and a parseable float.
/// Returns the first offending line on failure.
pub fn validate_prometheus_text(text: &str) -> Result<(), String> {
    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    for (ln, line) in text.lines().enumerate() {
        let err = |what: &str| Err(format!("line {}: {what}: {line:?}", ln + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if !(rest.starts_with("TYPE ") || rest.starts_with("HELP ")) {
                return err("comment is neither # TYPE nor # HELP");
            }
            continue;
        }
        let (series, value) = match line.rsplit_once(' ') {
            Some(parts) => parts,
            None => return err("no sample value"),
        };
        if value.parse::<f64>().is_err() && value != "+Inf" && value != "-Inf" {
            return err("unparseable sample value");
        }
        let name = match series.find('{') {
            None => series,
            Some(open) => {
                let labels = &series[open..];
                if !labels.ends_with('}') {
                    return err("unterminated label set");
                }
                let body = &labels[1..labels.len() - 1];
                if !body.is_empty() {
                    for pair in split_label_pairs(body)
                        .ok_or_else(|| format!("line {}: malformed label pair: {line:?}", ln + 1))?
                    {
                        let (k, v) = match pair.split_once('=') {
                            Some(kv) => kv,
                            None => return err("label without ="),
                        };
                        if !name_ok(k) {
                            return err("bad label name");
                        }
                        if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                            return err("unquoted label value");
                        }
                    }
                }
                &series[..open]
            }
        };
        if !name_ok(name) {
            return err("bad metric name");
        }
    }
    Ok(())
}

/// Splits `k1="v1",k2="v2"` on commas outside quotes, honoring `\"`
/// escapes. `None` on dangling quotes.
fn split_label_pairs(body: &str) -> Option<Vec<String>> {
    let mut pairs = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut escaped = false;
    for c in body.chars() {
        if escaped {
            cur.push(c);
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => {
                cur.push(c);
                escaped = true;
            }
            '"' => {
                cur.push(c);
                in_quotes = !in_quotes;
            }
            ',' if !in_quotes => {
                pairs.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if in_quotes || escaped {
        return None;
    }
    if !cur.is_empty() {
        pairs.push(cur);
    }
    Some(pairs)
}

// ---------------------------------------------------------------------------
// Cost-model audit report types. Computed by the `mrinv` crate (which owns
// the Table 1/2 closed forms); defined here because `RunReport` lives in
// this crate.
// ---------------------------------------------------------------------------

/// One pipeline stage's measured bytes against the paper's closed form,
/// with the calibration band the repository's tests pin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageAudit {
    /// Stage label (e.g. `lu-transfer`).
    pub stage: String,
    /// Bytes the run actually moved/wrote.
    pub measured: f64,
    /// The closed-form prediction (Tables 1–2).
    pub predicted: f64,
    /// `measured / predicted` (NaN when the prediction is 0).
    pub ratio: f64,
    /// Lower edge of the accepted band.
    pub band_lo: f64,
    /// Upper edge of the accepted band.
    pub band_hi: f64,
    /// Whether `ratio` landed inside the band.
    pub within_band: bool,
}

/// The cost-model audit: the `schedule.rs` plan and the Tables 1–2
/// closed forms of `theory.rs` next to what the run actually executed.
///
/// Two layers, coarse to fine:
/// * **structure** — planned vs executed job count;
/// * **stages** — per-stage byte totals vs Tables 1–2 ([`StageAudit`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostAudit {
    /// Jobs the `schedule.rs` plan predicted.
    pub planned_jobs: usize,
    /// Jobs the run executed.
    pub executed_jobs: usize,
    /// `planned_jobs == executed_jobs`.
    pub structure_ok: bool,
    /// Stage-level byte audits.
    pub stages: Vec<StageAudit>,
    /// `structure_ok` and every stage within its band.
    pub within_bands: bool,
}

impl std::fmt::Display for CostAudit {
    /// `17/17 planned jobs; lu-transfer 1.087, final-inverse-reads 1.085,
    /// total-writes 1.352`, naming the band of each stage outside it.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} planned jobs",
            self.executed_jobs, self.planned_jobs
        )?;
        for (i, s) in self.stages.iter().enumerate() {
            let sep = if i == 0 { "; " } else { ", " };
            write!(f, "{sep}{} {:.3}", s.stage, s.ratio)?;
            if !s.within_band {
                write!(f, " (outside [{}, {}])", s.band_lo, s.band_hi)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_f64_accumulates() {
        let a = AtomicF64::default();
        assert_eq!(a.get(), 0.0);
        a.add(1.5);
        a.add(2.25);
        a.add(-0.75);
        assert!((a.get() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_index_is_exact_at_powers_of_two() {
        assert_eq!(bucket_index(1.0), 20);
        assert_eq!(bucket_index(2.0), 21);
        assert_eq!(bucket_index(1.0 + 1e-12), 21);
        assert_eq!(bucket_index(0.5), 19);
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1e300), HIST_BUCKETS - 1);
        assert_eq!(bucket_index(1e-300), 0);
        assert!(1.0 <= bucket_bound(bucket_index(1.0)));
        assert!(bucket_bound(HIST_BUCKETS - 1).is_infinite());
    }

    #[test]
    fn histogram_quantiles_walk_cumulative_buckets() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.observe(0.9); // bucket bound 1.0
        }
        for _ in 0..10 {
            h.observe(100.0); // bucket bound 128.0
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50(), 1.0);
        assert_eq!(s.quantile(0.90), 1.0);
        assert_eq!(s.p95(), 128.0);
        assert_eq!(s.p99(), 128.0);
        assert!((s.sum - (90.0 * 0.9 + 10.0 * 100.0)).abs() < 1e-9);
        assert_eq!(HistogramSnapshot::default().p50(), 0.0);
    }

    #[test]
    fn registry_snapshot_is_sorted_and_deterministic() {
        let run = || {
            let r = Registry::default();
            r.set_enabled(true);
            r.counter("b_total", &Labels::new()).add(2);
            r.counter("a_total", &Labels::new().job("j2")).add(1);
            r.counter("a_total", &Labels::new().job("j1")).add(5);
            r.gauge("g", &Labels::new().node(3)).add(1.5);
            r.histogram("h_seconds", &Labels::new().wave("map"))
                .observe(0.25);
            r.snapshot()
        };
        let s1 = run();
        let s2 = run();
        assert_eq!(s1, s2);
        assert_eq!(s1.to_json(), s2.to_json());
        let names: Vec<_> = s1.counters.iter().map(|c| c.name.clone()).collect();
        assert_eq!(names, vec!["a_total", "a_total", "b_total"]);
        assert_eq!(s1.counters[0].labels.job.as_deref(), Some("j1"));
    }

    #[test]
    fn cardinality_cap_drops_series() {
        let r = Registry::new(4);
        for i in 0..10 {
            r.counter("c_total", &Labels::new().node(i)).add(1);
        }
        assert_eq!(r.series_count(), 4);
        assert_eq!(r.dropped_series(), 6);
        let s = r.snapshot();
        assert_eq!(s.counters.len(), 4);
        assert_eq!(s.dropped_series, 6);
        // Detached handles still work, their values just vanish.
        let detached = r.counter("c_total", &Labels::new().node(9));
        detached.add(100);
        assert_eq!(
            r.snapshot().counters.iter().map(|c| c.value).sum::<u64>(),
            4
        );
    }

    /// Every kind counts against the one cap: at it, a live series of any
    /// kind still resolves to its handle, and a new one of any kind — or a
    /// registered name asked for as another kind — is detached, one drop
    /// each.
    #[test]
    fn cap_is_shared_by_every_kind() {
        let r = Registry::new(3);
        let none = Labels::new();
        let touch_live = || {
            r.counter("c_total", &none).add(1);
            r.gauge("g", &none).add(1.0);
            r.histogram("h_seconds", &none).observe(1.0);
        };
        touch_live();
        touch_live();
        assert_eq!((r.series_count(), r.dropped_series()), (3, 0));
        let live = r.snapshot();
        assert_eq!(live.counters[0].value, 2);
        assert_eq!(live.gauges[0].value, 2.0);
        assert_eq!(live.histograms[0].hist.count, 2);

        r.counter("new_total", &none).add(9);
        assert_eq!(r.dropped_series(), 1);
        r.gauge("new_g", &none).add(9.0);
        assert_eq!(r.dropped_series(), 2);
        r.histogram("new_seconds", &none).observe(9.0);
        assert_eq!(r.dropped_series(), 3);
        r.gauge("c_total", &none).add(9.0);
        assert_eq!(r.dropped_series(), 4);
        let expect = ObsSnapshot {
            dropped_series: 4,
            ..live
        };
        assert_eq!(r.snapshot(), expect);
    }

    #[test]
    fn prometheus_text_renders_and_validates() {
        let r = Registry::default();
        r.counter("mrinv_jobs_total", &Labels::new()).add(3);
        r.gauge("mrinv_sim_seconds", &Labels::new()).add(12.5);
        let h = r.histogram(
            "mrinv_task_run_seconds",
            &Labels::new().job("lu-level:0").wave("map"),
        );
        h.observe(0.75);
        h.observe(3.0);
        let mut snap = r.snapshot();
        snap.push_gauge("mrinv_kernel_gflops", Labels::new().backend("packed"), 42.0);
        let text = snap.prometheus_text();
        assert!(text.contains("# TYPE mrinv_jobs_total counter"));
        assert!(text.contains("mrinv_jobs_total 3"));
        assert!(text.contains("# TYPE mrinv_task_run_seconds histogram"));
        assert!(text
            .contains("mrinv_task_run_seconds_bucket{job=\"lu-level:0\",wave=\"map\",le=\"1\"} 1"));
        assert!(text.contains(
            "mrinv_task_run_seconds_bucket{job=\"lu-level:0\",wave=\"map\",le=\"+Inf\"} 2"
        ));
        assert!(text.contains("mrinv_task_run_seconds_count{job=\"lu-level:0\",wave=\"map\"} 2"));
        assert!(text.contains("mrinv_kernel_gflops{backend=\"packed\"} 42"));
        validate_prometheus_text(&text).expect("exposition parses");
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_prometheus_text("ok_metric 1\n").is_ok());
        assert!(validate_prometheus_text("1bad_name 1\n").is_err());
        assert!(validate_prometheus_text("m{x=\"unterminated} 1\n").is_err());
        assert!(validate_prometheus_text("m{x=unquoted} 1\n").is_err());
        assert!(validate_prometheus_text("m_no_value\n").is_err());
        assert!(validate_prometheus_text("# random comment\n").is_err());
        assert!(validate_prometheus_text("m{a=\"x\",b=\"y,z\"} 2.5\n").is_ok());
    }

    #[test]
    fn labels_escape_prometheus_metacharacters() {
        let l = Labels::new().job("a\"b\\c\nd");
        let rendered = l.prom(None);
        assert_eq!(rendered, "{job=\"a\\\"b\\\\c\\nd\"}");
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        let r = Registry::default();
        r.counter("c_total", &Labels::new().job("j")).add(9);
        r.histogram("h_seconds", &Labels::new()).observe(2.0);
        let s = r.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: ObsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
