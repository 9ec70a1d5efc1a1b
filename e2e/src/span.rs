//! The harness's in-memory span recorder, its Chrome-trace writer, and
//! the validity check a traced run must pass.
//!
//! Spans are recorded around calls *into* the program, from the
//! harness's side; the program's own `TraceLog` events are imported as
//! children of the operation that caused them. A disabled recorder
//! records nothing, so the untraced run pays one branch per call.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use mrinv_mapreduce::{TaskEvent, TracePhase};
use serde_json::Value;

/// One recorded interval.
#[derive(Debug, Clone)]
struct Span {
    parent: Option<usize>,
    name: String,
    /// Layer (module) the time belongs to.
    cat: &'static str,
    /// Round identifier shared by every span of one round.
    request: u64,
    start_us: f64,
    dur_us: f64,
    /// `"measured"`, or `"packed"` for imported events whose start is
    /// laid out by the harness (the program logs durations only).
    placement: &'static str,
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// Span recorder. Spans opened with [`Recorder::enter`] nest; leaves and
/// imported events hang under the innermost open span.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Recorder {
    /// A recorder; `enabled` is the run's `--trace`.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Whether spans are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the request identifier stamped on spans recorded from now on.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn push(&mut self, name: &str, cat: &'static str, start: Instant, dur: Duration) -> usize {
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            name: name.to_string(),
            cat,
            request: self.request,
            start_us: start.duration_since(self.t0).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
            placement: "measured",
        });
        self.spans.len() - 1
    }

    /// Opens a span that later spans nest under, until [`Recorder::exit`].
    pub fn enter(&mut self, name: &str, cat: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(0);
        }
        let id = self.push(name, cat, Instant::now(), Duration::ZERO);
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans close innermost first");
        let end_us = self.t0.elapsed().as_secs_f64() * 1e6;
        let span = &mut self.spans[id.0];
        span.dur_us = end_us - span.start_us;
    }

    /// Records an interval the caller timed itself (`start`, `dur`) under
    /// the innermost open span.
    pub fn leaf(&mut self, name: &str, cat: &'static str, start: Instant, dur: Duration) -> SpanId {
        if !self.enabled {
            return SpanId(0);
        }
        SpanId(self.push(name, cat, start, dur))
    }

    /// Imports the program's `TraceLog` events as children of `op`.
    ///
    /// The log carries each attempt's measured CPU seconds but only
    /// simulated start times, so the children are packed back to back
    /// from the start of `op` in simulated-start order: durations are
    /// measured, positions are not, and the span says so
    /// (`args.placement = "packed"`). At pool width 1 the attempts ran
    /// one after another inside `op`, so they fit; the validity check
    /// fails the trace if they do not.
    pub fn import(&mut self, op: SpanId, events: &[TaskEvent]) {
        if !self.enabled {
            return;
        }
        let mut order: Vec<&TaskEvent> = events.iter().filter(|e| e.cpu_secs > 0.0).collect();
        order.sort_by(|a, b| {
            (a.sim_start_secs, a.task, a.attempt)
                .partial_cmp(&(b.sim_start_secs, b.task, b.attempt))
                .expect("simulated times are finite")
        });
        let (request, mut at) = {
            let p = &self.spans[op.0];
            (p.request, p.start_us)
        };
        for e in order {
            let dur_us = e.cpu_secs * 1e6;
            let family = e.job.split(':').next().unwrap_or("");
            self.spans.push(Span {
                parent: Some(op.0),
                name: format!("{family} {} {}", e.phase.label(), e.task),
                cat: match e.phase {
                    TracePhase::Master => "mapreduce.master",
                    _ => "mapreduce.runner",
                },
                request,
                start_us: at,
                dur_us,
                placement: "packed",
            });
            at += dur_us;
        }
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The spans as Chrome `trace_events` JSON (`ph: "X"`, microseconds).
    /// `args.id` / `args.parent` carry the span tree, `args.request` the
    /// round.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 160 + 64);
        out.push_str(HEADER);
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let name = serde_json::to_string(&s.name).expect("strings serialize");
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "\n{{\"name\":{name},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{id},\"parent\":{parent},\"request\":{},\"placement\":\"{}\"}}}}",
                s.cat, s.start_us, s.dur_us, s.request, s.placement
            );
        }
        out.push('\n');
        out.push_str(FOOTER);
        out.push('\n');
        out
    }
}

/// What [`validate`] found in a well-formed trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSummary {
    /// Spans in the file.
    pub spans: usize,
    /// Spans without a parent.
    pub roots: usize,
}

/// Slack for the three-decimal rounding of `ts` and `dur`, microseconds.
const ROUNDING_US: f64 = 0.002;

const HEADER: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
const FOOTER: &str = "]}";

/// Checks a Chrome trace written by [`Recorder::chrome_json`]: the JSON
/// parses, every non-root span names an existing parent and lies inside
/// its interval, and the children of each span together take no longer
/// than the span (so no layer's self time is negative).
///
/// The file is parsed as what the writer makes it — a header line, one
/// event object per line, a footer line — with each event line going
/// through the JSON parser on its own. Whole-document parsing is out of
/// reach: the repository's `serde_json` stand-in re-validates the rest
/// of its input for every string character, which is quadratic, and a
/// `lib-deep` trace is 12 MB.
pub fn validate(json: &str) -> Result<TraceSummary, String> {
    struct Seen {
        parent: Option<usize>,
        start: f64,
        end: f64,
        children_us: f64,
        children: usize,
    }
    let mut lines = json.lines();
    if lines.next() != Some(HEADER) {
        return Err("trace does not start with the traceEvents header".to_string());
    }
    let mut seen: Vec<Seen> = Vec::new();
    let mut closed = false;
    for line in lines {
        if closed {
            return Err(format!("trace has text after its footer: {line:?}"));
        }
        if line == FOOTER {
            closed = true;
            continue;
        }
        let i = seen.len();
        let e = serde_json::parse_value(line.strip_suffix(',').unwrap_or(line))
            .map_err(|e| format!("span {i} does not parse: {e}"))?;
        let num = |v: Option<&Value>, what: &str| {
            v.and_then(Value::as_f64)
                .ok_or_else(|| format!("span {i}: missing {what}"))
        };
        let args = e.get("args").ok_or_else(|| format!("span {i}: no args"))?;
        let id = args
            .get("id")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("span {i}: no args.id"))?;
        if id as usize != i {
            return Err(format!("span {i}: args.id is {id}"));
        }
        let parent = match args.get("parent") {
            Some(p) if !p.is_null() => Some(
                p.as_u64()
                    .ok_or_else(|| format!("span {i}: args.parent is not an id"))?
                    as usize,
            ),
            _ => None,
        };
        let start = num(e.get("ts"), "ts")?;
        let dur = num(e.get("dur"), "dur")?;
        if dur < 0.0 {
            return Err(format!("span {i}: negative duration {dur}"));
        }
        seen.push(Seen {
            parent,
            start,
            end: start + dur,
            children_us: 0.0,
            children: 0,
        });
    }
    if !closed {
        return Err("trace is not closed".to_string());
    }
    let mut roots = 0;
    for i in 0..seen.len() {
        let Some(p) = seen[i].parent else {
            roots += 1;
            continue;
        };
        if p >= seen.len() || p == i {
            return Err(format!("span {i}: parent {p} does not exist"));
        }
        let (start, end) = (seen[i].start, seen[i].end);
        if start + ROUNDING_US < seen[p].start || end > seen[p].end + ROUNDING_US {
            return Err(format!(
                "span {i} [{start:.3}, {end:.3}] lies outside its parent {p} [{:.3}, {:.3}]",
                seen[p].start, seen[p].end
            ));
        }
        seen[p].children_us += end - start;
        seen[p].children += 1;
    }
    for (i, s) in seen.iter().enumerate() {
        let slack = ROUNDING_US * (s.children + 1) as f64;
        if s.children_us > (s.end - s.start) + slack {
            return Err(format!(
                "span {i}: children take {:.3} us of a {:.3} us span",
                s.children_us,
                s.end - s.start
            ));
        }
    }
    Ok(TraceSummary {
        spans: seen.len(),
        roots,
    })
}
