//! The span model and the [`Tracer`] handle.
//!
//! A trace is a tree of spans covering the whole pipeline: one `Run` root,
//! `Phase` spans for driver iterations and factor updates, one `Operator`
//! or `Superstep` span per dataflow operator, `Task` spans for the
//! partition tasks of a superstep, and `Kernel` spans for the hot calls
//! inside a task. Every span is stamped on **two clocks**:
//!
//! - the **virtual axis** (`virtual_start` / `virtual_end`, seconds of the
//!   engine's simulated cluster time) — fully deterministic: bit-identical
//!   across compute-thread counts and, structurally, across backends;
//! - the **wall axis** (`wall_start` / `wall_end`, host seconds since the
//!   tracer was created) — real time, excluded from every fingerprint.
//!
//! Determinism contract: spans are recorded only from the driver thread.
//! Worker-side kernel events are buffered per task (one buffer per compute
//! thread, by construction) and merged in partition order before any span
//! is created, so the span sequence is independent of thread scheduling.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where a span sits in the pipeline hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// The whole driver run (root).
    Run,
    /// A driver-side phase: an iteration, one factor update, …
    Phase,
    /// A non-superstep dataflow operator (distribute, broadcast, gather,
    /// checkpoint, driver-compute).
    Operator,
    /// One `MapPartitions` superstep.
    Superstep,
    /// One partition task inside a superstep.
    Task,
    /// One kernel call inside a task (cache build, column scoring, …).
    Kernel,
}

impl std::fmt::Display for SpanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SpanKind::Run => "run",
            SpanKind::Phase => "phase",
            SpanKind::Operator => "operator",
            SpanKind::Superstep => "superstep",
            SpanKind::Task => "task",
            SpanKind::Kernel => "kernel",
        })
    }
}

/// One kernel call recorded inside a partition task.
///
/// Buffered in the task's `TaskContext` scratch (one buffer per compute
/// thread by construction) and merged deterministically by partition
/// index — never written to shared state from a worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelEvent {
    /// Kernel label, e.g. `"kernel.column_errors"`.
    pub name: &'static str,
    /// Abstract ops the kernel charged.
    pub ops: u64,
}

/// One completed span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the trace (1-based; 0 is "no span").
    pub id: u64,
    /// Enclosing span, `None` for the root.
    pub parent: Option<u64>,
    /// Hierarchy level.
    pub kind: SpanKind,
    /// Label, e.g. `"cp.update.sweep"`.
    pub name: &'static str,
    /// Virtual-clock start, in seconds.
    pub virtual_start: f64,
    /// Virtual-clock end, in seconds.
    pub virtual_end: f64,
    /// Wall-clock start, in seconds since the tracer was created.
    pub wall_start: f64,
    /// Wall-clock end, in seconds since the tracer was created.
    pub wall_end: f64,
    /// Worker machine the span ran on (`None` for driver-side spans).
    pub worker: Option<usize>,
    /// Global partition index (`Task`/`Kernel` spans only).
    pub partition: Option<usize>,
    /// Deterministic numeric annotations (ops, bytes, tasks, …), in a
    /// fixed order per span kind.
    pub args: Vec<(&'static str, u64)>,
}

impl SpanRecord {
    /// Virtual duration in seconds.
    pub fn virtual_secs(&self) -> f64 {
        self.virtual_end - self.virtual_start
    }

    /// Wall duration in seconds.
    pub fn wall_secs(&self) -> f64 {
        self.wall_end - self.wall_start
    }
}

#[derive(Default)]
struct TracerState {
    spans: Vec<SpanRecord>,
    /// Open-span stack (driver thread only) of `(id, index in spans)`: top
    /// is the parent of the next recorded span.
    stack: Vec<(u64, usize)>,
    /// Named counter values exported with the trace.
    counters: Vec<(String, f64)>,
}

struct TracerInner {
    origin: Instant,
    next_id: AtomicU64,
    state: Mutex<TracerState>,
}

/// Handle for recording spans. Cheap to clone (an `Arc` internally).
///
/// A disabled tracer ([`Tracer::disabled`]) carries no allocation and every
/// method is an immediate no-op — the single `Option` check is the entire
/// disabled-path cost, proven flat by the `factor_update` bench.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

/// Id of an open span returned by [`Tracer::begin`]; 0 when disabled.
pub type SpanId = u64;

impl Tracer {
    /// A no-op tracer: records nothing, costs one branch per call site.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A recording tracer; the wall clock starts now.
    pub fn enabled() -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                origin: Instant::now(),
                next_id: AtomicU64::new(1),
                state: Mutex::new(TracerState::default()),
            })),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(inner: &TracerInner) -> std::sync::MutexGuard<'_, TracerState> {
        inner
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Seconds since the tracer was created (0.0 when disabled).
    pub fn wall_now(&self) -> f64 {
        self.inner
            .as_ref()
            .map_or(0.0, |i| i.origin.elapsed().as_secs_f64())
    }

    /// Opens a span at `virtual_start`; subsequent spans nest under it
    /// until [`Tracer::end`]. Driver-thread only (the open-span stack is a
    /// single sequence).
    pub fn begin(&self, kind: SpanKind, name: &'static str, virtual_start: f64) -> SpanId {
        let Some(inner) = &self.inner else { return 0 };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let wall = inner.origin.elapsed().as_secs_f64();
        let mut st = Self::lock(inner);
        let parent = st.stack.last().map(|&(id, _)| id);
        let index = st.spans.len();
        st.spans.push(SpanRecord {
            id,
            parent,
            kind,
            name,
            virtual_start,
            virtual_end: virtual_start,
            wall_start: wall,
            wall_end: wall,
            worker: None,
            partition: None,
            args: Vec::new(),
        });
        st.stack.push((id, index));
        id
    }

    /// Closes the span opened by [`Tracer::begin`], stamping
    /// `virtual_end`. Must match the most recent unclosed `begin`.
    pub fn end(&self, id: SpanId, virtual_end: f64) {
        let Some(inner) = &self.inner else { return };
        if id == 0 {
            return;
        }
        let wall = inner.origin.elapsed().as_secs_f64();
        let mut st = Self::lock(inner);
        let top = st.stack.pop();
        debug_assert_eq!(
            top.map(|(top, _)| top),
            Some(id),
            "unbalanced span begin/end"
        );
        if let Some((_, index)) = top.filter(|&(top, _)| top == id) {
            let span = &mut st.spans[index];
            span.virtual_end = virtual_end;
            span.wall_end = wall;
        }
    }

    /// Records a completed span under the currently open span (or under
    /// `parent` if given explicitly). Returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        kind: SpanKind,
        name: &'static str,
        parent: Option<SpanId>,
        virtual_range: (f64, f64),
        wall_range: (f64, f64),
        worker: Option<usize>,
        partition: Option<usize>,
        args: Vec<(&'static str, u64)>,
    ) -> SpanId {
        let Some(inner) = &self.inner else { return 0 };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let mut st = Self::lock(inner);
        let parent = parent
            .filter(|&p| p != 0)
            .or_else(|| st.stack.last().map(|&(id, _)| id));
        st.spans.push(SpanRecord {
            id,
            parent,
            kind,
            name,
            virtual_start: virtual_range.0,
            virtual_end: virtual_range.1,
            wall_start: wall_range.0,
            wall_end: wall_range.1,
            worker,
            partition,
            args,
        });
        id
    }

    /// Sets a named counter exported with the trace (last write wins).
    pub fn set_counter(&self, name: impl Into<String>, value: f64) {
        let Some(inner) = &self.inner else { return };
        let mut st = Self::lock(inner);
        let name = name.into();
        if let Some(slot) = st.counters.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            st.counters.push((name, value));
        }
    }

    /// Takes the recorded trace (spans in recording order). The tracer can
    /// keep recording afterwards; the log is a snapshot.
    pub fn finish(&self) -> TraceLog {
        let Some(inner) = &self.inner else {
            return TraceLog::default();
        };
        let st = Self::lock(inner);
        debug_assert!(st.stack.is_empty(), "finish() with open spans");
        TraceLog {
            spans: st.spans.clone(),
            counters: st.counters.clone(),
        }
    }
}

/// A completed trace: every span in recording order, plus the exported
/// counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceLog {
    /// Spans in recording order (deterministic — see the module docs).
    pub spans: Vec<SpanRecord>,
    /// Named counters exported with the trace.
    pub counters: Vec<(String, f64)>,
}

impl TraceLog {
    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The **structural** fingerprint: kind, name, tree position, worker,
    /// partition, and the deterministic args of every span — no wall *or*
    /// virtual timestamps. Identical across execution backends,
    /// compute-thread counts, and fault plans for the same algorithm run.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        self.write_fingerprint(&mut out, false);
        out
    }

    /// The **virtual-axis** fingerprint: the structural fingerprint plus
    /// the exact bit patterns of every span's virtual start/end. Identical
    /// across compute-thread counts and fault-free runs on the *same*
    /// backend (backends differ in network costing, so use
    /// [`TraceLog::fingerprint`] to compare across backends).
    pub fn fingerprint_virtual(&self) -> String {
        let mut out = String::new();
        self.write_fingerprint(&mut out, true);
        out
    }

    fn write_fingerprint(&self, out: &mut String, with_virtual: bool) {
        use std::fmt::Write;
        // Parent ids are assigned in recording order, so mapping them to
        // their index keeps the fingerprint independent of id allocation.
        let index: std::collections::HashMap<u64, usize> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        let index_of =
            |id: Option<u64>| -> i64 { id.and_then(|id| index.get(&id)).map_or(-1, |&p| p as i64) };
        for span in &self.spans {
            let _ = write!(
                out,
                "{}:{}:^{}:w{}:p{}",
                span.kind,
                span.name,
                index_of(span.parent),
                span.worker.map_or(-1, |w| w as i64),
                span.partition.map_or(-1, |p| p as i64),
            );
            for (k, v) in &span.args {
                let _ = write!(out, ":{k}={v}");
            }
            if with_virtual {
                let _ = write!(
                    out,
                    ":v{:016x}-{:016x}",
                    span.virtual_start.to_bits(),
                    span.virtual_end.to_bits()
                );
            }
            out.push('\n');
        }
    }

    /// Aggregates spans of `kind` by label, in first-seen order:
    /// `(name, count, total ops, total virtual seconds, total wall
    /// seconds)`. The per-superstep breakdown table of `dbtf stats` is
    /// this over [`SpanKind::Superstep`] + [`SpanKind::Operator`].
    pub fn breakdown(&self, kinds: &[SpanKind]) -> Vec<BreakdownRow> {
        let mut rows: Vec<BreakdownRow> = Vec::new();
        for span in &self.spans {
            if !kinds.contains(&span.kind) {
                continue;
            }
            let ops = span
                .args
                .iter()
                .find(|(k, _)| *k == "ops")
                .map_or(0, |(_, v)| *v);
            let row = match rows.iter_mut().find(|r| r.name == span.name) {
                Some(row) => row,
                None => {
                    rows.push(BreakdownRow {
                        name: span.name.to_string(),
                        count: 0,
                        ops: 0,
                        virtual_secs: 0.0,
                        wall_secs: 0.0,
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.count += 1;
            row.ops += ops;
            row.virtual_secs += span.virtual_secs();
            row.wall_secs += span.wall_secs();
        }
        rows
    }
}

/// One aggregated row of a [`TraceLog::breakdown`].
#[derive(Clone, Debug, PartialEq)]
pub struct BreakdownRow {
    /// Span label.
    pub name: String,
    /// Number of spans with this label.
    pub count: usize,
    /// Total abstract ops across them.
    pub ops: u64,
    /// Total virtual seconds.
    pub virtual_secs: f64,
    /// Total wall seconds.
    pub wall_secs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let id = t.begin(SpanKind::Run, "run", 0.0);
        assert_eq!(id, 0);
        t.end(id, 1.0);
        t.set_counter("x", 1.0);
        let log = t.finish();
        assert!(log.is_empty());
        assert_eq!(log.fingerprint(), "");
    }

    #[test]
    fn spans_nest_under_the_open_stack() {
        let t = Tracer::enabled();
        let run = t.begin(SpanKind::Run, "run", 0.0);
        let phase = t.begin(SpanKind::Phase, "iter", 0.0);
        let op = t.record(
            SpanKind::Superstep,
            "sweep",
            None,
            (0.0, 1.0),
            (0.0, 0.0),
            None,
            None,
            vec![("ops", 10)],
        );
        t.record(
            SpanKind::Task,
            "task",
            Some(op),
            (0.0, 0.5),
            (0.0, 0.0),
            Some(1),
            Some(3),
            vec![("ops", 10)],
        );
        t.end(phase, 1.0);
        t.end(run, 1.0);
        let log = t.finish();
        assert_eq!(log.len(), 4);
        assert_eq!(log.spans[0].parent, None);
        assert_eq!(log.spans[1].parent, Some(run));
        assert_eq!(log.spans[2].parent, Some(phase));
        assert_eq!(log.spans[3].parent, Some(op));
        assert_eq!(log.spans[3].worker, Some(1));
        assert_eq!(log.spans[3].partition, Some(3));
    }

    #[test]
    fn many_nested_spans_record_their_own_ends() {
        // 100k spans in runs of eight nested levels under one root; each
        // span ends at a virtual time derived from its id.
        let t = Tracer::enabled();
        let run = t.begin(SpanKind::Run, "run", 0.0);
        let mut open = Vec::new();
        for i in 0..100_000u64 {
            open.push(t.begin(SpanKind::Phase, "phase", i as f64));
            if open.len() == 8 || i == 99_999 {
                while let Some(id) = open.pop() {
                    t.end(id, id as f64 * 2.0);
                }
            }
        }
        t.end(run, -1.0);
        let log = t.finish();
        assert_eq!(log.len(), 100_001);
        assert_eq!(log.spans[0].virtual_end, -1.0);
        for (i, span) in log.spans.iter().enumerate().skip(1) {
            assert_eq!(span.virtual_end, span.id as f64 * 2.0, "span {}", span.id);
            let depth = (i - 1) % 8;
            let parent = if depth == 0 { run } else { log.spans[i - 1].id };
            assert_eq!(span.parent, Some(parent), "span {}", span.id);
        }
        assert_eq!(log.fingerprint().lines().count(), 100_001);
    }

    #[test]
    fn fingerprints_ignore_wall_time_but_virtual_variant_pins_virtual() {
        let make = |wall: f64, v: f64| {
            let t = Tracer::enabled();
            let run = t.begin(SpanKind::Run, "run", 0.0);
            t.record(
                SpanKind::Superstep,
                "s",
                None,
                (0.0, v),
                (0.0, wall),
                None,
                None,
                vec![("ops", 7)],
            );
            t.end(run, v);
            t.finish()
        };
        let a = make(0.5, 1.0);
        let b = make(9.0, 1.0);
        let c = make(0.5, 2.0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint_virtual(), b.fingerprint_virtual());
        assert_eq!(a.fingerprint(), c.fingerprint());
        assert_ne!(a.fingerprint_virtual(), c.fingerprint_virtual());
    }

    #[test]
    fn breakdown_aggregates_by_label() {
        let t = Tracer::enabled();
        let run = t.begin(SpanKind::Run, "run", 0.0);
        for i in 0..3u64 {
            t.record(
                SpanKind::Superstep,
                "sweep",
                None,
                (i as f64, i as f64 + 1.0),
                (0.0, 0.0),
                None,
                None,
                vec![("ops", 10)],
            );
        }
        t.record(
            SpanKind::Operator,
            "broadcast",
            None,
            (3.0, 3.5),
            (0.0, 0.0),
            None,
            None,
            vec![],
        );
        t.end(run, 3.5);
        let log = t.finish();
        let rows = log.breakdown(&[SpanKind::Superstep, SpanKind::Operator]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "sweep");
        assert_eq!(rows[0].count, 3);
        assert_eq!(rows[0].ops, 30);
        assert!((rows[0].virtual_secs - 3.0).abs() < 1e-12);
        assert_eq!(rows[1].name, "broadcast");
    }

    #[test]
    fn counters_last_write_wins() {
        let t = Tracer::enabled();
        t.set_counter("bytes", 1.0);
        t.set_counter("bytes", 2.0);
        t.set_counter("ops", 3.0);
        let log = t.finish();
        assert_eq!(
            log.counters,
            vec![("bytes".to_string(), 2.0), ("ops".to_string(), 3.0)]
        );
    }
}
