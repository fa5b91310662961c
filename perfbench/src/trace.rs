//! The traced run's layer measurements: direct probes of the tensor and
//! partition calls, the kernel replay, and the span log's self-time table
//! and Chrome export.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use dbtf::partition::{partition_unfolding, ModePartition};
use dbtf::{FactorSet, StorageKind, WorkState};
use dbtf_telemetry::{SpanId, SpanKind, SpanRecord, TraceLog, Tracer};
use dbtf_tensor::stream::{write_unfolding_from_entries, SpillConfig};
use dbtf_tensor::{BitMatrix, BitVec, BoolTensor, MmapUnfolding, Mode, Unfolding};

/// Timings of the tensor-layer and partition calls, made directly.
pub struct TensorProbe {
    /// `Unfolding::new` ×3, seconds.
    pub unfold_s: f64,
    /// `write_unfolding_from_entries` ×3 under the workload's budget, seconds.
    pub spill_s: f64,
    /// Bytes of the three columnar files the spill pass wrote.
    pub spill_bytes: u64,
    /// `partition_unfolding` ×3 over the storage the workload solves from, seconds.
    pub partition_s: f64,
}

/// Runs the tensor and partition probes on `x` and returns the three
/// modes' partitions for the kernel replay.
pub fn tensor_probe(
    x: &BoolTensor,
    storage: StorageKind,
    spill_budget: usize,
    n_partitions: usize,
    dir: &Path,
    tracer: &Tracer,
) -> Result<(TensorProbe, [Vec<ModePartition>; 3]), String> {
    let span = tracer.begin(SpanKind::Operator, "tensor.unfold", 0.0);
    let t0 = Instant::now();
    let heap: Vec<Unfolding> = Mode::ALL.iter().map(|&m| Unfolding::new(x, m)).collect();
    let unfold_s = t0.elapsed().as_secs_f64();
    tracer.end(span, 0.0);

    let spill = SpillConfig::new(dir.join("spill-probe")).with_chunk_bytes(spill_budget);
    let paths: Vec<_> = Mode::ALL
        .iter()
        .map(|m| dir.join(format!("probe_{}.dbtfu", m.index() + 1)))
        .collect();
    let span = tracer.begin(SpanKind::Operator, "tensor.spill", 0.0);
    let t0 = Instant::now();
    for (&mode, path) in Mode::ALL.iter().zip(&paths) {
        write_unfolding_from_entries(x.iter().map(Ok), x.dims(), mode, path, &spill)
            .map_err(|e| e.to_string())?;
    }
    let spill_s = t0.elapsed().as_secs_f64();
    tracer.end(span, 0.0);
    let spill_bytes = paths
        .iter()
        .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .sum();

    let span = tracer.begin(SpanKind::Operator, "core.partition", 0.0);
    let t0 = Instant::now();
    let parts: Vec<Vec<ModePartition>> = match storage {
        StorageKind::Ram => heap
            .iter()
            .map(|u| partition_unfolding(u, n_partitions))
            .collect(),
        StorageKind::Mmap => paths
            .iter()
            .map(|p| {
                MmapUnfolding::open(p)
                    .map(|u| partition_unfolding(&u, n_partitions))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?,
    };
    let partition_s = t0.elapsed().as_secs_f64();
    tracer.end(span, 0.0);
    let parts: [Vec<ModePartition>; 3] = parts.try_into().expect("three modes");
    Ok((
        TensorProbe {
            unfold_s,
            spill_s,
            spill_bytes,
            partition_s,
        },
        parts,
    ))
}

/// Busy time and charged work of one replayed `UpdateFactors` round.
#[derive(Default)]
pub struct KernelReplay {
    /// `WorkState::build` seconds.
    pub build_s: f64,
    /// `column_errors` seconds.
    pub column_errors_s: f64,
    /// `apply_column` seconds.
    pub apply_column_s: f64,
    /// `partition_error` seconds.
    pub partition_error_s: f64,
    /// Ops the calls charged (build + column_errors + partition_error).
    pub ops: u64,
    /// Largest cache footprint of one mode's states, bytes.
    pub cache_bytes: u64,
    /// Error of the input factors, summed from `partition_error` before
    /// any column moves (must equal the solve's reported error).
    pub start_error: u64,
}

impl KernelReplay {
    /// Total kernel busy seconds.
    pub fn total_s(&self) -> f64 {
        self.build_s + self.column_errors_s + self.apply_column_s + self.partition_error_s
    }
}

/// Builds one mode's work states, charging build time and ops to `r`.
fn build_states(
    parts: &[ModePartition],
    a: &BitMatrix,
    mf: &BitMatrix,
    ms: &BitMatrix,
    v: usize,
    r: &mut KernelReplay,
) -> Vec<WorkState> {
    let t0 = Instant::now();
    let states: Vec<WorkState> = parts
        .iter()
        .map(|p| {
            let (ws, ops) = WorkState::build(p, a, mf, ms, v);
            r.ops += ops;
            ws
        })
        .collect();
    r.build_s += t0.elapsed().as_secs_f64();
    r.cache_bytes = r
        .cache_bytes
        .max(states.iter().map(WorkState::cache_bytes).sum());
    states
}

/// Updates one factor over `parts` as Algorithm 4 does: build the states,
/// then per column score both values on every partition, keep the smaller
/// per row (ties to 0), apply the decision everywhere. Returns the new
/// factor and the states.
fn replay_mode(
    parts: &[ModePartition],
    a: &BitMatrix,
    mf: &BitMatrix,
    ms: &BitMatrix,
    v: usize,
    r: &mut KernelReplay,
) -> (BitMatrix, Vec<WorkState>) {
    let mut states = build_states(parts, a, mf, ms, v, r);
    let mut out = a.clone();
    for col in 0..a.cols() {
        let t0 = Instant::now();
        let mut sums = vec![(0u64, 0u64); a.rows()];
        for (ws, p) in states.iter_mut().zip(parts) {
            let (errs, ops) = ws.column_errors(p, col);
            r.ops += ops;
            for (s, (e0, e1)) in sums.iter_mut().zip(errs) {
                s.0 += e0;
                s.1 += e1;
            }
        }
        r.column_errors_s += t0.elapsed().as_secs_f64();
        let mut values = BitVec::zeros(a.rows());
        for (row, &(e0, e1)) in sums.iter().enumerate() {
            values.set(row, e1 < e0);
            out.set(row, col, e1 < e0);
        }
        let t0 = Instant::now();
        for ws in &mut states {
            ws.apply_column(col, &values);
        }
        r.apply_column_s += t0.elapsed().as_secs_f64();
    }
    (out, states)
}

fn partition_errors(
    states: &mut [WorkState],
    parts: &[ModePartition],
    r: &mut KernelReplay,
) -> u64 {
    let t0 = Instant::now();
    let mut err = 0;
    for (ws, p) in states.iter_mut().zip(parts) {
        let (e, ops) = ws.partition_error(p);
        err += e;
        r.ops += ops;
    }
    r.partition_error_s += t0.elapsed().as_secs_f64();
    err
}

/// Replays one full `UpdateFactors` round (A, then B, then C, error on
/// the last mode) on the workload's own partitions from fitted factors.
pub fn kernel_replay(parts: &[Vec<ModePartition>; 3], f: &FactorSet, v: usize) -> KernelReplay {
    let mut r = KernelReplay::default();
    // The starting error, outside the timed kernels.
    let mut probe = KernelReplay::default();
    let mut states = build_states(&parts[0], &f.a, &f.c, &f.b, v, &mut probe);
    r.start_error = partition_errors(&mut states, &parts[0], &mut probe);
    let (a, _) = replay_mode(&parts[0], &f.a, &f.c, &f.b, v, &mut r);
    let (b, _) = replay_mode(&parts[1], &f.b, &f.c, &a, v, &mut r);
    let (_, mut states) = replay_mode(&parts[2], &f.c, &b, &a, v, &mut r);
    partition_errors(&mut states, &parts[2], &mut r);
    r
}

/// Layer a span is charged to, by its name and kind.
fn layer(span: &SpanRecord) -> &'static str {
    let prefix = span.name.split('.').next().unwrap_or("");
    match prefix {
        "bench" => "bench",
        "tensor" => "tensor",
        "serve" => "serve",
        "net" => "cluster::net",
        "core" | "kernel" => "core",
        _ => match span.kind {
            SpanKind::Operator | SpanKind::Superstep => "cluster",
            _ => "core",
        },
    }
}

/// The spans whose wall range is measured: task and kernel spans copy
/// their superstep's range, so they are left out.
fn measured(log: &TraceLog) -> Vec<&SpanRecord> {
    log.spans
        .iter()
        .filter(|s| !matches!(s.kind, SpanKind::Task | SpanKind::Kernel))
        .collect()
}

/// Self time of each measured span: its wall duration minus what its
/// measured children cover.
fn self_times(spans: &[&SpanRecord]) -> HashMap<u64, f64> {
    let mut covered: HashMap<u64, f64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *covered.entry(p).or_default() += s.wall_secs();
        }
    }
    spans
        .iter()
        .map(|s| {
            (
                s.id,
                (s.wall_secs() - covered.get(&s.id).copied().unwrap_or(0.0)).max(0.0),
            )
        })
        .collect()
}

/// The per-layer self-time table: one row per `(layer, span name)` with
/// count, total and self seconds, then one total row per layer.
pub fn self_time_table(log: &TraceLog) -> String {
    let spans = measured(log);
    let selfs = self_times(&spans);
    let mut rows: HashMap<(&str, &str), (u64, f64, f64)> = HashMap::new();
    let mut layers: HashMap<&str, f64> = HashMap::new();
    for s in &spans {
        let row = rows.entry((layer(s), s.name)).or_default();
        row.0 += 1;
        row.1 += s.wall_secs();
        row.2 += selfs[&s.id];
        *layers.entry(layer(s)).or_default() += selfs[&s.id];
    }
    let mut rows: Vec<_> = rows.into_iter().collect();
    rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
    let mut out = format!(
        "{:<14} {:<28} {:>7} {:>11} {:>11}\n",
        "layer", "span", "count", "total_s", "self_s"
    );
    for ((l, name), (count, total, own)) in rows {
        out.push_str(&format!(
            "{l:<14} {name:<28} {count:>7} {total:>11.6} {own:>11.6}\n"
        ));
    }
    let mut layers: Vec<_> = layers.into_iter().collect();
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (l, own) in layers {
        out.push_str(&format!(
            "{l:<14} {:<28} {:>7} {:>11} {own:>11.6}\n",
            "(layer self total)", "", ""
        ));
    }
    out
}

/// For every span under one of `roots`, the root it belongs to.
fn root_of(log: &TraceLog, roots: &[SpanId]) -> HashMap<u64, u64> {
    let parent: HashMap<u64, Option<u64>> = log.spans.iter().map(|s| (s.id, s.parent)).collect();
    let mut out = HashMap::new();
    for s in &log.spans {
        let mut cur = Some(s.id);
        while let Some(id) = cur {
            if roots.contains(&id) {
                out.insert(s.id, id);
                break;
            }
            cur = parent.get(&id).copied().flatten();
        }
    }
    out
}

/// Sum of the wall durations of measured spans under `root` whose name
/// satisfies `pick`.
pub fn sum_under(log: &TraceLog, root: SpanId, pick: impl Fn(&SpanRecord) -> bool) -> f64 {
    let roots = root_of(log, &[root]);
    measured(log)
        .into_iter()
        .filter(|s| roots.contains_key(&s.id) && pick(s))
        .map(SpanRecord::wall_secs)
        .sum()
}

/// The traced run's span logs. Each solve, and each other stretch of the
/// run, records into a fresh [`Tracer`], whose cost per closed span grows
/// with the spans it already holds; the parts are merged on one wall axis
/// for the export.
pub struct TraceSet {
    enabled: bool,
    origin: Instant,
    parts: Vec<Part>,
}

struct Part {
    /// Seconds from the set's origin to the part tracer's origin.
    offset: f64,
    log: TraceLog,
    /// `(span, request)`: spans under (or equal to) `span` belong to that
    /// solve or refresh.
    requests: Vec<(SpanId, u64)>,
}

impl TraceSet {
    /// A set whose tracers record when `enabled`.
    pub fn new(enabled: bool) -> TraceSet {
        TraceSet {
            enabled,
            origin: Instant::now(),
            parts: Vec::new(),
        }
    }

    /// A fresh tracer and its offset from the set's origin.
    pub fn tracer(&self) -> (Tracer, f64) {
        let offset = self.origin.elapsed().as_secs_f64();
        if self.enabled {
            (Tracer::enabled(), offset)
        } else {
            (Tracer::disabled(), offset)
        }
    }

    /// Files a finished tracer's log; returns its index.
    pub fn add(&mut self, (tracer, offset): (Tracer, f64), requests: Vec<(SpanId, u64)>) -> usize {
        self.parts.push(Part {
            offset,
            log: tracer.finish(),
            requests,
        });
        self.parts.len() - 1
    }

    /// The log of part `index`.
    pub fn log(&self, index: usize) -> &TraceLog {
        &self.parts[index].log
    }

    /// All parts' measured spans on one wall axis (also copied onto the
    /// virtual axis, which the Chrome export draws), ids made unique, each
    /// span of a solve or refresh tagged `request`.
    pub fn merged(&self) -> TraceLog {
        let mut spans = Vec::new();
        let mut counters = Vec::new();
        let mut base = 0u64;
        for part in &self.parts {
            let roots: Vec<SpanId> = part.requests.iter().map(|&(s, _)| s).collect();
            let under = root_of(&part.log, &roots);
            let request: HashMap<u64, u64> = part.requests.iter().copied().collect();
            for s in measured(&part.log) {
                let mut s = s.clone();
                if let Some(&r) = under.get(&s.id).and_then(|root| request.get(root)) {
                    s.args.push(("request", r));
                }
                s.id += base;
                s.parent = s.parent.map(|p| p + base);
                s.wall_start += part.offset;
                s.wall_end += part.offset;
                s.virtual_start = s.wall_start;
                s.virtual_end = s.wall_end;
                spans.push(s);
            }
            base += part.log.spans.iter().map(|s| s.id).max().unwrap_or(0);
            counters.extend(part.log.counters.iter().cloned());
        }
        TraceLog { spans, counters }
    }
}

/// Writes `log` as Chrome trace JSON to `path`.
pub fn write_chrome(log: &TraceLog, path: &Path) -> Result<(), String> {
    let mut file = std::io::BufWriter::new(
        std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?,
    );
    dbtf_telemetry::write_chrome_trace(log, &mut file)
        .and_then(|()| std::io::Write::flush(&mut file))
        .map_err(|e| format!("{}: {e}", path.display()))
}
