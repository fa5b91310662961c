//! The serving half of a run: a `DBTFFSET` store served over loopback TCP
//! to one reader connection, with refreshes (delta update, store write,
//! live reload) issued on a second, control connection.
//!
//! Reads run in closed-loop windows of fixed length. Between windows the
//! control side computes the next refresh while no reads run; the reload
//! that installs it is sent half-way through the next window, so the
//! generation swap and cache invalidation happen under live reads. An
//! open-loop window at a fixed rate ends the phase.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dbtf::{DbtfConfig, FactorSet};
use dbtf_serve::{FactorStore, ServeClient, Server, ServerConfig, ServerHandle, SourceKind};
use dbtf_telemetry::{SpanId, SpanKind, Tracer};
use dbtf_tensor::BoolTensor;

use crate::affinity;
use crate::backend::Backend;
use crate::gates::{exact_error, parse_reply, resweep_violations, Evaluator};
use crate::sampler::{delta_batch, FiberStream, Query, QueryStream};
use crate::stats::percentile;

/// One reader line: the query, the raw reply, and the range of
/// generations that may have answered it (committed when it was sent ..
/// pending when its reply arrived).
pub struct ReadRecord {
    /// The query sent.
    pub query: Query,
    /// The reply line received.
    pub reply: String,
    /// Lowest generation that may have answered.
    pub gen_lo: u64,
    /// Highest generation that may have answered.
    pub gen_hi: u64,
}

/// A line-oriented client connection. The sending half can be cloned
/// off for the open-loop window.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects to `addr` with Nagle off.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    fn send(writer: &mut TcpStream, line: &str) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        writer.write_all(&buf)
    }

    fn recv(&mut self) -> std::io::Result<String> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(end) = self.buf.iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&self.buf[..end]).into_owned();
                self.buf.drain(..=end);
                return Ok(line);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one line and waits for its reply.
    pub fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
        Conn::send(&mut self.stream, line)?;
        self.recv()
    }
}

/// The generation window the reader stamps on every line.
#[derive(Default)]
pub struct GenClock {
    committed: AtomicU64,
    pending: AtomicU64,
}

/// Timings and counts of one refresh.
pub struct Refresh {
    /// `update_factors` wall seconds.
    pub update_s: f64,
    /// `write_store` wall seconds.
    pub store_write_s: f64,
    /// `reload` round trip, seconds.
    pub reload_s: f64,
    /// Fibers the reload invalidated.
    pub invalidated: u64,
    /// Columns the delta re-swept.
    pub affected: usize,
    /// Operators in the update's plan.
    pub supersteps: usize,
    /// Bytes the update shuffled.
    pub bytes_shuffled: u64,
    /// `|X_new ⊕ X̃_new| / |X_new|`.
    pub rel_error: f64,
}

impl Refresh {
    /// Time from having the delta to the new generation answering.
    pub fn total_s(&self) -> f64 {
        self.update_s + self.store_write_s + self.reload_s
    }
}

/// Everything the serving half measured.
#[derive(Default)]
pub struct ServeOutcome {
    /// Closed-loop per-line latency, µs.
    pub closed_us: Vec<f64>,
    /// Per slice of closed-loop lines: `(p50 µs, p99 µs, lines per second)`.
    pub slices: Vec<(f64, f64, f64)>,
    /// Open-loop latency from the scheduled send, µs.
    pub open_us: Vec<f64>,
    /// How late the open-loop generator sent each line, µs.
    pub lateness_us: Vec<f64>,
    /// Lines read in the closed-loop windows.
    pub closed_lines: u64,
    /// Reply lines checked against the factors, closed and open loop.
    pub lines_checked: u64,
    /// Reply lines that matched no generation that may have answered.
    pub lines_bad: u64,
    /// Completed refreshes.
    pub refreshes: Vec<Refresh>,
    /// Evaluators of the served factor sets, indexed by generation.
    pub generations: Vec<Evaluator>,
    /// Server counters accumulated over the closed-loop windows.
    pub counters: Vec<(&'static str, f64)>,
    /// Gate violations found along the way.
    pub violations: Vec<String>,
    /// Gates checked (each delta's re-sweep and error, each reload's
    /// generation).
    pub gates: u64,
    /// Gates among [`ServeOutcome::gates`] that failed.
    pub failed_gates: u64,
}

/// A started server with the timings of its set-up.
pub struct Started {
    /// The running server.
    pub handle: ServerHandle,
    /// `FactorStore::open` seconds.
    pub open_s: f64,
    /// Open + start + warm-up seconds.
    pub total_s: f64,
}

/// Queries sent to warm a fresh server's cache before timing.
const WARM_UP_LINES: usize = 4000;

/// Opens `store` through a memory map, starts a server with the default
/// configuration and warms it with the read distribution.
pub fn start_server(store: &Path, warm: &mut QueryStream) -> Result<Started, String> {
    let t0 = Instant::now();
    let opened = FactorStore::open(store, SourceKind::Mmap).map_err(|e| e.to_string())?;
    let open_s = t0.elapsed().as_secs_f64();
    // The server's threads inherit this thread's CPU mask.
    affinity::pin_current_thread(&[affinity::SERVE_CPU]);
    let handle = Server::start(opened, ServerConfig::default());
    affinity::pin_current_thread(&[]);
    let handle = handle.map_err(|e| e.to_string())?;
    let mut conn = Conn::connect(handle.addr()).map_err(|e| e.to_string())?;
    for id in 0..WARM_UP_LINES {
        conn.round_trip(&warm.next_query().to_line(id as u64))
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(Started {
        handle,
        open_s,
        total_s: t0.elapsed().as_secs_f64(),
    })
}

/// The state the serving half carries between windows.
pub struct ServeCtx<'a> {
    /// Backend the refresh updates run on.
    pub backend: &'a Backend,
    /// Current tensor (deltas applied so far).
    pub x: BoolTensor,
    /// Delta update configuration.
    pub config: DbtfConfig,
    /// Skewed fiber stream the deltas draw from.
    pub delta_fibers: FiberStream,
    /// Skewed query stream of the reader.
    pub queries: QueryStream,
    /// Directory for delta and store files.
    pub dir: PathBuf,
    /// Length of one closed-loop window.
    pub window: Duration,
    /// Spans go here (disabled outside the traced run).
    pub tracer: &'a Tracer,
    /// `(span, request)` pairs for the trace export: each refresh's
    /// spans, and its reload's, share one request id.
    pub requests: Vec<(SpanId, u64)>,
}

/// Cells per refresh delta batch.
pub const DELTA_CELLS: usize = 64;
/// Open-loop send rate, lines per second: well below the closed-loop rate.
pub const OPEN_RATE: f64 = 2000.0;
/// Length of the open-loop window.
const OPEN_WINDOW: Duration = Duration::from_secs(1);

/// A refresh computed but not yet installed.
struct Pending {
    generation: u64,
    store: PathBuf,
    delta: PathBuf,
    refresh: Refresh,
    root: SpanId,
}

/// Read figures are taken per slice of this many consecutive closed-loop
/// lines (about 0.1 s), and the run reports their medians, so a burst of
/// interference from outside the benchmark moves only its own slices.
const SLICE_LINES: usize = 4096;
/// A slice's p99 needs ten samples beyond it.
const MIN_SLICE_LINES: usize = 1000;

/// Upper bound on closed-loop lines per second, for reserving buffers.
const MAX_LINE_RATE: f64 = 100_000.0;

/// Request ids of refreshes start here (solves count from 1).
const REFRESH_REQUESTS: u64 = 1000;

/// Refreshes run even past the deadline, so every run has a median.
const MIN_REFRESHES: usize = 3;

/// One closed-loop window's samples, reused across windows.
struct WindowBuf {
    /// Per-line latency, µs.
    latency_us: Vec<f64>,
    /// Per-line query and reply, checked after the window.
    records: Vec<ReadRecord>,
    /// Window start, then the end of every slice.
    stamps: Vec<Instant>,
}

fn closed_window(
    conn: &mut Conn,
    queries: &mut QueryStream,
    next_id: &mut u64,
    until: Instant,
    clock: &GenClock,
    buf: &mut WindowBuf,
) -> std::io::Result<()> {
    let WindowBuf {
        latency_us,
        records,
        stamps,
    } = buf;
    stamps.push(Instant::now());
    while Instant::now() < until {
        let query = queries.next_query();
        let line = query.to_line(*next_id);
        *next_id += 1;
        let gen_lo = clock.committed.load(Ordering::SeqCst);
        let t0 = Instant::now();
        let reply = conn.round_trip(&line)?;
        latency_us.push(t0.elapsed().as_secs_f64() * 1e6);
        records.push(ReadRecord {
            query,
            reply,
            gen_lo,
            gen_hi: clock.pending.load(Ordering::SeqCst),
        });
        if latency_us.len().is_multiple_of(SLICE_LINES) {
            stamps.push(Instant::now());
        }
    }
    if !latency_us.len().is_multiple_of(SLICE_LINES) {
        stamps.push(Instant::now());
    }
    Ok(())
}

/// `(p50 µs, p99 µs, lines per second)` of each slice of [`SLICE_LINES`]
/// consecutive lines of one window; a last partial slice counts when it
/// has at least [`MIN_SLICE_LINES`] lines.
fn slice_stats(latency_us: &[f64], stamps: &[Instant]) -> Vec<(f64, f64, f64)> {
    latency_us
        .chunks(SLICE_LINES)
        .zip(stamps.windows(2))
        .filter(|(lines, _)| lines.len() >= MIN_SLICE_LINES)
        .map(|(lines, span)| {
            let mut sorted = lines.to_vec();
            sorted.sort_by(f64::total_cmp);
            let secs = (span[1] - span[0]).as_secs_f64();
            (
                percentile(&sorted, 50.0),
                percentile(&sorted, 99.0),
                sorted.len() as f64 / secs,
            )
        })
        .collect()
}

fn open_window(
    conn: &mut Conn,
    queries: &mut QueryStream,
    next_id: &mut u64,
    generation: u64,
    out: &mut ServeOutcome,
) -> Result<(), String> {
    let n = (OPEN_RATE * OPEN_WINDOW.as_secs_f64()).round() as usize;
    let batch: Vec<(Query, String)> = (0..n)
        .map(|i| {
            let q = queries.next_query();
            (q, q.to_line(*next_id + i as u64))
        })
        .collect();
    *next_id += n as u64;
    let mut writer = conn.stream.try_clone().map_err(|e| e.to_string())?;
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / OPEN_RATE);
    let (lateness, replies) = std::thread::scope(|s| {
        let sender = s.spawn(|| -> std::io::Result<Vec<f64>> {
            let mut late = Vec::with_capacity(n);
            for (i, (_, line)) in batch.iter().enumerate() {
                let at = due(i);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                late.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e6);
                Conn::send(&mut writer, line)?;
            }
            Ok(late)
        });
        let mut replies = Vec::with_capacity(n);
        for i in 0..n {
            let reply = conn.recv();
            let done = Instant::now();
            match reply {
                Ok(r) => replies.push((r, done.saturating_duration_since(due(i)))),
                Err(e) => return (sender.join(), Err(e.to_string())),
            }
        }
        (sender.join(), Ok(replies))
    });
    let lateness = lateness
        .map_err(|_| "open-loop sender panicked".to_string())?
        .map_err(|e| e.to_string())?;
    let mut records = Vec::with_capacity(n);
    for ((query, _), (reply, latency)) in batch.into_iter().zip(replies?) {
        out.open_us.push(latency.as_secs_f64() * 1e6);
        records.push(ReadRecord {
            query,
            reply,
            gen_lo: generation,
            gen_hi: generation,
        });
    }
    out.check(records);
    out.lateness_us = lateness;
    Ok(())
}

impl ServeOutcome {
    /// Checks a window's replies (outside its timing) against every
    /// generation that may have answered each line, then drops them, so
    /// memory does not grow with the number of reads.
    fn check(&mut self, records: impl IntoIterator<Item = ReadRecord>) {
        for r in records {
            self.lines_checked += 1;
            let ok = parse_reply(&r.reply, r.query).is_some_and(|a| {
                (r.gen_lo..=r.gen_hi).any(|g| {
                    self.generations
                        .get(g as usize)
                        .is_some_and(|e| e.answer(r.query) == a)
                })
            });
            if !ok {
                self.lines_bad += 1;
                if self.lines_bad <= 5 {
                    self.violations.push(format!(
                        "reply {:?} to {:?} matches no generation in {}..={}",
                        r.reply, r.query, r.gen_lo, r.gen_hi
                    ));
                }
            }
        }
    }
}

impl ServeCtx<'_> {
    /// Computes the next refresh: draws a delta, runs the bounded
    /// re-sweep, writes the next store. Gates the result (outside the
    /// timings) and advances the tensor and factors.
    fn compute(
        &mut self,
        generation: u64,
        factors: &FactorSet,
        out: &mut ServeOutcome,
    ) -> Result<(Pending, FactorSet), String> {
        let delta = delta_batch(&self.x, &mut self.delta_fibers, DELTA_CELLS);
        let delta_path = self.dir.join(format!("delta-{generation}.txt"));
        std::fs::write(&delta_path, delta.to_text()).map_err(|e| e.to_string())?;
        let store = self.dir.join(format!("gen-{generation}.fset"));
        let root = self.tracer.begin(SpanKind::Run, "bench.refresh", 0.0);
        let span = self.tracer.begin(SpanKind::Phase, "delta.update", 0.0);
        let t0 = Instant::now();
        let (result, plan) = self
            .backend
            .update(&self.x, &delta, factors, &self.config)
            .map_err(|e| format!("update_factors: {e}"))?;
        let t1 = Instant::now();
        self.tracer.end(span, 0.0);
        let span = self
            .tracer
            .begin(SpanKind::Operator, "serve.store_write", 0.0);
        let t2 = Instant::now();
        FactorStore::write_store(&store, generation, &result.factors).map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        self.tracer.end(span, 0.0);
        self.tracer.end(root, 0.0);

        let x_new = delta.apply(&self.x);
        let mut violations =
            resweep_violations(&x_new, factors, &result.factors, &result.affected_columns);
        let exact = exact_error(&x_new, &result.factors);
        if exact != result.error {
            violations.push(format!(
                "delta reported error {} != exact {exact}",
                result.error
            ));
        }
        violations.extend(dbtf_oracle::check_recovery_counters(
            &result.stats.comm,
            false,
        ));
        out.gates += 1;
        out.failed_gates += u64::from(!violations.is_empty());
        out.violations.extend(
            violations
                .into_iter()
                .map(|v| format!("refresh {generation}: {v}")),
        );
        let refresh = Refresh {
            update_s: (t1 - t0).as_secs_f64(),
            store_write_s: (t3 - t2).as_secs_f64(),
            reload_s: 0.0,
            invalidated: 0,
            affected: result.affected_columns.len(),
            supersteps: plan.len(),
            bytes_shuffled: result.stats.comm.bytes_shuffled,
            rel_error: result.error as f64 / x_new.nnz().max(1) as f64,
        };
        self.x = x_new;
        Ok((
            Pending {
                generation,
                store,
                delta: delta_path,
                refresh,
                root,
            },
            result.factors,
        ))
    }

    /// Runs the serving half against `server` until about `deadline`,
    /// calling `between_windows` after every closed-loop window (reads are
    /// paused then).
    pub fn run(
        &mut self,
        server: &ServerHandle,
        initial: FactorSet,
        deadline: Instant,
        between_windows: &mut dyn FnMut() -> Result<(), String>,
    ) -> Result<ServeOutcome, String> {
        // Sample buffers are reserved up front and reused: growing them by
        // doubling would add a step that depends on the read count to the
        // process's peak RSS.
        let window_lines = (self.window.as_secs_f64() * MAX_LINE_RATE) as usize;
        let mut out = ServeOutcome {
            closed_us: Vec::with_capacity(
                (deadline
                    .saturating_duration_since(Instant::now())
                    .as_secs_f64()
                    * MAX_LINE_RATE) as usize,
            ),
            generations: vec![Evaluator::new(initial.clone())],
            ..ServeOutcome::default()
        };
        let mut buf = WindowBuf {
            latency_us: Vec::with_capacity(window_lines),
            records: Vec::with_capacity(window_lines),
            stamps: Vec::with_capacity(window_lines / SLICE_LINES + 2),
        };
        let mut current = initial;
        let clock = GenClock::default();
        let mut reader = Conn::connect(server.addr()).map_err(|e| e.to_string())?;
        let mut control = ServeClient::connect(server.addr()).map_err(|e| e.to_string())?;
        let metrics = server.metrics();
        let before = metrics.named_counters();
        let closed_deadline = deadline.checked_sub(OPEN_WINDOW).unwrap_or(deadline);
        let mut next_id = 0u64;
        let mut pending: Option<Pending> = None;
        let mut last_compute = Duration::ZERO;
        loop {
            let window = self.tracer.begin(SpanKind::Phase, "serve.read_window", 0.0);
            buf.latency_us.clear();
            buf.stamps.clear();
            let until = Instant::now() + self.window;
            let queries = &mut self.queries;
            let tracer = self.tracer;
            let reload = std::thread::scope(|s| {
                let reads = s.spawn(|| -> std::io::Result<()> {
                    affinity::pin_current_thread(&[affinity::SERVE_CPU]);
                    closed_window(&mut reader, queries, &mut next_id, until, &clock, &mut buf)
                });
                let reload = pending.take().map(|mut p| {
                    std::thread::sleep(self.window / 2);
                    clock.pending.store(p.generation, Ordering::SeqCst);
                    let span = tracer.begin(SpanKind::Operator, "serve.reload", 0.0);
                    let t0 = Instant::now();
                    let result = control.reload(
                        &p.store.to_string_lossy(),
                        Some("mmap"),
                        Some(&p.delta.to_string_lossy()),
                    );
                    p.refresh.reload_s = t0.elapsed().as_secs_f64();
                    tracer.end(span, 0.0);
                    clock.committed.store(p.generation, Ordering::SeqCst);
                    (p, span, result)
                });
                let reads = reads.join().map_err(|_| "reader panicked".to_string());
                (reads, reload)
            });
            let (reads, reload) = reload;
            reads?.map_err(|e| format!("reader: {e}"))?;
            self.tracer.end(window, 0.0);
            out.closed_lines += buf.latency_us.len() as u64;
            out.closed_us.extend_from_slice(&buf.latency_us);
            out.slices.extend(slice_stats(&buf.latency_us, &buf.stamps));
            out.check(buf.records.drain(..));
            if let Some((mut p, span, result)) = reload {
                let (_, generation, invalidated) = result.map_err(|e| format!("reload: {e}"))?;
                out.gates += 1;
                if generation != p.generation {
                    out.failed_gates += 1;
                    out.violations.push(format!(
                        "reload installed generation {generation}, expected {}",
                        p.generation
                    ));
                }
                p.refresh.invalidated = invalidated;
                self.requests
                    .push((p.root, REFRESH_REQUESTS + p.generation));
                self.requests.push((span, REFRESH_REQUESTS + p.generation));
                out.refreshes.push(p.refresh);
            }
            between_windows()?;
            let next_at = Instant::now() + last_compute + self.window;
            if out.refreshes.len() >= MIN_REFRESHES && next_at > closed_deadline {
                break;
            }
            let generation = out.generations.len() as u64;
            let t0 = Instant::now();
            let (p, next) = self.compute(generation, &current, &mut out)?;
            last_compute = t0.elapsed();
            out.generations.push(Evaluator::new(next.clone()));
            current = next;
            pending = Some(p);
        }
        let after = metrics.named_counters();
        out.counters = after
            .iter()
            .zip(&before)
            .map(|(&(name, a), &(_, b))| (name, a - b))
            .collect();
        let live = out.generations.len() as u64 - 1;
        let span = self.tracer.begin(SpanKind::Phase, "serve.open_window", 0.0);
        open_window(&mut reader, &mut self.queries, &mut next_id, live, &mut out)?;
        self.tracer.end(span, 0.0);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_drop_a_short_tail() {
        let t0 = Instant::now();
        let stamps = [t0, t0 + Duration::from_secs(2), t0 + Duration::from_secs(3)];
        let latency: Vec<f64> = (0..SLICE_LINES + MIN_SLICE_LINES - 1)
            .map(|i| i as f64)
            .collect();
        let slices = slice_stats(&latency, &stamps);
        assert_eq!(slices.len(), 1);
        let (p50, p99, rate) = slices[0];
        assert_eq!(p50, percentile(&latency[..SLICE_LINES], 50.0));
        assert_eq!(p99, percentile(&latency[..SLICE_LINES], 99.0));
        assert_eq!(rate, SLICE_LINES as f64 / 2.0);
        let longer: Vec<f64> = (0..SLICE_LINES + MIN_SLICE_LINES)
            .map(|i| i as f64)
            .collect();
        assert_eq!(slice_stats(&longer, &stamps).len(), 2);
    }
}
