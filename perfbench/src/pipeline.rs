//! One run of one workload: set-up, the solve loop, the serving half, the
//! correctness gates, and (traced runs) the per-layer measurements.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dbtf::{DbtfConfig, DbtfResult};
use dbtf_cluster::MetricsSnapshot;
use dbtf_serve::{FactorStore, QueryEngine, ServeMetrics, SourceKind};
use dbtf_telemetry::{SpanId, SpanKind, Tracer};
use dbtf_tensor::io::{read_tensor_binary_file, write_tensor_binary_file};
use dbtf_tensor::BoolTensor;

use crate::backend::{local_reference, Backend};
use crate::gates::{exact_error, solve_violations};
use crate::host;
use crate::report::{json_number, json_string, Outcome};
use crate::sampler::{FiberStream, Query, QueryStream};
use crate::serve::{start_server, ServeCtx, Started};
use crate::stats::{median, percentile_of, summarize};
use crate::trace;
use crate::workload::{BackendKind, Workload};

/// Set-up is repeated this many times per run; the median is reported.
const SETUP_REPS: usize = 5;
/// Stream ids of the seeded samplers (one seed, independent draws).
const READ_STREAM: u64 = 1;
const WARM_STREAM: u64 = 2;
const DELTA_STREAM: u64 = 3;
/// Percentile over a run's read slices that the read metrics report: the
/// upper quartile of slice latencies (and the lower one of slice rates).
const SLOW_SLICE_PERCENTILE: f64 = 75.0;
/// The cell-by-cell oracle runs once per run when the tensor has at most
/// this many cells (it is `O(I·J·K·R)`).
const ORACLE_MAX_CELLS: u64 = 1 << 24;

/// Command-line options of one run.
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// A scratch directory under the working directory, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using the parent.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One timed solve: read the input file, factorize, write the store.
struct Solve {
    total_s: f64,
    read_s: f64,
    factorize_s: f64,
    store_write_s: f64,
    result: DbtfResult,
    supersteps: usize,
    root: SpanId,
    /// Index of this solve's log in the run's [`trace::TraceSet`].
    part: usize,
}

fn solve_once(
    backend: &Backend,
    input: &Path,
    config: &DbtfConfig,
    store: &Path,
    tracer: &Tracer,
) -> Result<Solve, String> {
    let root = tracer.begin(SpanKind::Run, "bench.solve", 0.0);
    let span = tracer.begin(SpanKind::Operator, "tensor.read", 0.0);
    let t0 = Instant::now();
    let x = read_tensor_binary_file(input).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    tracer.end(span, 0.0);
    let (result, plan) = backend
        .factorize(&x, config, tracer)
        .map_err(|e| format!("factorize: {e}"))?;
    let t2 = Instant::now();
    let span = tracer.begin(SpanKind::Operator, "serve.store_write", 0.0);
    FactorStore::write_store(store, 0, &result.factors).map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    tracer.end(span, 0.0);
    tracer.end(root, 0.0);
    Ok(Solve {
        total_s: (t3 - t0).as_secs_f64(),
        read_s: (t1 - t0).as_secs_f64(),
        factorize_s: (t2 - t1).as_secs_f64(),
        store_write_s: (t3 - t2).as_secs_f64(),
        result,
        supersteps: plan.len(),
        root,
        part: 0,
    })
}

/// The solve loop: every solve so far and, in a traced run, the untraced
/// twin run just before each traced one (so the tracing overhead compares
/// neighbours, not a cold start). Solve `n` uses initialization seed
/// `n mod init_seeds`.
struct Solver<'a> {
    backend: &'a Backend,
    input: PathBuf,
    store: PathBuf,
    config: DbtfConfig,
    init_seeds: usize,
    traced: bool,
    solves: Vec<Solve>,
    untraced: Vec<Solve>,
    /// Wall time spent solving so far.
    busy: Duration,
}

impl Solver<'_> {
    fn step(&mut self, traces: &mut trace::TraceSet, ledger: &mut Ledger) -> Result<(), String> {
        let t0 = Instant::now();
        let n = self.solves.len();
        let config = DbtfConfig {
            seed: self.config.seed.wrapping_add((n % self.init_seeds) as u64),
            ..self.config.clone()
        };
        if self.traced {
            ledger.attempted += 1;
            let twin = solve_once(
                self.backend,
                &self.input,
                &config,
                &self.store,
                &Tracer::disabled(),
            )?;
            self.untraced.push(twin);
        }
        ledger.attempted += 1;
        let part = traces.tracer();
        let mut s = solve_once(self.backend, &self.input, &config, &self.store, &part.0)?;
        s.part = traces.add(part, vec![(s.root, n as u64 + 1)]);
        self.solves.push(s);
        self.busy += t0.elapsed();
        Ok(())
    }

    /// Repeated solves of one initialization seed, and each traced solve
    /// and its untraced twin, must be bit-identical.
    fn repeat_violations(&self) -> Vec<String> {
        let k = self.init_seeds;
        let repeats = self
            .solves
            .iter()
            .enumerate()
            .skip(k)
            .map(|(n, s)| (n, s, &self.solves[n % k]));
        let pairs = self
            .untraced
            .iter()
            .zip(&self.solves)
            .enumerate()
            .map(|(n, (u, s))| (n, u, s));
        repeats
            .chain(pairs)
            .filter(|(_, s, twin)| {
                s.result.factors != twin.result.factors || s.result.error != twin.result.error
            })
            .map(|(n, _, _)| format!("solve {n} differs from its earlier twin"))
            .collect()
    }
}

/// Tallies of attempted and failed operations plus gate messages.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Ledger {
    fn gate(&mut self, what: &str, violations: Vec<String>) {
        self.attempted += 1;
        if !violations.is_empty() {
            self.failed += 1;
            self.violations
                .extend(violations.into_iter().map(|v| format!("{what}: {v}")));
        }
    }
}

/// Mean µs per query kind of the reader's closed-loop stream, regenerated
/// from its seed and replayed on a second, in-process engine over the same
/// store (no TCP).
fn engine_replay(store: &Path, mut queries: QueryStream, lines: u64) -> Result<[f64; 3], String> {
    let opened = FactorStore::open(store, SourceKind::Mmap).map_err(|e| e.to_string())?;
    let engine = QueryEngine::new(
        opened,
        dbtf_serve::ServerConfig::default().cache_fibers,
        std::sync::Arc::new(ServeMetrics::new()),
    );
    let mut sums = [0.0f64; 3];
    let mut counts = [0u64; 3];
    for _ in 0..lines {
        let query = queries.next_query();
        let t0 = Instant::now();
        let kind = match query {
            Query::Point(i, j, k) => std::hint::black_box(engine.point(i, j, k)).map(|_| 0),
            Query::Slice(m, lo, hi) => std::hint::black_box(engine.slice(m, lo, hi)).map(|_| 1),
            Query::Topk(m, e, k) => std::hint::black_box(engine.topk(m, e, k)).map(|_| 2),
        }
        .map_err(|e| format!("engine replay: {e:?}"))?;
        sums[kind] += t0.elapsed().as_secs_f64() * 1e6;
        counts[kind] += 1;
    }
    Ok([0, 1, 2].map(|k| sums[k] / counts[k].max(1) as f64))
}

fn counter(counters: &[(&'static str, f64)], name: &str) -> f64 {
    counters
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |&(_, v)| v)
}

/// Summary line of one sample set for the detail record.
fn timing_json(samples: &[f64]) -> String {
    match summarize(samples) {
        None => "null".into(),
        Some(s) => format!(
            "{{\"median\":{},\"tail\":{},\"count\":{}}}",
            json_number(s.median),
            s.tail.map_or("null".into(), |(p, v)| format!(
                "{{\"p\":{p},\"value\":{}}}",
                json_number(v)
            )),
            s.count
        ),
    }
}

/// Runs one workload once. Returns the result and a detail record
/// (host, inputs, timing tails, gate messages) to print before it.
pub fn run(opts: &Options) -> Result<(Outcome, String), String> {
    let w = &opts.workload;
    let seed = opts.seed;
    let work =
        WorkDir(PathBuf::from(".bench_work").join(format!("{}-{}", w.name, std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;
    let dir = work.0.clone();
    let spill_dir = dir.join("spill");
    let input = dir.join("input.dbtf");
    let store0 = dir.join("gen-0.fset");
    let mut traces = trace::TraceSet::new(opts.trace);
    let mut ledger = Ledger::default();
    let budget = Duration::from_secs_f64(opts.seconds);

    // ---- Set-up: inputs, input file, backend boot (repeated). ----------
    let mut setup_s = Vec::new();
    let mut boot_s = Vec::new();
    let mut kept: Option<(BoolTensor, Backend)> = None;
    let part = traces.tracer();
    let tracer = &part.0;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let span = tracer.begin(SpanKind::Phase, "bench.setup", 0.0);
        let t0 = Instant::now();
        let x = w.generate(seed);
        write_tensor_binary_file(&x, &input).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let backend = Backend::boot(w.backend)?;
        boot_s.push(t1.elapsed().as_secs_f64());
        setup_s.push(t0.elapsed().as_secs_f64());
        tracer.end(span, 0.0);
        kept = Some((x, backend));
    }
    traces.add(part, Vec::new());
    let (x0, backend) = kept.expect("at least one set-up");
    let config = DbtfConfig {
        rank: w.rank,
        max_iters: w.iters,
        initial_sets: w.sets,
        convergence_threshold: -1.0,
        seed,
        storage: w.storage,
        spill_dir: (w.storage == dbtf::StorageKind::Mmap)
            .then(|| spill_dir.to_string_lossy().into_owned()),
        ..DbtfConfig::default()
    };

    // ---- Solves: one per initialization seed now; the rest run between
    // read windows, paced to `solve_share` of the run, so a stretch of
    // interference from outside the benchmark cannot land on all of them.
    let run_start = Instant::now();
    let mut solver = Solver {
        backend: &backend,
        input: input.clone(),
        store: dir.join("solve.fset"),
        config: config.clone(),
        init_seeds: w.init_seeds,
        traced: opts.trace,
        solves: Vec::new(),
        untraced: Vec::new(),
        busy: Duration::ZERO,
    };
    for _ in 0..w.init_seeds {
        solver.step(&mut traces, &mut ledger)?;
    }
    // Peak memory of set-up and one solve per initialization seed. The
    // serving half adds a peak that depends on how the allocator happens to
    // place interleaved solves, refreshes and reads (up to 17 % apart
    // between runs), so that one goes to the detail record only.
    let peak_rss = host::peak_rss_mib()?;
    let fitted = solver.solves[0].result.factors.clone();
    FactorStore::write_store(&store0, 0, &fitted).map_err(|e| e.to_string())?;

    // ---- Serving half. ----------------------------------------------------
    let dims = x0.dims();
    let mut warm = QueryStream::new(dims, seed, WARM_STREAM);
    let mut serve_setup_s = Vec::new();
    let mut store_open_s = Vec::new();
    let mut server: Option<Started> = None;
    let part = traces.tracer();
    let tracer = &part.0;
    for _ in 0..SETUP_REPS {
        if let Some(old) = server.take() {
            old.handle.shutdown(Duration::from_secs(5));
        }
        let span = tracer.begin(SpanKind::Phase, "bench.serve_setup", 0.0);
        let started = start_server(&store0, &mut warm)?;
        tracer.end(span, 0.0);
        serve_setup_s.push(started.total_s);
        store_open_s.push(started.open_s);
        server = Some(started);
    }
    traces.add(part, Vec::new());
    let part = traces.tracer();
    let server = server.expect("at least one server set-up");
    let mut ctx = ServeCtx {
        backend: &backend,
        x: x0.clone(),
        config: DbtfConfig {
            max_iters: 1,
            initial_sets: 1,
            ..config.clone()
        },
        delta_fibers: FiberStream::new(dims, seed, DELTA_STREAM),
        queries: QueryStream::new(dims, seed, READ_STREAM),
        dir: dir.clone(),
        window: Duration::from_secs_f64(w.window_s),
        tracer: &part.0,
        requests: Vec::new(),
    };
    let mut between_windows = || -> Result<(), String> {
        while solver.busy < run_start.elapsed().mul_f64(w.solve_share) {
            solver.step(&mut traces, &mut ledger)?;
        }
        Ok(())
    };
    let served = ctx.run(
        &server.handle,
        fitted.clone(),
        run_start + budget,
        &mut between_windows,
    )?;
    let requests = std::mem::take(&mut ctx.requests);
    traces.add(part, requests);
    // At least one repeat of initialization 0 for the repeat gate.
    if solver.solves.len() <= w.init_seeds {
        solver.step(&mut traces, &mut ledger)?;
    }
    ledger.gate("repeated solves", solver.repeat_violations());
    let Solver {
        solves, untraced, ..
    } = solver;
    let comm: MetricsSnapshot = solves[0].result.stats.comm.clone();
    let drained = server.handle.shutdown(Duration::from_secs(5));
    ledger.gate(
        "server drain",
        match drained {
            true => Vec::new(),
            false => vec!["connections still open after 5 s".into()],
        },
    );
    let peak_rss_end = host::peak_rss_mib()?;

    // ---- Gates (outside every timed region). -----------------------------
    ledger.attempted += served.refreshes.len() as u64;
    ledger.attempted += served.gates;
    ledger.failed += served.failed_gates;
    ledger.violations.extend(served.violations.iter().cloned());
    ledger.attempted += served.lines_checked;
    ledger.failed += served.lines_bad;
    let local = dbtf::factorize(
        &local_reference(),
        &x0,
        &DbtfConfig {
            storage: dbtf::StorageKind::Ram,
            spill_dir: None,
            ..config.clone()
        },
    )
    .map_err(|e| format!("reference factorize: {e}"))?;
    ledger.gate(
        "solve",
        solve_violations(&x0, &fitted, solves[0].result.error, &local.factors),
    );
    ledger.gate(
        "recovery counters",
        dbtf_oracle::check_recovery_counters(&comm, false),
    );
    if w.backend == BackendKind::Net {
        ledger.gate("wire meters", dbtf_oracle::check_wire_meters(&comm));
    }
    let cells = dims.iter().map(|&d| d as u64).product::<u64>();
    if cells <= ORACLE_MAX_CELLS {
        let oracle = dbtf_oracle::cp_error(&x0, &fitted.a, &fitted.b, &fitted.c);
        let reported = solves[0].result.error;
        ledger.gate(
            "cp_error oracle",
            if oracle == reported {
                vec![]
            } else {
                vec![format!("oracle error {oracle} != reported {reported}")]
            },
        );
    }

    let rel_error = solves[..w.init_seeds]
        .iter()
        .map(|s| s.result.relative_error)
        .sum::<f64>()
        / w.init_seeds as f64;
    let solve_totals: Vec<f64> = solves.iter().map(|s| s.total_s).collect();
    let refresh_totals: Vec<f64> = served.refreshes.iter().map(|r| r.total_s()).collect();
    // Over the run's slices, the figure of the slower quarter. The host
    // switches between a slow and a fast state for seconds at a time, so a
    // median over slices lands on whichever state held more of the run.
    let per_slice = |f: fn(&(f64, f64, f64)) -> f64, p: f64| {
        percentile_of(&served.slices.iter().map(f).collect::<Vec<_>>(), p)
    };
    let read_p50 = per_slice(|w| w.0, SLOW_SLICE_PERCENTILE);

    let metrics: Vec<(&'static str, f64)> = if !opts.trace {
        vec![
            ("setup_s", median(&setup_s) + median(&serve_setup_s)),
            ("solve_s", median(&solve_totals)),
            ("rel_error", rel_error),
            ("peak_rss_mib", peak_rss),
            ("read_p50_us", read_p50),
            ("read_qps", per_slice(|w| w.2, 100.0 - SLOW_SLICE_PERCENTILE)),
            ("refresh_s", median(&refresh_totals)),
        ]
    } else {
        let part = traces.tracer();
        let tracer = &part.0;
        let span = tracer.begin(SpanKind::Phase, "bench.layer_probes", 0.0);
        let budget_bytes = w
            .spill_budget_mib
            .map_or(dbtf_tensor::stream::DEFAULT_CHUNK_BYTES, |m| m << 20);
        let (probe, parts) = trace::tensor_probe(
            &x0,
            w.storage,
            budget_bytes,
            backend.partitions(),
            &dir.join("probe"),
            tracer,
        )?;
        let span_k = tracer.begin(SpanKind::Operator, "kernel.replay", 0.0);
        let replay = trace::kernel_replay(&parts, &fitted, config.cache_group_limit);
        tracer.end(span_k, 0.0);
        tracer.end(span, 0.0);
        traces.add(part, Vec::new());
        ledger.gate(
            "kernel replay",
            if replay.start_error == solves[0].result.error {
                vec![]
            } else {
                vec![format!(
                    "replayed error {} != solve error {}",
                    replay.start_error, solves[0].result.error
                )]
            },
        );
        let last_store = dir.join(format!("gen-{}.fset", served.generations.len() - 1));
        let last_store = if served.generations.len() > 1 {
            last_store
        } else {
            store0.clone()
        };
        let reads = QueryStream::new(dims, seed, READ_STREAM);
        let [point_us, slice_us, topk_us] = engine_replay(&last_store, reads, served.closed_lines)?;

        let per_solve = |pick: &dyn Fn(&dbtf_telemetry::SpanRecord) -> bool| -> f64 {
            median(
                &solves
                    .iter()
                    .map(|s| trace::sum_under(traces.log(s.part), s.root, pick))
                    .collect::<Vec<_>>(),
            )
        };
        let distribute_s = per_solve(&|s| s.kind == SpanKind::Phase && s.name == "cp.distribute");
        let iterate_s = per_solve(&|s| s.kind == SpanKind::Phase && s.name == "cp.iteration");
        let step = |suffix: &'static str| {
            per_solve(&move |s: &dbtf_telemetry::SpanRecord| {
                s.kind == SpanKind::Superstep && s.name.ends_with(suffix)
            })
        };
        let rounds = (w.sets + w.iters - 1) as f64;
        let kernel_busy = replay.build_s + replay.column_errors_s + replay.partition_error_s;
        let busy_micros = [
            "serve.point.micros",
            "serve.slice.micros",
            "serve.topk.micros",
        ]
        .iter()
        .map(|n| counter(&served.counters, n))
        .sum::<f64>();
        let queries = [
            "serve.point.queries",
            "serve.slice.queries",
            "serve.topk.queries",
        ]
        .iter()
        .map(|n| counter(&served.counters, n))
        .sum::<f64>();
        let busy_us = busy_micros / queries.max(1.0);
        let hits = counter(&served.counters, "serve.cache.hits");
        let misses = counter(&served.counters, "serve.cache.misses");
        let traced_solve = median(&solve_totals);
        let untraced_solve = median(&untraced.iter().map(|s| s.total_s).collect::<Vec<_>>());
        let wall_over_virtual = median(
            &untraced
                .iter()
                .map(|s| s.factorize_s / s.result.stats.virtual_secs)
                .collect::<Vec<_>>(),
        );
        let refreshes = &served.refreshes;
        let per_refresh = |f: &dyn Fn(&crate::serve::Refresh) -> f64| {
            median(&refreshes.iter().map(f).collect::<Vec<_>>())
        };

        let stem = PathBuf::from(".bench_out").join(format!("{}-seed{seed}", w.name));
        std::fs::create_dir_all(".bench_out").map_err(|e| e.to_string())?;
        let log = traces.merged();
        trace::write_chrome(&log, &stem.with_extension("trace.json"))?;
        let table = trace::self_time_table(&log);
        std::fs::write(stem.with_extension("layers.txt"), &table).map_err(|e| e.to_string())?;
        eprintln!("per-layer self time ({}):\n{table}", w.name);

        vec![
            (
                "tensor.read_s",
                median(&solves.iter().map(|s| s.read_s).collect::<Vec<_>>()),
            ),
            ("tensor.unfold_s", probe.unfold_s),
            ("tensor.spill_s", probe.spill_s),
            ("tensor.spill_bytes", probe.spill_bytes as f64),
            ("core.partition_s", probe.partition_s),
            ("core.distribute_s", distribute_s),
            ("core.iterate_s", iterate_s),
            ("core.superstep.begin_s", step(".begin")),
            ("core.superstep.sweep_s", step(".sweep")),
            ("core.superstep.finish_s", step(".finish")),
            ("kernel.build_cache_s", replay.build_s),
            ("kernel.column_errors_s", replay.column_errors_s),
            ("kernel.apply_column_s", replay.apply_column_s),
            ("kernel.partition_error_s", replay.partition_error_s),
            ("kernel.ops", replay.ops as f64),
            ("kernel.ops_per_s", replay.ops as f64 / kernel_busy),
            ("kernel.cache_bytes", replay.cache_bytes as f64),
            ("kernel.bytes_computed", replay.ops as f64 * 8.0),
            ("model.wall_over_virtual", wall_over_virtual),
            ("cluster.supersteps", solves[0].supersteps as f64),
            (
                "cluster.superstep_overhead_s",
                iterate_s - replay.total_s() * rounds,
            ),
            ("comm.bytes_shuffled", comm.bytes_shuffled as f64),
            ("comm.bytes_broadcast", comm.bytes_broadcast as f64),
            ("comm.bytes_collected", comm.bytes_collected as f64),
            ("recovery.task_retries", comm.task_retries as f64),
            ("recovery.worker_respawns", comm.worker_respawns as f64),
            ("net.boot_s", median(&boot_s)),
            ("net.wire_bytes_sent", comm.net_wire_bytes_sent as f64),
            (
                "net.wire_bytes_received",
                comm.net_wire_bytes_received as f64,
            ),
            (
                "net.wire_overhead_bytes",
                comm.net_wire_overhead_bytes as f64,
            ),
            ("serve.engine.point_us", point_us),
            ("serve.engine.slice_us", slice_us),
            ("serve.engine.topk_us", topk_us),
            ("serve.server.busy_us", busy_us),
            ("serve.transport_us", read_p50 - busy_us),
            ("serve.cache.hit_ratio", hits / (hits + misses).max(1.0)),
            (
                "serve.cache.evictions",
                counter(&served.counters, "serve.cache.evictions"),
            ),
            ("serve.reload_ms", per_refresh(&|r| r.reload_s * 1e3)),
            (
                "serve.reload.fibers_invalidated",
                refreshes.iter().map(|r| r.invalidated as f64).sum(),
            ),
            (
                "serve.store_write_s",
                median(&solves.iter().map(|s| s.store_write_s).collect::<Vec<_>>()),
            ),
            ("serve.store_open_s", median(&store_open_s)),
            ("delta.update_s", per_refresh(&|r| r.update_s)),
            (
                "delta.affected_columns",
                per_refresh(&|r| r.affected as f64),
            ),
            ("delta.supersteps", per_refresh(&|r| r.supersteps as f64)),
            (
                "delta.bytes_shuffled",
                per_refresh(&|r| r.bytes_shuffled as f64),
            ),
            (
                "telemetry.overhead_frac",
                traced_solve / untraced_solve - 1.0,
            ),
        ]
    };
    drop(backend);

    let detail = format!(
        "{{\"detail\":{{\"host\":{},\"workload\":{},\"seed\":{seed},\"seconds\":{},\"trace\":{},\"spill_budget_mib\":{},\"solves\":{},\"refreshes\":{},\"generations\":{},\"timings\":{{\"setup_s\":{},\"serve_setup_s\":{},\"solve_s\":{},\"refresh_s\":{},\"read_us\":{},\"read_open_us\":{},\"open_lateness_us\":{},\"refresh_rel_error\":{}}},\"read_p99_us\":{},\"peak_rss_end_mib\":{},\"exact_error\":{},\"fail_ratio\":{},\"violations\":[{}]}}}}",
        host::fingerprint_json(),
        w.to_json(),
        opts.seconds,
        opts.trace,
        w.spill_budget_mib.map_or("null".into(), |m| m.to_string()),
        solves.len(),
        served.refreshes.len(),
        served.generations.len(),
        timing_json(&setup_s),
        timing_json(&serve_setup_s),
        timing_json(&solve_totals),
        timing_json(&refresh_totals),
        timing_json(&served.closed_us),
        timing_json(&served.open_us),
        timing_json(&served.lateness_us),
        timing_json(&served.refreshes.iter().map(|r| r.rel_error).collect::<Vec<_>>()),
        json_number(per_slice(|w| w.1, SLOW_SLICE_PERCENTILE)),
        json_number(peak_rss_end),
        exact_error(&x0, &fitted),
        json_number(ledger.failed as f64 / ledger.attempted.max(1) as f64),
        ledger.violations.iter().take(20).map(|v| json_string(v)).collect::<Vec<_>>().join(","),
    );
    Ok((
        Outcome {
            correct: ledger.failed == 0,
            attempted: ledger.attempted,
            failed: ledger.failed,
            metrics,
        },
        detail,
    ))
}
