//! The three workloads and the inputs each derives from its seed.

use dbtf::StorageKind;
use dbtf_datagen::{add_noise, generate_proxy, proxy_specs, NoiseSpec};
use dbtf_tensor::{BitMatrix, BoolTensor};

use crate::sampler::{Rng, POINT_PCT, SLICE_PCT, ZIPF_S};
use crate::serve::{DELTA_CELLS, OPEN_RATE};

/// Noise of the planted inputs. Additive noise stays low because
/// `add_noise` tops up duplicate insertions one O(|X|) merge at a time,
/// which would make set-up time the generator's, not the pipeline's.
const ADDITIVE: f64 = 0.01;
const DESTRUCTIVE: f64 = 0.05;

/// Where a workload's tensor comes from.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// A planted tensor of the paper's Synthetic-error family: as many
    /// rank-1 blocks as the fit rank, from random Boolean factors, then
    /// additive and destructive noise. Every factor column has exactly
    /// `ones` ones (the seed picks which rows), so tensors of different
    /// seeds differ in placement and overlaps but not in block sizes.
    Planted {
        /// Cube side.
        dim: usize,
        /// Ones per ground-truth factor column.
        ones: usize,
    },
    /// The Facebook-shaped proxy from `generate_proxy` at a linear scale.
    Proxy {
        /// Linear scale of the Table III shape.
        scale: f64,
    },
}

/// Which execution backend the solve and refresh run on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// The in-process simulated cluster (`Cluster`).
    Cluster,
    /// Worker processes over loopback TCP (`NetBackend`).
    Net,
}

/// One workload: its inputs, its solve configuration and its traffic.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Tensor source.
    pub source: Source,
    /// Fit rank.
    pub rank: usize,
    /// Initial factor sets `L`.
    pub sets: usize,
    /// Iterations `T` (early stopping off, so every seed does the same work).
    pub iters: usize,
    /// Initialization seeds the solve loop cycles through. How many planted
    /// blocks the greedy finds depends on its random initialization, so
    /// the reported error averages this many initializations.
    pub init_seeds: usize,
    /// Execution backend.
    pub backend: BackendKind,
    /// Unfolding storage.
    pub storage: StorageKind,
    /// External-sort budget in MiB for the out-of-core spill, when set.
    pub spill_budget_mib: Option<usize>,
    /// Share of `--seconds` spent in the solve loop; the rest serves.
    pub solve_share: f64,
    /// Length of one closed-loop read window, seconds.
    pub window_s: f64,
}

/// Workers of the cluster, each with one compute thread: the benchmark
/// stays within a 2-core host.
pub const WORKERS: usize = 2;

/// The workload named `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    let base = Workload {
        name: "",
        source: Source::Proxy { scale: 0.4 },
        rank: 10,
        sets: 1,
        iters: 2,
        init_seeds: 2,
        backend: BackendKind::Cluster,
        storage: StorageKind::Ram,
        spill_budget_mib: None,
        solve_share: 0.5,
        window_s: 0.5,
    };
    Some(match name {
        "cp-planted-ram" => Workload {
            name: "cp-planted-ram",
            source: Source::Planted { dim: 384, ones: 31 },
            rank: 20,
            sets: 8,
            iters: 3,
            init_seeds: 8,
            solve_share: 0.6,
            ..base
        },
        "cp-proxy-mmap-net" => Workload {
            name: "cp-proxy-mmap-net",
            backend: BackendKind::Net,
            storage: StorageKind::Mmap,
            spill_budget_mib: Some(1),
            solve_share: 0.3,
            window_s: 2.0,
            ..base
        },
        "serve-zipf-reload" => Workload {
            name: "serve-zipf-reload",
            source: Source::Planted { dim: 256, ones: 20 },
            rank: 16,
            sets: 2,
            iters: 3,
            init_seeds: 16,
            solve_share: 0.3,
            ..base
        },
        _ => return None,
    })
}

impl Workload {
    /// Generates the input tensor for `seed`.
    pub fn generate(&self, seed: u64) -> BoolTensor {
        match self.source {
            Source::Planted { dim, ones } => {
                let rank = self.rank;
                let mut rng = Rng::new(seed);
                let mut factor = || {
                    let mut m = BitMatrix::zeros(dim, rank);
                    for c in 0..rank {
                        // Partial Fisher–Yates: `ones` distinct rows.
                        let mut rows: Vec<usize> = (0..dim).collect();
                        for k in 0..ones {
                            let pick = k + rng.below((dim - k) as u64) as usize;
                            rows.swap(k, pick);
                            m.set(rows[k], c, true);
                        }
                    }
                    m
                };
                let (a, b, c) = (factor(), factor(), factor());
                let clean = dbtf_tensor::reconstruct::reconstruct(&a, &b, &c);
                let noise = NoiseSpec {
                    additive: ADDITIVE,
                    destructive: DESTRUCTIVE,
                };
                add_noise(&clean, noise, seed ^ 0x5eed)
            }
            Source::Proxy { scale } => {
                let spec = proxy_specs()
                    .into_iter()
                    .find(|s| s.name == "Facebook")
                    .expect("the Facebook proxy spec exists");
                generate_proxy(&spec, scale, seed)
            }
        }
    }

    /// The workload parameters as a JSON object.
    pub fn to_json(&self) -> String {
        let source = match self.source {
            Source::Planted { dim, ones } => format!(
                "{{\"kind\":\"planted\",\"dim\":{dim},\"planted_rank\":{},\"ones_per_column\":{ones},\"additive\":{ADDITIVE},\"destructive\":{DESTRUCTIVE}}}",
                self.rank
            ),
            Source::Proxy { scale } => {
                format!("{{\"kind\":\"proxy\",\"spec\":\"Facebook\",\"scale\":{scale}}}")
            }
        };
        format!(
            "{{\"name\":\"{}\",\"source\":{source},\"rank\":{},\"sets\":{},\"iters\":{},\"init_seeds\":{},\"backend\":\"{:?}\",\"storage\":\"{}\",\"spill_budget_mib\":{},\"workers\":{WORKERS},\"compute_threads\":1,\"solve_share\":{},\"window_s\":{},\"open_rate\":{OPEN_RATE},\"delta_cells\":{DELTA_CELLS},\"zipf_s\":{ZIPF_S},\"mix_point_pct\":{POINT_PCT},\"mix_slice_pct\":{SLICE_PCT}}}",
            self.name,
            self.rank,
            self.sets,
            self.iters,
            self.init_seeds,
            self.backend,
            self.storage,
            self.spill_budget_mib.map_or("null".to_string(), |m| m.to_string()),
            self.solve_share,
            self.window_s,
        )
    }
}
