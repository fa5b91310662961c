//! The execution backend a workload solves and refreshes on, behind one
//! enum so the pipeline code is written once.

use dbtf::{DbtfConfig, DbtfError, DbtfResult, DeltaResult, FactorSet};
use dbtf_cluster::{
    Cluster, ClusterConfig, ExecutionBackend, LocalBackend, NetTuning, PlanTrace, WorkerHost,
};
use dbtf_telemetry::Tracer;
use dbtf_tensor::{BoolTensor, TensorDelta};

use crate::workload::{BackendKind, WORKERS};

/// A booted backend.
pub enum Backend {
    /// In-process simulated cluster.
    Cluster(Cluster),
    /// Worker processes over loopback TCP.
    Net(dbtf_cluster::NetBackend),
}

/// The cluster shape every workload uses: two workers, one compute thread
/// each.
pub fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        workers: WORKERS,
        cores_per_worker: 1,
        compute_threads: Some(1),
        ..ClusterConfig::default()
    }
}

/// The zero-overhead local backend with the same shape, for the
/// bit-identity reference run.
pub fn local_reference() -> LocalBackend {
    LocalBackend::from_cluster_config(&cluster_config())
}

impl Backend {
    /// Boots `kind`. Net workers are this executable re-run with
    /// `worker` as its first argument.
    pub fn boot(kind: BackendKind) -> Result<Backend, String> {
        match kind {
            BackendKind::Cluster => Cluster::try_new(cluster_config())
                .map(Backend::Cluster)
                .map_err(|e| e.to_string()),
            BackendKind::Net => {
                let program = std::env::current_exe().map_err(|e| e.to_string())?;
                let host = WorkerHost::Process {
                    program,
                    args: vec!["worker".into()],
                };
                dbtf::net_tasks::net_backend(cluster_config(), host, NetTuning::default())
                    .map(Backend::Net)
                    .map_err(|e| e.to_string())
            }
        }
    }

    /// `factorize_instrumented` on this backend.
    pub fn factorize(
        &self,
        x: &BoolTensor,
        config: &DbtfConfig,
        tracer: &Tracer,
    ) -> Result<(DbtfResult, PlanTrace), DbtfError> {
        match self {
            Backend::Cluster(b) => dbtf::factorize_instrumented(b, x, config, tracer),
            Backend::Net(b) => dbtf::factorize_instrumented(b, x, config, tracer),
        }
    }

    /// `update_factors_traced` on this backend.
    pub fn update(
        &self,
        x: &BoolTensor,
        delta: &TensorDelta,
        factors: &FactorSet,
        config: &DbtfConfig,
    ) -> Result<(DeltaResult, PlanTrace), DbtfError> {
        match self {
            Backend::Cluster(b) => dbtf::update_factors_traced(b, x, delta, factors, config),
            Backend::Net(b) => dbtf::update_factors_traced(b, x, delta, factors, config),
        }
    }

    /// Partitions per unfolding the driver uses on this backend.
    pub fn partitions(&self) -> usize {
        match self {
            Backend::Cluster(b) => b.suggested_partitions(),
            Backend::Net(b) => b.suggested_partitions(),
        }
    }
}
