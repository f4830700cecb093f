//! HA-Par — query-time execution settings.
//!
//! [`ExecConfig`] is the one knob bundle: the width of `HaServe`'s kNN
//! fan-out, a pinned sweep [`Kernel`] (default: the one-time runtime
//! probe [`Kernel::detect`]), and the frontier prefetch distance.
//! `HaServe` embeds it in `ServeConfig` and forwards the kernel/prefetch
//! knobs into the [`FreezePolicy`](crate::FreezePolicy) its generations
//! are frozen under.
//!
//! Selects probe their shards inline on the service worker that claimed
//! the batch — the service's worker pool is already the parallelism,
//! like the paper's independent MapReduce tasks. Only the kNN
//! doubling rounds fan their per-shard probes out over
//! [`ha_bitcode::pool::fan_out`]: one kNN is long enough that splitting
//! it across cores pays (DESIGN.md, "Parallel query execution").

use ha_bitcode::Kernel;

/// Execution knobs for query-time parallelism — how wide to fan out,
/// which kernel to sweep with, how far ahead to prefetch. Carried by
/// `ServeConfig` and mapped into the `FreezePolicy` of every generation
/// the service freezes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Width of the kNN rounds' per-shard fan-out; `<= 1` probes the
    /// shards inline on the calling thread with zero pool overhead.
    pub workers: usize,
    /// Pinned sweep kernel for frozen snapshots; `None` defers to the
    /// runtime CPU-feature probe ([`Kernel::detect`]). Every kernel
    /// computes identical distances — this is purely a speed knob.
    pub kernel: Option<Kernel>,
    /// Frontier prefetch look-ahead in entries; `None` takes the
    /// measured default, `Some(0)` disables the hints.
    pub prefetch: Option<usize>,
}

impl ExecConfig {
    /// The sequential configuration: every probe inline, in order — the
    /// oracle configuration the equivalence suite compares against.
    pub fn sequential() -> ExecConfig {
        ExecConfig { workers: 1, kernel: None, prefetch: None }
    }

    /// Same config with a different kNN fan-out width.
    pub fn with_workers(mut self, workers: usize) -> ExecConfig {
        self.workers = workers;
        self
    }

    /// Same config sweeping on `kernel` instead of the runtime probe.
    pub fn with_kernel(mut self, kernel: Kernel) -> ExecConfig {
        self.kernel = Some(kernel);
        self
    }

    /// Same config with an explicit prefetch distance (0 disables).
    pub fn with_prefetch(mut self, distance: usize) -> ExecConfig {
        self.prefetch = Some(distance);
        self
    }

    /// The kernel this config resolves to at runtime.
    pub fn resolved_kernel(&self) -> Kernel {
        self.kernel.unwrap_or_else(Kernel::detect)
    }
}

impl Default for ExecConfig {
    /// As many workers as the host exposes, runtime-probed kernel,
    /// default prefetch. On a single-core host this degenerates to the
    /// sequential configuration — the pool is never spun up.
    fn default() -> ExecConfig {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ExecConfig::sequential().with_workers(workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_resolution_and_builders() {
        let seq = ExecConfig::sequential();
        assert_eq!(seq.workers, 1);
        assert_eq!(seq.resolved_kernel(), Kernel::detect());
        let pinned = seq.with_kernel(Kernel::Scalar).with_prefetch(0).with_workers(4);
        assert_eq!(pinned.resolved_kernel(), Kernel::Scalar);
        assert_eq!(pinned.prefetch, Some(0));
        assert_eq!(pinned.workers, 4);
        assert!(ExecConfig::default().workers >= 1);
    }
}
