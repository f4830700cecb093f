//! Typed serving errors. Like the `try_*` layers of `ha-mapreduce`, the
//! service never panics on recoverable conditions: overload, shutdown,
//! malformed requests, and storage/decoding failures all surface here.

use std::fmt;

use ha_core::dynamic::DecodeError;
use ha_mapreduce::wal::WalError;
use ha_mapreduce::DfsError;
use ha_store::StoreError;

/// Why a serving operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The admission controller rejected the request: the bounded request
    /// queue was full. Back off and retry — nothing was enqueued.
    Overloaded {
        /// The queue capacity that was exhausted.
        capacity: usize,
    },
    /// The service is shutting down (or shut down while the request was
    /// in flight); no answer will be produced.
    Shutdown,
    /// The query/insert code length does not match the served index.
    WrongCodeLength {
        /// Code length the service was built for.
        expected: usize,
        /// Code length of the offending request.
        got: usize,
    },
    /// The index (or configuration) is leafless — Option B of the
    /// MapReduce join drops the tuple-id lists, so there is nothing to
    /// serve ids from.
    Leafless,
    /// The index blob could not be read back from the DFS.
    Storage(DfsError),
    /// The index blob was read but failed wire-format decoding (bad
    /// magic, truncation, checksum mismatch, or structural corruption).
    Decode(DecodeError),
    /// The generation blob carried the HA-Store magic but the snapshot
    /// was rejected by the store validator (truncation, checksum
    /// mismatch, or structural corruption of a mapped section).
    Store(StoreError),
    /// The request's deadline expired before a worker reached it; the
    /// work was shed at dequeue instead of executed. The answer would
    /// have arrived too late to be useful, so no search was run.
    DeadlineExceeded,
    /// A planned crash fault (see `MergeFaultPlan`) killed the process
    /// at this operation — the deterministic stand-in for `kill -9` that
    /// the recovery tests use. Only injected faults produce this.
    CrashInjected,
    /// Recovery found the service's `META` record malformed: it must
    /// hold a code length in `1..=MAX_BITS` and a shard count ≥ 1.
    MalformedMeta {
        /// Path of the offending record.
        path: String,
    },
    /// Recovery found a shard's `CURRENT` manifest empty, so there is no
    /// published generation to load.
    EmptyManifest {
        /// Path of the offending manifest.
        path: String,
    },
    /// A shard's write-ahead log failed to replay (a segment that cannot
    /// be read, or whose framing or checksum does not verify).
    Wal(WalError),
    /// A WAL record passed its checksum but its payload is not an
    /// encoded insert or delete for this service's code length.
    MalformedWalOp {
        /// Path of the shard's log.
        path: String,
        /// Sequence number of the offending record.
        seq: u64,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { capacity } => {
                write!(f, "service overloaded: request queue full ({capacity} pending)")
            }
            ServiceError::Shutdown => write!(f, "service is shut down"),
            ServiceError::WrongCodeLength { expected, got } => {
                write!(f, "code length mismatch: index serves {expected}-bit codes, got {got}")
            }
            ServiceError::Leafless => {
                write!(f, "index is leafless (no tuple-id lists) — cannot serve ids")
            }
            ServiceError::Storage(e) => write!(f, "index load failed: {e}"),
            ServiceError::Decode(e) => write!(f, "index blob rejected: {e}"),
            ServiceError::Store(e) => write!(f, "store snapshot rejected: {e}"),
            ServiceError::DeadlineExceeded => {
                write!(f, "deadline exceeded: request shed before execution")
            }
            ServiceError::CrashInjected => {
                write!(f, "injected crash: service killed by fault plan")
            }
            ServiceError::MalformedMeta { path } => {
                write!(f, "recovery failed: malformed meta record {path}")
            }
            ServiceError::EmptyManifest { path } => {
                write!(f, "recovery failed: empty generation manifest {path}")
            }
            ServiceError::Wal(e) => write!(f, "recovery failed: {e}"),
            ServiceError::MalformedWalOp { path, seq } => {
                write!(f, "recovery failed: record {seq} of {path} is not a valid operation")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Storage(e) => Some(e),
            ServiceError::Decode(e) => Some(e),
            ServiceError::Store(e) => Some(e),
            ServiceError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DfsError> for ServiceError {
    fn from(e: DfsError) -> Self {
        ServiceError::Storage(e)
    }
}

impl From<DecodeError> for ServiceError {
    fn from(e: DecodeError) -> Self {
        ServiceError::Decode(e)
    }
}

impl From<StoreError> for ServiceError {
    fn from(e: StoreError) -> Self {
        ServiceError::Store(e)
    }
}

impl From<WalError> for ServiceError {
    fn from(e: WalError) -> Self {
        ServiceError::Wal(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ServiceError::Overloaded { capacity: 8 };
        assert!(e.to_string().contains("overloaded"));
        let e = ServiceError::WrongCodeLength { expected: 32, got: 64 };
        assert!(e.to_string().contains("32"));
        assert!(e.to_string().contains("64"));
        let e: ServiceError = DecodeError::BadMagic.into();
        assert!(matches!(e, ServiceError::Decode(DecodeError::BadMagic)));
        assert!(e.to_string().contains("magic"));
        let e: ServiceError = StoreError::BadMagic.into();
        assert!(matches!(e, ServiceError::Store(StoreError::BadMagic)));
        assert!(e.to_string().contains("store snapshot"));
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn deadline_and_crash_variants_display() {
        assert!(ServiceError::DeadlineExceeded.to_string().contains("deadline"));
        assert!(ServiceError::CrashInjected.to_string().contains("crash"));
        use std::error::Error;
        assert!(ServiceError::DeadlineExceeded.source().is_none());
    }

    #[test]
    fn storage_errors_convert_and_chain() {
        use std::error::Error;
        let e: ServiceError = DfsError::FileNotFound { path: "/idx".into() }.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("/idx"));
        let e: ServiceError = WalError::Corrupt {
            path: "/wal/7".into(),
            reason: "checksum footer mismatch".into(),
        }
        .into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("checksum footer mismatch"), "reason survives: {e}");
        let e = ServiceError::MalformedWalOp { path: "/wal".into(), seq: 9 };
        assert!(e.to_string().contains("record 9"));
        assert!(ServiceError::EmptyManifest { path: "/m".into() }.to_string().contains("manifest"));
        assert!(ServiceError::MalformedMeta { path: "/META".into() }.to_string().contains("meta"));
    }
}
