// Error taxonomy for serve-layer request outcomes.
//
// Every accepted request's future resolves with a MatvecResult whose
// `error` field carries one of these codes; the serving layer never
// delivers failures as future exceptions.  See the error-contract
// paragraph on AsyncScheduler for what throws synchronously instead.
#pragma once

namespace fftmv::serve {

enum class ErrorCode : unsigned char {
  kOk = 0,
  /// Transient stream/kernel fault survived the retry budget.
  kTransientDevice,
  /// DeviceOutOfMemory (e.g. plan creation) survived the retry budget.
  kOutOfMemory,
  /// A sharded rank failure that the single-rank fallback could not
  /// absorb either.
  kRankFailure,
  /// Submitted after shutdown() (or racing the queue close).
  kShutdown,
  /// Bounded admission refused the request at submission.
  kQueueFull,
  /// Admitted, then displaced by the shed-best-effort overload policy
  /// to make room for deadline-bearing work.
  kShed,
  /// ABFT verification detected silent data corruption and the
  /// recompute budget could not produce a clean result.  Transient
  /// corruption retries successfully, so a surfaced instance means
  /// persistent corruption, a miscalibrated tolerance, or a
  /// non-finite input (every attempt's checks trip on its Inf/NaN).
  kSilentCorruption,
  /// Unclassified dispatch failure (a bug, not an injected fault).
  kInternal,
};

inline const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "ok";
    case ErrorCode::kTransientDevice:
      return "transient_device";
    case ErrorCode::kOutOfMemory:
      return "out_of_memory";
    case ErrorCode::kRankFailure:
      return "rank_failure";
    case ErrorCode::kShutdown:
      return "shutdown";
    case ErrorCode::kQueueFull:
      return "queue_full";
    case ErrorCode::kShed:
      return "shed";
    case ErrorCode::kSilentCorruption:
      return "silent_corruption";
    case ErrorCode::kInternal:
      return "internal";
  }
  return "unknown";
}

}  // namespace fftmv::serve
