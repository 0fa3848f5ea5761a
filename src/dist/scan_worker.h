// ScanWorker: one executor of partition counting scans.
//
// The coordinator hands each worker a (partition file, MultiCountSpec)
// pair and gets back a partial MultiCountPlan. Two implementations:
//
//  * InProcessScanWorker -- opens the partition with its own paged reader
//    and runs ExecuteMultiCount right here. The per-machine path.
//  * SubprocessScanWorker -- forks an optrules_workerd process and speaks
//    the length-prefixed pipe protocol (spec + boundaries down, serialized
//    partial plan state up), so multi-process / multi-machine execution is
//    exercised for real; the returned partials are bit-identical to the
//    in-process worker's because both run the serial reference chain over
//    the same bytes and doubles travel as bit patterns.
//
// Worker partials are always the serial (pool == nullptr) chain: a pure
// function of (partition file, spec), which is what makes the
// coordinator's fixed-order merge deterministic for ANY worker count and
// worker kind -- and what makes retry and failover safe: every re-run of
// a partition produces the same bits, so the coordinator can merge
// whichever attempt succeeds.
//
// Failure semantics: a worker whose transport broke (dead pipe, truncated
// or garbage frame, deadline expiry) reports healthy() == false and must
// be discarded -- its pipe state is unknown. A clean kError frame leaves
// the worker healthy: the daemon answered, only the request failed.

#ifndef OPTRULES_DIST_SCAN_WORKER_H_
#define OPTRULES_DIST_SCAN_WORKER_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>

#include "bucketing/counting.h"
#include "common/status.h"
#include "storage/columnar_batch.h"

namespace optrules::dist {

/// Reader parameters + the spec one partition scan runs.
struct PartitionScanSpec {
  /// Spec to count; must outlive the call (the returned plan was built
  /// from it, boundary pointers included).
  const bucketing::MultiCountSpec* spec = nullptr;
  int64_t batch_rows = storage::kDefaultBatchRows;
  /// Per-attempt reply deadline in ms; 0 = none. Subprocess workers kill
  /// the daemon on expiry (DeadlineExceeded); in-process workers cannot
  /// abandon a running scan and ignore it.
  int64_t deadline_ms = 0;
  /// Maximum silent gap before the daemon counts as hung; 0 = none. The
  /// daemon heartbeats every ~100 ms mid-scan, so expiry means hung, not
  /// slow. Subprocess-only, like deadline_ms.
  int64_t liveness_timeout_ms = 0;
};

/// Executes counting scans over single partition files.
class ScanWorker {
 public:
  virtual ~ScanWorker() = default;

  /// Counts `spec` over the partition PagedFile at `partition_path` and
  /// returns the partial plan (serial reference chain; see file comment).
  /// `stats`, when non-null, receives the scan's cache/pruning counters:
  /// full counters from the in-process worker, pages_skipped only from the
  /// subprocess worker (the daemon's buffer-pool hits happen in its own
  /// process and are not shipped back). Pages a worker pruned are already
  /// accounted inside the partial's total_tuples, so the counters are
  /// diagnostics, never inputs to the merge.
  virtual Result<bucketing::MultiCountPlan> CountPartition(
      const std::string& partition_path, const PartitionScanSpec& spec,
      storage::BatchSourceStats* stats = nullptr) = 0;

  /// Cheap health probe (kPing/kPong for subprocess workers). A failed
  /// ping marks the worker unhealthy. `timeout_ms` bounds the wait.
  virtual Status Ping(int64_t timeout_ms) {
    (void)timeout_ms;
    return Status::Ok();
  }

  /// False once the worker's transport is broken (dead or hung daemon,
  /// corrupt frame): the worker must be replaced, not reused.
  virtual bool healthy() const { return true; }
};

/// Same-process worker with its own partition reader.
class InProcessScanWorker final : public ScanWorker {
 public:
  Result<bucketing::MultiCountPlan> CountPartition(
      const std::string& partition_path, const PartitionScanSpec& spec,
      storage::BatchSourceStats* stats) override;
};

/// Worker backed by a forked optrules_workerd subprocess. One worker can
/// serve many CountPartition calls sequentially over its pipe pair; the
/// destructor sends a shutdown frame and reaps the child with WNOHANG +
/// SIGTERM -> SIGKILL escalation, so a wedged daemon can never hang the
/// embedding process at shutdown.
class SubprocessScanWorker final : public ScanWorker {
 public:
  /// Forks + execs `workerd_path` (an optrules_workerd binary) with a pipe
  /// pair on its stdin/stdout. Side effect, once per process: sets the
  /// SIGPIPE disposition to SIG_IGN so a daemon dying between frames
  /// surfaces as an IoError on the coordinator's next write instead of
  /// killing the embedding process -- hosts that install their own
  /// SIGPIPE handling should do so AFTER the first Spawn.
  static Result<std::unique_ptr<SubprocessScanWorker>> Spawn(
      const std::string& workerd_path);

  ~SubprocessScanWorker() override;
  SubprocessScanWorker(const SubprocessScanWorker&) = delete;
  SubprocessScanWorker& operator=(const SubprocessScanWorker&) = delete;

  Result<bucketing::MultiCountPlan> CountPartition(
      const std::string& partition_path, const PartitionScanSpec& spec,
      storage::BatchSourceStats* stats) override;

  Status Ping(int64_t timeout_ms) override;

  bool healthy() const override { return healthy_; }

  /// Child pid, for tests that kill the daemon externally.
  pid_t pid() const { return pid_; }

 private:
  SubprocessScanWorker() = default;

  /// Marks the worker unusable and SIGKILLs + reaps the child now (used
  /// on deadline expiry: the daemon may be wedged mid-scan and must not
  /// linger until the destructor).
  void KillNow();

  int to_child_ = -1;    ///< write end: requests
  int from_child_ = -1;  ///< read end: replies
  pid_t pid_ = -1;
  bool healthy_ = true;
};

/// Resolves the worker daemon binary: `configured` when non-empty, else
/// the OPTRULES_WORKERD environment variable, else "" (caller errors).
std::string ResolveWorkerdPath(const std::string& configured);

}  // namespace optrules::dist

#endif  // OPTRULES_DIST_SCAN_WORKER_H_
