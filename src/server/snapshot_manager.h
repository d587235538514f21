// SnapshotManager: the durable side of the serving stack.
//
// One manager owns a storage directory holding
//
//   snapshot-<generation>.s3snap   binary snapshots (core/snapshot_binary)
//   wal.log                        delta write-ahead log (self-delimiting
//                                  InstanceDelta records)
//
// and maintains the invariant that *directory contents alone*
// reconstruct the exact serving state: every applied delta is appended
// to the WAL before its successor generation is published
// (LogAndApply), and a checkpoint at generation G writes snapshot-G
// and truncates the records G already covers. Recover(dir) loads the
// newest snapshot that passes checksum validation and replays the WAL
// tail on top, so a killed process resumes at its precise pre-crash
// generation — same lineage token, same query results, bit for bit.
//
// Crash semantics: files are written tmp-then-rename (atomic on
// POSIX); a torn WAL tail (crash mid-append) or a corrupt record stops
// replay at the last durable generation and the junk is discarded on
// the next Open. A delta whose append never completed was never
// acknowledged, so dropping it is correct.
//
// Checkpoints run synchronously (Checkpoint()) or on the manager's
// background thread (options.checkpoint_every + background_checkpoints;
// LogAndApply only signals the worker). A checkpoint serializes the
// captured snapshot outside the manager lock — appends and applies
// continue concurrently; only the WAL truncation itself excludes
// appenders for the duration of a filtered rewrite.
//
// Startup wiring: RecoverAndServe(dir options, service options)
// recovers the directory and hands the instance to a QueryService, the
// one-call path from cold storage to serving traffic.
#ifndef S3_SERVER_SNAPSHOT_MANAGER_H_
#define S3_SERVER_SNAPSHOT_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "core/instance_delta.h"
#include "core/s3_instance.h"
#include "obs/metrics.h"
#include "server/query_service.h"

namespace s3::server {

struct SnapshotManagerOptions {
  std::string dir;
  // Auto-checkpoint after this many deltas logged since the last
  // checkpoint; 0 disables auto checkpoints (Checkpoint() stays
  // available).
  uint64_t checkpoint_every = 0;
  // Run auto checkpoints on the manager's background thread. When
  // false they run inline in the LogAndApply that crossed the
  // threshold (deterministic; used by tests and tools).
  bool background_checkpoints = true;
  // fsync the WAL file after every append. Off by default: the stream
  // is always flushed to the OS per append (process-crash durable);
  // fsync extends that to power loss at a large per-delta cost.
  bool fsync_appends = false;
  // ---- observability (src/obs) ----
  // Registry for this manager's metric series (nullptr = process
  // default) and the {service="..."} label on them — match the
  // QueryService serving this directory so the write and read paths of
  // one deployment line up in dumps.
  obs::MetricRegistry* registry = nullptr;
  std::string obs_label = "primary";
};

// What Recover found in a directory.
struct RecoveredState {
  // Set by the static Recover(); SnapshotManager::recovered() clears
  // it (the manager serves via current() — pinning the boot-time
  // generation for the manager's lifetime would defeat the COW
  // reclamation of superseded structures).
  std::shared_ptr<const core::S3Instance> instance;
  uint64_t snapshot_generation = 0;  // generation of the loaded snapshot
  size_t replayed_records = 0;       // WAL records applied on top
  size_t skipped_records = 0;        // records the snapshot already covered
  // True when replay stopped early: torn tail, corrupt record, foreign
  // lineage or a generation gap. Everything up to that point is state.
  bool tail_discarded = false;
};

class SnapshotManager {
 public:
  // Opens (creating if needed) a storage directory and recovers any
  // state in it; has_state() reports whether there was any. A
  // recovered WAL is compacted away by an immediate checkpoint so the
  // append stream starts clean after a crash.
  static Result<std::unique_ptr<SnapshotManager>> Open(
      SnapshotManagerOptions options);

  ~SnapshotManager();
  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  // Pure recovery of a directory's state — no manager needed (used by
  // Open and by the s3_snapshot tool). NotFound when the directory
  // holds no snapshot; InvalidArgument when snapshots exist but none
  // validates.
  static Result<RecoveredState> Recover(const std::string& dir);

  // Null until Initialize (fresh directory) or after Open of a
  // directory with state.
  std::shared_ptr<const core::S3Instance> current() const;
  bool has_state() const { return current() != nullptr; }

  // What Open's recovery found (all zeros for a fresh directory).
  const RecoveredState& recovered() const { return recovered_; }

  // First-time setup of an empty directory: wipes any stray WAL (a
  // log without a snapshot is foreign by definition) and checkpoints
  // `snapshot` as the initial durable generation. FailedPrecondition
  // if the manager already has state.
  Status Initialize(std::shared_ptr<const core::S3Instance> snapshot);

  // The durable update path: appends `delta` (which must be built
  // against current()) to the WAL, applies it, publishes and returns
  // the successor generation. The record is flushed before the
  // successor is visible, so an acknowledged generation is always
  // recoverable; a failed append is truncated back out of the log
  // (and the log is poisoned against further appends if even that
  // fails), so a torn write can never strand later acknowledged
  // records behind it. Triggers an auto checkpoint per options —
  // whose own failure is reported via WaitForCheckpoints, never here:
  // once the record is durable and the successor published, the
  // update has succeeded regardless of checkpointing.
  Result<std::shared_ptr<const core::S3Instance>> LogAndApply(
      const core::InstanceDelta& delta);

  // Synchronous checkpoint of current(): writes snapshot-G, truncates
  // WAL records below G, deletes older snapshot files. Also the
  // recovery path for a poisoned WAL (the rewrite is atomic).
  Status Checkpoint();

  // Blocks until no background checkpoint is pending or running;
  // returns the status of the most recent *auto* checkpoint
  // (background or inline) that completed.
  Status WaitForCheckpoints();

  // Generation-freshness lag: seconds since the newest generation was
  // published by LogAndApply/Initialize (the age of the servable
  // state). 0 before anything was published. Also exported as the
  // s3_freshness_lag_seconds gauge — this is the streaming-feed
  // workload's staleness signal (ROADMAP item 5).
  double FreshnessLagSeconds() const;

 private:
  explicit SnapshotManager(SnapshotManagerOptions options);

  std::string WalPath() const;
  std::string SnapshotPath(uint64_t generation) const;

  // Opens (or re-opens) the WAL append handle. Caller holds mu_.
  Status OpenWalLocked();
  // Serializes `snapshot` to snapshot-<gen> (tmp + rename) and rewrites
  // the WAL keeping only records at or above `gen`. Serialization runs
  // without locks; the WAL rewrite takes mu_.
  Status CheckpointSnapshot(
      const std::shared_ptr<const core::S3Instance>& snapshot);

  void WorkerLoop();
  void SignalCheckpoint();

  const SnapshotManagerOptions options_;

  // Drops torn bytes of a failed append (truncate back to
  // wal_good_bytes_ and reopen); poisons the log when the truncation
  // itself fails. Caller holds mu_.
  void RepairWalLocked();

  // Guards current_, the WAL handle/bookkeeping and
  // deltas_since_checkpoint_.
  mutable std::mutex mu_;
  std::shared_ptr<const core::S3Instance> current_;
  std::FILE* wal_ = nullptr;
  // Bytes of wal.log known to end on a record boundary (advanced per
  // successful append, reset by truncation).
  uint64_t wal_good_bytes_ = 0;
  // Set when a torn append could not be truncated away: appends are
  // refused until a checkpoint rewrites the log atomically.
  bool wal_poisoned_ = false;
  uint64_t deltas_since_checkpoint_ = 0;

  // Serializes whole checkpoints against each other (manual vs
  // background); never held together with mu_ writes longer than the
  // WAL rewrite.
  std::mutex checkpoint_mu_;

  RecoveredState recovered_;

  // Background checkpoint worker.
  std::thread worker_;
  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  bool bg_stop_ = false;
  bool bg_pending_ = false;
  bool bg_running_ = false;
  Status bg_last_status_;

  // ---- observability. Counters and histograms are registry-owned
  // handles written on the durable paths; the freshness-lag gauge is a
  // callback over last_publish_ns_.
  void RegisterMetrics();
  // steady_clock nanos of the newest published generation (0 = none).
  std::atomic<int64_t> last_publish_ns_{0};
  obs::Counter* c_wal_appends_ = nullptr;
  obs::Counter* c_wal_append_bytes_ = nullptr;
  obs::Counter* c_checkpoints_ = nullptr;
  obs::Histogram* h_wal_append_ = nullptr;
  obs::Histogram* h_apply_ = nullptr;
  obs::Histogram* h_checkpoint_ = nullptr;
  obs::Gauge* g_recovery_seconds_ = nullptr;
  obs::CallbackSet callbacks_;
};

// Cold-start wiring: recover `storage.dir` and serve it. Fails with
// NotFound/InvalidArgument from recovery, or FailedPrecondition when
// the directory is empty (a fresh deployment must Initialize first).
struct ServerBootstrap {
  std::unique_ptr<SnapshotManager> manager;
  std::unique_ptr<QueryService> service;
};
Result<ServerBootstrap> RecoverAndServe(SnapshotManagerOptions storage,
                                        QueryServiceOptions serving);

}  // namespace s3::server

#endif  // S3_SERVER_SNAPSHOT_MANAGER_H_
