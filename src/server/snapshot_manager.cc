#include "server/snapshot_manager.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>
#include <vector>

#include "common/file_io.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "core/snapshot_binary.h"

namespace s3::server {

namespace fs = std::filesystem;

namespace {

constexpr char kWalFileName[] = "wal.log";
constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotSuffix[] = ".s3snap";

// Generation encoded in a snapshot file name, or false if the name is
// not a snapshot file.
bool ParseSnapshotName(const std::string& name, uint64_t* generation) {
  const size_t prefix = sizeof(kSnapshotPrefix) - 1;
  const size_t suffix = sizeof(kSnapshotSuffix) - 1;
  if (!StartsWith(name, kSnapshotPrefix) || name.size() <= prefix + suffix ||
      name.substr(name.size() - suffix) != kSnapshotSuffix) {
    return false;
  }
  return ParseU64(name.substr(prefix, name.size() - prefix - suffix),
                  generation);
}

// Keeps the prefix of well-formed WAL records of lineage `lineage`
// with base generation >= `floor`; everything after the first bad
// frame is discarded, and so are foreign-lineage records — Recover
// stops replay at them, so keeping one would strand every acknowledged
// record appended after it (stray logs from an earlier deployment of
// the directory are the typical source).
std::pair<std::string, uint64_t> FilterWal(std::string_view wal,
                                           uint64_t lineage,
                                           uint64_t floor) {
  std::string kept;
  uint64_t kept_records = 0;
  size_t pos = 0;
  while (pos < wal.size()) {
    auto info = core::InstanceDelta::PeekWalRecord(wal.substr(pos));
    if (!info.ok()) break;
    if (info->base_lineage == lineage && info->base_generation >= floor) {
      kept.append(wal.substr(pos, info->record_bytes));
      ++kept_records;
    }
    pos += info->record_bytes;
  }
  return {std::move(kept), kept_records};
}

// steady_clock nanos for the freshness-lag stamp (monotonic, so the
// gauge can never go negative across wall-clock adjustments).
int64_t NowSteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SnapshotManager::SnapshotManager(SnapshotManagerOptions options)
    : options_(std::move(options)) {
  RegisterMetrics();
}

void SnapshotManager::RegisterMetrics() {
  obs::MetricRegistry* reg = options_.registry != nullptr
                                 ? options_.registry
                                 : &obs::MetricRegistry::Default();
  callbacks_.Attach(reg);
  const obs::Labels svc{{"service", options_.obs_label}};
  c_wal_appends_ = reg->GetCounter("s3_wal_appends_total",
                                   "Delta records appended to the WAL.", svc);
  c_wal_append_bytes_ = reg->GetCounter(
      "s3_wal_append_bytes_total", "Bytes appended to the WAL.", svc);
  c_checkpoints_ = reg->GetCounter("s3_checkpoints_total",
                                   "Checkpoints completed.", svc);
  h_wal_append_ = reg->GetHistogram(
      "s3_wal_append_seconds",
      "WAL append latency per delta (write + flush, + fsync if enabled).",
      svc);
  h_apply_ = reg->GetHistogram(
      "s3_apply_latency_seconds",
      "Delta arrival (LogAndApply entry) to successor-generation publish.",
      svc);
  h_checkpoint_ = reg->GetHistogram(
      "s3_checkpoint_seconds",
      "Checkpoint duration (serialize + snapshot write + WAL truncate).",
      svc);
  g_recovery_seconds_ = reg->GetGauge(
      "s3_recovery_seconds",
      "Duration of the last directory recovery (snapshot load + WAL "
      "replay); 0 for a fresh directory.",
      svc);
  callbacks_.Add(
      "s3_freshness_lag_seconds",
      "Age of the newest published generation: seconds since "
      "LogAndApply/Initialize last published (0 = nothing published).",
      obs::MetricKind::kGauge, svc,
      [this] { return FreshnessLagSeconds(); });
}

double SnapshotManager::FreshnessLagSeconds() const {
  const int64_t stamp = last_publish_ns_.load(std::memory_order_relaxed);
  if (stamp == 0) return 0.0;
  return static_cast<double>(NowSteadyNanos() - stamp) * 1e-9;
}

std::string SnapshotManager::WalPath() const {
  return options_.dir + "/" + kWalFileName;
}

std::string SnapshotManager::SnapshotPath(uint64_t generation) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%020llu%s", kSnapshotPrefix,
                static_cast<unsigned long long>(generation),
                kSnapshotSuffix);
  return options_.dir + "/" + buf;
}

Result<std::unique_ptr<SnapshotManager>> SnapshotManager::Open(
    SnapshotManagerOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("storage directory must be set");
  }
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::Internal("cannot create storage directory " +
                            options.dir + ": " + ec.message());
  }

  std::unique_ptr<SnapshotManager> mgr(
      new SnapshotManager(std::move(options)));
  WallTimer recovery_timer;
  Result<RecoveredState> recovered = Recover(mgr->options_.dir);
  if (recovered.ok()) {
    mgr->g_recovery_seconds_->Set(recovery_timer.ElapsedSeconds());
    mgr->recovered_ = *recovered;
    mgr->current_ = std::move(recovered->instance);
    // recovered_ keeps only the counters: holding the boot-time
    // instance for the manager's lifetime would pin every structure
    // later COW generations replace.
    mgr->recovered_.instance.reset();
  } else if (recovered.status().code() != StatusCode::kNotFound) {
    // Snapshots exist but none validates: refuse to silently start
    // empty over (possibly recoverable-by-hand) state.
    return recovered.status();
  }

  {
    std::lock_guard<std::mutex> lock(mgr->mu_);
    S3_RETURN_IF_ERROR(mgr->OpenWalLocked());
  }
  if (mgr->has_state() &&
      (mgr->recovered_.replayed_records > 0 ||
       mgr->recovered_.skipped_records > 0 ||
       mgr->recovered_.tail_discarded)) {
    // Fold the replayed WAL into a fresh snapshot so the log restarts
    // clean (this is also what drops a torn tail from disk).
    S3_RETURN_IF_ERROR(mgr->CheckpointSnapshot(mgr->current()));
  }
  if (mgr->options_.background_checkpoints &&
      mgr->options_.checkpoint_every > 0) {
    mgr->worker_ = std::thread([m = mgr.get()] { m->WorkerLoop(); });
  }
  return mgr;
}

SnapshotManager::~SnapshotManager() {
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    bg_stop_ = true;
  }
  bg_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ != nullptr) std::fclose(wal_);
}

std::shared_ptr<const core::S3Instance> SnapshotManager::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

Status SnapshotManager::OpenWalLocked() {
  if (wal_ != nullptr) {
    std::fclose(wal_);
    wal_ = nullptr;
  }
  wal_ = std::fopen(WalPath().c_str(), "ab");
  if (wal_ == nullptr) {
    return Status::Internal("cannot open WAL at " + WalPath());
  }
  std::error_code ec;
  const uintmax_t size = fs::file_size(WalPath(), ec);
  if (ec) {
    // Claiming a zero-byte good prefix here would let a later append
    // failure truncate acknowledged records away; refuse instead.
    std::fclose(wal_);
    wal_ = nullptr;
    return Status::Internal("cannot stat WAL at " + WalPath() + ": " +
                            ec.message());
  }
  wal_good_bytes_ = static_cast<uint64_t>(size);
  return Status::OK();
}

void SnapshotManager::RepairWalLocked() {
  if (wal_ != nullptr) {
    std::fclose(wal_);
    wal_ = nullptr;
  }
  // Drop whatever the failed append left behind: a torn frame would
  // otherwise strand every later (acknowledged) record behind it at
  // recovery, and a *complete* but unacknowledged record would replay
  // a delta the caller was told failed.
  std::error_code ec;
  fs::resize_file(WalPath(), wal_good_bytes_, ec);
  if (ec || !OpenWalLocked().ok()) {
    // Cannot restore the boundary: refuse appends until a checkpoint
    // replaces the log wholesale (atomic tmp+rename).
    wal_poisoned_ = true;
  }
}

Result<RecoveredState> SnapshotManager::Recover(const std::string& dir) {
  // error_code overloads throughout: a Status-returning API must not
  // leak filesystem_error on an unreadable directory.
  std::error_code ec;
  if (!fs::exists(dir, ec) || ec) {
    return Status::NotFound("no storage directory at " + dir);
  }

  std::vector<std::pair<uint64_t, std::string>> snapshots;
  fs::directory_iterator it(dir, ec), end;
  if (ec) {
    return Status::Internal("cannot list " + dir + ": " + ec.message());
  }
  while (it != end) {
    uint64_t generation = 0;
    if (ParseSnapshotName(it->path().filename().string(), &generation)) {
      snapshots.emplace_back(generation, it->path().string());
    }
    it.increment(ec);
    if (ec) {
      return Status::Internal("cannot list " + dir + ": " + ec.message());
    }
  }
  if (snapshots.empty()) {
    return Status::NotFound("no snapshots in " + dir);
  }
  std::sort(snapshots.rbegin(), snapshots.rend());

  // Newest snapshot that passes framing, checksum and structural
  // validation wins; older ones are the fallback when a checkpoint was
  // torn mid-write *and* somehow renamed (defense in depth — the
  // tmp+rename protocol should make that impossible).
  RecoveredState state;
  std::string last_error = "?";
  for (const auto& [generation, path] : snapshots) {
    // mmap + attach instead of read + copy: the snapshot hands its
    // aligned sections (matrix CSR floats, component forest) to the
    // instance as zero-copy views pinning the mapping, so recovery
    // cost is decode-the-compact-sections, not copy-the-file.
    std::shared_ptr<const MappedRegion> region;
    Status mapped = MappedRegion::Open(path, &region);
    if (!mapped.ok()) {
      last_error = mapped.ToString();
      continue;
    }
    auto loaded = core::AttachBinarySnapshot(region);
    if (!loaded.ok()) {
      last_error = path + ": " + loaded.status().ToString();
      continue;
    }
    if ((*loaded)->generation() != generation) {
      last_error = path + ": generation does not match file name";
      continue;
    }
    state.instance = std::move(*loaded);
    state.snapshot_generation = generation;
    break;
  }
  if (state.instance == nullptr) {
    return Status::InvalidArgument("no valid snapshot in " + dir +
                                   " (last error: " + last_error + ")");
  }

  // Replay the WAL tail: records the snapshot covers are skipped,
  // records for the current generation apply in order, and the first
  // anomaly — torn frame, corrupt payload, foreign lineage, generation
  // gap — ends replay (everything before it is durable state). Only a
  // *missing* WAL means "nothing to replay": serving the bare snapshot
  // past a transient read error would fork the directory's history
  // (new appends behind unseen acknowledged records).
  std::string wal;
  Status wal_read = ReadFileToString(dir + "/" + kWalFileName, &wal);
  if (!wal_read.ok() && wal_read.code() != StatusCode::kNotFound) {
    return wal_read;
  }
  if (wal_read.ok()) {
    size_t pos = 0;
    while (pos < wal.size()) {
      std::string_view rest = std::string_view(wal).substr(pos);
      auto info = core::InstanceDelta::PeekWalRecord(rest);
      if (!info.ok()) {
        state.tail_discarded = true;
        break;
      }
      if (info->base_lineage != state.instance->lineage() ||
          info->base_generation > state.instance->generation()) {
        state.tail_discarded = true;
        break;
      }
      if (info->base_generation < state.instance->generation()) {
        ++state.skipped_records;
        pos += info->record_bytes;
        continue;
      }
      size_t consumed = 0;
      auto delta = core::InstanceDelta::DecodeWalRecord(rest, &consumed,
                                                        state.instance);
      if (!delta.ok()) {
        state.tail_discarded = true;
        break;
      }
      auto next = state.instance->ApplyDelta(*delta);
      if (!next.ok()) {
        state.tail_discarded = true;
        break;
      }
      state.instance = std::move(*next);
      ++state.replayed_records;
      pos += consumed;
    }
  }
  return state;
}

Status SnapshotManager::Initialize(
    std::shared_ptr<const core::S3Instance> snapshot) {
  if (snapshot == nullptr || !snapshot->finalized()) {
    return Status::InvalidArgument(
        "Initialize requires a finalized snapshot");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (current_ != nullptr) {
      return Status::FailedPrecondition(
          "storage directory already holds state (generation " +
          std::to_string(current_->generation()) + ")");
    }
    // A stray wal.log in a snapshot-less directory is foreign by
    // definition — and cannot be trusted to carry a *different*
    // lineage (tokens could collide across processes), so the
    // checkpoint's lineage filter is not enough: wipe it outright
    // before the first record of this lineage lands.
    if (wal_ != nullptr) {
      std::fclose(wal_);
      wal_ = nullptr;
    }
    S3_RETURN_IF_ERROR(WriteFileAtomic(WalPath(), ""));
    S3_RETURN_IF_ERROR(OpenWalLocked());
  }
  S3_RETURN_IF_ERROR(CheckpointSnapshot(snapshot));
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(snapshot);
  last_publish_ns_.store(NowSteadyNanos(), std::memory_order_relaxed);
  return Status::OK();
}

Result<std::shared_ptr<const core::S3Instance>> SnapshotManager::LogAndApply(
    const core::InstanceDelta& delta) {
  // Delta arrival stamp: s3_apply_latency_seconds measures from here
  // to the successor publish, the per-delta half of the freshness-lag
  // story (the gauge covers inter-delta gaps).
  WallTimer arrival_timer;
  std::string record;
  delta.EncodeWalRecord(&record);

  std::shared_ptr<const core::S3Instance> published;
  bool trigger_checkpoint = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (current_ == nullptr) {
      return Status::FailedPrecondition(
          "no durable state; Initialize the directory first");
    }
    if (delta.base().get() != current_.get()) {
      return Status::InvalidArgument(
          "delta must be built against the current generation " +
          std::to_string(current_->generation()));
    }
    auto next = current_->ApplyDelta(delta);
    if (!next.ok()) return next.status();

    // Durability before visibility: the record reaches the OS before
    // the successor generation can be observed (and acknowledged).
    if (wal_poisoned_) {
      return Status::Internal(
          "WAL at " + WalPath() +
          " is poisoned after a failed append repair; run Checkpoint()");
    }
    if (wal_ == nullptr) S3_RETURN_IF_ERROR(OpenWalLocked());
    WallTimer append_timer;
    const bool appended =
        std::fwrite(record.data(), 1, record.size(), wal_) ==
            record.size() &&
        std::fflush(wal_) == 0 &&
        (!options_.fsync_appends || ::fsync(::fileno(wal_)) == 0);
    if (!appended) {
      RepairWalLocked();
      return Status::Internal("WAL append failed at " + WalPath());
    }
    h_wal_append_->Observe(append_timer.ElapsedSeconds());
    c_wal_appends_->Inc();
    c_wal_append_bytes_->Inc(record.size());
    wal_good_bytes_ += record.size();

    current_ = std::move(*next);
    published = current_;
    last_publish_ns_.store(NowSteadyNanos(), std::memory_order_relaxed);
    h_apply_->Observe(arrival_timer.ElapsedSeconds());
    ++deltas_since_checkpoint_;
    trigger_checkpoint = options_.checkpoint_every > 0 &&
                         deltas_since_checkpoint_ >=
                             options_.checkpoint_every;
  }

  if (trigger_checkpoint) {
    if (options_.background_checkpoints) {
      SignalCheckpoint();
    } else {
      // The update itself is committed (record durable, successor
      // published); a checkpoint failure must not masquerade as an
      // apply failure. Report it where background failures land.
      Status status = Checkpoint();
      std::lock_guard<std::mutex> lock(bg_mu_);
      bg_last_status_ = std::move(status);
    }
  }
  return published;
}

Status SnapshotManager::Checkpoint() {
  std::shared_ptr<const core::S3Instance> snapshot = current();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("nothing to checkpoint");
  }
  return CheckpointSnapshot(snapshot);
}

Status SnapshotManager::CheckpointSnapshot(
    const std::shared_ptr<const core::S3Instance>& snapshot) {
  std::lock_guard<std::mutex> cp_lock(checkpoint_mu_);
  WallTimer checkpoint_timer;
  const uint64_t generation = snapshot->generation();

  // Serialization and the snapshot-file write run without mu_: appends
  // and applies proceed concurrently, and any record they add is for a
  // generation >= `generation`, which the truncation below keeps.
  Result<std::string> bytes = core::SaveBinarySnapshot(*snapshot);
  if (!bytes.ok()) return bytes.status();
  S3_RETURN_IF_ERROR(WriteFileAtomic(SnapshotPath(generation), *bytes));

  {
    std::lock_guard<std::mutex> lock(mu_);
    std::string wal;
    Status wal_read = ReadFileToString(WalPath(), &wal);
    if (!wal_read.ok() && wal_read.code() != StatusCode::kNotFound) {
      // Truncating on a partial read would drop records >= generation
      // that the read failed to see; keep the log as-is — the new
      // snapshot file alone is still a valid (longer-replay) state.
      return wal_read;
    }
    if (wal_ != nullptr) {
      std::fclose(wal_);
      wal_ = nullptr;
    }
    auto [kept, kept_records] =
        FilterWal(wal, snapshot->lineage(), generation);
    S3_RETURN_IF_ERROR(WriteFileAtomic(WalPath(), kept));
    S3_RETURN_IF_ERROR(OpenWalLocked());
    // The atomic rewrite restored a clean record boundary.
    wal_poisoned_ = false;
    deltas_since_checkpoint_ = kept_records;
  }

  // The new checkpoint makes older snapshots unreachable; reclaim them
  // (best-effort: error_code overloads, a leftover file only wastes
  // disk until the next checkpoint).
  std::error_code ec;
  fs::directory_iterator it(options_.dir, ec), end;
  while (!ec && it != end) {
    uint64_t file_generation = 0;
    if (ParseSnapshotName(it->path().filename().string(),
                          &file_generation) &&
        file_generation < generation) {
      std::error_code remove_ec;
      fs::remove(it->path(), remove_ec);
    }
    it.increment(ec);
  }
  c_checkpoints_->Inc();
  h_checkpoint_->Observe(checkpoint_timer.ElapsedSeconds());
  return Status::OK();
}

void SnapshotManager::SignalCheckpoint() {
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    bg_pending_ = true;
  }
  bg_cv_.notify_all();
}

void SnapshotManager::WorkerLoop() {
  std::unique_lock<std::mutex> lock(bg_mu_);
  for (;;) {
    bg_cv_.wait(lock, [this] { return bg_pending_ || bg_stop_; });
    if (!bg_pending_) break;  // stop requested, nothing queued
    bg_pending_ = false;
    bg_running_ = true;
    lock.unlock();
    Status status = Checkpoint();
    lock.lock();
    bg_running_ = false;
    bg_last_status_ = std::move(status);
    bg_cv_.notify_all();
    if (bg_stop_ && !bg_pending_) break;
  }
}

Status SnapshotManager::WaitForCheckpoints() {
  std::unique_lock<std::mutex> lock(bg_mu_);
  bg_cv_.wait(lock, [this] { return !bg_pending_ && !bg_running_; });
  return bg_last_status_;
}

Result<ServerBootstrap> RecoverAndServe(SnapshotManagerOptions storage,
                                        QueryServiceOptions serving) {
  Result<std::unique_ptr<SnapshotManager>> manager =
      SnapshotManager::Open(std::move(storage));
  if (!manager.ok()) return manager.status();
  if (!(*manager)->has_state()) {
    return Status::FailedPrecondition(
        "storage directory holds no state; build an instance and "
        "Initialize it before serving");
  }
  ServerBootstrap out;
  out.manager = std::move(*manager);
  out.service = std::make_unique<QueryService>(out.manager->current(),
                                               serving);
  return out;
}

}  // namespace s3::server
