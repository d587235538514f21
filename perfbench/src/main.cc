// s3perf: the repository benchmark.
//
//   s3perf prepare --workload W --dir D
//       Generates the workload's instance and writes it as a v2 snapshot
//       storage directory (D/snap) plus the semantic query anchors
//       (D/anchors.txt). Nothing is timed.
//   s3perf run --workload W --seed N --seconds S --trace 0|1 --dir D
//              --work WD [--trace-out F]
//       Serves the prepared directory through the public API, drives the
//       workload for S seconds, checks the answers, and prints every
//       metric as "metric <name> <value> <unit>" followed by one JSON
//       object on the last line. --trace 0 reports the end-to-end
//       metrics; --trace 1 runs the workload twice (untraced, then with
//       spans around every public call) and reports the per-layer ones.
//
// perfbench/run.py builds this binary and wraps both steps; see
// perfbench/README.md for the workloads and metric definitions.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/s3k.h"
#include "obs/metrics.h"
#include "server/query_service.h"
#include "server/snapshot_manager.h"
#include "spans.h"
#include "workloads.h"

namespace s3perf {
namespace {

namespace fs = std::filesystem;
using namespace s3;

constexpr int kSetupRepeats = 9;   // RecoverAndServe calls per pass
constexpr size_t kSamples = 64;  // oracle-checked answers per pass
constexpr size_t kSampleStride = 8;
constexpr size_t kRestartProbes = 16;
constexpr size_t kPlanReplays = 128;

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string dir;
  std::string work;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2 || argc % 2 != 0) return false;  // a mode, then flag pairs
  a->mode = argv[1];
  if (a->mode != "prepare" && a->mode != "run") return false;
  try {
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string k = argv[i];
      const std::string v = argv[i + 1];
      if (k == "--workload") {
        a->workload = v;
      } else if (k == "--seed") {
        a->seed = std::stoull(v);
      } else if (k == "--seconds") {
        a->seconds = std::stod(v);
      } else if (k == "--trace") {
        a->trace = std::stoi(v);
      } else if (k == "--dir") {
        a->dir = v;
      } else if (k == "--work") {
        a->work = v;
      } else if (k == "--trace-out") {
        a->trace_out = v;
      } else {
        return false;
      }
    }
  } catch (const std::exception&) {  // a malformed number
    return false;
  }
  return !a->workload.empty() && !a->dir.empty() && a->seconds > 0 &&
         (a->mode == "prepare" || !a->work.empty());
}

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double Secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6 + ru.ru_stime.tv_sec +
         ru.ru_stime.tv_usec / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // Linux reports KiB
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

bool CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::remove_all(to, ec);
  fs::copy(from, to, fs::copy_options::recursive, ec);
  return !ec;
}

// Bit-for-bit equality of two answers.
bool SameEntries(const std::vector<core::ResultEntry>& a,
                 const std::vector<core::ResultEntry>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node ||
        std::bit_cast<uint64_t>(a[i].lower) !=
            std::bit_cast<uint64_t>(b[i].lower) ||
        std::bit_cast<uint64_t>(a[i].upper) !=
            std::bit_cast<uint64_t>(b[i].upper)) {
      return false;
    }
  }
  return true;
}

double Q(const std::vector<double>& v, double q) { return Quantile(v, q); }

// ---- obs registry readers -------------------------------------------------

bool HasLabel(const obs::Labels& labels, const std::string& value) {
  for (const auto& [k, v] : labels) {
    if (k == "service" && v == value) return true;
  }
  return false;
}

double RegistryValue(const std::string& name, const std::string& service) {
  double total = 0.0;
  for (const auto& s : obs::MetricRegistry::Default().Collect()) {
    if (s.name == name && (service.empty() || HasLabel(s.labels, service))) {
      total += s.value;
    }
  }
  return total;
}

obs::HistogramSnapshot RegistryHistogram(const std::string& name,
                                         const std::string& service) {
  for (const auto& s : obs::MetricRegistry::Default().Collect()) {
    if (s.name == name && HasLabel(s.labels, service)) return s.histogram;
  }
  return {};
}

// ---- configuration --------------------------------------------------------

core::S3kOptions SearchOptions(const WorkloadConfig& cfg) {
  core::S3kOptions o;
  o.k = 10;
  o.threads = cfg.search_threads;
  return o;
}

server::QueryServiceOptions ServingOptions(const WorkloadConfig& cfg,
                                           const std::string& label) {
  server::QueryServiceOptions o;
  o.workers = cfg.workers;
  o.search = SearchOptions(cfg);
  o.intra_thread_budget = cfg.intra_budget;
  o.batch_window = cfg.batch_window;
  o.enable_cache = true;
  o.obs_label = label;
  return o;
}

server::SnapshotManagerOptions StorageOptions(const WorkloadConfig& cfg,
                                              const std::string& dir,
                                              const std::string& label) {
  server::SnapshotManagerOptions o;
  o.dir = dir;
  // Inline checkpoints every N deltas; fsync stays off (the default).
  o.checkpoint_every = cfg.checkpoint_every;
  o.background_checkpoints = false;
  o.obs_label = label;
  return o;
}

// The oracle: a fresh serial searcher over one generation.
Result<std::vector<core::ResultEntry>> SerialAnswer(
    const WorkloadConfig& cfg, const core::S3Instance& snapshot,
    const core::QueryRequest& request) {
  core::S3kOptions o = SearchOptions(cfg);
  o.threads = 1;
  core::S3kSearcher searcher(snapshot, o);
  return searcher.Search(request);
}

// ---- one pass of a workload -----------------------------------------------

// One answered query. Counts and 0/1 flags are doubles so that every
// field averages or takes quantiles the same way.
struct QueryRecord {
  double latency_s = 0, queue_s = 0, exec_s = 0, search_s = 0;
  double iterations = 0, candidates = 0, cleaned = 0, passing = 0,
         extension = 0, fill = 0;  // fill: entries over k
  double cache_hit = 0, fanout = 0, anytime = 0, anytime_early = 0;
};

struct Sample {
  core::QueryRequest request;
  std::vector<core::ResultEntry> entries;
  uint64_t generation = 0;
};

struct PassResult {
  std::vector<double> setup_s, attach_s;
  std::vector<QueryRecord> queries;
  std::vector<std::vector<KeywordId>> distinct_keywords;  // in first-seen order
  std::vector<Sample> samples;
  double window_s = 0, cpu_s = 0, pool_regions = 0;
  double peak_rss_mb = 0;  // at the end of the window: serving only
  uint64_t attempted = 0, failed = 0;
  uint64_t refused_deltas = 0;  // updates with a delta operation refused
  size_t request_list = 0, request_wraps = 0;
  server::QueryServiceStats stats;
  // updates
  std::vector<double> update_s, swap_s, lateness_s;
  uint64_t last_acked = 0;
  double recover_s = 0, replay_ms_per_record = 0;
  uint64_t wal_appends = 0, wal_bytes = 0, checkpoints = 0;
  double wal_append_p50_s = 0, checkpoint_p50_s = 0;
  uint64_t disk_bytes = 0;
  // timed replays of BuildCandidatePlan (traced) and ApplyDelta (ingest)
  std::vector<double> plan_s, apply_s;
  // checks
  std::vector<std::string> errors;
  size_t checked = 0;  // answers compared against the oracle
  // Sampled answers that differ from a serial search over the submitted
  // (unsorted) keyword order; see CheckSamples.
  size_t order_diffs = 0;
  size_t samples_checked = 0;
};

class Runner {
 public:
  Runner(const WorkloadConfig& cfg, const Args& args,
         std::vector<KeywordId> anchors)
      : cfg_(cfg), args_(args), anchors_(std::move(anchors)) {}

  PassResult Pass(const std::string& label, bool traced);

  SpanLog main_log{"main"}, client_log{"client"}, updater_log{"updater"};

 private:
  void Setup(const std::string& label, bool traced, PassResult* r,
             server::ServerBootstrap* boot);
  void Drive(server::ServerBootstrap& boot, bool traced, PassResult* r);
  void Restart(const std::string& label, bool traced,
               std::shared_ptr<const core::S3Instance> live_final,
               PassResult* r);
  void CheckSamples(const core::S3Instance& snapshot, PassResult* r);
  void ReplayPlans(const core::S3Instance& snapshot, PassResult* r);
  void ReplayDeltas(const core::S3Instance& live_final, bool traced,
                    PassResult* r);
  std::string SnapDir() const { return args_.dir + "/snap"; }

  const WorkloadConfig& cfg_;
  const Args& args_;
  const std::vector<KeywordId> anchors_;
};

void Runner::Setup(const std::string& label, bool traced, PassResult* r,
                   server::ServerBootstrap* boot) {
  for (int i = 0; i < kSetupRepeats; ++i) {
    *boot = {};  // the previous manager/service stop before the next boot
    const auto t0 = Clock::now();
    auto booted = server::RecoverAndServe(
        StorageOptions(cfg_, args_.work, label), ServingOptions(cfg_, label));
    const auto t1 = Clock::now();
    if (!booted.ok()) {
      r->errors.push_back("RecoverAndServe: " + booted.status().message());
      return;
    }
    *boot = std::move(*booted);
    r->setup_s.push_back(Secs(t0, t1));
    if (traced) {
      main_log.Add("server.recover_and_serve", i, -1, Nanos(t0), Nanos(t1));
    }
  }
  if (!traced) return;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    auto recovered = server::SnapshotManager::Recover(SnapDir());
    const auto t1 = Clock::now();
    if (!recovered.ok()) {
      r->errors.push_back("Recover: " + recovered.status().message());
      return;
    }
    r->attach_s.push_back(Secs(t0, t1));
    main_log.Add("storage.recover", i, -1, Nanos(t0), Nanos(t1));
  }
}

void Runner::Drive(server::ServerBootstrap& boot, bool traced,
                   PassResult* r) {
  server::QueryService& service = *boot.service;
  server::SnapshotManager& manager = *boot.manager;
  const bool updates = cfg_.update_rate_hz > 0;
  const uint64_t n_updates =
      updates ? static_cast<uint64_t>(args_.seconds * cfg_.update_rate_hz) : 0;

  RequestStream stream(cfg_, args_.seed, *manager.current(), anchors_);
  std::set<std::vector<KeywordId>> seen;

  const double regions0 = RegistryValue("s3_threadpool_regions_total", "");
  const double cpu0 = CpuSeconds();
  const auto start = Clock::now();

  std::atomic<bool> updates_done{!updates};
  std::atomic<uint64_t> update_failures{0};
  std::jthread updater;
  if (updates) {
    updater = std::jthread([&] {
      Rng rng(DeltaSeed(args_.seed));
      const auto interval = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / cfg_.update_rate_hz));
      for (uint64_t i = 0; i < n_updates; ++i) {
        const auto due = start + interval * static_cast<int64_t>(i + 1);
        std::this_thread::sleep_until(due);
        const auto begin = Clock::now();
        r->lateness_s.push_back(Secs(due, begin));
        uint64_t refused_ops = 0;
        core::InstanceDelta delta =
            MakeDelta(manager.current(), rng, i, &refused_ops);
        if (refused_ops > 0) ++r->refused_deltas;
        const auto t_log = Clock::now();
        auto next = manager.LogAndApply(delta);
        const auto t_swap = Clock::now();
        if (!next.ok()) {
          update_failures.fetch_add(1);
          continue;
        }
        const Status swapped = service.SwapSnapshot(*next);
        const auto done = Clock::now();
        if (!swapped.ok()) {
          update_failures.fetch_add(1);
          continue;
        }
        r->update_s.push_back(Secs(due, done));
        r->swap_s.push_back(Secs(t_swap, done));
        r->last_acked = (*next)->generation();
        if (traced) {
          const int32_t root = updater_log.Add(
              "client.update", i, -1, Nanos(std::min(due, begin)), Nanos(done));
          updater_log.Add("storage.log_and_apply", i, root, Nanos(t_log),
                          Nanos(t_swap));
          updater_log.Add("server.swap", i, root, Nanos(t_swap), Nanos(done));
        }
      }
      updates_done.store(true);
    });
  }

  struct Inflight {
    server::QueryFuture future;
    Clock::time_point submit, submitted;
    core::QueryRequest request;
    uint64_t id;
  };
  std::deque<Inflight> inflight;
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args_.seconds));
  uint64_t next_id = 0;

  auto keep_submitting = [&] {
    return updates ? !updates_done.load() : Clock::now() < deadline;
  };
  while (true) {
    while (inflight.size() < cfg_.outstanding && keep_submitting()) {
      core::QueryRequest req = stream.Next();
      const uint64_t id = next_id++;
      ++r->attempted;
      const auto t0 = Clock::now();
      auto submitted = service.Submit(req);
      const auto t1 = Clock::now();
      if (!submitted.ok()) {
        ++r->failed;
        continue;
      }
      inflight.push_back({std::move(*submitted), t0, t1, std::move(req), id});
    }
    if (inflight.empty()) break;
    Inflight f = std::move(inflight.front());
    inflight.pop_front();
    auto response = f.future.get();
    const auto done = Clock::now();
    if (!response.ok()) {
      ++r->failed;
      continue;
    }
    const server::QueryResponse& resp = *response;
    QueryRecord q;
    q.latency_s = Secs(f.submit, done);
    q.queue_s = resp.queue_seconds;
    q.exec_s = resp.total_seconds - resp.queue_seconds;
    q.search_s = resp.stats.elapsed_seconds;
    q.iterations = resp.stats.iterations;
    q.candidates = resp.stats.candidates_total;
    q.cleaned = resp.stats.candidates_cleaned;
    q.passing = resp.stats.components_passing;
    q.extension = resp.stats.extension_keywords;
    q.fill = static_cast<double>(resp.entries.size()) / f.request.options.k;
    q.cache_hit = resp.cache_hit;
    q.fanout = resp.stats.used_component_fanout;
    q.anytime = f.request.options.mode == core::QueryMode::kAnytime;
    // An anytime exit also sets `converged`; what tells it apart from the
    // exact stop is a certificate above zero.
    q.anytime_early = q.anytime != 0 && resp.certified_epsilon > 0 &&
                      !resp.deadline_exceeded;
    r->queries.push_back(q);
    std::vector<KeywordId> key = f.request.keywords;
    std::sort(key.begin(), key.end());
    if (seen.size() < kPlanReplays && seen.insert(key).second) {
      r->distinct_keywords.push_back(key);
    }

    // Oracle samples: every 8th answer, checked after the run.
    if (f.id % kSampleStride == 0 && r->samples.size() < kSamples) {
      r->samples.push_back({f.request, resp.entries, resp.generation});
    }

    if (traced) {
      // Queue, execution and search times come from the response; they
      // are laid out back to back after admission, inside the request.
      auto ns = [](double sec) { return static_cast<int64_t>(sec * 1e9); };
      const int64_t t_submit = Nanos(f.submit), t_done = Nanos(done);
      const int64_t t_adm = Nanos(f.submitted);
      const int64_t q_end = std::min(t_done, t_adm + ns(q.queue_s));
      const int64_t e_end = std::min(t_done, q_end + ns(q.exec_s));
      const int64_t s_begin = std::max(q_end, e_end - ns(q.search_s));
      const int32_t root =
          client_log.Add("client.request", f.id, -1, t_submit, t_done);
      client_log.Add("server.submit", f.id, root, t_submit, t_adm);
      client_log.Add("server.queue", f.id, root, t_adm, q_end);
      const int32_t exec =
          client_log.Add("server.exec", f.id, root, q_end, e_end);
      client_log.Add("core.search", f.id, exec, s_begin, e_end);
    }
  }
  if (updater.joinable()) updater.join();
  const auto end = Clock::now();
  r->window_s = Secs(start, end);
  r->cpu_s = CpuSeconds() - cpu0;
  r->pool_regions =
      RegistryValue("s3_threadpool_regions_total", "") - regions0;
  r->stats = service.Stats();
  r->peak_rss_mb = PeakRssMb();
  r->attempted += n_updates;
  r->failed += update_failures.load() + r->refused_deltas;
  r->disk_bytes = DirBytes(args_.work);
  r->request_list = stream.pool_size();
  r->request_wraps = stream.wraps();
}

void Runner::Restart(const std::string& label, bool traced,
                     std::shared_ptr<const core::S3Instance> live_final,
                     PassResult* r) {
  // Copies for the replay-cost probe: snapshot + WAL tail, and the
  // snapshot alone (Open below folds the WAL into a new checkpoint).
  const std::string tail_dir = args_.work + ".tail";
  const std::string attach_dir = args_.work + ".attach";
  if (traced) {
    CopyDir(args_.work, tail_dir);
    CopyDir(args_.work, attach_dir);
    std::error_code ec;
    fs::remove(attach_dir + "/wal.log", ec);
  }

  const auto t0 = Clock::now();
  auto booted = server::RecoverAndServe(StorageOptions(cfg_, args_.work, label),
                                        ServingOptions(cfg_, label));
  const auto t1 = Clock::now();
  if (!booted.ok()) {
    r->errors.push_back("restart: " + booted.status().message());
    return;
  }
  r->recover_s = Secs(t0, t1);
  if (traced) {
    main_log.Add("server.recover_and_serve", kSetupRepeats, -1, Nanos(t0),
                 Nanos(t1));
  }
  auto recovered = booted->manager->current();
  if (recovered->generation() != r->last_acked) {
    r->errors.push_back("restart recovered generation " +
                        std::to_string(recovered->generation()) +
                        ", last acknowledged " + std::to_string(r->last_acked));
  }
  RequestStream probes(cfg_, args_.seed + 1, *recovered, anchors_);
  for (size_t i = 0; i < kRestartProbes; ++i) {
    const core::QueryRequest req = probes.Next();
    auto a = SerialAnswer(cfg_, *recovered, req);
    auto b = SerialAnswer(cfg_, *live_final, req);
    ++r->checked;
    if (!a.ok() || !b.ok() || !SameEntries(*a, *b)) {
      r->errors.push_back(
          "restart answer differs from the live final snapshot");
      break;
    }
  }
  booted->service->Shutdown();
  *booted = {};  // stop before the probes below read the copies

  if (!traced) return;
  const auto a0 = Clock::now();
  auto tail = server::SnapshotManager::Recover(tail_dir);
  const auto a1 = Clock::now();
  auto attach = server::SnapshotManager::Recover(attach_dir);
  const auto a2 = Clock::now();
  if (tail.ok() && attach.ok() && tail->replayed_records > 0) {
    r->replay_ms_per_record =
        (Secs(a0, a1) - Secs(a1, a2)) * 1e3 / tail->replayed_records;
  }
  std::error_code ec;
  fs::remove_all(tail_dir, ec);
  fs::remove_all(attach_dir, ec);
}

void Runner::CheckSamples(const core::S3Instance& snapshot, PassResult* r) {
  for (const Sample& s : r->samples) {
    if (s.generation != snapshot.generation()) continue;
    // The service plans every request over its keyword multiset in
    // sorted order (the plan-cache key), so the oracle searches that
    // same canonical order. A serial search over the submitted order is
    // also run: S3k multiplies per-keyword scores in slot order, so with
    // three or more keywords a permutation may move the last ulp. Those
    // differences are counted and reported, not hidden.
    core::QueryRequest canonical = s.request;
    std::sort(canonical.keywords.begin(), canonical.keywords.end());
    auto oracle = SerialAnswer(cfg_, snapshot, canonical);
    ++r->checked;
    ++r->samples_checked;
    if (!oracle.ok() || !SameEntries(*oracle, s.entries)) {
      r->errors.push_back("service answer at generation " +
                          std::to_string(s.generation) +
                          " differs from a fresh serial S3kSearcher");
      return;
    }
    if (canonical.keywords != s.request.keywords) {
      auto submitted = SerialAnswer(cfg_, snapshot, s.request);
      if (!submitted.ok() || !SameEntries(*submitted, s.entries)) {
        ++r->order_diffs;
      }
    }
  }
}

void Runner::ReplayPlans(const core::S3Instance& snapshot, PassResult* r) {
  // The same intra-query pool the workload's searchers get.
  core::S3kOptions o = SearchOptions(cfg_);
  if (o.threads == 0) o.threads = cfg_.intra_budget;
  core::S3kSearcher pool_owner(snapshot, o);
  for (size_t i = 0; i < r->distinct_keywords.size(); ++i) {
    const auto t0 = Clock::now();
    auto plan = core::BuildCandidatePlan(snapshot, r->distinct_keywords[i],
                                         o.use_semantics, o.score.eta,
                                         pool_owner.intra_pool());
    const auto t1 = Clock::now();
    if (!plan.ok()) {
      r->errors.push_back("BuildCandidatePlan: " + plan.status().message());
      return;
    }
    r->plan_s.push_back(Secs(t0, t1));
    main_log.Add("core.plan", i, -1, Nanos(t0), Nanos(t1));
  }
}

// Rebuilds every generation the run published from the prepared
// snapshot and the seeded delta stream, checks the sampled answers
// against the rebuilt generation they were served from, and times each
// ApplyDelta call.
void Runner::ReplayDeltas(const core::S3Instance& live_final, bool traced,
                          PassResult* r) {
  auto recovered = server::SnapshotManager::Recover(SnapDir());
  if (!recovered.ok()) {
    r->errors.push_back("Recover: " + recovered.status().message());
    return;
  }
  std::shared_ptr<const core::S3Instance> cur = recovered->instance;
  CheckSamples(*cur, r);
  Rng rng(DeltaSeed(args_.seed));
  uint64_t refused_ops = 0;
  for (uint64_t i = 0; i < r->update_s.size(); ++i) {
    core::InstanceDelta delta = MakeDelta(cur, rng, i, &refused_ops);
    const auto t0 = Clock::now();
    auto next = cur->ApplyDelta(delta);
    const auto t1 = Clock::now();
    if (!next.ok()) {
      r->errors.push_back("ApplyDelta: " + next.status().message());
      return;
    }
    r->apply_s.push_back(Secs(t0, t1));
    if (traced) main_log.Add("core.apply_delta", i, -1, Nanos(t0), Nanos(t1));
    cur = std::move(*next);
    CheckSamples(*cur, r);
  }
  if (cur->generation() != live_final.generation()) {
    r->errors.push_back("the replayed delta chain ends at generation " +
                        std::to_string(cur->generation()) +
                        ", the live one at " +
                        std::to_string(live_final.generation()));
  }
}

PassResult Runner::Pass(const std::string& label, bool traced) {
  PassResult r;
  if (!CopyDir(SnapDir(), args_.work)) {
    r.errors.push_back("cannot copy " + SnapDir() + " to " + args_.work);
    return r;
  }
  server::ServerBootstrap boot;
  Setup(label, traced, &r, &boot);
  if (!r.errors.empty()) return r;

  Drive(boot, traced, &r);
  auto count = [&](const char* name) {
    return static_cast<uint64_t>(RegistryValue(name, label));
  };
  r.wal_appends = count("s3_wal_appends_total");
  r.wal_bytes = count("s3_wal_append_bytes_total");
  r.checkpoints = count("s3_checkpoints_total");
  r.wal_append_p50_s = RegistryHistogram("s3_wal_append_seconds", label).p50();
  r.checkpoint_p50_s = RegistryHistogram("s3_checkpoint_seconds", label).p50();

  std::shared_ptr<const core::S3Instance> final_snap = boot.manager->current();
  boot.service->Shutdown();
  boot = {};
  if (cfg_.update_rate_hz > 0) {
    Restart(label, traced, final_snap, &r);
    ReplayDeltas(*final_snap, traced, &r);
  } else {
    CheckSamples(*final_snap, &r);
  }
  if (r.samples_checked != r.samples.size()) {
    r.errors.push_back(std::to_string(r.samples.size() - r.samples_checked) +
                       " sampled answers found no generation to check against");
  }
  if (traced) ReplayPlans(*final_snap, &r);
  std::error_code ec;
  fs::remove_all(args_.work, ec);
  return r;
}

// ---- reporting ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<double> Field(const PassResult& r, double QueryRecord::*f) {
  std::vector<double> v;
  v.reserve(r.queries.size());
  for (const QueryRecord& q : r.queries) v.push_back(q.*f);
  return v;
}

std::vector<Metric> EndToEnd(const PassResult& r) {
  const std::vector<double> lat = Field(r, &QueryRecord::latency_s);
  return {
      {"setup_s", Q(r.setup_s, 0.5), "s"},
      {"query_p50_ms", Q(lat, 0.50) * 1e3, "ms"},
      {"query_p95_ms", Q(lat, 0.95) * 1e3, "ms"},
      {"throughput_qps", r.queries.size() / std::max(r.window_s, 1e-9), "1/s"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
      {"disk_mb", r.disk_bytes / 1e6, "MB"},
  };
}

std::vector<Metric> PerLayer(const PassResult& r, const PassResult& untraced,
                             const std::map<std::string, SpanTotals>& spans) {
  const double n = std::max<double>(1.0, r.queries.size());
  const double n_upd = std::max<double>(1.0, r.update_s.size());
  auto mean = [&](double QueryRecord::*f) { return Mean(Field(r, f)); };
  auto ms = [&](double QueryRecord::*f, double q) {
    return Q(Field(r, f), q) * 1e3;
  };
  auto self_ms = [&](std::initializer_list<const char*> names, double per) {
    double ns = 0;
    for (const char* name : names) {
      auto it = spans.find(name);
      if (it != spans.end()) ns += it->second.self_ns;
    }
    return ns / 1e6 / per;
  };
  const double lat = Q(Field(r, &QueryRecord::latency_s), 0.5);
  const double lat_untraced = Q(Field(untraced, &QueryRecord::latency_s), 0.5);
  const double batched = static_cast<double>(r.stats.batched_queries);
  const double batches = static_cast<double>(r.stats.batches_executed);
  const double candidates = mean(&QueryRecord::candidates);
  const double wal_appends = static_cast<double>(r.wal_appends);
  return {
      // server
      {"server.queue_wait_p50_ms", ms(&QueryRecord::queue_s, 0.5), "ms"},
      {"server.exec_p50_ms", ms(&QueryRecord::exec_s, 0.5), "ms"},
      {"server.plan_cache_hit_frac", mean(&QueryRecord::cache_hit), "frac"},
      {"server.batched_frac", batched / n, "frac"},
      {"server.batch_width_mean", batches == 0 ? 0.0 : batched / batches,
       "count"},
      {"server.swap_ms_p50", Q(r.swap_s, 0.5) * 1e3, "ms"},
      // storage
      {"storage.wal_append_ms_p50", r.wal_append_p50_s * 1e3, "ms"},
      {"storage.checkpoint_ms_p50", r.checkpoint_p50_s * 1e3, "ms"},
      {"storage.checkpoints", static_cast<double>(r.checkpoints), "count"},
      {"storage.wal_bytes_per_update",
       wal_appends == 0 ? 0.0 : r.wal_bytes / wal_appends, "B"},
      {"storage.attach_ms", Q(r.attach_s, 0.5) * 1e3, "ms"},
      {"storage.replay_ms_per_record", r.replay_ms_per_record, "ms"},
      // core
      {"core.plan_ms_p50", Q(r.plan_s, 0.50) * 1e3, "ms"},
      {"core.plan_ms_p95", Q(r.plan_s, 0.95) * 1e3, "ms"},
      {"core.extension_keywords_mean", mean(&QueryRecord::extension),
       "count"},
      {"core.candidates_mean", candidates, "count"},
      {"core.passing_components_mean", mean(&QueryRecord::passing), "count"},
      {"core.search_ms_p50", ms(&QueryRecord::search_s, 0.50), "ms"},
      {"core.search_ms_p95", ms(&QueryRecord::search_s, 0.95), "ms"},
      {"core.iterations_mean", mean(&QueryRecord::iterations), "count"},
      {"core.iterations_p50", Q(Field(r, &QueryRecord::iterations), 0.5),
       "count"},
      {"core.cleaned_frac",
       candidates == 0 ? 0.0 : mean(&QueryRecord::cleaned) / candidates,
       "frac"},
      {"core.result_fill_frac", mean(&QueryRecord::fill), "frac"},
      {"core.fanout_frac", mean(&QueryRecord::fanout), "frac"},
      {"core.anytime_early_frac", mean(&QueryRecord::anytime_early), "frac"},
      {"core.apply_delta_ms_p50", Q(r.apply_s, 0.50) * 1e3, "ms"},
      {"core.apply_delta_ms_p95", Q(r.apply_s, 0.95) * 1e3, "ms"},
      // common
      {"common.pool_regions_per_query", r.pool_regions / n, "count"},
      {"common.cpu_ms_per_query", r.cpu_s * 1e3 / n, "ms"},
      // obs, generator
      {"obs.trace_overhead_frac",
       lat_untraced == 0 ? 0.0 : (lat - lat_untraced) / lat_untraced, "frac"},
      {"gen.update_lateness_p95_ms", Q(r.lateness_s, 0.95) * 1e3, "ms"},
      // span self time per request / update, by layer
      {"trace.client_self_ms_per_query",
       self_ms({"client.request", "server.submit"}, n), "ms"},
      {"trace.queue_ms_per_query", self_ms({"server.queue"}, n), "ms"},
      {"trace.server_self_ms_per_query", self_ms({"server.exec"}, n), "ms"},
      {"trace.core_self_ms_per_query", self_ms({"core.search"}, n), "ms"},
      {"trace.storage_self_ms_per_update",
       self_ms({"storage.log_and_apply"}, n_upd), "ms"},
      // End-to-end figures that exist on one workload only (every
      // end-to-end metric must be reported for every workload).
      {"e2e.update_p50_ms", Q(r.update_s, 0.50) * 1e3, "ms"},
      {"e2e.update_p95_ms", Q(r.update_s, 0.95) * 1e3, "ms"},
      {"e2e.recover_s", r.recover_s, "s"},
      {"e2e.failed_frac",
       static_cast<double>(r.failed) / std::max<uint64_t>(1, r.attempted),
       "frac"},
  };
}

std::string CompilerString() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void PrintInputReport(const WorkloadConfig& cfg, const Args& args,
                      const core::S3Instance& inst, const PassResult& r) {
  std::printf("# input workload=%s seed=%llu dataset=%s scale=%.2f\n", cfg.name,
              static_cast<unsigned long long>(args.seed),
              cfg.dataset == Dataset::kMicroblog ? "I1-microblog"
                                                 : "I3-business",
              cfg.scale);
  std::printf(
      "# input instance users=%zu documents=%zu nodes=%zu tags=%zu "
      "keywords=%zu components=%zu snapshot_bytes=%llu\n",
      inst.UserCount(), inst.docs().DocumentCount(), inst.docs().NodeCount(),
      inst.TagCount(), inst.vocabulary().size(),
      inst.components().ComponentCount(),
      static_cast<unsigned long long>(DirBytes(args.dir + "/snap")));
  std::printf("# input request_list=%zu (%s) wraps=%zu\n", r.request_list,
              cfg.pool_size == 0 ? "fresh keyword multisets"
                                 : "hot keywords, Zipf-drawn",
              r.request_wraps);
  auto mean = [&](double QueryRecord::*f) { return Mean(Field(r, f)); };
  std::printf(
      "# input queries issued=%zu distinct_keyword_sets>=%zu "
      "candidates_mean=%.1f passing_components_mean=%.1f "
      "result_fill=%.3f fanout_share=%.3f anytime_share=%.3f "
      "iterations_p50=%.0f cache_hit_share=%.3f\n",
      r.queries.size(), r.distinct_keywords.size(),
      mean(&QueryRecord::candidates), mean(&QueryRecord::passing),
      mean(&QueryRecord::fill), mean(&QueryRecord::fanout),
      mean(&QueryRecord::anytime), Q(Field(r, &QueryRecord::iterations), 0.5),
      mean(&QueryRecord::cache_hit));
  if (cfg.update_rate_hz > 0) {
    std::printf(
        "# input updates schedule=open-loop rate_hz=%.1f count=%zu "
        "ops_per_delta=8docs+4tags+4edges checkpoint_every=%llu inline "
        "fsync=off checkpoints=%llu\n",
        cfg.update_rate_hz, r.update_s.size(),
        static_cast<unsigned long long>(cfg.checkpoint_every),
        static_cast<unsigned long long>(r.checkpoints));
  } else {
    std::printf("# input updates none\n");
  }
  const size_t tail = r.queries.size() / 20;
  std::printf("# input latency_samples=%zu beyond_p95=%zu\n", r.queries.size(),
              tail);
  const std::vector<double> lat = Field(r, &QueryRecord::latency_s);
  std::printf("# input latency_ms deciles");
  for (int d = 1; d <= 9; ++d) std::printf(" %.2f", Q(lat, d / 10.0) * 1e3);
  std::printf("\n");
  std::printf(
      "# check oracle_answers=%zu keyword_order_ulp_diffs=%zu (answers "
      "equal to a serial search over the sorted multiset but not over the "
      "submitted order)\n",
      r.checked, r.order_diffs);
}

void PrintRunRecord(const WorkloadConfig& cfg, const Args& args,
                    const PassResult& r) {
  std::printf(
      "# run-record {\"nproc\": %ld, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"S3_OBS\": %s, \"S3_SIMD\": %s, "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.1f, "
      "\"trace\": %d, \"workers\": %u, \"search_threads\": %u, "
      "\"intra_budget\": %u, \"batch_window\": %zu, \"outstanding\": %u, "
      "\"queries\": %zu, \"updates\": %zu, \"oracle_checks\": %zu}\n",
      sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(),
      CompilerString().c_str(), S3PERF_BUILD_TYPE,
      obs::kEnabled ? "true" : "false", S3PERF_SIMD ? "true" : "false",
      cfg.name, static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace, cfg.workers, cfg.search_threads, cfg.intra_budget,
      cfg.batch_window, cfg.outstanding, r.queries.size(), r.update_s.size(),
      r.checked);
}

int Prepare(const WorkloadConfig& cfg, const Args& args) {
  std::error_code ec;
  fs::remove_all(args.dir, ec);
  fs::create_directories(args.dir, ec);
  const auto t0 = Clock::now();
  workload::GenResult gen = MakeInstance(cfg);
  std::shared_ptr<const core::S3Instance> inst = std::move(gen.instance);
  server::SnapshotManagerOptions o;
  o.dir = args.dir + "/snap";
  auto manager = server::SnapshotManager::Open(o);
  if (!manager.ok()) {
    std::fprintf(stderr, "prepare: %s\n", manager.status().message().c_str());
    return 1;
  }
  const Status init = (*manager)->Initialize(inst);
  if (!init.ok()) {
    std::fprintf(stderr, "prepare: %s\n", init.message().c_str());
    return 1;
  }
  std::ofstream anchors(args.dir + "/anchors.txt");
  for (KeywordId k : gen.semantic_anchors) anchors << k << "\n";
  if (!anchors) {
    std::fprintf(stderr, "prepare: cannot write anchors\n");
    return 1;
  }
  std::fprintf(stderr, "prepared %s in %.2fs\n", cfg.name, Since(t0));
  return 0;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Run(const WorkloadConfig& cfg, const Args& args) {
  std::vector<KeywordId> anchors;
  {
    std::ifstream in(args.dir + "/anchors.txt");
    if (!in) {
      std::fprintf(stderr, "run: %s is not a prepared directory\n",
                   args.dir.c_str());
      return 1;
    }
    KeywordId k;
    while (in >> k) anchors.push_back(k);
  }
  Runner runner(cfg, args, anchors);
  const int64_t origin = Nanos(Clock::now());
  PassResult untraced = runner.Pass("untraced", /*traced=*/false);
  PassResult traced;
  std::vector<Metric> metrics;
  const PassResult* report = &untraced;
  if (args.trace != 0) {
    traced = runner.Pass("traced", /*traced=*/true);
    report = &traced;
    const std::vector<const SpanLog*> logs = {
        &runner.main_log, &runner.client_log, &runner.updater_log};
    const auto totals = Summarize(logs);
    if (!args.trace_out.empty() &&
        !WriteSpans(args.trace_out, logs, origin)) {
      traced.errors.push_back("cannot write " + args.trace_out);
    }
    for (const auto& [name, t] : totals) {
      std::printf("# span %-28s calls=%-7llu total_ms=%-12.3f self_ms=%.3f\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_ns / 1e6, t.self_ns / 1e6);
    }
    metrics = PerLayer(traced, untraced, totals);
  } else {
    metrics = EndToEnd(untraced);
  }

  auto recovered = server::SnapshotManager::Recover(args.dir + "/snap");
  if (recovered.ok()) {
    PrintInputReport(cfg, args, *recovered->instance, *report);
  }
  PrintRunRecord(cfg, args, *report);

  std::vector<std::string> errors = untraced.errors;
  errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
  for (const std::string& e : errors) {
    std::printf("# CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = errors.empty() && untraced.checked > 0;
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %-14s %s\n", m.name.c_str(),
                JsonNumber(m.value).c_str(), m.unit.c_str());
  }
  const uint64_t attempted = untraced.attempted + traced.attempted;
  const uint64_t failed = untraced.failed + traced.failed;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<uint64_t>(1, attempted));
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace s3perf

int main(int argc, char** argv) {
  s3perf::Args args;
  if (!s3perf::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: s3perf prepare --workload W --dir D\n"
                 "       s3perf run --workload W --seed N --seconds S "
                 "--trace 0|1 --dir D --work WD [--trace-out F]\n");
    return 2;
  }
  const s3perf::WorkloadConfig* cfg = s3perf::FindWorkload(args.workload);
  if (cfg == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  return args.mode == "prepare" ? s3perf::Prepare(*cfg, args)
                                : s3perf::Run(*cfg, args);
}
