// SnapshotManager tests: durable WAL + checkpoint lifecycle, and the
// headline guarantee of the storage layer — kill the process at any
// point, Recover(dir), and serve the exact pre-crash generation with
// bit-for-bit identical query results, transition-matrix rows and
// component ids (pinned against the never-restarted instance and the
// NaiveSearch oracle, across several checkpoint/delta interleavings).
//
// ConcurrentCheckpointTest runs background checkpoints against live
// LogAndApply + SwapSnapshot + query traffic; it is part of the TSan
// CI suite (*Concurrent* filter).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/instance_delta.h"
#include "core/naive_reference.h"
#include "core/s3k.h"
#include "server/snapshot_manager.h"
#include "test_fixtures.h"

namespace s3::server {
namespace {

namespace fs = std::filesystem;
using core::InstanceDelta;
using core::Query;
using core::ResultEntry;
using core::S3Instance;
using core::S3kOptions;
using core::S3kSearcher;
using s3::testing::ConvergedProx;
using s3::testing::ExactScore;

// ---- deterministic population scripts ----------------------------------
// Mirrors the update_test idiom: the same op script drives an
// InstanceDelta (durable path) and a rebuilding S3Instance (oracle).

constexpr uint32_t kUsers = 5;

struct Counts {
  uint32_t docs = 0;
  uint32_t nodes = 0;
  uint32_t tags = 0;
};

void PopulateBase(S3Instance& inst, std::vector<KeywordId>& pool,
                  Counts& c) {
  for (uint32_t u = 0; u < kUsers; ++u) {
    inst.AddUser("u" + std::to_string(u));
  }
  for (int k = 0; k < 5; ++k) {
    pool.push_back(inst.InternKeyword("kw" + std::to_string(k)));
  }
  inst.DeclareSubClass("kw1", "kw0");
  Rng rng(7);
  for (int i = 0; i < 5; ++i) {
    doc::Document d("doc");
    for (uint32_t ch = rng.Uniform(3); ch > 0; --ch) {
      uint32_t child = d.AddChild(
          static_cast<uint32_t>(rng.Uniform(d.NodeCount())), "n");
      d.AddKeywords(child, {pool[rng.Uniform(pool.size())]});
    }
    d.AddKeywords(0, {pool[rng.Uniform(pool.size())]});
    const uint32_t n_doc_nodes = static_cast<uint32_t>(d.NodeCount());
    ASSERT_TRUE(inst.AddDocument(std::move(d), "base" + std::to_string(i),
                                 static_cast<social::UserId>(
                                     rng.Uniform(kUsers)))
                    .ok());
    c.nodes += n_doc_nodes;
    ++c.docs;
  }
  for (int t = 0; t < 3; ++t) {
    ASSERT_TRUE(inst.AddTagOnFragment(
                        static_cast<social::UserId>(rng.Uniform(kUsers)),
                        static_cast<doc::NodeId>(rng.Uniform(c.nodes)),
                        pool[rng.Uniform(pool.size())])
                    .ok());
    ++c.tags;
  }
  ASSERT_TRUE(inst.AddSocialEdge(0, 1, 0.9).ok());
  ASSERT_TRUE(inst.AddSocialEdge(1, 2, 0.6).ok());
  ASSERT_TRUE(inst.AddSocialEdge(2, 0, 0.4).ok());
}

// One update round, valid against any sink that mirrors the
// S3Instance population API.
template <typename Sink>
void Round(Sink& sink, uint64_t seed, Counts& c,
           std::vector<KeywordId>& pool) {
  Rng rng(seed);
  pool.push_back(sink.InternKeyword("round" + std::to_string(seed)));
  for (int i = 0; i < 2; ++i) {
    doc::Document d("doc");
    for (uint32_t ch = rng.Uniform(2); ch > 0; --ch) {
      uint32_t child = d.AddChild(
          static_cast<uint32_t>(rng.Uniform(d.NodeCount())), "n");
      d.AddKeywords(child, {pool[rng.Uniform(pool.size())]});
    }
    d.AddKeywords(0, {pool[rng.Uniform(pool.size())]});
    const uint32_t n_doc_nodes = static_cast<uint32_t>(d.NodeCount());
    const uint32_t nodes_before = c.nodes;
    auto id = sink.AddDocument(std::move(d),
                               "r" + std::to_string(seed) + "_" +
                                   std::to_string(i),
                               static_cast<social::UserId>(
                                   rng.Uniform(kUsers)));
    ASSERT_TRUE(id.ok());
    c.nodes += n_doc_nodes;
    ++c.docs;
    if (rng.Chance(0.6)) {
      ASSERT_TRUE(sink.AddComment(*id, static_cast<doc::NodeId>(
                                           rng.Uniform(nodes_before)))
                      .ok());
    }
  }
  ASSERT_TRUE(sink.AddTagOnFragment(
                      static_cast<social::UserId>(rng.Uniform(kUsers)),
                      static_cast<doc::NodeId>(rng.Uniform(c.nodes)),
                      rng.Chance(0.5) ? pool[rng.Uniform(pool.size())]
                                      : kInvalidKeyword)
                  .ok());
  ++c.tags;
  social::UserId a = static_cast<social::UserId>(rng.Uniform(kUsers));
  social::UserId b = static_cast<social::UserId>(rng.Uniform(kUsers));
  if (a != b) {
    ASSERT_TRUE(sink.AddSocialEdge(a, b, 0.2 + 0.7 * rng.NextDouble()).ok());
  }
}

std::shared_ptr<const S3Instance> BuildBase(std::vector<KeywordId>& pool,
                                            Counts& c) {
  auto inst = std::make_shared<S3Instance>();
  PopulateBase(*inst, pool, c);
  EXPECT_TRUE(inst->Finalize().ok());
  return inst;
}

// Never-restarted oracle: base + `rounds` rounds, one Finalize.
std::shared_ptr<const S3Instance> RebuildFromScratch(size_t rounds) {
  auto inst = std::make_shared<S3Instance>();
  std::vector<KeywordId> pool;
  Counts c;
  PopulateBase(*inst, pool, c);
  for (size_t r = 1; r <= rounds; ++r) Round(*inst, 100 + r, c, pool);
  EXPECT_TRUE(inst->Finalize().ok());
  return inst;
}

S3kOptions TestOptions() {
  S3kOptions opts;
  opts.k = 5;
  opts.score.gamma = 1.5;
  opts.max_iterations = 300;
  return opts;
}

std::vector<Query> MakeQueries(const std::vector<KeywordId>& pool) {
  std::vector<Query> out;
  for (uint32_t u = 0; u < kUsers; ++u) {
    for (size_t k = 0; k < pool.size(); k += 2) {
      out.push_back(Query{u, {pool[k]}});
    }
  }
  out.push_back(Query{0, {pool[0], pool[1]}});
  return out;
}

void ExpectBitIdentical(const S3Instance& got, const S3Instance& want,
                        const std::vector<Query>& queries,
                        const std::string& what) {
  EXPECT_EQ(got.generation(), want.generation()) << what;
  EXPECT_EQ(got.lineage(), want.lineage()) << what;

  ASSERT_EQ(got.matrix().rows(), want.matrix().rows()) << what;
  for (uint32_t row = 0; row < want.matrix().rows(); ++row) {
    auto a = got.matrix().Row(row);
    auto b = want.matrix().Row(row);
    ASSERT_EQ(a.size(), b.size()) << what << " matrix row " << row;
    for (size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(a[i].first, b[i].first) << what << " row " << row;
      EXPECT_EQ(a[i].second, b[i].second) << what << " row " << row;
    }
    EXPECT_EQ(got.components().OfRow(row), want.components().OfRow(row))
        << what << " component of row " << row;
  }

  S3kOptions opts = TestOptions();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto a = S3kSearcher(got, opts).Search(queries[qi]);
    auto b = S3kSearcher(want, opts).Search(queries[qi]);
    ASSERT_TRUE(a.ok()) << what;
    ASSERT_TRUE(b.ok()) << what;
    ASSERT_EQ(a->size(), b->size()) << what << " query " << qi;
    for (size_t i = 0; i < b->size(); ++i) {
      EXPECT_EQ((*a)[i].node, (*b)[i].node) << what << " query " << qi;
      EXPECT_EQ((*a)[i].lower, (*b)[i].lower) << what << " query " << qi;
      EXPECT_EQ((*a)[i].upper, (*b)[i].upper) << what << " query " << qi;
    }
  }
}

// Recovered results agree with the brute-force oracle's top-k score
// multiset (converged queries only, as in update_test).
void ExpectMatchesNaiveOracle(const S3Instance& inst, const Query& q) {
  S3kOptions opts = TestOptions();
  core::SearchStats stats;
  auto got = S3kSearcher(inst, opts).Search(q, &stats);
  ASSERT_TRUE(got.ok());
  if (!stats.converged) return;
  auto prox = ConvergedProx(inst, q.seeker, opts.score.gamma);
  auto oracle = core::NaiveSearchWithProx(inst, q, opts, prox);
  ASSERT_EQ(got->size(), oracle.size());
  std::vector<double> got_scores, want_scores;
  for (size_t i = 0; i < oracle.size(); ++i) {
    got_scores.push_back(ExactScore(inst, q, opts, (*got)[i].node, prox));
    want_scores.push_back(oracle[i].lower);
  }
  std::sort(got_scores.rbegin(), got_scores.rend());
  std::sort(want_scores.rbegin(), want_scores.rend());
  for (size_t i = 0; i < want_scores.size(); ++i) {
    EXPECT_NEAR(got_scores[i], want_scores[i], 1e-7);
  }
}

// ---- fixtures ----------------------------------------------------------

class SnapshotManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "s3-recovery-" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  SnapshotManagerOptions Options(uint64_t checkpoint_every = 0,
                                 bool background = false) {
    SnapshotManagerOptions o;
    o.dir = dir_;
    o.checkpoint_every = checkpoint_every;
    o.background_checkpoints = background;
    return o;
  }

  std::string dir_;
};

// ---- lifecycle ---------------------------------------------------------

TEST_F(SnapshotManagerTest, OpenEmptyThenInitialize) {
  std::vector<KeywordId> pool;
  Counts c;
  auto base = BuildBase(pool, c);

  {
    auto mgr = SnapshotManager::Open(Options());
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    EXPECT_FALSE((*mgr)->has_state());
    // LogAndApply before Initialize is refused.
    InstanceDelta delta(base);
    ASSERT_TRUE(delta.AddSocialEdge(0, 2, 0.5).ok());
    EXPECT_EQ((*mgr)->LogAndApply(delta).status().code(),
              StatusCode::kFailedPrecondition);
    ASSERT_TRUE((*mgr)->Initialize(base).ok());
    EXPECT_TRUE((*mgr)->has_state());
    // Second Initialize is refused.
    EXPECT_EQ((*mgr)->Initialize(base).code(),
              StatusCode::kFailedPrecondition);
  }

  // Reopen: the directory alone reproduces the instance.
  auto reopened = SnapshotManager::Open(Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE((*reopened)->has_state());
  ExpectBitIdentical(*(*reopened)->current(), *base, MakeQueries(pool),
                     "reopen");
}

TEST_F(SnapshotManagerTest, LogAndApplyValidatesBase) {
  std::vector<KeywordId> pool;
  Counts c;
  auto base = BuildBase(pool, c);
  auto mgr = SnapshotManager::Open(Options());
  ASSERT_TRUE(mgr.ok());
  ASSERT_TRUE((*mgr)->Initialize(base).ok());

  InstanceDelta delta(base);
  ASSERT_TRUE(delta.AddSocialEdge(0, 2, 0.5).ok());
  auto next = (*mgr)->LogAndApply(delta);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ((*next)->generation(), 1u);

  // The same delta again is now against a stale base.
  EXPECT_EQ((*mgr)->LogAndApply(delta).status().code(),
            StatusCode::kInvalidArgument);
}

// ---- kill-and-recover fidelity, three interleavings --------------------

struct Interleaving {
  const char* name;
  uint64_t checkpoint_every;     // 0 = never
  size_t manual_checkpoint_at;   // round index (0 = none)
};

class RecoveryFidelityTest
    : public SnapshotManagerTest,
      public ::testing::WithParamInterface<Interleaving> {};

TEST_P(RecoveryFidelityTest, KillAndRecoverIsBitIdentical) {
  const Interleaving param = GetParam();
  constexpr size_t kRounds = 4;

  std::vector<KeywordId> pool;
  Counts c;
  auto base = BuildBase(pool, c);

  // Live chain, with every delta logged durably.
  std::shared_ptr<const S3Instance> live = base;
  {
    SnapshotManagerOptions options =
        Options(param.checkpoint_every, /*background=*/false);
    auto mgr = SnapshotManager::Open(options);
    ASSERT_TRUE(mgr.ok());
    ASSERT_TRUE((*mgr)->Initialize(base).ok());
    Counts live_counts = c;
    for (size_t r = 1; r <= kRounds; ++r) {
      InstanceDelta delta(live);
      Round(delta, 100 + r, live_counts, pool);
      if (::testing::Test::HasFatalFailure()) return;
      auto next = (*mgr)->LogAndApply(delta);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      live = *next;
      if (param.manual_checkpoint_at == r) {
        ASSERT_TRUE((*mgr)->Checkpoint().ok());
      }
    }
    // `mgr` is destroyed here without any final checkpoint — the
    // "kill": only what LogAndApply already made durable survives.
  }
  ASSERT_EQ(live->generation(), kRounds);

  // Recovery = newest valid snapshot + WAL tail.
  auto recovered = SnapshotManager::Recover(dir_);
  ASSERT_TRUE(recovered.ok()) << param.name << ": "
                              << recovered.status().ToString();
  const std::vector<Query> queries = MakeQueries(pool);
  ExpectBitIdentical(*recovered->instance, *live, queries, param.name);

  // And against the never-serialized from-scratch rebuild (node sets;
  // scores bit-identical to `live` already pinned above).
  auto rebuilt = RebuildFromScratch(kRounds);
  S3kOptions opts = TestOptions();
  for (const Query& q : queries) {
    auto a = S3kSearcher(*recovered->instance, opts).Search(q);
    auto b = S3kSearcher(*rebuilt, opts).Search(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->size(), b->size()) << param.name;
    for (size_t i = 0; i < b->size(); ++i) {
      EXPECT_EQ((*a)[i].node, (*b)[i].node) << param.name;
      EXPECT_EQ((*a)[i].lower, (*b)[i].lower) << param.name;
    }
  }
  ExpectMatchesNaiveOracle(*recovered->instance, queries.front());

  // Reopening as a manager serves the same generation and accepts the
  // next delta.
  auto reopened = SnapshotManager::Open(Options());
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE((*reopened)->has_state());
  EXPECT_EQ((*reopened)->current()->generation(), kRounds);
  Counts more = c;
  // Recompute the counts the rounds produced (oracle-side bookkeeping).
  {
    auto cur = (*reopened)->current();
    more.docs = static_cast<uint32_t>(cur->docs().DocumentCount());
    more.nodes = static_cast<uint32_t>(cur->docs().NodeCount());
    more.tags = static_cast<uint32_t>(cur->TagCount());
  }
  InstanceDelta delta((*reopened)->current());
  Round(delta, 999, more, pool);
  if (::testing::Test::HasFatalFailure()) return;
  auto next = (*reopened)->LogAndApply(delta);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ((*next)->generation(), kRounds + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Interleavings, RecoveryFidelityTest,
    ::testing::Values(
        // Snapshot-0 + full WAL replay.
        Interleaving{"wal_only", 0, 0},
        // Auto checkpoint mid-stream: snapshot-2 + WAL tail.
        Interleaving{"checkpoint_mid", 2, 0},
        // Manual checkpoint at the last round, then nothing in the WAL.
        Interleaving{"checkpoint_at_head", 0, 4}),
    [](const ::testing::TestParamInfo<Interleaving>& info) {
      return info.param.name;
    });

// ---- torn tails and corruption -----------------------------------------

TEST_F(SnapshotManagerTest, TornWalTailRecoversThePrefix) {
  std::vector<KeywordId> pool;
  Counts c;
  auto base = BuildBase(pool, c);
  std::shared_ptr<const S3Instance> live = base;
  {
    auto mgr = SnapshotManager::Open(Options());
    ASSERT_TRUE(mgr.ok());
    ASSERT_TRUE((*mgr)->Initialize(base).ok());
    Counts live_counts = c;
    for (size_t r = 1; r <= 3; ++r) {
      InstanceDelta delta(live);
      Round(delta, 100 + r, live_counts, pool);
      if (::testing::Test::HasFatalFailure()) return;
      auto next = (*mgr)->LogAndApply(delta);
      ASSERT_TRUE(next.ok());
      live = *next;
    }
  }

  // Tear the last record: crash mid-append.
  const std::string wal_path = dir_ + "/wal.log";
  const auto size = fs::file_size(wal_path);
  fs::resize_file(wal_path, size - 5);

  auto recovered = SnapshotManager::Recover(dir_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->instance->generation(), 2u);
  EXPECT_TRUE(recovered->tail_discarded);
  EXPECT_EQ(recovered->replayed_records, 2u);

  // Open compacts the torn tail away; the next recovery is clean.
  {
    auto mgr = SnapshotManager::Open(Options());
    ASSERT_TRUE(mgr.ok());
    EXPECT_EQ((*mgr)->current()->generation(), 2u);
  }
  auto again = SnapshotManager::Recover(dir_);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->tail_discarded);
  EXPECT_EQ(again->instance->generation(), 2u);
}

TEST_F(SnapshotManagerTest, CorruptSnapshotIsRefusedNotServedEmpty) {
  std::vector<KeywordId> pool;
  Counts c;
  auto base = BuildBase(pool, c);
  {
    auto mgr = SnapshotManager::Open(Options());
    ASSERT_TRUE(mgr.ok());
    ASSERT_TRUE((*mgr)->Initialize(base).ok());
  }
  // Flip a byte in the middle of the only snapshot file.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".s3snap") {
      std::fstream f(entry.path(),
                     std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(static_cast<std::streamoff>(entry.file_size() / 2));
      f.put('\x55');
    }
  }
  EXPECT_EQ(SnapshotManager::Recover(dir_).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SnapshotManager::Open(Options()).status().code(),
            StatusCode::kInvalidArgument);
}

// A wal.log left behind in a snapshot-less directory (earlier
// deployment, manual copy) must not leak into a fresh deployment:
// Initialize wipes it, so later recoveries never hit a foreign record
// that would strand the records behind it.
TEST_F(SnapshotManagerTest, InitializeWipesStrayWal) {
  std::vector<KeywordId> pool;
  Counts c;
  auto base = BuildBase(pool, c);

  // Plant a stray WAL: a valid record from an unrelated lineage plus
  // trailing junk.
  fs::create_directories(dir_);
  {
    std::vector<KeywordId> stray_pool;
    Counts stray_counts;
    auto stray_base =
        BuildBase(stray_pool, stray_counts);  // different lineage token
    InstanceDelta stray(stray_base);
    ASSERT_TRUE(stray.AddSocialEdge(0, 2, 0.5).ok());
    std::string wal;
    stray.EncodeWalRecord(&wal);
    wal += "torn tail garbage";
    std::ofstream out(dir_ + "/wal.log", std::ios::binary);
    out << wal;
  }

  std::shared_ptr<const S3Instance> live = base;
  {
    auto mgr = SnapshotManager::Open(Options());
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    EXPECT_FALSE((*mgr)->has_state());
    ASSERT_TRUE((*mgr)->Initialize(base).ok());
    Counts live_counts = c;
    InstanceDelta delta(live);
    Round(delta, 300, live_counts, pool);
    if (::testing::Test::HasFatalFailure()) return;
    auto next = (*mgr)->LogAndApply(delta);
    ASSERT_TRUE(next.ok());
    live = *next;
  }

  auto recovered = SnapshotManager::Recover(dir_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered->tail_discarded);
  EXPECT_EQ(recovered->replayed_records, 1u);
  EXPECT_EQ(recovered->skipped_records, 0u);
  ExpectBitIdentical(*recovered->instance, *live, MakeQueries(pool),
                     "after stray-wal wipe");
}

TEST_F(SnapshotManagerTest, RecoverOnMissingDirIsNotFound) {
  EXPECT_EQ(SnapshotManager::Recover(dir_ + "-nope").status().code(),
            StatusCode::kNotFound);
}

// ---- serving wiring ----------------------------------------------------

TEST_F(SnapshotManagerTest, RecoverAndServeResumesPreCrashGeneration) {
  std::vector<KeywordId> pool;
  Counts c;
  auto base = BuildBase(pool, c);
  std::shared_ptr<const S3Instance> live = base;
  {
    auto mgr = SnapshotManager::Open(Options(/*checkpoint_every=*/2));
    ASSERT_TRUE(mgr.ok());
    ASSERT_TRUE((*mgr)->Initialize(base).ok());
    Counts live_counts = c;
    for (size_t r = 1; r <= 3; ++r) {
      InstanceDelta delta(live);
      Round(delta, 100 + r, live_counts, pool);
      if (::testing::Test::HasFatalFailure()) return;
      auto next = (*mgr)->LogAndApply(delta);
      ASSERT_TRUE(next.ok());
      live = *next;
    }
  }  // kill

  QueryServiceOptions serving;
  serving.workers = 2;
  serving.search = TestOptions();
  auto boot = RecoverAndServe(Options(), serving);
  ASSERT_TRUE(boot.ok()) << boot.status().ToString();
  EXPECT_EQ(boot->service->snapshot()->generation(), 3u);
  EXPECT_EQ(boot->service->snapshot()->lineage(), live->lineage());

  S3kOptions opts = TestOptions();
  for (const Query& q : MakeQueries(pool)) {
    auto submitted = boot->service->SubmitBlocking(q);
    ASSERT_TRUE(submitted.ok());
    auto response = submitted->get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->generation, 3u);
    auto want = S3kSearcher(*live, opts).Search(q);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(response->entries.size(), want->size());
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ(response->entries[i].node, (*want)[i].node);
      EXPECT_EQ(response->entries[i].lower, (*want)[i].lower);
    }
  }
  boot->service->Shutdown();

  // An empty directory refuses to serve.
  SnapshotManagerOptions empty;
  empty.dir = dir_ + "-fresh";
  auto refused = RecoverAndServe(empty, serving);
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  fs::remove_all(empty.dir);
}

// ---- background checkpoints under live swap + query load (TSan) --------

TEST_F(SnapshotManagerTest, ConcurrentCheckpointUnderSwapLoad) {
  std::vector<KeywordId> pool;
  Counts c;
  auto base = BuildBase(pool, c);

  SnapshotManagerOptions options =
      Options(/*checkpoint_every=*/1, /*background=*/true);
  auto mgr = SnapshotManager::Open(options);
  ASSERT_TRUE(mgr.ok());
  ASSERT_TRUE((*mgr)->Initialize(base).ok());

  QueryServiceOptions serving;
  serving.workers = 2;
  QueryService service((*mgr)->current(), serving);

  constexpr size_t kRounds = 6;
  const std::vector<Query> queries = MakeQueries(pool);

  std::atomic<bool> done{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([&service, &queries, &done, t] {
      size_t qi = static_cast<size_t>(t);
      while (!done.load(std::memory_order_acquire)) {
        auto submitted = service.SubmitBlocking(
            queries[qi++ % queries.size()]);
        if (!submitted.ok()) break;
        auto response = submitted->get();
        EXPECT_TRUE(response.ok());
      }
    });
  }

  // Writer: log, apply, publish — while the manager checkpoints every
  // generation on its background thread.
  Counts live_counts = c;
  std::shared_ptr<const S3Instance> live = base;
  for (size_t r = 1; r <= kRounds; ++r) {
    InstanceDelta delta(live);
    Round(delta, 500 + r, live_counts, pool);
    if (::testing::Test::HasFatalFailure()) break;
    auto next = (*mgr)->LogAndApply(delta);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    live = *next;
    ASSERT_TRUE(service.SwapSnapshot(live).ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& thread : clients) thread.join();
  service.Shutdown();

  EXPECT_TRUE((*mgr)->WaitForCheckpoints().ok());
  mgr->reset();  // close WAL handle before recovering the directory

  auto recovered = SnapshotManager::Recover(dir_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectBitIdentical(*recovered->instance, *live, queries,
                     "after concurrent checkpoints");
}

}  // namespace
}  // namespace s3::server
