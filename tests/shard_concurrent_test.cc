// Concurrency surface of the sharding layer (runs under TSan in CI):
// queries fan through the router from many threads while one shard's
// group receives live updates — every response must be internally
// consistent with exactly one generation of its home shard, and
// responses on the final generation must equal the unsharded answer
// bit-for-bit.
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/instance_delta.h"
#include "core/s3_instance.h"
#include "gtest/gtest.h"
#include "shard/partitioner.h"
#include "shard/shard_router.h"

namespace s3::shard {
namespace {

using core::Query;
using core::S3Instance;

// Two-group population: group A (users 0..2) receives updates, group B
// (users 3..5) stays read-only.
struct TwoGroups {
  std::shared_ptr<const S3Instance> instance;
  KeywordId hot;
};

TwoGroups Build() {
  TwoGroups out;
  auto inst = std::make_unique<S3Instance>();
  for (uint32_t u = 0; u < 6; ++u) inst->AddUser("u" + std::to_string(u));
  out.hot = inst->InternKeyword("hot");
  const KeywordId other = inst->InternKeyword("other");

  for (uint32_t g = 0; g < 2; ++g) {
    const social::UserId base = g * 3;
    for (uint32_t i = 0; i < 3; ++i) {
      doc::Document d("doc");
      d.AddKeywords(0, {out.hot});
      d.AddKeywords(d.AddChild(0, "sec"), {other});
      (void)inst->AddDocument(std::move(d),
                              "g" + std::to_string(g) + "d" +
                                  std::to_string(i),
                              base + i);
    }
    (void)inst->AddSocialEdge(base, base + 1, 0.8);
    (void)inst->AddSocialEdge(base + 1, base + 2, 0.6);
    (void)inst->AddSocialEdge(base + 2, base, 0.4);
  }
  EXPECT_TRUE(inst->Finalize().ok());
  out.instance = std::move(inst);
  return out;
}

class ShardRouterConcurrentTest : public ::testing::TestWithParam<bool> {};

TEST_P(ShardRouterConcurrentTest, UpdatesOnOneShardUnderQueryLoad) {
  const bool cache_on = GetParam();
  TwoGroups fixture = Build();

  PartitionOptions popts;
  popts.shard_count = 2;
  auto partition = Partition(*fixture.instance, popts);
  ASSERT_TRUE(partition.ok());

  ShardRouterOptions ropts;
  ropts.service.workers = 2;
  ropts.service.enable_cache = cache_on;
  ropts.service.search.k = 8;
  auto made = ShardRouter::Serve(std::move(*partition), ropts);
  ASSERT_TRUE(made.ok());
  ShardRouter& router = **made;

  constexpr int kUpdates = 6;
  constexpr int kClientThreads = 4;
  std::atomic<bool> stop{false};
  std::atomic<size_t> answered{0};
  std::atomic<size_t> failures{0};

  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(1000 + t);
      while (!stop.load(std::memory_order_acquire)) {
        const social::UserId seeker =
            static_cast<social::UserId>(rng.Uniform(6));
        auto resp = router.Query(Query{seeker, {fixture.hot}});
        if (!resp.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Internal consistency: entries are sorted by (upper desc, node
        // asc), and the answering generation is one the home shard has
        // published.
        EXPECT_LE(resp->generation,
                  router.Generations()[router.HomeShardOfUser(seeker)]);
        for (size_t i = 1; i < resp->entries.size(); ++i) {
          const auto& a = resp->entries[i - 1];
          const auto& b = resp->entries[i];
          EXPECT_TRUE(a.upper > b.upper ||
                      (a.upper == b.upper && a.node < b.node));
        }
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer: grow group A one document per update, through the router,
  // pacing the swaps so queries land on several generations.
  for (int i = 0; i < kUpdates; ++i) {
    auto update = router.BeginUpdate();
    doc::Document d("doc");
    d.AddKeywords(0, {fixture.hot});
    auto added = update.AddDocument(
        d, "live-" + std::to_string(i),
        static_cast<social::UserId>(i % 3));  // group A posters
    ASSERT_TRUE(added.ok());
    ASSERT_TRUE(router.ApplyUpdate(update).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Let the clients observe the final generation before stopping.
  for (int spin = 0; spin < 2000 && answered.load() < 64; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (auto& c : clients) c.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(answered.load(), 0u);

  // Final state equals an unsharded instance that applied the same
  // deltas (one combined reference rebuilt by chained ApplyDelta).
  std::shared_ptr<const S3Instance> reference = fixture.instance;
  for (int i = 0; i < kUpdates; ++i) {
    core::InstanceDelta delta(reference);
    doc::Document d("doc");
    d.AddKeywords(0, {fixture.hot});
    ASSERT_TRUE(delta
                    .AddDocument(d, "live-" + std::to_string(i),
                                 static_cast<social::UserId>(i % 3))
                    .ok());
    auto next = reference->ApplyDelta(delta);
    ASSERT_TRUE(next.ok());
    reference = *next;
  }
  core::S3kSearcher searcher(*reference, ropts.service.search);
  for (social::UserId seeker = 0; seeker < 6; ++seeker) {
    Query q{seeker, {fixture.hot}};
    auto sharded = router.Query(q);
    ASSERT_TRUE(sharded.ok());
    auto expect = searcher.Search(q);
    ASSERT_TRUE(expect.ok());
    ASSERT_EQ(sharded->entries.size(), expect->size()) << "seeker " << seeker;
    for (size_t i = 0; i < expect->size(); ++i) {
      EXPECT_EQ(sharded->entries[i].node, (*expect)[i].node);
      EXPECT_EQ(sharded->entries[i].lower, (*expect)[i].lower);
      EXPECT_EQ(sharded->entries[i].upper, (*expect)[i].upper);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CacheOnOff, ShardRouterConcurrentTest,
                         ::testing::Bool());

}  // namespace
}  // namespace s3::shard
