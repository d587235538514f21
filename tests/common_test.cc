#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/binary_io.h"
#include "common/bounded_queue.h"
#include "common/flat_lists.h"
#include "common/lru_cache.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/string_table.h"

namespace s3 {
namespace {

// ---- CRC-32 ------------------------------------------------------------

// Byte-at-a-time CRC-32 (ISO-HDLC, reflected polynomial 0xEDB88320):
// the classic one-table loop that Crc32 (zlib's crc32) must reproduce.
uint32_t BytewiseCrc32(const unsigned char* p, size_t n) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, CheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string_view()), 0u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryAlignment) {
  constexpr size_t kMaxLen = 4100;
  Rng rng(20241);
  std::vector<unsigned char> buf(kMaxLen + 8);
  for (unsigned char& c : buf) c = static_cast<unsigned char>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= kMaxLen; ++n) {
      ASSERT_EQ(Crc32(buf.data() + offset, n),
                BytewiseCrc32(buf.data() + offset, n))
          << "offset " << offset << " length " << n;
    }
  }
}

// ---- varints --------------------------------------------------------------

// ByteReader::Var inverts ByteWriter::Var at every width, whether the
// encoding ends its input or more bytes follow, and refuses overlong,
// overflowing and cut encodings.
TEST(VarintTest, RoundTripsAndRefusesMalformed) {
  const std::vector<uint64_t> values = {0,
                                        1,
                                        127,
                                        128,
                                        16383,
                                        16384,
                                        uint64_t{1} << 35,
                                        (uint64_t{1} << 63) - 1,
                                        uint64_t{1} << 63,
                                        UINT64_MAX};
  for (uint64_t v : values) {
    std::string bytes;
    ByteWriter(&bytes).Var(v);
    const std::string padded = bytes + std::string(10, '\x7f');
    ByteReader at_end(bytes), far(padded);
    EXPECT_EQ(at_end.Var(), v);
    EXPECT_EQ(far.Var(), v);
    EXPECT_TRUE(at_end.AtEnd()) << v;
    EXPECT_EQ(far.offset(), bytes.size()) << v;
  }
  // An eleventh continuation byte and a tenth byte past 64 bits are
  // refused at byte 10.
  const std::string overlong(11, '\x80');
  const std::string overflow = std::string(9, '\xff') + '\x02';
  for (const std::string& bad : {overlong, overflow}) {
    const std::string padded = bad + std::string(10, '\0');
    ByteReader r(padded);
    EXPECT_EQ(r.Var(), 0u);
    EXPECT_TRUE(r.failed());
    EXPECT_EQ(r.offset(), 10u);
  }
  // A cut encoding fails at the end of its input.
  const std::string cut_bytes(3, '\x80');
  ByteReader cut(cut_bytes);
  EXPECT_EQ(cut.Var(), 0u);
  EXPECT_TRUE(cut.failed());
}

// ---- FlatLists ------------------------------------------------------------

TEST(FlatListsTest, GroupsByKeyKeepingEmissionOrder) {
  const std::vector<std::pair<uint32_t, int>> items = {
      {2, 10}, {0, 11}, {2, 12}, {3, 13}, {0, 14}, {2, 15}};
  FlatLists<int> lists;
  lists.Build(5, [&](auto&& emit) {
    for (const auto& [key, v] : items) emit(key, v);
  });
  ASSERT_EQ(lists.keys(), 5u);
  auto as_vec = [](std::span<const int> s) {
    return std::vector<int>(s.begin(), s.end());
  };
  EXPECT_EQ(as_vec(lists[0]), (std::vector<int>{11, 14}));
  EXPECT_TRUE(lists[1].empty());
  EXPECT_EQ(as_vec(lists[2]), (std::vector<int>{10, 12, 15}));
  EXPECT_EQ(as_vec(lists[3]), (std::vector<int>{13}));
  EXPECT_TRUE(lists[4].empty());
  EXPECT_TRUE(lists[5].empty());  // past the end

  FlatLists<int> empty;
  EXPECT_TRUE(empty[0].empty());
  empty.Build(0, [](auto&&) {});
  EXPECT_EQ(empty.keys(), 0u);
}

TEST(FlatListsTest, SpliceAppendsToMappedBaseLists) {
  FlatLists<int> base;
  base.Build(3, [](auto&& emit) {
    emit(0, 1);
    emit(2, 5);
    emit(0, 2);
  });
  FlatLists<int> next;
  next.Splice(
      base, 4,
      [](auto&& emit) {
        emit(2, 9);
        emit(3, 7);
        emit(0, 4);
        emit(2, 8);
      },
      [](int v) { return 10 * v; });
  auto as_vec = [](std::span<const int> s) {
    return std::vector<int>(s.begin(), s.end());
  };
  ASSERT_EQ(next.keys(), 4u);
  EXPECT_EQ(as_vec(next[0]), (std::vector<int>{10, 20, 4}));
  EXPECT_TRUE(next[1].empty());
  EXPECT_EQ(as_vec(next[2]), (std::vector<int>{50, 9, 8}));
  EXPECT_EQ(as_vec(next[3]), (std::vector<int>{7}));
  EXPECT_EQ(as_vec(base[0]), (std::vector<int>{1, 2}));  // base untouched
}

TEST(FlatListsTest, SortUniqueCompactsEveryList) {
  FlatLists<int> lists;
  lists.Build(4, [](auto&& emit) {
    for (int v : {3, 1, 3, 2}) emit(0, v);
    for (int v : {4, 5}) emit(2, v);
    for (int v : {6, 6}) emit(3, v);
  });
  lists.SortUnique();
  auto as_vec = [](std::span<const int> s) {
    return std::vector<int>(s.begin(), s.end());
  };
  EXPECT_EQ(as_vec(lists[0]), (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(lists[1].empty());
  EXPECT_EQ(as_vec(lists[2]), (std::vector<int>{4, 5}));
  EXPECT_EQ(as_vec(lists[3]), (std::vector<int>{6}));
  EXPECT_EQ(lists.keys(), 4u);
}

// ---- StringTable ----------------------------------------------------------

TEST(StringTableTest, InternsTextTagPairsAcrossGrowth) {
  StringTable table;
  EXPECT_EQ(table.Find("a", 0), StringTable::kNotFound);
  std::vector<std::string> texts;
  for (int i = 0; i < 1000; ++i) texts.push_back("s" + std::to_string(i));
  for (uint32_t i = 0; i < texts.size(); ++i) {
    ASSERT_EQ(table.Intern(texts[i], 0), i);
  }
  // The same text under another tag is another entry; the empty text
  // is an entry like any other.
  EXPECT_EQ(table.Intern("s7", 1), 1000u);
  EXPECT_EQ(table.Intern("", 0), 1001u);
  table.Reserve(10, 100);
  for (uint32_t i = 0; i < texts.size(); ++i) {
    EXPECT_EQ(table.Intern(texts[i], 0), i);
    EXPECT_EQ(table.Find(texts[i], 0), i);
    EXPECT_EQ(table.Text(i), texts[i]);
    EXPECT_EQ(table.Tag(i), 0);
  }
  EXPECT_EQ(table.Find("s7", 1), 1000u);
  EXPECT_EQ(table.Tag(1000), 1);
  EXPECT_EQ(table.Find("", 0), 1001u);
  EXPECT_EQ(table.Find("s7", 2), StringTable::kNotFound);
  EXPECT_EQ(table.size(), 1002u);
}

// ---- Status / Result --------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("x").code(), Status::NotFound("x").code(),
      Status::AlreadyExists("x").code(),   Status::OutOfRange("x").code(),
      Status::FailedPrecondition("x").code(), Status::Internal("x").code(),
  };
  EXPECT_EQ(codes.size(), 6u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

Status FailsThrough() {
  S3_RETURN_IF_ERROR(Status::Internal("inner"));
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorMacro) {
  EXPECT_EQ(FailsThrough().code(), StatusCode::kInternal);
}

// ---- Rng ---------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformStaysInBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[rng.Uniform(10)]++;
  for (int c : counts) {
    EXPECT_GT(c, n / 10 - n / 50);
    EXPECT_LT(c, n / 10 + n / 50);
  }
}

// ---- ZipfSampler --------------------------------------------------------

TEST(ZipfTest, RankZeroIsMostFrequent) {
  Rng rng(5);
  ZipfSampler z(100, 1.2);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) counts[z.Sample(rng)]++;
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[50]);
}

TEST(ZipfTest, SingleElement) {
  Rng rng(5);
  ZipfSampler z(1, 1.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(z.Sample(rng), 0u);
}

TEST(ZipfTest, SamplesCoverSupport) {
  Rng rng(6);
  ZipfSampler z(5, 0.5);
  std::set<size_t> seen;
  for (int i = 0; i < 5000; ++i) seen.insert(z.Sample(rng));
  EXPECT_EQ(seen.size(), 5u);
}

// ---- Stats ---------------------------------------------------------------

TEST(StatsTest, QuantileOfSingleton) {
  EXPECT_DOUBLE_EQ(Quantile({3.0}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile({3.0}, 0.0), 3.0);
}

TEST(StatsTest, MedianOfOddSample) {
  EXPECT_DOUBLE_EQ(Quantile({5.0, 1.0, 3.0}, 0.5), 3.0);
}

TEST(StatsTest, MedianOfEvenSampleInterpolates) {
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
}

TEST(StatsTest, SummaryOrdering) {
  QuartileSummary s = Summarize({9.0, 1.0, 5.0, 3.0, 7.0});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.median, 5.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_LE(s.min, s.q1);
  EXPECT_LE(s.q1, s.median);
  EXPECT_LE(s.median, s.q3);
  EXPECT_LE(s.q3, s.max);
  EXPECT_EQ(s.count, 5u);
}

TEST(StatsTest, Mean) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
}

// ---- str_util --------------------------------------------------------------

TEST(StrUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("HeLLo W0rld"), "hello w0rld");
}

TEST(StrUtilTest, SplitDropsEmptyPieces) {
  std::vector<std::string> parts = Split("a,,b, c", ", ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StrUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("S3:social", "S3:"));
  EXPECT_FALSE(StartsWith("S3", "S3:"));
}

TEST(StrUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, "."), "a.b.c");
  EXPECT_EQ(Join({}, "."), "");
}

// ---- LruCache ---------------------------------------------------------

TEST(LruCacheTest, GetTouchesRecency) {
  LruCache<int, std::string> cache(2);
  cache.Put(1, "one");
  cache.Put(2, "two");
  ASSERT_NE(cache.Get(1), nullptr);  // 1 becomes most recent
  cache.Put(3, "three");             // evicts 2, not 1
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, PutOverwritesInPlace) {
  LruCache<int, int> cache(2);
  cache.Put(7, 1);
  cache.Put(7, 2);
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_NE(cache.Get(7), nullptr);
  EXPECT_EQ(*cache.Get(7), 2);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(LruCacheTest, EvictsInLruOrder) {
  LruCache<int, int> cache(3);
  for (int i = 0; i < 6; ++i) cache.Put(i, i);
  // 0..2 evicted, 3..5 retained.
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(cache.Contains(i));
  for (int i = 3; i < 6; ++i) EXPECT_TRUE(cache.Contains(i));
  EXPECT_EQ(cache.evictions(), 3u);
}

TEST(LruCacheTest, MissReturnsNull) {
  LruCache<int, int> cache(1);
  EXPECT_EQ(cache.Get(42), nullptr);
  EXPECT_EQ(cache.Peek(42), nullptr);
}

// ---- BoundedQueue -----------------------------------------------------

TEST(BoundedQueueTest, FifoAndTryPushRefusesWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // admission control: full
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_EQ(q.TryPop(), std::nullopt);
}

TEST(BoundedQueueTest, CloseDrainsThenSignalsEnd) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(1));
  q.Close();
  EXPECT_FALSE(q.TryPush(2));  // closed refuses new work
  EXPECT_EQ(q.Pop().value(), 1);  // admitted work still drains
  EXPECT_EQ(q.Pop(), std::nullopt);
  EXPECT_TRUE(q.closed());
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumers) {
  BoundedQueue<int> q(1);
  std::thread consumer([&] { EXPECT_EQ(q.Pop(), std::nullopt); });
  q.Close();
  consumer.join();
}

TEST(BoundedQueueTest, MpmcDeliversEveryItemExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 250;
  BoundedQueue<int> q(8);  // small capacity to force blocking on both sides
  std::atomic<long> sum{0};
  std::atomic<int> popped{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto item = q.Pop()) {
        sum.fetch_add(*item);
        popped.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.Close();
  for (size_t i = kProducers; i < threads.size(); ++i) threads[i].join();

  const long n = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// ---- edge cases (live-update hardening) -------------------------------

TEST(StatsTest, EmptyInputIsSafeNotUb) {
  // These take caller-measured samples; empty must be a defined case
  // even under NDEBUG (previously assert-only -> sorted[0] UB).
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_EQ(Mean({}), 0.0);
  QuartileSummary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.median, 0.0);
  EXPECT_EQ(s.max, 0.0);
}

TEST(StatsTest, QuantileClampsQ) {
  std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_EQ(Quantile(v, -0.5), 1.0);
  EXPECT_EQ(Quantile(v, 1.5), 3.0);
}

TEST(LruCacheTest, GetPointerStaysValidAcrossUnrelatedPut) {
  // The value lives in a list node: inserting (even evicting another
  // key) must not move it. In-flight readers in the proximity cache
  // rely on the shared_ptr they copied, but the raw pointer contract
  // is pinned here: it dies only with its own entry.
  LruCache<int, std::string> cache(2);
  cache.Put(1, "one");
  cache.Put(2, "two");
  std::string* one = cache.Get(1);  // 1 most recent
  ASSERT_NE(one, nullptr);
  cache.Put(3, "three");  // evicts 2, not 1
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_EQ(*one, "one");
  EXPECT_EQ(cache.Get(1), one);
}

TEST(LruCacheTest, OverwriteAtCapacityDoesNotEvict) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);  // at capacity
  cache.Put(2, 21);  // overwrite: in-place, no eviction
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_TRUE(cache.Contains(1));
  ASSERT_NE(cache.Get(2), nullptr);
  EXPECT_EQ(*cache.Get(2), 21);
  // The overwrite refreshed 2's recency: the next insert evicts 1.
  cache.Put(3, 30);
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
}

TEST(BoundedQueueTest, PushBlockedOnFullQueueWokenByCloseReturnsFalse) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.TryPush(1));  // full
  std::atomic<bool> push_result{true};
  std::thread producer([&] { push_result.store(q.Push(2)); });
  // The producer is (about to be) blocked on not_full_; Close must
  // wake it and the refused item must not be admitted.
  q.Close();
  producer.join();
  EXPECT_FALSE(push_result.load());
  EXPECT_EQ(q.Pop().value(), 1);       // admitted work drains
  EXPECT_EQ(q.Pop(), std::nullopt);    // 2 was never admitted
}

TEST(BoundedQueueTest, DrainAfterClosePreservesFifo) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.TryPush(i));
  q.Close();
  for (int i = 0; i < 4; ++i) {
    auto item = q.Pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  EXPECT_EQ(q.Pop(), std::nullopt);
}

}  // namespace
}  // namespace s3
