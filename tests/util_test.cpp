// Unit tests for the utility layer: RNG determinism, chunked_vector address
// stability, epoch-based reclamation, statistics accumulation.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/cache.hpp"
#include "util/chunked_vector.hpp"
#include "util/epoch.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace tlstm::util;

TEST(Rng, DeterministicPerSeedAndStream) {
  xoshiro256 a(42, 0), b(42, 0), c(42, 1);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    EXPECT_NE(va, c.next());  // astronomically unlikely to collide repeatedly
  }
}

TEST(Rng, BoundsRespected) {
  xoshiro256 r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    const auto v = r.next_range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, PercentExtremes) {
  xoshiro256 r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(r.next_percent(0));
    EXPECT_TRUE(r.next_percent(100));
  }
}

TEST(Rng, RoughUniformity) {
  xoshiro256 r(123);
  int buckets[10] = {};
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) buckets[r.next_below(10)]++;
  for (int b : buckets) {
    EXPECT_GT(b, n / 10 - n / 50);
    EXPECT_LT(b, n / 10 + n / 50);
  }
}

TEST(ChunkedVector, AddressesStableAcrossGrowth) {
  chunked_vector<int, 4> v;
  std::vector<int*> addrs;
  for (int i = 0; i < 1000; ++i) {
    int& slot = v.emplace_back();
    slot = i;
    addrs.push_back(&slot);
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(*addrs[i], i);
    EXPECT_EQ(&v[i], addrs[i]);
  }
}

TEST(ChunkedVector, ClearRetainsMemory) {
  chunked_vector<int, 8> v;
  for (int i = 0; i < 64; ++i) v.emplace_back() = i;
  int* first = &v[0];
  v.clear();
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
  v.emplace_back() = 99;
  EXPECT_EQ(&v[0], first);  // type-stability: same storage reused
}

TEST(ChunkedVector, PopBackAndBack) {
  chunked_vector<int, 8> v;
  v.emplace_back() = 1;
  v.emplace_back() = 2;
  EXPECT_EQ(v.back(), 2);
  v.pop_back();
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v.back(), 1);
}

TEST(ChunkedVector, IterationOrders) {
  chunked_vector<int, 4> v;
  for (int i = 0; i < 10; ++i) v.emplace_back() = i;
  std::vector<int> fwd, rev;
  v.for_each([&](int x) { fwd.push_back(x); });
  v.for_each_reverse([&](int x) { rev.push_back(x); });
  ASSERT_EQ(fwd.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fwd[i], i);
    EXPECT_EQ(rev[i], 9 - i);
  }
}

TEST(Epoch, AdvanceBlockedByStalePin) {
  epoch_domain dom;
  const auto p = dom.register_participant();
  dom.pin(p);
  const auto e0 = dom.current();
  dom.try_advance();
  EXPECT_EQ(dom.current(), e0 + 1);  // pinned at current → advance allowed
  // p still pinned at e0; a second advance must now be blocked.
  EXPECT_EQ(dom.try_advance(), e0 + 1);
  dom.unpin(p);
  EXPECT_EQ(dom.try_advance(), e0 + 2);
  dom.unregister_participant(p);
}

TEST(Epoch, SafeBeforeTracksOldestPin) {
  epoch_domain dom;
  const auto a = dom.register_participant();
  const auto b = dom.register_participant();
  dom.pin(a);
  dom.try_advance();
  dom.pin(b);  // b pins at a newer epoch
  EXPECT_EQ(dom.safe_before(), dom.current() - 1);  // a's old pin dominates
  dom.unpin(a);
  EXPECT_EQ(dom.safe_before(), dom.current());
  dom.unpin(b);
  dom.unregister_participant(a);
  dom.unregister_participant(b);
}

struct counting_obj {
  static inline std::atomic<int> destroyed{0};
  ~counting_obj() { destroyed.fetch_add(1); }
};

TEST(Epoch, ReclaimerHonorsGrace) {
  counting_obj::destroyed = 0;
  epoch_domain dom;
  object_pool<counting_obj> pool;
  reclaimer rec(dom);
  const auto p = dom.register_participant();
  dom.pin(p);
  auto* obj = pool.construct();
  rec.retire(obj, &object_pool<counting_obj>::pool_deleter, &pool);
  dom.try_advance();  // p observed the retire epoch → advance ok
  rec.collect();
  EXPECT_EQ(counting_obj::destroyed.load(), 0);  // p still pinned at old epoch
  dom.unpin(p);
  dom.try_advance();
  dom.try_advance();
  rec.collect();
  EXPECT_EQ(counting_obj::destroyed.load(), 1);
  dom.unregister_participant(p);
}

TEST(Epoch, FlushAllDrains) {
  counting_obj::destroyed = 0;
  epoch_domain dom;
  object_pool<counting_obj> pool;
  {
    reclaimer rec(dom);
    for (int i = 0; i < 5; ++i) {
      rec.retire(pool.construct(), &object_pool<counting_obj>::pool_deleter, &pool);
    }
    EXPECT_EQ(rec.pending(), 5u);
  }  // destructor flushes
  EXPECT_EQ(counting_obj::destroyed.load(), 5);
}

TEST(Epoch, PoolRecyclesThroughFreeList) {
  object_pool<int> pool(16);
  void* a = pool.allocate_raw();
  pool.deallocate_raw(a);
  void* b = pool.allocate_raw();
  EXPECT_EQ(a, b);  // LIFO free list reuse
}

TEST(Epoch, ConcurrentPinUnpinAdvance) {
  epoch_domain dom;
  std::atomic<bool> stop{false};
  std::vector<std::thread> ts;
  for (int i = 0; i < 4; ++i) {
    ts.emplace_back([&] {
      const auto p = dom.register_participant();
      while (!stop.load(std::memory_order_relaxed)) {
        dom.pin(p);
        dom.try_advance();
        dom.unpin(p);
      }
      dom.unregister_participant(p);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop = true;
  for (auto& t : ts) t.join();
  EXPECT_GT(dom.current(), 1u);  // progress happened
}

TEST(Stats, AccumulateSumsEveryField) {
  stat_block a, b;
  a.tx_committed = 3;
  a.abort_war = 2;
  a.reads_committed = 10;
  b.tx_committed = 4;
  b.abort_war = 1;
  b.reads_committed = 5;
  a.accumulate(b);
  EXPECT_EQ(a.tx_committed, 7u);
  EXPECT_EQ(a.abort_war, 3u);
  EXPECT_EQ(a.reads_committed, 15u);
}

TEST(Stats, AbortsTotal) {
  stat_block s;
  s.abort_war = 1;
  s.abort_waw_past_running = 2;
  s.abort_waw_signalled = 3;
  s.abort_cm = 4;
  s.abort_validation = 5;
  s.abort_tx_inter = 6;
  s.abort_fence = 7;
  EXPECT_EQ(s.aborts_total(), 28u);
}

TEST(Stats, EveryListedFieldAccumulatesAndPrints) {
  // Distinct values per field, so a field summed into or printed as another
  // one shows up as a wrong value.
  stat_block a, b;
  std::uint64_t i = 0;
#define SET_FIELD(name) \
  ++i;                  \
  a.name = i;           \
  b.name = 1000 * i;
  TLSTM_STAT_FIELDS(SET_FIELD)
#undef SET_FIELD
  a.accumulate(b);

  std::set<std::string> printed;
  std::istringstream words(to_string(a));
  for (std::string w; words >> w;) printed.insert(w);
  EXPECT_EQ(printed.size(), i);
  i = 0;
#define CHECK_FIELD(name)                                                      \
  ++i;                                                                         \
  EXPECT_EQ(a.name, 1001 * i) << #name;                                        \
  EXPECT_EQ(printed.count(#name "=" + std::to_string(1001 * i)), 1u) << #name;
  TLSTM_STAT_FIELDS(CHECK_FIELD)
#undef CHECK_FIELD
}

TEST(Padding, PaddedIsolatesCacheLines) {
  static_assert(sizeof(padded<int>) >= cache_line_size);
  static_assert(alignof(padded<int>) == cache_line_size);
  padded<int> p(7);
  EXPECT_EQ(*p, 7);
  *p = 9;
  EXPECT_EQ(p.value, 9);
}

}  // namespace
