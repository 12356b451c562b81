// Stripe tables start as untouched zero pages (DESIGN.md §4.1): building a
// default-sized stm::lock_table (2^20 stripes, 32 MiB) or TL2 table (2^20
// cache-line stripes, 64 MiB) must neither write nor commit that memory,
// and every stripe must still read as a fresh one — version 0, no chain,
// stamp 0 — because the all-zero byte pattern is each entry's
// value-initialized state.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <new>

#include "stm/lock_table.hpp"
#include "stm/tl2.hpp"

namespace {

using namespace tlstm;
using stm::word;

constexpr unsigned default_log2 = 20;
constexpr std::size_t sample_count = 4096;

std::size_t resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return n == 2 ? resident * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)) : 0;
}

/// Word addresses spread over many stripes; never dereferenced.
const void* sample_addr(std::size_t i) {
  return reinterpret_cast<const void*>((i * 0x10007 + 1) * sizeof(word));
}

/// True iff `n` bytes at `p` are all zero.
bool all_zero(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    if (b[i] != 0) return false;
  }
  return true;
}

void expect_fresh(stm::lock_table& t) {
  for (std::size_t i = 0; i < sample_count; ++i) {
    stm::lock_pair& p = t.for_addr(sample_addr(i));
    ASSERT_EQ(p.r_lock.load_unstamped(), word{0}) << "sample " << i;
    ASSERT_EQ(p.w_lock.load_unstamped(), nullptr) << "sample " << i;
    ASSERT_EQ(p.r_lock.stamp(), vt::vtime{0}) << "sample " << i;
    ASSERT_EQ(p.w_lock.stamp(), vt::vtime{0}) << "sample " << i;
  }
}

void expect_fresh(stm::tl2_lock_table& t) {
  for (std::size_t i = 0; i < sample_count; ++i) {
    auto& lk = t.for_addr(sample_addr(i));
    ASSERT_EQ(lk.load_unstamped(), word{0}) << "sample " << i;
    ASSERT_EQ(lk.stamp(), vt::vtime{0}) << "sample " << i;
  }
}

TEST(LockTable, ValueInitializedEntriesAreAllZeroBytes) {
  // Construct over 0xff bytes so only what value-initialization writes
  // can read as zero.
  alignas(stm::lock_pair) unsigned char pair_buf[sizeof(stm::lock_pair)];
  std::memset(pair_buf, 0xff, sizeof pair_buf);
  auto* pair = new (pair_buf) stm::lock_pair{};
  EXPECT_TRUE(all_zero(&pair->r_lock, sizeof pair->r_lock));
  EXPECT_TRUE(all_zero(&pair->w_lock, sizeof pair->w_lock));
  EXPECT_EQ(sizeof(stm::lock_pair), sizeof pair->r_lock + sizeof pair->w_lock);

  using tl2_entry = stm::tl2_lock_table::entry;
  alignas(tl2_entry) unsigned char tl2_buf[sizeof(tl2_entry)];
  std::memset(tl2_buf, 0xff, sizeof tl2_buf);
  auto* e = new (tl2_buf) tl2_entry{};
  EXPECT_TRUE(all_zero(&e->lock, sizeof e->lock));
  EXPECT_FALSE(stm::tl2_lock_table::is_locked(0));
  EXPECT_EQ(stm::tl2_lock_table::version_of(0), word{0});
}

TEST(LockTable, DefaultSizedTablesCommitNoMemoryUntilTouched) {
  const std::size_t before = resident_bytes();
  ASSERT_GT(before, 0u) << "/proc/self/statm unreadable";
  stm::lock_table table(default_log2);
  stm::tl2_lock_table tl2(default_log2);
  const std::size_t after = resident_bytes();
  ASSERT_EQ(table.size(), std::size_t{1} << default_log2);
  ASSERT_EQ(tl2.size(), std::size_t{1} << default_log2);
  // 96 MiB of stripes reserved; building them must cost well under 1 MB.
  EXPECT_LT(after - std::min(after, before), std::size_t{1} << 20)
      << "VmRSS " << before << " -> " << after << " bytes";
  expect_fresh(table);
  expect_fresh(tl2);
}

TEST(LockTable, RebuiltTableIsZeroAgain) {
  vt::worker_clock clk;
  clk.now = 77;
  static stm::write_entry head;
  {
    stm::lock_table table(default_log2);
    stm::lock_pair& p = table.for_addr(sample_addr(3));
    p.r_lock.store(123, clk);
    p.w_lock.store(&head, clk);
    ASSERT_EQ(p.r_lock.load_unstamped(), word{123});
    ASSERT_EQ(p.w_lock.stamp(), vt::vtime{77});
  }
  {
    stm::tl2_lock_table tl2(default_log2);
    tl2.for_addr(sample_addr(3)).store(stm::tl2_lock_table::make(9, true), clk);
  }
  stm::lock_table table(default_log2);
  stm::tl2_lock_table tl2(default_log2);
  expect_fresh(table);
  expect_fresh(tl2);
}

}  // namespace
