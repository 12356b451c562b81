// Unit tests for the virtual-time layer: Lamport-clock joins, stamped
// atomics, and cost-model presets.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "vt/cost_model.hpp"
#include "vt/vclock.hpp"

namespace {

using namespace tlstm::vt;

TEST(WorkerClock, AdvanceAndJoin) {
  worker_clock c;
  EXPECT_EQ(c.now, 0u);
  c.advance(10);
  EXPECT_EQ(c.now, 10u);
  c.join(5);  // older publication — no effect
  EXPECT_EQ(c.now, 10u);
  c.join(20);  // newer publication — jump forward
  EXPECT_EQ(c.now, 20u);
}

TEST(StampedAtomic, LoadJoinsWriterStamp) {
  stamped_atomic<int> x;
  worker_clock writer, reader;
  writer.advance(100);
  x.store(7, writer);
  EXPECT_EQ(x.load(reader), 7);
  EXPECT_GE(reader.now, 100u);  // causality: reader cannot be before writer
}

TEST(StampedAtomic, UnstampedLoadDoesNotJoin) {
  stamped_atomic<int> x;
  worker_clock writer;
  writer.advance(100);
  x.store(7, writer);
  EXPECT_EQ(x.load_unstamped(), 7);
  EXPECT_EQ(x.stamp(), 100u);
}

TEST(StampedAtomic, CasSuccessStamps) {
  stamped_atomic<int> x(1);
  worker_clock a;
  a.advance(50);
  int expected = 1;
  EXPECT_TRUE(x.compare_exchange(expected, 2, a));
  EXPECT_EQ(x.stamp(), 50u);
}

TEST(StampedAtomic, CasFailureJoinsHolderAndPreservesStamp) {
  stamped_atomic<int> x;
  worker_clock holder, loser;
  holder.advance(200);
  x.store(5, holder);
  loser.advance(10);
  int expected = 99;  // wrong → CAS fails
  EXPECT_FALSE(x.compare_exchange(expected, 7, loser));
  EXPECT_EQ(expected, 5);
  EXPECT_GE(loser.now, 200u);   // joined the holder's publication
  EXPECT_EQ(x.stamp(), 200u);   // holder's stamp untouched
}

TEST(StampedAtomic, FetchAddJoinsPreviousPublisher) {
  stamped_atomic<std::uint64_t> ctr;
  worker_clock a, b;
  a.advance(300);
  ctr.fetch_add(1, a);
  EXPECT_EQ(ctr.fetch_add(1, b), 1u);
  EXPECT_GE(b.now, 300u);  // commit-clock hand-off is a causal edge
}

TEST(StampedAtomic, CrossThreadMonotonicJoin) {
  // Writer publishes at ever-larger stamps; a racing reader's clock must end
  // at least as large as the stamp paired with the last value it read.
  stamped_atomic<std::uint64_t> x;
  std::atomic<bool> stop{false};
  std::thread wr([&] {
    worker_clock w;
    for (std::uint64_t i = 1; i <= 20000; ++i) {
      w.advance(1);
      x.store(i, w);
    }
    stop = true;
  });
  worker_clock r;
  std::uint64_t last_val = 0;
  while (!stop.load()) {
    const auto v = x.load(r);
    EXPECT_GE(v, last_val);  // values only grow
    EXPECT_GE(r.now, v);     // stamp == value here; join is conservative
    last_val = v;
  }
  wr.join();
}

TEST(CostModel, ZeroPresetIsFree) {
  const auto z = cost_model::zero();
  EXPECT_EQ(z.read_committed, 0u);
  EXPECT_EQ(z.commit_fixed, 0u);
  EXPECT_EQ(z.task_start, 0u);
  EXPECT_EQ(z.submit, 0u);
  EXPECT_EQ(z.user_work_unit, 1u);  // user work still priced
}

TEST(CostModel, CalibratedOrderings) {
  const cost_model m = cost_model::calibrated_2012();
  // Relative orderings the figures depend on: speculative reads cost more
  // than committed reads; task management dwarfs single accesses; aborts are
  // the most expensive event class.
  EXPECT_GT(m.read_speculative, m.read_committed);
  EXPECT_GT(m.read_committed, m.read_own_write);
  EXPECT_GT(m.task_start, m.write_word);
  EXPECT_GT(m.abort_fixed, m.commit_fixed);
  EXPECT_GT(m.fence_coordination, m.abort_fixed);
}

}  // namespace
