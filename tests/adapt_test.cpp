// Adaptive speculation-depth control (DESIGN.md §5a) and the virtual-time
// stall-accounting fixes:
//   * adapt_controller unit logic — epoch pricing, hysteresis, clamping
//   * runtime convergence — high conflict narrows to 1, conflict-free
//     traffic re-widens to full depth
//   * window-stall / drain-stall charging — a window-bound run's makespan
//     strictly exceeds an unbound one's, and drain time lands in the
//     submitter clock (and thus in runtime::makespan()).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/runtime.hpp"
#include "vt/adapt_controller.hpp"
#include "workloads/harness.hpp"

namespace {

using namespace tlstm;

// ---------------------------------------------------------------------------
// adapt_controller unit logic (pure, single-threaded, deterministic)
// ---------------------------------------------------------------------------

vt::adapt_params params(unsigned max_window, std::uint64_t interval = 4,
                        unsigned hysteresis = 2) {
  vt::adapt_params p;
  p.min_window = 1;
  p.max_window = max_window;
  p.interval_tasks = interval;
  p.shrink_ratio = 0.40;
  p.grow_ratio = 0.10;
  p.hysteresis_epochs = hysteresis;
  return p;
}

TEST(AdaptController, StartsWideOpen) {
  vt::adapt_controller c(params(6), vt::cost_model::calibrated_2012());
  EXPECT_EQ(c.effective_window(), 6u);
  EXPECT_EQ(c.epochs(), 0u);
  EXPECT_DOUBLE_EQ(c.mean_window(), 6.0);
}

TEST(AdaptController, PureWasteShrinksAfterHysteresisEpochs) {
  vt::adapt_controller c(params(4, /*interval=*/4, /*hysteresis=*/2),
                         vt::cost_model::calibrated_2012());
  // Epoch 1: all restarts → waste ratio 1.0 → first shrink vote.
  for (int i = 0; i < 4; ++i) c.record_restart(false, 0);
  EXPECT_EQ(c.effective_window(), 4u) << "one epoch must not move the window";
  EXPECT_EQ(c.epochs(), 1u);
  // Epoch 2: second consecutive vote → shrink.
  for (int i = 0; i < 4; ++i) c.record_restart(false, 0);
  EXPECT_EQ(c.effective_window(), 3u);
  EXPECT_EQ(c.window_shrinks(), 1u);
}

TEST(AdaptController, HysteresisStreakResetsOnCleanEpoch) {
  vt::adapt_controller c(params(4, 4, 2), vt::cost_model::calibrated_2012());
  for (int i = 0; i < 4; ++i) c.record_restart(false, 0);  // vote shrink
  for (int i = 0; i < 4; ++i) c.record_commit(0);          // vote grow → resets
  for (int i = 0; i < 4; ++i) c.record_restart(false, 0);  // vote shrink again
  EXPECT_EQ(c.effective_window(), 4u)
      << "alternating epochs must never accumulate into a move";
  EXPECT_EQ(c.window_shrinks(), 0u);
}

TEST(AdaptController, ShrinksClampAtOneAndGrowBackToMax) {
  vt::adapt_controller c(params(3, 4, 1), vt::cost_model::calibrated_2012());
  for (int e = 0; e < 8; ++e) {
    for (int i = 0; i < 4; ++i) c.record_restart(true, 10);
  }
  EXPECT_EQ(c.effective_window(), 1u);
  EXPECT_EQ(c.window_shrinks(), 2u) << "only real narrowings count";
  // Conflict-free epochs: returns to full depth, one step per epoch.
  for (int e = 0; e < 8; ++e) {
    for (int i = 0; i < 4; ++i) c.record_commit(0);
  }
  EXPECT_EQ(c.effective_window(), 3u);
  EXPECT_EQ(c.window_grows(), 2u);
}

TEST(AdaptController, MixedEpochInsideBandHoldsWindow) {
  // Pick a mix whose priced waste share lands between grow (0.10) and
  // shrink (0.40): with the calibrated model a restart prices 550 and a
  // commit 500, so 1 restart : 3 commits → 550/2050 ≈ 0.27.
  vt::adapt_controller c(params(4, 4, 1), vt::cost_model::calibrated_2012());
  for (int e = 0; e < 6; ++e) {
    c.record_restart(false, 0);
    for (int i = 0; i < 3; ++i) c.record_commit(0);
  }
  EXPECT_EQ(c.effective_window(), 4u);
  EXPECT_EQ(c.window_shrinks(), 0u);
  EXPECT_EQ(c.window_grows(), 0u);
}

TEST(AdaptController, ChainHopsAloneCanTriggerShrink) {
  // Deep windows tax every speculative read with chain traversal; enough
  // hops per committed task must register as waste even with zero restarts.
  vt::cost_model m = vt::cost_model::calibrated_2012();
  vt::adapt_controller c(params(4, 4, 1), m);
  // waste = hops * chain_hop(6); useful = 4 * 500. Ratio >= 0.40 needs
  // hops >= 223 per epoch.
  for (int i = 0; i < 4; ++i) c.record_commit(100);
  EXPECT_EQ(c.effective_window(), 3u);
}

TEST(AdaptController, PunishedGrowBacksOffExponentially) {
  // AIMD anti-flap: a widening that immediately storms again must not
  // oscillate — the clean streak required before the next widening grows.
  vt::adapt_controller c(params(2, /*interval=*/2, /*hysteresis=*/1),
                         vt::cost_model::calibrated_2012());
  auto storm_epoch = [&] { for (int i = 0; i < 2; ++i) c.record_restart(false, 0); };
  auto clean_epoch = [&] { for (int i = 0; i < 2; ++i) c.record_commit(0); };

  storm_epoch();  // w 2 -> 1, grow requirement 1 -> 2
  ASSERT_EQ(c.effective_window(), 1u);
  clean_epoch();  // streak 1 < 2
  ASSERT_EQ(c.effective_window(), 1u);
  clean_epoch();  // streak 2 -> grow (requirement back to 1)
  ASSERT_EQ(c.effective_window(), 2u);
  storm_epoch();  // punished: w -> 1, requirement 1 * 4 = 4
  ASSERT_EQ(c.effective_window(), 1u);
  for (int e = 0; e < 3; ++e) clean_epoch();
  EXPECT_EQ(c.effective_window(), 1u) << "3 clean epochs must not re-widen yet";
  clean_epoch();  // 4th consecutive clean epoch reaches the raised bar
  EXPECT_EQ(c.effective_window(), 2u);
}

TEST(AdaptController, MeanWindowIsEpochWeighted) {
  vt::adapt_controller c(params(2, 2, 1), vt::cost_model::calibrated_2012());
  for (int i = 0; i < 2; ++i) c.record_restart(false, 0);  // epoch at w=2 → shrink
  for (int i = 0; i < 2; ++i) c.record_commit(0);          // epoch at w=1 → grow
  EXPECT_EQ(c.epochs(), 2u);
  EXPECT_DOUBLE_EQ(c.mean_window(), 1.5);
}

// ---------------------------------------------------------------------------
// Runtime convergence
// ---------------------------------------------------------------------------

core::config adapt_cfg(unsigned depth) {
  core::config cfg;
  cfg.num_threads = 1;
  cfg.spec_depth = depth;
  cfg.log2_table = 12;
  cfg.adapt_window = true;
  cfg.adapt_interval_tasks = 16;
  return cfg;
}

TEST(AdaptRuntime, HighConflictConvergesToWindowOne) {
  core::config cfg = adapt_cfg(4);
  core::runtime rt(cfg);
  auto& th = rt.thread(0);
  // Every task self-aborts twice before succeeding: a sustained ≈2:1
  // restart:commit mix whose priced waste share (2·550 / (2·550 + 500) ≈
  // 0.69) sits far above the shrink threshold.
  for (int i = 0; i < 400; ++i) {
    auto aborts_left = std::make_shared<std::atomic<int>>(2);
    th.submit_single([aborts_left](core::task_ctx& c) {
      if (aborts_left->fetch_sub(1) > 0) c.abort_self();
    });
  }
  th.drain();
  rt.stop();
  const auto windows = rt.effective_windows();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0], 1u);
  const auto stats = rt.aggregated_stats();
  EXPECT_GE(stats.window_shrinks, 3u);  // 4 → 1
  EXPECT_EQ(stats.window_grows, 0u);
  const auto means = rt.mean_windows();
  ASSERT_EQ(means.size(), 1u);
  EXPECT_LT(means[0], 4.0);
}

TEST(AdaptRuntime, ConflictFreeRunReturnsToFullDepth) {
  core::config cfg = adapt_cfg(4);
  core::runtime rt(cfg);
  auto& th = rt.thread(0);
  // Phase 1 — forced conflicts shrink the window to 1.
  for (int i = 0; i < 300; ++i) {
    auto aborts_left = std::make_shared<std::atomic<int>>(2);
    th.submit_single([aborts_left](core::task_ctx& c) {
      if (aborts_left->fetch_sub(1) > 0) c.abort_self();
    });
  }
  th.drain();
  ASSERT_EQ(rt.effective_windows()[0], 1u);
  // With the window at 1, pin a transaction open: its successor sits at
  // ready outside the window, so its worker must register a deferral.
  std::atomic<bool> release{false};
  th.submit_single([&release](core::task_ctx&) {
    while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  th.submit_single([](core::task_ctx&) {});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.store(true, std::memory_order_release);
  th.drain();
  // Phase 2 — disjoint work: waste ratio 0 → the controller re-widens.
  // Long enough to clear the AIMD grow backoff accumulated by the three
  // phase-1 shrinks (16 + 8 + 4 = 28 epochs of 16 tasks).
  std::vector<stm::word> cells(1024, 0);
  for (int i = 0; i < 800; ++i) {
    stm::word* cell = &cells[static_cast<std::size_t>(i) % cells.size()];
    th.submit_single([cell](core::task_ctx& c) { c.write(cell, c.read(cell) + 1); });
  }
  th.drain();
  rt.stop();
  EXPECT_EQ(rt.effective_windows()[0], 4u);
  const auto stats = rt.aggregated_stats();
  EXPECT_GE(stats.window_grows, 3u);  // 1 → 4
  EXPECT_GE(stats.tasks_deferred, 1u)
      << "a shrunk window must actually have held tasks at ready";
}

TEST(AdaptRuntime, AdaptiveRunStaysCorrectUnderMultiTaskTransactions) {
  // A window of 1 with 3-task transactions: admission is transaction-
  // granular, so the commit-task must still run and results must match the
  // sequential semantics.
  core::config cfg = adapt_cfg(3);
  cfg.adapt_interval_tasks = 8;
  core::runtime rt(cfg);
  auto& th = rt.thread(0);
  stm::word counter = 0;
  for (int i = 0; i < 60; ++i) {
    std::vector<core::task_fn> fns;
    for (int k = 0; k < 3; ++k) {
      fns.push_back([&counter](core::task_ctx& c) {
        c.write(&counter, c.read(&counter) + 1);  // intra-tx WAW pressure
      });
    }
    th.submit(std::move(fns));
  }
  th.drain();
  rt.stop();
  EXPECT_EQ(counter, 180u);
  EXPECT_EQ(rt.aggregated_stats().tx_committed, 60u);
}

TEST(AdaptRuntime, HarnessReportsPerThreadWindows) {
  core::config cfg = adapt_cfg(3);
  cfg.num_threads = 2;
  auto r = wl::run_tlstm(cfg, 30, 1, [](unsigned, std::uint64_t) {
    std::vector<core::task_fn> fns;
    fns.push_back([](core::task_ctx& c) { c.work(50); });
    return fns;
  });
  ASSERT_EQ(r.final_windows.size(), 2u);
  ASSERT_EQ(r.mean_windows.size(), 2u);
  for (unsigned w : r.final_windows) {
    EXPECT_GE(w, 1u);
    EXPECT_LE(w, 3u);
  }
  // Static runs keep the vectors empty.
  core::config off = adapt_cfg(3);
  off.adapt_window = false;
  auto r2 = wl::run_tlstm(off, 5, 1, [](unsigned, std::uint64_t) {
    std::vector<core::task_fn> fns;
    fns.push_back([](core::task_ctx& c) { c.work(1); });
    return fns;
  });
  EXPECT_TRUE(r2.final_windows.empty());
  EXPECT_TRUE(r2.mean_windows.empty());
}

// ---------------------------------------------------------------------------
// Virtual-time stall accounting (the bugfix satellites)
// ---------------------------------------------------------------------------

// Zero-cost model + pure user work makes every virtual quantity below an
// exact function of the submitted programs: the only nonzero contributions
// are work() units, chained through stamped-load joins, plus the
// window_stall charges under test. Host scheduling cannot move them.
core::config stall_cfg(unsigned depth) {
  core::config cfg;
  cfg.num_threads = 1;
  cfg.spec_depth = depth;
  cfg.log2_table = 10;
  cfg.costs = vt::cost_model::zero();
  cfg.costs.window_stall = 64;
  return cfg;
}

vt::vtime independent_run_makespan(unsigned depth, int n_tx) {
  core::runtime rt(stall_cfg(depth));
  auto& th = rt.thread(0);
  // Fully independent transactions (each writes its own cell): no cross-tx
  // memory edge exists, so no schedule — including a sanitizer's — can
  // produce an abort, and every virtual quantity is an exact function of
  // the work units plus the stall charges under test.
  auto cells = std::make_shared<std::vector<stm::word>>(n_tx, 0);
  for (int i = 0; i < n_tx; ++i) {
    th.submit_single([cells, i](core::task_ctx& c) {
      c.work(1000);
      c.write(&(*cells)[static_cast<std::size_t>(i)], 1);
    });
  }
  th.drain();
  rt.stop();
  for (stm::word v : *cells) EXPECT_EQ(v, 1u);
  return rt.makespan();
}

TEST(StallAccounting, WindowBoundMakespanStrictlyExceedsUnbound) {
  constexpr int n_tx = 8;
  const vt::vtime bound = independent_run_makespan(1, n_tx);      // every submit stalls
  const vt::vtime unbound = independent_run_makespan(n_tx, n_tx); // slots never reused
  // Unbound: the 8 tasks overlap completely (8 virtual cores), one charged
  // drain stall. Bound: the single slot serializes the run AND each of the
  // 7 reuse waits now carries a charged window stall. Before the fix the
  // stalls were free and these makespans came out 8000 and 1000 — the
  // exact equalities pin the regression.
  EXPECT_EQ(unbound, 1000u + 64u);
  EXPECT_EQ(bound, 8 * 1000u + 7 * 64u + 64u);
  EXPECT_GT(bound, unbound);
}

TEST(StallAccounting, SubmitStallsAreCountedAndCharged) {
  core::runtime rt(stall_cfg(1));
  auto& th = rt.thread(0);
  for (int i = 0; i < 4; ++i) {
    th.submit_single([](core::task_ctx& c) { c.work(500); });
  }
  th.drain();
  rt.stop();
  const auto stats = rt.aggregated_stats();
  // Submits 2..4 each waited on the single slot; drain waited once.
  EXPECT_EQ(stats.window_stalls, 3u);
  EXPECT_EQ(stats.drain_stalls, 1u);
}

TEST(StallAccounting, DrainJoinsWorkerClockAndMakespanSeesSubmitter) {
  core::runtime rt(stall_cfg(2));
  auto& th = rt.thread(0);
  th.submit_single([](core::task_ctx& c) { c.work(5000); });
  th.drain();
  // The drain join carries the committing worker's clock (5000) into the
  // submitter, plus the charged stall: the submitter is now the maximum.
  EXPECT_EQ(th.clock().now, 5064u);
  rt.stop();
  EXPECT_EQ(rt.makespan(), 5064u);
  EXPECT_EQ(rt.aggregated_stats().drain_stalls, 1u);
}

TEST(StallAccounting, SecondDrainIsFree) {
  core::runtime rt(stall_cfg(2));
  auto& th = rt.thread(0);
  th.submit_single([](core::task_ctx& c) { c.work(100); });
  th.drain();
  const vt::vtime after_first = th.clock().now;
  th.drain();  // nothing outstanding: no join movement, no charge
  EXPECT_EQ(th.clock().now, after_first);
  rt.stop();
  EXPECT_EQ(rt.aggregated_stats().drain_stalls, 1u);
}

// ---------------------------------------------------------------------------
// Reported op counts (count_ops)
// ---------------------------------------------------------------------------

TEST(OpAccounting, RolledBackIncarnationsDoNotCount) {
  core::config cfg;
  cfg.num_threads = 1;
  cfg.spec_depth = 2;
  cfg.log2_table = 10;
  core::runtime rt(cfg);
  auto& th = rt.thread(0);
  auto aborts_left = std::make_shared<std::atomic<int>>(3);
  for (int i = 0; i < 10; ++i) {
    th.submit_single([aborts_left](core::task_ctx& c) {
      c.count_ops(5);
      if (aborts_left->fetch_sub(1) > 0) c.abort_self();
      aborts_left->store(0);
    });
  }
  th.drain();
  rt.stop();
  // Every committed incarnation reported exactly 5 ops, no matter how many
  // aborted attempts preceded it.
  EXPECT_EQ(rt.aggregated_stats().user_ops, 50u);
}

}  // namespace
