// Elastic pipeline topology (DESIGN.md §11): grow/shrink of the active
// pipeline set with zero-drop drain/handoff. The suite drives resizes
// manually (config.topo_interval_us = 0 keeps the controller off, so every
// transition is deterministic) and checks the three load-bearing promises:
// every ticket admitted before/during a shrink completes (zero drops), a
// key's submission order survives arbitrary grow/shrink storms (the resize
// fence), and the dumped journal + placement + topology history satisfy the
// epoch-aware offline checker. The last test turns the controller on and
// watches it grow under backlog and shrink when idle.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/runtime.hpp"
#include "core/session.hpp"
#include "trace/journal.hpp"

namespace {

using namespace tlstm;
using stm::word;

// Written concurrently by reader tasks on several drivers — atomic, so the
// sink itself isn't a (TSan-visible) race.
std::atomic<word> read_sink{0};

core::config elastic_cfg(unsigned threads, unsigned min_pipes) {
  core::config cfg;
  cfg.num_threads = threads;
  cfg.spec_depth = 2;
  cfg.log2_table = 10;
  cfg.elastic = true;
  cfg.min_pipelines = min_pipes;
  cfg.topo_interval_us = 0;  // manual resizes only — deterministic tests
  return cfg;
}

TEST(Topology, ManualResizeWalksWidthsAndHistory) {
  core::runtime rt(elastic_cfg(4, 1));
  auto s = rt.open_session();
  EXPECT_EQ(s.pipelines(), 4u);        // static shell: all pipes exist
  EXPECT_EQ(s.active_pipelines(), 1u); // but only the min prefix is live
  EXPECT_EQ(s.topology_epoch(), 0u);

  EXPECT_TRUE(s.resize(4));
  EXPECT_EQ(s.active_pipelines(), 4u);
  EXPECT_EQ(s.topology_epoch(), 1u);

  EXPECT_FALSE(s.resize(4));  // no-op: width unchanged
  EXPECT_EQ(s.topology_epoch(), 1u);

  EXPECT_TRUE(s.resize(2));
  EXPECT_TRUE(s.resize(1));
  EXPECT_EQ(s.active_pipelines(), 1u);
  EXPECT_EQ(s.topology_epoch(), 3u);

  // Out-of-range targets clamp to [min_pipelines, num_threads].
  EXPECT_TRUE(s.resize(64));
  EXPECT_EQ(s.active_pipelines(), 4u);
  EXPECT_TRUE(s.resize(0));
  EXPECT_EQ(s.active_pipelines(), 1u);

  const auto hist = s.topology_history();
  ASSERT_EQ(hist.size(), 6u);
  EXPECT_EQ(hist[0], (std::pair<std::uint64_t, unsigned>{0, 1}));
  EXPECT_EQ(hist[1], (std::pair<std::uint64_t, unsigned>{1, 4}));
  EXPECT_EQ(hist[2], (std::pair<std::uint64_t, unsigned>{2, 2}));
  EXPECT_EQ(hist[3], (std::pair<std::uint64_t, unsigned>{3, 1}));
  EXPECT_EQ(hist[4], (std::pair<std::uint64_t, unsigned>{4, 4}));
  EXPECT_EQ(hist[5], (std::pair<std::uint64_t, unsigned>{5, 1}));
  rt.stop();

  const auto stats = rt.aggregated_stats();
  EXPECT_EQ(stats.topo_grows, 2u);
  EXPECT_EQ(stats.topo_shrinks, 3u);
}

TEST(Topology, SubmissionsFlowAtEveryWidth) {
  core::runtime rt(elastic_cfg(4, 1));
  auto s = rt.open_session();
  word cells[4] = {0, 0, 0, 0};
  for (unsigned width : {1u, 3u, 4u, 2u, 1u}) {
    s.resize(width);
    EXPECT_EQ(s.active_pipelines(), width);
    std::vector<core::ticket> tickets;
    for (unsigned i = 0; i < 32; ++i) {
      word* cell = &cells[i % 4];
      tickets.push_back(s.submit_keyed(i % 8, {[cell](core::task_ctx& c) {
        c.write(cell, c.read(cell) + 1);
      }}));
    }
    for (auto& t : tickets) t.wait();
  }
  EXPECT_EQ(cells[0] + cells[1] + cells[2] + cells[3], 5u * 32u);
  rt.stop();
}

// The zero-drop promise: tickets admitted before and during a shrink all
// complete, and the post-run journal dump (real placements + topology
// history) passes the epoch-aware offline checker — placement per epoch,
// serial density across retire/revive, request<->commit bijection, per-key
// FIFO through the route moves.
TEST(Topology, ResizeStormJournalPassesEpochAwareChecker) {
  auto cfg = elastic_cfg(4, 1);
  cfg.record_commits = true;
  core::runtime rt(cfg);
  auto s = rt.open_session();
  s.resize(4);

  constexpr unsigned n_keys = 16;
  constexpr unsigned n_reqs = 400;
  std::vector<word> mem(n_keys, 0);
  word* mp = mem.data();

  std::vector<trace::trace_request> trace;
  std::vector<core::ticket> tickets;
  trace.reserve(n_reqs);
  tickets.reserve(n_reqs);
  // Single-threaded submission in trace order (the checker reads the trace
  // as the submission order), resizing every 50 requests so the run spans
  // many epochs and real key moves.
  const unsigned widths[] = {4, 2, 1, 3, 4, 1, 2, 4};
  for (unsigned i = 0; i < n_reqs; ++i) {
    if (i % 50 == 0) s.resize(widths[(i / 50) % 8]);
    const std::uint64_t key = (i * 7) % n_keys;
    const unsigned tasks = 1 + (i % 2);
    std::vector<core::task_fn> fns;
    for (unsigned t = 0; t < tasks; ++t) {
      word* cell = &mp[key];
      fns.push_back([cell](core::task_ctx& c) {
        c.write(cell, c.read(cell) + 1);
      });
    }
    trace.push_back(trace::trace_request{i, key, 0, tasks, 1, false});
    tickets.push_back(s.submit_keyed(key, std::move(fns)));
  }
  for (auto& t : tickets) t.wait();

  trace::journal_dump dump;
  dump.pipelines = rt.num_threads();
  dump.topology = s.topology_history();
  EXPECT_GE(dump.topology.size(), 8u);
  rt.stop();
  dump.journals.resize(dump.pipelines);
  for (unsigned p = 0; p < dump.pipelines; ++p) {
    dump.journals[p] = rt.thread(p).journal_snapshot().records;
  }
  for (unsigned i = 0; i < n_reqs; ++i) {
    dump.requests.push_back(trace::request_placement{
        i, trace[i].key, tickets[i].pipeline(), tickets[i].commit_serial(),
        trace[i].tasks, tickets[i].route_epoch()});
  }
  const trace::check_result res = trace::check_journal(trace, dump);
  EXPECT_TRUE(res.ok) << res.diagnostic;

  // Every submission also took effect exactly once (zero drops, zero
  // duplicates) — the memory deltas add up.
  word total = 0;
  for (word w : mem) total += w;
  word expect = 0;
  for (const auto& t : trace) expect += t.tasks;
  EXPECT_EQ(total, expect);
}

// Per-key FIFO through a concurrent grow/shrink storm: each client hammers
// its own keys with last-write-wins updates while the main thread resizes
// continuously. If a resize ever reordered a key's submissions, a stale
// value would overwrite a newer one and the final cell would not hold the
// last submitted sequence number.
TEST(Topology, GrowShrinkStormPreservesPerKeyFifo) {
  core::runtime rt(elastic_cfg(4, 1));
  auto s = rt.open_session();
  constexpr unsigned n_clients = 4;
  constexpr unsigned keys_per_client = 4;
  constexpr std::uint64_t per_key = 60;
  std::vector<word> cells(n_clients * keys_per_client, 0);

  std::atomic<bool> stop_resizer{false};
  std::thread resizer([&] {
    unsigned i = 0;
    const unsigned widths[] = {1, 4, 2, 3};
    while (!stop_resizer.load(std::memory_order_acquire)) {
      s.resize(widths[i++ % 4]);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < n_clients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<core::ticket> mine;
      for (std::uint64_t i = 1; i <= per_key; ++i) {
        for (unsigned k = 0; k < keys_per_client; ++k) {
          const std::uint64_t key = c * keys_per_client + k;
          word* cell = &cells[key];
          mine.push_back(s.submit_keyed(key, {[cell, i](core::task_ctx& t) {
            (void)t.read(cell);
            t.write(cell, i);
          }}));
        }
      }
      for (auto& t : mine) t.wait();
    });
  }
  for (auto& t : clients) t.join();
  stop_resizer.store(true, std::memory_order_release);
  resizer.join();
  rt.stop();
  for (word w : cells) EXPECT_EQ(w, per_key);
}

TEST(Topology, PipelineForKeyAgreesWithTicketPlacementPerEpoch) {
  core::runtime rt(elastic_cfg(4, 1));
  auto s = rt.open_session();
  word sink = 0;
  for (unsigned width : {1u, 2u, 3u, 4u, 2u}) {
    s.resize(width);
    const std::uint64_t epoch = s.topology_epoch();
    for (std::uint64_t key = 0; key < 32; ++key) {
      // No resize is concurrent here, so the snapshot route and the
      // ticket's stamped placement must agree — and both must match the
      // public hash contract the offline checkers reproduce.
      const unsigned want = s.pipeline_for_key(key);
      EXPECT_EQ(want, static_cast<unsigned>(core::session_route_hash(key) %
                                            s.active_pipelines()));
      auto tk = s.submit_keyed(key, {[&sink](core::task_ctx& c) {
        c.write(&sink, c.read(&sink) + 1);
      }});
      tk.wait();
      EXPECT_EQ(tk.pipeline(), want);
      EXPECT_EQ(tk.route_epoch(), epoch);
    }
  }
  rt.stop();
}

// Resize hammer concurrent with batched writers AND fast-path reads: the
// TSan-relevant interleaving soup (parity pusher counters, inbox close,
// driver retire/revive, fence park/wake all racing). Correctness check is
// the batch/read contract itself: batches apply atomically in order per
// key, reads always observe a committed prefix (a multiple of the batch
// delta).
TEST(Topology, ResizeHammerWithBatchesAndReads) {
  core::runtime rt(elastic_cfg(4, 1));
  auto s = rt.open_session();
  constexpr unsigned n_keys = 4;
  constexpr unsigned rounds = 30;
  constexpr unsigned batch_n = 8;
  std::vector<word> cells(n_keys, 0);

  std::atomic<bool> stop_resizer{false};
  std::thread resizer([&] {
    unsigned i = 0;
    const unsigned widths[] = {4, 1, 2, 4, 1, 3};
    while (!stop_resizer.load(std::memory_order_acquire)) {
      s.resize(widths[i++ % 6]);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> workers;
  for (unsigned k = 0; k < n_keys; ++k) {
    workers.emplace_back([&, k] {
      word* cell = &cells[k];
      for (unsigned r = 0; r < rounds; ++r) {
        std::vector<std::vector<core::task_fn>> txs;
        for (unsigned b = 0; b < batch_n; ++b) {
          txs.push_back({[cell](core::task_ctx& c) {
            c.write(cell, c.read(cell) + 1);
          }});
        }
        auto tks = s.submit_batch_keyed(k, std::move(txs));
        auto rd = s.submit_read_keyed(k, {[cell](core::task_ctx& c) {
          read_sink = c.read(cell);
        }});
        for (auto& t : tks) t.wait();
        rd.wait();
      }
    });
  }
  for (auto& t : workers) t.join();
  stop_resizer.store(true, std::memory_order_release);
  resizer.join();
  rt.stop();
  for (word w : cells) EXPECT_EQ(w, static_cast<word>(rounds) * batch_n);
}

// The controller itself (config.topo_interval_us > 0): sustained backlog
// must grow the active set, and a quiesced runtime must shrink back to
// min_pipelines — both within generous wall-clock bounds so the test stays
// robust on a loaded single-core CI host.
TEST(Topology, ControllerGrowsUnderLoadAndShrinksWhenIdle) {
  auto cfg = elastic_cfg(4, 1);
  cfg.topo_interval_us = 1000;
  cfg.topo_grow_depth = 1.0;
  cfg.topo_shrink_depth = 0.25;
  cfg.topo_hysteresis = 2;
  core::runtime rt(cfg);
  auto s = rt.open_session();
  ASSERT_EQ(s.active_pipelines(), 1u);

  constexpr unsigned n_keys = 8;
  std::vector<word> cells(n_keys, 0);
  std::atomic<bool> stop_load{false};
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      std::vector<core::ticket> window;
      std::uint64_t i = 0;
      while (!stop_load.load(std::memory_order_acquire)) {
        const unsigned k = (c * 4 + i++) % n_keys;
        word* cell = &cells[k];
        window.push_back(s.submit_keyed(k, {[cell](core::task_ctx& t) {
          t.write(cell, t.read(cell) + 1);
        }}));
        if (window.size() >= 64) {  // keep a backlog queued, bounded
          for (auto& t : window) t.wait();
          window.clear();
        }
      }
      for (auto& t : window) t.wait();
    });
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (s.active_pipelines() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const unsigned grown_to = s.active_pipelines();
  stop_load.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  EXPECT_GE(grown_to, 2u) << "controller never grew under sustained backlog";

  while (s.active_pipelines() > 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(s.active_pipelines(), 1u) << "controller never shrank after the lull";
  rt.stop();
  const auto stats = rt.aggregated_stats();
  EXPECT_GE(stats.topo_grows, 1u);
  EXPECT_GE(stats.topo_shrinks, 1u);
}

TEST(Topology, ValidatesElasticConfig) {
  auto bad = elastic_cfg(2, 0);
  EXPECT_THROW(core::runtime{bad}, std::invalid_argument);
  bad = elastic_cfg(2, 3);  // min_pipelines > num_threads
  EXPECT_THROW(core::runtime{bad}, std::invalid_argument);
  bad = elastic_cfg(2, 1);
  bad.topo_grow_depth = 0.2;  // dead zone inverted
  bad.topo_shrink_depth = 0.5;
  EXPECT_THROW(core::runtime{bad}, std::invalid_argument);
  bad = elastic_cfg(2, 1);
  bad.topo_hysteresis = 0;
  EXPECT_THROW(core::runtime{bad}, std::invalid_argument);
}

}  // namespace
