// Session front-end (DESIGN.md §8): many concurrent clients multiplexed
// onto few pipelines through bounded inboxes, per-submission tickets, and
// routing. The centerpiece is a 64-client / 4-pipeline linearizability
// check: every transaction appends its identity to a transactionally
// maintained history log, and replaying the logged order through the
// sequential reference engine (tests/support/word_programs.hpp) must
// reproduce the exact final memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/runtime.hpp"
#include "core/session.hpp"
#include "stm/readpath.hpp"
#include "support/word_programs.hpp"

namespace {

using namespace tlstm;
using stm::word;

core::config small_cfg(unsigned threads, unsigned depth) {
  core::config cfg;
  cfg.num_threads = threads;
  cfg.spec_depth = depth;
  cfg.log2_table = 10;
  return cfg;
}

TEST(Session, SingleClientTicketsComplete) {
  core::runtime rt(small_cfg(2, 2));
  auto s = rt.open_session();
  EXPECT_EQ(s.pipelines(), 2u);
  std::vector<word> cells(16, 0);
  auto* mem = cells.data();
  std::vector<core::ticket> tickets;
  for (unsigned i = 0; i < 16; ++i) {
    tickets.push_back(s.submit_single([mem, i](core::task_ctx& c) {
      c.write(&mem[i], c.read(&mem[i]) + (i + 1));
    }));
  }
  for (auto& t : tickets) {
    t.wait();
    EXPECT_TRUE(t.done());
  }
  for (unsigned i = 0; i < 16; ++i) EXPECT_EQ(cells[i], i + 1);
  rt.stop();
}

TEST(Session, SubmitValidatesDecomposition) {
  core::runtime rt(small_cfg(1, 2));
  auto s = rt.open_session();
  EXPECT_THROW(s.submit({}), std::invalid_argument);
  std::vector<core::task_fn> three(3, [](core::task_ctx&) {});
  EXPECT_THROW(s.submit(std::move(three)), std::invalid_argument);
  rt.stop();
}

TEST(Session, MultiTaskTransactionsThroughSessions) {
  core::runtime rt(small_cfg(2, 3));
  auto s = rt.open_session();
  word shared[2] = {0, 0};
  std::vector<core::ticket> tickets;
  for (int i = 0; i < 30; ++i) {
    std::vector<core::task_fn> tasks;
    tasks.push_back([&shared](core::task_ctx& c) {
      c.write(&shared[0], c.read(&shared[0]) + 1);
    });
    tasks.push_back([&shared](core::task_ctx& c) {
      // Reads the sibling task's speculative value: intra-tx dependency.
      c.write(&shared[1], c.read(&shared[0]) * 2);
    });
    tickets.push_back(s.submit(std::move(tasks)));
  }
  for (auto& t : tickets) t.wait();
  EXPECT_EQ(shared[0], 30u);
  EXPECT_EQ(shared[1], shared[0] * 2);
  rt.stop();
}

TEST(Session, KeyedAffinityPreservesSubmissionOrder) {
  // All submissions of one key land on one pipeline in FIFO order, so the
  // last submitted write wins. (Round-robin gives no such guarantee.)
  core::runtime rt(small_cfg(4, 2));
  auto s = rt.open_session();
  word cell = 0;
  constexpr std::uint64_t n = 200;
  core::ticket last;
  for (std::uint64_t i = 1; i <= n; ++i) {
    last = s.submit_keyed(42, {[&cell, i](core::task_ctx& c) {
      (void)c.read(&cell);
      c.write(&cell, i);
    }});
  }
  last.wait();
  EXPECT_EQ(cell, n);
  rt.stop();
}

TEST(Session, BackpressureOnTinyInboxCompletes) {
  auto cfg = small_cfg(1, 2);
  cfg.session_inbox_capacity = 1;  // every burst overflows: clients park
  core::runtime rt(cfg);
  auto s = rt.open_session();
  constexpr unsigned n_clients = 4;
  constexpr std::uint64_t per_client = 50;
  std::vector<word> counters(n_clients, 0);
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < n_clients; ++c) {
    clients.emplace_back([&, c] {
      word* cell = &counters[c];
      std::vector<core::ticket> mine;
      for (std::uint64_t i = 0; i < per_client; ++i) {
        mine.push_back(s.submit_single([cell](core::task_ctx& t) {
          t.write(cell, t.read(cell) + 1);
        }));
      }
      for (auto& t : mine) t.wait();
    });
  }
  for (auto& t : clients) t.join();
  for (unsigned c = 0; c < n_clients; ++c) EXPECT_EQ(counters[c], per_client);
  rt.stop();
}

TEST(Session, SubmitAfterStopThrows) {
  core::runtime rt(small_cfg(1, 1));
  auto s = rt.open_session();
  s.submit_single([](core::task_ctx&) {}).wait();
  rt.stop();
  EXPECT_THROW(s.submit_single([](core::task_ctx&) {}), std::runtime_error);
  EXPECT_THROW(rt.open_session(), std::logic_error);
}

TEST(Session, StopDeliversQueuedSubmissions) {
  // Tickets issued before stop() must all complete by the time it returns.
  core::runtime rt(small_cfg(2, 2));
  auto s = rt.open_session();
  word cell = 0;
  std::vector<core::ticket> tickets;
  for (int i = 0; i < 40; ++i) {
    tickets.push_back(s.submit_single([&cell](core::task_ctx& c) {
      c.write(&cell, c.read(&cell) + 1);
    }));
  }
  rt.stop();
  for (auto& t : tickets) EXPECT_TRUE(t.done());
  EXPECT_EQ(cell, 40u);
}

// ---------------------------------------------------------------------------
// Batched submission (DESIGN.md §8.5)
// ---------------------------------------------------------------------------

TEST(SessionBatch, BatchExecutesInSubmissionOrder) {
  // One pipeline: the batch's transactions run FIFO, so the last write to a
  // shared cell wins and every running count is observed in order.
  core::runtime rt(small_cfg(1, 2));
  auto s = rt.open_session();
  word cell = 0;
  word order_ok = 1;
  constexpr std::uint64_t n = 100;
  std::vector<std::vector<core::task_fn>> txs;
  for (std::uint64_t i = 1; i <= n; ++i) {
    txs.push_back({[&cell, &order_ok, i](core::task_ctx& c) {
      if (c.read(&cell) != i - 1) c.write(&order_ok, 0);
      c.write(&cell, i);
    }});
  }
  auto tickets = s.submit_batch(std::move(txs));
  ASSERT_EQ(tickets.size(), n);
  for (auto& t : tickets) t.wait();
  for (auto& t : tickets) EXPECT_TRUE(t.done());
  EXPECT_EQ(cell, n);
  EXPECT_EQ(order_ok, 1u);
  rt.stop();
}

TEST(SessionBatch, SplitsOverBatchMaxAndCountsCells) {
  auto cfg = small_cfg(1, 2);
  cfg.session_batch_max = 4;  // 10 transactions -> cells of 4, 4, 2
  core::runtime rt(cfg);
  auto s = rt.open_session();
  word cell = 0;
  std::vector<std::vector<core::task_fn>> txs;
  for (int i = 0; i < 10; ++i) {
    txs.push_back({[&cell](core::task_ctx& c) { c.write(&cell, c.read(&cell) + 1); }});
  }
  for (auto& t : s.submit_batch(std::move(txs))) t.wait();
  EXPECT_EQ(cell, 10u);
  rt.stop();
  const auto stats = rt.aggregated_stats();
  EXPECT_EQ(stats.session_batches, 3u);
  EXPECT_EQ(stats.session_batch_txs, 10u);
}

TEST(SessionBatch, ValidatesWholeBatchBeforeEnqueuing) {
  core::runtime rt(small_cfg(1, 2));
  auto s = rt.open_session();
  word cell = 0;
  std::vector<std::vector<core::task_fn>> bad;
  bad.push_back({[&cell](core::task_ctx& c) { c.write(&cell, 1); }});
  bad.push_back({});  // invalid in the middle: nothing may enqueue
  EXPECT_THROW(s.submit_batch(std::move(bad)), std::invalid_argument);
  std::vector<std::vector<core::task_fn>> oversized;
  oversized.push_back(
      std::vector<core::task_fn>(3, [](core::task_ctx&) {}));  // > spec_depth
  EXPECT_THROW(s.submit_batch(std::move(oversized)), std::invalid_argument);
  EXPECT_THROW(s.submit_batch({}), std::invalid_argument);
  // The front stays healthy and the rejected prefix never ran.
  s.submit_single([&cell](core::task_ctx& c) { c.write(&cell, c.read(&cell) + 10); }).wait();
  EXPECT_EQ(cell, 10u);
  rt.stop();
}

// ---------------------------------------------------------------------------
// Async completion: ticket::then (DESIGN.md §8.5)
// ---------------------------------------------------------------------------

TEST(SessionThen, CallbacksLinearizeWithTheCommitJournal) {
  // One pipeline, commits recorded: the driver retires tickets in commit-
  // serial order, so the callback sequence must equal the journal's commit
  // order (and the submission order).
  auto cfg = small_cfg(1, 2);
  cfg.record_commits = true;
  core::runtime rt(cfg);
  auto s = rt.open_session();
  word cell = 0;
  constexpr std::uint64_t n = 50;
  std::vector<std::uint64_t> callback_order;  // driver-thread only
  std::vector<core::ticket> tickets;
  for (std::uint64_t i = 0; i < n; ++i) {
    tickets.push_back(s.submit_single([&cell](core::task_ctx& c) {
      c.write(&cell, c.read(&cell) + 1);
    }));
    tickets.back().then([&callback_order, i] { callback_order.push_back(i); });
  }
  for (auto& t : tickets) t.wait();
  rt.stop();  // joins the driver: callback_order is safely readable now
  ASSERT_EQ(callback_order.size(), n);
  for (std::uint64_t i = 0; i < n; ++i) EXPECT_EQ(callback_order[i], i);
  const auto journal = rt.thread(0).journal_snapshot().records;
  ASSERT_EQ(journal.size(), n);
  for (std::uint64_t i = 0; i < n; ++i) {
    // Single-task transactions: commit serial i+1 belongs to submission i.
    EXPECT_EQ(journal[i].tx_commit_serial, i + 1);
  }
  EXPECT_GE(rt.aggregated_stats().session_callbacks, n);
}

TEST(SessionThen, ThenThenWaitObserveTheSameCompletionEdge) {
  core::runtime rt(small_cfg(1, 1));
  auto s = rt.open_session();
  word cell = 0;
  std::atomic<int> seq{0};
  int first = 0, second = 0;
  auto t = s.submit_single([&cell](core::task_ctx& c) { c.write(&cell, 7); });
  t.then([&] { first = ++seq; });
  t.then([&] { second = ++seq; });
  t.wait();
  // Both callbacks ran (in registration order) before wait() returned.
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 2);
  EXPECT_EQ(cell, 7u);
  rt.stop();
}

TEST(SessionThen, RegisteredAfterCompletionRunsInline) {
  core::runtime rt(small_cfg(1, 1));
  auto s = rt.open_session();
  auto t = s.submit_single([](core::task_ctx&) {});
  t.wait();
  bool ran = false;
  t.then([&ran] { ran = true; });  // edge already passed: runs in this thread
  EXPECT_TRUE(ran);
  rt.stop();
  // Late registration after the runtime stopped is equally safe.
  bool late = false;
  t.then([&late] { late = true; });
  EXPECT_TRUE(late);
  EXPECT_TRUE(t.done());
}

TEST(SessionThen, CallbackExceptionIsRethrownByWait) {
  core::runtime rt(small_cfg(1, 2));
  auto s = rt.open_session();
  // Hold the pipeline on a blocker transaction so the target's callback is
  // registered before the driver can possibly retire it (FIFO pipeline:
  // the target cannot commit before the blocker finishes).
  std::atomic<bool> release{false};
  word cell = 0;
  auto blocker = s.submit_single([&release](core::task_ctx&) {
    while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  auto target = s.submit_single([&cell](core::task_ctx& c) { c.write(&cell, 1); });
  bool other_ran = false;
  target.then([] { throw std::runtime_error("callback boom"); });
  target.then([&other_ran] { other_ran = true; });
  release.store(true, std::memory_order_release);
  EXPECT_THROW(target.wait(), std::runtime_error);
  EXPECT_THROW(target.wait(), std::runtime_error);  // sticky, every wait
  EXPECT_TRUE(target.done());
  EXPECT_TRUE(other_ran);  // one throwing callback never starves the rest
  blocker.wait();
  // The transaction itself committed; the front keeps serving submissions.
  EXPECT_EQ(cell, 1u);
  s.submit_single([&cell](core::task_ctx& c) { c.write(&cell, 2); }).wait();
  EXPECT_EQ(cell, 2u);
  rt.stop();
  EXPECT_EQ(rt.aggregated_stats().session_callback_errors, 1u);
}

TEST(SessionThen, TicketsStaySafeAfterRuntimeStops) {
  // Ticket state is self-contained: wait()/done() after stop() (and even
  // after the session handle's front is gone) terminate immediately
  // instead of touching freed runtime memory.
  core::ticket t;
  EXPECT_FALSE(t.valid());
  {
    core::runtime rt(small_cfg(1, 1));
    auto s = rt.open_session();
    t = s.submit_single([](core::task_ctx&) {});
    rt.stop();
  }  // runtime destroyed
  EXPECT_TRUE(t.valid());
  EXPECT_TRUE(t.done());
  t.wait();  // completes without dereferencing the dead runtime
}

// ---------------------------------------------------------------------------
// 64 clients over 4 pipelines, linearizable against the sequential
// reference model. Every transaction (a) applies its seeded word program
// and (b) transactionally appends its identity to a history log guarded by
// a shared cursor. Serializability makes the history the linearization
// order; replaying it sequentially must reproduce the final memory exactly.
// ---------------------------------------------------------------------------

TEST(Session, SixtyFourClientsLinearizeAgainstReferenceModel) {
  constexpr unsigned n_clients = 64;
  constexpr std::uint64_t txs_per_client = 4;
  constexpr unsigned tasks_per_tx = 2;
  constexpr std::uint64_t total = n_clients * txs_per_client;
  const support::program_shape shape{32, 3, /*write_heavy=*/true};
  const std::uint64_t seed = 0xc11e9752ull;

  auto cfg = small_cfg(4, 3);
  cfg.session_inbox_capacity = 8;  // exercise backpressure too
  core::runtime rt(cfg);
  auto s = rt.open_session();

  std::vector<word> mem(shape.n_words, 0);
  word hist_next = 0;
  std::vector<word> hist(total, 0);
  word* mp = mem.data();
  word* hp = hist.data();
  word* hn = &hist_next;

  std::vector<std::thread> clients;
  clients.reserve(n_clients);
  for (unsigned c = 0; c < n_clients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<core::ticket> mine;
      for (std::uint64_t tx = 0; tx < txs_per_client; ++tx) {
        std::vector<core::task_fn> tasks;
        for (unsigned task = 0; task < tasks_per_tx; ++task) {
          const bool last = task == tasks_per_tx - 1;
          tasks.push_back([=](core::task_ctx& t) {
            support::apply_task(
                seed, c, tx, task, shape,
                [&](unsigned i) { return t.read(&mp[i]); },
                [&](unsigned i, word v) { t.write(&mp[i], v); });
            if (last) {
              // Transactional history append: the shared cursor makes the
              // commit order observable, at the price of total conflict.
              const word idx = t.read(hn);
              t.write(hn, idx + 1);
              t.write(&hp[idx], c * txs_per_client + tx + 1);
            }
          });
        }
        mine.push_back(s.submit(std::move(tasks)));
      }
      for (auto& t : mine) t.wait();
    });
  }
  for (auto& t : clients) t.join();
  rt.stop();

  ASSERT_EQ(hist_next, total);
  // The log is a permutation of every (client, tx) identity.
  std::vector<word> sorted = hist;
  std::sort(sorted.begin(), sorted.end());
  for (std::uint64_t i = 0; i < total; ++i) ASSERT_EQ(sorted[i], i + 1);

  // Sequential replay of the logged order == the reference model's memory.
  std::vector<word> ref(shape.n_words, 0);
  for (std::uint64_t i = 0; i < total; ++i) {
    const std::uint64_t id = hist[i] - 1;
    const unsigned c = static_cast<unsigned>(id / txs_per_client);
    const std::uint64_t tx = id % txs_per_client;
    support::apply_tx_sequential(ref, seed, c, tx, tasks_per_tx, shape);
  }
  EXPECT_EQ(mem, ref);
}

TEST(SessionLatency, CapturedStampsAreMonotone) {
  // config.capture_latency threads wall-clock stamps through the ticket's
  // life cycle (DESIGN.md §9): all four present and ordered submit <=
  // install <= commit <= callback once the ticket completed.
  core::config cfg;
  cfg.num_threads = 2;
  cfg.spec_depth = 2;
  cfg.log2_table = 10;
  cfg.capture_latency = true;
  core::runtime rt(cfg);
  auto s = rt.open_session();
  word w = 0;
  std::vector<core::ticket> tickets;
  for (int i = 0; i < 32; ++i) {
    tickets.push_back(s.submit_keyed(
        static_cast<std::uint64_t>(i),
        {[&w](core::task_ctx& c) { c.write(&w, c.read(&w) + 1); }}));
  }
  for (auto& t : tickets) t.wait();
  for (auto& t : tickets) {
    const core::ticket_latency l = t.latency();
    EXPECT_TRUE(l.complete());
    EXPECT_NE(l.submit_ns, 0u);
    EXPECT_LE(l.submit_ns, l.install_ns);
    EXPECT_LE(l.install_ns, l.commit_ns);
    EXPECT_LE(l.commit_ns, l.callback_ns);
  }
  rt.stop();
  EXPECT_EQ(rt.aggregated_stats().latency_samples, 32u);
}

// ---------------------------------------------------------------------------
// Read-only fast path (DESIGN.md §10)
// ---------------------------------------------------------------------------

TEST(SessionReadPath, ServesReadsInlineAtTheCommittedFrontier) {
  core::runtime rt(small_cfg(2, 2));
  auto s = rt.open_session();
  std::vector<word> cells(8, 0);
  word* mem = cells.data();
  std::vector<core::ticket> writes;
  for (unsigned i = 0; i < 8; ++i) {
    writes.push_back(s.submit_single(
        [mem, i](core::task_ctx& c) { c.write(&mem[i], i + 100); }));
  }
  for (auto& t : writes) t.wait();

  // The fast path never enters the commit pipeline: the ticket completes
  // with commit serial 0 and the read sees every prior committed write.
  std::vector<word> seen(8, 0);
  word* out = seen.data();
  core::ticket rd = s.submit_read({[mem, out](core::task_ctx& c) {
    for (unsigned i = 0; i < 8; ++i) out[i] = c.read(&mem[i]);
  }});
  rd.wait();
  EXPECT_TRUE(rd.done());
  EXPECT_EQ(rd.commit_serial(), 0u);
  for (unsigned i = 0; i < 8; ++i) EXPECT_EQ(seen[i], i + 100);

  // Multi-task read transactions take the fast path too. The spec_depth
  // cap still applies at submission — a fallback must fit the pipeline.
  word sum = 0;
  std::vector<core::task_fn> tasks;
  for (unsigned t = 0; t < 2; ++t) {
    tasks.push_back([mem, &sum](core::task_ctx& c) {
      for (unsigned i = 0; i < 8; ++i) sum += c.read(&mem[i]);
    });
  }
  core::ticket rd2 = s.submit_read_keyed(7, std::move(tasks));
  rd2.wait();
  EXPECT_EQ(rd2.commit_serial(), 0u);
  EXPECT_EQ(sum, 2u * (8 * 100 + 28));
  rt.stop();
  const util::stat_block st = rt.aggregated_stats();
  EXPECT_EQ(st.readpath_hits, 2u);
  EXPECT_EQ(st.readpath_fallbacks, 0u);
}

TEST(SessionReadPath, WritingReadFallsBackToTheFullPath) {
  core::runtime rt(small_cfg(1, 2));
  auto s = rt.open_session();
  word cell = 0;
  // Declared read-only but writes: the fast path hands it to the full
  // pipeline transparently — the write commits and the ticket carries a
  // real serial.
  core::ticket t = s.submit_read_single(
      [&cell](core::task_ctx& c) { c.write(&cell, c.read(&cell) + 7); });
  t.wait();
  EXPECT_TRUE(t.done());
  EXPECT_GT(t.commit_serial(), 0u);
  EXPECT_EQ(cell, 7u);
  rt.stop();
  const util::stat_block st = rt.aggregated_stats();
  EXPECT_EQ(st.readpath_hits, 0u);
  EXPECT_EQ(st.readpath_fallbacks, 1u);
}

TEST(SessionReadPath, KnobOffRoutesReadsThroughTheFullPath) {
  auto cfg = small_cfg(1, 2);
  cfg.read_path = false;
  core::runtime rt(cfg);
  auto s = rt.open_session();
  word cell = 41;
  word seen = 0;
  core::ticket t = s.submit_read_single(
      [&cell, &seen](core::task_ctx& c) { seen = c.read(&cell); });
  t.wait();
  EXPECT_GT(t.commit_serial(), 0u);  // full path: a real pipeline serial
  EXPECT_EQ(seen, 41u);
  rt.stop();
  const util::stat_block st = rt.aggregated_stats();
  EXPECT_EQ(st.readpath_hits, 0u);
  EXPECT_EQ(st.readpath_fallbacks, 0u);
}

TEST(SessionReadPath, ReadsInterleavedWithWritesSeeCommittedValues) {
  // Keyed writes to one cell interleaved with fast-path reads: every read
  // must observe one of the values the write sequence ever committed, and
  // reads submitted after a write's completion must see at least it.
  core::runtime rt(small_cfg(2, 2));
  auto s = rt.open_session();
  word cell = 0;
  for (word i = 1; i <= 50; ++i) {
    s.submit_keyed(3, {[&cell, i](core::task_ctx& c) {
      (void)c.read(&cell);
      c.write(&cell, i);
    }}).wait();
    word seen = 0;
    core::ticket rd = s.submit_read_single(
        [&cell, &seen](core::task_ctx& c) { seen = c.read(&cell); });
    rd.wait();
    EXPECT_EQ(seen, i);  // the write committed before the read began
  }
  rt.stop();
  EXPECT_EQ(rt.aggregated_stats().readpath_hits, 50u);
}

TEST(SessionReadPath, ExhaustedRetriesFallBackToTheFullPath) {
  core::runtime rt(small_cfg(1, 2));
  auto s = rt.open_session();
  word cell = 0;
  s.submit_single([&cell](core::task_ctx& c) { c.write(&cell, 42); }).wait();
  // A read that conflicts on every fast-path attempt: after exactly
  // readpath_attempt_cap failures the driver gives up and installs it down
  // the full task path, where it reads normally and commits.
  std::atomic<unsigned> runs{0};
  word seen = 0;
  core::ticket t = s.submit_read_single([&runs, &cell, &seen](core::task_ctx& c) {
    if (runs.fetch_add(1) < core::readpath_attempt_cap) throw stm::read_conflict{};
    seen = c.read(&cell);
  });
  t.wait();
  EXPECT_GT(t.commit_serial(), 0u);
  EXPECT_EQ(seen, 42u);
  EXPECT_EQ(runs.load(), core::readpath_attempt_cap + 1);
  rt.stop();
  const util::stat_block st = rt.aggregated_stats();
  EXPECT_EQ(st.readpath_retries, core::readpath_attempt_cap);
  EXPECT_EQ(st.readpath_fallbacks, 1u);
  EXPECT_EQ(st.readpath_hits, 0u);
}

TEST(SessionLatency, ReadTicketsCarryMonotoneStamps) {
  // Fast-path reads reuse the ticket latency plumbing with the §10
  // interpretation: install = inline execution began, commit = snapshot
  // validated. All four stamps present and ordered, and read completions
  // count latency samples like any other.
  core::config cfg;
  cfg.num_threads = 2;
  cfg.spec_depth = 2;
  cfg.log2_table = 10;
  cfg.capture_latency = true;
  core::runtime rt(cfg);
  auto s = rt.open_session();
  word w = 0;
  s.submit_single([&w](core::task_ctx& c) { c.write(&w, 9); }).wait();
  std::vector<core::ticket> tickets;
  for (int i = 0; i < 16; ++i) {
    tickets.push_back(s.submit_read_single(
        [&w](core::task_ctx& c) { (void)c.read(&w); }));
  }
  for (auto& t : tickets) t.wait();
  for (auto& t : tickets) {
    EXPECT_EQ(t.commit_serial(), 0u);
    const core::ticket_latency l = t.latency();
    EXPECT_TRUE(l.complete());
    EXPECT_NE(l.submit_ns, 0u);
    EXPECT_LE(l.submit_ns, l.install_ns);
    EXPECT_LE(l.install_ns, l.commit_ns);
    EXPECT_LE(l.commit_ns, l.callback_ns);
  }
  rt.stop();
  EXPECT_EQ(rt.aggregated_stats().latency_samples, 17u);
}

TEST(SessionLatency, CaptureOffLeavesStampsZero) {
  core::config cfg;
  cfg.num_threads = 1;
  cfg.spec_depth = 2;
  cfg.log2_table = 10;
  ASSERT_FALSE(cfg.capture_latency);  // off by default — zero-cost otherwise
  core::runtime rt(cfg);
  auto s = rt.open_session();
  word w = 0;
  auto t = s.submit_single([&w](core::task_ctx& c) { c.write(&w, c.read(&w) + 1); });
  t.wait();
  const core::ticket_latency l = t.latency();
  EXPECT_FALSE(l.complete());
  EXPECT_EQ(l.submit_ns, 0u);
  EXPECT_EQ(l.install_ns, 0u);
  EXPECT_EQ(l.commit_ns, 0u);
  EXPECT_EQ(l.callback_ns, 0u);
  rt.stop();
}

}  // namespace
