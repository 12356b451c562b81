// The TLSTM runtime facade (paper §3): a unified STM+TLS middleware.
//
// Usage sketch (see examples/quickstart.cpp):
//
//   tlstm::core::config cfg;
//   cfg.num_threads = 2; cfg.spec_depth = 3;
//   tlstm::core::runtime rt(cfg);
//   auto& th = rt.thread(0);                   // one submitter per user-thread
//   th.submit({task1, task2, task3});          // one user-transaction, 3 tasks
//   th.drain();                                // wait until everything commits
//
// Each user-thread owns SPECDEPTH worker threads; worker w executes the
// serials congruent to w (mod depth), which realizes the paper's
// owners[serial mod SPECDEPTH] slot discipline and its speculation window.
//
// Many-client front-end (DESIGN.md §8): runtime::open_session() multiplexes
// any number of application threads onto the fixed pipelines through
// bounded per-pipeline inboxes — see core/session.hpp.
//
// Internally the runtime is three layers (this PR's split): the scheduler
// (this file + runtime.cpp — worker loops, parked waiting, window
// admission), the commit pipeline (core/commit.*) and the contention
// manager (core/contention.*), all communicating through the narrow
// task_env interface.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/commit.hpp"
#include "core/config.hpp"
#include "core/contention.hpp"
#include "core/task.hpp"
#include "core/thread_state.hpp"
#include "stm/lock_table.hpp"
#include "util/epoch.hpp"
#include "util/rng.hpp"
#include "util/spin.hpp"
#include "util/stats.hpp"
#include "vt/adapt_controller.hpp"
#include "vt/vclock.hpp"

namespace tlstm::core {

class runtime;
class session;
class session_front;

/// Submission handle for one user-thread. Not thread-safe: exactly one
/// application thread drives each user_thread (that thread *is* the
/// user-thread of the paper's model; the runtime parallelizes it). For
/// many concurrent clients, use runtime::open_session() instead.
class user_thread {
 public:
  /// Submits one user-transaction decomposed into `tasks` (1..spec_depth
  /// closures, program order). Returns once all tasks are installed — which
  /// may pipeline far ahead of execution (speculative future transactions).
  void submit(std::vector<task_fn> tasks);
  void submit_single(task_fn fn);

  /// Blocks until every submitted transaction has committed.
  void drain();

  /// Submit + drain: run one transaction to completion.
  void execute(std::vector<task_fn> tasks) {
    submit(std::move(tasks));
    drain();
  }

  vt::worker_clock& clock() noexcept { return clock_; }
  std::uint64_t submitted_serials() const noexcept { return next_serial_ - 1; }
  /// Submitter-side counters (window/drain stalls, wait spins); folded into
  /// runtime::aggregated_stats().
  const util::stat_block& stats() const noexcept { return stats_; }
  /// SPECDEPTH of the owning runtime — the maximum tasks per transaction
  /// (decomposition helpers clamp their chunk counts to this).
  unsigned spec_depth() const noexcept;
  /// The thread's current effective speculation window (DESIGN.md §5a):
  /// the adaptive controller's window when config.adapt_window is on, else
  /// spec_depth. Self-tuning generators can consult it to size their
  /// decompositions to what the runtime will actually admit.
  unsigned effective_window() const noexcept;
  /// Journal snapshot bounded by the retain frontier (DESIGN.md §12).
  /// `records` holds the retained suffix only — the whole history while
  /// config.journal_retain is 0 — and `first_serial` names the oldest
  /// serial it covers (1 when untruncated). Holding journal_mu during the
  /// copy is the reader half of the prune grace protocol: the commit path
  /// skips pruning while a snapshot is in flight, so the copied chunks
  /// stay mapped. Requires config.record_commits; call after drain() (or
  /// between waited rounds) for a complete prefix.
  struct journal_view {
    std::uint64_t first_serial = 1;
    std::vector<commit_record> records;
  };
  journal_view journal_snapshot() const {
    journal_view out;
    std::lock_guard<std::mutex> lock(thr_.journal_mu);
    out.records.reserve(thr_.journal.size() - thr_.journal.first_index());
    for (std::size_t i = thr_.journal.first_index(); i < thr_.journal.size(); ++i) {
      out.records.push_back(thr_.journal[i]);
    }
    // Serials are journaled densely from 1, so the oldest retained record
    // starts at the retain frontier.
    if (!out.records.empty()) out.first_serial = out.records.front().tx_start_serial;
    return out;
  }
  std::uint32_t id() const noexcept { return thr_.ptid; }

 private:
  friend class runtime;
  user_thread(runtime& rt, thread_state& thr) : rt_(rt), thr_(thr) {}

  /// Waits until `pred()` holds (the predicate's stamped loads join the
  /// unblocking publication) and charges `stall_cost` (the cost model's
  /// window_stall) when that publication lay in our virtual future — a
  /// genuine stall on the virtual machine, independent of host scheduling.
  /// Waiting parks on `gate` (DESIGN.md §8: the slot gate for reuse waits,
  /// the thread gate for frontier waits) under the governor's budget for
  /// `cls`; the predicate's loads — and hence stall detection — are
  /// identical to the spin days. Returns true iff it stalled.
  template <typename Pred>
  bool charged_wait(sched::wait_gate& gate, sched::gate_class cls,
                    vt::vtime stall_cost, Pred&& pred);

  runtime& rt_;
  thread_state& thr_;
  std::uint64_t next_serial_ = 1;
  vt::worker_clock clock_;
  util::stat_block stats_;
};

/// Process-wide TLSTM instance: global lock table, commit clock, the
/// user-threads and their worker pools.
class runtime {
 public:
  /// Validates `cfg` (throws std::invalid_argument on zero dimensions, a
  /// thread topology overflowing entry_ident's 16-bit ptid space, or a zero
  /// session inbox) and spawns the worker pools.
  explicit runtime(config cfg);
  ~runtime();
  runtime(const runtime&) = delete;
  runtime& operator=(const runtime&) = delete;

  user_thread& thread(unsigned i) { return *user_threads_[i]; }
  unsigned num_threads() const noexcept { return cfg_.num_threads; }
  const config& cfg() const noexcept { return cfg_; }

  /// Opens a thread-safe session handle multiplexing any number of client
  /// threads onto the fixed pipelines (core/session.hpp). First call spawns
  /// one driver thread per pipeline; after that, driving user_thread
  /// handles directly as well is undefined (one submitter per pipeline).
  session open_session();

  stm::lock_table& table() noexcept { return table_; }
  /// The sharded cross-thread stripe gate table and the adaptive wait
  /// governor (DESIGN.md §8.6).
  sched::gate_table& stripe_gates() noexcept { return stripe_gates_; }
  sched::wait_governor& governor() noexcept { return governor_; }
  /// Global commit clock — plain atomic, not vtime-stamped (see the
  /// rationale on swiss_runtime::commit_ts).
  std::atomic<stm::word>& commit_ts() noexcept { return commit_ts_; }
  util::epoch_domain& epochs() noexcept { return epochs_; }
  std::uint64_t next_greedy_ts() noexcept {
    return greedy_counter_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Drains every user-thread and stops the workers (session drivers
  /// first, when open_session was used). Called by ~runtime(); may be
  /// called earlier to read final statistics.
  void stop();

  /// Sum of all worker statistic blocks (quiesce with drain()/stop() first
  /// for exact values).
  util::stat_block aggregated_stats() const;
  /// Maximum final virtual clock across workers and submitters — the virtual
  /// makespan of the run (DESIGN.md §5).
  vt::vtime makespan() const;

  /// Trim-to-high-water pass (DESIGN.md §12): frees spare write-log chunks
  /// whose grace period has passed and runs every registered trim hook
  /// (pool trims). Driven by the topology controller on shrink/idle;
  /// callable directly by harnesses. Returns bytes
  /// released to the OS by this pass.
  std::size_t trim_now();
  /// Registers a trim callback (e.g. a tm_pool's object_pool::trim bound to
  /// this runtime's epoch domain); it must return bytes freed. Hooks run
  /// under trim_now() and must be safe to call from the controller thread.
  void add_trim_hook(std::function<std::size_t()> hook);

  /// Racy snapshot of per-thread counters, fences and slot phases for
  /// diagnosing stuck runs. Debug aid only — values may be torn.
  std::string dump_state() const;

  /// Final virtual clock of every worker (quiesce first); workers of
  /// user-thread t occupy indices [t*spec_depth, (t+1)*spec_depth).
  std::vector<vt::vtime> worker_clocks() const;

  /// Per-thread effective speculation windows (DESIGN.md §5a). Empty when
  /// config.adapt_window is off.
  std::vector<unsigned> effective_windows() const;
  /// Per-thread epoch-weighted mean windows; empty when adaptation is off.
  std::vector<double> mean_windows() const;

 private:
  friend class task_ctx;
  friend class user_thread;
  friend class session_front;

  /// Per-worker bundle (one OS thread each; depth workers per user-thread).
  struct worker {
    vt::worker_clock clock;
    util::stat_block stats;
    std::unique_ptr<util::reclaimer> reclaimer;
    util::xoshiro256 rng;
    std::size_t epoch_slot = 0;
    std::thread os_thread;
  };

  // --- Worker loop and task lifecycle (runtime.cpp). ---
  /// `start_serial` is the first serial this worker executes — widx+1 on a
  /// fresh pipeline, the first uncommitted serial of its residue class on a
  /// revived one (elastic regrow, DESIGN.md §11).
  void worker_main(thread_state& thr, unsigned widx, worker& wk,
                   std::uint64_t start_serial);
  bool wait_for_ready(thread_state& thr, std::uint64_t serial, task_slot& slot, worker& wk);

  // --- Per-pipeline worker-group lifecycle (DESIGN.md §11). The monolithic
  // --- constructor/stop paths are built on these; the topology controller
  // --- calls them through session_front on grow/shrink.
  /// Registers epoch slots and spawns the spec_depth worker threads of
  /// pipeline `t`, resuming at the serials after committed_task. No-op when
  /// the group is already up.
  void spawn_worker_group(unsigned t);
  /// Joins pipeline `t`'s workers and releases their epoch slots. The
  /// pipeline must be fully drained (committed == submitted): all its slots
  /// are then free and every worker is parked in wait_for_ready stage 1,
  /// where the retired flag releases it. No-op when already down.
  void retire_worker_group(unsigned t);
  /// Whether pipeline `t`'s worker group is currently spawned.
  bool worker_group_active(unsigned t) const;
  /// Adaptive admission (DESIGN.md §5a): true when `slot`'s transaction may
  /// start — its first serial lies within the thread's effective window of
  /// the committed frontier (always true with adaptation off). Unstamped
  /// peek; the caller joins the frontier only after an actual deferral.
  static bool window_admits(const thread_state& thr, const task_slot& slot) noexcept;
  void run_one_incarnation(task_env& env, worker& wk);

  // --- Transactional operations (task.cpp; task_ctx calls back in). ---
  stm::word task_read(task_env& env, const stm::word* addr);
  void task_write(task_env& env, stm::word* addr, stm::word value);
  stm::word task_read_committed(task_env& env, const stm::word* addr, stm::lock_pair& pair);
  bool task_extend(task_env& env);
  /// Full consistency validation: revalidate both read logs, then extend
  /// the snapshot. Aborts (fence + throw) on failure.
  void validate_now(task_env& env);
  void maybe_periodic_validation(task_env& env);

  config cfg_;
  stm::lock_table table_;
  std::atomic<stm::word> commit_ts_{0};
  std::atomic<std::uint64_t> greedy_counter_{1};
  util::epoch_domain epochs_;
  /// Cross-thread waiting substrate (DESIGN.md §8.6): stripe-address-sharded
  /// gates foreign waiters park on, and the per-gate-class adaptive spin
  /// budgets. Declared before the pipeline components that hold references.
  sched::gate_table stripe_gates_;
  sched::wait_governor governor_;
  /// The commit pipeline and contention manager (core/commit.*,
  /// core/contention.*) — stateless policy components over task_env.
  commit_pipeline commit_;
  contention_manager cm_;

  std::vector<std::unique_ptr<thread_state>> threads_;
  std::vector<std::unique_ptr<user_thread>> user_threads_;
  /// adapters_[t] drives threads_[t]->adapt; empty slots when adaptation
  /// is disabled.
  std::vector<std::unique_ptr<vt::adapt_controller>> adapters_;
  // workers_[t * spec_depth + w] belongs to user-thread t.
  std::vector<std::unique_ptr<worker>> workers_;
  /// group_active_[t]: pipeline t's worker group is spawned. Guarded by
  /// topo_mu_ — the topology controller retires/revives groups while stop()
  /// may race in from another thread.
  std::vector<bool> group_active_;
  mutable std::mutex topo_mu_;
  /// Write-log recycling (DESIGN.md §12). Chunks harvested from a retired
  /// pipeline's write logs wait out a grace period (stamped with the epoch
  /// at harvest time — doomed foreign readers may still chase stale chain
  /// pointers into them) in retired_wlogs_, graduate to spare_wlogs_ once
  /// safe, and are reissued to the slots of the next spawned group instead
  /// of leaking. trim_now() frees the spare set when idle. All guarded by
  /// recycle_mu_ (controller thread vs. stats readers vs. harness trims).
  struct retired_wlog_batch {
    std::uint64_t epoch;
    std::vector<std::unique_ptr<stm::write_entry[]>> chunks;
  };
  void harvest_write_logs(unsigned t);          // topo_mu_ held
  void reissue_write_logs(unsigned t);          // topo_mu_ held
  void reap_safe_wlogs_locked();                // recycle_mu_ held
  mutable std::mutex recycle_mu_;
  std::vector<retired_wlog_batch> retired_wlogs_;
  std::vector<std::unique_ptr<stm::write_entry[]>> spare_wlogs_;
  std::uint64_t writelog_chunks_recycled_ = 0;  // guarded by recycle_mu_
  std::uint64_t pool_bytes_trimmed_ = 0;        // guarded by recycle_mu_
  std::vector<std::function<std::size_t()>> trim_hooks_;  // guarded by recycle_mu_
  /// Session front-end (lazily created by open_session; stopped first).
  std::unique_ptr<session_front> sessions_;
  /// Guards sessions_/stopped_; mutable so const statistics readers can
  /// safely observe whether a front exists.
  mutable std::mutex session_mu_;
  bool stopped_ = false;
};

template <typename Pred>
bool user_thread::charged_wait(sched::wait_gate& gate, sched::gate_class cls,
                               vt::vtime stall_cost, Pred&& pred) {
  const vt::vtime t0 = clock_.now;
  rt_.governor_.await(gate, cls, stats_, std::forward<Pred>(pred));
  if (clock_.now > t0) {
    clock_.advance(stall_cost);
    return true;
  }
  return false;
}

}  // namespace tlstm::core
