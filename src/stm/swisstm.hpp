// SwissTM baseline (Dragojević, Guerraoui, Kapałka — PLDI'09), as described
// in the paper's §3.1: word-based STM with
//   * a global commit counter (commit-ts) as the wall clock,
//   * eager write/write conflict detection through w_locks,
//   * lazy counter-based read/write detection with timestamp extension,
//   * invisible reads, buffered writes, write-back at commit,
//   * a two-phase (polite, then greedy) contention manager.
//
// This is the comparison baseline for every figure; TLSTM (src/core) extends
// exactly this protocol with task-level speculation.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "stm/descriptor.hpp"
#include "stm/lock_table.hpp"
#include "util/cache.hpp"
#include "util/rng.hpp"
#include "util/spin.hpp"
#include "util/stats.hpp"
#include "vt/cost_model.hpp"
#include "vt/vclock.hpp"

namespace tlstm::stm {

struct swiss_config {
  unsigned log2_table = 20;
};

class swiss_runtime;

/// Per-thread execution context. Create one per application thread via
/// swiss_runtime::make_thread(); it owns the transaction descriptor, the
/// virtual clock, statistics, and the reclaimer.
class swiss_thread {
 public:
  swiss_thread(swiss_runtime& rt, std::uint32_t id);
  ~swiss_thread();
  swiss_thread(const swiss_thread&) = delete;
  swiss_thread& operator=(const swiss_thread&) = delete;

  /// Runs `fn(*this)` as a transaction, retrying on conflict until commit.
  ///
  /// Nesting is flat (paper §2: "the model can easily be extended to
  /// consider user-transaction nesting"): a run_transaction issued while a
  /// transaction is already active merges into the enclosing one — the
  /// inner body becomes part of the outer atomic scope, an abort anywhere
  /// restarts the whole flattened transaction, and visibility is only ever
  /// gained at the outermost commit. This is the composition rule that lets
  /// transactional library functions call each other.
  template <typename Fn>
  void run_transaction(Fn&& fn) {
    if (in_tx_) {
      stats_.tx_nested++;
      fn(*this);  // tx_abort unwinds to the outermost retry loop
      return;
    }
    begin_new();
    for (;;) {
      begin_attempt();
      try {
        fn(*this);
        commit();
        return;
      } catch (const tx_abort& a) {
        on_abort(a);
      }
    }
  }

  // --- Transactional API (valid only inside run_transaction). ---
  word read(const word* addr);
  void write(word* addr, word value);
  /// Models `n` virtual cycles of user computation between accesses.
  void work(std::uint64_t n) noexcept;
  /// Reports `n` completed workload-level operations. Buffered per attempt
  /// and folded into stat_block::user_ops only at commit, so aborted
  /// attempts never inflate throughput.
  void count_ops(std::uint64_t n) noexcept { pending_ops_ += n; }
  /// Registers an allocation to undo if the transaction aborts.
  void log_alloc_undo(void* obj, util::reclaimer::deleter_fn fn, void* ctx);
  /// Registers a free to execute (after a grace period) once we commit.
  void log_commit_retire(void* obj, util::reclaimer::deleter_fn fn, void* ctx);
  /// User-requested restart.
  [[noreturn]] void abort_self() { throw tx_abort{tx_abort::reason::explicit_abort}; }

  // --- Introspection. ---
  const util::stat_block& stats() const noexcept { return stats_; }
  util::stat_block& stats() noexcept { return stats_; }
  vt::worker_clock& clock() noexcept { return clock_; }
  util::reclaimer& reclaimer() noexcept { return reclaimer_; }
  std::uint32_t id() const noexcept { return id_; }
  swiss_runtime& runtime() noexcept { return rt_; }

  /// Contention-manager kill switch, set by other threads.
  std::atomic<bool> abort_requested{false};
  /// Greedy priority: global acquisition order of the current transaction's
  /// first attempt; smaller = older = wins ties. Atomic: contenders peek it
  /// through cm_resolve while the owner starts its next transaction
  /// (relaxed — the comparison is a heuristic either way).
  std::atomic<std::uint64_t> greedy_ts{0};

 private:
  friend class swiss_runtime;

  void begin_new();
  void begin_attempt();
  void commit();
  void finish_commit_bookkeeping();
  void on_abort(const tx_abort& a);
  [[noreturn]] void abort_tx(tx_abort::reason why);

  word read_committed(const word* addr, lock_pair& pair);
  bool extend();
  bool validate_read_log();
  void check_kill_switch();
  /// True → we must abort; false → lock owner was told to abort, keep waiting.
  bool cm_resolve(write_entry* head, unsigned& polite_left);

  swiss_runtime& rt_;
  const std::uint32_t id_;
  vt::worker_clock clock_;
  util::stat_block stats_;
  util::reclaimer reclaimer_;
  util::xoshiro256 rng_;

  // Transaction-attempt state.
  word valid_ts_ = 0;
  access_logs logs_;
  std::uint64_t pending_ops_ = 0;  // count_ops buffer, flushed at commit
  unsigned attempt_ = 0;
  std::size_t epoch_slot_ = 0;
  bool in_tx_ = false;
};

/// Process-wide STM instance: lock table + commit clock + thread registry.
class swiss_runtime {
 public:
  explicit swiss_runtime(swiss_config cfg = {});

  std::unique_ptr<swiss_thread> make_thread();

  /// Takes ownership of a dying thread's write-log chunks. Concurrent
  /// transactions may still chase stale chain pointers into that log
  /// (type-stability, DESIGN.md §4.4); the chunks are parked here, stamped
  /// with the current epoch, and reissued to future make_thread() calls
  /// once a full grace period rules out stale readers (DESIGN.md §12) —
  /// instead of leaking until the runtime dies.
  void retire_write_log(util::chunked_vector<write_entry>&& log);

  /// Write-log chunks reissued to new threads so far (reclamation telemetry;
  /// folded into harness stats next to writelog_chunks_recycled).
  std::uint64_t writelog_chunks_recycled() const {
    std::lock_guard<std::mutex> lock(retired_mu_);
    return recycled_chunks_;
  }

  lock_table& table() noexcept { return table_; }
  /// The global commit clock. Deliberately *not* virtual-time stamped: the
  /// counter linearizes commits as an implementation artifact, and joining
  /// its publication stamps would serialize unrelated threads' virtual
  /// timelines through the coarse single-core scheduling of the host. Real
  /// data dependencies are captured by the per-stripe r_lock stamps instead
  /// (DESIGN.md §5).
  std::atomic<word>& commit_ts() noexcept { return commit_ts_; }
  std::uint64_t next_greedy_ts() noexcept {
    return greedy_counter_.fetch_add(1, std::memory_order_relaxed);
  }
  const swiss_config& config() const noexcept { return cfg_; }
  util::epoch_domain& epochs() noexcept { return epochs_; }

 private:
  swiss_config cfg_;
  lock_table table_;
  std::atomic<word> commit_ts_{0};
  std::atomic<std::uint64_t> greedy_counter_{1};
  std::atomic<std::uint32_t> next_thread_id_{0};
  util::epoch_domain epochs_;
  /// Recycling state (DESIGN.md §12): chunks harvested from retired logs
  /// wait in retired_logs_ until the epoch domain passes their retire
  /// epoch, graduate to spare_chunks_, and are adopted by new threads'
  /// write logs. Memory stays mapped throughout — type stability holds.
  struct retired_wlog {
    std::uint64_t epoch;
    std::vector<std::unique_ptr<write_entry[]>> chunks;
  };
  mutable std::mutex retired_mu_;
  std::vector<retired_wlog> retired_logs_;
  std::vector<std::unique_ptr<write_entry[]>> spare_chunks_;
  std::uint64_t recycled_chunks_ = 0;
};

}  // namespace tlstm::stm
