// TL2 baseline (Dice, Shalev, Shavit — DISC'06), the paper's reference [15]
// and the origin of the lazy counter-based validation SwissTM builds on
// (paper §3.1). Word-based STM with
//   * a global version clock,
//   * per-stripe versioned write-locks (version word + lock bit),
//   * invisible reads validated against the read version rv,
//   * commit-time lock acquisition, write-back, and lock release at wv.
//
// Included as the second baseline of the STM family: SwissTM's eager W/W
// detection and timestamp extension are its distinguishing upgrades, and
// bench/abl_stm_baseline quantifies that gap on this host so the choice of
// SwissTM as TLSTM's substrate is evidenced, not asserted. tl2_thread
// exposes the same context surface as swiss_thread/task_ctx, so every
// generic workload (tm_var, tm_pool, the intset family, the rbtree) runs
// unchanged on it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "stm/descriptor.hpp"
#include "stm/lock_table.hpp"
#include "util/epoch.hpp"
#include "util/rng.hpp"
#include "util/spin.hpp"
#include "util/stats.hpp"
#include "vt/cost_model.hpp"
#include "vt/vclock.hpp"

namespace tlstm::stm {

struct tl2_config {
  unsigned log2_table = 20;
};

/// TL2's per-stripe versioned lock: bit 0 = locked, bits 1.. = version.
/// Stamped so version reads join the committing writer's virtual clock
/// (the value-carrying edge of DESIGN.md §5).
class tl2_lock_table {
 public:
  explicit tl2_lock_table(unsigned log2_entries)
      : mask_((std::size_t{1} << log2_entries) - 1), entries_(mask_ + 1) {}

  vt::stamped_atomic<word>& for_addr(const void* addr) noexcept {
    return entries_[stripe_index(addr, mask_)].lock;
  }
  std::size_t size() const noexcept { return entries_.size(); }

  static constexpr word locked_bit = 1;
  static bool is_locked(word v) noexcept { return (v & locked_bit) != 0; }
  static word version_of(word v) noexcept { return v >> 1; }
  static word make(word version, bool locked) noexcept {
    return (version << 1) | (locked ? locked_bit : 0);
  }

  /// One stripe per cache line; all-zero bytes = unlocked at version 0.
  struct alignas(util::cache_line_size) entry {
    vt::stamped_atomic<word> lock;
  };

 private:
  std::size_t mask_;
  util::zeroed_array<entry> entries_;  // committed on first touch (§4.1)
};

class tl2_runtime;

/// Per-thread TL2 execution context; same surface as swiss_thread.
class tl2_thread {
 public:
  tl2_thread(tl2_runtime& rt, std::uint32_t id);
  ~tl2_thread();
  tl2_thread(const tl2_thread&) = delete;
  tl2_thread& operator=(const tl2_thread&) = delete;

  /// Runs `fn(*this)` as a transaction, retrying until commit. Nesting is
  /// flat, as in swiss_thread.
  template <typename Fn>
  void run_transaction(Fn&& fn) {
    if (in_tx_) {
      stats_.tx_nested++;
      fn(*this);
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
  void work(std::uint64_t n) noexcept;
  /// Reports `n` completed workload-level operations (see
  /// swiss_thread::count_ops — committed attempts only).
  void count_ops(std::uint64_t n) noexcept { pending_ops_ += n; }
  void log_alloc_undo(void* obj, util::reclaimer::deleter_fn fn, void* ctx);
  void log_commit_retire(void* obj, util::reclaimer::deleter_fn fn, void* ctx);
  [[noreturn]] void abort_self() { throw tx_abort{tx_abort::reason::explicit_abort}; }

  // --- Introspection. ---
  const util::stat_block& stats() const noexcept { return stats_; }
  util::stat_block& stats() noexcept { return stats_; }
  vt::worker_clock& clock() noexcept { return clock_; }
  util::reclaimer& reclaimer() noexcept { return reclaimer_; }
  std::uint32_t id() const noexcept { return id_; }

 private:
  /// One buffered write. TL2 keeps a flat write set; reads search it for
  /// read-after-write (linear scan — write sets are small in the target
  /// workloads, and the scan cost is charged to the virtual clock).
  struct ws_entry {
    word* addr;
    word value;
    vt::stamped_atomic<word>* lock;
  };
  /// One logged read: the stripe lock and nothing else — TL2 revalidates
  /// against rv, so no version needs to be remembered per read.
  struct rs_entry {
    vt::stamped_atomic<word>* lock;
  };

  void begin_new();
  void begin_attempt();
  void commit();
  void on_abort(const tx_abort& a);
  [[noreturn]] void abort_tx(tx_abort::reason why);

  tl2_runtime& rt_;
  const std::uint32_t id_;
  vt::worker_clock clock_;
  util::stat_block stats_;
  util::reclaimer reclaimer_;
  util::xoshiro256 rng_;

  word rv_ = 0;  ///< read version (GV snapshot at begin)
  std::vector<ws_entry> write_set_;
  std::vector<rs_entry> read_set_;
  std::vector<mm_action> alloc_undo_;
  std::vector<mm_action> commit_retire_;
  std::uint64_t pending_ops_ = 0;  // count_ops buffer, flushed at commit
  unsigned attempt_ = 0;
  std::size_t epoch_slot_ = 0;
  bool in_tx_ = false;
};

/// Process-wide TL2 instance.
class tl2_runtime {
 public:
  explicit tl2_runtime(tl2_config cfg = {});

  std::unique_ptr<tl2_thread> make_thread();

  tl2_lock_table& table() noexcept { return table_; }
  /// Global version clock. Unstamped for the same reason as SwissTM's
  /// commit counter (see swiss_runtime::commit_ts): versions join at the
  /// stripe-lock reads that transfer data.
  std::atomic<word>& gv() noexcept { return gv_; }
  const tl2_config& config() const noexcept { return cfg_; }
  util::epoch_domain& epochs() noexcept { return epochs_; }

 private:
  tl2_config cfg_;
  tl2_lock_table table_;
  std::atomic<word> gv_{0};
  std::atomic<std::uint32_t> next_thread_id_{0};
  util::epoch_domain epochs_;
};

}  // namespace tlstm::stm
