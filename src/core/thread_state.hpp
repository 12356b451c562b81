// Per-user-thread shared state: the owners array, completion counters, the
// restart fence, and the rollback/commit mutual exclusion.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/task.hpp"
#include "sched/gate_table.hpp"
#include "sched/wait_gate.hpp"
#include "util/cache.hpp"
#include "util/chunked_vector.hpp"
#include "util/spin.hpp"
#include "vt/adapt_controller.hpp"
#include "vt/vclock.hpp"

namespace tlstm::core {

/// Commit-order record for the serializability oracle (config.record_commits).
struct commit_record {
  std::uint64_t tx_start_serial;
  std::uint64_t tx_commit_serial;
  stm::word commit_ts;  ///< 0 for read-only transactions
};

/// Tiny spin mutex whose hand-offs carry virtual-time stamps, so waiting on
/// the rollback/commit exclusion joins the holder's clock.
class stamped_mutex {
 public:
  void lock(vt::worker_clock& clk) noexcept {
    util::backoff bo;
    std::uint32_t expected = 0;
    while (!state_.compare_exchange(expected, 1, clk)) {
      expected = 0;
      bo.spin();
    }
  }
  void unlock(vt::worker_clock& clk) noexcept { state_.store(0, clk); }

 private:
  vt::stamped_atomic<std::uint32_t> state_;
};

/// All state shared by the SPECDEPTH workers of one user-thread plus its
/// submitter (paper §3.3 "User-Thread State").
struct thread_state {
  static constexpr std::uint64_t no_fence = ~std::uint64_t{0};

  thread_state(std::uint32_t id, unsigned depth_) : ptid(id), depth(depth_), owners(depth_) {
    completed_task.store_relaxed_init(0);
    completed_writer.store_relaxed_init(0);
    committed_task.store_relaxed_init(0);
    fence.store_relaxed_init(no_fence);
  }
  thread_state(const thread_state&) = delete;
  thread_state& operator=(const thread_state&) = delete;

  const std::uint32_t ptid;
  const unsigned depth;  ///< SPECDEPTH

  /// Serial of the last task that completed execution (paper: completed-task).
  vt::stamped_atomic<std::uint64_t> completed_task;
  /// Serial of the last *writer* task that completed (paper: completed-writer).
  vt::stamped_atomic<std::uint64_t> completed_writer;
  /// Serial of the last task whose user-transaction committed. Slots free up
  /// and parked intermediates wake when this passes their serial.
  vt::stamped_atomic<std::uint64_t> committed_task;
  /// Restart fence: every active task with serial >= fence must roll back
  /// (DESIGN.md §4.3). no_fence when inactive. Lowered only under rollback_mu.
  vt::stamped_atomic<std::uint64_t> fence;
  /// Last writer serial among *committed* transactions; input to the
  /// completed_writer recomputation after a rollback.
  std::atomic<std::uint64_t> committed_writer_wm{0};

  /// WAW gate: serial of a past writer that signalled future tasks to abort
  /// because they held its stripe (paper line 47). Tasks newer than the gate
  /// do not (re)start until the gate task has completed; without this, the
  /// resumed future re-acquires the stripe before the past writer's worker
  /// is ever scheduled and the thread livelocks (single-core pathology).
  /// Stale once completed_task passes it; overwritten by newer signals.
  std::atomic<std::uint64_t> waw_gate{0};

  /// owners[(serial-1) % depth] — task slots double as the bounded
  /// speculation window (a new task starts only when its residue slot is
  /// free, which bounds active tasks to SPECDEPTH).
  std::vector<task_slot> owners;

  /// Adaptive speculation controller of this thread (DESIGN.md §5a), or
  /// nullptr when config.adapt_window is off (static window == depth).
  /// Owned by the runtime; set before workers spawn.
  vt::adapt_controller* adapt = nullptr;

  /// Serializes fence raises, rollback coordination, and the commit point of
  /// no return, closing the fence-vs-commit race (DESIGN.md §4.3).
  stamped_mutex rollback_mu;

  /// The thread's frontier gate (DESIGN.md §8): waits on shared state with
  /// many potential wakers or waiters — completion/commit frontier
  /// advances, the fence, the WAW gate, rollback election, drain, session
  /// tickets — park here. Point-to-point waits park on the per-slot gates
  /// (task_slot::gate); every publication wakes exactly the gates whose
  /// predicates it can flip.
  sched::wait_gate gate;

  /// The runtime's cross-thread stripe gate table (DESIGN.md §8.6); set by
  /// the runtime before workers spawn. Fence events must broadcast to it:
  /// this thread's tasks may be parked on foreign stripes' shards, whose
  /// predicates poll our fence but whose publications are other threads'
  /// commits.
  sched::gate_table* stripe_gates = nullptr;

  /// Broadcast wake for fence raises/releases, window moves and shutdown:
  /// fence-sensitive predicates park on *all* gate classes (e.g. the
  /// commit-serialization wait polls the fence from a slot gate, stripe
  /// waiters poll it from a gate-table shard), so these rare events wake
  /// everything.
  void wake_fence_event() noexcept {
    gate.wake_all();
    for (task_slot& sl : owners) sl.gate.wake_all();
    if (stripe_gates != nullptr) stripe_gates->wake_all_shards();
  }

  /// Session completion hook (DESIGN.md §8.5): when a session front drives
  /// this pipeline, points at the driver's park gate (the inbox's consumer
  /// gate). Every commit-frontier advance wakes it so the driver can retire
  /// tickets and run completion callbacks. Workers never park on this gate,
  /// so the driver's parking steals no worker wakes; null when no session
  /// front is attached (the wake is then skipped entirely).
  std::atomic<sched::wait_gate*> completion_hook{nullptr};

  void wake_completion_hook() noexcept {
    if (sched::wait_gate* hook = completion_hook.load(std::memory_order_acquire)) {
      hook->wake_all();
    }
  }

  std::atomic<bool> shutdown{false};

  /// Elastic retirement (DESIGN.md §11): raised by the topology controller
  /// after this pipeline fully drained (committed == submitted), so its
  /// workers — all parked in wait_for_ready stage 1 with free slots — exit
  /// their serial loops. Cleared before the group is respawned on a grow;
  /// respawned workers resume at the serials following committed_task.
  std::atomic<bool> retired{false};

  /// Commit journal (oracle tests); appended by commit-tasks under
  /// rollback_mu, read by the driver after drain(). Chunked so an append
  /// never regrow-copies the whole journal inside the stamped commit
  /// critical section (long-lived servers would otherwise pay reallocation
  /// spikes under rollback_mu — ROADMAP "journal scalability").
  util::chunked_vector<commit_record, 256> journal;

  /// Grace protocol of the retain frontier (DESIGN.md §12): snapshot readers
  /// (user_thread::journal_snapshot, journal dumps) hold journal_mu while
  /// copying the retained suffix; prune_journal only releases chunks while
  /// holding it, so no reader ever dereferences a freed chunk. Appends stay
  /// lock-free relative to this mutex — they are serialized by rollback_mu
  /// and never touch released indices.
  mutable std::mutex journal_mu;
  /// Commit timestamp of this thread's latest committed write transaction,
  /// stored before the committer publishes the completion/commit frontier.
  /// A task whose snapshot (valid_ts) is older must not trust it blindly:
  /// the commit unlinked its chain entries, so intra-thread WAR checks no
  /// longer see what it overwrote (speculative reads extend, read-only
  /// commits validate).
  std::atomic<stm::word> last_write_commit_ts{0};
  /// Lifetime counters mirrored as atomics because aggregated_stats reads
  /// them while pipelines run: journal appends are serialized by rollback_mu
  /// (not journal_mu), so touching journal.chunks_live() — a std::vector
  /// size — from the stats thread would race a concurrent chunk push. The
  /// commit path refreshes the live mirror on every append/prune instead.
  std::atomic<std::uint64_t> journal_chunks_pruned{0};
  std::atomic<std::size_t> journal_chunks_live{0};

  /// Journal append for the commit path (rollback_mu held): records the
  /// commit and refreshes the lock-free chunk mirror for mid-run stats.
  void journal_append(const commit_record& rec) {
    journal.push_back(rec);
    journal_chunks_live.store(journal.chunks_live(), std::memory_order_relaxed);
  }

  /// Retires journal chunks strictly below the retain frontier (everything
  /// except the newest `retain` records, rounded down to a chunk boundary).
  /// Called on the commit path right after an append (serialized by
  /// rollback_mu); the cheap size precheck keeps the common case at one
  /// branch, and try_lock skips the pass entirely while a snapshot reader
  /// holds the frontier pinned — that is the grace period.
  void prune_journal(std::uint64_t retain) {
    constexpr std::uint64_t chunk = decltype(journal)::chunk_size;
    if (journal.size() - journal.first_index() < retain + chunk) return;
    if (!journal_mu.try_lock()) return;
    const std::size_t keep_from = journal.size() - retain;
    journal_chunks_pruned.fetch_add(journal.release_before(keep_from),
                                    std::memory_order_relaxed);
    journal_chunks_live.store(journal.chunks_live(), std::memory_order_relaxed);
    journal_mu.unlock();
  }

  task_slot& slot_for(std::uint64_t serial) noexcept { return owners[(serial - 1) % depth]; }

  /// Raises the fence to min(fence, target). No-op when the target's
  /// transaction already committed (the raise lost the race). Returns true
  /// iff this call actually lowered the fence (callers use it for abort
  /// statistics; repeated signalling of an already-covered serial is free).
  bool raise_fence(std::uint64_t target, vt::worker_clock& clk) noexcept {
    rollback_mu.lock(clk);
    bool lowered = false;
    if (target > committed_task.load(clk) && target < fence.load(clk)) {
      fence.store(target, clk);
      lowered = true;
    }
    rollback_mu.unlock(clk);
    // Fence raises flip wait predicates (safepoint polls inside parked
    // waits, the rollback election) — wake so no covered task sleeps
    // through its own abort.
    if (lowered) wake_fence_event();
    return lowered;
  }

  bool fence_covers(std::uint64_t serial, vt::worker_clock& clk) noexcept {
    return fence.load(clk) <= serial;
  }
  /// Flag-probe variants without a virtual-time join: polling a fence that
  /// does not cover us is not a causal dependency, and joining the last
  /// coordinator's clear-stamp on every safepoint would serialize unrelated
  /// tasks' timelines (DESIGN.md §5 — only value-carrying and blocking edges
  /// are stamped). Tasks that ARE covered join through rollback_parked_wait.
  bool fence_covers_unstamped(std::uint64_t serial) const noexcept {
    return fence.load_unstamped() <= serial;
  }
  bool fence_active_unstamped() const noexcept {
    return fence.load_unstamped() != no_fence;
  }
};

}  // namespace tlstm::core
