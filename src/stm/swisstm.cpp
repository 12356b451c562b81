#include "stm/swisstm.hpp"

#include <algorithm>
#include <cassert>

namespace tlstm::stm {

namespace {
/// Bounded retries for the version/value/version double-check before we
/// declare the read un-servable (constant write-backs to one stripe).
constexpr unsigned read_retry_cap = 4096;
/// Polite-phase bound: failed lock probes before the greedy phase engages.
constexpr unsigned cm_polite_spins = 64;
/// Max abort-backoff exponent (2^k relax iterations).
constexpr unsigned backoff_max_shift = 12;
/// Virtual-cycle prices (DESIGN.md §5); not configurable per runtime.
constexpr const vt::cost_model& costs = vt::baseline_costs;
}  // namespace

swiss_runtime::swiss_runtime(swiss_config cfg)
    : cfg_(cfg), table_(cfg.log2_table) {}

std::unique_ptr<swiss_thread> swiss_runtime::make_thread() {
  auto th = std::make_unique<swiss_thread>(
      *this, next_thread_id_.fetch_add(1, std::memory_order_relaxed));
  // Reissue recycled write-log chunks whose grace period has passed
  // (DESIGN.md §12): the new thread has run nothing yet, so its log is
  // empty and adoption is race-free. One chunk covers most transactions;
  // deeper logs grow normally.
  std::lock_guard<std::mutex> lock(retired_mu_);
  epochs_.try_advance();
  util::reap_retired_batches(retired_logs_, epochs_.safe_before(), spare_chunks_);
  if (!spare_chunks_.empty()) {
    th->logs_.write_log.adopt_chunk(std::move(spare_chunks_.back()));
    spare_chunks_.pop_back();
    ++recycled_chunks_;
  }
  return th;
}

swiss_thread::swiss_thread(swiss_runtime& rt, std::uint32_t id)
    : rt_(rt), id_(id), reclaimer_(rt.epochs()), rng_(0xdecafbadULL, id) {
  epoch_slot_ = rt_.epochs().register_participant();
}

swiss_thread::~swiss_thread() {
  // Concurrent transactions may still chase stale chain pointers into our
  // write log; park its chunks on the runtime so they stay mapped.
  rt_.retire_write_log(std::move(logs_.write_log));
  rt_.epochs().unregister_participant(epoch_slot_);
}

void swiss_runtime::retire_write_log(util::chunked_vector<write_entry>&& log) {
  // Harvesting only moves the chunk owners — the storage itself stays
  // mapped, so stale chain readers keep dereferencing valid memory until
  // the grace period expires and the chunks are reissued (overwritten only
  // by fully-assigned fresh entries).
  retired_wlog batch;
  batch.epoch = epochs_.current();
  batch.chunks = log.harvest_chunks();
  if (batch.chunks.empty()) return;
  std::lock_guard<std::mutex> lock(retired_mu_);
  retired_logs_.push_back(std::move(batch));
}

void swiss_thread::begin_new() {
  // Greedy priority is acquired once per transaction (not per attempt) so a
  // repeatedly aborted transaction ages into the strongest — no starvation.
  greedy_ts.store(rt_.next_greedy_ts(), std::memory_order_relaxed);
  attempt_ = 0;
  stats_.tx_started++;
}

void swiss_thread::begin_attempt() {
  ++attempt_;
  rt_.epochs().pin(epoch_slot_);
  in_tx_ = true;
  abort_requested.store(false, std::memory_order_relaxed);
  pending_ops_ = 0;
  logs_.clear_for_restart();
  valid_ts_ = rt_.commit_ts().load(std::memory_order_acquire);
  clock_.advance(costs.tx_begin);
}

void swiss_thread::check_kill_switch() {
  if (abort_requested.load(std::memory_order_relaxed)) {
    abort_requested.store(false, std::memory_order_relaxed);
    abort_tx(tx_abort::reason::cm);
  }
}

void swiss_thread::abort_tx(tx_abort::reason why) { throw tx_abort{why}; }

word swiss_thread::read(const word* addr) {
  check_kill_switch();
  lock_pair& pair = rt_.table().for_addr(addr);
  write_entry* head = pair.w_lock.load(clock_);
  if (head != nullptr && head->owner_thread.load(std::memory_order_relaxed) == this) {
    // Read-after-write: the stripe's chain holds only our entries.
    for (write_entry* e = head; e != nullptr; e = e->prev.load(std::memory_order_acquire)) {
      if (e->addr.load(std::memory_order_relaxed) == addr) {
        clock_.advance(costs.read_own_write);
        stats_.reads_speculative++;
        return e->value.load(std::memory_order_relaxed);
      }
    }
    // We hold the stripe's w_lock but did not write this word; committed
    // state cannot change underneath us (we are the only possible committer).
  }
  return read_committed(addr, pair);
}

word swiss_thread::read_committed(const word* addr, lock_pair& pair) {
  util::backoff bo;
  for (unsigned tries = 0; tries < read_retry_cap; ++tries) {
    const word v1 = pair.r_lock.load(clock_);
    if (v1 == r_lock_locked) {
      // A committer is writing back; the window is a few stores.
      check_kill_switch();
      stats_.wait_spins++;
      bo.spin();
      continue;
    }
    const word val = load_word(addr);
    const word v2 = pair.r_lock.load_unstamped();
    if (v1 != v2) continue;  // raced a write-back; retry
    if (v1 > valid_ts_ && !extend()) {
      stats_.ts_extensions++;
      abort_tx(tx_abort::reason::validation);
    }
    logs_.read_log.push_back({&pair, addr, v1});
    clock_.advance(costs.read_committed);
    stats_.reads_committed++;
    return val;
  }
  abort_tx(tx_abort::reason::validation);
}

bool swiss_thread::extend() {
  const word ts = rt_.commit_ts().load(std::memory_order_acquire);
  if (!validate_read_log()) return false;
  valid_ts_ = ts;
  clock_.advance(costs.ts_extend_fixed +
                 costs.log_entry_validate * logs_.read_log.size());
  stats_.ts_extensions++;
  return true;
}

bool swiss_thread::validate_read_log() {
  // A read stays valid iff its stripe still carries the observed version.
  // LOCKED means a racing commit is publishing a newer version (or it is our
  // own commit; the commit path revalidates with its saved versions instead
  // of calling this directly — see commit()).
  for (const read_log_entry& e : logs_.read_log) {
    const word cur = e.locks->r_lock.load(clock_);
    if (cur != e.version) return false;
  }
  return true;
}

void swiss_thread::write(word* addr, word value) {
  check_kill_switch();
  lock_pair& pair = rt_.table().for_addr(addr);
  util::backoff bo;
  unsigned polite_left = cm_polite_spins;
  for (;;) {
    write_entry* head = pair.w_lock.load(clock_);
    if (head != nullptr && head->owner_thread.load(std::memory_order_relaxed) == this) {
      // Already locked by us: update in place or append behind the lock.
      for (write_entry* e = head; e != nullptr; e = e->prev.load(std::memory_order_acquire)) {
        if (e->addr.load(std::memory_order_relaxed) == addr) {
          e->value.store(value, std::memory_order_relaxed);
          clock_.advance(costs.write_word);
          stats_.writes++;
          return;
        }
      }
      write_entry& e = logs_.write_log.emplace_back();
      e.addr.store(addr, std::memory_order_relaxed);
      e.value.store(value, std::memory_order_relaxed);
      e.locks = &pair;
      e.owner_thread.store(this, std::memory_order_relaxed);
      e.ident.store(entry_ident::pack(id_, 0), std::memory_order_relaxed);
      e.vstamp.store(clock_.now, std::memory_order_relaxed);
      e.prev.store(head, std::memory_order_release);
      write_entry* expected = head;
      if (!pair.w_lock.compare_exchange(expected, &e, clock_)) {
        // Nobody else can push while we hold the stripe: cannot happen.
        logs_.write_log.pop_back();
        continue;
      }
      clock_.advance(costs.write_word);
      stats_.writes++;
      return;
    }
    if (head != nullptr) {
      // Write/write conflict with another thread — eager resolution.
      if (cm_resolve(head, polite_left)) {
        stats_.abort_cm++;
        abort_tx(tx_abort::reason::cm);
      }
      check_kill_switch();
      stats_.wait_spins++;
      bo.spin();
      continue;
    }
    // Unlocked: publish a fresh single-entry chain.
    write_entry& e = logs_.write_log.emplace_back();
    e.addr.store(addr, std::memory_order_relaxed);
    e.value.store(value, std::memory_order_relaxed);
    e.locks = &pair;
    e.owner_thread.store(this, std::memory_order_relaxed);
    e.ident.store(entry_ident::pack(id_, 0), std::memory_order_relaxed);
    e.vstamp.store(clock_.now, std::memory_order_relaxed);
    e.prev.store(nullptr, std::memory_order_release);
    write_entry* expected = nullptr;
    if (!pair.w_lock.compare_exchange(expected, &e, clock_)) {
      logs_.write_log.pop_back();
      continue;  // lost the race; re-evaluate the new owner
    }
    // Paper line 52: the acquired stripe may carry a version newer than our
    // snapshot; extend or die so write-after-read stays consistent.
    if (pair.r_lock.load(clock_) > valid_ts_ && !extend()) {
      abort_tx(tx_abort::reason::validation);
    }
    clock_.advance(costs.write_word);
    stats_.writes++;
    return;
  }
}

bool swiss_thread::cm_resolve(write_entry* head, unsigned& polite_left) {
  // Phase 1: polite — bounded spinning before anyone gets hurt.
  if (polite_left > 0) {
    --polite_left;
    return false;
  }
  // Phase 2: greedy — the older transaction (smaller greedy_ts) wins.
  auto* owner = static_cast<swiss_thread*>(head->owner_thread.load(std::memory_order_relaxed));
  if (owner == nullptr || owner == this) return false;
  if (greedy_ts.load(std::memory_order_relaxed) <
      owner->greedy_ts.load(std::memory_order_relaxed)) {
    owner->abort_requested.store(true, std::memory_order_relaxed);
    return false;  // wait for the victim to release
  }
  return true;  // we are younger: back off by aborting ourselves
}

void swiss_thread::finish_commit_bookkeeping() {
  for (const mm_action& a : logs_.commit_retire) reclaimer_.retire(a.obj, a.fn, a.ctx);
  logs_.commit_retire.clear();
  logs_.alloc_undo.clear();
  stats_.tx_committed++;
  stats_.user_ops += pending_ops_;
  pending_ops_ = 0;
  clock_.advance(costs.commit_fixed);
  rt_.epochs().unpin(epoch_slot_);
  rt_.epochs().try_advance();
  in_tx_ = false;
}

void swiss_thread::commit() {
  check_kill_switch();
  if (logs_.write_log.empty()) {
    // Read-only: the valid_ts invariant means all reads form a snapshot.
    stats_.tx_read_only++;
    finish_commit_bookkeeping();
    return;
  }

  // Lock the write set's r_locks (one per distinct stripe), saving versions.
  std::vector<std::pair<lock_pair*, word>> locked;
  locked.reserve(logs_.write_log.size());
  logs_.write_log.for_each([&](write_entry& e) {
    for (auto& [lp, ver] : locked) {
      if (lp == e.locks) return;  // stripe already locked by this commit
    }
    const word old = e.locks->r_lock.load(clock_);
    assert(old != r_lock_locked && "r_lock held while we own the w_lock");
    e.locks->r_lock.store(r_lock_locked, clock_);
    locked.emplace_back(e.locks, old);
  });

  const word ts = rt_.commit_ts().fetch_add(1, std::memory_order_acq_rel) + 1;

  // Revalidate reads; stripes we hold LOCKED validate against saved versions.
  bool valid = true;
  for (const read_log_entry& e : logs_.read_log) {
    word cur = e.locks->r_lock.load(clock_);
    if (cur == r_lock_locked) {
      cur = e.version + 1;  // pessimistic unless it is one of ours
      for (auto& [lp, ver] : locked) {
        if (lp == e.locks) {
          cur = ver;
          break;
        }
      }
    }
    if (cur != e.version) {
      valid = false;
      break;
    }
  }
  if (!valid) {
    for (auto& [lp, ver] : locked) lp->r_lock.store(ver, clock_);
    stats_.abort_validation++;
    abort_tx(tx_abort::reason::validation);
  }

  // Write back, then publish the new version and release the stripes.
  logs_.write_log.for_each([&](write_entry& e) {
    store_word(e.addr.load(std::memory_order_relaxed),
               e.value.load(std::memory_order_relaxed));
  });
  for (auto& [lp, ver] : locked) {
    lp->r_lock.store(ts, clock_);
    lp->w_lock.store(nullptr, clock_);
  }
  clock_.advance(costs.commit_per_write * logs_.write_log.size());
  finish_commit_bookkeeping();
}

void swiss_thread::on_abort(const tx_abort& a) {
  switch (a.why) {
    case tx_abort::reason::validation: stats_.abort_validation++; break;
    case tx_abort::reason::cm: stats_.abort_cm++; break;
    default: break;
  }
  // Release every stripe we write-locked (idempotent per stripe).
  logs_.write_log.for_each([&](write_entry& e) {
    write_entry* head = e.locks->w_lock.load_unstamped();
    if (head != nullptr && head->owner_thread.load(std::memory_order_relaxed) == this) {
      e.locks->w_lock.store(nullptr, clock_);
    }
  });
  // Undo speculative allocations through a grace period (doomed readers of
  // other threads may still hold the pointers — DESIGN.md §4.4).
  for (const mm_action& m : logs_.alloc_undo) reclaimer_.retire(m.obj, m.fn, m.ctx);
  clock_.advance(costs.abort_fixed + costs.abort_per_write * logs_.write_log.size());
  logs_.clear_for_restart();
  stats_.task_restarts++;
  rt_.epochs().unpin(epoch_slot_);
  // Randomized exponential wall-clock backoff bounds livelock on real cores.
  const std::uint64_t iters = rng_.next_below(1ull << std::min(attempt_, backoff_max_shift));
  for (std::uint64_t i = 0; i < iters; ++i) util::cpu_relax();
}

void swiss_thread::work(std::uint64_t n) noexcept {
  clock_.advance(n * costs.user_work_unit);
}

void swiss_thread::log_alloc_undo(void* obj, util::reclaimer::deleter_fn fn, void* ctx) {
  logs_.alloc_undo.push_back({obj, fn, ctx});
}

void swiss_thread::log_commit_retire(void* obj, util::reclaimer::deleter_fn fn, void* ctx) {
  logs_.commit_retire.push_back({obj, fn, ctx});
}

}  // namespace tlstm::stm
