// TL2 transaction machinery: speculative reads against the read version,
// buffered writes, commit-time locking with write-back at wv (DISC'06 §3).
#include "stm/tl2.hpp"

#include <algorithm>

namespace tlstm::stm {

namespace {
/// Failed probes of a locked stripe before the reader/acquirer aborts.
constexpr unsigned lock_spin_cap = 64;
/// Max abort-backoff exponent (2^k relax iterations).
constexpr unsigned backoff_max_shift = 12;
/// Virtual-cycle prices (DESIGN.md §5); not configurable per runtime.
constexpr const vt::cost_model& costs = vt::baseline_costs;
}  // namespace

// ---------------------------------------------------------------------------
// tl2_runtime
// ---------------------------------------------------------------------------

tl2_runtime::tl2_runtime(tl2_config cfg) : cfg_(cfg), table_(cfg.log2_table) {}

std::unique_ptr<tl2_thread> tl2_runtime::make_thread() {
  return std::make_unique<tl2_thread>(
      *this, next_thread_id_.fetch_add(1, std::memory_order_relaxed));
}

// ---------------------------------------------------------------------------
// tl2_thread lifecycle
// ---------------------------------------------------------------------------

tl2_thread::tl2_thread(tl2_runtime& rt, std::uint32_t id)
    : rt_(rt), id_(id), reclaimer_(rt.epochs()), rng_(0x71e2u, id) {
  epoch_slot_ = rt_.epochs().register_participant();
}

tl2_thread::~tl2_thread() { rt_.epochs().unregister_participant(epoch_slot_); }

void tl2_thread::begin_new() {
  attempt_ = 0;
  stats_.tx_started++;
}

void tl2_thread::begin_attempt() {
  ++attempt_;
  rt_.epochs().pin(epoch_slot_);
  in_tx_ = true;
  write_set_.clear();
  read_set_.clear();
  alloc_undo_.clear();
  commit_retire_.clear();
  pending_ops_ = 0;
  rv_ = rt_.gv().load(std::memory_order_acquire);
  clock_.advance(costs.tx_begin);
}

void tl2_thread::on_abort(const tx_abort&) {
  stats_.task_restarts++;
  for (const mm_action& a : alloc_undo_) reclaimer_.retire(a.obj, a.fn, a.ctx);
  alloc_undo_.clear();
  rt_.epochs().unpin(epoch_slot_);
  clock_.advance(costs.abort_fixed);
  const std::uint64_t iters = rng_.next_below(
      1ull << std::min<std::uint64_t>(attempt_ + 3, backoff_max_shift));
  for (std::uint64_t i = 0; i < iters; ++i) util::cpu_relax();
}

void tl2_thread::abort_tx(tx_abort::reason why) {
  switch (why) {
    case tx_abort::reason::validation: stats_.abort_validation++; break;
    case tx_abort::reason::cm: stats_.abort_cm++; break;
    default: break;
  }
  throw tx_abort{why};
}

void tl2_thread::work(std::uint64_t n) noexcept {
  clock_.advance(n * costs.user_work_unit);
}

void tl2_thread::log_alloc_undo(void* obj, util::reclaimer::deleter_fn fn, void* ctx) {
  alloc_undo_.push_back({obj, fn, ctx});
}
void tl2_thread::log_commit_retire(void* obj, util::reclaimer::deleter_fn fn, void* ctx) {
  commit_retire_.push_back({obj, fn, ctx});
}

// ---------------------------------------------------------------------------
// Reads and writes (DISC'06 §3.2/§3.3)
// ---------------------------------------------------------------------------

word tl2_thread::read(const word* addr) {
  // Read-after-write from the write set.
  for (auto it = write_set_.rbegin(); it != write_set_.rend(); ++it) {
    clock_.advance(costs.chain_hop);
    if (it->addr == addr) {
      stats_.reads_speculative++;
      clock_.advance(costs.read_own_write);
      return it->value;
    }
  }

  auto& lock = rt_.table().for_addr(addr);
  util::backoff bo;
  for (unsigned tries = 0; tries < lock_spin_cap; ++tries) {
    const word v1 = lock.load(clock_);
    if (tl2_lock_table::is_locked(v1)) {
      stats_.wait_spins++;
      bo.spin();
      continue;
    }
    const word val = load_word(addr);
    const word v2 = lock.load_unstamped();
    if (v1 != v2) continue;  // raced a commit — resample
    if (tl2_lock_table::version_of(v1) > rv_) {
      // TL2 has no timestamp extension (that is SwissTM's upgrade) — a
      // version beyond rv kills the transaction outright.
      abort_tx(tx_abort::reason::validation);
    }
    read_set_.push_back({&lock});
    stats_.reads_committed++;
    clock_.advance(costs.read_committed);
    return val;
  }
  abort_tx(tx_abort::reason::validation);
}

void tl2_thread::write(word* addr, word value) {
  for (auto it = write_set_.rbegin(); it != write_set_.rend(); ++it) {
    clock_.advance(costs.chain_hop);
    if (it->addr == addr) {
      it->value = value;
      stats_.writes++;
      clock_.advance(costs.write_word);
      return;
    }
  }
  write_set_.push_back({addr, value, &rt_.table().for_addr(addr)});
  stats_.writes++;
  clock_.advance(costs.write_word);
}

// ---------------------------------------------------------------------------
// Commit (DISC'06 §3.4)
// ---------------------------------------------------------------------------

void tl2_thread::commit() {
  auto finish = [&] {
    for (const mm_action& a : commit_retire_) reclaimer_.retire(a.obj, a.fn, a.ctx);
    commit_retire_.clear();
    alloc_undo_.clear();
    stats_.tx_committed++;
    stats_.user_ops += pending_ops_;
    pending_ops_ = 0;
    clock_.advance(costs.commit_fixed);
    rt_.epochs().unpin(epoch_slot_);
    rt_.epochs().try_advance();
    in_tx_ = false;
  };

  if (write_set_.empty()) {
    // Read-only transactions commit without validation: every read was
    // checked against rv at read time (the TL2 read-only fast path).
    stats_.tx_read_only++;
    finish();
    return;
  }

  // Acquire the write locks (sorted, deduplicated — a canonical acquisition
  // order cannot deadlock against other committers).
  std::vector<std::pair<vt::stamped_atomic<word>*, word>> acquired;
  acquired.reserve(write_set_.size());
  auto release_all = [&] {
    for (auto& [lk, old] : acquired) lk->store(old, clock_);
  };
  std::vector<vt::stamped_atomic<word>*> locks;
  locks.reserve(write_set_.size());
  for (const ws_entry& e : write_set_) locks.push_back(e.lock);
  std::sort(locks.begin(), locks.end());
  locks.erase(std::unique(locks.begin(), locks.end()), locks.end());

  for (auto* lk : locks) {
    util::backoff bo;
    unsigned tries = 0;
    for (;;) {
      word cur = lk->load(clock_);
      if (!tl2_lock_table::is_locked(cur)) {
        if (lk->compare_exchange(cur, cur | tl2_lock_table::locked_bit, clock_)) {
          acquired.emplace_back(lk, cur);
          break;
        }
        continue;
      }
      if (++tries > lock_spin_cap) {
        release_all();
        abort_tx(tx_abort::reason::cm);
      }
      stats_.wait_spins++;
      bo.spin();
    }
  }
  clock_.advance(costs.commit_per_write * acquired.size());

  const word wv = rt_.gv().fetch_add(1, std::memory_order_acq_rel) + 1;

  // Validate the read set (skippable iff wv == rv+1: nothing committed in
  // between, the TL2 fast path).
  if (wv != rv_ + 1) {
    for (const rs_entry& e : read_set_) {
      const word v = e.lock->load(clock_);
      const bool mine =
          std::find_if(acquired.begin(), acquired.end(),
                       [&](const auto& p) { return p.first == e.lock; }) != acquired.end();
      if (tl2_lock_table::is_locked(v) && !mine) {
        release_all();
        abort_tx(tx_abort::reason::validation);
      }
      if (tl2_lock_table::version_of(v) > rv_) {
        release_all();
        abort_tx(tx_abort::reason::validation);
      }
    }
    clock_.advance(costs.log_entry_validate * read_set_.size());
  }

  // Write back and release at wv.
  for (const ws_entry& e : write_set_) store_word(e.addr, e.value);
  for (auto& [lk, old] : acquired) lk->store(tl2_lock_table::make(wv, false), clock_);

  finish();
}

}  // namespace tlstm::stm
