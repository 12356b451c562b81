// Sharded cross-thread gate table + adaptive wait governor (DESIGN.md §8.6).
//
// gate_table closes the runtime's last busy-waits: waits on a *foreign*
// thread's stripe (a committed read racing another thread's write-back, a
// W/W conflict waiting for the owner to release, a past writer waiting for
// its own futures' entries to be popped) used to stay yielding spins because
// no gate of the waiter's thread is woken by the publishing side — the
// publisher is another thread's commit or rollback path. Here the stripe
// address hashes to one of N cache-line-padded wait_gate shards; waiters
// park on the stripe's shard and every release publication (commit
// write-back storing r_lock, abort restoring r_lock versions, rollback
// unlinking a chain entry) wakes that shard via wake_all_if_parked, so the
// uncontended publication pays one RMW + one relaxed load and no syscall.
// Fence raises broadcast to every shard (thread_state::wake_fence_event):
// stripe predicates poll the waiter's own fence, which no stripe
// publication would otherwise flip.
//
// wait_governor replaces the static config.waits.spin_rounds with one
// budget per *gate class*. Each completed wait that actually waited reports
// (spins, parks); the governor keeps an EWMA of rounds-until-predicate-flip
// per class and derives the class budget in [4, 4096]:
//   - a flip inside the spin phase moves the budget toward 4*rounds + 8
//     (4x headroom, so typical flips keep landing in-spin);
//   - a park means the flip outlasted the whole budget — the budget decays
//     multiplicatively (idle pipelines converge to park-almost-immediately);
//   - every probe_period-th wait of a class runs with a boosted budget so a
//     class stuck at the floor can rediscover short flips when the regime
//     changes (record() detects probes as spins > stored budget and jumps
//     the budget straight to the observed target).
// All counters are relaxed; racing updates may drop a sample, which only
// delays convergence of a heuristic.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "sched/params.hpp"
#include "sched/wait_gate.hpp"
#include "util/cache.hpp"
#include "util/stats.hpp"

namespace tlstm::sched {

/// Wait classes the governor tunes independently. The split follows wake
/// frequency, not gate identity: commit handoffs flip in a handful of
/// rounds under load, input waits sleep through whole lulls, rollback
/// election and foreign-stripe release times sit in between and swing with
/// contention.
enum class gate_class : unsigned {
  handoff = 0,  ///< completion/commit frontier: commit serialization, tx-fate
                ///< waits, speculative reads, WAW gate, submit/drain
  inbox,        ///< waiting for work: slot installs, session inbox, driver
                ///< completion parks
  rollback,     ///< restart-fence parking and window admission
  stripe,       ///< foreign-stripe release: committed reads vs a foreign
                ///< write-back, own-thread chain hand-off
  cm,           ///< polite-CM waits on a foreign victim's stripe
};
inline constexpr unsigned n_gate_classes = 5;

/// The per-class stat_block counters (kept as named fields for readability;
/// these helpers give the governor's await wrapper a uniform view).
inline std::uint64_t& class_spins(util::stat_block& s, gate_class c) noexcept {
  switch (c) {
    case gate_class::handoff: return s.wait_spins_handoff;
    case gate_class::inbox: return s.wait_spins_inbox;
    case gate_class::rollback: return s.wait_spins_rollback;
    case gate_class::stripe: return s.wait_spins_stripe;
    case gate_class::cm: break;
  }
  return s.wait_spins_cm;
}
inline std::uint64_t& class_parks(util::stat_block& s, gate_class c) noexcept {
  switch (c) {
    case gate_class::handoff: return s.wait_parks_handoff;
    case gate_class::inbox: return s.wait_parks_inbox;
    case gate_class::rollback: return s.wait_parks_rollback;
    case gate_class::stripe: return s.wait_parks_stripe;
    case gate_class::cm: break;
  }
  return s.wait_parks_cm;
}

class wait_governor {
 public:
  static constexpr std::uint32_t min_budget = 4;
  static constexpr std::uint32_t max_budget = 4096;
  /// Every probe_period-th wait of a class spins with at least probe_budget
  /// rounds, so a floored class can observe short flips again.
  static constexpr std::uint32_t probe_period = 64;  // power of two
  static constexpr std::uint32_t probe_budget = 256;

  explicit wait_governor(const wait_params& base) noexcept : base_(base) {
    const std::uint32_t b = clamp(base.spin_rounds);
    for (auto& k : cls_) {
      k.budget.store(b, std::memory_order_relaxed);
      k.ticks.store(0, std::memory_order_relaxed);
    }
  }
  wait_governor(const wait_governor&) = delete;
  wait_governor& operator=(const wait_governor&) = delete;

  /// Effective wait policy for one wait of class `c`. Inherits park from the
  /// base config; the budget is the class's current one (occasionally
  /// boosted to the probe budget). Static (adaptive off) and spin-baseline
  /// (park off) configurations return the base params untouched.
  wait_params params(gate_class c) noexcept {
    wait_params p = base_;
    if (!p.park || !p.adaptive) return p;
    klass& k = cls_[static_cast<unsigned>(c)];
    std::uint32_t b = k.budget.load(std::memory_order_relaxed);
    const std::uint32_t t = k.ticks.fetch_add(1, std::memory_order_relaxed);
    if ((t & (probe_period - 1)) == 0 && b < probe_budget) b = probe_budget;
    p.spin_rounds = b;
    return p;
  }

  /// Feeds one completed wait back: `spins` failed pre-park checks, `parks`
  /// futex sleeps. Call only for waits that actually waited.
  void record(gate_class c, std::uint64_t spins, std::uint64_t parks) noexcept {
    if (!base_.park || !base_.adaptive) return;
    klass& k = cls_[static_cast<unsigned>(c)];
    const std::uint32_t b = k.budget.load(std::memory_order_relaxed);
    if (parks != 0) {
      // The flip outlasted every spin we were willing to pay: decay toward
      // immediate parking. (A parked wait says nothing about *how much*
      // longer the flip took, so this is multiplicative, not sample-driven;
      // the step is at least 1 so integer division cannot stall the decay
      // above the floor.)
      const std::uint32_t step = b / 8 > 1 ? b / 8 : 1;
      k.budget.store(b - step > min_budget ? b - step : min_budget,
                     std::memory_order_relaxed);
      return;
    }
    // 4x headroom over the observed flip: rounds-until-flip is heavy-tailed
    // (the publisher may lose its quantum mid-publication), and a budget at
    // 2x the mean still parks the tail — each such park costs a futex round
    // trip plus a publisher-side wake. Decay on parks is what bounds the
    // headroom's cost when flips genuinely lengthen.
    const std::uint32_t target = clamp(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(4 * spins + 2 * min_budget, max_budget)));
    if (spins > b) {
      // Only a probe spins past the stored budget; an in-probe flip is the
      // regime-change signal, so jump instead of easing.
      k.budget.store(std::max(b, target), std::memory_order_relaxed);
      return;
    }
    // In-budget flip: EWMA toward the headroom target. The step is at
    // least 1 in the target's direction (mirroring the decay path), so
    // integer division cannot freeze the budget a few rounds short of it.
    std::int64_t step =
        (static_cast<std::int64_t>(target) - static_cast<std::int64_t>(b)) / 8;
    if (step == 0 && target != b) step = target > b ? 1 : -1;
    k.budget.store(clamp(static_cast<std::uint32_t>(b + step)), std::memory_order_relaxed);
  }

  /// Current effective budget of a class (tests, diagnostics).
  std::uint32_t budget(gate_class c) const noexcept {
    if (!base_.park || !base_.adaptive) return base_.spin_rounds;
    return cls_[static_cast<unsigned>(c)].budget.load(std::memory_order_relaxed);
  }

  const wait_params& base() const noexcept { return base_; }

  /// Governed wait: fetches the class params, waits on `g`, folds the
  /// outcome into both the aggregate and the per-class counters of `st`,
  /// and feeds the governor.
  template <typename Pred>
  void await(wait_gate& g, gate_class c, util::stat_block& st, Pred&& pred) {
    const wait_params p = params(c);
    std::uint64_t spins = 0, parks = 0;
    // Predicates can throw (check_safepoint's tx_abort is routine under
    // contention): the stat fold must survive that, matching the pre-
    // governor semantics where callers accumulated through references. The
    // governor itself is only fed completed waits — an aborted wait never
    // saw its predicate flip, so its round count is a censored sample.
    struct fold {
      util::stat_block& st;
      gate_class c;
      std::uint64_t &spins, &parks;
      ~fold() {
        if ((spins | parks) == 0) return;  // flipped on first check: no wait
        st.wait_spins += spins;
        st.wait_parks += parks;
        class_spins(st, c) += spins;
        class_parks(st, c) += parks;
      }
    } guard{st, c, spins, parks};
    g.await(p, spins, parks, std::forward<Pred>(pred));
    if ((spins | parks) != 0) record(c, spins, parks);
  }

 private:
  static constexpr std::uint32_t clamp(std::uint32_t b) noexcept {
    return b < min_budget ? min_budget : (b > max_budget ? max_budget : b);
  }

  struct alignas(util::cache_line_size) klass {
    std::atomic<std::uint32_t> budget{0};
    std::atomic<std::uint32_t> ticks{0};
  };

  const wait_params base_;
  std::array<klass, n_gate_classes> cls_;
};

/// The sharded cross-thread stripe gate table. Power-of-two shard count
/// (the runtime builds 64, core/runtime.cpp stripe_gate_shards); the
/// stripe's lock_pair address is mixed with a two-round folded multiply
/// before masking. The previous single Fibonacci multiply kept only a
/// middle bit window (`>> 40 & mask`), so stride-patterned lock_pair
/// addresses (arrays of stripes are exactly that) could alias a handful of
/// shards and serialize unrelated waiters (ROADMAP item c); the folded
/// high^low product avalanches every input bit into the masked window.
class gate_table {
 public:
  explicit gate_table(std::size_t shards) : mask_(shards - 1) {
    shards_ = std::make_unique<shard[]>(shards);
  }
  gate_table(const gate_table&) = delete;
  gate_table& operator=(const gate_table&) = delete;

  std::size_t shard_count() const noexcept { return mask_ + 1; }

  std::size_t shard_index(const void* stripe) const noexcept {
    auto a = reinterpret_cast<std::uintptr_t>(stripe) >> 5;  // sizeof lock_pair
    using u128 = unsigned __int128;
    u128 m = static_cast<u128>(a ^ 0x9e3779b97f4a7c15ULL) * 0xe7037ed1a0b428dbULL;
    const std::uint64_t x = static_cast<std::uint64_t>(m) ^
                            static_cast<std::uint64_t>(m >> 64);
    m = static_cast<u128>(x) * 0x2d358dccaa6c78a5ULL;
    return static_cast<std::size_t>(static_cast<std::uint64_t>(m) ^
                                    static_cast<std::uint64_t>(m >> 64)) &
           mask_;
  }

  wait_gate& shard_for(const void* stripe) noexcept {
    return shards_[shard_index(stripe)].gate;
  }

  /// Publication-side wake for one stripe: cheap when nobody is parked.
  void wake(const void* stripe) noexcept { shard_for(stripe).wake_all_if_parked(); }

  /// Fence-event broadcast: stripe-shard predicates poll the waiter's own
  /// restart fence, and a fence raise is published by no stripe, so it must
  /// wake every shard a covered task could be parked on.
  void wake_all_shards() noexcept {
    for (std::size_t i = 0; i <= mask_; ++i) shards_[i].gate.wake_all_if_parked();
  }

  /// Lifetime futex parks on one shard (skew diagnostics: a hot shard under
  /// an adversarial stripe set shows up as one outlier here).
  std::uint64_t shard_parks(std::size_t i) const noexcept {
    return shards_[i].gate.parks();
  }

  /// Sum of all shard park counters — folded into stat_block by the runtime
  /// aggregation so shard-level parking pressure is visible in one number.
  std::uint64_t total_parks() const noexcept {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i <= mask_; ++i) n += shards_[i].gate.parks();
    return n;
  }

 private:
  struct alignas(util::cache_line_size) shard {
    wait_gate gate;
  };

  std::size_t mask_;
  std::unique_ptr<shard[]> shards_;
};

}  // namespace tlstm::sched
