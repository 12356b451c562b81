// Tunables of the scheduling substrate (DESIGN.md §8): how runtime waits
// behave (bounded spin, then park). Kept in a dependency-free header so
// core/config.hpp can embed them without pulling the wait machinery into
// every include chain.
#pragma once

#include <cstdint>

namespace tlstm::sched {

/// Policy for every predicate wait that goes through a wait_gate.
struct wait_params {
  /// Park on the gate's futex once the spin budget is exhausted. Disabling
  /// this reproduces the pre-parking runtime (pure bounded-backoff spinning)
  /// — the baseline column of bench/abl_sessions and bench/abl_waits.
  bool park = true;
  /// Failed predicate checks (each with escalating util::backoff pauses)
  /// before the waiter parks. Small values favour CPU time; larger values
  /// favour wake latency when the predicate flips quickly. With `adaptive`
  /// on this is only the *initial* budget per gate class (and the budget
  /// used by waits that outlive the runtime, e.g. session tickets); the
  /// wait_governor then retunes each class within [4, 4096]. Must be >= 1
  /// at runtime construction (config::validate).
  std::uint32_t spin_rounds = 64;
  /// Per-gate-class adaptive spin budgets (DESIGN.md §8.6): a shared
  /// wait_governor tracks rounds-until-predicate-flip per class and moves
  /// each class's effective spin_rounds — short commit handoffs keep
  /// spinning, idle pipelines park almost immediately. Off = every wait
  /// uses the static spin_rounds above (the static-park baseline of
  /// bench/abl_waits).
  bool adaptive = true;
};

}  // namespace tlstm::sched
