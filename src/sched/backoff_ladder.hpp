// The restart backoff ladder (DESIGN.md §8). Extracted from
// runtime::run_one_incarnation, where its constants were hard-coded: the
// early levels damp immediate re-collision; the late levels reach OS
// scheduler granularity, which is what actually breaks inter-thread CM
// livelocks on oversubscribed cores — the repeat loser must stay off-CPU
// long enough for the winner's worker to observe the released stripe and
// commit.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

#include "util/spin.hpp"

namespace tlstm::sched {

/// Levels 1..ladder_relax_levels pause for a randomized cpu_relax burst of
/// at most 2^min(level + 4, ladder_relax_max_shift) iterations; levels up
/// to ladder_yield_levels yield to the OS scheduler; beyond that the loser
/// sleeps ladder_sleep_base_us plus a randomized share of a window that
/// grows by ladder_sleep_step_us per level, up to ladder_sleep_cap_steps.
inline constexpr unsigned ladder_relax_levels = 6;
inline constexpr unsigned ladder_relax_max_shift = 12;
inline constexpr unsigned ladder_yield_levels = 10;
inline constexpr unsigned ladder_sleep_base_us = 100;
inline constexpr unsigned ladder_sleep_step_us = 250;
inline constexpr unsigned ladder_sleep_cap_steps = 8;

/// One pause of the ladder at escalation `level` (the task's consecutive
/// restart count, starting at 1). `rng` must expose next_below(bound).
template <typename Rng>
void ladder_pause(unsigned level, Rng& rng) {
  if (level <= ladder_relax_levels) {
    const std::uint64_t iters = rng.next_below(
        std::uint64_t{1} << std::min(level + 4, ladder_relax_max_shift));
    for (std::uint64_t i = 0; i < iters; ++i) util::cpu_relax();
  } else if (level <= ladder_yield_levels) {
    std::this_thread::yield();
  } else {
    const unsigned steps = std::min(level - ladder_yield_levels, ladder_sleep_cap_steps);
    std::this_thread::sleep_for(std::chrono::microseconds(
        ladder_sleep_base_us + rng.next_below(ladder_sleep_step_us * steps)));
  }
}

}  // namespace tlstm::sched
