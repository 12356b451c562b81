// Calibrated virtual-cycle costs for every runtime event (DESIGN.md §5).
//
// The constants price the *relative* cost of STM/TLS runtime events on the
// paper's class of hardware (multi-socket ccNUMA, circa 2012). They were
// calibrated so that the reproduced figures land in the paper's reported
// bands (DESIGN.md §5 describes the model); the qualitative shapes are
// insensitive to ±50 % perturbations of any single constant, which
// bench/abl_validation demonstrates.
#pragma once

#include <cstdint>

namespace tlstm::vt {

struct cost_model {
  // --- Common STM path (SwissTM and TLSTM share these). ---
  std::uint64_t read_committed = 40;    ///< tm read hitting committed state
  std::uint64_t read_own_write = 30;    ///< read served from own write log
  std::uint64_t write_word = 60;        ///< buffered tm write incl. lock probe
  std::uint64_t log_entry_validate = 8; ///< revalidating one read-log entry
  std::uint64_t ts_extend_fixed = 40;   ///< fixed part of a timestamp extension
  std::uint64_t commit_fixed = 150;     ///< commit entry/exit, clock bump
  std::uint64_t commit_per_write = 25;  ///< write-back + version publish per word
  std::uint64_t abort_fixed = 250;      ///< descriptor reset, log clears
  std::uint64_t abort_per_write = 15;   ///< popping one speculative entry
  std::uint64_t tx_begin = 80;          ///< descriptor setup

  // --- TLS additions (TLSTM only). ---
  std::uint64_t read_speculative = 55;  ///< read served from a redo-log chain
  std::uint64_t chain_hop = 6;          ///< each chain entry traversed
  std::uint64_t task_start = 300;       ///< task dispatch + state init
  std::uint64_t task_complete = 200;    ///< completion bookkeeping
  std::uint64_t task_log_validate = 8;  ///< task-read-log entry validation
  std::uint64_t fence_coordination = 400; ///< stop-the-thread-world rollback
  /// Submitter-side stall wakeup: charged once per submit/drain wait whose
  /// unblocking publication lay in the submitter's virtual future (the stall
  /// *duration* is captured by the stamped-load join; this prices the
  /// blocked-side handoff itself, so window-bound runs are never free).
  std::uint64_t window_stall = 40;

  // --- Workload compute (user work between tm accesses). ---
  std::uint64_t user_work_unit = 1;     ///< multiplier for ctx.work(n)

  /// Preset matching the defaults above; hook for experiments that want a
  /// differently-shaped machine.
  static cost_model calibrated_2012() { return cost_model{}; }

  /// A zero-overhead model: virtual time advances only on user work. Used by
  /// unit tests that assert causality joins independent of pricing.
  static cost_model zero();
};

}  // namespace tlstm::vt
