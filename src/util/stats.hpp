// Runtime statistics. Each worker owns a padded counter block (plain
// uint64 fields — worker-local writes, aggregated only after quiescence), so
// collecting statistics never adds synchronization to the measured paths.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "util/cache.hpp"

// Every counter is declared once, in TLSTM_STAT_FIELDS: X(name) per field,
// in field order. The struct's fields, accumulate() and the printed dump
// are all generated from this list, so a new counter is one line here.
#define TLSTM_STAT_FIELDS(X)                                                   \
  /* Progress. */                                                              \
  X(tx_started)                                                                \
  X(tx_committed)                                                              \
  X(tx_read_only)                                                              \
  X(task_started)                                                              \
  X(task_committed)                                                            \
  X(task_restarts)                                                             \
  X(tx_nested) /* nested atomic scopes flattened (paper §2) */                 \
                                                                               \
  /* Abort causes (task granularity). */                                       \
  X(abort_war) /* intra-thread write-after-read */                             \
  X(abort_waw_past_running) /* wrote where a running past task wrote */        \
  X(abort_waw_signalled) /* future task killed by past writer */               \
  X(abort_cm) /* inter-thread contention manager */                            \
  X(abort_validation) /* read-log revalidation failed */                       \
  X(abort_tx_inter) /* whole-transaction inter-thread abort */                 \
  X(abort_fence) /* cascaded by the thread restart fence */                    \
                                                                               \
  /* Operation mix. */                                                         \
  X(reads_committed) /* reads served from committed state */                   \
  X(reads_speculative) /* reads served from redo-log chains */                 \
  X(writes)                                                                    \
  X(task_validations)                                                          \
  X(ts_extensions)                                                             \
  X(chain_hops) /* redo-chain entries traversed */                             \
  X(wait_spins) /* failed predicate checks in waits (all classes) */           \
  X(wait_parks) /* futex parks after the spin budget (all classes) */          \
                                                                               \
  /* Waits split by gate class (sched::gate_class, DESIGN.md §8.6) so the      \
     wait governor's per-class behaviour is observable: *_handoff =            \
     completion/commit frontier waits, *_inbox = waiting-for-work (slot        \
     installs, session inbox, driver completion parks), *_rollback =           \
     restart-fence parking and window admission, *_stripe = foreign-stripe     \
     release waits on the gate table, *_cm = polite-CM victim waits. The       \
     aggregate wait_spins/wait_parks above include these. */                   \
  X(wait_spins_handoff)                                                        \
  X(wait_parks_handoff)                                                        \
  X(wait_spins_inbox)                                                          \
  X(wait_parks_inbox)                                                          \
  X(wait_spins_rollback)                                                       \
  X(wait_parks_rollback)                                                       \
  X(wait_spins_stripe)                                                         \
  X(wait_parks_stripe)                                                         \
  X(wait_spins_cm)                                                             \
  X(wait_parks_cm)                                                             \
                                                                               \
  /* Workload-reported operations (count_ops); committed work only — the       \
     harness falls back to committed_tx * ops_per_tx when this stays 0. */     \
  X(user_ops)                                                                  \
                                                                               \
  /* Session front-end drivers (DESIGN.md §8.5). */                            \
  X(session_batches) /* inbox cells drained by drivers */                      \
  X(session_batch_txs) /* transactions those cells carried */                  \
  X(session_callbacks) /* ticket::then callbacks run */                        \
  X(session_callback_errors) /* callbacks that threw (rethrown by wait) */     \
  X(latency_samples) /* fully stamped tickets (DESIGN.md §9) */                \
                                                                               \
  /* Read-only fast path (DESIGN.md §10), counted by the executing driver. */  \
  X(readpath_hits) /* read-only txns served at the frontier */                 \
  X(readpath_retries) /* snapshot attempts retried on conflict */              \
  X(readpath_fallbacks) /* read-only txns sent down the full path */           \
                                                                               \
  /* Adaptive speculation (DESIGN.md §5a). */                                  \
  X(window_shrinks) /* controller narrowed the window */                       \
  X(window_grows) /* controller widened the window */                          \
  X(tasks_deferred) /* ready tasks held outside the window */                  \
  X(window_stalls) /* charged submit-side window stalls */                     \
  X(drain_stalls) /* charged drain-side stalls */                              \
                                                                               \
  /* Elastic pipeline topology (DESIGN.md §11). */                             \
  X(topo_grows) /* controller widened the pipeline set */                      \
  X(topo_shrinks) /* controller narrowed it */                                 \
  X(topo_fence_waits) /* keyed pushes parked on a resize fence */              \
  X(topo_reroutes) /* pushes bounced off a closed inbox */                     \
  X(gate_shard_parks) /* futex parks across gate-table shards */               \
                                                                               \
  /* Bounded-memory server mode (DESIGN.md §12): reclamation observability. */ \
  X(journal_chunks_live) /* journal chunks currently held */                   \
  X(journal_chunks_pruned) /* journal chunks retired below the frontier */     \
  X(writelog_chunks_recycled) /* write-log chunks reissued after grace */      \
  X(pool_bytes_trimmed) /* bytes returned to the OS by trim passes */

namespace tlstm::util {

/// Counter block for one worker. Field names mirror the paper's abort
/// taxonomy (§3.2): WAR / WAW intra-thread conflicts, inter-thread
/// contention-manager kills, validation failures, transaction-level aborts.
struct alignas(cache_line_size) stat_block {
#define TLSTM_STAT_DECLARE(name) std::uint64_t name = 0;
  TLSTM_STAT_FIELDS(TLSTM_STAT_DECLARE)
#undef TLSTM_STAT_DECLARE

  void accumulate(const stat_block& other) noexcept;
  std::uint64_t aborts_total() const noexcept {
    return abort_war + abort_waw_past_running + abort_waw_signalled + abort_cm +
           abort_validation + abort_tx_inter + abort_fence;
  }
};

/// One-line `name=value` dump of every field, in field order, for logs.
std::string to_string(const stat_block& s);
std::ostream& operator<<(std::ostream& os, const stat_block& s);

}  // namespace tlstm::util
