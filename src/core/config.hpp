// TLSTM runtime configuration.
#pragma once

#include <cstdint>

#include "sched/params.hpp"
#include "vt/cost_model.hpp"

namespace tlstm::core {

/// Inter-thread contention-management tie-break policy — applied when the
/// task-aware progress comparison (paper Alg. 2 lines 55-60) ties, or for
/// every decision when cm_task_aware is off. The paper ships two-phase
/// greedy ("TLSTM implements the two phase greedy contention manager for
/// this case") and names the layer pluggable; these are the classic
/// alternatives from the STM contention-management literature.
enum class cm_policy : std::uint8_t {
  greedy,      ///< older transaction (start timestamp) wins
  karma,       ///< transaction with more transactional accesses wins
  aggressive,  ///< the requester always wins (signals the owner to abort)
  /// The requester yields (self-aborts after spinning) while the owner makes
  /// progress; after repeated losses it escalates to greedy. Pure yielding
  /// deadlocks on exactly the crossed-lock cycle of paper §3.2 — owners
  /// only release stripes at transaction commit, and the commits wait on
  /// tasks stuck behind the other thread's stripes — so a policy that can
  /// never abort an owner cannot be used unescalated in this design (the
  /// cm_policy_test suite demonstrates both halves).
  polite,
};

struct config {
  /// Number of hand-parallelized user-threads (the TM dimension).
  unsigned num_threads = 1;
  /// SPECDEPTH: simultaneously active speculative tasks per user-thread
  /// (the TLS dimension). A user-transaction may contain at most this many
  /// tasks (paper §3.3: the owners array has SPECDEPTH slots).
  unsigned spec_depth = 1;
  /// log2 of the global lock-table size.
  unsigned log2_table = 20;
  /// Virtual-time cost model (DESIGN.md §5).
  vt::cost_model costs{};
  /// cm_policy::polite only: consecutive self-aborts of a task before the
  /// policy escalates to greedy (deadlock breaker, see cm_policy::polite).
  unsigned cm_polite_abort_cap = 8;
  /// Task-aware contention management (paper §3.2): compare per-transaction
  /// task progress before falling back to greedy. Disabling it reproduces
  /// the naive SwissTM contention manager for the ablation bench (which the
  /// paper shows can livelock/deadlock task pipelines; we keep greedy as the
  /// fallback so the ablation measures throughput, not hangs).
  bool cm_task_aware = true;
  /// Tie-break policy below the task-aware comparison (bench/abl_cm_policy
  /// measures the alternatives; greedy is the paper's choice and avoids
  /// starvation by construction).
  cm_policy cm_tie_break = cm_policy::greedy;
  /// Wait policy of the parked-waiting substrate (DESIGN.md §8/§8.6): every
  /// runtime predicate wait spins a bounded number of backoff-paced checks,
  /// then parks on a wait_gate. With `waits.adaptive` (default) the budget
  /// is tuned per gate class by the wait_governor within [4, 4096], seeded
  /// from `waits.spin_rounds`; `waits.adaptive = false` pins every class to
  /// the static `waits.spin_rounds`, and `waits.park = false` reproduces
  /// the pure-spinning runtime (the bench/abl_sessions and bench/abl_waits
  /// baselines). Validation: spin_rounds >= 1.
  sched::wait_params waits{};
  /// Capacity of each pipeline's session inbox (rounded up to a power of
  /// two). Full inboxes backpressure session clients; must be >= 1.
  unsigned session_inbox_capacity = 64;
  /// Max transactions carried per inbox cell by session::submit_batch
  /// (DESIGN.md §8.5); larger batches are split into chunks of this size.
  /// Bounds per-cell memory and the latency head-of-line a giant batch can
  /// impose on its pipeline; must be >= 1.
  unsigned session_batch_max = 32;
  /// Inconsistent-read mitigation: force a full validation every N committed
  /// reads of a task (0 disables; paper §3.2 "Inconsistent Reads").
  unsigned validate_every_n_reads = 0;
  /// Adaptive speculation-depth control (DESIGN.md §5a): each user-thread
  /// runs a vt::adapt_controller that narrows/widens a per-thread admission
  /// window in [1, spec_depth] from observed speculation efficiency. Off by
  /// default — the static runtime is the paper's configuration.
  bool adapt_window = false;
  /// Controller epoch length, in finished task incarnations per thread.
  std::uint64_t adapt_interval_tasks = 64;
  /// Waste share (priced wasted / total virtual cycles of an epoch) at or
  /// above which an epoch votes to narrow the window …
  double adapt_shrink_ratio = 0.40;
  /// … and at or below which it votes to widen it. The band between the two
  /// ratios votes for neither direction (hysteresis dead zone); the window
  /// moves a step after vt::adapt_params' default two same-direction votes.
  double adapt_grow_ratio = 0.10;
  /// Elastic pipeline topology (DESIGN.md §11): a topology controller
  /// grows/shrinks the ACTIVE pipeline count within
  /// [min_pipelines, num_threads] from observed per-pipeline occupancy,
  /// bringing worker groups and session drivers up and down on demand.
  /// Requires session-front usage (runtime::open_session) — with elastic on,
  /// worker groups past min_pipelines are only spawned when the controller
  /// activates their pipeline, so driving those user_thread handles directly
  /// is undefined. Off by default: the static full-width topology is the
  /// paper's configuration.
  bool elastic = false;
  /// Lower bound of the active pipeline count while elastic is on; also the
  /// initial width. Must be in [1, num_threads].
  unsigned min_pipelines = 1;
  /// Controller sampling period in microseconds. 0 disables the controller
  /// thread entirely — resizes then happen only through session::resize()
  /// (manual topology control; what the resize tests use). The controller
  /// backs off to 16x this period while the topology is stable and idle,
  /// so a quiet system pays almost no control-loop CPU.
  std::uint64_t topo_interval_us = 1000;
  /// Mean queued+in-flight transactions per active pipeline (EWMA) at or
  /// above which a controller tick votes to grow the topology …
  double topo_grow_depth = 2.0;
  /// … and at or below which it votes to shrink. The band between the two
  /// is the hysteresis dead zone (same shape as adapt_shrink/grow_ratio).
  double topo_shrink_depth = 0.25;
  /// Consecutive same-direction controller votes before a resize happens.
  unsigned topo_hysteresis = 2;
  /// Record (tx_start, tx_commit, commit_ts) per committed transaction; used
  /// by the serializability oracle tests.
  bool record_commits = false;
  /// Stamp wall-clock capture points (submit / install / commit-observed /
  /// callback, DESIGN.md §9) into every session ticket so open-loop
  /// harnesses can build per-phase latency histograms. One steady_clock
  /// read per point on the session paths only — workers never stamp — and
  /// off by default so closed-loop benches pay nothing.
  bool capture_latency = false;
  /// Read-only fast path (DESIGN.md §10): session submissions declared
  /// read-only (session::submit_read*) execute inline on their pipeline's
  /// driver against the committed frontier — invisible timestamped reads,
  /// no task slots, no commit serialization, no journal record. Off ⇒
  /// read-only submissions take the full task path (and, like every
  /// write-free transaction, commit with commit_ts 0). A read that keeps
  /// conflicting falls back after core::readpath_attempt_cap attempts.
  bool read_path = true;
  /// Bounded-memory server mode (DESIGN.md §12): minimum committed records
  /// retained per user-thread journal. 0 = unbounded (the default; journal
  /// dumps stay byte-identical to the v1 format and the serializability
  /// oracle sees the full history). Nonzero: the commit path retires whole
  /// journal chunks strictly older than the retain frontier once at least
  /// `journal_retain` newer records exist; dumps then carry `T` truncation
  /// header lines and the checkers validate the retained suffix.
  std::uint64_t journal_retain = 0;
};

}  // namespace tlstm::core
