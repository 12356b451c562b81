// Many-client session front-end (DESIGN.md §8).
//
// The paper's model binds one application thread to one user_thread; the
// session layer decouples them so M concurrent clients share the N fixed
// pipelines:
//
//   tlstm::core::runtime rt(cfg);
//   auto s = rt.open_session();                 // thread-safe handle
//   auto t = s.submit({task1, task2});          // round-robin routed
//   auto u = s.submit_keyed(key, {task3});      // key-affinity routed
//   auto v = s.submit_batch(many_txs);          // one inbox hop, many txs
//   t.then([] { /* runs on the driver */ });    // async completion
//   u.wait(); for (auto& w : v) w.wait();       // parked per-ticket waits
//
// Each pipeline owns a bounded MPSC inbox drained by a dedicated driver
// thread (the pipeline's single submitter, preserving the one-submitter
// invariant of user_thread). An inbox cell carries either one transaction
// or a whole batch (§8.5), so bursty clients pay one push/pop/wake per
// batch instead of per transaction. Full inboxes backpressure clients by
// parking them on the inbox gate. Each submission returns a ticket; the
// driver retires tickets in commit-serial order once the pipeline's commit
// frontier passes them, running any `then()` callbacks and waking parked
// `wait()` callers. Ticket state is self-contained (wait parameters are
// snapshotted by value), so late `wait()`/`done()` calls after the runtime
// stopped never touch freed runtime memory.
//
// Domain note: sessions live in wall-clock land. The pipelines' virtual
// clocks keep running underneath (drivers are the submitting user-threads
// of §5), but ticket completion uses unstamped frontier loads — a session
// client has no worker_clock to join.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/task.hpp"
#include "core/thread_state.hpp"
#include "sched/inbox.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace tlstm::core {

class runtime;
class session_front;
class topology_controller;

/// The session key-affinity routing hash: key k routes to pipeline
/// `session_route_hash(k) % active_pipelines`. Two rounds of a folded
/// 128-bit multiply (wyhash-style mum): the previous splitmix64 finalizer
/// mixed well on random keys but left residue classes of adversarial/
/// strided key sets clustered modulo small pipeline counts (ROADMAP item
/// c); folding high^low of a wide product avalanches every input bit into
/// every output bit, so `% pipelines` sees an unbiased word for structured
/// keys too. Public so the offline trace/journal checker
/// (trace/journal.hpp) can reproduce the placement exactly.
constexpr std::uint64_t session_route_hash(std::uint64_t key) noexcept {
  using u128 = unsigned __int128;
  u128 m = static_cast<u128>(key ^ 0x9e3779b97f4a7c15ull) * 0xe7037ed1a0b428dbull;
  const std::uint64_t x =
      static_cast<std::uint64_t>(m) ^ static_cast<std::uint64_t>(m >> 64);
  m = static_cast<u128>(x ^ 0x8ebc6af09c88c6e3ull) * 0x2d358dccaa6c78a5ull;
  return static_cast<std::uint64_t>(m) ^ static_cast<std::uint64_t>(m >> 64);
}

/// Read-only fast path (DESIGN.md §10): inline attempts per declared read
/// before it falls back to the full task path (stats: readpath_retries
/// counts the failed attempts, readpath_fallbacks the give-ups). Retries
/// pace through the restart backoff ladder (sched::ladder_pause).
inline constexpr unsigned readpath_attempt_cap = 64;

/// Wall-clock stamps of one submission's life cycle (config.capture_latency,
/// DESIGN.md §9). steady_clock nanoseconds; a field is 0 until its capture
/// point is reached (all four stay 0 with capture off). The three phases the
/// tail-latency harness reports are the deltas submit→install (inbox queue +
/// driver drain), install→commit (pipeline execution up to the driver
/// observing the commit frontier) and commit→callback (driver completion
/// phase: callbacks run, completion edge published).
struct ticket_latency {
  std::uint64_t submit_ns = 0;    ///< client enqueued the submission
  std::uint64_t install_ns = 0;   ///< driver installed it into its pipeline
  std::uint64_t commit_ns = 0;    ///< driver observed the frontier pass it
  std::uint64_t callback_ns = 0;  ///< callbacks done, completion published
  bool complete() const noexcept { return callback_ns != 0; }
};

namespace detail {
/// Shared completion state of one session submission. Entirely
/// self-contained: the driver publishes the completion edge here (flag +
/// gate owned by this object, wait parameters copied in at enqueue), so a
/// ticket outliving the runtime stays safe to query.
struct ticket_state {
  /// Serial of the transaction's commit-task; 0 until the driver installs
  /// the transaction. Diagnostic — completion is the `completed` flag.
  std::atomic<std::uint64_t> commit_serial{0};
  /// The completion edge: set by the driver after the commit frontier
  /// passed `commit_serial` and every registered callback ran.
  std::atomic<bool> completed{false};
  /// Parked wait() callers sleep here; the driver wakes it at completion.
  sched::wait_gate gate;
  /// Wait policy snapshotted by value at enqueue — never a pointer into
  /// the (possibly already destroyed) runtime config.
  sched::wait_params waits{};

  /// Callback registry. `completing` flips under the mutex when the driver
  /// claims the list; a then() racing the completion runs its callback
  /// inline in the registering thread (the edge has already passed).
  std::mutex cb_mu;
  bool completing = false;
  std::vector<std::function<void()>> callbacks;
  /// First exception thrown by a driver-run callback; rethrown by every
  /// subsequent wait() on this ticket (written before the `completed`
  /// release-store, read after the acquire-load — no lock needed).
  std::exception_ptr callback_error;

  /// Latency capture points (config.capture_latency, DESIGN.md §9).
  /// Relaxed atomics: the client writes submit_ns before the inbox push,
  /// the driver writes the rest; readers racing the driver may see a
  /// partially stamped record (fields are 0 until reached), but everything
  /// is fully published once `completed` is observed — the stores precede
  /// the completed release-store.
  std::atomic<std::uint64_t> t_submit_ns{0};
  std::atomic<std::uint64_t> t_install_ns{0};
  std::atomic<std::uint64_t> t_commit_ns{0};
  std::atomic<std::uint64_t> t_callback_ns{0};

  /// Actual placement (DESIGN.md §11): the pipeline this submission landed
  /// on and the topology epoch its route was decided under. Stamped by the
  /// enqueueing client immediately before the successful inbox push (a
  /// bounced reroute re-stamps), so harnesses dump real placements into the
  /// journal instead of recomputing hash%width — which would be wrong
  /// across resizes.
  std::atomic<std::uint32_t> pipe{0};
  std::atomic<std::uint64_t> route_epoch{0};
};

/// One transaction riding in an inbox cell.
struct sub_tx {
  std::vector<task_fn> tasks;
  std::shared_ptr<ticket_state> tk;
  /// Declared write-free (session::submit_read*): the driver may serve it
  /// inline at the committed frontier (DESIGN.md §10) instead of
  /// installing tasks.
  bool read_only = false;
};
}  // namespace detail

/// Completion handle for one session submission. Copyable; wait()/done()/
/// then() may be called from any thread, any number of times — including
/// after the owning runtime stopped (runtime::stop() completes every ticket
/// first, so waiting before shutdown always terminates and late calls read
/// only the ticket's own state).
class ticket {
 public:
  ticket() = default;

  /// Blocks (bounded spin, then parked on the ticket's own gate) until the
  /// driver retired the submission — i.e. the transaction committed and its
  /// callbacks ran. Rethrows the first callback exception, if any.
  void wait();
  /// Non-blocking completion probe.
  bool done() const noexcept;
  /// Registers a completion callback, executed by the pipeline's driver
  /// (never by a committing worker) when the commit frontier passes this
  /// ticket's serial. May be called repeatedly — callbacks run in
  /// registration order before any wait() on this ticket returns. If the
  /// ticket already completed, the callback runs inline in the calling
  /// thread (its exceptions then propagate to the caller directly).
  ///
  /// Callbacks run INLINE ON THE DRIVER and must not block: never wait()
  /// on another ticket and never submit against a possibly-full inbox from
  /// inside one — the driver is the only consumer that could drain the
  /// condition, so a blocking callback deadlocks its whole pipeline.
  /// Intended uses are bookkeeping, notification, and handing follow-up
  /// work to another executor.
  void then(std::function<void()> fn);
  bool valid() const noexcept { return st_ != nullptr; }

  /// Commit serial assigned by the driver at install; 0 until installed (or
  /// on an empty ticket). Diagnostic — pair with the pipeline's commit
  /// journal to match a submission to its commit_record. A read-only
  /// submission served by the fast path (DESIGN.md §10) never installs:
  /// its serial stays 0 and no journal record exists — a fallback read
  /// gets a real serial like any other transaction.
  std::uint64_t commit_serial() const noexcept {
    return st_ == nullptr
               ? 0
               : st_->commit_serial.load(std::memory_order_acquire);
  }
  /// Snapshot of the latency capture points (config.capture_latency). All
  /// zero when capture is off or the ticket is empty; fully stamped once
  /// done() has returned true.
  ticket_latency latency() const noexcept;

  /// The pipeline this submission actually landed on and the topology epoch
  /// its route was decided under (DESIGN.md §11). Stable once the enqueue
  /// call returned; 0/0 on an empty ticket. Under a static topology the
  /// epoch is always 0 and the pipe equals hash%pipelines — under elastic
  /// resizing these are the authoritative placement for journal tooling.
  unsigned pipeline() const noexcept {
    return st_ == nullptr ? 0 : st_->pipe.load(std::memory_order_acquire);
  }
  std::uint64_t route_epoch() const noexcept {
    return st_ == nullptr ? 0 : st_->route_epoch.load(std::memory_order_acquire);
  }

 private:
  friend class session_front;
  explicit ticket(std::shared_ptr<detail::ticket_state> st) : st_(std::move(st)) {}
  std::shared_ptr<detail::ticket_state> st_;
};

/// Thread-safe submission handle over a runtime's session front-end.
/// Cheap to copy; all handles of one runtime share the pipelines. Valid
/// until the runtime stops.
class session {
 public:
  /// Submits one transaction to the next pipeline (round-robin). Parks on
  /// the inbox while the pipeline's backlog is full. Throws
  /// std::invalid_argument on an empty/oversized decomposition and
  /// std::runtime_error once the runtime is stopping.
  ticket submit(std::vector<task_fn> tasks);
  ticket submit_single(task_fn fn);

  /// Key-affinity routing: all submissions with equal keys go to the same
  /// pipeline, so a client's per-key transactions run in submission order.
  ticket submit_keyed(std::uint64_t key, std::vector<task_fn> tasks);

  /// Read-only submission (DESIGN.md §10): declares the transaction free
  /// of writes, so its pipeline driver may serve it inline against the
  /// committed frontier — invisible timestamped reads, no task slots, no
  /// commit serial (the ticket's commit_serial() stays 0 on the fast
  /// path), no journal record. The snapshot equals the committed state at
  /// some frontier during execution; it deliberately does NOT wait for
  /// earlier in-flight submissions, so there is no read-your-writes
  /// ordering against still-queued tickets — wait() on the writing ticket
  /// first when that order matters. A closure that writes anyway (or keeps
  /// conflicting past readpath_attempt_cap) transparently falls back to
  /// the full task path. With config.read_path off every submit_read takes
  /// the full path.
  ticket submit_read(std::vector<task_fn> tasks);
  ticket submit_read_single(task_fn fn);
  /// Key-routed read-only submission: shares the key's pipeline (and
  /// driver) with submit_keyed writers. The fast path still reads the
  /// committed frontier — it does not order against in-flight writes of
  /// the key.
  ticket submit_read_keyed(std::uint64_t key, std::vector<task_fn> tasks);

  /// Batched submission (DESIGN.md §8.5): carries the whole vector of
  /// transactions to ONE pipeline in chunks of config.session_batch_max
  /// per inbox cell — one push/pop/wake per chunk instead of per
  /// transaction. Returns one ticket per transaction, in order; the batch
  /// executes in submission order on its pipeline. Validates every
  /// transaction before enqueuing anything.
  std::vector<ticket> submit_batch(std::vector<std::vector<task_fn>> txs);
  /// Batched submission with key affinity: batches of equal keys share a
  /// pipeline, so per-key FIFO order spans batches of one client.
  std::vector<ticket> submit_batch_keyed(std::uint64_t key,
                                         std::vector<std::vector<task_fn>> txs);

  unsigned pipelines() const noexcept;
  /// The pipeline submit_keyed(key, ...) routes to under the CURRENT
  /// topology — exposes the routing so harnesses can match submissions to
  /// per-pipeline commit journals. Under elastic resizing this is a
  /// snapshot; a ticket's authoritative placement is ticket::pipeline().
  unsigned pipeline_for_key(std::uint64_t key) const noexcept;

  // --- Elastic topology (DESIGN.md §11). All of these are valid whether or
  // --- not config.elastic is on; with it off the topology is pinned at
  // --- num_threads, epoch 0.
  /// Number of currently ACTIVE pipelines (<= pipelines()).
  unsigned active_pipelines() const noexcept;
  /// Current topology epoch (bumps once per resize).
  std::uint64_t topology_epoch() const noexcept;
  /// Manual topology control: resizes the active pipeline set to `width`
  /// (clamped to [min_pipelines, num_threads] with elastic on, [1,
  /// num_threads] otherwise), running the full fence/drain/handoff
  /// protocol. Serialized against the controller and other callers; returns
  /// false when the width is unchanged after clamping or the front is
  /// stopping. Blocks until queued work of the previous epoch drained (the
  /// resize fence) — do not call from a driver callback.
  bool resize(unsigned width);
  /// Epoch -> active-width history, oldest first (starts with {0, initial
  /// width}). Journal dumps attach this so the offline checker can validate
  /// placement per epoch.
  std::vector<std::pair<std::uint64_t, unsigned>> topology_history() const;

 private:
  friend class runtime;
  explicit session(session_front& fr) : front_(&fr) {}
  session_front* front_;
};

/// The runtime-owned session machinery: one inbox + driver per pipeline.
/// Internal — created lazily by runtime::open_session(), stopped (drained)
/// by runtime::stop() before the pipelines themselves quiesce.
class session_front {
 public:
  explicit session_front(runtime& rt);
  ~session_front();
  session_front(const session_front&) = delete;
  session_front& operator=(const session_front&) = delete;

  /// Routed enqueue (DESIGN.md §11): `key` selects key-affinity routing
  /// (hash % active width), nullopt round-robins over the active set. The
  /// route is decided *inside* the push protocol so it is always consistent
  /// with the topology epoch the push lands under — callers cannot pick a
  /// pipeline index themselves, a pre-resize index would be stale by the
  /// time the cell lands.
  ticket enqueue(std::optional<std::uint64_t> key, std::vector<task_fn> tasks,
                 bool read_only = false);
  std::vector<ticket> enqueue_batch(std::optional<std::uint64_t> key,
                                    std::vector<std::vector<task_fn>> txs);
  /// The pipeline a key routes to under the current topology (snapshot).
  unsigned route_key(std::uint64_t key) const noexcept;
  unsigned pipelines() const noexcept { return static_cast<unsigned>(pipes_.size()); }

  // --- Elastic topology (DESIGN.md §11) ---
  /// Currently active pipeline count (the prefix [0, width) of pipes_).
  unsigned active_pipelines() const noexcept {
    return topo_width(topo_.load(std::memory_order_seq_cst));
  }
  std::uint64_t topology_epoch() const noexcept {
    return topo_epoch(topo_.load(std::memory_order_seq_cst));
  }
  /// Runs the resize protocol (revive/publish/close/fence/retire); false if
  /// the width is unchanged after clamping or the front is stopping.
  /// Serialized under resize_mu_ against concurrent resizes and stop().
  bool apply_resize(unsigned width);
  /// Epoch -> width history, oldest first.
  std::vector<std::pair<std::uint64_t, unsigned>> topology_history() const;
  /// Width clamp for manual/controller resizes.
  unsigned clamp_width(unsigned width) const noexcept;

  /// Folds the drivers' counters (batches, callbacks, driver parks) into
  /// `total`. Quiesce (stop) first for exact values.
  void accumulate_stats(util::stat_block& total) const;

  /// Drains every inbox, submits the backlog, drains the pipelines,
  /// retires every outstanding ticket and joins the drivers. Idempotent;
  /// further submissions throw.
  void stop();

 private:
  friend class topology_controller;

  // Topology word layout (DESIGN.md §11): one seq_cst atomic packs the whole
  // routing epoch so clients read a consistent {width, prev_width, epoch,
  // fence} in a single load. Bits [0,17) width, [17,34) previous width,
  // [34,63) epoch, bit 63 fence-pending. 17 bits of width bound num_threads
  // at 128Ki pipelines; 29 epoch bits wrap after 500M resizes — the
  // controller's minimum period makes that decades of uptime.
  static constexpr std::uint64_t topo_pack(unsigned width, unsigned prev,
                                           std::uint64_t epoch, bool fence) noexcept {
    return static_cast<std::uint64_t>(width) |
           (static_cast<std::uint64_t>(prev) << 17) |
           ((epoch & ((std::uint64_t{1} << 29) - 1)) << 34) |
           (fence ? (std::uint64_t{1} << 63) : 0);
  }
  static constexpr unsigned topo_width(std::uint64_t w) noexcept {
    return static_cast<unsigned>(w & 0x1ffff);
  }
  static constexpr unsigned topo_prev(std::uint64_t w) noexcept {
    return static_cast<unsigned>((w >> 17) & 0x1ffff);
  }
  static constexpr std::uint64_t topo_epoch(std::uint64_t w) noexcept {
    return (w >> 34) & ((std::uint64_t{1} << 29) - 1);
  }
  static constexpr bool topo_fence(std::uint64_t w) noexcept { return (w >> 63) != 0; }

  /// One inbox cell: a single transaction (the submit() fast path — no
  /// batch-vector allocation) or a batch of them (submit_batch chunks).
  struct submission {
    std::variant<detail::sub_tx, std::vector<detail::sub_tx>> body;
  };
  /// Driver-local completion queue entry. Entries are appended in commit-
  /// serial order (the driver is the pipeline's single submitter), so the
  /// queue head is always the oldest outstanding serial.
  struct pending_ticket {
    std::uint64_t serial = 0;
    std::shared_ptr<detail::ticket_state> tk;
  };
  struct pipe {
    pipe(runtime& rt, unsigned t);
    sched::bounded_inbox<submission> inbox;
    /// Driver-side counters (batches drained, callbacks run, driver
    /// parks); folded into runtime::aggregated_stats().
    util::stat_block stats;

    // --- Read-only fast path execution state (DESIGN.md §10), owned by
    // --- the driver thread.
    /// Dummy slot satisfying task_env's references. Its serial stays 0 —
    /// a value no restart fence ever covers — and only ops_reported and
    /// the mm logs are actually used.
    task_slot ro_slot;
    /// Driver-local virtual clock so task_ctx::work in read closures has
    /// somewhere to advance (never joined into the pipeline's timeline).
    vt::worker_clock ro_clock;
    /// Grace-period frees logged by read closures (log_commit_retire) and
    /// undone allocations of abandoned attempts.
    util::reclaimer ro_reclaimer;
    /// Paces fast-path retries through the restart backoff ladder.
    util::xoshiro256 rng;
    /// Epoch participant pinned around each fast-path attempt, so reads
    /// of reclaimed structures stay within a grace period.
    std::size_t epoch_slot = 0;
    /// The invisible-read frontier validator (stm/readpath.hpp), SwissTM
    /// flavour — the core runtime's table is a SwissTM lock table.
    std::unique_ptr<stm::frontier_reader> reader;

    // --- Elastic topology state (DESIGN.md §11) ---
    /// Transactions successfully pushed into this pipe (counted per tx, not
    /// per cell); bumped by the enqueueing client after the push lands and
    /// BEFORE its parity counter drops, so the controller's post-crossing
    /// snapshot covers it.
    std::atomic<std::uint64_t> enqueued_txs{0};
    /// Transactions fully retired by the driver (completion edge published,
    /// read fast-path included). The resize fence resolves when every
    /// old-active pipe's retired count reaches its enqueued snapshot.
    std::atomic<std::uint64_t> retired_txs{0};
    /// In-flight pusher counters indexed by (route epoch & 1). A client
    /// raises the counter of the epoch it routed under, re-checks the
    /// topology word (seq_cst Dekker with the resize publish), and backs
    /// off/retries if the epoch moved. apply_resize publishes epoch E then
    /// waits for a momentary zero of parity (E-1)&1 per pipe: after that,
    /// every pusher still in flight decided under E, so a snapshot of
    /// enqueued_txs bounds the old epoch's traffic exactly. Parity suffices
    /// because resize E's crossing already cleared all E-1 pushers before
    /// resize E+1 can start (resizes are serialized).
    std::atomic<std::uint64_t> pushers[2] = {{0}, {0}};
    /// 0 = active; 2 = retiring/retired/dormant: the driver drains what is
    /// already published, completes it, and exits. Raised only after the
    /// inbox closed and the pusher crossing confirmed nothing more can
    /// land. Dormant-at-start pipes (elastic, index >= min_pipelines) are
    /// constructed in state 2 with no driver.
    std::atomic<unsigned> retire_state{0};
    /// Controller gauge: inbox-depth EWMA, fixed-point x1000 (observability
    /// only; the controller keeps its own float state).
    std::atomic<std::uint64_t> depth_ewma_milli{0};

    std::thread driver;
  };

  void driver_main(unsigned t);
  /// Spawns pipe t's driver thread (retire_state -> 0, inbox reopened).
  /// Caller must hold resize_mu_ (or be the constructor).
  void start_pipe(unsigned t);
  /// The route-and-push protocol (DESIGN.md §11): decides the route under
  /// the current topology word, raises the parity pusher counter, re-checks
  /// the epoch, honours the resize fence for FIFO submissions whose route
  /// changed, pushes (rerouting on a closed-inbox bounce), stamps every
  /// ticket's placement and bumps the pipe's enqueued count. `route_hash`
  /// is the final routing value (already hashed for keys; the raw
  /// round-robin index for sticky unkeyed batches; nullopt draws a fresh
  /// round-robin index per attempt). `fifo` opts into the resize fence —
  /// keyed writers and batches, whose submission order is guaranteed.
  /// Returns the pipeline the cell landed on.
  unsigned route_and_push(std::optional<std::uint64_t> route_hash, bool fifo,
                          submission&& s, std::uint64_t n_txs);
  /// Fold-at-2^62 round-robin counter draw (raw, caller takes % width).
  std::uint64_t rr_index() noexcept;
  /// Read-only fast path (DESIGN.md §10): runs `tx` inline on the driver
  /// against the committed frontier, retrying conflicts through the
  /// backoff ladder up to readpath_attempt_cap attempts. True ⇒ the
  /// ticket completed (commit_serial stays 0); false ⇒ the attempt was
  /// abandoned (a write, or retries exhausted — readpath_fallbacks) and
  /// the caller must install it down the full task path.
  bool execute_read(unsigned t, detail::sub_tx& tx);
  /// Throws std::invalid_argument unless `tasks` is a valid decomposition.
  void validate_tx(const std::vector<task_fn>& tasks) const;
  std::shared_ptr<detail::ticket_state> make_ticket_state() const;
  /// Install phase: publishes every transaction's commit serial under one
  /// submitted_serials() read, then submits them and queues their tickets.
  void install_submission(unsigned t, submission& s,
                          std::deque<pending_ticket>& pending);
  /// Complete phase: retires every queued ticket whose serial the commit
  /// frontier has passed (runs callbacks, publishes the completion edge).
  void complete_passed(unsigned t, std::deque<pending_ticket>& pending);
  void complete_ticket(pipe& p, detail::ticket_state& tk);
  /// Raises the pending-enqueue count and checks the stop flag (Dekker
  /// pairing, see pending_enqueues_); throws once the front is stopping.
  void begin_enqueue();
  /// Drops the pending-enqueue count and, when stopping, wakes every
  /// driver (any of them may be parked on the count's zero crossing).
  void finish_enqueue() noexcept;

  runtime& rt_;
  std::vector<std::unique_ptr<pipe>> pipes_;
  std::atomic<std::uint64_t> rr_{0};
  std::atomic<bool> stopping_{false};
  /// Enqueues between their stopping_ check and their completed push.
  /// Drivers honour the stop flag only once this is zero (seq_cst Dekker
  /// pairing with stopping_), so a submission that passed the check is
  /// always drained — no racing push can strand a ticket in a dead inbox.
  /// Stop-protocol only; the resize fence deliberately does NOT wait on it
  /// (fence-parked pushers hold it — waiting would deadlock; the parity
  /// pusher counters carry the resize crossing instead).
  std::atomic<std::uint64_t> pending_enqueues_{0};

  // --- Elastic topology (DESIGN.md §11) ---
  /// The packed topology word (see topo_pack). seq_cst on both sides of the
  /// pusher-parity Dekker.
  std::atomic<std::uint64_t> topo_{0};
  /// Keyed writers whose route changed across the pending resize park here
  /// until the fence clears (old epoch's traffic on their old pipe
  /// retired) — this is what preserves per-key FIFO across a resize.
  sched::wait_gate fence_gate_;
  /// Serializes apply_resize callers (controller, session::resize, stop).
  std::mutex resize_mu_;
  mutable std::mutex history_mu_;
  std::vector<std::pair<std::uint64_t, unsigned>> history_;
  std::atomic<std::uint64_t> grows_{0};
  std::atomic<std::uint64_t> shrinks_{0};
  std::atomic<std::uint64_t> fence_waits_{0};
  std::atomic<std::uint64_t> reroutes_{0};
  /// Load-driven resize controller (core/topology.hpp); null unless
  /// config.elastic with a non-zero topo_interval_us. Joined first in
  /// stop().
  std::unique_ptr<topology_controller> controller_;
};

}  // namespace tlstm::core
