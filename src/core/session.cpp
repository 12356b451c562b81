// Session front-end implementation: per-pipeline driver threads draining
// bounded MPSC inboxes in three phases — drain (pop every published cell),
// install (publish commit serials, submit), complete (retire tickets the
// commit frontier passed, running their callbacks). See DESIGN.md §8.4/§8.5.
#include "core/session.hpp"

#include <cassert>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/runtime.hpp"
#include "core/topology.hpp"
#include "sched/backoff_ladder.hpp"
#include "stm/readpath.hpp"

namespace tlstm::core {

namespace {
/// Latency capture clock (config.capture_latency): monotonic nanoseconds.
/// Only read on session paths — submit, install, and the driver's complete
/// phase — never by workers.
std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

// ---------------------------------------------------------------------------
// ticket
// ---------------------------------------------------------------------------

void ticket::wait() {
  if (st_ == nullptr) throw std::logic_error("ticket::wait on an empty ticket");
  detail::ticket_state& st = *st_;
  // Single completion edge: the driver stores `completed` (release) after
  // the frontier passed the serial AND every callback ran, then wakes this
  // gate. Everything the wait touches lives in the shared ticket state, so
  // a wait racing (or following) runtime shutdown is safe — stop() retires
  // every issued ticket before the runtime dies.
  st.gate.await(st.waits, [&] {
    return st.completed.load(std::memory_order_acquire);
  });
  // Callback exceptions are never swallowed: the first one is rethrown by
  // every wait() on this ticket (written happens-before the completed
  // store).
  if (st.callback_error) std::rethrow_exception(st.callback_error);
}

bool ticket::done() const noexcept {
  return st_ != nullptr && st_->completed.load(std::memory_order_acquire);
}

void ticket::then(std::function<void()> fn) {
  if (st_ == nullptr) throw std::logic_error("ticket::then on an empty ticket");
  detail::ticket_state& st = *st_;
  {
    std::lock_guard<std::mutex> lk(st.cb_mu);
    if (!st.completing) {
      st.callbacks.push_back(std::move(fn));
      return;
    }
  }
  // The driver already claimed the callback list (the completion edge has
  // passed): run inline in the registering thread — still never a
  // committing worker — and let exceptions propagate to the caller.
  fn();
}

ticket_latency ticket::latency() const noexcept {
  ticket_latency out;
  if (st_ == nullptr) return out;
  // Acquire on the completion flag orders the relaxed stamp loads after a
  // completed ticket's stores; a racing read of an in-flight ticket just
  // sees the not-yet-reached points as 0.
  (void)st_->completed.load(std::memory_order_acquire);
  out.submit_ns = st_->t_submit_ns.load(std::memory_order_relaxed);
  out.install_ns = st_->t_install_ns.load(std::memory_order_relaxed);
  out.commit_ns = st_->t_commit_ns.load(std::memory_order_relaxed);
  out.callback_ns = st_->t_callback_ns.load(std::memory_order_relaxed);
  return out;
}

// ---------------------------------------------------------------------------
// session
// ---------------------------------------------------------------------------

ticket session::submit(std::vector<task_fn> tasks) {
  return front_->enqueue(std::nullopt, std::move(tasks));
}

ticket session::submit_single(task_fn fn) {
  std::vector<task_fn> one;
  one.push_back(std::move(fn));
  return submit(std::move(one));
}

ticket session::submit_keyed(std::uint64_t key, std::vector<task_fn> tasks) {
  return front_->enqueue(key, std::move(tasks));
}

ticket session::submit_read(std::vector<task_fn> tasks) {
  return front_->enqueue(std::nullopt, std::move(tasks), /*read_only=*/true);
}

ticket session::submit_read_single(task_fn fn) {
  std::vector<task_fn> one;
  one.push_back(std::move(fn));
  return submit_read(std::move(one));
}

ticket session::submit_read_keyed(std::uint64_t key, std::vector<task_fn> tasks) {
  return front_->enqueue(key, std::move(tasks), /*read_only=*/true);
}

std::vector<ticket> session::submit_batch(std::vector<std::vector<task_fn>> txs) {
  return front_->enqueue_batch(std::nullopt, std::move(txs));
}

std::vector<ticket> session::submit_batch_keyed(std::uint64_t key,
                                                std::vector<std::vector<task_fn>> txs) {
  return front_->enqueue_batch(key, std::move(txs));
}

unsigned session::pipelines() const noexcept { return front_->pipelines(); }

unsigned session::pipeline_for_key(std::uint64_t key) const noexcept {
  return front_->route_key(key);
}

unsigned session::active_pipelines() const noexcept {
  return front_->active_pipelines();
}

std::uint64_t session::topology_epoch() const noexcept {
  return front_->topology_epoch();
}

bool session::resize(unsigned width) { return front_->apply_resize(width); }

std::vector<std::pair<std::uint64_t, unsigned>> session::topology_history() const {
  return front_->topology_history();
}

// ---------------------------------------------------------------------------
// session_front
// ---------------------------------------------------------------------------

session_front::pipe::pipe(runtime& rt, unsigned t)
    : inbox(rt.cfg().session_inbox_capacity),
      ro_reclaimer(rt.epochs()),
      // Stream disjoint from the worker rngs (seeded 0xfeedface): drivers
      // only pace backoff with it, but keep the streams distinct anyway.
      rng(0xbead5e55ULL, t),
      epoch_slot(rt.epochs().register_participant()),
      reader(std::make_unique<stm::snapshot_reader<stm::swiss_frontier_adapter>>(
          stm::swiss_frontier_adapter{&rt.table()}, rt.commit_ts())) {}

session_front::session_front(runtime& rt) : rt_(rt) {
  const unsigned n = rt.num_threads();
  const config& cfg = rt.cfg();
  // Initial active width matches the worker groups the runtime spawned:
  // the [0, min_pipelines) prefix with elastic on, everything otherwise.
  const unsigned start = cfg.elastic ? cfg.min_pipelines : n;
  pipes_.reserve(n);
  for (unsigned t = 0; t < n; ++t) {
    pipes_.push_back(std::make_unique<pipe>(rt, t));
  }
  topo_.store(topo_pack(start, start, 0, false), std::memory_order_seq_cst);
  history_.emplace_back(0, start);
  // Hook the commit frontier to the drivers' park gates *before* any driver
  // (and hence any commit this front can cause) exists: committing workers
  // wake the consumer gate so a driver parked for completions never sleeps
  // through a frontier advance. Dormant pipelines are hooked too — the gate
  // outlives their drivers' comings and goings, and nothing commits on a
  // dormant pipeline anyway.
  for (unsigned t = 0; t < n; ++t) {
    rt.threads_[t]->completion_hook.store(&pipes_[t]->inbox.consumer_gate(),
                                          std::memory_order_release);
  }
  // Dormant tail (elastic): constructed retired with a closed inbox and no
  // driver; apply_resize revives them on a grow.
  for (unsigned t = start; t < n; ++t) {
    pipes_[t]->retire_state.store(2, std::memory_order_seq_cst);
    pipes_[t]->inbox.close();
  }
  for (unsigned t = 0; t < start; ++t) start_pipe(t);
  if (cfg.elastic && cfg.topo_interval_us > 0) {
    controller_ = std::make_unique<topology_controller>(*this);
  }
}

session_front::~session_front() { stop(); }

void session_front::start_pipe(unsigned t) {
  pipe& p = *pipes_[t];
  p.retire_state.store(0, std::memory_order_seq_cst);
  p.inbox.reopen();
  p.driver = std::thread([this, t] { driver_main(t); });
}

std::uint64_t session_front::rr_index() noexcept {
  const std::uint64_t i = rr_.fetch_add(1, std::memory_order_relaxed);
  // Wrap fairness: fold the counter back into a small congruent value long
  // before u64 overflow. At the wrap the raw modulo sequence would jump for
  // non-power-of-two pipeline counts (2^64 mod n != 0), breaking the
  // round-robin invariant; folding to i mod n preserves the phase exactly.
  // Any fetch_add racing the fold either lands before the CAS (its value is
  // part of `cur` and survives the fold mod n) or retries it. Folding
  // modulo the FULL pipe count keeps the fold width-independent — callers
  // take % active width themselves, and a fold racing a resize stays a
  // congruent rotation either way.
  constexpr std::uint64_t fold_at = std::uint64_t{1} << 62;
  if (i >= fold_at) {
    std::uint64_t cur = rr_.load(std::memory_order_relaxed);
    while (cur >= fold_at &&
           !rr_.compare_exchange_weak(cur, cur % pipes_.size(),
                                      std::memory_order_relaxed)) {
    }
  }
  return i;
}

unsigned session_front::route_key(std::uint64_t key) const noexcept {
  // The public hash (session.hpp) so offline checkers reproduce placement.
  return static_cast<unsigned>(session_route_hash(key) %
                               active_pipelines());
}

void session_front::validate_tx(const std::vector<task_fn>& tasks) const {
  if (tasks.empty()) throw std::invalid_argument("transaction needs >= 1 task");
  if (tasks.size() > rt_.cfg().spec_depth) {
    throw std::invalid_argument("transaction has more tasks than spec_depth");
  }
}

std::shared_ptr<detail::ticket_state> session_front::make_ticket_state() const {
  auto st = std::make_shared<detail::ticket_state>();
  st->waits = rt_.cfg().waits;  // by value: outlives the runtime
  if (rt_.cfg().capture_latency) {
    // Submit capture point (§9): stamped before the inbox push, so
    // submit→install includes backpressure parking and driver drain delay.
    st->t_submit_ns.store(now_ns(), std::memory_order_relaxed);
  }
  return st;
}

void session_front::begin_enqueue() {
  // Dekker pairing with the drivers' stop predicate: the pending count is
  // raised *before* the stopping check (both seq_cst), so either this
  // enqueue observes stopping and backs out, or the drivers observe a
  // non-zero pending count and keep draining until the push lands.
  pending_enqueues_.fetch_add(1, std::memory_order_seq_cst);
  if (stopping_.load(std::memory_order_seq_cst)) {
    finish_enqueue();
    throw std::runtime_error("session front-end is stopping");
  }
}

void session_front::finish_enqueue() noexcept {
  pending_enqueues_.fetch_sub(1, std::memory_order_seq_cst);
  // The count reaching zero can be what releases the drivers' stop
  // predicate — and any driver may be the one parked on it.
  if (stopping_.load(std::memory_order_seq_cst)) {
    for (auto& p : pipes_) p->inbox.wake_all();
  }
}

ticket session_front::enqueue(std::optional<std::uint64_t> key,
                              std::vector<task_fn> tasks, bool read_only) {
  validate_tx(tasks);
  begin_enqueue();
  // Balance begin_enqueue on EVERY exit, exceptions included (e.g. an
  // allocation failure building the submission): a leaked pending count
  // would make the drivers' stop predicate unsatisfiable forever.
  struct balance {
    session_front& f;
    ~balance() { f.finish_enqueue(); }
  } guard{*this};
  auto st = make_ticket_state();
  submission s{detail::sub_tx{std::move(tasks), st, read_only}};
  // Keyed writers are the FIFO class (per-key submission order is
  // guaranteed, so they honour the resize fence); reads route by key but
  // never fence — the fast path reads the committed frontier and makes no
  // ordering promise against in-flight writes.
  const std::optional<std::uint64_t> rh =
      key ? std::optional<std::uint64_t>(session_route_hash(*key))
          : std::nullopt;
  route_and_push(rh, key.has_value() && !read_only, std::move(s), 1);
  return ticket(std::move(st));
}

std::vector<ticket> session_front::enqueue_batch(std::optional<std::uint64_t> key,
                                                 std::vector<std::vector<task_fn>> txs) {
  if (txs.empty()) throw std::invalid_argument("batch needs >= 1 transaction");
  // All-or-nothing validation: reject the whole batch before any enqueue
  // side effect, so a bad transaction in the middle cannot leave a prefix
  // in flight.
  for (const auto& tasks : txs) validate_tx(tasks);
  begin_enqueue();
  struct balance {
    session_front& f;
    ~balance() { f.finish_enqueue(); }
  } guard{*this};
  std::vector<ticket> out;
  out.reserve(txs.size());
  // One sticky route for the whole batch (the raw round-robin draw for
  // unkeyed batches): chunks of one batch must land on one pipeline so the
  // batch executes in submission order. Batches are always FIFO-class —
  // across a mid-batch resize the fence holds later chunks back until the
  // earlier ones retired on the old pipe.
  const std::uint64_t rh = key ? session_route_hash(*key) : rr_index();
  const std::size_t chunk_max = rt_.cfg().session_batch_max;
  std::size_t i = 0;
  while (i < txs.size()) {
    const std::size_t n = std::min(chunk_max, txs.size() - i);
    std::vector<detail::sub_tx> chunk;
    chunk.reserve(n);
    for (std::size_t k = 0; k < n; ++k, ++i) {
      auto st = make_ticket_state();
      out.push_back(ticket(st));
      chunk.push_back(detail::sub_tx{std::move(txs[i]), std::move(st)});
    }
    submission s{std::move(chunk)};
    route_and_push(rh, /*fifo=*/true, std::move(s),
                   static_cast<std::uint64_t>(n));
  }
  return out;
}

unsigned session_front::route_and_push(std::optional<std::uint64_t> route_hash,
                                       bool fifo, submission&& s,
                                       std::uint64_t n_txs) {
  const sched::wait_params wp = rt_.governor().params(sched::gate_class::inbox);
  for (;;) {
    const std::uint64_t w = topo_.load(std::memory_order_seq_cst);
    const unsigned width = topo_width(w);
    // Resize fence (DESIGN.md §11): while a resize is pending, a FIFO
    // submission whose route DIFFERS between the old and new width must
    // not land — its key's old-epoch traffic may still be in flight on the
    // old pipeline, and landing on the new one would reorder the key. Park
    // until the fence clears. Unkeyed singles and reads sail through.
    if (fifo && route_hash && topo_fence(w)) {
      const std::uint64_t h = *route_hash;
      if (h % width != h % topo_prev(w)) {
        fence_waits_.fetch_add(1, std::memory_order_relaxed);
        fence_gate_.await(wp, [&] {
          const std::uint64_t cur = topo_.load(std::memory_order_seq_cst);
          return !topo_fence(cur) ||
                 h % topo_width(cur) == h % topo_prev(cur) ||
                 stopping_.load(std::memory_order_seq_cst);
        });
        continue;  // re-read the topology word
      }
    }
    const unsigned target = static_cast<unsigned>(
        (route_hash ? *route_hash : rr_index()) % width);
    pipe& p = *pipes_[target];
    const std::uint64_t e = topo_epoch(w);
    // Parity pusher Dekker with apply_resize's epoch publish: raise the
    // counter of the epoch the route was decided under, then re-check. If
    // the epoch moved, the decision is stale — undo and re-route. After
    // apply_resize observes a momentary zero of the old parity, every
    // pusher still in flight provably decided under the new epoch, so the
    // enqueued snapshot taken then bounds the old epoch's traffic exactly.
    p.pushers[e & 1].fetch_add(1, std::memory_order_seq_cst);
    if (topo_epoch(topo_.load(std::memory_order_seq_cst)) != e) {
      p.pushers[e & 1].fetch_sub(1, std::memory_order_seq_cst);
      continue;
    }
    // Stamp placements before the push — the driver owns the cell the
    // moment it lands. A bounced attempt re-stamps under its new route.
    auto stamp = [&](detail::sub_tx& tx) {
      tx.tk->pipe.store(target, std::memory_order_relaxed);
      tx.tk->route_epoch.store(e, std::memory_order_release);
    };
    if (auto* one = std::get_if<detail::sub_tx>(&s.body)) {
      stamp(*one);
    } else {
      for (detail::sub_tx& tx : std::get<std::vector<detail::sub_tx>>(s.body)) {
        stamp(tx);
      }
    }
    // Push. Backpressure parks on the producers' gate under the governed
    // inbox budget, but bails the moment the inbox closes (a shrink retired
    // this pipeline) — the reroute verdict; the outer loop re-routes under
    // the new topology.
    bool pushed = false;
    p.inbox.producer_gate().await(wp, [&] {
      pushed = p.inbox.try_push(std::move(s));
      return pushed || p.inbox.is_closed();
    });
    if (!pushed) {
      p.pushers[e & 1].fetch_sub(1, std::memory_order_seq_cst);
      reroutes_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Enqueued bump BEFORE the parity drop (the drop's release side orders
    // it): apply_resize's post-crossing snapshot must cover this cell.
    p.enqueued_txs.fetch_add(n_txs, std::memory_order_relaxed);
    p.pushers[e & 1].fetch_sub(1, std::memory_order_seq_cst);
    return target;
  }
}

unsigned session_front::clamp_width(unsigned width) const noexcept {
  const config& cfg = rt_.cfg();
  const unsigned lo = cfg.elastic ? cfg.min_pipelines : 1;
  const unsigned hi = pipelines();
  if (width < lo) return lo;
  if (width > hi) return hi;
  return width;
}

std::vector<std::pair<std::uint64_t, unsigned>> session_front::topology_history() const {
  std::lock_guard<std::mutex> lk(history_mu_);
  return history_;
}

bool session_front::apply_resize(unsigned width) {
  std::lock_guard<std::mutex> lk(resize_mu_);
  if (stopping_.load(std::memory_order_seq_cst)) return false;
  width = clamp_width(width);
  const std::uint64_t w0 = topo_.load(std::memory_order_seq_cst);
  const unsigned old_w = topo_width(w0);
  if (width == old_w) return false;
  const std::uint64_t e = topo_epoch(w0) + 1;

  // Grow: revive the incoming pipelines BEFORE publishing the new epoch, so
  // the first push routed under it finds a live worker group, an open inbox
  // and a running driver.
  if (width > old_w) {
    for (unsigned t = old_w; t < width; ++t) {
      rt_.spawn_worker_group(t);
      start_pipe(t);
    }
  }
  {
    std::lock_guard<std::mutex> hlk(history_mu_);
    history_.emplace_back(e, width);
  }
  // Publish the new routing epoch with the fence pending. From here every
  // new route decision lands on the [0, width) prefix; FIFO pushers whose
  // route moved park on fence_gate_ until the old epoch drained.
  topo_.store(topo_pack(width, old_w, e, true), std::memory_order_seq_cst);
  if (width > old_w) {
    grows_.fetch_add(1, std::memory_order_relaxed);
  } else {
    shrinks_.fetch_add(1, std::memory_order_relaxed);
  }
  // Shrink: close the retiring inboxes now that the topology points clients
  // at the surviving prefix — parked producers wake, read the close as a
  // reroute verdict and resubmit; cells already published stay poppable for
  // the retiring drivers to drain.
  if (width < old_w) {
    for (unsigned t = width; t < old_w; ++t) pipes_[t]->inbox.close();
  }
  // Old-parity pusher crossing, then the enqueued snapshot (see
  // route_and_push): after parity (e-1)&1 touches zero on a pipe, every
  // in-flight pusher routes under epoch e, so the snapshot is an exact
  // upper bound of the old epoch's traffic on that pipe. Terminates because
  // old-parity pushers either land (active pipes keep draining) or bounce
  // off the closed inboxes.
  std::vector<std::uint64_t> snap(old_w, 0);
  for (unsigned t = 0; t < old_w; ++t) {
    pipe& p = *pipes_[t];
    while (p.pushers[(e - 1) & 1].load(std::memory_order_seq_cst) != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    snap[t] = p.enqueued_txs.load(std::memory_order_seq_cst);
  }
  // Shrink: nothing further can land on the retiring pipelines — let their
  // drivers finish the published prefix (drain, install, complete, quiesce)
  // and exit, then retire the worker groups. Zero drops: every cell that
  // ever landed is installed and its ticket completed before the join
  // returns.
  if (width < old_w) {
    for (unsigned t = width; t < old_w; ++t) {
      pipe& p = *pipes_[t];
      p.retire_state.store(2, std::memory_order_seq_cst);
      p.inbox.wake_all();
      if (p.driver.joinable()) p.driver.join();
      rt_.retire_worker_group(t);
    }
  }
  // Resolve the fence: per-key FIFO needs the old epoch's enqueued traffic
  // fully retired (commit_ts assigned — the global commit clock is
  // monotonic) before a moved key's next submission lands on its new
  // pipeline.
  for (unsigned t = 0; t < old_w; ++t) {
    pipe& p = *pipes_[t];
    while (p.retired_txs.load(std::memory_order_seq_cst) < snap[t]) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  topo_.store(topo_pack(width, old_w, e, false), std::memory_order_seq_cst);
  fence_gate_.wake_all();
  return true;
}

void session_front::install_submission(unsigned t, submission& s,
                                       std::deque<pending_ticket>& pending) {
  user_thread& th = rt_.thread(t);
  util::stat_block& st = pipes_[t]->stats;
  st.session_batches++;
  auto for_each_tx = [&](auto&& fn) {
    if (auto* one = std::get_if<detail::sub_tx>(&s.body)) {
      fn(*one);
    } else {
      for (detail::sub_tx& tx : std::get<std::vector<detail::sub_tx>>(s.body)) fn(tx);
    }
  };
  // Read-only fast path (DESIGN.md §10): serve declared reads inline at
  // the committed frontier before any serial assignment. A served
  // transaction completes right here (ticket retired, commit_serial stays
  // 0); one that conflicted out or turned out to write keeps its ticket
  // and joins the full path below.
  const bool fast = rt_.cfg().read_path;
  for_each_tx([&](detail::sub_tx& tx) {
    st.session_batch_txs++;
    if (fast && tx.read_only && execute_read(t, tx)) tx.tk.reset();
  });
  // One high-water read covers the whole cell (the driver is the pipeline's
  // only submitter, so serial assignment is deterministic from here), and
  // every commit serial is published before the first submit: a done()/
  // diagnostic probe racing the batch observes its serial even while an
  // earlier transaction's submit is parked on slot backpressure.
  std::uint64_t serial = th.submitted_serials();
  for_each_tx([&](detail::sub_tx& tx) {
    if (tx.tk == nullptr) return;  // retired on the read fast path
    serial += tx.tasks.size();
    tx.tk->commit_serial.store(serial, std::memory_order_release);
  });
  const bool capture = rt_.cfg().capture_latency;
  for_each_tx([&](detail::sub_tx& tx) {
    if (tx.tk == nullptr) return;  // retired on the read fast path
    const std::uint64_t cs = tx.tk->commit_serial.load(std::memory_order_relaxed);
    if (capture) {
      // Install capture point (§9): the hand-off into the pipeline. The
      // submit below may itself park on slot backpressure — that belongs
      // to the install→commit phase (it is pipeline occupancy, not inbox
      // queueing), so the stamp precedes it.
      tx.tk->t_install_ns.store(now_ns(), std::memory_order_relaxed);
    }
    th.submit(std::move(tx.tasks));
    pending.push_back(pending_ticket{cs, std::move(tx.tk)});
  });
}

bool session_front::execute_read(unsigned t, detail::sub_tx& tx) {
  pipe& p = *pipes_[t];
  util::stat_block& st = p.stats;
  if (rt_.cfg().capture_latency) {
    // Install capture point (§9): for a fast-path read, "install" is the
    // start of inline execution. On fallback the full path re-stamps it —
    // a later value, so the stamps stay monotone either way.
    tx.tk->t_install_ns.store(now_ns(), std::memory_order_relaxed);
  }
  // The env the read closures run against: the pipe's dummy slot (serial 0)
  // with the frontier validator switched in — task_ctx routes every
  // transactional op accordingly (core/task.cpp).
  task_env env{rt_, *rt_.threads_[t], p.ro_slot, p.ro_clock,
               st,  p.ro_reclaimer,   p.reader.get()};
  // Abandoned attempts undo their allocations (the abort-path contract of
  // access_logs) and drop everything else.
  auto unwind = [&] {
    for (const stm::mm_action& a : p.ro_slot.logs.alloc_undo) {
      p.ro_reclaimer.retire(a.obj, a.fn, a.ctx);
    }
    p.ro_slot.logs.clear_for_restart();
  };
  for (unsigned attempt = 1; attempt <= readpath_attempt_cap; ++attempt) {
    // Pin the reclamation epoch across the attempt: structure reads may
    // chase pointers a concurrent committer just retired.
    rt_.epochs().pin(p.epoch_slot);
    p.reader->begin();
    p.ro_slot.ops_reported = 0;
    try {
      for (task_fn& fn : tx.tasks) {
        task_ctx ctx(env);
        fn(ctx);
      }
      // The commit point of a read-only transaction: prove every logged
      // read still current at the final frontier. No stripe was ever
      // owned, so success publishes nothing — it only completes the
      // ticket.
      if (!p.reader->revalidate()) throw stm::read_conflict{};
      rt_.epochs().unpin(p.epoch_slot);
      for (const stm::mm_action& a : p.ro_slot.logs.commit_retire) {
        p.ro_reclaimer.retire(a.obj, a.fn, a.ctx);
      }
      p.ro_slot.logs.clear_for_restart();
      st.user_ops += p.ro_slot.ops_reported;
      st.readpath_hits++;
      // Commit-observed + callback stamps and the completion edge come
      // from the shared completion path (distinct interpretation for
      // reads: commit = snapshot validated, DESIGN.md §10).
      complete_ticket(p, *tx.tk);
      return true;
    } catch (const stm::read_conflict&) {
      rt_.epochs().unpin(p.epoch_slot);
      unwind();
      st.readpath_retries++;
      if (attempt < readpath_attempt_cap) sched::ladder_pause(attempt, p.rng);
    } catch (const stm::read_needs_write&) {
      rt_.epochs().unpin(p.epoch_slot);
      unwind();
      break;  // declared read-only but wrote: full path, immediately
    }
  }
  st.readpath_fallbacks++;
  return false;
}

void session_front::complete_ticket(pipe& p, detail::ticket_state& tk) {
  util::stat_block& st = p.stats;
  const bool capture = rt_.cfg().capture_latency;
  if (capture) {
    // Commit-observed capture point (§9): the driver saw the commit
    // frontier pass this serial. The true commit happened up to one
    // completion-hook wake earlier; that observation delay is part of what
    // a session client experiences, so it is deliberately included here
    // rather than stamped by the committing worker.
    tk.t_commit_ns.store(now_ns(), std::memory_order_relaxed);
  }
  std::vector<std::function<void()>> cbs;
  {
    std::lock_guard<std::mutex> lk(tk.cb_mu);
    tk.completing = true;  // late then() registrations now run inline
    cbs.swap(tk.callbacks);
  }
  std::exception_ptr err;
  for (auto& cb : cbs) {
    st.session_callbacks++;
    try {
      cb();
    } catch (...) {
      // Never swallowed: counted, and the first one is rethrown by every
      // wait() on this ticket.
      st.session_callback_errors++;
      if (!err) err = std::current_exception();
    }
  }
  if (capture) {
    // Callback capture point (§9): callbacks ran, the completion edge is
    // about to publish. Stamped before the release-store so a waiter that
    // observes `completed` always reads a fully stamped record.
    tk.t_callback_ns.store(now_ns(), std::memory_order_relaxed);
    st.latency_samples++;
  }
  tk.callback_error = err;  // published by the completed release-store
  tk.completed.store(true, std::memory_order_release);
  tk.gate.wake_all();
  // Retirement counter (DESIGN.md §11): pairs with enqueued_txs — the
  // resize fence resolves when every old-active pipe's retired count
  // reaches its enqueued snapshot. Counted here so the read fast path and
  // the full path both land exactly once per transaction.
  p.retired_txs.fetch_add(1, std::memory_order_relaxed);
}

void session_front::complete_passed(unsigned t, std::deque<pending_ticket>& pending) {
  const thread_state& thr = *rt_.threads_[t];
  const std::uint64_t frontier = thr.committed_task.load_unstamped();
  while (!pending.empty() && pending.front().serial <= frontier) {
    complete_ticket(*pipes_[t], *pending.front().tk);
    pending.pop_front();
  }
}

void session_front::driver_main(unsigned t) {
  user_thread& th = rt_.thread(t);
  thread_state& thr = *rt_.threads_[t];
  pipe& p = *pipes_[t];
  sched::wait_governor& gov = rt_.governor();
  // Honour the stop flag only once no enqueue is mid-push (see
  // pending_enqueues_): the drain keeps going until the inbox is empty AND
  // no racing submission can still land in it. Elastic retirement
  // (retire_state == 2) is simpler: it is raised only after the inbox
  // closed and the pusher crossing confirmed nothing further can land, so
  // the published prefix is all there is — no pending-enqueue Dekker
  // needed (in-flight enqueues bounce off the closed inbox and reroute).
  auto leaving = [&] {
    return (stopping_.load(std::memory_order_seq_cst) &&
            pending_enqueues_.load(std::memory_order_seq_cst) == 0) ||
           p.retire_state.load(std::memory_order_acquire) == 2;
  };
  std::vector<submission> batch;
  std::deque<pending_ticket> pending;
  bool drained_out = false;
  while (!drained_out) {
    // --- drain phase: take every published inbox cell without blocking.
    batch.clear();
    p.inbox.try_pop_all(batch);
    if (batch.empty()) {
      if (pending.empty()) {
        // Fully idle: park until a client pushes or the front stops. Waits
        // go through the governor's inbox class (and are recorded, so lulls
        // train the budget down) on the inbox's own consumer gate.
        submission s;
        bool got = false;
        gov.await(p.inbox.consumer_gate(), sched::gate_class::inbox, p.stats, [&] {
          got = p.inbox.try_pop(s);
          return got || leaving();
        });
        if (got) {
          batch.push_back(std::move(s));
          p.inbox.try_pop_all(batch);  // the rest of the burst, if any
        } else {
          drained_out = true;  // stopping/retiring, drained, no racing push
        }
      } else {
        // Completions outstanding but no new work: park on the inbox's
        // consumer gate, which producers wake on push and committing
        // workers wake through the completion hook — whichever condition
        // flips first resumes the loop.
        const std::uint64_t head = pending.front().serial;
        gov.await(p.inbox.consumer_gate(), sched::gate_class::inbox, p.stats, [&] {
          return !p.inbox.empty() ||
                 thr.committed_task.load_unstamped() >= head || leaving();
        });
        if (p.inbox.empty() && leaving()) drained_out = true;
      }
    }
    // --- install phase: publish serials, submit, queue the tickets.
    for (submission& s : batch) install_submission(t, s, pending);
    // --- complete phase: retire everything the frontier has passed.
    complete_passed(t, pending);
  }
  // Stopping and fully drained: quiesce the pipeline, then retire the
  // whole backlog — every issued ticket completes (callbacks included)
  // before stop() returns.
  th.drain();
  complete_passed(t, pending);
  assert(pending.empty());
}

void session_front::accumulate_stats(util::stat_block& total) const {
  for (const auto& p : pipes_) total.accumulate(p->stats);
  total.topo_grows += grows_.load(std::memory_order_relaxed);
  total.topo_shrinks += shrinks_.load(std::memory_order_relaxed);
  total.topo_fence_waits += fence_waits_.load(std::memory_order_relaxed);
  total.topo_reroutes += reroutes_.load(std::memory_order_relaxed);
}

void session_front::stop() {
  // Join the controller FIRST: a resize in flight always runs to completion
  // (fence cleared, retiring drivers joined), so after this join no resize
  // machinery moves again. Taking resize_mu_ below then serializes against
  // any concurrent manual session::resize().
  if (controller_ != nullptr) controller_->stop();
  {
    std::lock_guard<std::mutex> lk(resize_mu_);
    if (stopping_.exchange(true, std::memory_order_seq_cst)) return;
  }
  // Fence-parked pushers escape on the stopping flag and finish their push
  // (their pending-enqueue count keeps the drivers draining until it
  // lands).
  fence_gate_.wake_all();
  for (auto& p : pipes_) p->inbox.wake_all();
  // The drivers drain every already-admitted submission before honouring
  // the flag (pending_enqueues_ protocol in enqueue/driver_main), so after
  // the joins every issued ticket has been installed, drained and retired.
  for (auto& p : pipes_) {
    if (p->driver.joinable()) p->driver.join();
  }
  // The drivers are gone: release their read-path epoch slots so shutdown
  // reclamation never waits on a participant that can no longer unpin.
  for (auto& p : pipes_) rt_.epochs().unregister_participant(p->epoch_slot);
  // Unhook the commit frontier: the gates die with this front, and the
  // pipelines (which runtime::stop() drains next) must not wake freed
  // memory.
  for (unsigned t = 0; t < pipes_.size(); ++t) {
    rt_.threads_[t]->completion_hook.store(nullptr, std::memory_order_release);
  }
}

// ---------------------------------------------------------------------------
// runtime::open_session (lives here so runtime.cpp stays session-free)
// ---------------------------------------------------------------------------

session runtime::open_session() {
  std::lock_guard<std::mutex> lk(session_mu_);
  if (stopped_) throw std::logic_error("runtime already stopped");
  if (sessions_ == nullptr) sessions_ = std::make_unique<session_front>(*this);
  return session(*sessions_);
}

}  // namespace tlstm::core
