// TLSTM scheduler layer: submission side, worker lifecycle, window
// admission, and the restart loop. The commit pipeline lives in
// core/commit.cpp, the contention manager in core/contention.cpp, the
// many-client session front-end in core/session.cpp.
#include "core/runtime.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

#include "core/session.hpp"
#include "sched/backoff_ladder.hpp"

namespace tlstm::core {

// ---------------------------------------------------------------------------
// user_thread — submission side
// ---------------------------------------------------------------------------

void user_thread::submit(std::vector<task_fn> tasks) {
  if (tasks.empty()) throw std::invalid_argument("transaction needs >= 1 task");
  if (tasks.size() > thr_.depth) {
    // A transaction's tasks all stay active until the commit-task commits, so
    // more tasks than SPECDEPTH could never commit (paper §3.3).
    throw std::invalid_argument("transaction has more tasks than spec_depth");
  }
  const std::uint64_t greedy = rt_.next_greedy_ts();
  const std::uint64_t tx_start = next_serial_;
  const std::uint64_t tx_commit = next_serial_ + tasks.size() - 1;
  if (thr_.adapt != nullptr) {
    // Adaptive backpressure (DESIGN.md §5a): hold installation until this
    // transaction is within one window of becoming runnable (one window
    // running + one staged), so a narrowed window also shortens the ready
    // backlog. The predicate peeks unstamped — polling a frontier that does
    // not block us is not a causal edge; the final stamped load joins the
    // commit publication that actually released us.
    const bool blocked = [&] {
      const std::uint64_t win = thr_.adapt->effective_window();
      return tx_start > thr_.committed_task.load_unstamped() + 2 * std::uint64_t{win};
    }();
    if (blocked) {
      const bool stalled = charged_wait(
          thr_.gate, sched::gate_class::handoff, rt_.cfg().costs.window_stall, [&] {
            const std::uint64_t win = thr_.adapt->effective_window();
            return tx_start <= thr_.committed_task.load(clock_) + 2 * std::uint64_t{win};
          });
      if (stalled) stats_.window_stalls++;
    }
  }
  for (auto& fn : tasks) {
    const std::uint64_t serial = next_serial_++;
    task_slot& slot = thr_.slot_for(serial);
    // Window backpressure: the residue slot frees only when its previous
    // task's transaction committed; the charged wait prices the stall.
    // Point-to-point (the slot's worker frees it) — park on the slot gate.
    if (charged_wait(slot.gate, sched::gate_class::handoff,
                     rt_.cfg().costs.window_stall,
                     [&] { return slot.load_phase(clock_) == task_phase::free; })) {
      stats_.window_stalls++;
    }
    slot.closure = std::move(fn);
    slot.serial.store(serial, std::memory_order_relaxed);
    slot.tx_start_serial.store(tx_start, std::memory_order_relaxed);
    slot.tx_commit_serial.store(tx_commit, std::memory_order_relaxed);
    slot.try_commit = (serial == tx_commit);
    slot.tx_greedy_ts.store(greedy, std::memory_order_relaxed);
    slot.commit_ts_value = 0;
    slot.store_phase(task_phase::ready, clock_);  // release-publishes the fields
    slot.gate.wake_all();  // exactly the slot's worker waits for the install
  }
  clock_.advance(rt_.cfg().costs.submit);
}

void user_thread::submit_single(task_fn fn) {
  std::vector<task_fn> one;
  one.push_back(std::move(fn));
  submit(std::move(one));
}

unsigned user_thread::spec_depth() const noexcept { return rt_.cfg().spec_depth; }

unsigned user_thread::effective_window() const noexcept {
  return thr_.adapt != nullptr ? thr_.adapt->effective_window() : rt_.cfg().spec_depth;
}

void user_thread::drain() {
  // The stamped load max-joins the committing worker's clock, so drain-side
  // waiting lands in this submitter's virtual timeline (and via makespan()
  // in the reported makespan); the charged wait prices the wakeup itself.
  if (charged_wait(thr_.gate, sched::gate_class::handoff, rt_.cfg().costs.window_stall,
                   [&] { return thr_.committed_task.load(clock_) >= next_serial_ - 1; })) {
    stats_.drain_stalls++;
  }
}

// ---------------------------------------------------------------------------
// runtime — construction / shutdown
// ---------------------------------------------------------------------------

namespace {

/// Shards of the cross-thread stripe gate table (DESIGN.md §8.6) that
/// foreign-stripe waiters park on; gate_table needs a power of two.
constexpr std::size_t stripe_gate_shards = 64;

config validated(config cfg) {
  if (cfg.num_threads == 0 || cfg.spec_depth == 0) {
    throw std::invalid_argument("num_threads and spec_depth must be >= 1");
  }
  // entry_ident packs the user-thread id into 16 bits (stm/lock_table.hpp);
  // a ptid past that space would silently alias chain identities. Reject it
  // up front instead of corrupting at runtime. (spec_depth does not enter
  // the ptid, but the worker count num_threads * spec_depth is capped to
  // the same budget as a resource sanity bound — topologies past 2^16 OS
  // threads are configuration errors, not workloads.)
  constexpr std::uint64_t ptid_space = std::uint64_t{1} << 16;
  if (cfg.num_threads > ptid_space) {
    throw std::invalid_argument(
        "num_threads exceeds entry_ident's 16-bit ptid space (65536)");
  }
  if (std::uint64_t{cfg.num_threads} * cfg.spec_depth > ptid_space) {
    throw std::invalid_argument(
        "num_threads * spec_depth exceeds the 65536 worker-thread cap");
  }
  if (cfg.session_inbox_capacity == 0) {
    throw std::invalid_argument("session_inbox_capacity must be >= 1");
  }
  if (cfg.session_batch_max == 0) {
    throw std::invalid_argument("session_batch_max must be >= 1");
  }
  if (cfg.waits.spin_rounds == 0) {
    // The governor treats spin_rounds as the initial per-class budget and
    // the static-park baseline; "park on the first failed check" is
    // spin_rounds = 1 (the first check is free), never 0.
    throw std::invalid_argument("waits.spin_rounds must be >= 1");
  }
  if (cfg.elastic) {
    if (cfg.min_pipelines == 0 || cfg.min_pipelines > cfg.num_threads) {
      throw std::invalid_argument("min_pipelines must be in [1, num_threads]");
    }
    if (cfg.topo_hysteresis == 0) {
      throw std::invalid_argument("topo_hysteresis must be >= 1");
    }
    if (!(cfg.topo_shrink_depth >= 0.0) || !(cfg.topo_grow_depth > cfg.topo_shrink_depth)) {
      // The controller needs a dead zone between the two thresholds, or a
      // single EWMA value could vote both directions in the same tick.
      throw std::invalid_argument(
          "topo_grow_depth must exceed topo_shrink_depth (>= 0)");
    }
  }
  return cfg;
}

}  // namespace

runtime::runtime(config cfg)
    : cfg_(validated(cfg)),
      table_(cfg.log2_table),
      stripe_gates_(stripe_gate_shards),
      governor_(cfg_.waits),
      commit_(cfg_, commit_ts_, stripe_gates_, governor_),
      cm_(cfg_) {
  threads_.reserve(cfg_.num_threads);
  user_threads_.reserve(cfg_.num_threads);
  adapters_.resize(cfg_.num_threads);
  workers_.reserve(std::size_t{cfg_.num_threads} * cfg_.spec_depth);
  for (unsigned t = 0; t < cfg_.num_threads; ++t) {
    threads_.push_back(std::make_unique<thread_state>(t, cfg_.spec_depth));
    threads_[t]->stripe_gates = &stripe_gates_;
    user_threads_.push_back(
        std::unique_ptr<user_thread>(new user_thread(*this, *threads_[t])));
    if (cfg_.adapt_window) {
      vt::adapt_params p;
      p.min_window = 1;
      p.max_window = cfg_.spec_depth;
      p.interval_tasks = cfg_.adapt_interval_tasks;
      p.shrink_ratio = cfg_.adapt_shrink_ratio;
      p.grow_ratio = cfg_.adapt_grow_ratio;
      adapters_[t] = std::make_unique<vt::adapt_controller>(p, cfg_.costs);
      threads_[t]->adapt = adapters_[t].get();
    }
  }
  for (unsigned t = 0; t < cfg_.num_threads; ++t) {
    for (unsigned w = 0; w < cfg_.spec_depth; ++w) {
      auto wk = std::make_unique<worker>();
      wk->reclaimer = std::make_unique<util::reclaimer>(epochs_);
      wk->rng = util::xoshiro256(0xfeedface, t * 64 + w);
      workers_.push_back(std::move(wk));
    }
  }
  group_active_.assign(cfg_.num_threads, false);
  // Spawn only after every shared structure is fully built. With elastic on
  // only the initial [0, min_pipelines) groups come up — the topology
  // controller brings the rest up on demand (DESIGN.md §11).
  const unsigned initial =
      cfg_.elastic ? cfg_.min_pipelines : cfg_.num_threads;
  for (unsigned t = 0; t < initial; ++t) spawn_worker_group(t);
}

runtime::~runtime() { stop(); }

void runtime::spawn_worker_group(unsigned t) {
  std::lock_guard<std::mutex> lk(topo_mu_);
  if (group_active_[t]) return;
  thread_state& thr = *threads_[t];
  thr.retired.store(false, std::memory_order_release);
  // Reissue recycled write-log chunks (DESIGN.md §12) before the workers
  // exist — nothing touches these logs yet.
  reissue_write_logs(t);
  // A revived group resumes where the pipeline quiesced: worker widx takes
  // the first serial of its residue class past the committed frontier (the
  // retire precondition guarantees committed == submitted, so the frontier
  // is exact here — no racing commits).
  const std::uint64_t base = thr.committed_task.load_unstamped() + 1;
  for (unsigned w = 0; w < cfg_.spec_depth; ++w) {
    worker& wk = *workers_[std::size_t{t} * cfg_.spec_depth + w];
    wk.epoch_slot = epochs_.register_participant();
    const std::uint64_t start =
        base + (w + thr.depth - (base - 1) % thr.depth) % thr.depth;
    wk.os_thread = std::thread(
        [this, t, w, &wk, start] { worker_main(*threads_[t], w, wk, start); });
  }
  group_active_[t] = true;
}

void runtime::retire_worker_group(unsigned t) {
  std::lock_guard<std::mutex> lk(topo_mu_);
  if (!group_active_[t]) return;
  thread_state& thr = *threads_[t];
  assert(thr.committed_task.load_unstamped() ==
         user_threads_[t]->submitted_serials());
  thr.retired.store(true, std::memory_order_release);
  thr.wake_fence_event();  // workers parked in wait_for_ready must observe it
  for (unsigned w = 0; w < cfg_.spec_depth; ++w) {
    worker& wk = *workers_[std::size_t{t} * cfg_.spec_depth + w];
    if (wk.os_thread.joinable()) wk.os_thread.join();
    epochs_.unregister_participant(wk.epoch_slot);
  }
  group_active_[t] = false;
  // Park the retired group's write-log chunks for recycling instead of
  // leaving them stranded on the idle slots (DESIGN.md §12).
  harvest_write_logs(t);
}

void runtime::harvest_write_logs(unsigned t) {
  // topo_mu_ held. The pipeline is drained and its workers joined, so no
  // local writer touches these logs; doomed *foreign* readers may still
  // chase stale chain pointers into them, which is why the batch waits out
  // a full epoch grace period before any chunk is reissued or freed.
  thread_state& thr = *threads_[t];
  retired_wlog_batch batch;
  batch.epoch = epochs_.current();
  for (task_slot& sl : thr.owners) {
    auto chunks = sl.logs.write_log.harvest_chunks();
    for (auto& c : chunks) batch.chunks.push_back(std::move(c));
  }
  if (batch.chunks.empty()) return;
  std::lock_guard<std::mutex> lk(recycle_mu_);
  retired_wlogs_.push_back(std::move(batch));
}

void runtime::reissue_write_logs(unsigned t) {
  // topo_mu_ held; the group's workers are not spawned yet. Hand each
  // chunk-less slot one spare chunk so the revived pipeline's first
  // transactions run allocation-free on recycled storage.
  thread_state& thr = *threads_[t];
  std::lock_guard<std::mutex> lk(recycle_mu_);
  epochs_.try_advance();
  reap_safe_wlogs_locked();
  for (task_slot& sl : thr.owners) {
    if (spare_wlogs_.empty()) break;
    if (sl.logs.write_log.chunks_live() != 0) continue;
    sl.logs.write_log.adopt_chunk(std::move(spare_wlogs_.back()));
    spare_wlogs_.pop_back();
    ++writelog_chunks_recycled_;
  }
}

void runtime::reap_safe_wlogs_locked() {
  // Shared helper: self-move-safe compaction (a naive move-onto-itself
  // would free batches still inside their grace period).
  util::reap_retired_batches(retired_wlogs_, epochs_.safe_before(), spare_wlogs_);
}

std::size_t runtime::trim_now() {
  std::lock_guard<std::mutex> lk(recycle_mu_);
  epochs_.try_advance();
  reap_safe_wlogs_locked();
  // Trim to high water, not to zero: one group's worth of spares stays so
  // the next grow still reseeds from recycled chunks (the whole point of
  // the free list); only the excess above that mark goes back to the OS.
  constexpr std::size_t chunk_bytes =
      util::chunked_vector<stm::write_entry>::chunk_size * sizeof(stm::write_entry);
  const std::size_t keep = cfg_.spec_depth;
  std::size_t bytes = 0;
  if (spare_wlogs_.size() > keep) {
    bytes = (spare_wlogs_.size() - keep) * chunk_bytes;
    spare_wlogs_.resize(keep);
  }
  for (const auto& hook : trim_hooks_) bytes += hook();
  pool_bytes_trimmed_ += bytes;
  return bytes;
}

void runtime::add_trim_hook(std::function<std::size_t()> hook) {
  std::lock_guard<std::mutex> lk(recycle_mu_);
  trim_hooks_.push_back(std::move(hook));
}

bool runtime::worker_group_active(unsigned t) const {
  std::lock_guard<std::mutex> lk(topo_mu_);
  return group_active_[t];
}

void runtime::stop() {
  {
    // The lock serializes against open_session: after this block new
    // sessions are refused, and any front created before it is visible.
    std::lock_guard<std::mutex> lk(session_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  // Session drivers submit on the pipelines; quiesce them before draining
  // from this thread (one submitter per pipeline at any time). This also
  // joins the topology controller, so no retire/revive races the teardown.
  if (sessions_ != nullptr) sessions_->stop();
  for (auto& ut : user_threads_) ut->drain();
  for (auto& thr : threads_) {
    thr->shutdown.store(true, std::memory_order_release);
    thr->wake_fence_event();  // workers parked in wait_for_ready must observe it
  }
  std::lock_guard<std::mutex> lk(topo_mu_);
  for (unsigned t = 0; t < cfg_.num_threads; ++t) {
    if (!group_active_[t]) continue;  // retired (or never-activated) group
    for (unsigned w = 0; w < cfg_.spec_depth; ++w) {
      worker& wk = *workers_[std::size_t{t} * cfg_.spec_depth + w];
      if (wk.os_thread.joinable()) wk.os_thread.join();
      epochs_.unregister_participant(wk.epoch_slot);
    }
    group_active_[t] = false;
  }
}

util::stat_block runtime::aggregated_stats() const {
  util::stat_block total;
  for (const auto& wk : workers_) total.accumulate(wk->stats);
  for (const auto& ut : user_threads_) total.accumulate(ut->stats_);
  {
    // Session driver counters (batches, callbacks, driver parks). The lock
    // only serializes against open_session creating the front; the counters
    // themselves are exact after quiescence, like every other block here.
    std::lock_guard<std::mutex> lk(session_mu_);
    if (sessions_ != nullptr) sessions_->accumulate_stats(total);
  }
  for (const auto& ad : adapters_) {
    if (ad == nullptr) continue;
    total.window_shrinks += ad->window_shrinks();
    total.window_grows += ad->window_grows();
  }
  // Gate-table shard telemetry (satellite of DESIGN.md §11): global, added
  // once — not a per-worker field.
  total.gate_shard_parks += stripe_gates_.total_parks();
  // Bounded-memory counters (DESIGN.md §12): recycling is runtime-global,
  // journal retention per user-thread.
  {
    std::lock_guard<std::mutex> lk(recycle_mu_);
    total.writelog_chunks_recycled += writelog_chunks_recycled_;
    total.pool_bytes_trimmed += pool_bytes_trimmed_;
  }
  for (const auto& thr : threads_) {
    // Atomic mirrors, not journal.chunks_live(): appends run under
    // rollback_mu, so the chunk vector itself is unreadable mid-run even
    // under journal_mu (that lock only excludes prune and snapshots).
    total.journal_chunks_live +=
        thr->journal_chunks_live.load(std::memory_order_relaxed);
    total.journal_chunks_pruned +=
        thr->journal_chunks_pruned.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<unsigned> runtime::effective_windows() const {
  std::vector<unsigned> out;
  if (!cfg_.adapt_window) return out;
  out.reserve(adapters_.size());
  for (const auto& ad : adapters_) out.push_back(ad->effective_window());
  return out;
}

std::vector<double> runtime::mean_windows() const {
  std::vector<double> out;
  if (!cfg_.adapt_window) return out;
  out.reserve(adapters_.size());
  for (const auto& ad : adapters_) out.push_back(ad->mean_window());
  return out;
}

vt::vtime runtime::makespan() const {
  vt::vtime m = 0;
  for (const auto& wk : workers_) m = std::max(m, wk->clock.now);
  for (const auto& ut : user_threads_) m = std::max(m, ut->clock_.now);
  return m;
}

std::vector<vt::vtime> runtime::worker_clocks() const {
  std::vector<vt::vtime> clocks;
  clocks.reserve(workers_.size());
  for (const auto& wk : workers_) clocks.push_back(wk->clock.now);
  return clocks;
}

std::string runtime::dump_state() const {
  static const char* phase_names[] = {"free", "ready", "running", "completed",
                                      "rb_parked"};
  std::ostringstream os;
  os << "commit_ts=" << commit_ts_.load(std::memory_order_relaxed) << "\n";
  for (unsigned t = 0; t < cfg_.num_threads; ++t) {
    const thread_state& thr = *threads_[t];
    os << "thread " << t << ": completed=" << thr.completed_task.load_unstamped()
       << " completed_writer=" << thr.completed_writer.load_unstamped()
       << " committed=" << thr.committed_task.load_unstamped()
       << " fence=" << static_cast<std::int64_t>(thr.fence.load_unstamped())
       << " submitted=" << user_threads_[t]->submitted_serials() << "\n";
    for (unsigned w = 0; w < cfg_.spec_depth; ++w) {
      const task_slot& sl = thr.owners[w];
      const auto ph = sl.phase.load_unstamped();
      os << "  slot " << w << ": serial=" << sl.serial.load()
         << " phase=" << (ph <= 4 ? phase_names[ph] : "?")
         << " tx=[" << sl.tx_start_serial.load() << "," << sl.tx_commit_serial.load() << "]"
         << " wrote=" << sl.wrote.load(std::memory_order_relaxed) << " inc=" << sl.incarnation.load()
         << " wlog=" << sl.logs.write_log.size()
         << " rlog=" << sl.logs.read_log.size()
         << " trlog=" << sl.logs.task_read_log.size() << "\n";
    }
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Worker loop
// ---------------------------------------------------------------------------

bool runtime::window_admits(const thread_state& thr, const task_slot& slot) noexcept {
  const vt::adapt_controller* ad = thr.adapt;
  if (ad == nullptr) return true;
  // Transaction-granular admission: a task starts only once its
  // transaction's first serial is within the effective window of the commit
  // frontier. All tasks of one transaction share tx_start_serial, so they
  // become eligible together — a window smaller than the transaction can
  // never starve its commit-task.
  return slot.tx_start_serial.load(std::memory_order_relaxed) <=
         thr.committed_task.load_unstamped() + ad->effective_window();
}

bool runtime::wait_for_ready(thread_state& thr, std::uint64_t serial, task_slot& slot,
                             worker& wk) {
  // Stage 1 — wait for the install, on the slot gate: exactly one waker
  // (the submitter, or shutdown's broadcast), so an idle pipeline parks
  // without herding the thread-wide gate.
  bool installed = false;
  governor_.await(slot.gate, sched::gate_class::inbox, wk.stats, [&] {
    if (slot.load_phase(wk.clock) == task_phase::ready &&
        slot.serial.load(std::memory_order_acquire) == serial) {
      installed = true;
      return true;
    }
    // Shutdown and elastic retirement release a worker the same way: only
    // once its slot is free, i.e. its previous task's transaction committed.
    return (thr.shutdown.load(std::memory_order_acquire) ||
            thr.retired.load(std::memory_order_acquire)) &&
           slot.load_phase(wk.clock) == task_phase::free;
  });
  if (!installed) return false;

  // Stage 2 — the task is ours and ready; only the fence and the adaptive
  // window can still hold it. Both are frontier-class conditions (fence
  // events broadcast; commit advances and window moves wake the thread
  // gate), so park there.
  bool deferred = false;
  governor_.await(thr.gate, sched::gate_class::rollback, wk.stats, [&] {
    // Never start a task into an active rollback that covers it.
    if (!thr.fence_covers(serial, wk.clock)) {
      if (window_admits(thr, slot)) {
        // A deferral is a blocking edge on the commit frontier: join the
        // publication that moved the window over us. (Un-deferred admits
        // skip the join — speculative starts owe the frontier nothing.)
        if (deferred) thr.committed_task.load(wk.clock);
        return true;
      }
      // Held at ready outside the window: don't burn an incarnation that
      // the controller predicts is doomed.
      if (!deferred) {
        deferred = true;
        wk.stats.tasks_deferred++;
      }
    }
    return false;
  });
  return true;
}

void runtime::worker_main(thread_state& thr, unsigned widx, worker& wk,
                          std::uint64_t start_serial) {
  for (std::uint64_t serial = start_serial;; serial += thr.depth) {
    task_slot& slot = thr.owners[widx];
    if (!wait_for_ready(thr, serial, slot, wk)) return;
    task_env env{*this, thr, slot, wk.clock, wk.stats, *wk.reclaimer};
    run_one_incarnation(env, wk);
    // Committed: free the slot for the submitter.
    wk.stats.task_committed++;
    wk.stats.user_ops += slot.ops_reported;
    slot.ops_reported = 0;
    epochs_.unpin(wk.epoch_slot);
    epochs_.try_advance();
    slot.store_phase(task_phase::free, wk.clock);
    slot.gate.wake_all();  // the submitter may be parked on slot reuse
  }
}

/// Runs the slot's closure until its task (and transaction) commits,
/// re-executing through the fence/rollback protocol on every abort.
void runtime::run_one_incarnation(task_env& env, worker& wk) {
  thread_state& thr = env.thr;
  task_slot& slot = env.slot;
  const std::uint64_t my_serial = slot.serial.load(std::memory_order_relaxed);
  slot.consecutive_restarts = 0;
  for (;;) {
    // WAW gate: if a past writer recently had to abort its futures over a
    // stripe hand-off, let it complete before we (re)start; see
    // thread_state::waw_gate.
    for (;;) {
      const std::uint64_t gate = thr.waw_gate.load(std::memory_order_relaxed);
      if (!(gate != 0 && gate < my_serial &&
            thr.completed_task.load(wk.clock) < gate)) {
        break;
      }
      if (thr.fence_covers(my_serial, wk.clock)) {
        commit_.rollback_parked_wait(env);
      } else {
        governor_.await(thr.gate, sched::gate_class::handoff, wk.stats, [&] {
          const std::uint64_t g = thr.waw_gate.load(std::memory_order_relaxed);
          return g == 0 || g >= my_serial ||
                 thr.completed_task.load(wk.clock) >= g ||
                 thr.fence_covers_unstamped(my_serial);
        });
      }
    }
    epochs_.pin(wk.epoch_slot);
    slot.valid_ts = commit_ts_.load(std::memory_order_acquire);
    // Trigger-threshold snapshot — unstamped (DESIGN.md §5: only blocking
    // and value-carrying edges join virtual time).
    slot.last_writer = thr.completed_writer.load_unstamped();
    slot.wrote.store(false, std::memory_order_relaxed);
    slot.reads_since_validation = 0;
    slot.karma.store(0, std::memory_order_relaxed);
    slot.ops_reported = 0;
    slot.logs.clear_for_restart();
    slot.store_phase(task_phase::running, wk.clock);
    wk.clock.advance(cfg_.costs.task_start);
    wk.stats.task_started++;
    const std::uint64_t hops0 = wk.stats.chain_hops;  // controller signal baseline
    try {
      task_ctx ctx(env);
      slot.closure(ctx);
      commit_.task_commit(env);
      if (thr.adapt != nullptr) {
        const unsigned w0 = thr.adapt->effective_window();
        thr.adapt->record_commit(wk.stats.chain_hops - hops0);
        // A widened window admits tasks whose workers may be parked on it.
        if (thr.adapt->effective_window() != w0) thr.wake_fence_event();
      }
      return;  // transaction committed
    } catch (const stm::tx_abort& a) {
      if (a.why == stm::tx_abort::reason::fence) wk.stats.abort_fence++;
      wk.stats.task_restarts++;
      if (thr.adapt != nullptr) {
        const unsigned w0 = thr.adapt->effective_window();
        thr.adapt->record_restart(a.why == stm::tx_abort::reason::fence,
                                  wk.stats.chain_hops - hops0);
        if (thr.adapt->effective_window() != w0) thr.wake_fence_event();
      }
      // Self-aborts raised the fence at the throw site; fence aborts were
      // raised elsewhere. Either way the fence covers us — park & roll back.
      assert(thr.fence_covers(slot.serial.load(std::memory_order_relaxed), wk.clock));
      epochs_.unpin(wk.epoch_slot);
      commit_.rollback_parked_wait(env);
      // Escalating randomized backoff (sched::ladder_pause): the early
      // levels damp immediate re-collision; the late levels reach
      // OS-scheduler granularity, which is what actually breaks
      // inter-thread CM livelocks on oversubscribed cores — the repeat
      // loser must stay off-CPU long enough for the winning transaction's
      // worker to observe the released stripe and commit, else the loser's
      // restart re-acquires the stripe first and the winner signals it to
      // abort again, forever.
      sched::ladder_pause(++slot.consecutive_restarts, wk.rng);
    }
  }
}

}  // namespace tlstm::core
