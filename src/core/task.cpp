// Transactional operations of TLSTM — paper Algorithms 1 and 2 (read-word,
// write-word) plus the timestamp-extension and periodic-validation
// machinery. Validate-task and cm-should-abort moved to core/commit.cpp and
// core/contention.cpp; everything here operates on task_env, the narrow
// internal interface behind the user-facing task_ctx.
#include <cstdint>

#include "core/commit.hpp"
#include "core/contention.hpp"
#include "core/runtime.hpp"
#include "core/task.hpp"
#include "core/thread_state.hpp"
#include "stm/readpath.hpp"
#include "util/spin.hpp"

namespace tlstm::core {

namespace {
constexpr unsigned read_retry_cap = 4096;   // version double-check retries
constexpr unsigned chain_hop_cap = 4096;    // defensive bound on chain walks
}  // namespace

void runtime::validate_now(task_env& env) {
  env.check_safepoint();
  if (!validate_task(env.thr, env.slot, env.clock, env.stats, cfg_.costs) ||
      !task_extend(env)) {
    env.thr.raise_fence(env.serial(), env.clock);
    env.stats.abort_validation++;
    throw stm::tx_abort{stm::tx_abort::reason::validation};
  }
  env.slot.last_writer = env.thr.completed_writer.load_unstamped();
}

void runtime::maybe_periodic_validation(task_env& env) {
  const unsigned period = cfg_.validate_every_n_reads;
  if (period != 0 && ++env.slot.reads_since_validation >= period) {
    env.slot.reads_since_validation = 0;
    validate_now(env);
  }
}

// ---------------------------------------------------------------------------
// task_env / task_ctx forwarding surface
// ---------------------------------------------------------------------------

void task_env::check_safepoint() const {
  if (readpath != nullptr) return;  // serial 0 is never fenced (DESIGN.md §10)
  if (thr.fence_covers_unstamped(serial())) {
    throw stm::tx_abort{stm::tx_abort::reason::fence};
  }
}

stm::word task_ctx::read(const stm::word* addr) {
  if (env_.readpath != nullptr) {
    // Read-only fast path: invisible timestamped read against the committed
    // frontier — no slot, no stripe ownership, no fence polls.
    env_.stats.reads_committed++;
    return env_.readpath->read(addr);
  }
  return env_.rt.task_read(env_, addr);
}

void task_ctx::write(stm::word* addr, stm::word value) {
  if (env_.readpath != nullptr) {
    // The closure lied about being read-only: abandon the attempt, the
    // driver re-runs it down the full task path (readpath_fallbacks).
    throw stm::read_needs_write{};
  }
  env_.rt.task_write(env_, addr, value);
}

void task_ctx::work(std::uint64_t n) noexcept {
  env_.clock.advance(n * env_.rt.cfg().costs.user_work_unit);
}

void task_ctx::abort_self() {
  if (env_.readpath != nullptr) {
    // No fence to raise — a fast-path read owns no serial. Retrying the
    // snapshot is the read-only meaning of "restart me".
    throw stm::read_conflict{};
  }
  env_.thr.raise_fence(serial(), env_.clock);
  throw stm::tx_abort{stm::tx_abort::reason::explicit_abort};
}

void task_ctx::log_alloc_undo(void* obj, util::reclaimer::deleter_fn fn, void* ctx) {
  env_.slot.logs.alloc_undo.push_back({obj, fn, ctx});
}
void task_ctx::log_commit_retire(void* obj, util::reclaimer::deleter_fn fn, void* ctx) {
  env_.slot.logs.commit_retire.push_back({obj, fn, ctx});
}

void task_ctx::validate() {
  if (env_.readpath != nullptr) {
    if (!env_.readpath->revalidate()) throw stm::read_conflict{};
    return;
  }
  env_.rt.validate_now(env_);
}

// ---------------------------------------------------------------------------
// read-word (paper Alg. 1, lines 5-16)
// ---------------------------------------------------------------------------

stm::word runtime::task_read(task_env& env, const stm::word* addr) {
  env.check_safepoint();
  maybe_periodic_validation(env);
  thread_state& thr = env.thr;
  task_slot& slot = env.slot;
  slot.karma.store(slot.karma.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  vt::worker_clock& clk = env.clock;
  const std::uint64_t my_serial = env.serial();
  stm::lock_pair& pair = table_.for_addr(addr);
  util::backoff bo;

  for (;;) {
    stm::write_entry* head = pair.w_lock.load(clk);
    if (head == nullptr || head->ptid() != thr.ptid) {
      // Unlocked, or locked by another user-thread: SwissTM committed read —
      // other threads' speculative values are invisible (paper line 16).
      return task_read_committed(env, addr, pair);
    }

    // Stripe is write-locked by our own user-thread: find the newest entry
    // for this address with serial <= ours (paper lines 8-9, address-refined).
    stm::write_entry* best = nullptr;
    bool stale = false;
    unsigned hops = 0;
    for (stm::write_entry* e = head; e != nullptr;
         e = e->prev.load(std::memory_order_acquire)) {
      if (++hops > chain_hop_cap) {
        stale = true;  // recycled entries can transiently form absurd chains
        break;
      }
      clk.advance(cfg_.costs.chain_hop);
      env.stats.chain_hops++;
      const std::uint64_t id = e->ident.load(std::memory_order_relaxed);
      if (stm::entry_ident::ptid(id) != thr.ptid) {
        stale = true;  // entry recycled under us — restart the walk
        break;
      }
      if (stm::entry_ident::serial(id) <= my_serial &&
          e->addr.load(std::memory_order_relaxed) == addr) {
        best = e;
        break;
      }
    }
    if (stale) {
      env.check_safepoint();
      bo.spin();
      continue;
    }
    if (best == nullptr) {
      // Only future tasks (or other addresses) wrote here; our past view is
      // the committed state (paper: loop at line 8 exhausts the chain).
      return task_read_committed(env, addr, pair);
    }
    if (best->serial() == my_serial) {
      // Read-after-write from our own log needs no validation (line 10).
      clk.advance(cfg_.costs.read_own_write);
      env.stats.reads_speculative++;
      return best->value.load(std::memory_order_relaxed);
    }

    // Speculative read from a past task: wait until the writer has completed
    // (paper line 11) so the value is final. Parked wait on the thread's
    // gate — completion advances and fence raises both wake it.
    const std::uint64_t writer_serial = best->serial();
    const std::uint32_t writer_inc = best->incarnation.load(std::memory_order_relaxed);
    governor_.await(thr.gate, sched::gate_class::handoff, env.stats, [&] {
      env.check_safepoint();  // writer rolling back fences us too
      return thr.completed_task.load(clk) >= writer_serial;
    });
    // Re-verify identity: the writer may have been rolled back and its log
    // recycled while we waited (then our fence check would normally fire,
    // but a cleared fence can race us — the identity check closes it).
    if (best->incarnation.load(std::memory_order_relaxed) != writer_inc ||
        best->ident.load(std::memory_order_relaxed) !=
            stm::entry_ident::pack(thr.ptid, writer_serial)) {
      env.check_safepoint();
      bo.spin();
      continue;
    }
    const stm::word value = best->value.load(std::memory_order_relaxed);
    clk.join(best->vstamp.load(std::memory_order_relaxed));

    // The writer's transaction may have committed (and unlinked its chain
    // entries) while we waited. Its committed writes then no longer show in
    // any chain, so validate_task cannot see a committed read of ours that
    // it overwrote; pulling our snapshot past that commit re-checks every
    // committed read against its stripe version instead.
    if (thr.last_write_commit_ts.load(std::memory_order_relaxed) > slot.valid_ts &&
        !task_extend(env)) {
      thr.raise_fence(my_serial, clk);
      env.stats.abort_validation++;
      throw stm::tx_abort{stm::tx_abort::reason::validation};
    }

    // WAR validation trigger (paper line 13). Unstamped: the counter is a
    // trigger threshold, not a data dependency (DESIGN.md §5).
    const std::uint64_t cw = thr.completed_writer.load_unstamped();
    if (cw > slot.last_writer) {
      if (!validate_task(thr, slot, clk, env.stats, cfg_.costs)) {
        thr.raise_fence(my_serial, clk);
        env.stats.abort_war++;
        throw stm::tx_abort{stm::tx_abort::reason::war};
      }
      slot.last_writer = cw;
    }
    slot.logs.task_read_log.push_back({&pair, addr, writer_serial, writer_inc});
    clk.advance(cfg_.costs.read_speculative);
    env.stats.reads_speculative++;
    return value;
  }
}

stm::word runtime::task_read_committed(task_env& env, const stm::word* addr,
                                       stm::lock_pair& pair) {
  vt::worker_clock& clk = env.clock;
  for (unsigned tries = 0; tries < read_retry_cap; ++tries) {
    const stm::word v1 = pair.r_lock.load(clk);
    if (v1 == stm::r_lock_locked) {
      // A foreign committer is writing the stripe back. Park on the
      // stripe's gate-table shard (DESIGN.md §8.6): the committer's unlock
      // — both the commit's version store and the abort's version restore —
      // wakes the shard, and a fence raised against us broadcasts to every
      // shard, so the unstamped probes below can never sleep through either
      // edge. The loop top re-reads the r_lock stamped, keeping virtual
      // time park-blind.
      env.check_safepoint();
      governor_.await(stripe_gates_.shard_for(&pair), sched::gate_class::stripe,
                      env.stats, [&] {
                        return pair.r_lock.load_unstamped() != stm::r_lock_locked ||
                               env.thr.fence_covers_unstamped(env.serial());
                      });
      env.check_safepoint();
      continue;
    }
    const stm::word val = stm::load_word(addr);
    const stm::word v2 = pair.r_lock.load_unstamped();
    if (v1 != v2) continue;
    if (v1 > env.slot.valid_ts && !task_extend(env)) {
      env.thr.raise_fence(env.serial(), clk);
      env.stats.abort_validation++;
      throw stm::tx_abort{stm::tx_abort::reason::validation};
    }
    env.slot.logs.read_log.push_back({&pair, addr, v1});
    clk.advance(cfg_.costs.read_committed);
    env.stats.reads_committed++;
    return val;
  }
  env.thr.raise_fence(env.serial(), clk);
  env.stats.abort_validation++;
  throw stm::tx_abort{stm::tx_abort::reason::validation};
}

bool runtime::task_extend(task_env& env) {
  const stm::word ts = commit_ts_.load(std::memory_order_acquire);
  for (const stm::read_log_entry& e : env.slot.logs.read_log) {
    if (e.locks->r_lock.load(env.clock) != e.version) return false;
  }
  env.slot.valid_ts = ts;
  env.clock.advance(cfg_.costs.ts_extend_fixed +
                    cfg_.costs.log_entry_validate * env.slot.logs.read_log.size());
  env.stats.ts_extensions++;
  return true;
}

// ---------------------------------------------------------------------------
// write-word (paper Alg. 2, lines 33-53)
// ---------------------------------------------------------------------------

void runtime::task_write(task_env& env, stm::word* addr, stm::word value) {
  env.check_safepoint();
  maybe_periodic_validation(env);
  thread_state& thr = env.thr;
  task_slot& slot = env.slot;
  slot.karma.store(slot.karma.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  vt::worker_clock& clk = env.clock;
  const std::uint64_t my_serial = env.serial();
  stm::lock_pair& pair = table_.for_addr(addr);
  util::backoff bo;
  unsigned polite_left = cfg_.cm_polite_spins;

  auto push_entry = [&](stm::write_entry* head) -> bool {
    // Structural chain pushes pause while a rollback is popping entries
    // (DESIGN.md §4.3 keeps pop/push mutually ordered this way).
    if (thr.fence_active_unstamped()) {
      env.check_safepoint();
      bo.spin();
      return false;
    }
    stm::write_entry& e = slot.logs.write_log.emplace_back();
    e.addr.store(addr, std::memory_order_relaxed);
    e.value.store(value, std::memory_order_relaxed);
    e.locks = &pair;
    e.owner_thread.store(&thr, std::memory_order_relaxed);
    e.incarnation.store(slot.incarnation.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    e.vstamp.store(clk.now, std::memory_order_relaxed);
    e.prev.store(head, std::memory_order_relaxed);
    e.ident.store(stm::entry_ident::pack(thr.ptid, my_serial), std::memory_order_release);
    stm::write_entry* expected = head;
    if (!pair.w_lock.compare_exchange(expected, &e, clk)) {
      slot.logs.write_log.pop_back();
      return false;
    }
    return true;
  };

  auto post_push_checks = [&] {
    slot.wrote.store(true, std::memory_order_relaxed);
    env.stats.writes++;
    clk.advance(cfg_.costs.write_word);
    // Paper line 52: the stripe may carry a version newer than our snapshot.
    if (pair.r_lock.load(clk) > slot.valid_ts && !task_extend(env)) {
      thr.raise_fence(my_serial, clk);
      env.stats.abort_validation++;
      throw stm::tx_abort{stm::tx_abort::reason::validation};
    }
    // Paper line 53: WAR validation trigger (unstamped snapshot).
    const std::uint64_t cw = thr.completed_writer.load_unstamped();
    if (cw > slot.last_writer) {
      if (!validate_task(thr, slot, clk, env.stats, cfg_.costs)) {
        thr.raise_fence(my_serial, clk);
        env.stats.abort_war++;
        throw stm::tx_abort{stm::tx_abort::reason::war};
      }
      slot.last_writer = cw;
    }
  };

  for (;;) {
    env.check_safepoint();
    stm::write_entry* head = pair.w_lock.load(clk);

    if (head == nullptr) {
      // Unlocked: publish a fresh chain (paper lines 49-51).
      if (push_entry(nullptr)) {
        post_push_checks();
        return;
      }
      continue;
    }

    const std::uint64_t hid = head->ident.load(std::memory_order_relaxed);
    const std::uint32_t hptid = stm::entry_ident::ptid(hid);
    const std::uint64_t hserial = stm::entry_ident::serial(hid);

    if (hptid != thr.ptid) {
      // Write/write conflict with another user-thread (paper lines 41-43):
      // polite spins first (the owner's release may be imminent), then the
      // CM decides. A requester that must keep waiting parks on the
      // stripe's gate-table shard until the owner thread stops heading the
      // chain — its commit, abort and rollback paths all wake that shard
      // (DESIGN.md §8.6) — instead of the old unbounded yielding spin.
      if (polite_left > 0) {
        --polite_left;
        env.stats.wait_spins++;
        env.stats.wait_spins_cm++;
        bo.spin();
        continue;
      }
      if (cm_.should_abort(env, head)) {
        thr.raise_fence(my_serial, clk);
        env.stats.abort_cm++;
        throw stm::tx_abort{stm::tx_abort::reason::cm};
      }
      cm_.wait_for_release(env, pair, head, stripe_gates_, governor_);
      continue;
    }

    if (hserial > my_serial) {
      // A future task of our thread write-locked the stripe: signal it to
      // abort and wait for its entries to be popped (paper line 47). The
      // gate keeps the rolled-back futures parked until we complete, so the
      // stripe hand-off cannot livelock on an oversubscribed core.
      thr.waw_gate.store(my_serial, std::memory_order_relaxed);
      if (thr.raise_fence(hserial, clk)) env.stats.abort_waw_signalled++;
      env.check_safepoint();
      // Park on the stripe's shard until the chain head moves — the rollback
      // coordinator's chain pops wake the shard per entry — or our own fence
      // covers us (fence raises broadcast to every shard). Head-identity
      // predicate: a pushed-on-top head flips it without a wake, but the
      // fence we just raised guarantees the future eventually pops (waking
      // the shard) or its fence release broadcasts, so the sleep always
      // ends; and re-checking per head change lets the loop re-raise the
      // fence if a resumed future re-acquired the stripe. The ident +
      // incarnation snapshots close the recycled-entry ABA (a restarted
      // task re-pushes the same entry address — see cm wait_for_release).
      const std::uint32_t hinc = head->incarnation.load(std::memory_order_relaxed);
      governor_.await(stripe_gates_.shard_for(&pair), sched::gate_class::stripe,
                      env.stats, [&] {
                        return pair.w_lock.load_unstamped() != head ||
                               head->ident.load(std::memory_order_relaxed) != hid ||
                               head->incarnation.load(std::memory_order_relaxed) != hinc ||
                               thr.fence_covers_unstamped(my_serial);
                      });
      continue;
    }

    if (hserial == my_serial) {
      // Our own entries head the chain: update in place if this address was
      // already written, else fall through to the past-writer check.
      stm::write_entry* e = head;
      stm::write_entry* newest_past = nullptr;
      bool stale = false;
      unsigned hops = 0;
      for (; e != nullptr; e = e->prev.load(std::memory_order_acquire)) {
        if (++hops > chain_hop_cap) {
          stale = true;
          break;
        }
        const std::uint64_t id = e->ident.load(std::memory_order_relaxed);
        if (stm::entry_ident::ptid(id) != thr.ptid) {
          stale = true;
          break;
        }
        const std::uint64_t s = stm::entry_ident::serial(id);
        if (s == my_serial) {
          if (e->addr.load(std::memory_order_relaxed) == addr) {
            e->value.store(value, std::memory_order_relaxed);
            env.stats.writes++;
            clk.advance(cfg_.costs.write_word);
            return;
          }
          continue;
        }
        newest_past = e;  // first entry below our own prefix
        break;
      }
      if (stale) {
        bo.spin();
        continue;
      }
      if (newest_past != nullptr &&
          thr.completed_task.load(clk) < newest_past->serial()) {
        // Past writer still running — we are from its future (paper line 45).
        thr.raise_fence(my_serial, clk);
        env.stats.abort_waw_past_running++;
        throw stm::tx_abort{stm::tx_abort::reason::waw_past_running};
      }
      if (push_entry(head)) {
        post_push_checks();
        return;
      }
      continue;
    }

    // hserial < my_serial: a past task is the newest stripe writer.
    if (thr.completed_task.load(clk) < hserial) {
      // Still running: one running writer per location (paper line 45).
      thr.raise_fence(my_serial, clk);
      env.stats.abort_waw_past_running++;
      throw stm::tx_abort{stm::tx_abort::reason::waw_past_running};
    }
    // Completed: stack a new entry on top (paper line 51).
    if (push_entry(head)) {
      post_push_checks();
      return;
    }
  }
}

}  // namespace tlstm::core
