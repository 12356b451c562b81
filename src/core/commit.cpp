// Commit pipeline: serialized task commits, whole-transaction commit
// (paper Alg. 3) and the restart-fence rollback (DESIGN.md §4.3).
//
// Waiting discipline (DESIGN.md §8): every wait here goes through the
// owning thread's wait_gate — bounded spin, then futex park — and every
// publication that can flip one of those predicates (completion/commit
// frontier advances, phase transitions, fence raises and releases) is
// followed by a wake_all on that gate. Stripe-release publications (commit
// write-back restoring r_lock, abort restoring saved versions, rollback
// popping chain entries) additionally wake the stripe's gate-table shard,
// where *foreign* threads' waiters park (DESIGN.md §8.6). Predicates
// perform the same virtual-time stamped loads the old spin loops did, so
// §5 stall accounting is identical whether a waiter spun or parked.
#include "core/commit.hpp"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "core/thread_state.hpp"

namespace tlstm::core {

namespace {
/// Past the point of no return, every stripe the committer locked must
/// still be headed by its own entries. Some pop that removed them is a
/// runtime bug; say which stripe and transaction lost its head instead of
/// dying on a null dereference in the unlink loop.
[[noreturn]] void chain_head_lost(const stm::lock_pair* stripe, const stm::write_entry* head,
                                  const thread_state& thr, std::uint64_t tx_start,
                                  std::uint64_t serial) {
  std::fprintf(stderr,
               "tlstm: commit write-back lost its chain head: stripe %p, ptid %" PRIu32
               ", tx_start %" PRIu64 ", serial %" PRIu64,
               static_cast<const void*>(stripe), thr.ptid, tx_start, serial);
  if (head != nullptr) {
    std::fprintf(stderr, ", head ptid %" PRIu32 " serial %" PRIu64, head->ptid(),
                 head->serial());
  } else {
    std::fprintf(stderr, ", head null");
  }
  std::fprintf(stderr, "\n");
  std::abort();
}
}  // namespace

// ---------------------------------------------------------------------------
// validate-task (paper Alg. 1, lines 17-31)
// ---------------------------------------------------------------------------

bool validate_task(thread_state& thr, task_slot& slot, vt::worker_clock& clk,
                   util::stat_block& stats, const vt::cost_model& costs) {
  constexpr unsigned chain_hop_cap = 4096;  // defensive bound on chain walks
  stats.task_validations++;
  const std::uint64_t my_serial = slot.serial.load(std::memory_order_relaxed);

  // 1. Speculative reads: for each address we read from a past task, the
  //    newest past entry *for that address* (skipping futures, our own
  //    writes, and colliding addresses on the shared stripe) must still be
  //    the exact entry we read (lines 18-25, address-refined — the paper's
  //    per-location logic at stripe granularity would deadlock on stripe
  //    collisions, see read_log_entry).
  for (const stm::task_read_log_entry& e : slot.logs.task_read_log) {
    stm::write_entry* w = e.locks->w_lock.load(clk);
    if (w == nullptr || w->ptid() != thr.ptid) {
      // The writer's transaction committed or aborted in the meantime —
      // conservatively invalid (paper line 25).
      return false;
    }
    unsigned hops = 0;
    while (w != nullptr &&
           (w->serial() >= my_serial ||
            w->addr.load(std::memory_order_relaxed) != e.addr)) {
      if (w->ptid() != thr.ptid || ++hops > chain_hop_cap) return false;
      w = w->prev.load(std::memory_order_acquire);
      clk.advance(costs.chain_hop);
    }
    if (w == nullptr || w->ptid() != thr.ptid || w->serial() != e.serial ||
        w->incarnation.load(std::memory_order_relaxed) != e.incarnation) {
      return false;
    }
  }

  // 2. Committed reads: a past task speculatively writing an *address* we
  //    read from committed state is a WAR conflict (lines 26-31). Colliding
  //    addresses on the same stripe are not conflicts — the stripe version
  //    check at commit covers inter-thread safety.
  for (const stm::read_log_entry& e : slot.logs.read_log) {
    stm::write_entry* w = e.locks->w_lock.load(clk);
    if (w == nullptr || w->ptid() != thr.ptid) continue;
    unsigned hops = 0;
    while (w != nullptr) {
      if (w->ptid() != thr.ptid || ++hops > chain_hop_cap) return false;
      if (w->serial() < my_serial &&
          w->addr.load(std::memory_order_relaxed) == e.addr) {
        return false;  // a past task overwrote the value we read
      }
      w = w->prev.load(std::memory_order_acquire);
      clk.advance(costs.chain_hop);
    }
  }

  clk.advance(costs.task_log_validate *
              (slot.logs.task_read_log.size() + slot.logs.read_log.size()));
  return true;
}

// ---------------------------------------------------------------------------
// Task commit (paper Alg. 3, lines 65-77)
// ---------------------------------------------------------------------------

void commit_pipeline::task_commit(task_env& env) {
  thread_state& thr = env.thr;
  task_slot& slot = env.slot;
  vt::worker_clock& clk = env.clock;
  const std::uint64_t serial = env.serial();

  // Line 66: serialize completions — wait for every past task. The
  // completion of serial-1 wakes exactly this slot's gate (slot_for(serial)
  // == our slot), and fence raises broadcast to every slot gate, so the
  // fence poll inside the predicate still aborts a parked committer
  // promptly.
  gov_.await(slot.gate, sched::gate_class::handoff, env.stats, [&] {
    env.check_safepoint();
    return thr.completed_task.load(clk) >= serial - 1;
  });
  env.check_safepoint();  // lines 67-68: pending aborts win

  // Lines 69-70: WAR validation if a past writer completed since our start
  // (unstamped trigger snapshot).
  const std::uint64_t cw = thr.completed_writer.load_unstamped();
  if (cw != slot.last_writer) {
    if (!validate_task(thr, slot, clk, env.stats, cfg_.costs)) {
      thr.raise_fence(serial, clk);
      env.stats.abort_war++;
      throw stm::tx_abort{stm::tx_abort::reason::war};
    }
    slot.last_writer = cw;
  }
  clk.advance(cfg_.costs.task_complete);

  if (!slot.try_commit) {
    // Intermediate task: publish completion, park until the transaction's
    // fate is decided by the commit-task (lines 71-77).
    if (slot.wrote.load(std::memory_order_relaxed)) thr.completed_writer.store(serial, clk);
    thr.completed_task.store(serial, clk);
    slot.store_phase(task_phase::completed, clk);
    // Completion wakes: the next serial's committer parks on its own slot
    // gate; frontier waiters (speculative readers, the WAW gate, drain)
    // park on the thread gate.
    thr.slot_for(serial + 1).gate.wake_all();
    thr.gate.wake_all();
    const std::uint64_t tx_commit =
        slot.tx_commit_serial.load(std::memory_order_relaxed);
    gov_.await(thr.gate, sched::gate_class::handoff, env.stats, [&] {
      env.check_safepoint();
      return thr.committed_task.load(clk) >= tx_commit;
    });
    return;  // transaction committed
  }

  tx_commit_whole(env);
}

// ---------------------------------------------------------------------------
// Whole-transaction commit by the commit-task (paper Alg. 3, lines 78-94)
// ---------------------------------------------------------------------------

void commit_pipeline::tx_commit_whole(task_env& env) {
  thread_state& thr = env.thr;
  task_slot& slot = env.slot;
  vt::worker_clock& clk = env.clock;
  const std::uint64_t serial = env.serial();  // == tx_commit_serial
  const std::uint64_t tx_start = slot.tx_start_serial.load(std::memory_order_relaxed);

  bool read_only = true;
  bool same_valid_ts = true;
  std::uint64_t max_writer_serial = 0;
  std::size_t total_entries = 0;
  for (std::uint64_t s = tx_start; s <= serial; ++s) {
    task_slot& ts_slot = thr.slot_for(s);
    if (ts_slot.wrote.load(std::memory_order_relaxed)) {
      read_only = false;
      max_writer_serial = s;
    }
    total_entries += ts_slot.logs.write_log.size();
    if (ts_slot.valid_ts != slot.valid_ts) same_valid_ts = false;
  }

  // Line 78: validate all tasks unless every task saw the same snapshot
  // (then their union is one consistent snapshot — skippable, paper §3.2).
  // The skip also needs that snapshot to include this thread's previous
  // write commit: a write-free transaction serializes at its snapshot, so a
  // snapshot older than that commit would order it before a transaction
  // that precedes it in program order (e.g. an erase that missed the key
  // its predecessor inserted). Write transactions validate again below.
  if (!same_valid_ts ||
      thr.last_write_commit_ts.load(std::memory_order_relaxed) > slot.valid_ts) {
    const std::uint64_t bad = validate_tx(env, nullptr);
    if (bad != 0) {
      thr.raise_fence(bad, clk);
      env.stats.abort_validation++;
      throw stm::tx_abort{stm::tx_abort::reason::validation};
    }
  }

  if (read_only) {
    thr.rollback_mu.lock(clk);
    if (thr.fence.load(clk) <= serial) {
      thr.rollback_mu.unlock(clk);
      throw stm::tx_abort{stm::tx_abort::reason::fence};
    }
    for (std::uint64_t s = tx_start; s <= serial; ++s) {
      task_slot& ts_slot = thr.slot_for(s);
      for (const stm::mm_action& a : ts_slot.logs.commit_retire) {
        env.reclaimer.retire(a.obj, a.fn, a.ctx);
      }
      ts_slot.logs.commit_retire.clear();
    }
    if (cfg_.record_commits) {
      thr.journal_append({tx_start, serial, 0});
      if (cfg_.journal_retain != 0) thr.prune_journal(cfg_.journal_retain);
    }
    thr.completed_task.store(serial, clk);
    thr.committed_task.store(serial, clk);
    thr.rollback_mu.unlock(clk);
    thr.slot_for(serial + 1).gate.wake_all();  // next committer's serialization
    thr.gate.wake_all();                       // commit frontier advance
    thr.wake_completion_hook();                // session driver retires tickets
    env.stats.tx_committed++;
    env.stats.tx_read_only++;
    clk.advance(cfg_.costs.commit_fixed);
    return;
  }

  // Write transaction: lock the r_locks of every distinct stripe in any
  // task's write set (line 83). We hold all those w_locks, so no other
  // committer can contend for them — plain stores, versions saved for abort.
  locked_stripes locked;
  locked.reserve(total_entries);
  auto unlock_r_locks = [&] {
    for (auto& [lp, ver] : locked) {
      lp->r_lock.store(ver, clk);
      // Abort path: foreign committed-readers may be parked on the stripe's
      // shard waiting out the r_lock sentinel (DESIGN.md §8.6 wake map).
      gates_.wake(lp);
    }
  };
  for (std::uint64_t s = tx_start; s <= serial; ++s) {
    thr.slot_for(s).logs.write_log.for_each([&](stm::write_entry& e) {
      for (auto& [lp, ver] : locked) {
        if (lp == e.locks) return;
      }
      const stm::word old = e.locks->r_lock.load(clk);
      assert(old != stm::r_lock_locked);
      e.locks->r_lock.store(stm::r_lock_locked, clk);
      locked.emplace_back(e.locks, old);
    });
  }

  const stm::word ts = commit_ts_.fetch_add(1, std::memory_order_acq_rel) + 1;  // line 84

  // Line 85: second validation, now that the write set is sealed.
  const std::uint64_t bad = validate_tx(env, &locked);
  if (bad != 0) {
    unlock_r_locks();
    thr.raise_fence(bad, clk);
    env.stats.abort_validation++;
    throw stm::tx_abort{stm::tx_abort::reason::validation};
  }

  thr.rollback_mu.lock(clk);
  if (thr.fence.load(clk) <= serial) {
    // A racing fence (inter-thread CM) beat us to the point of no return.
    unlock_r_locks();
    thr.rollback_mu.unlock(clk);
    throw stm::tx_abort{stm::tx_abort::reason::fence};
  }

  // Point of no return: write back every task's buffered values in serial
  // order (later tasks overwrite earlier ones per program order) — line 89.
  for (std::uint64_t s = tx_start; s <= serial; ++s) {
    thr.slot_for(s).logs.write_log.for_each([&](stm::write_entry& e) {
      stm::store_word(e.addr.load(std::memory_order_relaxed),
                      e.value.load(std::memory_order_relaxed));
    });
  }
  // Unlink our entries from every stripe chain; entries of future
  // transactions of this thread (serial > ours) stay locked (line 90-92).
  for (auto& [lp, ver] : locked) {
    stm::write_entry* head = lp->w_lock.load(clk);
    if (head == nullptr || head->ptid() != thr.ptid) {
      chain_head_lost(lp, head, thr, tx_start, serial);
    }
    if (head->serial() <= serial) {
      lp->w_lock.store(nullptr, clk);
    } else {
      stm::write_entry* succ = head;
      stm::write_entry* e = head->prev.load(std::memory_order_acquire);
      while (e != nullptr && e->serial() > serial) {
        succ = e;
        e = e->prev.load(std::memory_order_acquire);
      }
      succ->prev.store(nullptr, std::memory_order_release);
    }
    lp->r_lock.store(ts, clk);
    // Release publication for the stripe's shard (DESIGN.md §8.6): foreign
    // committed-readers parked on the r_lock sentinel and W/W waiters
    // parked on our chain ownership both re-check here. One uncontended RMW
    // + relaxed load when nobody is parked.
    gates_.wake(lp);
  }

  // Bookkeeping + retires, then publish completion (lines 93-94).
  for (std::uint64_t s = tx_start; s <= serial; ++s) {
    task_slot& ts_slot = thr.slot_for(s);
    for (const stm::mm_action& a : ts_slot.logs.commit_retire) {
      env.reclaimer.retire(a.obj, a.fn, a.ctx);
    }
    ts_slot.logs.commit_retire.clear();
  }
  std::uint64_t wm = thr.committed_writer_wm.load(std::memory_order_relaxed);
  thr.committed_writer_wm.store(std::max(wm, max_writer_serial), std::memory_order_relaxed);
  slot.commit_ts_value = ts;
  thr.last_write_commit_ts.store(ts, std::memory_order_relaxed);
  if (cfg_.record_commits) {
    thr.journal_append({tx_start, serial, ts});
    if (cfg_.journal_retain != 0) thr.prune_journal(cfg_.journal_retain);
  }
  thr.completed_writer.store(serial, clk);
  thr.completed_task.store(serial, clk);
  thr.committed_task.store(serial, clk);
  thr.rollback_mu.unlock(clk);
  thr.slot_for(serial + 1).gate.wake_all();  // next committer's serialization
  thr.gate.wake_all();                       // commit + completion frontier advance
  thr.wake_completion_hook();                // session driver retires tickets

  env.stats.tx_committed++;
  clk.advance(cfg_.costs.commit_fixed + cfg_.costs.commit_per_write * total_entries);
}

/// validate(tx): revalidates the read logs and task-read logs of every task
/// of the transaction. Returns 0, or the first invalid serial (the paper's
/// abort-serial, enabling the partial restart of lines 78-79 / 85-86).
std::uint64_t commit_pipeline::validate_tx(task_env& env,
                                           const locked_stripes* locked) {
  thread_state& thr = env.thr;
  vt::worker_clock& clk = env.clock;
  const std::uint64_t tx_start = env.slot.tx_start_serial.load(std::memory_order_relaxed);
  const std::uint64_t tx_commit = env.slot.tx_commit_serial.load(std::memory_order_relaxed);
  std::size_t checked = 0;

  for (std::uint64_t s = tx_start; s <= tx_commit; ++s) {
    task_slot& ts_slot = thr.slot_for(s);
    // Committed reads: versions must be unchanged (ours-at-commit resolve
    // against the saved pre-lock versions).
    for (const stm::read_log_entry& e : ts_slot.logs.read_log) {
      ++checked;
      stm::word cur = e.locks->r_lock.load(clk);
      if (cur == stm::r_lock_locked) {
        bool ours = false;
        if (locked != nullptr) {
          for (const auto& [lp, ver] : *locked) {
            if (lp == e.locks) {
              cur = ver;
              ours = true;
              break;
            }
          }
        }
        if (!ours) return s;  // a foreign commit is racing this stripe
      }
      if (cur != e.version) return s;
    }
    // Speculative reads: the chain entry we read must still be the newest
    // past entry *for its address* (same address-refined rules as
    // validate_task).
    for (const stm::task_read_log_entry& e : ts_slot.logs.task_read_log) {
      ++checked;
      stm::write_entry* w = e.locks->w_lock.load(clk);
      if (w == nullptr || w->ptid() != thr.ptid) return s;
      while (w != nullptr && w->ptid() == thr.ptid &&
             (w->serial() >= s ||
              w->addr.load(std::memory_order_relaxed) != e.addr)) {
        w = w->prev.load(std::memory_order_acquire);
      }
      if (w == nullptr || w->ptid() != thr.ptid || w->serial() != e.serial ||
          w->incarnation.load(std::memory_order_relaxed) != e.incarnation) {
        return s;
      }
    }
  }
  clk.advance(cfg_.costs.log_entry_validate * checked);
  return 0;
}

// ---------------------------------------------------------------------------
// Restart fence: parking and coordinated rollback (DESIGN.md §4.3)
// ---------------------------------------------------------------------------

namespace {

/// Unstamped probe of the coordinator-election condition: every active task
/// covered by fence `f` is parked, and `my_serial` is the lowest parked
/// covered serial. Used only to decide when a parked waiter should wake and
/// re-run the real (stamped, then mutex-verified) election.
bool election_ready_unstamped(const thread_state& thr, std::uint64_t f,
                              std::uint64_t my_serial) noexcept {
  std::uint64_t min_parked = thread_state::no_fence;
  for (const task_slot& sl : thr.owners) {
    const std::uint64_t ser = sl.serial.load(std::memory_order_acquire);
    if (ser < f || ser == 0) continue;
    const auto ph = static_cast<task_phase>(sl.phase.load_unstamped());
    if (ph == task_phase::running || ph == task_phase::completed) return false;
    if (ph == task_phase::rollback_parked && ser < min_parked) min_parked = ser;
  }
  return min_parked == my_serial;
}

}  // namespace

void commit_pipeline::rollback_parked_wait(task_env& env) {
  thread_state& thr = env.thr;
  task_slot& slot = env.slot;
  vt::worker_clock& clk = env.clock;
  const std::uint64_t my_serial = slot.serial.load(std::memory_order_relaxed);
  slot.store_phase(task_phase::rollback_parked, clk);
  thr.gate.wake_all();  // peers electing a coordinator watch our phase
  for (;;) {
    const std::uint64_t f = thr.fence.load(clk);
    if (f == thread_state::no_fence || f > my_serial) {
      // Resume must be serialized against coordinators and fence raises:
      // a new fence could land between our check and our state reset, and a
      // coordinator must never see us flip from parked to running while it
      // builds its victim list. Re-check under the mutex and mark ourselves
      // running there (run_one_incarnation re-stamps the phase afterwards).
      thr.rollback_mu.lock(clk);
      const std::uint64_t f2 = thr.fence.load(clk);
      if (f2 == thread_state::no_fence || f2 > my_serial) {
        slot.store_phase(task_phase::running, clk);
        thr.rollback_mu.unlock(clk);
        // Our resume can shrink the parked set a peer's election watches
        // (the covered minimum may now be that peer).
        thr.gate.wake_all();
        return;
      }
      thr.rollback_mu.unlock(clk);
      continue;  // covered again — keep parking
    }

    // Coordinator election: the lowest parked serial >= fence runs the
    // rollback once every covered active task has parked.
    bool all_parked = true;
    std::uint64_t min_parked = thread_state::no_fence;
    for (task_slot& sl : thr.owners) {
      const std::uint64_t ser = sl.serial.load(std::memory_order_acquire);
      if (ser < f || ser == 0) continue;
      const auto ph = sl.load_phase(clk);
      if (ph == task_phase::running || ph == task_phase::completed) {
        all_parked = false;
        break;
      }
      if (ph == task_phase::rollback_parked && ser < min_parked) min_parked = ser;
    }
    if (all_parked && min_parked == my_serial) {
      coordinate_rollback(env);
      continue;  // re-check the (possibly re-raised) fence
    }
    // Park until the picture can have changed: the fence moved (raise and
    // release both wake the gate) or a peer's phase flipped (every phase
    // store wakes). The probe is unstamped; the loop top re-reads stamped.
    gov_.await(thr.gate, sched::gate_class::rollback, env.stats, [&] {
      const std::uint64_t fx = thr.fence.load_unstamped();
      if (fx == thread_state::no_fence || fx > my_serial) return true;
      return election_ready_unstamped(thr, fx, my_serial);
    });
  }
}

void commit_pipeline::coordinate_rollback(task_env& env) {
  thread_state& thr = env.thr;
  vt::worker_clock& clk = env.clock;
  thr.rollback_mu.lock(clk);
  const std::uint64_t f = thr.fence.load(clk);
  if (f == thread_state::no_fence) {
    thr.rollback_mu.unlock(clk);
    return;
  }
  // Re-verify the all-parked condition under the mutex: the pre-mutex
  // election ran on a snapshot, and a task may have resumed (or the fence
  // may have moved) since. Bail out and let the election retry if any
  // covered task is still live.
  for (task_slot& sl : thr.owners) {
    const std::uint64_t ser = sl.serial.load(std::memory_order_acquire);
    if (ser < f || ser == 0) continue;
    const auto ph = sl.load_phase(clk);
    if (ph == task_phase::running || ph == task_phase::completed) {
      thr.rollback_mu.unlock(clk);
      return;
    }
  }
  const std::uint64_t committed = thr.committed_task.load(clk);
  const std::uint64_t start = std::max(f, committed + 1);

  // Victims: parked tasks with serial >= start, popped newest-first so the
  // entries removed from each chain always form its current prefix.
  std::vector<task_slot*> victims;
  for (task_slot& sl : thr.owners) {
    if (sl.load_phase(clk) == task_phase::rollback_parked &&
        sl.serial.load(std::memory_order_acquire) >= start) {
      victims.push_back(&sl);
    }
  }
  std::sort(victims.begin(), victims.end(), [](task_slot* a, task_slot* b) {
    return a->serial.load(std::memory_order_relaxed) >
           b->serial.load(std::memory_order_relaxed);
  });
  std::size_t popped = 0;
  for (task_slot* sl : victims) {
    sl->incarnation.fetch_add(1, std::memory_order_release);
    sl->logs.write_log.for_each_reverse([&](stm::write_entry& e) {
      unlink_entry(e, clk);
      ++popped;
    });
    for (const stm::mm_action& a : sl->logs.alloc_undo) {
      env.reclaimer.retire(a.obj, a.fn, a.ctx);
    }
    sl->logs.clear_for_restart();
    sl->wrote.store(false, std::memory_order_relaxed);
  }

  // Counter repair: completions from `start` on are undone.
  if (thr.completed_task.load(clk) > start - 1) thr.completed_task.store(start - 1, clk);
  std::uint64_t cw = thr.committed_writer_wm.load(std::memory_order_relaxed);
  for (task_slot& sl : thr.owners) {
    const std::uint64_t ser = sl.serial.load(std::memory_order_relaxed);
    if (ser != 0 && ser < start && sl.wrote.load(std::memory_order_relaxed) &&
        sl.load_phase(clk) == task_phase::completed) {
      cw = std::max(cw, ser);
    }
  }
  thr.completed_writer.store(cw, clk);

  clk.advance(cfg_.costs.fence_coordination + cfg_.costs.abort_per_write * popped);
  thr.fence.store(thread_state::no_fence, clk);  // releases every parked task
  thr.rollback_mu.unlock(clk);
  // Fence release + chain pops: parked tasks (on either gate class) resume.
  thr.wake_fence_event();
}

void commit_pipeline::unlink_entry(stm::write_entry& e, vt::worker_clock& clk) {
  stm::lock_pair* lp = e.locks;
  stm::write_entry* head = lp->w_lock.load_unstamped();
  if (head == &e) {
    lp->w_lock.store(e.prev.load(std::memory_order_relaxed), clk);
    // Chain-pop publication (DESIGN.md §8.6 wake map): foreign W/W waiters
    // (a CM victim's released stripe) and our own chain-hand-off waiters
    // park on the stripe's shard and watch the head's ownership.
    gates_.wake(lp);
    return;
  }
  // Defensive interior unlink (normally pops are exactly chain prefixes).
  for (stm::write_entry* p = head; p != nullptr;
       p = p->prev.load(std::memory_order_acquire)) {
    if (p->prev.load(std::memory_order_acquire) == &e) {
      p->prev.store(e.prev.load(std::memory_order_relaxed), std::memory_order_release);
      gates_.wake(lp);
      return;
    }
  }
  // Already unlinked (e.g. double-raise races) — nothing to do.
}

}  // namespace tlstm::core
