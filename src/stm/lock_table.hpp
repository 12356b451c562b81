// Global lock table shared by the SwissTM baseline and TLSTM (paper §3.1).
//
// Every transactional address maps to a stripe holding a pair of locks:
//   r_lock — a version number (the commit-ts value at which the stripe's
//            current value became visible) or the LOCKED sentinel while a
//            committing writer is writing back;
//   w_lock — null, or a pointer to the head of the stripe's *redo-log
//            chain*: the speculative write entries for this stripe, newest
//            first. In SwissTM the chain only ever contains entries of one
//            transaction; in TLSTM it contains entries of several tasks of
//            one user-thread, in descending task-serial order (paper §3.3).
//
// Entries live inside per-task chunked logs (stable addresses, memory never
// unmapped while the runtime lives). Readers of other tasks' entries go
// through atomic fields; a reader racing a log recycle observes garbage
// *values*, never faults, and is killed by task validation — see
// DESIGN.md §4.4 for the full safety argument.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/cache.hpp"
#include "util/zeroed_array.hpp"
#include "vt/vclock.hpp"

namespace tlstm::stm {

/// The transactional memory word. All tm-managed data is word-granular;
/// typed accessors in api.hpp pack smaller types into words.
using word = std::uintptr_t;

inline constexpr word r_lock_locked = ~word(0);  ///< r_lock write-back sentinel

struct write_entry;

/// One stripe: the (r_lock, w_lock) pair plus virtual-time stamps. A fresh
/// stripe is all-zero bytes: version 0, no chain, stamps 0 (zeroed_array).
struct lock_pair {
  vt::stamped_atomic<word> r_lock;
  vt::stamped_atomic<write_entry*> w_lock;
};

/// Packs (ptid, serial) into one atomic word so chain readers see a
/// consistent identity even while the owning log is being recycled.
/// 16 bits of thread id, 48 bits of serial — 2^48 tasks outlives any run.
struct entry_ident {
  static constexpr unsigned ptid_shift = 48;
  static std::uint64_t pack(std::uint32_t ptid, std::uint64_t serial) noexcept {
    return (static_cast<std::uint64_t>(ptid) << ptid_shift) |
           (serial & ((1ull << ptid_shift) - 1));
  }
  static std::uint32_t ptid(std::uint64_t packed) noexcept {
    return static_cast<std::uint32_t>(packed >> ptid_shift);
  }
  static std::uint64_t serial(std::uint64_t packed) noexcept {
    return packed & ((1ull << ptid_shift) - 1);
  }
};

/// A speculative write record. Fields that other tasks may read while the
/// owning log is recycled are atomic (relaxed is enough: any torn view is
/// caught by serial/incarnation validation).
struct write_entry {
  std::atomic<word*> addr{nullptr};        ///< target word
  std::atomic<word> value{0};              ///< buffered value
  lock_pair* locks = nullptr;              ///< back-pointer to the stripe
  std::atomic<std::uint64_t> ident{0};     ///< packed (ptid, serial)
  std::atomic<std::uint32_t> incarnation{0};  ///< owner restart count at write
  std::atomic<write_entry*> prev{nullptr}; ///< next-older chain entry
  std::atomic<vt::vtime> vstamp{0};        ///< writer's virtual clock at publish
  /// Owning thread state (CM peek). Atomic like the other cross-thread
  /// fields: chain readers may race a log recycle; relaxed is enough since
  /// any stale view is caught by serial/incarnation validation.
  std::atomic<void*> owner_thread{nullptr};

  std::uint32_t ptid() const noexcept {
    return entry_ident::ptid(ident.load(std::memory_order_relaxed));
  }
  std::uint64_t serial() const noexcept {
    return entry_ident::serial(ident.load(std::memory_order_relaxed));
  }
};

/// Stripe index of a word address in a power-of-two table. A Fibonacci
/// multiplicative hash spreads nearby words across the table; shared by
/// lock_table and TL2's tl2_lock_table.
inline std::size_t stripe_index(const void* addr, std::size_t mask) noexcept {
  auto a = reinterpret_cast<std::uintptr_t>(addr) >> 3;  // 8-byte words
  return (a * 0x9e3779b97f4a7c15ULL >> 40) & mask;
}

/// The global table. Sized as a power of two; stripe_index picks the
/// stripe. Collisions are benign: two addresses sharing a stripe merely
/// produce false conflicts (conservative, like SwissTM). Stripe memory is
/// committed on first touch, so a 2^20-stripe table reserves 32 MiB of
/// address space but costs only the pages that transactions reach.
class lock_table {
 public:
  explicit lock_table(unsigned log2_entries = 20)
      : mask_((std::size_t{1} << log2_entries) - 1), entries_(mask_ + 1) {}

  lock_pair& for_addr(const void* addr) noexcept {
    return entries_[stripe_index(addr, mask_)];
  }

  std::size_t size() const noexcept { return entries_.size(); }

 private:
  std::size_t mask_;
  util::zeroed_array<lock_pair> entries_;
};

/// Raw committed-state word access. atomic_ref keeps racy access defined;
/// the versioned read protocol provides the actual consistency.
inline word load_word(const word* addr) noexcept {
  return std::atomic_ref<const word>(*addr).load(std::memory_order_acquire);
}
inline void store_word(word* addr, word v) noexcept {
  std::atomic_ref<word>(*addr).store(v, std::memory_order_release);
}

}  // namespace tlstm::stm
