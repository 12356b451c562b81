// lock_table is header-only; this TU anchors the target and keeps a
// compile-time check of the entry layout close to the definition.
#include "stm/lock_table.hpp"

namespace tlstm::stm {

static_assert(sizeof(word) == 8, "TLSTM assumes 64-bit words");
static_assert(alignof(lock_pair) >= 8);
// zeroed_array hands out stripes as all-zero bytes: lock-free atomics hold
// their plain value, so zero bytes read as r_lock 0, w_lock null, stamp 0.
static_assert(std::atomic<word>::is_always_lock_free);
static_assert(std::atomic<write_entry*>::is_always_lock_free);
static_assert(std::atomic<vt::vtime>::is_always_lock_free);

}  // namespace tlstm::stm
