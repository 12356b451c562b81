// Fixed-size arrays that start as all-zero bytes without writing them.
//
// The stripe tables of the runtime and the two baselines are large (2^20
// entries by default: 32 MiB for stm::lock_table, 64 MiB for TL2's
// cache-line entries) but sparsely touched. Value-initializing them with
// `new T[n]()` stores zeros to every page, which made table construction
// the bulk of a runtime's set-up time and resident memory. zeroed_array
// instead takes an anonymous private mapping: the kernel hands out pages
// that read as zero and commits each one only when it is first touched,
// so an entry costs memory only once a transaction maps an address to it
// (DESIGN.md §4.1).
//
// The element type must be one whose value-initialized state is the
// all-zero byte pattern (lock words of 0 / nullptr, stamps of 0) and whose
// destructor does nothing; the entries are never constructed or destroyed
// individually. lock_table_test checks the zero pattern for each table.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <type_traits>

namespace tlstm::util {

template <typename T>
class zeroed_array {
  static_assert(std::is_trivially_destructible_v<T>,
                "zeroed_array never runs element destructors");
  static_assert(alignof(T) <= 4096, "mappings are only page-aligned");

 public:
  explicit zeroed_array(std::size_t n) : n_(n) {
    void* p = ::mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<T*>(p);
  }
  ~zeroed_array() { ::munmap(data_, bytes()); }
  zeroed_array(const zeroed_array&) = delete;
  zeroed_array& operator=(const zeroed_array&) = delete;

  T& operator[](std::size_t i) noexcept { return data_[i]; }
  std::size_t size() const noexcept { return n_; }

 private:
  /// Address space reserved; resident memory is only the touched pages.
  std::size_t bytes() const noexcept { return n_ * sizeof(T); }

  std::size_t n_;
  T* data_ = nullptr;
};

}  // namespace tlstm::util
