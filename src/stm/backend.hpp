// The STM backend seam. Both baselines — SwissTM (the substrate TLSTM
// extends, §3.1) and TL2 (reference [15]) — expose the same per-thread
// context surface, so generic workload code is written once against a
// `Ctx`. This header gives that family a name: a runtime enum for
// command-line/test parameterization, a traits bundle per backend for
// template dispatch, and `with_backend` to cross from the value world
// (a parsed flag, a GTest parameter) into the type world.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "stm/readpath.hpp"
#include "stm/swisstm.hpp"
#include "stm/tl2.hpp"

namespace tlstm::stm {

enum class backend_kind : std::uint8_t { swisstm, tl2 };

inline constexpr backend_kind all_backends[] = {backend_kind::swisstm,
                                                backend_kind::tl2};

constexpr const char* to_string(backend_kind k) noexcept {
  switch (k) {
    case backend_kind::swisstm: return "swisstm";
    case backend_kind::tl2: return "tl2";
  }
  return "unknown";
}

constexpr std::optional<backend_kind> parse_backend(std::string_view s) noexcept {
  if (s == "swisstm" || s == "swiss") return backend_kind::swisstm;
  if (s == "tl2") return backend_kind::tl2;
  return std::nullopt;
}

/// Compile-time description of one baseline STM: its runtime, per-thread
/// context, and configuration types, plus the matching backend_kind.
template <backend_kind K>
struct backend_traits;

template <>
struct backend_traits<backend_kind::swisstm> {
  static constexpr backend_kind kind = backend_kind::swisstm;
  static constexpr const char* name = "swisstm";
  using runtime_type = swiss_runtime;
  using thread_type = swiss_thread;
  using config_type = swiss_config;
  using frontier_adapter = swiss_frontier_adapter;
  /// Builds the read-only fast path's invisible-read validator over this
  /// backend's lock table and committed-frontier clock (stm/readpath.hpp).
  static snapshot_reader<frontier_adapter> make_frontier_reader(
      runtime_type& rt, unsigned probe_cap = 4096) {
    return snapshot_reader<frontier_adapter>(frontier_adapter{&rt.table()},
                                             rt.commit_ts(), probe_cap);
  }
};

template <>
struct backend_traits<backend_kind::tl2> {
  static constexpr backend_kind kind = backend_kind::tl2;
  static constexpr const char* name = "tl2";
  using runtime_type = tl2_runtime;
  using thread_type = tl2_thread;
  using config_type = tl2_config;
  using frontier_adapter = tl2_frontier_adapter;
  static snapshot_reader<frontier_adapter> make_frontier_reader(
      runtime_type& rt, unsigned probe_cap = 4096) {
    return snapshot_reader<frontier_adapter>(frontier_adapter{&rt.table()},
                                             rt.gv(), probe_cap);
  }
};

using swisstm_backend = backend_traits<backend_kind::swisstm>;
using tl2_backend = backend_traits<backend_kind::tl2>;

/// Builds a backend config: both config types carry exactly this one
/// field (DESIGN.md §13).
template <typename Backend>
typename Backend::config_type make_backend_config(unsigned log2_table) {
  typename Backend::config_type cfg;
  cfg.log2_table = log2_table;
  return cfg;
}

/// Invokes `fn` with the backend_traits instance matching `k` — the bridge
/// from runtime backend selection to the templated generic code.
template <typename Fn>
decltype(auto) with_backend(backend_kind k, Fn&& fn) {
  switch (k) {
    case backend_kind::tl2: return fn(tl2_backend{});
    case backend_kind::swisstm: break;
  }
  return fn(swisstm_backend{});
}

}  // namespace tlstm::stm
