// Ablation A7 — task decomposition across data-structure shapes.
//
// The paper observes that task decomposition pays off only when transactions
// contain enough splittable work (Fig. 1a) and no cross-task dependencies
// (Fig. 2a write traversals). This ablation runs the same "N operations per
// transaction, split into 3 tasks" recipe over three structurally different
// sets: a sorted linked list (every operation walks shared prefixes), a skip
// list (logarithmic overlap) and a hash set (near-disjoint operations), all
// read-dominated. The TLSTM/SwissTM ratio per structure shows how substrate
// shape bounds TLS gains.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/rng.hpp"
#include "workloads/harness.hpp"
#include "workloads/intset.hpp"

using namespace tlstm;

namespace {

constexpr std::uint64_t n_tx = 200;
constexpr unsigned ops_per_task = 4;
constexpr unsigned tasks = 3;
constexpr std::uint64_t key_space = 512;

enum class structure : int { list = 0, skip = 1, hash = 2 };

std::string key_for(structure s, bool tlstm) {
  static const char* names[] = {"list", "skip", "hash"};
  return std::string(names[static_cast<int>(s)]) + (tlstm ? "_tlstm" : "_swiss");
}

template <typename Set, typename Ctx>
void run_ops(Set& set, Ctx& ctx, std::uint64_t seed_a, std::uint64_t seed_b) {
  util::xoshiro256 rng(seed_a, seed_b);
  for (unsigned j = 0; j < ops_per_task; ++j) {
    const std::uint64_t k = 1 + rng.next_below(key_space);
    const auto a = rng.next_below(10);
    if (a < 8) {
      (void)set.contains(ctx, k);
    } else if (a == 8) {
      if constexpr (requires { set.insert(ctx, k, rng.next()); }) {
        (void)set.insert(ctx, k, rng.next());
      } else {
        (void)set.insert(ctx, k);
      }
    } else {
      (void)set.erase(ctx, k);
    }
  }
}

template <typename Set>
void seed_set(Set& set) {
  for (std::uint64_t k = 2; k <= key_space; k += 2) set.insert_unsafe(k);
}

template <typename Set>
wl::run_result run_structure(bool tlstm) {
  Set set;
  seed_set(set);
  if (!tlstm) {
    return wl::run_swiss(stm::swiss_config{}, 1, n_tx, tasks * ops_per_task,
                         [&](unsigned, std::uint64_t i, stm::swiss_thread& tx) {
                           for (unsigned k = 0; k < tasks; ++k) {
                             run_ops(set, tx, i, k);
                           }
                         });
  }
  core::config cfg;
  cfg.num_threads = 1;
  cfg.spec_depth = tasks;
  cfg.log2_table = 16;
  return wl::run_tlstm(cfg, n_tx, tasks * ops_per_task, [&](unsigned, std::uint64_t i) {
    std::vector<core::task_fn> fns;
    for (unsigned k = 0; k < tasks; ++k) {
      fns.push_back([&set, i, k](core::task_ctx& c) { run_ops(set, c, i, k); });
    }
    return fns;
  });
}

void BM_abl_structures(benchmark::State& state) {
  const auto s = static_cast<structure>(state.range(0));
  const bool tlstm = state.range(1) != 0;
  for (auto _ : state) {
    wl::run_result r;
    switch (s) {
      case structure::list: r = run_structure<wl::sorted_list>(tlstm); break;
      case structure::skip: r = run_structure<wl::skiplist>(tlstm); break;
      case structure::hash: r = run_structure<wl::hashset>(tlstm); break;
    }
    bench_util::report(state, key_for(s, tlstm), r);
  }
}

}  // namespace

BENCHMARK(BM_abl_structures)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();

  auto& rec = bench_util::recorder::instance();
  wl::print_fig_header("abl_struct", {"swiss", "tlstm_x3", "speedup"});
  const char* names[] = {"sorted_list", "skiplist", "hashset"};
  for (int s = 0; s < 3; ++s) {
    const double sw = rec.tx_per_vms(key_for(static_cast<structure>(s), false));
    const double tl = rec.tx_per_vms(key_for(static_cast<structure>(s), true));
    std::printf("FIG\tabl_struct\t%s\t%.3f\t%.3f\t%.3f\n", names[s], sw, tl,
                sw > 0 ? tl / sw : 0.0);
  }
  std::puts("# Expect: hash ≥ skip > list speedups (splittability & overlap)");
  return 0;
}
