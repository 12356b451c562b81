// Open-loop tail-latency harness (DESIGN.md §9).
//
// Closed-loop benches hide queueing: a client that waits for each reply
// slows its own arrival rate exactly when the system degrades, which is
// precisely the regime a middleware serving millions of users must survive.
// This harness replays a seeded, deterministic request trace against a
// session at FIXED arrival rates — requests are submitted at their trace
// arrival times whether or not earlier ones completed, completions are
// observed through ticket::then() (no waiting thread per request), and
// per-ticket wall-clock stamps (config.capture_latency) feed log-bucket
// histograms per phase:
//
//   submit→install   inbox queueing + driver drain delay
//   install→commit   pipeline execution until the driver sees the frontier
//   commit→callback  the driver's completion phase (callbacks, wake)
//
// After every rate step the per-pipeline commit journals are validated
// against the trace by the offline checker (trace/journal.hpp; the
// check_journal tool runs it on dumped files): every request
// committed exactly once, serials dense, per-key FIFO intact. A checker
// failure fails the binary — a latency number from a corrupt history is
// worse than no number.
//
// Flags (consumed before google-benchmark parsing):
//   --json <path>      machine-readable rows (scripts/collect_bench.sh ->
//                      BENCH_latency.json)
//   --trace <prefix>   write <prefix>.<rate>.trace per rate step
//   --journal <prefix> write <prefix>.<rate>.journal per rate step
//                      (generator → replay → checker smoke pipeline in
//                      bench/run_openloop_check.cmake feeds these to the
//                      check_journal tool)
//   --read-frac <f>    fraction [0, 1] of requests drawn read-only and
//                      replayed via session::submit_read_keyed (default 0;
//                      the checker knows reads produce no commit record)
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/runtime.hpp"
#include "core/session.hpp"
#include "trace/journal.hpp"

using namespace tlstm;
using stm::word;

namespace {

constexpr unsigned n_pipelines = 2;
constexpr unsigned n_keys = 64;
constexpr unsigned words_per_key = 16;

struct rate_spec {
  const char* name;
  std::uint64_t rate_per_s;
  std::uint64_t requests;
  std::uint64_t seed;
};

// Row 0 is the reduced smoke point (bench_smoke + the checker pipeline
// test); rows 1..3 are the fixed-rate steps of the checked-in trajectory.
constexpr rate_spec rates[] = {
    {"smoke", 400, 120, 0xC0FFEE00},
    {"r1k", 1000, 1500, 0xC0FFEE01},
    {"r4k", 4000, 6000, 0xC0FFEE02},
    {"r16k", 16000, 24000, 0xC0FFEE03},
};
constexpr unsigned n_rates = 4;

/// --read-frac, converted to per-mille for trace_spec.
unsigned g_read_permille = 0;

volatile unsigned work_sink = 0;
/// Real host work per transactional op: latency phases are wall-clock
/// quantities, so the service time must be host time, not virtual cycles.
void real_work(unsigned iters) {
  for (unsigned i = 0; i < iters; ++i) work_sink = work_sink + i;
}

struct openloop_result {
  bench_util::log_histogram submit_install;
  bench_util::log_histogram install_commit;
  bench_util::log_histogram commit_callback;
  bench_util::log_histogram total;
  double offered_per_s = 0;
  double achieved_per_s = 0;
  std::uint64_t requests = 0;
  std::uint64_t late = 0;  ///< submissions that missed their arrival slot
  trace::check_result check;
};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One rate step: generate the trace, replay it open-loop, validate the
/// journal. `trace_prefix`/`journal_prefix` additionally dump the files the
/// standalone checker consumes.
openloop_result run_rate(const rate_spec& rs, const std::string& trace_prefix,
                         const std::string& journal_prefix) {
  trace::trace_spec spec;
  spec.seed = rs.seed;
  spec.requests = rs.requests;
  spec.keys = n_keys;
  spec.rate_per_s = rs.rate_per_s;
  spec.max_tasks = 2;
  spec.max_ops = 4;
  spec.read_permille = g_read_permille;
  const std::vector<trace::trace_request> trace = trace::generate_trace(spec);
  if (!trace_prefix.empty()) {
    const std::string path = trace_prefix + "." + rs.name + ".trace";
    if (!trace::write_trace(path, spec, trace)) {
      std::fprintf(stderr, "openloop: cannot write %s\n", path.c_str());
    }
  }

  core::config cfg;
  cfg.num_threads = n_pipelines;
  cfg.spec_depth = 4;
  cfg.log2_table = 14;
  cfg.record_commits = true;
  cfg.capture_latency = true;
  core::runtime rt(cfg);
  auto s = rt.open_session();

  std::vector<word> mem(n_keys * words_per_key, 0);
  word* mp = mem.data();

  openloop_result out;
  out.requests = trace.size();
  out.offered_per_s = static_cast<double>(rs.rate_per_s);

  std::vector<core::ticket> tickets(trace.size());
  std::atomic<std::uint64_t> completed{0};

  // --- replay: one submitting thread, arrivals on the trace schedule.
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t t0_ns = now_ns();
  for (const trace::trace_request& r : trace) {
    const auto target = t0 + std::chrono::nanoseconds(r.arrival_ns);
    if (std::chrono::steady_clock::now() < target) {
      std::this_thread::sleep_until(target);
    } else {
      ++out.late;
    }
    std::vector<core::task_fn> tasks;
    tasks.reserve(r.tasks);
    const unsigned base = static_cast<unsigned>(r.key) * words_per_key;
    for (unsigned t = 0; t < r.tasks; ++t) {
      const unsigned ops = r.ops;
      if (r.read_only) {
        tasks.push_back([mp, base, t, ops](core::task_ctx& c) {
          word sink = 0;
          for (unsigned o = 0; o < ops; ++o) {
            sink += c.read(&mp[base + (t * 7 + o) % words_per_key]);
            real_work(50);
          }
          benchmark::DoNotOptimize(sink);
        });
      } else {
        tasks.push_back([mp, base, t, ops](core::task_ctx& c) {
          for (unsigned o = 0; o < ops; ++o) {
            word* w = &mp[base + (t * 7 + o) % words_per_key];
            c.write(w, c.read(w) + 1);
            real_work(50);
          }
        });
      }
    }
    core::ticket tk = r.read_only ? s.submit_read_keyed(r.key, std::move(tasks))
                                  : s.submit_keyed(r.key, std::move(tasks));
    tk.then([&completed] { completed.fetch_add(1, std::memory_order_relaxed); });
    tickets[r.id] = std::move(tk);
  }
  // Join the tail: park on each outstanding ticket (the submission loop
  // itself never waited — open loop ends here).
  for (core::ticket& tk : tickets) tk.wait();
  // Topology history must be read while the session front is alive (it is a
  // static single-entry history here, but the dump format carries it).
  const auto topo_history = s.topology_history();
  rt.stop();
  if (completed.load() != trace.size()) {
    out.check = {false, "callback-count: " + std::to_string(completed.load()) +
                            " of " + std::to_string(trace.size()) +
                            " then() callbacks ran"};
    return out;
  }

  // --- histograms + achieved rate from the per-ticket stamps.
  std::uint64_t last_done_ns = t0_ns;
  for (const core::ticket& tk : tickets) {
    const core::ticket_latency l = tk.latency();
    if (!l.complete()) {
      out.check = {false, "latency-capture: ticket missing stamps"};
      return out;
    }
    auto delta = [](std::uint64_t a, std::uint64_t b) { return b >= a ? b - a : 0; };
    out.submit_install.record(delta(l.submit_ns, l.install_ns));
    out.install_commit.record(delta(l.install_ns, l.commit_ns));
    out.commit_callback.record(delta(l.commit_ns, l.callback_ns));
    out.total.record(delta(l.submit_ns, l.callback_ns));
    last_done_ns = std::max(last_done_ns, l.callback_ns);
  }
  out.achieved_per_s = static_cast<double>(trace.size()) /
                       std::max(1e-9, static_cast<double>(last_done_ns - t0_ns) * 1e-9);

  // --- journal dump + offline check.
  trace::journal_dump dump;
  dump.pipelines = n_pipelines;
  dump.journals.resize(n_pipelines);
  dump.topology = topo_history;
  for (unsigned p = 0; p < n_pipelines; ++p) {
    dump.journals[p] = rt.thread(p).journal_snapshot().records;
  }
  for (const trace::trace_request& r : trace) {
    // Authoritative placement from the ticket (DESIGN.md §11), not a
    // recomputed hash%width — the two only coincide under a static
    // topology.
    dump.requests.push_back(trace::request_placement{
        r.id, r.key, tickets[r.id].pipeline(), tickets[r.id].commit_serial(),
        r.tasks, tickets[r.id].route_epoch()});
  }
  if (!journal_prefix.empty()) {
    const std::string path = journal_prefix + "." + rs.name + ".journal";
    if (!trace::write_journal(path, dump)) {
      std::fprintf(stderr, "openloop: cannot write %s\n", path.c_str());
    }
  }
  out.check = trace::check_journal(trace, dump);
  return out;
}

std::map<std::string, openloop_result>& results() {
  static std::map<std::string, openloop_result> r;
  return r;
}

std::string g_trace_prefix;
std::string g_journal_prefix;

void BM_openloop(benchmark::State& state) {
  const rate_spec& rs = rates[state.range(0)];
  for (auto _ : state) {
    openloop_result r = run_rate(rs, g_trace_prefix, g_journal_prefix);
    state.SetIterationTime(static_cast<double>(r.requests) /
                           std::max(1.0, r.achieved_per_s));
    state.counters["p50_total_us"] = static_cast<double>(r.total.quantile(0.50)) * 1e-3;
    state.counters["p95_total_us"] = static_cast<double>(r.total.quantile(0.95)) * 1e-3;
    state.counters["p99_total_us"] = static_cast<double>(r.total.quantile(0.99)) * 1e-3;
    state.counters["achieved_per_s"] = r.achieved_per_s;
    state.counters["checker_ok"] = r.check.ok ? 1.0 : 0.0;
    if (!r.check.ok) state.SkipWithError(r.check.diagnostic.c_str());
    results()[rs.name] = std::move(r);
  }
}

}  // namespace

BENCHMARK(BM_openloop)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

int main(int argc, char** argv) {
  const std::string json_path = bench_util::json_recorder::consume_json_flag(argc, argv);
  g_trace_prefix = bench_util::json_recorder::consume_flag(argc, argv, "trace");
  g_journal_prefix = bench_util::json_recorder::consume_flag(argc, argv, "journal");
  const std::string frac = bench_util::json_recorder::consume_flag(argc, argv, "read-frac");
  if (!frac.empty()) {
    const double f = std::atof(frac.c_str());
    if (f < 0.0 || f > 1.0) {
      std::fprintf(stderr, "openloop: --read-frac must be in [0, 1]\n");
      return 2;
    }
    g_read_permille = static_cast<unsigned>(f * 1000.0 + 0.5);
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();

  auto& json = bench_util::json_recorder::instance();
  wl::print_fig_header("openloop", {"p50_total_us", "p95_total_us", "p99_total_us",
                                    "achieved_per_s", "late"});
  bool all_ok = true;
  for (const rate_spec& rs : rates) {
    const auto it = results().find(rs.name);
    if (it == results().end()) continue;
    const openloop_result& r = it->second;
    all_ok = all_ok && r.check.ok;
    wl::print_fig_row("openloop", static_cast<double>(rs.rate_per_s),
                      {static_cast<double>(r.total.quantile(0.50)) * 1e-3,
                       static_cast<double>(r.total.quantile(0.95)) * 1e-3,
                       static_cast<double>(r.total.quantile(0.99)) * 1e-3,
                       r.achieved_per_s, static_cast<double>(r.late)});

    const std::string row = std::string("rate/") + rs.name;
    json.put(row, "offered_per_s", static_cast<double>(rs.rate_per_s));
    json.put(row, "achieved_per_s", r.achieved_per_s);
    json.put(row, "requests", static_cast<double>(r.requests));
    json.put(row, "late", static_cast<double>(r.late));
    json.put(row, "read_frac", static_cast<double>(g_read_permille) * 1e-3);
    json.put(row, "checker_ok", r.check.ok ? 1.0 : 0.0);
    struct phase_row {
      const char* name;
      const bench_util::log_histogram* h;
    } phases[] = {{"submit_install", &r.submit_install},
                  {"install_commit", &r.install_commit},
                  {"commit_callback", &r.commit_callback},
                  {"total", &r.total}};
    std::printf("# %-6s offered %6llu/s achieved %8.0f/s late %llu%s\n", rs.name,
                static_cast<unsigned long long>(rs.rate_per_s), r.achieved_per_s,
                static_cast<unsigned long long>(r.late),
                r.check.ok ? "" : "  CHECKER FAILED");
    for (const phase_row& p : phases) {
      const double p50 = static_cast<double>(p.h->quantile(0.50)) * 1e-3;
      const double p95 = static_cast<double>(p.h->quantile(0.95)) * 1e-3;
      const double p99 = static_cast<double>(p.h->quantile(0.99)) * 1e-3;
      json.put(row, std::string(p.name) + "_p50_us", p50);
      json.put(row, std::string(p.name) + "_p95_us", p95);
      json.put(row, std::string(p.name) + "_p99_us", p99);
      json.put(row, std::string(p.name) + "_mean_us", p.h->mean() * 1e-3);
      std::printf("#   %-16s p50 %9.1f us  p95 %9.1f us  p99 %9.1f us\n",
                  p.name, p50, p95, p99);
    }
    if (!r.check.ok) {
      std::fprintf(stderr, "openloop[%s]: checker failed: %s\n", rs.name,
                   r.check.diagnostic.c_str());
    }
  }

  if (!json_path.empty()) {
    if (!json.write(json_path, "openloop_latency")) {
      std::fprintf(stderr, "openloop: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("# wrote %s\n", json_path.c_str());
  }
  // A corrupt commit history must fail the run even after all rows printed.
  return all_ok ? 0 : 1;
}
