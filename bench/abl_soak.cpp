// Soak harness for bounded-memory server mode (DESIGN.md §12).
//
// A multi-minute keyed session storm over an elastically resized topology,
// with every unbounded memory curve closed off:
//
//   - the commit journal is pruned to config.journal_retain records per
//     pipeline behind the snapshot frontier;
//   - write-log chunks harvested from retired worker groups are recycled
//     into the next spawned group after an epoch grace period;
//   - a tm_pool churns transactional allocations whose fully-free chunks a
//     registered trim hook returns to the OS (runtime::trim_now, the same
//     pass the topology controller drives on shrink/idle);
//   - the request window is forgotten as its serials fall below the retain
//     frontier, exactly the discipline the offline checker's suffix-tiling
//     pruned-claim rule licenses.
//
// Rounds of closed-loop keyed submissions alternate the active width
// through {4, 2, 3, 1} (manual topology control — deterministic, unlike
// the load controller), shrinks run a trim pass like the controller tick
// would, and every few rounds the retained journal plus the request window
// is dumped and validated in-process by trace::check_journal (truncation
// frontiers included). RSS is sampled from /proc/self/statm each round.
//
// Acceptance (full run, --duration >= 120 s):
//   - post-warmup RSS slope <= 1% of mean RSS per minute;
//   - checker_ok on every dump;
//   - nonzero journal_chunks_pruned and writelog_chunks_recycled.
// Reduced-duration runs (the `soak`-labeled ctest smoke, scripts/ci.sh)
// enforce everything but the slope, which needs minutes to be meaningful.
//
// `--json <path>` writes the trajectory + acceptance rows
// (scripts/collect_bench.sh -> BENCH_soak.json).
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "core/runtime.hpp"
#include "core/session.hpp"
#include "json_recorder.hpp"
#include "trace/journal.hpp"
#include "util/stats.hpp"

using namespace tlstm;
using stm::word;

namespace {

constexpr unsigned n_pipes = 4;
constexpr unsigned n_keys = 64;
constexpr unsigned round_reqs = 4000;
constexpr unsigned submit_window = 64;      // outstanding tickets per chunk
constexpr unsigned dump_every = 3;          // rounds between journal dumps
constexpr unsigned min_rounds = 8;          // even the shortest smoke cycles
                                            // the width ring twice
constexpr unsigned widths[] = {4, 2, 3, 1}; // manual resize ring

/// Transactionally allocated churn object (tm_pool payload). No member
/// initializer: placement-new on a recycled slot must not issue a plain
/// write (type-stability discipline, see tm_var's constructor note); the
/// field is only ever written transactionally after create().
struct soak_node {
  word v;
};

std::size_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long total = 0, resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &total, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<std::size_t>(resident) *
         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

struct rss_sample {
  double t_s = 0;        // seconds since run start
  double bytes = 0;
};

/// Least-squares slope of RSS over the post-warmup samples, as percent of
/// the mean RSS per minute. Returns 0 with fewer than 3 samples.
double rss_slope_pct_per_min(const std::vector<rss_sample>& samples,
                             double warmup_s, double* mean_out) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t n = 0;
  for (const rss_sample& s : samples) {
    if (s.t_s < warmup_s) continue;
    const double x = s.t_s / 60.0;  // minutes
    sx += x;
    sy += s.bytes;
    sxx += x * x;
    sxy += x * s.bytes;
    ++n;
  }
  if (n < 3) {
    if (mean_out != nullptr) *mean_out = n == 0 ? 0 : sy / static_cast<double>(n);
    return 0;
  }
  const double dn = static_cast<double>(n);
  const double mean = sy / dn;
  if (mean_out != nullptr) *mean_out = mean;
  const double denom = dn * sxx - sx * sx;
  if (denom <= 0 || mean <= 0) return 0;
  const double slope = (dn * sxy - sx * sy) / denom;  // bytes per minute
  return slope / mean * 100.0;
}

/// One request the checker window still remembers: enough to rebuild its
/// trace entry and placement at dump time (ids are renumbered per dump).
struct hist_entry {
  std::uint64_t key = 0;
  unsigned tasks = 1;
  unsigned pipe = 0;
  std::uint64_t serial = 0;
  std::uint64_t epoch = 0;
};

struct dump_result {
  bool ok = false;
  std::string diag;
  std::size_t window = 0;
  std::size_t records = 0;
};

/// Snapshots the retained journals + frontiers, forgets the window's pruned
/// prefix, and validates the (windowed trace, truncated dump) pair with the
/// same offline checker the trace tests and the check_journal tool use.
dump_result dump_and_check(core::runtime& rt, core::session& s,
                           std::deque<hist_entry>& hist) {
  trace::journal_dump d;
  d.pipelines = n_pipes;
  d.topology = s.topology_history();
  d.journals.resize(n_pipes);
  d.first_serial.assign(n_pipes, 1);
  for (unsigned p = 0; p < n_pipes; ++p) {
    auto view = rt.thread(p).journal_snapshot();
    d.first_serial[p] = view.first_serial;
    d.journals[p] = std::move(view.records);
  }
  // Forget the pruned prefix of the window. Per pipe the window is in
  // serial order, so what remains below a frontier is a contiguous suffix
  // of the pruned range — precisely what the checker's pruned-claim rule
  // accepts (DESIGN.md §12).
  while (!hist.empty() &&
         hist.front().serial < d.first_serial[hist.front().pipe]) {
    hist.pop_front();
  }
  std::vector<trace::trace_request> trace;
  trace.reserve(hist.size());
  d.requests.reserve(hist.size());
  for (const hist_entry& h : hist) {
    const std::uint64_t id = trace.size();
    trace.push_back(trace::trace_request{id, h.key, 0, h.tasks, 1, false});
    d.requests.push_back(
        trace::request_placement{id, h.key, h.pipe, h.serial, h.tasks, h.epoch});
  }
  const trace::check_result res = trace::check_journal(trace, d);
  dump_result out;
  out.ok = res.ok;
  out.diag = res.diagnostic;
  out.window = hist.size();
  for (unsigned p = 0; p < n_pipes; ++p) out.records += d.journals[p].size();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      bench_util::json_recorder::consume_json_flag(argc, argv);
  const std::string duration_flag =
      bench_util::json_recorder::consume_flag(argc, argv, "duration");
  const double duration_s =
      duration_flag.empty() ? 150.0 : std::atof(duration_flag.c_str());
  const double warmup_s = std::min(duration_s / 3.0, 30.0);

  core::config cfg;
  cfg.num_threads = n_pipes;
  cfg.spec_depth = 2;
  cfg.log2_table = 14;
  cfg.record_commits = true;
  cfg.journal_retain = 1024;  // ~4 chunks retained per pipeline
  cfg.elastic = true;
  cfg.min_pipelines = 1;
  cfg.topo_interval_us = 0;   // manual resizes only (deterministic ring)

  // Pool before runtime: deferred transactional frees referencing it are
  // flushed when the runtime's reclaimers die (see tm_pool lifetime note).
  tm_pool<soak_node> pool(/*chunk_objects=*/64);

  core::runtime rt(cfg);
  rt.add_trim_hook([&pool, &rt] { return pool.raw_pool().trim(&rt.epochs()); });
  auto s = rt.open_session();

  std::vector<word> mem(n_keys * 8, 0);
  word* mp = mem.data();
  // Nodes allocated by even rounds, destroyed by the following odd round.
  std::vector<soak_node*> nodes(round_reqs / 4, nullptr);

  std::deque<hist_entry> hist;
  std::vector<rss_sample> samples;
  std::vector<core::ticket> tickets(round_reqs);

  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed_s = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  std::uint64_t total_reqs = 0;
  std::uint64_t resizes = 0;
  std::uint64_t dumps = 0;
  bool all_dumps_ok = true;
  std::string first_bad_dump;

  unsigned round = 0;
  samples.push_back({0.0, static_cast<double>(rss_bytes())});
  while (elapsed_s() < duration_s || round < min_rounds) {
    const bool alloc_round = (round % 2) == 0;
    for (unsigned base = 0; base < round_reqs; base += submit_window) {
      const unsigned chunk = std::min(submit_window, round_reqs - base);
      for (unsigned i = 0; i < chunk; ++i) {
        const unsigned r = base + i;
        const std::uint64_t key = (round * 17 + r) % n_keys;
        const unsigned tasks = (r % 3 == 0) ? 2u : 1u;
        std::vector<core::task_fn> fns;
        fns.reserve(tasks);
        for (unsigned t = 0; t < tasks; ++t) {
          word* cell = &mp[key * 8 + (t * 3 + r) % 8];
          if (t == 0 && r % 4 == 0) {
            // Pool churn rides the first task: even rounds allocate a node
            // (kept across the round boundary), odd rounds destroy the one
            // the previous round left in this slot.
            soak_node** slot = &nodes[r / 4];
            if (alloc_round) {
              fns.push_back([cell, slot, &pool](core::task_ctx& c) {
                soak_node* p = pool.create(c);
                c.write(&p->v, c.read(cell) + 1);
                c.write(cell, c.read(cell) + 1);
                *slot = p;  // slot is this request's own; incarnations of
                            // one task run serially, so the committed
                            // incarnation's pointer is the last write
              });
            } else {
              fns.push_back([cell, slot, &pool](core::task_ctx& c) {
                if (*slot != nullptr) pool.destroy(c, *slot);
                c.write(cell, c.read(cell) + 1);
              });
            }
          } else {
            fns.push_back([cell](core::task_ctx& c) {
              c.write(cell, c.read(cell) + 1);
            });
          }
        }
        tickets[r] = s.submit_keyed(key, std::move(fns));
        hist.push_back(hist_entry{key, tasks, 0, 0, 0});
      }
      for (unsigned i = 0; i < chunk; ++i) tickets[base + i].wait();
      // Placements are final once waited; fill them in submission order.
      for (unsigned i = 0; i < chunk; ++i) {
        hist_entry& h = hist[hist.size() - chunk + i];
        const core::ticket& tk = tickets[base + i];
        h.pipe = tk.pipeline();
        h.serial = tk.commit_serial();
        h.epoch = tk.route_epoch();
      }
    }
    if (!alloc_round) std::fill(nodes.begin(), nodes.end(), nullptr);
    total_reqs += round_reqs;

    // Elastic resize between rounds; a shrink runs the same trim pass the
    // topology controller's tick drives (DESIGN.md §12).
    const unsigned prev_width = s.active_pipelines();
    const unsigned next_width = widths[(round + 1) % 4];
    if (next_width != prev_width && s.resize(next_width)) {
      ++resizes;
      if (next_width < prev_width) rt.trim_now();
    }

    if ((round % dump_every) == dump_every - 1) {
      const dump_result dr = dump_and_check(rt, s, hist);
      ++dumps;
      if (!dr.ok && all_dumps_ok) {
        all_dumps_ok = false;
        first_bad_dump = dr.diag;
      }
      std::printf("# round %3u dump: window %zu reqs, %zu records, %s%s\n",
                  round, dr.window, dr.records, dr.ok ? "OK" : "FAIL ",
                  dr.ok ? "" : dr.diag.c_str());
    }

    samples.push_back({elapsed_s(), static_cast<double>(rss_bytes())});
    ++round;
  }

  // Final dump after quiescing, then the counters.
  const dump_result final_dump = dump_and_check(rt, s, hist);
  ++dumps;
  if (!final_dump.ok && all_dumps_ok) {
    all_dumps_ok = false;
    first_bad_dump = final_dump.diag;
  }
  rt.trim_now();
  rt.stop();
  const util::stat_block stats = rt.aggregated_stats();

  double mean_rss = 0;
  const double slope = rss_slope_pct_per_min(samples, warmup_s, &mean_rss);
  const bool slope_gated = duration_s >= 120.0;
  const bool slope_ok = !slope_gated || std::abs(slope) <= 1.0;
  const bool pruned_ok = stats.journal_chunks_pruned > 0;
  const bool recycled_ok = stats.writelog_chunks_recycled > 0;
  const bool ok = all_dumps_ok && slope_ok && pruned_ok && recycled_ok;

  std::printf(
      "# soak: %u rounds, %llu reqs, %llu resizes, %llu dumps (%s)\n",
      round, static_cast<unsigned long long>(total_reqs),
      static_cast<unsigned long long>(resizes),
      static_cast<unsigned long long>(dumps),
      all_dumps_ok ? "all OK" : first_bad_dump.c_str());
  std::printf(
      "# rss: start %.1f MB end %.1f MB mean %.1f MB | post-warmup slope "
      "%+.3f %%/min (gate %s: |slope| <= 1.0)\n",
      samples.front().bytes / 1e6, samples.back().bytes / 1e6, mean_rss / 1e6,
      slope, slope_gated ? "on" : "off — duration < 120 s");
  std::printf(
      "# mem: journal_live %llu journal_pruned %llu writelog_recycled %llu "
      "pool_trimmed %llu B\n",
      static_cast<unsigned long long>(stats.journal_chunks_live),
      static_cast<unsigned long long>(stats.journal_chunks_pruned),
      static_cast<unsigned long long>(stats.writelog_chunks_recycled),
      static_cast<unsigned long long>(stats.pool_bytes_trimmed));
  std::printf("# acceptance: dumps %s, pruned %s, recycled %s, slope %s\n",
              all_dumps_ok ? "OK" : "FAIL", pruned_ok ? "OK" : "FAIL",
              recycled_ok ? "OK" : "FAIL",
              slope_gated ? (slope_ok ? "OK" : "FAIL") : "skipped");

  auto& json = bench_util::json_recorder::instance();
  json.put("run", "duration_s", elapsed_s());
  json.put("run", "rounds", static_cast<double>(round));
  json.put("run", "requests", static_cast<double>(total_reqs));
  json.put("run", "resizes", static_cast<double>(resizes));
  json.put("run", "dumps", static_cast<double>(dumps));
  json.put("run", "final_window", static_cast<double>(final_dump.window));
  json.put("rss", "start_mb", samples.front().bytes / 1e6);
  json.put("rss", "end_mb", samples.back().bytes / 1e6);
  json.put("rss", "mean_mb", mean_rss / 1e6);
  json.put("rss", "slope_pct_per_min", slope);
  json.put("mem", "journal_chunks_live",
           static_cast<double>(stats.journal_chunks_live));
  json.put("mem", "journal_chunks_pruned",
           static_cast<double>(stats.journal_chunks_pruned));
  json.put("mem", "writelog_chunks_recycled",
           static_cast<double>(stats.writelog_chunks_recycled));
  json.put("mem", "pool_bytes_trimmed",
           static_cast<double>(stats.pool_bytes_trimmed));
  // The acceptance ratio: |post-warmup slope| against the 1%/min budget
  // (< 1 passes). Kept alongside the raw verdicts so trajectory diffs can
  // watch the margin, not just the bit.
  json.put("acceptance", "rss_slope_ratio", std::abs(slope) / 1.0);
  json.put("acceptance", "rss_slope_ok", slope_ok ? 1.0 : 0.0);
  json.put("acceptance", "all_dumps_ok", all_dumps_ok ? 1.0 : 0.0);
  json.put("acceptance", "journal_pruned_ok", pruned_ok ? 1.0 : 0.0);
  json.put("acceptance", "writelog_recycled_ok", recycled_ok ? 1.0 : 0.0);
  if (!json_path.empty()) {
    if (!json.write(json_path, "abl_soak")) {
      std::fprintf(stderr, "abl_soak: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("# wrote %s\n", json_path.c_str());
  }
  return ok ? 0 : 2;
}
