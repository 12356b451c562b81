// Wall-clock benchmark of the TLSTM runtime.
//
// One process runs one workload against the runtime's public API
// (core::runtime, core::user_thread, core::session / core::ticket), checks
// the workload's oracles and prints one `RESULT {...}` JSON line with every
// metric it measured. perfbench/run.py builds this program, runs it in a
// child process and turns that line into the benchmark's report;
// perfbench/README.md documents the workloads, the metrics and how to read
// a traced run.
//
// Timeline of one run: kSetups full set-ups (inputs, structure, runtime,
// session), of which only the last is kept; a warm-up; the timed window of
// `--seconds`, cut into one-second sub-windows; a final drain; runtime::stop();
// the oracles. A monitor thread samples progress per sub-window and fires
// the stall watchdog when no operation completes for kStallMs. Runs shorter
// than kShortRun seconds (smoke mode, the benchmark's own test) set up once
// and warm up briefly.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/runtime.hpp"
#include "core/session.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads/bank.hpp"
#include "workloads/rbtree.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace tlstm;
using perfbench::layer;
using perfbench::now_ns;
using perfbench::scope;
using perfbench::span_name;

/// Traced runs record the spans of one transaction / request in kSample.
/// With kSpanCapacity spans per thread this holds a 25 s traced half at
/// about 2.7M requests/s (kv-session, two client spans per request) or
/// 5M transactions/s per submitter, some ten times a 4-vCPU host's rates.
constexpr std::uint64_t kSample = 256;
/// Per-thread span buffer capacity of a traced run.
constexpr std::size_t kSpanCapacity = std::size_t{1} << 19;
/// Direct-API workloads submit one latency probe per millisecond.
constexpr std::uint64_t kProbeEveryNs = 1000000;
/// kv-session times 1 in kReadSample reads and 1 in kWriteSample writes of
/// its client 0 (by that client's request count). Its sample buffers are sized for kMaxRequests requests/s,
/// about ten times the rate of a 4-vCPU host, so a faster runtime does not
/// fill them inside the window.
constexpr std::uint64_t kReadSample = 64;
constexpr std::uint64_t kWriteSample = 16;
constexpr double kMaxRequests = 4e6;
/// Set-ups per run (the median is setup_s) and warm-up before the window.
constexpr unsigned kSetups = 15;
constexpr unsigned kWarmupMs = 1000;
/// Shorter runs set up once and warm up for kShortWarmupMs.
constexpr double kShortRun = 5;
constexpr unsigned kShortWarmupMs = 100;
/// The stall watchdog fires after this long without a completed operation.
constexpr unsigned kStallMs = 5000;
/// The timed window is cut into one sub-window per second (at least 5).
unsigned sub_windows(double seconds) {
  return std::max(5u, static_cast<unsigned>(seconds + 0.5));
}

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string inject;  ///< fault injection for the benchmark's own test
  std::string span_file;
  unsigned setups() const { return seconds < kShortRun ? 1 : kSetups; }
  unsigned warmup_ms() const { return seconds < kShortRun ? kShortWarmupMs : kWarmupMs; }
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "tlstm_bench: %s\nusage: tlstm_bench --workload rbtree-ro|bank-tls|bank-tm|"
               "kv-session --seed N --seconds S [--trace 0|1] [--inject NAME] "
               "[--span-file PATH]\n",
               why.c_str());
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") o.workload = v;
      else if (a == "--seed") o.seed = std::stoull(v);
      else if (a == "--seconds") o.seconds = std::stod(v);
      else if (a == "--trace") o.trace = std::stoi(v) != 0;
      else if (a == "--inject") o.inject = v;
      else if (a == "--span-file") o.span_file = v;
      else usage("unknown option " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (o.seconds <= 0 || o.seconds > 600) usage("--seconds must be in (0, 600]");
  return o;
}

// ---------------------------------------------------------------------------
// Small helpers: input digest, exact percentiles, process counters.
// ---------------------------------------------------------------------------

/// FNV-1a over 64-bit words: the input digest both sides of a comparison
/// print to prove they ran identical inputs.
struct digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
};

/// Exact nearest-rank percentile (0 for no samples).
double percentile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Guest steal time from /proc/stat, in clock ticks: time the hypervisor ran
/// something else while a vCPU of this guest was runnable (0 off a VM).
std::uint64_t steal_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  f >> cpu;
  for (auto& x : v) f >> x;
  return v[7];
}

unsigned os_threads() {
  unsigned n = 0;
  if (DIR* d = opendir("/proc/self/task")) {
    while (dirent* e = readdir(d)) {
      if (e->d_name[0] != '.') ++n;
    }
    closedir(d);
  }
  return n;
}

/// Fixed-capacity latency sample sink, allocated and touched before the
/// set-ups so recording never allocates and RSS does not track throughput.
/// One writer; the monitor reads size() at sub-window boundaries, the rest
/// is read after the writer joined.
class sample_buf {
 public:
  explicit sample_buf(std::size_t cap) : v_(cap, 0) {}
  void push(std::uint64_t ns) noexcept {
    const std::size_t i = n_.load(std::memory_order_relaxed);
    if (i == v_.size()) {
      dropped_++;
      return;
    }
    v_[i] = static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, UINT32_MAX));
    n_.store(i + 1, std::memory_order_release);
  }
  std::size_t size() const noexcept { return n_.load(std::memory_order_acquire); }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::vector<std::uint64_t> slice(std::size_t from, std::size_t to) const {
    return std::vector<std::uint64_t>(v_.begin() + static_cast<std::ptrdiff_t>(from),
                                      v_.begin() + static_cast<std::ptrdiff_t>(to));
  }
  /// Median over sub-windows of the per-sub-window q-quantile; `cuts` are
  /// the sample counts at the sub-window boundaries (first = window start).
  /// Bursts of host noise that spoil a minority of sub-windows do not move
  /// it.
  double windowed_quantile(const std::vector<std::size_t>& cuts, double q) const {
    std::vector<double> per;
    for (std::size_t i = 1; i < cuts.size(); ++i) {
      if (cuts[i] > cuts[i - 1]) per.push_back(percentile(slice(cuts[i - 1], cuts[i]), q));
    }
    return median(per);
  }

 private:
  std::vector<std::uint32_t> v_;
  std::atomic<std::size_t> n_{0};
  std::uint64_t dropped_ = 0;
};

// ---------------------------------------------------------------------------
// Run control shared by the clients, the monitor and the workloads.
// ---------------------------------------------------------------------------

enum class phase : int { setup, warmup, window, finish, stop, done };
constexpr const char* phase_names[] = {"setup", "warmup", "window", "finish", "stop", "done"};

struct control {
  std::atomic<phase> ph{phase::setup};
  std::atomic<bool> stop_clients{false};
  std::atomic<bool> in_window{false};
  /// Every completed operation, probes included (stall detection).
  std::atomic<std::uint64_t> progress{0};
  /// Completed workload operations (throughput): transactions or requests.
  std::atomic<std::uint64_t> ops{0};
};

/// Oracle outcomes. A failure names the oracle; run.py turns any failure
/// into `correct: false` and a nonzero exit. `bad_ops` is the number of
/// operations the failed oracle convicts; they are added to `failed`.
struct report {
  std::vector<std::string> failures;
  std::map<std::string, std::string> checked;  ///< oracle -> "ok" / detail
  std::uint64_t failed_ops = 0;
  void expect(bool ok, const std::string& oracle, const std::string& detail,
              std::uint64_t bad_ops) {
    if (!ok) {
      failures.push_back(oracle + ": " + detail);
      failed_ops += bad_ops;
    }
    checked[oracle] = ok ? "ok" : detail;
  }
};

std::uint64_t abs_diff(std::uint64_t a, std::uint64_t b) { return a > b ? a - b : b - a; }

/// Latency samples and layer timings the workloads record for emit().
struct measurements {
  explicit measurements(const options& o)
      : reads(capacity(o, 0.9 * kMaxRequests / kReadSample)),
        writes(capacity(o, 0.1 * kMaxRequests / kWriteSample)) {}
  /// Samples per second: kv-session's share of kMaxRequests, or the probes.
  static std::size_t capacity(const options& o, double kv_per_s) {
    const double per_s = o.workload == "kv-session" ? kv_per_s : 1e9 / kProbeEveryNs;
    return static_cast<std::size_t>(o.seconds * per_s) + 4096;
  }
  sample_buf reads;   ///< read latencies, ns
  sample_buf writes;  ///< write latencies, ns
  std::atomic<std::uint64_t> drain_ns{0};  ///< slowest client's final drain
  /// Session phases from ticket::latency() (traced kv-session run only).
  std::vector<std::uint64_t> queue_ns, exec_ns, complete_ns;
};

// ---------------------------------------------------------------------------
// Workload interface.
// ---------------------------------------------------------------------------

class workload {
 public:
  workload(const options& o, control& ctl, measurements& m)
      : opts_(o), ctl_(ctl), m_(m), trace_(o.trace) {}
  virtual ~workload() = default;
  workload(const workload&) = delete;
  workload& operator=(const workload&) = delete;

  /// Everything before the timed window: inputs, structure population,
  /// runtime construction (and open_session). Records the input digest.
  virtual void setup() = 0;
  virtual unsigned clients() const = 0;
  /// One closed-loop step of client `c`.
  virtual void step(unsigned c) = 0;
  /// Client `c` leaves the loop: waits for everything it submitted.
  virtual void finish(unsigned c) = 0;
  /// Oracles, after runtime::stop().
  virtual void check(report& r) = 0;
  /// Attempted and committed operations of the whole run (warm-up and
  /// probes included). On a stall this is a racy snapshot.
  virtual void counts(std::uint64_t& attempted, std::uint64_t& committed) = 0;
  /// Worker OS threads (the denominator of workloads.body_frac).
  virtual unsigned worker_threads() const = 0;

  core::runtime& rt() { return *rt_; }
  void stop() {
    scope sp(span_name::stop, layer::core, 0, true);
    rt_->stop();
  }
  std::uint64_t input_digest() const noexcept { return digest_.h; }
  std::uint64_t ctor_ns() const noexcept { return ctor_ns_; }

 protected:
  void construct_runtime(const core::config& cfg) {
    scope sp(span_name::ctor, layer::core, 0, true);
    const std::uint64_t t0 = now_ns();
    rt_ = std::make_unique<core::runtime>(cfg);
    ctor_ns_ = now_ns() - t0;
  }
  bool sampled(std::uint64_t req) const noexcept { return trace_ && req % kSample == 0; }
  bool injected(const char* name) const { return opts_.inject == name; }
  /// The stall fault: the task body of the targeted request never returns.
  [[noreturn]] static void block_forever() {
    for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  /// Request index the injected faults hit: inside the timed window for any
  /// run longer than a few milliseconds, and the same for every seed.
  static constexpr std::uint64_t kInjectAt = 2000;

  const options& opts_;
  control& ctl_;
  measurements& m_;
  const bool trace_;
  digest digest_;
  std::uint64_t ctor_ns_ = 0;
  /// Members of a subclass die before this base, so every concrete
  /// workload destroys the runtime (joining the workers that run its task
  /// bodies, flushing their reclaimers) in its own destructor.
  std::unique_ptr<core::runtime> rt_;
};

// ---------------------------------------------------------------------------
// Direct-API workloads: one submitter OS thread per user-thread, a closed
// loop bounded by the runtime's own window backpressure, and synchronous
// latency probes on user-thread 0.
// ---------------------------------------------------------------------------

class direct_workload : public workload {
 public:
  direct_workload(const options& o, control& ctl, measurements& m) : workload(o, ctl, m) {}

  unsigned clients() const override { return rt_->num_threads(); }
  unsigned worker_threads() const override {
    return rt_->num_threads() * rt_->cfg().spec_depth;
  }

  void step(unsigned c) override {
    if (c == 0) start_probe();
    client& cl = clients_[c];
    const std::uint64_t seq = cl.next_seq;
    std::vector<core::task_fn> tasks = make_tasks(c, seq);
    core::user_thread& th = rt_->thread(c);
    {
      scope sp(span_name::submit, layer::core, th.submitted_serials() + 1, sampled(seq),
               kSample);
      cl.submit_span[seq % kRing] = sp.id();
      cl.attempted.store(seq + 1, std::memory_order_relaxed);
      th.submit(std::move(tasks));
    }
    if (c == 0 && probe_pending_) end_probe();
    cl.next_seq = seq + 1;
    // submit() returned, so every slot of this transaction was free: the
    // previous transactions of this user-thread have committed, and with
    // them anything kCheckLag transactions back.
    if (seq >= kCheckLag) after_commit(c, seq - kCheckLag);
    ctl_.ops.fetch_add(1, std::memory_order_relaxed);
    ctl_.progress.fetch_add(1, std::memory_order_relaxed);
  }

  void finish(unsigned c) override {
    client& cl = clients_[c];
    const std::uint64_t t0 = now_ns();
    {
      scope sp(span_name::drain, layer::core, cl.next_seq, true);
      rt_->thread(c).drain();
    }
    std::uint64_t d = now_ns() - t0, prev = m_.drain_ns.load(std::memory_order_relaxed);
    while (d > prev && !m_.drain_ns.compare_exchange_weak(prev, d)) {
    }
    const std::uint64_t from = cl.next_seq > kCheckLag ? cl.next_seq - kCheckLag : 0;
    for (std::uint64_t s = from; s < cl.next_seq; ++s) after_commit(c, s);
    ctl_.progress.fetch_add(1, std::memory_order_relaxed);
  }

  void counts(std::uint64_t& attempted, std::uint64_t& committed) override {
    attempted = probe_writes_.load(std::memory_order_relaxed) +
                probe_reads_.load(std::memory_order_relaxed);
    for (unsigned c = 0; c < clients(); ++c) {
      attempted += clients_[c].attempted.load(std::memory_order_relaxed);
    }
    committed = rt_->aggregated_stats().tx_committed;
  }

  void check(report& r) override {
    const std::uint64_t w = probe_writes_.load();
    r.expect(probe_mismatch_ == 0, "probe.read_your_write",
             std::to_string(probe_mismatch_) + " read probes missed a preceding write probe",
             probe_mismatch_);
    r.expect(probe_word_ == w, "probe.count",
             "probe word " + std::to_string(probe_word_) + " != " + std::to_string(w) +
                 " write probes",
             abs_diff(probe_word_, w));
    check_workload(r);
  }

 protected:
  /// Result ring: per-transaction slots written by task bodies and read by
  /// the submitter kCheckLag transactions later, once provably committed.
  static constexpr std::uint64_t kRing = 256;
  static constexpr std::uint64_t kCheckLag = 64;

  struct client {
    std::uint64_t next_seq = 0;
    /// Transactions handed to submit(), including one still blocked in it.
    std::atomic<std::uint64_t> attempted{0};
    std::array<std::uint64_t, kRing> submit_span{};
  };

  void init_clients(const core::config& cfg) {
    construct_runtime(cfg);
    clients_ = std::make_unique<client[]>(cfg.num_threads);
  }

  virtual std::vector<core::task_fn> make_tasks(unsigned c, std::uint64_t seq) = 0;
  /// Called once per transaction after it has provably committed.
  virtual void after_commit(unsigned c, std::uint64_t seq) = 0;
  virtual void check_workload(report& r) = 0;

  std::uint64_t parent_span(unsigned c, std::uint64_t seq) const {
    return clients_[c].submit_span[seq % kRing];
  }

  std::unique_ptr<client[]> clients_;

 private:
  /// Latency probes on user-thread 0, one per kProbeEveryNs, alternating: a
  /// one-task write probe incrementing a word no workload transaction
  /// touches, and a one-task read probe of that word. A probe is submitted
  /// into the stream like any transaction (no drain, so the pipeline stays
  /// loaded); its latency runs from its submit call to the return of the
  /// next submit, which needs the probe's slot and hence its commit. The
  /// read probe must see every write probe before it in program order.
  void start_probe() {
    const std::uint64_t t0 = now_ns();
    if (t0 < next_probe_ns_) return;
    next_probe_ns_ = t0 + kProbeEveryNs;
    probe_write_ = probe_turn_++ % 2 == 0;
    probe_in_window_ = ctl_.in_window.load(std::memory_order_relaxed);
    probe_t0_ = t0;
    probe_pending_ = true;
    scope sp(span_name::probe, layer::core, rt_->thread(0).submitted_serials() + 1, trace_);
    if (probe_write_) {
      probe_writes_.fetch_add(1, std::memory_order_relaxed);
      // The probe fault: a write probe that adds 2.
      const stm::word by = injected("probe") ? 2 : 1;
      rt_->thread(0).submit_single([this, by](core::task_ctx& ctx) {
        ctx.write(&probe_word_, ctx.read(&probe_word_) + by);
      });
    } else {
      probe_reads_.fetch_add(1, std::memory_order_relaxed);
      probe_expect_ = probe_writes_.load(std::memory_order_relaxed);
      rt_->thread(0).submit_single(
          [this](core::task_ctx& ctx) { probe_seen_ = ctx.read(&probe_word_); });
    }
  }

  /// Called after the submit that follows a probe returned: it committed.
  void end_probe() {
    probe_pending_ = false;
    if (probe_in_window_) (probe_write_ ? m_.writes : m_.reads).push(now_ns() - probe_t0_);
    if (!probe_write_ && probe_seen_ != probe_expect_) probe_mismatch_++;
    ctl_.progress.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t next_probe_ns_ = 0;
  std::uint64_t probe_turn_ = 0;
  std::uint64_t probe_t0_ = 0;
  std::uint64_t probe_expect_ = 0;
  bool probe_pending_ = false;
  bool probe_write_ = false;
  bool probe_in_window_ = false;
  alignas(64) stm::word probe_word_ = 0;
  stm::word probe_seen_ = 0;
  std::atomic<std::uint64_t> probe_writes_{0};
  std::atomic<std::uint64_t> probe_reads_{0};
  std::uint64_t probe_mismatch_ = 0;
};

// ---------------------------------------------------------------------------
// rbtree-ro: fig1a's shape. 16Ki keys, 1 user-thread x spec_depth 3, each
// transaction 64 lookups split evenly into 3 tasks. Conflict-free.
// ---------------------------------------------------------------------------

class rbtree_ro final : public direct_workload {
 public:
  rbtree_ro(const options& o, control& ctl, measurements& m) : direct_workload(o, ctl, m) {}
  ~rbtree_ro() override {
    rt_.reset();
  }

  static constexpr std::uint64_t kKeys = 16384;
  static constexpr std::uint64_t kLookups = 64;
  static constexpr unsigned kTasks = 3;
  static constexpr std::uint64_t kInputs = 4096;  ///< pre-generated transactions, cycled

  void setup() override {
    util::xoshiro256 rng(opts_.seed, 1);
    // Keys are the odd numbers below 2*kKeys, inserted in a seeded order;
    // lookups draw from [0, 2*kKeys), so about half of them hit.
    std::vector<std::uint64_t> keys(kKeys);
    for (std::uint64_t i = 0; i < kKeys; ++i) keys[i] = 2 * i + 1;
    for (std::uint64_t i = kKeys - 1; i > 0; --i) std::swap(keys[i], keys[rng.next_below(i + 1)]);
    tree_ = std::make_unique<wl::rbtree>();
    for (std::uint64_t k : keys) {
      tree_->insert_unsafe(k, k * 3);
      digest_.add(k);
    }
    lookups_.resize(kInputs * kLookups);
    for (auto& k : lookups_) {
      k = rng.next_below(2 * kKeys);
      digest_.add(k);
    }
    // The sequential pass the oracle compares against: found counts per
    // (input, task), from the key set itself.
    expected_.resize(kInputs * kTasks);
    for (std::uint64_t in = 0; in < kInputs; ++in) {
      for (unsigned t = 0; t < kTasks; ++t) {
        std::uint32_t found = 0;
        for (std::uint64_t j = lo(t); j < lo(t + 1); ++j) found += lookups_[in * kLookups + j] % 2;
        expected_[in * kTasks + t] = found;
      }
    }
    core::config cfg;
    cfg.num_threads = 1;
    cfg.spec_depth = 3;
    init_clients(cfg);
  }

 private:
  static constexpr std::uint64_t lo(unsigned t) { return t * kLookups / kTasks; }

  std::vector<core::task_fn> make_tasks(unsigned, std::uint64_t seq) override {
    std::vector<core::task_fn> tasks;
    tasks.reserve(kTasks);
    for (unsigned t = 0; t < kTasks; ++t) {
      tasks.emplace_back([this, packed = seq << 2 | t](core::task_ctx& ctx) { body(ctx, packed); });
    }
    return tasks;
  }

  void body(core::task_ctx& ctx, std::uint64_t packed) {
    const std::uint64_t seq = packed >> 2;
    const unsigned t = packed & 3;
    scope sp(span_name::body, layer::workloads, ctx.serial(), sampled(seq), kSample,
             parent_span(0, seq));
    if (seq == kInjectAt && injected("stall")) block_forever();
    const std::uint64_t* keys = &lookups_[(seq % kInputs) * kLookups];
    std::uint32_t found = 0;
    for (std::uint64_t j = lo(t); j < lo(t + 1); ++j) found += tree_->contains(ctx, keys[j]) ? 1 : 0;
    if (seq == kInjectAt && t == 0 && injected("rbtree-found")) found++;
    results_[seq % kRing][t] = found;
  }

  void after_commit(unsigned, std::uint64_t seq) override {
    bool differs = false;
    for (unsigned t = 0; t < kTasks; ++t) {
      const std::uint32_t got = results_[seq % kRing][t];
      got_digest_.add(got);
      want_digest_.add(expected_[(seq % kInputs) * kTasks + t]);
      differs = differs || got != expected_[(seq % kInputs) * kTasks + t];
    }
    mismatches_ += differs ? 1 : 0;
    checked_++;
  }

  void check_workload(report& r) override {
    r.expect(checked_ == clients_[0].next_seq, "rbtree.checked",
             std::to_string(checked_) + " of " + std::to_string(clients_[0].next_seq) +
                 " transactions checked",
             abs_diff(checked_, clients_[0].next_seq));
    r.expect(mismatches_ == 0, "rbtree.found_count",
             std::to_string(mismatches_) +
                 " transactions' found-counts differ from the sequential pass",
             mismatches_);
    // The digest is a second view of the same counts: it convicts a
    // transaction only when the per-transaction comparison did not.
    r.expect(got_digest_.h == want_digest_.h, "rbtree.digest",
             "found-count digest differs from the sequential pass", mismatches_ == 0 ? 1 : 0);
  }

  std::unique_ptr<wl::rbtree> tree_;
  std::vector<std::uint64_t> lookups_;
  std::vector<std::uint32_t> expected_;
  std::array<std::array<std::uint32_t, kTasks>, kRing> results_{};
  std::uint64_t mismatches_ = 0;
  std::uint64_t checked_ = 0;
  digest got_digest_, want_digest_;
};

// ---------------------------------------------------------------------------
// bank-tls / bank-tm: wl::bank with 1024 accounts, wl::bank::transfer
// between seeded random accounts, each clamped to the source balance (a
// read-dependent write).
// ---------------------------------------------------------------------------

/// Direct memory access for wl::bank's accessors once the runtime stopped.
struct plain_ctx {
  static stm::word read(const stm::word* p) { return *p; }
  static void write(stm::word* p, stm::word v) { *p = v; }
  static void count_ops(std::uint64_t) {}
};

/// The bank-total fault: every write of a transfer adds one unit.
struct leaky_ctx {
  core::task_ctx& ctx;
  stm::word read(const stm::word* p) { return ctx.read(p); }
  void write(stm::word* p, stm::word v) { ctx.write(p, v + 1); }
  void count_ops(std::uint64_t n) { ctx.count_ops(n); }
};

class bank final : public direct_workload {
 public:
  /// bank-tls: 1 user-thread x spec_depth 3, 3 tasks of 4 transfers.
  /// bank-tm: 2 user-threads x spec_depth 1, 1 task of 4 transfers.
  bank(const options& o, control& ctl, measurements& m, bool tls)
      : direct_workload(o, ctl, m), threads_(tls ? 1 : 2), tasks_(tls ? 3 : 1) {}
  ~bank() override {
    rt_.reset();
  }

  static constexpr std::size_t kAccounts = 1024;
  static constexpr std::uint64_t kInitial = 1000;
  static constexpr unsigned kPerTask = 4;
  static constexpr std::uint64_t kInputs = 8192;

  struct transfer {
    std::uint32_t from, to, amount;
  };

  void setup() override {
    accounts_ = std::make_unique<wl::bank>(kAccounts, kInitial);
    inputs_.assign(threads_, {});
    for (unsigned c = 0; c < threads_; ++c) {
      util::xoshiro256 rng(opts_.seed, 10 + c);
      inputs_[c].resize(kInputs * tasks_ * kPerTask);
      for (auto& x : inputs_[c]) {
        x.from = static_cast<std::uint32_t>(rng.next_below(kAccounts));
        do {
          x.to = static_cast<std::uint32_t>(rng.next_below(kAccounts));
        } while (x.to == x.from);
        x.amount = static_cast<std::uint32_t>(rng.next_range(1, 200));
        digest_.add(x.from);
        digest_.add(x.to);
        digest_.add(x.amount);
      }
    }
    core::config cfg;
    cfg.num_threads = threads_;
    cfg.spec_depth = tasks_;
    init_clients(cfg);
  }

 private:
  std::vector<core::task_fn> make_tasks(unsigned c, std::uint64_t seq) override {
    std::vector<core::task_fn> tasks;
    tasks.reserve(tasks_);
    for (unsigned t = 0; t < tasks_; ++t) {
      tasks.emplace_back([this, packed = seq << 8 | c << 4 | t](core::task_ctx& ctx) {
        body(ctx, packed);
      });
    }
    return tasks;
  }

  void body(core::task_ctx& ctx, std::uint64_t packed) {
    const std::uint64_t seq = packed >> 8;
    const unsigned c = (packed >> 4) & 0xf;
    const unsigned t = packed & 0xf;
    scope sp(span_name::body, layer::workloads, ctx.serial(), sampled(seq), kSample,
             parent_span(c, seq));
    if (seq == kInjectAt && injected("stall")) block_forever();
    const transfer* x = &inputs_[c][((seq % kInputs) * tasks_ + t) * kPerTask];
    const bool target = seq == kInjectAt && c == 0 && t == 0;
    for (unsigned i = 0; i < kPerTask; ++i) {
      // transfer() counts one stat_block::user_ops per committed transfer.
      // The replay fault pays one transfer into the wrong (conserving) account.
      std::uint32_t to = x[i].to;
      if (target && i == 0 && injected("bank-replay")) {
        to = (to + 1) % kAccounts == x[i].from ? (to + 2) % kAccounts : (to + 1) % kAccounts;
      }
      if (target && i == 0 && injected("bank-total")) {
        leaky_ctx leaky{ctx};
        accounts_->transfer(leaky, x[i].from, to, x[i].amount);
      } else {
        accounts_->transfer(ctx, x[i].from, to, x[i].amount);
      }
    }
    if (target && injected("bank-ops")) ctx.count_ops(1);
  }

  void after_commit(unsigned, std::uint64_t) override {}

  void check_workload(report& r) override {
    const std::uint64_t total = accounts_->total_unsafe();
    // Which transfer broke conservation is unknown: the oracle convicts one.
    r.expect(total == accounts_->expected_total(), "bank.total",
             "total balance " + std::to_string(total) + " != " +
                 std::to_string(accounts_->expected_total()),
             1);
    std::uint64_t transfers = 0;
    for (unsigned c = 0; c < threads_; ++c) transfers += clients_[c].next_seq * tasks_ * kPerTask;
    const std::uint64_t user_ops = rt_->aggregated_stats().user_ops;
    r.expect(user_ops == transfers, "bank.user_ops",
             "stat_block::user_ops " + std::to_string(user_ops) + " != " +
                 std::to_string(transfers) + " committed transfers",
             abs_diff(user_ops, transfers));
    if (threads_ == 1) {
      // One user-thread: TLSTM promises the sequential result exactly.
      std::vector<stm::word> ref(kAccounts, kInitial);
      for (std::uint64_t seq = 0; seq < clients_[0].next_seq; ++seq) {
        const transfer* x = &inputs_[0][(seq % kInputs) * tasks_ * kPerTask];
        for (unsigned i = 0; i < tasks_ * kPerTask; ++i) {
          const stm::word moved = std::min<stm::word>(ref[x[i].from], x[i].amount);
          ref[x[i].from] -= moved;
          ref[x[i].to] += moved;
        }
      }
      plain_ctx plain;
      std::uint64_t differ = 0;
      for (std::size_t a = 0; a < kAccounts; ++a) {
        differ += ref[a] != accounts_->audit_range(plain, a, a + 1) ? 1 : 0;
      }
      r.expect(differ == 0, "bank.replay",
               std::to_string(differ) + " balances differ from a sequential replay", differ);
    }
  }

  const unsigned threads_;
  const unsigned tasks_;
  std::unique_ptr<wl::bank> accounts_;
  std::vector<std::vector<transfer>> inputs_;
};

// ---------------------------------------------------------------------------
// kv-session: the serving path. 2 pipelines x spec_depth 1 behind the
// session front, 256 records of 8 words, two closed-loop clients that each
// keep up to 8 requests in flight: a client submits a window of 8 requests,
// then waits on each in turn. Each request is, independently, a
// whole-record snapshot through submit_read_keyed (90%) or a write bumping
// two records, keyed on the first, through submit_keyed (10%). Latency is
// sampled on client 0.
// ---------------------------------------------------------------------------

class kv_session final : public workload {
 public:
  kv_session(const options& o, control& ctl, measurements& m) : workload(o, ctl, m) {}
  ~kv_session() override {
    rt_.reset();
  }

  static constexpr std::size_t kRecords = 256;
  static constexpr unsigned kWords = 8;
  /// A step is one window of kWindow requests, all submitted before the
  /// first is waited on. Each request is a write with probability
  /// 1/kWriteOdds, so writes are 10% of requests.
  static constexpr unsigned kWindow = 8;
  static constexpr std::uint64_t kWriteOdds = 10;
  static constexpr std::uint64_t kSteps = 65536;
  static constexpr std::uint64_t kSpanRing = 1024;
  /// Client c issues request ids n * kClients + c and starts its walk over
  /// the steps at step c * kSteps / kClients.
  static constexpr unsigned kClients = 2;

  struct alignas(64) record {
    stm::word w[kWords];
  };
  /// One request: a read snapshots record a; a write bumps records a and b.
  struct request {
    bool write;
    std::uint16_t a, b;
  };
  using step_input = std::array<request, kWindow>;
  /// What one client touches; the drivers write its snapshots.
  struct alignas(64) client_state {
    std::uint64_t step = 0;
    std::uint64_t next = 0;  ///< requests issued
    std::array<std::array<stm::word, kWords>, kWindow> snapshots{};
    std::vector<stm::word> versions;  ///< committed writes per record
    std::uint64_t torn = 0;
    std::uint64_t errors = 0;
  };

  void setup() override {
    util::xoshiro256 rng(opts_.seed, 20);
    steps_.resize(kSteps);
    for (auto& s : steps_) {
      for (request& q : s) {
        q.write = rng.next_below(kWriteOdds) == 0;
        q.a = q.b = static_cast<std::uint16_t>(rng.next_below(kRecords));
        while (q.write && q.b == q.a) q.b = static_cast<std::uint16_t>(rng.next_below(kRecords));
        digest_.add(q.write);
        digest_.add(q.a);
        digest_.add(q.b);
      }
    }
    records_ = std::make_unique<record[]>(kRecords);
    for (std::size_t r = 0; r < kRecords; ++r) {
      for (auto& w : records_[r].w) w = 0;
    }
    for (unsigned c = 0; c < kClients; ++c) {
      clients_[c].step = c * kSteps / kClients;
      clients_[c].versions.assign(kRecords, 0);
    }
    core::config cfg;
    cfg.num_threads = 2;
    cfg.spec_depth = 1;
    cfg.capture_latency = trace_;
    construct_runtime(cfg);
    scope sp(span_name::open_session, layer::session, 0, true);
    session_ = std::make_unique<core::session>(rt_->open_session());
  }

  unsigned clients() const override { return kClients; }
  unsigned worker_threads() const override { return 2; }

  void step(unsigned c) override { window(c, steps_[clients_[c].step++ % kSteps]); }

  void finish(unsigned) override { ctl_.progress.fetch_add(1, std::memory_order_relaxed); }

  void counts(std::uint64_t& attempted, std::uint64_t& committed) override {
    attempted = issued_.load(std::memory_order_relaxed);
    committed = completed_.load(std::memory_order_relaxed);
  }

  void check(report& r) override {
    std::uint64_t torn = 0, errors = 0;
    for (const client_state& cs : clients_) {
      torn += cs.torn;
      errors += cs.errors;
    }
    r.expect(torn == 0, "kv.snapshot", std::to_string(torn) + " snapshots had unequal words",
             torn);
    std::uint64_t differ = 0;
    for (std::size_t rec = 0; rec < kRecords; ++rec) {
      stm::word version = 0;
      for (const client_state& cs : clients_) version += cs.versions[rec];
      bool bad = false;
      for (stm::word w : records_[rec].w) bad = bad || w != version;
      differ += bad ? 1 : 0;
    }
    r.expect(differ == 0, "kv.version",
             std::to_string(differ) + " records differ from their committed write count", differ);
    // A request that failed in wait() never completed: it is already in
    // attempted - committed.
    r.expect(errors == 0, "kv.errors", std::to_string(errors) + " requests failed in wait()", 0);
  }

 private:
  /// Submits the step's window of requests, then waits on each in turn.
  void window(unsigned c, const step_input& s) {
    client_state& cs = clients_[c];
    const bool sampling = c == 0 && ctl_.in_window.load(std::memory_order_relaxed);
    std::array<core::ticket, kWindow> tk;
    std::array<std::uint64_t, kWindow> t0{};
    std::array<std::uint64_t, kWindow> reqs{};
    for (unsigned i = 0; i < kWindow; ++i) {
      const std::uint64_t req = reqs[i] = cs.next++ * kClients + c;
      issued_.fetch_add(1, std::memory_order_relaxed);
      t0[i] = now_ns();
      const request& q = s[i];
      scope sp(q.write ? span_name::session_write : span_name::session_read, layer::session, req,
               sampled(req), kSample);
      span_ring_[req % kSpanRing] = sp.id();
      if (!q.write) {
        // The i-th read of the window writes its snapshot into snapshots[i]
        // of the client that issued it (req % kClients).
        const std::uint64_t packed = req << 16 | std::uint64_t{i} << 8 | q.a;
        tk[i] = session_->submit_read_keyed(
            q.a, {[this, packed](core::task_ctx& ctx) { read_body(ctx, packed); }});
        continue;
      }
      // Client 0's first write at or after kInjectAt carries the injected
      // fault.
      const bool faulty =
          c == 0 && !opts_.inject.empty() && req >= kInjectAt && !fault_assigned_;
      fault_assigned_ = fault_assigned_ || faulty;
      const std::uint64_t packed = req << 17 | std::uint64_t{faulty} << 16 |
                                   std::uint64_t{q.b} << 8 | q.a;
      tk[i] = session_->submit_keyed(
          q.a, {[this, packed](core::task_ctx& ctx) { write_body(ctx, packed); }});
    }
    for (unsigned i = 0; i < kWindow; ++i) {
      const std::uint64_t req = reqs[i];
      if (!wait(cs, tk[i], req)) continue;
      const std::uint64_t t1 = now_ns();
      const request& q = s[i];
      if (!q.write) {
        if (sampling && (req / kClients) % kReadSample == 0) m_.reads.push(t1 - t0[i]);
        const std::array<stm::word, kWords>& snap = cs.snapshots[i];
        bool equal = true;
        for (unsigned w = 1; w < kWords; ++w) equal = equal && snap[w] == snap[0];
        if (!equal) cs.torn++;
        done_one();
        continue;
      }
      if (sampling && (req / kClients) % kWriteSample == 0) {
        m_.writes.push(t1 - t0[i]);
        if (rt_->cfg().capture_latency) {
          const core::ticket_latency l = tk[i].latency();
          if (l.complete()) {
            m_.queue_ns.push_back(l.install_ns - l.submit_ns);
            m_.exec_ns.push_back(l.commit_ns - l.install_ns);
            m_.complete_ns.push_back(l.callback_ns - l.commit_ns);
          }
        }
      }
      cs.versions[q.a]++;
      cs.versions[q.b]++;
      done_one();
    }
  }

  bool wait(client_state& cs, core::ticket& tk, std::uint64_t req) {
    scope sp(span_name::ticket_wait, layer::session, req, sampled(req), kSample);
    try {
      tk.wait();
      return true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "request %llu failed: %s\n", static_cast<unsigned long long>(req),
                   e.what());
      cs.errors++;
      return false;
    }
  }

  void done_one() {
    completed_.fetch_add(1, std::memory_order_relaxed);
    ctl_.ops.fetch_add(1, std::memory_order_relaxed);
    ctl_.progress.fetch_add(1, std::memory_order_relaxed);
  }

  void read_body(core::task_ctx& ctx, std::uint64_t packed) {
    const std::uint64_t req = packed >> 16;
    const std::size_t slot = (packed >> 8) & 0xff;
    const std::size_t rec = packed & 0xff;
    scope sp(span_name::body, layer::workloads, req, sampled(req), kSample,
             span_ring_[req % kSpanRing]);
    std::array<stm::word, kWords>& snap = clients_[req % kClients].snapshots[slot];
    for (unsigned i = 0; i < kWords; ++i) snap[i] = ctx.read(&records_[rec].w[i]);
  }

  void write_body(core::task_ctx& ctx, std::uint64_t packed) {
    const std::uint64_t req = packed >> 17;
    const bool faulty = (packed >> 16) & 1;
    const std::size_t a = packed & 0xff;
    const std::size_t b = (packed >> 8) & 0xff;
    scope sp(span_name::body, layer::workloads, req, sampled(req), kSample,
             span_ring_[req % kSpanRing]);
    if (faulty && injected("stall")) block_forever();
    // Faults for the oracle tests: a torn writer bumps 7 of 8 words, a
    // double writer bumps every word twice.
    const unsigned words = faulty && injected("kv-snapshot") ? kWords - 1 : kWords;
    const stm::word by = faulty && injected("kv-version") ? 2 : 1;
    for (const std::size_t rec : {a, b}) {
      for (unsigned i = 0; i < words; ++i) {
        ctx.write(&records_[rec].w[i], ctx.read(&records_[rec].w[i]) + by);
      }
    }
  }

  std::vector<step_input> steps_;
  std::unique_ptr<record[]> records_;
  std::unique_ptr<core::session> session_;
  std::array<client_state, kClients> clients_;
  /// Client c writes only the entries of its own requests (req % kClients).
  std::array<std::uint64_t, kSpanRing> span_ring_{};
  bool fault_assigned_ = false;
  std::atomic<std::uint64_t> issued_{0};
  std::atomic<std::uint64_t> completed_{0};
};

std::unique_ptr<workload> make_workload(const options& o, control& ctl, measurements& m) {
  if (o.workload == "rbtree-ro") return std::make_unique<rbtree_ro>(o, ctl, m);
  if (o.workload == "bank-tls") return std::make_unique<bank>(o, ctl, m, true);
  if (o.workload == "bank-tm") return std::make_unique<bank>(o, ctl, m, false);
  if (o.workload == "kv-session") return std::make_unique<kv_session>(o, ctl, m);
  usage("unknown workload " + o.workload);
}

// ---------------------------------------------------------------------------
// Trace analysis: self time per layer, body time, submit-call percentiles.
// ---------------------------------------------------------------------------

struct trace_summary {
  std::array<double, perfbench::n_layers> self_ns{};  ///< weighted
  double body_ns = 0, aborted_body_ns = 0;            ///< weighted
  std::vector<std::uint64_t> submit_ns, session_submit_ns;
  std::uint64_t spans = 0, dropped = 0;
};

/// A span's self time is its duration minus the part of its interval that
/// its children cover (children on any thread, overlaps merged).
trace_summary analyse_trace(std::uint64_t t_from, std::uint64_t t_to, const std::string& file) {
  trace_summary out;
  std::vector<perfbench::span> spans = perfbench::tracer::get().collect(out.dropped);
  out.spans = spans.size();
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = index.find(spans[i].parent);
    if (spans[i].parent != 0 && it != index.end()) children[it->second].push_back(i);
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::span& s = spans[i];
    if (s.start_ns < t_from || s.start_ns > t_to) continue;
    iv.clear();
    for (std::size_t c : children[i]) {
      const std::uint64_t a = std::max(spans[c].start_ns, s.start_ns);
      const std::uint64_t b = std::min(spans[c].end_ns, s.end_ns);
      if (a < b) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, cur_a = 0, cur_b = 0;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    covered += cur_b - cur_a;
    const std::uint64_t dur = s.end_ns - s.start_ns;
    out.self_ns[static_cast<unsigned>(s.lay)] +=
        static_cast<double>(dur - std::min(dur, covered)) * s.weight;
    if (s.name == span_name::body) {
      out.body_ns += static_cast<double>(dur) * s.weight;
      if (s.aborted) out.aborted_body_ns += static_cast<double>(dur) * s.weight;
    } else if (s.name == span_name::submit) {
      out.submit_ns.push_back(dur);
    } else if (s.name == span_name::session_read || s.name == span_name::session_write) {
      out.session_submit_ns.push_back(dur);
    }
  }
  if (!file.empty()) {
    std::ofstream f(file);
    f << "id,parent,req,name,layer,start_ns,end_ns,weight,aborted\n";
    for (const auto& s : spans) {
      f << s.id << ',' << s.parent << ',' << s.req << ','
        << perfbench::span_names[static_cast<unsigned>(s.name)] << ','
        << perfbench::layer_names[static_cast<unsigned>(s.lay)] << ',' << s.start_ns << ','
        << s.end_ns << ',' << s.weight << ',' << (s.aborted ? 1 : 0) << '\n';
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The run: set-ups, monitor, clients, oracles, result line.
// ---------------------------------------------------------------------------

struct timeline {
  std::uint64_t t0 = 0;         ///< window start
  std::uint64_t t_final = 0;    ///< clients drained
  std::uint64_t t_ctor = 0;     ///< start of the kept set-up's runtime
  std::uint64_t t_stopped = 0;  ///< runtime::stop() returned
  std::uint64_t ops0 = 0, ops_final = 0;
  double cpu0 = 0, cpu_final = 0;
  std::vector<double> sub_rates;  ///< ops/s per sub-window
  std::vector<std::uint64_t> sub_steal;  ///< guest steal ticks per sub-window
  /// Latency sample counts at the sub-window boundaries.
  std::vector<std::size_t> read_cuts, write_cuts;
  unsigned threads_in_window = 0;
};

class json {
 public:
  void num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    raw(k, buf);
  }
  static std::string quote(const std::string& v) {
    std::string e = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') e += '\\';
      e += c == '\n' ? ' ' : c;
    }
    return e + "\"";
  }
  void str(const std::string& k, const std::string& v) { raw(k, quote(v)); }
  void raw(const std::string& k, const std::string& v) {
    if (!s_.empty()) s_ += ',';
    s_.append("\"").append(k).append("\":").append(v);
  }
  std::string done() const { return "{" + s_ + "}"; }

 private:
  std::string s_;
};

struct runner {
  const options& o;
  control ctl;
  measurements m;
  std::unique_ptr<workload> wl;
  std::vector<double> setup_s, ctor_ms;
  timeline tl;

  explicit runner(const options& opts) : o(opts), m(opts) {}

  void setups() {
    for (unsigned k = 0; k < o.setups(); ++k) {
      wl.reset();  // teardown of the previous set-up is not timed
      auto w = make_workload(o, ctl, m);
      const std::uint64_t t0 = now_ns();
      w->setup();
      setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      ctor_ms.push_back(static_cast<double>(w->ctor_ns()) * 1e-6);
      tl.t_ctor = t0;
      wl = std::move(w);
    }
  }

  /// Sleeps in short ticks until `until`, watching for a stall.
  void monitor_until(std::uint64_t until, std::uint64_t& last_progress, std::uint64_t& last_change) {
    for (;;) {
      const std::uint64_t now = now_ns();
      const std::uint64_t p = ctl.progress.load(std::memory_order_relaxed);
      if (p != last_progress) {
        last_progress = p;
        last_change = now;
      } else if (now - last_change > std::uint64_t{kStallMs} * 1000000) {
        on_stall(now - last_change);
      }
      if (now >= until) return;
      const std::uint64_t tick = std::min<std::uint64_t>(until - now, 50000000);
      std::this_thread::sleep_for(std::chrono::nanoseconds(tick));
    }
  }

  void monitor() {
    std::uint64_t last_p = ~std::uint64_t{0}, last_change = now_ns();
    monitor_until(now_ns() + std::uint64_t{o.warmup_ms()} * 1000000, last_p, last_change);
    tl.cpu0 = cpu_seconds();
    tl.t0 = now_ns();
    tl.ops0 = ctl.ops.load();
    tl.read_cuts.push_back(m.reads.size());
    tl.write_cuts.push_back(m.writes.size());
    ctl.in_window.store(true);
    ctl.ph.store(phase::window);
    const auto window_ns = static_cast<std::uint64_t>(o.seconds * 1e9);
    std::uint64_t t_prev = tl.t0, ops_prev = tl.ops0, steal_prev = steal_ticks();
    const unsigned n = sub_windows(o.seconds);
    for (unsigned w = 1; w <= n; ++w) {
      monitor_until(tl.t0 + window_ns * w / n, last_p, last_change);
      const std::uint64_t t = now_ns(), ops = ctl.ops.load();
      tl.sub_rates.push_back(static_cast<double>(ops - ops_prev) * 1e9 /
                             static_cast<double>(t - t_prev));
      t_prev = t;
      ops_prev = ops;
      const std::uint64_t steal = steal_ticks();
      tl.sub_steal.push_back(steal - steal_prev);
      steal_prev = steal;
      tl.read_cuts.push_back(m.reads.size());
      tl.write_cuts.push_back(m.writes.size());
      if (w == (n + 1) / 2) tl.threads_in_window = os_threads();
    }
    ctl.in_window.store(false);
    ctl.ph.store(phase::finish);
    ctl.stop_clients.store(true);
    while (ctl.ph.load() != phase::done) monitor_until(now_ns() + 1000000, last_p, last_change);
  }

  void client_loop(unsigned c) {
    while (!ctl.stop_clients.load(std::memory_order_relaxed)) wl->step(c);
    wl->finish(c);
  }

  int run() {
    if (o.trace) perfbench::tracer::get().enable(kSpanCapacity);
    setups();
    ctl.ph.store(phase::warmup);
    std::thread mon([this] { monitor(); });
    std::vector<std::thread> extra;
    for (unsigned c = 1; c < wl->clients(); ++c) extra.emplace_back([this, c] { client_loop(c); });
    client_loop(0);
    for (auto& t : extra) t.join();
    tl.t_final = now_ns();
    tl.cpu_final = cpu_seconds();
    tl.ops_final = ctl.ops.load();
    ctl.ph.store(phase::stop);
    wl->stop();
    tl.t_stopped = now_ns();
    ctl.ph.store(phase::done);
    mon.join();
    report rep;
    wl->check(rep);
    if (const std::uint64_t d = m.reads.dropped() + m.writes.dropped()) {
      std::fprintf(stderr,
                   "WARNING: %llu latency samples dropped (buffers full): the latency "
                   "figures cover only the start of the window\n",
                   static_cast<unsigned long long>(d));
    }
    emit(rep, false);
    return 0;
  }

  [[noreturn]] void on_stall(std::uint64_t idle_ns) {
    const phase ph = ctl.ph.load();
    std::fprintf(stderr, "STALL: no operation completed for %.0f ms in phase %s\n",
                 static_cast<double>(idle_ns) * 1e-6, phase_names[static_cast<int>(ph)]);
    std::fprintf(stderr, "runtime::dump_state():\n%s\n", wl->rt().dump_state().c_str());
    std::fprintf(stderr, "aggregated_stats() (racy snapshot):\n%s\n",
                 util::to_string(wl->rt().aggregated_stats()).c_str());
    if (tl.t0 == 0) tl.t0 = now_ns();
    tl.t_final = tl.t_stopped = now_ns();
    tl.cpu_final = cpu_seconds();
    tl.ops_final = ctl.ops.load();
    report rep;
    emit(rep, true);
    std::fflush(stdout);
    std::fflush(stderr);
    std::_Exit(0);  // the runtime cannot be stopped: its threads are stuck
  }

  void emit(const report& rep, bool stalled) {
    std::uint64_t attempted = 0, committed = 0;
    wl->counts(attempted, committed);
    // Uncommitted operations, plus committed ones an oracle convicted.
    const std::uint64_t failed =
        std::min(attempted, attempted - std::min(committed, attempted) + rep.failed_ops);
    const util::stat_block st = wl->rt().aggregated_stats();
    const double window_s = static_cast<double>(tl.t_final - tl.t0) * 1e-9;
    const double window_ops = static_cast<double>(tl.ops_final - tl.ops0);

    json mx;
    // End-to-end.
    mx.num("setup_s", median(setup_s));
    mx.num("throughput_tx_s", median(tl.sub_rates));
    mx.num("cpu_ms_per_ktx", ratio((tl.cpu_final - tl.cpu0) * 1e3, window_ops / 1e3));
    mx.num("peak_rss_mb", peak_rss_mb());
    mx.num("commit_frac", ratio(static_cast<double>(attempted - failed),
                                static_cast<double>(attempted)));
    mx.num("read_p50_us", m.reads.windowed_quantile(tl.read_cuts, 0.50) * 1e-3);
    mx.num("read_p90_us", m.reads.windowed_quantile(tl.read_cuts, 0.90) * 1e-3);
    mx.num("read_p99_us", m.reads.windowed_quantile(tl.read_cuts, 0.99) * 1e-3);
    mx.num("write_p50_us", m.writes.windowed_quantile(tl.write_cuts, 0.50) * 1e-3);
    mx.num("write_p90_us", m.writes.windowed_quantile(tl.write_cuts, 0.90) * 1e-3);
    mx.num("write_p99_us", m.writes.windowed_quantile(tl.write_cuts, 0.99) * 1e-3);

    // Per layer: core.
    const double ops_all = static_cast<double>(st.tx_committed + st.readpath_hits);
    const auto per_ktx = [&](std::uint64_t v) { return ratio(static_cast<double>(v) * 1e3, ops_all); };
    const auto per_tx = [&](std::uint64_t v) { return ratio(static_cast<double>(v), ops_all); };
    mx.num("core.ctor_ms", median(ctor_ms));
    trace_summary tr;
    if (o.trace && !stalled) tr = analyse_trace(tl.t0, tl.t_final, o.span_file);
    if (tr.dropped > 0) {
      std::fprintf(stderr,
                   "WARNING: %llu spans dropped (buffers full): the span metrics cover only "
                   "the start of the window\n",
                   static_cast<unsigned long long>(tr.dropped));
    }
    mx.num("core.submit_us.p50", percentile(tr.submit_ns, 0.50) * 1e-3);
    mx.num("core.submit_us.p99", percentile(tr.submit_ns, 0.99) * 1e-3);
    mx.num("core.drain_ms", static_cast<double>(m.drain_ns.load()) * 1e-6);
    mx.num("core.useful_task_frac", ratio(static_cast<double>(st.task_committed),
                                          static_cast<double>(st.task_started)));
    mx.num("core.abort_per_ktx.war", per_ktx(st.abort_war));
    mx.num("core.abort_per_ktx.waw", per_ktx(st.abort_waw_past_running + st.abort_waw_signalled));
    mx.num("core.abort_per_ktx.fence", per_ktx(st.abort_fence));
    mx.num("core.abort_per_ktx.validation", per_ktx(st.abort_validation));
    mx.num("core.abort_per_ktx.cm", per_ktx(st.abort_cm));
    mx.num("core.abort_per_ktx.tx_inter", per_ktx(st.abort_tx_inter));
    // core.session.
    mx.num("core.session.submit_us.p50", percentile(tr.session_submit_ns, 0.50) * 1e-3);
    mx.num("core.session.submit_us.p99", percentile(tr.session_submit_ns, 0.99) * 1e-3);
    mx.num("core.session.queue_us.p50", percentile(m.queue_ns, 0.50) * 1e-3);
    mx.num("core.session.queue_us.p99", percentile(m.queue_ns, 0.99) * 1e-3);
    mx.num("core.session.exec_us.p50", percentile(m.exec_ns, 0.50) * 1e-3);
    mx.num("core.session.exec_us.p99", percentile(m.exec_ns, 0.99) * 1e-3);
    mx.num("core.session.complete_us.p50", percentile(m.complete_ns, 0.50) * 1e-3);
    mx.num("core.session.txs_per_cell", ratio(static_cast<double>(st.session_batch_txs),
                                              static_cast<double>(st.session_batches)));
    // stm.
    const std::uint64_t reads_all = st.reads_committed + st.reads_speculative;
    mx.num("stm.reads_per_tx", per_tx(reads_all));
    mx.num("stm.writes_per_tx", per_tx(st.writes));
    mx.num("stm.spec_read_frac", ratio(static_cast<double>(st.reads_speculative),
                                       static_cast<double>(reads_all)));
    mx.num("stm.chain_hops_per_spec_read", ratio(static_cast<double>(st.chain_hops),
                                                 static_cast<double>(st.reads_speculative)));
    mx.num("stm.validations_per_tx", per_tx(st.task_validations));
    mx.num("stm.ts_extensions_per_tx", per_tx(st.ts_extensions));
    const double ro = static_cast<double>(st.readpath_hits + st.readpath_fallbacks);
    mx.num("stm.readpath.hit_frac", ratio(static_cast<double>(st.readpath_hits), ro));
    mx.num("stm.readpath.retries_per_khit", ratio(static_cast<double>(st.readpath_retries) * 1e3,
                                                  static_cast<double>(st.readpath_hits)));
    mx.num("stm.readpath.fallback_frac", ratio(static_cast<double>(st.readpath_fallbacks), ro));
    // sched.
    const std::pair<const char*, std::pair<std::uint64_t, std::uint64_t>> waits[] = {
        {"handoff", {st.wait_spins_handoff, st.wait_parks_handoff}},
        {"inbox", {st.wait_spins_inbox, st.wait_parks_inbox}},
        {"rollback", {st.wait_spins_rollback, st.wait_parks_rollback}},
        {"stripe", {st.wait_spins_stripe, st.wait_parks_stripe}},
        {"cm", {st.wait_spins_cm, st.wait_parks_cm}}};
    for (const auto& [cls, sp] : waits) mx.num(std::string("sched.spins_per_tx.") + cls, per_tx(sp.first));
    for (const auto& [cls, sp] : waits) mx.num(std::string("sched.parks_per_tx.") + cls, per_tx(sp.second));
    // vt.
    const double vcycles = static_cast<double>(wl->rt().makespan());
    mx.num("vt.vcycles_per_tx", ratio(vcycles, ops_all));
    mx.num("vt.wall_ns_per_vcycle", ratio(static_cast<double>(tl.t_stopped - tl.t_ctor), vcycles));
    // workloads and per-layer self time (traced run).
    const double worker_ns = static_cast<double>(tl.t_final - tl.t0) * wl->worker_threads();
    mx.num("workloads.body_us_per_tx", ratio(tr.body_ns * 1e-3, window_ops));
    mx.num("workloads.body_frac", ratio(tr.body_ns, worker_ns));
    mx.num("workloads.aborted_body_frac", ratio(tr.aborted_body_ns, tr.body_ns));
    for (unsigned l = 0; l < perfbench::n_layers; ++l) {
      mx.num(std::string("self_us_per_tx.") + perfbench::layer_names[l],
             ratio(tr.self_ns[l] * 1e-3, window_ops));
    }
    mx.num("trace.dropped_spans", static_cast<double>(tr.dropped));

    json meta;
    meta.str("workload", o.workload);
    meta.num("seed", static_cast<double>(o.seed));
    char dig[32];
    std::snprintf(dig, sizeof dig, "%016llx", static_cast<unsigned long long>(wl->input_digest()));
    meta.str("input_digest", dig);
    meta.num("nproc", static_cast<double>(std::thread::hardware_concurrency()));
    meta.num("os_threads_in_window", tl.threads_in_window);
    meta.str("build_type", PERFBENCH_BUILD_TYPE);
    meta.num("trace", o.trace ? 1 : 0);
    meta.num("seconds", o.seconds);
    meta.num("window_s", window_s);
    meta.num("window_ops", window_ops);
    meta.num("setups", static_cast<double>(setup_s.size()));
    const auto in_window = [](const std::vector<std::size_t>& c) {
      return static_cast<double>(c.size() < 2 ? 0 : c.back() - c.front());
    };
    meta.num("read_samples", in_window(tl.read_cuts));
    meta.num("write_samples", in_window(tl.write_cuts));
    meta.num("sub_windows", static_cast<double>(tl.sub_rates.size()));
    meta.num("samples_dropped", static_cast<double>(m.reads.dropped() + m.writes.dropped()));
    meta.num("submit_span_samples", static_cast<double>(tr.submit_ns.size()));
    meta.num("session_submit_span_samples", static_cast<double>(tr.session_submit_ns.size()));
    meta.num("session_phase_samples", static_cast<double>(m.queue_ns.size()));
    meta.num("spans", static_cast<double>(tr.spans));
    meta.num("tx_committed", static_cast<double>(st.tx_committed));
    meta.num("task_restarts_per_tx", per_tx(st.task_restarts));
    std::string rates;
    for (double r : tl.sub_rates) rates.append(rates.empty() ? "" : ",").append(std::to_string(r));
    meta.raw("sub_window_rates", "[" + rates + "]");
    std::string steal;
    for (std::uint64_t v : tl.sub_steal) steal.append(steal.empty() ? "" : ",").append(std::to_string(v));
    meta.raw("sub_window_steal_ticks", "[" + steal + "]");
    json oracles;
    for (const auto& [k, v] : rep.checked) oracles.str(k, v);

    std::string failures;
    for (const auto& f : rep.failures) failures.append(failures.empty() ? "" : ",").append(json::quote(f));
    json res;
    res.raw("correct", rep.failures.empty() ? "true" : "false");
    res.num("attempted", static_cast<double>(attempted));
    res.num("failed", static_cast<double>(failed));
    res.num("stalls", stalled ? 1 : 0);
    res.raw("oracle_failures", "[" + failures + "]");
    res.raw("oracles", oracles.done());
    res.raw("metrics", mx.done());
    res.raw("meta", meta.done());
    std::printf("RESULT %s\n", res.done().c_str());
    std::fflush(stdout);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const options o = parse(argc, argv);
  try {
    runner r(o);
    return r.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tlstm_bench: %s\n", e.what());
    return 1;
  }
}
