// The open-loop trace/journal toolchain (src/trace/journal.hpp,
// DESIGN.md §9): golden-seed trace determinism, file-format round trips,
// routing agreement with the live session layer, the offline checker on
// both synthesized and real replay histories, adversarial corruption
// detection (every checker diagnostic class must actually fire), and the
// standalone check_journal tool's exit codes and diagnostics on every kind
// of dump the file format carries.
#include "trace/journal.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "core/session.hpp"

namespace {

using namespace tlstm;
using trace::check_journal;
using trace::check_result;
using trace::generate_trace;
using trace::journal_dump;
using trace::trace_request;
using trace::trace_spec;

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The journal dump a correct replay of `reqs` over `pipelines` pipelines
/// must produce, up to the cross-pipeline interleaving of commit_ts (here:
/// trace order, which is one valid interleaving). Serial assignment is
/// deterministic — per pipeline, requests install in submission order and
/// each consumes `tasks` serials. Read-only requests model the fast path:
/// placement serial 0, no serials consumed, no journal record. Adversarial
/// checker tests mutate this.
journal_dump synthesize_journal(const std::vector<trace_request>& reqs,
                                unsigned pipelines) {
  journal_dump d;
  d.pipelines = pipelines;
  d.journals.assign(pipelines, {});
  std::vector<std::uint64_t> next_serial(pipelines, 1);
  stm::word ts = 0;
  for (const trace_request& r : reqs) {
    const unsigned p =
        static_cast<unsigned>(core::session_route_hash(r.key) % pipelines);
    if (r.read_only) {
      d.requests.push_back(trace::request_placement{r.id, r.key, p, 0, r.tasks});
      continue;
    }
    const std::uint64_t start = next_serial[p];
    const std::uint64_t commit = start + r.tasks - 1;
    next_serial[p] = commit + 1;
    d.journals[p].push_back(core::commit_record{start, commit, ++ts});
    d.requests.push_back(trace::request_placement{r.id, r.key, p, commit, r.tasks});
  }
  return d;
}

trace_spec small_spec(std::uint64_t seed = 42) {
  trace_spec s;
  s.seed = seed;
  s.requests = 200;
  s.keys = 16;
  s.rate_per_s = 100000;
  s.max_tasks = 2;
  s.max_ops = 3;
  return s;
}

// --- trace generation and serialization ------------------------------------

TEST(TraceGen, SameSeedSameTraceDifferentSeedDiffers) {
  const trace_spec spec = small_spec();
  const auto a = generate_trace(spec);
  const auto b = generate_trace(spec);
  EXPECT_EQ(a, b);

  trace_spec other = spec;
  other.seed = spec.seed + 1;
  EXPECT_NE(a, generate_trace(other));
}

TEST(TraceGen, ShapeRespectsSpec) {
  const trace_spec spec = small_spec();
  const auto reqs = generate_trace(spec);
  ASSERT_EQ(reqs.size(), spec.requests);
  std::uint64_t prev_arrival = 0;
  for (std::uint64_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(reqs[i].id, i);
    EXPECT_LT(reqs[i].key, spec.keys);
    EXPECT_GE(reqs[i].arrival_ns, prev_arrival);  // arrivals never go back
    EXPECT_GE(reqs[i].tasks, 1u);
    EXPECT_LE(reqs[i].tasks, spec.max_tasks);
    EXPECT_GE(reqs[i].ops, 1u);
    EXPECT_LE(reqs[i].ops, spec.max_ops);
    prev_arrival = reqs[i].arrival_ns;
  }
}

TEST(TraceGen, GoldenSeedFilesAreByteIdentical) {
  // Two independent generate+write passes with one seed produce the same
  // bytes; a different seed produces different bytes (the determinism the
  // whole replay/checker pipeline rests on).
  const trace_spec spec = small_spec(7);
  const std::string p1 = tmp_path("golden1.trace");
  const std::string p2 = tmp_path("golden2.trace");
  const std::string p3 = tmp_path("golden3.trace");
  ASSERT_TRUE(trace::write_trace(p1, spec, generate_trace(spec)));
  ASSERT_TRUE(trace::write_trace(p2, spec, generate_trace(spec)));
  trace_spec other = spec;
  other.seed = 8;
  ASSERT_TRUE(trace::write_trace(p3, other, generate_trace(other)));
  const std::string b1 = slurp(p1);
  ASSERT_FALSE(b1.empty());
  EXPECT_EQ(b1, slurp(p2));
  EXPECT_NE(b1, slurp(p3));
}

TEST(TraceGen, TraceRoundTripsThroughFile) {
  const trace_spec spec = small_spec(3);
  const auto reqs = generate_trace(spec);
  const std::string path = tmp_path("roundtrip.trace");
  ASSERT_TRUE(trace::write_trace(path, spec, reqs));
  trace_spec rspec;
  std::vector<trace_request> rreqs;
  std::string err;
  ASSERT_TRUE(trace::read_trace(path, &rspec, &rreqs, &err)) << err;
  EXPECT_EQ(rspec, spec);
  EXPECT_EQ(rreqs, reqs);
}

TEST(TraceGen, JournalRoundTripsThroughFile) {
  const auto reqs = generate_trace(small_spec(5));
  const journal_dump d = synthesize_journal(reqs, 3);
  const std::string path = tmp_path("roundtrip.journal");
  ASSERT_TRUE(trace::write_journal(path, d));
  journal_dump r;
  std::string err;
  ASSERT_TRUE(trace::read_journal(path, &r, &err)) << err;
  ASSERT_EQ(r.pipelines, d.pipelines);
  ASSERT_EQ(r.journals.size(), d.journals.size());
  for (unsigned p = 0; p < d.pipelines; ++p) {
    ASSERT_EQ(r.journals[p].size(), d.journals[p].size());
    for (std::size_t i = 0; i < d.journals[p].size(); ++i) {
      EXPECT_EQ(r.journals[p][i].tx_start_serial, d.journals[p][i].tx_start_serial);
      EXPECT_EQ(r.journals[p][i].tx_commit_serial, d.journals[p][i].tx_commit_serial);
      EXPECT_EQ(r.journals[p][i].commit_ts, d.journals[p][i].commit_ts);
    }
  }
  ASSERT_EQ(r.requests.size(), d.requests.size());
  for (std::size_t i = 0; i < d.requests.size(); ++i) {
    EXPECT_EQ(r.requests[i].id, d.requests[i].id);
    EXPECT_EQ(r.requests[i].key, d.requests[i].key);
    EXPECT_EQ(r.requests[i].pipe, d.requests[i].pipe);
    EXPECT_EQ(r.requests[i].serial, d.requests[i].serial);
    EXPECT_EQ(r.requests[i].tasks, d.requests[i].tasks);
  }
}

// --- routing agreement with the live session layer -------------------------

TEST(TraceChecker, RouteHashMatchesLiveSession) {
  core::config cfg;
  cfg.num_threads = 2;
  cfg.spec_depth = 2;
  cfg.log2_table = 10;
  core::runtime rt(cfg);
  auto s = rt.open_session();
  ASSERT_EQ(s.pipelines(), 2u);
  for (std::uint64_t key = 0; key < 512; ++key) {
    EXPECT_EQ(s.pipeline_for_key(key),
              static_cast<unsigned>(core::session_route_hash(key) % 2))
        << "key " << key;
  }
  rt.stop();
}

// --- the checker on valid histories ----------------------------------------

TEST(TraceChecker, SynthesizedJournalPasses) {
  const auto reqs = generate_trace(small_spec());
  for (unsigned pipelines : {1u, 2u, 4u}) {
    const journal_dump d = synthesize_journal(reqs, pipelines);
    const check_result r = check_journal(reqs, d);
    EXPECT_TRUE(r.ok) << "pipelines=" << pipelines << ": " << r.diagnostic;
  }
}

TEST(TraceChecker, VerdictIsDeterministicAcrossFileRoundTrip) {
  // Same trace + same dump -> same verdict, whether checked in memory or
  // after a write/read cycle (what the check_journal tool consumes).
  const auto reqs = generate_trace(small_spec(9));
  journal_dump d = synthesize_journal(reqs, 2);
  // Corrupt one record so the verdict is a failure with a specific message.
  d.journals[0].erase(d.journals[0].begin() + 1);
  const check_result direct = check_journal(reqs, d);
  ASSERT_FALSE(direct.ok);

  const std::string path = tmp_path("verdict.journal");
  ASSERT_TRUE(trace::write_journal(path, d));
  journal_dump r;
  std::string err;
  ASSERT_TRUE(trace::read_journal(path, &r, &err)) << err;
  const check_result reread = check_journal(reqs, r);
  EXPECT_EQ(reread.ok, direct.ok);
  EXPECT_EQ(reread.diagnostic, direct.diagnostic);
}

TEST(TraceChecker, LiveReplayJournalPasses) {
  // Replay a generated trace against a real runtime (arrival times
  // collapsed — the checker validates order/placement, not timing) and
  // validate the actual commit journals.
  trace_spec spec = small_spec(21);
  spec.requests = 200;
  const auto reqs = generate_trace(spec);

  core::config cfg;
  cfg.num_threads = 2;
  cfg.spec_depth = 4;
  cfg.log2_table = 12;
  cfg.record_commits = true;
  core::runtime rt(cfg);
  auto s = rt.open_session();

  std::vector<stm::word> mem(spec.keys * 8, 0);
  stm::word* mp = mem.data();
  std::vector<core::ticket> tickets(reqs.size());
  for (const trace_request& r : reqs) {
    std::vector<core::task_fn> tasks;
    const unsigned base = static_cast<unsigned>(r.key) * 8;
    for (unsigned t = 0; t < r.tasks; ++t) {
      const unsigned ops = r.ops;
      tasks.push_back([mp, base, t, ops](core::task_ctx& c) {
        for (unsigned o = 0; o < ops; ++o) {
          stm::word* w = &mp[base + (t * 3 + o) % 8];
          c.write(w, c.read(w) + 1);
        }
      });
    }
    tickets[r.id] = s.submit_keyed(r.key, std::move(tasks));
  }
  for (auto& t : tickets) t.wait();
  rt.stop();

  journal_dump d;
  d.pipelines = cfg.num_threads;
  d.journals.resize(d.pipelines);
  for (unsigned p = 0; p < d.pipelines; ++p) {
    d.journals[p] = rt.thread(p).journal_snapshot().records;
  }
  for (const trace_request& r : reqs) {
    d.requests.push_back(trace::request_placement{
        r.id, r.key,
        static_cast<unsigned>(core::session_route_hash(r.key) % d.pipelines),
        tickets[r.id].commit_serial(), r.tasks});
  }
  const check_result res = check_journal(reqs, d);
  EXPECT_TRUE(res.ok) << res.diagnostic;
}

// --- adversarial corruptions: every diagnostic class must fire -------------

struct adversarial_fixture {
  std::vector<trace_request> reqs;
  journal_dump dump;

  explicit adversarial_fixture(std::uint64_t seed = 42, unsigned max_tasks = 2) {
    trace_spec spec = small_spec(seed);
    spec.max_tasks = max_tasks;
    reqs = generate_trace(spec);
    dump = synthesize_journal(reqs, 2);
    // Sanity: the unmutated dump passes.
    const check_result r = check_journal(reqs, dump);
    EXPECT_TRUE(r.ok) << r.diagnostic;
  }
};

TEST(TraceCheckerAdversarial, ReorderedKeyedPairIsAFifoViolation) {
  // Single-task requests so two same-key placements can swap serials
  // without tripping the shape checks first.
  adversarial_fixture f(11, /*max_tasks=*/1);
  // Find two requests with the same key and swap their serial placements.
  std::size_t a = 0, b = 0;
  bool found = false;
  for (std::size_t i = 0; i < f.reqs.size() && !found; ++i) {
    for (std::size_t j = i + 1; j < f.reqs.size(); ++j) {
      if (f.reqs[i].key == f.reqs[j].key) {
        a = i;
        b = j;
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found) << "trace has no repeated key";
  std::swap(f.dump.requests[a].serial, f.dump.requests[b].serial);
  const check_result r = check_journal(f.reqs, f.dump);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.diagnostic.find("fifo-violation"), std::string::npos) << r.diagnostic;
}

TEST(TraceCheckerAdversarial, MisroutedPlacementIsDetected) {
  adversarial_fixture f;
  f.dump.requests[5].pipe ^= 1u;
  const check_result r = check_journal(f.reqs, f.dump);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.diagnostic.find("misrouted-request"), std::string::npos) << r.diagnostic;
}

TEST(TraceCheckerAdversarial, DuplicatedPlacementIsDetected) {
  adversarial_fixture f;
  f.dump.requests[3] = f.dump.requests[4];
  const check_result r = check_journal(f.reqs, f.dump);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.diagnostic.find("duplicate-request"), std::string::npos) << r.diagnostic;
}

TEST(TraceCheckerAdversarial, ZeroAndDuplicateTimestampsAreDetected) {
  adversarial_fixture f;
  journal_dump d = f.dump;
  d.journals[0][1].commit_ts = 0;
  check_result r = check_journal(f.reqs, d);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.diagnostic.find("commit-ts-zero"), std::string::npos) << r.diagnostic;

  d = f.dump;
  d.journals[0][1].commit_ts = d.journals[1][0].commit_ts;
  r = check_journal(f.reqs, d);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.diagnostic.find("commit-ts-duplicate"), std::string::npos) << r.diagnostic;
}

// --- topology epochs (DESIGN.md §11) ---------------------------------------

/// Synthesizes a valid *epochal* dump: the run starts at width 1 (epoch 0)
/// and grows to `pipelines` (epoch 1) after `switch_at` trace entries.
/// Placements before the switch all land on pipeline 0; after it they route
/// by hash % pipelines. One global timestamp clock in trace order keeps the
/// cross-pipe FIFO invariant trivially satisfied.
journal_dump synthesize_epochal_journal(const std::vector<trace_request>& reqs,
                                        unsigned pipelines,
                                        std::size_t switch_at) {
  journal_dump d;
  d.pipelines = pipelines;
  d.journals.resize(pipelines);
  d.topology = {{0, 1}, {1, pipelines}};
  d.requests.resize(reqs.size());
  std::vector<std::uint64_t> next_serial(pipelines, 1);
  stm::word clock = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const trace_request& r = reqs[i];
    const std::uint64_t epoch = i < switch_at ? 0 : 1;
    const unsigned width = i < switch_at ? 1 : pipelines;
    const auto pipe =
        static_cast<unsigned>(core::session_route_hash(r.key) % width);
    const std::uint64_t start = next_serial[pipe];
    const std::uint64_t commit = start + r.tasks - 1;
    next_serial[pipe] = commit + 1;
    d.journals[pipe].push_back(core::commit_record{start, commit, ++clock});
    d.requests[r.id] =
        trace::request_placement{r.id, r.key, pipe, commit, r.tasks, epoch};
  }
  return d;
}

TEST(TraceCheckerTopology, EpochalDumpPassesAndRoundTripsWithESection) {
  const auto reqs = generate_trace(small_spec(53));
  const journal_dump d = synthesize_epochal_journal(reqs, 3, reqs.size() / 2);
  const check_result r = check_journal(reqs, d);
  EXPECT_TRUE(r.ok) << r.diagnostic;

  // Epoch-bearing dumps round-trip through the file format with their E
  // section and 6-field placements intact, and still pass afterwards.
  const std::string path = tmp_path("epochal.journal");
  ASSERT_TRUE(trace::write_journal(path, d));
  journal_dump back;
  std::string err;
  ASSERT_TRUE(trace::read_journal(path, &back, &err)) << err;
  ASSERT_EQ(back.topology, d.topology);
  for (std::size_t i = 0; i < d.requests.size(); ++i) {
    EXPECT_EQ(back.requests[i].epoch, d.requests[i].epoch);
  }
  const check_result r2 = check_journal(reqs, back);
  EXPECT_TRUE(r2.ok) << r2.diagnostic;
}

TEST(TraceCheckerTopology, StaticDumpsKeepTheLegacyFormat) {
  // A dump whose topology never moved must serialize byte-identically to a
  // pre-topology dump: no E lines, 5-field T lines. Old tooling keeps
  // parsing new output unless a resize actually happened.
  const auto reqs = generate_trace(small_spec(54));
  journal_dump with_history = synthesize_journal(reqs, 2);
  with_history.topology = {{0, 2}};
  journal_dump without = synthesize_journal(reqs, 2);
  const std::string p1 = tmp_path("static_hist.journal");
  const std::string p2 = tmp_path("static_nohist.journal");
  ASSERT_TRUE(trace::write_journal(p1, with_history));
  ASSERT_TRUE(trace::write_journal(p2, without));
  EXPECT_EQ(slurp(p1), slurp(p2));
}

TEST(TraceCheckerTopology, MisrouteIsJudgedAgainstTheEpochWidth) {
  const auto reqs = generate_trace(small_spec(55));
  const std::size_t half = reqs.size() / 2;
  journal_dump d = synthesize_epochal_journal(reqs, 3, half);

  // Find an epoch-1 placement that does NOT sit on pipeline 0 and relabel
  // it epoch 0 (width 1). The pipe is correct for ITS epoch, so only a
  // checker that derives the divisor from the placement's epoch objects.
  bool mutated = false;
  for (auto& p : d.requests) {
    if (p.epoch == 1 && p.pipe != 0) {
      p.epoch = 0;
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated) << "trace routed everything to pipeline 0";
  const check_result r = check_journal(reqs, d);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.diagnostic.find("misrouted-request"), std::string::npos)
      << r.diagnostic;
}

TEST(TraceCheckerTopology, CrossPipeFifoUsesTheCommitClockAlone) {
  // Hand-built two-request trace: same key, the key moves from pipeline 0
  // (epoch 0, width 1) to pipeline p (epoch 1, width 3). The second commit
  // has a SMALLER serial than the first (fresh pipe) — legal across pipes,
  // where only the global commit clock orders the pair.
  std::vector<trace_request> reqs;
  reqs.push_back(trace_request{0, 9, 0, 1, 1, false});
  reqs.push_back(trace_request{1, 9, 100, 1, 1, false});
  journal_dump d = synthesize_epochal_journal(reqs, 3, 1);
  ASSERT_NE(d.requests[1].pipe, 0u)
      << "key 9 must move off pipeline 0 for this scenario";
  ASSERT_LE(d.requests[1].serial, d.requests[0].serial);
  const check_result ok = check_journal(reqs, d);
  EXPECT_TRUE(ok.ok) << ok.diagnostic;

  // But the commit clock is not negotiable: make the second commit's ts
  // precede the first's and the pair is a FIFO violation again.
  journal_dump bad = d;
  const auto p0 = d.requests[0].pipe;
  const auto p1 = d.requests[1].pipe;
  std::swap(bad.journals[p0].back().commit_ts, bad.journals[p1].back().commit_ts);
  const check_result r = check_journal(reqs, bad);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.diagnostic.find("fifo-violation"), std::string::npos)
      << r.diagnostic;
}

// --- read-only requests (DESIGN.md §10) ------------------------------------

TEST(TraceGenReads, ReadSpecRoundTripsAndZeroPermilleKeepsFormat) {
  trace_spec spec = small_spec(13);
  spec.read_permille = 300;
  const auto reqs = generate_trace(spec);
  std::uint64_t n_reads = 0;
  for (const trace_request& r : reqs) n_reads += r.read_only ? 1 : 0;
  EXPECT_GT(n_reads, 0u);
  EXPECT_LT(n_reads, reqs.size());

  const std::string path = tmp_path("reads.trace");
  ASSERT_TRUE(trace::write_trace(path, spec, reqs));
  const std::string bytes = slurp(path);
  EXPECT_NE(bytes.find("reads "), std::string::npos);
  EXPECT_NE(bytes.find("Q "), std::string::npos);
  trace_spec rspec;
  std::vector<trace_request> rreqs;
  std::string err;
  ASSERT_TRUE(trace::read_trace(path, &rspec, &rreqs, &err)) << err;
  EXPECT_EQ(rspec, spec);
  EXPECT_EQ(rreqs, reqs);  // read_only flags included (operator== is defaulted)

  // A zero-permille spec draws no reads and emits neither the 7th spec
  // field nor a reads section — historical traces stay byte-identical.
  // (Read-drawing specs consume extra rng values per request, so their
  // streams intentionally diverge from the zero case.)
  trace_spec plain = small_spec(13);
  const auto preqs = generate_trace(plain);
  ASSERT_EQ(preqs.size(), reqs.size());
  for (const trace_request& r : preqs) EXPECT_FALSE(r.read_only);
  const std::string plain_path = tmp_path("plain.trace");
  ASSERT_TRUE(trace::write_trace(plain_path, plain, preqs));
  const std::string plain_bytes = slurp(plain_path);
  EXPECT_EQ(plain_bytes.find("reads "), std::string::npos);
  EXPECT_EQ(plain_bytes.find("Q "), std::string::npos);
}

TEST(TraceCheckerReads, SynthesizedJournalWithReadsPasses) {
  trace_spec spec = small_spec(17);
  spec.read_permille = 400;
  const auto reqs = generate_trace(spec);
  for (unsigned pipelines : {1u, 2u, 4u}) {
    const journal_dump d = synthesize_journal(reqs, pipelines);
    const check_result r = check_journal(reqs, d);
    EXPECT_TRUE(r.ok) << "pipelines=" << pipelines << ": " << r.diagnostic;
  }
}

TEST(TraceCheckerReads, FallbackReadMatchesARecordAndMayCarryTsZero) {
  // Hand-built single-pipeline history: a write, then a read that fell back
  // to the full path. The fallback's record legitimately carries ts 0 (a
  // write-free transaction), and two such records may share it.
  std::vector<trace_request> reqs;
  reqs.push_back(trace_request{0, 1, 0, 1, 1, /*read_only=*/false});
  reqs.push_back(trace_request{1, 2, 10, 1, 1, /*read_only=*/true});
  reqs.push_back(trace_request{2, 3, 20, 1, 1, /*read_only=*/true});
  journal_dump d;
  d.pipelines = 1;
  d.journals.assign(1, {});
  d.journals[0].push_back(core::commit_record{1, 1, 77});
  d.journals[0].push_back(core::commit_record{2, 2, 0});
  d.journals[0].push_back(core::commit_record{3, 3, 0});
  d.requests.push_back(trace::request_placement{0, 1, 0, 1, 1});
  d.requests.push_back(trace::request_placement{1, 2, 0, 2, 1});
  d.requests.push_back(trace::request_placement{2, 3, 0, 3, 1});
  const check_result ok = check_journal(reqs, d);
  EXPECT_TRUE(ok.ok) << ok.diagnostic;

  // The same ts-0 record claimed by a WRITE request is still a violation.
  reqs[1].read_only = false;
  const check_result bad = check_journal(reqs, d);
  ASSERT_FALSE(bad.ok);
  EXPECT_NE(bad.diagnostic.find("commit-ts-zero"), std::string::npos)
      << bad.diagnostic;
}

TEST(TraceCheckerReads, FastPathReadClaimsNoRecordAndSkipsFifo) {
  trace_spec spec = small_spec(19);
  spec.read_permille = 500;
  const auto reqs = generate_trace(spec);
  journal_dump d = synthesize_journal(reqs, 2);

  // Reads sit between same-key writes in trace order yet never enter the
  // FIFO chain: the synthesized dump (reads at serial 0, no record) passes
  // — already covered — and giving a read a bogus real serial is caught by
  // the record matching, not silently excused.
  std::size_t read_idx = reqs.size();
  for (std::size_t i = 0; i < d.requests.size(); ++i) {
    if (d.requests[i].serial == 0) {
      read_idx = i;
      break;
    }
  }
  ASSERT_LT(read_idx, d.requests.size()) << "trace drew no reads";
  d.requests[read_idx].serial = 100000;  // no record has this serial
  const check_result r = check_journal(reqs, d);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.diagnostic.find("missing-commit"), std::string::npos) << r.diagnostic;
}

TEST(TraceCheckerReads, LiveReplayWithReadsPasses) {
  // Mixed replay against a real runtime: writes via submit_keyed, declared
  // reads via submit_read_keyed. Fast-path reads surface serial 0 tickets,
  // conflicted ones fall back to real serials — the checker accepts both.
  trace_spec spec = small_spec(23);
  spec.requests = 300;
  spec.read_permille = 400;
  const auto reqs = generate_trace(spec);

  core::config cfg;
  cfg.num_threads = 2;
  cfg.spec_depth = 4;
  cfg.log2_table = 12;
  cfg.record_commits = true;
  core::runtime rt(cfg);
  auto s = rt.open_session();

  std::vector<stm::word> mem(spec.keys * 8, 0);
  stm::word* mp = mem.data();
  std::vector<core::ticket> tickets(reqs.size());
  std::uint64_t n_reads = 0;
  for (const trace_request& r : reqs) {
    std::vector<core::task_fn> tasks;
    const unsigned base = static_cast<unsigned>(r.key) * 8;
    for (unsigned t = 0; t < r.tasks; ++t) {
      const unsigned ops = r.ops;
      if (r.read_only) {
        tasks.push_back([mp, base, t, ops](core::task_ctx& c) {
          stm::word sink = 0;
          for (unsigned o = 0; o < ops; ++o) {
            sink += c.read(&mp[base + (t * 3 + o) % 8]);
          }
          (void)sink;
        });
      } else {
        tasks.push_back([mp, base, t, ops](core::task_ctx& c) {
          for (unsigned o = 0; o < ops; ++o) {
            stm::word* w = &mp[base + (t * 3 + o) % 8];
            c.write(w, c.read(w) + 1);
          }
        });
      }
    }
    tickets[r.id] = r.read_only ? s.submit_read_keyed(r.key, std::move(tasks))
                                : s.submit_keyed(r.key, std::move(tasks));
    n_reads += r.read_only ? 1 : 0;
  }
  ASSERT_GT(n_reads, 0u);
  for (auto& t : tickets) t.wait();
  rt.stop();

  journal_dump d;
  d.pipelines = cfg.num_threads;
  d.journals.resize(d.pipelines);
  for (unsigned p = 0; p < d.pipelines; ++p) {
    d.journals[p] = rt.thread(p).journal_snapshot().records;
  }
  for (const trace_request& r : reqs) {
    d.requests.push_back(trace::request_placement{
        r.id, r.key,
        static_cast<unsigned>(core::session_route_hash(r.key) % d.pipelines),
        tickets[r.id].commit_serial(), r.tasks});
  }
  const check_result res = check_journal(reqs, d);
  EXPECT_TRUE(res.ok) << res.diagnostic;
  // At least one read was served by the fast path under this uncontended
  // replay; the stat and the serial-0 placements agree.
  std::uint64_t zero_serials = 0;
  for (const trace_request& r : reqs) {
    if (r.read_only && tickets[r.id].commit_serial() == 0) zero_serials++;
  }
  EXPECT_EQ(rt.aggregated_stats().readpath_hits, zero_serials);
  EXPECT_GT(zero_serials, 0u);
}

// --- truncated journals (DESIGN.md §12) -------------------------------------

/// Truncates pipeline `p` of a synthesized dump: drops the first `drop`
/// journal records and declares the retain frontier of the first surviving
/// one, the way thread_state::prune_journal does. The trace is untouched —
/// placements below the frontier become pruned claims, which fully tile
/// [1, frontier-1] because the synthesized journal was dense from serial 1.
journal_dump truncate_pipe(journal_dump d, unsigned p, std::size_t drop) {
  d.first_serial.assign(d.pipelines, 1);
  d.journals[p].erase(d.journals[p].begin(),
                      d.journals[p].begin() + static_cast<std::ptrdiff_t>(drop));
  d.first_serial[p] = d.journals[p].front().tx_start_serial;
  return d;
}

TEST(TraceCheckerTruncated, TruncatedDumpPassesAndRoundTripsWithTHeader) {
  const auto reqs = generate_trace(small_spec(71));
  const journal_dump full = synthesize_journal(reqs, 2);
  ASSERT_GT(full.journals[0].size(), 8u);
  const journal_dump d = truncate_pipe(full, 0, 5);
  ASSERT_GT(d.first_serial[0], 1u);
  const check_result r = check_journal(reqs, d);
  EXPECT_TRUE(r.ok) << r.diagnostic;

  // The dump round-trips through the file format with its two-field
  // truncation header intact and still passes afterwards.
  const std::string path = tmp_path("truncated.journal");
  ASSERT_TRUE(trace::write_journal(path, d));
  const std::string bytes = slurp(path);
  EXPECT_NE(bytes.find("T 0 " + std::to_string(d.first_serial[0]) + "\n"),
            std::string::npos);
  journal_dump back;
  std::string err;
  ASSERT_TRUE(trace::read_journal(path, &back, &err)) << err;
  ASSERT_EQ(back.first_serial, d.first_serial);
  const check_result r2 = check_journal(reqs, back);
  EXPECT_TRUE(r2.ok) << r2.diagnostic;
}

TEST(TraceCheckerTruncated, UntruncatedDumpsKeepTheLegacyFormat) {
  // journal_retain = 0 dumps must stay byte-identical to the historical v1
  // format whether or not the frontier vector is materialized at all-1s.
  const auto reqs = generate_trace(small_spec(72));
  journal_dump with_frontiers = synthesize_journal(reqs, 2);
  with_frontiers.first_serial.assign(2, 1);
  const journal_dump without = synthesize_journal(reqs, 2);
  const std::string p1 = tmp_path("trunc_frontier1.journal");
  const std::string p2 = tmp_path("trunc_nofrontier.journal");
  ASSERT_TRUE(trace::write_journal(p1, with_frontiers));
  ASSERT_TRUE(trace::write_journal(p2, without));
  EXPECT_EQ(slurp(p1), slurp(p2));
}

TEST(TraceCheckerTruncated, WindowedTraceMayDropPrunedRequests) {
  // Soak-style window: the harness forgets requests whose serials fell
  // below the frontier, oldest first, and renumbers what remains 0..N-1.
  // The kept pruned claims then tile a SUFFIX [L, frontier-1] of the pruned
  // range — legal, as is dropping every pruned request outright.
  const auto reqs = generate_trace(small_spec(73));
  const journal_dump full = synthesize_journal(reqs, 2);
  ASSERT_GT(full.journals[0].size(), 8u);
  const journal_dump d = truncate_pipe(full, 0, 6);
  const std::uint64_t fr = d.first_serial[0];

  // Pruned requests on pipeline 0, in serial order (= pruned-range order).
  std::vector<std::uint64_t> pruned_ids;
  for (const trace::request_placement& p : d.requests) {
    if (p.pipe == 0 && p.serial < fr) pruned_ids.push_back(p.id);
  }
  std::sort(pruned_ids.begin(), pruned_ids.end(),
            [&](std::uint64_t a, std::uint64_t b) {
              return d.requests[a].serial < d.requests[b].serial;
            });
  ASSERT_GT(pruned_ids.size(), 2u);

  // Drop a strict prefix (2 oldest), then everything, from trace AND dump.
  for (std::size_t n_drop : {std::size_t{2}, pruned_ids.size()}) {
    std::set<std::uint64_t> dropped(pruned_ids.begin(),
                                    pruned_ids.begin() + n_drop);
    std::vector<trace_request> wreqs;
    journal_dump wd;
    wd.pipelines = d.pipelines;
    wd.journals = d.journals;
    wd.first_serial = d.first_serial;
    for (const trace_request& t : reqs) {
      if (dropped.count(t.id) != 0) continue;
      trace_request wt = t;
      trace::request_placement wp = d.requests[t.id];
      wt.id = wp.id = wreqs.size();  // renumber 0..N-1
      wreqs.push_back(wt);
      wd.requests.push_back(wp);
    }
    const check_result r = check_journal(wreqs, wd);
    EXPECT_TRUE(r.ok) << "n_drop=" << n_drop << ": " << r.diagnostic;
  }
}

TEST(TraceCheckerAdversarial, ZeroFrontierIsABadTruncation) {
  adversarial_fixture f;
  // A frontier of 0 names a serial that does not exist — corrupt header,
  // not a legal "nothing pruned" (that is the absence of the T line).
  f.dump.first_serial.assign(2, 1);
  f.dump.first_serial[1] = 0;
  check_result r = check_journal(f.reqs, f.dump);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.diagnostic.find("bad-truncation"), std::string::npos) << r.diagnostic;

  // Wrong frontier count (only buildable in memory — the file reader always
  // materializes one slot per pipeline) is the same class.
  f.dump.first_serial = {2};
  r = check_journal(f.reqs, f.dump);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.diagnostic.find("bad-truncation"), std::string::npos) << r.diagnostic;
}

// --- the standalone check_journal tool --------------------------------------

struct tool_run {
  int rc = -1;
  std::string out, err;
};

/// Runs the check_journal tool with `args` as a child process.
tool_run run_tool(const std::string& args) {
  const std::string out_path = tmp_path("tool.out");
  const std::string err_path = tmp_path("tool.err");
  const std::string cmd =
      std::string(CHECK_JOURNAL_BIN) + " " + args + " > " + out_path + " 2> " + err_path;
  const int rc = std::system(cmd.c_str());
  return {rc == -1 || !WIFEXITED(rc) ? -1 : WEXITSTATUS(rc), slurp(out_path),
          slurp(err_path)};
}

/// A kind of dump the file format carries: the trace it replays and a valid
/// dump of that trace.
struct dump_kind {
  const char* name;
  std::uint64_t seed;
  unsigned read_permille;
  journal_dump (*valid)(const std::vector<trace_request>&);
};

enum kind_id { static_dump, epochal_dump, reads_dump, truncated_dump };

const dump_kind kinds[] = {
    {"static", 31, 0,
     [](const std::vector<trace_request>& r) { return synthesize_journal(r, 2); }},
    {"epochal", 61, 0,
     [](const std::vector<trace_request>& r) {
       return synthesize_epochal_journal(r, 3, r.size() / 2);
     }},
    {"reads", 37, 350,
     [](const std::vector<trace_request>& r) { return synthesize_journal(r, 2); }},
    {"truncated", 79, 0,
     [](const std::vector<trace_request>& r) {
       return truncate_pipe(synthesize_journal(r, 2), 0, 5);
     }},
};

/// One tool run: a kind's valid dump (expect == nullptr) or that dump with
/// one corruption, which the tool must report under the `expect` prefix.
struct tool_case {
  kind_id kind;
  const char* expect;
  void (*mutate)(journal_dump&);
};

/// The serial-gap, duplicate-serial, unknown-epoch and pruned-claim classes
/// are asserted only here; the in-process tests above cover the others.
const tool_case tool_cases[] = {
    {static_dump, nullptr, nullptr},
    // A dropped middle record leaves a gap in the per-pipeline density check.
    {static_dump, "serial-gap",
     [](journal_dump& d) { d.journals[0].erase(d.journals[0].begin() + 1); }},
    {static_dump, "duplicate-serial",
     [](journal_dump& d) { d.journals[0].insert(d.journals[0].begin() + 2, d.journals[0][2]); }},
    // A dropped LAST record keeps the serials dense (the range just ends
    // earlier), so the request-to-record matching has to catch it.
    {static_dump, "missing-commit", [](journal_dump& d) { d.journals[1].pop_back(); }},
    {static_dump, "commit-ts-zero", [](journal_dump& d) { d.journals[0][0].commit_ts = 0; }},

    {epochal_dump, nullptr, nullptr},
    // Epoch 99 is never in the E section.
    {epochal_dump, "unknown-epoch", [](journal_dump& d) { d.requests[3].epoch = 99; }},
    {epochal_dump, "misrouted-request",
     [](journal_dump& d) {
       for (trace::request_placement& p : d.requests) {
         if (p.epoch == 1 && p.pipe != 0) {
           p.epoch = 0;  // pipe now judged against epoch-0 width 1
           return;
         }
       }
     }},

    {reads_dump, nullptr, nullptr},
    {reads_dump, "missing-commit",
     [](journal_dump& d) {
       for (trace::request_placement& p : d.requests) {
         if (p.serial == 0) {
           p.serial = 100000;  // a fast-path read given a bogus real serial
           return;
         }
       }
     }},

    // write_journal emits any frontier != 1, so a frontier of 0 round-trips
    // through the file format.
    {truncated_dump, nullptr, nullptr},
    {truncated_dump, "bad-truncation", [](journal_dump& d) { d.first_serial[1] = 0; }},
    {truncated_dump, "pruned-claim",
     [](journal_dump& d) {
       const std::uint64_t fr = d.first_serial[0];
       for (trace::request_placement& p : d.requests) {
         if (p.pipe == 0 && p.serial >= fr) {
           // The forged claim overlaps the already fully tiled pruned range.
           p.serial = fr - 1;
           return;
         }
       }
     }},
};

TEST(CheckJournalTool, ReportsEveryDumpKindAndCorruptionFromTheFiles) {
  for (const tool_case& c : tool_cases) {
    const dump_kind& k = kinds[c.kind];
    const std::string label =
        std::string(k.name) + "_" + (c.expect != nullptr ? c.expect : "valid");
    SCOPED_TRACE(label);
    trace_spec spec = small_spec(k.seed);
    spec.read_permille = k.read_permille;
    const auto reqs = generate_trace(spec);
    journal_dump d = k.valid(reqs);
    if (c.mutate != nullptr) c.mutate(d);
    const std::string trace_path = tmp_path("tool_" + label + ".trace");
    const std::string journal_path = tmp_path("tool_" + label + ".journal");
    ASSERT_TRUE(trace::write_trace(trace_path, spec, reqs));
    ASSERT_TRUE(trace::write_journal(journal_path, d));

    const tool_run r = run_tool(trace_path + " " + journal_path);
    if (c.expect == nullptr) {
      std::size_t records = 0;
      for (const auto& j : d.journals) records += j.size();
      EXPECT_EQ(r.rc, 0) << r.err;
      EXPECT_EQ(r.out, "OK " + std::to_string(reqs.size()) + " requests, " +
                           std::to_string(records) + " commit records across " +
                           std::to_string(d.pipelines) + " pipelines\n");
      EXPECT_EQ(r.err, "");
    } else {
      EXPECT_EQ(r.rc, 1) << r.out;
      EXPECT_EQ(r.err.rfind("check_journal: FAIL " + std::string(c.expect), 0), 0u)
          << r.err;
      EXPECT_EQ(r.out, "");
    }
  }
}

TEST(CheckJournalTool, UsageErrorExitsTwoAndUnreadableFileExitsOne) {
  EXPECT_EQ(run_tool("").rc, 2);
  EXPECT_EQ(run_tool("a b c").rc, 2);
  const tool_run r = run_tool(tmp_path("absent.trace") + " " + tmp_path("absent.journal"));
  EXPECT_EQ(r.rc, 1);
  EXPECT_EQ(r.err.rfind("check_journal: cannot open", 0), 0u) << r.err;
}

}  // namespace
