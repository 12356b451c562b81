// Open-loop trace generation, trace/journal-dump serialization, and the
// offline commit-journal checker (DESIGN.md §9).
//
// The harness shape is seeded-generator → trace file → replay → journal
// dump → offline verifier: bench/openloop_latency.cpp replays a generated
// trace against a session and dumps the per-pipeline commit journals plus
// the per-request (pipeline, serial) placement; check_journal() then
// validates the dump against the trace with zero knowledge of the run,
// in-process or from the files through the standalone check_journal tool
// (trace/check_journal.cpp). Header-only and outside the tlstm library, so
// the runtime's own objects do not depend on it.
//
// Checker invariants (each with its own diagnostic prefix, so adversarial
// tests can prove every class of corruption is detected):
//   serial-gap / serial-overlap / duplicate-serial — per pipeline, the
//     journal's [tx_start, tx_commit] ranges tile 1..N densely, in order;
//   missing-request / duplicate-request / request-count — the dump places
//     every trace id exactly once;
//   misrouted-request — placements match session_route_hash(key) % width,
//     where width is the active pipeline count of the placement's topology
//     epoch (the dump's E section; static dumps implicitly {0 -> P});
//   missing-commit / unclaimed-commit — requests and journal records match
//     one to one (every submission committed exactly once);
//   commit-ts-zero / commit-ts-duplicate — commit timestamps are real and
//     globally unique;
//   fifo-violation — per key, commit serials and commit timestamps follow
//     submission order (keyed sessions promise per-key FIFO).
//
// Read-only requests (trace `reads` section, DESIGN.md §10) relax these:
// a read served by the fast path carries placement serial 0 and must claim
// NO journal record; a read that fell back to the full path carries a real
// serial and is matched like a write, except its record may carry
// commit_ts 0 (write-free transactions do) and it is exempt from the
// per-key FIFO invariant — fast-path reads serve the committed frontier
// without ordering against in-flight submissions.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "core/thread_state.hpp"
#include "util/rng.hpp"

namespace tlstm::trace {

// ---------------------------------------------------------------------------
// Trace generation
// ---------------------------------------------------------------------------

/// One open-loop request: arrives at `arrival_ns` (offset from replay
/// start) whether or not earlier requests completed, touches `key`, and
/// decomposes into `tasks` tasks of `ops` read-modify-writes each.
struct trace_request {
  std::uint64_t id = 0;
  std::uint64_t key = 0;
  std::uint64_t arrival_ns = 0;
  unsigned tasks = 1;
  unsigned ops = 1;
  /// Read-only request (session::submit_read_keyed): may legitimately
  /// produce no commit record — see the `reads` trace section.
  bool read_only = false;

  friend bool operator==(const trace_request&, const trace_request&) = default;
};

/// Generator parameters; together with `seed` they determine the trace
/// byte-for-byte (tests/trace_checker_test.cpp golden-seed tests).
struct trace_spec {
  std::uint64_t seed = 1;
  std::uint64_t requests = 1000;
  std::uint64_t keys = 64;
  std::uint64_t rate_per_s = 1000;  ///< mean arrival rate (Poisson process)
  unsigned max_tasks = 2;           ///< tasks per request drawn from [1, max]
  unsigned max_ops = 4;             ///< ops per task drawn from [1, max]
  /// Per-mille of requests drawn read-only (0 = none; keeps the rng stream
  /// — and hence existing traces — byte-identical when unused).
  unsigned read_permille = 0;

  friend bool operator==(const trace_spec&, const trace_spec&) = default;
};

/// Deterministic open-loop request stream: Poisson arrivals (exponential
/// inter-arrival gaps, capped at 16x the mean so one extreme draw cannot
/// stall the whole replay), uniform keys and shapes. Same spec -> same
/// vector, bit for bit.
inline std::vector<trace_request> generate_trace(const trace_spec& spec) {
  std::vector<trace_request> out;
  out.reserve(spec.requests);
  util::xoshiro256 rng(spec.seed, /*stream=*/0x7ace5eedULL);
  const double mean_gap_ns = 1e9 / static_cast<double>(std::max<std::uint64_t>(1, spec.rate_per_s));
  std::uint64_t t = 0;
  for (std::uint64_t i = 0; i < spec.requests; ++i) {
    // Exponential gap via inverse CDF; u in (0, 1] so log stays finite.
    const double u =
        (static_cast<double>(rng.next() >> 11) + 1.0) * (1.0 / 9007199254740992.0);
    const double gap = std::min(-std::log(u), 16.0) * mean_gap_ns;
    t += static_cast<std::uint64_t>(gap);
    trace_request r;
    r.id = i;
    r.key = rng.next_below(std::max<std::uint64_t>(1, spec.keys));
    r.arrival_ns = t;
    r.tasks = 1 + static_cast<unsigned>(rng.next_below(std::max(1u, spec.max_tasks)));
    r.ops = 1 + static_cast<unsigned>(rng.next_below(std::max(1u, spec.max_ops)));
    // Drawn only when the spec asks for reads, so read_permille == 0 specs
    // keep their historical rng stream (and trace bytes) exactly.
    if (spec.read_permille != 0) {
      r.read_only = rng.next_below(1000) < spec.read_permille;
    }
    out.push_back(r);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Trace file format (plain text, one record per line):
//   tlstm-trace v1
//   spec <seed> <requests> <keys> <rate> <max_tasks> <max_ops> [<read_permille>]
//   R <id> <key> <arrival_ns> <tasks> <ops>
//   reads <count>          (only when the spec draws reads)
//   Q <id>                 (one per read-only request)
// The `reads` section and the spec's 7th field are emitted only for specs
// with read_permille != 0, so historical traces stay byte-identical.
// ---------------------------------------------------------------------------

inline bool write_trace(const std::string& path, const trace_spec& spec,
                        const std::vector<trace_request>& reqs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "tlstm-trace v1\n");
  std::fprintf(f, "spec %llu %llu %llu %llu %u %u",
               static_cast<unsigned long long>(spec.seed),
               static_cast<unsigned long long>(spec.requests),
               static_cast<unsigned long long>(spec.keys),
               static_cast<unsigned long long>(spec.rate_per_s), spec.max_tasks,
               spec.max_ops);
  if (spec.read_permille != 0) std::fprintf(f, " %u", spec.read_permille);
  std::fprintf(f, "\n");
  for (const trace_request& r : reqs) {
    std::fprintf(f, "R %llu %llu %llu %u %u\n",
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.key),
                 static_cast<unsigned long long>(r.arrival_ns), r.tasks, r.ops);
  }
  if (spec.read_permille != 0) {
    std::uint64_t n_reads = 0;
    for (const trace_request& r : reqs) n_reads += r.read_only ? 1 : 0;
    std::fprintf(f, "reads %llu\n", static_cast<unsigned long long>(n_reads));
    for (const trace_request& r : reqs) {
      if (r.read_only) {
        std::fprintf(f, "Q %llu\n", static_cast<unsigned long long>(r.id));
      }
    }
  }
  std::fclose(f);
  return true;
}

inline bool read_trace(const std::string& path, trace_spec* spec,
                       std::vector<trace_request>* reqs, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    if (f != nullptr) std::fclose(f);
    return false;
  };
  if (f == nullptr) return fail("cannot open " + path);
  char line[256];
  if (std::fgets(line, sizeof line, f) == nullptr ||
      std::string(line).rfind("tlstm-trace v1", 0) != 0) {
    return fail("bad trace header");
  }
  unsigned long long seed, requests, keys, rate;
  unsigned max_tasks, max_ops;
  unsigned read_permille = 0;  // sscanf leaves it alone on 6-field specs
  int spec_fields;
  if (std::fgets(line, sizeof line, f) == nullptr ||
      ((spec_fields = std::sscanf(line, "spec %llu %llu %llu %llu %u %u %u",
                                  &seed, &requests, &keys, &rate, &max_tasks,
                                  &max_ops, &read_permille)) != 6 &&
       spec_fields != 7)) {
    return fail("bad trace spec line");
  }
  *spec = trace_spec{seed, requests, keys, rate, max_tasks, max_ops, read_permille};
  reqs->clear();
  reqs->reserve(requests);
  bool have_reads_count = false;
  unsigned long long reads_declared = 0;
  std::vector<std::uint64_t> read_ids;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (line[0] == '\n' || line[0] == '#') continue;
    if (line[0] == 'R') {
      unsigned long long id, key, arrival;
      unsigned tasks, ops;
      if (std::sscanf(line, "R %llu %llu %llu %u %u", &id, &key, &arrival,
                      &tasks, &ops) != 5) {
        return fail(std::string("bad trace record: ") + line);
      }
      reqs->push_back(trace_request{id, key, arrival, tasks, ops});
    } else if (line[0] == 'r') {
      if (std::sscanf(line, "reads %llu", &reads_declared) != 1) {
        return fail(std::string("bad reads line: ") + line);
      }
      have_reads_count = true;
    } else if (line[0] == 'Q') {
      unsigned long long id;
      if (std::sscanf(line, "Q %llu", &id) != 1) {
        return fail(std::string("bad read marker: ") + line);
      }
      read_ids.push_back(id);
    } else {
      return fail(std::string("unknown trace line: ") + line);
    }
  }
  std::fclose(f);
  if (reqs->size() != requests) return fail("trace record count mismatch");
  if (have_reads_count && read_ids.size() != reads_declared) {
    return fail("reads count mismatch");
  }
  // Resolve the markers by request id (records need not arrive id-ordered).
  std::map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < reqs->size(); ++i) index_of[(*reqs)[i].id] = i;
  for (std::uint64_t id : read_ids) {
    const auto it = index_of.find(id);
    if (it == index_of.end()) return fail("read marker for unknown request id");
    (*reqs)[it->second].read_only = true;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Journal dump: the per-pipeline commit journals plus the per-request
// placement the replay observed.
//   tlstm-journal v1
//   dims <pipelines> <requests>
//   E <epoch> <width>                     (elastic runs only, DESIGN.md §11)
//   T <pipe> <first-serial>               (truncated dumps only, DESIGN.md §12)
//   J <pipe> <tx_start_serial> <tx_commit_serial> <commit_ts>
//   T <id> <key> <pipe> <commit_serial> <tasks> [<epoch>]
// The E section (the session's topology history: epoch -> active width) and
// the T lines' 6th field appear only when the run actually resized (more
// than one topology entry or a nonzero placement epoch), so static-topology
// dumps stay byte-identical with the historical format. Without E lines the
// topology is implicitly {epoch 0 -> pipelines}.
//
// Truncated dumps (config.journal_retain != 0, DESIGN.md §12): a two-field
// `T <pipe> <first-serial>` header line declares the oldest retained serial
// of that pipeline's journal; serials below it were pruned and the checker
// validates the retained suffix instead of diagnosing a serial gap. The line
// count disambiguates it from placements (2 fields vs 5/6), and it is
// emitted only for pipelines whose frontier moved past 1 — journal_retain=0
// dumps stay byte-identical to the historical v1 format.
// ---------------------------------------------------------------------------

/// Placement of one replayed request: which pipeline it routed to, which
/// commit serial the driver assigned (ticket::commit_serial()), and the
/// topology epoch the route was decided under (ticket::route_epoch()).
struct request_placement {
  std::uint64_t id = 0;
  std::uint64_t key = 0;
  unsigned pipe = 0;
  std::uint64_t serial = 0;
  unsigned tasks = 1;
  std::uint64_t epoch = 0;
};

struct journal_dump {
  unsigned pipelines = 0;
  /// journals[p] = runtime.thread(p).journal_snapshot().records after the
  /// run quiesced — the retained suffix when the journal is pruned.
  std::vector<std::vector<core::commit_record>> journals;
  std::vector<request_placement> requests;
  /// Topology history (session::topology_history()): epoch -> active width,
  /// oldest first. Empty means static — implicitly {{0, pipelines}}.
  std::vector<std::pair<std::uint64_t, unsigned>> topology;
  /// Retain frontiers (DESIGN.md §12): first_serial[p] is the oldest serial
  /// pipeline p's journal still holds. Empty means untruncated (frontier 1
  /// everywhere); when non-empty it must have one entry per pipeline, each
  /// >= 1 (the checker's bad-truncation diagnostic enforces this).
  std::vector<std::uint64_t> first_serial;
};

inline bool write_journal(const std::string& path, const journal_dump& d) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "tlstm-journal v1\n");
  std::fprintf(f, "dims %u %llu\n", d.pipelines,
               static_cast<unsigned long long>(d.requests.size()));
  // Epoch format only when the run resized; static dumps keep the
  // historical bytes (back-compat with checked-in goldens and old tooling).
  bool epochal = d.topology.size() > 1;
  for (const request_placement& r : d.requests) epochal |= r.epoch != 0;
  if (epochal) {
    for (const auto& [epoch, width] : d.topology) {
      std::fprintf(f, "E %llu %u\n", static_cast<unsigned long long>(epoch),
                   width);
    }
  }
  // Truncation headers only for moved frontiers, so untruncated dumps keep
  // the historical bytes (a deliberately-bad frontier of 0 is emitted too —
  // the adversarial checker tests round-trip it through the file).
  for (unsigned p = 0; p < d.first_serial.size(); ++p) {
    if (d.first_serial[p] != 1) {
      std::fprintf(f, "T %u %llu\n", p,
                   static_cast<unsigned long long>(d.first_serial[p]));
    }
  }
  for (unsigned p = 0; p < d.journals.size(); ++p) {
    for (const core::commit_record& r : d.journals[p]) {
      std::fprintf(f, "J %u %llu %llu %llu\n", p,
                   static_cast<unsigned long long>(r.tx_start_serial),
                   static_cast<unsigned long long>(r.tx_commit_serial),
                   static_cast<unsigned long long>(r.commit_ts));
    }
  }
  for (const request_placement& r : d.requests) {
    std::fprintf(f, "T %llu %llu %u %llu %u",
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.key), r.pipe,
                 static_cast<unsigned long long>(r.serial), r.tasks);
    if (epochal) {
      std::fprintf(f, " %llu", static_cast<unsigned long long>(r.epoch));
    }
    std::fprintf(f, "\n");
  }
  std::fclose(f);
  return true;
}

inline bool read_journal(const std::string& path, journal_dump* d,
                         std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    if (f != nullptr) std::fclose(f);
    return false;
  };
  if (f == nullptr) return fail("cannot open " + path);
  char line[256];
  if (std::fgets(line, sizeof line, f) == nullptr ||
      std::string(line).rfind("tlstm-journal v1", 0) != 0) {
    return fail("bad journal header");
  }
  unsigned pipelines;
  unsigned long long requests;
  if (std::fgets(line, sizeof line, f) == nullptr ||
      std::sscanf(line, "dims %u %llu", &pipelines, &requests) != 2) {
    return fail("bad journal dims line");
  }
  d->pipelines = pipelines;
  d->journals.assign(pipelines, {});
  d->requests.clear();
  d->topology.clear();
  d->first_serial.clear();
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (line[0] == '\n' || line[0] == '#') continue;
    if (line[0] == 'J') {
      unsigned p;
      unsigned long long start, commit, ts;
      if (std::sscanf(line, "J %u %llu %llu %llu", &p, &start, &commit, &ts) != 4 ||
          p >= pipelines) {
        return fail(std::string("bad journal record: ") + line);
      }
      d->journals[p].push_back(core::commit_record{start, commit, ts});
    } else if (line[0] == 'E') {
      unsigned long long epoch;
      unsigned width;
      if (std::sscanf(line, "E %llu %u", &epoch, &width) != 2 || width == 0 ||
          width > pipelines) {
        return fail(std::string("bad topology record: ") + line);
      }
      d->topology.emplace_back(epoch, width);
    } else if (line[0] == 'T') {
      unsigned long long id, key, serial;
      unsigned p, tasks;
      unsigned long long epoch = 0;  // absent 6th field = epoch 0
      const int n = std::sscanf(line, "T %llu %llu %u %llu %u %llu", &id, &key,
                                &p, &serial, &tasks, &epoch);
      if (n == 2) {
        // Truncation header `T <pipe> <first-serial>` (DESIGN.md §12). The
        // frontier value is NOT validated here — check_journal's
        // bad-truncation diagnostic owns that.
        const unsigned long long tp = id;
        if (tp >= pipelines) {
          return fail(std::string("bad truncation record: ") + line);
        }
        if (d->first_serial.empty()) d->first_serial.assign(pipelines, 1);
        d->first_serial[tp] = key;
        continue;
      }
      if ((n != 5 && n != 6) || p >= pipelines) {
        return fail(std::string("bad placement record: ") + line);
      }
      d->requests.push_back(request_placement{id, key, p, serial, tasks, epoch});
    } else {
      return fail(std::string("unknown journal line: ") + line);
    }
  }
  std::fclose(f);
  if (d->requests.size() != requests) return fail("placement count mismatch");
  return true;
}

// ---------------------------------------------------------------------------
// The offline checker
// ---------------------------------------------------------------------------

struct check_result {
  bool ok = true;
  std::string diagnostic;  ///< empty when ok; "<class>: detail" otherwise
};

/// Validates a journal dump against the trace it claims to be a run of.
/// Stops at the first violation; the diagnostic's prefix names the
/// invariant class (see the header comment).
inline check_result check_journal(const std::vector<trace_request>& trace,
                                  const journal_dump& d) {
  auto fail = [](std::string diag) { return check_result{false, std::move(diag)}; };
  if (d.pipelines == 0 || d.journals.size() != d.pipelines) {
    return fail("dump-shape: pipelines=" + std::to_string(d.pipelines) +
                " journals=" + std::to_string(d.journals.size()));
  }

  // 0. Retain frontiers (DESIGN.md §12): when present, one per pipeline and
  //    each >= 1 — serial 0 does not exist, so a zero frontier is a corrupt
  //    truncation header, not a legal "nothing pruned".
  if (!d.first_serial.empty()) {
    if (d.first_serial.size() != d.pipelines) {
      return fail("bad-truncation: " + std::to_string(d.first_serial.size()) +
                  " frontiers for " + std::to_string(d.pipelines) + " pipelines");
    }
    for (unsigned p = 0; p < d.pipelines; ++p) {
      if (d.first_serial[p] == 0) {
        return fail("bad-truncation: pipeline " + std::to_string(p) +
                    " declares frontier 0");
      }
    }
  }
  auto frontier = [&](unsigned p) -> std::uint64_t {
    return d.first_serial.empty() ? 1 : d.first_serial[p];
  };

  // 1. Per-pipeline serial density: the committed [start, commit] ranges
  //    tile frontier..N in order — a dropped record is a gap, a duplicated
  //    one an exact repeat, any other overlap a corruption. Untruncated
  //    dumps tile from 1.
  for (unsigned p = 0; p < d.pipelines; ++p) {
    std::uint64_t expect = frontier(p);
    const core::commit_record* prev = nullptr;
    for (const core::commit_record& r : d.journals[p]) {
      if (r.tx_commit_serial < r.tx_start_serial) {
        return fail("record-shape: pipeline " + std::to_string(p) + " serial [" +
                    std::to_string(r.tx_start_serial) + ", " +
                    std::to_string(r.tx_commit_serial) + "] is inverted");
      }
      if (prev != nullptr && r.tx_start_serial == prev->tx_start_serial &&
          r.tx_commit_serial == prev->tx_commit_serial) {
        return fail("duplicate-serial: pipeline " + std::to_string(p) +
                    " committed serial " + std::to_string(r.tx_commit_serial) +
                    " twice");
      }
      if (r.tx_start_serial < expect) {
        return fail("serial-overlap: pipeline " + std::to_string(p) +
                    " tx_start " + std::to_string(r.tx_start_serial) +
                    " re-enters committed range (expected " +
                    std::to_string(expect) + ")");
      }
      if (r.tx_start_serial > expect) {
        return fail("serial-gap: pipeline " + std::to_string(p) + " expected tx_start " +
                    std::to_string(expect) + " but journal has " +
                    std::to_string(r.tx_start_serial));
      }
      expect = r.tx_commit_serial + 1;
      prev = &r;
    }
  }

  // 2. Every trace id placed exactly once.
  if (d.requests.size() != trace.size()) {
    return fail("request-count: trace has " + std::to_string(trace.size()) +
                " requests, dump places " + std::to_string(d.requests.size()));
  }
  std::vector<const request_placement*> by_id(trace.size(), nullptr);
  for (const request_placement& r : d.requests) {
    if (r.id >= trace.size()) {
      return fail("missing-request: placement id " + std::to_string(r.id) +
                  " is outside the trace");
    }
    if (by_id[r.id] != nullptr) {
      return fail("duplicate-request: id " + std::to_string(r.id) +
                  " placed twice");
    }
    by_id[r.id] = &r;
  }
  for (std::uint64_t i = 0; i < trace.size(); ++i) {
    if (by_id[i] == nullptr) {
      return fail("missing-request: trace id " + std::to_string(i) +
                  " absent from the dump");
    }
  }

  // 3. Placement matches the session routing hash, key and task shape —
  //    per topology epoch (DESIGN.md §11): the route of a request is
  //    hash % width[its route epoch], so the dump's topology history (or
  //    the implicit static {0 -> pipelines}) decides the divisor.
  std::map<std::uint64_t, unsigned> width_of;
  if (d.topology.empty()) {
    width_of[0] = d.pipelines;
  } else {
    for (const auto& [epoch, width] : d.topology) width_of[epoch] = width;
  }
  for (const trace_request& t : trace) {
    const request_placement& r = *by_id[t.id];
    const auto wit = width_of.find(r.epoch);
    if (wit == width_of.end()) {
      return fail("unknown-epoch: id " + std::to_string(t.id) +
                  " placed under epoch " + std::to_string(r.epoch) +
                  " absent from the topology history");
    }
    const unsigned want =
        static_cast<unsigned>(core::session_route_hash(t.key) % wit->second);
    if (r.key != t.key || r.tasks != t.tasks || r.pipe != want) {
      return fail("misrouted-request: id " + std::to_string(t.id) + " key " +
                  std::to_string(t.key) + " expected pipeline " +
                  std::to_string(want) + ", dump says pipeline " +
                  std::to_string(r.pipe) + " key " + std::to_string(r.key) +
                  " tasks " + std::to_string(r.tasks));
    }
  }

  // 4. Requests <-> journal records one to one: every submission committed
  //    exactly once. Serial ranges already proved dense, so matching each
  //    request's [serial - tasks + 1, serial] to a record plus a count
  //    comparison gives the bijection. Read-only requests served by the fast
  //    path carry serial 0 and claim no record (serials start at 1, so zero
  //    never aliases a commit); reads that fell back to the full path carry
  //    a real serial and must match like a write — those records are
  //    remembered so invariant 5 can permit their commit_ts of 0.
  std::vector<std::map<std::uint64_t, const core::commit_record*>> by_commit(d.pipelines);
  for (unsigned p = 0; p < d.pipelines; ++p) {
    for (const core::commit_record& r : d.journals[p]) by_commit[p][r.tx_commit_serial] = &r;
  }
  std::vector<std::uint64_t> claimed(d.pipelines, 0);
  std::set<const core::commit_record*> read_claimed;
  // Claims below a pipeline's frontier reference pruned records (DESIGN.md
  // §12): no journal record backs them, so they are collected here and
  // verified as a suffix tiling afterwards instead of through by_commit.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> pruned_claims(
      d.pipelines);
  for (const trace_request& t : trace) {
    const request_placement& r = *by_id[t.id];
    if (t.read_only && r.serial == 0) continue;  // fast-path read: no record
    if (r.serial < frontier(r.pipe)) {
      if (r.serial < t.tasks) {
        return fail("pruned-claim: request " + std::to_string(t.id) +
                    " claims inverted serial range [" +
                    std::to_string(r.serial) + " - " + std::to_string(t.tasks) +
                    " + 1, " + std::to_string(r.serial) + "]");
      }
      pruned_claims[r.pipe].emplace_back(r.serial - t.tasks + 1, r.serial);
      continue;
    }
    const auto it = by_commit[r.pipe].find(r.serial);
    if (it == by_commit[r.pipe].end() ||
        it->second->tx_start_serial != r.serial - t.tasks + 1) {
      return fail("missing-commit: request " + std::to_string(t.id) +
                  " (pipeline " + std::to_string(r.pipe) + ", serial " +
                  std::to_string(r.serial) + ", tasks " + std::to_string(t.tasks) +
                  ") has no matching journal record");
    }
    if (t.read_only) read_claimed.insert(it->second);
    claimed[r.pipe]++;
  }
  // Pruned claims must tile a suffix [L, frontier - 1] of the pruned range:
  // in order, non-overlapping, gap-free, ending exactly at the frontier.
  // (An empty set is legal — a windowed trace can drop pruned requests
  // entirely.) A claim forged below the frontier lands as an overlap or a
  // dangling end and is diagnosed here.
  for (unsigned p = 0; p < d.pipelines; ++p) {
    auto& claims = pruned_claims[p];
    if (claims.empty()) continue;
    std::sort(claims.begin(), claims.end());
    for (std::size_t i = 1; i < claims.size(); ++i) {
      if (claims[i].first != claims[i - 1].second + 1) {
        return fail("pruned-claim: pipeline " + std::to_string(p) +
                    " pruned claims [" + std::to_string(claims[i - 1].first) +
                    ", " + std::to_string(claims[i - 1].second) + "] and [" +
                    std::to_string(claims[i].first) + ", " +
                    std::to_string(claims[i].second) +
                    "] do not tile the pruned range");
      }
    }
    if (claims.back().second != frontier(p) - 1) {
      return fail("pruned-claim: pipeline " + std::to_string(p) +
                  " pruned claims end at " + std::to_string(claims.back().second) +
                  " but the frontier is " + std::to_string(frontier(p)));
    }
  }
  for (unsigned p = 0; p < d.pipelines; ++p) {
    if (claimed[p] != d.journals[p].size()) {
      return fail("unclaimed-commit: pipeline " + std::to_string(p) + " journal has " +
                  std::to_string(d.journals[p].size()) + " records but only " +
                  std::to_string(claimed[p]) + " requests claim one");
    }
  }

  // 5. Commit timestamps: nonzero (these transactions write) and globally
  //    unique (one global commit clock). Records claimed by read-only
  //    requests are the exception — write-free transactions commit with
  //    ts 0, so zero is legal there and uniqueness applies only to the
  //    nonzero timestamps.
  std::set<stm::word> seen_ts;
  for (unsigned p = 0; p < d.pipelines; ++p) {
    for (const core::commit_record& r : d.journals[p]) {
      if (r.commit_ts == 0) {
        if (read_claimed.count(&r) != 0) continue;
        return fail("commit-ts-zero: pipeline " + std::to_string(p) + " serial " +
                    std::to_string(r.tx_commit_serial));
      }
      if (!seen_ts.insert(r.commit_ts).second) {
        return fail("commit-ts-duplicate: ts " + std::to_string(r.commit_ts));
      }
    }
  }

  // 6. Per-key FIFO: a key's submissions must commit in submission order.
  //    On one pipeline, commit serials AND commit timestamps both increase
  //    along the key's trace order. Across pipelines (the key moved in a
  //    resize, DESIGN.md §11) serials are incomparable — they are per-pipe
  //    counters — so the global commit clock alone carries the order: the
  //    resize fence guarantees the old pipe's traffic committed (and took
  //    its monotonic timestamps) before the new pipe saw the key. Read-only
  //    requests are exempt on both sides of the chain: fast-path reads
  //    serve the committed frontier without ordering against in-flight
  //    submissions, and even a fallback read's ts-0 record carries no
  //    ordering information.
  std::map<std::uint64_t, const trace_request*> last_of_key;
  for (const trace_request& t : trace) {
    if (t.read_only) continue;
    const auto it = last_of_key.find(t.key);
    if (it != last_of_key.end()) {
      const request_placement& prev = *by_id[it->second->id];
      const request_placement& cur = *by_id[t.id];
      const bool same_pipe = cur.pipe == prev.pipe;
      // A pruned endpoint has no record, hence no commit_ts — its half of
      // the timestamp comparison is unavailable (DESIGN.md §12). Same-pipe
      // serial order survives pruning (serials are the placement's own), so
      // that check always runs.
      const bool prev_pruned = prev.serial < frontier(prev.pipe);
      const bool cur_pruned = cur.serial < frontier(cur.pipe);
      if (same_pipe && cur.serial <= prev.serial) {
        return fail("fifo-violation: key " + std::to_string(t.key) + " request " +
                    std::to_string(t.id) + " (serial " + std::to_string(cur.serial) +
                    ") did not commit after request " +
                    std::to_string(it->second->id) + " (serial " +
                    std::to_string(prev.serial) + ")");
      }
      if (!prev_pruned && !cur_pruned) {
        const stm::word prev_ts = by_commit[prev.pipe].at(prev.serial)->commit_ts;
        const stm::word cur_ts = by_commit[cur.pipe].at(cur.serial)->commit_ts;
        if (cur_ts <= prev_ts) {
          return fail("fifo-violation: key " + std::to_string(t.key) + " request " +
                      std::to_string(t.id) + " (serial " + std::to_string(cur.serial) +
                      ", ts " + std::to_string(cur_ts) + ") did not commit after request " +
                      std::to_string(it->second->id) + " (serial " +
                      std::to_string(prev.serial) + ", ts " + std::to_string(prev_ts) + ")");
        }
      }
    }
    last_of_key[t.key] = &t;
  }

  return {};
}

}  // namespace tlstm::trace
