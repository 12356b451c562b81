// check_journal <trace-file> <journal-file>: validates a journal dump (as
// written by bench/openloop_latency --trace/--journal) against the trace it
// claims to be a run of, with zero knowledge of the run (DESIGN.md §9).
//
// Exit 0 with "OK <n> requests, <m> commit records across <p> pipelines" on
// stdout for a valid dump; exit 1 with "check_journal: FAIL <diagnostic>" on
// stderr, the diagnostic's prefix naming the violated invariant
// (trace/journal.hpp). A file that cannot be read also exits 1; a usage
// error exits 2.
#include <cstdio>
#include <string>
#include <vector>

#include "trace/journal.hpp"

int main(int argc, char** argv) {
  using namespace tlstm::trace;
  if (argc != 3) {
    std::fprintf(stderr, "usage: check_journal <trace-file> <journal-file>\n");
    return 2;
  }
  trace_spec spec;
  std::vector<trace_request> reqs;
  journal_dump dump;
  std::string error;
  if (!read_trace(argv[1], &spec, &reqs, &error) ||
      !read_journal(argv[2], &dump, &error)) {
    std::fprintf(stderr, "check_journal: %s\n", error.c_str());
    return 1;
  }
  const check_result res = check_journal(reqs, dump);
  if (!res.ok) {
    std::fprintf(stderr, "check_journal: FAIL %s\n", res.diagnostic.c_str());
    return 1;
  }
  std::size_t records = 0;
  for (const auto& j : dump.journals) records += j.size();
  std::printf("OK %zu requests, %zu commit records across %u pipelines\n",
              reqs.size(), records, dump.pipelines);
  return 0;
}
