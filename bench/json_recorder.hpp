// Machine-readable perf-trajectory output (no google-benchmark dependency,
// so tests can exercise the recorder without linking the bench runner).
//
// Benches stash named metric rows here and main() writes them as JSON when
// the binary was invoked with `--json <path>` (see scripts/collect_bench.sh,
// which regenerates the checked-in BENCH_*.json files at the repo root).
// parse_file() reads the writer's own output back — the round-trip is
// pinned by tests/harness_test.cpp so the trajectory files stay parseable
// by downstream tooling (diff scripts).
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace bench_util {

class json_recorder {
 public:
  /// Insertion-ordered rows of (metric, value) pairs.
  using metric_list = std::vector<std::pair<std::string, double>>;
  using row_list = std::vector<std::pair<std::string, metric_list>>;

  static json_recorder& instance() {
    static json_recorder r;
    return r;
  }

  void put(const std::string& row, const std::string& metric, double value) {
    auto& metrics = row_for(row);
    for (auto& [k, v] : metrics) {
      if (k == metric) {
        v = value;
        return;
      }
    }
    metrics.emplace_back(metric, value);
  }

  const row_list& rows() const noexcept { return rows_; }

  /// Strips a `--<name> <value>` (or `--<name>=<value>`) argument pair from
  /// argv before google-benchmark sees it (benchmark::Initialize rejects
  /// flags it does not know). Returns the value, or "" when absent.
  static std::string consume_flag(int& argc, char** argv, const char* name) {
    const std::string opt = std::string("--") + name;
    const std::string opt_eq = opt + "=";
    std::string value;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      if (opt == argv[i] && i + 1 < argc) {
        value = argv[++i];
      } else if (std::strncmp(argv[i], opt_eq.c_str(), opt_eq.size()) == 0) {
        value = argv[i] + opt_eq.size();
      } else {
        argv[out++] = argv[i];
      }
    }
    argc = out;
    return value;
  }

  static std::string consume_json_flag(int& argc, char** argv) {
    return consume_flag(argc, argv, "json");
  }

  /// Writes every recorded row to `path` as one JSON object. Returns false
  /// (and leaves no partial file behind worth trusting) when the file
  /// cannot be opened.
  bool write(const std::string& path, const std::string& bench_name) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"rows\": {\n", bench_name.c_str());
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      const auto& [row, metrics] = rows_[r];
      std::fprintf(f, "    \"%s\": {", row.c_str());
      for (std::size_t m = 0; m < metrics.size(); ++m) {
        std::fprintf(f, "%s\"%s\": %.6g", m == 0 ? "" : ", ",
                     metrics[m].first.c_str(), metrics[m].second);
      }
      std::fprintf(f, "}%s\n", r + 1 == rows_.size() ? "" : ",");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    return true;
  }

  /// Parses a file produced by write(): recovers the bench name and every
  /// row in order. Tolerant of whitespace but deliberately minimal — it
  /// reads the subset of JSON the writer emits (string keys, numeric
  /// values, two nesting levels), which is all the trajectory files use.
  /// Returns false on malformed input with a diagnostic in *error.
  static bool parse_file(const std::string& path, std::string* bench_name,
                         row_list* rows, std::string* error) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) {
      if (error != nullptr) *error = "cannot open " + path;
      return false;
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);

    rows->clear();
    bench_name->clear();
    std::size_t pos = 0;
    auto fail = [&](const char* what) {
      if (error != nullptr) {
        *error = std::string(what) + " near offset " + std::to_string(pos);
      }
      return false;
    };
    auto skip_ws = [&] {
      while (pos < text.size() &&
             std::isspace(static_cast<unsigned char>(text[pos]))) {
        ++pos;
      }
    };
    auto expect = [&](char c) {
      skip_ws();
      if (pos >= text.size() || text[pos] != c) return false;
      ++pos;
      return true;
    };
    auto quoted = [&](std::string* out) {
      skip_ws();
      if (pos >= text.size() || text[pos] != '"') return false;
      const std::size_t end = text.find('"', pos + 1);
      if (end == std::string::npos) return false;
      out->assign(text, pos + 1, end - pos - 1);
      pos = end + 1;
      return true;
    };
    auto peek = [&]() -> char {
      skip_ws();
      return pos < text.size() ? text[pos] : '\0';
    };

    if (!expect('{')) return fail("expected '{'");
    std::string key;
    if (!quoted(&key) || key != "bench" || !expect(':')) return fail("expected \"bench\"");
    if (!quoted(bench_name)) return fail("expected bench name string");
    if (!expect(',')) return fail("expected ','");
    if (!quoted(&key) || key != "rows" || !expect(':')) return fail("expected \"rows\"");
    if (!expect('{')) return fail("expected rows object");
    if (peek() != '}') {
      for (;;) {
        std::string row;
        if (!quoted(&row) || !expect(':') || !expect('{')) return fail("expected row");
        metric_list metrics;
        if (peek() != '}') {
          for (;;) {
            std::string metric;
            if (!quoted(&metric) || !expect(':')) return fail("expected metric");
            skip_ws();
            char* end = nullptr;
            const double v = std::strtod(text.c_str() + pos, &end);
            if (end == text.c_str() + pos) return fail("expected number");
            pos = static_cast<std::size_t>(end - text.c_str());
            metrics.emplace_back(std::move(metric), v);
            if (peek() != ',') break;
            ++pos;
          }
        }
        if (!expect('}')) return fail("expected metric close");
        rows->emplace_back(std::move(row), std::move(metrics));
        if (peek() != ',') break;
        ++pos;
      }
    }
    if (!expect('}') || !expect('}')) return fail("expected close");
    return true;
  }

 private:
  metric_list& row_for(const std::string& row) {
    for (auto& [k, v] : rows_) {
      if (k == row) return v;
    }
    rows_.emplace_back(row, metric_list{});
    return rows_.back().second;
  }

  /// Insertion-ordered so the emitted file reads like the bench's output.
  row_list rows_;
};

}  // namespace bench_util
