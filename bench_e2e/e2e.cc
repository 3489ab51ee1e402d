// bench_e2e — end-to-end benchmark of the incsr serving stack.
//
//   bench_e2e --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//       One run in this process. Prints human-readable lines, then as the
//       last line of stdout one JSON object {correct, attempted, failed,
//       metrics}. trace 0 reports the end-to-end metrics, trace 1 the
//       per-layer ones. Exits 1 when an output check fails.
//   bench_e2e --sweep-n N1,N2,... [--seed S]
//       Core-only replay of one citation prefix at each n (traced numbers).
//   bench_e2e --ledger OUT.json [--runs R] [--trace-runs K] [--seconds T]
//             [--first-seed S] [--workloads a,b,...] [--sweep-n N1,...]
//       Runs every workload R times (seeds S, S+1, ...) and K traced times,
//       each in a fresh process, optionally one sweep, and writes all
//       values with a stamp.
//   bench_e2e --compare A.json B.json [--bounds BENCHMARK.json]
//       Medians and quartiles of two ledgers per (workload, metric), judged
//       against the bounds. Exits 1 on a regression.
//   bench_e2e --self-test
//       Checks the open-loop correction, the JSON round trip and --compare.
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "support.h"
#include "workloads.h"

#ifndef INCSR_BUILD_TYPE
#define INCSR_BUILD_TYPE "unknown"
#endif

namespace incsr::e2e {
namespace {

// ---- JSON (result lines, ledgers, BENCHMARK.json) -------------------------

/// A number as JSON with every significant digit (17), so a value read
/// back is the value written.
std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  return out + "\"";
}

/// Parsed JSON value. Objects keep their key order.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  const Json* Find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<Json> ParseDocument() {
    std::optional<Json> value = ParseValue(0);
    SkipSpace();
    if (!value || pos_ != text_.size()) return std::nullopt;
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Consume(std::string_view token) {
    if (text_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  std::optional<std::string> ParseString() {
    if (!Consume("\"")) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char ch = text_[pos_++];
      if (ch == '"') return out;
      if (ch != '\\') {
        out.push_back(ch);
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char esc = text_[pos_++];
      switch (esc) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u':
          // Non-ASCII escapes never occur in this benchmark's files; keep
          // the parse going with a placeholder.
          if (pos_ + 4 > text_.size()) return std::nullopt;
          pos_ += 4;
          out.push_back('?');
          break;
        default: out.push_back(esc); break;
      }
    }
    return std::nullopt;
  }

  std::optional<Json> ParseValue(int depth) {
    if (depth > kMaxDepth) return std::nullopt;
    SkipSpace();
    if (pos_ >= text_.size()) return std::nullopt;
    Json value;
    const char ch = text_[pos_];
    if (ch == '{') {
      ++pos_;
      value.type = Json::Type::kObject;
      SkipSpace();
      if (Consume("}")) return value;
      for (;;) {
        SkipSpace();
        std::optional<std::string> key = ParseString();
        SkipSpace();
        if (!key || !Consume(":")) return std::nullopt;
        std::optional<Json> member = ParseValue(depth + 1);
        if (!member) return std::nullopt;
        value.object.emplace_back(std::move(*key), std::move(*member));
        SkipSpace();
        if (Consume("}")) return value;
        if (!Consume(",")) return std::nullopt;
      }
    }
    if (ch == '[') {
      ++pos_;
      value.type = Json::Type::kArray;
      SkipSpace();
      if (Consume("]")) return value;
      for (;;) {
        std::optional<Json> item = ParseValue(depth + 1);
        if (!item) return std::nullopt;
        value.array.push_back(std::move(*item));
        SkipSpace();
        if (Consume("]")) return value;
        if (!Consume(",")) return std::nullopt;
      }
    }
    if (ch == '"') {
      std::optional<std::string> s = ParseString();
      if (!s) return std::nullopt;
      value.type = Json::Type::kString;
      value.string = std::move(*s);
      return value;
    }
    if (Consume("true") || Consume("false")) {
      value.type = Json::Type::kBool;
      value.boolean = text_[pos_ - 4] == 't';
      return value;
    }
    if (Consume("null")) return value;
    const std::string rest(text_.substr(pos_, 64));
    char* end = nullptr;
    value.number = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) return std::nullopt;
    pos_ += static_cast<std::size_t>(end - rest.c_str());
    value.type = Json::Type::kNumber;
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::optional<Json> ParseJson(std::string_view text) {
  return JsonParser(text).ParseDocument();
}

/// Reads a whole file; nullopt when it cannot be opened.
std::optional<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string out;
  char buf[65536];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, got);
  std::fclose(f);
  return out;
}

std::string Commit() {
  const char* commit = std::getenv("INCSR_COMMIT");
  return commit != nullptr && *commit != '\0' ? commit : "unknown";
}

unsigned Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

std::string RenderResult(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}}";
}

std::optional<RunResult> ParseResult(const std::string& line) {
  const std::optional<Json> doc = ParseJson(line);
  if (!doc || doc->type != Json::Type::kObject) return std::nullopt;
  const Json* correct = doc->Find("correct");
  const Json* attempted = doc->Find("attempted");
  const Json* failed = doc->Find("failed");
  const Json* metrics = doc->Find("metrics");
  if (correct == nullptr || attempted == nullptr || failed == nullptr ||
      metrics == nullptr || metrics->type != Json::Type::kObject) {
    return std::nullopt;
  }
  RunResult result;
  result.correct = correct->boolean;
  result.attempted = static_cast<std::uint64_t>(attempted->number);
  result.failed = static_cast<std::uint64_t>(failed->number);
  for (const auto& [name, metric] : metrics->object) {
    const Json* value = metric.Find("value");
    const Json* unit = metric.Find("unit");
    if (value == nullptr || unit == nullptr) return std::nullopt;
    result.metrics.push_back({name, value->number, unit->string});
  }
  return result;
}

void PrintStamp() {
  std::printf("stamp: commit=%s build_type=%s nproc=%u\n", Commit().c_str(),
              INCSR_BUILD_TYPE, Nproc());
}

void PrintMetrics(const RunResult& result) {
  for (const Metric& m : result.metrics) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    const std::size_t end = std::min(list.find(',', begin), list.size());
    if (end > begin) out.push_back(list.substr(begin, end - begin));
    begin = end + 1;
  }
  return out;
}

// ---- --compare -------------------------------------------------------------

/// Quartiles the way Python's statistics.quantiles(values, n=4) computes
/// them (the "exclusive" method), so spreads match the usual tooling.
std::array<double, 3> Quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return {v[0], v[0], v[0]};
  const long n = static_cast<long>(v.size());
  const long m = n + 1;
  std::array<double, 3> out{};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

/// One end-to-end metric of BENCHMARK.json.
struct Bound {
  std::string metric;
  bool lower_is_better = true;
  double bound = 0.0;
};

struct CompareRow {
  std::string workload;
  Bound bound;
  std::array<double, 3> a{};
  std::array<double, 3> b{};
  /// "ok", "better", "REGRESSION" or "unresolved".
  std::string verdict;
};

/// The end_to_end list, in file order.
std::optional<std::vector<Bound>> ParseBounds(const Json& benchmark) {
  const Json* list = benchmark.Find("end_to_end");
  if (list == nullptr || list->type != Json::Type::kArray) return std::nullopt;
  std::vector<Bound> bounds;
  for (const Json& m : list->array) {
    const Json* name = m.Find("name");
    const Json* better = m.Find("better");
    const Json* bound = m.Find("bound");
    if (name == nullptr || better == nullptr || bound == nullptr) {
      return std::nullopt;
    }
    bounds.push_back({name->string, better->string == "lower", bound->number});
  }
  return bounds;
}

std::vector<double> LedgerValues(const Json& ledger,
                                 const std::string& workload,
                                 const std::string& metric) {
  std::vector<double> out;
  const Json* workloads = ledger.Find("workloads");
  const Json* w = workloads != nullptr ? workloads->Find(workload) : nullptr;
  const Json* m = w != nullptr ? w->Find(metric) : nullptr;
  const Json* values = m != nullptr ? m->Find("values") : nullptr;
  if (values == nullptr) return out;
  for (const Json& v : values->array) out.push_back(v.number);
  return out;
}

/// Judges B against A for every (workload, bounded metric) present in
/// both. A pair whose run-to-run spread (IQR / median) on either side
/// exceeds the bound is "unresolved" unless every B run beats every A run.
std::vector<CompareRow> CompareLedgers(const Json& a, const Json& b,
                                       const std::vector<Bound>& bounds) {
  std::vector<CompareRow> rows;
  const Json* workloads = a.Find("workloads");
  if (workloads == nullptr) return rows;
  for (const auto& [workload, unused] : workloads->object) {
    for (const Bound& bound : bounds) {
      const std::vector<double> va = LedgerValues(a, workload, bound.metric);
      const std::vector<double> vb = LedgerValues(b, workload, bound.metric);
      if (va.empty() || vb.empty()) continue;
      CompareRow row{workload, bound, Quartiles(va), Quartiles(vb), "ok"};
      const double sign = bound.lower_is_better ? 1.0 : -1.0;
      const double worse = sign * (row.b[1] - row.a[1]) / std::abs(row.a[1]);
      const double spread =
          std::max((row.a[2] - row.a[0]) / std::abs(row.a[1]),
                   (row.b[2] - row.b[0]) / std::abs(row.b[1]));
      const double worst_b = bound.lower_is_better
                                 ? *std::max_element(vb.begin(), vb.end())
                                 : *std::min_element(vb.begin(), vb.end());
      const double best_a = bound.lower_is_better
                                ? *std::min_element(va.begin(), va.end())
                                : *std::max_element(va.begin(), va.end());
      const bool b_beats_all = sign * (worst_b - best_a) < 0.0;
      if (spread > bound.bound) {
        row.verdict = b_beats_all ? "better" : "unresolved";
      } else if (worse > bound.bound) {
        row.verdict = "REGRESSION";
      } else if (worse < -bound.bound) {
        row.verdict = "better";
      }
      rows.push_back(row);
    }
  }
  return rows;
}

std::optional<Json> LoadJsonFile(const std::string& path) {
  const std::optional<std::string> text = ReadFile(path);
  if (!text) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::optional<Json> doc = ParseJson(*text);
  if (!doc) std::fprintf(stderr, "%s is not valid JSON\n", path.c_str());
  return doc;
}

int RunCompare(const std::string& path_a, const std::string& path_b,
               const std::string& bounds_path) {
  const std::optional<Json> a = LoadJsonFile(path_a);
  const std::optional<Json> b = LoadJsonFile(path_b);
  const std::optional<Json> benchmark = LoadJsonFile(bounds_path);
  if (!a || !b || !benchmark) return 2;
  const std::optional<std::vector<Bound>> bounds = ParseBounds(*benchmark);
  if (!bounds) {
    std::fprintf(stderr, "%s has no end_to_end bounds\n", bounds_path.c_str());
    return 2;
  }
  const std::vector<CompareRow> rows = CompareLedgers(*a, *b, *bounds);
  std::printf("%-20s %-12s %32s %32s %8s  %s\n", "workload", "metric",
              "A median [q1, q3]", "B median [q1, q3]", "change", "verdict");
  int regressions = 0;
  for (const CompareRow& row : rows) {
    char a_text[64];
    char b_text[64];
    std::snprintf(a_text, sizeof(a_text), "%.4g [%.4g, %.4g]", row.a[1],
                  row.a[0], row.a[2]);
    std::snprintf(b_text, sizeof(b_text), "%.4g [%.4g, %.4g]", row.b[1],
                  row.b[0], row.b[2]);
    std::printf("%-20s %-12s %32s %32s %+7.1f%%  %s (bound %.0f%%)\n",
                row.workload.c_str(), row.bound.metric.c_str(), a_text,
                b_text, 100.0 * (row.b[1] - row.a[1]) / std::abs(row.a[1]),
                row.verdict.c_str(), 100.0 * row.bound.bound);
    if (row.verdict == "REGRESSION") ++regressions;
  }
  std::printf("%d regression(s) in %zu pairs\n", regressions, rows.size());
  return regressions > 0 ? 1 : 0;
}

// ---- --ledger --------------------------------------------------------------

/// Runs this binary with `args` in a fresh process, waits for it, and
/// parses its last stdout line. nullopt unless it exits 0 with a correct,
/// failure-free result.
std::optional<RunResult> RunChild(const std::string& args) {
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) return std::nullopt;
  exe[len] = '\0';
  const std::string command = "'" + std::string(exe) + "' " + args;
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return std::nullopt;
  std::string last;
  char line[8192];
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    if (line[0] != '\n') last = line;
  }
  const int status = pclose(pipe);
  std::optional<RunResult> result = ParseResult(last);
  if (status != 0 || !result || !result->correct || result->failed != 0) {
    std::fprintf(stderr, "ledger: '%s' failed (exit status %d)\n",
                 args.c_str(), status);
    return std::nullopt;
  }
  return result;
}

struct LedgerSeries {
  std::string unit;
  std::vector<double> values;
};

int RunLedger(const std::string& out_path, int runs, int trace_runs,
              double seconds, std::uint64_t first_seed,
              const std::vector<std::string>& workloads,
              const std::string& sweep_sizes) {
  std::string body = "{\n  \"stamp\": {\"commit\": " + JsonString(Commit()) +
                     ", \"build_type\": " + JsonString(INCSR_BUILD_TYPE) +
                     ", \"nproc\": " + std::to_string(Nproc()) +
                     ", \"seconds\": " + JsonNumber(seconds) +
                     ", \"runs\": " + std::to_string(runs) +
                     ", \"trace_runs\": " + std::to_string(trace_runs) +
                     ", \"first_seed\": " + std::to_string(first_seed) +
                     "},\n  \"workloads\": {";
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    std::vector<std::pair<std::string, LedgerSeries>> series;
    const auto record = [&series](const RunResult& result) {
      for (const Metric& m : result.metrics) {
        auto it = std::find_if(
            series.begin(), series.end(),
            [&](const auto& s) { return s.first == m.name; });
        if (it == series.end()) {
          series.push_back({m.name, {m.unit, {}}});
          it = series.end() - 1;
        }
        it->second.values.push_back(m.value);
      }
    };
    for (int k = 0; k < runs + trace_runs; ++k) {
      char args[256];
      std::snprintf(args, sizeof(args),
                    "--workload %s --seed %llu --seconds %g --trace %d",
                    workloads[w].c_str(),
                    static_cast<unsigned long long>(first_seed + k), seconds,
                    k >= runs ? 1 : 0);
      std::fprintf(stderr, "ledger: %s\n", args);
      const std::optional<RunResult> result = RunChild(args);
      if (!result) return 1;
      record(*result);
    }
    body += std::string(w > 0 ? "," : "") + "\n    " +
            JsonString(workloads[w]) + ": {";
    for (std::size_t s = 0; s < series.size(); ++s) {
      const auto& [name, data] = series[s];
      body += std::string(s > 0 ? "," : "") + "\n      " + JsonString(name) +
              ": {\"unit\": " + JsonString(data.unit) + ", \"values\": [";
      for (std::size_t v = 0; v < data.values.size(); ++v) {
        body += (v > 0 ? ", " : "") + JsonNumber(data.values[v]);
      }
      body += "]}";
      const std::array<double, 3> q = Quartiles(data.values);
      std::printf("%-20s %-40s median %12.6g  IQR/median %6.3f  (%zu runs)\n",
                  workloads[w].c_str(), name.c_str(), q[1],
                  q[1] != 0.0 ? (q[2] - q[0]) / std::abs(q[1]) : 0.0,
                  data.values.size());
    }
    body += "\n    }";
  }
  body += "\n  }";
  if (!sweep_sizes.empty()) {
    const std::string args = "--sweep-n " + sweep_sizes + " --seed " +
                             std::to_string(first_seed);
    std::fprintf(stderr, "ledger: %s\n", args.c_str());
    const std::optional<RunResult> sweep = RunChild(args);
    if (!sweep) return 1;
    body += ",\n  \"sweep\": {";
    for (std::size_t i = 0; i < sweep->metrics.size(); ++i) {
      const Metric& m = sweep->metrics[i];
      body += std::string(i > 0 ? "," : "") + "\n    " + JsonString(m.name) +
              ": {\"value\": " + JsonNumber(m.value) +
              ", \"unit\": " + JsonString(m.unit) + "}";
    }
    body += "\n  }";
  }
  body += "\n}\n";
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr ||
      std::fwrite(body.data(), 1, body.size(), f) != body.size() ||
      std::fclose(f) != 0) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

// ---- --self-test -----------------------------------------------------------

bool Expect(bool condition, const char* what) {
  std::printf("self-test: %-58s %s\n", what, condition ? "ok" : "FAILED");
  return condition;
}

int RunSelfTest() {
  bool ok = true;

  // A backend that stalls 50 ms once per second, driven open loop at
  // 2000/s over 1.5 s (stalls at 0.25 s and 1.25 s). Each stall delays
  // ~100 queued requests by up to 50 ms, so ~1.3 % of requests wait over
  // 40 ms: the intended-time p99 must see that, the service time must not.
  {
    LoadSamples samples;
    const std::uint64_t start = NowNs() + 10'000'000;
    std::uint64_t next_stall = start + 250'000'000;
    RunOpenLoop(
        start, 2000.0, 1.5,
        [&](std::uint64_t, std::uint64_t) {
          if (NowNs() >= next_stall) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            next_stall += 1'000'000'000;
          }
          return true;
        },
        &samples);
    const double intended_p99_ms = Quantile(&samples.latency_ns, 0.99) / 1e6;
    const double service_p99_ms = Quantile(&samples.service_ns, 0.99) / 1e6;
    std::printf("self-test: stalled backend p99 %.2f ms from intended send, "
                "%.3f ms service time\n",
                intended_p99_ms, service_p99_ms);
    ok &= Expect(intended_p99_ms >= 40.0, "intended-time p99 >= 40 ms");
    ok &= Expect(service_p99_ms < 5.0, "service-time p99 stays small");
  }

  // Result line round trip, every digit preserved.
  {
    RunResult written;
    written.correct = true;
    written.attempted = 123456789;
    written.failed = 3;
    written.metrics = {{"setup_s", 0.1, "s"},
                       {"p90_us", 1e-300, "us"},
                       {"ingest_ups", 123456.78901234567, "1/s"},
                       {"peak_mem_mb", -2.5, "MB"}};
    const std::optional<RunResult> read = ParseResult(RenderResult(written));
    bool same = read.has_value() && read->correct == written.correct &&
                read->attempted == written.attempted &&
                read->failed == written.failed &&
                read->metrics.size() == written.metrics.size();
    for (std::size_t i = 0; same && i < written.metrics.size(); ++i) {
      same = read->metrics[i].name == written.metrics[i].name &&
             read->metrics[i].unit == written.metrics[i].unit &&
             read->metrics[i].value == written.metrics[i].value;
    }
    ok &= Expect(same, "result JSON round-trips bitwise");
  }

  // --compare on synthetic ledgers: a clear regression, a steady pair, a
  // noisy pair, and a noisy pair B wins outright.
  {
    const char* ledger_a = R"({"workloads": {"w": {
        "setup_s": {"unit": "s", "values": [100, 101, 99, 100, 102]},
        "p50_us": {"unit": "us", "values": [10, 10.1, 9.9, 10, 10.05]},
        "p90_us": {"unit": "us", "values": [50, 100, 150, 80, 120]},
        "ingest_ups": {"unit": "1/s", "values": [100, 150, 50, 120, 80]}}}})";
    const char* ledger_b = R"({"workloads": {"w": {
        "setup_s": {"unit": "s", "values": [120, 121, 119, 120, 122]},
        "p50_us": {"unit": "us", "values": [10.2, 10.1, 10.3, 10, 10.2]},
        "p90_us": {"unit": "us", "values": [60, 110, 160, 90, 130]},
        "ingest_ups": {"unit": "1/s", "values": [400, 600, 200, 480, 320]}}}})";
    const char* benchmark = R"({"end_to_end": [
        {"name": "setup_s", "better": "lower", "bound": 0.1},
        {"name": "p50_us", "better": "lower", "bound": 0.1},
        {"name": "p90_us", "better": "lower", "bound": 0.2},
        {"name": "ingest_ups", "better": "higher", "bound": 0.1}]})";
    const std::optional<Json> a = ParseJson(ledger_a);
    const std::optional<Json> b = ParseJson(ledger_b);
    const std::optional<Json> bench = ParseJson(benchmark);
    const std::optional<std::vector<Bound>> bounds =
        bench ? ParseBounds(*bench) : std::nullopt;
    std::map<std::string, std::string> verdicts;
    if (a && b && bounds) {
      for (const CompareRow& row : CompareLedgers(*a, *b, *bounds)) {
        verdicts[row.bound.metric] = row.verdict;
      }
    }
    ok &= Expect(verdicts["setup_s"] == "REGRESSION",
                 "compare flags a regression");
    ok &= Expect(verdicts["p50_us"] == "ok",
                 "compare passes a change within the bound");
    ok &= Expect(verdicts["p90_us"] == "unresolved",
                 "compare marks a noisy pair unresolved");
    ok &= Expect(verdicts["ingest_ups"] == "better",
                 "compare credits a noisy pair won on every run");
    const std::array<double, 3> q = Quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    ok &= Expect(q[0] == 2.75 && q[1] == 5.5 && q[2] == 8.25,
                 "quartiles match statistics.quantiles(n=4)");
  }

  std::printf("self-test: %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME [--seed S] [--seconds T] "
               "[--trace 0|1]\n"
               "       bench_e2e --sweep-n N1,N2,... [--seed S]\n"
               "       bench_e2e --ledger OUT.json [--runs R] [--trace-runs K] "
               "[--seconds T] [--first-seed S] [--workloads a,b] "
               "[--sweep-n N1,...]\n"
               "       bench_e2e --compare A.json B.json [--bounds FILE]\n"
               "       bench_e2e --self-test\n"
               "workloads:");
  for (const WorkloadSpec& spec : Workloads()) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

std::optional<std::uint64_t> ParseUnsigned(const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || text[0] == '-') return std::nullopt;
  return v;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      flags[arg] = "1";
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      flags[arg] = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      positional.push_back(arg);
    }
  }
  const auto flag = [&](const char* name, const char* fallback) {
    const auto it = flags.find(name);
    return it == flags.end() ? std::string(fallback) : it->second;
  };
  const std::optional<std::uint64_t> seed = ParseUnsigned(flag("--seed", "11"));
  const double seconds = std::atof(flag("--seconds", "10").c_str());
  if (!seed || !(seconds > 0.0) || seconds > 600.0) return Usage();
  // The sweep's citation universe has 4096 nodes, so n starts there.
  std::vector<std::size_t> sweep_sizes;
  for (const std::string& item : SplitCommas(flag("--sweep-n", ""))) {
    const std::optional<std::uint64_t> n = ParseUnsigned(item);
    if (!n || *n < 4096 || *n > (1u << 24)) return Usage();
    sweep_sizes.push_back(static_cast<std::size_t>(*n));
  }
  if (flags.count("--sweep-n") && sweep_sizes.empty()) return Usage();

  if (flags.count("--self-test")) return RunSelfTest();
  if (flags.count("--compare")) {
    if (positional.size() != 1) return Usage();
    return RunCompare(flags["--compare"], positional[0],
                      flag("--bounds", "BENCHMARK.json"));
  }
  if (!positional.empty()) return Usage();
  if (flags.count("--ledger")) {
    std::vector<std::string> names = SplitCommas(flag("--workloads", ""));
    if (names.empty()) {
      for (const WorkloadSpec& spec : Workloads()) names.push_back(spec.name);
    }
    for (const std::string& name : names) {
      if (FindWorkload(name) == nullptr) return Usage();
    }
    const std::optional<std::uint64_t> runs =
        ParseUnsigned(flag("--runs", "5"));
    const std::optional<std::uint64_t> trace_runs =
        ParseUnsigned(flag("--trace-runs", "1"));
    const std::optional<std::uint64_t> first =
        ParseUnsigned(flag("--first-seed", "1"));
    if (!runs || !trace_runs || !first || *runs + *trace_runs == 0) {
      return Usage();
    }
    PrintStamp();
    return RunLedger(flags["--ledger"], static_cast<int>(*runs),
                     static_cast<int>(*trace_runs), seconds, *first, names,
                     flag("--sweep-n", ""));
  }
  RunResult result;
  if (!sweep_sizes.empty()) {
    PrintStamp();
    result = RunSweep(sweep_sizes, *seed);
  } else {
    const WorkloadSpec* spec = FindWorkload(flag("--workload", ""));
    const std::string trace = flag("--trace", "0");
    if (spec == nullptr || (trace != "0" && trace != "1")) return Usage();
    PrintStamp();
    std::printf("workload: %s, seed %llu, %g s window, trace %s\n", spec->name,
                static_cast<unsigned long long>(*seed), seconds, trace.c_str());
    result = RunWorkload(*spec, *seed, seconds, trace == "1");
  }
  PrintMetrics(result);
  std::printf("%s\n", RenderResult(result).c_str());
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace incsr::e2e

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  return incsr::e2e::Main(argc, argv);
}
