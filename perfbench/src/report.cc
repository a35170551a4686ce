// Shared bookkeeping of the benchmark: the process-start clock, statistics
// helpers, per-run tallies, the span log, and the end-to-end metric set.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "perfbench.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Initialized before main() runs, so set-up time includes everything the
// process did before its first line of benchmark code.
const Clock::time_point kProcessStart = Clock::now();

}  // namespace

double SecondsSinceStart() {
  return std::chrono::duration<double>(Clock::now() - kProcessStart).count();
}

uint64_t SubSeed(uint64_t seed, uint64_t a, uint64_t b) {
  // splitmix64 over the three inputs: well-mixed, stable across platforms.
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL + a * 0xBF58476D1CE4E5B9ULL +
               b * 0x94D049BB133111EBULL + 0x2545F4914F6CDD1DULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x % 1000000007ULL + 1;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double PeakRssMb(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void RunTally::BeginRound() {
  round_solve_.push_back(0.0);
  round_eval_.push_back(0.0);
  for (auto& entry : layer_rounds_) entry.second.push_back(0.0);
}

void RunTally::EndRound(double wall_seconds) {
  round_wall_.push_back(wall_seconds);
}

std::string RunTally::RoundSummary() const {
  std::string out;
  char line[160];
  for (size_t r = 0; r < round_wall_.size(); ++r) {
    std::snprintf(line, sizeof(line),
                  "round %zu: wall %.4f s, solve %.4f s, eval %.4f s\n", r,
                  round_wall_[r], round_solve_[r], round_eval_[r]);
    out += line;
  }
  return out;
}

double RunTally::measured_seconds() const {
  double total = 0.0;
  for (double w : round_wall_) total += w;
  return total;
}

void RunTally::AddOp(OpKind kind, double seconds, bool failed) {
  ++attempted_;
  if (failed) {
    ++failed_;
    return;
  }
  latencies_.push_back(seconds);
  if (kind == OpKind::kSolve) round_solve_.back() += seconds;
  if (kind == OpKind::kEval) round_eval_.back() += seconds;
}

void RunTally::AddLayer(const std::string& key, double value) {
  layer_values_[key].push_back(value);
  if (round_solve_.empty()) return;  // set-up, before the first round
  std::vector<double>& rounds = layer_rounds_[key];
  // A key first seen mid-run owns zeros for the rounds before it.
  rounds.resize(round_solve_.size(), 0.0);
  rounds.back() += value;
}

double RunTally::LayerRoundMean(const std::string& key) const {
  auto it = layer_rounds_.find(key);
  return it == layer_rounds_.end() ? 0.0 : Mean(it->second);
}

double RunTally::LayerTotal(const std::string& key) const {
  auto it = layer_values_.find(key);
  if (it == layer_values_.end()) return 0.0;
  double total = 0.0;
  for (double v : it->second) total += v;
  return total;
}

double RunTally::LayerValueMedian(const std::string& key) const {
  auto it = layer_values_.find(key);
  return it == layer_values_.end() ? 0.0 : Median(it->second);
}

int SpanLog::Begin(const std::string& name, uint64_t op, int parent) {
  spans_.push_back(Span{name, op, parent, SecondsSinceStart(), 0.0});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::End(int index) {
  Span& span = spans_[static_cast<size_t>(index)];
  span.end = SecondsSinceStart();
  return span.end - span.start;
}

void SpanLog::Add(const std::string& name, uint64_t op, int parent,
                  double start, double end) {
  spans_.push_back(Span{name, op, parent, start, end});
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"op\":%llu,\"parent\":%d,"
                 "\"start\":%.9f,\"end\":%.9f}\n",
                 i, s.name.c_str(), static_cast<unsigned long long>(s.op),
                 s.parent, s.start, s.end);
  }
  return std::fclose(out) == 0;
}

std::vector<Metric> EndToEndMetrics(const RunTally& tally, double setup_s,
                                    double peak_rss_mb, double artifact_mb) {
  const double measured = tally.measured_seconds();
  const double completed =
      static_cast<double>(tally.attempted() - tally.failed());
  return {
      {"setup_s", setup_s, "s"},
      {"solve_s", tally.SolveRoundMean(), "s"},
      {"eval_s", tally.EvalRoundMean(), "s"},
      {"ops_per_s", measured > 0.0 ? completed / measured : 0.0, "ops/s"},
      {"latency_p50_ms", 1e3 * Median(tally.latencies()), "ms"},
      {"latency_tail_ms", 1e3 * Percentile(tally.latencies(), kTailPercentile),
       "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"artifact_mb", artifact_mb, "MB"},
  };
}

std::vector<Metric> PerLayerMetrics(const RunTally& tally) {
  auto round = [&](const char* key) { return tally.LayerRoundMean(key); };
  auto value = [&](const char* key) { return tally.LayerValueMedian(key); };
  // part / (part + rest) over the whole run, 0 when neither occurred.
  auto share = [&](const char* part, const char* rest) {
    const double a = tally.LayerTotal(part);
    const double b = tally.LayerTotal(rest);
    return a + b > 0.0 ? a / (a + b) : 0.0;
  };
  auto ratio = [&](const char* num, const char* den) {
    const double b = tally.LayerTotal(den);
    return b > 0.0 ? tally.LayerTotal(num) / b : 0.0;
  };
  return {
      // md-mdrc
      {"data.column_blocks_build_s", round("data.column_blocks_build_s"), "s"},
      {"core.candidate_index_build_s", round("core.candidate_index_build_s"),
       "s"},
      {"core.skyband_rows", round("core.skyband_rows"), "count"},
      {"core.mdrc_s", round("core.mdrc_s"), "s"},
      {"core.mdrc_nodes", round("core.mdrc_nodes"), "count"},
      {"core.mdrc_corner_evals", round("core.mdrc_corner_evals"), "count"},
      {"core.mdrc_corner_hit_share",
       share("core.mdrc_corner_hits", "core.mdrc_corner_evals"), "ratio"},
      {"topk.scan_s", round("topk.scan_s"), "s"},
      {"topk.blocks_skipped_share",
       share("topk.blocks_skipped", "topk.blocks_scanned"), "ratio"},
      {"eval.sampled_s", round("eval.sampled_s"), "s"},
      // 2d-ksets
      {"core.sweep_build_s", tally.LayerTotal("core.sweep_build_s"), "s"},
      {"core.find_ranges_s", round("core.find_ranges_s"), "s"},
      {"hitting.cover_line_s", round("hitting.cover_line_s"), "s"},
      {"core.kset_sample_s", round("core.kset_sample_s"), "s"},
      {"core.kset_draws", round("core.kset_draws"), "count"},
      {"core.kset_new_share", ratio("core.kset_found", "core.kset_draws"),
       "ratio"},
      {"hitting.epsnet_s", round("hitting.epsnet_s"), "s"},
      {"lp.maxima_s", round("lp.maxima_s"), "s"},
      {"core.skyline_rows", round("core.skyline_rows"), "count"},
      {"eval.exact2d_s", round("eval.exact2d_s"), "s"},
      // service-mixed
      {"registry.prepare_s", value("registry.prepare_s"), "s"},
      {"service.engine_s", round("service.engine_s"), "s"},
      {"service.overhead_ms", value("service.overhead_ms"), "ms"},
      {"service.memo_hit_share", ratio("service.memo_hits", "service.queries"),
       "ratio"},
      {"service.blocks_skipped_share",
       share("service.blocks_skipped", "service.blocks_scanned"), "ratio"},
      {"service.append_ms", value("service.append_ms"), "ms"},
  };
}

}  // namespace perfbench
