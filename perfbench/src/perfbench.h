#ifndef RRR_PERFBENCH_PERFBENCH_H_
#define RRR_PERFBENCH_PERFBENCH_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Percentile of the per-operation latencies reported as latency_tail_ms.
/// Every run attempts at least kMinOpsPerRun operations, so at least ten
/// operations lie beyond it.
constexpr double kTailPercentile = 0.75;
constexpr size_t kMinOpsPerRun = 40;

/// Command line of one run (see main.cc for the flags).
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Solver threads and client connections; min(4, nproc).
  size_t threads = 4;
  /// Path of the rrr_serverd binary (service workload only).
  std::string serverd;
  /// Directory for daemon logs and trace files (inside the build tree).
  std::string work_dir;
};

/// Seconds since the process started (anchored at static initialization).
double SecondsSinceStart();

/// Deterministic per-dataset seed derived from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t a, uint64_t b);

/// Median of `values` (0 for an empty list).
double Median(std::vector<double> values);
/// Arithmetic mean of `values` (0 for an empty list).
double Mean(const std::vector<double>& values);
/// Nearest-rank percentile (p in (0, 1]) of `values` (0 for an empty list).
double Percentile(std::vector<double> values, double p);

/// Peak resident set (VmHWM) of process `pid` in MB; 0 if unreadable.
double PeakRssMb(int pid);

/// The kinds of timed operations the end-to-end metrics distinguish.
enum class OpKind { kSolve, kEval, kWrite };

/// \brief Per-run tallies: operation latencies, per-round sums, failures,
/// and the per-layer sums of the traced run.
///
/// A run is a sequence of whole rounds, each attempting the same
/// operations, so `failed` is the same share of `attempted` in every run.
/// Rounds run on different data, so round-level sums are reported as their
/// mean over the rounds.
class RunTally {
 public:
  void BeginRound();
  /// Closes the round; `wall_seconds` is its measured wall time.
  void EndRound(double wall_seconds);
  size_t rounds() const { return round_wall_.size(); }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  double measured_seconds() const;

  /// Records one attempted operation. Failed operations count against
  /// `failed` and add no latency.
  void AddOp(OpKind kind, double seconds, bool failed);

  /// Adds `value` to the current round's sum of the per-layer key `key`.
  void AddLayer(const std::string& key, double value);
  /// Mean over rounds of the per-round sums of `key` (0 if never added).
  double LayerRoundMean(const std::string& key) const;
  /// Sum of `key` over the whole run.
  double LayerTotal(const std::string& key) const;
  /// Median of the individual values added under `key` (0 if none).
  double LayerValueMedian(const std::string& key) const;

  /// One line per round: its wall time and solve/eval sums (diagnostics).
  std::string RoundSummary() const;

  double SolveRoundMean() const { return Mean(round_solve_); }
  double EvalRoundMean() const { return Mean(round_eval_); }
  const std::vector<double>& latencies() const { return latencies_; }

 private:
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<double> latencies_;
  std::vector<double> round_solve_;
  std::vector<double> round_eval_;
  std::vector<double> round_wall_;
  std::map<std::string, std::vector<double>> layer_rounds_;
  std::map<std::string, std::vector<double>> layer_values_;
};

/// \brief In-memory span log of the traced run: each span names the layer
/// call it timed, the operation it belongs to, and its parent span. The
/// spans are written out when the run ends.
class SpanLog {
 public:
  int Begin(const std::string& name, uint64_t op, int parent);
  /// Ends span `index` and returns its duration in seconds.
  double End(int index);
  /// Records a span timed elsewhere (start and end in SecondsSinceStart()).
  void Add(const std::string& name, uint64_t op, int parent, double start,
           double end);
  /// Writes every span as JSON lines; returns false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    uint64_t op = 0;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
  };
  std::vector<Span> spans_;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: the result-line fields plus the
/// traced run's own end-to-end figures (for the tracing overhead).
struct RunResult {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> metrics;
  /// Traced run only: solve/eval/latency figures measured with spans on.
  std::vector<Metric> traced_end_to_end;
  /// Human-readable reasons behind `correct == false` or failures.
  std::vector<std::string> problems;
};

/// The eight end-to-end metrics, computed identically by every workload.
/// `setup_s` is measured by the workload; the rest come from `tally`.
std::vector<Metric> EndToEndMetrics(const RunTally& tally, double setup_s,
                                    double peak_rss_mb, double artifact_mb);

/// Every per-layer metric, from the keys the traced run recorded. A layer
/// a workload never calls reads 0.
std::vector<Metric> PerLayerMetrics(const RunTally& tally);

RunResult RunMdMdrc(const RunArgs& args);
RunResult RunTwoDKsets(const RunArgs& args);
RunResult RunServiceMixed(const RunArgs& args);

/// Runs the oracle self-test: the oracle accepts library outputs that meet
/// their bounds and rejects deliberately broken ones. Appends a reason to
/// `problems` for each expectation that does not hold.
bool OracleSelfTest(std::vector<std::string>* problems);

/// Kills and reaps the daemon of the service workload, if one is running.
/// Async-signal-safe: the signal handlers and the watchdog call it.
void KillDaemonNow();

}  // namespace perfbench

#endif  // RRR_PERFBENCH_PERFBENCH_H_
