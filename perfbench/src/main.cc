// rrr_perfbench: one run of one workload of the repository benchmark.
//
//   rrr_perfbench --workload md-mdrc|2d-ksets|service-mixed --seed N
//                 --seconds S --trace 0|1 --serverd PATH --work-dir DIR
//                 [--git-sha SHA] [--env-note TEXT]
//
// perfbench/run.py builds this binary and invokes it; see perfbench/README.md.
// Prints a `fingerprint {...}` line, the traced run's own end-to-end figures
// (`traced_end_to_end {...}`, traced runs only), and as the last line the
// result object {"correct", "attempted", "failed", "metrics"}.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.h"
#include "topk/score_kernel.h"

namespace {

using perfbench::Metric;
using perfbench::RunArgs;
using perfbench::RunResult;

/// A run past this many seconds is stopped, leaving no process behind.
constexpr int kWatchdogSeconds = 170;

/// Environment variables that change what the program does; run.py unsets
/// them, and a run refuses to start if one is still set.
const char* const kNeutralizedEnv[] = {"RRR_SCORE_KERNEL", "RRR_BLOCK_SKIP",
                                       "RRR_FAILPOINTS", "RRR_LOG_LEVEL",
                                       "RRR_BENCH_FULL"};

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

bool CpuHasFlag(const std::string& flag) {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("flags", 0) == 0) {
      return (line + " ").find(" " + flag + " ") != std::string::npos;
    }
  }
  return false;
}

void OnSignal(int sig) {
  perfbench::KillDaemonNow();
  _exit(128 + sig);
}

/// Ends the process, daemon included, if the run outlives its budget.
class Watchdog {
 public:
  Watchdog()
      : thread_([this] {
          std::unique_lock<std::mutex> lock(mu_);
          const auto limit = std::chrono::seconds(kWatchdogSeconds);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "perfbench: run exceeded %d s; stopping\n",
                         kWatchdogSeconds);
            perfbench::KillDaemonNow();
            _exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // declared last: starts after the members it uses
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "rrr_perfbench: %s\nusage: rrr_perfbench --workload "
               "md-mdrc|2d-ksets|service-mixed --seed N --seconds S "
               "--trace 0|1 --serverd PATH --work-dir DIR [--git-sha SHA] "
               "[--env-note TEXT]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string git_sha = "unknown";
  std::string env_note;
  std::string trace = "0";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value;
    } else if (flag == "--serverd") {
      args.serverd = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--env-note") {
      env_note = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags come in pairs");
  if (args.workload != "md-mdrc" && args.workload != "2d-ksets" &&
      args.workload != "service-mixed") {
    return Usage("unknown workload");
  }
  if (!(args.seconds > 0.0) || (trace != "0" && trace != "1") ||
      args.work_dir.empty() ||
      (args.workload == "service-mixed" && args.serverd.empty())) {
    return Usage("bad --seconds, --trace, --work-dir or --serverd");
  }
  args.trace = trace == "1";
  for (const char* name : kNeutralizedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "rrr_perfbench: %s is set; unset it first\n", name);
      return 2;
    }
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  args.threads = std::max<size_t>(1, std::min<size_t>(4, hardware));

  std::signal(SIGPIPE, SIG_IGN);
  for (int sig : {SIGTERM, SIGINT, SIGHUP}) std::signal(sig, OnSignal);
  Watchdog watchdog;

  std::printf(
      "fingerprint {\"nproc\": %u, \"threads\": %zu, \"cpu_avx2\": %s, "
      "\"cpu_avx512f\": %s, \"score_kernel\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"git_sha\": \"%s\", "
      "\"env\": \"%s\"}\n",
      hardware, args.threads, CpuHasFlag("avx2") ? "true" : "false",
      CpuHasFlag("avx512f") ? "true" : "false",
      rrr::topk::ScoreKernelPathName(rrr::topk::ActiveScoreKernelPath()),
      Escape(PERFBENCH_COMPILER).c_str(), Escape(PERFBENCH_BUILD_TYPE).c_str(),
      Escape(PERFBENCH_CXX_FLAGS).c_str(), Escape(git_sha).c_str(),
      Escape(env_note).c_str());
  std::fflush(stdout);

  RunResult result = args.workload == "md-mdrc" ? perfbench::RunMdMdrc(args)
                     : args.workload == "2d-ksets"
                         ? perfbench::RunTwoDKsets(args)
                         : perfbench::RunServiceMixed(args);
  // After the workload, so that its time stays out of setup_s.
  std::vector<std::string> self_test_problems;
  const bool self_test_ok = perfbench::OracleSelfTest(&self_test_problems);
  if (!self_test_ok) result.correct = false;
  for (const std::string& p : self_test_problems) result.problems.push_back(p);
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.correct = false;
      result.problems.push_back("metric " + m.name + " is not finite");
    }
  }
  std::set<std::string> shown;
  for (const std::string& p : result.problems) {
    if (shown.size() < 20 && shown.insert(p).second) {
      std::fprintf(stderr, "perfbench: %s\n", p.c_str());
    }
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return 1;
  }
  if (args.trace) {
    std::printf("traced_end_to_end %s\n",
                MetricsJson(result.traced_end_to_end).c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false", result.attempted,
              result.failed, MetricsJson(result.metrics).c_str());
  std::fflush(stdout);
  return 0;
}
