// The service-mixed workload: rrr_serverd in a closed loop.
//
// Each round registers a fresh dynamic uniform d=4 dataset, generated from
// its own seed so a run averages over several datasets, and runs one
// request script over four connections. The script has kPhases phases. At
// the start of every phase but the first, connection 0 appends one batch of
// rows while the readers wait, so every read of a phase sees one known
// version and every run does the same work. Within a phase each connection
// runs SOLVE then EVAL on the returned ids for every k of kSolveKs (rotated
// per connection, so the first request of a (version, k) misses the memo and
// the others hit it); connection 0 ends the last phase with a DUAL.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "core/evaluator.h"
#include "data/generators.h"
#include "oracle.h"
#include "perfbench.h"
#include "service/client.h"

namespace perfbench {
namespace {

constexpr size_t kBaseRows = 20000;
constexpr size_t kDims = 4;
constexpr size_t kAppendRows = 200;
constexpr size_t kPhases = 4;
const std::vector<size_t> kSolveKs = {40, 100, 200, 400};
constexpr size_t kDualMaxSize = 8;
constexpr size_t kConnections = 4;
/// rrr_serverd query workers. Every query fans out over all cores, so two
/// workers already keep the host busy; more only add scheduling noise.
constexpr size_t kServerWorkers = 1;
/// Random functions the oracle draws per check, beside the axis endpoints
/// and the diagonal.
constexpr size_t kOwnFunctions = 256;
/// Leading evaluator functions the oracle replays per EVAL reply.
constexpr size_t kEvalPrefixFunctions = 256;

// The running daemon, for the signal handlers and the watchdog.
std::atomic<int> g_daemon_pid{0};

/// rrr_serverd as a child process: started on an ephemeral port, stopped
/// and reaped by Stop() or the destructor on every path.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Starts `path` and waits until it reports its port. Returns an error
  /// message, or "" on success.
  std::string Start(const std::string& path, const std::string& log_path,
                    size_t workers) {
    const std::string workers_flag = "--workers=" + std::to_string(workers);
    // A log left by an earlier run must not be mistaken for this one's.
    unlink(log_path.c_str());
    const pid_t pid = fork();
    if (pid < 0) return "fork failed";
    if (pid == 0) {
      // Child: die with the benchmark, log to a file, become the daemon.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd =
          open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
        close(fd);
      }
      execl(path.c_str(), "rrr_serverd", "--port=0", workers_flag.c_str(),
            "--queue-depth=16", "--loaders=1", static_cast<char*>(nullptr));
      _exit(127);
    }
    pid_ = pid;
    g_daemon_pid.store(pid);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < give_up) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = 0;
        g_daemon_pid.store(0);
        return "rrr_serverd exited during start-up; see " + log_path;
      }
      std::ifstream log(log_path);
      std::stringstream text;
      text << log.rdbuf();
      const std::string s = text.str();
      const size_t at = s.find("listening port=");
      if (at != std::string::npos && s.find('\n', at) != std::string::npos) {
        port_ = static_cast<uint16_t>(std::stoul(s.substr(at + 15)));
        return "";
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return "rrr_serverd did not report a port within 30 s";
  }

  /// SIGTERM (graceful drain), SIGKILL after 10 s; always reaps.
  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 1000; ++i) {
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = 0;
        g_daemon_pid.store(0);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
    pid_ = 0;
    g_daemon_pid.store(0);
  }

  int pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = 0;
  uint16_t port_ = 0;
};

/// Reusable barrier for the connection threads.
class Barrier {
 public:
  explicit Barrier(size_t parties) : parties_(parties) {}
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    const size_t generation = generation_;
    if (++waiting_ == parties_) {
      waiting_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return generation_ != generation; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t parties_;
  size_t waiting_ = 0;
  size_t generation_ = 0;
};

enum class Verb { kSolve, kEval, kDual, kAppend };

/// One request of the script and what came back.
struct Op {
  Verb verb = Verb::kSolve;
  size_t phase = 0;
  size_t k = 0;  // SOLVE/EVAL: k; DUAL: max_size
  std::string sent_ids;  // EVAL: the ids it asked about
  double start = 0.0;    // seconds since the process started
  double latency = 0.0;
  std::string error;  // transport failure or ERR reply
  rrr::service::Reply reply;
};

const std::string* Field(const Op& op, const char* key) {
  return op.reply.Find(key);
}

/// Ordinal of a "v<origin>.<ordinal>" version string; -1 if malformed.
long VersionOrdinal(const std::string* version) {
  if (version == nullptr) return -1;
  const size_t dot = version->find('.');
  if (dot == std::string::npos) return -1;
  return std::strtol(version->c_str() + dot + 1, nullptr, 10);
}

/// The rows appended at the start of phase `phase` (1-based), formatted so
/// that the daemon parses back exactly these doubles.
std::vector<double> AppendBatch(uint64_t seed, size_t phase) {
  std::mt19937_64 rng(SubSeed(seed, 500, phase));
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> cells(kAppendRows * kDims);
  for (double& c : cells) c = unit(rng);
  return cells;
}

std::string AppendLine(const std::string& name,
                       const std::vector<double>& cells) {
  std::string line = "APPEND name=" + name + " rows=";
  char buf[40];
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) line += (i % kDims == 0) ? ";" : ",";
    std::snprintf(buf, sizeof(buf), "%.17g", cells[i]);
    line += buf;
  }
  return line;
}

/// Sends one request, timing it from the client side.
Op Send(rrr::service::LineClient* client, Verb verb, size_t phase, size_t k,
        const std::string& line) {
  Op op;
  op.verb = verb;
  op.phase = phase;
  op.k = k;
  op.start = SecondsSinceStart();
  rrr::Stopwatch clock;
  auto reply = client->Request(line);
  op.latency = clock.ElapsedSeconds();
  if (!reply.ok()) {
    op.error = reply.status().ToString();
  } else if (!reply->ok) {
    op.error = "ERR code=" + reply->code + " msg=" + reply->msg;
  } else {
    op.reply = std::move(reply).value();
  }
  return op;
}

/// The request script of connection `conn` for one phase.
void RunPhase(rrr::service::LineClient* client, const std::string& name,
              size_t conn, size_t phase, std::vector<Op>* ops) {
  for (size_t j = 0; j < kSolveKs.size(); ++j) {
    const size_t k = kSolveKs[(conn + j) % kSolveKs.size()];
    Op solve = Send(client, Verb::kSolve, phase, k,
                    "SOLVE name=" + name + " k=" + std::to_string(k));
    const std::string* ids = Field(solve, "ids");
    const bool solved = solve.error.empty() && ids != nullptr;
    const std::string eval_line = solved ? "EVAL name=" + name + " ids=" +
                                               *ids + " k=" +
                                               std::to_string(k)
                                         : "";
    ops->push_back(std::move(solve));
    if (solved) {
      ops->push_back(Send(client, Verb::kEval, phase, k, eval_line));
      ops->back().sent_ids = *ops->at(ops->size() - 2).reply.Find("ids");
    } else {
      Op skipped;
      skipped.verb = Verb::kEval;
      skipped.phase = phase;
      skipped.k = k;
      skipped.error = "not sent: its SOLVE failed";
      ops->push_back(std::move(skipped));
    }
  }
  if (conn == 0 && phase == kPhases - 1) {
    ops->push_back(Send(client, Verb::kDual, phase, kDualMaxSize,
                        "DUAL name=" + name +
                            " max_size=" + std::to_string(kDualMaxSize)));
  }
}

/// REGISTERs `name` and polls STATUS until READY; returns the seconds it
/// took, or a negative value on failure (`error` says why).
double Register(rrr::service::LineClient* client, const std::string& name,
                uint64_t data_seed, std::string* error) {
  rrr::Stopwatch clock;
  auto reg = client->Request("REGISTER name=" + name + " gen=uniform n=" +
                             std::to_string(kBaseRows) +
                             " d=" + std::to_string(kDims) +
                             " seed=" + std::to_string(data_seed) +
                             " dynamic=1");
  if (!reg.ok() || !reg->ok) {
    *error = "REGISTER failed";
    return -1.0;
  }
  while (clock.ElapsedSeconds() < 60.0) {
    auto status = client->Request("STATUS name=" + name);
    if (!status.ok() || !status->ok) {
      *error = "STATUS failed";
      return -1.0;
    }
    const std::string* state = status->Find("state");
    if (state != nullptr && *state == "READY") return clock.ElapsedSeconds();
    if (state != nullptr && *state == "FAILED") {
      *error = "dataset prepare FAILED";
      return -1.0;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  *error = "dataset not READY within 60 s";
  return -1.0;
}

double StatsValue(const std::map<std::string, std::string>& stats,
                  const char* key) {
  auto it = stats.find(key);
  return it == stats.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

/// The rows of every version a round reads, for the oracle.
struct Versions {
  std::vector<std::vector<double>> rows;  // index = phase
};

Versions BuildVersions(uint64_t data_seed, uint64_t seed) {
  Versions v;
  const rrr::data::Dataset base =
      rrr::data::GenerateUniform(kBaseRows, kDims, data_seed);
  std::vector<double> cells(base.flat(), base.flat() + base.size() * kDims);
  v.rows.push_back(cells);
  for (size_t p = 1; p < kPhases; ++p) {
    const std::vector<double> batch = AppendBatch(seed, p);
    cells.insert(cells.end(), batch.begin(), batch.end());
    v.rows.push_back(cells);
  }
  return v;
}

std::vector<int32_t> ParseIds(const std::string* text) {
  std::vector<int32_t> ids;
  if (text == nullptr) return ids;
  std::stringstream in(*text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) ids.push_back(static_cast<int32_t>(std::stol(item)));
  }
  return ids;
}

/// Canonical identity of an op's answer, compared across connections and
/// rounds (memo hits and recomputes must agree exactly).
std::string AnswerKey(const Op& op) {
  auto get = [&](const char* key) {
    const std::string* v = Field(op, key);
    return v == nullptr ? std::string("-") : *v;
  };
  switch (op.verb) {
    case Verb::kSolve:
      return get("ids");
    case Verb::kEval:
      return get("rank_regret");
    case Verb::kDual:
      return get("k") + "/" + get("ids");
    case Verb::kAppend:
      return get("appended");
  }
  return "";
}

/// Checks one round-0 answer against the oracle; returns the problems.
std::vector<std::string> CheckOp(const Op& op, const Versions& versions,
                                 const std::vector<oracle::Weights>& own,
                                 const std::vector<oracle::Weights>& eval_prefix,
                                 size_t threads) {
  std::vector<std::string> problems;
  const std::string where = "phase " + std::to_string(op.phase) + " k=" +
                            std::to_string(op.k) + ": ";
  const std::vector<double>& cells = versions.rows[op.phase];
  const oracle::Rows rows{cells.data(), cells.size() / kDims, kDims};
  auto bound_check = [&](const std::vector<int32_t>& ids, size_t k,
                         const std::string* algorithm) {
    if (algorithm != nullptr && *algorithm == "MAXIMA") {
      if (oracle::Top1Misses(rows, ids, own, threads) != 0) {
        problems.push_back(where + "MAXIMA misses a top-1 row");
      }
      return;
    }
    const int64_t bound = static_cast<int64_t>(kDims * k);
    const int64_t rank = oracle::MaxMinRank(rows, ids, own, threads);
    if (rank > bound) {
      problems.push_back(where + "rank " + std::to_string(rank) +
                         " above d*k=" + std::to_string(bound));
    }
  };
  const long ordinal = VersionOrdinal(Field(op, "version"));
  switch (op.verb) {
    case Verb::kSolve:
      if (ordinal != static_cast<long>(op.phase)) {
        problems.push_back(where + "SOLVE answered another version");
      }
      bound_check(ParseIds(Field(op, "ids")), op.k, Field(op, "algorithm"));
      break;
    case Verb::kDual: {
      const std::vector<int32_t> ids = ParseIds(Field(op, "ids"));
      const std::string* k = Field(op, "k");
      if (ids.size() > kDualMaxSize || k == nullptr) {
        problems.push_back(where + "DUAL output above its size budget");
        break;
      }
      bound_check(ids, std::stoul(*k), Field(op, "algorithm"));
      break;
    }
    case Verb::kEval: {
      if (ordinal != static_cast<long>(op.phase)) {
        problems.push_back(where + "EVAL answered another version");
      }
      // The estimate is a max over the evaluator's functions: at least the
      // oracle's rank over their leading ones, at most MDRC's d*k bound.
      const std::string* rank = Field(op, "rank_regret");
      const int64_t reported = rank == nullptr ? -1 : std::stoll(*rank);
      const int64_t prefix = oracle::MaxMinRank(
          rows, ParseIds(&op.sent_ids), eval_prefix, threads);
      if (reported < prefix ||
          reported > static_cast<int64_t>(kDims * op.k)) {
        problems.push_back(where + "EVAL rank_regret " +
                           std::to_string(reported) + " outside [" +
                           std::to_string(prefix) + ", d*k]");
      }
      break;
    }
    case Verb::kAppend: {
      const std::string* appended = Field(op, "appended");
      if (appended == nullptr || *appended != std::to_string(kAppendRows) ||
          ordinal != static_cast<long>(op.phase)) {
        problems.push_back(where + "APPEND reply does not match the batch");
      }
      break;
    }
  }
  return problems;
}

}  // namespace

void KillDaemonNow() {
  const int pid = g_daemon_pid.exchange(0);
  if (pid > 0) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
}

RunResult RunServiceMixed(const RunArgs& args) {
  RunResult result;
  RunTally tally;
  SpanLog spans;
  const size_t connections = std::min(kConnections, args.threads);

  Daemon daemon;
  const std::string log_path = args.work_dir + "/serverd-" + args.workload +
                               "-seed" + std::to_string(args.seed) + ".log";
  const std::string started = daemon.Start(args.serverd, log_path, kServerWorkers);
  if (!started.empty()) {
    result.correct = false;
    result.problems.push_back(started);
    return result;
  }
  std::vector<std::unique_ptr<rrr::service::LineClient>> clients;
  for (size_t c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<rrr::service::LineClient>());
    const rrr::Status connected =
        clients.back()->Connect("127.0.0.1", daemon.port());
    if (!connected.ok()) {
      result.correct = false;
      result.problems.push_back("connect: " + connected.ToString());
      return result;
    }
  }
  rrr::service::LineClient* control = clients[0].get();

  // Set-up ends when the first round's dataset is READY.
  std::string error;
  std::string name = "r0";
  uint64_t data_seed = SubSeed(args.seed, 0, 0);
  const double first_prepare = Register(control, name, data_seed, &error);
  if (first_prepare < 0.0) {
    result.correct = false;
    result.problems.push_back(error);
    return result;
  }
  const double setup_s = SecondsSinceStart();
  if (args.trace) tally.AddLayer("registry.prepare_s", first_prepare);

  const std::vector<oracle::Weights> eval_prefix = [&] {
    rrr::Rng rng(rrr::core::SampledRegretOptions().seed);
    std::vector<oracle::Weights> out;
    for (size_t i = 0; i < kEvalPrefixFunctions; ++i) {
      out.push_back(rng.UnitWeightVector(static_cast<int>(kDims)));
    }
    return out;
  }();

  // Answers of the round, checked by the oracle once per request kind;
  // every other request of the same kind must give the same answer.
  std::map<std::string, std::string> first_answers;
  std::map<std::string, std::vector<std::string>> checked;
  std::vector<double> cache_bytes;  // STATS cache_bytes at each round's end
  double verb_seconds[4] = {0.0, 0.0, 0.0, 0.0};  // indexed by Verb
  size_t round = 0;
  uint64_t op_id = 1;
  while (tally.rounds() == 0 || tally.measured_seconds() < args.seconds ||
         tally.attempted() < kMinOpsPerRun) {
    if (round > 0) {
      const std::string previous = name;
      name = "r" + std::to_string(round);
      data_seed = SubSeed(args.seed, round, 0);
      const double prepare = Register(control, name, data_seed, &error);
      if (prepare < 0.0) {
        result.correct = false;
        result.problems.push_back(error);
        break;
      }
      if (args.trace) tally.AddLayer("registry.prepare_s", prepare);
      control->Request("UNREGISTER name=" + previous);
    }
    const Versions versions = BuildVersions(data_seed, args.seed);
    const std::vector<oracle::Weights> own =
        oracle::OwnFunctions(kDims, kOwnFunctions, SubSeed(data_seed, 7, 7));
    first_answers.clear();
    checked.clear();
    auto stats_before = control->RequestStats();

    // Measured: the request script on every connection.
    tally.BeginRound();
    std::vector<std::vector<Op>> ops(connections);
    Barrier barrier(connections);
    rrr::Stopwatch round_clock;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        for (size_t phase = 0; phase < kPhases; ++phase) {
          if (phase > 0 && c == 0) {
            ops[c].push_back(Send(clients[c].get(), Verb::kAppend, phase,
                                  kAppendRows,
                                  AppendLine(name, AppendBatch(args.seed,
                                                               phase))));
          }
          barrier.Wait();
          RunPhase(clients[c].get(), name, c, phase, &ops[c]);
          barrier.Wait();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall = round_clock.ElapsedSeconds();

    auto stats_after = control->RequestStats();
    auto status = control->Request("STATUS name=" + name);
    const std::string* rows =
        status.ok() && status->ok ? status->Find("rows") : nullptr;
    const std::string expected_rows =
        std::to_string(kBaseRows + (kPhases - 1) * kAppendRows);
    if (rows == nullptr || *rows != expected_rows) {
      result.correct = false;
      result.problems.push_back("STATUS rows " + (rows ? *rows : "-") +
                                " != base rows plus appended rows " +
                                expected_rows);
    }
    if (stats_before.ok() && stats_after.ok()) {
      cache_bytes.push_back(StatsValue(*stats_after, "cache_bytes"));
      if (args.trace) {
        for (const char* key : {"memo_hits", "queries_total",
                                "blocks_scanned", "blocks_skipped"}) {
          const double delta =
              StatsValue(*stats_after, key) - StatsValue(*stats_before, key);
          const std::string layer = std::string(key) == "queries_total"
                                        ? "service.queries"
                                        : "service." + std::string(key);
          tally.AddLayer(layer, delta);
        }
      }
    } else {
      result.correct = false;
      result.problems.push_back("STATS failed");
    }

    // Checks, outside the measured time; then the round is committed.
    for (size_t c = 0; c < connections; ++c) {
      for (const Op& op : ops[c]) {
        std::vector<std::string> problems;
        if (!op.error.empty()) {
          problems.push_back(op.error);
        } else {
          const std::string key = std::to_string(static_cast<int>(op.verb)) +
                                  "/" + std::to_string(op.phase) + "/" +
                                  std::to_string(op.k);
          auto first = first_answers.find(key);
          if (first == first_answers.end()) {
            first_answers[key] = AnswerKey(op);
            checked[key] = CheckOp(op, versions, own, eval_prefix, args.threads);
          } else if (first->second != AnswerKey(op)) {
            problems.push_back("answer of " + key + " differs across requests");
          }
          for (const std::string& p : checked[key]) problems.push_back(p);
        }
        const bool failed = !problems.empty();
        const OpKind kind = op.verb == Verb::kEval     ? OpKind::kEval
                            : op.verb == Verb::kAppend ? OpKind::kWrite
                                                       : OpKind::kSolve;
        tally.AddOp(kind, op.latency, failed);
        verb_seconds[static_cast<size_t>(op.verb)] += op.latency;
        if (args.trace && !failed) {
          spans.Add(op.verb == Verb::kAppend ? "service.append"
                                             : "service.request",
                    op_id++, -1, op.start, op.start + op.latency);
          if (op.verb == Verb::kAppend) {
            tally.AddLayer("service.append_ms", 1e3 * op.latency);
          }
          const std::string* seconds = Field(op, "seconds");
          if (seconds != nullptr) {
            const double engine = std::strtod(seconds->c_str(), nullptr);
            tally.AddLayer("service.engine_s", engine);
            tally.AddLayer("service.overhead_ms", 1e3 * (op.latency - engine));
          }
        }
        for (std::string& p : problems) result.problems.push_back(std::move(p));
      }
    }
    tally.EndRound(wall);
    ++round;
  }

  std::fprintf(stderr,
               "per-verb latency sums over %zu rounds: SOLVE %.4f s, EVAL "
               "%.4f s, DUAL %.4f s, APPEND %.4f s\n",
               tally.rounds(), verb_seconds[0], verb_seconds[1],
               verb_seconds[2], verb_seconds[3]);
  const double peak_rss = PeakRssMb(daemon.pid());
  daemon.Stop();
  result.attempted = tally.attempted();
  result.failed = tally.failed();
  std::fputs(tally.RoundSummary().c_str(), stderr);
  const std::vector<Metric> e2e =
      EndToEndMetrics(tally, setup_s, peak_rss, Mean(cache_bytes) / 1e6);
  if (args.trace) {
    result.traced_end_to_end = e2e;
    result.metrics = PerLayerMetrics(tally);
    const std::string path = args.work_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".jsonl";
    if (!spans.Write(path)) {
      result.problems.push_back("could not write the span log " + path);
    }
  } else {
    result.metrics = e2e;
  }
  return result;
}

}  // namespace perfbench
