// The two library workloads, md-mdrc and 2d-ksets.
//
// Each operation is cold and one-shot: the prepared dataset's shared
// artifacts are evicted and a fresh RrrEngine answers one Solve, followed by
// one Evaluate of its output. The traced run performs the same work by
// calling each layer's public function from here, timing every call as a
// span; src/ carries no tracing of its own.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/candidate_index.h"
#include "core/engine.h"
#include "core/evaluator.h"
#include "core/find_ranges.h"
#include "core/kset_sampler.h"
#include "core/mdrc.h"
#include "core/mdrrr.h"
#include "core/prepared_dataset.h"
#include "core/sweep.h"
#include "data/column_blocks.h"
#include "data/generators.h"
#include "geometry/angles.h"
#include "hitting/interval_cover.h"
#include "oracle.h"
#include "perfbench.h"
#include "topk/score_kernel.h"
#include "topk/topk.h"

namespace perfbench {
namespace {

namespace core = rrr::core;
namespace data = rrr::data;
using core::Algorithm;

/// Safety valve per operation; a query past it counts as failed.
constexpr double kOpDeadlineSeconds = 60.0;
/// Random functions the oracle draws per check, beside the axis endpoints
/// and the diagonal.
constexpr size_t kOwnFunctions = 256;
/// Leading functions of the sampled evaluator the oracle replays on the
/// md-mdrc data, where replaying all of them would cost seconds per check.
constexpr size_t kEvalPrefixFunctions = 256;
/// Evaluator functions the traced run's topk.scan probe replays per query.
constexpr size_t kScanProbeFunctions = 64;

enum class Gen { kDot, kBn, kUniform, kCorrelated };

struct QuerySpec {
  const char* label;
  Gen gen;
  size_t n;
  size_t d;
  Algorithm algorithm;
  size_t k;
  /// Non-zero: the data seed, the same in every group and every run.
  uint64_t fixed_seed = 0;
};

// md-mdrc: MDRC on DOT- and BN-like data at n = 100k, d = 3..5, k between
// 0.2% and 1% of n (paper Figs. 17-28), plus a correlated d = 4 set on
// which the k-skyband candidate index accepts.
const std::vector<QuerySpec> kMdMdrcQueries = {
    {"bn-d3", Gen::kBn, 100000, 3, Algorithm::kMdRc, 200},
    {"bn-d4", Gen::kBn, 100000, 4, Algorithm::kMdRc, 500},
    {"bn-d5", Gen::kBn, 100000, 5, Algorithm::kMdRc, 200},
    {"dot-d3", Gen::kDot, 100000, 3, Algorithm::kMdRc, 1000},
    {"dot-d4", Gen::kDot, 100000, 4, Algorithm::kMdRc, 500},
    {"dot-d5", Gen::kDot, 100000, 5, Algorithm::kMdRc, 1000},
    {"correlated-d4", Gen::kCorrelated, 100000, 4, Algorithm::kMdRc, 200},
};

// 2d-ksets: 2DRRR on DOT-like d = 2 with the exact 2D evaluator, over a
// ladder of n as in Figs. 9-12; MDRRR over K-SETr on DOT-like d = 3 at small
// n (Figs. 13-20), both with k = 1% of n; and the exact convex maxima at
// k = 1. No MDRC runs here. Every round runs the whole ladder, so the
// latencies of a round spread over many sizes and their percentiles do not
// sit on the gap between two query kinds. All 2D sizes stay below the
// candidate index's min_dataset_size, so FindRanges sweeps every row.
//
// The DOT-like maxima query fails the oracle's top-1 check on most data
// seeds: rows tie at the maximum of a column, and MAXIMA lacks the tied row
// that the library's tie order ranks first under that axis function. It
// runs on data that does not depend on --seed, so it fails in every run and
// the failed share of every run is the same.
const std::vector<QuerySpec> kTwoDKsetsQueries = {
    {"dot-d2-n800", Gen::kDot, 800, 2, Algorithm::k2dRrr, 8},
    {"dot-d2-n1000", Gen::kDot, 1000, 2, Algorithm::k2dRrr, 10},
    {"dot-d2-n1200", Gen::kDot, 1200, 2, Algorithm::k2dRrr, 12},
    {"dot-d2-n1400", Gen::kDot, 1400, 2, Algorithm::k2dRrr, 14},
    {"dot-d2-n1600", Gen::kDot, 1600, 2, Algorithm::k2dRrr, 16},
    {"dot-d2-n1800", Gen::kDot, 1800, 2, Algorithm::k2dRrr, 18},
    {"dot-d2-n2000", Gen::kDot, 2000, 2, Algorithm::k2dRrr, 20},
    {"dot-d3-n2000", Gen::kDot, 2000, 3, Algorithm::kMdRrr, 20},
    {"dot-d3-n3500", Gen::kDot, 3500, 3, Algorithm::kMdRrr, 35},
    {"dot-d3-n5000", Gen::kDot, 5000, 3, Algorithm::kMdRrr, 50},
    {"correlated-d4-maxima", Gen::kCorrelated, 4000, 4,
     Algorithm::kConvexMaxima, 1},
    {"dot-d4-maxima", Gen::kDot, 2000, 4, Algorithm::kConvexMaxima, 1, 1},
};

data::Dataset Generate(const QuerySpec& q, uint64_t seed) {
  switch (q.gen) {
    case Gen::kDot:
      return data::GenerateDotLike(q.n, seed).ProjectPrefix(q.d);
    case Gen::kBn:
      return data::GenerateBnLike(q.n, seed).ProjectPrefix(q.d);
    case Gen::kUniform:
      return data::GenerateUniform(q.n, q.d, seed);
    case Gen::kCorrelated:
      return data::GenerateCorrelated(q.n, q.d, seed);
  }
  return data::Dataset();
}

/// Why the Solve and the Evaluate of one output fail their checks (both
/// empty when they pass).
struct Verdict {
  std::vector<std::string> solve;
  std::vector<std::string> eval;
};

/// One dataset of the workload and the query it answers.
struct Instance {
  QuerySpec spec;
  uint64_t data_seed = 0;
  std::shared_ptr<const core::PreparedDataset> prepared;
  /// Traced run, d == 2: the sweep the benchmark built and timed itself.
  std::unique_ptr<core::AngularSweep> sweep;
  /// The first round's output, which the oracle checked; later rounds must
  /// reproduce it exactly.
  bool have_first = false;
  std::vector<int32_t> first_rep;
  int64_t first_eval = 0;
  Verdict first_verdict;
};

/// Output of one Solve + Evaluate pair.
struct QueryOutput {
  std::string error;  // empty when both calls succeeded
  bool solved = false;
  double solve_s = 0.0;
  double eval_s = 0.0;
  std::vector<int32_t> rep;
  int64_t eval_rank = 0;
  size_t samples_drawn = 0;  // MDRRR: K-SETr draws behind the output
};

rrr::ExecContext OpContext() {
  rrr::ExecContext ctx;
  ctx.deadline = rrr::Deadline::After(kOpDeadlineSeconds);
  return ctx;
}

QueryOutput RunEngine(const Instance& inst, size_t threads) {
  QueryOutput out;
  inst.prepared->EvictSharedArtifacts();
  core::EngineOptions options;
  options.defaults.threads = threads;
  auto engine = core::RrrEngine::Create(inst.prepared, options);
  if (!engine.ok()) {
    out.error = engine.status().ToString();
    return out;
  }
  core::QueryOptions query;
  query.algorithm = inst.spec.algorithm;
  query.exec = OpContext();
  rrr::Stopwatch clock;
  auto solved = (*engine)->Solve(inst.spec.k, query);
  out.solve_s = clock.ElapsedSeconds();
  if (!solved.ok()) {
    out.error = "solve: " + solved.status().ToString();
    return out;
  }
  out.solved = true;
  out.rep = solved->representative;
  out.samples_drawn = solved->diagnostics.sampler_samples_drawn;
  query.exec = OpContext();
  clock.Restart();
  auto report = (*engine)->Evaluate(out.rep, inst.spec.k, query);
  out.eval_s = clock.ElapsedSeconds();
  if (!report.ok()) {
    out.error = "evaluate: " + report.status().ToString();
    return out;
  }
  out.eval_rank = report->rank_regret;
  return out;
}

/// Times calls into single layers as spans of one operation.
class LayerTimer {
 public:
  LayerTimer(SpanLog* log, RunTally* tally, uint64_t op)
      : log_(log), tally_(tally), op_(op) {}

  /// Runs fn() as span `name` under `parent`; its duration is added to the
  /// per-layer key "<name>_s".
  template <typename Fn>
  auto Time(const std::string& name, int parent, Fn&& fn) {
    const int span = log_->Begin(name, op_, parent);
    auto result = fn();
    tally_->AddLayer(name + "_s", log_->End(span));
    return result;
  }
  void Count(const std::string& key, double value) {
    tally_->AddLayer(key, value);
  }
  int Begin(const std::string& name) { return log_->Begin(name, op_, -1); }
  double End(int span) { return log_->End(span); }

 private:
  SpanLog* log_;
  RunTally* tally_;
  uint64_t op_;
};

/// The shared artifacts an engine query would fetch, built by the traced
/// run itself (the columnar mirror, then the k-skyband candidate index).
struct TracedArtifacts {
  bool built = false;
  data::ColumnBlocks blocks;
  std::shared_ptr<const core::CandidateIndex> candidates;
};

std::string BuildArtifacts(const data::Dataset& ds, size_t k, size_t threads,
                           int parent, LayerTimer* layers,
                           TracedArtifacts* art) {
  if (art->built) return "";
  const rrr::ExecContext ctx = OpContext();
  auto blocks = layers->Time("data.column_blocks_build", parent, [&] {
    return data::ColumnBlocks::Build(ds, threads, ctx);
  });
  if (!blocks.ok()) return "column blocks: " + blocks.status().ToString();
  art->blocks = std::move(blocks).value();
  core::CandidateIndexOptions options =
      core::PreparedDataset::Options().candidate;
  options.threads = threads;
  auto outcome = layers->Time("core.candidate_index_build", parent, [&] {
    return core::CandidateIndex::Create(ds, std::min(k, ds.size()), options,
                                        ctx, nullptr, &art->blocks);
  });
  if (!outcome.ok()) return "candidate index: " + outcome.status().ToString();
  art->candidates = outcome->index;
  layers->Count("core.skyband_rows",
                art->candidates ? static_cast<double>(
                                      art->candidates->band_size())
                                : 0.0);
  art->built = true;
  return "";
}

/// Solve2dRrr's steps, each layer call timed on its own.
rrr::Result<std::vector<int32_t>> TracedSolve2d(
    const data::Dataset& ds, size_t k, const core::AngularSweep* sweep,
    const TracedArtifacts& art, int parent, LayerTimer* layers) {
  const rrr::ExecContext ctx = OpContext();
  auto ranges = layers->Time("core.find_ranges", parent, [&] {
    return core::FindRanges(ds, k, ctx, sweep, art.candidates.get());
  });
  if (!ranges.ok()) return ranges.status();
  std::vector<rrr::hitting::Interval> intervals;
  for (size_t id = 0; id < ranges->size(); ++id) {
    const core::ItemRange& r = (*ranges)[id];
    if (r.in_topk) {
      intervals.push_back({r.begin, r.end, static_cast<int32_t>(id)});
    }
  }
  auto cover = layers->Time("hitting.cover_line", parent, [&] {
    return rrr::hitting::CoverLine(intervals, 0.0, rrr::geometry::kHalfPi,
                                   core::Rrr2dOptions().cover);
  });
  if (!cover.ok()) return cover.status();
  std::vector<int32_t> rep = std::move(cover).value();
  // The endpoint patch of Solve2dRrr: each axis function's top-k must hold
  // a chosen item.
  for (const auto& axis : {rrr::geometry::Vec{1.0, 0.0},
                           rrr::geometry::Vec{0.0, 1.0}}) {
    const rrr::topk::LinearFunction f(axis);
    const std::vector<int32_t> top =
        art.candidates ? art.candidates->TopK(f, k)
                       : rrr::topk::TopK(ds, f, k, &art.blocks);
    const bool hit = std::any_of(rep.begin(), rep.end(), [&](int32_t id) {
      return std::find(top.begin(), top.end(), id) != top.end();
    });
    if (!hit) rep.push_back(top.front());
  }
  std::sort(rep.begin(), rep.end());
  rep.erase(std::unique(rep.begin(), rep.end()), rep.end());
  return rep;
}

std::vector<oracle::Weights> ReplayUnitWeights(uint64_t seed, size_t d,
                                               size_t count) {
  rrr::Rng rng(seed);
  std::vector<oracle::Weights> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(rng.UnitWeightVector(static_cast<int>(d)));
  }
  return out;
}

QueryOutput RunTraced(Instance& inst, size_t threads, uint64_t op,
                      SpanLog* log, RunTally* tally) {
  QueryOutput out;
  LayerTimer layers(log, tally, op);
  const data::Dataset& ds = inst.prepared->dataset();
  const size_t k = inst.spec.k;
  TracedArtifacts art;
  const rrr::ExecContext ctx = OpContext();

  const int solve_span = layers.Begin("op.solve");
  rrr::Result<std::vector<int32_t>> rep = std::vector<int32_t>();
  switch (inst.spec.algorithm) {
    case Algorithm::kMdRc: {
      out.error = BuildArtifacts(ds, k, threads, solve_span, &layers, &art);
      if (!out.error.empty()) break;
      core::CornerTopKCache cache(
          ds, core::PreparedDataset::Options().max_corner_cache_entries);
      core::MdrcOptions options;
      options.threads = threads;
      core::MdrcStats stats;
      rep = layers.Time("core.mdrc", solve_span, [&] {
        return core::SolveMdrc(ds, k, options, &stats, ctx, &cache,
                               art.candidates.get(), &art.blocks);
      });
      layers.Count("core.mdrc_nodes", static_cast<double>(stats.nodes));
      layers.Count("core.mdrc_corner_evals",
                   static_cast<double>(stats.corner_evals));
      layers.Count("core.mdrc_corner_hits",
                   static_cast<double>(stats.cache_hits));
      break;
    }
    case Algorithm::k2dRrr:
      out.error = BuildArtifacts(ds, k, threads, solve_span, &layers, &art);
      if (!out.error.empty()) break;
      rep = TracedSolve2d(ds, k, inst.sweep.get(), art, solve_span, &layers);
      break;
    case Algorithm::kMdRrr: {
      out.error = BuildArtifacts(ds, k, threads, solve_span, &layers, &art);
      if (!out.error.empty()) break;
      core::KSetSamplerOptions sampler;
      sampler.threads = threads;
      auto sample = layers.Time("core.kset_sample", solve_span, [&] {
        return core::SampleKSets(ds, k, sampler, ctx, art.candidates.get(),
                                 art.candidates ? nullptr : &art.blocks);
      });
      if (!sample.ok()) {
        rep = sample.status();
        break;
      }
      out.samples_drawn = sample->samples_drawn;
      layers.Count("core.kset_draws",
                   static_cast<double>(sample->samples_drawn));
      layers.Count("core.kset_found",
                   static_cast<double>(sample->ksets.size()));
      rep = layers.Time("hitting.epsnet", solve_span, [&] {
        return core::SolveMdrrr(ds, sample->ksets, core::MdrrrOptions(), ctx);
      });
      break;
    }
    case Algorithm::kConvexMaxima: {
      inst.prepared->EvictSharedArtifacts();
      auto sky = layers.Time("core.skyline", solve_span, [&] {
        return inst.prepared->SharedSkyline(ctx);
      });
      if (!sky.ok()) {
        rep = sky.status();
        break;
      }
      layers.Count("core.skyline_rows", static_cast<double>((*sky)->size()));
      auto maxima = layers.Time("lp.maxima", solve_span, [&] {
        return inst.prepared->SharedConvexMaxima(threads, ctx);
      });
      if (!maxima.ok()) {
        rep = maxima.status();
        break;
      }
      rep = **maxima;
      break;
    }
    case Algorithm::kAuto:
      rep = rrr::Status::InvalidArgument("unresolved algorithm");
      break;
  }
  out.solve_s = layers.End(solve_span);
  if (out.error.empty() && !rep.ok()) out.error = rep.status().ToString();
  if (!out.error.empty()) {
    out.error = "solve: " + out.error;
    return out;
  }
  out.solved = true;
  out.rep = std::move(rep).value();

  const int eval_span = layers.Begin("op.eval");
  rrr::Result<int64_t> rank = int64_t{0};
  if (ds.dims() == 2) {
    rank = layers.Time("eval.exact2d", eval_span, [&] {
      return core::SweepExactRankRegret2D(ds, out.rep, OpContext(),
                                          inst.sweep.get());
    });
  } else {
    out.error = BuildArtifacts(ds, k, threads, eval_span, &layers, &art);
    if (out.error.empty()) {
      core::SampledRegretOptions options;
      options.threads = threads;
      core::SampledRegretStats stats;
      rank = layers.Time("eval.sampled", eval_span, [&] {
        return core::SampledRankRegretEstimate(ds, out.rep, options,
                                               OpContext(),
                                               art.candidates.get(), &stats,
                                               &art.blocks);
      });
    }
  }
  out.eval_s = layers.End(eval_span);
  if (out.error.empty() && !rank.ok()) out.error = rank.status().ToString();
  if (!out.error.empty()) {
    out.error = "evaluate: " + out.error;
    return out;
  }
  out.eval_rank = *rank;

  return out;
}

/// The scan kernel alone (topk.scan), outside the measured operations:
/// TopKScan over the instance's columnar mirror for the leading functions
/// the sampled evaluator scores, with block skipping as the engine runs it.
void ScanProbe(const Instance& inst, size_t threads, uint64_t op,
               SpanLog* log, RunTally* tally) {
  const data::Dataset& ds = inst.prepared->dataset();
  auto blocks = data::ColumnBlocks::Build(ds, threads);
  if (!blocks.ok()) return;
  const std::vector<oracle::Weights> functions = ReplayUnitWeights(
      core::SampledRegretOptions().seed, ds.dims(), kScanProbeFunctions);
  std::vector<rrr::topk::LinearFunction> linear;
  for (const oracle::Weights& w : functions) linear.emplace_back(w);
  rrr::topk::ScanStats stats;
  LayerTimer layers(log, tally, op);
  layers.Time("topk.scan", -1, [&] {
    for (const rrr::topk::LinearFunction& f : linear) {
      rrr::topk::TopKScan(*blocks, f, inst.spec.k, rrr::topk::BlockSkip::kAuto,
                          &stats);
    }
    return 0;
  });
  layers.Count("topk.blocks_scanned", static_cast<double>(stats.blocks_scanned));
  layers.Count("topk.blocks_skipped", static_cast<double>(stats.blocks_skipped));
}

/// Checks one output against the oracle and the method's own bound.
Verdict CheckWithOracle(const Instance& inst, const QueryOutput& out,
                        size_t threads) {
  Verdict verdict;
  const data::Dataset& ds = inst.prepared->dataset();
  const oracle::Rows rows{ds.flat(), ds.size(), ds.dims()};
  const size_t d = ds.dims();
  const int64_t k = static_cast<int64_t>(inst.spec.k);
  const std::vector<oracle::Weights> own =
      oracle::OwnFunctions(d, kOwnFunctions, SubSeed(inst.data_seed, 7, 7));
  const core::SampledRegretOptions eval_options;
  const std::string where = std::string(inst.spec.label) + ": ";
  auto fail = [&](std::vector<std::string>* to, const std::string& what,
                  int64_t got, int64_t limit) {
    to->push_back(where + what + " (got " + std::to_string(got) +
                  ", limit " + std::to_string(limit) + ")");
  };
  std::vector<std::string>* solve = &verdict.solve;
  std::vector<std::string>* eval = &verdict.eval;

  switch (inst.spec.algorithm) {
    case Algorithm::kMdRc: {
      // Theorem 6: rank <= d * k for every function.
      const int64_t bound = static_cast<int64_t>(d) * k;
      const int64_t rank = oracle::MaxMinRank(rows, out.rep, own, threads);
      if (rank > bound) fail(solve, "MDRC rank over the oracle's functions", rank, bound);
      if (out.eval_rank > bound) fail(eval, "sampled Evaluate above d*k", out.eval_rank, bound);
      const int64_t prefix = oracle::MaxMinRank(
          rows, out.rep,
          ReplayUnitWeights(eval_options.seed, d, kEvalPrefixFunctions),
          threads);
      if (prefix > out.eval_rank) {
        fail(eval, "sampled Evaluate below the oracle on its own functions", out.eval_rank, prefix);
      }
      break;
    }
    case Algorithm::k2dRrr: {
      // Theorems 2-4: rank <= 2k; the exact evaluator is the max over all
      // functions, so no sampled function can exceed it.
      const int64_t bound = 2 * k;
      const int64_t rank = oracle::MaxMinRank(rows, out.rep, own, threads);
      if (rank > bound) fail(solve, "2DRRR rank over the oracle's functions", rank, bound);
      if (out.eval_rank > bound) fail(eval, "exact 2D rank-regret above 2k", out.eval_rank, bound);
      if (rank > out.eval_rank) fail(eval, "exact 2D rank-regret below the oracle", out.eval_rank, rank);
      break;
    }
    case Algorithm::kMdRrr: {
      // The output hits the top-k of every function the sampler drew,
      // recomputed here: its best member ranks <= k under each of them.
      const core::KSetSamplerOptions sampler;
      const int64_t rank = oracle::MaxMinRank(
          rows, out.rep, ReplayUnitWeights(sampler.seed, d, out.samples_drawn),
          threads);
      if (out.samples_drawn == 0) fail(solve, "K-SETr drew no functions", 0, 1);
      if (rank > k) fail(solve, "MDRRR misses a sampled k-set", rank, k);
      const int64_t replayed = oracle::MaxMinRank(
          rows, out.rep,
          ReplayUnitWeights(eval_options.seed, d, eval_options.num_functions),
          threads);
      if (replayed != out.eval_rank) fail(eval, "sampled Evaluate differs from the oracle", out.eval_rank, replayed);
      break;
    }
    case Algorithm::kConvexMaxima: {
      const size_t misses = oracle::Top1Misses(rows, out.rep, own, threads);
      if (misses != 0) fail(solve, "functions whose top-1 is not in MAXIMA", static_cast<int64_t>(misses), 0);
      const int64_t replayed = oracle::MaxMinRank(
          rows, out.rep,
          ReplayUnitWeights(eval_options.seed, d, eval_options.num_functions),
          threads);
      if (replayed != out.eval_rank) fail(eval, "sampled Evaluate differs from the oracle", out.eval_rank, replayed);
      break;
    }
    case Algorithm::kAuto:
      solve->push_back(where + "unresolved algorithm");
      break;
  }
  return verdict;
}

RunResult RunLibrary(const RunArgs& args,
                     const std::vector<QuerySpec>& queries, size_t groups,
                     bool topk_probe) {
  RunResult result;
  RunTally tally;
  SpanLog spans;

  // Set-up: generate, validate and prepare every dataset of every group.
  std::vector<std::vector<Instance>> group_instances(groups);
  for (size_t g = 0; g < groups; ++g) {
    for (size_t q = 0; q < queries.size(); ++q) {
      Instance inst;
      inst.spec = queries[q];
      inst.data_seed = queries[q].fixed_seed != 0 ? queries[q].fixed_seed
                                                  : SubSeed(args.seed, g, q);
      data::Dataset ds = Generate(inst.spec, inst.data_seed);
      const rrr::Status finite = ds.CheckFinite();
      auto prepared = core::PreparedDataset::Create(std::move(ds));
      if (!finite.ok() || !prepared.ok()) {
        result.correct = false;
        result.problems.push_back(std::string(inst.spec.label) +
                                  ": set-up failed: " +
                                  (finite.ok() ? prepared.status() : finite)
                                      .ToString());
        return result;
      }
      inst.prepared = std::move(prepared).value();
      if (args.trace && inst.spec.d == 2) {
        const int span = spans.Begin("core.sweep_build", 0, -1);
        inst.sweep =
            std::make_unique<core::AngularSweep>(inst.prepared->dataset());
        tally.AddLayer("core.sweep_build_s", spans.End(span));
      }
      group_instances[g].push_back(std::move(inst));
    }
  }
  const double setup_s = SecondsSinceStart();

  // Measured phase: one round per group, cycling through the groups, until
  // every group ran once and both the time and the minimum operation count
  // are reached. Every round attempts the same operations on its own data.
  uint64_t op = 1;
  while (tally.rounds() < groups || tally.measured_seconds() < args.seconds ||
         tally.attempted() < kMinOpsPerRun) {
    std::vector<Instance>& instances = group_instances[tally.rounds() % groups];
    tally.BeginRound();
    std::vector<QueryOutput> outputs;
    rrr::Stopwatch round_clock;
    for (Instance& inst : instances) {
      outputs.push_back(args.trace ? RunTraced(inst, args.threads, op++,
                                               &spans, &tally)
                                   : RunEngine(inst, args.threads));
    }
    const double wall = round_clock.ElapsedSeconds();
    if (args.trace && topk_probe) {
      for (const Instance& inst : instances) {
        ScanProbe(inst, args.threads, op++, &spans, &tally);
      }
    }

    // Checks run outside the measured time, then the round is committed.
    for (size_t i = 0; i < instances.size(); ++i) {
      Instance& inst = instances[i];
      const QueryOutput& out = outputs[i];
      const std::string label = inst.spec.label;
      std::fprintf(stderr, "op %s seed %llu: solve %.4f s, eval %.4f s\n",
                   inst.spec.label,
                   static_cast<unsigned long long>(inst.data_seed),
                   out.solve_s, out.eval_s);
      Verdict verdict;
      if (!out.error.empty()) {
        (out.solved ? verdict.eval : verdict.solve)
            .push_back(label + ": " + out.error);
        if (!out.solved) verdict.eval.push_back(label + ": not evaluated");
      } else if (!inst.have_first) {
        verdict = CheckWithOracle(inst, out, args.threads);
        inst.have_first = true;
        inst.first_rep = out.rep;
        inst.first_eval = out.eval_rank;
        inst.first_verdict = verdict;
      } else {
        // Same input, same output: a group's later rounds inherit its first
        // round's verdict and must reproduce its output exactly.
        verdict = inst.first_verdict;
        if (out.rep != inst.first_rep) {
          verdict.solve.push_back(label + ": output differs from round 1");
        }
        if (out.eval_rank != inst.first_eval) {
          verdict.eval.push_back(label + ": evaluation differs from round 1");
        }
      }
      tally.AddOp(OpKind::kSolve, out.solve_s, !verdict.solve.empty());
      tally.AddOp(OpKind::kEval, out.eval_s, !verdict.eval.empty());
      for (auto* list : {&verdict.solve, &verdict.eval}) {
        for (std::string& p : *list) result.problems.push_back(std::move(p));
      }
    }
    tally.EndRound(wall);
  }

  double artifact_bytes = 0.0;
  for (const std::vector<Instance>& instances : group_instances) {
    for (const Instance& inst : instances) {
      artifact_bytes +=
          static_cast<double>(inst.prepared->ApproxArtifactBytes().total());
    }
  }
  result.attempted = tally.attempted();
  result.failed = tally.failed();
  std::fputs(tally.RoundSummary().c_str(), stderr);
  const double peak_rss = PeakRssMb(static_cast<int>(getpid()));
  const std::vector<Metric> e2e =
      EndToEndMetrics(tally, setup_s, peak_rss, artifact_bytes / 1e6);
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

}  // namespace

RunResult RunMdMdrc(const RunArgs& args) {
  return RunLibrary(args, kMdMdrcQueries, 5, /*topk_probe=*/true);
}

RunResult RunTwoDKsets(const RunArgs& args) {
  return RunLibrary(args, kTwoDKsetsQueries, 8, /*topk_probe=*/false);
}

bool OracleSelfTest(std::vector<std::string>* problems) {
  const size_t before = problems->size();
  const data::Dataset ds = data::GenerateUniform(3000, 3, 7);
  const oracle::Rows rows{ds.flat(), ds.size(), ds.dims()};
  const std::vector<oracle::Weights> own = oracle::OwnFunctions(3, 128, 5);
  constexpr size_t kK = 30;
  const int64_t bound = 3 * static_cast<int64_t>(kK);

  // A correct MDRC output passes the Theorem 6 check ...
  core::MdrcOptions options;
  options.threads = 2;
  auto rep = core::SolveMdrc(ds, kK, options);
  if (!rep.ok() || oracle::MaxMinRank(rows, *rep, own, 2) > bound) {
    problems->push_back("self-test: the oracle rejected a correct MDRC output");
  }
  // ... and a broken one, the row with the smallest attribute sum, fails.
  size_t worst = 0;
  double worst_sum = 1e300;
  for (size_t i = 0; i < ds.size(); ++i) {
    const double sum = oracle::Score(rows, oracle::Weights(3, 1.0), i);
    if (sum < worst_sum) {
      worst_sum = sum;
      worst = i;
    }
  }
  if (oracle::MaxMinRank(rows, {static_cast<int32_t>(worst)}, own, 2) <=
      bound) {
    problems->push_back("self-test: the oracle accepted a broken representative");
  }
  // The exact convex maxima pass the top-1 check; without the top row of
  // the first axis they fail it.
  auto prepared = core::PreparedDataset::Create(ds);
  if (!prepared.ok()) {
    problems->push_back("self-test: " + prepared.status().ToString());
    return false;
  }
  auto maxima = (*prepared)->SharedConvexMaxima(2);
  if (!maxima.ok() || oracle::Top1Misses(rows, **maxima, own, 2) != 0) {
    problems->push_back("self-test: the oracle rejected the exact convex maxima");
  } else {
    std::vector<int32_t> broken = **maxima;
    const int32_t top = oracle::Top1(rows, own[0]);
    broken.erase(std::remove(broken.begin(), broken.end(), top), broken.end());
    if (oracle::Top1Misses(rows, broken, own, 2) == 0) {
      problems->push_back("self-test: the oracle accepted maxima missing a top-1 row");
    }
  }
  return problems->size() == before;
}

}  // namespace perfbench
