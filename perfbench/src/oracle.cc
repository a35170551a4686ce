// Built with -ffp-contract=off (see CMakeLists.txt): Score() must round a
// multiply and an add separately, exactly as the library's contract says.

#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <thread>

namespace perfbench {
namespace oracle {
namespace {

// xorshift64* — the oracle's own generator, independent of the library's.
class OwnRng {
 public:
  explicit OwnRng(uint64_t seed) : state_(seed * 2685821657736338717ULL | 1) {}
  double Uniform() {  // in (0, 1)
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    const uint64_t bits = (state_ * 2685821657736338717ULL) >> 11;
    return (static_cast<double>(bits) + 0.5) / 9007199254740992.0;
  }

 private:
  uint64_t state_;
};

// Runs fn(index, worker) for index in [0, count) over `threads` workers.
template <typename Fn>
void ForEachFunction(size_t count, size_t threads, Fn&& fn) {
  threads = std::max<size_t>(1, std::min(threads, count));
  std::vector<std::thread> workers;
  for (size_t t = 1; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < count; i += threads) fn(i, t);
    });
  }
  for (size_t i = 0; i < count; i += threads) fn(i, 0);
  for (std::thread& w : workers) w.join();
}

// True when (sa, a) comes before (sb, b): higher score, then smaller id.
bool Before(double sa, size_t a, double sb, size_t b) {
  return sa > sb || (sa == sb && a < b);
}

}  // namespace

std::vector<Weights> OwnFunctions(size_t d, size_t count, uint64_t seed) {
  std::vector<Weights> out;
  for (size_t j = 0; j < d; ++j) {
    Weights axis(d, 0.0);
    axis[j] = 1.0;
    out.push_back(axis);
  }
  out.push_back(Weights(d, 1.0));
  OwnRng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    // Exponential coordinates: a direction uniform on the simplex.
    Weights w(d);
    for (double& x : w) x = -std::log(rng.Uniform());
    out.push_back(w);
  }
  return out;
}

double Score(const Rows& rows, const Weights& w, size_t i) {
  const double* row = rows.cells + i * rows.d;
  double s = 0.0;
  for (size_t j = 0; j < rows.d; ++j) {
    const double term = w[j] * row[j];
    s = s + term;
  }
  return s;
}

int64_t MaxMinRank(const Rows& rows, const std::vector<int32_t>& subset,
                   const std::vector<Weights>& functions, size_t threads) {
  const int64_t invalid = static_cast<int64_t>(rows.n) + 1;
  if (subset.empty()) return invalid;
  for (int32_t id : subset) {
    if (id < 0 || static_cast<size_t>(id) >= rows.n) return invalid;
  }
  std::vector<int64_t> worst(std::max<size_t>(1, threads), 0);
  std::vector<std::vector<double>> scores(worst.size(),
                                          std::vector<double>(rows.n));
  ForEachFunction(functions.size(), worst.size(), [&](size_t f, size_t t) {
    std::vector<double>& s = scores[t];
    for (size_t i = 0; i < rows.n; ++i) s[i] = Score(rows, functions[f], i);
    size_t best = static_cast<size_t>(subset[0]);
    for (int32_t id : subset) {
      const size_t u = static_cast<size_t>(id);
      if (Before(s[u], u, s[best], best)) best = u;
    }
    int64_t rank = 1;
    for (size_t i = 0; i < rows.n; ++i) {
      if (Before(s[i], i, s[best], best)) ++rank;
    }
    worst[t] = std::max(worst[t], rank);
  });
  return *std::max_element(worst.begin(), worst.end());
}

int32_t Top1(const Rows& rows, const Weights& w) {
  size_t best = 0;
  double best_score = Score(rows, w, 0);
  for (size_t i = 1; i < rows.n; ++i) {
    const double s = Score(rows, w, i);
    if (Before(s, i, best_score, best)) {
      best = i;
      best_score = s;
    }
  }
  return static_cast<int32_t>(best);
}

size_t Top1Misses(const Rows& rows, const std::vector<int32_t>& subset,
                  const std::vector<Weights>& functions, size_t threads) {
  std::vector<size_t> misses(std::max<size_t>(1, threads), 0);
  ForEachFunction(functions.size(), misses.size(), [&](size_t f, size_t t) {
    const int32_t top = Top1(rows, functions[f]);
    if (!std::binary_search(subset.begin(), subset.end(), top)) ++misses[t];
  });
  size_t total = 0;
  for (size_t m : misses) total += m;
  return total;
}

}  // namespace oracle
}  // namespace perfbench
