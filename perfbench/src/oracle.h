#ifndef RRR_PERFBENCH_ORACLE_H_
#define RRR_PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {
namespace oracle {

/// \brief The benchmark's own output checker, written apart from the
/// library: a naive scoring loop (ascending attribute order, a multiply
/// then an add, built with -ffp-contract=off) and the library's tie order
/// (score descending, then id ascending). It shares no scoring, top-k or
/// rank code with the program it checks.

/// Row-major rows an output is checked against.
struct Rows {
  const double* cells = nullptr;
  size_t n = 0;
  size_t d = 0;
};

using Weights = std::vector<double>;

/// The oracle's own ranking functions: the d axis endpoints, the diagonal,
/// and `count` seeded random nonnegative weight vectors.
std::vector<Weights> OwnFunctions(size_t d, size_t count, uint64_t seed);

/// Score of row `i` under `w`: sum over j ascending of w[j] * row[j].
double Score(const Rows& rows, const Weights& w, size_t i);

/// Largest, over `functions`, of the rank of the best member of `subset`
/// (rank 1 is the top). Returns rows.n + 1 if `subset` is empty or holds
/// an id outside the rows. Fans the functions out over `threads` threads.
int64_t MaxMinRank(const Rows& rows, const std::vector<int32_t>& subset,
                   const std::vector<Weights>& functions, size_t threads);

/// The top-1 row under `w` in the library's tie order.
int32_t Top1(const Rows& rows, const Weights& w);

/// Number of `functions` whose top-1 is not in `subset` (sorted ids).
size_t Top1Misses(const Rows& rows, const std::vector<int32_t>& subset,
                  const std::vector<Weights>& functions, size_t threads);

}  // namespace oracle
}  // namespace perfbench

#endif  // RRR_PERFBENCH_ORACLE_H_
