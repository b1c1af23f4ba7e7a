// Shared helpers of the end-to-end benchmark driver: the seeded input
// generator's RNG, clocks, sample statistics and the packed tuple form
// every output check compares.

#ifndef INFLOG_BENCH_COMMON_H_
#define INFLOG_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace inflog_bench {

/// std::mt19937_64's output sequence is fixed by the standard, and the
/// bounded draw below avoids the library-specific distributions, so one
/// seed gives the same inputs on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : gen_(seed) {}
  /// Uniform-ish draw in [0, n); n > 0.
  int Below(int n) { return static_cast<int>(gen_() % static_cast<uint64_t>(n)); }

 private:
  std::mt19937_64 gen_;
};

using Edge = std::pair<int, int>;

/// A digraph over vertices 0..n-1 with sorted, distinct edges.
struct Graph {
  int n = 0;
  std::vector<Edge> edges;
};

/// Tuples of up to three vertex ids packed into one word (21 bits per
/// column), so a relation is a sorted vector of words.
using Rows = std::vector<uint64_t>;
constexpr int kMaxVertex = (1 << 21) - 1;

inline uint64_t Pack(const int* cols, size_t arity) {
  uint64_t word = arity;  // the arity in the top bits keeps (a) != (a,0)
  for (size_t i = 0; i < arity; ++i) {
    word = (word << 21) | static_cast<uint64_t>(cols[i]);
  }
  return word;
}
inline uint64_t Pack1(int a) { return Pack(&a, 1); }
inline uint64_t Pack2(int a, int b) {
  const int c[2] = {a, b};
  return Pack(c, 2);
}
inline uint64_t Pack3(int a, int b, int c) {
  const int v[3] = {a, b, c};
  return Pack(v, 3);
}
/// Renders a packed tuple as "(a,b)" for error messages.
inline std::string Unpack(uint64_t word) {
  std::vector<int> cols;
  while (word > 3) {  // stop at the arity tag
    cols.push_back(static_cast<int>(word & kMaxVertex));
    word >>= 21;
  }
  std::string out = "(";
  for (size_t i = cols.size(); i-- > 0;) {
    out += std::to_string(cols[i]);
    if (i > 0) out += ",";
  }
  return out + ")";
}

inline void SortUnique(Rows* rows) {
  std::sort(rows->begin(), rows->end());
  rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
}

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (q in [0, 1]) of unsorted samples; 0 if empty.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size()));
  if (rank >= samples.size()) rank = samples.size() - 1;
  return samples[rank];
}
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace inflog_bench

#endif  // INFLOG_BENCH_COMMON_H_
