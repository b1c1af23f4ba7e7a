// The benchmark's programs and seeded input generators.

#ifndef INFLOG_BENCH_INPUTS_H_
#define INFLOG_BENCH_INPUTS_H_

#include <string>
#include <vector>

#include "inflog_bench/common.h"

namespace inflog_bench {

/// Transitive closure, a negation stratum over it, and a three-atom join.
extern const char kRelationalProgram[];
/// ROADMAP item 3's program: closure plus `U(X) :- E(X,Y), !T(Y,X)`.
extern const char kTcNegProgram[];
/// The win-move game; not stratifiable.
extern const char kGameProgram[];
/// The served program: one recursive unit (T, maintained by DRed) and
/// one non-recursive negated unit (N, maintained by counting).
extern const char kServeProgram[];

/// n vertices and m distinct random edges without self-loops.
Graph RandomDigraph(int n, int m, Rng* rng);

/// `count` disjoint copies of RandomDigraph(size, degree * size), so that
/// totals over the components vary little from seed to seed.
Graph RandomComponents(int count, int size, int degree, Rng* rng);

/// A random DAG on vertices 0..n-1 (three forward edges drawn per vertex)
/// plus k two-cycles {a_t <-> b_t} on vertices n.., each entered from
/// three random DAG vertices per side and with no other exit, so the
/// win-move game on it has exactly 2^k stable models.
struct TwoCycleDag {
  Graph graph;
  std::vector<Edge> cycles;  ///< (a_t, b_t)
};
TwoCycleDag RandomDagWithTwoCycles(int n, int k, Rng* rng);

/// "E(a,b).\n" per edge.
std::string FactsText(const Graph& graph);

/// Writes `text` to `path`; false on failure.
bool WriteFile(const std::string& path, const std::string& text);

}  // namespace inflog_bench

#endif  // INFLOG_BENCH_INPUTS_H_
