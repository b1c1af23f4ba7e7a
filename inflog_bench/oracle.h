// Reference answers computed apart from the engine (BFS closure,
// retrograde game analysis, per-choice enumeration of the two-cycles),
// the parser of inflog_cli's printed output, and the checks that compare
// the two. Every check returns "" on success and a description of the
// first difference otherwise.

#ifndef INFLOG_BENCH_ORACLE_H_
#define INFLOG_BENCH_ORACLE_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "inflog_bench/common.h"
#include "inflog_bench/inputs.h"

namespace inflog_bench {

/// Relation name -> sorted packed tuples.
using RelMap = std::map<std::string, Rows>;

/// A three-valued model: the true atoms and the undefined atoms.
struct ThreeValued {
  RelMap true_rels;
  RelMap undefined_rels;
};

/// T, U and Tri of kRelationalProgram. Stratified U holds the vertices
/// with an edge to a vertex that cannot reach them back; inflationary U
/// is every vertex with an out-edge, because at stage 1 T is still empty.
RelMap RelationalExpected(const Graph& graph, bool inflationary);

/// kTcNegProgram is stratifiable, so its well-founded model is total and
/// equals the stratified model.
ThreeValued TcNegWellFoundedExpected(const Graph& graph);

/// Retrograde analysis of the win-move game: 1 won, 0 lost, -1 drawn.
std::vector<int> Retrograde(int n, const std::vector<Edge>& edges);

/// Won positions are true, drawn ones undefined, lost ones false.
ThreeValued GameWellFoundedExpected(const Graph& graph);

/// The 2^k stable models, sorted: for each choice of winner per
/// two-cycle, the retrograde solution of the graph without the loser's
/// edge to the winner (the loser then has no move, so it is lost).
std::vector<RelMap> GameStableExpected(const TwoCycleDag& dag);

/// inflog_cli's printed result: the header line, then named sections
/// ("" for the two-valued semantics, "true atoms", "undefined atoms",
/// "model 1", ...), each with the relations printed in it.
struct CliOutput {
  std::string header;
  std::vector<std::pair<std::string, RelMap>> sections;
};

/// Parses inflog_cli's stdout; returns "" or the parse error.
std::string ParseCliOutput(const std::string& text, CliOutput* out);

/// Exact equality of two relation maps (same names, same tuples).
std::string CheckRelations(const RelMap& expected, const RelMap& got);

/// A stratified or inflationary run printed exactly `expected`.
std::string CheckTwoValuedOutput(const CliOutput& out, const RelMap& expected);

/// A well-founded run: true and undefined atoms, and a header that says
/// "total" exactly when nothing is undefined.
std::string CheckWellFounded(const ThreeValued& got,
                             const ThreeValued& expected);
std::string CheckWellFoundedOutput(const CliOutput& out,
                                   const ThreeValued& expected);

/// A stable run: exactly the expected set of models, each once.
std::string CheckStable(std::vector<RelMap> got,
                        const std::vector<RelMap>& expected);
std::string CheckStableOutput(const CliOutput& out,
                              const std::vector<RelMap>& expected);

/// One served answer: the rows (or truth value, packed as {1} / {}) and
/// the epoch it claims to be valid at.
std::string CheckServedAnswer(const Rows& expected, uint64_t expected_epoch,
                              const Rows& got, uint64_t got_epoch);

}  // namespace inflog_bench

#endif  // INFLOG_BENCH_ORACLE_H_
