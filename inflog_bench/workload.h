// Workload sizes, the generated inputs of one run with their reference
// answers, and the traced run over them.

#ifndef INFLOG_BENCH_WORKLOAD_H_
#define INFLOG_BENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "inflog_bench/inputs.h"
#include "inflog_bench/oracle.h"

namespace inflog_bench {

/// Input sizes. Every workload runs every operation, so that each prints
/// every end-to-end metric; its own operations run at full size and the
/// others at the light size (kLight), where they add little to a round.
struct Sizes {
  int rel_n;   ///< relational digraph: n vertices, 5n edges
  int tcn_n;   ///< TC+negation digraph for wellfounded: n, 5n edges
  int game_n;  ///< cyclic win-move digraph: n/50 components of 50
               ///< vertices and 150 edges each
  int dag_n;   ///< win-move DAG for stable: n vertices, ~3n edges ...
  int dag_k;   ///< ... plus k two-cycles: 2^k stable models
  int rings;   ///< served 16-vertex rings (256 closure rows each)
  int steps;   ///< served updates per round (even: whole net-zero pairs)
  /// The metrics of the workload's own operations; the other CLI
  /// operations run kLightRepeats times a round, for as many samples.
  std::vector<std::string> own;
};
constexpr int kLightRepeats = 3;

/// The sizes of a named workload; false for an unknown name.
bool WorkloadSizes(const std::string& name, Sizes* sizes);

/// Threads every inflog_cli run is given, so the parallel stage scheduler
/// runs on the relational operations.
constexpr int kCliThreads = 2;

/// One run's inputs, written to files for inflog_cli, with the answers
/// the oracle computed for them.
struct Inputs {
  Sizes sizes;
  uint64_t seed = 0;
  uint64_t serve_seed = 0;  ///< Seeds the served update stream.
  Graph rel, tcn, game;
  TwoCycleDag dag;
  /// name -> (program text, facts text); names are rel, tcn, game, dag.
  std::map<std::string, std::pair<std::string, std::string>> texts;
  std::map<std::string, std::pair<std::string, std::string>> files;
  RelMap rel_stratified, rel_inflationary;
  ThreeValued tcn_wf, game_wf;
  std::vector<RelMap> dag_stable;
};

/// Generates the inputs from `seed`, writes them under `dir` and computes
/// the reference answers. Returns "" or an error.
std::string MakeInputs(const Sizes& sizes, uint64_t seed,
                       const std::string& dir, Inputs* in);

/// The result line's payload.
struct RunResult {
  bool correct = true;
  std::string error;  ///< First failed check, when !correct.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  struct Value {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Value> metrics;
  void Metric(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& what) {
    if (correct) error = what;
    correct = false;
  }
};

/// The traced run: calls each layer's public functions in process on the
/// same inputs for `seconds`, records a span around each call, writes
/// the spans to `trace_path` and fills every per-layer metric.
void RunTraced(const Inputs& in, double seconds, const std::string& trace_path,
               RunResult* result);

}  // namespace inflog_bench

#endif  // INFLOG_BENCH_WORKLOAD_H_
