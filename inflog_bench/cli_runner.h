// Runs the shipped inflog_cli as a child process and times it from
// spawn to exit, with its stdout drained through a pipe.

#ifndef INFLOG_BENCH_CLI_RUNNER_H_
#define INFLOG_BENCH_CLI_RUNNER_H_

#include <string>
#include <vector>

namespace inflog_bench {

struct CliRun {
  double wall_s = 0;
  double max_rss_mb = 0;  ///< The child's peak resident set.
  int exit_code = -1;     ///< -1 when the child did not exit normally.
  std::string out;        ///< Everything it printed to stdout.
};

/// Spawns `cli args...`, reads its stdout to the end and waits for it.
/// Returns "" or a description of why the child could not be run.
std::string RunCli(const std::string& cli, const std::vector<std::string>& args,
                   CliRun* run);

}  // namespace inflog_bench

#endif  // INFLOG_BENCH_CLI_RUNNER_H_
