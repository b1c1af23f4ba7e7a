#include "inflog_bench/cli_runner.h"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "inflog_bench/common.h"

extern char** environ;

namespace inflog_bench {

std::string RunCli(const std::string& cli, const std::vector<std::string>& args,
                   CliRun* run) {
  *run = CliRun{};
  std::vector<std::string> argv_store;
  argv_store.push_back(cli);
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) return std::string("pipe: ") + std::strerror(errno);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);

  const double start = Now();
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, cli.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    return "spawn " + cli + ": " + std::strerror(rc);
  }
  char buf[1 << 16];
  while (true) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      run->out.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  struct rusage usage {};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  run->wall_s = Now() - start;
  run->max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  run->exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return "";
}

}  // namespace inflog_bench
