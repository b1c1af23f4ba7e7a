// inflog_bench_driver: one run of one workload of the end-to-end
// benchmark. inflog_bench/run.py builds it and passes its arguments on;
// see inflog_bench/README.md for the workloads and metrics.
//
//   inflog_bench_driver --workload NAME --seed N --seconds S --trace 0|1
//       --cli PATH/inflog_cli --work DIR [--trace-file FILE]
//   inflog_bench_driver --self-test --cli PATH/inflog_cli --work DIR
//
// The last line of stdout is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "inflog_bench/cli_runner.h"
#include "inflog_bench/oracle.h"
#include "inflog_bench/serve_stream.h"
#include "inflog_bench/workload.h"

namespace inflog_bench {
namespace {

// One inflog_cli operation: a metric name, an input, a semantics, and
// the check its printed output must pass.
struct CliOp {
  const char* metric;
  std::string input;
  const char* semantics;
  std::function<std::string(const CliOutput&)> check;
};

std::vector<CliOp> CliOps(const Inputs& in) {
  return {
      {"stratified_s", "rel", "stratified",
       [&in](const CliOutput& o) {
         return CheckTwoValuedOutput(o, in.rel_stratified);
       }},
      {"inflationary_s", "rel", "inflationary",
       [&in](const CliOutput& o) {
         return CheckTwoValuedOutput(o, in.rel_inflationary);
       }},
      {"wellfounded_s", "tcn", "wellfounded",
       [&in](const CliOutput& o) {
         return CheckWellFoundedOutput(o, in.tcn_wf);
       }},
      {"wellfounded_game_s", "game", "wellfounded",
       [&in](const CliOutput& o) {
         return CheckWellFoundedOutput(o, in.game_wf);
       }},
      {"stable_game_s", "dag", "stable",
       [&in](const CliOutput& o) {
         return CheckStableOutput(o, in.dag_stable);
       }},
  };
}

std::vector<std::string> CliArgs(const Inputs& in, const std::string& input,
                                 const char* semantics) {
  const auto& [dlog, facts] = in.files.at(input);
  return {"--threads=" + std::to_string(kCliThreads), dlog, facts, semantics};
}

// Runs one CLI operation and checks its output. Returns "" or what failed;
// `exit_failed` tells a failed run apart from a wrong answer.
std::string RunOp(const std::string& cli, const Inputs& in, const CliOp& op,
                  CliRun* run, bool* exit_failed) {
  *exit_failed = false;
  std::string err = RunCli(cli, CliArgs(in, op.input, op.semantics), run);
  if (err.empty() && run->exit_code != 0) {
    err = "exit code " + std::to_string(run->exit_code);
  }
  if (!err.empty()) {
    *exit_failed = true;
    return err;
  }
  CliOutput out;
  err = ParseCliOutput(run->out, &out);
  if (err.empty()) err = op.check(out);
  return err;
}

double SelfPeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// The untraced run: set-up, then whole rounds of every operation until
// `seconds` have passed.
void RunUntraced(const Inputs& in, const std::string& cli, double seconds,
                 RunResult* result) {
  // Set-up: each CLI input read, parsed, loaded and analyzed without
  // evaluation, plus the served database loaded up to epoch 0.
  double setup = 0;
  double peak_rss = 0;
  for (const auto& [name, files] : in.files) {
    CliRun run;
    const std::string err = RunCli(
        cli, {files.first, files.second, "analyze"}, &run);
    if (!err.empty() || run.exit_code != 0) {
      result->attempted = result->failed = 1;
      result->Fail("analyze " + name + ": " + err + run.out);
      return;
    }
    setup += run.wall_s;
    peak_rss = std::max(peak_rss, run.max_rss_mb);
  }
  ServeStream serve(in.sizes.rings, in.serve_seed, nullptr);
  double serve_setup = 0;
  if (std::string err = serve.Setup(&serve_setup); !err.empty()) {
    result->attempted = result->failed = 1;
    result->Fail("serve setup: " + err);
    return;
  }
  setup += serve_setup;

  const std::vector<CliOp> ops = CliOps(in);
  std::vector<std::vector<double>> op_s(ops.size());
  ServeSamples samples;
  const double start = Now();
  std::vector<int> repeats(ops.size(), kLightRepeats);
  for (size_t i = 0; i < ops.size(); ++i) {
    for (const std::string& own : in.sizes.own) {
      if (own == ops[i].metric) repeats[i] = 1;
    }
  }
  std::vector<std::vector<double>> op_rss(ops.size());
  do {
    for (size_t i = 0; i < ops.size(); ++i) {
      for (int rep = 0; rep < repeats[i]; ++rep) {
        CliRun run;
        bool exit_failed = false;
        const std::string err = RunOp(cli, in, ops[i], &run, &exit_failed);
        ++result->attempted;
        if (exit_failed) ++result->failed;
        if (!err.empty()) {
          result->Fail(std::string(ops[i].metric) + ": " + err);
          continue;
        }
        op_s[i].push_back(run.wall_s);
        op_rss[i].push_back(run.max_rss_mb);
      }
    }
    for (int i = 0; i < in.sizes.steps && result->correct; ++i) {
      const std::string err = serve.Step(&samples);
      if (!err.empty()) result->Fail("serve: " + err);
    }
  } while (Now() - start < seconds && result->correct);
  result->attempted += samples.ops;
  if (result->correct) {
    const std::string err = serve.CheckFinalState();
    if (!err.empty()) result->Fail("serve: " + err);
  }

  result->Metric("setup_s", setup, "s");
  // The allocator's per-thread arenas make a child's peak vary from run
  // to run of the same input, so each operation contributes its median.
  for (const auto& rss : op_rss) peak_rss = std::max(peak_rss, Median(rss));
  result->Metric("peak_rss_mb", std::max(peak_rss, SelfPeakRssMb()), "MB");
  for (size_t i = 0; i < ops.size(); ++i) {
    result->Metric(ops[i].metric, Median(op_s[i]), "s");
  }
  result->Metric("update_visible_p50_ms",
                 Percentile(samples.visible_s, 0.5) * 1e3, "ms");
  result->Metric("update_visible_p90_ms",
                 Percentile(samples.visible_s, 0.9) * 1e3, "ms");
  result->Metric("query_p50_us", Percentile(samples.query_s, 0.5) * 1e6, "us");
  result->Metric("query_p99_us", Percentile(samples.query_s, 0.99) * 1e6, "us");
  std::fprintf(stderr,
               "samples: %zu stratified runs, %zu updates, %zu queries; "
               "driver peak RSS %.1f MB\n",
               op_s[0].size(), samples.visible_s.size(), samples.query_s.size(),
               SelfPeakRssMb());
}

void PrintResult(const RunResult& r) {
  if (!r.correct) std::fprintf(stderr, "check failed: %s\n", r.error.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const RunResult::Value& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Feeds every check a real answer, which must pass, and corrupted copies
// of it (a dropped tuple, an added tuple, a wrong epoch, ...), which must
// each be reported. Returns the number of checks that failed to behave.
int SelfTest(const std::string& cli, const std::string& work) {
  Sizes sizes;
  WorkloadSizes("relational_batch", &sizes);
  sizes.rel_n = 120;
  Inputs in;
  if (std::string err = MakeInputs(sizes, 1, work, &in); !err.empty()) {
    std::fprintf(stderr, "self-test: %s\n", err.c_str());
    return 1;
  }
  int bad = 0;
  int cases = 0;
  auto expect = [&](const std::string& what, const std::string& err,
                    bool should_fail) {
    ++cases;
    const bool ok = should_fail ? !err.empty() : err.empty();
    std::printf("%-4s %-48s %s\n", ok ? "ok" : "BAD", what.c_str(),
                err.empty() ? "(passes)" : err.c_str());
    if (!ok) ++bad;
  };
  // A tuple over a vertex no generated input has.
  auto stranger = [](const std::string& rel) {
    const int v = kMaxVertex;
    return rel == "T" ? Pack2(v, v) : rel == "Tri" ? Pack3(v, v, v) : Pack1(v);
  };
  auto drop_first = [](Rows rows) {
    if (!rows.empty()) rows.erase(rows.begin());
    return rows;
  };
  auto add = [](Rows rows, uint64_t word) {
    rows.push_back(word);
    SortUnique(&rows);
    return rows;
  };

  for (const CliOp& op : CliOps(in)) {
    CliRun run;
    bool exit_failed = false;
    expect(std::string(op.metric) + ": real answer",
           RunOp(cli, in, op, &run, &exit_failed), false);
    CliOutput out;
    if (!ParseCliOutput(run.out, &out).empty() || out.sections.empty()) {
      ++bad;
      continue;
    }
    // Corrupt the first non-empty relation of the first section, and for
    // the three-valued runs also the undefined block.
    auto& first = out.sections[0].second;
    std::string rel = first.begin()->first;
    for (const auto& [name, rows] : first) {
      if (!rows.empty()) {
        rel = name;
        break;
      }
    }
    if (std::string(op.semantics) == "inflationary") {
      // The paper's point: inflationary U is not the stratified U.
      CliOutput stratified_u = out;
      stratified_u.sections[0].second["U"] = in.rel_stratified.at("U");
      expect("inflationary_s: U of the stratified model",
             op.check(stratified_u), true);
    }
    CliOutput dropped = out, added = out;
    dropped.sections[0].second[rel] = drop_first(first[rel]);
    added.sections[0].second[rel] = add(first[rel], stranger(rel));
    expect(std::string(op.metric) + ": dropped " + rel + " tuple",
           op.check(dropped), true);
    expect(std::string(op.metric) + ": added " + rel + " tuple",
           op.check(added), true);
    if (out.sections.size() == 2 && out.sections[1].first == "undefined atoms") {
      CliOutput undefined = out;
      auto& [name, rows] = *undefined.sections[1].second.begin();
      rows = add(rows, stranger(name));
      expect(std::string(op.metric) + ": added undefined atom",
             op.check(undefined), true);
    }
    if (std::string(op.semantics) == "stable") {
      CliOutput missing = out, twice = out;
      missing.sections.pop_back();
      twice.sections.back() = twice.sections.front();
      expect("stable_game_s: dropped model", op.check(missing), true);
      expect("stable_game_s: model printed twice", op.check(twice), true);
    }
  }

  // The served stream: after one update, a real answer per query kind.
  ServeStream serve(8, 1, nullptr);
  double setup = 0;
  ServeSamples samples;
  std::string err = serve.Setup(&setup);
  if (err.empty()) err = serve.Step(&samples);
  expect("serve: real stream step", err, false);
  const std::vector<StreamQuery>& sent = serve.last_step().queries;
  const std::vector<StreamQuery> distinct(
      sent.begin(), sent.begin() + sent.size() / kQueryPasses);
  for (const StreamQuery& q : distinct) {
    Rows rows;
    uint64_t epoch = 0;
    err = serve.Answer(q, &rows, &epoch);
    expect("serve " + q.line + ": real answer",
           err.empty() ? serve.Check(q, rows, epoch) : err, false);
    if (!rows.empty()) {
      expect("serve " + q.line + ": dropped row",
             serve.Check(q, drop_first(rows), epoch), true);
    }
    const uint64_t extra =
        q.kind == StreamQuery::kJoin ? stranger("T") : stranger("W");
    expect("serve " + q.line + ": added row",
           serve.Check(q, q.kind == StreamQuery::kGround && rows.empty()
                              ? Rows{Pack1(0)}
                              : add(rows, extra),
                       epoch),
           true);
    expect("serve " + q.line + ": wrong epoch", serve.Check(q, rows, epoch + 1),
           true);
  }
  std::printf("self-test: %d cases, %d misbehaved\n", cases, bad);
  return bad == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: inflog_bench_driver --workload NAME --seed N "
               "--seconds S --trace 0|1 --cli PATH --work DIR "
               "[--trace-file FILE]\n"
               "       inflog_bench_driver --self-test --cli PATH --work DIR\n");
  return 2;
}

}  // namespace
}  // namespace inflog_bench

int main(int argc, char** argv) {
  using namespace inflog_bench;
  std::string workload, cli, work, trace_file;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::atoll(value.c_str());
    } else if (arg == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (arg == "--cli") {
      cli = value;
    } else if (arg == "--work") {
      work = value;
    } else if (arg == "--trace-file") {
      trace_file = value;
    } else {
      return Usage();
    }
  }
  if (cli.empty() || work.empty()) return Usage();
  if (self_test) return SelfTest(cli, work);
  Sizes sizes;
  if (!WorkloadSizes(workload, &sizes)) {
    std::fprintf(stderr, "unknown workload %s\n", workload.c_str());
    return 2;
  }
  if (seed < 0 || seconds <= 0 || (trace != 0 && trace != 1) ||
      (trace == 1 && trace_file.empty())) {
    return Usage();
  }
  Inputs in;
  if (std::string err = MakeInputs(sizes, static_cast<uint64_t>(seed), work, &in);
      !err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  RunResult result;
  if (trace == 1) {
    RunTraced(in, seconds, trace_file, &result);
  } else {
    RunUntraced(in, cli, seconds, &result);
  }
  PrintResult(result);
  return 0;
}
