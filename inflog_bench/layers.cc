// The traced run: every call into a layer's public functions gets a span,
// on the same inputs the untraced run hands to inflog_cli, so the
// per-layer split of each workload can be read off the spans.

#include <cstdlib>
#include <memory>

#include "inflog_bench/serve_stream.h"
#include "inflog_bench/trace.h"
#include "inflog_bench/workload.h"
#include "src/ast/analysis.h"
#include "src/ast/parser.h"
#include "src/eval/inflationary.h"
#include "src/eval/stable.h"
#include "src/eval/stratified.h"
#include "src/eval/wellfounded.h"
#include "src/ground/grounder.h"
#include "src/serve/snapshot.h"

namespace inflog_bench {
namespace {

using inflog::Database;
using inflog::EvalStats;
using inflog::IdbState;
using inflog::Program;

// Packs every IDB relation of `state` for the oracle checks.
RelMap ToRelMap(const Program& program, const IdbState& state) {
  RelMap out;
  for (uint32_t pred : program.idb_predicates()) {
    const auto& info = program.predicate(pred);
    Rows& rows = out[info.name];
    for (const inflog::Tuple& t : state.relations[info.idb_index].SortedTuples()) {
      int cols[3] = {0, 0, 0};
      for (size_t i = 0; i < t.size() && i < 3; ++i) {
        cols[i] = std::atoi(program.symbols().Name(t[i]).c_str());
      }
      rows.push_back(Pack(cols, std::min<size_t>(t.size(), 3)));
    }
    SortUnique(&rows);
  }
  return out;
}

// Per-round sums of the timed layers; the run reports their medians.
struct RoundTimes {
  double load_facts = 0, analyze = 0, stratified = 0, inflationary = 0,
         render = 0, ground = 0, wf_alternation = 0, stable_search = 0;
};

// Counters of one round; identical in every round except the scheduler's
// (parallel tasks, steals), which the run reports from its last round.
struct RoundCounts {
  EvalStats relational;  // stratified + inflationary
  uint64_t output_bytes = 0, ground_rules = 0, ground_atoms = 0,
           wf_rounds = 0, wf_undefined = 0, sat_conflicts = 0,
           sat_propagations = 0, supported = 0;
};

struct Loaded {
  std::shared_ptr<inflog::SymbolTable> symbols;
  std::unique_ptr<Database> db;
  std::unique_ptr<Program> program;
};

class LayerRunner {
 public:
  LayerRunner(const Inputs& in, Tracer* tracer, RunResult* result)
      : in_(in), tracer_(tracer), result_(result) {}

  void Round(RoundTimes* t, RoundCounts* c) {
    std::map<std::string, Loaded> loaded;
    for (const auto& [name, text] : in_.texts) {
      loaded[name] = Load(text.first, text.second, t);
    }
    Relational(loaded["rel"], t, c);
    WellFounded(loaded["tcn"], in_.tcn_wf, "tcn", t, c);
    WellFounded(loaded["game"], in_.game_wf, "game", t, c);
    Stable(loaded["dag"], t, c);
  }

 private:
  Loaded Load(const std::string& program_text, const std::string& facts,
              RoundTimes* t) {
    Loaded l;
    l.symbols = std::make_shared<inflog::SymbolTable>();
    l.db = std::make_unique<Database>(l.symbols);
    {
      Tracer::Scope span(tracer_, "ast.ParseDatabaseInto");
      Check(inflog::ParseDatabaseInto(facts, l.db.get()), "facts");
      t->load_facts += span.Stop();
    }
    {
      Tracer::Scope span(tracer_, "ast.ParseProgram");
      auto program = inflog::ParseProgram(program_text, l.symbols);
      Check(program.status(), "program");
      l.program = std::make_unique<Program>(std::move(program).value());
    }
    Tracer::Scope span(tracer_, "ast.AnalyzeProgram");
    const inflog::ProgramAnalysis analysis = inflog::AnalyzeProgram(*l.program);
    t->analyze += span.Stop();
    (void)analysis;
    ++result_->attempted;
    return l;
  }

  double Render(const Program& program, const IdbState& state, RoundCounts* c) {
    Tracer::Scope span(tracer_, "relation.Relation::ToString");
    for (const inflog::Relation& r : state.relations) {
      c->output_bytes += r.ToString(program.symbols()).size();
    }
    return span.Stop();
  }

  void Relational(const Loaded& l, RoundTimes* t, RoundCounts* c) {
    inflog::EvalContextOptions context;
    context.num_threads = kCliThreads;
    context.num_shards = 0;  // inflog_cli's default: one shard per thread
    {
      inflog::StratifiedOptions options;
      options.context = context;
      Tracer::Scope span(tracer_, "eval.EvalStratified");
      auto r = inflog::EvalStratified(*l.program, *l.db, options);
      t->stratified += span.Stop();
      ++result_->attempted;
      if (Check(r.status(), "stratified")) {
        c->relational.Add(r->stats);
        t->render += Render(*l.program, r->state, c);
        Expect(CheckRelations(in_.rel_stratified, ToRelMap(*l.program, r->state)),
               "stratified");
      }
    }
    inflog::InflationaryOptions options;
    options.context = context;
    Tracer::Scope span(tracer_, "eval.EvalInflationary");
    auto r = inflog::EvalInflationary(*l.program, *l.db, options);
    t->inflationary += span.Stop();
    ++result_->attempted;
    if (Check(r.status(), "inflationary")) {
      c->relational.Add(r->stats);
      t->render += Render(*l.program, r->state, c);
      Expect(CheckRelations(in_.rel_inflationary, ToRelMap(*l.program, r->state)),
             "inflationary");
    }
  }

  double Ground(const Loaded& l, RoundTimes* t, RoundCounts* c) {
    Tracer::Scope span(tracer_, "ground.GroundProgramFor");
    auto g = inflog::GroundProgramFor(*l.program, *l.db);
    const double s = span.Stop();
    t->ground += s;
    ++result_->attempted;
    if (Check(g.status(), "ground")) {
      c->ground_rules += g->rules.size();
      c->ground_atoms += g->atoms.size();
    }
    return s;
  }

  void WellFounded(const Loaded& l, const ThreeValued& expected,
                   const char* what, RoundTimes* t, RoundCounts* c) {
    const double ground = Ground(l, t, c);
    Tracer::Scope span(tracer_, "eval.EvalWellFounded");
    auto r = inflog::EvalWellFounded(*l.program, *l.db);
    t->wf_alternation += span.Stop() - ground;
    ++result_->attempted;
    if (!Check(r.status(), what)) return;
    c->wf_rounds += r->rounds;
    for (int8_t v : r->truth) c->wf_undefined += v == -1 ? 1 : 0;
    t->render += Render(*l.program, r->true_state, c) +
                 Render(*l.program, r->undefined_state, c);
    Expect(CheckWellFounded(
               ThreeValued{ToRelMap(*l.program, r->true_state),
                           ToRelMap(*l.program, r->undefined_state)},
               expected),
           what);
  }

  void Stable(const Loaded& l, RoundTimes* t, RoundCounts* c) {
    const double ground = Ground(l, t, c);
    Tracer::Scope span(tracer_, "eval.EnumerateStableModels");
    auto r = inflog::EnumerateStableModels(*l.program, *l.db);
    t->stable_search += span.Stop() - ground;
    ++result_->attempted;
    if (!Check(r.status(), "stable")) return;
    c->sat_conflicts += r->stats.sat_conflicts;
    c->sat_propagations += r->stats.sat_propagations;
    c->supported += r->supported_examined;
    std::vector<RelMap> models;
    for (const IdbState& m : r->models) {
      t->render += Render(*l.program, m, c);
      models.push_back(ToRelMap(*l.program, m));
    }
    Expect(CheckStable(std::move(models), in_.dag_stable), "stable");
  }

  bool Check(const inflog::Status& status, const char* what) {
    if (status.ok()) return true;
    ++result_->failed;
    result_->Fail(std::string(what) + ": " + status.ToString());
    return false;
  }
  void Expect(const std::string& err, const char* what) {
    if (!err.empty()) result_->Fail(std::string(what) + ": " + err);
  }

  const Inputs& in_;
  Tracer* tracer_;
  RunResult* result_;
};

// The maintenance layers alone, fed the served stream's updates: an
// incremental-only engine and a standalone snapshot registry.
class MaintenanceProbe {
 public:
  std::string Setup(const std::string& facts) {
    if (auto s = engine_.LoadProgramText(kServeProgram); !s.ok()) {
      return s.ToString();
    }
    if (auto s = engine_.LoadDatabaseText(facts); !s.ok()) return s.ToString();
    if (auto s = engine_.BeginIncremental(inflog::SemanticsKind::kStratified);
        !s.ok()) {
      return s.ToString();
    }
    registry_.Publish(**engine_.program(), engine_.database(),
                      **engine_.IncrementalState(), nullptr, EvalStats{});
    return "";
  }

  std::string Apply(const StreamStep& step, Tracer* tracer) {
    auto batch = inflog::ParseUpdateLine(step.update, engine_.symbols().get());
    if (!batch.ok()) return batch.status().ToString();
    Tracer::Scope update(tracer, "eval.Engine::ApplyUpdate");
    auto r = engine_.ApplyUpdate(*batch);
    update_s.push_back(update.Stop());
    if (!r.ok()) return r.status().ToString();
    const EvalStats& s = r->stats;
    const uint64_t delta = s.incremental_edb_inserted + s.incremental_edb_deleted +
                           s.incremental_idb_inserted + s.incremental_idb_deleted;
    delta_rows.push_back(static_cast<double>(delta));
    total_delta += delta;
    const Program& program = **engine_.program();
    Tracer::Scope publish(tracer, "serve.SnapshotRegistry::Publish");
    registry_.Publish(program, engine_.database(), **engine_.IncrementalState(),
                      &r->changed_relations, s);
    publish_s.push_back(publish.Stop());
    const inflog::serve::SnapshotHandle snap = registry_.Pin();
    for (const std::string& name : r->changed_relations) {
      auto rel = snap->Find(program, name);
      if (rel.ok()) sealed_rows += (*rel)->size();
    }
    return "";
  }

  double RederivedPerCandidate() const {
    const EvalStats& s = **engine_.IncrementalStats();
    return s.incremental_del_candidates == 0
               ? 0
               : static_cast<double>(s.incremental_rederived) /
                     static_cast<double>(s.incremental_del_candidates);
  }

  std::vector<double> update_s, publish_s, delta_rows;
  uint64_t total_delta = 0, sealed_rows = 0;

 private:
  inflog::Engine engine_;
  inflog::serve::SnapshotRegistry registry_;
};

}  // namespace

void RunTraced(const Inputs& in, double seconds, const std::string& trace_path,
               RunResult* result) {
  Tracer tracer;
  ServeStream serve(in.sizes.rings, in.serve_seed, &tracer);
  double serve_setup = 0;
  std::string err = serve.Setup(&serve_setup);
  MaintenanceProbe probe;
  if (err.empty()) err = probe.Setup(serve.model().FactsText());
  if (!err.empty()) {
    result->attempted = 1;
    result->failed = 1;
    result->Fail("serve setup: " + err);
    return;
  }
  LayerRunner runner(in, &tracer, result);
  std::vector<RoundTimes> rounds;
  RoundCounts counts;
  ServeSamples samples;
  const double start = Now();
  do {
    RoundTimes t;
    counts = RoundCounts{};
    runner.Round(&t, &counts);
    rounds.push_back(t);
    for (int i = 0; i < in.sizes.steps && result->correct; ++i) {
      err = serve.Step(&samples);
      if (err.empty()) err = probe.Apply(serve.last_step(), &tracer);
      if (!err.empty()) result->Fail("serve: " + err);
    }
  } while (Now() - start < seconds && result->correct);
  const double traced_wall = Now() - start;
  result->attempted += samples.ops;
  if (result->correct) {
    err = serve.CheckFinalState();
    if (!err.empty()) result->Fail("serve: " + err);
  }

  auto median = [&](double RoundTimes::*field) {
    std::vector<double> v;
    for (const RoundTimes& t : rounds) v.push_back(t.*field);
    return Median(v);
  };
  auto ratio = [](double num, double den) { return den == 0 ? 0 : num / den; };
  const EvalStats& rel = counts.relational;
  const EvalStats served = serve.stats();
  auto& r = *result;
  r.Metric("ast.load_facts_s", median(&RoundTimes::load_facts), "s");
  r.Metric("ast.analyze_s", median(&RoundTimes::analyze), "s");
  r.Metric("opt.plans_reordered", rel.opt_plans_reordered, "count");
  r.Metric("opt.subplans_shared", rel.opt_subplans_shared, "count");
  r.Metric("eval.stratified_s", median(&RoundTimes::stratified), "s");
  r.Metric("eval.inflationary_s", median(&RoundTimes::inflationary), "s");
  r.Metric("eval.stages", rel.stages, "count");
  r.Metric("eval.derivations", rel.derivations, "count");
  r.Metric("eval.rows_matched", rel.rows_matched, "count");
  r.Metric("eval.index_probes", rel.index_lookups, "count");
  r.Metric("eval.new_per_derivation",
           ratio(static_cast<double>(rel.new_tuples),
                 static_cast<double>(rel.derivations)),
           "ratio");
  r.Metric("eval.parallel_tasks", rel.parallel_tasks, "count");
  r.Metric("eval.steals", rel.steals, "count");
  r.Metric("eval.auto_stealing_stages", rel.auto_stealing_stages, "count");
  r.Metric("relation.render_s", median(&RoundTimes::render), "s");
  r.Metric("relation.output_bytes", counts.output_bytes, "bytes");
  r.Metric("ground.ground_s", median(&RoundTimes::ground), "s");
  r.Metric("ground.rules", counts.ground_rules, "count");
  r.Metric("ground.atoms", counts.ground_atoms, "count");
  r.Metric("eval.wf_alternation_s", median(&RoundTimes::wf_alternation), "s");
  r.Metric("eval.wf_rounds", counts.wf_rounds, "count");
  r.Metric("eval.wf_undefined_atoms", counts.wf_undefined, "count");
  r.Metric("sat.stable_search_s", median(&RoundTimes::stable_search), "s");
  r.Metric("sat.conflicts", counts.sat_conflicts, "count");
  r.Metric("sat.propagations", counts.sat_propagations, "count");
  r.Metric("sat.supported_examined", counts.supported, "count");
  r.Metric("eval.incremental_update_us", Median(probe.update_s) * 1e6, "us");
  r.Metric("eval.incremental_delta_rows", Median(probe.delta_rows), "count");
  r.Metric("eval.rederived_per_candidate", probe.RederivedPerCandidate(),
           "ratio");
  r.Metric("serve.publish_us", Median(probe.publish_s) * 1e6, "us");
  r.Metric("serve.sealed_rows_per_delta_row",
           ratio(static_cast<double>(probe.sealed_rows),
                 static_cast<double>(probe.total_delta)),
           "ratio");
  r.Metric("serve.compactions", served.serve_compactions, "count");
  r.Metric("serve.query_eval_us", Median(samples.query_eval_s) * 1e6, "us");
  r.Metric("serve.cache_hit_ratio",
           ratio(static_cast<double>(served.cache_hits),
                 static_cast<double>(served.cache_hits + served.cache_misses)),
           "ratio");

  // Tracing overhead: what recording one span costs, times the spans a
  // round recorded, against the round's length.
  const size_t spans = tracer.spans().size();
  Tracer scratch;
  const double t0 = Now();
  for (int i = 0; i < 100000; ++i) Tracer::Scope s(&scratch, "overhead");
  const double per_span = (Now() - t0) / 100000;
  std::fprintf(stderr,
               "trace: %zu spans in %.3f s over %zu rounds; %.0f ns per span, "
               "overhead %.4f%% of traced time; serve setup %.4f s\n",
               spans, traced_wall, rounds.size(), per_span * 1e9,
               100.0 * per_span * static_cast<double>(spans) / traced_wall,
               serve_setup);
  if (!tracer.WriteChromeJson(trace_path)) {
    result->Fail("cannot write trace file " + trace_path);
  }
}

}  // namespace inflog_bench
