#include "inflog_bench/workload.h"

namespace inflog_bench {
namespace {

const Sizes kLight = {/*rel_n=*/150,  /*tcn_n=*/60,  /*game_n=*/3000,
                      /*dag_n=*/3000, /*dag_k=*/2,   /*rings=*/32,
                      /*steps=*/96,   /*own=*/{}};

// Vertices per component of the win-move graph. The alternation rounds
// follow the longest chain of forced moves, which in one large random
// graph swings widely from seed to seed; over many small components the
// longest one varies little.
constexpr int kGameComponent = 50;

// splitmix64: independent streams per input from one run seed, so an
// input does not change when another input's size does.
uint64_t Stream(uint64_t seed, uint64_t input) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + input;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

bool WorkloadSizes(const std::string& name, Sizes* sizes) {
  *sizes = kLight;
  if (name == "relational_batch") {
    sizes->rel_n = 600;
    sizes->own = {"stratified_s", "inflationary_s"};
  } else if (name == "grounded_batch") {
    sizes->tcn_n = 200;
    sizes->game_n = 30000;
    sizes->dag_n = 40000;
    sizes->dag_k = 3;
    sizes->own = {"wellfounded_s", "wellfounded_game_s", "stable_game_s"};
  } else if (name == "serve_stream") {
    sizes->rings = 400;
    sizes->steps = 64;
  } else {
    return false;
  }
  return true;
}

std::string MakeInputs(const Sizes& sizes, uint64_t seed,
                       const std::string& dir, Inputs* in) {
  in->sizes = sizes;
  in->seed = seed;
  in->serve_seed = Stream(seed, 5);
  Rng rel_rng(Stream(seed, 1)), tcn_rng(Stream(seed, 2)),
      game_rng(Stream(seed, 3)), dag_rng(Stream(seed, 4));
  in->rel = RandomDigraph(sizes.rel_n, 5 * sizes.rel_n, &rel_rng);
  in->tcn = RandomDigraph(sizes.tcn_n, 5 * sizes.tcn_n, &tcn_rng);
  in->game = RandomComponents(sizes.game_n / kGameComponent, kGameComponent,
                              3, &game_rng);
  in->dag = RandomDagWithTwoCycles(sizes.dag_n, sizes.dag_k, &dag_rng);
  in->texts["rel"] = {kRelationalProgram, FactsText(in->rel)};
  in->texts["tcn"] = {kTcNegProgram, FactsText(in->tcn)};
  in->texts["game"] = {kGameProgram, FactsText(in->game)};
  in->texts["dag"] = {kGameProgram, FactsText(in->dag.graph)};
  for (const auto& [name, text] : in->texts) {
    const std::string dlog = dir + "/" + name + ".dlog";
    const std::string facts = dir + "/" + name + ".facts";
    if (!WriteFile(dlog, text.first) || !WriteFile(facts, text.second)) {
      return "cannot write inputs under " + dir;
    }
    in->files[name] = {dlog, facts};
  }
  in->rel_stratified = RelationalExpected(in->rel, /*inflationary=*/false);
  in->rel_inflationary = RelationalExpected(in->rel, /*inflationary=*/true);
  in->tcn_wf = TcNegWellFoundedExpected(in->tcn);
  in->game_wf = GameWellFoundedExpected(in->game);
  in->dag_stable = GameStableExpected(in->dag);
  return "";
}

}  // namespace inflog_bench
