#include "inflog_bench/oracle.h"

#include <algorithm>
#include <cstdlib>
#include <set>

namespace inflog_bench {
namespace {

std::vector<std::vector<int>> Successors(int n, const std::vector<Edge>& edges) {
  std::vector<std::vector<int>> succ(n);
  for (const auto& [a, b] : edges) succ[a].push_back(b);
  return succ;
}

Rows Unary(const std::vector<int>& vertices) {
  Rows rows;
  for (int v : vertices) rows.push_back(Pack1(v));
  SortUnique(&rows);
  return rows;
}

std::string Where(const std::string& context, const std::string& what) {
  return context.empty() ? what : context + ": " + what;
}

// reach[v] = sorted vertices reachable from v by one or more edges (BFS).
std::vector<std::vector<int>> Closure(const Graph& graph) {
  const auto succ = Successors(graph.n, graph.edges);
  std::vector<std::vector<int>> reach(graph.n);
  std::vector<int> seen(graph.n, -1);
  std::vector<int> queue;
  for (int s = 0; s < graph.n; ++s) {
    queue.clear();
    for (int t : succ[s]) {
      if (seen[t] != s) {
        seen[t] = s;
        queue.push_back(t);
      }
    }
    for (size_t i = 0; i < queue.size(); ++i) {
      for (int t : succ[queue[i]]) {
        if (seen[t] != s) {
          seen[t] = s;
          queue.push_back(t);
        }
      }
    }
    reach[s] = queue;
    std::sort(reach[s].begin(), reach[s].end());
  }
  return reach;
}

}  // namespace

RelMap RelationalExpected(const Graph& graph, bool inflationary) {
  const auto reach = Closure(graph);
  const auto succ = Successors(graph.n, graph.edges);
  auto reaches = [&](int a, int b) {
    return std::binary_search(reach[a].begin(), reach[a].end(), b);
  };
  RelMap out;
  Rows& t = out["T"];
  for (int a = 0; a < graph.n; ++a) {
    for (int b : reach[a]) t.push_back(Pack2(a, b));
  }
  SortUnique(&t);
  std::vector<int> u;
  for (const auto& [x, y] : graph.edges) {
    if (inflationary || !reaches(y, x)) u.push_back(x);
  }
  out["U"] = Unary(u);
  const std::set<Edge> edge_set(graph.edges.begin(), graph.edges.end());
  Rows& tri = out["Tri"];
  for (const auto& [x, y] : graph.edges) {
    for (int z : succ[y]) {
      if (edge_set.count({z, x}) != 0) tri.push_back(Pack3(x, y, z));
    }
  }
  SortUnique(&tri);
  return out;
}

ThreeValued TcNegWellFoundedExpected(const Graph& graph) {
  ThreeValued out;
  out.true_rels = RelationalExpected(graph, /*inflationary=*/false);
  out.true_rels.erase("Tri");
  out.undefined_rels = {{"T", {}}, {"U", {}}};
  return out;
}

std::vector<int> Retrograde(int n, const std::vector<Edge>& edges) {
  std::vector<std::vector<int>> pred(n);
  std::vector<int> moves(n, 0);
  for (const auto& [a, b] : edges) {
    pred[b].push_back(a);
    ++moves[a];
  }
  std::vector<int> state(n, -1);
  std::vector<int> queue;
  for (int v = 0; v < n; ++v) {
    if (moves[v] == 0) {
      state[v] = 0;
      queue.push_back(v);
    }
  }
  for (size_t i = 0; i < queue.size(); ++i) {
    const int v = queue[i];
    for (int p : pred[v]) {
      if (state[p] != -1) continue;
      if (state[v] == 0) {  // a move to a lost position wins
        state[p] = 1;
        queue.push_back(p);
      } else if (--moves[p] == 0) {  // every move leads to a won position
        state[p] = 0;
        queue.push_back(p);
      }
    }
  }
  return state;
}

ThreeValued GameWellFoundedExpected(const Graph& graph) {
  const auto state = Retrograde(graph.n, graph.edges);
  std::vector<int> won, drawn;
  for (int v = 0; v < graph.n; ++v) {
    if (state[v] == 1) won.push_back(v);
    if (state[v] == -1) drawn.push_back(v);
  }
  ThreeValued out;
  out.true_rels["W"] = Unary(won);
  out.undefined_rels["W"] = Unary(drawn);
  return out;
}

std::vector<RelMap> GameStableExpected(const TwoCycleDag& dag) {
  const size_t k = dag.cycles.size();
  std::vector<RelMap> models;
  for (uint64_t choice = 0; choice < (uint64_t{1} << k); ++choice) {
    std::set<Edge> removed;
    for (size_t t = 0; t < k; ++t) {
      const auto [a, b] = dag.cycles[t];
      // Bit set: a wins, so b loses and b's only edge (to a) goes.
      removed.insert((choice >> t) & 1 ? Edge{b, a} : Edge{a, b});
    }
    std::vector<Edge> edges;
    for (const Edge& e : dag.graph.edges) {
      if (removed.count(e) == 0) edges.push_back(e);
    }
    const auto state = Retrograde(dag.graph.n, edges);
    std::vector<int> won;
    for (int v = 0; v < dag.graph.n; ++v) {
      if (state[v] == 1) won.push_back(v);
    }
    models.push_back({{"W", Unary(won)}});
  }
  std::sort(models.begin(), models.end());
  return models;
}

std::string ParseCliOutput(const std::string& text, CliOutput* out) {
  *out = CliOutput{};
  size_t pos = 0;
  bool first = true;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    if (first) {
      out->header = std::string(line);
      first = false;
      continue;
    }
    const size_t eq = line.find(" = {");
    if (line.substr(0, 2) != "  " || eq == std::string_view::npos) {
      // A section heading such as " true atoms:" or " model 2:".
      std::string name(line);
      name.erase(0, name.find_first_not_of(' '));
      if (!name.empty() && name.back() == ':') name.pop_back();
      out->sections.emplace_back(name, RelMap{});
      continue;
    }
    if (out->sections.empty()) out->sections.emplace_back("", RelMap{});
    const std::string name(line.substr(2, eq - 2));
    Rows& rows = out->sections.back().second[name];
    size_t i = eq + 4;
    int cols[3];
    while (i < line.size() && line[i] != '}') {
      if (line[i] != '(') return "bad tuple in relation " + name;
      ++i;
      size_t arity = 0;
      while (true) {
        const char* start = line.data() + i;
        char* stop = nullptr;
        const long v = std::strtol(start, &stop, 10);
        if (stop == start || v < 0 || v > kMaxVertex || arity == 3) {
          return "bad constant in relation " + name;
        }
        cols[arity++] = static_cast<int>(v);
        i += static_cast<size_t>(stop - start);
        if (i < line.size() && line[i] == ',') {
          ++i;
          continue;
        }
        break;
      }
      if (i >= line.size() || line[i] != ')') return "bad tuple end in " + name;
      ++i;
      rows.push_back(Pack(cols, arity));
      if (i + 1 < line.size() && line[i] == ',' && line[i + 1] == ' ') i += 2;
    }
    if (i >= line.size()) return "unterminated relation " + name;
    SortUnique(&rows);
  }
  if (first) return "empty output";
  return "";
}

std::string CheckRelations(const RelMap& expected, const RelMap& got) {
  for (const auto& [name, rows] : expected) {
    auto it = got.find(name);
    if (it == got.end()) return "relation " + name + " missing";
    const Rows& have = it->second;
    Rows missing, extra;
    std::set_difference(rows.begin(), rows.end(), have.begin(), have.end(),
                        std::back_inserter(missing));
    std::set_difference(have.begin(), have.end(), rows.begin(), rows.end(),
                        std::back_inserter(extra));
    if (!missing.empty()) {
      return name + Unpack(missing[0]) + " missing (" +
             std::to_string(missing.size()) + " tuples missing)";
    }
    if (!extra.empty()) {
      return name + Unpack(extra[0]) + " not expected (" +
             std::to_string(extra.size()) + " extra tuples)";
    }
  }
  for (const auto& [name, rows] : got) {
    if (expected.count(name) == 0) return "unexpected relation " + name;
  }
  return "";
}

std::string CheckTwoValuedOutput(const CliOutput& out, const RelMap& expected) {
  if (out.sections.size() != 1) return "expected one block of relations";
  return CheckRelations(expected, out.sections[0].second);
}

std::string CheckWellFounded(const ThreeValued& got,
                             const ThreeValued& expected) {
  std::string err = CheckRelations(expected.true_rels, got.true_rels);
  if (!err.empty()) return Where("true atoms", err);
  err = CheckRelations(expected.undefined_rels, got.undefined_rels);
  return err.empty() ? "" : Where("undefined atoms", err);
}

std::string CheckWellFoundedOutput(const CliOutput& out,
                                   const ThreeValued& expected) {
  if (out.sections.size() != 2 || out.sections[0].first != "true atoms" ||
      out.sections[1].first != "undefined atoms") {
    return "expected true and undefined atom blocks";
  }
  std::string err = CheckWellFounded(
      ThreeValued{out.sections[0].second, out.sections[1].second}, expected);
  if (!err.empty()) return err;
  bool total = true;
  for (const auto& [name, rows] : expected.undefined_rels) {
    total = total && rows.empty();
  }
  const bool says_total = out.header.find("(total)") != std::string::npos;
  return says_total == total ? "" : "header misstates totality: " + out.header;
}

std::string CheckStable(std::vector<RelMap> got,
                        const std::vector<RelMap>& expected) {
  std::sort(got.begin(), got.end());
  if (std::adjacent_find(got.begin(), got.end()) != got.end()) {
    return "a stable model is printed twice";
  }
  if (got.size() != expected.size()) {
    return std::to_string(got.size()) + " stable models, expected " +
           std::to_string(expected.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const std::string err = CheckRelations(expected[i], got[i]);
    if (!err.empty()) return Where("model " + std::to_string(i + 1), err);
  }
  return "";
}

std::string CheckStableOutput(const CliOutput& out,
                              const std::vector<RelMap>& expected) {
  std::vector<RelMap> got;
  for (const auto& [name, rels] : out.sections) got.push_back(rels);
  const std::string count = std::to_string(expected.size()) + " stable model";
  if (out.header.rfind(count, 0) != 0) return "header says " + out.header;
  return CheckStable(std::move(got), expected);
}

std::string CheckServedAnswer(const Rows& expected, uint64_t expected_epoch,
                              const Rows& got, uint64_t got_epoch) {
  if (got_epoch != expected_epoch) {
    return "answer at epoch " + std::to_string(got_epoch) + ", expected " +
           std::to_string(expected_epoch);
  }
  return CheckRelations({{"answer", expected}}, {{"answer", got}});
}

}  // namespace inflog_bench
