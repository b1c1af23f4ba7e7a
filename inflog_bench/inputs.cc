#include "inflog_bench/inputs.h"

#include <algorithm>
#include <fstream>
#include <set>

namespace inflog_bench {

const char kRelationalProgram[] =
    "T(X,Y) :- E(X,Y).\n"
    "T(X,Y) :- T(X,Z), E(Z,Y).\n"
    "U(X) :- E(X,Y), !T(Y,X).\n"
    "Tri(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).\n";

const char kTcNegProgram[] =
    "T(X,Y) :- E(X,Y).\n"
    "T(X,Y) :- T(X,Z), E(Z,Y).\n"
    "U(X) :- E(X,Y), !T(Y,X).\n";

const char kGameProgram[] = "W(X) :- E(X,Y), !W(Y).\n";

const char kServeProgram[] =
    "T(X,Y) :- E(X,Y).\n"
    "T(X,Y) :- T(X,Z), E(Z,Y).\n"
    "N(X,Y) :- E(X,Y), !T(Y,X).\n";

Graph RandomDigraph(int n, int m, Rng* rng) {
  std::set<Edge> edges;
  while (static_cast<int>(edges.size()) < m) {
    const int a = rng->Below(n);
    const int b = rng->Below(n);
    if (a != b) edges.emplace(a, b);
  }
  return Graph{n, std::vector<Edge>(edges.begin(), edges.end())};
}

Graph RandomComponents(int count, int size, int degree, Rng* rng) {
  Graph out{count * size, {}};
  for (int c = 0; c < count; ++c) {
    for (const auto& [a, b] : RandomDigraph(size, degree * size, rng).edges) {
      out.edges.emplace_back(c * size + a, c * size + b);
    }
  }
  return out;
}

TwoCycleDag RandomDagWithTwoCycles(int n, int k, Rng* rng) {
  std::set<Edge> edges;
  for (int i = 0; i + 1 < n; ++i) {
    for (int d = 0; d < 3; ++d) {
      edges.emplace(i, i + 1 + rng->Below(n - i - 1));
    }
  }
  TwoCycleDag out;
  for (int t = 0; t < k; ++t) {
    const int a = n + 2 * t;
    const int b = a + 1;
    edges.emplace(a, b);
    edges.emplace(b, a);
    for (int d = 0; d < 3; ++d) {
      edges.emplace(rng->Below(n), a);
      edges.emplace(rng->Below(n), b);
    }
    out.cycles.emplace_back(a, b);
  }
  out.graph = Graph{n + 2 * k, std::vector<Edge>(edges.begin(), edges.end())};
  return out;
}

std::string FactsText(const Graph& graph) {
  std::string text;
  text.reserve(graph.edges.size() * 16);
  for (const auto& [a, b] : graph.edges) {
    text += "E(" + std::to_string(a) + "," + std::to_string(b) + ").\n";
  }
  return text;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace inflog_bench
