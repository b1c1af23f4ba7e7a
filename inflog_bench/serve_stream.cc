#include "inflog_bench/serve_stream.h"

#include <algorithm>
#include <cstdlib>

#include "src/serve/query.h"

namespace inflog_bench {

using inflog::Tuple;
using inflog::serve::ServeAnswer;

namespace {

std::string V(int v) { return std::to_string(v); }

}  // namespace

StreamPlanner::StreamPlanner(int rings, uint64_t seed)
    : rings_(rings), rng_(seed) {
  hot_ = {Point(0), Join(kRingSize + 1), Neg(2 * kRingSize + 2),
          Ground(3 * kRingSize + 3, 3 * kRingSize + 9)};
}

StreamQuery StreamPlanner::Point(int u) {
  return {StreamQuery::kPoint, u, 0, "?T(" + V(u) + ",X)"};
}
StreamQuery StreamPlanner::Join(int u) {
  return {StreamQuery::kJoin, u, 0, "?E(" + V(u) + ",X), T(X,Y)"};
}
StreamQuery StreamPlanner::Neg(int u) {
  return {StreamQuery::kNeg, u, 0, "?N(" + V(u) + ",X)"};
}
StreamQuery StreamPlanner::Ground(int u, int w) {
  return {StreamQuery::kGround, u, w, "?T(" + V(u) + "," + V(w) + ")"};
}

StreamStep StreamPlanner::Next() {
  StreamStep s;
  if (pending_a_ < 0) {
    const int ring = kHotRings + rng_.Below(rings_ - kHotRings);
    s.a = ring * kRingSize + rng_.Below(kRingSize);
    s.insert = false;
    pending_a_ = s.a;
  } else {
    s.a = pending_a_;
    s.insert = true;
    pending_a_ = -1;
  }
  s.b = RingModel::Next(s.a);
  s.update = (s.insert ? "+E(" : "-E(") + V(s.a) + "," + V(s.b) + ")";
  s.visibility = Ground(s.a, s.b);
  const int base = s.a - s.a % kRingSize;
  std::vector<StreamQuery> distinct = {
      Point(s.b), Join(s.a), Neg(s.a),
      Ground(base + rng_.Below(kRingSize), base + rng_.Below(kRingSize))};
  distinct.insert(distinct.end(), hot_.begin(), hot_.end());
  for (int pass = 0; pass < kQueryPasses; ++pass) {
    s.queries.insert(s.queries.end(), distinct.begin(), distinct.end());
  }
  return s;
}

RingModel::RingModel(int rings) : present_(rings * kRingSize, 1) {}

std::vector<int> RingModel::Reach(int v) const {
  std::vector<int> out;
  for (int u = v; present_[u];) {
    u = Next(u);
    out.push_back(u);
    if (u == v) break;
  }
  std::sort(out.begin(), out.end());
  return out;
}

Rows RingModel::Expected(const StreamQuery& q) const {
  Rows rows;
  const auto reach_u = Reach(q.u);
  switch (q.kind) {
    case StreamQuery::kPoint:
      for (int y : reach_u) rows.push_back(Pack1(y));
      break;
    case StreamQuery::kJoin:
      if (present_[q.u]) {
        const int x = Next(q.u);
        for (int y : Reach(x)) rows.push_back(Pack2(x, y));
      }
      break;
    case StreamQuery::kNeg:
      if (present_[q.u]) {
        const int y = Next(q.u);
        const auto back = Reach(y);
        if (!std::binary_search(back.begin(), back.end(), q.u)) {
          rows.push_back(Pack1(y));
        }
      }
      break;
    case StreamQuery::kGround:
      if (std::binary_search(reach_u.begin(), reach_u.end(), q.w)) {
        rows.push_back(Pack1(0));
      }
      break;
  }
  SortUnique(&rows);
  return rows;
}

std::string RingModel::FactsText() const {
  std::string text;
  for (size_t v = 0; v < present_.size(); ++v) {
    if (present_[v]) {
      text += "E(" + V(static_cast<int>(v)) + "," +
              V(Next(static_cast<int>(v))) + ").\n";
    }
  }
  return text;
}

Rows AnswerRows(const ServeAnswer& answer, const inflog::SymbolTable& symbols) {
  Rows rows;
  if (answer.ground) {
    if (answer.truth) rows.push_back(Pack1(0));
    return rows;
  }
  for (const Tuple& t : answer.rows) {
    int cols[3] = {0, 0, 0};
    for (size_t i = 0; i < t.size() && i < 3; ++i) {
      cols[i] = std::atoi(symbols.Name(t[i]).c_str());
    }
    rows.push_back(Pack(cols, std::min<size_t>(t.size(), 3)));
  }
  SortUnique(&rows);
  return rows;
}

ServeStream::ServeStream(int rings, uint64_t seed, Tracer* tracer)
    : tracer_(tracer), planner_(rings, seed), model_(rings) {}

std::string ServeStream::Setup(double* seconds) {
  const std::string facts = model_.FactsText();
  Tracer::Scope span(tracer_, "serve.setup");
  if (auto s = engine_.LoadProgramText(kServeProgram); !s.ok()) {
    return s.ToString();
  }
  if (auto s = engine_.LoadDatabaseText(facts); !s.ok()) return s.ToString();
  if (auto s = engine_.BeginServing(inflog::SemanticsKind::kStratified);
      !s.ok()) {
    return s.ToString();
  }
  *seconds = span.Stop();
  auto serving = engine_.serving();
  if (!serving.ok()) return serving.status().ToString();
  session_ = *serving;
  initial_ = session_->Pin();
  return initial_->epoch() == 0 ? "" : "first epoch is not 0";
}

std::string ServeStream::Check(const StreamQuery& q, const Rows& rows,
                               uint64_t epoch) const {
  const std::string err =
      CheckServedAnswer(model_.Expected(q), epoch_, rows, epoch);
  return err.empty() ? "" : q.line + ": " + err;
}

std::string ServeStream::Answer(const StreamQuery& q, Rows* rows,
                                uint64_t* epoch) const {
  const inflog::serve::SnapshotHandle snap = session_->Pin();
  auto parsed = inflog::serve::ParseServeQuery(q.line, snap->symbols());
  if (!parsed.ok()) return parsed.status().ToString();
  auto answer =
      inflog::serve::EvalServeQuery(*parsed, session_->program(), *snap);
  if (!answer.ok()) return answer.status().ToString();
  *rows = AnswerRows(*answer, snap->symbols());
  *epoch = snap->epoch();
  return "";
}

std::string ServeStream::Step(ServeSamples* samples) {
  step_ = planner_.Next();
  model_.Apply(step_);
  ++epoch_;

  Tracer::Scope visible(tracer_, "serve.update_visible");
  auto batch = inflog::ParseUpdateLine(step_.update, engine_.symbols().get());
  if (!batch.ok()) return batch.status().ToString();
  {
    Tracer::Scope span(tracer_, "serve.ServingSession::Enqueue");
    auto flushed = session_->Enqueue(*batch);
    if (!flushed.ok()) return flushed.status().ToString();
  }
  inflog::serve::SnapshotHandle snap = session_->Pin();
  auto seen = session_->Query(step_.visibility.line, snap);
  samples->visible_s.push_back(visible.Stop());
  ++samples->ops;
  if (!seen.ok()) return seen.status().ToString();
  std::string err =
      CheckAnswer(step_.visibility, seen->epoch, seen->answer, snap->symbols());
  if (!err.empty()) return "update not visible: " + err;

  for (const StreamQuery& q : step_.queries) {
    Tracer::Scope span(tracer_, "serve.ServingSession::Query");
    auto outcome = session_->Query(q.line, snap);
    samples->query_s.push_back(span.Stop());
    ++samples->ops;
    if (!outcome.ok()) return q.line + ": " + outcome.status().ToString();
    err = CheckAnswer(q, outcome->epoch, outcome->answer, snap->symbols());
    if (!err.empty()) return err;
    if (tracer_ == nullptr) continue;
    Tracer::Scope eval(tracer_, "serve.ParseServeQuery+EvalServeQuery");
    auto parsed = inflog::serve::ParseServeQuery(q.line, snap->symbols());
    if (!parsed.ok()) return parsed.status().ToString();
    auto answer = inflog::serve::EvalServeQuery(*parsed, session_->program(),
                                                *snap);
    samples->query_eval_s.push_back(eval.Stop());
    if (!answer.ok()) return answer.status().ToString();
    err = CheckAnswer(q, snap->epoch(), *answer, snap->symbols());
    if (!err.empty()) return "uncached " + err;
  }
  return step_.insert ? CheckRestored() : "";
}

std::string ServeStream::CheckRestored() const {
  const inflog::serve::SnapshotHandle snap = session_->Pin();
  for (const char* name : {"E", "T", "N"}) {
    auto now = snap->Find(session_->program(), name);
    auto then = initial_->Find(session_->program(), name);
    if (!now.ok() || !then.ok()) return std::string("no relation ") + name;
    if ((*now)->size() != (*then)->size()) {
      return std::string("after a net-zero pair, |") + name + "| = " +
             std::to_string((*now)->size()) + ", epoch 0 had " +
             std::to_string((*then)->size());
    }
  }
  // The touched ring's closure is complete again.
  auto t = snap->Find(session_->program(), "T");
  const int base = step_.a - step_.a % kRingSize;
  const inflog::SymbolTable& symbols = snap->symbols();
  for (int u = base; u < base + kRingSize; ++u) {
    for (int w = base; w < base + kRingSize; ++w) {
      const Tuple row{symbols.Find(V(u)), symbols.Find(V(w))};
      if (!(*t)->Contains(row)) {
        return "after a net-zero pair, T(" + V(u) + "," + V(w) + ") missing";
      }
    }
  }
  return "";
}

std::string ServeStream::CheckFinalState() const {
  const inflog::serve::SnapshotHandle snap = session_->Pin();
  for (const char* name : {"E", "T", "N"}) {
    auto now = snap->Find(session_->program(), name);
    auto then = initial_->Find(session_->program(), name);
    if (!now.ok() || !then.ok()) return std::string("no relation ") + name;
    if ((*now)->SortedTuples() != (*then)->SortedTuples()) {
      return std::string("final ") + name + " differs from epoch 0";
    }
  }
  return "";
}

}  // namespace inflog_bench
