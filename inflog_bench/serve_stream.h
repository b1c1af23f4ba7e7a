// The served update stream: disjoint 16-vertex rings under kServeProgram,
// one closed-loop client sending net-zero update pairs (delete one ring
// edge, then put it back), each update followed by a mix of point, join
// and ground queries. Every answer is checked against a walk over the
// current edges of its ring.

#ifndef INFLOG_BENCH_SERVE_STREAM_H_
#define INFLOG_BENCH_SERVE_STREAM_H_

#include <memory>
#include <string>
#include <vector>

#include "inflog_bench/common.h"
#include "inflog_bench/oracle.h"
#include "inflog_bench/trace.h"
#include "src/core/engine.h"

namespace inflog_bench {

constexpr int kRingSize = 16;

struct StreamQuery {
  enum Kind { kPoint, kJoin, kNeg, kGround } kind;
  int u = 0;
  int w = 0;  ///< kGround only.
  std::string line;
};

/// One update line and the queries sent after it.
struct StreamStep {
  int a = 0;
  int b = 0;  ///< The ring edge a -> b the update removes or restores.
  bool insert = false;
  std::string update;
  StreamQuery visibility;  ///< ?T(a,b): false after the delete, true after.
  std::vector<StreamQuery> queries;
};

/// Rings 0..kHotRings-1 are only ever queried, never updated.
constexpr int kHotRings = 4;
/// Times each distinct query of a step is sent.
constexpr int kQueryPasses = 5;

/// The seeded stream: odd steps delete a random edge of a random ring past
/// the hot ones, even steps put it back. After each update come eight
/// distinct queries, a point, a join, a negated and a ground query on the
/// updated ring and one of each on the hot rings, sent kQueryPasses times
/// over. The cache drops every answer that reads a relation the update
/// changed, and every query reads E, T or N, so each first pass misses and
/// the later ones hit: 80% hits, so the median query is a hit and the
/// 99th percentile a miss.
class StreamPlanner {
 public:
  StreamPlanner(int rings, uint64_t seed);
  StreamStep Next();

 private:
  static StreamQuery Point(int u);
  static StreamQuery Join(int u);
  static StreamQuery Neg(int u);
  static StreamQuery Ground(int u, int w);
  int rings_;
  Rng rng_;
  std::vector<StreamQuery> hot_;
  int pending_a_ = -1;
};

/// The reference: which ring edges are present now.
class RingModel {
 public:
  explicit RingModel(int rings);
  static int Next(int v) { return v - v % kRingSize + (v + 1) % kRingSize; }
  void Apply(const StreamStep& step) { present_[step.a] = step.insert; }
  /// Vertices reachable from v by one or more present edges.
  std::vector<int> Reach(int v) const;
  Rows Expected(const StreamQuery& q) const;
  std::string FactsText() const;

 private:
  std::vector<char> present_;  ///< present_[v]: edge v -> Next(v).
};

struct ServeSamples {
  std::vector<double> visible_s;  ///< Update handed over -> visible.
  std::vector<double> query_s;    ///< Per ServingSession::Query call.
  std::vector<double> query_eval_s;  ///< Parse + eval, cache bypassed.
  uint64_t ops = 0;               ///< Updates plus queries.
};

/// Converts a served answer to packed rows (ground: {(0)} for true).
Rows AnswerRows(const inflog::serve::ServeAnswer& answer,
                const inflog::SymbolTable& symbols);

/// A serving session over the rings, driven one step at a time.
class ServeStream {
 public:
  /// `tracer` non-null also times the cache-bypassed query path.
  ServeStream(int rings, uint64_t seed, Tracer* tracer);

  /// Loads program and facts and begins serving, up to the point epoch 0
  /// is published; `seconds` gets that time (fact text built before).
  std::string Setup(double* seconds);

  /// Sends one update and its queries, checks every answer, and after a
  /// net-zero pair checks that the state is back to epoch 0's.
  std::string Step(ServeSamples* samples);

  /// Every relation of the current epoch equals epoch 0, tuple for tuple.
  std::string CheckFinalState() const;

  /// Answers `q` at the current epoch, cache bypassed.
  std::string Answer(const StreamQuery& q, Rows* rows, uint64_t* epoch) const;
  /// Checks an answer claimed for `q` against the ring model at the
  /// current epoch.
  std::string Check(const StreamQuery& q, const Rows& rows,
                    uint64_t epoch) const;

  const StreamStep& last_step() const { return step_; }
  inflog::EvalStats stats() const { return session_->stats(); }
  const RingModel& model() const { return model_; }

 private:
  std::string CheckAnswer(const StreamQuery& q, uint64_t epoch,
                          const inflog::serve::ServeAnswer& answer,
                          const inflog::SymbolTable& symbols) const {
    return Check(q, AnswerRows(answer, symbols), epoch);
  }
  std::string CheckRestored() const;

  Tracer* tracer_;
  StreamPlanner planner_;
  RingModel model_;
  StreamStep step_;
  inflog::Engine engine_;
  inflog::serve::ServingSession* session_ = nullptr;
  inflog::serve::SnapshotHandle initial_;
  uint64_t epoch_ = 0;
};

}  // namespace inflog_bench

#endif  // INFLOG_BENCH_SERVE_STREAM_H_
