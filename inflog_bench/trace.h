// In-memory span recorder for the traced run: one span per call into a
// layer (name, start, end, parent span), written out at the end as
// Chrome trace-event JSON (opens in Perfetto or chrome://tracing).

#ifndef INFLOG_BENCH_TRACE_H_
#define INFLOG_BENCH_TRACE_H_

#include <cstdio>
#include <string>
#include <vector>

#include "inflog_bench/common.h"

namespace inflog_bench {

class Tracer {
 public:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;  ///< Index of the enclosing span, -1 at top level.
  };

  /// A span that is open until Stop() or destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
      start_ = Now();
      if (tracer_ != nullptr) id_ = tracer_->Open(name, start_);
    }
    ~Scope() { Stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Closes the span (once) and returns its length in seconds.
    double Stop() {
      if (!stopped_) {
        elapsed_ = Now() - start_;
        stopped_ = true;
        if (tracer_ != nullptr) tracer_->Close(id_, start_ + elapsed_);
      }
      return elapsed_;
    }

   private:
    Tracer* tracer_;
    int id_ = -1;
    double start_ = 0;
    double elapsed_ = 0;
    bool stopped_ = false;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as a complete ("X") event; false on I/O failure.
  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    const double origin = spans_.empty() ? 0 : spans_[0].start;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}\n",
                   i == 0 ? "" : ",", s.name, (s.start - origin) * 1e6,
                   (s.end - s.start) * 1e6, i, s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  int Open(const char* name, double start) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, start, start, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }
  void Close(int id, double end) {
    spans_[id].end = end;
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace inflog_bench

#endif  // INFLOG_BENCH_TRACE_H_
