// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its own calls into each kgoa
// layer (the library itself is not instrumented). A span has a name, a
// start and end on the steady clock, the span that caused it and the
// chart it belongs to. Spans are kept in memory and written out as JSON
// lines when the run ends. All spans are recorded from the benchmark's
// single generator thread, so the recorder takes no lock.
#ifndef KGOA_PERFBENCH_TRACE_H_
#define KGOA_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace kgoa::perfbench {

int64_t NowNs();

struct Span {
  const char* name = "";  // string literal
  int64_t start_ns = 0;
  int64_t end_ns = -1;    // -1 while open
  int32_t parent = -1;    // index of the causing span, -1 for a root
  int64_t chart = -1;     // chart id, -1 outside any chart
};

// Per-name totals over closed spans.
struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;  // duration minus the union of its children
};

class Tracer {
 public:
  // A disabled tracer records nothing and every call is a no-op.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span and returns its id (-1 when disabled).
  int32_t Begin(const char* name, int32_t parent = -1, int64_t chart = -1);
  void End(int32_t id);

  std::size_t size() const { return spans_.size(); }

  // Totals per span name. Self time subtracts the part of a span's
  // interval that its children cover (children may overlap each other).
  std::map<std::string, SpanTotals> Totals() const;

  // Writes one JSON object per span. Returns false on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int32_t parent = -1,
             int64_t chart = -1)
      : tracer_(tracer), id_(tracer.Begin(name, parent, chart)) {}
  ~ScopedSpan() { tracer_.End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int32_t id_;
};

}  // namespace kgoa::perfbench

#endif  // KGOA_PERFBENCH_TRACE_H_
