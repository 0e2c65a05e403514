#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace kgoa::perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t Tracer::Begin(const char* name, int32_t parent, int64_t chart) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, NowNs(), -1, parent, chart});
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::End(int32_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  // Children of each span, as intervals clipped to the parent.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent < 0 || span.end_ns < 0) continue;
    const Span& parent = spans_[static_cast<std::size_t>(span.parent)];
    if (parent.end_ns < 0) continue;
    const int64_t lo = std::max(span.start_ns, parent.start_ns);
    const int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (lo < hi) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(lo, hi);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    for (const auto& [lo, hi] : kids) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    const int64_t duration = span.end_ns - span.start_ns;
    SpanTotals& t = totals[span.name];
    ++t.count;
    t.total_ms += static_cast<double>(duration) * 1e-6;
    t.self_ms += static_cast<double>(duration - covered) * 1e-6;
  }
  return totals;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"chart\":%lld}\n",
                 i, s.name, static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns < 0 ? -1
                                                     : s.end_ns - origin),
                 s.parent, static_cast<long long>(s.chart));
  }
  return std::fclose(out) == 0;
}

}  // namespace kgoa::perfbench
