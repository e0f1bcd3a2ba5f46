// In-memory spans recorded by the benchmark around its calls into SCGuard,
// per-layer self time, and a Chrome trace-event export (ui.perfetto.dev)
// written once at exit. One SpanBuffer per thread; nothing is shared while
// spans are recorded.

#ifndef SCGUARD_PERFBENCH_SPANS_H_
#define SCGUARD_PERFBENCH_SPANS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

enum SpanName : uint16_t {
  kSpanRun,              ///< A whole stage-driven run (root).
  kSpanU2uAdd,           ///< U2uCandidateStage::AddWorker over all workers.
  kSpanU2uPrepare,       ///< U2uCandidateStage::Prepare.
  kSpanU2uCollect,       ///< U2uCandidateStage::Collect, one task.
  kSpanU2eRank,          ///< U2eRankStage::Rank, one task.
  kSpanE2eRun,           ///< E2eContactStage::Run, one task.
  kSpanU2uMarkMatched,   ///< U2uCandidateStage::MarkMatched (inside E2E).
  kSpanU2uRelocate,      ///< UpdateWorkerLocation + MarkAvailable, a report.
  kSpanServiceRegister,  ///< RegisterWorker over all workers.
  kSpanServiceStart,     ///< AssignmentService::Start.
  kSpanServiceSubmit,    ///< AssignmentService::SubmitTask, one call.
  kSpanServiceReport,    ///< AssignmentService::ReportLocation, one call.
  kSpanServiceStop,      ///< AssignmentService::Stop(kDrain).
  kSpanServiceReplay,    ///< AssignmentService::Replay of the admission log.
  kSpanCount,
};

inline const char* SpanLabel(uint16_t name) {
  static constexpr std::array<const char*, kSpanCount> kLabels = {
      "run",          "u2u.add",         "u2u.prepare",
      "u2u.collect",  "u2e.rank",        "e2e.run",
      "u2u.mark_matched", "u2u.relocate", "service.register",
      "service.start", "service.submit", "service.report",
      "service.stop", "service.replay"};
  return name < kSpanCount ? kLabels[name] : "?";
}

struct Span {
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t request;  ///< Task or report index the span belongs to.
  uint16_t name;
};

/// Spans of one thread, appended in completion order.
class SpanBuffer {
 public:
  void Reserve(size_t n) { spans_.reserve(n); }
  void Add(uint16_t name, uint64_t start_ns, uint64_t end_ns,
           uint32_t request = 0) {
    spans_.push_back({start_ns, end_ns, request, name});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Per-name totals over a set of buffers.
struct LayerTimes {
  std::array<double, kSpanCount> total_s{};  ///< Summed span durations.
  std::array<double, kSpanCount> self_s{};   ///< Minus nested child spans.
  std::array<int64_t, kSpanCount> count{};
  /// Individual durations (seconds), kept for percentiles.
  std::array<std::vector<double>, kSpanCount> durations;
};

/// Self time: a span's duration minus the part its children cover. Spans of
/// one thread nest (each is recorded around a call), so after sorting by
/// start (longest first on ties) a stack recovers every span's parent.
inline LayerTimes SummarizeSpans(const std::vector<const SpanBuffer*>& bufs) {
  LayerTimes t;
  for (const SpanBuffer* buf : bufs) {
    std::vector<Span> s = buf->spans();
    std::sort(s.begin(), s.end(), [](const Span& a, const Span& b) {
      return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                      : a.end_ns > b.end_ns;
    });
    std::vector<size_t> stack;
    std::vector<double> self(s.size());
    for (size_t i = 0; i < s.size(); ++i) {
      while (!stack.empty() && s[stack.back()].end_ns <= s[i].start_ns) {
        stack.pop_back();
      }
      const double d = static_cast<double>(s[i].end_ns - s[i].start_ns) * 1e-9;
      self[i] = d;
      if (!stack.empty()) self[stack.back()] -= d;
      stack.push_back(i);
    }
    for (size_t i = 0; i < s.size(); ++i) {
      const uint16_t n = s[i].name;
      const double d = static_cast<double>(s[i].end_ns - s[i].start_ns) * 1e-9;
      t.total_s[n] += d;
      t.self_s[n] += self[i];
      t.count[n] += 1;
      t.durations[n].push_back(d);
    }
  }
  return t;
}

/// Writes every span as a Chrome trace-event "X" record, one track per
/// buffer. Returns false when the file cannot be written.
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<const SpanBuffer*>& bufs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const SpanBuffer* buf : bufs) {
    for (const Span& s : buf->spans()) origin = std::min(origin, s.start_ns);
  }
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
  bool first = true;
  for (size_t tid = 0; tid < bufs.size(); ++tid) {
    for (const Span& s : bufs[tid]->spans()) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"request\": %u}}",
                   first ? "" : ",\n", SpanLabel(s.name), tid,
                   static_cast<double>(s.start_ns - origin) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                   s.request);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // SCGUARD_PERFBENCH_SPANS_H_
