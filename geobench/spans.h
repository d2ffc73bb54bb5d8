// In-memory spans recorded by the benchmark around its calls into the
// program's layers. Spans are written out only when the run ends, so
// recording is a clock read and a vector append. When disabled, Begin and
// End do nothing and read no clock, which is how the traced replay
// measures its own overhead.
#ifndef GEOBENCH_SPANS_H_
#define GEOBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace geobench {

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Span names, one per layer boundary the replay times.
enum class SpanName : uint8_t {
  kReplayStep,     // Root: one batch (or one catalog request) end to end.
  kNetDecode,      // TryDecodeFrame + Decode(Tenant)IssueRequest.
  kNetEncode,      // EncodeIssueResult + EncodeFrame.
  kServiceIssue,   // IssuanceService::TryIssueBatch.
  kCoreInstance,   // SoaInstanceValidator::SatisfyingSet over a batch.
  kCatalogIssue,   // CatalogService::TryIssue.
  kCatalogSpill,   // CatalogService::SpillTenant (spill probe).
  kServiceReconfig,  // AcquireLicense / RevokeLicenseById.
  kPersistSync,    // SyncJournal / SyncJournals.
};

inline const char* SpanNameText(SpanName name) {
  switch (name) {
    case SpanName::kReplayStep: return "replay.step";
    case SpanName::kNetDecode: return "net.decode";
    case SpanName::kNetEncode: return "net.encode";
    case SpanName::kServiceIssue: return "service.issue_batch";
    case SpanName::kCoreInstance: return "core.satisfying_set";
    case SpanName::kCatalogIssue: return "catalog.try_issue";
    case SpanName::kCatalogSpill: return "catalog.spill_tenant";
    case SpanName::kServiceReconfig: return "service.reconfig";
    case SpanName::kPersistSync: return "persist.sync";
  }
  return "?";
}

struct Span {
  SpanName name = SpanName::kReplayStep;
  uint32_t parent = 0;  // 1-based index of the parent span; 0 = root.
  uint64_t request_id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t duration() const { return end_ns - start_ns; }
};

class SpanLog {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Opens a span and returns its 1-based handle (0 when disabled).
  uint32_t Begin(SpanName name, uint32_t parent, uint64_t request_id) {
    if (!enabled_) {
      return 0;
    }
    spans_.push_back(Span{name, parent, request_id, NowNanos(), 0});
    return static_cast<uint32_t>(spans_.size());
  }

  void End(uint32_t handle) {
    if (handle != 0) {
      spans_[handle - 1].end_ns = NowNanos();
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span: its duration minus the union of its
  // children's intervals (children of one parent never overlap here, since
  // the replay is single-threaded, so the union is their sum).
  std::vector<uint64_t> SelfTimes() const {
    std::vector<uint64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].duration();
    }
    for (const Span& span : spans_) {
      if (span.parent != 0) {
        uint64_t& parent_self = self[span.parent - 1];
        parent_self -= std::min(parent_self, span.duration());
      }
    }
    return self;
  }

  // Writes every span as CSV: name,parent,request_id,start_ns,end_ns,self_ns.
  bool WriteCsv(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      return false;
    }
    const std::vector<uint64_t> self = SelfTimes();
    std::fprintf(out, "index,name,parent,request_id,start_ns,end_ns,self_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%zu,%s,%u,%llu,%llu,%llu,%llu\n", i + 1,
                   SpanNameText(s.name), s.parent,
                   static_cast<unsigned long long>(s.request_id),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(self[i]));
    }
    return std::fclose(out) == 0;
  }

 private:
  bool enabled_ = true;
  std::vector<Span> spans_;
};

}  // namespace geobench

#endif  // GEOBENCH_SPANS_H_
