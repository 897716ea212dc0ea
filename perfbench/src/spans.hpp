// In-memory spans recorded by the traced run around the benchmark's own
// calls into the system (no tracing inside the system itself).
//
// Each operation gets a root span (the ghba::Client call); a lookup that ran
// the cascade gets one child span per level it reached, laid out back to
// back from LookupTrace::level_elapsed_ns. A buffer belongs to one thread
// and is never locked. When it fills, it keeps every other operation and
// doubles its sampling stride, so a long run stays bounded in memory and its
// sample stays spread evenly over the window.
#pragma once

#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint8_t {
  kLookup,
  kCreate,
  kUnlink,
  kRename,
  kLevel1,
  kLevel2,
  kLevel3,
  kLevel4,
};

inline const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kLookup: return "client.lookup";
    case SpanName::kCreate: return "client.create";
    case SpanName::kUnlink: return "client.unlink";
    case SpanName::kRename: return "client.rename";
    case SpanName::kLevel1: return "cluster.l1";
    case SpanName::kLevel2: return "cluster.l2";
    case SpanName::kLevel3: return "cluster.l3";
    case SpanName::kLevel4: return "cluster.l4";
  }
  return "unknown";
}

inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
inline constexpr std::uint8_t kSpanFromCache = 1;  ///< lookup answered by cache

struct Span {
  std::uint64_t op_id = 0;  ///< shared by all spans of one operation
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = kNoParent;  ///< index in the same buffer
  SpanName name = SpanName::kLookup;
  std::uint8_t flags = 0;

  double DurationUs() const {
    return static_cast<double>(end_ns - start_ns) / 1e3;
  }
};

class SpanBuffer {
 public:
  /// Whether operation `op_id` is recorded at the current stride.
  bool Sampled(std::uint64_t op_id) const { return op_id % stride_ == 0; }

  /// Record a root span; returns its index for the children.
  std::uint32_t AddRoot(const Span& span) {
    if (spans_.size() + 8 > capacity_) Thin();
    spans_.push_back(span);
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }

  void AddChild(std::uint32_t parent, Span span) {
    span.parent = parent;
    spans_.push_back(span);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Append every span as one CSV row (thread id first).
  void WriteCsv(std::FILE* out, unsigned thread,
                std::uint64_t origin_ns) const {
    for (const Span& s : spans_) {
      std::fprintf(out, "%u,%llu,%s,%lld,%llu,%llu,%u\n", thread,
                   static_cast<unsigned long long>(s.op_id),
                   SpanNameString(s.name),
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.start_ns - origin_ns),
                   static_cast<unsigned long long>(s.end_ns - origin_ns),
                   static_cast<unsigned>(s.flags));
    }
  }

 private:
  /// Keep the operations whose id is a multiple of the doubled stride.
  /// Children follow their root, so one pass remaps parent indices.
  void Thin() {
    stride_ *= 2;
    std::size_t out = 0;
    std::uint32_t root_at = kNoParent;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Span s = spans_[i];
      if (s.op_id % stride_ != 0) continue;
      if (s.parent == kNoParent) {
        root_at = static_cast<std::uint32_t>(out);
      } else {
        s.parent = root_at;
      }
      spans_[out++] = s;
    }
    spans_.resize(out);
  }

  static constexpr std::size_t capacity_ = 1u << 18;
  std::uint64_t stride_ = 1;
  std::vector<Span> spans_;
};

}  // namespace perfbench
