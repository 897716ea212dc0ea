// The benchmark's workloads: namespace shape and per-thread operation
// streams. Everything here is a pure function of the workload seed; the
// system under test only ever sees the generated paths.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/zipf.hpp"

namespace perfbench {

enum class Workload : std::uint8_t { kStatHot, kStatCold, kChurn };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

enum class OpKind : std::uint8_t { kStat, kCreate, kUnlink, kRename };
inline constexpr int kOpKinds = 4;
const char* OpKindName(OpKind kind);

struct Shape {
  std::uint64_t files = 50000;  ///< namespace size, ids [0, files)
  std::uint32_t dirs = 100;     ///< /ns/d<k>/f<i> with k = i % dirs
  std::uint64_t active = 2000;  ///< hot set of stat_hot and churn stats
  double zipf_skew = 0.9;
  double absent_fraction = 0.1;  ///< stat_cold stats of absent paths
};

/// Path of namespace id `id`. Ids >= shape.files name paths that were never
/// created (the absent stats).
std::string NamespacePath(const Shape& shape, std::uint64_t id);

/// Seeded sample of `shape.active` distinct namespace ids: the hot set.
std::vector<std::uint64_t> ActiveSet(const Shape& shape, std::uint64_t seed);

struct Op {
  OpKind kind = OpKind::kStat;
  std::string path;  ///< stat target, new file, unlink target or rename source
  std::string dst;   ///< rename destination
  bool expect_found = true;  ///< stats: whether the path exists
  std::size_t live_index = 0;  ///< unlink/rename: index into Ledger::live
};

/// Files one client thread created and still owns, and the names it
/// removed (unlinked, or renamed away). The audit after the run checks the
/// cluster against it.
struct Ledger {
  std::vector<std::string> live;
  std::vector<std::string> gone;

  /// Record an acknowledged operation.
  void Apply(const Op& op);
  /// Forget an operation that failed: its outcome is unknown, so neither
  /// name is audited.
  void Drop(const Op& op);
};

/// One client thread's operation stream.
class OpGenerator {
 public:
  OpGenerator(Workload workload, const Shape& shape,
              const std::vector<std::uint64_t>& active, std::uint64_t seed,
              unsigned thread);

  /// The next operation of the workload mix.
  Op Next(const Ledger& ledger);

  /// Operation `i` of the post-window write probe: two creates, one unlink
  /// and one rename of this thread's files in every four operations.
  Op NextProbe(std::uint64_t i, const Ledger& ledger);

  /// FNV-1a digest of the first 4096 operations generated: a seed changes
  /// it, the code path that consumes it does not.
  std::uint64_t digest() const { return digest_; }

 private:
  Op Stat();
  Op HotStat();
  Op Create();
  Op RemoveOwned(OpKind kind, const Ledger& ledger);
  std::string NewName();
  Op Note(Op op);

  const Workload workload_;
  const Shape shape_;
  const std::vector<std::uint64_t>& active_;
  const unsigned thread_;
  ghba::Rng rng_;
  ghba::ZipfSampler zipf_;
  double rereference_prob_;
  std::vector<std::uint64_t> recent_;  ///< recency window (INS locality)
  std::size_t recent_pos_ = 0;
  std::uint64_t next_name_ = 0;
  std::uint64_t generated_ = 0;
  std::uint64_t digest_ = 14695981039346656037ULL;
};

}  // namespace perfbench
