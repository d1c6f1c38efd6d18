// Workload scripts for the crash-consistency model checker.
//
// A Workload is a deterministic, replayable list of filesystem operations
// plus the geometry it runs under. Scripts serialize to a line-oriented text
// format so failing fuzzer seeds can be checked into tests/seeds/, attached
// to CI artifacts, and shrunk by the trace minimizer:
//
//   workload smallfiles
//   disk_blocks 2048
//   num_logs 1
//   write_buffer_blocks 16
//   op mkdir /d0
//   op create /d0/a
//   op write /d0/a off=0 len=3000 seed=7
//   op rename /d0/a /d0/b
//   op sync
//   op clean
//
// Content payloads are derived from (seed, size) so a script carries no
// bulk data; DeterministicContent regenerates the exact bytes everywhere
// (recorder, reference model, oracle).

#ifndef LFS_CHECK_WORKLOAD_H_
#define LFS_CHECK_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/lfs/config.h"
#include "src/util/result.h"

namespace lfs::check {

enum class OpKind : uint8_t {
  kCreate,
  kMkdir,
  kUnlink,
  kRmdir,
  kLink,     // a = existing, b = new link
  kRename,   // a = from, b = to (regular files only)
  kWrite,    // a = path, offset/length/seed
  kTruncate, // a = path, length = new size
  kSync,
  kClean,    // one forced cleaner pass
};

// Built with designated initializers ({.kind = ..., .a = ...}); every member
// has a default initializer, so fields left out are well defined.
struct Op {
  OpKind kind = OpKind::kSync;
  std::string a = {};
  std::string b = {};
  uint64_t offset = 0;
  uint64_t length = 0;
  uint64_t seed = 0;
};

struct Workload {
  std::string name;
  uint64_t disk_blocks = 2048;
  uint32_t num_logs = 1;
  uint32_t write_buffer_blocks = 16;
  // When nonzero, `op clean` passes drain high-utilization victims
  // incrementally (cfg.partial_compaction with a small per-pass block budget)
  // so exploration covers crashes between drain slices.
  uint32_t partial_compaction = 0;
  std::vector<Op> ops;

  // Small geometry so exhaustive exploration stays tractable: 1-KB blocks,
  // 16-block segments, tight cleaning thresholds.
  LfsConfig Config() const;

  std::string ToText() const;
  static Result<Workload> FromText(std::string_view text);
};

// The byte content written by a kWrite op: reproducible from (seed, size).
std::vector<uint8_t> DeterministicContent(uint64_t seed, size_t size);

// Canonical traces the CI smoke job explores exhaustively. Names:
// "smallfiles" (create/write/overwrite/truncate/unlink mix, single log) and
// "namespace" (rename cycles, link webs, rmdir, cleaner pass, num_logs=2).
Result<Workload> CanonicalWorkload(std::string_view name);
std::vector<std::string> CanonicalWorkloadNames();

}  // namespace lfs::check

#endif  // LFS_CHECK_WORKLOAD_H_
