// Hot-path microbenchmarks for the incremental selection index and the
// coalesced read path. Unlike the paper-figure benchmarks, these measure
// HOST wall-clock time (the quantities under test are in-memory CPU costs
// and I/O call-batching, not modeled disk service times) and emit a single
// machine-readable JSON object on stdout:
//
//   victim_selection: indexed SelectSegmentsToClean vs the reference
//     scan-and-sort, per pass, at 512 and 4096 segments and both policies —
//     the indexed cost should grow sublinearly in segment count while the
//     reference grows linearly.
//   sim: simulator overwrite steps/sec at 512 and 4096 segments (victim
//     picks ride the same index).
//   sequential_read: throughput reading a contiguous 32-MB file through one
//     bulk ReadAt (run-coalesced device I/O) vs a 4-KB-at-a-time ReadAt
//     loop, with the read cache disabled so every pass reaches the device.
//     Reported both as modeled Wren IV disk time (the repo's standard
//     measure — coalescing saves the per-request overheads) and as host
//     wall-clock over the raw in-memory backing.
//   block_cache: single-thread BlockCache costs at the wall-clock
//     benchmark's size (16,384 frames of 4 KB, 8 shards): ns per PutDirty
//     overwrite, per PutClean that evicts, and per Get hit, and us per
//     FlushAll with 630 frames dirty (in 21 runs of 30 blocks, the log's
//     write shape) — the barrier a concurrent Sync holds every client behind.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/cache/block_cache.h"
#include "src/disk/mem_disk.h"
#include "src/disk/sim_disk.h"
#include "src/lfs/lfs.h"
#include "src/sim/sim.h"
#include "src/util/rng.h"

namespace lfs::bench {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct SelectionResult {
  uint32_t nsegments = 0;
  const char* policy = "";
  double indexed_us = 0.0;
  double reference_us = 0.0;
  uint32_t victims = 0;
};

// Builds a fragmented filesystem: ~70% full of one-segment files, each then
// truncated to a pseudo-random size so segment utilizations are spread out,
// and checkpointed so the segments are eligible victims.
SelectionResult BenchSelection(uint32_t target_segments, CleaningPolicy policy,
                               const char* policy_name) {
  LfsConfig cfg;
  cfg.block_size = 1024;
  cfg.segment_blocks = 16;
  cfg.max_inodes = 16384;
  cfg.clean_lo = 2;
  cfg.clean_hi = 4;
  cfg.reserve_segments = 3;
  cfg.write_buffer_blocks = 64;
  cfg.policy = policy;
  cfg.read_cache_blocks = 256;
  MemDisk disk(cfg.block_size, uint64_t{target_segments} * cfg.segment_blocks + 256);
  auto fs = LfsFileSystem::Mkfs(&disk, cfg).value();

  const uint32_t nsegs = fs->superblock().nsegments;
  const uint32_t nfiles = nsegs * 7 / 10;
  Rng rng(7);
  std::vector<uint8_t> content(16000, 0xAB);
  for (uint32_t i = 0; i < nfiles; i++) {
    std::string path = "/f" + std::to_string(i);
    if (!fs->WriteFile(path, content).ok()) {
      break;  // hit the capacity limit: enough population for the bench
    }
  }
  (void)fs->Sync();
  for (uint32_t i = 0; i < nfiles; i++) {
    auto ino = fs->Lookup("/f" + std::to_string(i));
    if (!ino.ok()) {
      break;
    }
    (void)fs->Truncate(ino.value(), rng.NextInRange(1024, 15 * 1024));
  }
  (void)fs->Sync();
  (void)fs->WriteCheckpoint();

  SelectionResult r;
  r.nsegments = nsegs;
  r.policy = policy_name;
  r.victims = static_cast<uint32_t>(fs->SelectSegmentsToClean(16).size());

  const int indexed_iters = static_cast<int>(SmokePick(2000, 200));
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < indexed_iters; i++) {
    (void)fs->SelectSegmentsToClean(16);
  }
  r.indexed_us = SecondsSince(t0) * 1e6 / indexed_iters;

  const int reference_iters = static_cast<int>(SmokePick(200, 20));
  uint64_t now = fs->clock().Now();
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reference_iters; i++) {
    (void)fs->SelectSegmentsToCleanReference(16, now);
  }
  r.reference_us = SecondsSince(t0) * 1e6 / reference_iters;
  return r;
}

double BenchSimStepsPerSec(uint32_t nsegments) {
  sim::SimConfig cfg;
  cfg.nsegments = nsegments;
  cfg.blocks_per_segment = 32;
  cfg.disk_utilization = 0.75;
  cfg.policy = sim::Policy::kCostBenefit;
  cfg.age_sort = true;
  sim::CleaningSimulator simulator(cfg);
  const uint64_t warmup = uint64_t{2} * simulator.nfiles();
  for (uint64_t i = 0; i < warmup; i++) {
    simulator.Step();
  }
  const uint64_t steps = SmokePick(200000, 20000);
  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < steps; i++) {
    simulator.Step();
  }
  return static_cast<double>(steps) / SecondsSince(t0);
}

struct ReadResult {
  uint32_t block_size = 0;
  double coalesced_mb_s = 0.0;       // modeled Wren IV disk time
  double per_block_mb_s = 0.0;
  uint64_t coalesced_requests = 0;   // device reads issued per pass
  uint64_t per_block_requests = 0;
  double coalesced_wall_mb_s = 0.0;  // host wall-clock over MemDisk
  double per_block_wall_mb_s = 0.0;
};

ReadResult BenchSequentialRead(uint32_t block_size) {
  LfsConfig cfg;
  cfg.block_size = block_size;
  cfg.segment_blocks = 256;
  cfg.read_cache_blocks = 0;  // every pass must reach the device
  SimDisk disk(std::make_unique<MemDisk>(cfg.block_size, (96ull << 20) / block_size),
               DiskModelParams::WrenIV());
  auto fs = LfsFileSystem::Mkfs(&disk, cfg).value();

  const uint64_t file_bytes = 32ull << 20;
  std::vector<uint8_t> chunk(1 << 20);
  Rng rng(11);
  for (auto& b : chunk) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  InodeNum ino = fs->Create("/big").value();
  for (uint64_t off = 0; off < file_bytes; off += chunk.size()) {
    (void)fs->WriteAt(ino, off, chunk);
  }
  (void)fs->Sync();

  ReadResult r;
  r.block_size = block_size;
  const double mb = static_cast<double>(file_bytes) / (1 << 20);
  std::vector<uint8_t> buf(file_bytes);
  const uint32_t bs = cfg.block_size;
  const int passes = static_cast<int>(SmokePick(5, 2));

  disk.ResetStats();
  auto t0 = std::chrono::steady_clock::now();
  for (int p = 0; p < passes; p++) {
    (void)fs->ReadAt(ino, 0, buf);
  }
  r.coalesced_wall_mb_s = mb * passes / SecondsSince(t0);
  r.coalesced_mb_s = mb * passes / disk.stats().busy_sec;
  r.coalesced_requests = disk.stats().reads / passes;

  disk.ResetStats();
  t0 = std::chrono::steady_clock::now();
  for (int p = 0; p < passes; p++) {
    for (uint64_t off = 0; off < file_bytes; off += bs) {
      (void)fs->ReadAt(ino, off, std::span<uint8_t>(buf).subspan(off, bs));
    }
  }
  r.per_block_wall_mb_s = mb * passes / SecondsSince(t0);
  r.per_block_mb_s = mb * passes / disk.stats().busy_sec;
  r.per_block_requests = disk.stats().reads / passes;
  return r;
}

struct CacheResult {
  double put_dirty_ns = 0.0;
  double put_clean_evict_ns = 0.0;
  double get_hit_ns = 0.0;
  double flush_all_us = 0.0;
};

CacheResult BenchBlockCache() {
  constexpr uint64_t kFrames = 16384;
  constexpr uint32_t kBs = 4096;
  cache::BlockCacheConfig cfg;
  cfg.capacity_blocks = kFrames;
  cfg.shards = 8;
  cfg.block_size = kBs;
  cache::BlockCache cache(cfg, [](BlockNo, uint64_t, std::span<const uint8_t>) {
    return OkStatus();
  });
  std::vector<uint8_t> buf(kBs, 0x5a);
  for (BlockNo b = 0; b < kFrames; b++) {
    cache.PutClean(b, buf);
  }
  // A stride coprime to kFrames visits every resident block in a scattered
  // order, so the loops are not one sequential sweep of the index.
  auto resident = [](uint64_t i) -> BlockNo { return (i * 7919) % kFrames; };
  const uint64_t ops = SmokePick(2000000, 200000);
  CacheResult r;

  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < ops; i++) {
    cache.Get(resident(i), buf);
  }
  r.get_hit_ns = SecondsSince(t0) * 1e9 / static_cast<double>(ops);

  t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < ops; i++) {
    cache.PutDirty(resident(i), buf);
  }
  r.put_dirty_ns = SecondsSince(t0) * 1e9 / static_cast<double>(ops);
  (void)cache.FlushAll();

  // Every frame is clean and resident: each new block evicts the LRU frame.
  t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < ops; i++) {
    cache.PutClean(kFrames + i, buf);
  }
  r.put_clean_evict_ns = SecondsSince(t0) * 1e9 / static_cast<double>(ops);

  const BlockNo first = ops;  // the eviction loop left [ops, ops + kFrames) resident
  const int flushes = static_cast<int>(SmokePick(200, 20));
  double flush_s = 0.0;
  for (int f = 0; f < flushes; f++) {
    for (uint64_t run = 0; run < 21; run++) {
      for (uint64_t k = 0; k < 30; k++) {
        cache.PutDirty(first + run * 700 + k, buf);
      }
    }
    t0 = std::chrono::steady_clock::now();
    (void)cache.FlushAll();
    flush_s += SecondsSince(t0);
  }
  r.flush_all_us = flush_s * 1e6 / flushes;
  return r;
}

int Main() {
  std::vector<SelectionResult> selection;
  for (uint32_t segs : {512u, 4096u}) {
    selection.push_back(BenchSelection(segs, CleaningPolicy::kGreedy, "greedy"));
    selection.push_back(BenchSelection(segs, CleaningPolicy::kCostBenefit, "cost_benefit"));
  }
  double sim512 = BenchSimStepsPerSec(512);
  double sim4096 = BenchSimStepsPerSec(4096);
  std::vector<ReadResult> reads;
  for (uint32_t bs : {4096u, 1024u}) {
    reads.push_back(BenchSequentialRead(bs));
  }
  CacheResult cache = BenchBlockCache();

  printf("{\n  \"bench\": \"perf_hotpaths\",\n  \"victim_selection\": [\n");
  for (size_t i = 0; i < selection.size(); i++) {
    const SelectionResult& s = selection[i];
    printf("    {\"nsegments\": %u, \"policy\": \"%s\", \"victims_per_pass\": %u, "
           "\"indexed_us_per_pass\": %.3f, \"reference_us_per_pass\": %.3f, "
           "\"speedup\": %.2f}%s\n",
           s.nsegments, s.policy, s.victims, s.indexed_us, s.reference_us,
           s.reference_us / s.indexed_us, i + 1 < selection.size() ? "," : "");
  }
  printf("  ],\n  \"sim\": [\n");
  printf("    {\"nsegments\": 512, \"steps_per_sec\": %.0f},\n", sim512);
  printf("    {\"nsegments\": 4096, \"steps_per_sec\": %.0f}\n", sim4096);
  printf("  ],\n");
  printf("  \"sequential_read\": [\n");
  for (size_t i = 0; i < reads.size(); i++) {
    const ReadResult& read = reads[i];
    printf("    {\"file_mb\": 32, \"block_size\": %u, \"coalesced_mb_per_s\": %.2f, "
           "\"per_block_mb_per_s\": %.2f, \"speedup\": %.2f, "
           "\"coalesced_requests_per_pass\": %llu, \"per_block_requests_per_pass\": %llu, "
           "\"coalesced_wall_mb_per_s\": %.1f, \"per_block_wall_mb_per_s\": %.1f}%s\n",
           read.block_size, read.coalesced_mb_s, read.per_block_mb_s,
           read.coalesced_mb_s / read.per_block_mb_s,
           static_cast<unsigned long long>(read.coalesced_requests),
           static_cast<unsigned long long>(read.per_block_requests),
           read.coalesced_wall_mb_s, read.per_block_wall_mb_s,
           i + 1 < reads.size() ? "," : "");
  }
  printf("  ],\n");
  printf("  \"block_cache\": {\"frames\": 16384, \"block_size\": 4096, "
         "\"put_dirty_ns\": %.1f, \"put_clean_evict_ns\": %.1f, \"get_hit_ns\": %.1f, "
         "\"flush_all_630_dirty_us\": %.1f}\n",
         cache.put_dirty_ns, cache.put_clean_evict_ns, cache.get_hit_ns, cache.flush_all_us);
  printf("}\n");

  // The stable-schema report CI diffs. Modeled/count metrics are
  // deterministic; host wall-clock measurements carry the "wall." prefix so
  // schema comparisons can skip them.
  BenchReport report("perf_hotpaths");
  const uint32_t targets[2] = {512u, 4096u};
  for (size_t i = 0; i < selection.size(); i++) {
    const SelectionResult& s = selection[i];
    std::string p = "selection." + std::string(s.policy) + ".s" +
                    std::to_string(targets[i / 2]) + ".";
    report.AddScalar(p + "victims_per_pass", s.victims);
    report.AddScalar("wall." + p + "indexed_us_per_pass", s.indexed_us);
    report.AddScalar("wall." + p + "reference_us_per_pass", s.reference_us);
    report.AddScalar("wall." + p + "speedup", s.reference_us / s.indexed_us);
  }
  report.AddScalar("wall.sim.steps_per_sec.s512", sim512);
  report.AddScalar("wall.sim.steps_per_sec.s4096", sim4096);
  for (const ReadResult& read : reads) {
    std::string p = "read.bs" + std::to_string(read.block_size) + ".";
    report.AddScalar(p + "coalesced_mb_per_s", read.coalesced_mb_s);
    report.AddScalar(p + "per_block_mb_per_s", read.per_block_mb_s);
    report.AddScalar(p + "coalesced_requests_per_pass",
                     static_cast<double>(read.coalesced_requests));
    report.AddScalar(p + "per_block_requests_per_pass",
                     static_cast<double>(read.per_block_requests));
    report.AddScalar("wall." + p + "coalesced_mb_per_s", read.coalesced_wall_mb_s);
    report.AddScalar("wall." + p + "per_block_mb_per_s", read.per_block_wall_mb_s);
  }
  report.AddScalar("wall.cache.put_dirty_ns", cache.put_dirty_ns);
  report.AddScalar("wall.cache.put_clean_evict_ns", cache.put_clean_evict_ns);
  report.AddScalar("wall.cache.get_hit_ns", cache.get_hit_ns);
  report.AddScalar("wall.cache.flush_all_630_dirty_us", cache.flush_all_us);
  report.Write();
  return 0;
}

}  // namespace
}  // namespace lfs::bench

int main() { return lfs::bench::Main(); }
