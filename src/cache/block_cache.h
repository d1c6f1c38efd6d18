// BlockCache: a sharded, reference-counted, write-back block cache.
//
// The paper's premise (Section 1) is that growing main memories absorb an
// ever larger share of reads, leaving disks dominated by writes — which is
// what motivates a log layout in the first place. This cache is that main
// memory: interposed between a filesystem and its BlockDevice (see
// CachedBlockDevice), it serves re-reads from DRAM frames, absorbs
// overwrites, and emits dirty frames back to the device in sorted,
// run-coalesced batches.
//
// Structure: capacity is divided across N shards (block number hashed to a
// shard); each shard owns a mutex, a slot table of frame records, an open-
// addressed block->slot index, and an LRU list linked through slot indices.
// A slot's block-sized buffer is allocated the first time the slot is used
// and reused by every later occupant, so steady-state inserts and evictions
// allocate nothing. All operations on one block touch exactly one shard, so
// disjoint traffic scales with the shard count while a single mutex
// acquisition bounds every path.
//
// Eviction: least-recently-used *unpinned* frame of the full shard. A dirty
// victim is written back through the writeback callback while the shard
// lock is held — the lock makes writeback-then-drop atomic, so a concurrent
// reader can never observe the device without the frame's latest contents
// (the reader either still hits the frame or misses after the device has
// them). Pinned frames (refcount > 0) are never evicted; if every frame in
// a shard is pinned the shard temporarily overcommits rather than fail.
//
// Thread safety: every public method is safe to call concurrently. The
// writeback callback runs under a shard lock (FlushAll: under all shard
// locks) and must not re-enter the cache.

#ifndef LFS_CACHE_BLOCK_CACHE_H_
#define LFS_CACHE_BLOCK_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/disk/block_device.h"
#include "src/obs/trace.h"
#include "src/util/relaxed.h"
#include "src/util/status.h"

namespace lfs::cache {

struct BlockCacheConfig {
  uint64_t capacity_blocks = 4096;  // total frames across all shards
  uint32_t shards = 8;              // clamped to [1, capacity_blocks]
  uint32_t block_size = 4096;       // bytes per frame
};

// Counter family exported via obs::BindBlockCache. Relaxed atomics: bumped
// from any thread, read by benchmarks after the workload quiesces.
struct BlockCacheStats {
  Relaxed<uint64_t> hits = 0;              // Get served from a frame
  Relaxed<uint64_t> misses = 0;            // Get found nothing
  Relaxed<uint64_t> insertions = 0;        // new frames admitted
  Relaxed<uint64_t> evictions = 0;         // frames dropped to make room
  Relaxed<uint64_t> dirty_evictions = 0;   // evictions that required writeback
  Relaxed<uint64_t> writebacks = 0;        // writeback callback invocations
  Relaxed<uint64_t> writeback_blocks = 0;  // blocks pushed through the callback
  Relaxed<uint64_t> pin_overcommits = 0;   // insertions past capacity (all pinned)
};

class BlockCache {
 public:
  // Writes `count` blocks starting at `block` back to stable storage.
  // `data` holds count * block_size bytes.
  using WritebackFn =
      std::function<Status(BlockNo block, uint64_t count, std::span<const uint8_t> data)>;

  // `tracer` (optional) receives kCacheEvict/kCacheWriteback/kCacheFlush
  // events; pass the filesystem's trace buffer to interleave cache activity
  // with op events.
  BlockCache(const BlockCacheConfig& config, WritebackFn writeback,
             obs::TraceBuffer* tracer = nullptr);
  ~BlockCache();

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  // Copies the cached contents of `block` into `out` (block_size bytes) and
  // marks the frame most-recently-used. Returns false on miss.
  bool Get(BlockNo block, std::span<uint8_t> out);

  // Admits a clean frame for a block just read from the device. If the block
  // is already resident (a racing fill or a dirty frame), the existing frame
  // wins — a read fill must never clobber newer dirty contents.
  void PutClean(BlockNo block, std::span<const uint8_t> data);

  // Inserts or overwrites the frame and marks it dirty. The contents reach
  // the device on eviction or FlushAll.
  void PutDirty(BlockNo block, std::span<const uint8_t> data);

  // Overwrites the frame contents without changing its dirty bit, admitting
  // a clean frame if absent. For write-through callers that already sent the
  // data to the device.
  void PutThrough(BlockNo block, std::span<const uint8_t> data);

  // Reference counting: a pinned frame is never evicted. Pin fails (returns
  // false) if the block is not resident. Unpin of an unpinned or absent
  // block is a no-op.
  bool Pin(BlockNo block);
  void Unpin(BlockNo block);

  bool Contains(BlockNo block) const;
  bool IsDirty(BlockNo block) const;

  // Charges `n` extra misses to the hit-rate accounting. CachedBlockDevice
  // probes run extensions with Contains() (which is stat-silent) rather than
  // Get(), then reports the whole fetched run here so hits and misses stay
  // per-block commensurable.
  void NoteMisses(uint64_t n) { stats_.misses += n; }

  // Writes back every dirty frame, coalescing consecutively addressed blocks
  // into single writeback calls (sorted by address), and marks them clean.
  // Frames stay resident. Takes every shard lock for the duration.
  Status FlushAll();

  // Drops every clean, unpinned frame (tests and memory-pressure hooks).
  void DropClean();

  // Discards the frames of [block, block + count) without writeback — the
  // caller has declared the contents dead (TRIM path), so even dirty frames
  // are dropped rather than flushed. Pinned frames cannot vanish under their
  // holder; they are marked clean instead so the dead bytes never reach the
  // device, and evict normally once unpinned.
  void Invalidate(BlockNo block, uint64_t count);

  const BlockCacheStats& stats() const { return stats_; }
  uint64_t capacity_blocks() const { return capacity_; }
  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }
  uint64_t size() const;             // resident frames, all shards
  uint64_t dirty_count() const;      // resident dirty frames, all shards
  uint64_t shard_size(uint32_t shard) const;
  uint32_t ShardOf(BlockNo block) const;

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // One frame. Free slots are chained through `next`, with refcount 0 and
  // the dirty bit clear; `data` outlives occupants and is never freed before
  // the cache.
  struct Slot {
    BlockNo block = kNilBlock;
    uint32_t prev = kNoSlot;  // LRU neighbour toward the most recent end
    uint32_t next = kNoSlot;  // LRU neighbour toward the least recent end
    uint32_t refcount = 0;
    bool dirty = false;
    std::unique_ptr<uint8_t[]> data;
  };
  // Index bucket. Block numbers start at 0 (kNilBlock is a real key here),
  // so an empty bucket is marked by its slot, never by its block.
  struct Bucket {
    BlockNo block = kNilBlock;
    uint32_t slot = kNoSlot;
  };
  struct Shard {
    mutable std::mutex mu;
    std::vector<Slot> slots;
    // Linear probing over a power-of-two number of buckets; home bucket =
    // hash >> index_shift, i.e. 64 - log2(index.size()).
    std::vector<Bucket> index = std::vector<Bucket>(16);
    uint32_t index_shift = 60;
    uint32_t mru = kNoSlot;     // LRU list head
    uint32_t lru = kNoSlot;     // LRU list tail
    uint32_t free = kNoSlot;    // free-slot list head
    uint64_t live = 0;          // resident frames
  };
  // A dirty frame collected by FlushAll.
  struct DirtyRef {
    BlockNo block;
    uint32_t shard;
    uint32_t slot;
  };

  // All helpers run with shard.mu held by the caller. Eviction is
  // best-effort: a victim whose writeback fails is kept (the next flush
  // retries) and the shard overcommits instead of losing dirty data.
  Shard& ShardFor(BlockNo block, uint64_t* hash);
  const Shard& ShardFor(BlockNo block, uint64_t* hash) const;
  // Returns the slot holding `block`, or kNoSlot; `*bucket` (optional)
  // receives its index position.
  static uint32_t Find(const Shard& shard, BlockNo block, uint64_t hash,
                       size_t* bucket = nullptr);
  static void IndexInsert(Shard& shard, BlockNo block, uint64_t hash, uint32_t slot);
  static void IndexErase(Shard& shard, size_t bucket);
  static void LinkFront(Shard& shard, uint32_t slot);
  static void Unlink(Shard& shard, uint32_t slot);
  static void Touch(Shard& shard, uint32_t slot);
  // Unlinks and unindexes a resident frame and returns its slot to the free
  // list.
  static void Remove(Shard& shard, uint32_t slot);
  void Store(Slot& slot, std::span<const uint8_t> data) const;
  void EvictIfFull(Shard& shard);
  void Insert(Shard& shard, BlockNo block, uint64_t hash, std::span<const uint8_t> data,
              bool dirty);

  uint64_t capacity_;
  uint64_t shard_capacity_;
  uint32_t block_size_;
  WritebackFn writeback_;
  obs::TraceBuffer* tracer_;
  std::vector<Shard> shards_;
  BlockCacheStats stats_;
  // FlushAll scratch, reused across calls (guarded by holding every shard
  // lock).
  std::vector<DirtyRef> flush_dirty_;
  std::vector<uint8_t> flush_run_;
};

}  // namespace lfs::cache

#endif  // LFS_CACHE_BLOCK_CACHE_H_
