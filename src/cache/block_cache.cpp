#include "src/cache/block_cache.h"

#include <algorithm>
#include <cstring>

namespace lfs::cache {

namespace {

// Mixes the block number before taking the shard index so sequential log
// addresses spread across shards instead of marching through one at a time
// (splitmix64 finalizer — fast, and uniform enough for a shard pick).
uint64_t MixBlock(BlockNo block) {
  uint64_t x = block + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

BlockCache::BlockCache(const BlockCacheConfig& config, WritebackFn writeback,
                       obs::TraceBuffer* tracer)
    : capacity_(std::max<uint64_t>(1, config.capacity_blocks)),
      block_size_(config.block_size),
      writeback_(std::move(writeback)),
      tracer_(tracer) {
  uint32_t shards = std::max<uint32_t>(1, config.shards);
  shards = static_cast<uint32_t>(std::min<uint64_t>(shards, capacity_));
  shards_ = std::vector<Shard>(shards);
  shard_capacity_ = (capacity_ + shards - 1) / shards;
}

BlockCache::~BlockCache() = default;

uint32_t BlockCache::ShardOf(BlockNo block) const {
  return static_cast<uint32_t>(MixBlock(block) % shards_.size());
}

BlockCache::Shard& BlockCache::ShardFor(BlockNo block, uint64_t* hash) {
  *hash = MixBlock(block);
  return shards_[*hash % shards_.size()];
}

const BlockCache::Shard& BlockCache::ShardFor(BlockNo block, uint64_t* hash) const {
  *hash = MixBlock(block);
  return shards_[*hash % shards_.size()];
}

// The shard is the hash modulo the shard count, the home bucket the hash's
// high bits, so the blocks of one shard still spread over its whole index.
uint32_t BlockCache::Find(const Shard& shard, BlockNo block, uint64_t hash, size_t* bucket) {
  const size_t mask = shard.index.size() - 1;
  for (size_t i = hash >> shard.index_shift;; i = (i + 1) & mask) {
    const Bucket& b = shard.index[i];
    if (b.slot == kNoSlot) {
      return kNoSlot;
    }
    if (b.block == block) {
      if (bucket != nullptr) {
        *bucket = i;
      }
      return b.slot;
    }
  }
}

void BlockCache::IndexInsert(Shard& shard, BlockNo block, uint64_t hash, uint32_t slot) {
  auto place = [&shard](BlockNo b, uint64_t h, uint32_t sl) {
    const size_t mask = shard.index.size() - 1;
    size_t i = h >> shard.index_shift;
    while (shard.index[i].slot != kNoSlot) {
      i = (i + 1) & mask;
    }
    shard.index[i] = Bucket{b, sl};
  };
  if ((shard.live + 1) * 2 > shard.index.size()) {
    // Keep the index at most half full, so probe runs stay short: rehash
    // into twice the buckets (only while warming up or overcommitted).
    std::vector<Bucket> old = std::move(shard.index);
    shard.index.assign(old.size() * 2, Bucket{});
    shard.index_shift--;
    for (const Bucket& b : old) {
      if (b.slot != kNoSlot) {
        place(b.block, MixBlock(b.block), b.slot);
      }
    }
  }
  place(block, hash, slot);
}

// Backward-shift deletion: walk the probe run after the hole and pull back
// every entry whose home does not lie between the hole and its position, so
// lookups never need tombstones.
void BlockCache::IndexErase(Shard& shard, size_t bucket) {
  const size_t mask = shard.index.size() - 1;
  size_t hole = bucket;
  for (size_t j = (hole + 1) & mask; shard.index[j].slot != kNoSlot; j = (j + 1) & mask) {
    size_t home = MixBlock(shard.index[j].block) >> shard.index_shift;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      shard.index[hole] = shard.index[j];
      hole = j;
    }
  }
  shard.index[hole].slot = kNoSlot;
}

void BlockCache::LinkFront(Shard& shard, uint32_t slot) {
  Slot& s = shard.slots[slot];
  s.prev = kNoSlot;
  s.next = shard.mru;
  if (shard.mru != kNoSlot) {
    shard.slots[shard.mru].prev = slot;
  } else {
    shard.lru = slot;
  }
  shard.mru = slot;
}

void BlockCache::Unlink(Shard& shard, uint32_t slot) {
  const Slot& s = shard.slots[slot];
  if (s.prev != kNoSlot) {
    shard.slots[s.prev].next = s.next;
  } else {
    shard.mru = s.next;
  }
  if (s.next != kNoSlot) {
    shard.slots[s.next].prev = s.prev;
  } else {
    shard.lru = s.prev;
  }
}

void BlockCache::Touch(Shard& shard, uint32_t slot) {
  if (shard.mru != slot) {
    Unlink(shard, slot);
    LinkFront(shard, slot);
  }
}

void BlockCache::Remove(Shard& shard, uint32_t slot) {
  Slot& s = shard.slots[slot];
  size_t bucket = 0;
  Find(shard, s.block, MixBlock(s.block), &bucket);
  Unlink(shard, slot);
  IndexErase(shard, bucket);
  s.dirty = false;
  s.refcount = 0;
  s.next = shard.free;
  shard.free = slot;
  shard.live--;
}

// Frames hold exactly block_size bytes: a short payload is zero-padded, an
// over-long one truncated.
void BlockCache::Store(Slot& slot, std::span<const uint8_t> data) const {
  size_t n = std::min<size_t>(data.size(), block_size_);
  if (n > 0) {  // an empty span may carry a null pointer, which memcpy rejects
    std::memcpy(slot.data.get(), data.data(), n);
  }
  std::memset(slot.data.get() + n, 0, block_size_ - n);
}

bool BlockCache::Get(BlockNo block, std::span<uint8_t> out) {
  uint64_t hash;
  Shard& shard = ShardFor(block, &hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  uint32_t slot = Find(shard, block, hash);
  if (slot == kNoSlot) {
    stats_.misses++;
    return false;
  }
  if (!out.empty()) {
    std::memcpy(out.data(), shard.slots[slot].data.get(),
                std::min<size_t>(out.size(), block_size_));
  }
  Touch(shard, slot);
  stats_.hits++;
  return true;
}

void BlockCache::EvictIfFull(Shard& shard) {
  while (shard.live >= shard_capacity_) {
    // LRU-first scan for an unpinned victim.
    uint32_t victim = kNoSlot;
    for (uint32_t i = shard.lru; i != kNoSlot; i = shard.slots[i].prev) {
      Slot& s = shard.slots[i];
      if (s.refcount == 0) {
        if (s.dirty) {
          // Writeback-then-drop is atomic under the shard lock: no reader
          // can fetch the block from the device in the window where the
          // device copy is stale.
          Status st = writeback_(s.block, 1, std::span<const uint8_t>(s.data.get(), block_size_));
          if (!st.ok()) {
            continue;  // keep the dirty frame; try the next least recent one
          }
          stats_.dirty_evictions++;
          stats_.writebacks++;
          stats_.writeback_blocks++;
          LFS_TRACE(tracer_, obs::TraceEventType::kCacheWriteback, obs::OpType::kNone,
                    0, s.block, 1, 0.0);
        }
        victim = i;
        break;
      }
    }
    if (victim == kNoSlot) {
      stats_.pin_overcommits++;
      return;  // every frame pinned (or unevictable): overcommit
    }
    Slot& s = shard.slots[victim];
    LFS_TRACE(tracer_, obs::TraceEventType::kCacheEvict, obs::OpType::kNone, 0,
              s.block, s.dirty ? 1 : 0, 0.0);
    Remove(shard, victim);
    stats_.evictions++;
  }
}

void BlockCache::Insert(Shard& shard, BlockNo block, uint64_t hash,
                        std::span<const uint8_t> data, bool dirty) {
  EvictIfFull(shard);
  uint32_t slot = shard.free;
  if (slot != kNoSlot) {
    shard.free = shard.slots[slot].next;
  } else {
    slot = static_cast<uint32_t>(shard.slots.size());
    shard.slots.emplace_back().data = std::make_unique_for_overwrite<uint8_t[]>(block_size_);
  }
  Slot& s = shard.slots[slot];
  s.block = block;
  s.dirty = dirty;
  Store(s, data);
  LinkFront(shard, slot);
  IndexInsert(shard, block, hash, slot);
  shard.live++;
  stats_.insertions++;
}

void BlockCache::PutClean(BlockNo block, std::span<const uint8_t> data) {
  uint64_t hash;
  Shard& shard = ShardFor(block, &hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  uint32_t slot = Find(shard, block, hash);
  if (slot != kNoSlot) {
    // Resident already (racing fill or newer dirty contents): keep it.
    Touch(shard, slot);
    return;
  }
  Insert(shard, block, hash, data, /*dirty=*/false);
}

void BlockCache::PutDirty(BlockNo block, std::span<const uint8_t> data) {
  uint64_t hash;
  Shard& shard = ShardFor(block, &hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  uint32_t slot = Find(shard, block, hash);
  if (slot != kNoSlot) {
    Store(shard.slots[slot], data);
    shard.slots[slot].dirty = true;
    Touch(shard, slot);
    return;
  }
  Insert(shard, block, hash, data, /*dirty=*/true);
}

void BlockCache::PutThrough(BlockNo block, std::span<const uint8_t> data) {
  uint64_t hash;
  Shard& shard = ShardFor(block, &hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  uint32_t slot = Find(shard, block, hash);
  if (slot != kNoSlot) {
    Store(shard.slots[slot], data);
    Touch(shard, slot);
    return;
  }
  Insert(shard, block, hash, data, /*dirty=*/false);
}

bool BlockCache::Pin(BlockNo block) {
  uint64_t hash;
  Shard& shard = ShardFor(block, &hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  uint32_t slot = Find(shard, block, hash);
  if (slot == kNoSlot) {
    return false;
  }
  shard.slots[slot].refcount++;
  return true;
}

void BlockCache::Unpin(BlockNo block) {
  uint64_t hash;
  Shard& shard = ShardFor(block, &hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  uint32_t slot = Find(shard, block, hash);
  if (slot != kNoSlot && shard.slots[slot].refcount > 0) {
    shard.slots[slot].refcount--;
  }
}

bool BlockCache::Contains(BlockNo block) const {
  uint64_t hash;
  const Shard& shard = ShardFor(block, &hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  return Find(shard, block, hash) != kNoSlot;
}

bool BlockCache::IsDirty(BlockNo block) const {
  uint64_t hash;
  const Shard& shard = ShardFor(block, &hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  uint32_t slot = Find(shard, block, hash);
  return slot != kNoSlot && shard.slots[slot].dirty;
}

Status BlockCache::FlushAll() {
  // Lock every shard in index order (a total order, so FlushAll never
  // deadlocks with itself) and hold them all: the flush must be a point-in-
  // time barrier — no new dirty frame can slip between collection and the
  // clean-bit reset.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (Shard& shard : shards_) {
    locks.emplace_back(shard.mu);
  }

  // Free slots are always clean, so a straight pass over the slot records
  // finds every dirty frame without touching the index.
  std::vector<DirtyRef>& dirty = flush_dirty_;
  dirty.clear();
  size_t total_frames = 0;
  for (uint32_t sh = 0; sh < shards_.size(); sh++) {
    const Shard& shard = shards_[sh];
    total_frames += shard.live;
    for (uint32_t i = 0; i < shard.slots.size(); i++) {
      if (shard.slots[i].dirty) {
        dirty.push_back({shard.slots[i].block, sh, i});
      }
    }
  }
  std::sort(dirty.begin(), dirty.end(),
            [](const DirtyRef& a, const DirtyRef& b) { return a.block < b.block; });

  // Coalesce consecutively addressed dirty blocks into single writebacks —
  // the log-structured write pattern makes most flushes a handful of long
  // sequential runs. A one-block run goes straight from its frame.
  Status result = OkStatus();
  size_t i = 0;
  while (i < dirty.size()) {
    size_t j = i + 1;
    while (j < dirty.size() && dirty[j].block == dirty[j - 1].block + 1) {
      j++;
    }
    uint64_t count = j - i;
    auto frame = [&](size_t k) -> Slot& { return shards_[dirty[k].shard].slots[dirty[k].slot]; };
    std::span<const uint8_t> run(frame(i).data.get(), block_size_);
    if (count > 1) {
      flush_run_.resize(count * block_size_);
      for (size_t k = i; k < j; k++) {
        std::memcpy(flush_run_.data() + (k - i) * block_size_, frame(k).data.get(), block_size_);
      }
      run = flush_run_;
    }
    Status st = writeback_(dirty[i].block, count, run);
    if (st.ok()) {
      for (size_t k = i; k < j; k++) {
        frame(k).dirty = false;
      }
      stats_.writebacks++;
      stats_.writeback_blocks += count;
      LFS_TRACE(tracer_, obs::TraceEventType::kCacheWriteback, obs::OpType::kNone,
                0, dirty[i].block, count, 0.0);
    } else if (result.ok()) {
      result = st;  // keep flushing the rest; report the first failure
    }
    i = j;
  }
  LFS_TRACE(tracer_, obs::TraceEventType::kCacheFlush, obs::OpType::kNone, 0,
            dirty.size(), total_frames, 0.0);
  return result;
}

void BlockCache::Invalidate(BlockNo block, uint64_t count) {
  for (uint64_t i = 0; i < count; i++) {
    BlockNo b = block + i;
    uint64_t hash;
    Shard& shard = ShardFor(b, &hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    uint32_t slot = Find(shard, b, hash);
    if (slot == kNoSlot) {
      continue;
    }
    if (shard.slots[slot].refcount > 0) {
      shard.slots[slot].dirty = false;  // dead contents must not be written back
      continue;
    }
    Remove(shard, slot);
    stats_.evictions++;
  }
}

void BlockCache::DropClean() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (uint32_t i = shard.mru; i != kNoSlot;) {
      Slot& s = shard.slots[i];
      uint32_t next = s.next;
      if (!s.dirty && s.refcount == 0) {
        Remove(shard, i);
        stats_.evictions++;
      }
      i = next;
    }
  }
}

uint64_t BlockCache::size() const {
  uint64_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.live;
  }
  return n;
}

uint64_t BlockCache::dirty_count() const {
  uint64_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const Slot& s : shard.slots) {
      n += s.dirty ? 1 : 0;
    }
  }
  return n;
}

uint64_t BlockCache::shard_size(uint32_t shard) const {
  const Shard& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  return s.live;
}

}  // namespace lfs::cache
