// BlockCache / CachedBlockDevice unit tests: LRU eviction order, dirty
// write-back ordering and coalescing, pin/unpin semantics, shard
// distribution, the device wrapper's run-granular miss handling, and a
// differential test of BlockCache against a node-based reference model.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <list>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/block_cache.h"
#include "src/cache/cached_device.h"
#include "src/disk/mem_disk.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace lfs::cache {
namespace {

constexpr uint32_t kBs = 512;

std::vector<uint8_t> Fill(uint8_t byte) { return std::vector<uint8_t>(kBs, byte); }

// A writeback sink that records every callback invocation. Mutex-guarded:
// different shards may write back concurrently (a real target device has its
// own lock, so the cache does not serialize the callback across shards).
struct Sink {
  struct Call {
    BlockNo block;
    uint64_t count;
    std::vector<uint8_t> data;
  };
  std::mutex mu;
  std::vector<Call> calls;
  Status fail_with = OkStatus();

  BlockCache::WritebackFn fn() {
    return [this](BlockNo block, uint64_t count, std::span<const uint8_t> data) {
      std::lock_guard<std::mutex> lock(mu);
      if (!fail_with.ok()) {
        return fail_with;
      }
      calls.push_back({block, count, std::vector<uint8_t>(data.begin(), data.end())});
      return OkStatus();
    };
  }
};

BlockCacheConfig Config(uint64_t capacity, uint32_t shards) {
  BlockCacheConfig cfg;
  cfg.capacity_blocks = capacity;
  cfg.shards = shards;
  cfg.block_size = kBs;
  return cfg;
}

TEST(BlockCacheTest, GetMissThenHitAfterPutClean) {
  Sink sink;
  BlockCache cache(Config(8, 1), sink.fn());
  std::vector<uint8_t> out(kBs);
  EXPECT_FALSE(cache.Get(7, out));
  cache.PutClean(7, Fill(0xAB));
  ASSERT_TRUE(cache.Get(7, out));
  EXPECT_EQ(out, Fill(0xAB));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsedFirst) {
  Sink sink;
  BlockCache cache(Config(3, 1), sink.fn());
  cache.PutClean(1, Fill(1));
  cache.PutClean(2, Fill(2));
  cache.PutClean(3, Fill(3));
  // Touch 1 so 2 becomes the LRU victim.
  std::vector<uint8_t> out(kBs);
  ASSERT_TRUE(cache.Get(1, out));
  cache.PutClean(4, Fill(4));  // forces one eviction
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(4));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(sink.calls.empty());  // clean victim: no writeback
}

TEST(BlockCacheTest, DirtyVictimIsWrittenBackBeforeEviction) {
  Sink sink;
  BlockCache cache(Config(2, 1), sink.fn());
  cache.PutDirty(10, Fill(0x10));
  cache.PutClean(11, Fill(0x11));
  cache.PutClean(12, Fill(0x12));  // evicts 10 (LRU), which is dirty
  ASSERT_EQ(sink.calls.size(), 1u);
  EXPECT_EQ(sink.calls[0].block, 10u);
  EXPECT_EQ(sink.calls[0].count, 1u);
  EXPECT_EQ(sink.calls[0].data, Fill(0x10));
  EXPECT_EQ(cache.stats().dirty_evictions, 1u);
  EXPECT_FALSE(cache.Contains(10));
}

TEST(BlockCacheTest, PutCleanNeverClobbersDirtyFrame) {
  Sink sink;
  BlockCache cache(Config(4, 1), sink.fn());
  cache.PutDirty(5, Fill(0xDD));
  // A racing read fill must not overwrite newer dirty contents.
  cache.PutClean(5, Fill(0xEE));
  std::vector<uint8_t> out(kBs);
  ASSERT_TRUE(cache.Get(5, out));
  EXPECT_EQ(out, Fill(0xDD));
  EXPECT_TRUE(cache.IsDirty(5));
}

TEST(BlockCacheTest, PinnedFramesSurviveEvictionPressure) {
  Sink sink;
  BlockCache cache(Config(2, 1), sink.fn());
  cache.PutDirty(1, Fill(1));
  cache.PutClean(2, Fill(2));
  ASSERT_TRUE(cache.Pin(1));
  ASSERT_TRUE(cache.Pin(2));
  // Every frame pinned: the shard overcommits rather than evict or fail.
  cache.PutClean(3, Fill(3));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_GE(cache.stats().pin_overcommits, 1u);
  cache.Unpin(1);
  cache.Unpin(2);
  // Unpinned again: the next insert can evict.
  cache.PutClean(4, Fill(4));
  EXPECT_LE(cache.size(), 3u);
  EXPECT_FALSE(cache.Pin(99));  // absent block
}

TEST(BlockCacheTest, FlushAllCoalescesSortedRuns) {
  Sink sink;
  BlockCache cache(Config(16, 4), sink.fn());
  // Dirty blocks 7,5,6 (one run once sorted) and 20 (its own run),
  // interleaved with clean blocks that must not be written back.
  cache.PutDirty(7, Fill(7));
  cache.PutClean(9, Fill(9));
  cache.PutDirty(5, Fill(5));
  cache.PutDirty(6, Fill(6));
  cache.PutDirty(20, Fill(20));
  ASSERT_OK(cache.FlushAll());
  ASSERT_EQ(sink.calls.size(), 2u);
  EXPECT_EQ(sink.calls[0].block, 5u);
  EXPECT_EQ(sink.calls[0].count, 3u);
  // Run payload is assembled in ascending block order.
  EXPECT_EQ(std::vector<uint8_t>(sink.calls[0].data.begin(),
                                 sink.calls[0].data.begin() + kBs),
            Fill(5));
  EXPECT_EQ(sink.calls[1].block, 20u);
  EXPECT_EQ(sink.calls[1].count, 1u);
  EXPECT_EQ(cache.dirty_count(), 0u);
  EXPECT_EQ(cache.size(), 5u);  // frames stay resident, now clean
  // A second flush has nothing to do.
  ASSERT_OK(cache.FlushAll());
  EXPECT_EQ(sink.calls.size(), 2u);
}

TEST(BlockCacheTest, FlushAllKeepsDirtyBitsOnFailure) {
  Sink sink;
  BlockCache cache(Config(8, 1), sink.fn());
  cache.PutDirty(3, Fill(3));
  sink.fail_with = IoError("injected");
  EXPECT_FALSE(cache.FlushAll().ok());
  EXPECT_TRUE(cache.IsDirty(3));  // retried by the next flush
  sink.fail_with = OkStatus();
  ASSERT_OK(cache.FlushAll());
  EXPECT_FALSE(cache.IsDirty(3));
}

TEST(BlockCacheTest, ShardDistributionCoversAllShards) {
  Sink sink;
  BlockCache cache(Config(1024, 8), sink.fn());
  ASSERT_EQ(cache.shard_count(), 8u);
  for (BlockNo b = 0; b < 1024; b++) {
    cache.PutClean(b, Fill(static_cast<uint8_t>(b)));
  }
  // The splitmix64 shard hash should spread sequential block numbers across
  // every shard without pathological skew (no shard empty, none > 4x fair).
  uint64_t total = 0;
  for (uint32_t s = 0; s < cache.shard_count(); s++) {
    uint64_t n = cache.shard_size(s);
    EXPECT_GT(n, 0u) << "shard " << s << " empty";
    EXPECT_LT(n, 4 * 1024 / 8) << "shard " << s << " skewed";
    total += n;
  }
  EXPECT_EQ(total, cache.size());
}

TEST(BlockCacheTest, DropCleanKeepsDirtyAndPinned) {
  Sink sink;
  BlockCache cache(Config(8, 2), sink.fn());
  cache.PutClean(1, Fill(1));
  cache.PutDirty(2, Fill(2));
  cache.PutClean(3, Fill(3));
  ASSERT_TRUE(cache.Pin(3));
  cache.DropClean();
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  cache.Unpin(3);
}

TEST(BlockCacheTest, ConcurrentMixedTrafficKeepsFramesCoherent) {
  Sink sink;
  BlockCache cache(Config(64, 4), sink.fn());
  // Each block's contents are a function of its number, from every thread,
  // so any torn or crossed frame shows up as a content mismatch.
  constexpr int kThreads = 4;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      std::vector<uint8_t> out(kBs);
      for (int i = 0; i < 4000; i++) {
        BlockNo b = static_cast<BlockNo>((i * 7 + t * 13) % 128);
        if (i % 3 == 0) {
          cache.PutDirty(b, Fill(static_cast<uint8_t>(b)));
        } else if (cache.Get(b, out)) {
          if (out != Fill(static_cast<uint8_t>(b))) {
            failed.store(true);
          }
        } else {
          cache.PutClean(b, Fill(static_cast<uint8_t>(b)));
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(failed.load());
  ASSERT_OK(cache.FlushAll());
  for (const auto& call : sink.calls) {
    for (uint64_t i = 0; i < call.count; i++) {
      EXPECT_EQ(call.data[i * kBs], static_cast<uint8_t>(call.block + i));
    }
  }
}

// ---------------------------------------------------------------------------
// Differential test against a reference model.
//
// ReferenceCache is the straightforward node-based design — a std::list LRU
// and a std::unordered_map of heap-allocated frames per shard — with the
// same shard pick, LRU order, eviction rule and flush coalescing as the
// production BlockCache. Seeded op streams drive both side by side and every
// observable must agree: Get results and bytes, the writeback call sequence
// (failed attempts included), every stats counter, and the size accessors.

uint64_t ReferenceMix(BlockNo block) {
  uint64_t x = block + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class ReferenceCache {
 public:
  ReferenceCache(const BlockCacheConfig& config, BlockCache::WritebackFn writeback)
      : capacity_(std::max<uint64_t>(1, config.capacity_blocks)),
        block_size_(config.block_size),
        writeback_(std::move(writeback)) {
    uint32_t shards = std::max<uint32_t>(1, config.shards);
    shards = static_cast<uint32_t>(std::min<uint64_t>(shards, capacity_));
    shards_.resize(shards);
    shard_capacity_ = (capacity_ + shards - 1) / shards;
  }

  bool Get(BlockNo block, std::span<uint8_t> out) {
    Shard& shard = shards_[ShardOf(block)];
    auto it = shard.frames.find(block);
    if (it == shard.frames.end()) {
      stats_.misses++;
      return false;
    }
    std::copy_n(it->second.data.begin(), std::min(out.size(), it->second.data.size()),
                out.begin());
    Touch(shard, it->second, block);
    stats_.hits++;
    return true;
  }
  void PutClean(BlockNo block, std::span<const uint8_t> data) {
    Shard& shard = shards_[ShardOf(block)];
    auto it = shard.frames.find(block);
    if (it != shard.frames.end()) {
      Touch(shard, it->second, block);
      return;
    }
    Insert(shard, block, data, false);
  }
  void PutDirty(BlockNo block, std::span<const uint8_t> data) { Put(block, data, true); }
  void PutThrough(BlockNo block, std::span<const uint8_t> data) { Put(block, data, false); }
  bool Pin(BlockNo block) {
    Shard& shard = shards_[ShardOf(block)];
    auto it = shard.frames.find(block);
    if (it == shard.frames.end()) {
      return false;
    }
    it->second.refcount++;
    return true;
  }
  void Unpin(BlockNo block) {
    Shard& shard = shards_[ShardOf(block)];
    auto it = shard.frames.find(block);
    if (it != shard.frames.end() && it->second.refcount > 0) {
      it->second.refcount--;
    }
  }
  bool Contains(BlockNo block) const { return shards_[ShardOf(block)].frames.count(block) > 0; }
  bool IsDirty(BlockNo block) const {
    const Shard& shard = shards_[ShardOf(block)];
    auto it = shard.frames.find(block);
    return it != shard.frames.end() && it->second.dirty;
  }
  Status FlushAll() {
    std::vector<BlockNo> dirty;
    for (Shard& shard : shards_) {
      for (auto& [block, frame] : shard.frames) {
        if (frame.dirty) {
          dirty.push_back(block);
        }
      }
    }
    std::sort(dirty.begin(), dirty.end());
    Status result = OkStatus();
    size_t i = 0;
    while (i < dirty.size()) {
      size_t j = i + 1;
      while (j < dirty.size() && dirty[j] == dirty[j - 1] + 1) {
        j++;
      }
      std::vector<uint8_t> run;
      for (size_t k = i; k < j; k++) {
        const auto& d = shards_[ShardOf(dirty[k])].frames.at(dirty[k]).data;
        run.insert(run.end(), d.begin(), d.end());
      }
      Status st = writeback_(dirty[i], j - i, run);
      if (st.ok()) {
        for (size_t k = i; k < j; k++) {
          shards_[ShardOf(dirty[k])].frames.at(dirty[k]).dirty = false;
        }
        stats_.writebacks++;
        stats_.writeback_blocks += j - i;
      } else if (result.ok()) {
        result = st;
      }
      i = j;
    }
    return result;
  }
  void DropClean() {
    for (Shard& shard : shards_) {
      for (auto it = shard.frames.begin(); it != shard.frames.end();) {
        if (!it->second.dirty && it->second.refcount == 0) {
          shard.lru.erase(it->second.lru_it);
          it = shard.frames.erase(it);
          stats_.evictions++;
        } else {
          ++it;
        }
      }
    }
  }
  void Invalidate(BlockNo block, uint64_t count) {
    for (BlockNo b = block; b < block + count; b++) {
      Shard& shard = shards_[ShardOf(b)];
      auto it = shard.frames.find(b);
      if (it == shard.frames.end()) {
        continue;
      }
      if (it->second.refcount > 0) {
        it->second.dirty = false;
        continue;
      }
      shard.lru.erase(it->second.lru_it);
      shard.frames.erase(it);
      stats_.evictions++;
    }
  }

  const BlockCacheStats& stats() const { return stats_; }
  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }
  uint64_t size() const {
    uint64_t n = 0;
    for (const Shard& shard : shards_) {
      n += shard.frames.size();
    }
    return n;
  }
  uint64_t dirty_count() const {
    uint64_t n = 0;
    for (const Shard& shard : shards_) {
      for (const auto& [block, frame] : shard.frames) {
        n += frame.dirty ? 1 : 0;
      }
    }
    return n;
  }
  uint64_t shard_size(uint32_t shard) const { return shards_[shard].frames.size(); }
  uint32_t ShardOf(BlockNo block) const {
    return static_cast<uint32_t>(ReferenceMix(block) % shards_.size());
  }

 private:
  struct Frame {
    std::vector<uint8_t> data;
    bool dirty = false;
    uint32_t refcount = 0;
    std::list<BlockNo>::iterator lru_it;
  };
  struct Shard {
    std::unordered_map<BlockNo, Frame> frames;
    std::list<BlockNo> lru;  // front = most recently used
  };

  void Touch(Shard& shard, Frame& frame, BlockNo block) {
    shard.lru.erase(frame.lru_it);
    shard.lru.push_front(block);
    frame.lru_it = shard.lru.begin();
  }
  void Put(BlockNo block, std::span<const uint8_t> data, bool dirty) {
    Shard& shard = shards_[ShardOf(block)];
    auto it = shard.frames.find(block);
    if (it == shard.frames.end()) {
      Insert(shard, block, data, dirty);
      return;
    }
    it->second.data.assign(data.begin(), data.end());
    it->second.data.resize(block_size_, 0);
    it->second.dirty = it->second.dirty || dirty;
    Touch(shard, it->second, block);
  }
  void EvictIfFull(Shard& shard) {
    while (shard.frames.size() >= shard_capacity_) {
      auto victim = shard.lru.rend();
      for (auto rit = shard.lru.rbegin(); rit != shard.lru.rend(); ++rit) {
        Frame& f = shard.frames.at(*rit);
        if (f.refcount > 0) {
          continue;
        }
        if (f.dirty) {
          if (!writeback_(*rit, 1, f.data).ok()) {
            continue;
          }
          stats_.dirty_evictions++;
          stats_.writebacks++;
          stats_.writeback_blocks++;
        }
        victim = rit;
        break;
      }
      if (victim == shard.lru.rend()) {
        stats_.pin_overcommits++;
        return;
      }
      BlockNo block = *victim;
      shard.lru.erase(shard.frames.at(block).lru_it);
      shard.frames.erase(block);
      stats_.evictions++;
    }
  }
  void Insert(Shard& shard, BlockNo block, std::span<const uint8_t> data, bool dirty) {
    EvictIfFull(shard);
    shard.lru.push_front(block);
    Frame frame;
    frame.data.assign(data.begin(), data.end());
    frame.data.resize(block_size_, 0);
    frame.dirty = dirty;
    frame.lru_it = shard.lru.begin();
    shard.frames.emplace(block, std::move(frame));
    stats_.insertions++;
  }

  uint64_t capacity_;
  uint64_t shard_capacity_;
  uint32_t block_size_;
  BlockCache::WritebackFn writeback_;
  std::vector<Shard> shards_;
  BlockCacheStats stats_;
};

// Records every writeback attempt, failed ones included, so the two caches'
// device-facing call sequences can be compared call for call.
struct RecordingSink {
  struct Call {
    BlockNo block;
    uint64_t count;
    std::vector<uint8_t> data;
    bool ok;
    bool operator==(const Call&) const = default;
  };
  std::vector<Call> calls;
  bool fail = false;

  BlockCache::WritebackFn fn() {
    return [this](BlockNo block, uint64_t count, std::span<const uint8_t> data) {
      calls.push_back({block, count, std::vector<uint8_t>(data.begin(), data.end()), !fail});
      return fail ? IoError("injected writeback failure") : OkStatus();
    };
  }
};

struct DiffOp {
  enum Kind {
    kGet,
    kPutClean,
    kPutDirty,
    kPutThrough,
    kPin,
    kUnpin,
    kInvalidate,
    kDropClean,
    kFlushAll,
    kProbe,  // Contains + IsDirty
    kFailWritebacks,
    kHealWritebacks,
  };
  Kind kind = kGet;
  BlockNo block = 0;
  uint64_t count = 1;            // kInvalidate range length
  std::vector<uint8_t> payload;  // puts; may be short or over-long
  size_t out_size = kBs;         // kGet buffer size
};

// Runs one op stream through the production cache and the reference model
// and asserts agreement after every op.
class DiffHarness {
 public:
  DiffHarness(uint64_t capacity, uint32_t shards)
      : real_(Config(capacity, shards), real_sink_.fn()),
        ref_(Config(capacity, shards), ref_sink_.fn()) {}

  void Apply(const DiffOp& op, size_t step) {
    SCOPED_TRACE(::testing::Message() << "step " << step << " op " << op.kind << " block "
                                      << op.block);
    switch (op.kind) {
      case DiffOp::kGet: {
        std::vector<uint8_t> a(op.out_size, 0xA5), b(op.out_size, 0xA5);
        bool ha = real_.Get(op.block, a);
        bool hb = ref_.Get(op.block, b);
        ASSERT_EQ(ha, hb);
        ASSERT_EQ(a, b);
        hits_ += ha ? 1 : 0;
        block0_hits_ += (ha && op.block == 0) ? 1 : 0;
        break;
      }
      case DiffOp::kPutClean:
        real_.PutClean(op.block, op.payload);
        ref_.PutClean(op.block, op.payload);
        break;
      case DiffOp::kPutDirty:
        real_.PutDirty(op.block, op.payload);
        ref_.PutDirty(op.block, op.payload);
        break;
      case DiffOp::kPutThrough:
        real_.PutThrough(op.block, op.payload);
        ref_.PutThrough(op.block, op.payload);
        break;
      case DiffOp::kPin:
        ASSERT_EQ(real_.Pin(op.block), ref_.Pin(op.block));
        break;
      case DiffOp::kUnpin:
        real_.Unpin(op.block);
        ref_.Unpin(op.block);
        break;
      case DiffOp::kInvalidate:
        real_.Invalidate(op.block, op.count);
        ref_.Invalidate(op.block, op.count);
        break;
      case DiffOp::kDropClean:
        real_.DropClean();
        ref_.DropClean();
        break;
      case DiffOp::kFlushAll: {
        Status a = real_.FlushAll();
        Status b = ref_.FlushAll();
        ASSERT_EQ(a.ok(), b.ok());
        break;
      }
      case DiffOp::kProbe:
        ASSERT_EQ(real_.Contains(op.block), ref_.Contains(op.block));
        ASSERT_EQ(real_.IsDirty(op.block), ref_.IsDirty(op.block));
        break;
      case DiffOp::kFailWritebacks:
      case DiffOp::kHealWritebacks:
        real_sink_.fail = ref_sink_.fail = op.kind == DiffOp::kFailWritebacks;
        break;
    }
    ASSERT_EQ(real_sink_.calls.size(), ref_sink_.calls.size());
    for (; checked_calls_ < real_sink_.calls.size(); checked_calls_++) {
      ASSERT_TRUE(real_sink_.calls[checked_calls_] == ref_sink_.calls[checked_calls_])
          << "writeback call " << checked_calls_ << " differs (block "
          << real_sink_.calls[checked_calls_].block << " vs "
          << ref_sink_.calls[checked_calls_].block << ")";
    }
    const BlockCacheStats& a = real_.stats();
    const BlockCacheStats& b = ref_.stats();
    ASSERT_EQ(a.hits, b.hits);
    ASSERT_EQ(a.misses, b.misses);
    ASSERT_EQ(a.insertions, b.insertions);
    ASSERT_EQ(a.evictions, b.evictions);
    ASSERT_EQ(a.dirty_evictions, b.dirty_evictions);
    ASSERT_EQ(a.writebacks, b.writebacks);
    ASSERT_EQ(a.writeback_blocks, b.writeback_blocks);
    ASSERT_EQ(a.pin_overcommits, b.pin_overcommits);
    ASSERT_EQ(real_.size(), ref_.size());
    ASSERT_EQ(real_.dirty_count(), ref_.dirty_count());
    ASSERT_EQ(real_.shard_count(), ref_.shard_count());
    for (uint32_t s = 0; s < real_.shard_count(); s++) {
      ASSERT_EQ(real_.shard_size(s), ref_.shard_size(s)) << "shard " << s;
    }
  }

  void Run(const std::vector<DiffOp>& ops) {
    for (size_t i = 0; i < ops.size(); i++) {
      Apply(ops[i], i);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }

  const BlockCache& real() const { return real_; }
  uint64_t hits() const { return hits_; }
  uint64_t block0_hits() const { return block0_hits_; }
  uint64_t failed_writebacks() const {
    return static_cast<uint64_t>(std::count_if(real_sink_.calls.begin(), real_sink_.calls.end(),
                                               [](const auto& c) { return !c.ok; }));
  }

 private:
  RecordingSink real_sink_;
  RecordingSink ref_sink_;
  BlockCache real_;
  ReferenceCache ref_;
  size_t checked_calls_ = 0;
  uint64_t hits_ = 0;
  uint64_t block0_hits_ = 0;
};

std::vector<uint8_t> Payload(Rng& rng) {
  size_t size = kBs;
  uint64_t shape = rng.NextBelow(100);
  if (shape < 15) {
    size = rng.NextBelow(kBs);  // short: zero-padded to a full frame
  } else if (shape < 30) {
    size = kBs + 1 + rng.NextBelow(kBs);  // over-long: truncated
  }
  std::vector<uint8_t> data(size);
  for (auto& byte : data) {
    byte = static_cast<uint8_t>(rng.NextU64());
  }
  return data;
}

// A random op stream over blocks [0, 2 * capacity + 4): block 0 included,
// enough distinct blocks to force eviction, few enough for frequent hits.
std::vector<DiffOp> RandomOps(Rng& rng, uint64_t capacity, size_t n) {
  const uint64_t span = 2 * capacity + 4;
  std::vector<DiffOp> ops;
  ops.reserve(n);
  for (size_t i = 0; i < n; i++) {
    DiffOp op;
    op.block = rng.NextBelow(span);
    uint64_t r = rng.NextBelow(100);
    if (r < 24) {
      op.out_size = rng.NextBelow(10) == 0 ? rng.NextBelow(2 * kBs) : kBs;
    } else if (r < 38) {
      op.kind = DiffOp::kPutClean;
    } else if (r < 56) {
      op.kind = DiffOp::kPutDirty;
    } else if (r < 62) {
      op.kind = DiffOp::kPutThrough;
    } else if (r < 70) {
      op.kind = DiffOp::kPin;
    } else if (r < 78) {
      op.kind = DiffOp::kUnpin;
    } else if (r < 83) {
      op.kind = DiffOp::kInvalidate;
      op.count = 1 + rng.NextBelow(8);
    } else if (r < 85) {
      op.kind = DiffOp::kDropClean;
    } else if (r < 89) {
      op.kind = DiffOp::kFlushAll;
    } else if (r < 95) {
      op.kind = DiffOp::kProbe;
    } else if (r < 97) {
      op.kind = DiffOp::kFailWritebacks;
    } else {
      op.kind = DiffOp::kHealWritebacks;
    }
    if (op.kind == DiffOp::kPutClean || op.kind == DiffOp::kPutDirty ||
        op.kind == DiffOp::kPutThrough) {
      op.payload = Payload(rng);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

TEST(BlockCacheDifferentialTest, RandomStreamsMatchReferenceModel) {
  uint64_t overcommits = 0, dirty_evictions = 0, failed = 0, hits = 0, block0_hits = 0;
  for (uint64_t seed = 0; seed < 128; seed++) {
    const uint64_t capacity = 1 + seed % 64;
    const uint32_t shards = static_cast<uint32_t>(1 + (seed * 5) % 8);
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " capacity " << capacity
                                      << " shards " << shards);
    Rng rng(seed + 1);
    DiffHarness h(capacity, shards);
    h.Run(RandomOps(rng, capacity, 1500));
    if (HasFatalFailure()) {
      return;
    }
    overcommits += h.real().stats().pin_overcommits;
    dirty_evictions += h.real().stats().dirty_evictions;
    failed += h.failed_writebacks();
    hits += h.hits();
    block0_hits += h.block0_hits();
  }
  // The streams must actually reach the paths they are meant to compare.
  EXPECT_GT(overcommits, 0u);
  EXPECT_GT(dirty_evictions, 0u);
  EXPECT_GT(failed, 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(block0_hits, 0u);
}

DiffOp Op(DiffOp::Kind kind, BlockNo block, std::vector<uint8_t> payload = {}) {
  DiffOp op;
  op.kind = kind;
  op.block = block;
  op.payload = std::move(payload);
  return op;
}

TEST(BlockCacheDifferentialTest, AllPinnedOvercommitThenRecovery) {
  // One shard of four frames, block 0 among them: pin all, keep inserting
  // (overcommit), then unpin and insert until the shard is back to size.
  DiffHarness h(4, 1);
  std::vector<DiffOp> ops;
  for (BlockNo b = 0; b < 4; b++) {
    ops.push_back(Op(DiffOp::kPutDirty, b, Fill(static_cast<uint8_t>(b + 1))));
    ops.push_back(Op(DiffOp::kPin, b));
  }
  for (BlockNo b = 10; b < 13; b++) {
    ops.push_back(Op(DiffOp::kPutDirty, b, Fill(static_cast<uint8_t>(b))));
  }
  for (BlockNo b = 0; b < 4; b++) {
    ops.push_back(Op(DiffOp::kUnpin, b));
  }
  ops.push_back(Op(DiffOp::kFailWritebacks, 0));
  ops.push_back(Op(DiffOp::kPutClean, 20, Fill(20)));  // every victim dirty: overcommit
  ops.push_back(Op(DiffOp::kHealWritebacks, 0));
  for (BlockNo b = 21; b < 24; b++) {
    ops.push_back(Op(DiffOp::kPutClean, b, Fill(static_cast<uint8_t>(b))));
  }
  for (BlockNo b : {0, 10, 20, 23}) {
    ops.push_back(Op(DiffOp::kGet, b));
  }
  ops.push_back(Op(DiffOp::kFlushAll, 0));
  h.Run(ops);
  EXPECT_GE(h.real().stats().pin_overcommits, 4u);
  EXPECT_EQ(h.real().size(), 4u);  // recovered to capacity
}

TEST(BlockCacheDifferentialTest, FrameReuseAfterInvalidate) {
  // Invalidated frames return to the free list; their buffers must not leak
  // old bytes into the next (short, zero-padded) occupant.
  DiffHarness h(8, 2);
  std::vector<DiffOp> ops;
  for (BlockNo b = 0; b < 8; b++) {
    ops.push_back(Op(DiffOp::kPutDirty, b, Fill(0xFF)));
  }
  ops.push_back(Op(DiffOp::kPin, 3));
  DiffOp inval = Op(DiffOp::kInvalidate, 0);
  inval.count = 8;
  ops.push_back(inval);  // drops all but pinned 3, which turns clean
  for (BlockNo b = 100; b < 108; b++) {
    ops.push_back(Op(DiffOp::kPutDirty, b, std::vector<uint8_t>(kBs / 3, 0x11)));
    ops.push_back(Op(DiffOp::kGet, b));
  }
  ops.push_back(Op(DiffOp::kUnpin, 3));
  ops.push_back(Op(DiffOp::kGet, 3));
  ops.push_back(Op(DiffOp::kFlushAll, 0));
  h.Run(ops);
  EXPECT_EQ(h.real().stats().writeback_blocks, 8u);  // only the new blocks
}

TEST(CachedDeviceTest, ReReadsAreServedFromCache) {
  MemDisk disk(kBs, 256);
  for (BlockNo b = 0; b < 256; b++) {
    std::vector<uint8_t> d = Fill(static_cast<uint8_t>(b));
    ASSERT_OK(disk.Write(b, 1, d));
  }
  // Count inner reads through a thin wrapper.
  struct CountingDisk : BlockDevice {
    explicit CountingDisk(BlockDevice* d) : d_(d) {}
    uint32_t block_size() const override { return d_->block_size(); }
    uint64_t block_count() const override { return d_->block_count(); }
    Status Read(BlockNo b, uint64_t n, std::span<uint8_t> out) override {
      reads++;
      read_blocks += n;
      return d_->Read(b, n, out);
    }
    Status Write(BlockNo b, uint64_t n, std::span<const uint8_t> data) override {
      return d_->Write(b, n, data);
    }
    Status Flush() override { return d_->Flush(); }
    BlockDevice* d_;
    uint64_t reads = 0;
    uint64_t read_blocks = 0;
  } counting(&disk);

  CachedDeviceOptions opts;
  opts.capacity_blocks = 256;
  CachedBlockDevice dev(&counting, opts);

  std::vector<uint8_t> out(64 * kBs);
  ASSERT_OK(dev.Read(0, 64, out));  // cold: one coalesced inner read
  EXPECT_EQ(counting.reads, 1u);
  EXPECT_EQ(counting.read_blocks, 64u);
  ASSERT_OK(dev.Read(0, 64, out));  // warm: zero inner reads
  EXPECT_EQ(counting.reads, 1u);
  for (BlockNo b = 0; b < 64; b++) {
    EXPECT_EQ(out[b * kBs], static_cast<uint8_t>(b));
  }
  // A partially cached range only fetches the gaps.
  ASSERT_OK(dev.Read(32, 64, out));  // 32..63 cached, 64..95 not
  EXPECT_EQ(counting.reads, 2u);
  EXPECT_EQ(counting.read_blocks, 96u);
  // Warm full re-read (64 hits) plus the cached half of the partial read
  // (32 hits); the cold read was all misses.
  EXPECT_EQ(dev.cache().stats().hits, 64u + 32u);
  EXPECT_EQ(dev.cache().stats().misses, 64u + 32u);
}

TEST(CachedDeviceTest, WriteBackReachesInnerOnFlush) {
  MemDisk disk(kBs, 64);
  CachedDeviceOptions opts;
  opts.capacity_blocks = 64;
  CachedBlockDevice dev(&disk, opts);
  std::vector<uint8_t> d = Fill(0x5A);
  ASSERT_OK(dev.Write(9, 1, d));
  // Write-back: the inner device does not have the data yet.
  std::vector<uint8_t> raw(kBs);
  ASSERT_OK(disk.Read(9, 1, raw));
  EXPECT_NE(raw, d);
  // But a read through the device sees it (from the dirty frame).
  std::vector<uint8_t> out(kBs);
  ASSERT_OK(dev.Read(9, 1, out));
  EXPECT_EQ(out, d);
  ASSERT_OK(dev.Flush());
  ASSERT_OK(disk.Read(9, 1, raw));
  EXPECT_EQ(raw, d);
}

TEST(CachedDeviceTest, WriteThroughReachesInnerImmediately) {
  MemDisk disk(kBs, 64);
  CachedDeviceOptions opts;
  opts.capacity_blocks = 64;
  opts.write_through = true;
  CachedBlockDevice dev(&disk, opts);
  std::vector<uint8_t> d = Fill(0x77);
  ASSERT_OK(dev.Write(3, 1, d));
  std::vector<uint8_t> raw(kBs);
  ASSERT_OK(disk.Read(3, 1, raw));
  EXPECT_EQ(raw, d);
  EXPECT_EQ(dev.cache().dirty_count(), 0u);
  // And the frame serves re-reads.
  std::vector<uint8_t> out(kBs);
  ASSERT_OK(dev.Read(3, 1, out));
  EXPECT_EQ(out, d);
  EXPECT_EQ(dev.cache().stats().hits, 1u);
}

}  // namespace
}  // namespace lfs::cache
