// Segment cleaner tests: the mechanism preserves data; empty segments are
// reclaimed without reads; policies pick the right victims; write-cost
// accounting matches the definition; post-checkpoint segments are protected.

#include <string>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace lfs {
namespace {

using ::lfs::testing::SmallConfig;
using ::lfs::testing::TestContent;

class LfsCleanerTest : public ::testing::Test {
 protected:
  void Init(LfsConfig cfg, uint64_t disk_blocks = 4096) {
    cfg_ = cfg;
    disk_ = std::make_unique<MemDisk>(cfg_.block_size, disk_blocks);
    auto fs = LfsFileSystem::Mkfs(disk_.get(), cfg_);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fs_ = std::move(fs).value();
  }

  LfsConfig cfg_;
  std::unique_ptr<MemDisk> disk_;
  std::unique_ptr<LfsFileSystem> fs_;
};

TEST_F(LfsCleanerTest, CleaningPreservesLiveData) {
  Init(SmallConfig());
  // Create files, delete half (fragmenting segments), then force cleaning.
  for (int i = 0; i < 60; i++) {
    ASSERT_OK(fs_->WriteFile("/f" + std::to_string(i), TestContent(i, 4000)));
  }
  ASSERT_OK(fs_->Sync());
  for (int i = 0; i < 60; i += 2) {
    ASSERT_OK(fs_->Unlink("/f" + std::to_string(i)));
  }
  ASSERT_OK(fs_->Sync());
  uint32_t clean_before = fs_->clean_segments();
  for (int pass = 0; pass < 10; pass++) {
    ASSERT_OK_AND_ASSIGN(uint32_t n, fs_->ForceClean());
    if (n == 0) {
      break;
    }
  }
  EXPECT_GT(fs_->stats().segments_cleaned, 0u);
  EXPECT_GE(fs_->clean_segments(), clean_before);
  // Every surviving file reads back intact after cleaning moved its blocks.
  for (int i = 1; i < 60; i += 2) {
    ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/f" + std::to_string(i)));
    EXPECT_EQ(data, TestContent(i, 4000)) << i;
  }
}

TEST_F(LfsCleanerTest, CleanedDataSurvivesRemount) {
  Init(SmallConfig());
  for (int i = 0; i < 40; i++) {
    ASSERT_OK(fs_->WriteFile("/f" + std::to_string(i), TestContent(i, 3000)));
  }
  ASSERT_OK(fs_->Sync());
  for (int i = 0; i < 40; i += 2) {
    ASSERT_OK(fs_->Unlink("/f" + std::to_string(i)));
  }
  ASSERT_OK(fs_->Sync());
  ASSERT_OK(fs_->ForceClean().status());
  ASSERT_OK(fs_->Unmount());
  fs_.reset();
  auto fs = LfsFileSystem::Mount(disk_.get(), cfg_);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  fs_ = std::move(fs).value();
  for (int i = 1; i < 40; i += 2) {
    ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/f" + std::to_string(i)));
    EXPECT_EQ(data, TestContent(i, 3000)) << i;
  }
}

TEST_F(LfsCleanerTest, EmptySegmentsNeedNoRead) {
  Init(SmallConfig());
  // Whole-file deletes of files larger than a segment leave fully dead
  // segments (Section 5.2's explanation of the production numbers).
  for (int i = 0; i < 8; i++) {
    ASSERT_OK(fs_->WriteFile("/big" + std::to_string(i), TestContent(i, 64 * 1024)));
  }
  ASSERT_OK(fs_->Sync());
  for (int i = 0; i < 8; i++) {
    ASSERT_OK(fs_->Unlink("/big" + std::to_string(i)));
  }
  ASSERT_OK(fs_->Sync());  // sweep reclaims zero-live dirty segments for free
  uint64_t read_before = fs_->stats().clean_read_bytes;
  ASSERT_OK(fs_->ForceClean().status());
  // Any segments cleaned as empty must not have contributed read traffic.
  if (fs_->stats().segments_cleaned == fs_->stats().segments_cleaned_empty) {
    EXPECT_EQ(fs_->stats().clean_read_bytes, read_before);
  }
}

TEST_F(LfsCleanerTest, GreedyPicksLeastUtilized) {
  LfsConfig cfg = SmallConfig();
  cfg.policy = CleaningPolicy::kGreedy;
  cfg.age_sort = false;
  Init(cfg);
  for (int i = 0; i < 50; i++) {
    ASSERT_OK(fs_->WriteFile("/f" + std::to_string(i), TestContent(i, 4000)));
  }
  // Delete a dense band so some segments are nearly empty and others full.
  for (int i = 0; i < 25; i++) {
    ASSERT_OK(fs_->Unlink("/f" + std::to_string(i)));
  }
  ASSERT_OK(fs_->Sync());
  ASSERT_OK_AND_ASSIGN(uint32_t n, fs_->ForceClean());
  EXPECT_GT(n, 0u);
  // Cleaned segments had below-average utilization: avg cleaned u must be
  // well under the overall disk utilization band.
  EXPECT_LT(fs_->stats().AvgCleanedUtilization(), 0.9);
  for (int i = 25; i < 50; i++) {
    ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/f" + std::to_string(i)));
    EXPECT_EQ(data, TestContent(i, 4000));
  }
}

TEST_F(LfsCleanerTest, WriteCostIsSaneUnderOverwrites) {
  LfsConfig cfg = SmallConfig();
  cfg.checkpoint_interval_bytes = 128 * 1024;
  Init(cfg, 2048);  // 2 MB so the log wraps and the cleaner must run
  Rng rng(42);
  // Sustained random overwrites of a working set at ~50% disk utilization:
  // segments seldom die completely, so the cleaner must copy live data.
  for (int i = 0; i < 60; i++) {
    ASSERT_OK(fs_->WriteFile("/f" + std::to_string(i), TestContent(i, 16 * 1024)));
  }
  ASSERT_OK(fs_->Sync());
  for (int step = 0; step < 2500; step++) {
    int i = static_cast<int>(rng.NextBelow(60));
    ASSERT_OK_AND_ASSIGN(InodeNum ino, fs_->Lookup("/f" + std::to_string(i)));
    std::vector<uint8_t> block = TestContent(1000 + step, cfg.block_size);
    uint64_t fbn = rng.NextBelow(16);
    ASSERT_OK(fs_->WriteAt(ino, fbn * cfg.block_size, block));
  }
  ASSERT_OK(fs_->Sync());
  double wc = fs_->stats().WriteCost();
  EXPECT_GT(wc, 1.0);
  EXPECT_LT(wc, 10.0);
  EXPECT_GT(fs_->stats().cleaner_passes, 0u);
}

TEST_F(LfsCleanerTest, PostCheckpointSegmentsAreNotCleaned) {
  Init(SmallConfig());
  ASSERT_OK(fs_->Sync());
  // Data written after the checkpoint lives in tail segments.
  ASSERT_OK(fs_->WriteFile("/tail", TestContent(1, 48 * 1024)));
  uint64_t cleaned_before = fs_->stats().segments_cleaned;
  ASSERT_OK_AND_ASSIGN(uint32_t n, fs_->ForceClean());
  // Nothing is cleanable: every dirty segment is post-checkpoint (ForceClean
  // runs a raw pass without the boundary-advancing checkpoint).
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(fs_->stats().segments_cleaned, cleaned_before);
  ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/tail"));
  EXPECT_EQ(data, TestContent(1, 48 * 1024));
}

TEST_F(LfsCleanerTest, CostBenefitPrefersColdFragmentedSegments) {
  LfsConfig cfg = SmallConfig();
  cfg.policy = CleaningPolicy::kCostBenefit;
  Init(cfg, 8192);
  // Cold data: written once, never touched again.
  for (int i = 0; i < 20; i++) {
    ASSERT_OK(fs_->WriteFile("/cold" + std::to_string(i), TestContent(i, 8 * 1024)));
  }
  ASSERT_OK(fs_->Sync());
  // Fragment the cold band slightly.
  for (int i = 0; i < 20; i += 4) {
    ASSERT_OK(fs_->Unlink("/cold" + std::to_string(i)));
  }
  // Hot data: rewritten repeatedly, aging the clock well past the cold band.
  for (int round = 0; round < 30; round++) {
    for (int i = 0; i < 5; i++) {
      ASSERT_OK(fs_->WriteFile("/hot" + std::to_string(round) + "_" + std::to_string(i),
                               TestContent(round * 10 + i, 4 * 1024)));
      if (round > 0) {
        ASSERT_OK(
            fs_->Unlink("/hot" + std::to_string(round - 1) + "_" + std::to_string(i)));
      }
    }
  }
  ASSERT_OK(fs_->Sync());
  ASSERT_OK_AND_ASSIGN(uint32_t n, fs_->ForceClean());
  EXPECT_GT(n, 0u);
  // Everything still reads back.
  for (int i = 0; i < 20; i++) {
    if (i % 4 == 0) {
      continue;
    }
    ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/cold" + std::to_string(i)));
    EXPECT_EQ(data, TestContent(i, 8 * 1024));
  }
}

TEST_F(LfsCleanerTest, CleaningUnderPressureKeepsSystemLive) {
  // A small disk under sustained overwrite pressure: the cleaner and the
  // boundary-advancing checkpoints must keep the system making progress.
  LfsConfig cfg = SmallConfig();
  Init(cfg, 2048);  // 2 MB
  Rng rng(7);
  for (int i = 0; i < 12; i++) {
    ASSERT_OK(fs_->WriteFile("/f" + std::to_string(i), TestContent(i, 16 * 1024)));
  }
  for (int step = 0; step < 400; step++) {
    int i = static_cast<int>(rng.NextBelow(12));
    ASSERT_OK_AND_ASSIGN(InodeNum ino, fs_->Lookup("/f" + std::to_string(i)));
    std::vector<uint8_t> block = TestContent(step, cfg_.block_size);
    ASSERT_OK(fs_->WriteAt(ino, rng.NextBelow(16) * cfg_.block_size, block));
  }
  ASSERT_OK(fs_->Sync());
  for (int i = 0; i < 12; i++) {
    ASSERT_OK_AND_ASSIGN(FileStat st, fs_->StatPath("/f" + std::to_string(i)));
    EXPECT_EQ(st.size, 16u * 1024);
  }
}

TEST_F(LfsCleanerTest, LiveOnlyReadsPreserveDataAndReadLess) {
  // The paper's untried "read just the live blocks" variant must behave
  // identically to whole-segment reads, while reading fewer bytes on a
  // fragmented disk.
  uint64_t read_bytes[2];
  for (int mode = 0; mode < 2; mode++) {
    LfsConfig cfg = SmallConfig();
    cfg.cleaner_read_live_blocks_only = mode == 1;
    Init(cfg);
    for (int i = 0; i < 60; i++) {
      ASSERT_OK(fs_->WriteFile("/f" + std::to_string(i), TestContent(i, 4000)));
    }
    ASSERT_OK(fs_->Sync());
    for (int i = 0; i < 60; i += 2) {
      ASSERT_OK(fs_->Unlink("/f" + std::to_string(i)));
    }
    ASSERT_OK(fs_->Sync());
    for (int pass = 0; pass < 10; pass++) {
      ASSERT_OK_AND_ASSIGN(uint32_t n, fs_->ForceClean());
      if (n == 0) {
        break;
      }
    }
    read_bytes[mode] = fs_->stats().clean_read_bytes;
    for (int i = 1; i < 60; i += 2) {
      ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/f" + std::to_string(i)));
      EXPECT_EQ(data, TestContent(i, 4000)) << "mode " << mode << " file " << i;
    }
    // Cleaned data must also survive a remount in both modes.
    ASSERT_OK(fs_->Unmount());
    fs_.reset();
    auto fs = LfsFileSystem::Mount(disk_.get(), cfg);
    ASSERT_TRUE(fs.ok());
    fs_ = std::move(fs).value();
    ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/f1"));
    EXPECT_EQ(data, TestContent(1, 4000));
  }
  EXPECT_LT(read_bytes[1], read_bytes[0]);  // sparse reads strictly less here
}

TEST_F(LfsCleanerTest, PerBlockAgesSurviveMigration) {
  // Per-block mtimes ride in the summary entries; a migrated block must keep
  // its original age so cold data keeps looking cold (Section 3.6's
  // motivation for recording ages).
  Init(SmallConfig());
  ASSERT_OK(fs_->WriteFile("/old", TestContent(1, 8 * 1024)));
  ASSERT_OK(fs_->Sync());
  uint64_t old_mtime = fs_->StatPath("/old")->mtime;
  // Age the clock with unrelated churn, fragmenting /old's segments.
  for (int i = 0; i < 40; i++) {
    ASSERT_OK(fs_->WriteFile("/churn" + std::to_string(i), TestContent(i, 4000)));
  }
  for (int i = 0; i < 40; i += 2) {
    ASSERT_OK(fs_->Unlink("/churn" + std::to_string(i)));
  }
  ASSERT_OK(fs_->Sync());
  for (int pass = 0; pass < 10; pass++) {
    ASSERT_OK_AND_ASSIGN(uint32_t n, fs_->ForceClean());
    if (n == 0) {
      break;
    }
  }
  // The file reads back and its recorded mtime never moved forward.
  ASSERT_OK_AND_ASSIGN(auto data, fs_->ReadFile("/old"));
  EXPECT_EQ(data, TestContent(1, 8 * 1024));
  EXPECT_EQ(fs_->StatPath("/old")->mtime, old_mtime);
}

TEST_F(LfsCleanerTest, StatsTrackTable2Columns) {
  Init(SmallConfig());
  for (int i = 0; i < 30; i++) {
    ASSERT_OK(fs_->WriteFile("/f" + std::to_string(i), TestContent(i, 6000)));
  }
  ASSERT_OK(fs_->Sync());
  for (int i = 0; i < 30; i += 2) {
    ASSERT_OK(fs_->Unlink("/f" + std::to_string(i)));
  }
  ASSERT_OK(fs_->Sync());
  ASSERT_OK(fs_->ForceClean().status());
  const LfsStats& st = fs_->stats();
  EXPECT_GE(st.segments_cleaned, st.segments_cleaned_empty);
  EXPECT_GE(st.EmptyCleanedFraction(), 0.0);
  EXPECT_LE(st.EmptyCleanedFraction(), 1.0);
  EXPECT_GE(st.AvgCleanedUtilization(), 0.0);
  EXPECT_LE(st.AvgCleanedUtilization(), 1.0);
  EXPECT_GT(st.WriteCost(), 0.99);
}

// Section 3.5's hot-and-cold overwrites on one log, sized for CI: the
// hotcold benchmark's shape (64-KB files filling 70% of the raw disk, 90% of
// single-block overwrites on the hottest 10% of files, a Sync every 2,000
// ops, the default cleaning thresholds) on a 16-MB disk of 64-KB segments.
// The files' indirect blocks and inodes bring live data to ~74% of the disk.
struct HotColdRun {
  Status status;
  std::vector<double> interval_cost;  // per live-data's worth of overwrites
  double cost_after_warmup = 0;
};

HotColdRun RunHotCold(CleaningPolicy policy) {
  constexpr uint64_t kDiskBytes = 16 << 20;
  constexpr uint32_t kFileBlocks = 16;
  constexpr int kWarmupIntervals = 2;
  constexpr int kIntervals = 10;
  LfsConfig cfg;
  cfg.segment_blocks = 16;
  cfg.write_buffer_blocks = 32;
  cfg.max_inodes = 1024;
  cfg.policy = policy;
  HotColdRun run;
  MemDisk disk(cfg.block_size, kDiskBytes / cfg.block_size);
  auto made = LfsFileSystem::Mkfs(&disk, cfg);
  if (!made.ok()) {
    run.status = made.status();
    return run;
  }
  std::unique_ptr<LfsFileSystem> fs = std::move(made).value();
  const uint32_t files =
      static_cast<uint32_t>(kDiskBytes * 7 / 10 / (uint64_t{kFileBlocks} * cfg.block_size));
  const uint32_t hot = files / 10;
  std::vector<InodeNum> inos;
  for (uint32_t f = 0; f < files && run.status.ok(); f++) {
    Result<InodeNum> ino = fs->Create("/f" + std::to_string(f));
    run.status = ino.status();
    if (ino.ok()) {
      inos.push_back(*ino);
      run.status = fs->WriteAt(*ino, 0, TestContent(f, size_t{kFileBlocks} * cfg.block_size));
    }
  }
  // Write cost as the paper defines it: bytes moved (log writes plus cleaner
  // reads) per byte of new data, between two snapshots.
  auto cost = [](const LfsStats& from, const LfsStats& to) {
    auto moved = [](const LfsStats& s) { return s.total_log_written() + s.clean_read_bytes; };
    return static_cast<double>(moved(to) - moved(from)) /
           static_cast<double>(to.new_payload_bytes - from.new_payload_bytes);
  };
  Rng rng(77);
  std::vector<uint8_t> block(cfg.block_size);
  const uint64_t interval_ops = uint64_t{files} * kFileBlocks;
  LfsStats warm = fs->stats();
  for (int interval = 0; interval < kWarmupIntervals + kIntervals && run.status.ok();
       interval++) {
    LfsStats before = fs->stats();
    for (uint64_t op = 0; op < interval_ops && run.status.ok(); op++) {
      uint32_t f = rng.NextBelow(10) != 0
                       ? static_cast<uint32_t>(rng.NextBelow(hot))
                       : hot + static_cast<uint32_t>(rng.NextBelow(files - hot));
      block[0] = static_cast<uint8_t>(op);
      run.status = fs->WriteAt(inos[f], rng.NextBelow(kFileBlocks) * cfg.block_size, block);
      if (run.status.ok() && op % 2000 == 1999) {
        run.status = fs->Sync();
      }
    }
    if (interval < kWarmupIntervals) {
      warm = fs->stats();
    } else {
      run.interval_cost.push_back(cost(before, fs->stats()));
    }
  }
  run.cost_after_warmup = cost(warm, fs->stats());
  return run;
}

// Cost-benefit's age term grows with the clock while copied cold blocks keep
// their old mtimes, so without the victim_max_u bar the single-log cleaner
// re-copies nearly full cold segments ever more often: here its write cost
// climbs 4.7, 6.9, 12.2 over the first three intervals and the log then
// wedges (NoSpace). With the bar it must hold a steady state below greedy's
// (4.08 against 4.18).
TEST(LfsCleanerSteadyStateTest, CostBenefitHotColdWriteCostStaysFlatAndBeatsGreedy) {
  HotColdRun cb = RunHotCold(CleaningPolicy::kCostBenefit);
  ASSERT_OK(cb.status);
  ASSERT_EQ(cb.interval_cost.size(), 10u);
  EXPECT_LE(cb.interval_cost.back(), 1.1 * cb.interval_cost.front());
  HotColdRun greedy = RunHotCold(CleaningPolicy::kGreedy);
  ASSERT_OK(greedy.status);
  EXPECT_LT(cb.cost_after_warmup, greedy.cost_after_warmup);
}

}  // namespace
}  // namespace lfs
