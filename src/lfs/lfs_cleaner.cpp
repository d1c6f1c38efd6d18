// The segment cleaner: mechanism (Section 3.3) and policies (Sections
// 3.4-3.6).
//
// Mechanism: read segments, identify live blocks via the segment summary +
// inode map version (the uid fast path) + inode pointers, and rewrite the
// live data to the head of the log. Policy: segments are chosen either
// greedily (least utilized first) or by cost-benefit
//
//     benefit/cost = (1-u) * age / (1+u)
//
// and live blocks are optionally sorted by age before rewriting, which
// segregates cold data into its own segments and produces the bimodal
// utilization distribution of Figure 6.

#include <algorithm>
#include <cassert>
#include <set>
#include <utility>

#include "src/lfs/lfs.h"

namespace lfs {

std::vector<SegNo> LfsFileSystem::SelectSegmentsToClean(uint32_t max_segments) {
  uint64_t now = clock_.Now();
  std::vector<uint8_t> off_limits = ProtectedSegmentBitmap();

  // Bound the pass so the rewritten live data — plus the buffered user data
  // the pass's final flush will push out — fits in the clean segments we
  // currently have. CleanerPass then trims the victims to the full bound,
  // metadata included (PassWriteBlocks), so the cleaner never wedges itself.
  uint64_t buffered = dirty_count_.load() * uint64_t{sb_.block_size};
  uint64_t budget = usage_.clean_count() > 1
                        ? (uint64_t{usage_.clean_count()} - 1) * sb_.segment_bytes()
                        : 0;
  budget = budget > buffered ? budget - buffered : 0;

  // Pop candidates from the selection index in exact score order; it holds
  // every kDirty segment, so only the per-candidate filters remain here.
  //
  // Nearly full victims are declined (see victim_max_u) — with a no-wedge
  // fallback: if the bar filtered everything out, re-select without it
  // rather than refuse to clean while dead bytes exist.
  std::vector<SegNo> chosen;
  bool decline_full = cfg_.victim_max_u < 1.0;
  for (int attempt = 0; attempt < 2 && chosen.empty(); attempt++) {
    bool bar_active = decline_full && attempt == 0;
    uint64_t planned_live = 0;
    VictimIndex::Cursor cursor =
        usage_.SelectVictims(cfg_.policy == CleaningPolicy::kGreedy, now);
    for (SegNo seg = cursor.Next();
         seg != VictimIndex::kNone && chosen.size() < max_segments; seg = cursor.Next()) {
      if (off_limits[seg]) {
        continue;
      }
      // Never touch segments written after the last checkpoint: they are the
      // roll-forward log tail and must survive until the next checkpoint.
      if (usage_.write_seq(seg) >= ckpt_boundary_seq_) {
        continue;
      }
      if (bar_active && usage_.Utilization(seg) >= cfg_.victim_max_u) {
        continue;  // nearly full: re-copying it reclaims almost nothing
      }
      uint64_t live = usage_.Get(seg).live_bytes;
      if (planned_live + live > budget) {
        continue;  // try a smaller (likely emptier) candidate
      }
      planned_live += live;
      chosen.push_back(seg);
    }
    if (!bar_active) {
      break;
    }
  }

  if (cfg_.verify_selection &&
      chosen != SelectSegmentsToCleanReference(max_segments, now)) {
    stats_.selection_mismatches++;
  }
  return chosen;
}

std::vector<SegNo> LfsFileSystem::SelectSegmentsToCleanReference(uint32_t max_segments,
                                                                 uint64_t now) {
  std::vector<uint8_t> off_limits = ProtectedSegmentBitmap();
  struct Scored {
    SegNo seg;
    double score;
  };
  std::vector<Scored> scored;
  for (SegNo seg = 0; seg < sb_.nsegments; seg++) {
    const SegUsageEntry& e = usage_.Get(seg);
    if (e.state != SegState::kDirty || off_limits[seg]) {
      continue;
    }
    if (usage_.write_seq(seg) >= ckpt_boundary_seq_) {
      continue;
    }
    double u = usage_.Utilization(seg);
    if (u >= 1.0) {
      continue;  // nothing to reclaim
    }
    double score;
    if (cfg_.policy == CleaningPolicy::kGreedy) {
      score = 1.0 - u;  // least utilized first
    } else {
      double age = static_cast<double>(now - std::min(now, e.last_write));
      score = (1.0 - u) * age / (1.0 + u);
    }
    scored.push_back({seg, score});
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.score != b.score) {
      return a.score > b.score;
    }
    return a.seg < b.seg;
  });

  uint64_t buffered = dirty_count_.load() * uint64_t{sb_.block_size};
  uint64_t budget = usage_.clean_count() > 1
                        ? (uint64_t{usage_.clean_count()} - 1) * sb_.segment_bytes()
                        : 0;
  budget = budget > buffered ? budget - buffered : 0;
  std::vector<SegNo> chosen;
  bool decline_full = cfg_.victim_max_u < 1.0;
  for (int attempt = 0; attempt < 2 && chosen.empty(); attempt++) {
    bool bar_active = decline_full && attempt == 0;
    uint64_t planned_live = 0;
    for (const Scored& s : scored) {
      if (chosen.size() >= max_segments) {
        break;
      }
      if (bar_active && usage_.Utilization(s.seg) >= cfg_.victim_max_u) {
        continue;
      }
      uint64_t live = usage_.Get(s.seg).live_bytes;
      if (planned_live + live > budget) {
        continue;  // try a smaller (likely emptier) candidate
      }
      planned_live += live;
      chosen.push_back(s.seg);
    }
    if (!bar_active) {
      break;
    }
  }
  return chosen;
}

Result<bool> LfsFileSystem::IsLiveBlock(const SummaryEntry& entry, BlockNo addr,
                                        std::span<const uint8_t> content) {
  switch (entry.kind) {
    case BlockKind::kData:
    case BlockKind::kIndirect:
    case BlockKind::kDoubleIndirect: {
      ImapEntry e = imap_.Get(entry.ino);
      // The uid fast path (Section 3.3): a version mismatch means the file
      // was deleted or truncated; the block is dead without reading inodes.
      if (!e.allocated() || e.version != entry.version) {
        return false;
      }
      LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(entry.ino));
      if (entry.kind == BlockKind::kData) {
        return entry.fbn < fm->blocks.size() && fm->blocks[entry.fbn] == addr;
      }
      if (entry.kind == BlockKind::kIndirect) {
        return entry.fbn < fm->ind_addrs.size() && fm->ind_addrs[entry.fbn] == addr;
      }
      return fm->dind_addr == addr;
    }
    case BlockKind::kInodeBlock: {
      for (uint32_t s = 0; s < sb_.inodes_per_block(); s++) {
        Result<Inode> ino = Inode::DecodeFrom(content.subspan(size_t{s} * kInodeSlotSize,
                                                              kInodeSlotSize));
        if (!ino.ok() || ino->ino == kNilInode) {
          continue;
        }
        ImapEntry e = imap_.Get(ino->ino);
        if (e.allocated() && e.inode_block == addr && e.slot == s) {
          return true;
        }
      }
      return false;
    }
    case BlockKind::kImapChunk:
      return entry.fbn < imap_.chunk_count() && imap_.chunk_addr(entry.fbn) == addr;
    case BlockKind::kUsageChunk:
      return entry.fbn < usage_.chunk_count() && usage_.chunk_addr(entry.fbn) == addr;
    case BlockKind::kDirLog:
      return false;  // only meaningful during roll-forward over the log tail
  }
  return false;
}

Status LfsFileSystem::MigrateLiveBlock(const SummaryEntry& entry, BlockNo addr,
                                       std::vector<uint8_t> content, SegNo drain_src) {
  const uint32_t bs = sb_.block_size;
  switch (entry.kind) {
    case BlockKind::kData: {
      LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(entry.ino));
      // The block keeps its original age so the age-sort and the segment's
      // last-write time continue to reflect the data's coldness. Surviving a
      // cleaning pass also moves it one log colder than its source segment
      // (the multi-log migration ladder; no-op with a single log): by being
      // alive when its segment was reclaimed the block has proven itself
      // longer-lived than its neighbors, and genuinely hot data dies before
      // it can ratchet twice.
      SegNo src_seg = static_cast<SegNo>((addr - sb_.seg_start) / sb_.segment_blocks);
      uint32_t cold_hint = 2 + usage_.Get(src_seg).log_id;
      LFS_ASSIGN_OR_RETURN(BlockNo new_addr, writer_.Append(entry, std::move(content),
                                                            entry.mtime, bs, cold_hint));
      fm->blocks[entry.fbn] = new_addr;
      MarkIndirectDirty(fm, entry.fbn);
      MarkInodeDirty(entry.ino);
      if (drain_src != kNilSeg) {
        // Partial compaction: the victim stays kDirty, so debit the moved
        // bytes now instead of relying on a wholesale clean transition.
        usage_.SubLive(drain_src, bs);
      }
      return OkStatus();
    }
    // Indirect, double-indirect, and inode blocks are rewritten by the
    // deferred FlushFileMetadata path, which debits their OLD addresses as it
    // appends the fresh copies — so a partial-compaction drain needs no extra
    // accounting for these kinds; drain_src is intentionally unused.
    case BlockKind::kIndirect: {
      LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(entry.ino));
      fm->dirty_ind.insert(static_cast<uint32_t>(entry.fbn));
      if (entry.fbn >= 1) {
        fm->dind_dirty = true;
      }
      fm->inode_dirty = true;
      MarkInodeDirty(entry.ino);
      return OkStatus();
    }
    case BlockKind::kDoubleIndirect: {
      LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(entry.ino));
      fm->dind_dirty = true;
      fm->inode_dirty = true;
      MarkInodeDirty(entry.ino);
      return OkStatus();
    }
    case BlockKind::kInodeBlock: {
      for (uint32_t s = 0; s < sb_.inodes_per_block(); s++) {
        Result<Inode> ino =
            Inode::DecodeFrom(std::span<const uint8_t>(content).subspan(
                size_t{s} * kInodeSlotSize, kInodeSlotSize));
        if (!ino.ok() || ino->ino == kNilInode) {
          continue;
        }
        ImapEntry e = imap_.Get(ino->ino);
        if (e.allocated() && e.inode_block == addr && e.slot == s) {
          LFS_ASSIGN_OR_RETURN(FileMap * fm, GetFileMap(ino->ino));
          fm->inode_dirty = true;
          MarkInodeDirty(ino->ino);
        }
      }
      return OkStatus();
    }
    case BlockKind::kImapChunk: {
      uint32_t chunk = static_cast<uint32_t>(entry.fbn);
      std::vector<uint8_t> fresh(bs);
      imap_.EncodeChunk(chunk, fresh);
      SummaryEntry e{BlockKind::kImapChunk, kNilInode, chunk, 0};
      LFS_ASSIGN_OR_RETURN(BlockNo new_addr,
                           writer_.Append(e, std::move(fresh), clock_.Now(), bs));
      imap_.set_chunk_addr(chunk, new_addr);
      if (drain_src != kNilSeg) {
        usage_.SubLive(drain_src, bs);
      }
      return OkStatus();
    }
    case BlockKind::kUsageChunk: {
      uint32_t chunk = static_cast<uint32_t>(entry.fbn);
      // Partial compaction debits the victim BEFORE serializing, so if this
      // chunk covers the victim the logged copy carries the drained count.
      if (drain_src != kNilSeg) {
        usage_.SubLive(drain_src, bs);
      }
      // Pre-account the new copy so the serialized contents include it (see
      // FlushMetadataChunks).
      LFS_RETURN_IF_ERROR(writer_.PrepareAppend());
      usage_.AddLive(writer_.current_segment(), bs, clock_.Now());
      std::vector<uint8_t> fresh(bs);
      usage_.EncodeChunk(chunk, fresh);
      SummaryEntry e{BlockKind::kUsageChunk, kNilInode, chunk, 0};
      LFS_ASSIGN_OR_RETURN(BlockNo new_addr,
                           writer_.Append(e, std::move(fresh), clock_.Now(), /*live_bytes=*/0));
      usage_.set_chunk_addr(chunk, new_addr);
      usage_.MarkChunkDirty(chunk);
      return OkStatus();
    }
    case BlockKind::kDirLog:
      return OkStatus();
  }
  return OkStatus();
}

Status LfsFileSystem::CollectLiveBlocksWhole(SegNo seg, std::vector<LiveBlock>* out,
                                             bool* media_damage) {
  // The paper's conservative mechanism: read the segment in its entirety
  // (the chain of partial writes covers everything ever written to it).
  // Victims are always fully checkpointed, so a chain that stops at an
  // unreadable or CRC-failing block is media damage, not a torn log tail.
  ChainStatus chain_status;
  LFS_ASSIGN_OR_RETURN(std::vector<ParsedPartial> chain,
                       ParseSegmentChain(seg, 0, sb_.segment_blocks, /*min_seq=*/0,
                                         &chain_status));
  if (chain_status.io_error || chain_status.crc_error) {
    *media_damage = true;
  }
  for (ParsedPartial& p : chain) {
    stats_.clean_read_bytes += (1 + p.summary.entries.size()) * uint64_t{sb_.block_size};
    for (size_t i = 0; i < p.summary.entries.size(); i++) {
      const SummaryEntry& entry = p.summary.entries[i];
      BlockNo addr = sb_.SegmentBase(seg) + p.offset + 1 + i;
      std::span<const uint8_t> content(p.payload.data() + i * sb_.block_size, sb_.block_size);
      if (entry.kind == BlockKind::kDirLog) {
        continue;
      }
      LFS_ASSIGN_OR_RETURN(bool live, IsLiveBlock(entry, addr, content));
      if (live) {
        out->push_back(
            LiveBlock{entry, addr, std::vector<uint8_t>(content.begin(), content.end())});
      }
    }
  }
  return OkStatus();
}

Status LfsFileSystem::CollectLiveBlocksSparse(SegNo seg, std::vector<LiveBlock>* out,
                                              bool* media_damage) {
  // The paper's untried variant: read only the summary blocks, decide
  // liveness from the in-memory tables, then fetch just the live block runs.
  // Pays off when utilization is low; no payload-CRC validation is possible,
  // which is fine here because the cleaner only touches segments fully
  // written before the last checkpoint.
  const uint32_t bs = sb_.block_size;
  const BlockNo base = sb_.SegmentBase(seg);
  std::vector<uint8_t> sum_block(bs);
  std::vector<LiveBlock> candidates;  // content filled after the batched reads
  std::vector<size_t> inode_block_idx;  // candidates needing a content check

  uint32_t offset = 0;
  uint64_t prev_seq = 0;
  while (offset + 1 < sb_.segment_blocks) {
    if (!DeviceRead(base + offset, 1, sum_block).ok()) {
      // Unreadable summary: the rest of the chain is unreachable. Report
      // damage and let the caller quarantine; what was collected so far
      // still migrates.
      *media_damage = true;
      break;
    }
    stats_.clean_read_bytes += bs;
    Result<SegmentSummary> sum = SegmentSummary::DecodeFrom(sum_block);
    if (!sum.ok() || (prev_seq != 0 && sum->seq <= prev_seq) || sum->entries.empty() ||
        offset + 1 + sum->entries.size() > sb_.segment_blocks) {
      break;
    }
    prev_seq = sum->seq;
    for (size_t i = 0; i < sum->entries.size(); i++) {
      const SummaryEntry& entry = sum->entries[i];
      BlockNo addr = base + offset + 1 + i;
      if (entry.kind == BlockKind::kDirLog) {
        continue;
      }
      if (entry.kind == BlockKind::kInodeBlock) {
        // Liveness of an inode block is per-slot and needs the contents;
        // read it optimistically and re-check below.
        inode_block_idx.push_back(candidates.size());
        candidates.push_back(LiveBlock{entry, addr, {}});
        continue;
      }
      LFS_ASSIGN_OR_RETURN(bool live, IsLiveBlock(entry, addr, {}));
      if (live) {
        candidates.push_back(LiveBlock{entry, addr, {}});
      }
    }
    offset += 1 + static_cast<uint32_t>(sum->entries.size());
  }

  // Fetch the candidates in coalesced address runs (candidates are already
  // in ascending address order). A run that cannot be read even with retries
  // is media damage: drop those candidates (their blocks stay in place in
  // the soon-to-be-quarantined segment) and keep going.
  std::vector<uint8_t> drop(candidates.size(), 0);
  for (size_t i = 0; i < candidates.size();) {
    size_t j = i + 1;
    while (j < candidates.size() && candidates[j].addr == candidates[j - 1].addr + 1) {
      j++;
    }
    uint64_t run = j - i;
    std::vector<uint8_t> buf(run * bs);
    if (!DeviceRead(candidates[i].addr, run, buf).ok()) {
      *media_damage = true;
      for (size_t k = i; k < j; k++) {
        drop[k] = 1;
      }
      i = j;
      continue;
    }
    stats_.clean_read_bytes += run * bs;
    for (size_t k = i; k < j; k++) {
      candidates[k].content.assign(buf.begin() + static_cast<long>((k - i) * bs),
                                   buf.begin() + static_cast<long>((k - i + 1) * bs));
    }
    i = j;
  }

  // Resolve the deferred inode-block liveness checks now that we have data.
  for (size_t idx : inode_block_idx) {
    if (drop[idx]) {
      continue;  // unreadable; stays behind in the quarantined segment
    }
    LFS_ASSIGN_OR_RETURN(
        bool live, IsLiveBlock(candidates[idx].entry, candidates[idx].addr,
                               candidates[idx].content));
    if (!live) {
      drop[idx] = 1;
    }
  }
  for (size_t i = 0; i < candidates.size(); i++) {
    if (!drop[i]) {
      out->push_back(std::move(candidates[i]));
    }
  }
  return OkStatus();
}

Status LfsFileSystem::CollectLiveBlocksPartial(SegNo seg, uint32_t max_blocks,
                                               std::vector<LiveBlock>* out,
                                               bool* media_damage, bool* exhausted) {
  // Partial-segment compaction (Lomet & Luo): drain a high-utilization victim
  // a bounded slice at a time instead of round-tripping it. The walk is the
  // sparse path's summary-chain scan, but it resumes at the victim's compact
  // cursor, stops once ~max_blocks live blocks are gathered (rounding up to a
  // partial-write boundary so the cursor always lands between partials), and
  // tags every candidate with drain_src so migration debits the victim
  // exactly as bytes move. A fully walked chain (*exhausted) means every
  // remaining live block is in `out`; anything less leaves the victim kDirty
  // with its cursor advanced for the next pass.
  const uint32_t bs = sb_.block_size;
  const BlockNo base = sb_.SegmentBase(seg);
  std::vector<uint8_t> sum_block(bs);
  std::vector<LiveBlock> candidates;
  std::vector<size_t> inode_block_idx;  // candidates needing a content check
  *exhausted = false;

  uint32_t offset = usage_.compact_cursor(seg);
  uint64_t prev_seq = 0;
  while (offset + 1 < sb_.segment_blocks) {
    if (candidates.size() >= max_blocks) {
      break;  // slice full; cursor stays at this partial boundary
    }
    if (!DeviceRead(base + offset, 1, sum_block).ok()) {
      *media_damage = true;
      break;
    }
    stats_.clean_read_bytes += bs;
    Result<SegmentSummary> sum = SegmentSummary::DecodeFrom(sum_block);
    if (!sum.ok() || (prev_seq != 0 && sum->seq <= prev_seq) || sum->entries.empty() ||
        offset + 1 + sum->entries.size() > sb_.segment_blocks) {
      *exhausted = true;  // legitimate chain end
      break;
    }
    prev_seq = sum->seq;
    for (size_t i = 0; i < sum->entries.size(); i++) {
      const SummaryEntry& entry = sum->entries[i];
      BlockNo addr = base + offset + 1 + i;
      if (entry.kind == BlockKind::kDirLog) {
        continue;
      }
      if (entry.kind == BlockKind::kInodeBlock) {
        inode_block_idx.push_back(candidates.size());
        candidates.push_back(LiveBlock{entry, addr, {}, seg});
        continue;
      }
      LFS_ASSIGN_OR_RETURN(bool live, IsLiveBlock(entry, addr, {}));
      if (live) {
        candidates.push_back(LiveBlock{entry, addr, {}, seg});
      }
    }
    offset += 1 + static_cast<uint32_t>(sum->entries.size());
    if (offset + 1 >= sb_.segment_blocks) {
      *exhausted = true;
    }
  }
  // Remember where to resume. An exhausted walk resets to 0: if the victim
  // drains fully the clean transition clears the cursor anyway, and if it
  // somehow retains live bytes a future pass must rescan rather than skip
  // them forever.
  usage_.set_compact_cursor(seg, *exhausted ? 0 : offset);

  // Fetch the slice in coalesced address runs, exactly as the sparse path;
  // unreadable runs are media damage — those blocks stay behind in the
  // soon-to-be-quarantined victim.
  std::vector<uint8_t> drop(candidates.size(), 0);
  for (size_t i = 0; i < candidates.size();) {
    size_t j = i + 1;
    while (j < candidates.size() && candidates[j].addr == candidates[j - 1].addr + 1) {
      j++;
    }
    uint64_t run = j - i;
    std::vector<uint8_t> buf(run * bs);
    if (!DeviceRead(candidates[i].addr, run, buf).ok()) {
      *media_damage = true;
      for (size_t k = i; k < j; k++) {
        drop[k] = 1;
      }
      i = j;
      continue;
    }
    stats_.clean_read_bytes += run * bs;
    for (size_t k = i; k < j; k++) {
      candidates[k].content.assign(buf.begin() + static_cast<long>((k - i) * bs),
                                   buf.begin() + static_cast<long>((k - i + 1) * bs));
    }
    i = j;
  }

  for (size_t idx : inode_block_idx) {
    if (drop[idx]) {
      continue;
    }
    LFS_ASSIGN_OR_RETURN(
        bool live, IsLiveBlock(candidates[idx].entry, candidates[idx].addr,
                               candidates[idx].content));
    if (!live) {
      drop[idx] = 1;
    }
  }
  for (size_t i = 0; i < candidates.size(); i++) {
    if (!drop[i]) {
      out->push_back(std::move(candidates[i]));
    }
  }
  return OkStatus();
}

std::vector<SegNo> LfsFileSystem::SelectSegmentsToCleanAdaptive(
    uint32_t max_segments, uint64_t now, const GovernorDecision& decision) {
  std::vector<uint8_t> off_limits = ProtectedSegmentBitmap();
  uint64_t buffered = dirty_count_.load() * uint64_t{sb_.block_size};
  uint64_t budget = usage_.clean_count() > 1
                        ? (uint64_t{usage_.clean_count()} - 1) * sb_.segment_bytes()
                        : 0;
  budget = budget > buffered ? budget - buffered : 0;

  const uint32_t nlogs = writer_.num_logs();
  std::vector<SegNo> chosen;
  bool decline_full = cfg_.victim_max_u < 1.0;
  for (int attempt = 0; attempt < 2 && chosen.empty(); attempt++) {
    bool bar_active = decline_full && attempt == 0;
    uint64_t planned_live = 0;
    // One cursor per log, each under that log's policy; candidates pop
    // round-robin across the logs so no population starves. A cursor walks
    // the whole index, so each log filters down to its own segments by the
    // persisted log_id tag. With one log this is exactly one cursor under
    // the governor's hot policy.
    std::vector<VictimIndex::Cursor> cursors;
    cursors.reserve(nlogs);
    for (uint32_t log = 0; log < nlogs; log++) {
      CleaningPolicy pol = log == 0 ? decision.hot_policy : decision.cold_policy;
      cursors.push_back(usage_.SelectVictims(pol == CleaningPolicy::kGreedy, now));
    }
    std::vector<uint8_t> done(nlogs, 0);
    uint32_t remaining = nlogs;
    while (remaining > 0 && chosen.size() < max_segments) {
      for (uint32_t log = 0; log < nlogs && chosen.size() < max_segments; log++) {
        if (done[log]) {
          continue;
        }
        for (;;) {
          SegNo seg = cursors[log].Next();
          if (seg == VictimIndex::kNone) {
            done[log] = 1;
            remaining--;
            break;
          }
          if (usage_.Get(seg).log_id != log || off_limits[seg]) {
            continue;
          }
          if (usage_.write_seq(seg) >= ckpt_boundary_seq_) {
            continue;
          }
          if (bar_active && usage_.Utilization(seg) >= cfg_.victim_max_u) {
            continue;
          }
          uint64_t live = usage_.Get(seg).live_bytes;
          if (planned_live + live > budget) {
            continue;  // try a smaller (likely emptier) candidate
          }
          planned_live += live;
          chosen.push_back(seg);
          break;
        }
      }
    }
    if (!bar_active) {
      break;
    }
  }
  return chosen;
}

uint64_t LfsFileSystem::PassWriteBlocks(const std::vector<LiveBlock>& blocks) {
  const uint32_t ppb = sb_.pointers_per_block();
  uint64_t payload = 0;
  std::set<InodeNum> files;                               // inodes to rewrite
  std::set<std::pair<InodeNum, uint64_t>> indirect;       // (file, indirect index)
  std::set<InodeNum> dind;                                // double-indirect roots
  auto touch_data = [&](InodeNum ino, uint64_t fbn) {
    files.insert(ino);
    if (fbn >= kNumDirect) {
      uint64_t ind = (fbn - kNumDirect) / ppb;
      indirect.insert({ino, ind});
      if (ind >= 1) {
        dind.insert(ino);
      }
    }
  };
  for (const LiveBlock& b : blocks) {
    switch (b.entry.kind) {
      case BlockKind::kData:
        payload++;
        touch_data(b.entry.ino, b.entry.fbn);
        break;
      case BlockKind::kIndirect:
        files.insert(b.entry.ino);
        indirect.insert({b.entry.ino, b.entry.fbn});
        if (b.entry.fbn >= 1) {
          dind.insert(b.entry.ino);
        }
        break;
      case BlockKind::kDoubleIndirect:
        files.insert(b.entry.ino);
        dind.insert(b.entry.ino);
        break;
      case BlockKind::kInodeBlock:
        payload++;  // its live inodes repack into at most one block
        break;
      case BlockKind::kImapChunk:
      case BlockKind::kUsageChunk:
        payload++;
        break;
      case BlockKind::kDirLog:
        break;
    }
  }
  for (const DirtyShard& shard : dirty_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, data] : shard.blocks) {
      payload++;
      touch_data(key.first, key.second);
    }
  }
  std::vector<InodeNum> dirty_inodes;
  {
    std::lock_guard<std::mutex> lock(dirty_inodes_mu_);
    dirty_inodes.assign(dirty_inodes_.begin(), dirty_inodes_.end());
  }
  for (InodeNum ino : dirty_inodes) {
    files.insert(ino);
    if (const FileMap* fm = FindFileMap(ino)) {
      for (uint32_t ind : fm->dirty_ind) {
        indirect.insert({ino, ind});
      }
      if (fm->dind_dirty) {
        dind.insert(ino);
      }
    }
  }
  const uint32_t ipb = sb_.inodes_per_block();
  payload += indirect.size() + dind.size() + (files.size() + ipb - 1) / ipb;
  // One summary per partial; partials end at full segments and summaries,
  // and at each flush the pass makes (the migration, the dirlog, the closing
  // flush), and the first one starts in a partly filled segment.
  const uint64_t per_partial =
      std::min<uint64_t>(sb_.segment_blocks - 1, sb_.max_summary_entries());
  const uint64_t summaries = (payload + per_partial - 1) / per_partial + 4;
  return payload + summaries + 1;  // + a dirlog block
}

Result<uint32_t> LfsFileSystem::CleanerPass() {
  if (in_cleaner_) {
    return uint32_t{0};
  }
  in_cleaner_ = true;
  obs::ScopedOpTimer op_timer(&obs_, obs::OpType::kCleanerPass, device_, &clock_);
  auto cleanup = [this](auto status_or) {
    in_cleaner_ = false;
    writer_.set_cleaning(false);
    writer_.set_privileged(false);
    return status_or;
  };
  // The whole pass may dip into the reserve: it has to write out both the
  // migrated live data and the buffered user data that its inode flush
  // forces out (see below) before the sources are reclaimed.
  writer_.set_privileged(true);

  Status st = writer_.Flush();
  if (!st.ok()) {
    return cleanup(Result<uint32_t>(st));
  }

  // Cleaner QoS (ISSUE 10): meter cleaner copy I/O against a token bucket
  // refilled on the modeled disk clock. A discretionary pass (clean pool
  // above the critical floor) defers when the bucket is dry — foreground
  // writes keep the disk — but once the pool reaches the floor the pass runs
  // anyway and drives the bucket into deficit (paid off by future refills),
  // so throttling can never wedge the filesystem.
  if (qos_.enabled()) {
    qos_.Refill(device_->ModeledTime());
    if (!qos_.HasTokens()) {
      if (writer_.usable_clean_segments() > CriticalCleanFloor()) {
        stats_.qos_deferrals++;
        return cleanup(Result<uint32_t>(uint32_t{0}));
      }
      stats_.qos_escalations++;
    }
  }
  RelaxedDelta<uint64_t> qos_reads(stats_.clean_read_bytes);
  RelaxedDelta<uint64_t> qos_writes(stats_.clean_write_bytes);

  // Adaptive policy + partial compaction only engage when configured; the
  // legacy selection and accounting below are byte-for-byte unchanged
  // otherwise.
  GovernorDecision decision;
  const bool fine_grained = governor_.enabled() || cfg_.partial_compaction;
  if (fine_grained) {
    decision = governor_.Decide(usage_.UtilizationHistogram());
    stats_.governor_switches = governor_.switches();
  }
  std::vector<SegNo> chosen =
      governor_.enabled()
          ? SelectSegmentsToCleanAdaptive(cfg_.segments_per_pass, clock_.Now(), decision)
          : SelectSegmentsToClean(cfg_.segments_per_pass);
  if (chosen.empty()) {
    return cleanup(Result<uint32_t>(uint32_t{0}));
  }
  stats_.cleaner_passes++;
  LFS_TRACE(obs_.tracer(), obs::TraceEventType::kCleanerPassBegin, obs::OpType::kCleanerPass,
            clock_.Now(), chosen.size(), 0, device_->ModeledTime());
  writer_.set_cleaning(true);
  // Everything the cleaner (or anyone) writes from here on carries a
  // sequence number >= pass_start_seq; used below to detect source segments
  // that were recycled as cleaning output mid-pass.
  const uint64_t pass_start_seq = writer_.next_seq();

  // Per-victim plan: which ordering policy picked it (for the per-policy
  // Table 2 columns) and whether it is drained incrementally (partial) or
  // round-tripped whole.
  struct VictimPlan {
    SegNo seg = 0;
    uint64_t live_before = 0;
    double u_before = 0.0;
    CleaningPolicy policy = CleaningPolicy::kCostBenefit;
    bool partial = false;
    bool quarantined = false;
    uint64_t blocks_moved = 0;  // partial only: live blocks drained this pass
  };
  std::vector<VictimPlan> plans;
  plans.reserve(chosen.size());

  std::vector<LiveBlock> live_blocks;
  uint32_t quarantined_this_pass = 0;
  for (SegNo seg : chosen) {
    VictimPlan plan;
    plan.seg = seg;
    plan.live_before = usage_.Get(seg).live_bytes;
    plan.u_before = usage_.Utilization(seg);
    plan.policy = governor_.enabled()
                      ? (usage_.Get(seg).log_id == 0 ? decision.hot_policy
                                                     : decision.cold_policy)
                      : cfg_.policy;
    // Drain high-utilization victims incrementally: relocating a bounded run
    // of live blocks costs a fraction of a full round-trip, and the freed
    // bytes raise (1-u) for the next selection instead of being hostage to a
    // whole-segment copy.
    plan.partial = decision.partial && plan.live_before > 0 &&
                   plan.u_before >= cfg_.partial_compaction_min_u;
    if (plan.partial) {
      size_t before = live_blocks.size();
      bool media_damage = false;
      bool exhausted = false;
      Status collect = CollectLiveBlocksPartial(seg, cfg_.partial_compaction_max_blocks,
                                                &live_blocks, &media_damage, &exhausted);
      if (!collect.ok()) {
        return cleanup(Result<uint32_t>(collect));
      }
      plan.blocks_moved = live_blocks.size() - before;
      if (media_damage) {
        usage_.SetState(seg, SegState::kQuarantined);
        LFS_TRACE(obs_.tracer(), obs::TraceEventType::kQuarantine, obs::OpType::kCleanerPass,
                  clock_.Now(), seg, plan.live_before, device_->ModeledTime());
        stats_.segments_quarantined++;
        quarantined_this_pass++;
        plan.quarantined = true;
      }
      plans.push_back(plan);
      continue;
    }
    stats_.segments_cleaned++;
    if (plan.live_before == 0) {
      // An empty segment need not be read at all (Section 3.4: u=0 gives
      // write cost 1.0). Table 2 found more than half of cleaned segments
      // empty in production.
      stats_.segments_cleaned_empty++;
      stats_.segments_cleaned_by_policy[static_cast<size_t>(plan.policy)]++;
      usage_.SetState(seg, SegState::kClean);
      plans.push_back(plan);
      continue;
    }
    stats_.sum_cleaned_utilization += usage_.Utilization(seg);
    bool media_damage = false;
    Status collect = cfg_.cleaner_read_live_blocks_only
                         ? CollectLiveBlocksSparse(seg, &live_blocks, &media_damage)
                         : CollectLiveBlocksWhole(seg, &live_blocks, &media_damage);
    if (!collect.ok()) {
      return cleanup(Result<uint32_t>(collect));
    }
    if (media_damage) {
      // The victim has unreadable or corrupt blocks. Quarantine it: never
      // allocated, never picked again, its surviving live blocks left in
      // place. Whatever was collected before the damage still migrates, and
      // the pass continues with the remaining victims.
      usage_.SetState(seg, SegState::kQuarantined);
      LFS_TRACE(obs_.tracer(), obs::TraceEventType::kQuarantine, obs::OpType::kCleanerPass,
                clock_.Now(), seg, plan.live_before, device_->ModeledTime());
      stats_.segments_quarantined++;
      quarantined_this_pass++;
      plan.quarantined = true;
      stats_.segments_cleaned--;  // it was not reclaimed
      stats_.sum_cleaned_utilization -= usage_.Utilization(seg);
    }
    plans.push_back(plan);
  }

  // The selection budget counts live bytes only. Rewriting a live data block
  // also rewrites its file's inode and, past the direct pointers, its
  // indirect block: with cold victims whose blocks belong to many files that
  // adds ~40% to the data. Drop trailing victims until everything the pass
  // appends fits in the clean segments, so a pass cannot wedge the log.
  const uint64_t room = uint64_t{usage_.clean_count()} * sb_.segment_blocks;
  while (plans.size() > 1 && PassWriteBlocks(live_blocks) > room) {
    const VictimPlan& last = plans.back();
    if (last.partial || last.quarantined || last.live_before == 0) {
      break;
    }
    std::erase_if(live_blocks,
                  [&](const LiveBlock& b) { return sb_.SegOf(b.addr) == last.seg; });
    stats_.segments_cleaned--;
    stats_.sum_cleaned_utilization -= last.u_before;
    plans.pop_back();
  }

  // Migrate metadata blocks first (their order is irrelevant), then the data
  // blocks grouped by age (Section 3.4 policy question 4: "age sort") — this
  // is what segregates cold from hot data.
  std::stable_partition(live_blocks.begin(), live_blocks.end(), [](const LiveBlock& b) {
    return b.entry.kind != BlockKind::kData;
  });
  if (cfg_.age_sort) {
    std::stable_sort(live_blocks.begin(), live_blocks.end(),
                     [](const LiveBlock& a, const LiveBlock& b) {
                       bool a_data = a.entry.kind == BlockKind::kData;
                       bool b_data = b.entry.kind == BlockKind::kData;
                       if (a_data != b_data) {
                         return !a_data;  // keep metadata first
                       }
                       if (!a_data) {
                         return false;
                       }
                       return a.entry.mtime < b.entry.mtime;
                     });
  }
  for (LiveBlock& lb : live_blocks) {
    Status mig = MigrateLiveBlock(lb.entry, lb.addr, std::move(lb.content), lb.drain_src);
    if (!mig.ok()) {
      return cleanup(Result<uint32_t>(mig));
    }
  }

  // Rewrite the inodes and indirect blocks whose pointers moved (this also
  // covers migrated inode blocks) — via the FULL flush body, so any user
  // data still buffered for those files reaches the log BEFORE the inodes
  // that point at it. Writing just the inodes here would let a crash recover
  // files with their new size but nil block pointers (silent zeros). The
  // flush itself is ordinary traffic, not cleaning, for the write-cost
  // accounting.
  writer_.set_cleaning(false);
  st = FlushDirtyDataInner();
  if (!st.ok()) {
    return cleanup(Result<uint32_t>(st));
  }

  uint32_t reclaimed = 0;
  const uint64_t bs = sb_.block_size;
  for (const VictimPlan& plan : plans) {
    SegNo seg = plan.seg;
    // Mark a source segment clean only if nothing was written into it during
    // this pass: a source emptied early in the pass may already have been
    // recycled as the cleaner's own output segment, and marking it clean
    // again would discard the freshly migrated live data. Quarantined
    // sources are no longer kDirty, so they naturally stay quarantined.
    const bool untouched_since = usage_.Get(seg).state == SegState::kDirty &&
                                 usage_.write_seq(seg) < pass_start_seq;
    if (!plan.partial) {
      if (untouched_since) {
        usage_.SetState(seg, SegState::kClean);
      }
      if (!plan.quarantined) {
        reclaimed++;
        if (plan.live_before > 0) {
          stats_.full_compactions++;
          stats_.segments_cleaned_by_policy[static_cast<size_t>(plan.policy)]++;
          stats_.copy_bytes_by_policy[static_cast<size_t>(plan.policy)] +=
              plan.live_before;
        }
      }
      continue;
    }
    // Partial victim: account the drain, and reclaim it only if this pass's
    // slice emptied it (the deferred metadata debits from FlushDirtyDataInner
    // above have already landed, so live_bytes is exact here). A victim that
    // still holds live bytes stays kDirty — with its compact cursor advanced —
    // and remains selectable; a drained-but-rewritten victim is harvested by
    // the zero-live sweep at the next checkpoint instead.
    if (plan.quarantined) {
      continue;
    }
    stats_.partial_compactions++;
    stats_.partial_blocks_moved += plan.blocks_moved;
    stats_.copy_bytes_by_policy[static_cast<size_t>(plan.policy)] +=
        plan.blocks_moved * bs;
    if (untouched_since && usage_.Get(seg).live_bytes == 0) {
      usage_.SetState(seg, SegState::kClean);
      stats_.segments_cleaned++;
      stats_.segments_cleaned_by_policy[static_cast<size_t>(plan.policy)]++;
      stats_.sum_cleaned_utilization += plan.u_before;
      reclaimed++;
    }
  }
  // Charge the bucket with what this pass actually moved (summary + live
  // reads, migrated writes). Charging after the fact rather than reserving
  // up front keeps the mechanism simple; the deficit carries the error.
  if (qos_.enabled()) {
    uint64_t moved_bytes = qos_reads.delta() + qos_writes.delta();
    qos_.Charge(moved_bytes);
    stats_.qos_charged_bytes += moved_bytes;
  }
  LFS_TRACE(obs_.tracer(), obs::TraceEventType::kCleanerPassEnd, obs::OpType::kCleanerPass,
            clock_.Now(), reclaimed, live_blocks.size(), device_->ModeledTime());
  return cleanup(Result<uint32_t>(reclaimed));
}

uint32_t LfsFileSystem::EffectiveCleanLo() const {
  uint32_t cap = std::max<uint32_t>(2, sb_.nsegments / 16);
  return std::min(cfg_.clean_lo, cap);
}

uint32_t LfsFileSystem::EffectiveCleanHi() const {
  uint32_t cap = std::max<uint32_t>(EffectiveCleanLo() + 2, sb_.nsegments / 8);
  return std::min(cfg_.clean_hi, cap);
}

Status LfsFileSystem::MaybeClean() {
  if (debug_cleaner_) {
    fprintf(stderr, "[MaybeClean] in_cleaner=%d usable=%u lo=%u clean=%u zero_dirty=%u\n",
            (int)in_cleaner_, writer_.usable_clean_segments(), EffectiveCleanLo(),
            usage_.clean_count(), usage_.zero_live_dirty_count());
  }
  if (in_cleaner_ || writer_.usable_clean_segments() >= EffectiveCleanLo()) {
    return OkStatus();
  }
  // With a background cleaner running, the foreground write path only cleans
  // synchronously once clean segments fall to the critical floor; above it,
  // wake the cleaner thread and keep going (it will grab the exclusive lock
  // as soon as this operation releases it).
  if (cleaner_running_.load(std::memory_order_relaxed) &&
      std::this_thread::get_id() != cleaner_thread_.get_id() &&
      writer_.usable_clean_segments() >= CriticalCleanFloor()) {
    KickCleaner();
    return OkStatus();
  }
  // Harvest first: segments whose data has entirely died since the last
  // checkpoint can be reclaimed for free (no copying) once a checkpoint
  // advances the roll-forward boundary. A checkpoint costs a few blocks;
  // cleaning a half-live segment costs megabytes of copying — so when dead
  // segments exist, checkpoint before reaching for the expensive ones. The
  // incrementally maintained zero-live count makes this an O(1) check
  // (discounting the current segment, which is never harvestable).
  bool checkpointed = false;
  if (!in_checkpoint_ && !in_recovery_) {
    uint32_t harvestable = usage_.zero_live_dirty_count();
    for (uint32_t log = 0; log < writer_.num_logs(); log++) {
      SegNo seg = writer_.log_segment(log);
      if (seg == kNilSeg) {
        continue;
      }
      const SegUsageEntry& cur = usage_.Get(seg);
      if (cur.state == SegState::kDirty && cur.live_bytes == 0) {
        harvestable--;
      }
    }
    if (harvestable > 0) {
      checkpointed = true;
      LFS_RETURN_IF_ERROR(LightCheckpointImpl());
    }
    if (writer_.usable_clean_segments() >= EffectiveCleanLo()) {
      return OkStatus();
    }
  }
  // Clean until the high-water mark of clean segments is restored
  // (Section 3.4: start at a few tens, stop at 50-100).
  bool reclaimed_any = false;
  while (writer_.usable_clean_segments() < EffectiveCleanHi()) {
    LFS_ASSIGN_OR_RETURN(uint32_t reclaimed, CleanerPass());
    reclaimed_any = reclaimed_any || reclaimed > 0;
    if (reclaimed == 0) {
      if (debug_cleaner_) {
        uint32_t dirty_pre = 0, dirty_post = 0, zero = 0;
        for (SegNo seg = 0; seg < sb_.nsegments; seg++) {
          const SegUsageEntry& e = usage_.Get(seg);
          if (e.state != SegState::kDirty) continue;
          if (e.live_bytes == 0) zero++;
          if (usage_.write_seq(seg) >= ckpt_boundary_seq_) dirty_post++; else dirty_pre++;
        }
        fprintf(stderr, "[cleaner stuck] clean=%u usable=%u dirty_pre=%u dirty_post=%u zero=%u util=%.3f ckpted=%d\n",
                usage_.clean_count(), writer_.usable_clean_segments(), dirty_pre, dirty_post,
                zero, usage_.DiskUtilization(), (int)checkpointed);
      }
      // Segments written since the last checkpoint are off-limits to the
      // cleaner (they are the roll-forward tail). If that is all that is
      // left, take a checkpoint to advance the boundary and retry once.
      if (!checkpointed && !in_checkpoint_ && !in_recovery_) {
        checkpointed = true;
        LFS_RETURN_IF_ERROR(LightCheckpointImpl());
        continue;
      }
      break;  // nothing cleanable right now; let the writer use what exists
    }
  }
  // Checkpoint after a cleaning burst: it makes the reclaimed segments
  // durable as clean and keeps the recovery scan filter sound (post-
  // checkpoint writes only ever land in checkpoint-clean segments or the
  // active segment).
  if (reclaimed_any && !in_checkpoint_ && !in_recovery_) {
    LFS_RETURN_IF_ERROR(LightCheckpointImpl());
  }
  return OkStatus();
}

// --- background cleaner thread (cfg_.concurrent) -------------------------------
//
// The paper ran the Sprite LFS cleaner "in the background when the disk is
// idle"; here the thread sleeps until a foreground flush notices the clean
// pool dropping below the low watermark and kicks it. All actual cleaning
// runs under the exclusive fs lock, so the thread is a scheduler, not a new
// concurrency domain: the segment writer, usage table, and inode map see
// exactly one cleaner at a time.

uint32_t LfsFileSystem::CriticalCleanFloor() const {
  return std::max<uint32_t>(2, EffectiveCleanLo() / 2);
}

void LfsFileSystem::StartCleanerThread() {
  if (cleaner_running_.load()) {
    return;
  }
  cleaner_stop_ = false;
  cleaner_kick_ = false;
  cleaner_thread_ = std::thread([this] { CleanerThreadMain(); });
  cleaner_running_.store(true);
}

void LfsFileSystem::StopCleanerThread() {
  if (!cleaner_running_.exchange(false)) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(cleaner_mu_);
    cleaner_stop_ = true;
  }
  cleaner_cv_.notify_one();
  cleaner_thread_.join();
}

void LfsFileSystem::KickCleaner() {
  if (!cleaner_running_.load(std::memory_order_relaxed)) {
    return;
  }
  // cleaner_mu_ is only ever held momentarily here and around the condition
  // flags in CleanerThreadMain — never while fs_mu_ is being acquired — so
  // kicking from under the exclusive fs lock cannot deadlock.
  {
    std::lock_guard<std::mutex> lock(cleaner_mu_);
    cleaner_kick_ = true;
  }
  cleaner_cv_.notify_one();
}

void LfsFileSystem::CleanerThreadMain() {
  std::unique_lock<std::mutex> lk(cleaner_mu_);
  for (;;) {
    cleaner_cv_.wait(lk, [this] { return cleaner_stop_ || cleaner_kick_; });
    if (cleaner_stop_) {
      return;
    }
    cleaner_kick_ = false;
    lk.unlock();  // released before fs_mu_: see the lock-order note in lfs.h
    {
      // Enter through the transaction gate so the pass never interleaves
      // with a half-staged batch (and cannot be starved by shared holders).
      ExclusiveSection sec(this);
      if (!read_only_ && !degraded_ &&
          writer_.usable_clean_segments() < EffectiveCleanLo()) {
        // Failures flip the filesystem into degraded read-only inside the
        // cleaning machinery itself; there is no caller to report to here.
        Status st = MaybeClean();
        if (!st.ok() && debug_cleaner_) {
          fprintf(stderr, "[cleaner thread] MaybeClean: %s\n",
                  st.ToString().c_str());
        }
      }
    }
    lk.lock();
  }
}

}  // namespace lfs
