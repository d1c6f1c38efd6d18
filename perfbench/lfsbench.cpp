// lfsbench: the repository's wall-clock benchmark.
//
//   lfsbench --workload <smallfile|hotcold|mt_mixed> --seed N --seconds S
//            --trace <0|1>
//
// Every workload drives LfsFileSystem through its public FileSystem API over
// one device stack:
//
//   LfsFileSystem -> cache::CachedBlockDevice (16,384 blocks, write-back)
//                 -> SimDisk (Wren IV model) -> MemDisk
//
// Clients run a closed loop (the next op is issued when the last returns).
// Every read is checked against versioned contents tagged with file, block
// and version. Each run ends with a crash: the filesystem and the block
// cache are dropped without flushing, so the MemDisk platter keeps only what
// reached it. The platter is then mounted with roll-forward, checked for
// everything synced before the crash, unmounted and checked with
// CheckLfsImage. Failed ops, wrong contents and checker findings all count
// in "failed".
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// installs timing shims above and below the block cache, runs half the
// window with them idle and half with them recording spans, prints the
// per-layer metrics and the tracing overhead, and writes every span to
// spans-<workload>.tsv in the current directory. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/trace_shim.h"
#include "src/cache/cached_device.h"
#include "src/disk/mem_disk.h"
#include "src/disk/sim_disk.h"
#include "src/lfs/check.h"
#include "src/lfs/lfs.h"

namespace perfbench {
namespace {

using lfs::BlockDevice;
using lfs::BlockNo;
using lfs::InodeNum;
using lfs::LfsConfig;
using lfs::LfsFileSystem;
using lfs::Status;

constexpr uint32_t kBlockSize = 4096;
constexpr uint64_t kMiB = 1024 * 1024;
constexpr uint64_t kCacheBlocks = 16384;  // 64 MB block cache
constexpr int kWindows = 20;              // windows of a measured phase
constexpr int kSetups = 5;                // set-ups per untraced run (median)
constexpr int kRecoveryMounts = 5;        // crash-image mounts (median)

// ---------------------------------------------------------------------------
// Deterministic inputs

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Key(uint64_t seed, uint64_t a, uint64_t b, uint64_t c) {
  return Mix64(seed ^ Mix64(a ^ Mix64(b ^ Mix64(c))));
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() { return Mix64(s_++); }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t s_;
};

// Every block written starts with this tag; the rest is a keyed stream.
struct Tag {
  uint32_t magic = 0;
  uint32_t file = 0;
  uint32_t block = 0;
  uint32_t version = 0;
};
constexpr uint32_t kTagMagic = 0x4253464c;  // "LFSB"

// The contents of version `version` of block `block` of file `file`,
// truncated to out.size() (at most one block).
void FillBlock(std::span<uint8_t> out, uint64_t seed, uint32_t file, uint32_t block,
               uint32_t version) {
  uint8_t buf[kBlockSize];
  Tag tag{kTagMagic, file, block, version};
  std::memcpy(buf, &tag, sizeof(tag));
  uint64_t s = Key(seed, file, block, version);
  for (size_t i = sizeof(tag); i < kBlockSize; i += 8) {
    uint64_t z = Mix64(s++);
    std::memcpy(buf + i, &z, 8);
  }
  std::memcpy(out.data(), buf, std::min<size_t>(out.size(), kBlockSize));
}

Tag ReadTag(std::span<const uint8_t> data) {
  Tag tag;
  if (data.size() >= sizeof(tag)) {
    std::memcpy(&tag, data.data(), sizeof(tag));
  }
  return tag;
}

bool BlockMatches(std::span<const uint8_t> got, uint64_t seed, uint32_t file, uint32_t block,
                  uint32_t version) {
  uint8_t want[kBlockSize];
  FillBlock(std::span<uint8_t>(want, got.size()), seed, file, block, version);
  return std::memcmp(want, got.data(), got.size()) == 0;
}

// ---------------------------------------------------------------------------
// Device stack

// Forwards to a device owned elsewhere (the crash image under recovery).
class BorrowedDevice : public BlockDevice {
 public:
  explicit BorrowedDevice(BlockDevice* inner) : inner_(inner) {}
  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t block_count() const override { return inner_->block_count(); }
  Status Read(BlockNo block, uint64_t count, std::span<uint8_t> out) override {
    return inner_->Read(block, count, out);
  }
  Status Write(BlockNo block, uint64_t count, std::span<const uint8_t> data) override {
    return inner_->Write(block, count, data);
  }
  Status Flush() override { return inner_->Flush(); }
  Status Trim(BlockNo block, uint64_t count) override { return inner_->Trim(block, count); }

 private:
  BlockDevice* inner_;
};

// Members are declared bottom-up, so destruction runs top-down: the
// filesystem (and its background cleaner) goes first.
struct Stack {
  std::unique_ptr<lfs::SimDisk> sim;
  std::unique_ptr<TimingShim> disk_shim;  // traced runs only
  std::unique_ptr<lfs::cache::CachedBlockDevice> cache;
  std::unique_ptr<TimingShim> cache_shim;  // traced runs only
  std::unique_ptr<LfsFileSystem> fs;

  BlockDevice* top() const {
    return cache_shim ? static_cast<BlockDevice*>(cache_shim.get()) : cache.get();
  }
  lfs::MemDisk* platter() const { return static_cast<lfs::MemDisk*>(sim->backing()); }
};

// `traced` installs the two timing shims; they record into `log` (or keep
// totals only when log is null).
std::unique_ptr<Stack> BuildStack(std::unique_ptr<BlockDevice> platter, bool traced,
                                  SpanLog* log) {
  auto s = std::make_unique<Stack>();
  s->sim = std::make_unique<lfs::SimDisk>(std::move(platter), lfs::DiskModelParams::WrenIV());
  BlockDevice* below_cache = s->sim.get();
  if (traced) {
    s->disk_shim = std::make_unique<TimingShim>(s->sim.get(), Layer::kDisk, log);
    below_cache = s->disk_shim.get();
  }
  lfs::cache::CachedDeviceOptions opts;
  opts.capacity_blocks = kCacheBlocks;
  s->cache = std::make_unique<lfs::cache::CachedBlockDevice>(below_cache, opts);
  if (traced) {
    s->cache_shim = std::make_unique<TimingShim>(s->cache.get(), Layer::kCache, log);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Clients, counters and latency windows

enum class FsOp : uint8_t { kCreate, kUnlink, kLookup, kStat, kReadDir, kRead, kWrite, kSync };
constexpr int kNumFsOps = 8;
const char* const kFsOpNames[kNumFsOps] = {"create", "unlink",  "lookup", "stat",
                                           "readdir", "read", "write",  "sync"};

// Wall latencies (ns, saturating at 2^32-1; a failed op reads 2^32-1) that
// ended in one window: whole client ops of the mix, the ReadAt and WriteAt
// calls inside them, and Syncs.
struct Window {
  std::vector<uint32_t> mix;
  std::vector<uint32_t> read;
  std::vector<uint32_t> write;
  std::vector<uint32_t> sync;
  uint64_t ops = 0;  // client ops that succeeded: the mix and Syncs
  double steal = 0;  // share of the machine's CPU time the host took
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// CPU time of the whole machine, in clock ticks, from /proc/stat: the total
// and the part a virtualising host spent running something else while this
// machine's processors had work ("steal"). Zero where it cannot be read.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return t;
  }
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2], &v[3],
                  &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) {
      t.total += x;
    }
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

struct Client {
  explicit Client(int client_id, uint64_t seed) : id(client_id), rng(seed) {}

  int id;
  Rng rng;
  uint64_t ops_since_sync = 0;
  uint64_t ops_ok = 0;  // client ops that succeeded, windowed or not
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;

  // Current measured phase (windows == nullptr while warming up).
  std::vector<Window>* windows = nullptr;
  int64_t phase_start = 0;
  int64_t phase_end = 0;

  // Traced-phase accounting.
  uint64_t op_seq = 0;
  int64_t fs_ns = 0;    // time inside FileSystem calls
  int64_t loop_ns = 0;  // time in the client loop
  uint64_t stalled_ops = 0;
  int64_t stall_ns = 0;
};

// Outcome counts shared by every client and check.
struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed_ops{0};   // an op returned an error
  std::atomic<uint64_t> mismatches{0};   // a read returned wrong contents
  std::atomic<uint64_t> durability{0};   // post-crash state older than the last Sync
  std::atomic<uint64_t> findings{0};     // CheckLfsImage errors and warnings
  std::atomic<uint64_t> first_errors{0};

  uint64_t failed() const {
    return failed_ops.load() + mismatches.load() + durability.load() + findings.load();
  }
  // Prints the first few failures to stderr.
  void Note(const char* what, const std::string& detail) {
    if (first_errors.fetch_add(1) < 10) {
      std::fprintf(stderr, "lfsbench: %s: %s\n", what, detail.c_str());
    }
  }
};

class Harness;

// A workload: its device geometry, population, op mix and checks.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual uint64_t disk_bytes() const = 0;
  virtual uint32_t max_inodes() const = 0;
  virtual bool concurrent() const { return false; }
  virtual int threads() const { return 1; }
  virtual uint64_t sync_every() const = 0;
  virtual uint64_t warmup_ops_per_thread() const = 0;
  // Ops each client runs at the start of a measured phase before its clock
  // starts; default none.
  virtual uint64_t settle_ops_per_thread() const { return 0; }

  // Resets the expected state and writes the initial population.
  virtual void Populate(Harness& h, Client& c) = 0;
  // Issues one op of the mix.
  virtual void Op(Harness& h, Client& c) = 0;
  // Called after client `c`'s Sync returned OK.
  virtual void OnSynced(Client& c) = 0;
  // Checks a recovered filesystem against the expected state.
  virtual void Verify(Harness& h, LfsFileSystem& fs) = 0;
  // Bytes of file contents the clients believe are live.
  virtual uint64_t live_logical_bytes() const = 0;
  // Warm-up that is not a run of the op mix (cache fill); default none.
  virtual void Prime(Harness&, Client&) {}
};

// Counters at a phase boundary.
struct PhaseMark {
  lfs::DiskStats disk;
  lfs::LfsStats lfs;
  lfs::cache::BlockCacheStats cache;
  uint64_t live_bytes = 0;
};

class Harness {
 public:
  Harness(Workload* w, uint64_t seed, bool traced) : w_(w), traced_(traced) {
    for (int i = 0; i < w->threads(); i++) {
      clients_.push_back(std::make_unique<Client>(i, Key(seed, 0xc11e, i, 0)));
    }
  }

  Tally& tally() { return tally_; }
  SpanLog& log() { return log_; }
  Stack& stack() { return *stack_; }
  LfsFileSystem& fs() { return *stack_->fs; }
  std::vector<std::unique_ptr<Client>>& clients() { return clients_; }

  LfsConfig Config() const {
    LfsConfig cfg;
    cfg.max_inodes = w_->max_inodes();
    cfg.concurrent = w_->concurrent();
    return cfg;
  }

  // Wraps one FileSystem call. In a measured phase it samples the latency of
  // ReadAt and WriteAt calls; in a traced phase it records the call's lfs
  // span and whether a cleaning pass ran during it.
  template <typename F>
  auto Call(Client& c, FsOp op, F&& call) -> decltype(call()) {
    const bool traced = log_.enabled();
    uint64_t passes = 0;
    if (traced) {
      passes = stack_->fs->stats().cleaner_passes;
      tl_current_op = (uint64_t(c.id + 1) << 48) | ++c.op_seq;
    }
    int64_t start = NowNs();
    auto result = call();
    int64_t end = NowNs();
    if (op == FsOp::kRead) {
      Sample(c, &Window::read, start, end, result.ok());
    } else if (op == FsOp::kWrite) {
      Sample(c, &Window::write, start, end, result.ok());
    }
    if (traced) {
      log_.Record(Span{start, end, tl_current_op, 0, Layer::kLfs, static_cast<uint8_t>(op)});
      tl_current_op = 0;
      c.fs_ns += end - start;
      if (stack_->fs->stats().cleaner_passes != passes) {
        c.stalled_ops++;
        c.stall_ns += end - start;
      }
    }
    return result;
  }

  // Books one op of the mix that ran from `start` to `end`; `ok` is false if
  // it failed or read back wrong contents. Only ops that succeeded count in
  // ops_per_s, so ops that fail fast never read as a speed-up.
  void OpDone(Client& c, int64_t start, int64_t end, bool ok) {
    tally_.attempted.fetch_add(1, std::memory_order_relaxed);
    Window* win = Sample(c, &Window::mix, start, end, ok);
    if (ok) {
      c.ops_ok++;
      if (win != nullptr) {
        win->ops++;
      }
    }
  }

  bool Check(const Status& st, const char* what) {
    if (st.ok()) {
      return true;
    }
    tally_.failed_ops.fetch_add(1, std::memory_order_relaxed);
    tally_.Note(what, st.ToString());
    return false;
  }

  void Mismatch(const std::string& detail) {
    tally_.mismatches.fetch_add(1, std::memory_order_relaxed);
    tally_.Note("content mismatch", detail);
  }

  // One step of a client loop: an op of the mix, then Sync on schedule.
  void Step(Client& c) {
    w_->Op(*this, c);
    if (++c.ops_since_sync >= w_->sync_every()) {
      DoSync(c);
    }
  }

  void DoSync(Client& c) {
    c.ops_since_sync = 0;
    int64_t start = NowNs();
    Status st = Call(c, FsOp::kSync, [&] { return fs().Sync(); });
    int64_t end = NowNs();
    tally_.attempted.fetch_add(1, std::memory_order_relaxed);
    Window* win = Sample(c, &Window::sync, start, end, st.ok());
    if (Check(st, "Sync")) {
      c.ops_ok++;
      if (win != nullptr) {
        win->ops++;
      }
      w_->OnSynced(c);
    }
  }

  // Builds a fresh stack, formats it and writes the population. Returns the
  // wall seconds this took.
  double Setup() {
    int64_t start = NowNs();
    stack_.reset();  // first, so two platters never coexist in peak_rss_mb
    stack_ = BuildStack(std::make_unique<lfs::MemDisk>(kBlockSize, w_->disk_bytes() / kBlockSize),
                        traced_, &log_);
    auto fs = LfsFileSystem::Mkfs(stack_->top(), Config());
    Must(fs.ok() ? Status() : fs.status(), "Mkfs");
    stack_->fs = std::move(fs).value();
    Client& c = *clients_[0];
    w_->Populate(*this, c);
    DoSync(c);
    for (auto& other : clients_) {
      other->ops_since_sync = 0;
    }
    return double(NowNs() - start) * 1e-9;
  }

  void WarmUp() {
    RunThreads([&](Client& c) {
      w_->Prime(*this, c);
      for (uint64_t i = 0; i < w_->warmup_ops_per_thread(); i++) {
        Step(c);
      }
    });
  }

  // Marks the start of a measured phase. SimDisk counters may be read only
  // while no background cleaner runs: the serial regime has none, and a
  // concurrent filesystem is unmounted, read, and mounted again.
  PhaseMark BeginPhase() {
    PhaseMark mark;
    if (w_->concurrent()) {
      Check(fs().Unmount(), "Unmount");
      stack_->fs.reset();
      mark.disk = stack_->sim->stats();
      auto fs = LfsFileSystem::Mount(stack_->top(), Config());
      Must(fs.ok() ? Status() : fs.status(), "Mount");
      stack_->fs = std::move(fs).value();
    } else {
      mark.disk = stack_->sim->stats();
    }
    mark.lfs = fs().stats();
    mark.cache = stack_->cache->cache().stats();
    return mark;
  }

  // Runs every client for `seconds`, split into `nwin` latency windows,
  // after the workload's settle ops. Each window also records the share of
  // CPU time the host took from the machine while it ran.
  std::vector<Window> RunPhase(double seconds, int nwin) {
    if (w_->settle_ops_per_thread() > 0) {
      RunThreads([&](Client& c) {
        int64_t loop_start = NowNs();
        for (uint64_t i = 0; i < w_->settle_ops_per_thread(); i++) {
          Step(c);
        }
        c.loop_ns += NowNs() - loop_start;
      });
    }
    std::vector<std::vector<Window>> per_client(clients_.size(),
                                                std::vector<Window>(size_t(nwin)));
    int64_t start = NowNs();
    int64_t end = start + int64_t(seconds * 1e9);
    for (size_t i = 0; i < clients_.size(); i++) {
      clients_[i]->windows = &per_client[i];
      clients_[i]->phase_start = start;
      clients_[i]->phase_end = end;
    }
    std::vector<CpuTicks> ticks(static_cast<size_t>(nwin) + 1);
    std::thread sampler([&] {
      for (int k = 0; k <= nwin; k++) {
        int64_t at = start + (end - start) * k / nwin;
        while (NowNs() < at) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ticks[size_t(k)] = ReadCpuTicks();
      }
    });
    RunThreads([&](Client& c) {
      int64_t loop_start = NowNs();
      int64_t now = loop_start;
      while (now < c.phase_end) {
        Step(c);
        now = NowNs();
      }
      c.loop_ns += now - loop_start;
    });
    sampler.join();
    std::vector<Window> merged(static_cast<size_t>(nwin));
    for (auto& client : clients_) {
      client->windows = nullptr;
    }
    for (size_t k = 0; k < merged.size(); k++) {
      merged[k].steal = Ratio(double(ticks[k + 1].steal - ticks[k].steal),
                              double(ticks[k + 1].total - ticks[k].total));
    }
    for (auto& pc : per_client) {
      for (size_t k = 0; k < pc.size(); k++) {
        auto append = [](std::vector<uint32_t>& to, const std::vector<uint32_t>& from) {
          to.insert(to.end(), from.begin(), from.end());
        };
        append(merged[k].mix, pc[k].mix);
        append(merged[k].read, pc[k].read);
        append(merged[k].write, pc[k].write);
        append(merged[k].sync, pc[k].sync);
        merged[k].ops += pc[k].ops;
      }
    }
    return merged;
  }

  // Ends a measured phase. The counters are read while no background
  // cleaner can run: the serial regime has none, and a concurrent mount is
  // crashed here (its crash point is the end of the phase).
  PhaseMark EndPhase() {
    PhaseMark out;
    out.lfs = fs().stats();
    out.cache = stack_->cache->cache().stats();
    out.live_bytes = fs().StatFs().live_bytes;
    if (w_->concurrent()) {
      stack_->fs.reset();
    }
    out.disk = stack_->sim->stats();
    return out;
  }

  // Drops the filesystem (its buffered state is lost) and the block cache
  // (its dirty frames are lost) without flushing anything: the platter is
  // left holding the crash image.
  lfs::MemDisk* Crash() {
    stack_->fs.reset();
    stack_->cache_shim.reset();
    stack_->cache.reset();
    stack_->disk_shim.reset();
    return stack_->platter();
  }

  // Set-up steps the benchmark cannot go on without.
  static void Must(const Status& st, const char* what) {
    if (!st.ok()) {
      std::fprintf(stderr, "lfsbench: %s failed: %s\n", what, st.ToString().c_str());
      std::exit(1);
    }
  }

 private:
  // Adds a latency to the window of the current phase the op ended in. A
  // failed op counts as missing any latency limit: its sample is the largest
  // value. Returns that window, or null outside a measured phase.
  Window* Sample(Client& c, std::vector<uint32_t> Window::*series, int64_t start, int64_t end,
                 bool ok) {
    if (c.windows == nullptr) {
      return nullptr;
    }
    int64_t span = c.phase_end - c.phase_start;
    int64_t idx = span > 0 ? (end - c.phase_start) * int64_t(c.windows->size()) / span : 0;
    Window& win = (*c.windows)[std::clamp<int64_t>(idx, 0, int64_t(c.windows->size()) - 1)];
    (win.*series).push_back(
        ok ? static_cast<uint32_t>(std::min<int64_t>(end - start, UINT32_MAX)) : UINT32_MAX);
    return &win;
  }

  template <typename F>
  void RunThreads(F&& body) {
    std::vector<std::thread> threads;
    for (auto& client : clients_) {
      Client* c = client.get();
      threads.emplace_back([this, c, &body] {
        log_.MarkClientThread();
        body(*c);
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }

  Workload* w_;
  bool traced_;
  Tally tally_;
  SpanLog log_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::unique_ptr<Stack> stack_;
};

// ---------------------------------------------------------------------------
// smallfile: the paper's small-file benchmark (Fig. 8, Table 3) as churn.

class SmallFile : public Workload {
 public:
  static constexpr uint32_t kFiles = 40000;
  static constexpr uint32_t kDirs = 64;

  explicit SmallFile(uint64_t seed) : seed_(seed) {}

  uint64_t disk_bytes() const override { return 512 * kMiB; }
  uint32_t max_inodes() const override { return 65536; }
  uint64_t sync_every() const override { return 1000; }
  uint64_t warmup_ops_per_thread() const override { return 2 * kFiles; }

  void Populate(Harness& h, Client& c) override {
    version_.assign(kFiles, 0);
    synced_.assign(kFiles, 0);
    broken_.assign(kFiles, 0);
    broken_in_dir_.assign(kDirs, 0);
    for (uint32_t d = 0; d < kDirs; d++) {
      char path[32];
      std::snprintf(path, sizeof(path), "/d%02u", d);
      Harness::Must(h.fs().Mkdir(path), "Mkdir");
    }
    for (uint32_t f = 0; f < kFiles; f++) {
      h.tally().attempted.fetch_add(1, std::memory_order_relaxed);
      if (!Write(h, c, f, 1, Unlink::kNo)) {
        MarkBroken(f);
      }
    }
  }

  void Op(Harness& h, Client& c) override {
    uint64_t roll = c.rng.Below(100);
    uint32_t f = static_cast<uint32_t>(c.rng.Below(kFiles));
    std::string path = Path(f);
    int64_t start = NowNs();
    if (broken_[f]) {
      // A file left in an unknown state by an earlier failure is rewritten.
      bool ok = Write(h, c, f, version_[f] + 1, Unlink::kIfExists);
      h.OpDone(c, start, NowNs(), ok);
      if (ok) {
        broken_[f] = 0;
        broken_in_dir_[f % kDirs]--;
      }
      return;
    }
    if (roll < 40) {  // lookup + whole-file read
      auto ino = h.Call(c, FsOp::kLookup, [&] { return h.fs().Lookup(path); });
      lfs::Result<uint64_t> n = lfs::Result<uint64_t>(uint64_t{0});
      if (ino.ok()) {
        n = h.Call(c, FsOp::kRead, [&] { return h.fs().ReadAt(*ino, 0, buf_); });
      }
      int64_t end = NowNs();
      if (!h.Check(ino.ok() ? n.status() : ino.status(), "lookup+read")) {
        h.OpDone(c, start, end, false);
        MarkBroken(f);
        return;
      }
      c.bytes_read += *n;
      bool ok = Matches(f, version_[f], std::span<const uint8_t>(buf_, *n));
      h.OpDone(c, start, end, ok);
      if (!ok) {
        h.Mismatch(path + " read back wrong contents");
        MarkBroken(f);
      }
    } else if (roll < 80) {  // unlink + recreate with new contents
      bool ok = Write(h, c, f, version_[f] + 1, Unlink::kYes);
      h.OpDone(c, start, NowNs(), ok);
      if (!ok) {
        MarkBroken(f);
      }
    } else if (roll < 95) {  // stat by path
      auto ino = h.Call(c, FsOp::kLookup, [&] { return h.fs().Lookup(path); });
      lfs::Result<lfs::FileStat> st = lfs::Result<lfs::FileStat>(lfs::FileStat{});
      if (ino.ok()) {
        st = h.Call(c, FsOp::kStat, [&] { return h.fs().Stat(*ino); });
      }
      int64_t end = NowNs();
      if (!h.Check(ino.ok() ? st.status() : ino.status(), "lookup+stat")) {
        h.OpDone(c, start, end, false);
        MarkBroken(f);
        return;
      }
      bool ok = st->type == lfs::FileType::kRegular && st->size == Size(f, version_[f]);
      h.OpDone(c, start, end, ok);
      if (!ok) {
        h.Mismatch(path + " stat reports the wrong size");
        MarkBroken(f);
      }
    } else {  // readdir
      uint32_t d = f % kDirs;
      char dir[32];
      std::snprintf(dir, sizeof(dir), "/d%02u", d);
      auto entries = h.Call(c, FsOp::kReadDir, [&] { return h.fs().ReadDir(dir); });
      int64_t end = NowNs();
      if (!h.Check(entries.ok() ? Status() : entries.status(), "ReadDir")) {
        h.OpDone(c, start, end, false);
        return;
      }
      uint32_t expect = kFiles / kDirs + (d < kFiles % kDirs ? 1 : 0);
      bool ok = broken_in_dir_[d] != 0 || entries->size() == expect;
      h.OpDone(c, start, end, ok);
      if (!ok) {
        h.Mismatch(std::string(dir) + " lists " + std::to_string(entries->size()) +
                   " entries, expected " + std::to_string(expect));
      }
    }
  }

  void OnSynced(Client&) override { synced_ = version_; }

  void Verify(Harness& h, LfsFileSystem& fs) override {
    Tally& t = h.tally();
    for (uint32_t f = 0; f < kFiles; f++) {
      if (broken_[f]) {
        continue;
      }
      t.attempted.fetch_add(1, std::memory_order_relaxed);
      std::string path = Path(f);
      auto ino = fs.Lookup(path);
      if (!ino.ok()) {
        // Gone is a legal crash state only if the file was unlinked after
        // the last Sync.
        if (version_[f] == synced_[f]) {
          t.durability.fetch_add(1);
          t.Note("lost after crash", path + ": " + ino.status().ToString());
        }
        continue;
      }
      auto n = fs.ReadAt(*ino, 0, buf_);
      std::span<const uint8_t> got(buf_, n.ok() ? *n : 0);
      uint32_t v = ReadTag(got).version;
      if (!n.ok() || v < synced_[f] || v > version_[f] || !Matches(f, v, got)) {
        t.durability.fetch_add(1);
        t.Note("bad after crash", path + " version " + std::to_string(v) + ", synced " +
                                      std::to_string(synced_[f]));
      }
    }
  }

  uint64_t live_logical_bytes() const override {
    uint64_t total = 0;
    for (uint32_t f = 0; f < kFiles; f++) {
      total += Size(f, version_[f]);
    }
    return total;
  }

 private:
  static std::string Path(uint32_t f) {
    char path[32];
    std::snprintf(path, sizeof(path), "/d%02u/f%05u", f % kDirs, f);
    return path;
  }

  // 1 to 8 KB, fixed by (seed, file, version).
  uint64_t Size(uint32_t f, uint32_t v) const {
    return 1024 * (1 + Key(seed_, f, v, 0x512e) % 8);
  }

  void Contents(uint32_t f, uint32_t v, std::span<uint8_t> out) const {
    for (uint32_t b = 0; size_t{b} * kBlockSize < out.size(); b++) {
      size_t off = size_t{b} * kBlockSize;
      FillBlock(out.subspan(off, std::min<size_t>(kBlockSize, out.size() - off)), seed_, f, b, v);
    }
  }

  bool Matches(uint32_t f, uint32_t v, std::span<const uint8_t> got) const {
    if (got.size() != Size(f, v)) {
      return false;
    }
    uint8_t want[2 * kBlockSize];
    Contents(f, v, std::span<uint8_t>(want, got.size()));
    return std::memcmp(want, got.data(), got.size()) == 0;
  }

  enum class Unlink { kNo, kYes, kIfExists };

  // (Unlink +) Create + WriteAt of version v. Returns false on any error.
  bool Write(Harness& h, Client& c, uint32_t f, uint32_t v, Unlink unlink) {
    std::string path = Path(f);
    uint64_t size = Size(f, v);
    uint8_t data[2 * kBlockSize];
    Contents(f, v, std::span<uint8_t>(data, size));
    version_[f] = v;
    if (unlink != Unlink::kNo) {
      Status st = h.Call(c, FsOp::kUnlink, [&] { return h.fs().Unlink(path); });
      if (unlink == Unlink::kYes && !h.Check(st, "Unlink")) {
        return false;
      }
    }
    auto ino = h.Call(c, FsOp::kCreate, [&] { return h.fs().Create(path); });
    if (!h.Check(ino.ok() ? Status() : ino.status(), "Create")) {
      return false;
    }
    Status st = h.Call(c, FsOp::kWrite, [&] {
      return h.fs().WriteAt(*ino, 0, std::span<const uint8_t>(data, size));
    });
    if (!h.Check(st, "WriteAt")) {
      return false;
    }
    c.bytes_written += size;
    return true;
  }

  void MarkBroken(uint32_t f) {
    if (!broken_[f]) {
      broken_[f] = 1;
      broken_in_dir_[f % kDirs]++;
    }
  }

  uint64_t seed_;
  std::vector<uint32_t> version_;  // latest version written per file
  std::vector<uint32_t> synced_;   // version as of the last Sync
  std::vector<uint8_t> broken_;    // state unknown after a failure
  std::vector<uint32_t> broken_in_dir_;
  uint8_t buf_[2 * kBlockSize] = {};
};

// ---------------------------------------------------------------------------
// hotcold and mt_mixed: block overwrites and reads of fixed-size files whose
// inode numbers the clients keep, so the op loop resolves no paths.

struct BlockFilesShape {
  uint64_t disk_bytes = 0;
  uint32_t max_inodes = 0;
  uint32_t files = 0;
  uint32_t file_blocks = 0;
  uint32_t dirs = 0;
  int threads = 1;
  bool concurrent = false;
  uint32_t read_pct = 0;    // share of ops that read a block
  uint32_t hot_files = 0;   // 0 = uniform; else the hottest files ...
  uint32_t hot_pct = 0;     // ... take this share of the ops
  bool own_writes = false;  // client c writes only files f with f % threads == c
  uint64_t sync_every = 0;
  uint64_t warmup_ops = 0;
  uint64_t settle_ops = 0;
  bool prime_reads = false;  // read every block once before warming up
};

class BlockFiles : public Workload {
 public:
  BlockFiles(uint64_t seed, const BlockFilesShape& shape)
      : seed_(seed),
        s_(shape),
        issued_(size_t{shape.files} * shape.file_blocks),
        completed_(size_t{shape.files} * shape.file_blocks),
        synced_(size_t{shape.files} * shape.file_blocks) {}

  uint64_t disk_bytes() const override { return s_.disk_bytes; }
  uint32_t max_inodes() const override { return s_.max_inodes; }
  bool concurrent() const override { return s_.concurrent; }
  int threads() const override { return s_.threads; }
  uint64_t sync_every() const override { return s_.sync_every; }
  uint64_t warmup_ops_per_thread() const override { return s_.warmup_ops; }
  uint64_t settle_ops_per_thread() const override { return s_.settle_ops; }

  void Populate(Harness& h, Client&) override {
    inos_.assign(s_.files, lfs::kNilInode);
    for (size_t i = 0; i < issued_.size(); i++) {
      issued_[i].store(1);
      completed_[i].store(1);
      synced_[i] = 1;
    }
    for (uint32_t d = 0; d < s_.dirs; d++) {
      Harness::Must(h.fs().Mkdir(DirPath(d)), "Mkdir");
    }
    std::vector<uint8_t> data(size_t{s_.file_blocks} * kBlockSize);
    for (uint32_t f = 0; f < s_.files; f++) {
      for (uint32_t b = 0; b < s_.file_blocks; b++) {
        FillBlock(std::span<uint8_t>(data).subspan(size_t{b} * kBlockSize, kBlockSize), seed_, f,
                  b, 1);
      }
      h.tally().attempted.fetch_add(1, std::memory_order_relaxed);
      auto ino = h.fs().Create(Path(f));
      Harness::Must(ino.ok() ? Status() : ino.status(), "Create");
      Harness::Must(h.fs().WriteAt(*ino, 0, data), "WriteAt");
      inos_[f] = *ino;
    }
  }

  void Prime(Harness& h, Client& c) override {
    if (!s_.prime_reads) {
      return;
    }
    std::vector<uint8_t> data(size_t{s_.file_blocks} * kBlockSize);
    for (uint32_t f = uint32_t(c.id); f < s_.files; f += uint32_t(s_.threads)) {
      int64_t start = NowNs();
      auto n = h.Call(c, FsOp::kRead, [&] { return h.fs().ReadAt(inos_[f], 0, data); });
      h.OpDone(c, start, NowNs(), h.Check(n.ok() ? Status() : n.status(), "ReadAt"));
    }
  }

  void Op(Harness& h, Client& c) override {
    bool read = c.rng.Below(100) < s_.read_pct;
    uint32_t f = PickFile(c, read);
    uint32_t b = static_cast<uint32_t>(c.rng.Below(s_.file_blocks));
    size_t i = size_t{f} * s_.file_blocks + b;
    uint64_t off = uint64_t{b} * kBlockSize;
    if (read) {
      uint32_t lo = completed_[i].load(std::memory_order_acquire);
      int64_t start = NowNs();
      auto n = h.Call(c, FsOp::kRead, [&] { return h.fs().ReadAt(inos_[f], off, buf_); });
      int64_t end = NowNs();
      uint32_t hi = issued_[i].load(std::memory_order_acquire);
      if (!h.Check(n.ok() ? Status() : n.status(), "ReadAt")) {
        h.OpDone(c, start, end, false);
        return;
      }
      c.bytes_read += *n;
      bool ok = Good(std::span<const uint8_t>(buf_, *n), f, b, lo, hi);
      h.OpDone(c, start, end, ok);
      if (!ok) {
        h.Mismatch(Path(f) + " block " + std::to_string(b) + " read back version " +
                   std::to_string(ReadTag(std::span<const uint8_t>(buf_, *n)).version) +
                   ", expected " + std::to_string(lo) + ".." + std::to_string(hi));
      }
      return;
    }
    uint32_t v = issued_[i].load(std::memory_order_relaxed) + 1;
    FillBlock(buf_, seed_, f, b, v);
    issued_[i].store(v, std::memory_order_release);
    int64_t start = NowNs();
    Status st = h.Call(c, FsOp::kWrite, [&] { return h.fs().WriteAt(inos_[f], off, buf_); });
    int64_t end = NowNs();
    bool ok = h.Check(st, "WriteAt");
    h.OpDone(c, start, end, ok);
    if (ok) {
      completed_[i].store(v, std::memory_order_release);
      c.bytes_written += kBlockSize;
    }
  }

  // Every write this client completed before its Sync is durable.
  void OnSynced(Client& c) override {
    for (uint32_t f = 0; f < s_.files; f++) {
      if (Owner(f) != c.id) {
        continue;
      }
      for (uint32_t b = 0; b < s_.file_blocks; b++) {
        size_t i = size_t{f} * s_.file_blocks + b;
        synced_[i] = completed_[i].load(std::memory_order_relaxed);
      }
    }
  }

  void Verify(Harness& h, LfsFileSystem& fs) override {
    Tally& t = h.tally();
    for (uint32_t f = 0; f < s_.files; f++) {
      auto ino = fs.Lookup(Path(f));
      for (uint32_t b = 0; b < s_.file_blocks; b++) {
        size_t i = size_t{f} * s_.file_blocks + b;
        t.attempted.fetch_add(1, std::memory_order_relaxed);
        lfs::Result<uint64_t> n = ino.ok() ? fs.ReadAt(*ino, uint64_t{b} * kBlockSize, buf_)
                                           : lfs::Result<uint64_t>(ino.status());
        std::span<const uint8_t> got(buf_, n.ok() ? *n : 0);
        if (!n.ok() || !Good(got, f, b, synced_[i], issued_[i].load())) {
          t.durability.fetch_add(1);
          t.Note("bad after crash",
                 Path(f) + " block " + std::to_string(b) + " version " +
                     std::to_string(ReadTag(got).version) + ", synced " +
                     std::to_string(synced_[i]) +
                     (n.ok() ? std::string() : ": " + n.status().ToString()));
        }
      }
    }
  }

  uint64_t live_logical_bytes() const override {
    return uint64_t{s_.files} * s_.file_blocks * kBlockSize;
  }

 private:
  std::string DirPath(uint32_t d) const {
    char path[32];
    std::snprintf(path, sizeof(path), "/h%02u", d);
    return path;
  }
  std::string Path(uint32_t f) const {
    char path[32];
    std::snprintf(path, sizeof(path), "/h%02u/f%05u", f % s_.dirs, f);
    return path;
  }
  int Owner(uint32_t f) const { return s_.own_writes ? int(f % uint32_t(s_.threads)) : 0; }

  uint32_t PickFile(Client& c, bool read) {
    if (s_.own_writes && !read) {
      uint32_t per = s_.files / uint32_t(s_.threads);
      return uint32_t(c.id) + uint32_t(s_.threads) * static_cast<uint32_t>(c.rng.Below(per));
    }
    if (s_.hot_files == 0) {
      return static_cast<uint32_t>(c.rng.Below(s_.files));
    }
    if (c.rng.Below(100) < s_.hot_pct) {
      return static_cast<uint32_t>(c.rng.Below(s_.hot_files));
    }
    return s_.hot_files + static_cast<uint32_t>(c.rng.Below(s_.files - s_.hot_files));
  }

  // A whole block of some version in [lo, hi] of block b of file f.
  bool Good(std::span<const uint8_t> got, uint32_t f, uint32_t b, uint32_t lo,
            uint32_t hi) const {
    Tag tag = ReadTag(got);
    return got.size() == kBlockSize && tag.magic == kTagMagic && tag.file == f &&
           tag.block == b && tag.version >= lo && tag.version <= hi &&
           BlockMatches(got, seed_, f, b, tag.version);
  }

  uint64_t seed_;
  BlockFilesShape s_;
  std::vector<InodeNum> inos_;
  // Per block: the newest version a writer has started writing, and the
  // newest whose write returned OK.
  std::vector<std::atomic<uint32_t>> issued_;
  std::vector<std::atomic<uint32_t>> completed_;
  std::vector<uint32_t> synced_;  // written by the block's owner only
  static thread_local uint8_t buf_[kBlockSize];
};

thread_local uint8_t BlockFiles::buf_[kBlockSize];

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "smallfile") {
    return std::make_unique<SmallFile>(seed);
  }
  BlockFilesShape s;
  if (name == "hotcold") {
    // 256 MB disk filled to 70% of its raw size with 64 KB files; 90% of
    // ops go to the hottest 10% of files; 75% overwrites, 25% reads.
    s.disk_bytes = 256 * kMiB;
    s.max_inodes = 8192;
    s.file_blocks = 16;
    s.files = static_cast<uint32_t>(s.disk_bytes * 7 / 10 / (s.file_blocks * kBlockSize));
    s.dirs = 16;
    s.read_pct = 25;
    s.hot_files = s.files / 10;
    s.hot_pct = 90;
    s.sync_every = 2000;
    // Overwrite at least twice the live data before measuring.
    s.warmup_ops = uint64_t{s.files} * s.file_blocks * 2 * 100 / (100 - s.read_pct) * 11 / 10;
    return std::make_unique<BlockFiles>(seed, s);
  }
  if (name == "mt_mixed") {
    // 3 clients on one concurrent mount; 1,024 files of 32 KB; 70% reads of
    // any file, 30% overwrites of the client's own files. Three clients
    // leave one of a 4-vCPU machine's processors to the background cleaner:
    // with four, the ReadAt/WriteAt p99.9 varied 1.5 to 2 times as much from
    // run to run, at the same ops/s.
    s.disk_bytes = 256 * kMiB;
    s.max_inodes = 4096;
    s.files = 1024;
    s.file_blocks = 8;
    s.dirs = 8;
    s.threads = 3;
    s.concurrent = true;
    s.read_pct = 70;
    s.own_writes = true;
    s.sync_every = 2000;
    s.warmup_ops = 20000;
    // A measured phase starts on a fresh mount (see Harness::BeginPhase),
    // whose first Syncs and reads run on cold file maps and a cold LFS read
    // cache: about a second of that is run before the clock starts.
    s.settle_ops = 30000;
    s.prime_reads = true;
    return std::make_unique<BlockFiles>(seed, s);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<const Window*> All(const std::vector<Window>& wins) {
  std::vector<const Window*> out;
  for (const Window& w : wins) {
    out.push_back(&w);
  }
  return out;
}

// The windows the timing metrics are taken from. With several clients on one
// mount, a window is kept only if the host took at most kStealMargin more of
// the machine's CPU time in it than in the run's quietest window: a client
// whose vCPU the host stalls while it holds the group-commit token or the
// filesystem lock stalls every other client, so such a window times the
// host, not the program. The choice never looks at what a window measured,
// and the quietest window is always kept. A single client is slowed only in
// proportion to the steal, and hotcold's speed drifts through the run, so
// there every window is kept and the whole run is read.
constexpr double kStealMargin = 0.01;

std::vector<const Window*> Unstolen(const std::vector<Window>& wins, bool several_clients) {
  if (!several_clients || wins.empty()) {
    return All(wins);
  }
  double quietest = wins[0].steal;
  for (const Window& w : wins) {
    quietest = std::min(quietest, w.steal);
  }
  std::vector<const Window*> out;
  for (const Window& w : wins) {
    if (w.steal <= quietest + kStealMargin) {
      out.push_back(&w);
    }
  }
  return out;
}

// The q-quantile (nearest rank) of `series` pooled over `wins`, in
// microseconds.
double LatencyUs(const std::vector<const Window*>& wins, std::vector<uint32_t> Window::*series,
                 double q) {
  std::vector<uint32_t> v;
  for (const Window* w : wins) {
    v.insert(v.end(), (w->*series).begin(), (w->*series).end());
  }
  if (v.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * double(v.size())));
  size_t k = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + ptrdiff_t(k), v.end());
  return double(v[k]) * 1e-3;
}

// Client ops per second over `wins`, each `window_s` long.
double OpsPerS(const std::vector<const Window*>& wins, double window_s) {
  uint64_t ops = 0;
  for (const Window* w : wins) {
    ops += w->ops;
  }
  return Ratio(double(ops), double(wins.size()) * window_s);
}

// The phase deltas of the LfsStats counters the benchmark reports.
lfs::LfsStats Delta(const lfs::LfsStats& end, const lfs::LfsStats& begin) {
  lfs::LfsStats d;
  for (size_t k = 0; k < d.log_bytes_by_kind.size(); k++) {
    d.log_bytes_by_kind[k] = end.log_bytes_by_kind[k] - begin.log_bytes_by_kind[k];
  }
  d.summary_bytes = end.summary_bytes - begin.summary_bytes;
  d.checkpoint_bytes = end.checkpoint_bytes - begin.checkpoint_bytes;
  d.checkpoints = end.checkpoints - begin.checkpoints;
  d.clean_write_bytes = end.clean_write_bytes - begin.clean_write_bytes;
  d.clean_read_bytes = end.clean_read_bytes - begin.clean_read_bytes;
  d.cleaner_passes = end.cleaner_passes - begin.cleaner_passes;
  d.segments_cleaned = end.segments_cleaned - begin.segments_cleaned;
  d.segments_cleaned_empty = end.segments_cleaned_empty - begin.segments_cleaned_empty;
  d.sum_cleaned_utilization = end.sum_cleaned_utilization - begin.sum_cleaned_utilization;
  return d;
}

struct Samples {
  uint64_t ops = 0, mix = 0, read = 0, write = 0, sync = 0;
};

Samples Count(const std::vector<const Window*>& wins) {
  Samples s;
  for (const Window* w : wins) {
    s.ops += w->ops;
    s.mix += w->mix.size();
    s.read += w->read.size();
    s.write += w->write.size();
    s.sync += w->sync.size();
  }
  return s;
}

// Per-op busy and self time from the spans, and device time on threads that
// are not clients. An op's self time is its span minus the cache spans its
// thread recorded under the same op id.
struct SpanSummary {
  uint64_t calls[kNumFsOps] = {};
  int64_t busy_ns[kNumFsOps] = {};
  int64_t self_ns[kNumFsOps] = {};
  int64_t bg_disk_ns = 0;
};

SpanSummary Summarize(const SpanLog& log) {
  SpanSummary out;
  for (const auto& t : log.threads()) {
    uint64_t pending_op = 0;
    int64_t pending_cache_ns = 0;
    for (const Span& s : t->spans) {
      int64_t dur = s.end_ns - s.start_ns;
      switch (s.layer) {
        case Layer::kCache:
          if (s.op != pending_op) {
            pending_op = s.op;
            pending_cache_ns = 0;
          }
          pending_cache_ns += dur;
          break;
        case Layer::kDisk:
          if (!t->client) {
            out.bg_disk_ns += dur;
          }
          break;
        case Layer::kLfs:
          out.calls[s.what]++;
          out.busy_ns[s.what] += dur;
          out.self_ns[s.what] += dur - (s.op == pending_op ? pending_cache_ns : 0);
          pending_op = 0;
          pending_cache_ns = 0;
          break;
      }
    }
  }
  return out;
}

bool WriteSpans(const SpanLog& log, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::setvbuf(f, nullptr, _IOFBF, 1 << 20);
  static const char* const kLayers[] = {"lfs", "cache", "disk"};
  static const char* const kDevOps[] = {"read", "write", "flush", "trim"};
  std::fprintf(f, "thread\tclient\tlayer\twhat\top\tstart_ns\tend_ns\tbytes\n");
  for (size_t ti = 0; ti < log.threads().size(); ti++) {
    const ThreadSpans& t = *log.threads()[ti];
    for (const Span& s : t.spans) {
      const char* what = s.layer == Layer::kLfs ? kFsOpNames[s.what] : kDevOps[s.what];
      std::fprintf(f, "%zu\t%d\t%s\t%s\t%" PRIu64 "\t%" PRId64 "\t%" PRId64 "\t%" PRIu64 "\n",
                   ti, t.client ? 1 : 0, kLayers[static_cast<int>(s.layer)], what, s.op,
                   s.start_ns, s.end_ns, s.bytes);
    }
  }
  return std::fclose(f) == 0;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

// Recovery of the crash image: repeated read-only roll-forward mounts (timed),
// then a read-write mount that is checked, unmounted and fsck'd.
struct Recovery {
  std::vector<double> mount_s;
  std::vector<double> disk_s;
  uint64_t partials = 0;
  uint64_t read_bytes = 0;
};

Recovery Recover(Harness& h, Workload& w, lfs::MemDisk* platter, bool traced) {
  Recovery r;
  Tally& t = h.tally();
  LfsConfig cfg = h.Config();
  lfs::MountOptions ro;
  ro.read_only = true;
  for (int i = 0; i < kRecoveryMounts; i++) {
    auto rs = BuildStack(std::make_unique<BorrowedDevice>(platter), traced, nullptr);
    int64_t start = NowNs();
    auto fs = LfsFileSystem::Mount(rs->top(), cfg, ro);
    r.mount_s.push_back(double(NowNs() - start) * 1e-9);
    t.attempted.fetch_add(1);
    if (!fs.ok()) {
      t.durability.fetch_add(1);
      t.Note("crash-image mount", fs.status().ToString());
      continue;
    }
    r.partials = (*fs)->stats().rollforward_partials;
    fs->reset();
    r.read_bytes = rs->sim->stats().bytes_read;
    if (traced) {
      r.disk_s.push_back(double(rs->disk_shim->totals().ns.load()) * 1e-9);
    }
  }
  auto rs = BuildStack(std::make_unique<BorrowedDevice>(platter), false, nullptr);
  auto fs = LfsFileSystem::Mount(rs->top(), cfg);
  t.attempted.fetch_add(1);
  if (!fs.ok()) {
    t.durability.fetch_add(1);
    t.Note("crash-image mount", fs.status().ToString());
    return r;
  }
  w.Verify(h, **fs);
  h.Check((*fs)->Unmount(), "Unmount");
  fs->reset();
  rs.reset();
  auto report = lfs::CheckLfsImage(platter);
  t.attempted.fetch_add(1);
  if (!report.ok()) {
    t.findings.fetch_add(1);
    t.Note("CheckLfsImage", report.status().ToString());
  } else if (report->errors + report->warnings > 0) {
    t.findings.fetch_add(report->errors + report->warnings);
    t.Note("CheckLfsImage", report->Summary());
  }
  return r;
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: lfsbench --workload <smallfile|hotcold|mt_mixed> --seed N "
                 "--seconds S --trace <0|1>\n");
    return 2;
  }
  std::unique_ptr<Workload> w = MakeWorkload(a.workload, a.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "lfsbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  Harness h(w.get(), a.seed, a.trace);
  auto& clients = h.clients();
  auto client_sum = [&](uint64_t Client::*field) {
    uint64_t total = 0;
    for (auto& c : clients) {
      total += (*c).*field;
    }
    return total;
  };

  std::vector<double> setup_s;
  for (int i = 0; i < (a.trace ? 1 : kSetups); i++) {
    setup_s.push_back(h.Setup());
  }
  h.WarmUp();

  const double window_s = a.seconds / kWindows;
  const bool several = w->threads() > 1;
  std::vector<Metric> m;
  Samples samples;
  std::vector<Window> wins;  // the measured (untraced) or recording (traced) phase
  std::vector<const Window*> used;
  if (!a.trace) {
    PhaseMark begin = h.BeginPhase();
    uint64_t rd0 = client_sum(&Client::bytes_read);
    uint64_t wr0 = client_sum(&Client::bytes_written);
    uint64_t ops0 = client_sum(&Client::ops_ok);
    wins = h.RunPhase(a.seconds, kWindows);
    PhaseMark end = h.EndPhase();
    lfs::DiskStats d = end.disk - begin.disk;
    used = Unstolen(wins, several);
    samples = Count(used);
    Recovery rec = Recover(h, *w, h.Crash(), false);

    m = {
        {"ops_per_s", OpsPerS(used, window_s), "1/s"},
        {"p50_us", LatencyUs(used, &Window::mix, 0.5), "us"},
        {"p999_us", LatencyUs(used, &Window::mix, 0.999), "us"},
        {"read_p999_us", LatencyUs(used, &Window::read, 0.999), "us"},
        {"write_p999_us", LatencyUs(used, &Window::write, 0.999), "us"},
        {"sync_p50_us", LatencyUs(used, &Window::sync, 0.5), "us"},
        {"write_amp", Ratio(double(d.bytes_written),
                            double(client_sum(&Client::bytes_written) - wr0)), "ratio"},
        {"read_amp", Ratio(double(d.bytes_read), double(client_sum(&Client::bytes_read) - rd0)),
         "ratio"},
        {"space_amp", Ratio(double(end.live_bytes), double(w->live_logical_bytes())), "ratio"},
        {"disk_busy_ms_per_op",
         Ratio(d.busy_sec * 1e3, double(client_sum(&Client::ops_ok) - ops0)), "ms"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"setup_s", Median(setup_s), "s"},
    };
  } else {
    // Untraced half (shims installed but idle), then traced half. Each half
    // starts from a phase mark, so in mt_mixed both start from a fresh mount.
    h.BeginPhase();
    std::vector<Window> idle = h.RunPhase(a.seconds / 2, kWindows / 2);
    double untraced_rate = OpsPerS(Unstolen(idle, several), window_s);
    PhaseMark begin = h.BeginPhase();
    for (auto& c : clients) {
      c->fs_ns = c->loop_ns = c->stall_ns = 0;
      c->stalled_ops = 0;
    }
    h.log().set_enabled(true);
    wins = h.RunPhase(a.seconds / 2, kWindows / 2);
    h.log().set_enabled(false);
    used = All(wins);  // the layer metrics cover the whole recording half
    samples = Count(used);
    PhaseMark end = h.EndPhase();
    lfs::DiskStats d = end.disk - begin.disk;
    lfs::LfsStats ls = Delta(end.lfs, begin.lfs);
    const lfs::cache::BlockCacheStats& cs = end.cache;
    const lfs::cache::BlockCacheStats& c0 = begin.cache;
    const ShimTotals& ct = h.stack().cache_shim->totals();
    const ShimTotals& dt = h.stack().disk_shim->totals();  // both valid until h.Crash()
    auto calls = [](const ShimTotals& t, DevOp op) {
      return double(t.calls[static_cast<size_t>(op)].load());
    };
    auto bytes = [](const ShimTotals& t, DevOp op) {
      return double(t.bytes[static_cast<size_t>(op)].load());
    };
    double cache_ns = double(ct.ns.load());
    double disk_ns = double(dt.ns.load());
    uint64_t hits = cs.hits - c0.hits;
    uint64_t misses = cs.misses - c0.misses;
    double evictions = double(cs.evictions - c0.evictions);
    double dirty_evictions = double(cs.dirty_evictions - c0.dirty_evictions);
    double writeback_blocks = double(cs.writeback_blocks - c0.writeback_blocks);
    double cache_writes = calls(ct, DevOp::kWrite);
    double cache_write_bytes = bytes(ct, DevOp::kWrite);
    int64_t gen_ns = 0;
    int64_t stall_ns = 0;
    uint64_t stalled_ops = 0;
    for (auto& c : clients) {
      gen_ns += c->loop_ns - c->fs_ns;
      stall_ns += c->stall_ns;
      stalled_ops += c->stalled_ops;
    }
    SpanSummary spans = Summarize(h.log());

    for (int op = 0; op < kNumFsOps; op++) {
      std::string p = std::string("lfs.") + kFsOpNames[op];
      m.push_back({p + ".calls", double(spans.calls[op]), "count"});
      m.push_back({p + ".busy_s", double(spans.busy_ns[op]) * 1e-9, "s"});
      m.push_back({p + ".self_s", double(spans.self_ns[op]) * 1e-9, "s"});
    }
    uint64_t nonempty = ls.segments_cleaned - ls.segments_cleaned_empty;
    std::vector<Metric> rest = {
        {"lfs_cleaner.passes", double(ls.cleaner_passes), "count"},
        {"lfs_cleaner.segments", double(ls.segments_cleaned), "count"},
        {"lfs_cleaner.empty_frac", ls.EmptyCleanedFraction(), "ratio"},
        {"lfs_cleaner.avg_u", Ratio(ls.sum_cleaned_utilization, double(nonempty)), "ratio"},
        {"lfs_cleaner.copy_bytes", double(ls.clean_write_bytes), "B"},
        {"lfs_cleaner.read_bytes", double(ls.clean_read_bytes), "B"},
        {"lfs_cleaner.stalled_ops", double(stalled_ops), "count"},
        {"lfs_cleaner.stall_s", double(stall_ns) * 1e-9, "s"},
        {"lfs_cleaner.bg_device_s", double(spans.bg_disk_ns) * 1e-9, "s"},
        {"segment_writer.device_writes", cache_writes, "count"},
        {"segment_writer.avg_write_kb", Ratio(cache_write_bytes / 1024.0, cache_writes), "KB"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    static const char* const kKinds[] = {"data",  "indirect", "double_indirect", "inode",
                                         "imap", "usage",    "dirlog"};
    for (size_t k = 1; k <= 7; k++) {
      m.push_back({std::string("segment_writer.log_bytes.") + kKinds[k - 1],
                   double(ls.log_bytes_by_kind[k]), "B"});
    }
    rest = {
        {"segment_writer.log_bytes.summary", double(ls.summary_bytes), "B"},
        {"segment_writer.checkpoints", double(ls.checkpoints), "count"},
        {"segment_writer.checkpoint_bytes", double(ls.checkpoint_bytes), "B"},
        {"cache.reads", calls(ct, DevOp::kRead), "count"},
        {"cache.writes", cache_writes, "count"},
        {"cache.flushes", calls(ct, DevOp::kFlush), "count"},
        {"cache.hit_rate", Ratio(double(hits), double(hits + misses)), "ratio"},
        {"cache.evictions", evictions, "count"},
        {"cache.dirty_evictions", dirty_evictions, "count"},
        {"cache.writeback_blocks", writeback_blocks, "count"},
        {"cache.self_s", (cache_ns - disk_ns) * 1e-9, "s"},
        {"disk.reads", calls(dt, DevOp::kRead), "count"},
        {"disk.writes", calls(dt, DevOp::kWrite), "count"},
        {"disk.flushes", calls(dt, DevOp::kFlush), "count"},
        {"disk.trims", calls(dt, DevOp::kTrim), "count"},
        {"disk.read_bytes", bytes(dt, DevOp::kRead), "B"},
        {"disk.write_bytes", bytes(dt, DevOp::kWrite), "B"},
        {"disk.busy_s", disk_ns * 1e-9, "s"},
        {"disk.modeled_busy_s", d.busy_sec, "s"},
        {"disk.seeks", double(d.seeks), "count"},
        {"disk.modeled_seek_s", d.seek_sec, "s"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    // The shims go away with the crash; everything above is read first.
    Recovery rec = Recover(h, *w, h.Crash(), true);
    rest = {
        {"lfs_recovery.mount_s", Median(rec.mount_s), "s"},
        {"lfs_recovery.partials_replayed", double(rec.partials), "count"},
        {"lfs_recovery.read_bytes", double(rec.read_bytes), "B"},
        {"lfs_recovery.disk_s", Median(rec.disk_s), "s"},
        {"client.gen_s", double(gen_ns) * 1e-9, "s"},
        {"trace.overhead", Ratio(untraced_rate, OpsPerS(Unstolen(wins, several), window_s)),
         "ratio"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    std::string spans_path = "spans-" + a.workload + ".tsv";
    if (!WriteSpans(h.log(), spans_path)) {
      std::fprintf(stderr, "lfsbench: cannot write spans to %s\n", spans_path.c_str());
      return 1;
    }
  }

  Tally& t = h.tally();
  uint64_t attempted = t.attempted.load();
  uint64_t failed = t.failed();
  bool correct = failed == 0;
  std::printf("workload %s seed %" PRIu64 " trace %d seconds %g\n", a.workload.c_str(), a.seed,
              a.trace ? 1 : 0, a.seconds);
  std::printf("measured ops %" PRIu64 " in %zu of %zu windows of %g s (latency samples: mix ops %"
              PRIu64 ", ReadAt %" PRIu64 ", WriteAt %" PRIu64 ", Sync %" PRIu64 ")\n",
              samples.ops, used.size(), wins.size(), window_s, samples.mix, samples.read,
              samples.write, samples.sync);
  std::printf("windows (ops/s, %% of CPU time taken by the host, * = used):");
  for (const Window& win : wins) {
    bool in = std::find(used.begin(), used.end(), &win) != used.end();
    std::printf(" %.0f/%.1f%s", double(win.ops) / window_s, win.steal * 100, in ? "*" : "");
  }
  std::printf("\n");
  std::printf("attempted %" PRIu64 " failed %" PRIu64 " (op errors %" PRIu64
              ", content mismatches %" PRIu64 ", post-crash %" PRIu64 ", fsck findings %" PRIu64
              ") error_rate %.9g\n",
              attempted, failed, t.failed_ops.load(), t.mismatches.load(), t.durability.load(),
              t.findings.load(), Ratio(double(failed), double(attempted)));
  for (const Metric& x : m) {
    std::printf("%-40s %.17g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < m.size(); i++) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m[i].name.c_str(), m[i].value, m[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
