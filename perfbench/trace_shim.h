// Outside-in tracing for the benchmark's traced run.
//
// The benchmark records spans at each layer boundary from its own code:
// lfsbench wraps every FileSystem call in an `lfs` span, and two
// TimingShim decorators wrap the block devices, one above the block cache
// (`cache` spans) and one below it (`disk` spans). A thread-local op id
// names the client op span a device span was issued under; device spans on
// threads that are not clients (the concurrent regime's background cleaner)
// carry op id 0. Spans stay in per-thread memory buffers until the run ends.
//
// Each thread's buffer holds its spans in the order they ended, so a child
// span always precedes the span that encloses it. Self times are derived
// from that order (see lfsbench.cpp).

#ifndef PERFBENCH_TRACE_SHIM_H_
#define PERFBENCH_TRACE_SHIM_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/disk/block_device.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Layer : uint8_t { kLfs = 0, kCache = 1, kDisk = 2 };

// What a device span did. `lfs` spans store the FileSystem op instead.
enum class DevOp : uint8_t { kRead = 0, kWrite = 1, kFlush = 2, kTrim = 3 };
inline constexpr int kNumDevOps = 4;

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t op = 0;     // client op span this span belongs to; 0 = none
  uint64_t bytes = 0;  // device spans: bytes transferred or trimmed
  Layer layer = Layer::kLfs;
  uint8_t what = 0;    // DevOp for device spans, FsOp for lfs spans
};

struct ThreadSpans {
  bool client = false;
  std::vector<Span> spans;
};

// The client op the calling thread is inside (0 = none). Set by lfsbench
// around each FileSystem call of a traced run.
inline thread_local uint64_t tl_current_op = 0;

class SpanLog {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Marks the calling thread as a client (a workload thread).
  void MarkClientThread() { Mine()->client = true; }

  void Record(const Span& span) { Mine()->spans.push_back(span); }

  // Every thread's buffer. Call only once all recording threads are done.
  const std::vector<std::unique_ptr<ThreadSpans>>& threads() const { return threads_; }

 private:
  ThreadSpans* Mine() {
    thread_local const SpanLog* owner = nullptr;
    thread_local ThreadSpans* mine = nullptr;
    if (owner != this) {
      std::lock_guard<std::mutex> lock(mu_);
      threads_.push_back(std::make_unique<ThreadSpans>());
      mine = threads_.back().get();
      owner = this;
    }
    return mine;
  }

  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSpans>> threads_;
};

// Per-kind call, byte and wall-time totals of one shim.
struct ShimTotals {
  std::atomic<uint64_t> calls[kNumDevOps] = {};
  std::atomic<uint64_t> bytes[kNumDevOps] = {};
  std::atomic<int64_t> ns{0};
};

// A BlockDevice decorator that forwards every call to `inner`. While `log`
// is enabled it times each call, adds it to totals(), and records a span;
// otherwise it only forwards. A shim built with log == nullptr always keeps
// totals and records no spans (used around recovery mounts).
class TimingShim : public lfs::BlockDevice {
 public:
  TimingShim(lfs::BlockDevice* inner, Layer layer, SpanLog* log)
      : inner_(inner), layer_(layer), log_(log) {}

  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t block_count() const override { return inner_->block_count(); }
  double ModeledTime() const override { return inner_->ModeledTime(); }

  lfs::Status Read(lfs::BlockNo block, uint64_t count, std::span<uint8_t> out) override {
    return Timed(DevOp::kRead, out.size(), [&] { return inner_->Read(block, count, out); });
  }
  lfs::Status Write(lfs::BlockNo block, uint64_t count,
                    std::span<const uint8_t> data) override {
    return Timed(DevOp::kWrite, data.size(), [&] { return inner_->Write(block, count, data); });
  }
  lfs::Status Flush() override {
    return Timed(DevOp::kFlush, 0, [&] { return inner_->Flush(); });
  }
  lfs::Status Trim(lfs::BlockNo block, uint64_t count) override {
    return Timed(DevOp::kTrim, count * block_size(),
                 [&] { return inner_->Trim(block, count); });
  }

  const ShimTotals& totals() const { return totals_; }

 private:
  template <typename F>
  lfs::Status Timed(DevOp op, uint64_t bytes, F&& call) {
    if (log_ != nullptr && !log_->enabled()) {
      return call();
    }
    int64_t start = NowNs();
    lfs::Status st = call();
    int64_t end = NowNs();
    size_t k = static_cast<size_t>(op);
    totals_.calls[k].fetch_add(1, std::memory_order_relaxed);
    totals_.bytes[k].fetch_add(bytes, std::memory_order_relaxed);
    totals_.ns.fetch_add(end - start, std::memory_order_relaxed);
    if (log_ != nullptr) {
      log_->Record(Span{start, end, tl_current_op, bytes, layer_, static_cast<uint8_t>(op)});
    }
    return st;
  }

  lfs::BlockDevice* inner_;
  Layer layer_;
  SpanLog* log_;
  ShimTotals totals_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_SHIM_H_
