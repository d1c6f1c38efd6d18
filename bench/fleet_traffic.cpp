// Fleet traffic benchmark: tens of thousands of simulated closed-loop
// clients driving a multi-volume, multi-tenant fleet through the
// deterministic event-loop pipeline (src/fleet/event_loop.h).
//
// Eight tenants ride four volumes (two per volume). Every tenant runs the
// same client mix — smallfile churn (create/write/read/unlink cycles),
// large sequential writers, and namespace storms (mkdir/rename ping-pong) —
// but the last tenant is provisioned at a quarter of the admission rate
// with half the queue depth, so the report shows both sides of isolation:
// the seven uniform tenants complete near-identical work (gated by a Jain
// fairness index), and the throttled tenant sheds load through kBusy
// rejections without denting its volume neighbor.
//
// Latencies are simulated-time submit-to-completion: admission wait +
// volume queueing + max(cpu, modeled disk) service + any fair-share cleaner
// charge in front of the op. Everything (event order, token refills, disk
// model) runs off the deterministic clock, so the whole BENCH_*.json —
// per-class and per-tenant p50/p95/p99 included — is byte-stable and CI
// gates it against a checked-in baseline.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/fleet/event_loop.h"
#include "src/fleet/fleet.h"

using namespace lfs;
using namespace lfs::bench;
using namespace lfs::fleet;

namespace {

constexpr uint32_t kVolumes = 4;
constexpr uint32_t kTenants = 8;  // two per volume
const uint64_t kClients = SmokePick(12000, 800);
const uint64_t kOpsPerClient = SmokePick(10, 5);
const uint64_t kDiskBytes = SmokePick(96, 32) * 1024 * 1024;

constexpr uint32_t kSmallBytes = 4 * 1024;
constexpr uint32_t kLargeBytes = 64 * 1024;
// Large writers truncate back to zero at this size, bounding their live
// footprint: the churn keeps the cleaner busy (its passes are what the p99
// tails wait behind) while live utilization stays low enough that volumes
// never hit their own ENOSPC reserve.
constexpr uint64_t kLargeFileCap = 128 * 1024;

// Uniform tenants t0..t6 are provisioned far above their offered load, so
// their latency reflects queueing and cleaning, not admission. t7 offers
// the same load but is provisioned *below* it (admission binds), with a
// short queue bound, so the report shows the throttled side of isolation:
// t7 sheds work through kBusy while its volume neighbor (t3) stays fair.
constexpr double kUniformRate = 4000.0;  // admission ops/sec per tenant
constexpr double kThrottledRate = 10.0;
constexpr double kThrottledBurst = 16.0;
constexpr uint32_t kThrottledQueueDepth = 100;
constexpr double kBusyBackoffSec = 0.02;  // client retry after a rejection

// Closed-loop pacing: mean think time is sized so the fleet offers
// ~150 ops/sec aggregate — roughly 75% of the four volumes' sustained
// capacity under the Wren IV model with cleaning — so queues form behind
// segment flushes and cleaner passes (the tails this bench gates) without
// collapsing into a pure queue-drain experiment where every percentile is
// just the backlog length.
const double kThinkMeanSec = static_cast<double>(kClients) / 150.0;

void Check(const Status& st) {
  if (!st.ok()) {
    std::fprintf(stderr, "fleet_traffic: %s\n", st.ToString().c_str());
    std::abort();
  }
}

// Client roles, assigned 80/10/10 within every tenant so all tenants offer
// the same mix and per-tenant completions are directly comparable.
enum class Kind : uint8_t { kSmall, kLarge, kStorm };

struct Client {
  uint32_t id = 0;
  uint32_t tenant = 0;
  Kind kind = Kind::kSmall;
  uint32_t ops_left = 0;
  uint32_t step = 0;   // position in the role's state machine
  uint32_t cycle = 0;  // churn iteration (names files uniquely)
  InodeNum ino = 0;
  uint64_t off = 0;  // large writer's append position
};

struct Driver {
  Fleet* fleet = nullptr;
  FleetScheduler* sched = nullptr;
  Rng rng{20260808};
  std::vector<Client> clients;
  std::vector<std::string> tenant_names;
  std::vector<uint8_t> wbuf;
  std::vector<uint8_t> rbuf;
  uint64_t busy_retries = 0;
  uint64_t errors = 0;

  double Think() { return rng.NextExponential(kThinkMeanSec); }
  void SubmitNext(uint32_t ci, double when);
};

// Builds the next op for client `ci` from its state machine. The body runs
// at dispatch time inside the event loop (single-threaded), and each client
// has exactly one op in flight, so mutating the Client from body/done is
// race-free by construction.
void Driver::SubmitNext(uint32_t ci, double when) {
  Client& c = clients[ci];
  const std::string& tname = tenant_names[c.tenant];
  FleetScheduler::Op op;
  op.tenant = tname;

  switch (c.kind) {
    case Kind::kSmall: {
      std::string path =
          "/c" + std::to_string(c.id) + "_" + std::to_string(c.cycle);
      if (c.step == 0) {
        op.cls = OpClass::kCreate;
        op.body = [this, ci, path]() {
          auto r = fleet->Create(tenant_names[clients[ci].tenant], path);
          if (r.ok()) clients[ci].ino = *r;
          return r.status();
        };
      } else if (c.step == 1) {
        op.cls = OpClass::kSmallWrite;
        op.bytes = kSmallBytes;
        op.body = [this, ci]() {
          Client& cl = clients[ci];
          return fleet->WriteAt(tenant_names[cl.tenant], cl.ino, 0,
                                std::span<const uint8_t>(wbuf.data(), kSmallBytes));
        };
      } else if (c.step == 2) {
        op.cls = OpClass::kSmallRead;
        op.bytes = kSmallBytes;
        op.body = [this, ci]() {
          Client& cl = clients[ci];
          return fleet
              ->ReadAt(tenant_names[cl.tenant], cl.ino, 0,
                       std::span<uint8_t>(rbuf.data(), kSmallBytes))
              .status();
        };
      } else {
        op.cls = OpClass::kUnlink;
        op.body = [this, ci, path]() {
          return fleet->Unlink(tenant_names[clients[ci].tenant], path);
        };
      }
      break;
    }
    case Kind::kLarge: {
      if (c.step == 0) {
        op.cls = OpClass::kCreate;
        op.body = [this, ci]() {
          Client& cl = clients[ci];
          auto r = fleet->Create(tenant_names[cl.tenant],
                                 "/big" + std::to_string(cl.id));
          if (r.ok()) cl.ino = *r;
          return r.status();
        };
      } else if (c.off >= kLargeFileCap) {
        op.cls = OpClass::kNamespace;  // metadata op: reset the file
        op.body = [this, ci]() {
          Client& cl = clients[ci];
          return fleet->Truncate(tenant_names[cl.tenant], cl.ino, 0);
        };
      } else {
        op.cls = OpClass::kLargeWrite;
        op.bytes = kLargeBytes;
        op.body = [this, ci]() {
          Client& cl = clients[ci];
          return fleet->WriteAt(tenant_names[cl.tenant], cl.ino, cl.off,
                                std::span<const uint8_t>(wbuf.data(), kLargeBytes));
        };
      }
      break;
    }
    case Kind::kStorm: {
      std::string base = "/d" + std::to_string(c.id);
      op.cls = OpClass::kNamespace;
      if (c.step == 0) {
        op.body = [this, ci, base]() {
          return fleet->Mkdir(tenant_names[clients[ci].tenant], base);
        };
      } else if (c.step % 2 == 1) {
        op.body = [this, ci, base]() {
          return fleet->Rename(tenant_names[clients[ci].tenant], base, base + "x");
        };
      } else {
        op.body = [this, ci, base]() {
          return fleet->Rename(tenant_names[clients[ci].tenant], base + "x", base);
        };
      }
      break;
    }
  }

  op.done = [this, ci](double now, const Status& st) {
    Client& cl = clients[ci];
    cl.ops_left--;  // every attempt consumes budget, so the run terminates
    if (st.ok()) {
      // Advance the state machine.
      switch (cl.kind) {
        case Kind::kSmall:
          cl.step = (cl.step + 1) % 4;
          if (cl.step == 0) cl.cycle++;
          break;
        case Kind::kLarge:
          if (cl.step == 0) {
            cl.step = 1;
          } else if (cl.off >= kLargeFileCap) {
            cl.off = 0;  // the truncate just completed
          } else {
            cl.off += kLargeBytes;
          }
          break;
        case Kind::kStorm:
          cl.step++;
          break;
      }
    } else if (st.code() == StatusCode::kBusy) {
      busy_retries++;  // retry the same step after a backoff
    } else {
      errors++;
    }
    if (cl.ops_left > 0) {
      double delay = st.code() == StatusCode::kBusy ? kBusyBackoffSec : Think();
      SubmitNext(ci, now + delay);
    }
  };

  sched->Submit(when, std::move(op));
}

double JainIndex(const std::vector<double>& xs) {
  double sum = 0, sq = 0;
  for (double x : xs) {
    sum += x;
    sq += x * x;
  }
  if (sq <= 0) return 0;
  return sum * sum / (static_cast<double>(xs.size()) * sq);
}

}  // namespace

int main() {
  LfsConfig lcfg = PaperLfsConfig();  // 4-KB blocks, 1-MB segments
  FleetConfig fcfg = UniformFleetConfig(kVolumes, kDiskBytes, lcfg);
  fcfg.front_door_admission = false;  // the scheduler reserves admission
  auto fleet_r = Fleet::Create(fcfg);
  Check(fleet_r.status());
  auto fleet = std::move(fleet_r).value();

  Driver d;
  d.fleet = fleet.get();
  const uint64_t clients_per_tenant = kClients / kTenants;
  for (uint32_t t = 0; t < kTenants; t++) {
    TenantConfig tc;
    tc.name = std::string("t").append(std::to_string(t));
    tc.volume = t % kVolumes;
    tc.max_blocks = (kDiskBytes / lcfg.block_size) / 2;  // half a volume each
    tc.max_inodes = static_cast<uint32_t>(clients_per_tenant * 4);
    bool throttled = (t == kTenants - 1);
    tc.ops_per_sec = throttled ? kThrottledRate : kUniformRate;
    tc.burst_ops = throttled ? kThrottledBurst : 64.0;
    tc.max_queue_depth = throttled ? kThrottledQueueDepth
                                   : static_cast<uint32_t>(clients_per_tenant * 2);
    Check(fleet->AddTenant(tc));
    d.tenant_names.push_back(tc.name);
  }

  FleetScheduler sched(fleet.get(), SchedulerOptions{});
  d.sched = &sched;
  d.wbuf.resize(kLargeBytes);
  for (size_t i = 0; i < d.wbuf.size(); i++) {
    d.wbuf[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  d.rbuf.resize(kLargeBytes);

  // One closed-loop chain per client: 80% smallfile churn, 10% large
  // sequential, 10% namespace storm, interleaved across tenants. Start
  // times stagger over one mean think interval so the opening burst is an
  // admission-queue ramp, not a single instantaneous spike.
  d.clients.resize(kClients);
  for (uint32_t i = 0; i < kClients; i++) {
    Client& c = d.clients[i];
    c.id = i;
    c.tenant = i % kTenants;
    uint32_t role = (i / kTenants) % 10;
    c.kind = role < 8 ? Kind::kSmall : (role == 8 ? Kind::kLarge : Kind::kStorm);
    c.ops_left = static_cast<uint32_t>(kOpsPerClient);
  }
  auto wall0 = std::chrono::steady_clock::now();
  for (uint32_t i = 0; i < kClients; i++) {
    d.SubmitNext(i, kThinkMeanSec * static_cast<double>(i) /
                        static_cast<double>(kClients));
  }
  sched.Run();
  double wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();

  Check(fleet->SyncAll());

  // --- report ------------------------------------------------------------------
  BenchReport report("fleet_traffic");
  double sim_sec = sched.now();
  report.AddScalar("clients", static_cast<double>(kClients));
  report.AddScalar("tenants", kTenants);
  report.AddScalar("volumes", kVolumes);
  report.AddScalar("ops_done", static_cast<double>(sched.ops_done()));
  report.AddScalar("ops_rejected", static_cast<double>(sched.ops_rejected()));
  report.AddScalar("busy_retries", static_cast<double>(d.busy_retries));
  report.AddScalar("errors", static_cast<double>(d.errors));
  report.AddScalar("sim_seconds", sim_sec);
  report.AddScalar("throughput_ops_per_sec",
                   sim_sec > 0 ? static_cast<double>(sched.ops_done()) / sim_sec : 0);
  report.AddScalar("wall.run_sec", wall_sec);

  // Fairness: the seven uniform tenants ran identical offered load through
  // identical provisioning; their completed-op counts should be near equal.
  std::vector<double> uniform_done;
  double throttled_done = 0;
  for (uint32_t t = 0; t < kTenants; t++) {
    TenantState* ts = fleet->tenant(d.tenant_names[t]);
    double done = static_cast<double>(ts->ops_completed.load());
    if (t == kTenants - 1) {
      throttled_done = done;
    } else {
      uniform_done.push_back(done);
    }
  }
  double uniform_avg = 0;
  for (double x : uniform_done) uniform_avg += x;
  uniform_avg /= static_cast<double>(uniform_done.size());
  report.AddScalar("fairness_jain_uniform", JainIndex(uniform_done));
  report.AddScalar("throttled_completion_ratio",
                   uniform_avg > 0 ? throttled_done / uniform_avg : 0);

  for (uint32_t v = 0; v < kVolumes; v++) {
    report.AddScalar("sched.volume" + std::to_string(v) + ".busy_fraction",
                     sched.busy_fraction(v));
  }
  fleet->BindMetrics(&report.registry(), "fleet.");

  for (size_t cls = 0; cls < static_cast<size_t>(OpClass::kCount); cls++) {
    report.registry().AddHistogram(
        std::string("op.") + OpClassName(static_cast<OpClass>(cls)),
        sched.class_latency(static_cast<OpClass>(cls)));
  }
  for (const std::string& name : d.tenant_names) {
    report.registry().AddHistogram("tenant." + name, *sched.tenant_latency(name));
  }

  std::printf("fleet_traffic: %" PRIu64 " clients, %u tenants on %u volumes, "
              "%" PRIu64 " ops in %.2f sim-sec (%.0f ops/sec)\n",
              kClients, kTenants, kVolumes, sched.ops_done(), sim_sec,
              sim_sec > 0 ? static_cast<double>(sched.ops_done()) / sim_sec : 0);
  std::printf("  rejected %" PRIu64 " (throttled tenant ratio %.2f), "
              "jain(t0..t6) %.4f\n",
              sched.ops_rejected(),
              uniform_avg > 0 ? throttled_done / uniform_avg : 0,
              JainIndex(uniform_done));
  std::printf("  %-12s %10s %10s %10s %10s\n", "class", "count", "p50_us",
              "p95_us", "p99_us");
  for (size_t cls = 0; cls < static_cast<size_t>(OpClass::kCount); cls++) {
    const auto& h = sched.class_latency(static_cast<OpClass>(cls));
    std::printf("  %-12s %10" PRIu64 " %10.0f %10.0f %10.0f\n",
                OpClassName(static_cast<OpClass>(cls)), h.count(),
                h.PercentileUs(0.50), h.PercentileUs(0.95), h.PercentileUs(0.99));
  }
  for (const std::string& name : d.tenant_names) {
    const auto& h = *sched.tenant_latency(name);
    std::printf("  tenant %-6s %9" PRIu64 " %10.0f %10.0f %10.0f\n", name.c_str(),
                h.count(), h.PercentileUs(0.50), h.PercentileUs(0.95),
                h.PercentileUs(0.99));
  }

  report.Write();
  return 0;
}
