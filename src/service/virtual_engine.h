// The virtual engine behind ServiceFrontEnd::run_virtual, window by
// window. Internal to the service layer; tests reach it here.
//
// Virtual time is cut into windows of arrival_window_cycles(). The end
// of a window is its *horizon*. ArrivalGenerator keeps one cursor per
// client (its FleetStream, its gap RNG and the time of its next arrival)
// and, for each window, emits every arrival due before the horizon into
// reused per-shard buffers. Clients emit in index order and each
// client's arrival times rise strictly, so a stable radix pass over
// `at - window start` leaves each buffer in (at, client) order.
//
// ShardEngine is one shard's event loop, resumable across windows:
// advance(window, horizon) admits the window's arrivals and serves every
// event strictly before the horizon (arrivals, client retries, parked
// producers, drain completions). Serving an event only ever schedules
// later events, and no arrival at or after the horizon exists yet, so
// the events it serves are exactly those a single pass over the whole
// run would serve first, in the same order. A final advance with no
// horizon drains the shard; finish() then writes its report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <queue>
#include <span>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "fleet/workload.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "service/shard.h"
#include "service/tenant.h"

namespace twl {

/// One routed request in virtual time. A client's arrival times rise
/// strictly, so (at, client) names one request; its tenant is
/// client % tenants.
struct Arrival {
  Cycles at = 0;
  std::uint32_t client = 0;
  std::uint32_t la = 0;  ///< Shard-local logical page.
};
static_assert(sizeof(Arrival) == 16);

/// One shard's slice of a run: its report and its metrics.
struct ShardCellResult {
  ShardReport report;
  MetricsRegistry metrics;
};

/// Per-client seed streams derived from the service seed.
struct ClientSeeds {
  std::uint64_t workload = 0;
  std::uint64_t gap = 0;
};
[[nodiscard]] ClientSeeds client_seeds(std::uint64_t service_seed,
                                       std::uint32_t client);

/// A client's retry backoff, min(base * 2^attempt, cap); both engines
/// use it.
[[nodiscard]] Cycles backoff_for(const ServiceConfig& cfg,
                                 std::uint32_t attempt);

/// Window length in cycles: a client's gaps average
/// max(mean_gap_cycles, 1) cycles, so a window holds about 8192
/// arrivals over all clients (256 mean gaps at 32 clients).
[[nodiscard]] Cycles arrival_window_cycles(const ServiceConfig& service);

class ArrivalGenerator {
 public:
  explicit ArrivalGenerator(const ServiceFrontEnd& fe);

  /// Replaces per_shard[s] with shard s's arrivals in [previous horizon,
  /// horizon), in (at, client) order. Horizons must rise.
  void fill(Cycles horizon, std::vector<std::vector<Arrival>>& per_shard);

  /// Every client has emitted all its requests.
  [[nodiscard]] bool exhausted() const { return live_ == 0; }

 private:
  struct Cursor {
    FleetStream stream;
    XorShift64Star gap_rng;
    TenantId tenant = 0;
    Cycles next_at = 0;          ///< Time of the next arrival.
    std::uint64_t remaining = 0;  ///< Arrivals left, the next one included.
  };

  /// Adds one inter-arrival gap to the cursor's clock.
  void step(Cursor& c) const;

  const ServiceFrontEnd& fe_;
  std::vector<Cursor> cursors_;
  std::uint32_t live_ = 0;  ///< Cursors with arrivals left.
  Cycles start_ = 0;        ///< The previous horizon.
  std::vector<Arrival> scratch_;  ///< Radix pass buffer.
};

class ShardEngine {
 public:
  ShardEngine(const ServiceFrontEnd& fe, std::uint32_t shard);

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Admits `window` (this shard's arrivals in (at, client) order, all
  /// before `horizon` and after any earlier horizon) and serves every
  /// event strictly before `horizon`; with no horizon, every event
  /// left. Returns the writes accepted during the call.
  std::uint64_t advance(std::span<const Arrival> window,
                        std::optional<Cycles> horizon);

  /// After a final advance with no horizon: sheds what a dead shard left
  /// queued and writes the shard's report and metrics.
  void finish(ShardCellResult& out);

  /// The earliest event already scheduled (a retry, a parked producer or
  /// a drain completion), if any.
  [[nodiscard]] std::optional<Cycles> next_event() const;

 private:
  /// One pending admission attempt. Ordered by (at, client, submit,
  /// attempt): one client's submit times rise strictly with its
  /// sequence, so this is a total order independent of heap internals.
  struct Event {
    Cycles at = 0;
    Cycles submit = 0;  ///< Original arrival time (latency baseline).
    std::uint32_t client = 0;
    std::uint32_t attempt = 0;
    std::uint32_t la = 0;
    TenantId tenant = 0;
    bool quota_paid = false;  ///< Token already charged.
    bool parked = false;      ///< Waiting out a full queue under kBlock.

    [[nodiscard]] auto key() const {
      return std::tuple(at, client, submit, attempt);
    }
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.key() > b.key();
    }
  };
  /// A request queued for its tenant's DRR turn.
  struct Queued {
    Cycles submit = 0;
    std::uint32_t la = 0;
  };

  /// Runs the admission gates and, on admission, the discipline.
  void serve(Event e);
  /// One DRR turn at time t: the next tenant with queued work drains up
  /// to its deficit as one execute_batch group.
  void start_drain(Cycles t);

  const ServiceFrontEnd& fe_;
  const ServiceConfig& svc_;
  std::vector<TenantId> tenant_of_;  ///< Indexed by client.
  ServiceShard shard_;
  /// The service discipline: DRR in tenant mode, FIFO otherwise.
  bool drr_;

  MetricsRegistry metrics_;
  LogHistogram* latency_hist_;
  LogHistogram* depth_hist_;
  std::vector<ServiceTotals> books_;  ///< Per tenant.
  std::uint64_t peak_depth_ = 0;
  /// Per (tenant, shard): admission is a pure function of this shard's
  /// event order, which keeps --jobs byte-identity.
  std::vector<TokenBucket> buckets_;

  std::priority_queue<Event, std::vector<Event>, Later> pending_;
  Cycles busy_until_ = 0;
  Cycles unavail_until_ = 0;  ///< Crash quarantine + recovery window.
  std::uint64_t parked_ = 0;  ///< kBlock waiters currently in the heap.

  /// FIFO: completion times of the writes queued or in service.
  std::deque<Cycles> outstanding_;

  /// DRR: per-tenant FIFOs and deficits. One tenant drain is in flight
  /// at a time; its requests are "in service" until drain_done_.
  std::vector<std::deque<Queued>> tenant_q_;
  std::vector<std::uint64_t> deficit_;
  std::uint64_t queued_total_ = 0;
  std::uint32_t rr_ = 0;  ///< DRR cursor.
  bool in_drain_ = false;
  Cycles drain_done_ = 0;
  std::uint64_t in_service_ = 0;
  std::vector<Cycles> submits_;  ///< The drain being built.
  std::vector<LogicalPageAddr> las_;
  std::vector<Cycles> penalties_;
};

}  // namespace twl
