// Workloads `service` and `tenants`: the virtual-time service engine,
// ServiceFrontEnd::run_virtual with one job, over 4 journaled TWL shards.
//
// run_virtual builds its shards and arrivals internally, so the traced
// pass times the engine call as a whole ("engine" span) and then times
// each lower layer by calling its public functions directly on the same
// inputs: FleetStream::next and ServiceFrontEnd routing ("fleet"),
// ServiceShard::execute / execute_batch ("shard", with a "recovery" span
// around every write the chaos schedule crashes), MetadataJournal appends
// of the shards' own record mix ("journal"), take_snapshot plus the
// device wear blob ("snapshot") and LogHistogram::add ("obs"). The shard
// replay writes each shard's requests in the order, and in the drains,
// run_virtual's engine wrote them; it must end with the journal bytes and
// state digest run_virtual reports for that shard. Each layer's share of
// run_virtual is its measured per-unit cost times the units run_virtual
// reports; the engine's share is what is left.
#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/sim_runner.h"
#include "fleet/chaos.h"
#include "fleet/workload.h"
#include "obs/metrics.h"
#include "recovery/journal.h"
#include "recovery/snapshot.h"
#include "service/service.h"
#include "service/shard.h"
#include "service/tenant.h"
#include "workloads.h"

namespace perfbench {
namespace {

using twl::LogicalPageAddr;

// Per-shard device: 64 pages of mean endurance 1e6, so no shard wears out.
constexpr std::uint64_t kShardPages = 64;
constexpr double kShardEndurance = 1e6;
// Virtual engine service time per write (the ServiceConfig default).
constexpr twl::Cycles kServiceCycles = 600;
// Writes per "shard" span in the replay.
constexpr std::size_t kShardBlock = 256;

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Mirrors ServiceFrontEnd's per-client seed derivation (service.cpp), so
/// the replay draws the streams run_virtual drew. The replay checks its
/// per-shard arrival counts against run_virtual's.
struct ClientSeeds {
  std::uint64_t workload = 0;
  std::uint64_t gap = 0;
};
ClientSeeds client_seeds(std::uint64_t seed, std::uint32_t client) {
  twl::SplitMix64 mix(seed ^ (0xC11E'A5E0'0000'0000ULL + client));
  ClientSeeds s;
  s.workload = mix.next();
  s.gap = mix.next();
  return s;
}

/// Mirrors ServiceShard's chaos-schedule seed (shard.cpp: the third draw
/// of the shard's seed stream). The replay checks that the shard crashes
/// exactly where this schedule says.
std::uint64_t schedule_seed(std::uint64_t seed, std::uint32_t shard) {
  twl::SplitMix64 mix(seed ^ (0x5EAF'1CE5'0000'0000ULL + shard));
  mix.next();
  mix.next();
  return mix.next();
}

/// ShardParams as ServiceFrontEnd::shard_params() derives them.
twl::ShardParams shard_params(const twl::ServiceFrontEnd& fe) {
  const twl::ServiceConfig& svc = fe.service_config();
  twl::ShardParams p;
  p.scheme_spec = svc.scheme_spec;
  p.chaos = svc.chaos;
  p.horizon_writes = svc.clients * svc.requests_per_client;
  p.snapshot_interval_writes = svc.snapshot_interval_writes;
  p.degraded_window_writes = svc.degraded_window_writes;
  p.quarantine_cycles = svc.quarantine_cycles;
  p.recovery_base_cycles = svc.recovery_base_cycles;
  p.recovery_per_replay_cycles = svc.recovery_per_replay_cycles;
  p.keep_history = svc.verify_final_state;
  p.min_cache_hit_rate = svc.min_cache_hit_rate;
  if (svc.tenancy.active()) p.directory_blob = fe.directory().serialize();
  return p;
}

/// One routed request of the replay, with the key run_virtual orders its
/// events by.
struct Routed {
  twl::Cycles at = 0;
  std::uint32_t client = 0;
  std::uint64_t seq = 0;
  std::uint32_t la = 0;
  std::uint32_t tenant = 0;

  [[nodiscard]] auto key() const { return std::tie(at, client, seq); }
};

/// Re-draws every client's requests and routes them, as run_virtual's
/// arrival generation does (gap draws included).
std::vector<std::vector<Routed>> route_all(const twl::ServiceFrontEnd& fe) {
  const twl::ServiceConfig& svc = fe.service_config();
  const twl::TenancyConfig& ten = svc.tenancy;
  std::vector<std::vector<Routed>> per_shard(svc.shards);
  for (std::uint32_t c = 0; c < svc.clients; ++c) {
    const std::uint32_t tenant = ten.active() ? c % ten.tenants : 0;
    const ClientSeeds seeds = client_seeds(fe.config().seed, c);
    twl::FleetStream stream(
        ten.active() ? twl::blend_workload(ten.blend, tenant, svc.workload)
                     : svc.workload,
        ten.active() ? fe.directory().tenant_pages(tenant)
                     : fe.global_pages(),
        seeds.workload);
    twl::XorShift64Star gap_rng(seeds.gap);
    twl::Cycles t = 0;
    for (std::uint64_t seq = 0; seq < svc.requests_per_client; ++seq) {
      const twl::Cycles mean = svc.mean_gap_cycles;
      t += mean == 0 ? 1 : 1 + gap_rng.next_below(2 * mean - 1);
      const std::uint32_t la = stream.next().value();
      const auto [shard, local] =
          ten.active() ? fe.route_request(twl::ServiceRequest{tenant, la, 0})
                       : fe.route(la);
      per_shard[shard].push_back(Routed{t, c, seq, local, tenant});
    }
  }
  return per_shard;
}

/// Puts each shard's requests in run_virtual's arrival order.
void sort_arrivals(std::vector<std::vector<Routed>>& per_shard) {
  for (std::vector<Routed>& shard : per_shard) {
    std::sort(shard.begin(), shard.end(),
              [](const Routed& a, const Routed& b) { return a.key() < b.key(); });
  }
}

/// What one shard of run_virtual wrote, in order, and how its engine
/// grouped the writes into calls: `groups` holds the size of each DRR
/// drain (one execute_batch call each); empty means one execute() per
/// write.
struct ShardPlan {
  std::vector<LogicalPageAddr> las;
  std::vector<std::uint32_t> groups;
};

/// Mirrors the client retry backoff of the virtual engine (service.cpp).
twl::Cycles backoff_for(const twl::ServiceConfig& svc, std::uint32_t attempt) {
  const twl::Cycles base =
      svc.backoff_base_cycles == 0 ? 1 : svc.backoff_base_cycles;
  const twl::Cycles cap = std::max<twl::Cycles>(base, svc.backoff_cap_cycles);
  const std::uint32_t shift = std::min<std::uint32_t>(attempt, 20);
  const twl::Cycles b = base << shift;
  return (b >> shift) != base || b > cap ? cap : b;
}

/// The legacy engine's write order on one shard: arrivals and client
/// retries in (at, client, seq, attempt) order, each retrying with backoff
/// while a crash-recovery window is open, the rest written FIFO. The
/// windows come from the crashes, so `shard` executes the writes as they
/// are planned. Producers blocked on a full queue wake in the order they
/// parked, so the plan leaves blocking out; it models no deadlines
/// (the workload sets none) and no refusals (assess() requires none).
ShardPlan plan_legacy(const twl::ServiceConfig& svc,
                      const std::vector<Routed>& arrivals,
                      twl::ServiceShard& shard) {
  struct Retry {
    Routed r;
    std::uint32_t attempt = 0;
    [[nodiscard]] auto key() const {
      return std::tuple(r.at, r.client, r.seq, attempt);
    }
  };
  const auto later = [](const Retry& a, const Retry& b) {
    return a.key() > b.key();
  };
  std::priority_queue<Retry, std::vector<Retry>, decltype(later)> pending(
      later);
  ShardPlan plan;
  plan.las.reserve(arrivals.size());
  twl::Cycles busy_until = 0;
  twl::Cycles unavail_until = 0;
  std::size_t next = 0;
  while (next < arrivals.size() || !pending.empty()) {
    Retry e;
    if (pending.empty() ||
        (next < arrivals.size() &&
         std::tuple(arrivals[next].at, arrivals[next].client,
                    arrivals[next].seq, std::uint32_t{0}) <=
             pending.top().key())) {
      e.r = arrivals[next++];
    } else {
      e = pending.top();
      pending.pop();
    }
    const twl::Cycles t = e.r.at;
    if (t < unavail_until) {
      if (e.attempt < svc.max_retries) {
        e.r.at = t + backoff_for(svc, e.attempt);
        ++e.attempt;
        pending.push(e);
      }
      continue;
    }
    twl::Cycles completion = std::max(t, busy_until) + svc.service_cycles;
    const LogicalPageAddr la(e.r.la);
    const twl::ShardExecOutcome ex = shard.execute(la);
    plan.las.push_back(la);
    if (ex.crashed) {
      completion += ex.penalty_cycles;
      unavail_until = completion;
    }
    busy_until = completion;
  }
  return plan;
}

/// The DRR engine's drains on one shard: every arrival joins its tenant's
/// FIFO, and whenever the shard is idle the next tenant with queued work
/// (round robin) tops up its deficit by the quantum and drains up to that
/// many requests as one execute_batch group, busy service_cycles per
/// write. Without crashes no write's outcome moves the schedule, so the
/// plan needs no shard. Models neither quota refusals, retries, blocked
/// producers nor deadlines: assess() requires the engine's books to show
/// none.
ShardPlan plan_drr(const twl::ServiceConfig& svc,
                   const std::vector<Routed>& arrivals) {
  const twl::TenancyConfig& ten = svc.tenancy;
  std::vector<std::deque<std::uint32_t>> queue(ten.tenants);
  std::vector<std::uint64_t> deficit(ten.tenants, 0);
  std::uint64_t queued = 0;
  std::uint32_t rr = 0;
  bool in_drain = false;
  twl::Cycles busy_until = 0;
  ShardPlan plan;
  plan.las.reserve(arrivals.size());
  const auto start_drain = [&](twl::Cycles t) {
    std::uint32_t chosen = rr;
    for (std::uint32_t probe = 0; probe < ten.tenants; ++probe) {
      const std::uint32_t cand = (rr + probe) % ten.tenants;
      if (!queue[cand].empty()) {
        chosen = cand;
        break;
      }
    }
    std::deque<std::uint32_t>& q = queue[chosen];
    deficit[chosen] += ten.drr_quantum;
    std::uint32_t n = 0;
    while (deficit[chosen] > 0 && !q.empty()) {
      plan.las.emplace_back(q.front());
      q.pop_front();
      --queued;
      --deficit[chosen];
      ++n;
    }
    if (q.empty()) deficit[chosen] = 0;
    rr = (chosen + 1) % ten.tenants;
    plan.groups.push_back(n);
    busy_until = std::max(t, busy_until) + n * svc.service_cycles;
    in_drain = true;
  };
  std::size_t next = 0;
  while (next < arrivals.size() || in_drain) {
    // A drain's completion comes first on ties, as in the engine.
    if (in_drain &&
        (next == arrivals.size() || busy_until <= arrivals[next].at)) {
      in_drain = false;
      if (queued > 0) start_drain(busy_until);
      continue;
    }
    const Routed& a = arrivals[next++];
    queue[a.tenant].push_back(a.la);
    ++queued;
    if (!in_drain) start_drain(a.at);
  }
  return plan;
}

/// Re-appends decoded journal records until `writes` demand writes'
/// worth went through; returns the ns spent per demand write.
double journal_ns_per_write(const std::vector<twl::JournalRecord>& records,
                            std::uint64_t writes) {
  std::uint64_t per_pass = 0;
  for (const twl::JournalRecord& r : records) {
    if (r.type == twl::JournalRecordType::kWriteBegin) ++per_pass;
    if (r.type == twl::JournalRecordType::kBatchBegin) {
      per_pass += r.batch_las.size();
    }
  }
  if (per_pass == 0) return 0;
  twl::MetadataJournal journal;
  std::uint64_t done = 0;
  const std::int64_t t0 = now_ns();
  while (done < writes) {
    for (const twl::JournalRecord& r : records) {
      switch (r.type) {
        case twl::JournalRecordType::kWriteBegin:
          journal.append_write_begin(r.seq, r.la);
          break;
        case twl::JournalRecordType::kSwapIntent:
          journal.append_swap_intent(r.pa_a, r.pa_b, r.kind);
          break;
        case twl::JournalRecordType::kSwapCommit:
          journal.append_swap_commit();
          break;
        case twl::JournalRecordType::kWriteCommit:
          journal.append_write_commit(r.seq);
          break;
        case twl::JournalRecordType::kBatchBegin:
          journal.append_batch_begin(r.seq, r.batch_las.data(),
                                     r.batch_las.size());
          break;
        case twl::JournalRecordType::kBatchCommit:
          journal.append_batch_commit(r.seq, r.batch_count);
          break;
      }
    }
    done += per_pass;
    // A snapshot rotation truncates the log once per sampled window.
    journal.truncate();
  }
  return static_cast<double>(now_ns() - t0) / static_cast<double>(done);
}

class ServiceWorkload final : public Workload {
 public:
  ServiceWorkload(std::uint64_t seed, bool tenants)
      : tenants_(tenants), config_(make_config(seed)), svc_(make_service()) {}

  void setup(LayerMetrics& parts) override {
    (void)parts;
    fe_.emplace(config_, svc_);
  }

  PassResult run(Checks& checks, HostProbe& probe) override {
    twl::SimRunner runner(1);
    TimedCall call(probe);
    const twl::ServiceRunResult r = fe_->run_virtual(runner);
    const double rate = call.rate(r.totals.accepted);
    PassResult p = assess(r, false, checks);
    p.rates.push_back(rate);
    return p;
  }

  void check(const PassResult& timed, Checks& checks) override {
    // The timed passes keep no write history. One more run with
    // verify_final_state replays every shard's whole accepted history
    // through a fresh controller (no accepted write lost, scheme
    // invariants hold) and must report what the timed passes did.
    twl::ServiceConfig verified = svc_;
    verified.verify_final_state = true;
    const twl::ServiceFrontEnd fe(config_, verified);
    twl::SimRunner runner(1);
    const PassResult again = assess(fe.run_virtual(runner), true, checks);
    checks.require(again.exact == timed.exact && again.writes == timed.writes,
                   "the verified run reports the timed passes' exact "
                   "metrics");
  }

  PassResult run_traced(SpanRecorder& rec, double untraced_ns,
                        LayerMetrics& out, Checks& checks) override {
    const twl::ServiceConfig& svc = fe_->service_config();
    const twl::ShardParams params = shard_params(*fe_);
    // Made before the traced pass starts.
    const std::vector<ShardPlan> plans = plan_shards(params);

    const std::uint32_t n_engine = rec.intern("engine");
    const std::uint32_t n_fleet = rec.intern("fleet");
    const std::uint32_t n_shard = rec.intern("shard");
    const std::uint32_t n_recovery = rec.intern("recovery");
    const std::uint32_t n_journal = rec.intern("journal");
    const std::uint32_t n_snapshot = rec.intern("snapshot");
    const std::uint32_t n_obs = rec.intern("obs");
    const int root = rec.open(rec.intern("run"));

    // The measured run: the engine call itself, untraced inside.
    const int engine = rec.open(n_engine);
    twl::SimRunner runner(1);
    const twl::ServiceRunResult result = fe_->run_virtual(runner);
    rec.close(engine);
    const PassResult pass = assess(result, false, checks);

    // fleet: the client streams and routing run_virtual starts with.
    const int fleet = rec.open(n_fleet);
    const std::vector<std::vector<Routed>> routed = route_all(*fe_);
    rec.close(fleet);
    for (std::uint32_t s = 0; s < svc.shards; ++s) {
      checks.require(routed[s].size() == result.shards[s].totals.submitted,
                     "replayed routing matches run_virtual's arrivals on "
                     "shard " + std::to_string(s));
    }

    // shard: every shard's writes, in its engine's order and drains,
    // through a shard built as run_virtual builds it.
    std::uint64_t replay_writes = 0;
    std::uint64_t replay_crashes = 0;
    std::uint64_t replay_rotations = 0;
    std::uint64_t journal_records = 0;
    double snapshot_ns = 0;
    std::uint64_t snapshots = 0;
    std::vector<std::uint8_t> journal_sample;
    for (std::uint32_t s = 0; s < svc.shards; ++s) {
      twl::ServiceShard shard(fe_->config(), params, s);
      const std::vector<twl::ChaosEvent> schedule = twl::make_chaos_schedule(
          svc.chaos, params.horizon_writes,
          schedule_seed(fe_->config().seed, s));
      const auto keep_sample = [&] {
        const auto& bytes = shard.controller().journal()->bytes();
        if (bytes.size() > journal_sample.size()) journal_sample = bytes;
      };
      if (tenants_) {
        replay_batches(rec, n_shard, shard, plans[s], keep_sample);
      } else {
        replay_writes_one_by_one(rec, n_shard, n_recovery, shard, plans[s],
                                 schedule, keep_sample, checks);
      }
      const twl::ShardReport& report = result.shards[s];
      checks.require(shard.accepted() == report.totals.accepted &&
                         shard.journal_lifetime_bytes() ==
                             report.journal_bytes &&
                         shard.state_digest() == report.state_digest,
                     "replay of shard " + std::to_string(s) +
                         " ends with run_virtual's journal bytes and state "
                         "digest");
      checks.require(shard.controller().wear_leveler().invariants_hold(),
                     "replay shard scheme invariants_hold()");
      checks.require(shard.outcome().invariant_failures == 0,
                     "replay shard recovery invariants hold");
      const twl::MetadataJournal& journal = *shard.controller().journal();
      replay_writes += shard.accepted();
      replay_crashes += shard.outcome().crashes;
      replay_rotations += journal.truncations() - shard.outcome().crashes;
      journal_records += journal.total_records_appended();

      // snapshot: what one rotation persists (scheme snapshot + wear).
      const int snap = rec.open(n_snapshot);
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < 32; ++i) {
        const auto blob = twl::take_snapshot(shard.controller().wear_leveler());
        twl::SnapshotWriter w;
        shard.controller().device().save_state(w);
        checks.require(!blob.empty() && !w.take().empty(),
                       "snapshot replay produced artifacts");
      }
      snapshot_ns += static_cast<double>(now_ns() - t0);
      snapshots += 32;
      rec.close(snap);
    }

    // journal: the shards' own record mix, re-appended.
    const int jr = rec.open(n_journal);
    const double journal_ns = journal_ns_per_write(
        twl::scan_journal(journal_sample).records, replay_writes);
    rec.close(jr);

    // obs: the engine's histogram adds.
    const int ob = rec.open(n_obs);
    double hist_ns = 0;
    {
      twl::LogHistogram h;
      constexpr std::uint64_t kAdds = 1 << 22;
      const std::int64_t t0 = now_ns();
      for (std::uint64_t i = 0; i < kAdds; ++i) {
        h.add(kServiceCycles + (i * 2654435761ULL) % 16384);
      }
      hist_ns = static_cast<double>(now_ns() - t0) / kAdds;
      checks.require(h.count() == kAdds, "histogram replay counted its adds");
    }
    rec.close(ob);
    rec.close(root);

    // Raw span accounting: layers plus unattributed make the total.
    const LayerTimes lt = layer_times(rec, root);
    double raw_sum = lt.unattributed_ns;
    for (const auto& [name, ns] : lt.self_ns) raw_sum += ns;
    checks.require(std::abs(raw_sum - lt.total_ns) <= 1e-6 * lt.total_ns,
                   "layer self times plus unattributed sum to the traced "
                   "total");
    const auto span_ns = [&](const char* name) {
      const auto it = lt.self_ns.find(name);
      return it == lt.self_ns.end() ? 0.0 : it->second;
    };

    // Per-unit costs, then run_virtual's composition from its own counts.
    const double submitted = static_cast<double>(result.totals.submitted);
    const double accepted = static_cast<double>(result.totals.accepted);
    const double engine_ns = span_ns("engine");
    const double recovery_per_crash =
        ratio(span_ns("recovery"), static_cast<double>(replay_crashes));
    const double rotation_ns = ratio(snapshot_ns, static_cast<double>(snapshots));
    const double replay_w = static_cast<double>(replay_writes);
    const double shard_self_per_write = std::max(
        0.0, ratio(span_ns("shard") - journal_ns * replay_w -
                       rotation_ns * static_cast<double>(replay_rotations),
                   replay_w));
    double adds = 0;
    for (const char* h :
         {"service.request_latency_cycles", "service.queue_depth"}) {
      if (const auto* hist = result.metrics.find_histogram(h)) {
        adds += static_cast<double>(hist->count());
      }
    }
    std::map<std::string, double> est = {
        {"fleet", span_ns("fleet")},
        {"shard", shard_self_per_write * accepted},
        {"journal", journal_ns * accepted},
        {"snapshot", rotation_ns * static_cast<double>(replay_rotations) *
                         ratio(accepted, replay_w)},
        {"recovery", recovery_per_crash *
                         static_cast<double>(result.chaos_totals.crashes)},
        {"obs", hist_ns * adds},
    };
    double covered = 0;
    for (const auto& [name, ns] : est) covered += ns;
    // The replays run after the engine call, so host noise can make them
    // add up to more than it: the engine's share then reads 0.
    est["engine"] = std::max(0.0, engine_ns - covered);
    for (const auto& [name, ns] : est) {
      out[name + ".share_pct"] = 100.0 * ns / engine_ns;
    }

    out["fleet.stream_ns_per_req"] = span_ns("fleet") / submitted;
    out["shard.ns_per_write"] = shard_self_per_write;
    out["journal.ns_per_write"] = journal_ns;
    out["journal.records_per_write"] =
        ratio(static_cast<double>(journal_records), replay_w);
    out["snapshot.ns_per_write"] =
        rotation_ns * ratio(static_cast<double>(replay_rotations), replay_w);
    out["snapshot.rotations"] = static_cast<double>(replay_rotations);
    out["recovery.ms_per_crash"] = recovery_per_crash * 1e-6;
    out["recovery.replayed_writes"] =
        static_cast<double>(result.chaos_totals.replayed_writes);
    out["recovery.invariant_failures"] =
        static_cast<double>(result.chaos_totals.invariant_failures);
    out["chaos.events"] = static_cast<double>(result.chaos_totals.crashes);
    out["engine.ns_per_req"] = est["engine"] / submitted;
    out["obs.ns_per_hist_add"] = hist_ns;
    out["service.shed"] = static_cast<double>(result.totals.shed_overflow +
                                              result.totals.shed_unavailable);
    out["service.quota_shed"] = static_cast<double>(result.totals.quota_shed);
    out["service.timed_out"] = static_cast<double>(result.totals.timed_out);
    out["service.retries"] = static_cast<double>(result.totals.retries);
    std::uint64_t peak = 0;
    for (const twl::ShardReport& s : result.shards) {
      peak = std::max(peak, s.peak_queue_depth);
    }
    out["service.peak_queue_depth"] = static_cast<double>(peak);
    double min_accept = ratio(accepted, submitted);
    for (const twl::TenantReport& t : result.tenants) {
      min_accept = std::min(min_accept,
                            ratio(static_cast<double>(t.totals.accepted),
                                  static_cast<double>(t.totals.submitted)));
    }
    out["tenant.min_accept_ratio"] = min_accept;
    out["tracing.overhead_pct"] =
        100.0 * (engine_ns - untraced_ns) / untraced_ns;
    out["tracing.unattributed_pct"] = 100.0 * lt.unattributed_ns / lt.total_ns;
    return pass;
  }

 private:
  twl::Config make_config(std::uint64_t seed) const {
    twl::SimScale scale;
    scale.pages = kShardPages;
    scale.endurance_mean = kShardEndurance;
    scale.seed = seed;
    return twl::Config::scaled(scale);
  }

  twl::ServiceConfig make_service() const {
    twl::ServiceConfig s;
    s.shards = 4;
    s.scheme_spec = "TWL";
    s.service_cycles = kServiceCycles;
    // Producers wait out full queues, and clients retry through a whole
    // crash-recovery window (quarantine + recovery + replay of up to two
    // snapshot intervals), so no request is refused: every write the
    // clients offer is accepted and the books stay exact.
    s.overflow = twl::OverflowPolicy::kBlock;
    s.max_retries = 48;
    // 32 open-loop zipf clients. Each client scatters its hot pages with
    // its own permutation, so a shard's share of the traffic is an
    // average over the clients: with 4 clients the hottest shard drew up
    // to 1.4x the mean, and the seed decided whether its arrival vector
    // grew once more (peak_rss_mb +30%) and how far p99 went past the
    // 2048-cycle octave edge (+35%). With 32 it draws at most 1.2x (1.5x
    // on `tenants`, whose hostile tenant writes a few pages). The offered
    // load keeps p99 inside the well-filled 1024-2048 octave even on the
    // hottest shard. Request counts are sized so that the hottest shard's
    // arrival vector makes its last doubling early in arrival generation
    // on every seed: the copy it makes then stays below the memory the
    // finished arrivals hold, and peak_rss_mb does not depend on how far
    // along generation the doubling fell (README.md, "Request counts").
    s.clients = 32;
    if (!tenants_) {
      // 3M requests at 25% of each shard's service rate on average.
      s.requests_per_client = 93750;
      s.mean_gap_cycles = 19200;
      // About 15 crashes per shard. More frequent crashes push p99 into
      // the recovery windows, where it moves with the seed's crash count.
      s.chaos.mean_interval_writes = 50000;
      s.chaos.corruption = true;
    } else {
      // 1.26M requests at 20% of each shard's service rate on average.
      // Clients map to tenants by c % tenants, so each of the 8 tenants
      // gets 4 clients; fewer clients than tenants would leave tenants
      // without traffic.
      s.requests_per_client = 39375;
      s.mean_gap_cycles = 24000;
      s.tenancy.tenants = 8;
      s.tenancy.blend = twl::TenantBlend::kHostile;
      // 1 token per 1000 cycles per (tenant, shard) against at most 0.17
      // per 1000 cycles offered (a tenant's 4 clients, one request per
      // 24000 cycles each, all on one shard): the bucket is consulted on
      // every request but refuses none.
      s.tenancy.quota_rate = 1;
      s.tenancy.quota_burst = 16;
      s.tenancy.drr_quantum = 16;
    }
    return s;
  }

  /// Checks one run_virtual result and turns it into a pass. `verified`:
  /// the run kept and replayed every shard's write history.
  PassResult assess(const twl::ServiceRunResult& r, bool verified,
                    Checks& checks) const {
    const twl::ServiceTotals& t = r.totals;
    checks.require(t.accounting_exact(),
                   "books balance in aggregate (accepted + shed + quota_shed "
                   "+ timed_out == submitted)");
    checks.require(t.submitted == svc_.clients * svc_.requests_per_client,
                   "every offered request was submitted");
    for (const twl::ShardReport& s : r.shards) {
      checks.require(s.totals.accounting_exact(),
                     "books balance on shard " + std::to_string(s.shard));
      if (verified) {
        checks.require(s.history_verified,
                       "shard " + std::to_string(s.shard) +
                           " passes the whole-history replay (no accepted "
                           "write lost, scheme invariants hold)");
      }
      // What the traced replay's plans leave out must not happen (its
      // journal and digest check catches any other drift).
      checks.require(s.totals.accepted == s.totals.submitted &&
                         (!tenants_ ||
                          (s.totals.retries == 0 && s.totals.blocked == 0)),
                     "shard " + std::to_string(s.shard) +
                         (tenants_ ? " accepted every request at once"
                                   : " accepted every request"));
      checks.require(s.directory_verified,
                     "tenant directory survives on shard " +
                         std::to_string(s.shard));
    }
    for (const twl::TenantReport& tr : r.tenants) {
      checks.require(tr.totals.accounting_exact(),
                     "books balance for tenant " + std::to_string(tr.tenant));
    }
    if (tenants_) {
      checks.require(r.tenants.size() == svc_.tenancy.tenants,
                     "every tenant reported");
    }
    checks.require(r.chaos_totals.invariant_failures == 0,
                   "every crash recovery passes the recovery invariants");

    PassResult p;
    p.writes = t.accepted;
    p.attempted = t.submitted;
    p.failed = t.shed_overflow + t.shed_unavailable + t.quota_shed +
               t.timed_out;
    std::uint64_t journal_bytes = 0;
    for (const twl::ShardReport& s : r.shards) journal_bytes += s.journal_bytes;
    p.exact.accepted_ratio = ratio(static_cast<double>(t.accepted),
                                   static_cast<double>(t.submitted));
    p.exact.swap_ratio = ratio(
        static_cast<double>(r.metrics.counter_value("controller.extra_writes")),
        static_cast<double>(
            r.metrics.counter_value("controller.demand_writes")));
    p.exact.sim_p50_cycles = r.latency_p50;
    p.exact.sim_p99_cycles = r.latency_p99;
    p.exact.journal_bytes_per_write =
        ratio(static_cast<double>(journal_bytes),
              static_cast<double>(t.accepted));
    return p;
  }

  /// The replay's input: each shard's writes in the order, and the calls,
  /// its engine makes. The legacy engine's order follows the crash
  /// windows, so planning it writes every request through a shard of its
  /// own.
  std::vector<ShardPlan> plan_shards(const twl::ShardParams& params) const {
    std::vector<std::vector<Routed>> arrivals = route_all(*fe_);
    sort_arrivals(arrivals);
    std::vector<ShardPlan> plans;
    for (std::uint32_t s = 0; s < svc_.shards; ++s) {
      if (tenants_) {
        plans.push_back(plan_drr(svc_, arrivals[s]));
      } else {
        twl::ServiceShard planner(fe_->config(), params, s);
        plans.push_back(plan_legacy(svc_, arrivals[s], planner));
      }
    }
    return plans;
  }

  /// Service replay: one execute() per planned write, with a "recovery"
  /// span around each write the chaos schedule crashes.
  template <typename Sample>
  void replay_writes_one_by_one(SpanRecorder& rec, std::uint32_t n_shard,
                                std::uint32_t n_recovery,
                                twl::ServiceShard& shard,
                                const ShardPlan& plan,
                                const std::vector<twl::ChaosEvent>& schedule,
                                const Sample& keep_sample, Checks& checks) {
    const std::vector<LogicalPageAddr>& las = plan.las;
    std::size_t cursor = 0;
    bool crashes_match = true;
    for (std::size_t i = 0; i < las.size();) {
      const int b = rec.open(n_shard);
      const std::size_t end = std::min(las.size(), i + kShardBlock);
      for (; i < end; ++i) {
        if (cursor < schedule.size() &&
            schedule[cursor].at_write <= shard.accepted() + 1) {
          ++cursor;
          const int r = rec.open(n_recovery);
          const twl::ShardExecOutcome ex = shard.execute(las[i]);
          rec.close(r);
          crashes_match = crashes_match && ex.crashed;
        } else {
          crashes_match = crashes_match && !shard.execute(las[i]).crashed;
        }
      }
      rec.close(b);
      keep_sample();
    }
    checks.require(crashes_match,
                   "replay shard crashes where its chaos schedule says");
  }

  /// Tenant replay: one execute_batch() per planned DRR drain, spans
  /// closing at the first drain boundary past kShardBlock writes.
  template <typename Sample>
  void replay_batches(SpanRecorder& rec, std::uint32_t n_shard,
                      twl::ServiceShard& shard, const ShardPlan& plan,
                      const Sample& keep_sample) {
    const LogicalPageAddr* next = plan.las.data();
    std::size_t g = 0;
    while (g < plan.groups.size()) {
      const int b = rec.open(n_shard);
      for (std::size_t done = 0;
           done < kShardBlock && g < plan.groups.size(); ++g) {
        shard.execute_batch(next, plan.groups[g]);
        next += plan.groups[g];
        done += plan.groups[g];
      }
      rec.close(b);
      keep_sample();
    }
  }

  bool tenants_;
  twl::Config config_;
  twl::ServiceConfig svc_;
  std::optional<twl::ServiceFrontEnd> fe_;
};

}  // namespace

std::unique_ptr<Workload> make_service(std::uint64_t seed) {
  return std::make_unique<ServiceWorkload>(seed, false);
}

std::unique_ptr<Workload> make_tenants(std::uint64_t seed) {
  return std::make_unique<ServiceWorkload>(seed, true);
}

}  // namespace perfbench
