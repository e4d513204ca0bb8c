#include "service/virtual_engine.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <utility>

#include "common/sim_runner.h"

namespace twl {

namespace {

constexpr Cycles kNoLimit = std::numeric_limits<Cycles>::max();

/// Stable LSD radix sort of `buf` by `at - start`, one byte per pass,
/// over the bytes the largest offset needs. A pass whose byte all
/// arrivals share moves nothing and is skipped.
void sort_by_time(std::vector<Arrival>& buf, std::vector<Arrival>& scratch,
                  Cycles start) {
  const std::size_t n = buf.size();
  if (n < 2) return;
  Cycles span = 0;
  for (const Arrival& a : buf) span = std::max(span, a.at - start);
  scratch.resize(n);
  for (unsigned shift = 0; shift < 64 && (span >> shift) != 0; shift += 8) {
    const auto digit = [start, shift](const Arrival& a) {
      return static_cast<std::size_t>(((a.at - start) >> shift) & 0xFF);
    };
    std::array<std::size_t, 256> count{};
    for (const Arrival& a : buf) ++count[digit(a)];
    if (count[digit(buf.front())] == n) continue;
    std::size_t sum = 0;
    for (std::size_t& c : count) sum += std::exchange(c, sum);
    for (const Arrival& a : buf) scratch[count[digit(a)]++] = a;
    buf.swap(scratch);
  }
}

}  // namespace

ClientSeeds client_seeds(std::uint64_t service_seed, std::uint32_t client) {
  SplitMix64 mix(service_seed ^ (0xC11E'A5E0'0000'0000ULL + client));
  ClientSeeds s;
  s.workload = mix.next();
  s.gap = mix.next();
  return s;
}

Cycles backoff_for(const ServiceConfig& cfg, std::uint32_t attempt) {
  const Cycles base = cfg.backoff_base_cycles == 0 ? 1
                                                   : cfg.backoff_base_cycles;
  const Cycles cap = std::max<Cycles>(base, cfg.backoff_cap_cycles);
  const std::uint32_t shift = std::min<std::uint32_t>(attempt, 20);
  const Cycles b = base << shift;
  return (b >> shift) != base || b > cap ? cap : b;
}

Cycles arrival_window_cycles(const ServiceConfig& service) {
  constexpr Cycles kWindowArrivals = 8192;
  const Cycles gap = std::max<Cycles>(service.mean_gap_cycles, 1);
  const Cycles per_client =
      gap > kNoLimit / kWindowArrivals ? kNoLimit : kWindowArrivals * gap;
  return std::max<Cycles>(1, per_client / service.clients);
}

// ---------------------------------------------------------------------------
// ArrivalGenerator.

ArrivalGenerator::ArrivalGenerator(const ServiceFrontEnd& fe) : fe_(fe) {
  const ServiceConfig& svc = fe.service_;
  cursors_.reserve(svc.clients);
  for (std::uint32_t c = 0; c < svc.clients; ++c) {
    cursors_.push_back(Cursor{
        fe.client_stream(c),
        XorShift64Star(client_seeds(fe.config_.seed, c).gap),
        c % fe.directory_.tenant_count(), 0, svc.requests_per_client});
    step(cursors_.back());
  }
  live_ = svc.clients;
}

void ArrivalGenerator::step(Cursor& c) const {
  const Cycles mean = fe_.service_.mean_gap_cycles;
  c.next_at += mean == 0 ? 1 : 1 + c.gap_rng.next_below(2 * mean - 1);
}

void ArrivalGenerator::fill(Cycles horizon,
                            std::vector<std::vector<Arrival>>& per_shard) {
  assert(horizon >= start_);
  for (std::vector<Arrival>& buf : per_shard) buf.clear();
  const TenantDirectory& directory = fe_.directory_;
  const ShardingPolicy sharding = fe_.service_.sharding;
  for (std::uint32_t c = 0; c < cursors_.size(); ++c) {
    Cursor& cur = cursors_[c];
    while (cur.remaining > 0 && cur.next_at < horizon) {
      const auto [shard, local] =
          directory.translate(cur.tenant, cur.stream.next().value(), sharding);
      per_shard[shard].push_back(Arrival{cur.next_at, c, local});
      if (--cur.remaining == 0) {
        --live_;
      } else {
        step(cur);
      }
    }
  }
  for (std::vector<Arrival>& buf : per_shard) {
    sort_by_time(buf, scratch_, start_);
  }
  start_ = horizon;
}

// ---------------------------------------------------------------------------
// ShardEngine.

ShardEngine::ShardEngine(const ServiceFrontEnd& fe, std::uint32_t shard)
    : fe_(fe),
      svc_(fe.service_),
      shard_(fe.config_, fe.shard_params(), shard),
      drr_(svc_.tenancy.active()),
      latency_hist_(&metrics_.histogram("service.request_latency_cycles")),
      depth_hist_(&metrics_.histogram("service.queue_depth")),
      books_(fe.directory_.tenant_count()),
      buckets_(fe.directory_.tenant_count(),
               TokenBucket(svc_.tenancy.quota_rate, svc_.tenancy.quota_burst)),
      tenant_q_(fe.directory_.tenant_count()),
      deficit_(fe.directory_.tenant_count(), 0) {
  tenant_of_.reserve(svc_.clients);
  for (std::uint32_t c = 0; c < svc_.clients; ++c) {
    tenant_of_.push_back(c % fe.directory_.tenant_count());
  }
}

std::optional<Cycles> ShardEngine::next_event() const {
  std::optional<Cycles> t;
  if (!pending_.empty()) t = pending_.top().at;
  if (in_drain_ && (!t || drain_done_ < *t)) t = drain_done_;
  return t;
}

std::uint64_t ShardEngine::advance(std::span<const Arrival> window,
                                   std::optional<Cycles> horizon) {
  const std::uint64_t accepted_before = shard_.accepted();
  const auto before_horizon = [&horizon](Cycles t) {
    return !horizon || t < *horizon;
  };
  std::size_t next = 0;
  for (;;) {
    if (in_drain_) {
      // The drain completion fires first on ties so waiters parked at
      // drain_done observe the freed queue capacity.
      const bool completion_first =
          (next == window.size() || drain_done_ <= window[next].at) &&
          (pending_.empty() || drain_done_ <= pending_.top().at);
      if (completion_first) {
        if (!before_horizon(drain_done_)) break;
        in_drain_ = false;
        in_service_ = 0;
        if (queued_total_ > 0) start_drain(drain_done_);
        continue;
      }
    }
    // Every arrival of the window lies before the horizon, so a pending
    // event ahead of the next one does too.
    if (next < window.size() &&
        (pending_.empty() ||
         std::tuple(window[next].at, window[next].client, window[next].at,
                    std::uint32_t{0}) <= pending_.top().key())) {
      const Arrival& a = window[next++];
      const TenantId tenant = tenant_of_[a.client];
      ++books_[tenant].submitted;
      serve(Event{a.at, a.at, a.client, 0, a.la, tenant});
      continue;
    }
    if (pending_.empty() || !before_horizon(pending_.top().at)) break;
    Event e = pending_.top();
    pending_.pop();
    if (e.parked) {
      --parked_;
      e.parked = false;
    }
    serve(e);
  }
  assert(next == window.size());
  return shard_.accepted() - accepted_before;
}

void ShardEngine::serve(Event e) {
  const Cycles t = e.at;
  ServiceTotals& book = books_[e.tenant];
  while (!outstanding_.empty() && outstanding_.front() <= t) {
    outstanding_.pop_front();
  }
  // Discipline point 1: FIFO counts the writes not yet completed; DRR
  // the requests queued across all tenants plus the drain in flight.
  const std::uint64_t depth =
      drr_ ? queued_total_ + in_service_ : outstanding_.size();
  const Cycles deadline = svc_.deadline_cycles;
  const Cycles deadline_abs =
      deadline == 0 ? 0 : sat_add_u64(e.submit, deadline);

  // A request whose deadline already passed — while it waited out a
  // backoff or a blocked queue — is a timeout, not a shed.
  if (deadline != 0 && t > deadline_abs) {
    ++book.timed_out;
    return;
  }

  // Quota gate: the tenant's token-bucket write-rate limit, charged
  // once per request (retries and blocked waits don't re-pay).
  // Rejection is a terminal policy outcome — no retry.
  if (!e.quota_paid) {
    if (!buckets_[e.tenant].try_take(t)) {
      ++book.quota_shed;
      return;
    }
    e.quota_paid = true;
  }

  // Health gate: quarantined (crash window) or dead (retirement
  // exhausted) shards admit nothing; clients retry with bounded
  // exponential backoff, then shed with an error.
  if (shard_.dead() || t < unavail_until_) {
    if (!shard_.dead() && e.attempt < svc_.max_retries) {
      ++book.retries;
      e.at = t + backoff_for(svc_, e.attempt);
      ++e.attempt;
      pending_.push(e);
    } else {
      ++book.shed_unavailable;
    }
    return;
  }

  // Back-pressure gate: the bounded queue is full.
  if (depth >= svc_.queue_capacity) {
    if (svc_.overflow == OverflowPolicy::kBlock) {
      ++book.blocked;
      if (drr_) {
        // Discipline point 2: park until the active drain completes;
        // capacity can only free then. drain_done > t here because
        // completions fire first on ties, so the waiter always makes
        // progress.
        e.at = in_drain_ ? drain_done_ : t + 1;
      } else {
        // The producer waits for a projected slot: the i-th waiter
        // needs i+1 completions, which land at the queued completion
        // times and then every service_cycles once the queue drains
        // FIFO. Waking each waiter at its own slot (instead of waking
        // the whole backlog at the next completion) keeps the engine
        // linear; a waiter that wakes while the queue is still full — a
        // crash penalty shifted the schedule — simply re-parks at a
        // fresh estimate.
        const std::uint64_t slot = parked_;
        e.at = slot < depth
                   ? outstanding_[static_cast<std::size_t>(slot)]
                   : busy_until_ + svc_.service_cycles * (slot - depth + 1);
      }
      e.parked = true;
      ++parked_;
      pending_.push(e);
    } else if (e.attempt < svc_.max_retries) {
      ++book.retries;
      e.at = t + backoff_for(svc_, e.attempt);
      ++e.attempt;
      pending_.push(e);
    } else {
      ++book.shed_overflow;
    }
    return;
  }

  // Discipline point 3: admission.
  if (drr_) {
    // Join the tenant's FIFO; a DRR drain picks it up.
    tenant_q_[e.tenant].push_back(Queued{e.submit, e.la});
    ++queued_total_;
  } else {
    // Execute now, FIFO behind the writes already outstanding.
    Cycles completion = std::max(t, busy_until_) + svc_.service_cycles;
    if (deadline != 0 && completion > deadline_abs) {
      // Would miss its deadline even if nothing goes wrong: reject now
      // instead of burning device writes on a dead-on-arrival request.
      ++book.timed_out;
      return;
    }
    const ShardExecOutcome ex = shard_.execute(LogicalPageAddr(e.la));
    if (ex.crashed) {
      completion += ex.penalty_cycles;
      unavail_until_ = completion;
      if (deadline != 0 && completion > deadline_abs) {
        ++book.deadline_overruns;
      }
    }
    ++book.accepted;
    latency_hist_->add(completion - e.submit);
    busy_until_ = completion;
    outstanding_.push_back(completion);
  }
  depth_hist_->add(depth + 1);
  peak_depth_ = std::max(peak_depth_, depth + 1);
  if (drr_ && !in_drain_) start_drain(t);
}

void ShardEngine::start_drain(Cycles t) {
  const auto tenant_count = static_cast<std::uint32_t>(tenant_q_.size());
  const Cycles deadline = svc_.deadline_cycles;
  // Loops only while selected batches come up empty (all expired).
  while (queued_total_ > 0 && !shard_.dead()) {
    std::uint32_t chosen = rr_;
    for (std::uint32_t probe = 0; probe < tenant_count; ++probe) {
      const std::uint32_t cand = (rr_ + probe) % tenant_count;
      if (!tenant_q_[cand].empty()) {
        chosen = cand;
        break;
      }
    }
    std::deque<Queued>& q = tenant_q_[chosen];
    ServiceTotals& book = books_[chosen];
    deficit_[chosen] += svc_.tenancy.drr_quantum;
    submits_.clear();
    las_.clear();
    while (deficit_[chosen] > 0 && !q.empty()) {
      const Queued item = q.front();
      q.pop_front();
      --queued_total_;
      if (deadline != 0 && t > sat_add_u64(item.submit, deadline)) {
        // Expired while queued — a timeout, not charged to the tenant's
        // deficit.
        ++book.timed_out;
        continue;
      }
      submits_.push_back(item.submit);
      las_.push_back(LogicalPageAddr(item.la));
      --deficit_[chosen];
    }
    if (q.empty()) deficit_[chosen] = 0;  // DRR: an idle tenant forfeits.
    rr_ = (chosen + 1) % tenant_count;
    if (las_.empty()) continue;

    penalties_.resize(las_.size());
    const ShardBatchOutcome bo =
        shard_.execute_batch(las_.data(), las_.size(), penalties_.data());
    Cycles comp = std::max(t, busy_until_);
    for (std::size_t p = 0; p < las_.size(); ++p) {
      if (p >= bo.executed) {
        // The shard died mid-batch; the remainder was never written.
        ++book.shed_unavailable;
        continue;
      }
      comp += svc_.service_cycles + penalties_[p];
      if (penalties_[p] > 0) unavail_until_ = comp;
      ++book.accepted;
      latency_hist_->add(comp - submits_[p]);
      if (deadline != 0 && comp > sat_add_u64(submits_[p], deadline)) {
        ++book.deadline_overruns;
      }
    }
    busy_until_ = std::max(busy_until_, comp);
    if (bo.executed > 0) {
      in_service_ = bo.executed;
      drain_done_ = comp;
      in_drain_ = true;
      return;
    }
  }
}

void ShardEngine::finish(ShardCellResult& out) {
  assert(pending_.empty() && !in_drain_);
  // A shard that died mid-run strands whatever was still queued.
  for (std::size_t t = 0; t < tenant_q_.size(); ++t) {
    books_[t].shed_unavailable += tenant_q_[t].size();
    tenant_q_[t].clear();
  }
  out.metrics = std::move(metrics_);
  fe_.finalize_shard(shard_, books_, peak_depth_, out);
}

// ---------------------------------------------------------------------------
// ServiceFrontEnd::run_virtual.

ServiceRunResult ServiceFrontEnd::run_virtual(SimRunner& runner) const {
  const std::uint32_t shards = service_.shards;
  const Cycles length = arrival_window_cycles(service_);
  ArrivalGenerator generator(*this);
  std::vector<std::vector<Arrival>> window(shards);
  std::vector<std::optional<ShardEngine>> engines(shards);
  std::vector<ShardCellResult> cells(shards);
  Cycles horizon = 0;
  bool last = false;

  // One grid per window. A shard's engine is built in its first cell,
  // so shard construction runs in parallel too.
  std::vector<SimCell> grid;
  grid.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    grid.push_back([&, s] {
      if (!engines[s]) engines[s].emplace(*this, s);
      ShardEngine& engine = *engines[s];
      const std::uint64_t accepted = engine.advance(
          window[s], last ? std::nullopt : std::optional<Cycles>(horizon));
      if (last) engine.finish(cells[s]);
      return accepted;
    });
  }
  while (!last) {
    horizon = length > kNoLimit - horizon ? kNoLimit : horizon + length;
    generator.fill(horizon, window);
    last = generator.exhausted();
    runner.run_all(grid);
  }
  return assemble(cells);
}

}  // namespace twl
