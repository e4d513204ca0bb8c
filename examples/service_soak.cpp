// Service soak walkthrough: the sharded front-end serving live client
// traffic, optionally under chaos injection, with every robustness claim
// checked end to end:
//  * terminal accounting is exact (accepted + shed + timed_out ==
//    submitted, per shard and in aggregate);
//  * every injected crash recovered with the five recovery invariants
//    intact and zero accepted-write loss (whole-history replay);
//  * the virtual-time run is byte-identical at --jobs 1 and --jobs 4.
// Exits 0 only when all of it holds — CI runs `service_soak --chaos`.
//
//   ./service_soak [--chaos] [--shards N] [--clients N] [--seed S]
//
// Tenant mode (--tenants N > 1) additionally checks the per-tenant
// terminal books and the directory surviving recovery on every shard.
#include <algorithm>
#include <string>

#include "analysis/report.h"
#include "common/cli.h"
#include "common/config.h"
#include "device/factory.h"
#include "common/sim_runner.h"
#include "obs/report.h"
#include "service/service.h"

namespace {

constexpr const char kUsage[] =
    "usage: service_soak [flags]\n"
    "  Soak the sharded service front-end and verify accounting,\n"
    "  recovery invariants and --jobs byte-identity.\n"
    "  --chaos          inject crash/corruption chaos while serving\n"
    "  --shards N       controller shards (default 4)\n"
    "  --clients N      concurrent clients (default max(4, tenants))\n"
    "  --tenants N      tenant count (default 1; > 1 engages tenant mode)\n"
    "  --tenant-blend B uniform (default), hostile or hammer\n"
    "  --quota-pages N  per-tenant per-shard page budget (0 = equal split)\n"
    "  --quota-rate N   per-tenant write-rate quota, tokens per 1000\n"
    "                   cycles per shard (0 = unlimited)\n"
    "  --requests N     requests per client (default 4096)\n"
    "  --pages N        scaled device size in pages (default 64)\n"
    "  --seed S         RNG seed (default 20170618)\n"
    "  --format F       report format: text (default), json, csv\n"
    "  --out FILE       write the report to FILE instead of stdout\n"
    "  --device B             storage backend: pcm (default), nor, hybrid\n"
    "  --nor-block-pages N    NOR erase-block size in pages (default 16)\n"
    "  --hybrid-cache-pages N  hybrid DRAM cache capacity in pages "
    "(default 64)\n"
    "  --hybrid-ways N        hybrid cache associativity (default 4)\n"
    "  --help           show this message\n";

int run_impl(const twl::CliArgs& args) {
  using namespace twl;

  SimScale scale;
  scale.pages = args.get_uint_or("pages", 64);
  scale.endurance_mean = 1e6;  // Chaos, not wear-out, is today's threat.
  scale.seed = args.get_uint_or("seed", 20170618);
  Config config = Config::scaled(scale);
  apply_device_flag(args, config);

  ServiceConfig service;
  service.tenancy.tenants = args.get_u32_or("tenants", 1);
  service.tenancy.blend =
      parse_tenant_blend(args.get_or("tenant-blend", "uniform"));
  service.tenancy.quota_pages = args.get_uint_or("quota-pages", 0);
  service.tenancy.quota_rate = args.get_uint_or("quota-rate", 0);
  service.shards = args.get_u32_or("shards", 4);
  service.clients = args.get_u32_or(
      "clients", std::max<std::uint32_t>(4, service.tenancy.tenants));
  service.requests_per_client = args.get_uint_or("requests", 4096);
  service.queue_capacity = 64;
  // Paced arrivals with blocking back-pressure: the soak's claim is that
  // nearly every request commits *through* the chaos, not that an
  // unserviceable flood is shed correctly (the tests cover that).
  service.overflow = OverflowPolicy::kBlock;
  service.mean_gap_cycles = 900;
  if (args.get_bool_or("chaos", false)) {
    service.chaos.mean_interval_writes = 96;
    service.chaos.corruption = true;
  }
  service.verify_final_state = true;

  ReportBuilder rep("service_soak",
                    parse_report_format(args.get_or("format", "text")),
                    args.get_or("out", ""));
  args.reject_unconsumed();
  rep.begin_report("Service soak: sharded front-end under load");
  rep.raw_text(heading("Service soak: sharded front-end under load"));
  rep.config_entry("pages", scale.pages);
  rep.config_entry("seed", scale.seed);
  rep.config_entry("shards", service.shards);
  rep.config_entry("clients", service.clients);
  rep.config_entry("requests_per_client", service.requests_per_client);
  rep.config_entry("chaos", service.chaos.enabled());
  if (service.tenancy.active()) {
    rep.config_entry("tenants", service.tenancy.tenants);
    rep.config_entry("tenant_blend", to_string(service.tenancy.blend));
    rep.config_entry("quota_pages", service.tenancy.quota_pages);
    rep.config_entry("quota_rate", service.tenancy.quota_rate);
  }

  const ServiceFrontEnd fe(config, service);
  rep.note(strfmt(
      "%u clients x %llu requests over %u shards (%llu global pages)%s\n\n",
      service.clients,
      static_cast<unsigned long long>(service.requests_per_client),
      service.shards, static_cast<unsigned long long>(fe.global_pages()),
      service.chaos.enabled() ? ", chaos every ~96 writes (+corruption)"
                              : ""));

  // 1. The serial run: the reference universe.
  SimRunner serial(1);
  const ServiceRunResult r = fe.run_virtual(serial);

  TextTable table;
  table.add_row({"shard", "health", "accepted", "shed", "retries",
                 "crashes", "recovered", "inv-fail", "replay-ok",
                 "digest"});
  for (const ShardReport& s : r.shards) {
    table.add_row({std::to_string(s.shard),
                   s.dead ? "dead" : to_string(s.final_health),
                   std::to_string(s.totals.accepted),
                   std::to_string(s.totals.shed_overflow +
                                  s.totals.shed_unavailable),
                   std::to_string(s.totals.retries),
                   std::to_string(s.outcome.crashes),
                   std::to_string(s.outcome.recoveries),
                   std::to_string(s.outcome.invariant_failures),
                   s.history_verified ? "yes" : "NO",
                   strfmt("%08x", s.state_digest)});
  }
  rep.table("soak", table);

  if (!r.tenants.empty()) {
    TextTable tt;
    tt.add_row({"tenant", "pages", "submitted", "accepted", "shed",
                "quota-shed", "timeout", "books"});
    for (const TenantReport& t : r.tenants) {
      tt.add_row({std::to_string(t.tenant), std::to_string(t.pages),
                  std::to_string(t.totals.submitted),
                  std::to_string(t.totals.accepted),
                  std::to_string(t.totals.shed_overflow +
                                 t.totals.shed_unavailable),
                  std::to_string(t.totals.quota_shed),
                  std::to_string(t.totals.timed_out),
                  t.totals.accounting_exact() ? "exact" : "BROKEN"});
    }
    rep.table("tenants", tt);
  }

  // 2. The same universe at --jobs 4 must be byte-identical.
  SimRunner parallel(4);
  const ServiceRunResult r4 = fe.run_virtual(parallel);
  const bool jobs_identical = r == r4;

  // 3. The robustness checklist.
  const bool accounting_ok = [&] {
    if (!r.totals.accounting_exact()) return false;
    for (const ShardReport& s : r.shards) {
      if (!s.totals.accounting_exact()) return false;
      for (const TenantReport& t : s.tenants) {
        if (!t.totals.accounting_exact()) return false;
      }
    }
    for (const TenantReport& t : r.tenants) {
      if (!t.totals.accounting_exact()) return false;
    }
    return true;
  }();
  const bool directory_ok = [&] {
    for (const ShardReport& s : r.shards) {
      if (!s.directory_verified) return false;
    }
    return true;
  }();
  const bool recovered_all =
      r.chaos_totals.recoveries == r.chaos_totals.crashes &&
      r.chaos_totals.invariant_failures == 0;
  const bool no_loss = [&] {
    for (const ShardReport& s : r.shards) {
      if (!s.history_verified) return false;
    }
    return true;
  }();
  const bool chaos_fired =
      !service.chaos.enabled() || r.chaos_totals.crashes > 0;

  rep.note(strfmt(
      "\naccounting: %llu submitted = %llu accepted + %llu shed + %llu "
      "timed out (%s)\n"
      "chaos: %llu crashes, %llu recovered, %llu rollbacks, %llu snapshot "
      "fallbacks, %llu invariant failures\n"
      "accepted-history replay: %s; --jobs 1 vs 4: %s; digest %08x\n",
      static_cast<unsigned long long>(r.totals.submitted),
      static_cast<unsigned long long>(r.totals.accepted),
      static_cast<unsigned long long>(r.totals.shed_overflow +
                                      r.totals.shed_unavailable +
                                      r.totals.quota_shed),
      static_cast<unsigned long long>(r.totals.timed_out),
      accounting_ok ? "exact" : "BROKEN",
      static_cast<unsigned long long>(r.chaos_totals.crashes),
      static_cast<unsigned long long>(r.chaos_totals.recoveries),
      static_cast<unsigned long long>(r.chaos_totals.rollbacks),
      static_cast<unsigned long long>(r.chaos_totals.snapshot_fallbacks),
      static_cast<unsigned long long>(r.chaos_totals.invariant_failures),
      no_loss ? "zero loss" : "LOSS DETECTED",
      jobs_identical ? "identical" : "MISMATCH", r.service_digest));

  rep.scalar("crashes", static_cast<double>(r.chaos_totals.crashes));
  rep.scalar("invariant_failures",
             static_cast<double>(r.chaos_totals.invariant_failures));
  rep.scalar("accounting_exact", accounting_ok ? 1.0 : 0.0);
  rep.scalar("history_verified", no_loss ? 1.0 : 0.0);
  rep.scalar("jobs_identical", jobs_identical ? 1.0 : 0.0);
  rep.scalar("latency_p50", r.latency_p50);
  rep.scalar("latency_p99", r.latency_p99);
  if (service.tenancy.active()) {
    rep.scalar("quota_shed", static_cast<double>(r.totals.quota_shed));
    rep.scalar("directory_verified", directory_ok ? 1.0 : 0.0);
  }
  rep.finish();

  return accounting_ok && recovered_all && no_loss && jobs_identical &&
                 chaos_fired && directory_ok
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return twl::run_cli_main(argc, argv, kUsage, run_impl);
}
