// Service front-end bench: sharded controllers serving seeded traffic.
//
// A deterministic discrete-event run in virtual cycles. Per-shard
// tables, terminal accounting, chaos/recovery tallies and the service
// digest are identical for any --jobs value; CI diffs --jobs 1 against
// --jobs N.
#include <string>

#include "analysis/report.h"
#include "bench_common.h"
#include "common/sim_runner.h"
#include "obs/metrics.h"
#include "service/service.h"

namespace {

constexpr const char kUsage[] =
    "usage: bench_service [flags]\n"
    "  Resilient service front-end: sharded controllers with\n"
    "  back-pressure, deadlines, retries and chaos recovery.\n"
    "  --shards N       controller shards (default 4)\n"
    "  --clients N      concurrent clients (default 4)\n"
    "  --requests N     requests per client (default 262144)\n"
    "  --scheme SPEC    wear-leveling scheme spec (default TWL)\n"
    "  --sharding P     hash (default) or modulo\n"
    "  --overflow P     shed (default) or block\n"
    "  --capacity N     per-shard queue capacity (default 256)\n"
    "  --deadline C     per-request deadline in cycles (0 = none)\n"
    "  --gap C          mean client inter-arrival gap (0 = closed loop)\n"
    "  --tenants N      tenant count (default 1; > 1 engages tenant mode)\n"
    "  --tenant-blend B uniform (default), hostile or hammer\n"
    "  --quota-pages N  per-tenant per-shard page budget (0 = equal split)\n"
    "  --quota-rate N   per-tenant write-rate quota, tokens per 1000\n"
    "                   cycles per shard (0 = unlimited)\n"
    "  --quota-burst N  quota token-bucket capacity (default 16)\n"
    "  --drr-quantum N  requests one tenant drains per DRR turn "
    "(default 16)\n"
    "  --chaos N        mean writes between chaos events (0 = off)\n"
    "  --corruption     enable artifact corruption kinds\n"
    "  --verify         prove zero accepted-write loss by full replay\n"
    "  --pages N        scaled device size in pages (default 64)\n"
    "  --endurance E    mean per-page endurance (default 1e6)\n"
    "  --sigma F        endurance sigma fraction (default 0.11)\n"
    "  --seed S         RNG seed\n"
    "  --jobs N         parallel shard cells (1 = serial)\n"
    "  --format F       report format: text (default), json, csv\n"
    "  --out FILE       write the report to FILE instead of stdout\n"
    "  --device B             storage backend: pcm (default), nor, hybrid\n"
    "  --nor-block-pages N    NOR erase-block size in pages (default 16)\n"
    "  --hybrid-cache-pages N  hybrid DRAM cache capacity in pages "
    "(default 64)\n"
    "  --hybrid-ways N        hybrid cache associativity (default 4)\n"
    "  --help           show this message\n";

using namespace twl;

void report_result(ReportBuilder& rep, const ServiceConfig& service,
                   const ServiceRunResult& r) {
  TextTable table;
  table.add_row({"shard", "health", "accepted", "shed", "timeout",
                 "retries", "peak-q", "crashes", "inv-fail", "digest"});
  for (const ShardReport& s : r.shards) {
    table.add_row(
        {std::to_string(s.shard),
         s.dead ? "dead" : to_string(s.final_health),
         std::to_string(s.totals.accepted),
         std::to_string(s.totals.shed_overflow +
                        s.totals.shed_unavailable),
         std::to_string(s.totals.timed_out),
         std::to_string(s.totals.retries),
         std::to_string(s.peak_queue_depth),
         std::to_string(s.outcome.crashes),
         std::to_string(s.outcome.invariant_failures),
         strfmt("%08x", s.state_digest)});
  }
  rep.table("service_virtual", table);

  const bool tenant_mode = !r.tenants.empty();
  if (tenant_mode) {
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
    rep.table("tenants_virtual", tt);
    rep.note(strfmt(
        "virtual tenants: %llu quota-shed aggregate; per-tenant books %s\n",
        static_cast<unsigned long long>(r.totals.quota_shed),
        [&] {
          for (const TenantReport& t : r.tenants) {
            if (!t.totals.accounting_exact()) return "BROKEN";
          }
          return "exact";
        }()));
  }

  rep.note(strfmt(
      "virtual: %llu submitted = %llu accepted + %llu shed + %llu timed out "
      "(%s)\n"
      "latency p50 %.0f cycles, p99 %.0f cycles; %llu crashes, %llu "
      "recovered, %llu invariant failures, digest %08x\n",
      static_cast<unsigned long long>(r.totals.submitted),
      static_cast<unsigned long long>(r.totals.accepted),
      static_cast<unsigned long long>(r.totals.shed_overflow +
                                      r.totals.shed_unavailable +
                                      r.totals.quota_shed),
      static_cast<unsigned long long>(r.totals.timed_out),
      r.totals.accounting_exact() ? "exact" : "BROKEN",
      r.latency_p50, r.latency_p99,
      static_cast<unsigned long long>(r.chaos_totals.crashes),
      static_cast<unsigned long long>(r.chaos_totals.recoveries),
      static_cast<unsigned long long>(r.chaos_totals.invariant_failures),
      r.service_digest));
  if (service.verify_final_state) {
    std::uint64_t verified = 0;
    for (const ShardReport& s : r.shards) verified += s.history_verified;
    rep.note(strfmt("accepted-history replay verified on %llu/%zu shards\n",
                    static_cast<unsigned long long>(verified),
                    r.shards.size()));
    rep.scalar("virtual.history_verified_shards",
               static_cast<double>(verified));
  }
  rep.raw_text("\n");

  rep.scalar("virtual.submitted", static_cast<double>(r.totals.submitted));
  rep.scalar("virtual.accepted", static_cast<double>(r.totals.accepted));
  rep.scalar("virtual.shed",
             static_cast<double>(r.totals.shed_overflow +
                                 r.totals.shed_unavailable));
  rep.scalar("virtual.timed_out",
             static_cast<double>(r.totals.timed_out));
  rep.scalar("virtual.accounting_exact",
             r.totals.accounting_exact() ? 1.0 : 0.0);
  if (tenant_mode) {
    bool books = true;
    for (const TenantReport& t : r.tenants) {
      books = books && t.totals.accounting_exact();
    }
    rep.scalar("virtual.quota_shed",
               static_cast<double>(r.totals.quota_shed));
    rep.scalar("virtual.tenant_books_exact", books ? 1.0 : 0.0);
  }
  rep.scalar("virtual.latency_p50", r.latency_p50);
  rep.scalar("virtual.latency_p99", r.latency_p99);
  rep.scalar("virtual.crashes", static_cast<double>(r.chaos_totals.crashes));
  rep.scalar("virtual.invariant_failures",
             static_cast<double>(r.chaos_totals.invariant_failures));
  rep.scalar("virtual.service_digest",
             static_cast<double>(r.service_digest));
}

int run_impl(const CliArgs& args) {
  auto setup = bench::make_setup(args, 64, 1e6);

  ServiceConfig service;
  service.tenancy.tenants = args.get_u32_or("tenants", 1);
  service.tenancy.blend =
      parse_tenant_blend(args.get_or("tenant-blend", "uniform"));
  service.tenancy.quota_pages = args.get_uint_or("quota-pages", 0);
  service.tenancy.quota_rate = args.get_uint_or("quota-rate", 0);
  service.tenancy.quota_burst = args.get_uint_or("quota-burst", 16);
  service.tenancy.drr_quantum = args.get_uint_or("drr-quantum", 16);
  service.shards = args.get_u32_or("shards", 4);
  // Every tenant gets at least one client by default.
  service.clients = args.get_u32_or(
      "clients", std::max<std::uint32_t>(4, service.tenancy.tenants));
  service.requests_per_client = args.get_uint_or("requests", 1 << 18);
  service.scheme_spec = args.get_or("scheme", "TWL");
  service.sharding = parse_sharding_policy(args.get_or("sharding", "hash"));
  service.overflow = parse_overflow_policy(args.get_or("overflow", "shed"));
  service.queue_capacity = args.get_u32_or("capacity", 256);
  service.deadline_cycles = args.get_uint_or("deadline", 0);
  service.mean_gap_cycles = args.get_uint_or("gap", 0);
  service.chaos.mean_interval_writes = args.get_uint_or("chaos", 0);
  service.chaos.corruption = args.get_bool_or("corruption", false);
  service.verify_final_state = args.get_bool_or("verify", false);

  ReportBuilder rep = bench::make_reporter("bench_service", args);
  bench::check_unconsumed(args);

  bench::report_banner(
      rep, "Service front-end (sharded controllers under load)", setup);
  rep.config_entry("shards", service.shards);
  rep.config_entry("clients", service.clients);
  rep.config_entry("requests_per_client", service.requests_per_client);
  rep.config_entry("scheme", service.scheme_spec);
  rep.config_entry("sharding", to_string(service.sharding));
  rep.config_entry("overflow", to_string(service.overflow));
  rep.config_entry("queue_capacity", service.queue_capacity);
  rep.config_entry("deadline_cycles", service.deadline_cycles);
  rep.config_entry("chaos_interval", service.chaos.mean_interval_writes);
  rep.config_entry("corruption", service.chaos.corruption);
  if (service.tenancy.active()) {
    rep.config_entry("tenants", service.tenancy.tenants);
    rep.config_entry("tenant_blend", to_string(service.tenancy.blend));
    rep.config_entry("quota_pages", service.tenancy.quota_pages);
    rep.config_entry("quota_rate", service.tenancy.quota_rate);
    rep.config_entry("quota_burst", service.tenancy.quota_burst);
    rep.config_entry("drr_quantum", service.tenancy.drr_quantum);
  }

  const ServiceFrontEnd fe(setup.config, service);
  SimRunner runner(setup.jobs);
  const ServiceRunResult r = fe.run_virtual(runner);
  report_result(rep, service, r);
  rep.metrics(r.metrics);
  bench::report_runner_footer(rep, runner.report());

  // Aggregate, per-tenant AND directory checks must all pass for a
  // zero exit.
  bool books_exact = r.totals.accounting_exact();
  for (const TenantReport& t : r.tenants) {
    books_exact = books_exact && t.totals.accounting_exact();
  }
  for (const ShardReport& s : r.shards) {
    books_exact = books_exact && s.directory_verified;
  }

  rep.finish();
  return r.chaos_totals.invariant_failures == 0 && books_exact ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return run_cli_main(argc, argv, kUsage, run_impl);
}
