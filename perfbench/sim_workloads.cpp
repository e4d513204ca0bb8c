// Workloads `lifetime` and `attack`: single-device runs to first failure
// through LifetimeSimulator::run and AttackSimulator::run.
//
// The traced pass rebuilds the stack those entry points build and runs
// their loop in blocks of kBlock writes: a "controller" span covers one
// block of the whole write path, from MemoryController::submit down
// (and, on `attack`, the attacker's calls between writes); on `lifetime`
// a "trace" span first draws the block's writes from the request source.
// Forwarding decorators around the Device and around the WriteSink the
// controller hands the scheme record what the block asked of the device
// and of the bank-timing model. After each block the benchmark replays
// it into shadow copies of the lower layers, each alone and in its own
// span: the scheme (same seed, NullWriteSink) as "wl", the device as
// "device", a standalone PcmTiming as "timing" and, on `attack`, a second
// attacker fed the same latencies as "attack". One steady_clock read
// costs about as much as one controller write, so spans never time a
// single call. The controller's own time is its block time minus the
// replayed layers, and the shadows must end in the real layers' state.
#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/attacks.h"
#include "common/config.h"
#include "device/factory.h"
#include "pcm/timing.h"
#include "recovery/snapshot.h"
#include "sim/attack_sim.h"
#include "sim/lifetime_sim.h"
#include "trace/parsec_model.h"
#include "wl/factory.h"
#include "workloads.h"

namespace perfbench {
namespace {

using twl::Cycles;
using twl::LogicalPageAddr;
using twl::PhysicalPageAddr;
using twl::WritePurpose;

/// Writes per block span in traced passes.
constexpr std::size_t kBlock = 1024;

twl::Config device_config(std::uint64_t pages, double endurance,
                          std::uint64_t seed) {
  twl::SimScale scale;
  scale.pages = pages;
  scale.endurance_mean = endurance;
  scale.seed = seed;
  return twl::Config::scaled(scale);
}

/// CPU seconds since `t0` (a cpu_ns() reading): set-up parts.
double cpu_seconds_since(std::int64_t t0) {
  return static_cast<double>(cpu_ns() - t0) * 1e-9;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return static_cast<double>(num) / static_cast<double>(den);
}

/// One bank-service call of the controller's timing model.
struct TimingOp {
  enum Kind : std::uint8_t { kRead, kWrite, kBlockAll } kind;
  std::uint32_t pa;
};

/// What the decorators record during one block.
struct BlockLog {
  bool timing = false;  ///< Record bank-service calls too.
  std::vector<std::uint32_t> device_writes;
  std::vector<TimingOp> timing_ops;

  void op(TimingOp::Kind k, PhysicalPageAddr pa) {
    timing_ops.push_back(TimingOp{k, pa.value()});
  }
};

/// Forwards the scheme's callbacks to the controller, logging the bank-
/// service calls each one makes in the controller's timing model.
class RecordingSink final : public twl::WriteSink {
 public:
  RecordingSink(twl::WriteSink& inner, BlockLog& log)
      : inner_(inner), log_(log) {}

  void demand_write(PhysicalPageAddr pa, LogicalPageAddr la) override {
    log_.op(TimingOp::kWrite, pa);
    inner_.demand_write(pa, la);
  }
  void migrate(PhysicalPageAddr from, PhysicalPageAddr to,
               WritePurpose purpose) override {
    log_.op(TimingOp::kRead, from);
    log_.op(TimingOp::kWrite, to);
    inner_.migrate(from, to, purpose);
  }
  void swap_pages(PhysicalPageAddr a, PhysicalPageAddr b,
                  WritePurpose purpose) override {
    log_.op(TimingOp::kRead, a);
    log_.op(TimingOp::kRead, b);
    log_.op(TimingOp::kWrite, a);
    log_.op(TimingOp::kWrite, b);
    inner_.swap_pages(a, b, purpose);
  }
  void pair_migrate(PhysicalPageAddr from, PhysicalPageAddr to,
                    WritePurpose purpose) override {
    log_.op(TimingOp::kRead, from);
    log_.op(TimingOp::kWrite, to);
    inner_.pair_migrate(from, to, purpose);
  }
  void engine_delay(Cycles cycles) override { inner_.engine_delay(cycles); }
  void erase_unit(PhysicalPageAddr pa) override { inner_.erase_unit(pa); }
  void begin_blocking() override { inner_.begin_blocking(); }
  void end_blocking() override {
    log_.op(TimingOp::kBlockAll, PhysicalPageAddr(0));
    inner_.end_blocking();
  }

 private:
  twl::WriteSink& inner_;
  BlockLog& log_;
};

/// Hands the scheme a RecordingSink when bank-service calls are logged.
class RecordingWearLeveler final : public twl::WearLeveler {
 public:
  RecordingWearLeveler(twl::WearLeveler& inner, BlockLog& log)
      : inner_(inner), log_(log) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::uint64_t logical_pages() const override {
    return inner_.logical_pages();
  }
  [[nodiscard]] PhysicalPageAddr map_read(LogicalPageAddr la) const override {
    return inner_.map_read(la);
  }
  void write(LogicalPageAddr la, twl::WriteSink& sink) override {
    if (!log_.timing) {
      inner_.write(la, sink);
      return;
    }
    RecordingSink recording(sink, log_);
    inner_.write(la, recording);
  }
  [[nodiscard]] Cycles read_indirection_cycles() const override {
    return inner_.read_indirection_cycles();
  }
  [[nodiscard]] std::uint32_t storage_bits_per_page() const override {
    return inner_.storage_bits_per_page();
  }
  [[nodiscard]] bool invariants_hold() const override {
    return inner_.invariants_hold();
  }
  void on_page_failed(PhysicalPageAddr pa, twl::WriteSink& sink) override {
    inner_.on_page_failed(pa, sink);
  }
  void on_page_retired(PhysicalPageAddr pa, PhysicalPageAddr spare,
                       std::uint64_t spare_endurance,
                       twl::WriteSink& sink) override {
    inner_.on_page_retired(pa, spare, spare_endurance, sink);
  }
  void save_state(twl::SnapshotWriter& w) const override {
    inner_.save_state(w);
  }
  void load_state(twl::SnapshotReader& r) override { inner_.load_state(r); }
  void append_stats(
      std::vector<std::pair<std::string, double>>& out) const override {
    inner_.append_stats(out);
  }

 private:
  twl::WearLeveler& inner_;
  BlockLog& log_;
};

/// Logs every page write the controller applies to the device.
class RecordingDevice final : public twl::Device {
 public:
  RecordingDevice(twl::Device& inner, BlockLog& log)
      : inner_(inner), log_(log) {}

  [[nodiscard]] twl::DeviceBackend backend() const override {
    return inner_.backend();
  }
  [[nodiscard]] std::uint64_t pages() const override { return inner_.pages(); }
  [[nodiscard]] std::uint32_t erase_unit_pages() const override {
    return inner_.erase_unit_pages();
  }
  Cycles apply_write(PhysicalPageAddr pa,
                     std::vector<PhysicalPageAddr>& newly_worn) override {
    log_.device_writes.push_back(pa.value());
    return inner_.apply_write(pa, newly_worn);
  }
  Cycles apply_erase(PhysicalPageAddr pa,
                     std::vector<PhysicalPageAddr>& newly_worn) override {
    return inner_.apply_erase(pa, newly_worn);
  }
  [[nodiscard]] twl::WriteCount writes(PhysicalPageAddr pa) const override {
    return inner_.writes(pa);
  }
  [[nodiscard]] std::uint64_t endurance(PhysicalPageAddr pa) const override {
    return inner_.endurance(pa);
  }
  [[nodiscard]] const twl::EnduranceMap& endurance_map() const override {
    return inner_.endurance_map();
  }
  [[nodiscard]] bool worn_out(PhysicalPageAddr pa) const override {
    return inner_.worn_out(pa);
  }
  [[nodiscard]] std::vector<double> wear_fractions() const override {
    return inner_.wear_fractions();
  }
  [[nodiscard]] bool failed() const override { return inner_.failed(); }
  [[nodiscard]] std::optional<PhysicalPageAddr> first_failed_page()
      const override {
    return inner_.first_failed_page();
  }
  [[nodiscard]] std::optional<twl::WriteCount> writes_at_first_failure()
      const override {
    return inner_.writes_at_first_failure();
  }
  [[nodiscard]] twl::WriteCount total_writes() const override {
    return inner_.total_writes();
  }
  [[nodiscard]] bool has_fault_model() const override {
    return inner_.has_fault_model();
  }
  [[nodiscard]] const twl::StuckAtFaultModel& fault_model() const override {
    return inner_.fault_model();
  }
  void reset_wear() override { inner_.reset_wear(); }
  void save_state(twl::SnapshotWriter& w) const override {
    inner_.save_state(w);
  }
  void load_state(twl::SnapshotReader& r) override { inner_.load_state(r); }

 private:
  twl::Device& inner_;
  BlockLog& log_;
};

/// One scheme's device, tables and controller, built exactly as the
/// simulators build them inside run().
struct Stack {
  std::unique_ptr<twl::Device> device;
  std::unique_ptr<twl::WearLeveler> wl;
  std::unique_ptr<twl::MemoryController> controller;

  Stack(twl::Scheme scheme, const twl::EnduranceMap& endurance,
        const twl::Config& config, bool timing, LayerMetrics& parts) {
    std::int64_t t0 = cpu_ns();
    device = twl::make_device(endurance, config);
    parts["endurance.setup_s"] += cpu_seconds_since(t0);
    t0 = cpu_ns();
    wl = twl::make_wear_leveler(scheme, endurance, config);
    parts["wl.setup_s"] += cpu_seconds_since(t0);
    controller = std::make_unique<twl::MemoryController>(*device, *wl,
                                                         config, timing);
  }
};

/// Span names of the traced passes.
struct TraceNames {
  std::uint32_t run, trace, attack, controller, wl, device, timing;

  explicit TraceNames(SpanRecorder& rec)
      : run(rec.intern("run")),
        trace(rec.intern("trace")),
        attack(rec.intern("attack")),
        controller(rec.intern("controller")),
        wl(rec.intern("wl")),
        device(rec.intern("device")),
        timing(rec.intern("timing")) {}
};

/// A traced pass's view of one set-up stack: the controller runs over
/// recording decorators, and shadow copies of the scheme, the device and
/// the timing model replay each block alone.
struct TracedStack {
  BlockLog log;
  RecordingDevice device;
  RecordingWearLeveler wl;
  twl::MemoryController controller;
  std::unique_ptr<twl::WearLeveler> shadow_wl;
  std::unique_ptr<twl::Device> shadow_device;
  twl::PcmTiming shadow_timing;
  twl::NullWriteSink null_sink;
  std::vector<PhysicalPageAddr> shadow_worn;
  Cycles shadow_chain = 0;

  TracedStack(Stack& plain, twl::Scheme scheme,
              const twl::EnduranceMap& endurance, const twl::Config& config,
              bool timing)
      : device(*plain.device, log),
        wl(*plain.wl, log),
        controller(device, wl, config, timing),
        shadow_wl(twl::make_wear_leveler(scheme, endurance, config)),
        shadow_device(twl::make_device(endurance, config)),
        shadow_timing(config.geometry, config.timing) {
    log.timing = timing;
  }

  /// Replays the block just run (its writes `las`) into the shadows.
  void replay(SpanRecorder& rec, const TraceNames& n,
              const std::vector<LogicalPageAddr>& las) {
    int s = rec.open(n.wl);
    for (const LogicalPageAddr la : las) shadow_wl->write(la, null_sink);
    rec.close(s);
    s = rec.open(n.device);
    for (const std::uint32_t pa : log.device_writes) {
      shadow_device->apply_write(PhysicalPageAddr(pa), shadow_worn);
    }
    rec.close(s);
    shadow_worn.clear();
    if (log.timing) {
      s = rec.open(n.timing);
      for (const TimingOp& op : log.timing_ops) {
        if (op.kind == TimingOp::kBlockAll) {
          shadow_timing.block_all_until(shadow_chain);
          continue;
        }
        shadow_chain = shadow_timing
                           .service(PhysicalPageAddr(op.pa),
                                    op.kind == TimingOp::kRead
                                        ? twl::Op::kRead
                                        : twl::Op::kWrite,
                                    shadow_chain)
                           .done;
      }
      rec.close(s);
    }
    log.device_writes.clear();
    log.timing_ops.clear();
  }

  /// The shadows replayed every call the real layers saw.
  void check_shadows(Checks& checks) const {
    checks.require(twl::take_snapshot(*shadow_wl) == twl::take_snapshot(wl),
                   "shadow scheme ends in the real scheme's state");
    checks.require(
        shadow_device->total_writes() == device.total_writes(),
        "shadow device applied every real device write");
  }
};

/// Splits a traced pass into layers: the controller gets its block time
/// minus the replayed lower layers. Shares are of the measured run (the
/// trace and controller blocks); the time outside every block span is
/// unattributed.
void attribute(const SpanRecorder& rec, int root, double untraced_ns,
               std::uint64_t writes, LayerMetrics& out, Checks& checks) {
  const LayerTimes lt = layer_times(rec, root);
  const auto ns = [&](const char* name) {
    const auto it = lt.self_ns.find(name);
    return it == lt.self_ns.end() ? 0.0 : it->second;
  };
  double layers = lt.unattributed_ns;
  for (const auto& [name, t] : lt.self_ns) layers += t;
  checks.require(std::abs(layers - lt.total_ns) <= 1e-6 * lt.total_ns,
                 "layer self times plus unattributed sum to the traced total");

  const double measured = ns("trace") + ns("controller");
  std::map<std::string, double> est = {
      {"trace", ns("trace")},   {"attack", ns("attack")},
      {"wl", ns("wl")},         {"device", ns("device")},
      {"timing", ns("timing")},
  };
  double below = 0;
  for (const auto& [name, t] : est) below += name == "trace" ? 0 : t;
  est["controller"] = std::max(0.0, ns("controller") - below);
  for (const auto& [name, t] : est) {
    out[name + ".ns_per_write"] = t / static_cast<double>(writes);
    out[name + ".share_pct"] = 100.0 * t / measured;
  }
  out["tracing.unattributed_pct"] = 100.0 * lt.unattributed_ns / lt.total_ns;
  out["tracing.overhead_pct"] = 100.0 * (measured - untraced_ns) / untraced_ns;
}

void add_controller_counts(const twl::ControllerStats& s, LayerMetrics& out) {
  const auto purpose = [&](WritePurpose p) {
    return static_cast<double>(
        s.writes_by_purpose[static_cast<std::size_t>(p)]);
  };
  out["wl.tossup_writes"] += purpose(WritePurpose::kTossupSwap);
  out["wl.interpair_writes"] += purpose(WritePurpose::kInterPairSwap);
  out["device.physical_writes"] += static_cast<double>(s.physical_writes());
  out["timing.blocking_events"] += static_cast<double>(s.blocking_events);
}

/// Writes and extra (wear-leveling) writes of one run to first failure,
/// and its simulated end time (timing-enabled runs only).
struct Outcome {
  std::uint64_t demand = 0;
  std::uint64_t extra = 0;
  Cycles end_time = 0;
};

Outcome outcome_of(const twl::MemoryController& c, Cycles end_time) {
  return Outcome{c.stats().demand_writes, c.stats().extra_writes(), end_time};
}

/// Seed of trial `t`: an independent device draw. The first failure of
/// one small device moves a lot from seed to seed, so each workload
/// averages a few draws (as bench_fig6 does).
std::uint64_t trial_seed(std::uint64_t seed, std::uint64_t t) {
  return seed + t * 0x9E3779B9ULL;
}

// ---------------------------------------------------------------------------
// lifetime: the Table-2-calibrated canneal model through TWL (strong-weak
// pairing), timing off, no journal, until the first page fails.

constexpr std::uint64_t kLifetimePages = 256;
constexpr double kLifetimeEndurance = 16384;
constexpr std::size_t kLifetimeTrials = 4;

class LifetimeWorkload final : public Workload {
 public:
  explicit LifetimeWorkload(std::uint64_t seed) {
    for (std::size_t t = 0; t < kLifetimeTrials; ++t) {
      trials_[t].seed = trial_seed(seed, t);
      trials_[t].config = device_config(kLifetimePages, kLifetimeEndurance,
                                        trials_[t].seed);
    }
  }

  void setup(LayerMetrics& parts) override {
    for (Trial& t : trials_) {
      std::int64_t t0 = cpu_ns();
      t.sim.emplace(t.config);
      parts["endurance.setup_s"] += cpu_seconds_since(t0);
      t.stack.emplace(kScheme, t.sim->endurance(), t.config, false, parts);
      t0 = cpu_ns();
      t.source = twl::parsec_benchmark("canneal").make_source(kLifetimePages,
                                                              t.seed);
      parts["trace.setup_s"] += cpu_seconds_since(t0);
    }
  }

  PassResult run(Checks& checks, HostProbe& probe) override {
    Outcomes o;
    std::vector<double> rates;
    for (std::size_t i = 0; i < kLifetimeTrials; ++i) {
      Trial& t = trials_[i];
      TimedCall call(probe);
      const twl::LifetimeResult r = t.sim->run(kScheme, *t.source, t.cap());
      rates.push_back(call.rate(r.demand_writes));
      checks.require(r.failed, "lifetime pass ran to the first page failure");
      o[i] = Outcome{r.demand_writes, r.stats.extra_writes(), 0};
    }
    PassResult p = result(o);
    p.rates = std::move(rates);
    return p;
  }

  void check(const PassResult& timed, Checks& checks) override {
    const PassResult again = drive(nullptr, checks, nullptr);
    checks.require(again.exact == timed.exact && again.writes == timed.writes,
                   "rebuilt lifetime pass reproduces the entry point");
  }

  PassResult run_traced(SpanRecorder& rec, double untraced_ns,
                        LayerMetrics& out, Checks& checks) override {
    const TraceNames names(rec);
    const int root = rec.open(names.run);
    const PassResult traced = drive(&rec, checks, &out);
    rec.close(root);
    attribute(rec, root, untraced_ns, traced.writes, out, checks);
    return traced;
  }

 private:
  static constexpr twl::Scheme kScheme = twl::Scheme::kTossUpStrongWeak;
  using Outcomes = std::array<Outcome, kLifetimeTrials>;

  struct Trial {
    std::uint64_t seed = 0;
    twl::Config config;
    std::optional<twl::LifetimeSimulator> sim;
    std::optional<Stack> stack;
    std::unique_ptr<twl::SyntheticTrace> source;

    [[nodiscard]] twl::WriteCount cap() const {
      return 2 * sim->ideal_demand_writes();
    }
  };

  /// LifetimeSimulator::run's loop on the set-up stacks, which the
  /// benchmark can inspect afterwards, one block of writes at a time
  /// (drawing a block ahead changes nothing the run reports). With `rec`
  /// the blocks are traced and replayed into shadows, and `out` receives
  /// the pass's counters.
  PassResult drive(SpanRecorder* rec, Checks& checks, LayerMetrics* out) {
    std::optional<TraceNames> names;
    if (rec != nullptr) names.emplace(*rec);
    Outcomes o;
    std::uint64_t requests = 0;
    std::vector<LogicalPageAddr> las;
    las.reserve(kBlock);
    for (std::size_t i = 0; i < kLifetimeTrials; ++i) {
      Trial& t = trials_[i];
      std::optional<TracedStack> traced;
      if (rec != nullptr) {
        traced.emplace(*t.stack, kScheme, t.sim->endurance(), t.config,
                       false);
      }
      twl::MemoryController& controller =
          traced ? traced->controller : *t.stack->controller;
      const twl::WearLeveler& wl = traced ? traced->wl : *t.stack->wl;
      const std::uint64_t space = wl.logical_pages();
      while (!controller.device_failed() &&
             controller.stats().demand_writes < t.cap()) {
        const int g = rec != nullptr ? rec->open(names->trace) : -1;
        las.clear();
        while (las.size() < kBlock) {
          const twl::MemoryRequest req = t.source->next();
          ++requests;
          if (req.op == twl::Op::kWrite) {
            las.emplace_back(req.addr.value() % space);
          }
        }
        if (g >= 0) rec->close(g);
        const int c = rec != nullptr ? rec->open(names->controller) : -1;
        std::size_t n = 0;
        for (; n < las.size() && !controller.device_failed() &&
               controller.stats().demand_writes < t.cap();
             ++n) {
          controller.submit(twl::MemoryRequest{twl::Op::kWrite, las[n]}, 0);
        }
        if (c >= 0) rec->close(c);
        las.resize(n);
        if (traced) traced->replay(*rec, *names, las);
      }
      checks.require(controller.device_failed(),
                     "rebuilt lifetime pass ran to the first page failure");
      checks.require(wl.invariants_hold(),
                     "scheme invariants_hold() after the lifetime pass");
      o[i] = outcome_of(controller, 0);
      if (traced) traced->check_shadows(checks);
      if (out != nullptr) add_controller_counts(controller.stats(), *out);
    }
    PassResult p = result(o);
    if (out != nullptr) {
      (*out)["trace.requests_per_write"] = ratio(requests, p.writes);
    }
    return p;
  }

  [[nodiscard]] PassResult result(const Outcomes& o) const {
    PassResult p;
    std::uint64_t extra = 0;
    double frac = 0;
    for (std::size_t i = 0; i < kLifetimeTrials; ++i) {
      p.writes += o[i].demand;
      extra += o[i].extra;
      frac += ratio(o[i].demand, trials_[i].sim->ideal_demand_writes()) /
              kLifetimeTrials;
    }
    p.attempted = p.writes;
    p.exact.lifetime_frac = frac;
    p.exact.swap_ratio = ratio(extra, p.writes);
    return p;
  }

  std::array<Trial, kLifetimeTrials> trials_;
};

// ---------------------------------------------------------------------------
// attack: the closed-loop inconsistent-write attacker (Section 3.2) against
// BWL, the victim, then against TWL; timing on, each run until the first
// page fails.

constexpr std::uint64_t kAttackPages = 512;
constexpr double kAttackEndurance = 65536;
constexpr std::size_t kAttackTrials = 4;

class AttackWorkload final : public Workload {
 public:
  explicit AttackWorkload(std::uint64_t seed) {
    for (std::size_t t = 0; t < kAttackTrials; ++t) {
      trials_[t].seed = trial_seed(seed, t);
      trials_[t].config = device_config(kAttackPages, kAttackEndurance,
                                        trials_[t].seed);
    }
  }

  void setup(LayerMetrics& parts) override {
    for (Trial& t : trials_) {
      const std::int64_t t0 = cpu_ns();
      t.sim.emplace(t.config);
      parts["endurance.setup_s"] += cpu_seconds_since(t0);
      for (std::size_t s = 0; s < kSchemes.size(); ++s) {
        t.stacks[s].emplace(kSchemes[s], t.sim->endurance(), t.config, true,
                            parts);
        t.attacks[s] = make_attacker(t);
      }
    }
  }

  PassResult run(Checks& checks, HostProbe& probe) override {
    Outcomes o;
    std::vector<double> rates;
    for (std::size_t i = 0; i < kAttackTrials; ++i) {
      Trial& t = trials_[i];
      TimedCall call(probe);
      std::uint64_t writes = 0;
      for (std::size_t s = 0; s < kSchemes.size(); ++s) {
        const twl::AttackResult r =
            t.sim->run(kSchemes[s], *t.attacks[s], t.cap());
        checks.require(r.failed, "attack pass on " + r.scheme +
                                     " ran to the first page failure");
        o[i][s] = Outcome{r.demand_writes, r.stats.extra_writes(),
                          r.end_time};
        writes += r.demand_writes;
      }
      rates.push_back(call.rate(writes));
    }
    PassResult p = result(o);
    p.rates = std::move(rates);
    return p;
  }

  void check(const PassResult& timed, Checks& checks) override {
    const PassResult again = drive(nullptr, checks, nullptr);
    checks.require(again.exact == timed.exact && again.writes == timed.writes,
                   "rebuilt attack pass reproduces the entry point");
  }

  PassResult run_traced(SpanRecorder& rec, double untraced_ns,
                        LayerMetrics& out, Checks& checks) override {
    const TraceNames names(rec);
    const int root = rec.open(names.run);
    const PassResult traced = drive(&rec, checks, &out);
    rec.close(root);
    attribute(rec, root, untraced_ns, traced.writes, out, checks);
    return traced;
  }

 private:
  /// The victim first, then the paper's TWL (strong-weak pairing).
  static constexpr std::array<twl::Scheme, 2> kSchemes = {
      twl::Scheme::kBloomWl, twl::Scheme::kTossUpStrongWeak};
  using Outcomes = std::array<std::array<Outcome, 2>, kAttackTrials>;

  struct Trial {
    std::uint64_t seed = 0;
    twl::Config config;
    std::optional<twl::AttackSimulator> sim;
    std::array<std::optional<Stack>, 2> stacks;
    std::array<std::unique_ptr<twl::AttackProgram>, 2> attacks;

    [[nodiscard]] twl::WriteCount cap() const {
      return 4 * sim->endurance().total_endurance();
    }
  };

  static std::unique_ptr<twl::AttackProgram> make_attacker(const Trial& t) {
    return twl::make_attack("inconsistent", kAttackPages, t.seed);
  }

  /// AttackSimulator::run's loop on the set-up stacks, as
  /// LifetimeWorkload::drive; the block span covers the attacker's calls
  /// too (its next request depends on the last latency), and a second
  /// attacker replays them from the recorded latencies.
  PassResult drive(SpanRecorder* rec, Checks& checks, LayerMetrics* out) {
    std::optional<TraceNames> names;
    if (rec != nullptr) names.emplace(*rec);
    Outcomes o;
    std::vector<LogicalPageAddr> las;
    std::vector<std::uint32_t> asked;  // The attacker's own addresses.
    std::vector<Cycles> seen;          // The latency each call was given.
    for (std::size_t i = 0; i < kAttackTrials; ++i) {
      Trial& t = trials_[i];
      for (std::size_t s = 0; s < kSchemes.size(); ++s) {
        std::optional<TracedStack> traced;
        std::unique_ptr<twl::AttackProgram> shadow_attack;
        if (rec != nullptr) {
          traced.emplace(*t.stacks[s], kSchemes[s], t.sim->endurance(),
                         t.config, true);
          shadow_attack = make_attacker(t);
        }
        twl::MemoryController& controller =
            traced ? traced->controller : *t.stacks[s]->controller;
        const twl::WearLeveler& wl = traced ? traced->wl : *t.stacks[s]->wl;
        twl::AttackProgram& attack = *t.attacks[s];
        const std::uint64_t space = wl.logical_pages();
        Cycles now = 0;
        Cycles last = 0;
        bool replayed_same = true;
        while (!controller.device_failed() &&
               controller.stats().demand_writes < t.cap()) {
          las.clear();
          asked.clear();
          seen.clear();
          const int c = rec != nullptr ? rec->open(names->controller) : -1;
          while (las.size() < kBlock && !controller.device_failed() &&
                 controller.stats().demand_writes < t.cap()) {
            seen.push_back(last);
            twl::MemoryRequest req = attack.next(last);
            asked.push_back(req.addr.value());
            req.addr = LogicalPageAddr(req.addr.value() % space);
            las.push_back(req.addr);
            last = controller.submit(req, now);
            now += last;
          }
          if (c >= 0) rec->close(c);
          if (!traced) continue;
          const int a = rec->open(names->attack);
          for (std::size_t k = 0; k < seen.size(); ++k) {
            replayed_same = replayed_same &&
                            shadow_attack->next(seen[k]).addr.value() ==
                                asked[k];
          }
          rec->close(a);
          traced->replay(*rec, *names, las);
        }
        checks.require(controller.device_failed(),
                       "rebuilt attack pass ran to the first page failure");
        checks.require(wl.invariants_hold(),
                       "scheme invariants_hold() after the attack pass");
        checks.require(replayed_same,
                       "shadow attacker repeats the real one's requests");
        o[i][s] = outcome_of(controller, now);
        if (traced) traced->check_shadows(checks);
        if (out == nullptr) continue;
        add_controller_counts(controller.stats(), *out);
        if (const auto* inconsistent =
                dynamic_cast<const twl::InconsistentAttack*>(&attack)) {
          (*out)["attack.phase_flips"] +=
              static_cast<double>(inconsistent->phase_flips());
        }
      }
    }
    return result(o);
  }

  [[nodiscard]] PassResult result(const Outcomes& o) const {
    PassResult p;
    double victim = 0;
    double twl = 0;
    Outcome twl_sum;
    for (std::size_t i = 0; i < kAttackTrials; ++i) {
      const std::uint64_t total = trials_[i].sim->endurance().total_endurance();
      victim += ratio(o[i][0].demand, total) / kAttackTrials;
      twl += ratio(o[i][1].demand, total) / kAttackTrials;
      twl_sum.demand += o[i][1].demand;
      twl_sum.extra += o[i][1].extra;
      twl_sum.end_time += o[i][1].end_time;
      p.writes += o[i][0].demand + o[i][1].demand;
    }
    p.attempted = p.writes;
    p.exact.victim_lifetime_frac = victim;
    p.exact.lifetime_frac = twl;
    p.exact.swap_ratio = ratio(twl_sum.extra, twl_sum.demand);
    p.exact.sim_write_cycles = ratio(twl_sum.end_time, twl_sum.demand);
    return p;
  }

  std::array<Trial, kAttackTrials> trials_;
};

}  // namespace

std::unique_ptr<Workload> make_lifetime(std::uint64_t seed) {
  return std::make_unique<LifetimeWorkload>(seed);
}

std::unique_ptr<Workload> make_attack(std::uint64_t seed) {
  return std::make_unique<AttackWorkload>(seed);
}

}  // namespace perfbench
