// The built-in scenario catalog: the paper's figure experiments ported onto
// the registry, plus the traffic families the evaluation implies but the
// seed lacked (incast, permutation, all-to-all shuffle, FCT sweeps over the
// web-search and data-mining traces).
//
// Conventions shared by every scenario:
//  * the driver's --transport switch arrives as RunContext::scheme;
//    comparative scenarios additionally take `transports=` (comma list) and
//    default it to that single scheme;
//  * quick-scale defaults come from exp::Scale and inflate to paper scale
//    under NUMFABRIC_FULL=1 (RunContext::full_scale);
//  * results go through MetricWriter only — the driver decides CSV vs JSON.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/scenario.h"
#include "exp/bwfunc_experiment.h"
#include "exp/common.h"
#include "exp/contention_experiment.h"
#include "exp/dynamic_workload.h"
#include "exp/fct_experiment.h"
#include "exp/flow_fidelity.h"
#include "exp/pooling_experiment.h"
#include "exp/semi_dynamic.h"
#include "exp/trace_replay.h"
#include "exp/traffic_experiment.h"
#include "stats/summary.h"
#include "workload/size_distribution.h"
#include "workload/trace.h"

namespace numfabric::app {
namespace {

sim::TimeNs ms_time(double ms) {
  return static_cast<sim::TimeNs>(ms * 1e6);
}

exp::Scale scale_for(const RunContext& ctx) {
  return ctx.full_scale ? exp::full_scale() : exp::quick_scale();
}

// ---------------------------------------------------------------------------
// Parameter presets (`preset=classic|modern`).
//
// classic is the paper's 2016 testbed: 10G hosts, 40G spines, 2 us hops,
// 1500 B packets.  modern is a 2020s fabric: 400G hosts, 1600G spines,
// 50 ns hops (sub-us RTTs) and 4 KB jumbo-ish packets.  The preset only
// moves *defaults* — any explicit knob (host_gbps=, core_delay_us=, ...)
// still wins — so classic runs are byte-identical to pre-preset output.
// ---------------------------------------------------------------------------

enum class Preset { kClassic, kModern };

struct PresetDefaults {
  double host_gbps;
  double spine_gbps;
  double delay_us;
  std::uint32_t packet_bytes;
};

Preset preset_param(const RunContext& ctx) {
  const std::string token = ctx.options.get("preset", "classic");
  if (token == "classic") return Preset::kClassic;
  if (token == "modern") return Preset::kModern;
  throw std::invalid_argument("unknown preset '" + token +
                              "' (expected classic or modern)");
}

PresetDefaults preset_defaults(Preset preset) {
  if (preset == Preset::kModern) return {400.0, 1600.0, 0.05, 4096};
  return {10.0, 40.0, 2.0, 1500};
}

/// Pushes the preset's packet size into every scheme config (and scales the
/// DCTCP marking threshold with it, keeping the paper's 65-packet K).  No-op
/// for classic: 1500 B is already every config's default.
void apply_preset_packets(Preset preset, transport::FabricOptions& fabric) {
  if (preset == Preset::kClassic) return;
  const std::uint32_t bytes = preset_defaults(preset).packet_bytes;
  fabric.numfabric.packet_bytes = bytes;
  fabric.dgd.packet_bytes = bytes;
  fabric.rcp.packet_bytes = bytes;
  fabric.dctcp.packet_bytes = bytes;
  fabric.dctcp.ecn_threshold_bytes = 65 * static_cast<std::size_t>(bytes);
  fabric.pfabric.packet_bytes = bytes;
}

/// Applies the preset's packet sizes and the cross-cutting --solver-threads /
/// --shards knobs to an experiment options struct.  Every fabric-backed
/// struct embeds a FabricOptions; the ones that run the NUM oracle also take
/// solver_threads.  Both knobs are bit-identity-preserving, so they never
/// appear in a scenario's declared parameter schema.
template <typename ExpOptions>
void apply_thread_context(const RunContext& ctx, ExpOptions& options) {
  apply_preset_packets(preset_param(ctx), options.fabric);
  if constexpr (requires { options.solver_threads; }) {
    options.solver_threads = ctx.solver_threads;
  }
  // --shards (also bit-identity-preserving) reaches the experiments whose
  // options declare the knob; the driver already rejected the flag for
  // scenarios that don't.
  if constexpr (requires { options.shards; }) {
    options.shards = ctx.shards;
  }
}

/// Appends per-shard engine counters to the `perf` table.  Serial runs have
/// no shard_perf rows, so shards=1 output is byte-identical to the
/// pre-sharding format (and the existing golden hashes).  blocked_us is
/// barrier wait wall time (sim::ShardPerf::blocked_ns) — nondeterministic,
/// stripped (like wall_ms) wherever sharded output is golden-compared.
void emit_shard_perf(RunContext& ctx,
                     const std::vector<sim::ShardPerf>& shard_perf) {
  if (shard_perf.empty()) return;
  MetricTable& table = ctx.metrics.table("perf", {"counter", "value"});
  for (std::size_t k = 0; k < shard_perf.size(); ++k) {
    const std::string prefix = "shard" + std::to_string(k) + "_";
    table.add_row({prefix + "events", shard_perf[k].events});
    table.add_row({prefix + "merged_msgs", shard_perf[k].merged_msgs});
    table.add_row({prefix + "null_windows", shard_perf[k].null_steps});
    table.add_row({prefix + "blocked_us",
                   static_cast<double>(shard_perf[k].blocked_ns) / 1000.0});
  }
}

/// Resolves the fabric: the optional `topology=HxLxS` shape token, the three
/// explicit counts, per-tier rates and delays, then the `oversub=` re-rating
/// (which derives the spine rate from host demand, overriding spine_gbps).
net::LeafSpineOptions leaf_spine_options(const RunContext& ctx,
                                         const exp::Scale& scale) {
  const PresetDefaults preset = preset_defaults(preset_param(ctx));
  int hosts_per_leaf = scale.hosts_per_leaf;
  int leaves = scale.leaves;
  int spines = scale.spines;
  const std::string shape = ctx.options.get("topology", "");
  if (!shape.empty()) {
    for (const char* key : {"hosts_per_leaf", "leaves", "spines"}) {
      if (ctx.options.has(key)) {
        throw std::invalid_argument("topology= already fixes " +
                                    std::string(key) + "; drop one of the two");
      }
    }
    char trailing = 0;
    if (std::sscanf(shape.c_str(), "%dx%dx%d%c", &hosts_per_leaf, &leaves,
                    &spines, &trailing) != 3 ||
        hosts_per_leaf < 1 || leaves < 1 || spines < 1) {
      throw std::invalid_argument("bad topology '" + shape +
                                  "' (expected HxLxS, e.g. 16x8x4)");
    }
  }
  net::LeafSpineOptions topo;
  topo.hosts_per_leaf = static_cast<int>(
      ctx.options.get_int("hosts_per_leaf", hosts_per_leaf));
  topo.num_leaves = static_cast<int>(ctx.options.get_int("leaves", leaves));
  topo.num_spines = static_cast<int>(ctx.options.get_int("spines", spines));
  topo.host_rate_bps =
      ctx.options.get_double("host_gbps", preset.host_gbps) * 1e9;
  topo.spine_rate_bps =
      ctx.options.get_double("spine_gbps", preset.spine_gbps) * 1e9;
  topo.link_delay =
      static_cast<sim::TimeNs>(preset.delay_us * sim::kMicrosecond);
  topo.core_link_delay = static_cast<sim::TimeNs>(
      ctx.options.get_double("core_delay_us", sim::to_micros(topo.link_delay)) *
      sim::kMicrosecond);
  const double oversub = ctx.options.get_double("oversub", 0.0);
  if (oversub < 0) {
    throw std::invalid_argument("oversub must be >= 0 (0 = keep spine_gbps)");
  }
  if (oversub > 0) topo = topo.with_oversubscription(oversub);
  return topo;
}

// ---------------------------------------------------------------------------
// Fabric choice: leaf-spine (the default) or jellyfish.
//
// `topology=jellyfish:S,r,H` — S switches of port-count r wired as a random
// regular graph (deterministic from jf_seed), H hosts round-robined across
// the switches, routed over the k_paths shortest paths per switch pair.
// Shape grammar is one sweepable token so `--sweep "topology=16x8x4,
// jellyfish:12,4,32"` fans a scenario across both fabric families.
// ---------------------------------------------------------------------------

struct FabricChoice {
  net::LeafSpineOptions leaf_spine;
  std::optional<net::JellyfishOptions> jellyfish;
  int k_paths = 8;
  int hosts = 0;  // total hosts on either fabric
};

FabricChoice fabric_choice(const RunContext& ctx, const exp::Scale& scale) {
  FabricChoice choice;
  const std::string shape = ctx.options.get("topology", "");
  if (shape.rfind("jellyfish:", 0) == 0) {
    const PresetDefaults preset = preset_defaults(preset_param(ctx));
    for (const char* key : {"hosts_per_leaf", "leaves", "spines", "oversub"}) {
      if (ctx.options.has(key)) {
        throw std::invalid_argument("topology=jellyfish:... has no " +
                                    std::string(key) + "; drop it");
      }
    }
    net::JellyfishOptions jf;
    char trailing = 0;
    if (std::sscanf(shape.c_str(), "jellyfish:%d,%d,%d%c", &jf.switches,
                    &jf.ports, &jf.hosts, &trailing) != 3 ||
        jf.switches < 1 || jf.ports < 1 || jf.hosts < 1) {
      throw std::invalid_argument(
          "bad topology '" + shape +
          "' (expected jellyfish:switches,ports,hosts, e.g. jellyfish:12,4,24)");
    }
    jf.seed = static_cast<std::uint64_t>(ctx.options.get_int("jf_seed", 1));
    jf.host_rate_bps =
        ctx.options.get_double("host_gbps", preset.host_gbps) * 1e9;
    jf.switch_rate_bps =
        ctx.options.get_double("spine_gbps", preset.spine_gbps) * 1e9;
    jf.link_delay = static_cast<sim::TimeNs>(
        ctx.options.get_double("core_delay_us", preset.delay_us) *
        sim::kMicrosecond);
    const std::int64_t k = ctx.options.get_int("k_paths", 8);
    if (k < 1) throw std::invalid_argument("k_paths must be >= 1");
    choice.k_paths = static_cast<int>(k);
    choice.hosts = jf.hosts;
    choice.jellyfish = jf;
    return choice;
  }
  choice.leaf_spine = leaf_spine_options(ctx, scale);
  choice.hosts = choice.leaf_spine.hosts_per_leaf * choice.leaf_spine.num_leaves;
  return choice;
}

std::vector<ParamSpec> topology_params(bool with_jellyfish = false) {
  std::vector<ParamSpec> params = {
      {"topology", "",
       "fabric shape HxLxS (hosts_per_leaf x leaves x spines), e.g. 16x8x4; "
       "one sweepable token, conflicts with the three explicit keys"},
      {"hosts_per_leaf", "8", "hosts per leaf switch (full scale: 16)"},
      {"leaves", "4", "number of leaf switches (full scale: 8)"},
      {"spines", "2", "number of spine switches (full scale: 4)"},
      {"host_gbps", "10", "host NIC rate (preset=modern default: 400)"},
      {"spine_gbps", "40",
       "leaf-to-spine / switch-to-switch link rate (preset=modern: 1600)"},
      {"oversub", "0",
       "core oversubscription ratio; > 0 re-rates spine links to "
       "hosts_per_leaf*host_gbps/(spines*oversub), overriding spine_gbps"},
      {"core_delay_us", "2",
       "leaf-spine propagation delay (edge links track the preset; "
       "preset=modern: 0.05)"},
      {"preset", "classic",
       "parameter preset: classic (10G/40G, 2 us hops, 1500 B packets) or "
       "modern (400G/1600G, 50 ns hops, 4 KB packets); explicit knobs win"},
  };
  if (with_jellyfish) {
    params[0] = {
        "topology", "",
        "fabric shape: HxLxS leaf-spine (e.g. 16x8x4) or "
        "jellyfish:switches,ports,hosts (random regular graph, e.g. "
        "jellyfish:12,4,24); one sweepable token; jellyfish has no "
        "leaf/spine cut, so it runs serial only (--shards=1)"};
    params.push_back({"jf_seed", "1",
                      "jellyfish only: random-regular-graph wiring seed"});
    params.push_back({"k_paths", "8",
                      "jellyfish only: k-shortest paths per switch pair"});
  }
  return params;
}

std::vector<ParamSpec> merge_params(std::vector<ParamSpec> a,
                                    std::vector<ParamSpec> b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// Effective scheme for single-transport scenarios: the sweepable
/// `transport=` parameter when set, else the driver's --transport switch.
transport::Scheme scheme_for(const RunContext& ctx) {
  const std::string token = ctx.options.get("transport", "");
  return token.empty() ? ctx.scheme : parse_scheme(token);
}

ParamSpec transport_param() {
  return {"transport", "<--transport>",
          "scheme for this run (sweepable; overrides --transport)"};
}

std::vector<transport::Scheme> transports_param(const RunContext& ctx) {
  std::vector<transport::Scheme> schemes;
  for (const std::string& token :
       ctx.options.get_list("transports", {scheme_token(ctx.scheme)})) {
    schemes.push_back(parse_scheme(token));
  }
  return schemes;
}

double percentile_or_nan(const std::vector<double>& samples, double p) {
  return samples.empty() ? std::numeric_limits<double>::quiet_NaN()
                         : stats::percentile(samples, p);
}

/// KB-sized knobs become unsigned byte counts; a negative value would wrap
/// to an absurd size, so reject it here.
std::uint64_t kb_to_bytes(const RunContext& ctx, const std::string& key,
                          std::int64_t fallback_kb) {
  const std::int64_t kb = ctx.options.get_int(key, fallback_kb);
  if (kb < 0) {
    throw std::invalid_argument(key + " must be >= 0 (got " +
                                std::to_string(kb) + ")");
  }
  return static_cast<std::uint64_t>(kb) * 1000;
}

// ---------------------------------------------------------------------------
// Simulation fidelity (`fidelity=packet|flow`).
//
// Scenarios that declare fidelity_params() can swap the packet substrate for
// the flow-fluid engine (src/flowsim/): same workload draw, same paths, same
// output tables, but epochs + warm NUM re-solves instead of packet events.
// Scenarios without the declaration are packet-only; the driver rejects
// `fidelity=` there with a pointed error (see driver.cc).
// ---------------------------------------------------------------------------

enum class Fidelity { kPacket, kFlow };

Fidelity fidelity_param(const RunContext& ctx) {
  const std::string token = ctx.options.get("fidelity", "packet");
  if (token == "packet") return Fidelity::kPacket;
  if (token == "flow") return Fidelity::kFlow;
  throw std::invalid_argument("unknown fidelity '" + token +
                              "' (expected packet or flow)");
}

double resolve_interval_param(const RunContext& ctx, double default_us) {
  const double us = ctx.options.get_double("resolve_us", default_us);
  if (us < 0) {
    throw std::invalid_argument(
        "resolve_us must be >= 0 (0 = exact event-driven mode)");
  }
  return us * 1e-6;
}

/// `incremental=on|off`: the solver's worklist re-solve path.  ON by default
/// for flow fidelity (per-epoch cost tracks churn, not compiled history);
/// anything that golden-hashes output must pass off — incremental solves
/// converge to the same tolerance but are not bit-identical to full ones.
bool incremental_param(const RunContext& ctx) {
  const std::string token = ctx.options.get("incremental", "on");
  if (token == "on") return true;
  if (token == "off") return false;
  throw std::invalid_argument("unknown incremental '" + token +
                              "' (expected on or off)");
}

/// The flow-fluid engine assigns every flow its NUM-optimal rate, which
/// models the NUM-solving transports.  Window/loss protocols (DCTCP,
/// pFabric) have no flow-fluid model — running them would silently report
/// oracle numbers under their name, so fail loudly instead.
void require_flow_capable_scheme(transport::Scheme scheme) {
  if (scheme != transport::Scheme::kNumFabric &&
      scheme != transport::Scheme::kDgd) {
    throw std::invalid_argument(
        "fidelity=flow models NUM-optimal rates; transport '" +
        scheme_token(scheme) +
        "' has no flow-fluid model (supported: numfabric, dgd)");
  }
}

std::vector<ParamSpec> fidelity_params() {
  return {{"fidelity", "packet",
           "packet | flow: packet-level substrate or the flow-fluid engine "
           "(NUM-optimal rates, no queueing; see src/flowsim/README.md)"},
          {"resolve_us", "0",
           "fidelity=flow: epoch-grid re-solve period in us (0 = exact "
           "event-driven re-solve at every arrival/departure)"},
          {"incremental", "on",
           "fidelity=flow: on | off — incremental (worklist) NUM re-solves; "
           "same tolerance as full solves but not bit-identical"}};
}

// ---------------------------------------------------------------------------
// convergence (Fig. 4a): semi-dynamic convergence-time CDF.
// ---------------------------------------------------------------------------

void run_convergence(RunContext& ctx) {
  const exp::Scale scale = scale_for(ctx);
  MetricTable& summary = ctx.metrics.table(
      "convergence",
      {"transport", "events_measured", "events_converged", "median_us",
       "p95_us", "sim_events", "queue_drops"});
  MetricTable& cdf = ctx.metrics.table("convergence_cdf",
                                       {"transport", "time_us", "fraction"});

  for (const transport::Scheme scheme : transports_param(ctx)) {
    exp::SemiDynamicOptions options;
    apply_thread_context(ctx, options);
    options.scheme = scheme;
    options.topology = leaf_spine_options(ctx, scale);
    options.num_paths =
        static_cast<int>(ctx.options.get_int("paths", scale.num_paths));
    options.initial_active = static_cast<int>(
        ctx.options.get_int("initial_active", scale.initial_active));
    options.flows_per_event = static_cast<int>(
        ctx.options.get_int("flows_per_event", scale.flows_per_event));
    options.num_events =
        static_cast<int>(ctx.options.get_int("events", scale.num_events));
    options.min_active =
        static_cast<int>(ctx.options.get_int("min_active", scale.min_active));
    options.max_active =
        static_cast<int>(ctx.options.get_int("max_active", scale.max_active));
    options.convergence.timeout = ms_time(ctx.options.get_double(
        "timeout_ms", sim::to_seconds(scale.convergence_timeout) * 1e3));
    options.alpha = ctx.options.get_double("alpha", 1.0);
    options.seed = static_cast<std::uint64_t>(ctx.options.get_int("seed", 1));
    const exp::SemiDynamicResult result = exp::run_semi_dynamic(options);

    const std::string name = scheme_token(scheme);
    summary.add_row({name, result.events_measured, result.events_converged,
                     percentile_or_nan(result.convergence_times_us, 50),
                     percentile_or_nan(result.convergence_times_us, 95),
                     result.sim_events, result.total_queue_drops});
    if (!result.convergence_times_us.empty()) {
      for (const auto& [value, fraction] :
           stats::cdf(result.convergence_times_us, 21)) {
        cdf.add_row({name, value, fraction});
      }
    }
    emit_shard_perf(ctx, result.shard_perf);
  }
}

// ---------------------------------------------------------------------------
// rate-timeseries (Fig. 4b,c): one tracked flow across network events.
// ---------------------------------------------------------------------------

void run_rate_timeseries(RunContext& ctx) {
  const exp::Scale scale = scale_for(ctx);
  exp::SemiDynamicOptions options;
  apply_thread_context(ctx, options);
  options.scheme = ctx.scheme;
  options.topology = leaf_spine_options(ctx, scale);
  options.num_paths =
      static_cast<int>(ctx.options.get_int("paths", scale.num_paths / 2));
  options.initial_active = static_cast<int>(
      ctx.options.get_int("initial_active", scale.initial_active / 2));
  options.flows_per_event = static_cast<int>(
      ctx.options.get_int("flows_per_event", scale.flows_per_event / 2));
  options.num_events = static_cast<int>(ctx.options.get_int("events", 8));
  options.min_active =
      static_cast<int>(ctx.options.get_int("min_active", scale.min_active / 2));
  options.max_active =
      static_cast<int>(ctx.options.get_int("max_active", scale.max_active / 2));
  options.alpha = ctx.options.get_double("alpha", 1.0);
  options.record_trace = true;
  options.trace_sample_interval =
      sim::micros(ctx.options.get_int("sample_us", 20));
  // A fixed event schedule keeps schemes comparable (DCTCP never converges
  // at these time scales, so convergence-gated events would stall).
  options.fixed_event_interval =
      ms_time(ctx.options.get_double("event_interval_ms", 4));
  options.use_maxmin_targets = ctx.scheme == transport::Scheme::kDctcp;
  options.seed = static_cast<std::uint64_t>(ctx.options.get_int("seed", 7));
  const exp::SemiDynamicResult result = exp::run_semi_dynamic(options);

  ctx.metrics.scalar("transport", scheme_token(ctx.scheme));
  ctx.metrics.scalar("sim_events", result.sim_events);
  MetricTable& trace = ctx.metrics.table("trace", {"time_ms", "rate_bps"});
  for (const auto& [at_ms, rate] : result.trace) trace.add_row({at_ms, rate});
  MetricTable& expected =
      ctx.metrics.table("expected_steps", {"time_ms", "rate_bps"});
  for (const auto& [at_ms, rate] : result.expected_steps) {
    expected.add_row({at_ms, rate});
  }
  emit_shard_perf(ctx, result.shard_perf);
}

// ---------------------------------------------------------------------------
// dynamic-deviation (Fig. 5): deviation from fluid-oracle rates by size bin.
// ---------------------------------------------------------------------------

const workload::SizeDistribution& distribution_param(const RunContext& ctx,
                                                     const std::string& fallback) {
  const std::string name = ctx.options.get("workload", fallback);
  if (name == "websearch") return workload::websearch_distribution();
  if (name == "enterprise") return workload::enterprise_distribution();
  // Full-scale runs use the uncapped 1 GB tail (ROADMAP fidelity note).
  if (name == "datamining") {
    return workload::datamining_distribution(ctx.full_scale);
  }
  throw std::invalid_argument(
      "unknown workload '" + name +
      "' (expected websearch, enterprise or datamining)");
}

void run_dynamic_deviation(RunContext& ctx) {
  const exp::Scale scale = scale_for(ctx);
  MetricTable& table = ctx.metrics.table(
      "deviation", {"transport", "bin_bdps", "count", "whisker_low", "p25",
                    "median", "p75", "whisker_high"});
  MetricTable& totals = ctx.metrics.table(
      "flows", {"transport", "completed", "incomplete", "bdp_kb"});

  for (const transport::Scheme scheme : transports_param(ctx)) {
    exp::DynamicWorkloadOptions options;
    apply_thread_context(ctx, options);
    options.scheme = scheme;
    options.topology = leaf_spine_options(ctx, scale);
    options.sizes = &distribution_param(ctx, "websearch");
    options.load = ctx.options.get_double("load", 0.6);
    options.flow_count = static_cast<int>(
        ctx.options.get_int("flows", scale.dynamic_flow_count));
    options.alpha = ctx.options.get_double("alpha", 1.0);
    options.seed = static_cast<std::uint64_t>(ctx.options.get_int("seed", 11));
    options.horizon =
        ms_time(ctx.options.get_double("horizon_ms", 20'000));
    const exp::DynamicWorkloadResult result = exp::run_dynamic_workload(options);

    const std::string name = scheme_token(scheme);
    totals.add_row({name, static_cast<std::int64_t>(result.flows.size()),
                    result.incomplete, result.bdp_bytes / 1e3});
    std::vector<std::vector<double>> bins(5);
    for (const auto& flow : result.flows) {
      const int bin = exp::bdp_bin(static_cast<double>(flow.size_bytes),
                                   result.bdp_bytes);
      if (bin < 0) continue;
      bins[static_cast<std::size_t>(bin)].push_back(
          (flow.rate_bps - flow.ideal_rate_bps) / flow.ideal_rate_bps);
    }
    for (std::size_t b = 0; b < bins.size(); ++b) {
      if (bins[b].empty()) continue;
      const stats::BoxPlot box = stats::box_plot(bins[b]);
      table.add_row({name, exp::kBdpBinLabels[b],
                     static_cast<std::int64_t>(bins[b].size()), box.whisker_low,
                     box.p25, box.p50, box.p75, box.whisker_high});
    }
  }
}

// ---------------------------------------------------------------------------
// fct-vs-pfabric (Fig. 7): NUMFabric's FCT-min utility against pFabric.
// ---------------------------------------------------------------------------

// A `load=` single point overrides the `loads=` list — the sweep engine
// sweeps scalars, so `--sweep load=0.2,0.4` fans the list out run-per-run.
std::vector<double> loads_param(const RunContext& ctx,
                                const std::vector<double>& fallback) {
  if (ctx.options.has("load")) {
    return {ctx.options.get_double("load", 0)};
  }
  return ctx.options.get_double_list("loads", fallback);
}

void run_fct_vs_pfabric(RunContext& ctx) {
  const exp::Scale scale = scale_for(ctx);
  exp::FctExperimentOptions options;
  apply_thread_context(ctx, options);
  options.topology = leaf_spine_options(ctx, scale);
  options.loads = loads_param(
      ctx, ctx.full_scale
               ? std::vector<double>{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
               : std::vector<double>{0.2, 0.4, 0.6, 0.8});
  options.flow_count = static_cast<int>(
      ctx.options.get_int("flows", scale.dynamic_flow_count));
  options.epsilon = ctx.options.get_double("epsilon", 0.125);
  options.slowdown = ctx.options.get_double("slowdown", 2.0);
  options.seed = static_cast<std::uint64_t>(ctx.options.get_int("seed", 5));
  const exp::FctExperimentResult result = exp::run_fct_experiment(options);

  MetricTable& table = ctx.metrics.table(
      "fct", {"load", "numfabric_mean_norm_fct", "pfabric_mean_norm_fct",
              "ratio", "numfabric_completed", "pfabric_completed",
              "numfabric_incomplete", "pfabric_incomplete"});
  for (const auto& row : result.rows) {
    table.add_row({row.load, row.numfabric_mean_norm_fct,
                   row.pfabric_mean_norm_fct,
                   row.pfabric_mean_norm_fct > 0
                       ? row.numfabric_mean_norm_fct / row.pfabric_mean_norm_fct
                       : std::numeric_limits<double>::quiet_NaN(),
                   row.numfabric_completed, row.pfabric_completed,
                   row.numfabric_incomplete, row.pfabric_incomplete});
  }
}

// ---------------------------------------------------------------------------
// resource-pooling (Fig. 8): multipath sub-flows with/without pooling.
// ---------------------------------------------------------------------------

void run_resource_pooling(RunContext& ctx) {
  const exp::Scale scale = scale_for(ctx);
  exp::PoolingOptions options;
  apply_thread_context(ctx, options);
  options.topology.hosts_per_leaf = static_cast<int>(
      ctx.options.get_int("hosts_per_leaf", scale.pooling_hosts_per_leaf));
  options.topology.num_leaves = static_cast<int>(
      ctx.options.get_int("leaves", scale.pooling_leaves));
  options.topology.num_spines = static_cast<int>(
      ctx.options.get_int("spines", scale.pooling_spines));
  options.topology.spine_rate_bps =
      ctx.options.get_double("spine_gbps", 10.0) * 1e9;  // Fig. 8: all-10G
  options.subflow_counts = ctx.options.get_int_list(
      "subflows", ctx.full_scale ? std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}
                                 : std::vector<int>{1, 2, 4, 8});
  options.warmup = ms_time(ctx.options.get_double(
      "warmup_ms", sim::to_seconds(scale.warmup) * 1e3));
  options.measure = ms_time(ctx.options.get_double(
      "measure_ms", sim::to_seconds(scale.measure) * 1e3));
  options.seed = static_cast<std::uint64_t>(ctx.options.get_int("seed", 2));

  MetricTable& totals = ctx.metrics.table(
      "throughput", {"mode", "subflows", "fraction_of_optimal"});
  MetricTable& ranks = ctx.metrics.table(
      "per_flow_rank", {"mode", "subflows", "rank", "fraction_of_nic"});
  for (const bool pooling : {true, false}) {
    options.resource_pooling = pooling;
    const exp::PoolingResult result = exp::run_pooling_experiment(options);
    const std::string mode = pooling ? "pooling" : "no-pooling";
    for (const auto& row : result.rows) {
      totals.add_row({mode, row.subflows, row.total_throughput_fraction});
      for (std::size_t r = 0; r < row.per_flow_fraction.size(); ++r) {
        ranks.add_row({mode, row.subflows, static_cast<std::int64_t>(r),
                       row.per_flow_fraction[r]});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// bwfunc-sweep (Fig. 9) and bwfunc-pooling (Fig. 10).
// ---------------------------------------------------------------------------

void run_bwfunc_sweep(RunContext& ctx) {
  const exp::Scale scale = scale_for(ctx);
  exp::BwFuncSweepOptions options;
  options.capacities_gbps = ctx.options.get_double_list(
      "capacities_gbps", {5, 10, 15, 20, 25, 30, 35});
  options.alpha = ctx.options.get_double("alpha", 5.0);
  options.slowdown = ctx.options.get_double("slowdown", 4.0);
  // Measurement windows track exp::Scale (quick 8/12 ms, full 10/20 ms),
  // matching the seed fig9 bench.
  options.warmup = ms_time(ctx.options.get_double(
      "warmup_ms", sim::to_seconds(scale.warmup) * 1e3));
  options.measure = ms_time(ctx.options.get_double(
      "measure_ms", sim::to_seconds(scale.measure) * 1e3));
  const exp::BwFuncSweepResult result = exp::run_bwfunc_sweep(options);

  MetricTable& table = ctx.metrics.table(
      "bwfunc", {"capacity_gbps", "flow1_gbps", "flow2_gbps",
                 "expected1_gbps", "expected2_gbps"});
  for (const auto& row : result.rows) {
    table.add_row({row.capacity_gbps, row.flow1_gbps, row.flow2_gbps,
                   row.expected1_gbps, row.expected2_gbps});
  }
}

void run_bwfunc_pooling(RunContext& ctx) {
  exp::BwFuncPoolingOptions options;
  options.alpha = ctx.options.get_double("alpha", 5.0);
  options.slowdown = ctx.options.get_double("slowdown", 4.0);
  options.middle_before_gbps = ctx.options.get_double("middle_before_gbps", 5);
  options.middle_after_gbps = ctx.options.get_double("middle_after_gbps", 17);
  options.switch_time = ms_time(ctx.options.get_double("switch_ms", 10));
  options.end_time = ms_time(ctx.options.get_double("end_ms", 20));
  const exp::BwFuncPoolingResult result = exp::run_bwfunc_pooling(options);

  MetricTable& phases = ctx.metrics.table(
      "phases", {"phase", "flow1_gbps", "flow2_gbps", "expected1_gbps",
                 "expected2_gbps"});
  phases.add_row({"before", result.flow1_before_gbps, result.flow2_before_gbps,
                  result.expected1_before_gbps, result.expected2_before_gbps});
  phases.add_row({"after", result.flow1_after_gbps, result.flow2_after_gbps,
                  result.expected1_after_gbps, result.expected2_after_gbps});
  MetricTable& series = ctx.metrics.table(
      "series", {"time_ms", "flow1_bps", "flow2_bps"});
  for (const auto& [at_ms, f1, f2] : result.series) {
    series.add_row({at_ms, f1, f2});
  }
}

// ---------------------------------------------------------------------------
// Traffic families: incast / permutation / shuffle.
// ---------------------------------------------------------------------------

void emit_fct_table(RunContext& ctx, int completed, int incomplete,
                    std::vector<double> fct_us) {
  MetricTable& fct = ctx.metrics.table(
      "fct", {"completed", "incomplete", "min_us", "mean_us", "p50_us",
              "p95_us", "p99_us", "max_us"});
  std::sort(fct_us.begin(), fct_us.end());
  fct.add_row({completed, incomplete,
               fct_us.empty() ? std::numeric_limits<double>::quiet_NaN()
                              : fct_us.front(),
               fct_us.empty() ? std::numeric_limits<double>::quiet_NaN()
                              : stats::mean(fct_us),
               percentile_or_nan(fct_us, 50), percentile_or_nan(fct_us, 95),
               percentile_or_nan(fct_us, 99),
               fct_us.empty() ? std::numeric_limits<double>::quiet_NaN()
                              : fct_us.back()});
}

void emit_traffic_result(RunContext& ctx, transport::Scheme scheme,
                         const exp::TrafficResult& result) {
  ctx.metrics.scalar("transport", scheme_token(scheme));
  ctx.metrics.scalar("flow_count", result.flow_count);
  ctx.metrics.scalar("sim_events", result.sim_events);
  ctx.metrics.scalar("queue_drops", result.queue_drops);

  if (!result.flow_rates_bps.empty()) {
    MetricTable& summary = ctx.metrics.table(
        "throughput", {"total_gbps", "optimal_gbps", "fraction", "jain_index",
                       "min_flow_mbps", "median_flow_mbps", "max_flow_mbps"});
    std::vector<double> rates = result.flow_rates_bps;
    std::sort(rates.begin(), rates.end());
    summary.add_row({result.total_goodput_bps / 1e9, result.optimal_bps / 1e9,
                     result.total_goodput_bps / result.optimal_bps,
                     result.jain_index, rates.front() / 1e6,
                     stats::percentile(rates, 50) / 1e6, rates.back() / 1e6});
    MetricTable& flows = ctx.metrics.table("flow_rates", {"rank", "rate_mbps"});
    for (std::size_t i = 0; i < rates.size(); ++i) {
      flows.add_row({static_cast<std::int64_t>(i), rates[i] / 1e6});
    }
  }
  if (result.completed + result.incomplete > 0) {
    emit_fct_table(ctx, result.completed, result.incomplete, result.fct_us);
  }
  emit_shard_perf(ctx, result.shard_perf);
}

void run_traffic(RunContext& ctx, exp::TrafficPattern pattern,
                 std::int64_t default_flow_kb) {
  const exp::Scale scale = scale_for(ctx);
  exp::TrafficOptions options;
  apply_thread_context(ctx, options);
  options.scheme = scheme_for(ctx);
  const FabricChoice fab = fabric_choice(ctx, scale);
  options.topology = fab.leaf_spine;
  options.jellyfish = fab.jellyfish;
  options.k_paths = fab.k_paths;
  options.core_buffer_bytes =
      static_cast<std::size_t>(kb_to_bytes(ctx, "core_buffer_kb", 0));
  options.pattern = pattern;
  options.incast_fanin = static_cast<int>(
      ctx.options.get_int("fanin", std::min(16, fab.hosts - 1)));
  options.flow_size_bytes = kb_to_bytes(ctx, "flow_kb", default_flow_kb);
  options.alpha = ctx.options.get_double("alpha", 1.0);
  options.warmup = ms_time(ctx.options.get_double(
      "warmup_ms", sim::to_seconds(scale.warmup) * 1e3));
  options.measure = ms_time(ctx.options.get_double(
      "measure_ms", sim::to_seconds(scale.measure) * 1e3));
  options.horizon = ms_time(ctx.options.get_double("horizon_ms", 5'000));
  options.seed = static_cast<std::uint64_t>(ctx.options.get_int("seed", 1));
  if (fidelity_param(ctx) == Fidelity::kFlow) {
    require_flow_capable_scheme(options.scheme);
    emit_traffic_result(
        ctx, options.scheme,
        exp::run_traffic_experiment_flow(options,
                                         resolve_interval_param(ctx, 0),
                                         ctx.solver_threads,
                                         incremental_param(ctx)));
    return;
  }
  emit_traffic_result(ctx, options.scheme, exp::run_traffic_experiment(options));
}

// ---------------------------------------------------------------------------
// FCT sweeps over a measured trace (web-search / data-mining).
// ---------------------------------------------------------------------------

void run_fct_sweep(RunContext& ctx, const std::string& default_workload) {
  const exp::Scale scale = scale_for(ctx);
  MetricTable& table = ctx.metrics.table(
      "fct_sweep", {"load", "completed", "incomplete", "mean_norm_fct",
                    "p50_norm_fct", "p95_norm_fct", "p99_norm_fct"});
  MetricTable& bins = ctx.metrics.table(
      "fct_by_size", {"load", "bin_bdps", "count", "mean_norm_fct"});

  const Fidelity fidelity = fidelity_param(ctx);
  const std::vector<double> loads = loads_param(ctx, {0.2, 0.4, 0.6, 0.8});
  for (const double load : loads) {
    exp::DynamicWorkloadOptions options;
    apply_thread_context(ctx, options);
    options.scheme = scheme_for(ctx);
    const FabricChoice fab = fabric_choice(ctx, scale);
    options.topology = fab.leaf_spine;
    options.jellyfish = fab.jellyfish;
    options.k_paths = fab.k_paths;
    options.sizes = &distribution_param(ctx, default_workload);
    options.load = load;
    options.flow_count = static_cast<int>(
        ctx.options.get_int("flows", scale.dynamic_flow_count / 2));
    options.alpha = ctx.options.get_double("alpha", 1.0);
    options.seed = static_cast<std::uint64_t>(ctx.options.get_int("seed", 13));
    options.horizon = ms_time(ctx.options.get_double("horizon_ms", 20'000));
    if (fidelity == Fidelity::kFlow) require_flow_capable_scheme(options.scheme);
    const exp::DynamicWorkloadResult result =
        fidelity == Fidelity::kFlow
            ? exp::run_dynamic_workload_flow(options,
                                             resolve_interval_param(ctx, 0),
                                             incremental_param(ctx))
            : exp::run_dynamic_workload(options);

    // Normalized FCT = measured FCT / oracle-ideal FCT = ideal_rate / rate.
    std::vector<double> norms;
    std::vector<std::vector<double>> by_bin(5);
    for (const auto& flow : result.flows) {
      const double norm = flow.ideal_rate_bps / flow.rate_bps;
      norms.push_back(norm);
      const int bin = exp::bdp_bin(static_cast<double>(flow.size_bytes),
                                   result.bdp_bytes);
      if (bin >= 0) by_bin[static_cast<std::size_t>(bin)].push_back(norm);
    }
    table.add_row({load, static_cast<std::int64_t>(result.flows.size()),
                   result.incomplete,
                   norms.empty() ? std::numeric_limits<double>::quiet_NaN()
                                 : stats::mean(norms),
                   percentile_or_nan(norms, 50), percentile_or_nan(norms, 95),
                   percentile_or_nan(norms, 99)});
    for (std::size_t b = 0; b < by_bin.size(); ++b) {
      if (by_bin[b].empty()) continue;
      bins.add_row({load, exp::kBdpBinLabels[b],
                    static_cast<std::int64_t>(by_bin[b].size()),
                    stats::mean(by_bin[b])});
    }
  }
}

// ---------------------------------------------------------------------------
// Oversubscribed-fabric family: oversub-fabric and background-burst.
// ---------------------------------------------------------------------------

void run_oversub_fabric_scenario(RunContext& ctx) {
  const exp::Scale scale = scale_for(ctx);
  exp::OversubFabricOptions options;
  apply_thread_context(ctx, options);
  options.scheme = scheme_for(ctx);
  options.topology = leaf_spine_options(ctx, scale);
  options.core_buffer_bytes =
      static_cast<std::size_t>(kb_to_bytes(ctx, "core_buffer_kb", 0));
  options.alpha = ctx.options.get_double("alpha", 1.0);
  options.shuffle_flow_bytes = kb_to_bytes(ctx, "shuffle_kb", 50);
  options.warmup = ms_time(ctx.options.get_double("warmup_ms", 2));
  options.measure = ms_time(ctx.options.get_double("measure_ms", 4));
  options.horizon = ms_time(ctx.options.get_double("horizon_ms", 200));
  options.seed = static_cast<std::uint64_t>(ctx.options.get_int("seed", 1));
  const exp::OversubFabricResult result = exp::run_oversub_fabric(options);

  ctx.metrics.scalar("transport", scheme_token(options.scheme));
  ctx.metrics.scalar("oversubscription", result.oversubscription);
  ctx.metrics.scalar("sim_events", result.sim_events);
  ctx.metrics.scalar("queue_drops", result.queue_drops);

  MetricTable& summary = ctx.metrics.table(
      "core_summary", {"oversub_ratio", "core_links", "util_mean", "util_min",
                       "util_max", "price_convergence_us"});
  summary.add_row({result.oversubscription,
                   static_cast<std::int64_t>(result.core_links.size()),
                   result.core_util_mean, result.core_util_min,
                   result.core_util_max, result.price_convergence_us});

  MetricTable& per_link =
      ctx.metrics.table("core_utilization", {"link", "utilization", "price"});
  for (const auto& stats : result.core_links) {
    per_link.add_row({stats.name, stats.utilization, stats.price});
  }

  MetricTable& background =
      ctx.metrics.table("background", {"flows", "goodput_gbps", "jain_index"});
  background.add_row({result.background_flows,
                      result.background_goodput_bps / 1e9,
                      result.background_jain});

  emit_fct_table(ctx, result.shuffle_completed, result.shuffle_incomplete,
                 result.shuffle_fct_us);
  emit_shard_perf(ctx, result.shard_perf);
}

void run_background_burst_scenario(RunContext& ctx) {
  const exp::Scale scale = scale_for(ctx);
  exp::BackgroundBurstOptions options;
  apply_thread_context(ctx, options);
  options.scheme = scheme_for(ctx);
  options.topology = leaf_spine_options(ctx, scale);
  options.core_buffer_bytes =
      static_cast<std::size_t>(kb_to_bytes(ctx, "core_buffer_kb", 0));
  options.alpha = ctx.options.get_double("alpha", 1.0);
  options.background_load = ctx.options.get_double("background_load", 0.5);
  options.burst_fanin = static_cast<int>(ctx.options.get_int("fanin", 8));
  options.burst_bytes = kb_to_bytes(ctx, "burst_kb", 20);
  options.burst_interval =
      ms_time(ctx.options.get_double("burst_interval_ms", 1));
  options.num_bursts = static_cast<int>(ctx.options.get_int("bursts", 4));
  options.warmup = ms_time(ctx.options.get_double("warmup_ms", 2));
  options.horizon = ms_time(ctx.options.get_double("horizon_ms", 500));
  options.seed = static_cast<std::uint64_t>(ctx.options.get_int("seed", 1));
  const exp::BackgroundBurstResult result = exp::run_background_burst(options);

  ctx.metrics.scalar("transport", scheme_token(options.scheme));
  ctx.metrics.scalar("oversubscription", result.oversubscription);
  ctx.metrics.scalar("sim_events", result.sim_events);
  ctx.metrics.scalar("queue_drops", result.queue_drops);

  MetricTable& bursts = ctx.metrics.table(
      "bursts", {"burst", "start_ms", "completed", "incomplete", "fct_p50_us",
                 "fct_max_us", "background_during_gbps",
                 "background_quiet_gbps", "throughput_ratio"});
  for (const auto& stats : result.bursts) {
    bursts.add_row({stats.index, stats.start_ms, stats.completed,
                    stats.incomplete, stats.fct_p50_us, stats.fct_max_us,
                    stats.background_during_bps / 1e9,
                    stats.background_quiet_bps / 1e9,
                    stats.background_quiet_bps > 0
                        ? stats.background_during_bps /
                              stats.background_quiet_bps
                        : std::numeric_limits<double>::quiet_NaN()});
  }

  MetricTable& summary = ctx.metrics.table(
      "burst_summary",
      {"bursts", "flows", "completed", "incomplete", "fct_p50_us", "fct_p99_us",
       "fct_max_us", "background_flows", "background_goodput_gbps"});
  std::vector<double> fcts = result.burst_fct_us;
  std::sort(fcts.begin(), fcts.end());
  summary.add_row({static_cast<std::int64_t>(result.bursts.size()),
                   result.burst_flows, result.burst_completed,
                   result.burst_incomplete, percentile_or_nan(fcts, 50),
                   percentile_or_nan(fcts, 99),
                   fcts.empty() ? std::numeric_limits<double>::quiet_NaN()
                                : fcts.back(),
                   result.background_flows,
                   result.background_goodput_bps / 1e9});
  emit_shard_perf(ctx, result.shard_perf);
}

// ---------------------------------------------------------------------------
// sensitivity (Fig. 6): one semi-dynamic point at explicit NUMFabric control
// parameters.  One run = one grid point; the Fig. 6 panels are `--sweep`
// grids over dt_us / interval_us / alpha x slowdown (see bench/fig6).
// ---------------------------------------------------------------------------

void run_sensitivity(RunContext& ctx) {
  const exp::Scale scale = scale_for(ctx);
  exp::SemiDynamicOptions options;
  apply_thread_context(ctx, options);
  options.scheme = ctx.scheme;
  options.topology = leaf_spine_options(ctx, scale);
  // Sensitivity grids rerun the scenario at many points; defaults are a
  // quarter of the convergence scenario's population (the seed fig6 setup).
  options.num_paths =
      static_cast<int>(ctx.options.get_int("paths", scale.num_paths / 4));
  options.initial_active = static_cast<int>(
      ctx.options.get_int("initial_active", scale.initial_active / 4));
  options.flows_per_event = static_cast<int>(
      ctx.options.get_int("flows_per_event", scale.flows_per_event / 4));
  options.num_events = static_cast<int>(
      ctx.options.get_int("events", ctx.full_scale ? 30 : 4));
  options.min_active =
      static_cast<int>(ctx.options.get_int("min_active", scale.min_active / 4));
  options.max_active =
      static_cast<int>(ctx.options.get_int("max_active", scale.max_active / 4));
  options.convergence.timeout = ms_time(ctx.options.get_double(
      "timeout_ms", sim::to_seconds(scale.convergence_timeout) * 1e3));
  options.alpha = ctx.options.get_double("alpha", 1.0);
  options.seed = static_cast<std::uint64_t>(ctx.options.get_int("seed", 21));

  transport::NumFabricConfig& config = options.fabric.numfabric;
  const double dt_us =
      ctx.options.get_double("dt_us", sim::to_micros(config.dt_slack));
  config.dt_slack = static_cast<sim::TimeNs>(dt_us * sim::kMicrosecond);
  const double interval_us = ctx.options.get_double(
      "interval_us", sim::to_micros(config.price_update_interval));
  config.price_update_interval =
      static_cast<sim::TimeNs>(interval_us * sim::kMicrosecond);
  config.eta = ctx.options.get_double("eta", config.eta);
  config.beta = ctx.options.get_double("beta", config.beta);
  const double slowdown = ctx.options.get_double("slowdown", 1.0);
  config = config.slowed_down(slowdown);

  const exp::SemiDynamicResult result = exp::run_semi_dynamic(options);
  MetricTable& table = ctx.metrics.table(
      "sensitivity",
      {"dt_us", "interval_us", "alpha", "eta", "beta", "slowdown",
       "events_measured", "events_converged", "converged_fraction",
       "median_us", "p95_us"});
  table.add_row(
      {dt_us, interval_us, options.alpha, config.eta, config.beta, slowdown,
       result.events_measured, result.events_converged,
       result.events_measured > 0
           ? static_cast<double>(result.events_converged) /
                 result.events_measured
           : 0.0,
       percentile_or_nan(result.convergence_times_us, 50),
       percentile_or_nan(result.convergence_times_us, 95)});
  emit_shard_perf(ctx, result.shard_perf);
}

// ---------------------------------------------------------------------------
// trace-replay: external workload trace in, FCT metrics out.
// ---------------------------------------------------------------------------

void run_trace_replay_scenario(RunContext& ctx) {
  const exp::Scale scale = scale_for(ctx);
  exp::TraceReplayOptions options;
  apply_thread_context(ctx, options);
  options.scheme = ctx.scheme;
  options.topology = leaf_spine_options(ctx, scale);
  options.alpha = ctx.options.get_double("alpha", 1.0);
  options.horizon = ms_time(ctx.options.get_double("horizon_ms", 20'000));
  const std::string path = ctx.options.get("trace", "");
  options.trace =
      path.empty() ? workload::example_trace() : workload::load_trace_csv(path);
  const Fidelity fidelity = fidelity_param(ctx);
  if (fidelity == Fidelity::kFlow) require_flow_capable_scheme(options.scheme);
  const exp::TraceReplayResult result =
      fidelity == Fidelity::kFlow
          ? exp::run_trace_replay_flow(options, resolve_interval_param(ctx, 0),
                                       ctx.solver_threads,
                                       incremental_param(ctx))
          : exp::run_trace_replay(options);

  ctx.metrics.scalar("transport", scheme_token(ctx.scheme));
  ctx.metrics.scalar("trace", path.empty() ? "<builtin>" : path);
  ctx.metrics.scalar("sim_events", result.sim_events);

  std::vector<double> fcts;
  for (const auto& flow : result.flows) {
    if (flow.completed) fcts.push_back(flow.fct_seconds * 1e6);
  }
  std::sort(fcts.begin(), fcts.end());
  MetricTable& fct = ctx.metrics.table(
      "fct", {"completed", "incomplete", "min_us", "mean_us", "p50_us",
              "p95_us", "p99_us", "max_us"});
  fct.add_row({result.completed, result.incomplete,
               fcts.empty() ? std::numeric_limits<double>::quiet_NaN()
                            : fcts.front(),
               fcts.empty() ? std::numeric_limits<double>::quiet_NaN()
                            : stats::mean(fcts),
               percentile_or_nan(fcts, 50), percentile_or_nan(fcts, 95),
               percentile_or_nan(fcts, 99),
               fcts.empty() ? std::numeric_limits<double>::quiet_NaN()
                            : fcts.back()});
  MetricTable& flows = ctx.metrics.table(
      "flows",
      {"src", "dst", "size_bytes", "arrival_ms", "completed", "fct_us"});
  for (const auto& flow : result.flows) {
    flows.add_row({flow.src, flow.dst,
                   static_cast<std::int64_t>(flow.size_bytes),
                   flow.arrival_seconds * 1e3, flow.completed ? 1 : 0,
                   flow.completed ? flow.fct_seconds * 1e6
                                  : std::numeric_limits<double>::quiet_NaN()});
  }
}

// ---------------------------------------------------------------------------
// mega-fct: >= 10^5 concurrent flows through the flow-fluid engine on a
// virtual (index-arithmetic) leaf-spine, or on a jellyfish parsed like every
// other scenario's.  Flow-fidelity only by construction: the packet
// substrate cannot represent this scale.
// ---------------------------------------------------------------------------

void run_mega_fct_scenario(RunContext& ctx) {
  // Unlike the dual-fidelity scenarios this one *defaults* to flow (matching
  // its declared ParamSpec default); only an explicit fidelity=packet lands
  // in the rejection below.
  if (ctx.options.get("fidelity", "flow") != "flow") {
    throw std::invalid_argument(
        "mega-fct is flow-fidelity only (a packet run at 10^5+ concurrent "
        "flows is the problem this scenario exists to avoid); drop "
        "fidelity=packet");
  }
  require_flow_capable_scheme(scheme_for(ctx));

  exp::MegaFctOptions options;
  const PresetDefaults preset = preset_defaults(preset_param(ctx));
  const std::string shape = ctx.options.get("topology", "32x32x8");
  if (shape.rfind("jellyfish:", 0) == 0) {
    const FabricChoice fab = fabric_choice(ctx, exp::scale_from_env());
    options.jellyfish = fab.jellyfish;
    options.k_paths = fab.k_paths;
  } else {
    char trailing = 0;
    if (std::sscanf(shape.c_str(), "%dx%dx%d%c", &options.fabric.hosts_per_leaf,
                    &options.fabric.leaves, &options.fabric.spines,
                    &trailing) != 3 ||
        options.fabric.hosts_per_leaf < 1 || options.fabric.leaves < 1 ||
        options.fabric.spines < 1) {
      throw std::invalid_argument("bad topology '" + shape +
                                  "' (expected HxLxS, e.g. 32x32x8)");
    }
  }
  // Gbps knobs -> the engine's Mbps rate units.
  options.fabric.host_rate =
      ctx.options.get_double("host_gbps", preset.host_gbps) * 1e3;
  options.fabric.leaf_spine_rate =
      ctx.options.get_double("spine_gbps", preset.spine_gbps) * 1e3;
  options.concurrent =
      static_cast<int>(ctx.options.get_int("concurrent", 100'000));
  options.sizes = &distribution_param(ctx, "websearch");
  options.alpha = ctx.options.get_double("alpha", 1.0);
  options.resolve_interval_seconds = resolve_interval_param(ctx, 1000);
  options.horizon_seconds = ctx.options.get_double("horizon_s", 30.0);
  options.solver_tolerance = ctx.options.get_double("tolerance", 1e-5);
  options.solver_threads = ctx.solver_threads;
  options.incremental = incremental_param(ctx);
  options.seed = static_cast<std::uint64_t>(ctx.options.get_int("seed", 1));
  const exp::MegaFctResult result = exp::run_mega_fct(options);

  ctx.metrics.scalar("transport", scheme_token(scheme_for(ctx)));
  ctx.metrics.scalar("hosts", result.hosts);
  ctx.metrics.scalar("links", result.links);
  ctx.metrics.scalar("flow_count", options.concurrent);
  ctx.metrics.scalar("peak_active",
                     static_cast<std::int64_t>(result.sim.peak_active));
  ctx.metrics.scalar("epochs", result.sim.epochs);
  ctx.metrics.scalar("resolves", result.sim.resolves);
  ctx.metrics.scalar("solver_sweeps", result.sim.solver_sweeps);
  ctx.metrics.scalar("solver_relaxations", result.sim.solver_relaxations);
  ctx.metrics.scalar("end_ms", result.sim.end_seconds * 1e3);

  std::vector<double> fct_us;
  fct_us.reserve(result.sim.fct_seconds.size());
  for (const double fct : result.sim.fct_seconds) {
    if (fct >= 0) fct_us.push_back(fct * 1e6);
  }
  emit_fct_table(ctx, result.sim.completed, result.sim.incomplete,
                 std::move(fct_us));
}

// ---------------------------------------------------------------------------
// Registration.
// ---------------------------------------------------------------------------

std::vector<ParamSpec> semi_dynamic_params() {
  return merge_params(
      topology_params(),
      {{"paths", "240", "random host-pair paths (full scale: 1000)"},
       {"initial_active", "100", "flows active before the first event"},
       {"flows_per_event", "25", "flows started/stopped per network event"},
       {"events", "8", "measured network events (full scale: 100)"},
       {"min_active", "75", "lower bound on concurrently active flows"},
       {"max_active", "125", "upper bound on concurrently active flows"},
       {"alpha", "1", "alpha-fairness of the NUM objective"},
       {"seed", "1", "workload RNG seed"}});
}

}  // namespace

void register_builtin_scenarios() {
  ScenarioRegistry& registry = ScenarioRegistry::global();
  if (!registry.empty()) return;  // idempotent

  registry.add(Scenario{
      .name = "convergence",
      .description = "semi-dynamic convergence-time CDF across transports",
      .figure = "Fig. 4a",
      .params = merge_params(semi_dynamic_params(),
                             {{"timeout_ms", "20",
                               "per-event convergence verdict timeout"},
                              {"transports", "<--transport>",
                               "comma list of schemes to compare"}}),
      .run = run_convergence,
      .supports_shards = true});

  registry.add(Scenario{
      .name = "rate-timeseries",
      .description = "rate trace of one tracked flow across network events",
      .figure = "Fig. 4b,c",
      // Defaults are half the convergence scenario's population (the seed
      // fig4bc setup) and must match run_rate_timeseries' fallbacks.
      .params = merge_params(
          topology_params(),
          {{"paths", "120", "random host-pair paths (full scale: 500)"},
           {"initial_active", "50", "flows active before the first event"},
           {"flows_per_event", "12", "flows started/stopped per network event"},
           {"events", "8", "network events to trace"},
           {"min_active", "37", "lower bound on concurrently active flows"},
           {"max_active", "62", "upper bound on concurrently active flows"},
           {"alpha", "1", "alpha-fairness of the NUM objective"},
           {"seed", "7", "workload RNG seed"},
           {"sample_us", "20", "trace sample interval"},
           {"event_interval_ms", "4", "fixed gap between network events"}}),
      .run = run_rate_timeseries,
      .supports_shards = true});

  registry.add(Scenario{
      .name = "dynamic-deviation",
      .description =
          "deviation from fluid-oracle rates under Poisson arrivals, by "
          "BDP-relative size bin",
      .figure = "Fig. 5",
      .params = merge_params(
          topology_params(),
          {{"workload", "websearch", "websearch | enterprise | datamining"},
           {"load", "0.6", "offered load, fraction of host NIC capacity"},
           {"flows", "1200", "number of Poisson arrivals"},
           {"alpha", "1", "alpha-fairness of the NUM objective"},
           {"horizon_ms", "20000", "hard stop for stragglers"},
           {"seed", "11", "workload RNG seed"},
           {"transports", "<--transport>",
            "comma list of schemes to compare"}}),
      .run = run_dynamic_deviation});

  registry.add(Scenario{
      .name = "fct-vs-pfabric",
      .description =
          "mean normalized FCT vs load: FCT-min utility against pFabric "
          "(web-search trace)",
      .figure = "Fig. 7",
      .params = merge_params(
          topology_params(),
          {{"loads", "0.2,0.4,0.6,0.8", "offered loads to sweep"},
           {"load", "", "single offered load (overrides loads)"},
           {"flows", "1200", "Poisson arrivals per load"},
           {"epsilon", "0.125", "FCT-utility exponent (Table 1 row 3)"},
           {"slowdown", "2", "control-loop slowdown (§6.2)"},
           {"seed", "5", "workload RNG seed"}}),
      .run = run_fct_vs_pfabric});

  registry.add(Scenario{
      .name = "resource-pooling",
      .description =
          "multipath sub-flows with and without the pooling (aggregate) "
          "utility on an all-10G leaf-spine",
      .figure = "Fig. 8",
      .params = {{"hosts_per_leaf", "8", "hosts per leaf (full scale: 16)"},
                 {"leaves", "4", "leaf switches (full scale: 8)"},
                 {"spines", "8", "spine switches (full scale: 16)"},
                 {"spine_gbps", "10", "spine link rate (Fig. 8: all-10G)"},
                 {"subflows", "1,2,4,8", "sub-flow counts to sweep"},
                 {"warmup_ms", "8", "settling time before measurement"},
                 {"measure_ms", "12", "goodput measurement window"},
                 {"seed", "2", "permutation RNG seed"}},
      .run = run_resource_pooling});

  registry.add(Scenario{
      .name = "bwfunc-sweep",
      .description =
          "bandwidth-function utilities vs the BwE water-filling allocation "
          "over a capacity sweep",
      .figure = "Fig. 9",
      .params = {{"capacities_gbps", "5,10,15,20,25,30,35",
                  "bottleneck capacities to sweep"},
                 {"alpha", "5", "derived-utility steepness (§6.3)"},
                 {"slowdown", "4", "control-loop slowdown for extreme alphas"},
                 {"warmup_ms", "8", "settling time (full scale: 10)"},
                 {"measure_ms", "12", "measurement window (full scale: 20)"}},
      .run = run_bwfunc_sweep});

  registry.add(Scenario{
      .name = "bwfunc-pooling",
      .description =
          "bandwidth functions composed with resource pooling; middle link "
          "steps 5 -> 17 Gbps mid-run",
      .figure = "Fig. 10",
      .params = {{"alpha", "5", "derived-utility steepness"},
                 {"slowdown", "4", "control-loop slowdown"},
                 {"middle_before_gbps", "5", "middle link rate before the step"},
                 {"middle_after_gbps", "17", "middle link rate after the step"},
                 {"switch_ms", "10", "when the middle link steps"},
                 {"end_ms", "20", "end of the run"}},
      .run = run_bwfunc_pooling});

  registry.add(Scenario{
      .name = "incast",
      .description =
          "synchronized fan-in burst: `fanin` senders to one receiver "
          "(FCT mode; flow_kb=0 for long-running rate mode)",
      .figure = "",
      .params = merge_params(
          merge_params(topology_params(true), fidelity_params()),
          {transport_param(),
           {"core_buffer_kb", "0", "core per-port buffer KB (0 = edge buffer)"},
           {"fanin", "16", "concurrent senders"},
           {"flow_kb", "64", "KB per sender (0 = long-running)"},
           {"alpha", "1", "alpha-fairness of the NUM objective"},
           {"warmup_ms", "8", "rate mode: settling time"},
           {"measure_ms", "12", "rate mode: measurement window"},
           {"horizon_ms", "5000", "FCT mode: hard stop"},
           {"seed", "1", "sender/receiver selection seed"}}),
      .run = [](RunContext& ctx) {
        run_traffic(ctx, exp::TrafficPattern::kIncast, 64);
      },
      .supports_shards = true});

  registry.add(Scenario{
      .name = "permutation",
      .description =
          "random perfect-matching traffic, long-running flows: throughput "
          "fraction and Jain fairness",
      .figure = "",
      .params = merge_params(
          merge_params(topology_params(true), fidelity_params()),
          {transport_param(),
           {"core_buffer_kb", "0", "core per-port buffer KB (0 = edge buffer)"},
           {"flow_kb", "0", "KB per flow (0 = long-running)"},
           {"alpha", "1", "alpha-fairness of the NUM objective"},
           {"warmup_ms", "8", "settling time"},
           {"measure_ms", "12", "measurement window"},
           {"horizon_ms", "5000", "FCT mode: hard stop"},
           {"seed", "1", "matching RNG seed"}}),
      .run = [](RunContext& ctx) {
        run_traffic(ctx, exp::TrafficPattern::kPermutation, 0);
      },
      .supports_shards = true});

  registry.add(Scenario{
      .name = "shuffle",
      .description =
          "all-to-all shuffle wave: every host pair transfers flow_kb, "
          "completion times reported",
      .figure = "",
      .params = merge_params(
          merge_params(topology_params(true), fidelity_params()),
          {transport_param(),
           {"core_buffer_kb", "0", "core per-port buffer KB (0 = edge buffer)"},
           {"flow_kb", "250", "KB per host pair (0 = long-running)"},
           {"alpha", "1", "alpha-fairness of the NUM objective"},
           {"warmup_ms", "8", "rate mode: settling time"},
           {"measure_ms", "12", "rate mode: measurement window"},
           {"horizon_ms", "5000", "hard stop"},
           {"seed", "1", "RNG seed"}}),
      .run = [](RunContext& ctx) {
        run_traffic(ctx, exp::TrafficPattern::kAllToAll, 250);
      },
      .supports_shards = true});

  registry.add(Scenario{
      .name = "websearch-fct",
      .description =
          "normalized-FCT sweep over loads, web-search flow sizes, any "
          "transport",
      .figure = "",
      .params = merge_params(
          merge_params(topology_params(true), fidelity_params()),
          {transport_param(),
           {"workload", "websearch", "websearch | enterprise | datamining"},
           {"loads", "0.2,0.4,0.6,0.8", "offered loads to sweep"},
           {"load", "", "single offered load (overrides loads)"},
           {"flows", "600", "Poisson arrivals per load"},
           {"alpha", "1", "alpha-fairness of the NUM objective"},
           {"horizon_ms", "20000", "hard stop for stragglers"},
           {"seed", "13", "workload RNG seed"}}),
      .run = [](RunContext& ctx) { run_fct_sweep(ctx, "websearch"); }});

  registry.add(Scenario{
      .name = "datamining-fct",
      .description =
          "normalized-FCT sweep over loads, data-mining (VL2-style) flow "
          "sizes, any transport",
      .figure = "",
      .params = merge_params(
          merge_params(topology_params(true), fidelity_params()),
          {transport_param(),
           {"workload", "datamining", "websearch | enterprise | datamining"},
           {"loads", "0.2,0.4,0.6,0.8", "offered loads to sweep"},
           {"load", "", "single offered load (overrides loads)"},
           {"flows", "600", "Poisson arrivals per load"},
           {"alpha", "1", "alpha-fairness of the NUM objective"},
           {"horizon_ms", "20000", "hard stop for stragglers"},
           {"seed", "13", "workload RNG seed"}}),
      .run = [](RunContext& ctx) { run_fct_sweep(ctx, "datamining"); }});

  registry.add(Scenario{
      .name = "oversub-fabric",
      .description =
          "permutation background + all-to-all shuffle wave on a contended "
          "core: core-link utilization, xWI price re-convergence, wave FCTs",
      .figure = "",
      .params = merge_params(
          topology_params(),
          {transport_param(),
           {"core_buffer_kb", "0", "core per-port buffer KB (0 = edge buffer)"},
           {"shuffle_kb", "50", "KB per host pair in the shuffle wave"},
           {"alpha", "1", "alpha-fairness of the NUM objective"},
           {"warmup_ms", "2", "background settling time; the wave starts here"},
           {"measure_ms", "4", "utilization / goodput window after the wave"},
           {"horizon_ms", "200", "hard stop for wave stragglers"},
           {"seed", "1", "workload RNG seed"}}),
      .run = run_oversub_fabric_scenario,
      .supports_shards = true});

  registry.add(Scenario{
      .name = "background-burst",
      .description =
          "long-running background flows plus periodic synchronized incast "
          "bursts: burst FCTs vs background-throughput interference",
      .figure = "",
      .params = merge_params(
          topology_params(),
          {transport_param(),
           {"core_buffer_kb", "0", "core per-port buffer KB (0 = edge buffer)"},
           {"background_load", "0.5",
            "fraction of the host permutation kept as background flows"},
           {"fanin", "8", "concurrent senders per burst"},
           {"burst_kb", "20", "KB per sender per burst"},
           {"burst_interval_ms", "1", "gap between synchronized bursts"},
           {"bursts", "4", "number of bursts"},
           {"alpha", "1", "alpha-fairness of the NUM objective"},
           {"warmup_ms", "2",
            "background settling time (>= burst_interval_ms / 2)"},
           {"horizon_ms", "500", "hard stop for burst stragglers"},
           {"seed", "1", "workload RNG seed"}}),
      .run = run_background_burst_scenario,
      .supports_shards = true});

  registry.add(Scenario{
      .name = "sensitivity",
      .description =
          "one semi-dynamic convergence point at explicit NUMFabric control "
          "parameters (grid it with --sweep)",
      .figure = "Fig. 6",
      .params = merge_params(
          topology_params(),
          {{"paths", "60", "random host-pair paths (1/4 of convergence)"},
           {"initial_active", "25", "flows active before the first event"},
           {"flows_per_event", "6", "flows started/stopped per network event"},
           {"events", "4", "measured network events (full scale: 30)"},
           {"min_active", "18", "lower bound on concurrently active flows"},
           {"max_active", "31", "upper bound on concurrently active flows"},
           {"timeout_ms", "20", "per-event convergence verdict timeout"},
           {"alpha", "1", "alpha-fairness of the NUM objective"},
           {"dt_us", "6", "Swift delay slack d_t (Table 2: 6 us)"},
           {"interval_us", "30", "xWI price update interval (Table 2: 30 us)"},
           {"eta", "5", "xWI under-utilization gain (Eq. 10)"},
           {"beta", "0.5", "xWI price averaging factor (Eq. 11)"},
           {"slowdown", "1", "control-loop slowdown factor (§6.2)"},
           {"seed", "21", "workload RNG seed"}}),
      .run = run_sensitivity,
      .supports_shards = true});

  registry.add(Scenario{
      .name = "trace-replay",
      .description =
          "replay an external arrival/size/src/dst trace CSV and report "
          "flow completion times",
      .figure = "",
      .params = merge_params(
          merge_params(topology_params(), fidelity_params()),
          {{"trace", "",
            "trace CSV path (arrival_s,size_bytes,src,dst); empty = built-in "
            "demo trace"},
           {"alpha", "1", "alpha-fairness of the NUM objective"},
           {"horizon_ms", "20000", "hard stop for stragglers"}}),
      .run = run_trace_replay_scenario});

  registry.add(Scenario{
      .name = "mega-fct",
      .description =
          "10^5-10^6 concurrent flows through the flow-fluid engine on a "
          "virtual leaf-spine (flow fidelity only)",
      .figure = "",
      .params = {{"fidelity", "flow",
                  "flow (this scenario has no packet mode; fidelity=packet "
                  "is rejected)"},
                 {"resolve_us", "1000",
                  "epoch-grid re-solve period in us (must be > 0 at this "
                  "scale)"},
                 {"incremental", "on",
                  "on | off — incremental (worklist) NUM re-solves; same "
                  "tolerance as full solves but not bit-identical"},
                 {"topology", "32x32x8",
                  "virtual fabric shape: HxLxS (hosts_per_leaf x leaves x "
                  "spines) or jellyfish:switches,ports,hosts"},
                 {"host_gbps", "10",
                  "host NIC rate (preset=modern default: 400)"},
                 {"spine_gbps", "40",
                  "leaf-to-spine / switch-to-switch link rate "
                  "(preset=modern: 1600)"},
                 {"preset", "classic",
                  "parameter preset: classic or modern (see topology "
                  "scenarios)"},
                 {"jf_seed", "1",
                  "jellyfish only: random-regular-graph wiring seed"},
                 {"k_paths", "8",
                  "jellyfish only: k-shortest paths per switch pair"},
                 {"concurrent", "100000", "concurrent flows, all at t = 0"},
                 {"workload", "websearch",
                  "websearch | enterprise | datamining"},
                 {"alpha", "1", "alpha-fairness of the NUM objective"},
                 {"horizon_s", "30", "simulated-time hard stop"},
                 {"tolerance", "1e-5",
                  "solver price tolerance (grid FCTs are quantized to "
                  "resolve_us, so 1e-8 precision only buys sweeps)"},
                 {"transport", "<--transport>",
                  "scheme label for the run (numfabric or dgd)"},
                 {"seed", "1", "workload RNG seed"}},
      .run = run_mega_fct_scenario});
}

}  // namespace numfabric::app
