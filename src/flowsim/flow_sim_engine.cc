#include "flowsim/flow_sim_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "sim/substrate_stats.h"

namespace numfabric::flowsim {
namespace {

constexpr double kDoneBits = 1e-6;  // remaining <= this counts as finished

// Compile the full flow set once; arrivals and departures are set_active
// row patches, re-solves share one warm workspace.  Each path moves into the
// problem, so the CSR rows are the only copy the engine keeps.
num::CsrProblem compile_flows(std::vector<FlowSimFlow>& flows,
                              std::vector<double> capacities) {
  for (const FlowSimFlow& f : flows) {
    if (f.size_bytes <= 0) {
      throw std::invalid_argument("FlowSimEngine: size <= 0");
    }
    if (f.utility == nullptr) {
      throw std::invalid_argument("FlowSimEngine: null utility");
    }
    if (f.links.empty()) {
      throw std::invalid_argument("FlowSimEngine: empty path");
    }
  }
  num::NumProblem problem;
  problem.capacities = std::move(capacities);
  problem.utilities.reserve(flows.size());
  problem.flow_links.reserve(flows.size());
  for (FlowSimFlow& f : flows) {
    problem.utilities.push_back(f.utility);
    problem.flow_links.push_back(std::move(f.links));
  }
  return num::CsrProblem::compile(problem);
}

}  // namespace

FlowSimEngine::FlowSimEngine(std::vector<FlowSimFlow> flows,
                             std::vector<double> capacities,
                             FlowSimOptions options)
    : options_(std::move(options)),
      csr_(compile_flows(flows, std::move(capacities))) {
  if (options_.resolve_interval_seconds < 0) {
    throw std::invalid_argument("FlowSimEngine: resolve interval < 0");
  }
  flows_.reserve(flows.size());
  for (const FlowSimFlow& f : flows) {
    flows_.push_back({f.arrival_seconds, f.size_bytes});
  }

  order_.resize(flows_.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  // Stable: simultaneous arrivals admit in increasing flow id, so their
  // set_active calls append to the compacted active rows instead of
  // shifting them.  (Admission order within an epoch cannot affect results:
  // the row patch commutes and every per-flow pass writes disjoint slots.)
  std::stable_sort(
      order_.begin(), order_.end(), [this](std::size_t a, std::size_t b) {
        return flows_[a].arrival_seconds < flows_[b].arrival_seconds;
      });
  remaining_bits_.assign(flows_.size(), 0.0);
  reset();
}

void FlowSimEngine::reset() {
  csr_.deactivate_all();
  workspace_.reset();
  solver_options_ = options_.solver;
  active_.clear();
  std::fill(remaining_bits_.begin(), remaining_bits_.end(), 0.0);
  next_arrival_ = 0;
  now_ = 0.0;
  finished_ = flows_.empty();
  result_ = FlowSimResult{};
  result_.fct_seconds.assign(flows_.size(), -1.0);
  result_.ideal_rate.assign(flows_.size(), 0.0);
  if (finished_) result_.end_seconds = 0.0;
}

void FlowSimEngine::admit_due_arrivals() {
  if (active_.empty() && next_arrival_ < order_.size()) {
    now_ = std::max(now_, flows_[order_[next_arrival_]].arrival_seconds);
  }
  while (next_arrival_ < order_.size() &&
         flows_[order_[next_arrival_]].arrival_seconds <= now_ + 1e-15) {
    const std::size_t id = order_[next_arrival_++];
    active_.push_back(id);
    remaining_bits_[id] = flows_[id].size_bytes * 8.0;
    csr_.set_active(id, true);
  }
  result_.peak_active = std::max(result_.peak_active, active_.size());
}

void FlowSimEngine::resolve() {
  // The first solve honours the caller's initial_prices (cold at 1.0 when
  // empty); afterwards the workspace's converged prices warm-start every
  // re-solve — the active set moves while the dual barely does.
  const num::SolveStats stats = num::solve(csr_, workspace_, solver_options_);
  solver_options_.initial_prices.clear();
  ++result_.resolves;
  result_.solver_sweeps += stats.sweeps;
  result_.solver_relaxations += stats.relaxations;
}

void FlowSimEngine::retire(std::size_t id, double at_seconds) {
  const double fct = at_seconds - flows_[id].arrival_seconds;
  result_.fct_seconds[id] = fct;
  result_.ideal_rate[id] = flows_[id].size_bytes * 8.0 /
                           std::max(fct, 1e-12) / num::kRateUnitBps;
  ++result_.completed;
  csr_.set_active(id, false);
}

void FlowSimEngine::finish() {
  finished_ = true;
  result_.incomplete += static_cast<int>(active_.size());
  result_.incomplete += static_cast<int>(order_.size() - next_arrival_);
  active_.clear();
  result_.end_seconds = now_;
}

// Exact mode: the event-driven fluid system.  num::fluid_fct_oracle steps
// this mode to completion, so it is the only fluid loop in the repo.
bool FlowSimEngine::step_exact() {
  admit_due_arrivals();
  resolve();
  const std::span<const double> rates = workspace_.rates();

  // Advance to the next event: first completion, next arrival or horizon.
  double dt = std::numeric_limits<double>::infinity();
  if (next_arrival_ < order_.size()) {
    dt = flows_[order_[next_arrival_]].arrival_seconds - now_;
  }
  for (const std::size_t id : active_) {
    const double rate_bps = rates[id] * num::kRateUnitBps;
    if (rate_bps <= 0) continue;
    dt = std::min(dt, remaining_bits_[id] / rate_bps);
  }
  if (!std::isfinite(dt) && !std::isfinite(options_.horizon_seconds)) {
    throw std::logic_error("FlowSimEngine: stalled (all rates zero)");
  }
  dt = std::min(dt, options_.horizon_seconds - now_);
  dt = std::max(dt, 0.0);
  now_ += dt;
  for (const std::size_t id : active_) {
    remaining_bits_[id] -= rates[id] * num::kRateUnitBps * dt;
  }

  for (std::size_t k = 0; k < active_.size();) {
    const std::size_t id = active_[k];
    if (remaining_bits_[id] <= kDoneBits) {
      retire(id, now_);
      active_[k] = active_.back();
      active_.pop_back();
    } else {
      ++k;
    }
  }

  if (now_ >= options_.horizon_seconds ||
      (active_.empty() && next_arrival_ >= order_.size())) {
    finish();
  }
  return !finished_;
}

// Grid mode: rates are frozen for one resolve interval.  Departures inside
// the window follow analytically from remaining / rate (each counts as an
// epoch but costs no solve); arrivals wait for the next grid point.
bool FlowSimEngine::step_grid() {
  admit_due_arrivals();
  resolve();
  const std::span<const double> rates = workspace_.rates();

  const double window_end = std::min(now_ + options_.resolve_interval_seconds,
                                     options_.horizon_seconds);
  double max_rate = 0.0;
  for (std::size_t k = 0; k < active_.size();) {
    const std::size_t id = active_[k];
    const double rate_bps = rates[id] * num::kRateUnitBps;
    max_rate = std::max(max_rate, rate_bps);
    const double drain = rate_bps * (window_end - now_);
    if (remaining_bits_[id] <= drain + kDoneBits) {
      const double done_at =
          rate_bps > 0
              ? std::min(now_ + remaining_bits_[id] / rate_bps, window_end)
              : window_end;
      retire(id, done_at);
      ++result_.epochs;  // the departure epoch, handled without a solve
      active_[k] = active_.back();
      active_.pop_back();
    } else {
      remaining_bits_[id] -= drain;
      ++k;
    }
  }
  if (!active_.empty() && max_rate <= 0 && next_arrival_ >= order_.size() &&
      !std::isfinite(options_.horizon_seconds)) {
    throw std::logic_error("FlowSimEngine: stalled (all rates zero)");
  }
  now_ = window_end;

  if (now_ >= options_.horizon_seconds ||
      (active_.empty() && next_arrival_ >= order_.size())) {
    finish();
  }
  return !finished_;
}

bool FlowSimEngine::step() {
  if (finished_) return false;
  if (now_ >= options_.horizon_seconds) {
    finish();
    return false;
  }
  ++result_.epochs;
  return options_.resolve_interval_seconds > 0 ? step_grid() : step_exact();
}

FlowSimResult FlowSimEngine::run() {
  while (step()) {
  }
  sim::SubstrateStats& stats = sim::substrate_stats();
  stats.flowsim_epochs += static_cast<std::uint64_t>(result_.epochs);
  stats.flowsim_resolves += static_cast<std::uint64_t>(result_.resolves);
  return result_;
}

}  // namespace numfabric::flowsim
