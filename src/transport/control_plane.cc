#include "transport/control_plane.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "num/utility.h"

namespace numfabric::transport {
namespace {

// RCP*'s R is kept within [kRcpMinShareFraction * C, kRcpMaxShareFactor * C].
// The upper bound intentionally exceeds the capacity by a wide margin: RCP*'s
// rate composition x = (sum_l R_l^-alpha)^(-1/alpha) (Eq. 16) needs links to
// advertise MORE than C at equilibrium — e.g. a lone flow over two equal
// links only reaches C when each advertises ~2C.  Underutilized links keep
// raising R until their own throughput meets capacity.
constexpr double kRcpMinShareFraction = 1e-4;
constexpr double kRcpMaxShareFactor = 1e3;
// Per-update multiplicative change bound on R.  With Table 2's gains
// (a = 3.6) a large rate-capacity mismatch makes the raw factor (1 + gain)
// negative, which would flip R's sign; real RCP implementations bound the
// step.  The clamp only engages during large transients and does not move
// equilibria.
constexpr double kRcpMaxGain = 0.3;

sim::TimeNs interval_for(const ControlPlane::Params& params) {
  switch (params.scheme) {
    case Scheme::kNumFabric:
      return params.numfabric.price_update_interval;
    case Scheme::kDgd:
      return params.dgd.price_update_interval;
    case Scheme::kRcpStar:
      return params.rcp.rate_update_interval;
    case Scheme::kDctcp:
    case Scheme::kPFabric:
      return 0;
  }
  throw std::logic_error("ControlPlane: unknown scheme");
}

}  // namespace

std::unique_ptr<ControlPlane> ControlPlane::attach(sim::Simulator& sim,
                                                   const Params& params,
                                                   net::Topology& topo) {
  if (params.scheme == Scheme::kDctcp || params.scheme == Scheme::kPFabric) {
    return nullptr;  // all state lives in the queues / hosts
  }
  // Not make_unique: the constructor is private.
  std::unique_ptr<ControlPlane> plane(new ControlPlane(sim, params));
  plane->attach_links(topo);
  return plane;
}

ControlPlane::ControlPlane(sim::Simulator& sim, const Params& params)
    : sim_(sim), params_(params) {
  const sim::TimeNs interval = interval_for(params_);
  if (interval <= 0) {
    throw std::invalid_argument("ControlPlane: update interval must be > 0");
  }
  if (params_.scheme == Scheme::kNumFabric) {
    // Eq. 10 drives an idle link's price to 0 only for eta >= 0, and Eq. 11
    // is an average only for beta in [0, 1]: outside those ranges an idle
    // link's price grows geometrically or flips sign every tick.
    const double eta = params_.numfabric.eta;
    const double beta = params_.numfabric.beta;
    if (!(std::isfinite(eta) && eta >= 0)) {
      throw std::invalid_argument(
          "ControlPlane: xWI eta must be finite and >= 0, got " +
          std::to_string(eta));
    }
    if (!(std::isfinite(beta) && beta >= 0 && beta <= 1)) {
      throw std::invalid_argument(
          "ControlPlane: xWI beta must be finite and in [0, 1], got " +
          std::to_string(beta));
    }
  }
  interval_seconds_ = sim::to_seconds(interval);
}

void ControlPlane::attach_links(net::Topology& topo) {
  const std::size_t n = topo.links().size();
  links_.reserve(n);
  for (const auto& link : topo.links()) links_.push_back(link.get());

  stamp_.assign(n, 0.0);
  min_residual_.assign(n, std::numeric_limits<double>::infinity());
  saw_residual_.assign(n, 0);
  bytes_serviced_.assign(n, 0);

  net::ControlStamp mode = net::ControlStamp::kNone;
  switch (params_.scheme) {
    case Scheme::kNumFabric:
      mode = net::ControlStamp::kXwiPrice;
      price_.assign(n, params_.numfabric.initial_price);
      stamp_ = price_;
      break;
    case Scheme::kDgd:
      mode = net::ControlStamp::kFeedback;
      price_.assign(n, params_.dgd.initial_price);
      stamp_ = price_;
      break;
    case Scheme::kRcpStar: {
      mode = net::ControlStamp::kFeedback;
      fair_share_bps_.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Every link starts by advertising its own capacity.
        fair_share_bps_[i] = links_[i]->rate_bps();
        stamp_[i] = std::pow(num::to_rate_units(fair_share_bps_[i]),
                             -params_.rcp.alpha);
      }
      break;
    }
    case Scheme::kDctcp:
    case Scheme::kPFabric:
      throw std::logic_error("ControlPlane: scheme has no link state");
  }

  // The arrays are at their final addresses now; hand them to the links.
  arrays_.stamp = stamp_.data();
  arrays_.min_residual = min_residual_.data();
  arrays_.saw_residual = saw_residual_.data();
  arrays_.bytes_serviced = bytes_serviced_.data();
  for (std::size_t i = 0; i < n; ++i) {
    links_[i]->attach_control(mode, &arrays_, static_cast<std::uint32_t>(i));
  }

  tick_.arm(sim_, interval_for(params_), [this] { sweep(); });
}

void ControlPlane::sweep() {
  switch (params_.scheme) {
    case Scheme::kNumFabric:
      sweep_xwi();
      break;
    case Scheme::kDgd:
      sweep_dgd();
      break;
    case Scheme::kRcpStar:
      sweep_rcp();
      break;
    case Scheme::kDctcp:
    case Scheme::kPFabric:
      break;
  }
  auto& stats = sim::substrate_stats();
  ++stats.control_ticks;
  stats.links_swept += links_.size();
}

// Fig. 3's per-interval price update (Eqs. 10, 11; see control_plane.h).  A
// link with a standing backlog counts as fully utilized: byte counting alone
// undercounts by up to a packet per interval (boundary slicing), and that
// fractional shortfall would let the eta term cancel legitimately positive
// residuals and park the price below the optimum.  A quiet interval
// contributes min_res = 0, so only the under-utilization term acts, and the
// new price is beta-averaged with the old.
void ControlPlane::sweep_xwi() {
  const double eta = params_.numfabric.eta;
  const double beta = params_.numfabric.beta;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const net::Link* link = links_[i];
    const double utilization =
        link->queue().empty()
            ? std::min(static_cast<double>(bytes_serviced_[i]) * 8.0 /
                           (interval_seconds_ * link->rate_bps()),
                       1.0)
            : 1.0;
    const double min_res = saw_residual_[i] ? min_residual_[i] : 0.0;
    const double price = price_[i];
    const double new_price = std::max(
        price + min_res - eta * (1.0 - utilization) * price, 0.0);
    price_[i] = beta * price + (1.0 - beta) * new_price;
    stamp_[i] = price_[i];
    bytes_serviced_[i] = 0;
    min_residual_[i] = std::numeric_limits<double>::infinity();
    saw_residual_[i] = 0;
  }
}

// DGD's per-link price update, Eq. 14:
//
//   p <- [ p + a (y - C) + b q ]_+
//
// with y the link's throughput over the last interval and C its capacity
// (both in Mbps, matching Table 2's units for a), and q the instantaneous
// queue backlog in bytes.
void ControlPlane::sweep_dgd() {
  const double a = params_.dgd.a;
  const double b = params_.dgd.b;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const net::Link* link = links_[i];
    const double y_mbps = num::to_rate_units(
        static_cast<double>(bytes_serviced_[i]) * 8.0 / interval_seconds_);
    const double c_mbps = num::to_rate_units(link->rate_bps());
    const double q_bytes = static_cast<double>(link->queue().bytes());
    price_[i] =
        std::max(price_[i] + a * (y_mbps - c_mbps) + b * q_bytes, 0.0);
    stamp_[i] = price_[i];
    bytes_serviced_[i] = 0;
  }
}

// RCP*'s per-link fair-share update, Eq. 15:
//
//   R <- R * ( 1 + (T/d) * ( a (C - y) - b q/d ) / C )
//
// with T the update interval, y the link's throughput over the last
// interval and q its queue backlog; the step and R are clamped by the
// constants at the top of this file.  d is "the running average of the RTT
// of the flows".  Flows' RTTs include queueing delay, which is RCP's natural
// damping: as the backlog grows, T/d shrinks.  d is approximated as the
// configured avg_rtt (the fabric's base RTT) plus this link's queueing
// delay.  R only changes here, so the per-packet stamp R^-alpha costs one
// std::pow per link per tick.
void ControlPlane::sweep_rcp() {
  const double t = interval_seconds_;
  const double alpha = params_.rcp.alpha;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const net::Link* link = links_[i];
    const double capacity = link->rate_bps();
    const double y = static_cast<double>(bytes_serviced_[i]) * 8.0 / t;
    const double q_bits = static_cast<double>(link->queue().bytes()) * 8.0;
    const double d = sim::to_seconds(params_.rcp.avg_rtt) + q_bits / capacity;
    const double gain = std::clamp(
        (t / d) * (params_.rcp.a * (capacity - y) -
                   params_.rcp.b * q_bits / d) / capacity,
        -kRcpMaxGain, kRcpMaxGain);
    fair_share_bps_[i] = std::clamp(fair_share_bps_[i] * (1.0 + gain),
                                    kRcpMinShareFraction * capacity,
                                    kRcpMaxShareFactor * capacity);
    stamp_[i] = std::pow(num::to_rate_units(fair_share_bps_[i]), -alpha);
    bytes_serviced_[i] = 0;
  }
}

}  // namespace numfabric::transport
