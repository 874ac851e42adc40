// Empirical flow-size distributions for the dynamic workloads (§6.1).
//
// The paper samples flow sizes from measurements of a web-search cluster [3]
// and a large enterprise [4].  The raw traces are not public; these are
// synthetic piecewise CDFs matching the descriptive statistics the paper
// quotes (web search: ~50% of flows < 100 KB while 95% of bytes come from
// the 30% of flows > 1 MB; enterprise: 95% of flows < 10 KB and ~70% of
// flows are 1-2 packets).  They match those statistics, not the unpublished
// traces themselves.
//
// Sampling interpolates log-linearly in size between CDF breakpoints, which
// reproduces the heavy-tail shape the experiments depend on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/random.h"

namespace numfabric::workload {

class SizeDistribution {
 public:
  struct Point {
    double size_bytes;
    double cdf;  // P(size <= size_bytes)
  };

  /// Breakpoints must have increasing sizes and increasing cdf ending at 1.
  SizeDistribution(std::string name, std::vector<Point> points);

  /// Inverse-transform sample.
  std::uint64_t sample(sim::Rng& rng) const;

  /// Quantile (u in [0,1]) — exposed for deterministic tests.
  double quantile(double u) const;

  /// Mean flow size, integrated numerically from the CDF.
  double mean_bytes() const;

  const std::string& name() const { return name_; }
  const std::vector<Point>& points() const { return points_; }

 private:
  std::string name_;
  std::vector<Point> points_;
  double mean_bytes_;
};

/// Web-search workload [3]: heavy-tailed, bytes dominated by multi-MB flows.
const SizeDistribution& websearch_distribution();

/// Enterprise workload [4]: even more skewed; most flows are 1-2 packets.
const SizeDistribution& enterprise_distribution();

/// Data-mining workload (VL2-style, as used by the pFabric evaluation):
/// ~80% of flows under 10 KB while nearly all bytes ride a multi-100MB
/// tail.  Not in the paper's §6 but the standard third datacenter trace for
/// FCT sweeps.  The default tail is capped at 300 MB so quick-scale sweeps
/// stay bounded; `full_tail` (NUMFABRIC_FULL=1 runs) extends it to the
/// VL2-reported 1 GB maximum.
const SizeDistribution& datamining_distribution(bool full_tail = false);

}  // namespace numfabric::workload
