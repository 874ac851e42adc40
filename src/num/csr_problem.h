// Compiled NUM problem: CSR incidence + dense utility parameters + a wave
// schedule for deterministic parallel Gauss-Seidel.
//
// Lifecycle (see src/num/README.md for the full story):
//
//   num::NumProblem problem = ...;                  // authoring form
//   num::CsrProblem csr = num::CsrProblem::compile(problem);
//   num::NumWorkspace workspace;                    // caller-owned, reusable
//   num::solve(csr, workspace, options);            // cold solve
//   ...
//   csr.set_active(flow, false);                    // CSR row patch
//   num::solve(csr, workspace, options);            // warm, zero-alloc
//
// compile() unpacks the pointer-heavy NumProblem into flat arrays:
//  * flow->link and link->flow incidence in CSR form (offsets + flat index
//    arrays) — the link->flow lists are in increasing flow order, which is
//    byte-for-byte the summation order the legacy solve_num used, so load
//    accumulation rounds identically;
//  * per-flow AlphaFairUtility parameters as dense SoA (weight, -1/alpha),
//    so the solver's inner loop runs closed-form arithmetic with no virtual
//    dispatch.  Flows whose utility is not a positive-alpha AlphaFairUtility
//    keep a generic UtilityFunction* fallback with the exact legacy
//    semantics (including the alpha == 0 throw);
//  * a wave schedule: links colored greedily in id order with
//    color(l) = 1 + max{color(k) : k < l, k shares a flow with l}.  Within a
//    wave no two links share a flow, every conflicting earlier link sits in
//    a strictly earlier wave and every conflicting later link in a strictly
//    later wave — so executing waves in order, links within a wave in any
//    order or in parallel, is bit-identical to the natural-order serial
//    sweep (non-conflicting per-link updates touch disjoint state).
//
// set_active() toggles a flow without recompiling: it is exactly the
// subproblem over the active rows.  Two structures keep that patch O(path ×
// row-active) instead of forcing the solver back to O(history):
//  * per-link *compacted active rows*: alongside each full link->flow row,
//    the prefix [link_offsets_[l], link_offsets_[l] + link_active_count_[l])
//    of link_active_ lists only the link's active flows, maintained sorted
//    by flow id — the legacy summation order — so iterating the compacted
//    row yields the identical values in the identical order as scanning the
//    full row and skipping inactives.  Every load sum therefore rounds
//    bit-identically while costing O(active-on-link), not O(ever-compiled);
//  * a global active-flow list (unsorted, swap-remove) for the solver's
//    per-flow passes (path_price init, rate extraction) — those loops write
//    disjoint per-flow slots, so iteration order cannot affect any bit.
//
// set_active() additionally records a *dirty set* for the incremental
// re-solve path (NumSolverOptions::incremental): the links whose active rows
// changed and the flows that were toggled since the last solve against this
// problem.  The solver consumes the sets via dirty_links()/touched_flows()
// and acknowledges them with mark_solved(); see src/num/README.md for the
// contract.  The wave schedule is computed over the full flow set and stays
// valid for every active subset.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "num/utility.h"
#include "util/worker_pool.h"

namespace numfabric::num {

struct NumProblem {
  /// Non-owning views of per-flow utilities (caller keeps them alive).
  std::vector<const UtilityFunction*> utilities;
  /// Per-flow list of link indices (non-empty).
  std::vector<std::vector<int>> flow_links;
  /// Per-link capacity in rate units (Mbps).
  std::vector<double> capacities;
};

/// How a solve runs.  serial() is the reference spec (natural link order);
/// parallel(n) executes the wave schedule on n threads and is bit-identical
/// to serial() for every n (see the wave-schedule argument above).
struct ExecutionPolicy {
  int threads = 1;

  static ExecutionPolicy serial() { return {1}; }
  static ExecutionPolicy parallel(int threads) {
    return {threads < 1 ? 1 : threads};
  }
};

class CsrProblem {
 public:
  /// Validates and compiles `problem` (throws std::invalid_argument exactly
  /// where the legacy solve_num did).  All flows start active.  The utility
  /// objects are borrowed; keep them alive for the CsrProblem's lifetime.
  static CsrProblem compile(const NumProblem& problem);

  std::size_t num_flows() const { return weight_.size(); }
  std::size_t num_links() const { return capacities_.size(); }
  std::size_t num_waves() const { return wave_offsets_.size() - 1; }

  /// The CSR row patch: include/exclude one flow from subsequent solves.
  /// Maintains the compacted active rows (sorted insert/remove on each link
  /// of the flow's path) and records the flow + its links in the dirty set.
  void set_active(std::size_t flow, bool active);
  bool active(std::size_t flow) const { return active_[flow] != 0; }
  std::size_t active_count() const { return active_list_.size(); }

  /// Deactivates every flow in O(flows + links) — the bulk form of
  /// set_active(i, false) for engine resets, where per-flow removal from the
  /// compacted rows would cost O(row²).  Leaves the dirty set in the
  /// "everything changed" state (all_dirty), forcing the next solve full.
  void deactivate_all();

  const std::vector<double>& capacities() const { return capacities_; }

  // --- flat views for the solver ------------------------------------------
  std::span<const std::int32_t> flow_links(std::size_t flow) const {
    return {flow_links_.data() + flow_offsets_[flow],
            flow_links_.data() + flow_offsets_[flow + 1]};
  }
  std::span<const std::int32_t> link_flows(std::size_t link) const {
    return {link_flows_.data() + link_offsets_[link],
            link_flows_.data() + link_offsets_[link + 1]};
  }
  /// The compacted row: the link's *active* flows, sorted by flow id — the
  /// same values in the same order as link_flows(link) filtered by active().
  std::span<const std::int32_t> link_active_flows(std::size_t link) const {
    return {link_active_.data() + link_offsets_[link],
            link_active_.data() + link_offsets_[link] +
                link_active_count_[link]};
  }
  /// All active flows, unsorted (swap-remove order).  Safe wherever the
  /// consumer writes disjoint per-flow slots; use link_active_flows for any
  /// order-sensitive summation.
  std::span<const std::int32_t> active_flows() const { return active_list_; }
  std::span<const std::int32_t> wave_links(std::size_t wave) const {
    return {wave_links_.data() + wave_offsets_[wave],
            wave_links_.data() + wave_offsets_[wave + 1]};
  }

  // --- dirty set (incremental re-solve contract) --------------------------
  // set_active accumulates changes; num::solve consumes them and calls
  // mark_solved() to start the next accumulation window.  The sets are
  // observer state, not part of the problem's mathematical value, hence
  // mutable/const.  `epoch()` counts mark_solved calls so a workspace can
  // prove the accumulated sets describe changes since *its* last solve (a
  // second workspace interleaving solves bumps the epoch and falls back to
  // a full solve).
  bool all_dirty() const { return all_dirty_; }
  std::span<const std::int32_t> dirty_links() const { return dirty_links_; }
  std::span<const std::int32_t> touched_flows() const {
    return touched_flows_;
  }
  std::uint64_t epoch() const { return epoch_; }
  void mark_solved() const;

  /// U'^{-1}(price) for one flow — bitwise the utility's marginal_inverse,
  /// devirtualized for alpha-fair flows (reciprocal for alpha == 1, one
  /// std::pow otherwise).
  double marginal_inverse(std::size_t flow, double price) const {
    switch (kind_[flow]) {
      case kReciprocal: {
        // pow(x, -1.0) is 1/x bitwise (asserted by a unit test), so the
        // alpha == 1 inner loop is one divide instead of a pow.
        const double rate =
            1.0 / (std::max(price, kMinPrice) / weight_[flow]);
        if (!std::isfinite(rate)) return kMaxRate;
        return std::min(rate, kMaxRate);
      }
      case kPow: {
        const double rate = std::pow(std::max(price, kMinPrice) / weight_[flow],
                                     neg_inv_alpha_[flow]);
        if (!std::isfinite(rate)) return kMaxRate;
        return std::min(rate, kMaxRate);
      }
      default:
        return generic_[flow]->marginal_inverse(price);
    }
  }

  /// True iff every compiled flow has a closed-form (positive-alpha
  /// AlphaFairUtility) marginal inverse, i.e. rate_and_slope applies.
  bool closed_form() const { return closed_form_; }

  struct RateSlope {
    double rate;
    double slope;  // d rate / d price
  };

  /// marginal_inverse together with its derivative in the price, for the
  /// tolerance-mode Newton price finder.  Closed-form kinds only (see
  /// closed_form()).  rate = (q/w)^(-1/alpha) gives d rate/d q =
  /// (-1/alpha) * rate / q.  The slope is 0 where the kMinPrice or kMaxRate
  /// clamp binds.
  ///
  /// alpha == 1 takes one division per term: inv = 1/q, rate = w * inv,
  /// slope = -rate * inv.  For w == 1 that rate is bitwise marginal_inverse's
  /// 1/(q/w); for other weights it may differ in the last bit, which is
  /// harmless because only the Newton bracket and estimate read it — the
  /// rates a solve reports come from marginal_inverse.  Other alphas compute
  /// rate exactly as marginal_inverse does.
  RateSlope rate_and_slope(std::size_t flow, double price) const {
    const double q = std::max(price, kMinPrice);
    if (kind_[flow] == kReciprocal) {
      const double inv = 1.0 / q;
      const double rate = weight_[flow] * inv;
      if (!std::isfinite(rate) || rate >= kMaxRate) return {kMaxRate, 0.0};
      if (price <= kMinPrice) return {rate, 0.0};
      return {rate, -rate * inv};
    }
    const double rate = std::pow(q / weight_[flow], neg_inv_alpha_[flow]);
    if (!std::isfinite(rate) || rate >= kMaxRate) return {kMaxRate, 0.0};
    if (price <= kMinPrice) return {rate, 0.0};
    return {rate, neg_inv_alpha_[flow] * rate / q};
  }

  /// U'(rate) for one flow (the compiled twin of marginal_inverse, used by
  /// the CSR kkt_residual overload).
  double marginal(std::size_t flow, double rate) const {
    return utilities_[flow]->marginal(rate);
  }

 private:
  enum Kind : std::uint8_t { kReciprocal, kPow, kGeneric };

  CsrProblem() = default;

  void build_waves();
  void mark_flow_touched(std::size_t flow) const;
  void mark_link_dirty(std::int32_t link) const;

  std::vector<std::int32_t> flow_offsets_;  // num_flows + 1
  std::vector<std::int32_t> flow_links_;    // flat, path order
  std::vector<std::int32_t> link_offsets_;  // num_links + 1
  std::vector<std::int32_t> link_flows_;    // flat, increasing flow id
  std::vector<std::int32_t> wave_offsets_;  // num_waves + 1
  std::vector<std::int32_t> wave_links_;    // flat, increasing link id per wave

  // Compacted active rows: same offsets as link_flows_, first
  // link_active_count_[l] entries of each row are the link's active flows in
  // increasing flow id.
  std::vector<std::int32_t> link_active_;
  std::vector<std::int32_t> link_active_count_;  // num_links

  std::vector<double> capacities_;
  std::vector<double> weight_;         // alpha-fair weight (1.0 for generic)
  std::vector<double> neg_inv_alpha_;  // -1/alpha (0.0 for generic)
  std::vector<const UtilityFunction*> generic_;  // non-null iff kind kGeneric
  std::vector<const UtilityFunction*> utilities_;  // all, for marginal()
  std::vector<std::uint8_t> kind_;
  bool closed_form_ = true;  // no kGeneric flow compiled

  std::vector<std::uint8_t> active_;
  std::vector<std::int32_t> active_list_;  // active flows, swap-remove order
  std::vector<std::int32_t> active_pos_;   // flow -> index in active_list_

  // Dirty-set accumulation (see mark_solved).
  mutable std::vector<std::uint8_t> link_dirty_;
  mutable std::vector<std::int32_t> dirty_links_;
  mutable std::vector<std::uint8_t> flow_touched_;
  mutable std::vector<std::int32_t> touched_flows_;
  mutable bool all_dirty_ = true;
  mutable std::uint64_t epoch_ = 0;
};

/// Caller-owned solver state: prices, per-flow path prices, scratch, rates,
/// and the lazily created worker pool for parallel policies.  Reusing one
/// workspace across solves of the same (or same-shaped) problem makes every
/// re-solve allocation-free (tracked by the allocs_solver_workspace
/// substrate counter) and warm-starts it from the previous solve's prices.
class NumWorkspace {
 public:
  NumWorkspace() = default;

  /// Per-link prices after the last solve (link index order).
  std::span<const double> prices() const { return prices_; }
  /// Per-flow rates after the last solve; inactive flows report 0.
  std::span<const double> rates() const { return rates_; }

  /// Forgets the warm-start state: the next solve starts cold (prices 1.0)
  /// unless the options carry explicit initial_prices.  Buffers keep their
  /// capacity, so the next solve stays allocation-free.
  void reset() {
    warm_ = false;
    bound_problem_ = nullptr;
  }

 private:
  friend struct SolverAccess;

  std::vector<double> prices_;
  std::vector<double> path_price_;
  std::vector<double> base_;    // path price minus the updating link's price
  std::vector<double> change_;  // per-link |new - old| for the wave path
  std::vector<double> rates_;
  bool warm_ = false;

  // Incremental re-solve state: the problem/epoch the stored path_price and
  // rates correspond to (see CsrProblem::epoch), a fixed-capacity FIFO ring
  // of links to relax, its membership bitmap and the sorted dirty-link seed.
  const CsrProblem* bound_problem_ = nullptr;
  std::uint64_t bound_epoch_ = 0;
  std::vector<std::int32_t> worklist_;   // ring buffer, capacity num_links
  std::vector<std::uint8_t> in_queue_;   // per-link membership
  std::vector<std::int32_t> seed_;       // dirty links, capacity num_links

  // Stale-link verification (tolerance mode): the stamp of each link's last
  // relaxation, the stamp of the last relaxation that moved a price on each
  // flow's path, the last stamp taken, and whether the previous solve left
  // the stamps describing a converged state (see src/num/README.md).
  std::vector<std::uint32_t> link_stamp_;
  std::vector<std::uint32_t> flow_stamp_;
  std::uint32_t stamp_clock_ = 0;
  bool stamps_current_ = false;

  std::unique_ptr<util::WorkerPool> pool_;
};

/// Shared incidence helper: flows_on_link lists in increasing flow order —
/// the summation order every solver in num/ uses.  bwe_waterfill and
/// xwi_fluid build their transposed incidence through this so all of num/
/// rounds identically.
std::vector<std::vector<int>> flows_on_link(
    const std::vector<std::vector<int>>& flow_links, std::size_t num_links);

}  // namespace numfabric::num
