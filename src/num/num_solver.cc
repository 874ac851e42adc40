#include "num/num_solver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/substrate_stats.h"

namespace numfabric::num {

// Private accessor so the solver can use the workspace's buffers without the
// header exposing mutable internals to every includer.
struct SolverAccess {
  static std::vector<double>& prices(NumWorkspace& ws) { return ws.prices_; }
  static std::vector<double>& path_price(NumWorkspace& ws) {
    return ws.path_price_;
  }
  static std::vector<double>& base(NumWorkspace& ws) { return ws.base_; }
  static std::vector<double>& change(NumWorkspace& ws) { return ws.change_; }
  static std::vector<double>& rates(NumWorkspace& ws) { return ws.rates_; }
  static bool& warm(NumWorkspace& ws) { return ws.warm_; }
  static const CsrProblem*& bound_problem(NumWorkspace& ws) {
    return ws.bound_problem_;
  }
  static std::uint64_t& bound_epoch(NumWorkspace& ws) {
    return ws.bound_epoch_;
  }
  static std::vector<std::int32_t>& worklist(NumWorkspace& ws) {
    return ws.worklist_;
  }
  static std::vector<std::uint8_t>& in_queue(NumWorkspace& ws) {
    return ws.in_queue_;
  }
  static std::vector<std::int32_t>& seed(NumWorkspace& ws) { return ws.seed_; }
  static std::vector<std::uint32_t>& link_stamp(NumWorkspace& ws) {
    return ws.link_stamp_;
  }
  static std::vector<std::uint32_t>& flow_stamp(NumWorkspace& ws) {
    return ws.flow_stamp_;
  }
  static std::uint32_t& stamp_clock(NumWorkspace& ws) {
    return ws.stamp_clock_;
  }
  static bool& stamps_current(NumWorkspace& ws) {
    return ws.stamps_current_;
  }
  static std::unique_ptr<util::WorkerPool>& pool(NumWorkspace& ws) {
    return ws.pool_;
  }
};

namespace {

/// resize() that counts actual heap growth into the substrate stats — the
/// zero-allocation-per-re-solve guarantee is measured, not assumed.
template <typename T>
void sized(std::vector<T>& v, std::size_t n) {
  if (v.capacity() < n) ++sim::substrate_stats().allocs_solver_workspace;
  v.resize(n);
}

/// Which loop picks a link's new price once it is known to be overloaded at
/// price 0 (see update_link).
enum class PriceFinder { kBisection, kNewton };

/// The reference price finder: bisection on the "load > capacity" predicate
/// to `price_resolution`, or to the last representable bit when it is 0.
///
/// Arithmetic is line-for-line the legacy solve_num bisection; the three
/// differences are bit-exact accelerations:
///  * load sums early-exit once the partial sum exceeds capacity (terms are
///    non-negative and correctly rounded addition is monotone, so the
///    verdict of the > capacity predicate — the only thing the bisection
///    ever reads — is unchanged);
///  * marginal_inverse is devirtualized through CsrProblem (same arithmetic
///    sequence, see csr_problem.h);
///  * the fixed-depth bisection breaks once an iteration leaves the bracket
///    bitwise unchanged — every remaining iteration would recompute the same
///    midpoint and take the same branch, so the final 0.5 * (lo + hi) is
///    untouched.
template <typename Overloaded>
double bisect_price(const Overloaded& overloaded, double warm_price,
                    double price_resolution) {
  // Bracket: load decreases in price; double until under capacity.
  double lo = 0.0;
  double hi = std::max(warm_price, 1e-6);
  while (overloaded(hi)) {
    lo = hi;
    hi *= 2.0;
    if (hi > 1e30) throw std::logic_error("num::solve: price diverged");
  }
  for (int iter = 0; iter < 100; ++iter) {
    if (price_resolution > 0.0 && hi - lo <= price_resolution) break;
    const double mid = 0.5 * (lo + hi);
    const double prev_lo = lo;
    const double prev_hi = hi;
    if (overloaded(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (lo == prev_lo && hi == prev_hi) break;  // bracket bitwise frozen
  }
  return 0.5 * (lo + hi);
}

/// The tolerance-mode price finder: safeguarded Newton on the link's load
/// equation  load(p) = sum_i x_i(base_i + p) = capacity,  which is
/// decreasing and convex in p for alpha-fair utilities.  Each iteration is
/// one row pass for load and d load/dp; the caller hands in the first one,
/// `at_p = load_slope(p)` at the start price p.  `warm` says p is the link's
/// current price rather than a cold guess.
///
///  * The bracket [lo, hi] keeps load(lo) > capacity >= load(hi); hi starts
///    unknown (infinite).  The caller has established load(0) > capacity.
///  * Every Newton step moves at least price_resolution toward the root, so
///    the iterate that lands within the resolution crosses it and closes the
///    bracket.  While load > 2 * capacity the step is at least a doubling
///    (Newton from far left grows p only by a factor 1 + alpha).
///  * A step that leaves the bracket falls back to bisection, or to doubling
///    while hi is unknown; the 1e30 divergence throw is the bisection's.
///  * It stops only when hi - lo <= price_resolution (or no double lies
///    strictly inside the bracket).  A small step alone proves nothing: far
///    left of the root Newton steps are ~p.
///  * A warm price the final bracket still holds is returned unchanged: it
///    is certified like any point of the bracket, and a relaxation that
///    leaves its price bitwise in place moves no path price, so it makes no
///    other link stale (see the stale-link rule in solve).
///  * Otherwise it returns the last Newton estimate when that lies in the
///    closed bracket, else the midpoint.  The minimum step makes the crossing
///    iterate overshoot the root by ~price_resolution, so the midpoint sits
///    systematically ~price_resolution / 2 off it; the Newton estimate is off
///    by the square of the last step (the load is convex, so the tangent's
///    root lies just left of the true root).
template <typename LoadSlope>
double newton_price(const LoadSlope& load_slope, double capacity, double p,
                    CsrProblem::RateSlope at_p, bool warm,
                    double price_resolution) {
  const double start = p;
  double lo = 0.0;
  double hi = std::numeric_limits<double>::infinity();
  double newton = 0.0;
  // Bracketed steps are capped at the bisection's depth; the unbracketed
  // phase ends by crossing the root or by the divergence throw.
  for (int bracketed = 0;;) {
    const auto [load, slope] = at_p;
    const bool over = load > capacity;
    (over ? lo : hi) = p;
    newton = p - (load - capacity) / slope;  // NaN/inf when slope == 0
    if (hi <= lo + price_resolution) break;
    double next = newton;
    if (over) {
      next = std::max(next, p + price_resolution);
      if (load > 2.0 * capacity) next = std::max(next, 2.0 * p);
    } else {
      next = std::min(next, p - price_resolution);
    }
    if (!(next > lo && next < hi)) {
      next = std::isinf(hi) ? 2.0 * lo : 0.5 * (lo + hi);
      if (next == lo || next == hi) break;  // no double strictly inside
    }
    if (next > 1e30) throw std::logic_error("num::solve: price diverged");
    if (!std::isinf(hi) && ++bracketed == 100) break;
    p = next;
    at_p = load_slope(p);
  }
  if (warm && start >= lo && start <= hi) return start;
  return newton >= lo && newton <= hi ? newton : 0.5 * (lo + hi);
}

/// The per-link Gauss-Seidel update.  Reads/writes prices[l] and the
/// path_price of the link's active flows only — state disjoint from every
/// other link in the same wave — and returns |new_price - old_price|.
///
/// Iteration runs over the compacted active row (link_active_flows): the
/// same flow ids, in the same increasing order, as scanning the full
/// compiled row and skipping inactives — so every partial sum rounds
/// bit-identically while the cost is O(active-on-link), not O(history).
///
/// A flow's price excluding this link, base = path_price - old_price, is
/// computed once per update into the per-flow `base` array for the
/// bisection, which reads it ~20 times per update.  The Newton finder reads
/// it ~3 times and recomputes it instead: the same subtraction yields the
/// same bits, and at 10^5+ flows a store per row entry would miss cache.
///
/// The two finders share everything but the loop that picks the price: the
/// load(0) complementary-slackness test, the path_price write-back and the
/// change computation.  The Newton finder runs the load(0) test only when
/// the warm price is not already over capacity (see below).
///
/// With a non-null `flow_stamp` (tolerance mode), a relaxation that moves
/// the price writes `stamp` to every flow of the row: their path prices
/// moved, which is what makes the flows' other links stale.  A Newton
/// relaxation that keeps the price bitwise leaves the row's path prices as
/// they are instead of re-rounding (path - p) + p; the bisection, the
/// bit-exact reference, always writes them back.
template <PriceFinder kFinder>
double update_link(const CsrProblem& problem, std::size_t l,
                   std::vector<double>& prices,
                   std::vector<double>& path_price, std::vector<double>& base,
                   std::uint32_t* flow_stamp, std::uint32_t stamp,
                   double price_resolution) {
  const auto flows = problem.link_active_flows(l);
  if (flows.empty()) {
    prices[l] = 0.0;  // same as the legacy empty-link skip: no change recorded
    return 0.0;
  }
  const double capacity = problem.capacities()[l];
  const double old_price = prices[l];
  if constexpr (kFinder == PriceFinder::kBisection) {
    for (const std::int32_t i : flows) {
      const auto fi = static_cast<std::size_t>(i);
      base[fi] = path_price[fi] - old_price;
    }
  }
  const auto base_of = [&](std::size_t fi) {
    if constexpr (kFinder == PriceFinder::kBisection) {
      return base[fi];
    } else {
      return path_price[fi] - old_price;
    }
  };

  // Does the load at `candidate` exceed capacity?  (The bisection only ever
  // needs this predicate, never the load value itself.)
  const auto overloaded = [&](double candidate) {
    double load = 0.0;
    for (const std::int32_t i : flows) {
      const auto fi = static_cast<std::size_t>(i);
      load += problem.marginal_inverse(fi, base_of(fi) + candidate);
      if (load > capacity) return true;
    }
    return false;
  };

  // A link under-loaded even for free gets price 0: complementary slackness.
  double new_price = 0.0;
  if constexpr (kFinder == PriceFinder::kNewton) {
    const auto load_slope = [&](double candidate) {
      CsrProblem::RateSlope sum{0.0, 0.0};
      for (const std::int32_t i : flows) {
        const auto fi = static_cast<std::size_t>(i);
        const auto term = problem.rate_and_slope(fi, base_of(fi) + candidate);
        sum.rate += term.rate;
        sum.slope += term.slope;
      }
      return sum;
    };
    // The warm price's row pass comes first and doubles as Newton's first
    // iterate.  The load never increases with the price, so a warm price
    // already over capacity proves load(0) > capacity without that pass.
    // At a zero warm price the load(0) test itself comes first (an idle link
    // usually stays idle) and the search starts from 1e-6.
    if (old_price > 0.0) {
      const CsrProblem::RateSlope at_warm = load_slope(old_price);
      if (at_warm.rate > capacity || overloaded(0.0)) {
        new_price = newton_price(load_slope, capacity, old_price, at_warm,
                                 /*warm=*/true, price_resolution);
      }
    } else if (overloaded(0.0)) {
      new_price = newton_price(load_slope, capacity, 1e-6, load_slope(1e-6),
                               /*warm=*/false, price_resolution);
    }
  } else if (overloaded(0.0)) {
    new_price = bisect_price(overloaded, old_price, price_resolution);
  }

  const double change = std::abs(new_price - old_price);
  const bool moved = new_price != old_price;
  if (flow_stamp != nullptr && moved) {
    for (const std::int32_t i : flows) {
      const auto fi = static_cast<std::size_t>(i);
      path_price[fi] = base_of(fi) + new_price;
      flow_stamp[fi] = stamp;
    }
  } else if (moved || kFinder == PriceFinder::kBisection) {
    for (const std::int32_t i : flows) {
      const auto fi = static_cast<std::size_t>(i);
      path_price[fi] = base_of(fi) + new_price;
    }
  }
  prices[l] = new_price;
  return change;
}

}  // namespace

SolveStats solve(const CsrProblem& problem, NumWorkspace& workspace,
                 const NumSolverOptions& options) {
  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t num_flows = problem.num_flows();
  const std::size_t num_links = problem.num_links();

  std::vector<double>& prices = SolverAccess::prices(workspace);
  std::vector<double>& path_price = SolverAccess::path_price(workspace);
  std::vector<double>& base = SolverAccess::base(workspace);
  std::vector<double>& change = SolverAccess::change(workspace);
  std::vector<double>& rates = SolverAccess::rates(workspace);

  bool warm;
  if (!options.initial_prices.empty()) {
    if (options.initial_prices.size() != num_links) {
      throw std::invalid_argument("num::solve: initial_prices size mismatch");
    }
    sized(prices, num_links);
    std::copy(options.initial_prices.begin(), options.initial_prices.end(),
              prices.begin());
    warm = true;
  } else if (SolverAccess::warm(workspace) && prices.size() == num_links) {
    warm = true;  // previous solve's prices carry over
  } else {
    sized(prices, num_links);
    std::fill(prices.begin(), prices.end(), 1.0);
    warm = false;
  }
  // Warm-started solves (re-solves across semi-dynamic epochs / fluid-oracle
  // events) stop each per-link bisection once the bracket is two orders of
  // magnitude below the sweep tolerance — the sweep loop cannot distinguish
  // prices closer than that, so the remaining fixed-depth halvings are pure
  // waste.  Cold solves keep the full-depth bisection so their results stay
  // bit-identical to the legacy solver — except in tolerance mode
  // (options.incremental), which promises only the tolerance band and so
  // stops at the same resolution even when cold, and finds each price with
  // the safeguarded Newton step when every utility has a closed-form slope.
  // Bisection stays the reference for every bit-exact (golden-hashed) solve.
  const bool tolerance_mode = options.incremental && options.tolerance > 0.0;
  const double price_resolution =
      warm || tolerance_mode ? options.tolerance * 1e-2 : 0.0;
  const PriceFinder finder = tolerance_mode && problem.closed_form()
                                 ? PriceFinder::kNewton
                                 : PriceFinder::kBisection;

  // Stale-link verification (tolerance mode; src/num/README.md, tier 2).
  // Every relaxation stamps its link, and one that moves the price stamps
  // the row's flows; stamps only grow, so "a flow stamped after the link's
  // own last relaxation" is flow_stamp > link_stamp.
  const bool stamped = tolerance_mode;
  std::vector<std::uint32_t>& link_stamp = SolverAccess::link_stamp(workspace);
  std::vector<std::uint32_t>& flow_stamp = SolverAccess::flow_stamp(workspace);
  std::uint32_t& stamp_clock = SolverAccess::stamp_clock(workspace);
  if (stamped) {
    sized(link_stamp, num_links);
    sized(flow_stamp, num_flows);
  }
  std::uint32_t* const flow_stamps = stamped ? flow_stamp.data() : nullptr;
  const auto relax = [&](std::size_t l, std::uint32_t stamp) {
    const double moved =
        finder == PriceFinder::kNewton
            ? update_link<PriceFinder::kNewton>(problem, l, prices, path_price,
                                                base, flow_stamps, stamp,
                                                price_resolution)
            : update_link<PriceFinder::kBisection>(problem, l, prices,
                                                   path_price, base,
                                                   flow_stamps, stamp,
                                                   price_resolution);
    if (stamped) link_stamp[l] = stamp;  // only once the relaxation is done
    return moved;
  };

  // Incremental re-solve is sound only when the workspace's stored
  // path_price/rates describe this exact problem as of the last mark_solved
  // epoch — i.e. the dirty sets are precisely what changed since the state
  // we are patching.  Anything else (cold start, explicit prices, another
  // workspace interleaved, fresh compile, deactivate_all) falls back to the
  // full solve, which re-derives everything.
  const bool incremental =
      options.incremental && options.initial_prices.empty() && warm &&
      !problem.all_dirty() &&
      SolverAccess::bound_problem(workspace) == &problem &&
      SolverAccess::bound_epoch(workspace) == problem.epoch() &&
      path_price.size() == num_flows && rates.size() == num_flows;

  sized(path_price, num_flows);
  if (finder == PriceFinder::kBisection) sized(base, num_flows);
  if (incremental) {
    // Patch only the toggled flows: a newly (re)activated flow needs a fresh
    // path-price sum (its stored slot is stale); a deactivated flow just
    // stops reporting rate.  Untouched actives keep their stored path_price,
    // which the relaxations below correct exactly as a sweep would.
    for (const std::int32_t f : problem.touched_flows()) {
      const auto fi = static_cast<std::size_t>(f);
      if (problem.active(fi)) {
        double sum = 0.0;
        for (const std::int32_t l : problem.flow_links(fi)) {
          sum += prices[static_cast<std::size_t>(l)];
        }
        path_price[fi] = sum;
      } else {
        rates[fi] = 0.0;
      }
    }
  } else {
    // Per-flow init over the active list; each slot is written once, so the
    // unsorted order cannot affect any bit.
    for (const std::int32_t f : problem.active_flows()) {
      const auto fi = static_cast<std::size_t>(f);
      double sum = 0.0;
      for (const std::int32_t l : problem.flow_links(fi)) {
        sum += prices[static_cast<std::size_t>(l)];
      }
      path_price[fi] = sum;
    }
  }

  const int threads = std::max(options.policy.threads, 1);
  util::WorkerPool* pool = nullptr;
  if (threads > 1) {
    auto& owned = SolverAccess::pool(workspace);
    if (owned == nullptr || owned->jobs() != threads) {
      owned = std::make_unique<util::WorkerPool>(threads);
    }
    pool = owned.get();
    sized(change, num_links);
  }

  // Whether the next sweep must relax every link.  Full solves relax every
  // link on every sweep.  An incremental tolerance-mode solve reads the
  // stamps in its verification sweeps, unless the previous solve left them
  // stale (it did not stamp, or did not converge); a capped worklist or a
  // stamp-clock restart also forces the next sweep full.
  const bool verify_stale = incremental && stamped;
  bool every_link =
      !verify_stale || !SolverAccess::stamps_current(workspace);
  // Only a solve that returns vouches for the stamps (see the end).
  SolverAccess::stamps_current(workspace) = false;

  // Reserves `n` consecutive stamps and returns the first.  When they would
  // wrap the 32-bit clock, every stored stamp restarts from zero, which
  // forgets which links are clean: the next sweep relaxes every link.
  const auto take_stamps = [&](std::uint32_t n) {
    if (stamp_clock > std::numeric_limits<std::uint32_t>::max() - n) {
      std::fill(link_stamp.begin(), link_stamp.end(), std::uint32_t{0});
      std::fill(flow_stamp.begin(), flow_stamp.end(), std::uint32_t{0});
      stamp_clock = 0;
      every_link = true;
    }
    const std::uint32_t first = stamp_clock + 1;
    stamp_clock += n;
    return first;
  };

  // A link is stale when a relaxation moved the path price of one of its
  // active flows after the link's own last relaxation.  A clean link
  // re-relaxed from its own output would move by at most 2 *
  // price_resolution < tolerance, so skipping it keeps the verdict a full
  // sweep would give.
  const auto stale = [&](std::size_t l) {
    const std::uint32_t last = link_stamp[l];
    for (const std::int32_t f : problem.link_active_flows(l)) {
      if (flow_stamp[static_cast<std::size_t>(f)] > last) return true;
    }
    return false;
  };

  // One sweep: every link, or only the stale ones; returns the max price
  // change and counts the links it relaxed in `swept`.  Link l gets stamp
  // first + l whatever the execution order, and reads only stamps its
  // conflicting links write, so serial natural order and wave-parallel
  // execution compute the same bits (see csr_problem.h).
  std::int64_t swept = 0;
  const auto sweep = [&]() {
    const std::uint32_t first =
        stamped ? take_stamps(static_cast<std::uint32_t>(num_links)) : 0;
    const bool all = every_link;
    // Skipped links report -1, below every real change.
    const auto visit = [&](std::size_t l) {
      if (!all && !stale(l)) return -1.0;
      return relax(l, first + static_cast<std::uint32_t>(l));
    };
    double max_price_change = 0.0;
    if (pool == nullptr) {
      // Reference spec: natural link order.
      for (std::size_t l = 0; l < num_links; ++l) {
        const double moved = visit(l);
        if (moved < 0.0) continue;
        ++swept;
        max_price_change = std::max(max_price_change, moved);
      }
    } else {
      // Wave execution: per the schedule's construction every link's inputs
      // are exactly what the natural-order sweep would have shown it, so
      // this computes the same bits for any thread/chunk count.
      for (std::size_t w = 0; w < problem.num_waves(); ++w) {
        const auto wave = problem.wave_links(w);
        const int chunks = static_cast<int>(
            std::min<std::size_t>(static_cast<std::size_t>(threads),
                                  wave.size()));
        pool->parallel_for(chunks, [&](int chunk) {
          const std::size_t begin = wave.size() * static_cast<std::size_t>(chunk) /
                                    static_cast<std::size_t>(chunks);
          const std::size_t end =
              wave.size() * (static_cast<std::size_t>(chunk) + 1) /
              static_cast<std::size_t>(chunks);
          for (std::size_t k = begin; k < end; ++k) {
            const auto l = static_cast<std::size_t>(wave[k]);
            change[l] = visit(l);
          }
        });
      }
      // max is exact and order-independent, so reducing after the sweep
      // matches the serial running max bit-for-bit.
      for (std::size_t l = 0; l < num_links; ++l) {
        if (change[l] < 0.0) continue;
        ++swept;
        max_price_change = std::max(max_price_change, change[l]);
      }
    }
    return max_price_change;
  };

  std::vector<std::int32_t>& ring = SolverAccess::worklist(workspace);
  std::vector<std::uint8_t>& in_queue = SolverAccess::in_queue(workspace);
  std::vector<std::int32_t>& seed = SolverAccess::seed(workspace);
  if (options.incremental) {
    // Sized on every incremental-option solve, full fallbacks included, so
    // the first one leaves the worklist buffers ready and every later
    // re-solve allocation-free.  in_queue is all-zero between solves.
    sized(ring, num_links);
    sized(in_queue, num_links);
    sized(seed, num_links);
  }

  SolveStats stats;
  if (incremental) {
    // Worklist relaxation, seeded from the dirty links in increasing id.
    // Serial by construction — the order links come off the queue is a
    // function of the dirty set alone, so results are identical for every
    // --solver-threads value.
    //
    // The membership bitmap caps the queue at num_links entries, so a ring
    // of that capacity never overflows.
    std::size_t head = 0, queued = 0;
    const auto push = [&](std::int32_t l) {
      if (in_queue[static_cast<std::size_t>(l)] != 0) return;
      in_queue[static_cast<std::size_t>(l)] = 1;
      ring[(head + queued) % num_links] = l;
      ++queued;
    };
    // dirty_links() is in first-dirtied order; seed ascending so the
    // relaxation order is independent of the set_active call order.  The
    // dirty set holds each link at most once, so it fits the seed buffer.
    const auto dirty = problem.dirty_links();
    const auto seed_end = std::copy(dirty.begin(), dirty.end(), seed.begin());
    std::sort(seed.begin(), seed_end);
    for (auto it = seed.begin(); it != seed_end; ++it) push(*it);
    const std::int64_t relaxation_cap =
        static_cast<std::int64_t>(options.max_sweeps) *
        static_cast<std::int64_t>(num_links == 0 ? 1 : num_links);
    while (queued > 0 && stats.relaxations < relaxation_cap) {
      const std::int32_t l = ring[head % num_links];
      head = (head + 1) % num_links;
      --queued;
      in_queue[static_cast<std::size_t>(l)] = 0;
      // The worklist is serial, so its pop count orders its stamps.
      const std::uint32_t stamp = stamped ? take_stamps(1) : 0;
      const double delta = relax(static_cast<std::size_t>(l), stamp);
      ++stats.relaxations;
      if (delta >= options.tolerance) {
        // The move perturbed the path price of every active flow through l;
        // their other links may now violate complementary slackness.
        for (const std::int32_t f :
             problem.link_active_flows(static_cast<std::size_t>(l))) {
          for (const std::int32_t k :
               problem.flow_links(static_cast<std::size_t>(f))) {
            if (k != l) push(k);
          }
        }
      }
    }
    // A capped cascade leaves links queued, some of them dirty links never
    // relaxed since their rows changed: the first verification sweep must
    // cover every link.  Clear their membership so the next solve can
    // enqueue them.
    if (queued > 0) every_link = true;
    for (; queued > 0; --queued, head = (head + 1) % num_links) {
      in_queue[static_cast<std::size_t>(ring[head])] = 0;
    }
  }
  // Sweeps until quiescent.  After a worklist these are the verification
  // sweeps, the correctness backstop: normally the first confirms
  // convergence; if the worklist missed coupling (or hit the cap), later
  // ones repair it.
  for (int s = 0; s < options.max_sweeps; ++s) {
    const double max_price_change = sweep();
    every_link = !verify_stale;
    stats.sweeps = s + 1;
    if (max_price_change < options.tolerance) {
      stats.converged = true;
      break;
    }
  }
  if (incremental) stats.verifications = swept;

  sized(rates, num_flows);
  if (incremental) {
    // Touched-inactive flows were zeroed above; untouched inactives are 0
    // from the solve this state was patched from.  Only actives move.
    for (const std::int32_t f : problem.active_flows()) {
      const auto fi = static_cast<std::size_t>(f);
      rates[fi] = problem.marginal_inverse(fi, path_price[fi]);
    }
  } else {
    std::fill(rates.begin(), rates.end(), 0.0);
    for (const std::int32_t f : problem.active_flows()) {
      const auto fi = static_cast<std::size_t>(f);
      rates[fi] = problem.marginal_inverse(fi, path_price[fi]);
    }
  }

  SolverAccess::warm(workspace) = true;
  SolverAccess::stamps_current(workspace) = stamped && stats.converged;
  problem.mark_solved();
  SolverAccess::bound_problem(workspace) = &problem;
  SolverAccess::bound_epoch(workspace) = problem.epoch();

  auto& counters = sim::substrate_stats();
  ++counters.solver_solves;
  counters.solver_sweeps += static_cast<std::uint64_t>(stats.sweeps);
  counters.solver_relaxations += static_cast<std::uint64_t>(stats.relaxations);
  counters.solver_verifications +=
      static_cast<std::uint64_t>(stats.verifications);
  counters.solver_wall_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  return stats;
}

double kkt_residual(const NumProblem& problem, const std::vector<double>& rates,
                    const std::vector<double>& prices) {
  double residual = 0.0;
  for (std::size_t i = 0; i < problem.utilities.size(); ++i) {
    double path_price = 0.0;
    for (int l : problem.flow_links[i]) path_price += prices[static_cast<std::size_t>(l)];
    const double marginal = problem.utilities[i]->marginal(rates[i]);
    residual = std::max(residual, std::abs(marginal - path_price) /
                                      std::max(marginal, kMinPrice));
  }
  // Link loads, flow-major in one O(nnz) pass.  Each link's row is listed in
  // increasing flow id, and this walk adds flow i's rate to its links in
  // exactly that order, so every per-link sum rounds bit-identically to the
  // former per-link rescan of all flows.
  std::vector<double> load(problem.capacities.size(), 0.0);
  for (std::size_t i = 0; i < problem.flow_links.size(); ++i) {
    for (int k : problem.flow_links[i]) {
      load[static_cast<std::size_t>(k)] += rates[i];
    }
  }
  for (std::size_t l = 0; l < problem.capacities.size(); ++l) {
    const double slack = problem.capacities[l] - load[l];
    // Complementary slackness: p_l * slack ~ 0 (normalized).
    residual = std::max(residual, prices[l] * std::max(slack, 0.0) /
                                      problem.capacities[l]);
    // Feasibility.
    residual = std::max(residual, -slack / problem.capacities[l]);
  }
  return residual;
}

double kkt_residual(const CsrProblem& problem, std::span<const double> rates,
                    std::span<const double> prices) {
  double residual = 0.0;
  for (const std::int32_t f : problem.active_flows()) {
    const auto i = static_cast<std::size_t>(f);
    double path_price = 0.0;
    for (const std::int32_t l : problem.flow_links(i)) {
      path_price += prices[static_cast<std::size_t>(l)];
    }
    const double marginal = problem.marginal(i, rates[i]);
    residual = std::max(residual, std::abs(marginal - path_price) /
                                      std::max(marginal, kMinPrice));
  }
  for (std::size_t l = 0; l < problem.num_links(); ++l) {
    double load = 0.0;
    for (const std::int32_t i : problem.link_active_flows(l)) {
      load += rates[static_cast<std::size_t>(i)];
    }
    const double slack = problem.capacities()[l] - load;
    residual = std::max(residual, prices[l] * std::max(slack, 0.0) /
                                      problem.capacities()[l]);
    residual = std::max(residual, -slack / problem.capacities()[l]);
  }
  return residual;
}

}  // namespace numfabric::num
