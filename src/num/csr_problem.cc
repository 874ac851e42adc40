#include "num/csr_problem.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace numfabric::num {
namespace {

void validate(const NumProblem& problem) {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("CsrProblem::compile: ") + what);
  };
  const std::size_t num_flows = problem.utilities.size();
  if (problem.flow_links.size() != num_flows) {
    fail("utilities/flow_links size mismatch");
  }
  for (const auto* u : problem.utilities) {
    if (u == nullptr) fail("null utility");
  }
  for (double c : problem.capacities) {
    if (c <= 0) fail("capacity <= 0");
  }
  for (const auto& links : problem.flow_links) {
    if (links.empty()) fail("empty path");
    for (int l : links) {
      if (l < 0 || static_cast<std::size_t>(l) >= problem.capacities.size()) {
        fail("bad link index");
      }
    }
  }
}

}  // namespace

std::vector<std::vector<int>> flows_on_link(
    const std::vector<std::vector<int>>& flow_links, std::size_t num_links) {
  std::vector<std::vector<int>> on_link(num_links);
  for (std::size_t i = 0; i < flow_links.size(); ++i) {
    for (int l : flow_links[i]) {
      on_link[static_cast<std::size_t>(l)].push_back(static_cast<int>(i));
    }
  }
  return on_link;
}

CsrProblem CsrProblem::compile(const NumProblem& problem) {
  validate(problem);
  const std::size_t num_flows = problem.utilities.size();
  const std::size_t num_links = problem.capacities.size();

  CsrProblem csr;
  csr.capacities_ = problem.capacities;

  // Flow -> link CSR, preserving path order (path_price sums round the same
  // way the legacy per-flow loops did).
  csr.flow_offsets_.resize(num_flows + 1);
  csr.flow_offsets_[0] = 0;
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < num_flows; ++i) {
    nnz += problem.flow_links[i].size();
    csr.flow_offsets_[i + 1] = static_cast<std::int32_t>(nnz);
  }
  csr.flow_links_.reserve(nnz);
  for (const auto& links : problem.flow_links) {
    for (int l : links) csr.flow_links_.push_back(l);
  }

  // Link -> flow CSR in increasing flow order: counting sort over the same
  // flow-major walk the legacy flows_on_link construction used.
  csr.link_offsets_.assign(num_links + 1, 0);
  for (int l : csr.flow_links_) ++csr.link_offsets_[static_cast<std::size_t>(l) + 1];
  for (std::size_t l = 0; l < num_links; ++l) {
    csr.link_offsets_[l + 1] += csr.link_offsets_[l];
  }
  csr.link_flows_.resize(nnz);
  std::vector<std::int32_t> cursor(csr.link_offsets_.begin(),
                                   csr.link_offsets_.end() - 1);
  for (std::size_t i = 0; i < num_flows; ++i) {
    for (int l : problem.flow_links[i]) {
      csr.link_flows_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(l)]++)] = static_cast<std::int32_t>(i);
    }
  }

  // Dense utility parameters.  Positive-alpha AlphaFairUtility flows get the
  // closed form; everything else (including alpha == 0, whose
  // marginal_inverse must keep throwing) goes through the virtual fallback.
  csr.weight_.assign(num_flows, 1.0);
  csr.neg_inv_alpha_.assign(num_flows, 0.0);
  csr.generic_.assign(num_flows, nullptr);
  csr.utilities_ = problem.utilities;
  csr.kind_.assign(num_flows, kGeneric);
  for (std::size_t i = 0; i < num_flows; ++i) {
    const auto* alpha_fair =
        dynamic_cast<const AlphaFairUtility*>(problem.utilities[i]);
    if (alpha_fair != nullptr && alpha_fair->alpha() > 0.0) {
      csr.weight_[i] = alpha_fair->weight();
      csr.neg_inv_alpha_[i] = -1.0 / alpha_fair->alpha();
      csr.kind_[i] = csr.neg_inv_alpha_[i] == -1.0 ? kReciprocal : kPow;
    } else {
      csr.generic_[i] = problem.utilities[i];
      csr.closed_form_ = false;
    }
  }

  // All flows start active: the compacted rows are the full rows (already in
  // increasing flow id from the counting sort) and the active list is the
  // identity.
  csr.active_.assign(num_flows, 1);
  csr.link_active_ = csr.link_flows_;
  csr.link_active_count_.resize(num_links);
  for (std::size_t l = 0; l < num_links; ++l) {
    csr.link_active_count_[l] =
        csr.link_offsets_[l + 1] - csr.link_offsets_[l];
  }
  csr.active_list_.resize(num_flows);
  csr.active_pos_.resize(num_flows);
  for (std::size_t i = 0; i < num_flows; ++i) {
    csr.active_list_[i] = static_cast<std::int32_t>(i);
    csr.active_pos_[i] = static_cast<std::int32_t>(i);
  }

  csr.link_dirty_.assign(num_links, 0);
  csr.flow_touched_.assign(num_flows, 0);
  csr.all_dirty_ = true;  // nothing solved yet: the first solve must be full

  csr.build_waves();
  return csr;
}

// Greedy layering of the link conflict graph (conflict = sharing a flow):
// color(l) = 1 + max color of any conflicting earlier link.  This is the
// minimal schedule in which every conflict edge crosses wave boundaries in
// id order — the property that makes wave execution bit-identical to the
// natural-order serial sweep for any thread count.
void CsrProblem::build_waves() {
  const std::size_t num_links = capacities_.size();
  std::vector<std::int32_t> color(num_links, 0);
  std::int32_t max_color = 0;
  for (std::size_t l = 0; l < num_links; ++l) {
    std::int32_t c = 0;
    for (std::int32_t i : link_flows(l)) {
      for (std::int32_t k : flow_links(static_cast<std::size_t>(i))) {
        if (static_cast<std::size_t>(k) < l) {
          c = std::max(c, color[static_cast<std::size_t>(k)] + 1);
        }
      }
    }
    color[l] = c;
    max_color = std::max(max_color, c);
  }

  const std::size_t num_waves = num_links == 0 ? 0 : static_cast<std::size_t>(max_color) + 1;
  wave_offsets_.assign(num_waves + 1, 0);
  for (std::size_t l = 0; l < num_links; ++l) {
    ++wave_offsets_[static_cast<std::size_t>(color[l]) + 1];
  }
  for (std::size_t w = 0; w < num_waves; ++w) {
    wave_offsets_[w + 1] += wave_offsets_[w];
  }
  wave_links_.resize(num_links);
  std::vector<std::int32_t> cursor(wave_offsets_.begin(),
                                   wave_offsets_.end() - 1);
  for (std::size_t l = 0; l < num_links; ++l) {
    wave_links_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(color[l])]++)] =
        static_cast<std::int32_t>(l);
  }
}

void CsrProblem::mark_flow_touched(std::size_t flow) const {
  if (flow_touched_[flow] == 0) {
    flow_touched_[flow] = 1;
    touched_flows_.push_back(static_cast<std::int32_t>(flow));
  }
}

void CsrProblem::mark_link_dirty(std::int32_t link) const {
  const auto l = static_cast<std::size_t>(link);
  if (link_dirty_[l] == 0) {
    link_dirty_[l] = 1;
    dirty_links_.push_back(link);
  }
}

void CsrProblem::set_active(std::size_t flow, bool active) {
  if (flow >= active_.size()) {
    throw std::invalid_argument("CsrProblem::set_active: bad flow index");
  }
  if ((active_[flow] != 0) == active) return;
  active_[flow] = active ? 1 : 0;
  const auto id = static_cast<std::int32_t>(flow);

  // Patch each compacted row on the flow's path, keeping it sorted by flow
  // id (the legacy summation order).  Arrivals admitted in increasing flow
  // id append in O(1); a general toggle shifts the row's active tail.
  for (const std::int32_t link : flow_links(flow)) {
    const auto l = static_cast<std::size_t>(link);
    std::int32_t* row = link_active_.data() + link_offsets_[l];
    std::int32_t& count = link_active_count_[l];
    std::int32_t* pos = std::lower_bound(row, row + count, id);
    if (active) {
      std::copy_backward(pos, row + count, row + count + 1);
      *pos = id;
      ++count;
    } else {
      std::copy(pos + 1, row + count, pos);
      --count;
    }
    mark_link_dirty(link);
  }

  if (active) {
    active_pos_[flow] = static_cast<std::int32_t>(active_list_.size());
    active_list_.push_back(id);
  } else {
    const auto at = static_cast<std::size_t>(active_pos_[flow]);
    const std::int32_t moved = active_list_.back();
    active_list_[at] = moved;
    active_pos_[static_cast<std::size_t>(moved)] = static_cast<std::int32_t>(at);
    active_list_.pop_back();
    active_pos_[flow] = -1;
  }
  mark_flow_touched(flow);
}

void CsrProblem::deactivate_all() {
  std::fill(active_.begin(), active_.end(), std::uint8_t{0});
  std::fill(link_active_count_.begin(), link_active_count_.end(),
            std::int32_t{0});
  std::fill(active_pos_.begin(), active_pos_.end(), std::int32_t{-1});
  active_list_.clear();
  all_dirty_ = true;
}

void CsrProblem::mark_solved() const {
  for (const std::int32_t l : dirty_links_) {
    link_dirty_[static_cast<std::size_t>(l)] = 0;
  }
  dirty_links_.clear();
  for (const std::int32_t i : touched_flows_) {
    flow_touched_[static_cast<std::size_t>(i)] = 0;
  }
  touched_flows_.clear();
  all_dirty_ = false;
  ++epoch_;
}

}  // namespace numfabric::num
