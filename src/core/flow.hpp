// Flows: the per-item / per-package service sequences the solvers operate on.
//
// A *flow* is the thing that moves through the space-time diagram: either one
// individual item or a package of correlated items.  Its service points are
// the (server, time) pairs of the requests it must satisfy, in time order.
// Every flow implicitly starts at the origin (server 0, time 0) where all
// items are initially stored (Section III-A).
#pragma once

#include <cstddef>
#include <vector>

#include "core/request.hpp"
#include "core/types.hpp"

namespace dpg {

/// The server that initially stores every item (the paper's s_1).
inline constexpr ServerId kOriginServer = 0;

/// One service obligation of a flow: a request's server and time (times
/// strictly increase across a sequence's requests, so the time names it).
struct ServicePoint {
  ServerId server = 0;
  Time time = 0.0;
};

/// A flow and the number of items travelling together (1 = individual item,
/// 2 = pair package, ...).  The cost-rate multiplier is
/// CostModel::flow_multiplier(group_size).
struct Flow {
  std::vector<ServicePoint> points;  // strictly increasing time, all > 0
  std::size_t group_size = 1;

  [[nodiscard]] std::size_t size() const noexcept { return points.size(); }
  [[nodiscard]] bool empty() const noexcept { return points.empty(); }
};

/// Service points of all requests containing `item`: a copy of its events.
[[nodiscard]] Flow make_item_flow(const RequestSequence& sequence, ItemId item);

/// In-place variant: rebuilds `out` (clearing points, keeping capacity) so a
/// reused buffer makes repeated flow construction allocation-free.
void make_item_flow(const RequestSequence& sequence, ItemId item, Flow& out);

/// Service points of all requests containing *both* `a` and `b`
/// (the package flow of Phase 2; group_size = 2).  Merges the two items'
/// events by time (RequestSequence::merge_item_lists), so the cost is
/// O(|d_a| + |d_b|) and no row is read.
[[nodiscard]] Flow make_package_flow(const RequestSequence& sequence, ItemId a,
                                     ItemId b);

/// In-place variant of the package flow (same reuse contract as above).
void make_package_flow(const RequestSequence& sequence, ItemId a, ItemId b,
                       Flow& out);

/// Service points of all requests containing every item of `group`
/// (multi-item packing extension; group_size = group.size()).  One merge of
/// the items' events: O(Σ|d_i| · |group|), independent of n.
[[nodiscard]] Flow make_group_flow(const RequestSequence& sequence,
                                   const std::vector<ItemId>& group);

/// Service points of all requests containing *any* item of `group`
/// (the Package_Served baseline ships the whole package to each of them;
/// group_size = group.size()).  Same merge as make_group_flow.
[[nodiscard]] Flow make_union_flow(const RequestSequence& sequence,
                                   const std::vector<ItemId>& group);

/// Validates the flow invariants (times strictly increasing and positive,
/// group size >= 1). Throws InvalidArgument.
void validate_flow(const Flow& flow);

}  // namespace dpg
