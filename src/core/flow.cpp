#include "core/flow.hpp"

#include "util/error.hpp"

namespace dpg {

namespace {

/// The service point of request `index`, read from the server and time
/// columns only (a request's item list is never needed to place it).
ServicePoint point_of(const RequestSequence& sequence, std::size_t index) {
  return ServicePoint{sequence.server_of(index), sequence.time_of(index),
                      index};
}

/// Appends the requests whose holder count passes `keep` over the merged
/// request lists of `items`.
template <typename Keep>
void append_merged(const RequestSequence& sequence,
                   std::span<const ItemId> items, Keep keep, Flow& out) {
  sequence.merge_item_lists(
      items, [&](std::size_t index, std::span<const std::size_t> holders) {
        if (keep(holders.size())) {
          out.points.push_back(point_of(sequence, index));
        }
      });
}

}  // namespace

Flow make_item_flow(const RequestSequence& sequence, ItemId item) {
  Flow flow;
  make_item_flow(sequence, item, flow);
  return flow;
}

void make_item_flow(const RequestSequence& sequence, ItemId item, Flow& out) {
  out.group_size = 1;
  out.points.clear();
  for (const std::size_t index : sequence.indices_for_item(item)) {
    out.points.push_back(point_of(sequence, index));
  }
}

Flow make_package_flow(const RequestSequence& sequence, ItemId a, ItemId b) {
  Flow flow;
  make_package_flow(sequence, a, b, flow);
  return flow;
}

void make_package_flow(const RequestSequence& sequence, ItemId a, ItemId b,
                       Flow& out) {
  out.group_size = 2;
  out.points.clear();
  // Requests holding both items: the intersection of the two request lists.
  const ItemId pair[2] = {a, b};
  append_merged(sequence, pair, [](std::size_t held) { return held == 2; },
                out);
}

Flow make_group_flow(const RequestSequence& sequence,
                     const std::vector<ItemId>& group) {
  require(!group.empty(), "make_group_flow: empty group");
  if (group.size() == 1) return make_item_flow(sequence, group.front());
  Flow flow;
  flow.group_size = group.size();
  const std::size_t k = group.size();
  append_merged(sequence, group,
                [k](std::size_t held) { return held == k; }, flow);
  return flow;
}

Flow make_union_flow(const RequestSequence& sequence,
                     const std::vector<ItemId>& group) {
  require(!group.empty(), "make_union_flow: empty group");
  Flow flow;
  flow.group_size = group.size();
  append_merged(sequence, group, [](std::size_t) { return true; }, flow);
  return flow;
}

void validate_flow(const Flow& flow) {
  require(flow.group_size >= 1, "Flow: group_size must be >= 1");
  Time previous = 0.0;
  for (const ServicePoint& point : flow.points) {
    require(point.time > previous,
            "Flow: service times must be strictly increasing and positive");
    previous = point.time;
  }
}

}  // namespace dpg
