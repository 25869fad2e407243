// Fundamental identifiers and constants of the caching model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace dpg {

/// Continuous request/schedule time (the paper uses fractional times such as
/// 0.8, 1.4).  All comparisons in the library treat times as exact values;
/// generators emit times representable without rounding surprises.
using Time = double;

/// Index of a cache server, 0-based dense in [0, m).
/// Server 0 is the origin server s_1 that initially stores every item.
using ServerId = std::uint32_t;

/// Index of a data item, 0-based dense in [0, k).
using ItemId = std::uint32_t;

/// An offset into a sequence's items pool (its item_offsets column).  32
/// bits: a sequence holds at most kMaxItemAccesses item accesses, and
/// SequenceBuilder, the `.dpt` writer and the `.dpt` open each reject a
/// larger one.
using ItemOffset = std::uint32_t;
inline constexpr std::size_t kMaxItemAccesses =
    std::numeric_limits<ItemOffset>::max();

/// Sentinel "no server".
inline constexpr ServerId kNoServer = std::numeric_limits<ServerId>::max();

/// Sentinel "no item".
inline constexpr ItemId kNoItem = std::numeric_limits<ItemId>::max();

/// Cost value; +infinity encodes "infeasible" per Eq. (1) of the paper.
using Cost = double;
inline constexpr Cost kInfiniteCost = std::numeric_limits<Cost>::infinity();

}  // namespace dpg
