// The pre-scan data structures of Section V (Fig. 8).
//
// For one flow we build, in a single O(n + m) pre-scan pass:
//   * per-server doubly linked lists Q_j of the flow's service nodes,
//   * a time index A[N] over all nodes,
//   * p(i), the most recent node on node i's own server strictly before i —
//     the one entry of the paper's per-node pLast[m] snapshot that the DP
//     reads.  It is exactly the predecessor of i in its server's Q_j list,
//     so the index keeps no m-wide pLast rows: O(n + m) space, not O(mn).
// The service pass then identifies each candidate interval in O(1), so the
// paper's O(mn^2) time / O(mn) space bounds still hold as upper bounds.
//
// Node 0 is always the implicit origin (server kOriginServer, time 0).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/flow.hpp"
#include "core/types.hpp"

namespace dpg {

class RequestIndex {
 public:
  /// Sentinel for "no node".
  static constexpr std::int32_t kNone = -1;

  /// An empty index; call rebuild() before any query.
  RequestIndex() = default;

  /// Builds the index for `flow` over `server_count` servers.
  RequestIndex(const Flow& flow, std::size_t server_count,
               ServerId origin = kOriginServer);

  /// Re-runs the pre-scan for a new flow, reusing the existing buffer
  /// capacity — no allocation when the new flow is no larger than any
  /// previously indexed one (the SolverWorkspace reuse contract).
  void rebuild(const Flow& flow, std::size_t server_count,
               ServerId origin = kOriginServer);

  /// Number of nodes including the origin node 0.
  [[nodiscard]] std::size_t node_count() const noexcept { return times_.size(); }
  [[nodiscard]] std::size_t server_count() const noexcept { return m_; }

  [[nodiscard]] Time time_of(std::size_t node) const noexcept {
    return times_[node];
  }
  [[nodiscard]] ServerId server_of(std::size_t node) const noexcept {
    return servers_[node];
  }

  /// The flat node columns.
  [[nodiscard]] std::span<const Time> times() const noexcept { return times_; }
  [[nodiscard]] std::span<const ServerId> servers() const noexcept {
    return servers_;
  }
  /// p(i) of every node (prev_same_server), as one column.
  [[nodiscard]] std::span<const std::int32_t> prev_same_servers()
      const noexcept {
    return q_prev_;
  }

  /// p(i): most recent node on node i's own server, strictly before i
  /// (the r_{p(i)} of the paper); kNone if i is the server's first visit.
  /// That is i's predecessor in its server's Q_j list.
  [[nodiscard]] std::int32_t prev_same_server(std::size_t node) const noexcept {
    return q_prev_[node];
  }

  /// Doubly linked list Q_j navigation: previous/next node on the same server.
  [[nodiscard]] std::int32_t q_prev(std::size_t node) const noexcept {
    return q_prev_[node];
  }
  [[nodiscard]] std::int32_t q_next(std::size_t node) const noexcept {
    return q_next_[node];
  }
  /// Last node of Q_j after the full pre-scan.
  [[nodiscard]] std::int32_t q_tail(ServerId server) const noexcept {
    return q_tail_[server];
  }

 private:
  std::size_t m_ = 0;
  std::vector<Time> times_;
  std::vector<ServerId> servers_;
  std::vector<std::int32_t> q_prev_;
  std::vector<std::int32_t> q_next_;
  std::vector<std::int32_t> q_tail_;
};

}  // namespace dpg
