#include "core/request_index.hpp"

#include "util/error.hpp"

namespace dpg {

RequestIndex::RequestIndex(const Flow& flow, std::size_t server_count,
                           ServerId origin) {
  rebuild(flow, server_count, origin);
}

void RequestIndex::rebuild(const Flow& flow, std::size_t server_count,
                           ServerId origin) {
  require(server_count > 0, "RequestIndex: need >= 1 server");
  require(origin < server_count, "RequestIndex: origin out of range");
  validate_flow(flow);
  m_ = server_count;

  const std::size_t n = flow.points.size() + 1;  // + origin node
  times_.resize(n);
  servers_.resize(n);
  q_prev_.assign(n, kNone);
  q_next_.assign(n, kNone);
  q_tail_.assign(m_, kNone);

  times_[0] = 0.0;
  servers_[0] = origin;
  for (std::size_t i = 1; i < n; ++i) {
    const ServicePoint& p = flow.points[i - 1];
    require(p.server < m_, "RequestIndex: service point server out of range");
    times_[i] = p.time;
    servers_[i] = p.server;
  }

  // Pre-scan: append each node to its server's Q_j list.  The tail read
  // BEFORE appending node i is the most recent node on that server strictly
  // before i, i.e. p(i).
  for (std::size_t i = 0; i < n; ++i) {
    const ServerId s = servers_[i];
    const std::int32_t tail = q_tail_[s];
    q_prev_[i] = tail;
    if (tail != kNone) q_next_[static_cast<std::size_t>(tail)] = static_cast<std::int32_t>(i);
    q_tail_[s] = static_cast<std::int32_t>(i);
  }
}

}  // namespace dpg
