// ServeConfig: the one config object for the serve surface — the serve
// runtime (engine/sharded_serve.hpp) reads its shape from it at every N×M,
// the CLI's `serve` flags map onto it one-for-one, and it carries the
// observational sinks (stats cadence, Prometheus file, /metrics listener,
// `.dpt` archive).
//
// Same contract as SolverConfig (engine/solver.hpp): a plain aggregate with
// defaulted members, fluent setters for the fields whose member names differ
// from the builder verb, a string-keyed `.with(field, value)` for flag
// parsing, and an eager `validate()` that throws InvalidArgument naming the
// offending field — so a bad flag fails at the parse site, not mid-stream.
//
//   ServeConfig{}.batch(1024).ring(8).shards(4).partitions(2)
//               .listen("0.0.0.0:9100").stats_every(100000)
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace dpg {

/// How a request row is assigned to an engine partition (sharded serve).
enum class ServeRoute {
  /// Hash the server id.  Each server's whole request stream lands on one
  /// partition, so per-server flows are never split.
  kByServer,
  /// Hash the lowest item id of the row (rows with no items fall back to
  /// the server hash).  Keeps each item's accesses on one partition.
  kByItemSet,
};

struct ServeConfig {
  /// Most rows per block (the decode chunk and the push_batch unit); a
  /// block also ends at each cadence multiple and, on CSV, when the rows
  /// that have arrived run out.
  std::size_t batch_rows = 1024;
  /// Per-ring capacity in blocks (rounded up to a power of two).
  std::size_t ring_capacity = 8;
  /// Decode shards N (N = M = 1 serves inline on the caller's thread).
  std::size_t shard_count = 1;
  /// Engine partitions M (1 = single engine).
  std::size_t partition_count = 1;
  /// Flow-routing rule for partition_count > 1.
  ServeRoute flow_route = ServeRoute::kByServer;
  /// Snapshot cadence in rows (0 = no periodic snapshots).
  std::size_t snapshot_interval = 1000;
  /// Stats-line cadence in rows (0 = off).
  std::size_t stats_interval = 0;
  /// Cost-ratio probe chunk in rows (0 = probe off).  Under partitioning
  /// each partition probes its own sub-stream (see docs/streaming.md).
  std::size_t probe_chunk_rows = 0;
  /// Stop after this many rows (0 = serve the whole stream).
  std::size_t max_request_rows = 0;
  /// host:port for the /metrics scrape listener ("" = no listener).
  std::string listen_address;
  /// Prometheus exposition file rewritten at snapshot cadence ("" = off).
  std::string prom_path;
  /// Archive the serve feed to this `.dpt` file while serving ("" = off).
  /// Requires shards == partitions == 1 (the archive preserves arrival
  /// order, which a sharded run does not reassemble).
  std::string archive_path;

  // Fluent builder surface (member names differ where the verb reads
  // better at the call site, matching SolverConfig's convention).
  ServeConfig& batch(std::size_t rows) noexcept {
    batch_rows = rows;
    return *this;
  }
  ServeConfig& ring(std::size_t blocks) noexcept {
    ring_capacity = blocks;
    return *this;
  }
  ServeConfig& shards(std::size_t n) noexcept {
    shard_count = n;
    return *this;
  }
  ServeConfig& partitions(std::size_t n) noexcept {
    partition_count = n;
    return *this;
  }
  ServeConfig& route(ServeRoute r) noexcept {
    flow_route = r;
    return *this;
  }
  ServeConfig& snapshot_every(std::size_t rows) noexcept {
    snapshot_interval = rows;
    return *this;
  }
  ServeConfig& stats_every(std::size_t rows) noexcept {
    stats_interval = rows;
    return *this;
  }
  ServeConfig& probe_chunk(std::size_t rows) noexcept {
    probe_chunk_rows = rows;
    return *this;
  }
  ServeConfig& max_requests(std::size_t rows) noexcept {
    max_request_rows = rows;
    return *this;
  }
  ServeConfig& listen(std::string_view address) {
    listen_address = address;
    return *this;
  }
  ServeConfig& prom_out(std::string_view path) {
    prom_path = path;
    return *this;
  }
  ServeConfig& archive(std::string_view path) {
    archive_path = path;
    return *this;
  }

  /// Sets one field by name from a string value ("batch", "ring", "shards",
  /// "partitions", "route", "snapshot_every", "stats_every", "probe_chunk",
  /// "max_requests", "listen", "prom_out", "archive").  Routes are
  /// "server"/"itemset".  Throws InvalidArgument immediately on an unknown
  /// field (the message lists the valid ones), an unparsable value, or a
  /// value outside the field's range.
  ServeConfig& with(std::string_view field, std::string_view value);

  /// Range-checks every field (batch ≥ 1, ring ≥ 1, shards ∈ [1, 64],
  /// partitions ∈ [1, 64], archive only at 1×1); throws InvalidArgument
  /// naming the offending field.  Every serve entry point calls this first.
  void validate() const;
};

/// Parse helpers shared by `.with` and the CLI (throw InvalidArgument on
/// anything but the documented spellings).
ServeRoute parse_serve_route(std::string_view value);
const char* serve_route_name(ServeRoute route) noexcept;

}  // namespace dpg
