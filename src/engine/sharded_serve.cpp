#include "engine/sharded_serve.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/spsc_ring.hpp"
#include "solver/online_state.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpg {

namespace {

// Aggregate backpressure counters; per-shard/partition suffixed labels are
// registered at run time below.
const obs::Counter g_ring_enqueue_blocked =
    obs::counter("ring.enqueue_blocked");
const obs::Counter g_ring_dequeue_blocked =
    obs::counter("ring.dequeue_blocked");

/// Suffixed labels stop at 8 shards/partitions — beyond that the aggregate
/// counters still cover everything and the name registry stays bounded.
constexpr std::size_t kMaxLabelIndex = 8;

/// One block in flight from a shard to a partition.  `shard` names the free
/// ring the envelope recycles into; `seq` is the claimed block's global
/// sequence number (every partition receives every seq exactly once, so
/// the consumer-side reorder is a dense counter plus a holdback map).
/// `snapshot` / `stats` mark a block that ends on a cadence multiple.
/// At M > 1, `rows`, `first_time` and `last_time` describe the claimed
/// block (each partition holds only its share of it), so every partition
/// can check its first row against the previous block's last.
struct Envelope {
  std::uint64_t seq = 0;
  std::uint32_t shard = 0;
  bool snapshot = false;
  bool stats = false;
  std::size_t rows_through = 0;
  std::size_t rows = 0;
  // M > 1: whether every partition checks first_time (the claimed block's
  // row 0, even when a bad item set cut it) against the block before.
  bool checks_open = false;
  Time first_time = 0.0;
  Time last_time = 0.0;
  RequestBlock block;
};

/// True when a claimed block of `rows` rows ending at global row
/// `rows_through` reaches a multiple of `every` (0 = cadence off).
bool reaches_multiple(std::size_t rows_through, std::size_t rows,
                      std::size_t every) {
  return every > 0 && rows_through / every > (rows_through - rows) / every;
}

/// The shard → partition transport: one SPSC ring per (shard, partition)
/// pair in each direction — N×M work rings and N×M free rings.  Zero CAS
/// anywhere; each consumer sweeps its N inbound rings with try_pop.
class Crossbar {
 public:
  Crossbar(std::size_t shards, std::size_t partitions,
           std::size_t ring_capacity)
      : shards_(shards), partitions_(partitions), done_(partitions) {
    // free ring capacity ring_capacity + 2 covers every envelope of the
    // (i, j) pair — in the work ring + one in each side's hands — so
    // recycle()'s try_push can never fail.
    for (std::size_t i = 0; i < shards_ * partitions_; ++i) {
      work_.push_back(std::make_unique<SpscRing<Envelope>>(ring_capacity));
      free_.push_back(
          std::make_unique<SpscRing<Envelope>>(ring_capacity + 2));
      Envelope env;
      for (std::size_t k = 0; k < ring_capacity + 2; ++k) {
        const bool ok = free_.back()->try_push(env);
        require(ok, "sharded_serve: free ring under-sized");
        env = Envelope{};
      }
    }
    for (auto& d : done_) d.assign(shards_, 0);
  }

  /// Shard i: takes a recycled envelope destined for partition j.
  /// Blocking; false only when the run is being aborted.
  bool acquire(std::size_t i, std::size_t j, Envelope& env) {
    return free_[i * partitions_ + j]->pop(env);
  }

  /// Shard i: ships a filled envelope to partition j.  Blocking (this is
  /// where work-ring backpressure lands); false only on abort.
  bool send(std::size_t i, std::size_t j, Envelope& env) {
    return work_[i * partitions_ + j]->push(env);
  }

  /// Partition j: receives any inbound envelope.  Blocking; false when
  /// every shard is done and the inbound rings are drained.
  bool receive(std::size_t j, Envelope& env) {
    std::vector<char>& done = done_[j];
    // One wait ladder across sweeps: a fresh ladder per empty sweep would
    // never reach the sleep rung.
    RingBackoff backoff;
    for (;;) {
      std::size_t open = 0;
      for (std::size_t i = 0; i < shards_; ++i) {
        if (done[i] != 0) continue;
        SpscRing<Envelope>& ring = *work_[i * partitions_ + j];
        if (ring.try_pop(env)) return true;
        if (ring.closed()) {
          // Re-check after observing the close, or an envelope pushed just
          // before close() could be dropped.
          if (ring.try_pop(env)) return true;
          done[i] = 1;
          continue;
        }
        ++open;
      }
      if (open == 0) return false;
      idle_waits_[j].count.fetch_add(1, std::memory_order_relaxed);
      backoff.wait();
    }
  }

  /// Partition j: returns a drained envelope to its shard's free ring.
  void recycle(std::size_t j, Envelope& env) {
    // Capacity covers every envelope of the pair, so this fails only when
    // the ring was closed by abort() — then the envelope is simply dropped.
    if (!free_[env.shard * partitions_ + j]->try_push(env)) env = Envelope{};
  }

  /// Shard i is done claiming: closes its work rings.
  void shard_done(std::size_t i) {
    for (std::size_t j = 0; j < partitions_; ++j) {
      work_[i * partitions_ + j]->close();
    }
  }

  /// Any thread: tear everything down (error path).  All blocking calls
  /// return false promptly afterwards.
  void abort() {
    for (auto& ring : work_) ring->close();
    for (auto& ring : free_) ring->close();
  }

  /// Backpressure, summed per partition.
  [[nodiscard]] std::uint64_t enqueue_blocked(std::size_t j) const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < shards_; ++i) {
      total += work_[i * partitions_ + j]->push_blocked();
    }
    return total;
  }

  [[nodiscard]] std::uint64_t dequeue_blocked(std::size_t j) const {
    return idle_waits_[j].count.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(kCacheLineBytes) PaddedCount {
    std::atomic<std::uint64_t> count{0};
  };

  std::size_t shards_;
  std::size_t partitions_;
  std::vector<std::unique_ptr<SpscRing<Envelope>>> work_;  // [i*M + j]
  std::vector<std::unique_ptr<SpscRing<Envelope>>> free_;  // [i*M + j]
  std::vector<std::vector<char>> done_;  // per-consumer private state
  std::array<PaddedCount, 64> idle_waits_;  // ServeConfig caps partitions at 64
};

/// Pending barrier: per-partition contributions collected until all M
/// arrive.
struct BarrierSlot {
  std::vector<std::optional<StreamingSnapshot>> parts;
  std::size_t epoch = 0;
  std::size_t filled = 0;
};

/// One run of the topology: the engines, the shared error and barrier
/// state, and the inline or threaded loop that drives them.
class ServeRun {
 public:
  ServeRun(ShardClaimSource& source, const CostModel& model,
           const ServeConfig& config, const StreamingOptions& options,
           const ServeHooks& hooks)
      : source_(source),
        config_(config),
        hooks_(hooks),
        last_time_(config.partition_count, 0.0),
        shard_rows_(config.shard_count, 0),
        shard_batches_(config.shard_count, 0) {
    for (std::size_t j = 0; j < config.partition_count; ++j) {
      engines_.push_back(std::make_unique<StreamingEngine>(model, options));
    }
  }

  /// N = M = 1: claim and serve on the caller's thread.
  void run_inline() {
    Envelope env;
    while (claim(0, env)) {
      if (!serve(0, env)) break;
    }
  }

  /// Spawns M partition threads and N shard threads and joins them;
  /// rethrows the first system fault.
  void run_threaded() {
    crossbar_ = std::make_unique<Crossbar>(
        config_.shard_count, config_.partition_count, config_.ring_capacity);
    std::vector<std::thread> threads;
    threads.reserve(config_.shard_count + config_.partition_count);
    for (std::size_t j = 0; j < config_.partition_count; ++j) {
      threads.emplace_back([this, j] { partition_main(j); });
    }
    for (std::size_t i = 0; i < config_.shard_count; ++i) {
      threads.emplace_back([this, i] { shard_main(i); });
    }
    for (std::thread& t : threads) t.join();
    if (first_exception_) std::rethrow_exception(first_exception_);
  }

  /// Finishes every engine and merges; call once, after a run.
  ShardedServeResult finish();

 private:
  /// Claims the next block for shard i and marks its cadences.
  bool claim(std::size_t i, Envelope& env) {
    if (!source_.claim(env.block, env.seq, env.rows_through)) return false;
    const std::size_t rows = env.block.size();
    env.snapshot =
        reaches_multiple(env.rows_through, rows, config_.snapshot_interval);
    env.stats =
        reaches_multiple(env.rows_through, rows, config_.stats_interval);
    ++shard_batches_[i];
    shard_rows_[i] += rows;
    return true;
  }

  /// Partition j serves one envelope: push_batch, the archive hook, and
  /// its share of a cadence barrier.  False once the engine rejected a row.
  bool serve(std::size_t j, const Envelope& env);
  /// M > 1, shard side: cuts the claimed block before its first row that
  /// an engine would reject — a time not later than the row before it, an
  /// empty item set or the reserved item id — and fills in its rows and
  /// times.  Row 0's time is checked by the partitions (opens_in_order).
  void check_rows(Envelope& claimed);
  /// M > 1, partition side: whether the block's first row is later than
  /// the last row partition j saw; records the row when it is not.
  bool opens_in_order(std::size_t j, const Envelope& env);
  /// Records a row an engine would reject at `seq` (1-based stream row
  /// `row`); the earliest row wins, and at one row a time out of order
  /// wins over a bad item set, as push() checks the time first.  Blocks
  /// after its seq are skipped, so the partitions serve exactly the rows
  /// before it, as one engine would.
  void reject_row(std::uint64_t seq, std::size_t row, std::string message,
                  bool time_order);
  void barrier(std::size_t j, const Envelope& env);
  void shard_main(std::size_t i);
  /// Routes a claimed block to every partition; false on abort.
  bool ship(std::size_t i, Envelope& claimed, std::vector<Envelope>& envs);
  void partition_main(std::size_t j);

  /// The first engine rejection or system exception wins and tears the
  /// topology down; decode errors travel through the source's error_seq
  /// instead.  A rejection keeps its message only: the partitions still
  /// finish, so the merged report covers what they served.
  template <typename Keep>
  void record_first(const Keep& keep) {
    {
      const std::lock_guard<std::mutex> lock(error_mutex_);
      if (!first_exception_ && engine_error_.empty()) keep();
    }
    aborted_.store(true, std::memory_order_release);
    if (crossbar_) crossbar_->abort();
  }

  ShardClaimSource& source_;
  const ServeConfig& config_;
  const ServeHooks& hooks_;
  std::vector<std::unique_ptr<StreamingEngine>> engines_;
  std::unique_ptr<Crossbar> crossbar_;  // threaded runs only

  std::mutex error_mutex_;
  std::exception_ptr first_exception_;
  std::string engine_error_;
  std::atomic<bool> aborted_{false};

  // The earliest out-of-order row (M > 1), under error_mutex_; reject_seq_
  // is its block's seq, read lock-free by every partition.
  static constexpr std::uint64_t kNoReject =
      std::numeric_limits<std::uint64_t>::max();
  std::atomic<std::uint64_t> reject_seq_{kNoReject};
  std::size_t rejected_row_ = 0;
  bool rejected_for_time_ = false;
  std::string reject_message_;
  // Per partition: the time of the last row of the last block it checked.
  std::vector<Time> last_time_;

  // Barriers are collected per seq; the last contributor merges in
  // partition-index order and fires the hooks while still holding the
  // mutex, so hooks are serialized and arrive in stream order.
  std::mutex barrier_mutex_;
  std::map<std::uint64_t, BarrierSlot> barriers_;

  // Indexed per shard — each slot written by exactly one thread.
  std::vector<std::size_t> shard_rows_;
  std::vector<std::uint64_t> shard_batches_;
};

bool ServeRun::serve(std::size_t j, const Envelope& env) {
  // Suppress blocks after a recorded decode failure or out-of-order row:
  // the failing seq itself carries the valid prefix and is still served.
  // The error_seq / reject_seq_ store happens-before the failing block's
  // ring push, so by the time any partition reaches a later seq the
  // suppression is visible (partitions consume in seq order).  A block
  // whose first row is out of order is found here, by every partition, and
  // skipped whole.
  if (env.seq > source_.error_seq() ||
      env.seq > reject_seq_.load(std::memory_order_acquire)) {
    return true;
  }
  if (env.checks_open && !opens_in_order(j, env)) return true;
  StreamingEngine& engine = *engines_[j];
  const bool archive = hooks_.on_served && config_.partition_count == 1;
  try {
    engine.push_batch(env.block);
  } catch (const InvalidArgument& rejection) {
    // The engine rejected a row (say, a time that does not increase); it
    // still holds every row before it.
    if (archive) {
      const std::size_t before = env.rows_through - env.block.size();
      hooks_.on_served(env.block, engine.requests_seen() - before);
    }
    const std::string what = rejection.what();
    record_first([&] {
      engine_error_ = config_.partition_count == 1
                          ? what
                          : "partition " + std::to_string(j) + ": " + what;
    });
    return false;
  }
  if (archive) hooks_.on_served(env.block, env.block.size());
  if (env.snapshot || env.stats) barrier(j, env);
  return true;
}

void ServeRun::check_rows(Envelope& claimed) {
  const RequestBlock& block = claimed.block;
  const std::size_t first_row = claimed.rows_through - block.size();
  std::size_t rows = block.size();
  for (std::size_t r = 0; r < rows; ++r) {
    const std::span<const ItemId> items = block.items_of(r);
    if (r > 0 && !OnlineDpGreedyState::time_follows(block.time_of(r - 1),
                                                    block.time_of(r))) {
      reject_row(claimed.seq, first_row + r + 1,
                 OnlineDpGreedyState::time_order_error(block.time_of(r - 1),
                                                       block.time_of(r)),
                 /*time_order=*/true);
    } else if (!OnlineDpGreedyState::accepts_items(items)) {
      reject_row(claimed.seq, first_row + r + 1,
                 OnlineDpGreedyState::item_set_error(items),
                 /*time_order=*/false);
    } else {
      continue;
    }
    // The cut block ends before any cadence row it would have reached.
    rows = r;
    claimed.rows_through = first_row + rows;
    claimed.snapshot = false;
    claimed.stats = false;
    break;
  }
  claimed.rows = rows;
  claimed.checks_open = !block.empty();
  claimed.first_time = block.empty() ? 0.0 : block.time_of(0);
  claimed.last_time = rows > 0 ? block.time_of(rows - 1) : claimed.first_time;
}

bool ServeRun::opens_in_order(std::size_t j, const Envelope& env) {
  Time& last = last_time_[j];
  if (!OnlineDpGreedyState::time_follows(last, env.first_time)) {
    reject_row(env.seq, env.rows_through - env.rows + 1,
               OnlineDpGreedyState::time_order_error(last, env.first_time),
               /*time_order=*/true);
    return false;
  }
  last = env.last_time;
  return true;
}

void ServeRun::reject_row(std::uint64_t seq, std::size_t row,
                          std::string message, bool time_order) {
  const std::lock_guard<std::mutex> lock(error_mutex_);
  if (rejected_row_ != 0 &&
      (rejected_row_ < row ||
       (rejected_row_ == row && (rejected_for_time_ || !time_order)))) {
    return;
  }
  rejected_row_ = row;
  rejected_for_time_ = time_order;
  reject_message_ = std::move(message);
  reject_seq_.store(seq, std::memory_order_release);
}

void ServeRun::barrier(std::size_t j, const Envelope& env) {
  StreamingEngine& engine = *engines_[j];
  std::optional<StreamingSnapshot> snap;
  if (env.snapshot) snap = engine.snapshot();
  const std::size_t epoch = engine.epoch();

  const std::size_t partitions = config_.partition_count;
  const std::lock_guard<std::mutex> lock(barrier_mutex_);
  BarrierSlot& slot = barriers_[env.seq];
  if (slot.parts.empty()) slot.parts.resize(partitions);
  slot.parts[j] = std::move(snap);
  slot.epoch = std::max(slot.epoch, epoch);
  if (++slot.filled < partitions) return;

  if (env.snapshot && hooks_.on_snapshot) {
    std::vector<StreamingSnapshot> parts;
    parts.reserve(partitions);
    for (auto& part : slot.parts) parts.push_back(std::move(*part));
    hooks_.on_snapshot(merge_partition_snapshots(parts), env.rows_through);
  }
  if (env.stats && hooks_.on_stats) {
    hooks_.on_stats(env.rows_through, slot.epoch);
  }
  barriers_.erase(env.seq);
}

void ServeRun::shard_main(std::size_t i) {
  try {
    Envelope claimed;
    std::vector<Envelope> envs(config_.partition_count);
    while (!aborted_.load(std::memory_order_acquire) &&
           reject_seq_.load(std::memory_order_acquire) == kNoReject &&
           claim(i, claimed) && ship(i, claimed, envs)) {
    }
  } catch (...) {
    const std::exception_ptr e = std::current_exception();
    record_first([&] { first_exception_ = e; });
  }
  crossbar_->shard_done(i);
}

bool ServeRun::ship(std::size_t i, Envelope& claimed,
                    std::vector<Envelope>& envs) {
  const std::size_t partitions = config_.partition_count;
  // Each partition sees only its own rows, so the rows an engine would
  // reject are found here, before routing, on the whole block.
  if (partitions > 1) check_rows(claimed);
  for (std::size_t j = 0; j < partitions; ++j) {
    if (!crossbar_->acquire(i, j, envs[j])) return false;
    envs[j].seq = claimed.seq;
    envs[j].shard = static_cast<std::uint32_t>(i);
    envs[j].snapshot = claimed.snapshot;
    envs[j].stats = claimed.stats;
    envs[j].rows_through = claimed.rows_through;
    envs[j].rows = claimed.rows;
    envs[j].checks_open = claimed.checks_open;
    envs[j].first_time = claimed.first_time;
    envs[j].last_time = claimed.last_time;
    envs[j].block.clear();
  }

  if (partitions == 1) {
    // Single partition: the whole claimed block ships as-is (swap, so
    // zero-copy `.dpt` views ride through untouched and the envelope's
    // owned block becomes next claim's scratch).
    std::swap(envs[0].block, claimed.block);
  } else {
    const RequestBlock& block = claimed.block;
    for (std::size_t r = 0; r < claimed.rows; ++r) {
      const ServerId server = block.server_of(r);
      const std::span<const ItemId> items = block.items_of(r);
      const std::size_t j =
          serve_partition_of(server, items, config_.flow_route, partitions);
      envs[j].block.begin_row(server, block.time_of(r));
      for (const ItemId item : items) envs[j].block.push_item(item);
      envs[j].block.end_row();
    }
  }

  for (std::size_t j = 0; j < partitions; ++j) {
    if (!crossbar_->send(i, j, envs[j])) return false;
  }
  return true;
}

void ServeRun::partition_main(std::size_t j) {
  try {
    std::map<std::uint64_t, Envelope> holdback;
    std::uint64_t expected = 0;
    for (;;) {
      Envelope env;
      const auto held = holdback.find(expected);
      if (held != holdback.end()) {
        env = std::move(held->second);
        holdback.erase(held);
      } else {
        if (!crossbar_->receive(j, env)) break;  // shards done + drained
        if (env.seq != expected) {
          holdback.emplace(env.seq, std::move(env));
          continue;
        }
      }
      ++expected;
      if (!serve(j, env)) break;  // rejected: the run is aborting
      crossbar_->recycle(j, env);
    }
    // Normal termination leaves the holdback empty (every claimed seq ships
    // to every partition); entries can only remain after an abort tore the
    // rings down mid-stream, and are dropped with it.
  } catch (...) {
    const std::exception_ptr e = std::current_exception();
    record_first([&] { first_exception_ = e; });
  }
}

ShardedServeResult ServeRun::finish() {
  const std::size_t shards = config_.shard_count;
  const std::size_t partitions = config_.partition_count;
  ShardedServeResult result;
  if (source_.error_seq() != ShardClaimSource::kNoError) {
    result.feed_error = source_.error_message();
  }
  result.engine_error = std::move(engine_error_);
  if (result.engine_error.empty() && rejected_row_ != 0) {
    result.engine_error = std::move(reject_message_);
    result.rejected_row = rejected_row_;
  }

  // Rows served, per partition: an engine that rejected a row mid-block
  // holds exactly the rows before it.
  std::vector<std::size_t> partition_rows(partitions, 0);
  result.partition_reports.reserve(partitions);
  Cost online_probe = 0.0;
  Cost offline_probe = 0.0;
  for (std::size_t j = 0; j < partitions; ++j) {
    StreamingEngine& engine = *engines_[j];
    partition_rows[j] = engine.requests_seen();
    result.partition_reports.push_back(engine.finish());
    result.epoch = std::max(result.epoch, engine.epoch());
    result.probe_chunks += engine.probe_chunks();
    online_probe += engine.online_probe_cost();
    offline_probe += engine.offline_probe_cost();
    result.stats.requests += partition_rows[j];
  }
  result.report = merge_partition_reports(result.partition_reports);
  // One engine served every row before the one it rejected.
  if (partitions == 1 && !result.engine_error.empty()) {
    result.rejected_row = result.stats.requests + 1;
  }
  result.cost_ratio = offline_probe > 0.0 ? online_probe / offline_probe : 0.0;
  for (std::size_t i = 0; i < shards; ++i) {
    result.stats.batches += shard_batches_[i];
  }

  // Mirror the counts into the metrics (registration is idempotent and the
  // adds are no-ops with obs off): per-shard and per-partition rows, and
  // for threaded runs the ring backpressure, aggregate first.
  for (std::size_t i = 0; i < std::min(shards, kMaxLabelIndex); ++i) {
    obs::counter("stream.shard_rows.s" + std::to_string(i))
        .add(shard_rows_[i]);
    obs::counter("stream.shard_batches.s" + std::to_string(i))
        .add(shard_batches_[i]);
  }
  for (std::size_t j = 0; j < std::min(partitions, kMaxLabelIndex); ++j) {
    obs::counter("stream.partition_rows.p" + std::to_string(j))
        .add(partition_rows[j]);
  }
  if (!crossbar_) return result;
  for (std::size_t j = 0; j < partitions; ++j) {
    result.stats.enqueue_blocked += crossbar_->enqueue_blocked(j);
    result.stats.dequeue_blocked += crossbar_->dequeue_blocked(j);
    if (j < kMaxLabelIndex) {
      obs::counter("ring.enqueue_blocked.p" + std::to_string(j))
          .add(crossbar_->enqueue_blocked(j));
      obs::counter("ring.dequeue_blocked.p" + std::to_string(j))
          .add(crossbar_->dequeue_blocked(j));
    }
  }
  g_ring_enqueue_blocked.add(result.stats.enqueue_blocked);
  g_ring_dequeue_blocked.add(result.stats.dequeue_blocked);
  return result;
}

}  // namespace

std::size_t serve_partition_of(ServerId server, std::span<const ItemId> items,
                               ServeRoute route, std::size_t partition_count) {
  if (partition_count <= 1) return 0;
  std::uint64_t key;
  if (route == ServeRoute::kByServer || items.empty()) {
    key = static_cast<std::uint64_t>(server);
    // Itemless rows under kByItemSet hash the server id, tagged into a
    // separate key universe so server 5 and item 5 don't collide.
    if (route == ServeRoute::kByItemSet) key |= std::uint64_t{1} << 63;
  } else {
    key = static_cast<std::uint64_t>(items.front());  // rows sorted: lowest
  }
  std::uint64_t state = key;
  return static_cast<std::size_t>(splitmix64(state) %
                                  static_cast<std::uint64_t>(partition_count));
}

RunReport merge_partition_reports(std::span<const RunReport> parts) {
  require(!parts.empty(), "merge_partition_reports: no partition reports");
  RunReport merged = parts[0];
  if (parts.size() == 1) return merged;  // identity, bit-for-bit
  for (std::size_t p = 1; p < parts.size(); ++p) {
    const RunReport& r = parts[p];
    // Fixed partition-index reduction order: this is what makes the merge
    // (and therefore the whole sharded run at a given M) deterministic.
    merged.total_cost += r.total_cost;
    merged.raw_cost += r.raw_cost;
    merged.transfer_cost += r.transfer_cost;
    merged.total_item_accesses += r.total_item_accesses;
    merged.package_count += r.package_count;
    merged.unpack_events += r.unpack_events;
    merged.transfer_events += r.transfer_events;
    merged.cache_segments += r.cache_segments;
    merged.phase1_seconds = std::max(merged.phase1_seconds, r.phase1_seconds);
    merged.solve_seconds = std::max(merged.solve_seconds, r.solve_seconds);
    merged.plans.insert(merged.plans.end(), r.plans.begin(), r.plans.end());
  }
  finalize_report(merged);  // ave_cost + bit-exact cache/transfer identity
  return merged;
}

StreamingSnapshot merge_partition_snapshots(
    std::span<const StreamingSnapshot> parts) {
  require(!parts.empty(), "merge_partition_snapshots: no partition snapshots");
  StreamingSnapshot merged = parts[0];
  if (parts.size() == 1) return merged;  // identity, bit-for-bit

  std::vector<RunReport> reports;
  std::vector<RunReport> deltas;
  reports.reserve(parts.size());
  deltas.reserve(parts.size());
  for (const StreamingSnapshot& s : parts) {
    reports.push_back(s.report);
    deltas.push_back(s.delta);
  }
  merged.report = merge_partition_reports(reports);
  merged.delta = merge_partition_reports(deltas);

  merged.requests = 0;
  merged.epoch = 0;
  merged.live_packages = 0;
  merged.item_count = 0;
  merged.online_probe_cost = 0.0;
  merged.offline_probe_cost = 0.0;
  merged.probe_chunks = 0;
  merged.state_alloc_events = 0;
  for (const StreamingSnapshot& s : parts) {
    merged.requests += s.requests;
    merged.epoch = std::max(merged.epoch, s.epoch);
    merged.live_packages += s.live_packages;
    // Upper bound: kByServer routing can discover one item on several
    // partitions, so the summed universe may over-count shared items.
    merged.item_count += s.item_count;
    merged.online_probe_cost += s.online_probe_cost;
    merged.offline_probe_cost += s.offline_probe_cost;
    merged.probe_chunks += s.probe_chunks;
    merged.state_alloc_events += s.state_alloc_events;
  }
  merged.cost_ratio = merged.offline_probe_cost > 0.0
                          ? merged.online_probe_cost /
                                merged.offline_probe_cost
                          : 0.0;
  return merged;
}

ShardedServeResult run_sharded_serve(ShardClaimSource& source,
                                     const CostModel& model,
                                     const ServeConfig& config,
                                     const StreamingOptions& engine_options,
                                     const ServeHooks& hooks) {
  config.validate();
  source.cut_at_multiples(config.snapshot_interval, config.stats_interval);
  ServeRun run(source, model, config, engine_options, hooks);
  if (config.shard_count == 1 && config.partition_count == 1) {
    run.run_inline();
  } else {
    run.run_threaded();
  }
  return run.finish();
}

}  // namespace dpg
