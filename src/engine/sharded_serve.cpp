#include "engine/sharded_serve.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/mpmc_ring.hpp"
#include "parallel/spsc_ring.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpg {

namespace {

// Aggregate backpressure counters (same names as the 1×1 pipeline, so the
// metrics mean the same thing at every topology); per-shard/partition
// suffixed labels are registered at run time below.
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
struct Envelope {
  std::uint64_t seq = 0;
  std::uint32_t shard = 0;
  bool barrier = false;
  std::size_t rows_through = 0;
  RequestBlock block;
};

/// Same spin → yield → sleep ladder as the rings' internal waits.
struct Backoff {
  unsigned round = 0;
  void wait() {
    if (round < 64) {
      // Busy spin: a peer is typically one block away.
    } else if (round < 256) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ++round;
  }
};

/// The shard → partition transport, behind one interface so the shard and
/// partition loops are topology-agnostic.  Virtual dispatch is per block,
/// not per row — noise next to a push_batch.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Shard i: takes a recycled envelope destined for partition j.
  /// Blocking; false only when the run is being aborted.
  virtual bool acquire(std::size_t i, std::size_t j, Envelope& env) = 0;
  /// Shard i: ships a filled envelope to partition j.  Blocking (this is
  /// where work-ring backpressure lands); false only on abort.
  virtual bool send(std::size_t i, std::size_t j, Envelope& env) = 0;
  /// Partition j: receives any inbound envelope.  Blocking; false when
  /// every producer is done and the inbound rings are drained.
  virtual bool receive(std::size_t j, Envelope& env) = 0;
  /// Partition j: returns a drained envelope to its shard's free ring.
  virtual void recycle(std::size_t j, Envelope& env) = 0;
  /// Shard i is done claiming; the last shard closes the work rings.
  virtual void shard_done(std::size_t i) = 0;
  /// Any thread: tear everything down (error path).  All blocking calls
  /// return false promptly afterwards.
  virtual void abort() = 0;

  /// Backpressure, summed per partition (defined for both topologies).
  [[nodiscard]] virtual std::uint64_t enqueue_blocked(std::size_t j) const = 0;
  [[nodiscard]] virtual std::uint64_t dequeue_blocked(std::size_t j) const = 0;
};

/// One SPSC ring per (shard, partition) pair, in both directions: N×M work
/// rings and N×M free rings.  Zero CAS anywhere; each consumer sweeps its
/// N inbound rings with try_pop.
class CrossbarTransport final : public Transport {
 public:
  CrossbarTransport(std::size_t shards, std::size_t partitions,
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

  bool acquire(std::size_t i, std::size_t j, Envelope& env) override {
    return free_[i * partitions_ + j]->pop(env);
  }

  bool send(std::size_t i, std::size_t j, Envelope& env) override {
    return work_[i * partitions_ + j]->push(env);
  }

  bool receive(std::size_t j, Envelope& env) override {
    std::vector<char>& done = done_[j];
    Backoff backoff;
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
      // A fresh wait ladder per empty sweep would never reach the sleep
      // rung; keep the round count across sweeps until something arrives.
    }
  }

  void recycle(std::size_t j, Envelope& env) override {
    // Capacity covers every envelope of the pair, so this fails only when
    // the ring was closed by abort() — then the envelope is simply dropped.
    if (!free_[env.shard * partitions_ + j]->try_push(env)) env = Envelope{};
  }

  void shard_done(std::size_t i) override {
    for (std::size_t j = 0; j < partitions_; ++j) {
      work_[i * partitions_ + j]->close();
    }
  }

  void abort() override {
    for (auto& ring : work_) ring->close();
    for (auto& ring : free_) ring->close();
  }

  std::uint64_t enqueue_blocked(std::size_t j) const override {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < shards_; ++i) {
      total += work_[i * partitions_ + j]->push_blocked();
    }
    return total;
  }

  std::uint64_t dequeue_blocked(std::size_t j) const override {
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

/// One MPMC work ring per partition (N producers each) and one MPMC free
/// ring per shard (M producers each): N + M rings total, CAS-claimed slots.
class MpmcTransport final : public Transport {
 public:
  MpmcTransport(std::size_t shards, std::size_t partitions,
                std::size_t ring_capacity)
      : active_shards_(shards) {
    for (std::size_t j = 0; j < partitions; ++j) {
      work_.push_back(std::make_unique<MpmcRing<Envelope>>(ring_capacity));
    }
    // Each shard's envelope pool must cover all its partitions' rings plus
    // the in-hand slots, same sizing argument as the crossbar per pair.
    const std::size_t pool = partitions * (ring_capacity + 2);
    for (std::size_t i = 0; i < shards; ++i) {
      free_.push_back(std::make_unique<MpmcRing<Envelope>>(pool));
      Envelope env;
      for (std::size_t k = 0; k < pool; ++k) {
        const bool ok = free_.back()->try_push(env);
        require(ok, "sharded_serve: free ring under-sized");
        env = Envelope{};
      }
    }
  }

  bool acquire(std::size_t i, std::size_t /*j*/, Envelope& env) override {
    return free_[i]->pop(env);
  }

  bool send(std::size_t /*i*/, std::size_t j, Envelope& env) override {
    return work_[j]->push(env);
  }

  bool receive(std::size_t j, Envelope& env) override {
    return work_[j]->pop(env);
  }

  void recycle(std::size_t /*j*/, Envelope& env) override {
    if (!free_[env.shard]->try_push(env)) env = Envelope{};
  }

  void shard_done(std::size_t /*i*/) override {
    if (active_shards_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      for (auto& ring : work_) ring->close();
    }
  }

  void abort() override {
    for (auto& ring : work_) ring->close();
    for (auto& ring : free_) ring->close();
  }

  std::uint64_t enqueue_blocked(std::size_t j) const override {
    return work_[j]->push_blocked();
  }

  std::uint64_t dequeue_blocked(std::size_t j) const override {
    return work_[j]->pop_blocked();
  }

 private:
  std::vector<std::unique_ptr<MpmcRing<Envelope>>> work_;  // per partition
  std::vector<std::unique_ptr<MpmcRing<Envelope>>> free_;  // per shard
  std::atomic<std::size_t> active_shards_;
};

/// Pending barrier: per-partition snapshots collected until all M arrive.
struct BarrierSlot {
  std::vector<std::optional<StreamingSnapshot>> parts;
  std::size_t filled = 0;
  std::size_t rows_through = 0;
};

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

ShardedServeResult run_sharded_serve(
    ShardClaimSource& source, const CostModel& model,
    const ServeConfig& config, const StreamingOptions& engine_options,
    const ShardedSnapshotCallback& on_snapshot) {
  config.validate();
  const std::size_t shards = config.shard_count;
  const std::size_t partitions = config.partition_count;

  std::vector<std::unique_ptr<StreamingEngine>> engines;
  engines.reserve(partitions);
  for (std::size_t j = 0; j < partitions; ++j) {
    engines.push_back(std::make_unique<StreamingEngine>(model, engine_options));
  }

  std::unique_ptr<Transport> transport;
  if (config.ring_topology == ServeTopology::kCrossbar) {
    transport = std::make_unique<CrossbarTransport>(shards, partitions,
                                                    config.ring_capacity);
  } else {
    transport = std::make_unique<MpmcTransport>(shards, partitions,
                                                config.ring_capacity);
  }

  // Error plumbing: the first engine rejection or system exception wins and
  // tears the topology down; decode errors travel through the source's
  // error_seq instead (see the header's error contract).  A rejection keeps
  // its message only: the partitions still finish, so the merged report
  // covers what they served.
  std::mutex error_mutex;
  std::exception_ptr first_exception;
  std::string engine_error;
  std::atomic<bool> aborted{false};
  const auto record_first = [&](const auto& keep) {
    {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_exception && engine_error.empty()) keep();
    }
    aborted.store(true, std::memory_order_release);
    transport->abort();
  };
  const auto record_exception = [&](std::exception_ptr e) {
    record_first([&] { first_exception = e; });
  };
  const auto record_rejection = [&](std::string message) {
    record_first([&] { engine_error = std::move(message); });
  };

  // Barrier snapshots: collected per seq; the last contributor merges in
  // partition-index order and fires the callback while still holding the
  // mutex, so callbacks are serialized and arrive in barrier order.
  std::mutex barrier_mutex;
  std::map<std::uint64_t, BarrierSlot> barriers;

  // Indexed per thread — each slot written by exactly one thread.
  std::vector<std::size_t> shard_rows(shards, 0);
  std::vector<std::uint64_t> shard_batches(shards, 0);

  const auto shard_main = [&](std::size_t i) {
    try {
      RequestBlock claimed;
      std::vector<Envelope> envs(partitions);
      std::uint64_t seq = 0;
      std::size_t rows_through = 0;
      while (!aborted.load(std::memory_order_acquire) &&
             source.claim(claimed, seq, rows_through)) {
        ++shard_batches[i];
        shard_rows[i] += claimed.size();
        const std::size_t interval = config.snapshot_interval;
        const bool barrier =
            interval > 0 && (rows_through / interval) >
                                ((rows_through - claimed.size()) / interval);

        bool ok = true;
        for (std::size_t j = 0; j < partitions; ++j) {
          if (!transport->acquire(i, j, envs[j])) {
            ok = false;
            break;
          }
          envs[j].seq = seq;
          envs[j].shard = static_cast<std::uint32_t>(i);
          envs[j].barrier = barrier;
          envs[j].rows_through = rows_through;
          envs[j].block.clear();
        }
        if (!ok) break;

        if (partitions == 1) {
          // Single partition: the whole claimed block ships as-is (swap, so
          // zero-copy `.dpt` views ride through untouched and the envelope's
          // owned block becomes next claim's scratch).
          std::swap(envs[0].block, claimed);
        } else {
          const std::size_t rows = claimed.size();
          for (std::size_t r = 0; r < rows; ++r) {
            const ServerId server = claimed.server_of(r);
            const std::span<const ItemId> items = claimed.items_of(r);
            const std::size_t j = serve_partition_of(
                server, items, config.flow_route, partitions);
            envs[j].block.begin_row(server, claimed.time_of(r));
            for (const ItemId item : items) envs[j].block.push_item(item);
            envs[j].block.end_row();
          }
        }

        for (std::size_t j = 0; j < partitions; ++j) {
          if (!transport->send(i, j, envs[j])) {
            ok = false;
            break;
          }
        }
        if (!ok) break;
      }
    } catch (...) {
      record_exception(std::current_exception());
    }
    transport->shard_done(i);
  };

  const auto partition_main = [&](std::size_t j) {
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
          if (!transport->receive(j, env)) break;  // producers done+drained
          if (env.seq != expected) {
            holdback.emplace(env.seq, std::move(env));
            continue;
          }
        }
        ++expected;
        // Suppress blocks after a recorded decode failure: the failing seq
        // itself carries the valid prefix and is still served.  The
        // error_seq store happens-before the failing block's ring push, so
        // by the time any partition reaches a later seq the suppression is
        // visible (partitions consume in seq order).
        if (env.seq <= source.error_seq()) {
          engines[j]->push_batch(env.block);
          if (env.barrier) {
            StreamingSnapshot snap = engines[j]->snapshot();
            const std::lock_guard<std::mutex> lock(barrier_mutex);
            BarrierSlot& slot = barriers[env.seq];
            if (slot.parts.empty()) slot.parts.resize(partitions);
            slot.parts[j] = std::move(snap);
            slot.rows_through = env.rows_through;
            if (++slot.filled == partitions) {
              std::vector<StreamingSnapshot> parts;
              parts.reserve(partitions);
              for (auto& part : slot.parts) parts.push_back(std::move(*part));
              const std::size_t rows = slot.rows_through;
              barriers.erase(env.seq);
              if (on_snapshot) {
                on_snapshot(merge_partition_snapshots(parts), rows);
              }
            }
          }
        }
        transport->recycle(j, env);
      }
      // Normal termination leaves the holdback empty (every claimed seq
      // ships to every partition); entries can only remain after an abort
      // tore the rings down mid-stream, and are dropped with it.
    } catch (const InvalidArgument& rejection) {
      // The engine rejected a row (say, a time that does not increase); it
      // still holds every row before it.
      const std::string what = rejection.what();
      record_rejection(partitions == 1
                           ? what
                           : "partition " + std::to_string(j) + ": " + what);
    } catch (...) {
      record_exception(std::current_exception());
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(shards + partitions);
  for (std::size_t j = 0; j < partitions; ++j) {
    threads.emplace_back(partition_main, j);
  }
  for (std::size_t i = 0; i < shards; ++i) threads.emplace_back(shard_main, i);
  for (std::thread& t : threads) t.join();

  if (first_exception) std::rethrow_exception(first_exception);

  ShardedServeResult result;
  if (source.error_seq() != ShardClaimSource::kNoError) {
    result.feed_error = source.error_message();
  }
  result.engine_error = std::move(engine_error);

  // Rows served, per partition: an engine that rejected a row mid-block
  // holds exactly the rows before it.
  std::vector<std::size_t> partition_rows(partitions, 0);
  result.partition_reports.reserve(partitions);
  for (std::size_t j = 0; j < partitions; ++j) {
    partition_rows[j] = engines[j]->requests_seen();
    result.partition_reports.push_back(engines[j]->finish());
    result.epoch = std::max(result.epoch, engines[j]->epoch());
    result.probe_chunks += engines[j]->probe_chunks();
  }
  result.report = merge_partition_reports(result.partition_reports);

  Cost online_probe = 0.0;
  Cost offline_probe = 0.0;
  for (std::size_t j = 0; j < partitions; ++j) {
    online_probe += engines[j]->online_probe_cost();
    offline_probe += engines[j]->offline_probe_cost();
  }
  result.cost_ratio = offline_probe > 0.0 ? online_probe / offline_probe : 0.0;

  for (std::size_t i = 0; i < shards; ++i) {
    result.stats.batches += shard_batches[i];
  }
  for (std::size_t j = 0; j < partitions; ++j) {
    result.stats.requests += partition_rows[j];
    result.stats.enqueue_blocked += transport->enqueue_blocked(j);
    result.stats.dequeue_blocked += transport->dequeue_blocked(j);
  }

  // Mirror the backpressure into the ring.* metrics (aggregate first, then
  // the per-shard/partition labels documented in docs/observability.md —
  // registration is idempotent and the adds are no-ops with obs off).
  g_ring_enqueue_blocked.add(result.stats.enqueue_blocked);
  g_ring_dequeue_blocked.add(result.stats.dequeue_blocked);
  for (std::size_t i = 0; i < std::min(shards, kMaxLabelIndex); ++i) {
    obs::counter("stream.shard_rows.s" + std::to_string(i))
        .add(shard_rows[i]);
    obs::counter("stream.shard_batches.s" + std::to_string(i))
        .add(shard_batches[i]);
  }
  for (std::size_t j = 0; j < std::min(partitions, kMaxLabelIndex); ++j) {
    obs::counter("ring.enqueue_blocked.p" + std::to_string(j))
        .add(transport->enqueue_blocked(j));
    obs::counter("ring.dequeue_blocked.p" + std::to_string(j))
        .add(transport->dequeue_blocked(j));
    obs::counter("stream.partition_rows.p" + std::to_string(j))
        .add(partition_rows[j]);
  }

  return result;
}

}  // namespace dpg
