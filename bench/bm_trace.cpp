// Trace-I/O perf harness: streaming CSV parser vs the legacy CsvTable path,
// allocation counts for CSR sequence builds, buffered file write/read
// throughput, a million-request end-to-end dp_greedy run, and the `.dpt`
// binary format (mmap open latency, mmap-vs-read, convert throughput).
// Emits the "trace_io" and "binary_io" sections as a fragment for
// dpgreedy_bench to merge (see bench/harness/fragment.hpp); with
// --hundred-million it additionally runs the 100M-request end-to-end
// pipeline (generate -> CSV write -> convert -> mmap open -> dp_greedy
// solve) and records it as "hundred_million_e2e".
//
// Usage: bm_trace [--fragment FILE] [--hundred-million]
// (default: bm_trace.fragment.json in the CWD.  The 100M run needs ~10 GB
// of RAM, ~8 GB of /tmp and several minutes, so it is opt-in and its
// section is informational — not part of the scenario registry.)
//
// Allocation counts come from a global operator new/delete override local to
// this binary (same scheme as bm_phase1): exact counts, not estimates.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/registry.hpp"
#include "harness/fragment.hpp"
#include "harness_common.hpp"
#include "trace/dpt.hpp"
#include "trace/generators.hpp"
#include "trace/io.hpp"
#include "util/stopwatch.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size > 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size > 0 ? size : alignment) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dpg {
namespace {

constexpr int kRepetitions = 5;

std::uint64_t allocations_now() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Best-of-N wall time of `fn`, in milliseconds.
template <typename Fn>
double time_best_ms(Fn&& fn, int repetitions = kRepetitions) {
  double best = 1e300;
  for (int rep = 0; rep < repetitions; ++rep) {
    Stopwatch watch;
    fn();
    best = std::min(best, watch.elapsed_seconds() * 1e3);
  }
  return best;
}

bool same_sequence(const RequestSequence& a, const RequestSequence& b) {
  if (a.server_count() != b.server_count() ||
      a.item_count() != b.item_count() || a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].server != b[i].server || a[i].time != b[i].time ||
        !std::equal(a[i].items.begin(), a[i].items.end(), b[i].items.begin(),
                    b[i].items.end())) {
      return false;
    }
  }
  return true;
}

/// Streaming vs legacy parser on one serialized Zipf trace.
struct ParseReport {
  std::size_t requests = 0;
  std::size_t bytes = 0;
  double legacy_ms = 0.0;
  double streaming_ms = 0.0;
  double legacy_mib_s = 0.0;
  double streaming_mib_s = 0.0;
  std::uint64_t legacy_allocs = 0;
  std::uint64_t streaming_allocs = 0;
  bool sequences_identical = false;
};

ParseReport run_parse(std::size_t requests) {
  ZipfTraceConfig config;
  config.server_count = 50;
  config.item_count = 2000;
  config.request_count = requests;
  config.co_access = 0.5;
  Rng rng(21);
  const std::string csv = trace_to_csv(generate_zipf_trace(config, rng));

  ParseReport report;
  report.requests = requests;
  report.bytes = csv.size();
  report.legacy_ms = time_best_ms([&] {
    if (trace_from_csv_legacy(csv).size() != requests) std::abort();
  });
  report.streaming_ms = time_best_ms([&] {
    if (trace_from_csv(csv).size() != requests) std::abort();
  });
  const double mib = static_cast<double>(csv.size()) / (1024.0 * 1024.0);
  report.legacy_mib_s = mib / (report.legacy_ms / 1e3);
  report.streaming_mib_s = mib / (report.streaming_ms / 1e3);

  std::uint64_t before = allocations_now();
  const RequestSequence legacy = trace_from_csv_legacy(csv);
  report.legacy_allocs = allocations_now() - before;
  before = allocations_now();
  const RequestSequence streamed = trace_from_csv(csv);
  report.streaming_allocs = allocations_now() - before;
  report.sequences_identical = same_sequence(legacy, streamed);
  return report;
}

/// Allocation count of one pre-reserved CSR build at size n — constant in n
/// (the build permutes into place and rebuilds four flat arrays), which the
/// baseline demonstrates by recording the count at n and 2n.
struct BuildReport {
  std::size_t requests = 0;
  std::uint64_t reserve_allocs = 0;  // growing the builder's six flat arrays
  std::uint64_t build_allocs = 0;    // everything after reserve, incl. build()
};

BuildReport run_build(std::size_t requests) {
  const std::size_t servers = 50, items = 2000;
  Rng rng(33);
  BuildReport report;
  report.requests = requests;
  SequenceBuilder builder(servers, items);
  std::uint64_t before = allocations_now();
  builder.reserve(requests, 2 * requests);
  report.reserve_allocs = allocations_now() - before;
  before = allocations_now();
  for (std::size_t i = 0; i < requests; ++i) {
    builder.begin_request(static_cast<ServerId>(rng.next_below(servers)),
                          static_cast<Time>(i + 1));
    builder.push_item(static_cast<ItemId>(rng.next_below(items)));
    builder.push_item(static_cast<ItemId>(rng.next_below(items)));
    builder.end_request();
  }
  const RequestSequence seq = std::move(builder).build();
  report.build_allocs = allocations_now() - before;
  if (seq.size() != requests) std::abort();
  return report;
}

/// Buffered file write + sized-read round trip on a large trace.
struct FileReport {
  std::size_t requests = 0;
  std::size_t bytes = 0;
  double write_ms = 0.0;
  double read_ms = 0.0;
  double write_mib_s = 0.0;
  double read_mib_s = 0.0;
};

FileReport run_file(std::size_t requests) {
  ZipfTraceConfig config;
  config.server_count = 50;
  config.item_count = 2000;
  config.request_count = requests;
  Rng rng(44);
  const RequestSequence seq = generate_zipf_trace(config, rng);
  const std::string path = "/tmp/dpg_bm_trace.csv";

  FileReport report;
  report.requests = requests;
  report.write_ms = time_best_ms([&] { write_trace_file(path, seq); });
  report.read_ms = time_best_ms([&] {
    if (read_trace_file(path).size() != requests) std::abort();
  });
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  report.bytes = in ? static_cast<std::size_t>(in.tellg()) : 0;
  const double mib = static_cast<double>(report.bytes) / (1024.0 * 1024.0);
  report.write_mib_s = mib / (report.write_ms / 1e3);
  report.read_mib_s = mib / (report.read_ms / 1e3);
  std::remove(path.c_str());
  return report;
}

/// Million-request end to end: generate, file round trip, dp_greedy through
/// the registry.  Uniform workload over 200k items keeps every per-item flow
/// short, so the quadratic DP stays linear overall — the regime the CSR
/// data plane is built for.
struct MillionReport {
  std::size_t requests = 0;
  std::size_t items = 0;
  std::size_t file_bytes = 0;
  double generate_s = 0.0;
  double write_s = 0.0;
  double read_s = 0.0;
  double solve_s = 0.0;            // serial (threads=0) dp_greedy solve
  double solve_threads8_s = 0.0;   // the same solve at SolverConfig threads=8
  std::size_t cores = 0;           // hardware_concurrency of the bench host
  Cost total_cost = 0.0;
  bool roundtrip_identical = false;
  bool threads_identical = false;  // 8-thread report bitwise == serial
};

MillionReport run_million() {
  UniformTraceConfig config;
  config.server_count = 50;
  config.item_count = 200000;
  config.request_count = 1000000;
  config.mean_gap = 0.05;

  MillionReport report;
  report.requests = config.request_count;
  report.items = config.item_count;

  Rng rng(55);
  Stopwatch watch;
  const RequestSequence seq = generate_uniform_trace(config, rng);
  report.generate_s = watch.elapsed_seconds();

  const std::string path = "/tmp/dpg_bm_trace_1m.csv";
  watch = Stopwatch();
  write_trace_file(path, seq);
  report.write_s = watch.elapsed_seconds();
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  report.file_bytes = in ? static_cast<std::size_t>(in.tellg()) : 0;

  watch = Stopwatch();
  const RequestSequence restored =
      read_trace_file(path, seq.server_count(), seq.item_count());
  report.read_s = watch.elapsed_seconds();
  std::remove(path.c_str());
  report.roundtrip_identical = same_sequence(seq, restored);

  SolverConfig solver_config;
  solver_config.keep_schedules = false;
  watch = Stopwatch();
  const RunReport run =
      builtin_registry().run("dp_greedy", restored, CostModel{1.0, 2.0, 0.8},
                             solver_config);
  report.solve_s = watch.elapsed_seconds();
  report.total_cost = run.total_cost;

  // The same solve with Phase 2 sharded over 8 workers.  Whatever the host
  // (cores is recorded alongside), the report must stay bitwise identical.
  report.cores = std::thread::hardware_concurrency();
  watch = Stopwatch();
  const RunReport pooled =
      builtin_registry().run("dp_greedy", restored, CostModel{1.0, 2.0, 0.8},
                             SolverConfig{solver_config}.threads(8));
  report.solve_threads8_s = watch.elapsed_seconds();
  report.threads_identical = pooled.total_cost == run.total_cost &&
                             pooled.cache_cost == run.cache_cost &&
                             pooled.transfer_cost == run.transfer_cost &&
                             pooled.transfer_events == run.transfer_events &&
                             pooled.cache_segments == run.cache_segments;
  return report;
}

std::size_t file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<std::size_t>(in.tellg()) : 0;
}

/// `.dpt` binary format on a 1M-request trace: write + open latency, the
/// CSV parse of the same trace for scale, and convert throughput both
/// directions.  The open (mmap, every column hashed and checked) is the
/// acceptance-gated number: < 10 ms.
struct BinaryIoReport {
  std::size_t requests = 0;
  std::size_t csv_bytes = 0;
  std::size_t dpt_bytes = 0;
  double csv_write_ms = 0.0;
  double dpt_write_ms = 0.0;
  double open_map_ms = 0.0;   // read_trace_dpt: mmap + verification pass
  double csv_parse_ms = 0.0;  // read_trace_file on the same trace
  double convert_csv_to_dpt_ms = 0.0;
  double convert_dpt_to_csv_ms = 0.0;
  bool map_borrows = false;
  bool roundtrip_identical = false;
};

BinaryIoReport run_binary_io() {
  UniformTraceConfig config;
  config.server_count = 50;
  config.item_count = 200000;
  config.request_count = 1000000;
  config.mean_gap = 0.05;
  Rng rng(66);
  const RequestSequence seq = generate_uniform_trace(config, rng);

  const std::string csv_path = "/tmp/dpg_bm_binary_io.csv";
  const std::string dpt_path = "/tmp/dpg_bm_binary_io.dpt";
  const std::string csv_out = "/tmp/dpg_bm_binary_io_out.csv";

  BinaryIoReport report;
  report.requests = config.request_count;
  report.csv_write_ms = time_best_ms([&] { write_trace_file(csv_path, seq); });
  report.dpt_write_ms = time_best_ms([&] { write_trace_dpt(dpt_path, seq); });
  report.csv_bytes = file_bytes(csv_path);
  report.dpt_bytes = file_bytes(dpt_path);

  report.open_map_ms = time_best_ms([&] {
    if (read_trace_dpt(dpt_path).size() != report.requests) std::abort();
  });
  report.csv_parse_ms = time_best_ms([&] {
    if (read_trace_file(csv_path).size() != report.requests) std::abort();
  });

  // Convert throughput: exactly what `dpgreedy convert` does per direction.
  report.convert_csv_to_dpt_ms = time_best_ms(
      [&] { write_trace_dpt(dpt_path, read_trace_file(csv_path)); }, 3);
  report.convert_dpt_to_csv_ms = time_best_ms(
      [&] { write_trace_file(csv_out, read_trace_dpt(dpt_path)); }, 3);

  const RequestSequence mapped = read_trace_dpt(dpt_path);
  report.map_borrows = mapped.borrows_storage();
  report.roundtrip_identical = same_sequence(seq, mapped);

  std::remove(csv_path.c_str());
  std::remove(csv_out.c_str());
  std::remove(dpt_path.c_str());
  return report;
}

/// 100M-request end to end, staged so only one trace-sized object is alive
/// at a time: generate -> CSV write -> (free) -> CSV parse + `.dpt` write
/// (= convert) -> (free) -> mmap open -> dp_greedy solve on the borrowed
/// sequence.  Same workload shape as the 1M run, scaled 100x.
struct HundredMillionReport {
  std::size_t requests = 0;
  std::size_t items = 0;
  std::size_t csv_bytes = 0;
  std::size_t dpt_bytes = 0;
  double generate_s = 0.0;
  double csv_write_s = 0.0;
  double convert_s = 0.0;
  double open_ms = 0.0;  // mmap open, every column hashed and checked
  double solve_s = 0.0;
  Cost total_cost = 0.0;
  bool map_borrows = false;
};

HundredMillionReport run_hundred_million() {
  UniformTraceConfig config;
  config.server_count = 50;
  config.item_count = 20000000;
  config.request_count = 100000000;
  config.mean_gap = 0.05;

  HundredMillionReport report;
  report.requests = config.request_count;
  report.items = config.item_count;

  const std::string csv_path = "/tmp/dpg_bm_trace_100m.csv";
  const std::string dpt_path = "/tmp/dpg_bm_trace_100m.dpt";

  {
    Rng rng(77);
    Stopwatch watch;
    const RequestSequence seq = generate_uniform_trace(config, rng);
    report.generate_s = watch.elapsed_seconds();
    watch = Stopwatch();
    write_trace_file(csv_path, seq);
    report.csv_write_s = watch.elapsed_seconds();
  }
  report.csv_bytes = file_bytes(csv_path);

  {
    Stopwatch watch;
    const RequestSequence parsed = read_trace_file(csv_path);
    write_trace_dpt(dpt_path, parsed);
    report.convert_s = watch.elapsed_seconds();
  }
  std::remove(csv_path.c_str());
  report.dpt_bytes = file_bytes(dpt_path);

  Stopwatch watch;
  const RequestSequence mapped = read_trace_dpt(dpt_path);
  report.open_ms = watch.elapsed_seconds() * 1e3;
  report.map_borrows = mapped.borrows_storage();

  SolverConfig solver_config;
  solver_config.keep_schedules = false;
  watch = Stopwatch();
  const RunReport run = builtin_registry().run(
      "dp_greedy", mapped, CostModel{1.0, 2.0, 0.8}, solver_config);
  report.solve_s = watch.elapsed_seconds();
  report.total_cost = run.total_cost;
  std::remove(dpt_path.c_str());
  return report;
}

int run(const std::string& fragment_path, bool with_hundred_million) {
  std::printf("csv parse (legacy vs streaming) ...\n");
  const ParseReport parse = run_parse(200000);
  std::printf("csr build allocations ...\n");
  const BuildReport build_n = run_build(100000);
  const BuildReport build_2n = run_build(200000);
  std::printf("file write/read ...\n");
  const FileReport file = run_file(200000);
  std::printf("million-request end to end ...\n");
  const MillionReport million = run_million();
  std::printf("binary .dpt format ...\n");
  const BinaryIoReport binary = run_binary_io();

  std::ostringstream section;
  section.setf(std::ios::fixed);
  section.precision(3);
  section << "{\"repetitions\": "
          << kRepetitions << ", \"csv_parse\": {\"requests\": "
          << parse.requests << ", \"bytes\": " << parse.bytes
          << ", \"legacy_ms\": " << parse.legacy_ms
          << ", \"streaming_ms\": " << parse.streaming_ms
          << ", \"legacy_mib_s\": " << parse.legacy_mib_s
          << ", \"streaming_mib_s\": " << parse.streaming_mib_s
          << ", \"speedup\": " << parse.legacy_ms / parse.streaming_ms
          << ", \"legacy_allocs\": " << parse.legacy_allocs
          << ", \"streaming_allocs\": " << parse.streaming_allocs
          << ", \"sequences_identical\": "
          << (parse.sequences_identical ? "true" : "false")
          << "}, \"csr_build\": [{\"requests\": " << build_n.requests
          << ", \"reserve_allocs\": " << build_n.reserve_allocs
          << ", \"build_allocs\": " << build_n.build_allocs
          << "}, {\"requests\": " << build_2n.requests
          << ", \"reserve_allocs\": " << build_2n.reserve_allocs
          << ", \"build_allocs\": " << build_2n.build_allocs
          << "}], \"file_io\": {\"requests\": " << file.requests
          << ", \"bytes\": " << file.bytes
          << ", \"write_ms\": " << file.write_ms
          << ", \"read_ms\": " << file.read_ms
          << ", \"write_mib_s\": " << file.write_mib_s
          << ", \"read_mib_s\": " << file.read_mib_s
          << "}, \"million_request_e2e\": {\"requests\": " << million.requests
          << ", \"items\": " << million.items
          << ", \"file_bytes\": " << million.file_bytes
          << ", \"generate_s\": " << million.generate_s
          << ", \"write_s\": " << million.write_s
          << ", \"read_s\": " << million.read_s
          << ", \"dp_greedy_solve_s\": " << million.solve_s
          << ", \"dp_greedy_solve_threads8_s\": " << million.solve_threads8_s
          << ", \"cores\": " << million.cores
          << ", \"threads8_identical\": "
          << (million.threads_identical ? "true" : "false")
          << ", \"total_cost\": " << million.total_cost
          << ", \"roundtrip_identical\": "
          << (million.roundtrip_identical ? "true" : "false")
          << "}, \"peak_rss_bytes\": " << harness::peak_rss_bytes() << "}";

  std::ostringstream binary_section;
  binary_section.setf(std::ios::fixed);
  binary_section.precision(3);
  binary_section
      << "{\"repetitions\": "
      << kRepetitions << ", \"requests\": " << binary.requests
      << ", \"csv_bytes\": " << binary.csv_bytes
      << ", \"dpt_bytes\": " << binary.dpt_bytes
      << ", \"csv_write_ms\": " << binary.csv_write_ms
      << ", \"dpt_write_ms\": " << binary.dpt_write_ms
      << ", \"open_map_ms\": " << binary.open_map_ms
      << ", \"csv_parse_ms\": " << binary.csv_parse_ms
      << ", \"map_vs_csv_speedup\": "
      << binary.csv_parse_ms / binary.open_map_ms
      << ", \"convert_csv_to_dpt_ms\": " << binary.convert_csv_to_dpt_ms
      << ", \"convert_dpt_to_csv_ms\": " << binary.convert_dpt_to_csv_ms
      << ", \"convert_csv_to_dpt_mib_s\": "
      << static_cast<double>(binary.csv_bytes) / (1024.0 * 1024.0) /
             (binary.convert_csv_to_dpt_ms / 1e3)
      << ", \"convert_dpt_to_csv_mib_s\": "
      << static_cast<double>(binary.dpt_bytes) / (1024.0 * 1024.0) /
             (binary.convert_dpt_to_csv_ms / 1e3)
      << ", \"map_borrows\": " << (binary.map_borrows ? "true" : "false")
      << ", \"roundtrip_identical\": "
      << (binary.roundtrip_identical ? "true" : "false") << "}";

  bench::FragmentSections sections = {{"trace_io", section.str()},
                                      {"binary_io", binary_section.str()}};
  if (with_hundred_million) {
    std::printf("100M-request end to end (this takes minutes) ...\n");
    const HundredMillionReport hundred = run_hundred_million();
    std::ostringstream hundred_section;
    hundred_section.setf(std::ios::fixed);
    hundred_section.precision(3);
    hundred_section
        << "{\"requests\": " << hundred.requests
        << ", \"items\": " << hundred.items
        << ", \"csv_bytes\": " << hundred.csv_bytes
        << ", \"dpt_bytes\": " << hundred.dpt_bytes
        << ", \"generate_s\": " << hundred.generate_s
        << ", \"csv_write_s\": " << hundred.csv_write_s
        << ", \"convert_s\": " << hundred.convert_s
        << ", \"open_map_ms\": " << hundred.open_ms
        << ", \"dp_greedy_solve_s\": " << hundred.solve_s
        << ", \"total_cost\": " << hundred.total_cost
        << ", \"map_borrows\": " << (hundred.map_borrows ? "true" : "false")
        << ", \"peak_rss_bytes\": " << harness::peak_rss_bytes() << "}";
    sections.emplace_back("hundred_million_e2e", hundred_section.str());
    std::printf(
        "100M e2e: generate %.1fs  csv write %.1fs (%.1f GiB)  convert %.1fs "
        "(%.1f GiB .dpt)  mmap open %.2f ms  dp_greedy "
        "%.1fs  cost %.2f  %s\n",
        hundred.generate_s, hundred.csv_write_s,
        static_cast<double>(hundred.csv_bytes) / (1024.0 * 1024.0 * 1024.0),
        hundred.convert_s,
        static_cast<double>(hundred.dpt_bytes) / (1024.0 * 1024.0 * 1024.0),
        hundred.open_ms, hundred.solve_s,
        hundred.total_cost, hundred.map_borrows ? "borrowed" : "OWNED?");
  }
  const int status = bench::write_fragment(fragment_path, sections);
  if (status == 0) std::printf("wrote %s\n", fragment_path.c_str());

  std::printf(
      "parse %zu rows (%.1f MiB): legacy %.2f ms (%.0f MiB/s, %llu allocs)  "
      "streaming %.2f ms (%.0f MiB/s, %llu allocs)  speedup %.2fx  %s\n",
      parse.requests, static_cast<double>(parse.bytes) / (1024.0 * 1024.0),
      parse.legacy_ms, parse.legacy_mib_s,
      static_cast<unsigned long long>(parse.legacy_allocs), parse.streaming_ms,
      parse.streaming_mib_s,
      static_cast<unsigned long long>(parse.streaming_allocs),
      parse.legacy_ms / parse.streaming_ms,
      parse.sequences_identical ? "identical" : "DIFFERS");
  std::printf(
      "csr build: n=%zu -> %llu allocs after reserve, n=%zu -> %llu "
      "(constant, not per-request)\n",
      build_n.requests, static_cast<unsigned long long>(build_n.build_allocs),
      build_2n.requests,
      static_cast<unsigned long long>(build_2n.build_allocs));
  std::printf(
      "file io %zu rows: write %.2f ms (%.0f MiB/s)  read %.2f ms "
      "(%.0f MiB/s)\n",
      file.requests, file.write_ms, file.write_mib_s, file.read_ms,
      file.read_mib_s);
  std::printf(
      "1M e2e: generate %.2fs  write %.2fs (%.1f MiB)  read %.2fs  "
      "dp_greedy %.2fs  cost %.2f  roundtrip %s\n",
      million.generate_s, million.write_s,
      static_cast<double>(million.file_bytes) / (1024.0 * 1024.0),
      million.read_s, million.solve_s, million.total_cost,
      million.roundtrip_identical ? "identical" : "DIFFERS");
  std::printf(
      "1M e2e threads=8: dp_greedy %.2fs (serial %.2fs, %.2fx, %zu cores)  "
      "report %s\n",
      million.solve_threads8_s, million.solve_s,
      million.solve_threads8_s > 0.0
          ? million.solve_s / million.solve_threads8_s
          : 0.0,
      million.cores, million.threads_identical ? "identical" : "DIFFERS");

  std::printf(
      "binary io 1M rows: dpt write %.2f ms (%.1f MiB vs %.1f MiB csv)  "
      "mmap open %.2f ms  csv parse %.2f ms\n",
      binary.dpt_write_ms,
      static_cast<double>(binary.dpt_bytes) / (1024.0 * 1024.0),
      static_cast<double>(binary.csv_bytes) / (1024.0 * 1024.0),
      binary.open_map_ms, binary.csv_parse_ms);
  std::printf(
      "binary io convert: csv->dpt %.2f ms  dpt->csv %.2f ms  %s, %s\n",
      binary.convert_csv_to_dpt_ms, binary.convert_dpt_to_csv_ms,
      binary.map_borrows ? "borrowed" : "OWNED?",
      binary.roundtrip_identical ? "identical" : "DIFFERS");

  // The ≥3x speedup target only means anything with ≥8 hardware threads to
  // shard over; on smaller hosts the gate is bit-identity alone and the
  // recorded cores field says why.
  const bool speedup_ok =
      million.cores < 8 ||
      million.solve_s >= 3.0 * million.solve_threads8_s;
  if (million.cores < 8) {
    std::printf("threads8 speedup gate skipped (%zu cores < 8)\n",
                million.cores);
  }
  const bool pass = parse.sequences_identical && million.roundtrip_identical &&
                    million.threads_identical && speedup_ok &&
                    parse.legacy_ms / parse.streaming_ms >= 5.0 &&
                    build_n.build_allocs == build_2n.build_allocs;
  std::printf("trace_io acceptance: %s\n", pass ? "PASS" : "FAIL");
  // The binary gate: the zero-copy open of a 1M-request trace, every column
  // hashed and checked, stays under 10 ms, borrows the mapping, and is
  // bit-exact against the in-memory source.
  const bool binary_pass = binary.open_map_ms < 10.0 && binary.map_borrows &&
                           binary.roundtrip_identical;
  std::printf("binary_io acceptance (mmap open %.2f ms < 10 ms): %s\n",
              binary.open_map_ms, binary_pass ? "PASS" : "FAIL");
  return status != 0 ? status : (pass && binary_pass ? 0 : 2);
}

}  // namespace
}  // namespace dpg

int main(int argc, char** argv) {
  std::string fragment = "bm_trace.fragment.json";
  bool hundred_million = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--hundred-million") {
      hundred_million = true;
    } else if (arg == "--fragment" && i + 1 < argc) {
      fragment = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bm_trace [--fragment FILE] [--hundred-million]\n");
      return 2;
    }
  }
  return dpg::run(fragment, hundred_million);
}
