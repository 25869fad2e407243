// Launching one timed `dpgreedy` child: spawn it with piped stdin/stdout,
// feed it a CSV trace (closed loop or on an open-loop schedule), stamp every
// stdout line with its arrival time, and reap it with wait4 for ru_maxrss.
//
// The child is started through a small helper (this binary's `spawn-child`
// mode), which spawns `dpgreedy`, times launch to exit and reports its
// CPU time and ru_maxrss.  Linux charges a vfork child the high-water RSS of the process
// it was spawned from, so spawning straight from the harness, which holds the
// whole input in memory, would report the harness's memory instead.
//
// The feeder runs on the calling thread and the stdout reader on one helper
// thread, so a launch uses two harness threads at most.
#pragma once

#include <chrono>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

enum class Feed {
  kNone,   // stdin is /dev/null (the command reads a file)
  kFlood,  // closed loop: each batch of rows is written once the last is in
  kPaced,  // open loop: row i is due at t0 + i / rate
};

struct LaunchSpec {
  std::vector<std::string> argv;  // argv[0] is the program path
  Feed feed = Feed::kNone;
  /// The whole CSV text (header included) for kFlood / kPaced.
  std::string_view csv;
  /// Byte offset of every data row in `csv`, plus the end offset.
  std::span<const std::size_t> row_offsets;
  std::size_t batch_rows = 0;     // kFlood: rows per write
  double rate_rps = 0.0;       // kPaced
  Clock::duration lead{};      // kPaced: t0 = launch + lead
  Clock::duration tick{};      // kPaced: the feeder wakes at most this often
  std::string stderr_path;     // child's stderr goes here
  int cpu = -1;                // pin the child to this CPU (-1: anywhere)
};

struct Line {
  Clock::time_point at;  // when the harness read it
  std::string text;
};

struct LaunchResult {
  Clock::time_point launched;    // dpgreedy spawned (by the helper)
  Clock::time_point first_byte;  // first stdin write began (kFlood/kPaced)
  Clock::time_point last_byte;   // last stdin write returned
  Clock::time_point exited;      // the helper's wait4 returned
  Clock::time_point t0;          // kPaced: due time of row 0 (spawn + lead)
  std::vector<Line> lines;       // every stdout line, in order
  int wait_status = 0;
  double cpu_s = 0.0;            // the child's user + system CPU time
  double max_rss_mib = 0.0;
  double feed_lag_max_s = 0.0;   // kPaced: latest a row was written, vs due
  bool feed_complete = false;    // every byte was written
  [[nodiscard]] bool exited_ok() const noexcept;
};

/// Runs one child to completion.  Throws std::runtime_error when the child
/// cannot be started; a child that fails is reported through wait_status.
[[nodiscard]] LaunchResult launch(const LaunchSpec& spec);

/// The `spawn-child` helper: runs argv (null-terminated, argv[0] the
/// program) on the inherited stdin/stdout/stderr, waits for it and writes
/// `launch_ns exit_ns cpu_us ru_maxrss_kib wait_status` to descriptor 3.
int spawn_child(char** argv);

}  // namespace perfbench
