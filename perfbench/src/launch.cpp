#include "launch.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {
namespace {

// The spawn-child helper reports on this descriptor.
constexpr int kReportFd = 3;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  [[nodiscard]] int get() const noexcept { return fd_; }
  void reset() noexcept {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

/// Kills the child's process group and reaps it unless reap() already
/// collected the child, so no error path leaves a process behind.  The
/// grandchild (the spawn-child helper's `dpgreedy`) is in the same group
/// and, with the harness as child subreaper, is reparented here and reaped.
class Child {
 public:
  Child() = default;
  ~Child() {
    if (pid_ <= 0) return;
    ::kill(-pid_, SIGKILL);
    int status = 0;
    while (::waitpid(-pid_, &status, 0) > 0 || errno == EINTR) {
    }
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t* out() noexcept { return &pid_; }

  void reap() {
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0) {
      if (errno != EINTR) fail("waitpid");
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

/// Restores the calling thread's CPU set when it goes out of scope.
class AffinityGuard {
 public:
  AffinityGuard() { ::sched_getaffinity(0, sizeof saved_, &saved_); }
  ~AffinityGuard() { ::sched_setaffinity(0, sizeof saved_, &saved_); }
  AffinityGuard(const AffinityGuard&) = delete;
  AffinityGuard& operator=(const AffinityGuard&) = delete;

  [[nodiscard]] const cpu_set_t& saved() const noexcept { return saved_; }

 private:
  cpu_set_t saved_{};
};

void sleep_until(Clock::time_point at) {
  // libstdc++'s steady_clock is CLOCK_MONOTONIC, so its epoch offsets map
  // directly onto an absolute clock_nanosleep deadline.
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      at.time_since_epoch())
                      .count();
  timespec deadline{};
  deadline.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
  deadline.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &deadline,
                           nullptr) == EINTR) {
  }
}

/// Writes all of [data, data+size); false when the child closed its stdin.
bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE) return false;
      fail("write to child stdin");
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

void read_lines(int fd, std::vector<Line>& lines) {
  std::string partial;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof buffer);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    const Clock::time_point at = Clock::now();
    const char* begin = buffer;
    const char* end = buffer + n;
    while (begin < end) {
      const char* newline = std::find(begin, end, '\n');
      partial.append(begin, newline);
      if (newline == end) break;
      lines.push_back(Line{at, std::move(partial)});
      partial.clear();
      begin = newline + 1;
    }
  }
  if (!partial.empty()) lines.push_back(Line{Clock::now(), std::move(partial)});
}

bool feed_flood(int fd, const LaunchSpec& spec, LaunchResult& result) {
  const std::span<const std::size_t> offsets = spec.row_offsets;
  const std::size_t rows = offsets.size() - 1;
  result.first_byte = Clock::now();
  for (std::size_t row = 0; row < rows; row += spec.batch_rows) {
    // The first batch carries the header line too.
    const std::size_t from = row == 0 ? 0 : offsets[row];
    const std::size_t to = offsets[std::min(rows, row + spec.batch_rows)];
    if (!write_all(fd, spec.csv.data() + from, to - from)) return false;
  }
  result.last_byte = Clock::now();
  return true;
}

bool feed_paced(int fd, const LaunchSpec& spec, LaunchResult& result) {
  // Sleep precisely: the default 50 µs timer slack would dominate the
  // feeder's own lateness at 200k rows/s.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  const std::span<const std::size_t> offsets = spec.row_offsets;
  const std::size_t rows = offsets.size() - 1;
  const double ns_per_row = 1e9 / spec.rate_rps;
  const Clock::time_point t0 = result.t0;
  const auto due = [&](std::size_t row) {
    return t0 + std::chrono::nanoseconds(
                    std::llround(static_cast<double>(row) * ns_per_row));
  };
  sleep_until(t0);
  result.first_byte = Clock::now();
  Clock::duration lag_max{};
  std::size_t sent = 0;
  while (sent < rows) {
    const Clock::time_point now = Clock::now();
    const double elapsed_rows =
        static_cast<double>((now - t0).count()) / ns_per_row;
    const std::size_t due_rows =
        std::min(rows, static_cast<std::size_t>(elapsed_rows) + 1);
    if (due_rows > sent) {
      // Row 0's write carries the header line too.
      const std::size_t from = sent == 0 ? 0 : offsets[sent];
      if (!write_all(fd, spec.csv.data() + from, offsets[due_rows] - from))
        return false;
      lag_max = std::max(lag_max, Clock::now() - due(sent));
      sent = due_rows;
    }
    if (sent < rows) sleep_until(std::max(due(sent), now + spec.tick));
  }
  result.last_byte = Clock::now();
  result.feed_lag_max_s = std::chrono::duration<double>(lag_max).count();
  return true;
}

}  // namespace

bool LaunchResult::exited_ok() const noexcept {
  return WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0;
}

LaunchResult launch(const LaunchSpec& spec) {
  // A child that exits early must not kill the harness mid-write, and a
  // grandchild orphaned on an error path must be reparented here to reap.
  ::signal(SIGPIPE, SIG_IGN);
  ::prctl(PR_SET_CHILD_SUBREAPER, 1UL, 0UL, 0UL, 0UL);

  int in_pipe[2] = {-1, -1};
  if (spec.feed == Feed::kNone) {
    in_pipe[0] = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (in_pipe[0] < 0) fail("open /dev/null");
  } else if (::pipe2(in_pipe, O_CLOEXEC) != 0) {
    fail("pipe2");
  }
  Fd in_read(in_pipe[0]);
  Fd in_write(in_pipe[1]);
  int out_pipe[2] = {-1, -1};
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) fail("pipe2");
  Fd out_read(out_pipe[0]);
  Fd out_write(out_pipe[1]);
  int report_pipe[2] = {-1, -1};
  if (::pipe2(report_pipe, O_CLOEXEC) != 0) fail("pipe2");
  Fd report_read(report_pipe[0]);
  Fd report_write(report_pipe[1]);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_read.get(), 0);
  posix_spawn_file_actions_adddup2(&actions, out_write.get(), 1);
  posix_spawn_file_actions_addopen(&actions, 2, spec.stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, report_write.get(), kReportFd);
  posix_spawnattr_t attr;
  posix_spawnattr_init(&attr);
  posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
  posix_spawnattr_setpgroup(&attr, 0);
  std::vector<std::string> args = {"/proc/self/exe", "spawn-child"};
  args.insert(args.end(), spec.argv.begin(), spec.argv.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  LaunchResult result;
  const AffinityGuard affinity;
  // Declared before the child, so on an error path the child is killed
  // (closing its stdout) before the reader thread is joined.
  std::jthread reader;
  Child child;
  if (spec.cpu >= 0) {
    // The spawned helper and its child inherit this thread's CPU set.
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(static_cast<std::size_t>(spec.cpu), &one);
    ::sched_setaffinity(0, sizeof one, &one);
  }
  result.t0 = Clock::now() + spec.lead;
  const int spawn_error = ::posix_spawn(child.out(), argv[0], &actions, &attr,
                                        argv.data(), environ);
  if (spec.cpu >= 0) {
    // The feeder (this thread) and the reader keep off the child's CPU, so
    // a pipe wake-up never runs them there in the child's stead.
    cpu_set_t others = affinity.saved();
    CPU_CLR(static_cast<std::size_t>(spec.cpu), &others);
    ::sched_setaffinity(0, sizeof others,
                        CPU_COUNT(&others) > 0 ? &others : &affinity.saved());
  }
  posix_spawn_file_actions_destroy(&actions);
  posix_spawnattr_destroy(&attr);
  if (spawn_error != 0) {
    errno = spawn_error;
    fail("posix_spawn " + spec.argv[0]);
  }
  in_read.reset();
  out_write.reset();
  report_write.reset();
  if (spec.feed == Feed::kFlood) {
    // About 35k rows of slack: a feeder preempted for a few ms (a shared host's
    // hypervisor steals CPU in bursts) does not leave serve waiting, so the
    // flood measures serve rather than the feeder's luck.  Best effort.
    (void)::fcntl(in_write.get(), F_SETPIPE_SZ, 1 << 20);
  }
  reader = std::jthread([&result, fd = out_read.get()] {
    read_lines(fd, result.lines);
  });

  switch (spec.feed) {
    case Feed::kNone:
      result.feed_complete = true;
      break;
    case Feed::kFlood:
      result.feed_complete = feed_flood(in_write.get(), spec, result);
      break;
    case Feed::kPaced:
      result.feed_complete = feed_paced(in_write.get(), spec, result);
      break;
  }
  in_write.reset();
  child.reap();
  reader.join();

  char report[256] = {};
  const ssize_t n = ::read(report_read.get(), report, sizeof report - 1);
  long long launched_ns = 0;
  long long exited_ns = 0;
  long long cpu_us = 0;
  long max_rss_kib = 0;
  if (n <= 0 || std::sscanf(report, "%lld %lld %lld %ld %d", &launched_ns,
                            &exited_ns, &cpu_us, &max_rss_kib,
                            &result.wait_status) != 5)
    throw std::runtime_error("spawn-child helper sent no report");
  result.launched = Clock::time_point(std::chrono::nanoseconds(launched_ns));
  result.exited = Clock::time_point(std::chrono::nanoseconds(exited_ns));
  result.cpu_s = static_cast<double>(cpu_us) * 1e-6;
  result.max_rss_mib = static_cast<double>(max_rss_kib) / 1024.0;
  return result;
}

int spawn_child(char** argv) {
  ::fcntl(kReportFd, F_SETFD, FD_CLOEXEC);
  const auto ns = [](Clock::time_point at) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(at.time_since_epoch())
            .count());
  };
  pid_t pid = -1;
  const Clock::time_point launched = Clock::now();
  const int spawn_error =
      ::posix_spawn(&pid, argv[0], nullptr, nullptr, argv, environ);
  // Only the program holds the pipes now: the harness sees EOF at its exit.
  ::close(0);
  ::close(1);
  int status = 127 << 8;  // as a shell reports a program it cannot run
  rusage usage{};
  if (spawn_error == 0) {
    while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
    }
  }
  const Clock::time_point exited = Clock::now();
  const auto us = [](const timeval& tv) {
    return static_cast<long long>(tv.tv_sec) * 1'000'000 + tv.tv_usec;
  };
  ::dprintf(kReportFd, "%lld %lld %lld %ld %d\n", ns(launched), ns(exited),
            us(usage.ru_utime) + us(usage.ru_stime), usage.ru_maxrss, status);
  return spawn_error == 0 ? 0 : 127;
}

}  // namespace perfbench
