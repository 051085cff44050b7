#pragma once
/// \file fleet.h
/// \brief The fleet under test: one `ebmf serve` backend and one
/// `ebmf route` front tier, launched as child processes on loopback ports
/// the kernel picks, sized so that fleet plus load generator fit the box.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// One child process whose stdout announces "... listening on HOST:PORT".
class Child {
 public:
  Child() = default;
  ~Child();

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// fork+exec `argv`, wait for the listening line, keep draining stdout.
  /// Throws BenchError when the program exits or stays silent for 20 s.
  void start(const std::vector<std::string>& argv);

  /// SIGTERM, wait for the drain (SIGKILL after 10 s), reap. Idempotent.
  void stop();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread drain_;
};

/// user+sys CPU seconds of a live process (all threads).
double cpu_seconds(pid_t pid);

/// Peak resident set (VmHWM) of a live process, in MiB.
double peak_rss_mb(pid_t pid);

/// Cache counters of both tiers from their `{"op":"stats"}` replies.
struct CacheCounts {
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_lookups = 0;
  std::uint64_t backend_hits = 0;
  std::uint64_t backend_lookups = 0;

  CacheCounts operator-(const CacheCounts& base) const {
    return {l1_hits - base.l1_hits, l1_lookups - base.l1_lookups,
            backend_hits - base.backend_hits,
            backend_lookups - base.backend_lookups};
  }
};

class Fleet {
 public:
  /// Start a backend, then a router in front of it (`l1_mb` = 0 turns the
  /// router's result cache off).
  Fleet(const std::string& ebmf, double l1_mb);
  ~Fleet() { stop(); }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  void stop();

  [[nodiscard]] std::uint16_t router_port() const noexcept {
    return router_.port();
  }
  [[nodiscard]] std::uint16_t backend_port() const noexcept {
    return backend_.port();
  }

  [[nodiscard]] CacheCounts cache_counts() const;
  [[nodiscard]] double cpu_seconds() const;
  [[nodiscard]] double peak_rss_mb() const;

 private:
  Child backend_;
  Child router_;
};

}  // namespace perfbench
