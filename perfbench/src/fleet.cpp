#include "fleet.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common.h"
#include "io/json.h"
#include "wire.h"

namespace perfbench {

namespace {

/// Reap `pid`, waiting at most `seconds`; true when it has exited.
bool wait_exit(pid_t pid, double seconds) {
  const std::int64_t start = now_ns();
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return true;
    if (seconds_since(start) > seconds) return false;
    ::usleep(5000);
  }
}

}  // namespace

Child::~Child() { stop(); }

void Child::start(const std::vector<std::string>& argv) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0)
    throw BenchError(std::string("pipe: ") + std::strerror(errno));
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw BenchError(std::string("fork: ") + std::strerror(errno));
  if (pid_ == 0) {
    // Die with the benchmark, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  out_fd_ = pipe_fds[0];

  // Read until the listening line names the bound port.
  std::string seen;
  const std::int64_t start = now_ns();
  while (port_ == 0) {
    const double left = 20.0 - seconds_since(start);
    pollfd p{out_fd_, POLLIN, 0};
    if (left <= 0 || ::poll(&p, 1, static_cast<int>(left * 1000) + 1) <= 0)
      throw BenchError(argv[0] + " did not report a port: " + seen);
    char chunk[4096];
    const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
    if (n <= 0) throw BenchError(argv[0] + " exited at start: " + seen);
    seen.append(chunk, static_cast<std::size_t>(n));
    const std::size_t at = seen.find("listening on ");
    const std::size_t eol =
        at == std::string::npos ? at : seen.find_first_of(" \n", at + 13);
    if (eol == std::string::npos) continue;
    const std::string endpoint = seen.substr(at + 13, eol - at - 13);
    const std::size_t colon = endpoint.rfind(':');
    if (colon != std::string::npos)
      port_ = static_cast<std::uint16_t>(
          std::strtoul(endpoint.c_str() + colon + 1, nullptr, 10));
  }
  // Keep the pipe drained so a chatty child never blocks on stdout.
  drain_ = std::thread([fd = out_fd_] {
    char sink[4096];
    while (::read(fd, sink, sizeof sink) > 0) {
    }
  });
}

void Child::stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    if (!wait_exit(pid_, 10.0)) {
      ::kill(pid_, SIGKILL);
      wait_exit(pid_, 10.0);
    }
    pid_ = -1;
  }
  if (drain_.joinable()) drain_.join();  // EOF once the child is gone
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

double cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), {});
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) throw BenchError("no /proc stat");
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i)
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  throw BenchError("no VmHWM for pid " + std::to_string(pid));
}

Fleet::Fleet(const std::string& ebmf, double l1_mb) {
  // Sized for a four-core box: with two requests in flight, at most two
  // handler threads plus the event loops and the one load-generator thread
  // have work at any moment.
  backend_.start({ebmf, "serve", "--port=0", "--cache-mb=16", "--budget=30",
                  "--threads=1", "--io-threads=1", "--io-workers=2"});
  char l1[32];
  std::snprintf(l1, sizeof l1, "--l1-mb=%g", l1_mb);
  router_.start({ebmf, "route",
                 "127.0.0.1:" + std::to_string(backend_.port()), "--listen=0",
                 l1, "--io-threads=1", "--io-workers=2"});
}

void Fleet::stop() {
  router_.stop();
  backend_.stop();
}

CacheCounts Fleet::cache_counts() const {
  using ebmf::io::json::Value;
  const auto number = [](const Value& doc, const char* tier, const char* key) {
    const Value* t = doc.find(tier);
    const Value* v = t != nullptr ? t->find(key) : nullptr;
    return v != nullptr && v->is_number()
               ? static_cast<std::uint64_t>(v->as_number())
               : std::uint64_t{0};
  };
  const Value router = Value::parse(stats_line(router_.port()));
  const Value backend = Value::parse(stats_line(backend_.port()));
  CacheCounts c;
  c.l1_hits = number(router, "l1", "hits");
  c.l1_lookups = c.l1_hits + number(router, "l1", "misses");
  c.backend_hits = number(backend, "cache", "hits");
  c.backend_lookups = c.backend_hits + number(backend, "cache", "misses");
  return c;
}

double Fleet::cpu_seconds() const {
  return perfbench::cpu_seconds(backend_.pid()) +
         perfbench::cpu_seconds(router_.pid());
}

double Fleet::peak_rss_mb() const {
  return perfbench::peak_rss_mb(backend_.pid()) +
         perfbench::peak_rss_mb(router_.pid());
}

}  // namespace perfbench
