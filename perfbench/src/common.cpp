#include "common.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

namespace perfbench {

using wflog::server::ClientOptions;
using wflog::server::HttpClient;
using wflog::server::JsonValue;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void Report::phase(const std::string& name, std::uint64_t sent,
                   std::uint64_t failed_ops) {
  attempted += sent;
  failed += failed_ops;
  std::cerr << "phase " << name << ": sent " << sent << ", succeeded "
            << sent - failed_ops << ", failed " << failed_ops << "\n";
}

void Report::mismatch(const std::string& what) {
  correct = false;
  std::cerr << "MISMATCH: " << what << "\n";
}

// ---- spans -----------------------------------------------------------------

std::int64_t Spans::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0_)
      .count();
}

int Spans::open(std::string name, int parent, std::string request) {
  if (!on_) return -1;
  const std::int64_t t = now_ns();
  std::lock_guard lock(mu_);
  spans_.push_back({std::move(name), std::move(request), parent, t, -1});
  return static_cast<int>(spans_.size() - 1);
}

void Spans::close(int id) {
  if (id < 0) return;
  const std::int64_t t = now_ns();
  std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

double Spans::us(int id) const {
  if (id < 0) return 0;
  std::lock_guard lock(mu_);
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
}

std::vector<double> Spans::durations(const std::string& name) const {
  std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
    }
  }
  return out;
}

std::vector<double> Spans::self_times(const std::string& name) const {
  std::lock_guard lock(mu_);
  std::map<int, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      children[s.parent].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name || s.end_ns < 0) continue;
    auto kids = children[static_cast<int>(i)];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = -1;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns - covered) /
                  1000.0);
  }
  return out;
}

void Spans::write(const fs::path& path) const {
  if (!on_) return;
  std::lock_guard lock(mu_);
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonValue v{wflog::server::JsonMembers{}};
    v.set("id", i);
    v.set("name", s.name);
    v.set("parent", s.parent);
    v.set("request", s.request);
    v.set("start_ns", s.start_ns);
    v.set("end_ns", s.end_ns);
    out << v.dump() << "\n";
  }
}

// ---- daemon ----------------------------------------------------------------

Daemon::~Daemon() { stop(); }

double Daemon::start(const fs::path& binary,
                     const std::vector<std::string>& args) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::vector<std::string> argv_s{binary.string()};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  argv_s.push_back("--port");
  argv_s.push_back("0");
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  const auto t0 = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(fds[1]);
  pid_ = pid;
  out_fd_ = fds[0];

  std::string buf;
  const auto deadline = t0 + std::chrono::seconds(60);
  while (Clock::now() < deadline) {
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, 100) > 0) {
      char chunk[512];
      const ssize_t n = read(out_fd_, chunk, sizeof chunk);
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
      const std::size_t at = buf.find("listening on ");
      if (at != std::string::npos &&
          buf.find('\n', at) != std::string::npos) {
        const double setup = seconds_since(t0);
        port_ = static_cast<std::uint16_t>(
            std::stoi(buf.substr(at + std::string("listening on ").size())));
        return setup;
      }
    }
  }
  stop();
  throw std::runtime_error("wfqd did not start: " + buf);
}

bool Daemon::stop() {
  if (pid_ < 0) return true;
  kill(pid_, SIGTERM);
  int status = 0;
  bool exited = false;
  for (int i = 0; i < 200 && !exited; ++i) {
    exited = waitpid(pid_, &status, WNOHANG) == pid_;
    if (!exited) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (!exited) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  if (out_fd_ >= 0) close(out_fd_);
  out_fd_ = -1;
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double Daemon::rss_bytes() const { return rss_bytes_of(std::to_string(pid_)); }

double rss_bytes_of(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0;  // kB
    }
  }
  return 0;
}

ClientOptions no_retry_client() {
  ClientOptions o;
  o.timeout_ms = 10000;
  o.backoff.max_retries = 0;
  return o;
}

JsonValue get_json(HttpClient& c, const std::string& target) {
  const auto r = c.get(target);
  if (r.status != 200) {
    throw std::runtime_error("GET " + target + " -> " +
                             std::to_string(r.status));
  }
  return wflog::server::parse_json(r.body);
}

double cache_hit_ratio(const JsonValue& before, const JsonValue& after) {
  const auto delta = [&](const char* k) {
    return static_cast<double>(after.find("cache")->find(k)->as_int() -
                               before.find("cache")->find(k)->as_int());
  };
  const double lookups = delta("hits") + delta("misses");
  return lookups > 0 ? delta("hits") / lookups : 0;
}

// ---- open loop --------------------------------------------------------------

std::vector<OpSample> open_loop(
    double rate, double seconds, unsigned conns, std::uint16_t port,
    const std::function<bool(std::size_t, HttpClient&, unsigned)>& send,
    const std::function<void(unsigned, HttpClient&)>& between) {
  const auto n = static_cast<std::size_t>(rate * seconds);
  std::vector<OpSample> out(n);
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto due = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) /
                                                  rate));
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      HttpClient client("127.0.0.1", port, no_retry_client());
      for (std::size_t i = next++; i < n; i = next++) {
        const auto d = due(i);
        std::this_thread::sleep_until(d);
        const auto sent = Clock::now();
        bool ok = false;
        try {
          ok = send(i, client, c);
        } catch (const std::exception& e) {
          std::cerr << "request " << i << " failed: " << e.what() << "\n";
          client.disconnect();
        }
        const auto done = Clock::now();
        out[i] = {ms_between(d, done), ms_between(d, sent),
                  ms_between(sent, done) * 1000.0, ok};
        if (between) between(c, client);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

std::vector<double> latencies(const std::vector<OpSample>& s) {
  std::vector<double> v;
  v.reserve(s.size());
  for (const OpSample& o : s) v.push_back(o.latency_ms);
  return v;
}

std::vector<double> lateness(const std::vector<OpSample>& s) {
  std::vector<double> v;
  v.reserve(s.size());
  for (const OpSample& o : s) v.push_back(o.late_ms);
  return v;
}

std::uint64_t failures(const std::vector<OpSample>& s) {
  std::uint64_t f = 0;
  for (const OpSample& o : s) f += o.ok ? 0 : 1;
  return f;
}

// ---- /debug/requests --------------------------------------------------------

void RequestLog::poll(HttpClient& c) {
  const JsonValue v = get_json(c, "/debug/requests");
  std::lock_guard lock(mu_);
  for (const JsonValue& r : v.find("requests")->as_array()) {
    records_[r.find("seq")->as_int()] = r;
  }
}

std::vector<double> RequestLog::field(const std::string& path,
                                      const std::string& name) const {
  std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const auto& [seq, r] : records_) {
    const JsonValue* target = r.find("path");
    const JsonValue* status = r.find("status");
    if (target == nullptr || target->as_string().rfind(path, 0) != 0 ||
        status == nullptr || status->as_int() != 200) {
      continue;
    }
    if (const JsonValue* f = r.find("breakdown")->find(name)) {
      out.push_back(f->as_double());
    }
  }
  return out;
}

std::map<std::string, double> RequestLog::wall_by_id() const {
  std::lock_guard lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [seq, r] : records_) {
    out[r.find("id")->as_string()] =
        r.find("breakdown")->find("wall_us")->as_double();
  }
  return out;
}

// ---- files -------------------------------------------------------------------

std::uintmax_t dir_bytes(const fs::path& dir) {
  std::uintmax_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

void copy_dir(const fs::path& from, const fs::path& to) {
  fs::remove_all(to);
  fs::create_directories(to.parent_path());
  fs::copy(from, to, fs::copy_options::recursive);
}

}  // namespace perfbench
