#include "harness.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t InputRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double InputRng::Uniform(double lo, double hi) {
  double u = static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  return lo + (hi - lo) * u;
}

namespace {

/// z with P(|N(0,1)| > z) = alpha (alpha in (0, 1)).
double TwoSidedZ(double alpha) {
  double lo = 0.0, hi = 40.0;
  for (int i = 0; i < 200; ++i) {
    double mid = 0.5 * (lo + hi);
    if (std::erfc(mid / std::sqrt(2.0)) > alpha) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

void Checker::Statistical(const std::string& what, double estimate,
                          double truth, double standard_error,
                          double bias_bound) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.push_back({what, estimate, truth, standard_error, bias_bound});
}

void Checker::Exact(const std::string& what, double value, double truth,
                    double rel_tol, double abs_tol) {
  double tol = std::max(abs_tol, rel_tol * std::fabs(truth));
  bool ok = std::isfinite(value) && std::fabs(value - truth) <= tol;
  std::lock_guard<std::mutex> lock(mu_);
  ++others_;
  if (!ok) {
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s: got %.17g, want %.17g (tol %.3g)",
                  what.c_str(), value, truth, tol);
    failures_.push_back(buf);
  }
}

void Checker::Within(const std::string& what, double value, double lo,
                     double hi) {
  bool ok = std::isfinite(value) && value >= lo && value <= hi;
  std::lock_guard<std::mutex> lock(mu_);
  ++others_;
  if (!ok) {
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s: got %.17g, want in [%.17g, %.17g]",
                  what.c_str(), value, lo, hi);
    failures_.push_back(buf);
  }
}

void Checker::True(const std::string& what, bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  ++others_;
  if (!ok) failures_.push_back(what);
}

bool Checker::Evaluate() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> failures = failures_;
  const double z =
      stats_.empty() ? 0.0 : TwoSidedZ(1e-6 / static_cast<double>(stats_.size()));
  for (const Stat& s : stats_) {
    double tol = z * s.se + std::fabs(s.bias);
    if (!std::isfinite(s.estimate) || std::fabs(s.estimate - s.truth) > tol) {
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "%s: got %.10g, want %.10g +- %.3g (z=%.2f, se=%.3g)",
                    s.what.c_str(), s.estimate, s.truth, tol, z, s.se);
      failures.push_back(buf);
    }
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "pipbench: CHECK FAILED: %s\n", f.c_str());
  }
  std::fprintf(stderr, "pipbench: %zu checks (%zu statistical, z=%.2f), %zu failed\n",
               stats_.size() + others_, stats_.size(), z, failures.size());
  return failures.empty();
}

uint64_t Tracer::Record(const std::string& name, uint64_t op, uint64_t parent,
                        Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = spans_.size() + 1;
  spans_.push_back(
      {id, parent, op, name,
       std::chrono::duration<double>(start - origin_).count(),
       std::chrono::duration<double>(end - origin_).count()});
  return id;
}

void Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"name\":\"%s\","
                  "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.op), s.name.c_str(),
                  s.start_s, s.end_s);
    out << buf;
  }
}

std::string Report::ToJson() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string ServerProcess::Start(const std::string& binary,
                                 const std::vector<std::string>& args) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return "pipe failed";
  std::vector<std::string> argv_s = {binary, "--port", "0"};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return "fork failed";
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  pid_ = pid;
  out_fd_ = pipe_fds[0];
  // The daemon prints "pip-server listening on HOST:PORT (protocol PIP1)".
  std::string line;
  char c;
  while (::read(out_fd_, &c, 1) == 1) {
    if (c != '\n') {
      line.push_back(c);
      continue;
    }
    size_t at = line.find("listening on ");
    if (at != std::string::npos) {
      size_t colon = line.find(':', at);
      if (colon != std::string::npos) {
        port_ = static_cast<uint16_t>(std::atoi(line.c_str() + colon + 1));
        if (port_ != 0) return "";
      }
    }
    line.clear();
  }
  Stop();
  return "pip-server did not report a listening port";
}

int ServerProcess::Stop() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  return status;
}

}  // namespace perfbench
