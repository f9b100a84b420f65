// Shared pieces of the benchmark program: timing, order statistics, the
// result record printed as the last stdout line, output checks, the span
// recorder of traced runs, and the pip-server child process.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since `t0`.
inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set size (VmHWM) of `pid` in MiB; 0 when unreadable.
double PeakRssMb(pid_t pid);

/// splitmix64: the benchmark's own deterministic generator for inputs.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi);
  /// Uniform integer in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// \brief Output checks of one run.
///
/// Statistical checks compare an estimate with its truth within
/// z * standard error + |bias bound|, where z is chosen after the run so
/// that the family-wise false-alarm rate over every statistical check of
/// the run is about 1e-6 (Bonferroni, two-sided, normal tails). Exact
/// checks use a relative tolerance.
class Checker {
 public:
  void Statistical(const std::string& what, double estimate, double truth,
                   double standard_error, double bias_bound = 0.0);
  void Exact(const std::string& what, double value, double truth,
             double rel_tol = 1e-9, double abs_tol = 1e-12);
  /// Value must lie in [lo, hi] (exact checks whose truth is an interval).
  void Within(const std::string& what, double value, double lo, double hi);
  void True(const std::string& what, bool ok);

  /// Evaluates every recorded check, prints failures to stderr, and
  /// returns whether all passed.
  bool Evaluate() const;

 private:
  struct Stat {
    std::string what;
    double estimate, truth, se, bias;
  };
  mutable std::mutex mu_;
  std::vector<Stat> stats_;
  std::vector<std::string> failures_;
  size_t others_ = 0;
};

/// \brief Spans of a traced run: kept in memory, written out at the end.
///
/// A span names a layer boundary the benchmark called into; spans of one
/// operation share `op`, and `parent` links a span to the span that
/// caused it (0 = none).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Records a finished span; returns its id (0 when disabled).
  uint64_t Record(const std::string& name, uint64_t op, uint64_t parent,
                  Clock::time_point start, Clock::time_point end);
  /// Writes one JSON object per span to `path`.
  void Write(const std::string& path) const;

 private:
  struct Span {
    uint64_t id, parent, op;
    std::string name;
    double start_s, end_s;
  };
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

/// \brief The result printed as the last line of stdout.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  std::string ToJson() const;
};

/// \brief A pip-server child process on a kernel-chosen loopback port.
///
/// Start() forks and execs the daemon with `--port 0` plus `args`, and
/// reads its "listening on" line for the port. The child is told to die
/// with this process; Stop() sends SIGTERM and reaps it (the destructor
/// calls Stop()).
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Empty string on success, else the failure.
  std::string Start(const std::string& binary,
                    const std::vector<std::string>& args);
  /// Returns the exit status from waitpid (-1 when not running).
  int Stop();
  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
