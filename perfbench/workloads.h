// The three workloads and the per-layer measurements of traced runs.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "src/engine/database.h"
#include "src/sql/session.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string server_bin;
  std::string trace_dir;
  Clock::time_point process_start;
};

/// Each fills every end-to-end metric (untraced) or every per-layer
/// metric (traced) of `report`, plus attempted/failed/correct.
void RunPaperQueries(const Args& args, Report* report);
void RunSqlAnalyzeCold(const Args& args, Report* report);
void RunSqlPointMixed(const Args& args, Report* report);

/// Per-operation order statistics shared by every workload.
void SetOpMetrics(const std::vector<double>& latencies_ms, double window_s,
                  Report* report);

// ---------------------------------------------------------------------------
// Layer ladder (ladder.cc): in-process measurements around calls into the
// engine's public functions, used by traced runs.
// ---------------------------------------------------------------------------

/// A distribution law: class name plus parameters.
using Law = std::pair<std::string, std::vector<double>>;

/// Distribution::GenerateBatch over `laws` in 64-draw chunks; ns per draw.
double GenerateBatchNsPerDraw(const std::vector<Law>& laws, uint64_t seed);

/// One row of a per-row expectation: target and row condition.
struct RowCall {
  pip::ExprPtr expr;
  pip::Condition condition;
};

/// SamplingEngine::Expectation (with probability) over `rows`, reporting
/// sampling.expectation_us_per_row, sampling.attempts_per_sample and
/// sampling.exact_rows.
void MeasureExpectation(const pip::SamplingEngine& engine,
                        const std::vector<RowCall>& rows, Report* report);

/// Analyze (expectation of `column` plus conf) over a fresh catalogue copy
/// of `table` in `db`, cold: sampling.analyze_ms (median of 3) and
/// sampling.plan_cache_hit_ratio.
void MeasureAnalyze(pip::Database* db, const pip::CTable& table,
                    const std::string& column,
                    const pip::SamplingOptions& options,
                    Report* report);

/// Database::AppendRows of one row (made by `make_row`) into a registered
/// table of `rows` rows: engine.append_us (median).
void MeasureAppend(pip::Database* db, size_t rows,
                   const std::function<pip::CTableRow(size_t)>& make_row,
                   Report* report);

/// The wire codec on real results: wire.encode_us, wire.decode_us and
/// wire.response_bytes (medians per response).
void MeasureWire(const std::vector<pip::sql::SqlResult>& results,
                 Report* report);

/// Zero-valued entries for layers a workload never reaches (the README
/// lists which and why).
void SetBypassed(const std::vector<std::string>& names, Report* report);

/// Every per-layer metric name with its unit, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Unit of a per-layer metric.
std::string LayerUnit(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
