// Layer ladder of traced runs: in-process timings around calls into each
// module's public functions, on the running workload's own inputs.

#include <cmath>

#include "src/dist/distribution.h"
#include "src/dist/registry.h"
#include "src/engine/query.h"
#include "src/server/wire.h"
#include "workloads.h"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"dist.generate_batch_ns_per_draw", "ns"},
      {"sampling.expectation_us_per_row", "us"},
      {"sampling.attempts_per_sample", "ratio"},
      {"sampling.exact_rows", "count"},
      {"sampling.analyze_ms", "ms"},
      {"sampling.plan_cache_hit_ratio", "ratio"},
      {"pool.regions", "count"},
      {"pool.steals", "count"},
      {"pool.join_wait_us", "us"},
      {"index.hit_ratio", "ratio"},
      {"index.bytes", "bytes"},
      {"index.evictions", "count"},
      {"index.invalidations", "count"},
      {"engine.append_us", "us"},
      {"sql.execute_ms", "ms"},
      {"sql.admission_scan_us", "us"},
      {"server.roundtrip_ms", "ms"},
      {"server.queue_ms", "ms"},
      {"server.transport_ms", "ms"},
      {"wire.encode_us", "us"},
      {"wire.decode_us", "us"},
      {"wire.response_bytes", "bytes"},
      {"workload.q1_ms", "ms"},
      {"workload.q2_ms", "ms"},
      {"workload.q3_ms", "ms"},
      {"workload.q4_ms", "ms"},
      {"workload.q5_ms", "ms"},
      {"workload.iceberg_ms", "ms"},
      {"workload.jointconf_ms", "ms"},
      {"traced.op_p10_ms", "ms"},
  };
  return kMetrics;
}

std::string LayerUnit(const std::string& name) {
  for (const auto& [metric, unit] : PerLayerMetrics()) {
    if (metric == name) return unit;
  }
  return "count";
}

void SetBypassed(const std::vector<std::string>& names, Report* report) {
  for (const std::string& name : names) report->Set(name, 0.0, LayerUnit(name));
}

double GenerateBatchNsPerDraw(const std::vector<Law>& laws, uint64_t seed) {
  constexpr uint64_t kChunk = 64, kChunksPerLaw = 2048;
  std::vector<const pip::Distribution*> dists;
  for (const Law& law : laws) {
    dists.push_back(pip::DistributionRegistry::Global().Lookup(law.first).value());
  }
  std::vector<double> out(kChunk);
  std::vector<double> per_rep;
  for (int rep = 0; rep < 5; ++rep) {
    Clock::time_point t0 = Clock::now();
    for (size_t l = 0; l < laws.size(); ++l) {
      for (uint64_t c = 0; c < kChunksPerLaw; ++c) {
        pip::SampleContext ctx{seed, l + 1, c * kChunk, 0};
        (void)dists[l]->GenerateBatch(laws[l].second, ctx, kChunk, out.data());
      }
    }
    double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    per_rep.push_back(ns / double(laws.size() * kChunksPerLaw * kChunk));
  }
  return Median(per_rep);
}

void MeasureExpectation(const pip::SamplingEngine& engine,
                        const std::vector<RowCall>& rows, Report* report) {
  double attempts = 0, samples = 0, exact = 0;
  Clock::time_point t0 = Clock::now();
  for (const RowCall& row : rows) {
    auto r = engine.Expectation(row.expr, row.condition, true);
    if (!r.ok()) continue;
    attempts += r.value().attempts;
    samples += r.value().samples_used;
    exact += r.value().exact ? 1 : 0;
  }
  double us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  report->Set("sampling.expectation_us_per_row",
              us / std::max<size_t>(1, rows.size()), "us");
  report->Set("sampling.attempts_per_sample",
              samples > 0 ? attempts / samples : 0.0, "ratio");
  report->Set("sampling.exact_rows", exact, "count");
}

void MeasureAnalyze(pip::Database* db, const pip::CTable& table,
                    const std::string& column,
                    const pip::SamplingOptions& options, Report* report) {
  pip::AnalyzeSpec spec;
  spec.expectation_columns = {column};
  spec.with_confidence = true;
  std::vector<double> ms;
  double hits = 0, lookups = 0;
  for (int rep = 0; rep < 3; ++rep) {
    // A fresh catalogue entry per repetition keeps every Analyze cold
    // with respect to the expectation index.
    std::string name = "ladder_analyze_" + std::to_string(rep);
    if (!db->RegisterCTable(name, table).ok()) continue;
    auto snapshot = db->GetTable(name).value();
    pip::SamplingEngine engine = db->MakeEngine(options);
    pip::PlanCache::Stats s0 = db->plan_cache_stats();
    Clock::time_point t0 = Clock::now();
    auto out = pip::Analyze(*snapshot, engine, spec);
    ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    pip::PlanCache::Stats s1 = db->plan_cache_stats();
    if (!out.ok()) continue;
    hits += double(s1.hits - s0.hits);
    lookups += double(s1.hits - s0.hits + s1.misses - s0.misses);
  }
  report->Set("sampling.analyze_ms", Median(ms), "ms");
  report->Set("sampling.plan_cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
              "ratio");
}

void MeasureAppend(pip::Database* db, size_t rows,
                   const std::function<pip::CTableRow(size_t)>& make_row,
                   Report* report) {
  std::vector<std::string> columns;
  for (size_t c = 0; c < make_row(0).cells.size(); ++c) {
    columns.push_back("c" + std::to_string(c));
  }
  pip::CTable base((pip::Schema(columns)));
  for (size_t i = 0; i < rows; ++i) (void)base.Append(make_row(i));
  const std::string name = "ladder_append";
  std::vector<double> us;
  if (db->RegisterCTable(name, std::move(base)).ok()) {
    for (size_t i = 0; i < 41; ++i) {
      std::vector<pip::CTableRow> one;
      one.push_back(make_row(rows + i));
      Clock::time_point t0 = Clock::now();
      (void)db->AppendRows(name, std::move(one));
      us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    }
  }
  report->Set("engine.append_us", Median(us), "us");
}

void MeasureWire(const std::vector<pip::sql::SqlResult>& results,
                 Report* report) {
  std::vector<double> enc, dec, bytes;
  for (const auto& result : results) {
    Clock::time_point t0 = Clock::now();
    std::string payload = pip::server::EncodeResponse(result, 0);
    Clock::time_point t1 = Clock::now();
    auto decoded = pip::server::DecodeResponse(payload);
    Clock::time_point t2 = Clock::now();
    (void)decoded;
    enc.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    dec.push_back(std::chrono::duration<double, std::micro>(t2 - t1).count());
    bytes.push_back(double(payload.size()));
  }
  report->Set("wire.encode_us", Median(enc), "us");
  report->Set("wire.decode_us", Median(dec), "us");
  report->Set("wire.response_bytes", Median(bytes), "bytes");
}

}  // namespace perfbench
