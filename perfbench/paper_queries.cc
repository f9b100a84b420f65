// Workload paper_queries: the paper's own traffic, in-process.
//
// One closed-loop caller; one operation is one full pass of Q1..Q5
// (workload::RunQ*Pip on GenerateTpch data at its default scale), the
// iceberg query of Fig. 8 (RunIcebergPip) and one AnalyzeJointConfidence
// over groups of independent disjuncts. No SQL, no server, no index.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/common/thread_pool.h"
#include "src/engine/query.h"
#include "src/workload/iceberg.h"
#include "src/workload/queries.h"
#include "truth.h"
#include "workloads.h"

namespace perfbench {

namespace {

using pip::workload::IcebergConfig;
using pip::workload::IcebergData;
using pip::workload::TpchConfig;
using pip::workload::TpchData;

/// Fixed sample count of every Monte Carlo loop (the paper's experiments
/// also pin the count: "1000 samples apiece").
constexpr size_t kSamples = 32;
/// World count of Q2's world-instantiated expected_max (RunQ2Pip default).
constexpr size_t kQ2Worlds = 1000;
/// P[popularity > T] of Q4 and P[demand > supply] of Q5.
constexpr double kQ4Selectivity = 0.05;
constexpr double kQ5Selectivity = 0.25;
/// Joint-confidence groups: disjunct counts below 7 take the engine's
/// exact inclusion-exclusion path, larger ones joint Monte Carlo.
constexpr size_t kSmallGroups = 24, kSmallDisjuncts = 3;
constexpr size_t kLargeGroups = 24, kLargeDisjuncts = 8;

const char* const kQueryNames[] = {"q1", "q2", "q3", "q4", "q5", "iceberg",
                                   "jointconf"};
constexpr int kNumQueries = 7;

/// One disjunct x > c with x ~ Normal(mu, sigma).
struct Disjunct {
  double mu, sigma, c;
};

struct Inputs {
  TpchData tpch;
  IcebergConfig ice_config;
  IcebergData ice;
  std::vector<std::vector<Disjunct>> groups;
  uint64_t engine_seed = 0;
  pip::SamplingOptions options;
};

/// Results of one pass, in a flat vector for bit-identity comparison.
struct PassResult {
  double q1 = 0, q2 = 0, q3 = 0;
  std::vector<double> q4, q5, iceberg, jointconf;
  double seconds[kNumQueries] = {};

  std::vector<double> Flat() const {
    std::vector<double> v = {q1, q2, q3};
    for (const auto* s : {&q4, &q5, &iceberg, &jointconf}) {
      v.insert(v.end(), s->begin(), s->end());
    }
    return v;
  }
};

pip::StatusOr<std::vector<double>> RunJointConfidence(const Inputs& in) {
  pip::Database db(in.engine_seed);
  pip::CTable table(pip::Schema({"grp"}));
  for (size_t g = 0; g < in.groups.size(); ++g) {
    for (const Disjunct& d : in.groups[g]) {
      PIP_ASSIGN_OR_RETURN(pip::VarRef x,
                           db.CreateVariable("Normal", {d.mu, d.sigma}));
      PIP_RETURN_IF_ERROR(table.Append(
          {pip::Expr::ConstantInt(static_cast<int64_t>(g))},
          pip::Condition(pip::Expr::Var(x) > pip::Expr::Constant(d.c))));
    }
  }
  PIP_ASSIGN_OR_RETURN(
      pip::Table out,
      pip::AnalyzeJointConfidence(table, db.MakeEngine(in.options)));
  std::vector<double> probs;
  for (const auto& row : out.rows()) probs.push_back(row[1].double_value());
  return probs;
}

/// Runs one pass; returns the failure text or "".
std::string RunPass(const Inputs& in, PassResult* out) {
  const uint64_t seed = in.engine_seed;
  const auto& opt = in.options;
  auto timed = [&](int q, const auto& fn) -> std::string {
    Clock::time_point t0 = Clock::now();
    std::string err = fn();
    out->seconds[q] = SecondsSince(t0);
    return err;
  };
  std::string err;
  err = timed(0, [&]() -> std::string {
    auto r = pip::workload::RunQ1Pip(in.tpch, seed, opt);
    if (!r.ok()) return "Q1: " + r.status().ToString();
    out->q1 = r.value().value;
    return "";
  });
  if (!err.empty()) return err;
  err = timed(1, [&]() -> std::string {
    auto r = pip::workload::RunQ2Pip(in.tpch, seed, opt, kQ2Worlds);
    if (!r.ok()) return "Q2: " + r.status().ToString();
    out->q2 = r.value().value;
    return "";
  });
  if (!err.empty()) return err;
  err = timed(2, [&]() -> std::string {
    auto r = pip::workload::RunQ3Pip(in.tpch, seed, opt);
    if (!r.ok()) return "Q3: " + r.status().ToString();
    out->q3 = r.value().value;
    return "";
  });
  if (!err.empty()) return err;
  err = timed(3, [&]() -> std::string {
    auto r = pip::workload::RunQ4Pip(in.tpch, kQ4Selectivity, seed, opt);
    if (!r.ok()) return "Q4: " + r.status().ToString();
    out->q4 = r.value().per_item;
    return "";
  });
  if (!err.empty()) return err;
  err = timed(4, [&]() -> std::string {
    auto r = pip::workload::RunQ5Pip(in.tpch, kQ5Selectivity, seed, opt);
    if (!r.ok()) return "Q5: " + r.status().ToString();
    out->q5 = r.value().per_item;
    return "";
  });
  if (!err.empty()) return err;
  err = timed(5, [&]() -> std::string {
    auto r = pip::workload::RunIcebergPip(in.ice, in.ice_config, seed);
    if (!r.ok()) return "iceberg: " + r.status().ToString();
    out->iceberg = r.value().per_item;
    return "";
  });
  if (!err.empty()) return err;
  return timed(6, [&]() -> std::string {
    auto r = RunJointConfidence(in);
    if (!r.ok()) return "jointconf: " + r.status().ToString();
    out->jointconf = r.value();
    return "";
  });
}

double Dbl(const pip::Value& v) { return v.double_value(); }

/// Checks one pass against the benchmark's own truths.
void CheckPass(const Inputs& in, const PassResult& r, Checker* check) {
  const TpchData& d = in.tpch;
  const size_t num_customers = d.customer.num_rows();
  const size_t num_suppliers = d.supplier.num_rows();

  // Per-customer revenue model from the raw orders: the Poisson rate is
  // ten times the year-over-year growth (floored at 0.05), priced at the
  // customer's average order.
  std::vector<double> y1(num_customers), y2(num_customers),
      orders(num_customers);
  for (const auto& row : d.orders.rows()) {
    size_t c = static_cast<size_t>(row[1].int_value());
    (row[2].int_value() == 1 ? y1 : y2)[c] += Dbl(row[3]);
    orders[c] += 1;
  }
  std::vector<double> lambda(num_customers), price(num_customers);
  for (size_t c = 0; c < num_customers; ++c) {
    double pct = y1[c] > 0 ? (y2[c] - y1[c]) / y1[c] : 0.0;
    lambda[c] = std::max(0.05, pct * 10.0);
    price[c] = (y1[c] + y2[c]) / std::max(1.0, orders[c]);
  }

  // Q1: sum_c lambda_c * price_c (exact lattice integration).
  double q1 = 0;
  for (size_t c = 0; c < num_customers; ++c) q1 += lambda[c] * price[c];
  check->Exact("Q1 expected extra revenue", r.q1, q1, 1e-9);

  // Q2: E[max] over Japanese parts of independent Normal delivery times,
  // by quadrature; sampled over kQ2Worlds worlds.
  std::vector<double> mus, sigmas;
  for (const auto& part : d.part.rows()) {
    const auto& s = d.supplier.rows()[static_cast<size_t>(part[1].int_value())];
    if (s[1].string_value() != "JAPAN") continue;
    mus.push_back(Dbl(s[2]) + Dbl(s[4]));
    sigmas.push_back(std::hypot(Dbl(s[3]), Dbl(s[5])));
  }
  double max_mean, max_var;
  MaxOfNormals(mus, sigmas, &max_mean, &max_var);
  check->Statistical("Q2 expected latest delivery", r.q2, max_mean,
                     std::sqrt(max_var / kQ2Worlds));

  // Q3: sum_c lambda_c price_c P[delivery_c > threshold_c], delivery from
  // supplier c mod #suppliers (exact: lattice sum times a CDF).
  double q3 = 0;
  for (size_t c = 0; c < num_customers; ++c) {
    const auto& s = d.supplier.rows()[c % num_suppliers];
    double mu = Dbl(s[2]) + Dbl(s[4]);
    double sigma = std::hypot(Dbl(s[3]), Dbl(s[5]));
    double threshold = Dbl(d.customer.rows()[c][2]);
    q3 += lambda[c] * price[c] * NormSf((threshold - mu) / sigma);
  }
  check->Exact("Q3 expected lost profit", r.q3, q3, 1e-9);

  // Q4: E[D * P | P > T] = lambda (T + 1) per part; sampled.
  const double T = -std::log(kQ4Selectivity);
  double q4_truth = 0, q4_var = 0, q4_sum = 0;
  bool q4_sizes = r.q4.size() == d.part.num_rows();
  for (size_t p = 0; q4_sizes && p < r.q4.size(); ++p) {
    double lam = Dbl(d.part.rows()[p][3]);
    double e_d2 = lam + lam * lam, e_p2 = (T + 1) * (T + 1) + 1.0;
    q4_truth += lam * (T + 1);
    q4_var += (e_d2 * e_p2 - lam * lam * (T + 1) * (T + 1)) / kSamples;
    q4_sum += r.q4[p];
  }
  check->True("Q4 returns one value per part", q4_sizes);
  check->Statistical("Q4 total expected demand", q4_sum, q4_truth,
                     std::sqrt(q4_var));

  // Q5: E[D - S | D > S] per part, supply rate set for kQ5Selectivity.
  double q5_truth = 0, q5_var = 0, q5_sum = 0;
  bool q5_sizes = r.q5.size() == d.part.num_rows();
  for (size_t p = 0; q5_sizes && p < r.q5.size(); ++p) {
    double lam = Dbl(d.part.rows()[p][3]);
    double mean, var;
    PoissonOverExpShortfall(lam, RateForSelectivity(lam, kQ5Selectivity),
                            &mean, &var);
    q5_truth += mean;
    q5_var += var / kSamples;
    q5_sum += r.q5[p];
  }
  check->True("Q5 returns one value per part", q5_sizes);
  check->Statistical("Q5 total expected shortfall", q5_sum, q5_truth,
                     std::sqrt(q5_var));

  // Iceberg: per ship, sum of danger * P[near] over icebergs whose
  // P[near] (a product of per-axis normal CDF windows) exceeds the
  // threshold. Probabilities within 1e-9 of the threshold may fall on
  // either side, so such terms widen the accepted interval.
  const IcebergConfig& cfg = in.ice_config;
  check->True("iceberg returns one value per ship",
              r.iceberg.size() == in.ice.ships.num_rows());
  for (size_t s = 0; s < r.iceberg.size(); ++s) {
    const auto& ship = in.ice.ships.rows()[s];
    double sx = Dbl(ship[1]), sy = Dbl(ship[2]);
    double lo = 0, hi = 0;
    for (const auto& berg : in.ice.sightings.rows()) {
      double mx = Dbl(berg[1]), my = Dbl(berg[2]), sigma = Dbl(berg[4]);
      double px = NormCdf((sx + cfg.proximity - mx) / sigma) -
                  NormCdf((sx - cfg.proximity - mx) / sigma);
      double py = NormCdf((sy + cfg.proximity - my) / sigma) -
                  NormCdf((sy - cfg.proximity - my) / sigma);
      double p = px * py, term = Dbl(berg[5]) * p;
      double edge = 1e-9 * cfg.min_threat_probability;
      if (std::fabs(p - cfg.min_threat_probability) <= edge) {
        hi += term;
      } else if (p > cfg.min_threat_probability) {
        lo += term;
        hi += term;
      }
    }
    double tol = 1e-9 * hi + 1e-12;
    check->Within("iceberg threat of ship " + std::to_string(s),
                  r.iceberg[s], lo - tol, hi + tol);
  }

  // Joint confidence: 1 - prod(1 - p_i) over independent disjuncts;
  // exact for small groups, one binomial estimate per large group.
  check->True("jointconf returns one value per group",
              r.jointconf.size() == in.groups.size());
  double mc_sum = 0, mc_truth = 0, mc_var = 0;
  for (size_t g = 0; g < r.jointconf.size() && g < in.groups.size(); ++g) {
    double none = 1.0;
    for (const Disjunct& dj : in.groups[g]) {
      none *= NormCdf((dj.c - dj.mu) / dj.sigma);
    }
    double truth = 1.0 - none;
    if (in.groups[g].size() == kSmallDisjuncts) {
      check->Exact("jointconf of group " + std::to_string(g),
                   r.jointconf[g], truth, 1e-9);
    } else {
      mc_sum += r.jointconf[g];
      mc_truth += truth;
      mc_var += truth * (1.0 - truth) / kSamples;
    }
  }
  check->Statistical("jointconf total over Monte Carlo groups", mc_sum,
                     mc_truth, std::sqrt(mc_var));
}

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  TpchConfig tpch;  // Default scale; only the seed varies.
  tpch.seed = seed * 7919 + 19;
  in.tpch = pip::workload::GenerateTpch(tpch);
  in.ice_config.seed = seed * 104729 + 1912;
  in.ice = pip::workload::GenerateIceberg(in.ice_config);
  InputRng rng(seed ^ 0x6a6f696e74ULL);
  auto make_group = [&](size_t n) {
    std::vector<Disjunct> g;
    for (size_t i = 0; i < n; ++i) {
      double mu = rng.Uniform(-2, 2), sigma = rng.Uniform(0.5, 2.0);
      // Per-disjunct probability between 0.05 and 0.3.
      double z = rng.Uniform(0.52, 1.64);
      g.push_back({mu, sigma, mu + z * sigma});
    }
    return g;
  };
  for (size_t g = 0; g < kSmallGroups + kLargeGroups; ++g) {
    in.groups.push_back(
        make_group(g % 2 == 0 ? kSmallDisjuncts : kLargeDisjuncts));
  }
  in.engine_seed = seed * 2654435761ULL + 7;
  in.options.fixed_samples = kSamples;
  in.options.num_threads = 4;
  return in;
}

}  // namespace

void RunPaperQueries(const Args& args, Report* report) {
  Inputs in = MakeInputs(args.seed);
  Checker check;
  Tracer tracer(args.trace);

  // Warm-up pass, outside the timed window: checked against the truths,
  // and the reference for bit-identity of every timed pass.
  PassResult first;
  std::string err = RunPass(in, &first);
  if (!err.empty()) {
    std::fprintf(stderr, "pipbench: warm-up pass failed: %s\n", err.c_str());
    report->correct = false;
    report->failed = report->attempted = 1;
    return;
  }
  CheckPass(in, first, &check);
  const std::vector<double> reference = first.Flat();
  // Peak memory after a fixed amount of work (data plus one pass).
  const double peak_rss_mb = PeakRssMb(::getpid());
  const double setup_s = SecondsSince(args.process_start);

  const pip::ThreadPool::SchedulerStats pool0 =
      pip::ThreadPool::Shared().scheduler_stats();
  std::vector<double> latencies_ms;
  std::vector<double> query_ms[kNumQueries];
  uint64_t failed = 0, mismatched = 0;
  const Clock::time_point start = Clock::now();
  const auto deadline = start + std::chrono::seconds(args.seconds);
  while (Clock::now() < deadline) {
    PassResult r;
    Clock::time_point t0 = Clock::now();
    err = RunPass(in, &r);
    Clock::time_point t1 = Clock::now();
    if (!err.empty()) {
      ++failed;
      std::fprintf(stderr, "pipbench: pass failed: %s\n", err.c_str());
      continue;
    }
    latencies_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    std::vector<double> flat = r.Flat();
    if (flat.size() != reference.size() ||
        std::memcmp(flat.data(), reference.data(),
                    flat.size() * sizeof(double)) != 0) {
      ++mismatched;
    }
    if (tracer.enabled()) {
      uint64_t op = latencies_ms.size();
      uint64_t pass = tracer.Record("pass", op, 0, t0, t1);
      Clock::time_point q0 = t0;
      for (int q = 0; q < kNumQueries; ++q) {
        auto q1 = q0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(r.seconds[q]));
        tracer.Record(std::string("workload.") + kQueryNames[q], op, pass, q0, q1);
        q0 = q1;
        query_ms[q].push_back(r.seconds[q] * 1e3);
      }
    }
  }
  const double window_s = SecondsSince(start);
  const pip::ThreadPool::SchedulerStats pool1 =
      pip::ThreadPool::Shared().scheduler_stats();
  check.True("every timed pass is bit-identical to the first (" +
                 std::to_string(mismatched) + " differ)",
             mismatched == 0);

  report->attempted = latencies_ms.size() + failed;
  report->failed = failed;
  if (!args.trace) {
    SetOpMetrics(latencies_ms, window_s, report);
    report->Set("peak_rss_mb", peak_rss_mb, "MiB");
    report->Set("setup_s", setup_s, "s");
  } else {
    const double ops = std::max<double>(1.0, latencies_ms.size());
    for (int q = 0; q < kNumQueries; ++q) {
      report->Set(std::string("workload.") + kQueryNames[q] + "_ms",
                  Median(query_ms[q]), "ms");
    }
    report->Set("traced.op_p10_ms", Quantile(latencies_ms, 0.1), "ms");
    report->Set("pool.regions", (pool1.regions - pool0.regions) / ops, "count");
    report->Set("pool.steals", (pool1.steals - pool0.steals) / ops, "count");
    report->Set("pool.join_wait_us",
                (pool1.join_wait_micros - pool0.join_wait_micros) / ops, "us");

    // Kernel: the workload's laws (Poisson demand, Exponential
    // popularity/supply, Normal delivery) at generated parameters.
    std::vector<Law> laws;
    for (size_t p = 0; p < 4; ++p) {
      laws.push_back({"Poisson", {Dbl(in.tpch.part.rows()[p][3])}});
    }
    laws.push_back({"Exponential", {1.0}});
    const auto& s0 = in.tpch.supplier.rows()[0];
    laws.push_back({"Normal", {Dbl(s0[2]), Dbl(s0[3])}});
    report->Set("dist.generate_batch_ns_per_draw",
                GenerateBatchNsPerDraw(laws, in.engine_seed), "ns");

    // Per-row engine calls on the Q4 (CDF-window) and Q5 (rejection)
    // row shapes, plus Analyze over the Q5 table and appends at the
    // part table's size.
    pip::Database db(in.engine_seed);
    std::vector<RowCall> calls;
    pip::CTable q5_table(pip::Schema({"shortfall"}));
    const double T = -std::log(kQ4Selectivity);
    for (const auto& part : in.tpch.part.rows()) {
      double lam = Dbl(part[3]);
      auto demand = db.CreateVariable("Poisson", {lam}).value();
      auto pop = db.CreateVariable("Exponential", {1.0}).value();
      calls.push_back({pip::Expr::Var(demand) * pip::Expr::Var(pop),
                       pip::Condition(pip::Expr::Var(pop) > pip::Expr::Constant(T))});
      auto demand5 = db.CreateVariable("Poisson", {lam}).value();
      auto supply = db.CreateVariable(
          "Exponential", {RateForSelectivity(lam, kQ5Selectivity)}).value();
      pip::Condition under(pip::Expr::Var(demand5) > pip::Expr::Var(supply));
      calls.push_back({pip::Expr::Var(demand5) - pip::Expr::Var(supply), under});
      (void)q5_table.Append({pip::Expr::Var(demand5) - pip::Expr::Var(supply)},
                            under);
    }
    MeasureExpectation(db.MakeEngine(in.options), calls, report);
    MeasureAnalyze(&db, q5_table, "shortfall", in.options, report);
    MeasureAppend(&db, in.tpch.part.num_rows(),
                  [](size_t i) {
                    pip::CTableRow row;
                    row.cells.push_back(pip::Expr::ConstantInt(static_cast<int64_t>(i)));
                    return row;
                  },
                  report);
    SetBypassed({"index.hit_ratio", "index.bytes", "index.evictions",
                 "index.invalidations", "sql.execute_ms",
                 "sql.admission_scan_us", "server.roundtrip_ms",
                 "server.queue_ms", "server.transport_ms", "wire.encode_us",
                 "wire.decode_us", "wire.response_bytes"},
                report);
    tracer.Write(args.trace_dir + "/trace-paper_queries-" +
                 std::to_string(args.seed) + ".jsonl");
  }
  report->correct = check.Evaluate();
}

}  // namespace perfbench
