// The benchmark's own reference values: closed forms, series and 1-D
// quadrature computed from the generated inputs with the C++ standard
// library only, independent of the engine's special functions and of the
// workload module's *Truth helpers.

#ifndef PERFBENCH_TRUTH_H_
#define PERFBENCH_TRUTH_H_

#include <vector>

namespace perfbench {

double NormPdf(double z);
/// P[Z <= z] and P[Z > z] for standard normal Z.
double NormCdf(double z);
double NormSf(double z);

/// Moments of X = a * b restricted to the event X > c, for independent
/// a ~ Normal(mu, sigma) and b ~ Exponential(rate), c > 0:
///   p  = P[X > c],  m1 = E[X 1{X > c}],  m2 = E[X^2 1{X > c}].
struct TailMoments {
  double p, m1, m2;
  /// E[X | X > c] and Var[X | X > c].
  double mean() const { return m1 / p; }
  double var() const { return m2 / p - mean() * mean(); }
};
TailMoments ProductTail(double mu, double sigma, double rate, double c);

/// Mean and variance of max_i N(mus[i], sigmas[i]) for independent
/// normals (0 and 0 when empty).
void MaxOfNormals(const std::vector<double>& mus,
                  const std::vector<double>& sigmas, double* mean,
                  double* var);

/// Poisson(lambda) pmf at k.
double PoissonPmf(double lambda, int k);

/// P[D > S] for D ~ Poisson(lambda), S ~ Exponential(rate).
double PoissonOverExpProb(double lambda, double rate);
/// Rate r solving PoissonOverExpProb(lambda, r) = selectivity.
double RateForSelectivity(double lambda, double selectivity);
/// Mean and variance of D - S given D > S.
void PoissonOverExpShortfall(double lambda, double rate, double* mean,
                             double* var);

}  // namespace perfbench

#endif  // PERFBENCH_TRUTH_H_
