#include "truth.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

constexpr double kInvSqrt2 = 0.70710678118654752440;
constexpr double kInvSqrt2Pi = 0.39894228040143267794;

/// Composite Simpson rule over [lo, hi] with `panels` (even) panels,
/// accumulating `dims` integrands at once: f(x, out[dims]).
template <int Dims, typename F>
void Simpson(double lo, double hi, int panels, const F& f, double* out) {
  const double h = (hi - lo) / panels;
  double acc[Dims] = {};
  double v[Dims];
  for (int i = 0; i <= panels; ++i) {
    double w = (i == 0 || i == panels) ? 1.0 : (i % 2 == 1 ? 4.0 : 2.0);
    f(lo + h * i, v);
    for (int d = 0; d < Dims; ++d) acc[d] += w * v[d];
  }
  for (int d = 0; d < Dims; ++d) out[d] = acc[d] * h / 3.0;
}

}  // namespace

double NormPdf(double z) { return kInvSqrt2Pi * std::exp(-0.5 * z * z); }
double NormCdf(double z) { return 0.5 * std::erfc(-z * kInvSqrt2); }
double NormSf(double z) { return 0.5 * std::erfc(z * kInvSqrt2); }

TailMoments ProductTail(double mu, double sigma, double rate, double c) {
  // Condition on b: a * b > c  <=>  a > c / b (b > 0). With z = (t - mu)
  // / sigma and t = c / b:
  //   P[a > t]            = Q(z)
  //   E[a 1{a > t}]       = mu Q(z) + sigma phi(z)
  //   E[a^2 1{a > t}]     = (mu^2 + sigma^2) Q(z) + sigma phi(z) (mu + t)
  // then integrate over b's density rate * exp(-rate b) on [0, 50 / rate].
  double out[3];
  Simpson<3>(0.0, 50.0 / rate, 8000,
             [&](double b, double* v) {
               if (b <= 0.0) {
                 v[0] = v[1] = v[2] = 0.0;
                 return;
               }
               double t = c / b;
               double z = (t - mu) / sigma;
               double q = NormSf(z), phi = NormPdf(z);
               double dens = rate * std::exp(-rate * b);
               v[0] = dens * q;
               v[1] = dens * b * (mu * q + sigma * phi);
               v[2] = dens * b * b *
                      ((mu * mu + sigma * sigma) * q + sigma * phi * (mu + t));
             },
             out);
  return TailMoments{out[0], out[1], out[2]};
}

void MaxOfNormals(const std::vector<double>& mus,
                  const std::vector<double>& sigmas, double* mean,
                  double* var) {
  if (mus.empty()) {
    *mean = 0.0;
    *var = 0.0;
    return;
  }
  double lo = mus[0], hi = mus[0];
  for (size_t i = 0; i < mus.size(); ++i) {
    lo = std::min(lo, mus[i] - 12.0 * sigmas[i]);
    hi = std::max(hi, mus[i] + 12.0 * sigmas[i]);
  }
  // For M >= lo: E[g(M)] = g(lo) + int_lo^hi g'(x) P[M > x] dx.
  double out[2];
  Simpson<2>(lo, hi, 8000,
             [&](double x, double* v) {
               double cdf = 1.0;
               for (size_t i = 0; i < mus.size(); ++i) {
                 cdf *= NormCdf((x - mus[i]) / sigmas[i]);
               }
               v[0] = 1.0 - cdf;
               v[1] = 2.0 * x * (1.0 - cdf);
             },
             out);
  *mean = lo + out[0];
  double second = lo * lo + out[1];
  *var = second - *mean * *mean;
}

double PoissonPmf(double lambda, int k) {
  return std::exp(k * std::log(lambda) - lambda - std::lgamma(k + 1.0));
}

namespace {
int PoissonTop(double lambda) {
  return static_cast<int>(lambda + 14.0 * std::sqrt(lambda) + 40.0);
}
}  // namespace

double PoissonOverExpProb(double lambda, double rate) {
  // P[S < d] = 1 - exp(-rate d); d = 0 never exceeds S > 0.
  double p = 0.0;
  for (int d = 1; d <= PoissonTop(lambda); ++d) {
    p += PoissonPmf(lambda, d) * -std::expm1(-rate * d);
  }
  return p;
}

double RateForSelectivity(double lambda, double selectivity) {
  double lo = 1e-9, hi = 100.0;  // P[D > S] increases with the rate.
  for (int i = 0; i < 200; ++i) {
    double mid = 0.5 * (lo + hi);
    if (PoissonOverExpProb(lambda, mid) < selectivity) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

void PoissonOverExpShortfall(double lambda, double rate, double* mean,
                             double* var) {
  // For fixed d, with F = P[S < d] and the truncated moments of S:
  //   E[S 1{S<d}]   = (1 - e^{-rd}(1 + rd)) / r
  //   E[S^2 1{S<d}] = (2 - e^{-rd}(2 + 2rd + r^2 d^2)) / r^2
  double p = 0.0, m1 = 0.0, m2 = 0.0;
  for (int d = 1; d <= PoissonTop(lambda); ++d) {
    double pmf = PoissonPmf(lambda, d);
    double rd = rate * d, e = std::exp(-rd);
    double f = -std::expm1(-rd);
    double s1 = (1.0 - e * (1.0 + rd)) / rate;
    double s2 = (2.0 - e * (2.0 + 2.0 * rd + rd * rd)) / (rate * rate);
    p += pmf * f;
    m1 += pmf * (d * f - s1);
    m2 += pmf * (double(d) * d * f - 2.0 * d * s1 + s2);
  }
  *mean = m1 / p;
  *var = m2 / p - *mean * *mean;
}

}  // namespace perfbench
