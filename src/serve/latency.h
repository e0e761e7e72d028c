#ifndef DNLR_SERVE_LATENCY_H_
#define DNLR_SERVE_LATENCY_H_

#include <cstdint>
#include <vector>

namespace dnlr::serve {

/// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
/// Takes the vector by value because it sorts its copy. The exact oracle
/// for finite runs: the serve drivers report it, and the obs tests check
/// obs::Histogram's bounded log2 quantile estimates against it.
double Percentile(std::vector<double> samples, double p);

}  // namespace dnlr::serve

#endif  // DNLR_SERVE_LATENCY_H_
