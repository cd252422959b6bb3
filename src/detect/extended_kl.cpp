#include "detect/extended_kl.h"

#include "detect/extended_kl_impl.h"

namespace rejecto::detect {

void ReserveKlScratch(const graph::GraphSource& src, double k,
                      const KlConfig& config, KlScratch& scratch) {
  scratch.bucket.Reset(src.NumNodes(), kl_detail::GainBound(src, k),
                       config.gain_resolution);
  scratch.checkpoint.counters.reserve(src.NumNodes());
}

KlResult ExtendedKl(const graph::GraphSource& src,
                    const std::vector<char>& init_in_u,
                    const std::vector<char>& locked, const KlConfig& config,
                    KlScratch* scratch) {
  return BasicExtendedKl(src, init_in_u, locked, config, scratch);
}

}  // namespace rejecto::detect
