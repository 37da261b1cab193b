#ifndef VALENTINE_E2EBENCH_WORKLOADS_H_
#define VALENTINE_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace e2ebench {

struct RunArgs {
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding the benchmark's own data files (campaign digests).
  std::string data_dir;
};

/// Closed-loop discovery serving over HTTP (read-only).
RunResult RunQueryWorkload(const RunArgs& args);
/// Register/unregister over HTTP, each followed by a joinable query.
RunResult RunIngestWorkload(const RunArgs& args);
/// Offline Valentine campaign over a fabricated suite.
RunResult RunCampaignWorkload(const RunArgs& args);
/// Prints "<variant> <digest>" for one campaign suite variant: one line
/// of campaign_digests.txt.
int PrintCampaignDigest(uint64_t variant);

}  // namespace e2ebench

#endif  // VALENTINE_E2EBENCH_WORKLOADS_H_
