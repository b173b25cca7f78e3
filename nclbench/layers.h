// Per-layer measurements of the traced run: spans the benchmark records
// around calls into each layer's public functions. They are taken in a
// replay after the timed part, single-threaded on an idle system, on a
// sample of the run's own queries and the batch shapes the workload formed.

#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "comaid/model.h"
#include "linking/candidate_generator.h"
#include "linking/query_rewriter.h"
#include "setup.h"
#include "stats.h"

namespace nclbench {

struct LayerProbe {
  const ncl::comaid::ComAidModel* model = nullptr;
  const ncl::linking::CandidateGenerator* candidates = nullptr;
  const ncl::linking::QueryRewriter* rewriter = nullptr;
  size_t k = 20;
  /// A sample of the run's queries.
  std::vector<const Query*> queries;
  /// Queries per LinkBatch call in this workload (measured or fixed).
  double batch_queries = 1.0;
  /// One LinkBatch call as the workload makes it.
  std::function<void(const std::vector<std::vector<std::string>>&)> link_batch;
};

/// Adds linking.rewrite_us.p50, linking.candgen_us.p50, linking.ed_us.p50,
/// linking.link_batch_us_per_query, model.score_us_per_lane,
/// model.tile_fill and every kernels.* metric.
void MeasureLayers(const LayerProbe& probe, Report* report);

}  // namespace nclbench
