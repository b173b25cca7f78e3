// The three workloads, each a Workload: the system under test with the load
// generator that fits it.
//
//   serve_open   in-process LinkingService, one ICD-10 tenant, distinct
//                queries; one generator thread calls SubmitLink at due times
//                and one collector thread observes the futures as they
//                resolve. Admission queue, dispatch and shard pool carry the
//                waiting; no net layer, so a net change should read no change.
//   fleet_mixed  net::Client connections to a net::Router in front of two
//                replicas over Unix sockets, each hosting icd10 and icd9 with
//                distinct models, Zipf repeats, and a hot swap of the icd9
//                model every kPublishPeriodMs. Each connection thread sends
//                every request that is due (pipelined), then reads the
//                answers. Wire, router hop, tenant-split batches and
//                publishes are all on the path.
//   bulk_link    one caller running NclLinker::LinkBatchDetailed with
//                scoring_threads = nproc at d=128: ED dominates and there is
//                no queue or wire, so kernel and model changes show at full
//                size while serve and net changes must read unchanged.
//
// All: one load-generating process with at most nproc load threads or
// connections; shard threads across replicas total nproc; caches and concept
// encodings warm before timing.

#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "harness.h"

namespace nclbench {

/// Hardware threads of the host (at least 1).
size_t Nproc();

/// Set up the workload called `name`; nullptr for an unknown name. The fleet
/// puts its Unix sockets under `workdir`.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& workdir);

}  // namespace nclbench
