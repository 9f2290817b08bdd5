#pragma once

#include "common.h"

namespace perfbench {

// Each workload measures its end-to-end metrics with tracing off. With
// cfg.trace set it also runs the traced phases and the in-process replay
// and adds the per-layer metrics. Names and units match BENCHMARK.json.
Report run_adhoc_query(const RunConfig& cfg);
Report run_live_ingest(const RunConfig& cfg);
Report run_offline_batch(const RunConfig& cfg);

}  // namespace perfbench
