// Umbrella header for the incsr library — exact incremental SimRank on
// link-evolving graphs (reproduction of Yu, Lin & Zhang, ICDE 2014).
//
// The primary entry point is incsr::core::DynamicSimRank, which maintains
// all-pairs SimRank under edge insertions/deletions via the paper's
// Inc-SR/Inc-uSR algorithms. Batch algorithms, the Inc-SVD baseline,
// generators, dataset stand-ins, and evaluation metrics are exposed for
// experimentation.
#ifndef INCSR_INCSR_H_
#define INCSR_INCSR_H_

#include "common/flags.h"        // IWYU pragma: export
#include "common/memory.h"       // IWYU pragma: export
#include "common/rng.h"          // IWYU pragma: export
#include "common/status.h"       // IWYU pragma: export
#include "common/scheduler.h"  // IWYU pragma: export
#include "common/timer.h"        // IWYU pragma: export
#include "core/dynamic_simrank.h"  // IWYU pragma: export
#include "core/inc_sr.h"         // IWYU pragma: export
#include "core/inc_usr.h"        // IWYU pragma: export
#include "core/rank_one_update.h"  // IWYU pragma: export
#include "core/update_seed.h"    // IWYU pragma: export
#include "datasets/datasets.h"   // IWYU pragma: export
#include "eval/metrics.h"        // IWYU pragma: export
#include "graph/components.h"    // IWYU pragma: export
#include "graph/digraph.h"       // IWYU pragma: export
#include "graph/edge_list_io.h"  // IWYU pragma: export
#include "graph/generators.h"    // IWYU pragma: export
#include "graph/snapshots.h"     // IWYU pragma: export
#include "graph/transition.h"    // IWYU pragma: export
#include "graph/update_stream.h" // IWYU pragma: export
#include "incsvd/inc_svd.h"      // IWYU pragma: export
#include "incsvd/svd_simrank.h"  // IWYU pragma: export
#include "la/dense_matrix.h"     // IWYU pragma: export
#include "la/score_store.h"      // IWYU pragma: export
#include "la/sparse_matrix.h"    // IWYU pragma: export
#include "la/svd.h"              // IWYU pragma: export
#include "la/vector.h"           // IWYU pragma: export
#include "net/client.h"          // IWYU pragma: export
#include "net/replication.h"     // IWYU pragma: export
#include "net/server.h"          // IWYU pragma: export
#include "net/socket.h"          // IWYU pragma: export
#include "net/wire.h"            // IWYU pragma: export
#include "obs/histogram.h"       // IWYU pragma: export
#include "obs/stats_schema.h"    // IWYU pragma: export
#include "obs/trace.h"           // IWYU pragma: export
#include "obs/trace_analysis.h"  // IWYU pragma: export
#include "service/query_cache.h"     // IWYU pragma: export
#include "service/simrank_service.h" // IWYU pragma: export
#include "shard/shard_plan.h"        // IWYU pragma: export
#include "shard/sharded_service.h"   // IWYU pragma: export
#include "simrank/batch_matrix.h"        // IWYU pragma: export
#include "simrank/batch_naive.h"         // IWYU pragma: export
#include "simrank/batch_partial_sums.h"  // IWYU pragma: export
#include "simrank/options.h"             // IWYU pragma: export

#endif  // INCSR_INCSR_H_
