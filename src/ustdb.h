// Copyright 2026 the ustdb authors.
//
// Umbrella header: the full public API of ustdb — a C++20 reproduction of
// Emrich et al., "Querying Uncertain Spatio-Temporal Data", ICDE 2012.
//
// Quick start (see examples/quickstart.cc for the full program):
//
//   ustdb::markov::MarkovChain chain = ...;        // motion model
//   ustdb::core::QueryWindow window = ...;         // S□ × T□
//   ustdb::core::QueryBasedEngine qb(&chain, window);
//   double p = qb.ExistsProbability(initial_pdf);  // PST∃Q

#ifndef USTDB_USTDB_H_
#define USTDB_USTDB_H_

#include "core/absorbing.h"             // IWYU pragma: export
#include "core/congestion.h"            // IWYU pragma: export
#include "core/cylinder_baseline.h"     // IWYU pragma: export
#include "core/database.h"              // IWYU pragma: export
#include "core/engine_cache.h"          // IWYU pragma: export
#include "core/executor.h"              // IWYU pragma: export
#include "core/forall.h"                // IWYU pragma: export
#include "core/independent_baseline.h"  // IWYU pragma: export
#include "core/k_times.h"               // IWYU pragma: export
#include "core/multi_observation.h"     // IWYU pragma: export
#include "core/object_based.h"          // IWYU pragma: export
#include "core/planner.h"               // IWYU pragma: export
#include "core/query_based.h"           // IWYU pragma: export
#include "core/query_request.h"         // IWYU pragma: export
#include "core/query_window.h"          // IWYU pragma: export
#include "core/shard_router.h"          // IWYU pragma: export
#include "core/smoothing.h"             // IWYU pragma: export
#include "core/time_varying_engines.h"  // IWYU pragma: export
#include "exact/possible_worlds.h"      // IWYU pragma: export
#include "geo/drift_model.h"            // IWYU pragma: export
#include "geo/grid.h"                   // IWYU pragma: export
#include "markov/interval_chain.h"      // IWYU pragma: export
#include "markov/markov_chain.h"        // IWYU pragma: export
#include "markov/stationary.h"          // IWYU pragma: export
#include "markov/time_varying_chain.h"  // IWYU pragma: export
#include "mc/monte_carlo.h"             // IWYU pragma: export
#include "network/generators.h"         // IWYU pragma: export
#include "network/road_network.h"       // IWYU pragma: export
#include "obs/metrics.h"                // IWYU pragma: export
#include "obs/trace.h"                  // IWYU pragma: export
#include "sparse/csr_matrix.h"          // IWYU pragma: export
#include "sparse/index_set.h"           // IWYU pragma: export
#include "sparse/prob_vector.h"         // IWYU pragma: export
#include "sparse/types.h"               // IWYU pragma: export
#include "io/serialization.h"           // IWYU pragma: export
#include "service/query_service.h"      // IWYU pragma: export
#include "util/cancellation.h"          // IWYU pragma: export
#include "util/result.h"                // IWYU pragma: export
#include "util/rng.h"                   // IWYU pragma: export
#include "util/status.h"                // IWYU pragma: export
#include "util/stopwatch.h"             // IWYU pragma: export
#include "workload/query_gen.h"         // IWYU pragma: export
#include "workload/synthetic.h"         // IWYU pragma: export

#endif  // USTDB_USTDB_H_
