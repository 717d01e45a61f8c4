// Single-node reference executor: evaluates a HybridQuery directly over
// in-memory batches, with no clusters, networks or Bloom filters involved.
// Tests compare every distributed algorithm's result against this oracle.

#ifndef HYBRIDJOIN_HYBRID_REFERENCE_H_
#define HYBRIDJOIN_HYBRID_REFERENCE_H_

#include <vector>

#include "hybrid/query.h"

namespace hybridjoin {

/// Runs the query over raw table data: filter/project both sides, hash-join
/// on the keys, apply the post-join predicate, aggregate. The join is a
/// straight-line multimap join that shares no code with JoinProber, so the
/// oracle also checks the engine's probe path. Returns rows in
/// the same schema and order ([group asc]) as the distributed drivers.
Result<RecordBatch> RunReferenceJoin(
    const std::vector<RecordBatch>& db_batches,
    const std::vector<RecordBatch>& hdfs_batches, const HybridQuery& query);

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_HYBRID_REFERENCE_H_
