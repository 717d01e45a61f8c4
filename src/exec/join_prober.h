// JoinProber: probe a JoinHashTable with record batches, apply the post-join
// predicate to the matches, materialize the survivors as joined rows
// (columns renamed "<alias>.<name>"), and fold them into a HashAggregator.
//
// This one component is reused by every join algorithm: in JEN workers for
// the HDFS-side joins and in DB workers for the DB-side join. The
// single-node reference executor deliberately does not use it, so the tests
// that compare against that oracle also check this prober.
//
// The probe is batched and runs in two steps:
// 1. The walk. When the post-join predicate has a band conjunct
//    (ExtractJoinBand) and the table was built with that band's build
//    column, JoinHashTable::ProbeBand binary-searches each probe row's band
//    in its key's run and walks only the rows inside it. Otherwise
//    JoinHashTable::ProbeBatch lists every equi-match.
// 2. The residual: the rest of the post-join predicate (all of it without
//    a band), evaluated on the walk's matches in chunks, column-at-a-time.
//    Each chunk is late-materialized: only the columns the residual reads
//    are gathered for every match; the others for survivors only.
// Either way the survivors, and their order, are those of "every
// equi-match in table order, then the whole predicate".

#ifndef HYBRIDJOIN_EXEC_JOIN_PROBER_H_
#define HYBRIDJOIN_EXEC_JOIN_PROBER_H_

#include <memory>
#include <optional>
#include <string>

#include "common/metrics.h"
#include "exec/aggregator.h"
#include "exec/join_hash_table.h"
#include "expr/predicate.h"

namespace hybridjoin {

struct JoinProberOptions {
  /// Matches are filtered in chunks this large, and surviving joined rows
  /// are aggregated once at least this many are buffered.
  size_t output_batch_rows = 4096;
};

/// One-pass hash-join probe + post-join filter + aggregate pipeline.
class JoinProber {
 public:
  /// `build` must already be finalized. `build_alias`/`probe_alias` prefix
  /// the joined schema's column names ("T", "L"). `probe_key_column` is the
  /// join key's index in probe batches. `post_join_predicate` may be null.
  /// `aggregator` is borrowed and receives the surviving joined rows.
  JoinProber(const JoinHashTable* build, SchemaPtr build_schema,
             std::string build_alias, SchemaPtr probe_schema,
             std::string probe_alias, size_t probe_key_column,
             PredicatePtr post_join_predicate, HashAggregator* aggregator,
             Metrics* metrics, JoinProberOptions options = {});

  /// The joined schema (build columns first, then probe columns).
  const SchemaPtr& joined_schema() const { return joined_schema_; }

  /// Probes every row of `batch`; filters the matches, buffers the
  /// survivors and aggregates them whenever a full chunk is buffered.
  Status ProbeBatch(const RecordBatch& batch);

  /// Aggregates the buffered joined rows. Call once after the last
  /// ProbeBatch.
  Status Flush();

  /// Joined rows that matched the equi-join (before the post-join filter;
  /// with a band, counted from the key runs' lengths).
  int64_t join_matches() const { return join_matches_; }
  /// Rows that survived the post-join predicate.
  int64_t output_rows() const { return output_rows_; }

 private:
  /// Per-build-column gather source: the typed data pointer of that column
  /// in every build batch, so the gather loop indexes raw arrays
  /// without per-row variant dispatch.
  struct BuildSource {
    PhysicalType type;
    /// Per build batch: the typed data(), or for a string the StringColumn.
    std::vector<const void*> per_batch;
  };

  /// Appends joined column `c` (build columns first, then probe columns)
  /// for the matches `m[0, n)` onto `dst`; probe rows come from
  /// `probe_rows_[0, n)`.
  void GatherColumn(size_t c, const RecordBatch& probe_batch,
                    const JoinMatch* m, size_t n, ColumnVector* dst) const;

  /// Filters the matches `m[0, n)` by the residual and appends the
  /// survivors onto pending_ as joined rows.
  Status AppendMatches(const RecordBatch& probe_batch, const JoinMatch* m,
                       size_t n);

  const JoinHashTable* build_;
  SchemaPtr probe_schema_;
  size_t probe_key_column_;
  /// The band the walk applies, when the table is ordered by its column.
  std::optional<JoinBand> band_;
  /// What the walk leaves to filter: the post-join predicate without the
  /// band conjunct, or all of it without a band; may be null.
  PredicatePtr residual_;
  HashAggregator* aggregator_;
  Metrics* metrics_;
  JoinProberOptions options_;

  SchemaPtr joined_schema_;
  size_t build_width_;
  std::vector<BuildSource> build_sources_;
  /// Joined-schema indexes of the columns the residual reads, and of every
  /// other column. Without a residual, all columns are late.
  std::vector<size_t> filter_columns_;
  std::vector<size_t> late_columns_;
  RecordBatch filter_batch_;           ///< filter columns of one chunk
  RecordBatch pending_;                ///< surviving joined rows
  std::vector<JoinMatch> matches_;     ///< scratch, reused across batches
  std::vector<JoinMatch> survivors_;   ///< scratch, reused across chunks
  std::vector<uint32_t> probe_rows_;   ///< scratch, reused across chunks
  std::vector<uint32_t> sel_;          ///< scratch, reused across chunks
  int64_t join_matches_ = 0;
  int64_t output_rows_ = 0;
  int64_t band_visited_ = 0;  ///< not yet added to metrics_
};

/// Builds the prefixed joined schema: build fields as "<build_alias>.<name>"
/// followed by probe fields as "<probe_alias>.<name>".
SchemaPtr MakeJoinedSchema(const SchemaPtr& build_schema,
                           const std::string& build_alias,
                           const SchemaPtr& probe_schema,
                           const std::string& probe_alias);

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_EXEC_JOIN_PROBER_H_
