// Predicates: the filter expressions the engine evaluates over record
// batches. They are *serializable* because, exactly as in the paper's
// read_hdfs UDF, the database side ships the HDFS-table predicates and the
// projection list to the JEN workers, which evaluate them during the scan.
//
// Supported forms (enough for the paper's workload and examples):
//   col <op> literal            (int32/int64/float64/string/date/time)
//   prefix match on a string column
//   a - b BETWEEN lo AND hi     (two int32 columns, e.g. date arithmetic)
//   AND / OR / NOT / TRUE
//
// ExtractJoinBand finds the band a join's post-join predicate puts on one
// build column against one probe column, so the hash join can walk only the
// build rows inside it (exec/join_prober.h).

#ifndef HYBRIDJOIN_EXPR_PREDICATE_H_
#define HYBRIDJOIN_EXPR_PREDICATE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/result.h"
#include "types/record_batch.h"

namespace hybridjoin {

enum class CmpOp : uint8_t { kEq = 0, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpName(CmpOp op);

class Predicate;
using PredicatePtr = std::shared_ptr<const Predicate>;

/// A simple `int_column <op> literal` comparison that is ANDed at the top
/// level of a predicate — the unit of min/max chunk skipping in the columnar
/// HDFS format (Parquet-style predicate pushdown).
struct ConjunctiveIntCmp {
  std::string column;
  CmpOp op;
  int64_t literal;
};

/// Base class. Thread-safe after construction (immutable).
class Predicate {
 public:
  virtual ~Predicate() = default;

  /// Narrows `sel` (indexes into `batch`) to the rows satisfying this
  /// predicate. On entry `sel` holds candidate rows; on exit survivors.
  virtual Status Filter(const RecordBatch& batch,
                        std::vector<uint32_t>* sel) const = 0;

  /// Writes a self-describing wire form.
  virtual void SerializeTo(BinaryWriter* out) const = 0;

  /// Human-readable SQL-ish rendering.
  virtual std::string ToString() const = 0;

  /// Appends the integer comparisons that are guaranteed conjuncts of this
  /// predicate (i.e. must hold for every surviving row). Used for columnar
  /// chunk skipping; the default contributes nothing.
  virtual void CollectConjunctiveIntCmps(
      std::vector<ConjunctiveIntCmp>* out) const {
    (void)out;
  }

  /// Appends the names of every column this predicate reads. Scans use this
  /// to decide which columns must be materialized before filtering.
  virtual void CollectColumns(std::vector<std::string>* out) const = 0;

  /// True when this predicate is exactly a conjunction of integer
  /// comparisons — i.e. CollectConjunctiveIntCmps captures its full
  /// semantics. Such predicates can be answered by a covering sorted index
  /// (the EDW's index-only access plan for Bloom filter builds).
  virtual bool IsConjunctiveIntCmps() const { return false; }

  /// Evaluates against every row of `batch`, returning the selection.
  Result<std::vector<uint32_t>> FilterAll(const RecordBatch& batch) const {
    std::vector<uint32_t> sel(batch.num_rows());
    for (uint32_t i = 0; i < sel.size(); ++i) sel[i] = i;
    HJ_RETURN_IF_ERROR(Filter(batch, &sel));
    return sel;
  }

  std::vector<uint8_t> Serialize() const {
    BinaryWriter w;
    SerializeTo(&w);
    return w.Release();
  }

  /// Parses a predicate previously produced by SerializeTo.
  static Result<PredicatePtr> Deserialize(BinaryReader* in);
  static Result<PredicatePtr> Deserialize(const std::vector<uint8_t>& buf) {
    BinaryReader r(buf);
    return Deserialize(&r);
  }
};

// ---------------------------------------------------------------------------
// Constructors (factory functions keep call sites compact).
// ---------------------------------------------------------------------------

/// `column <op> literal`.
PredicatePtr Cmp(std::string column, CmpOp op, Value literal);

/// String column starts with `prefix`.
PredicatePtr StrPrefix(std::string column, std::string prefix);

/// `lo <= col_a - col_b <= hi` over two int32-physical columns (the paper's
/// post-join date predicate: 0 <= days(T.tdate) - days(L.ldate) <= 1).
PredicatePtr DiffRange(std::string col_a, std::string col_b, int64_t lo,
                       int64_t hi);

PredicatePtr And(std::vector<PredicatePtr> children);
PredicatePtr Or(std::vector<PredicatePtr> children);
PredicatePtr Not(PredicatePtr child);
PredicatePtr True();

/// A band conjunct of a join's post-join predicate: a probe row whose band
/// column holds p can only join build rows whose band column lies in
/// [p + lo_offset, p + hi_offset] (int64, saturating).
struct JoinBand {
  size_t build_column = 0;  ///< index in the build schema
  size_t probe_column = 0;  ///< index in the probe schema
  int64_t lo_offset = 0;
  int64_t hi_offset = 0;
  /// The other conjuncts, still to be evaluated on the band's rows; null
  /// when the band is the whole predicate.
  PredicatePtr residual;
};

/// Finds the first top-level conjunct of `predicate` (nested ANDs are
/// flattened) of the form DiffRange(a, b, lo, hi) where one of a, b is a
/// build column and the other a probe column, both int32-physical.
/// `joined` is the schema the predicate reads: the `build_width` build
/// fields, then the probe fields. Returns nullopt when there is no such
/// conjunct, and also when the residual fails on `joined` (a missing column
/// or a type error), so such a predicate reports its error from the plain
/// filter path exactly as before.
std::optional<JoinBand> ExtractJoinBand(const PredicatePtr& predicate,
                                        const SchemaPtr& joined,
                                        size_t build_width);

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_EXPR_PREDICATE_H_
