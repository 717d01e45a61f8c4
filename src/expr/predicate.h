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

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
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
// Filter kernels, shared with the columnar scan (hdfs/format.cc).
// ---------------------------------------------------------------------------

/// Keeps the rows r of `sel` with keep(r), in order. Every row is written
/// and the output position advances only past kept ones, so the loop does
/// not branch on the outcome.
template <typename Keep>
void NarrowSelection(std::vector<uint32_t>* sel, Keep&& keep) {
  uint32_t* rows = sel->data();
  size_t out = 0;
  for (size_t i = 0, n = sel->size(); i < n; ++i) {
    const uint32_t r = rows[i];
    rows[out] = r;
    out += keep(r) ? 1 : 0;
  }
  sel->resize(out);
}

/// `v <op> literal` over the values v of integer type T as one range test
/// in T's unsigned twin U: v passes when (U(v) - lo <= span) != negate,
/// modulo 2^bits. The op is data, so a filter loop has no branch on it.
template <typename T>
struct IntCmpTest {
  using U = std::make_unsigned_t<T>;
  U lo = 0;
  U span = std::numeric_limits<U>::max();
  bool negate = false;

  /// The test for `op literal`, with `literal` outside T clamped exactly.
  static IntCmpTest Make(CmpOp op, int64_t literal) {
    constexpr int64_t kMin = std::numeric_limits<T>::min();
    constexpr int64_t kMax = std::numeric_limits<T>::max();
    // The passing values are [lo, hi] within T, or none of T (`none`);
    // kNe negates kEq.
    int64_t lo = kMin, hi = kMax;
    bool none = false;
    IntCmpTest test;
    switch (op) {
      case CmpOp::kNe:
        test.negate = true;
        [[fallthrough]];
      case CmpOp::kEq:
        none = literal < kMin || literal > kMax;
        lo = hi = literal;
        break;
      case CmpOp::kLt:
        none = literal <= kMin;
        if (!none) hi = std::min(literal - 1, kMax);
        break;
      case CmpOp::kLe:
        none = literal < kMin;
        hi = std::min(literal, kMax);
        break;
      case CmpOp::kGt:
        none = literal >= kMax;
        if (!none) lo = std::max(literal + 1, kMin);
        break;
      case CmpOp::kGe:
        none = literal > kMax;
        lo = std::max(literal, kMin);
        break;
    }
    if (none) {
      // The full range, negated: nothing passes (everything, for kNe).
      test.negate = !test.negate;
      return test;
    }
    test.lo = static_cast<U>(static_cast<T>(lo));
    test.span = static_cast<U>(static_cast<U>(static_cast<T>(hi)) - test.lo);
    return test;
  }

  bool operator()(U v) const {
    return (static_cast<U>(v - lo) <= span) != negate;
  }

  /// The same test on v + base (mod 2^bits): a kFor chunk's packed deltas
  /// are compared against literal - base.
  IntCmpTest Rebased(U base) const {
    IntCmpTest test = *this;
    test.lo = static_cast<U>(lo - base);
    return test;
  }

  /// Whether every value in [0, max] passes, none does, or it depends on
  /// the value. The values in the range are the cyclic interval
  /// [lo, lo + span].
  enum class Outcome { kNone, kSome, kAll };
  Outcome Decide(U max) const {
    const U from_zero = static_cast<U>(U{0} - lo);  // where 0 sits in it
    const bool all_in = span >= max && from_zero <= span - max;
    const bool none_in = lo > max && span < from_zero;
    if (all_in) return negate ? Outcome::kNone : Outcome::kAll;
    if (none_in) return negate ? Outcome::kAll : Outcome::kNone;
    return Outcome::kSome;
  }
};

/// Narrows `sel` to the rows of `column` whose value passes `op literal`
/// (IntCmpTest). InvalidArgument unless the column is integer-physical.
Status NarrowIntColumn(const ColumnVector& column, CmpOp op, int64_t literal,
                       std::vector<uint32_t>* sel);

/// A scan predicate split for columnar evaluation. `pushed` holds its
/// top-level conjuncts (nested ANDs flattened) of the form `column <op>
/// integer literal` over an integer-physical column; `residual` is the AND
/// of the other conjuncts, null when there is none. A row passes the
/// predicate exactly when it passes every pushed conjunct and the residual.
struct PushdownSplit {
  std::vector<ConjunctiveIntCmp> pushed;
  PredicatePtr residual;
};

/// Splits `predicate` (null: nothing to split) over the columns of
/// `schema`. When a conjunct fails on `schema` (a missing column or a type
/// error), nothing is pushed and the whole predicate is the residual, so
/// it reports the error exactly as unsplit.
PushdownSplit SplitPushdown(const PredicatePtr& predicate,
                            const SchemaPtr& schema);

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
