#include "expr/predicate.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <string_view>

namespace hybridjoin {

namespace {

enum class PredTag : uint8_t {
  kTrue = 0,
  kCmp = 1,
  kStrPrefix = 2,
  kDiffRange = 3,
  kAnd = 4,
  kOr = 5,
  kNot = 6,
};

enum class LitTag : uint8_t {
  kInt32 = 0,
  kInt64 = 1,
  kFloat64 = 2,
  kString = 3,
};

void SerializeValue(const Value& v, BinaryWriter* out) {
  if (v.is_int32()) {
    out->PutU8(static_cast<uint8_t>(LitTag::kInt32));
    out->PutI32(v.as_int32());
  } else if (v.is_int64()) {
    out->PutU8(static_cast<uint8_t>(LitTag::kInt64));
    out->PutI64(v.as_int64());
  } else if (v.is_float64()) {
    out->PutU8(static_cast<uint8_t>(LitTag::kFloat64));
    out->PutF64(v.as_float64());
  } else {
    out->PutU8(static_cast<uint8_t>(LitTag::kString));
    out->PutString(v.as_string());
  }
}

Result<Value> DeserializeValue(BinaryReader* in) {
  HJ_ASSIGN_OR_RETURN(uint8_t tag, in->GetU8());
  switch (static_cast<LitTag>(tag)) {
    case LitTag::kInt32: {
      HJ_ASSIGN_OR_RETURN(int32_t v, in->GetI32());
      return Value(v);
    }
    case LitTag::kInt64: {
      HJ_ASSIGN_OR_RETURN(int64_t v, in->GetI64());
      return Value(v);
    }
    case LitTag::kFloat64: {
      HJ_ASSIGN_OR_RETURN(double v, in->GetF64());
      return Value(v);
    }
    case LitTag::kString: {
      HJ_ASSIGN_OR_RETURN(std::string v, in->GetString());
      return Value(std::move(v));
    }
  }
  return Status::IOError("bad literal tag in predicate");
}

/// Narrows `sel` to the rows r with `value(r) <op> literal`: one
/// branch-free loop per op.
template <typename ValueAt, typename Lit>
void NarrowCmp(CmpOp op, ValueAt&& value, const Lit& literal,
               std::vector<uint32_t>* sel) {
  auto narrow = [&](auto cmp) {
    NarrowSelection(sel, [&](uint32_t r) { return cmp(value(r), literal); });
  };
  switch (op) {
    case CmpOp::kEq:
      return narrow(std::equal_to<>());
    case CmpOp::kNe:
      return narrow(std::not_equal_to<>());
    case CmpOp::kLt:
      return narrow(std::less<>());
    case CmpOp::kLe:
      return narrow(std::less_equal<>());
    case CmpOp::kGt:
      return narrow(std::greater<>());
    case CmpOp::kGe:
      return narrow(std::greater_equal<>());
  }
}

template <typename T>
void NarrowInts(const std::vector<T>& data, CmpOp op, int64_t literal,
                std::vector<uint32_t>* sel) {
  using U = std::make_unsigned_t<T>;
  const IntCmpTest<T> test = IntCmpTest<T>::Make(op, literal);
  const T* values = data.data();
  NarrowSelection(sel,
                  [&](uint32_t r) { return test(static_cast<U>(values[r])); });
}

class TruePredicate final : public Predicate {
 public:
  Status Filter(const RecordBatch&, std::vector<uint32_t>*) const override {
    return Status::OK();
  }
  void SerializeTo(BinaryWriter* out) const override {
    out->PutU8(static_cast<uint8_t>(PredTag::kTrue));
  }
  std::string ToString() const override { return "TRUE"; }
  void CollectColumns(std::vector<std::string>*) const override {}
  bool IsConjunctiveIntCmps() const override { return true; }
};

class CmpPredicate final : public Predicate {
 public:
  CmpPredicate(std::string column, CmpOp op, Value literal)
      : column_(std::move(column)), op_(op), literal_(std::move(literal)) {}

  Status Filter(const RecordBatch& batch,
                std::vector<uint32_t>* sel) const override {
    HJ_ASSIGN_OR_RETURN(size_t col, batch.schema()->IndexOf(column_));
    const ColumnVector& cv = batch.column(col);
    switch (cv.physical_type()) {
      case PhysicalType::kInt32:
      case PhysicalType::kInt64: {
        if (!literal_.is_int32() && !literal_.is_int64()) {
          return Status::InvalidArgument(
              std::string("non-integer literal vs ") +
              (cv.physical_type() == PhysicalType::kInt32 ? "int32" : "int64") +
              " col '" + column_ + "'");
        }
        return NarrowIntColumn(cv, op_, literal_.AsInt64Lenient(), sel);
      }
      case PhysicalType::kFloat64: {
        if (!literal_.is_float64()) {
          return Status::InvalidArgument("non-double literal vs float64 col '" +
                                         column_ + "'");
        }
        const double* data = cv.f64().data();
        NarrowCmp(op_, [data](uint32_t r) { return data[r]; },
                  literal_.as_float64(), sel);
        return Status::OK();
      }
      case PhysicalType::kString: {
        if (!literal_.is_string()) {
          return Status::InvalidArgument("non-string literal vs string col '" +
                                         column_ + "'");
        }
        const StringColumn& data = cv.str();
        NarrowCmp(op_, [&data](uint32_t r) { return data[r]; },
                  std::string_view(literal_.as_string()), sel);
        return Status::OK();
      }
    }
    return Status::OK();
  }

  void SerializeTo(BinaryWriter* out) const override {
    out->PutU8(static_cast<uint8_t>(PredTag::kCmp));
    out->PutString(column_);
    out->PutU8(static_cast<uint8_t>(op_));
    SerializeValue(literal_, out);
  }

  std::string ToString() const override {
    return column_ + " " + CmpOpName(op_) + " " +
           (literal_.is_string() ? "'" + literal_.ToString() + "'"
                                 : literal_.ToString());
  }

  void CollectConjunctiveIntCmps(
      std::vector<ConjunctiveIntCmp>* out) const override {
    if (literal_.is_int32() || literal_.is_int64()) {
      out->push_back({column_, op_, literal_.AsInt64Lenient()});
    }
  }

  void CollectColumns(std::vector<std::string>* out) const override {
    out->push_back(column_);
  }

  bool IsConjunctiveIntCmps() const override {
    return literal_.is_int32() || literal_.is_int64();
  }

 private:
  std::string column_;
  CmpOp op_;
  Value literal_;
};

class StrPrefixPredicate final : public Predicate {
 public:
  StrPrefixPredicate(std::string column, std::string prefix)
      : column_(std::move(column)), prefix_(std::move(prefix)) {}

  Status Filter(const RecordBatch& batch,
                std::vector<uint32_t>* sel) const override {
    HJ_ASSIGN_OR_RETURN(size_t col, batch.schema()->IndexOf(column_));
    const ColumnVector& cv = batch.column(col);
    if (cv.physical_type() != PhysicalType::kString) {
      return Status::InvalidArgument("prefix predicate on non-string column '" +
                                     column_ + "'");
    }
    const StringColumn& data = cv.str();
    NarrowSelection(sel,
                    [&](uint32_t r) { return data[r].starts_with(prefix_); });
    return Status::OK();
  }

  void SerializeTo(BinaryWriter* out) const override {
    out->PutU8(static_cast<uint8_t>(PredTag::kStrPrefix));
    out->PutString(column_);
    out->PutString(prefix_);
  }

  std::string ToString() const override {
    return column_ + " LIKE '" + prefix_ + "%'";
  }

  void CollectColumns(std::vector<std::string>* out) const override {
    out->push_back(column_);
  }

 private:
  std::string column_;
  std::string prefix_;
};

class DiffRangePredicate final : public Predicate {
 public:
  DiffRangePredicate(std::string col_a, std::string col_b, int64_t lo,
                     int64_t hi)
      : col_a_(std::move(col_a)), col_b_(std::move(col_b)), lo_(lo), hi_(hi) {}

  Status Filter(const RecordBatch& batch,
                std::vector<uint32_t>* sel) const override {
    HJ_ASSIGN_OR_RETURN(size_t a, batch.schema()->IndexOf(col_a_));
    HJ_ASSIGN_OR_RETURN(size_t b, batch.schema()->IndexOf(col_b_));
    const ColumnVector& ca = batch.column(a);
    const ColumnVector& cb = batch.column(b);
    if (ca.physical_type() != PhysicalType::kInt32 ||
        cb.physical_type() != PhysicalType::kInt32) {
      return Status::InvalidArgument("DiffRange requires int32 columns");
    }
    const int32_t* da = ca.i32().data();
    const int32_t* db = cb.i32().data();
    NarrowSelection(sel, [&](uint32_t r) {
      const int64_t diff =
          static_cast<int64_t>(da[r]) - static_cast<int64_t>(db[r]);
      return diff >= lo_ && diff <= hi_;
    });
    return Status::OK();
  }

  void SerializeTo(BinaryWriter* out) const override {
    out->PutU8(static_cast<uint8_t>(PredTag::kDiffRange));
    out->PutString(col_a_);
    out->PutString(col_b_);
    out->PutSignedVarint(lo_);
    out->PutSignedVarint(hi_);
  }

  std::string ToString() const override {
    return col_a_ + " - " + col_b_ + " BETWEEN " + std::to_string(lo_) +
           " AND " + std::to_string(hi_);
  }

  void CollectColumns(std::vector<std::string>* out) const override {
    out->push_back(col_a_);
    out->push_back(col_b_);
  }

  const std::string& col_a() const { return col_a_; }
  const std::string& col_b() const { return col_b_; }
  int64_t lo() const { return lo_; }
  int64_t hi() const { return hi_; }

 private:
  std::string col_a_;
  std::string col_b_;
  int64_t lo_;
  int64_t hi_;
};

class CompoundPredicate final : public Predicate {
 public:
  enum class Kind { kAnd, kOr };
  CompoundPredicate(Kind kind, std::vector<PredicatePtr> children)
      : kind_(kind), children_(std::move(children)) {}

  Status Filter(const RecordBatch& batch,
                std::vector<uint32_t>* sel) const override {
    if (kind_ == Kind::kAnd) {
      for (const auto& child : children_) {
        HJ_RETURN_IF_ERROR(child->Filter(batch, sel));
        if (sel->empty()) break;
      }
      return Status::OK();
    }
    // OR: union of children's survivors, preserving input order.
    std::vector<uint32_t> survivors;
    for (const auto& child : children_) {
      std::vector<uint32_t> branch = *sel;
      HJ_RETURN_IF_ERROR(child->Filter(batch, &branch));
      survivors.insert(survivors.end(), branch.begin(), branch.end());
    }
    std::sort(survivors.begin(), survivors.end());
    survivors.erase(std::unique(survivors.begin(), survivors.end()),
                    survivors.end());
    *sel = std::move(survivors);
    return Status::OK();
  }

  void SerializeTo(BinaryWriter* out) const override {
    out->PutU8(static_cast<uint8_t>(kind_ == Kind::kAnd ? PredTag::kAnd
                                                        : PredTag::kOr));
    out->PutVarint(children_.size());
    for (const auto& child : children_) child->SerializeTo(out);
  }

  void CollectConjunctiveIntCmps(
      std::vector<ConjunctiveIntCmp>* out) const override {
    if (kind_ != Kind::kAnd) return;  // OR branches are not conjuncts.
    for (const auto& child : children_) {
      child->CollectConjunctiveIntCmps(out);
    }
  }

  void CollectColumns(std::vector<std::string>* out) const override {
    for (const auto& child : children_) child->CollectColumns(out);
  }

  bool IsConjunctiveIntCmps() const override {
    if (kind_ != Kind::kAnd) return false;
    for (const auto& child : children_) {
      if (!child->IsConjunctiveIntCmps()) return false;
    }
    return true;
  }

  std::string ToString() const override {
    std::string sep = kind_ == Kind::kAnd ? " AND " : " OR ";
    std::string out = "(";
    for (size_t i = 0; i < children_.size(); ++i) {
      if (i > 0) out += sep;
      out += children_[i]->ToString();
    }
    return out + ")";
  }

  Kind kind() const { return kind_; }
  const std::vector<PredicatePtr>& children() const { return children_; }

 private:
  Kind kind_;
  std::vector<PredicatePtr> children_;
};

class NotPredicate final : public Predicate {
 public:
  explicit NotPredicate(PredicatePtr child) : child_(std::move(child)) {}

  Status Filter(const RecordBatch& batch,
                std::vector<uint32_t>* sel) const override {
    std::vector<uint32_t> pass = *sel;
    HJ_RETURN_IF_ERROR(child_->Filter(batch, &pass));
    // Complement of `pass` within `sel` (both ascending subsequences of sel).
    std::vector<uint32_t> out;
    out.reserve(sel->size() - pass.size());
    size_t pi = 0;
    for (uint32_t r : *sel) {
      if (pi < pass.size() && pass[pi] == r) {
        ++pi;
      } else {
        out.push_back(r);
      }
    }
    *sel = std::move(out);
    return Status::OK();
  }

  void SerializeTo(BinaryWriter* out) const override {
    out->PutU8(static_cast<uint8_t>(PredTag::kNot));
    child_->SerializeTo(out);
  }

  std::string ToString() const override {
    return "NOT " + child_->ToString();
  }

  void CollectColumns(std::vector<std::string>* out) const override {
    child_->CollectColumns(out);
  }

 private:
  PredicatePtr child_;
};

/// Appends the conjuncts of `p`, flattening nested ANDs.
void FlattenConjuncts(const PredicatePtr& p, std::vector<PredicatePtr>* out) {
  const auto* compound = dynamic_cast<const CompoundPredicate*>(p.get());
  if (compound == nullptr || compound->kind() != CompoundPredicate::Kind::kAnd) {
    out->push_back(p);
    return;
  }
  for (const PredicatePtr& child : compound->children()) {
    FlattenConjuncts(child, out);
  }
}

/// -v, saturating: -INT64_MIN becomes INT64_MAX. Off by one there, but a
/// band offset that large puts the bound past every int32 either way.
int64_t SatNeg(int64_t v) {
  return v == std::numeric_limits<int64_t>::min()
             ? std::numeric_limits<int64_t>::max()
             : -v;
}

}  // namespace

Status NarrowIntColumn(const ColumnVector& column, CmpOp op, int64_t literal,
                       std::vector<uint32_t>* sel) {
  switch (column.physical_type()) {
    case PhysicalType::kInt32:
      NarrowInts(column.i32(), op, literal, sel);
      return Status::OK();
    case PhysicalType::kInt64:
      NarrowInts(column.i64(), op, literal, sel);
      return Status::OK();
    default:
      return Status::InvalidArgument("integer comparison on a " +
                                     std::string(DataTypeName(column.type())) +
                                     " column");
  }
}

PushdownSplit SplitPushdown(const PredicatePtr& predicate,
                            const SchemaPtr& schema) {
  PushdownSplit split;
  if (predicate == nullptr) return split;
  std::vector<PredicatePtr> conjuncts;
  FlattenConjuncts(predicate, &conjuncts);
  const RecordBatch empty(schema);
  std::vector<PredicatePtr> rest;
  for (const PredicatePtr& p : conjuncts) {
    if (!p->FilterAll(empty).ok()) return {{}, predicate};
    // An integer literal passed the check above only against an integer
    // column.
    const auto* cmp = dynamic_cast<const CmpPredicate*>(p.get());
    if (cmp != nullptr && cmp->IsConjunctiveIntCmps()) {
      cmp->CollectConjunctiveIntCmps(&split.pushed);
    } else if (dynamic_cast<const TruePredicate*>(p.get()) == nullptr) {
      rest.push_back(p);
    }
  }
  if (rest.size() == 1) {
    split.residual = rest.front();
  } else if (rest.size() > 1) {
    split.residual = And(std::move(rest));
  }
  return split;
}

std::optional<JoinBand> ExtractJoinBand(const PredicatePtr& predicate,
                                        const SchemaPtr& joined,
                                        size_t build_width) {
  if (predicate == nullptr) return std::nullopt;
  std::vector<PredicatePtr> conjuncts;
  FlattenConjuncts(predicate, &conjuncts);
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const auto* diff =
        dynamic_cast<const DiffRangePredicate*>(conjuncts[i].get());
    if (diff == nullptr) continue;
    auto a = joined->IndexOf(diff->col_a());
    auto b = joined->IndexOf(diff->col_b());
    if (!a.ok() || !b.ok()) continue;
    if (PhysicalTypeOf(joined->field(*a).type) != PhysicalType::kInt32 ||
        PhysicalTypeOf(joined->field(*b).type) != PhysicalType::kInt32) {
      continue;
    }
    const bool a_build = *a < build_width;
    if (a_build == (*b < build_width)) continue;  // both on one side
    JoinBand band;
    if (a_build) {
      // lo <= x - p <= hi  <=>  p + lo <= x <= p + hi
      band.build_column = *a;
      band.probe_column = *b - build_width;
      band.lo_offset = diff->lo();
      band.hi_offset = diff->hi();
    } else {
      // lo <= p - x <= hi  <=>  p - hi <= x <= p - lo
      band.build_column = *b;
      band.probe_column = *a - build_width;
      band.lo_offset = SatNeg(diff->hi());
      band.hi_offset = SatNeg(diff->lo());
    }
    std::vector<PredicatePtr> rest = conjuncts;
    rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i));
    // Every other conjunct must evaluate on the joined schema (checked one
    // by one: AND stops at its first empty selection). One that fails
    // keeps the whole predicate on the plain path, which reports it.
    const RecordBatch empty(joined);
    for (const PredicatePtr& p : rest) {
      if (!p->FilterAll(empty).ok()) return std::nullopt;
    }
    if (rest.size() == 1) {
      band.residual = rest.front();
    } else if (rest.size() > 1) {
      band.residual = And(std::move(rest));
    }
    return band;
  }
  return std::nullopt;
}

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "<>";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

PredicatePtr Cmp(std::string column, CmpOp op, Value literal) {
  return std::make_shared<CmpPredicate>(std::move(column), op,
                                        std::move(literal));
}

PredicatePtr StrPrefix(std::string column, std::string prefix) {
  return std::make_shared<StrPrefixPredicate>(std::move(column),
                                              std::move(prefix));
}

PredicatePtr DiffRange(std::string col_a, std::string col_b, int64_t lo,
                       int64_t hi) {
  return std::make_shared<DiffRangePredicate>(std::move(col_a),
                                              std::move(col_b), lo, hi);
}

PredicatePtr And(std::vector<PredicatePtr> children) {
  return std::make_shared<CompoundPredicate>(CompoundPredicate::Kind::kAnd,
                                             std::move(children));
}

PredicatePtr Or(std::vector<PredicatePtr> children) {
  return std::make_shared<CompoundPredicate>(CompoundPredicate::Kind::kOr,
                                             std::move(children));
}

PredicatePtr Not(PredicatePtr child) {
  return std::make_shared<NotPredicate>(std::move(child));
}

PredicatePtr True() { return std::make_shared<TruePredicate>(); }

Result<PredicatePtr> Predicate::Deserialize(BinaryReader* in) {
  HJ_ASSIGN_OR_RETURN(uint8_t tag, in->GetU8());
  switch (static_cast<PredTag>(tag)) {
    case PredTag::kTrue:
      return True();
    case PredTag::kCmp: {
      HJ_ASSIGN_OR_RETURN(std::string column, in->GetString());
      HJ_ASSIGN_OR_RETURN(uint8_t op, in->GetU8());
      if (op > static_cast<uint8_t>(CmpOp::kGe)) {
        return Status::IOError("bad CmpOp in predicate wire form");
      }
      HJ_ASSIGN_OR_RETURN(Value lit, DeserializeValue(in));
      return Cmp(std::move(column), static_cast<CmpOp>(op), std::move(lit));
    }
    case PredTag::kStrPrefix: {
      HJ_ASSIGN_OR_RETURN(std::string column, in->GetString());
      HJ_ASSIGN_OR_RETURN(std::string prefix, in->GetString());
      return StrPrefix(std::move(column), std::move(prefix));
    }
    case PredTag::kDiffRange: {
      HJ_ASSIGN_OR_RETURN(std::string a, in->GetString());
      HJ_ASSIGN_OR_RETURN(std::string b, in->GetString());
      HJ_ASSIGN_OR_RETURN(int64_t lo, in->GetSignedVarint());
      HJ_ASSIGN_OR_RETURN(int64_t hi, in->GetSignedVarint());
      return DiffRange(std::move(a), std::move(b), lo, hi);
    }
    case PredTag::kAnd:
    case PredTag::kOr: {
      HJ_ASSIGN_OR_RETURN(uint64_t n, in->GetVarint());
      if (n > 1024) return Status::IOError("predicate fan-in too large");
      std::vector<PredicatePtr> children;
      children.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        HJ_ASSIGN_OR_RETURN(PredicatePtr child, Deserialize(in));
        children.push_back(std::move(child));
      }
      return static_cast<PredTag>(tag) == PredTag::kAnd
                 ? And(std::move(children))
                 : Or(std::move(children));
    }
    case PredTag::kNot: {
      HJ_ASSIGN_OR_RETURN(PredicatePtr child, Deserialize(in));
      return Not(std::move(child));
    }
  }
  return Status::IOError("bad predicate tag");
}

}  // namespace hybridjoin
