// ColumnVector: a typed, densely packed column of values — the unit of
// vectorized execution throughout the engine.
//
// Fixed-width types live in one std::vector each. A string column is a
// StringColumn: one byte buffer holding every row's bytes back to back,
// plus n + 1 uint32 end offsets (Arrow's variable-size binary layout).
// Rows are read as std::string_view into that buffer, so building a row —
// in a decoder, a gather, a deserialize — copies bytes and never allocates
// per row. A view dies when its column grows or is destroyed.

#ifndef HYBRIDJOIN_TYPES_COLUMN_VECTOR_H_
#define HYBRIDJOIN_TYPES_COLUMN_VECTOR_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.h"
#include "types/data_type.h"
#include "types/value.h"

namespace hybridjoin {

/// std::allocator whose value-initialization is default-initialization, so
/// resizing a byte buffer does not zero the bytes about to be overwritten.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A column of strings: row i is bytes [offsets[i], offsets[i + 1]) of one
/// buffer. An empty column may hold no offsets at all, so constructing one
/// allocates nothing. The buffer is capped at 4 GiB (HJ_CHECK).
class StringColumn {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::string_view;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = std::string_view;

    const_iterator() = default;
    const_iterator(const StringColumn* col, size_t row) : col_(col), row_(row) {}
    std::string_view operator*() const { return (*col_)[row_]; }
    const_iterator& operator++() {
      ++row_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++row_;
      return old;
    }
    bool operator==(const const_iterator& o) const { return row_ == o.row_; }

   private:
    const StringColumn* col_ = nullptr;
    size_t row_ = 0;
  };

  size_t size() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  bool empty() const { return size() == 0; }
  /// Bytes of all rows together.
  size_t bytes() const { return offsets_.empty() ? 0 : offsets_.back(); }

  std::string_view operator[](size_t row) const {
    return std::string_view(bytes_.data() + offsets_[row],
                            offsets_[row + 1] - offsets_[row]);
  }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size()); }

  bool operator==(const StringColumn& o) const {
    return size() == o.size() &&
           (empty() ||
            (offsets_ == o.offsets_ &&
             (bytes() == 0 ||
              std::memcmp(bytes_.data(), o.bytes_.data(), bytes()) == 0)));
  }

  void reserve(size_t rows) { offsets_.reserve(rows + 1); }
  void Reserve(size_t rows, size_t bytes) {
    reserve(rows);
    bytes_.reserve(bytes);
  }
  /// Empties the column and keeps both allocations.
  void clear() {
    offsets_.clear();
    bytes_.clear();
  }

  /// Appends a copy of `s`, which must not view this column's own bytes.
  void push_back(std::string_view s) { WriteRow(BeginWrite(s.size(), 0), s); }

  /// Appends row `row` of `src`, which may be this column.
  void AppendFrom(const StringColumn& src, size_t row) {
    char* dst = BeginWrite(src.offsets_[row + 1] - src.offsets_[row], 0);
    // View src only now: growing this column may have moved its bytes.
    WriteRow(dst, src[row]);
  }

  /// Appends rows[0..n) of `src`, which may be this column. Both arrays
  /// grow at most once: to the exact size when empty, else at least
  /// doubling, so repeated appends stay amortized.
  void GatherAppendFrom(const StringColumn& src, const uint32_t* rows,
                        size_t n) {
    if (n == 0) return;
    size_t total = 0;
    for (size_t j = 0; j < n; ++j) {
      total += src.offsets_[rows[j] + 1] - src.offsets_[rows[j]];
    }
    if (size() + n + 1 > offsets_.capacity()) {
      reserve(std::max(size() + n, 2 * size()));
    }
    char* dst = BeginWrite(total, 0);
    for (size_t j = 0; j < n; ++j) dst = WriteRow(dst, src[rows[j]]);
  }

  /// Appends rows [offset, offset + n) of `src`, another column, as one
  /// byte range; grows like GatherAppendFrom.
  void AppendRange(const StringColumn& src, size_t offset, size_t n) {
    if (n == 0) return;
    const uint32_t lo = src.offsets_[offset];
    const uint32_t hi = src.offsets_[offset + n];
    if (size() + n + 1 > offsets_.capacity()) {
      reserve(std::max(size() + n, 2 * size()));
    }
    char* dst = BeginWrite(hi - lo, 0);
    if (hi > lo) std::memcpy(dst, src.bytes_.data() + lo, hi - lo);
    const uint32_t base = static_cast<uint32_t>(dst - bytes_.data()) - lo;
    for (size_t i = 1; i <= n; ++i) {
      offsets_.push_back(src.offsets_[offset + i] + base);
    }
  }

  // In-place appends, for writers that know the byte total of the rows
  // they add: BeginWrite(bytes, slack) makes room for `bytes` more bytes of
  // rows plus `slack` bytes past them that the writer may overwrite, and
  // returns where the next row goes. Write the rows there back to back,
  // each with WriteRow or by hand ended with EndRow(one past its last
  // byte); the next BeginWrite or FinishWrite drops the slack. reserve()
  // the rows first so that ending a row does not reallocate.

  char* BeginWrite(size_t bytes, size_t slack) {
    if (offsets_.empty()) offsets_.push_back(0);
    const size_t at = offsets_.back();
    HJ_CHECK(at + bytes <= UINT32_MAX) << "string column past 4 GiB";
    bytes_.resize(at + bytes + slack);
    return bytes_.data() + at;
  }
  void EndRow(const char* end) {
    offsets_.push_back(static_cast<uint32_t>(end - bytes_.data()));
    HJ_DCHECK(offsets_.back() <= bytes_.size());
  }
  void FinishWrite() { bytes_.resize(bytes()); }
  /// Copies `s` to `dst` as the next row; returns where the row after it
  /// goes.
  char* WriteRow(char* dst, std::string_view s) {
    // memcpy must not see the null data() of an empty view or buffer.
    if (!s.empty()) std::memcpy(dst, s.data(), s.size());
    dst += s.size();
    EndRow(dst);
    return dst;
  }

 private:
  std::vector<uint32_t> offsets_;  // empty, or size() + 1 ascending ends
  std::vector<char, DefaultInitAllocator<char>> bytes_;
};

/// A single column. Physical storage is selected by the logical type
/// (dates/times live in the int32 vector).
class ColumnVector {
 public:
  explicit ColumnVector(DataType type = DataType::kInt32) : type_(type) {
    switch (PhysicalTypeOf(type_)) {
      case PhysicalType::kInt32:
        data_.emplace<std::vector<int32_t>>();
        break;
      case PhysicalType::kInt64:
        data_.emplace<std::vector<int64_t>>();
        break;
      case PhysicalType::kFloat64:
        data_.emplace<std::vector<double>>();
        break;
      case PhysicalType::kString:
        data_.emplace<StringColumn>();
        break;
    }
  }

  DataType type() const { return type_; }
  PhysicalType physical_type() const { return PhysicalTypeOf(type_); }

  size_t size() const {
    return std::visit([](const auto& v) { return v.size(); }, data_);
  }

  /// Reserves room for `n` rows (a string column's offsets only).
  void Reserve(size_t n) {
    std::visit([n](auto& v) { v.reserve(n); }, data_);
  }
  /// Empties the column and keeps its allocations.
  void Clear() {
    std::visit([](auto& v) { v.clear(); }, data_);
  }

  // Typed accessors. HJ_CHECK on physical-type mismatch.
  const std::vector<int32_t>& i32() const {
    return std::get<std::vector<int32_t>>(data_);
  }
  const std::vector<int64_t>& i64() const {
    return std::get<std::vector<int64_t>>(data_);
  }
  const std::vector<double>& f64() const {
    return std::get<std::vector<double>>(data_);
  }
  const StringColumn& str() const { return std::get<StringColumn>(data_); }
  std::vector<int32_t>& mutable_i32() {
    return std::get<std::vector<int32_t>>(data_);
  }
  std::vector<int64_t>& mutable_i64() {
    return std::get<std::vector<int64_t>>(data_);
  }
  std::vector<double>& mutable_f64() {
    return std::get<std::vector<double>>(data_);
  }
  StringColumn& mutable_str() { return std::get<StringColumn>(data_); }

  /// Generic cell read (slow path; for tests and result rendering).
  Value GetValue(size_t row) const {
    switch (physical_type()) {
      case PhysicalType::kInt32:
        return Value(i32()[row]);
      case PhysicalType::kInt64:
        return Value(i64()[row]);
      case PhysicalType::kFloat64:
        return Value(f64()[row]);
      case PhysicalType::kString:
        return Value(std::string(str()[row]));
    }
    return Value();
  }

  /// Generic cell append (slow path).
  void AppendValue(const Value& v) {
    switch (physical_type()) {
      case PhysicalType::kInt32:
        mutable_i32().push_back(v.as_int32());
        break;
      case PhysicalType::kInt64:
        mutable_i64().push_back(v.as_int64());
        break;
      case PhysicalType::kFloat64:
        mutable_f64().push_back(v.as_float64());
        break;
      case PhysicalType::kString:
        mutable_str().push_back(v.as_string());
        break;
    }
  }

  /// Appends row `row` of `src` (same physical type; may be this column).
  void AppendFrom(const ColumnVector& src, size_t row) {
    HJ_DCHECK(physical_type() == src.physical_type());
    switch (physical_type()) {
      case PhysicalType::kInt32:
        mutable_i32().push_back(src.i32()[row]);
        break;
      case PhysicalType::kInt64:
        mutable_i64().push_back(src.i64()[row]);
        break;
      case PhysicalType::kFloat64:
        mutable_f64().push_back(src.f64()[row]);
        break;
      case PhysicalType::kString:
        mutable_str().AppendFrom(src.str(), row);
        break;
    }
  }

  /// Appends rows[0..n) of `src` (same physical type) to this column — the
  /// column-at-a-time form of AppendFrom: one type dispatch per column
  /// instead of one per cell.
  void GatherAppendFrom(const ColumnVector& src, const uint32_t* rows,
                        size_t n) {
    HJ_DCHECK(physical_type() == src.physical_type());
    switch (physical_type()) {
      case PhysicalType::kInt32:
        GatherInto(src.i32(), rows, n, &mutable_i32());
        break;
      case PhysicalType::kInt64:
        GatherInto(src.i64(), rows, n, &mutable_i64());
        break;
      case PhysicalType::kFloat64:
        GatherInto(src.f64(), rows, n, &mutable_f64());
        break;
      case PhysicalType::kString:
        mutable_str().GatherAppendFrom(src.str(), rows, n);
        break;
    }
  }

  /// Appends rows [offset, offset + n) of `src` (same physical type,
  /// another column): one copy of the values or of the string bytes.
  void AppendRange(const ColumnVector& src, size_t offset, size_t n) {
    std::visit(
        [&](auto& out) {
          const auto& in = std::get<std::decay_t<decltype(out)>>(src.data_);
          if constexpr (std::is_same_v<decltype(in), const StringColumn&>) {
            out.AppendRange(in, offset, n);
          } else {
            out.insert(out.end(), in.begin() + offset, in.begin() + offset + n);
          }
        },
        data_);
  }

  /// Returns a new column with only the rows whose indexes appear in `sel`.
  ColumnVector Gather(const std::vector<uint32_t>& sel) const {
    ColumnVector out(type_);
    out.GatherAppendFrom(*this, sel.data(), sel.size());
    return out;
  }

  /// In-memory / wire footprint in bytes: a string row counts its bytes
  /// plus two.
  size_t ByteSize() const {
    switch (physical_type()) {
      case PhysicalType::kInt32:
        return i32().size() * 4;
      case PhysicalType::kInt64:
        return i64().size() * 8;
      case PhysicalType::kFloat64:
        return f64().size() * 8;
      case PhysicalType::kString:
        return str().bytes() + 2 * str().size();
    }
    return 0;
  }

 private:
  template <typename T>
  static void GatherInto(const std::vector<T>& in, const uint32_t* rows,
                         size_t n, std::vector<T>* out) {
    // A self-gather reads `in` by index, so growing `out` first is safe.
    const size_t at = out->size();
    out->resize(at + n);
    const T* src = in.data();
    T* dst = out->data() + at;
    for (size_t j = 0; j < n; ++j) dst[j] = src[rows[j]];
  }

  DataType type_;
  std::variant<std::vector<int32_t>, std::vector<int64_t>,
               std::vector<double>, StringColumn>
      data_;
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_TYPES_COLUMN_VECTOR_H_
