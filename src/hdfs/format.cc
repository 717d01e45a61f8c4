#include "hdfs/format.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <numeric>
#include <optional>
#include <type_traits>
#include <unordered_map>

#include "common/binary_io.h"
#include "common/check.h"
#include "expr/scalar_functions.h"

namespace hybridjoin {

const char* HdfsFormatName(HdfsFormat format) {
  switch (format) {
    case HdfsFormat::kText:
      return "text";
    case HdfsFormat::kColumnar:
      return "columnar";
  }
  return "unknown";
}

const char* ColEncodingName(ColEncoding enc) {
  switch (enc) {
    case ColEncoding::kPlain:
      return "plain";
    case ColEncoding::kRle:
      return "rle";
    case ColEncoding::kDict:
      return "dict";
    case ColEncoding::kFor:
      return "for";
    case ColEncoding::kFsst:
      return "fsst";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Text format
// ---------------------------------------------------------------------------

namespace {

void AppendInt(std::string* out, int64_t v) {
  char buf[24];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  out->append(buf, ptr - buf);
}

void AppendDate(std::string* out, int32_t days) {
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  out->append(buf);
}

void AppendTime(std::string* out, int32_t seconds) {
  char buf[12];
  std::snprintf(buf, sizeof(buf), "%02d:%02d:%02d", seconds / 3600,
                (seconds / 60) % 60, seconds % 60);
  out->append(buf);
}

inline Result<int64_t> ParseInt(const char* begin, const char* end) {
  int64_t v = 0;
  auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc() || ptr != end) {
    return Status::IOError("text: bad integer field '" +
                           std::string(begin, end) + "'");
  }
  return v;
}

inline Result<double> ParseDouble(const char* begin, const char* end) {
  double v = 0;
  auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc() || ptr != end) {
    return Status::IOError("text: bad float field");
  }
  return v;
}

Result<int32_t> ParseDate(const char* begin, const char* end) {
  // yyyy-mm-dd
  if (end - begin != 10 || begin[4] != '-' || begin[7] != '-') {
    return Status::IOError("text: bad date field '" +
                           std::string(begin, end) + "'");
  }
  auto digits = [](const char* p, int n) {
    int v = 0;
    for (int i = 0; i < n; ++i) v = v * 10 + (p[i] - '0');
    return v;
  };
  for (const char* p = begin; p != end; ++p) {
    if (*p != '-' && (*p < '0' || *p > '9')) {
      return Status::IOError("text: bad date digit");
    }
  }
  return DaysFromCivil(digits(begin, 4), digits(begin + 5, 2),
                       digits(begin + 8, 2));
}

Result<int32_t> ParseTime(const char* begin, const char* end) {
  // hh:mm:ss
  if (end - begin != 8 || begin[2] != ':' || begin[5] != ':') {
    return Status::IOError("text: bad time field");
  }
  auto two = [](const char* p) { return (p[0] - '0') * 10 + (p[1] - '0'); };
  return two(begin) * 3600 + two(begin + 3) * 60 + two(begin + 6);
}

}  // namespace

std::vector<uint8_t> EncodeText(const RecordBatch& batch, size_t begin,
                                size_t end) {
  end = std::min(end, batch.num_rows());
  begin = std::min(begin, end);
  std::string out;
  // Rough reserve: 12 bytes per numeric field, strings by size.
  if (batch.num_rows() > 0) {
    out.reserve((batch.ByteSize() * 2 + batch.num_rows() * 2) *
                (end - begin) / batch.num_rows());
  }
  const size_t cols = batch.num_columns();
  for (size_t r = begin; r < end; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) out.push_back('|');
      const ColumnVector& col = batch.column(c);
      switch (col.type()) {
        case DataType::kInt32:
          AppendInt(&out, col.i32()[r]);
          break;
        case DataType::kInt64:
          AppendInt(&out, col.i64()[r]);
          break;
        case DataType::kFloat64: {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.17g", col.f64()[r]);
          out.append(buf);
          break;
        }
        case DataType::kString:
          out.append(col.str()[r]);
          break;
        case DataType::kDate:
          AppendDate(&out, col.i32()[r]);
          break;
        case DataType::kTime:
          AppendTime(&out, col.i32()[r]);
          break;
      }
    }
    out.push_back('\n');
  }
  return std::vector<uint8_t>(out.begin(), out.end());
}

Result<RecordBatch> DecodeText(const uint8_t* data, size_t size,
                               const SchemaPtr& schema,
                               const std::vector<size_t>& projection) {
  // keep[i] = output position of schema column i, or -1 if dropped.
  std::vector<int> keep(schema->num_fields(), -1);
  for (size_t o = 0; o < projection.size(); ++o) {
    if (projection[o] >= schema->num_fields()) {
      return Status::InvalidArgument("projection index out of range");
    }
    keep[projection[o]] = static_cast<int>(o);
  }
  RecordBatch out(schema->Project(projection));

  const char* p = reinterpret_cast<const char*>(data);
  const char* end = p + size;
  const size_t num_fields = schema->num_fields();
  // Size every column once: a row per line, and for a string column at most
  // the block's bytes less each row's separators and newline (the last
  // line's may be missing).
  size_t rows = 0;
  for (const char* q = p; q < end; ++rows) {
    const char* nl = static_cast<const char*>(memchr(q, '\n', end - q));
    q = nl == nullptr ? end : nl + 1;
  }
  const size_t field_bytes = size + 1 - std::min(size + 1, rows * num_fields);
  for (size_t c = 0; c < out.num_columns(); ++c) {
    ColumnVector& col = out.mutable_column(c);
    if (col.physical_type() == PhysicalType::kString) {
      col.mutable_str().Reserve(rows, field_bytes);
    } else {
      col.Reserve(rows);
    }
  }
  while (p < end) {
    const char* line_end =
        static_cast<const char*>(memchr(p, '\n', end - p));
    if (line_end == nullptr) line_end = end;
    // Tokenize the full line (every byte is touched, as with real text
    // scans), converting only the projected fields.
    const char* field = p;
    for (size_t c = 0; c < num_fields; ++c) {
      const char* field_end;
      if (c + 1 == num_fields) {
        field_end = line_end;
      } else {
        field_end = static_cast<const char*>(
            memchr(field, '|', line_end - field));
        if (field_end == nullptr) {
          return Status::IOError("text: row with too few fields");
        }
      }
      const int out_pos = keep[c];
      if (out_pos >= 0) {
        ColumnVector& dst = out.mutable_column(out_pos);
        switch (schema->field(c).type) {
          case DataType::kInt32: {
            HJ_ASSIGN_OR_RETURN(int64_t v, ParseInt(field, field_end));
            dst.mutable_i32().push_back(static_cast<int32_t>(v));
            break;
          }
          case DataType::kInt64: {
            HJ_ASSIGN_OR_RETURN(int64_t v, ParseInt(field, field_end));
            dst.mutable_i64().push_back(v);
            break;
          }
          case DataType::kFloat64: {
            HJ_ASSIGN_OR_RETURN(double v, ParseDouble(field, field_end));
            dst.mutable_f64().push_back(v);
            break;
          }
          case DataType::kString:
            dst.mutable_str().push_back(
                std::string_view(field, field_end - field));
            break;
          case DataType::kDate: {
            HJ_ASSIGN_OR_RETURN(int32_t v, ParseDate(field, field_end));
            dst.mutable_i32().push_back(v);
            break;
          }
          case DataType::kTime: {
            HJ_ASSIGN_OR_RETURN(int32_t v, ParseTime(field, field_end));
            dst.mutable_i32().push_back(v);
            break;
          }
        }
      }
      field = field_end + 1;
    }
    p = line_end + 1;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Columnar format
// ---------------------------------------------------------------------------

namespace {

template <typename T>
std::vector<uint8_t> EncodePlainInts(const std::vector<T>& v) {
  std::vector<uint8_t> out(v.size() * sizeof(T));
  std::memcpy(out.data(), v.data(), out.size());
  return out;
}

template <typename T>
std::vector<uint8_t> EncodeRleInts(const std::vector<T>& v) {
  BinaryWriter w(v.size());
  size_t i = 0;
  while (i < v.size()) {
    size_t j = i + 1;
    while (j < v.size() && v[j] == v[i]) ++j;
    w.PutVarint(j - i);
    w.PutSignedVarint(static_cast<int64_t>(v[i]));
    i = j;
  }
  return w.Release();
}

/// Copies a plain fixed-width chunk's bytes into `out`.
template <typename T>
Status DecodePlain(std::string_view raw, uint32_t num_rows,
                   std::vector<T>* out) {
  if (raw.size() != size_t{num_rows} * sizeof(T)) {
    return Status::IOError("columnar: bad plain chunk size");
  }
  out->resize(num_rows);
  if (num_rows > 0) std::memcpy(out->data(), raw.data(), raw.size());
  return Status::OK();
}

/// Decodes a plain or RLE integer chunk into `out`. RLE runs fill `out`,
/// which is sized to the chunk's rows once.
template <typename T>
Status DecodeInts(ColEncoding encoding, std::string_view raw, uint32_t num_rows,
                  std::vector<T>* out) {
  if (encoding == ColEncoding::kPlain) return DecodePlain(raw, num_rows, out);
  if (encoding != ColEncoding::kRle) {
    return Status::IOError("columnar: bad integer encoding");
  }
  out->resize(num_rows);
  BinaryReader r(raw.data(), raw.size());
  for (size_t filled = 0; filled < num_rows;) {
    uint64_t count;
    int64_t value;
    if (!r.ReadVarint(&count) || !r.ReadSignedVarint(&value)) {
      return Status::IOError("columnar: truncated RLE run");
    }
    if (count == 0 || count > num_rows - filled) {
      return Status::IOError("columnar: bad RLE run");
    }
    std::fill_n(out->data() + filled, count, static_cast<T>(value));
    filled += count;
  }
  if (!r.AtEnd()) return Status::IOError("columnar: RLE trailing bytes");
  return Status::OK();
}

std::vector<uint8_t> EncodePlainStrings(const StringColumn& v) {
  BinaryWriter w(v.bytes() + 2 * v.size());
  for (std::string_view s : v) w.PutString(s);
  return w.Release();
}

/// Dictionary encoding; returns nullopt when the dictionary would not help
/// (too many distinct values).
std::optional<std::vector<uint8_t>> EncodeDictStrings(const StringColumn& v) {
  std::unordered_map<std::string_view, uint32_t> dict;
  std::vector<std::string_view> entries;
  std::vector<uint32_t> codes;
  codes.reserve(v.size());
  for (std::string_view s : v) {
    auto [it, inserted] = dict.try_emplace(s, dict.size());
    if (inserted) {
      entries.push_back(s);
      // Bail out early when the column is nearly unique.
      if (entries.size() > v.size() / 2 + 16) return std::nullopt;
    }
    codes.push_back(it->second);
  }
  BinaryWriter w;
  w.PutVarint(entries.size());
  for (auto e : entries) w.PutString(e);
  for (uint32_t c : codes) w.PutVarint(c);
  return w.Release();
}

// --- Bit packing: kFor values and kFsst end offsets ------------------------

/// Bytes holding `n` values of `width` bits.
size_t PackedBytes(uint64_t n, uint32_t width) {
  return static_cast<size_t>((n * width + 7) / 8);
}

/// Appends `n` values of `width` bits, LSB first, padded with zero bits to a
/// byte; `value(i)` is row i's value and must fit in `width` bits.
template <typename ValueFn>
void AppendPacked(size_t n, uint32_t width, ValueFn value,
                  std::vector<uint8_t>* out) {
  const size_t start = out->size();
  const size_t bytes = PackedBytes(n, width);
  // Nine bytes of slack let each value be OR-ed in with one 8-byte store
  // and, past 56 bits, one more byte.
  out->resize(start + bytes + 9, 0);
  uint8_t* p = out->data() + start;
  if (width > 0) {
    for (size_t i = 0; i < n; ++i) {
      const uint64_t bit = uint64_t{i} * width;
      uint8_t* q = p + (bit >> 3);
      const unsigned shift = bit & 7;
      const uint64_t v = value(i);
      uint64_t word;
      std::memcpy(&word, q, 8);
      word |= v << shift;
      std::memcpy(q, &word, 8);
      if (shift + width > 64) q[8] |= static_cast<uint8_t>(v >> (64 - shift));
    }
  }
  out->resize(start + bytes);
}

/// Random access to values packed by AppendPacked into exactly
/// PackedBytes(n, width) bytes. No read leaves those bytes.
class PackedReader {
 public:
  PackedReader(const uint8_t* data, size_t size, uint32_t width)
      : data_(width == 0 ? kZeros : data),
        size_(width == 0 ? sizeof(kZeros) : size),
        width_(width),
        mask_(width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1),
        // Width 0 reads every row at bit 0 of eight zero bytes; a width
        // past 56 can need a ninth byte, so it takes the slow path.
        fast_rows_(width == 0 ? UINT64_MAX
                   : width <= 56 && size >= 8
                       ? ((size - 8) * 8 + 7) / width + 1
                       : 0) {}

  /// Row i's value. The rows whose eight bytes from their first are inside
  /// the buffer, all but the last few, take one inline load.
  uint64_t operator[](uint64_t i) const {
    if (i < fast_rows_) [[likely]] {
      const uint64_t bit = i * width_;
      uint64_t word;  // little-endian host, as for the plain encodings
      std::memcpy(&word, data_ + (bit >> 3), 8);
      return (word >> (bit & 7)) & mask_;
    }
    return Tail(i);
  }

  /// Calls fn(row, value) for rows [0, n) in order.
  template <typename Fn>
  void ForEach(uint64_t n, Fn&& fn) const {
    uint64_t row = 0;
    const uint64_t fast = std::min(n, fast_rows_);
    for (uint64_t bit = 0; row < fast; ++row, bit += width_) {
      uint64_t word;
      std::memcpy(&word, data_ + (bit >> 3), 8);
      fn(row, (word >> (bit & 7)) & mask_);
    }
    for (; row < n; ++row) fn(row, Tail(row));
  }

 private:
  static constexpr uint8_t kZeros[8] = {};

  [[gnu::noinline]] uint64_t Tail(uint64_t i) const {
    const uint64_t bit = i * width_;
    const size_t byte = static_cast<size_t>(bit >> 3);
    const unsigned shift = bit & 7;
    uint64_t word = 0;
    if (byte + 8 <= size_) {
      std::memcpy(&word, data_ + byte, 8);
    } else if (byte < size_) {
      std::memcpy(&word, data_ + byte, size_ - byte);
    }
    uint64_t v = word >> shift;
    // Only a value wider than 56 bits reaches a ninth byte, which then
    // holds its top bits and so lies inside the buffer.
    if (shift + width_ > 64) v |= uint64_t{data_[byte + 8]} << (64 - shift);
    return v & mask_;
  }

  const uint8_t* data_;
  size_t size_;
  uint32_t width_;
  uint64_t mask_;
  uint64_t fast_rows_;
};

/// Checks that a packed run is exactly PackedBytes(n, width) bytes and that
/// the bits after its last value are zero.
Status CheckPacked(size_t size, const uint8_t* data, uint64_t n, uint32_t width,
                   const char* what) {
  if (size != PackedBytes(n, width)) {
    return Status::IOError(std::string("columnar: bad ") + what +
                           " payload size");
  }
  const unsigned used = (n * width) & 7;
  if (used != 0 && (data[size - 1] >> used) != 0) {
    return Status::IOError(std::string("columnar: ") + what +
                           " padding bits set");
  }
  return Status::OK();
}

// --- kFor -------------------------------------------------------------------

/// A kFor layout: the minimum, and the bit width of `max - min` computed in
/// unsigned arithmetic, so every range up to the full type is legal.
template <typename T>
struct ForLayout {
  std::make_unsigned_t<T> base = 0;
  uint32_t width = 0;

  explicit ForLayout(const std::vector<T>& v) {
    using U = std::make_unsigned_t<T>;
    if (v.empty()) return;
    const auto [mn, mx] = std::minmax_element(v.begin(), v.end());
    base = static_cast<U>(*mn);
    width = static_cast<uint32_t>(
        std::bit_width(static_cast<U>(static_cast<U>(*mx) - base)));
  }

  size_t Bytes(size_t n) const { return sizeof(T) + 1 + PackedBytes(n, width); }
};

template <typename T>
std::vector<uint8_t> EncodeFor(const std::vector<T>& v) {
  using U = std::make_unsigned_t<T>;
  const ForLayout<T> layout(v);
  std::vector<uint8_t> out(sizeof(U) + 1);
  std::memcpy(out.data(), &layout.base, sizeof(U));
  out[sizeof(U)] = static_cast<uint8_t>(layout.width);
  AppendPacked(
      v.size(), layout.width,
      [&](size_t i) -> uint64_t {
        return static_cast<U>(static_cast<U>(v[i]) - layout.base);
      },
      &out);
  return out;
}

/// A kFor chunk's header and packed deltas, read in place.
template <typename T>
struct ForView {
  std::make_unsigned_t<T> base = 0;
  uint32_t width = 0;
  const uint8_t* packed = nullptr;
  size_t size = 0;

  PackedReader Deltas() const { return PackedReader(packed, size, width); }
  /// The largest delta the width can hold: base + MaxDelta() bounds the
  /// chunk's values.
  std::make_unsigned_t<T> MaxDelta() const {
    return static_cast<std::make_unsigned_t<T>>(
        width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1);
  }
};

/// Parses and fully validates a kFor chunk of `num_rows` rows: the header,
/// the exact payload size and the padding bits.
template <typename T>
Status ParseFor(std::string_view raw, uint32_t num_rows, ForView<T>* v) {
  using U = std::make_unsigned_t<T>;
  if (raw.size() < sizeof(U) + 1) {
    return Status::IOError("columnar: truncated FOR header");
  }
  std::memcpy(&v->base, raw.data(), sizeof(U));
  v->width = static_cast<uint8_t>(raw[sizeof(U)]);
  if (v->width > 8 * sizeof(U)) {
    return Status::IOError("columnar: FOR bit width exceeds the column type");
  }
  v->packed = reinterpret_cast<const uint8_t*>(raw.data()) + sizeof(U) + 1;
  v->size = raw.size() - sizeof(U) - 1;
  return CheckPacked(v->size, v->packed, num_rows, v->width, "FOR");
}

/// Decodes a kFor chunk: every row, or only the rows of `sel`.
template <typename T>
Status DecodeFor(std::string_view raw, uint32_t num_rows,
                 const std::vector<uint32_t>* sel, std::vector<T>* out) {
  using U = std::make_unsigned_t<T>;
  ForView<T> v;
  HJ_RETURN_IF_ERROR(ParseFor(raw, num_rows, &v));
  const PackedReader deltas = v.Deltas();
  auto value = [base = v.base](uint64_t delta) {
    return static_cast<T>(static_cast<U>(base + static_cast<U>(delta)));
  };
  if (sel == nullptr) {
    out->resize(num_rows);
    T* dst = out->data();
    deltas.ForEach(num_rows,
                   [&](uint64_t row, uint64_t d) { dst[row] = value(d); });
  } else {
    out->resize(sel->size());
    T* dst = out->data();
    const uint32_t* rows = sel->data();
    for (size_t k = 0; k < sel->size(); ++k) dst[k] = value(deltas[rows[k]]);
  }
  return Status::OK();
}

// --- kFsst ------------------------------------------------------------------

constexpr uint8_t kFsstEscape = 255;
constexpr size_t kFsstMaxSymbols = 255;
constexpr uint32_t kFsstMaxSymbolBytes = 8;
/// Training reads about this many bytes of a chunk, whatever its size...
constexpr size_t kFsstSampleBytes = 16 * 1024;
/// ...and at most this prefix of any one string.
constexpr size_t kFsstSampleStringBytes = 256;
static_assert(kFsstSampleBytes + kFsstSampleStringBytes < (1 << 15),
              "training counts must fit 16 bits");
/// Rounds of count-then-pick; each round's symbols seed the next.
constexpr int kFsstTrainingRounds = 5;

/// A symbol as its bytes, zero-padded to a u64, and its length.
struct FsstSymbol {
  uint64_t bytes = 0;
  uint32_t len = 0;
};

uint64_t LoadPrefix(const char* p, size_t n) {
  uint64_t v = 0;
  if (n >= 8) {
    std::memcpy(&v, p, 8);
  } else {
    std::memcpy(&v, p, n);
  }
  return v;
}

uint64_t LowBytesMask(uint32_t len) {
  return len >= 8 ? ~uint64_t{0} : (uint64_t{1} << (8 * len)) - 1;
}

/// The first three bytes of a symbol or of the input.
uint32_t Prefix3(uint64_t bytes) {
  return static_cast<uint32_t>(bytes & 0xffffff);
}

/// Greedy longest-match lookup over a symbol table, FSST style: a symbol
/// of three or more bytes is found by its first three bytes in a small
/// open-addressing table, and a direct table holds the best match of at
/// most two bytes for every two-byte prefix. Only the first symbol of three
/// or more bytes with a given three-byte prefix is ever matched (trained
/// tables have one). A match is packed as (length << 8) | code, with
/// kFsstEscape and length 1 where no symbol matches. Build() reuses the
/// tables' memory.
class FsstMatcher {
 public:
  FsstMatcher() : short_(1 << 16), long_(kSlots) {}

  void Build(const std::vector<FsstSymbol>& table) {
    single_.fill(Packed(kFsstEscape, 1));
    for (LongSymbol& slot : long_) slot.len = 0;
    for (size_t c = 0; c < table.size(); ++c) {
      const FsstSymbol& sym = table[c];
      const auto code = static_cast<uint8_t>(c);
      if (sym.len == 1) {
        single_[sym.bytes & 0xff] = Packed(code, 1);
      } else if (sym.len >= 3) {
        uint32_t at = Slot(Prefix3(sym.bytes));
        while (long_[at].len != 0 &&
               Prefix3(long_[at].bytes) != Prefix3(sym.bytes)) {
          at = (at + 1) & (kSlots - 1);
        }
        if (long_[at].len == 0) {
          long_[at] = {sym.bytes, LowBytesMask(sym.len), sym.len, code};
        }
      }
    }
    for (uint32_t b0 = 0; b0 < 256; ++b0) {
      std::fill_n(short_.begin() + (b0 << 8), 256, single_[b0]);
    }
    for (size_t c = 0; c < table.size(); ++c) {
      if (table[c].len == 2) {
        short_[Key2(table[c].bytes)] = Packed(static_cast<uint8_t>(c), 2);
      }
    }
  }

  /// The longest symbol at the start of `word`, the next `remaining` (>= 1)
  /// input bytes zero-padded to eight.
  uint16_t Match(uint64_t word, size_t remaining) const {
    if (remaining >= 3) {
      const uint32_t prefix = Prefix3(word);
      for (uint32_t at = Slot(prefix); long_[at].len != 0;
           at = (at + 1) & (kSlots - 1)) {
        const LongSymbol& sym = long_[at];
        if (Prefix3(sym.bytes) != prefix) continue;
        if (sym.len <= remaining && ((word ^ sym.bytes) & sym.mask) == 0) {
          return Packed(sym.code, sym.len);
        }
        break;
      }
    }
    if (remaining >= 2) return short_[Key2(word)];
    return single_[word & 0xff];
  }

  static uint8_t CodeOf(uint16_t match) { return match & 0xff; }
  static uint32_t LengthOf(uint16_t match) { return match >> 8; }

 private:
  struct LongSymbol {
    uint64_t bytes = 0;
    uint64_t mask = 0;
    uint32_t len = 0;  // 0: empty slot
    uint8_t code = 0;
  };
  static constexpr uint32_t kSlots = 1024;  // four per long symbol at most

  static uint16_t Packed(uint8_t code, uint32_t len) {
    return static_cast<uint16_t>(len << 8 | code);
  }
  static uint32_t Key2(uint64_t word) {
    return static_cast<uint32_t>((word & 0xff) << 8 | (word >> 8 & 0xff));
  }
  static uint32_t Slot(uint32_t prefix) {
    return prefix * 0x9E3779B1u >> 22;  // 10 bits
  }

  std::array<uint16_t, 256> single_;
  std::vector<uint16_t> short_;
  std::vector<LongSymbol> long_;
};

std::vector<FsstSymbol> ToFsstSymbols(const std::vector<std::string>& table) {
  HJ_CHECK(table.size() <= kFsstMaxSymbols) << "FSST table too large";
  std::vector<FsstSymbol> out;
  out.reserve(table.size());
  for (const std::string& s : table) {
    HJ_CHECK(!s.empty() && s.size() <= kFsstMaxSymbolBytes)
        << "FSST symbols are 1-8 bytes";
    out.push_back({LoadPrefix(s.data(), s.size()),
                   static_cast<uint32_t>(s.size())});
  }
  return out;
}

/// Every row's code bytes for `table`, and each row's end offset.
void FsstCompress(const StringColumn& strings,
                  const std::vector<FsstSymbol>& table, FsstMatcher* matcher,
                  std::vector<uint8_t>* codes, std::vector<uint64_t>* ends) {
  matcher->Build(table);
  // An escape is two code bytes, a symbol one.
  codes->resize(2 * strings.bytes());
  uint8_t* out = codes->data();
  ends->resize(strings.size());
  for (size_t row = 0; row < strings.size(); ++row) {
    const std::string_view s = strings[row];
    for (size_t pos = 0; pos < s.size();) {
      const uint16_t m =
          matcher->Match(LoadPrefix(s.data() + pos, s.size() - pos),
                         s.size() - pos);
      *out++ = FsstMatcher::CodeOf(m);
      if (FsstMatcher::CodeOf(m) == kFsstEscape) {
        *out++ = static_cast<uint8_t>(s[pos]);
      }
      pos += FsstMatcher::LengthOf(m);
    }
    (*ends)[row] = static_cast<uint64_t>(out - codes->data());
  }
  codes->resize(static_cast<size_t>(out - codes->data()));
}

/// A kFsst chunk's parts, read in place.
struct FsstView {
  uint32_t num_symbols = 0;
  std::array<uint64_t, 256> symbol{};  // zero-padded bytes per code
  std::array<uint8_t, 256> length{};
  const uint8_t* codes = nullptr;
  uint32_t codes_size = 0;
  const uint8_t* ends = nullptr;  // packed end offsets
  size_t ends_size = 0;
  uint32_t ends_width = 0;
};

/// Parses and fully validates a kFsst chunk of `num_rows` rows: the symbol
/// lengths, the exact payload size, end offsets that ascend to the code
/// count, and every code byte (a symbol, or an escape with its byte inside
/// the same row).
Status ParseFsst(std::string_view raw, uint32_t num_rows, FsstView* v) {
  BinaryReader r(raw.data(), raw.size());
  std::string_view count, lengths, symbols, width, codes_size, codes;
  if (!r.ReadSpan(1, &count) ||
      !r.ReadSpan(static_cast<uint8_t>(count[0]), &lengths)) {
    return Status::IOError("columnar: truncated FSST symbol table");
  }
  v->num_symbols = static_cast<uint8_t>(count[0]);
  size_t total = 0;
  for (size_t code = 0; code < lengths.size(); ++code) {
    const uint32_t len = static_cast<uint8_t>(lengths[code]);
    if (len == 0 || len > kFsstMaxSymbolBytes) {
      return Status::IOError("columnar: bad FSST symbol length");
    }
    v->length[code] = static_cast<uint8_t>(len);
    total += len;
  }
  if (!r.ReadSpan(total, &symbols)) {
    return Status::IOError("columnar: truncated FSST symbol table");
  }
  for (size_t code = 0, at = 0; code < lengths.size(); ++code) {
    v->symbol[code] = LoadPrefix(symbols.data() + at, v->length[code]);
    at += v->length[code];
  }
  if (!r.ReadSpan(1, &width) || !r.ReadSpan(4, &codes_size)) {
    return Status::IOError("columnar: truncated FSST header");
  }
  v->ends_width = static_cast<uint8_t>(width[0]);
  if (v->ends_width > 32) {
    return Status::IOError("columnar: FSST offset width exceeds 32 bits");
  }
  std::memcpy(&v->codes_size, codes_size.data(), 4);
  if (!r.ReadSpan(v->codes_size, &codes)) {
    return Status::IOError("columnar: truncated FSST codes");
  }
  v->codes = reinterpret_cast<const uint8_t*>(codes.data());
  v->ends = reinterpret_cast<const uint8_t*>(raw.data()) + r.position();
  v->ends_size = r.remaining();
  HJ_RETURN_IF_ERROR(
      CheckPacked(v->ends_size, v->ends, num_rows, v->ends_width, "FSST"));

  const PackedReader ends(v->ends, v->ends_size, v->ends_width);
  uint64_t prev = 0;
  bool descends = false;
  ends.ForEach(num_rows, [&](uint64_t, uint64_t end) {
    descends |= end < prev;
    prev = end;
  });
  if (descends || prev != v->codes_size) {
    return Status::IOError("columnar: FSST offsets must ascend to the codes");
  }
  // Without an escape or a code past the table every byte is a symbol, so
  // one branch-free pass settles it; otherwise walk each row's codes.
  uint8_t top = 0;
  for (uint32_t k = 0; k < v->codes_size; ++k) top = std::max(top, v->codes[k]);
  if (top < v->num_symbols) return Status::OK();
  uint64_t begin = 0;
  for (uint32_t row = 0; row < num_rows; ++row) {
    const uint64_t end = ends[row];
    for (uint64_t at = begin; at < end;) {
      const uint8_t code = v->codes[at++];
      if (code == kFsstEscape) {
        if (at == end) {
          return Status::IOError("columnar: FSST escape ends a string");
        }
        ++at;
      } else if (code >= v->num_symbols) {
        return Status::IOError("columnar: FSST code past the symbol table");
      }
    }
    begin = end;
  }
  return Status::OK();
}

/// Decodes a kFsst chunk: every row, or only the rows of `sel`. A first
/// pass sums the rows' decoded bytes; the second expands each row straight
/// into the column, each symbol as one whole u64 store, so the buffer has
/// kFsstMaxSymbolBytes of slack past the last row.
Status DecodeFsst(std::string_view raw, uint32_t num_rows,
                  const std::vector<uint32_t>* sel, StringColumn* out) {
  FsstView v;
  HJ_RETURN_IF_ERROR(ParseFsst(raw, num_rows, &v));
  const size_t rows = sel == nullptr ? num_rows : sel->size();
  if (rows == 0) return Status::OK();
  const PackedReader ends(v.ends, v.ends_size, v.ends_width);
  auto for_each_row = [&](auto&& fn) {
    if (sel == nullptr) {
      uint64_t begin = 0;
      ends.ForEach(num_rows, [&](uint64_t, uint64_t end) {
        fn(v.codes + begin, v.codes + end);
        begin = end;
      });
    } else {
      for (uint32_t row : *sel) {
        fn(v.codes + (row == 0 ? 0 : ends[row - 1]), v.codes + ends[row]);
      }
    }
  };
  size_t total = 0;
  auto add_bytes = [&](const uint8_t* c, const uint8_t* c_end) {
    while (c < c_end) {
      const uint8_t code = *c++;
      if (code != kFsstEscape) {
        total += v.length[code];
      } else {
        ++c;
        ++total;
      }
    }
  };
  // Every row's codes are contiguous, so a whole chunk is one run.
  if (sel == nullptr) {
    add_bytes(v.codes, v.codes + v.codes_size);
  } else {
    for_each_row(add_bytes);
  }
  out->reserve(rows);
  char* dst = out->BeginWrite(total, kFsstMaxSymbolBytes);
  for_each_row([&](const uint8_t* c, const uint8_t* c_end) {
    while (c < c_end) {
      const uint8_t code = *c++;
      if (code != kFsstEscape) {
        std::memcpy(dst, &v.symbol[code], 8);
        dst += v.length[code];
      } else {
        *dst++ = static_cast<char>(*c++);
      }
    }
    out->EndRow(dst);
  });
  out->FinishWrite();
  return Status::OK();
}

/// Training candidates: distinct symbols with their summed gains, in an
/// open-addressing table that TakeBest() empties again.
class CandidateSet {
 public:
  CandidateSet() : slots_(kSlots) {}

  void Add(FsstSymbol symbol, uint32_t gain) {
    size_t at = (symbol.bytes * 0x9E3779B97F4A7C15ull + symbol.len) >>
                (64 - kSlotBits);
    while (slots_[at].len != 0 && (slots_[at].bytes != symbol.bytes ||
                                   slots_[at].len != symbol.len)) {
      at = (at + 1) & (kSlots - 1);
    }
    if (slots_[at].len == 0) {
      slots_[at] = {symbol.bytes, 0, static_cast<uint8_t>(symbol.len)};
      used_.push_back(static_cast<uint32_t>(at));
    }
    slots_[at].gain += gain;
  }

  /// Up to `n` symbols, at most one of three or more bytes per three-byte
  /// prefix (see FsstMatcher): every one-byte symbol first, so the sample's
  /// data needs no escape and its chunk validates in one pass (see
  /// ParseFsst); then the largest gains. Ties go by length and bytes, so
  /// the table does not depend on insertion order.
  std::vector<FsstSymbol> TakeBest(size_t n) {
    std::vector<Slot> ranked;
    ranked.reserve(used_.size());
    for (uint32_t at : used_) {
      ranked.push_back(slots_[at]);
      slots_[at] = Slot{};
    }
    used_.clear();
    auto better = [](const Slot& x, const Slot& y) {
      if ((x.len == 1) != (y.len == 1)) return x.len == 1;
      if (x.gain != y.gain) return x.gain > y.gain;
      if (x.len != y.len) return x.len > y.len;
      return x.bytes < y.bytes;
    };
    // Sort only a head a few prefix clashes cannot exhaust, then the rest
    // if they do.
    size_t sorted = std::min(ranked.size(), 2 * n + 256);
    std::nth_element(ranked.begin(), ranked.begin() + sorted, ranked.end(),
                     better);
    std::sort(ranked.begin(), ranked.begin() + sorted, better);
    std::vector<FsstSymbol> out;
    std::vector<uint32_t> prefixes;
    for (size_t i = 0; i < ranked.size() && out.size() < n; ++i) {
      if (i == sorted) {
        std::sort(ranked.begin() + sorted, ranked.end(), better);
        sorted = ranked.size();
      }
      const Slot& c = ranked[i];
      if (c.len >= 3) {
        const uint32_t prefix = Prefix3(c.bytes);
        if (std::find(prefixes.begin(), prefixes.end(), prefix) !=
            prefixes.end()) {
          continue;
        }
        prefixes.push_back(prefix);
      }
      out.push_back({c.bytes, c.len});
    }
    return out;
  }

 private:
  struct Slot {
    uint64_t bytes = 0;
    uint32_t gain = 0;
    uint8_t len = 0;  // 0: empty
  };
  // A round has under 2^15 candidates: the sample's units, 256 bytes and
  // its distinct unit pairs, each under 2^15. Twice that keeps probes short.
  static constexpr uint32_t kSlotBits = 16;
  static constexpr uint32_t kSlots = 1u << kSlotBits;

  std::vector<Slot> slots_;
  std::vector<uint32_t> used_;
};

/// Units of a training round: a symbol's code, or kFsstEscapedUnit + b for
/// an escaped byte b.
constexpr uint32_t kFsstEscapedUnit = kFsstMaxSymbols;
constexpr uint32_t kFsstUnits = kFsstEscapedUnit + 256;

/// Per-thread FSST buffers, reused from chunk to chunk: the matcher's 128
/// KB prefix table, the pair counts and the candidate table are large, and
/// a fresh allocation that size is page-faulted in on every use.
struct FsstScratch {
  FsstMatcher matcher;
  std::vector<uint16_t> pair_count =
      std::vector<uint16_t>(kFsstUnits * kFsstUnits);
  CandidateSet candidates;

  static FsstScratch& ForThisThread() {
    thread_local FsstScratch scratch;
    return scratch;
  }
};

/// Up to kFsstSampleBytes of evenly spaced rows, each cut to
/// kFsstSampleStringBytes.
std::vector<std::string_view> FsstSample(const StringColumn& strings) {
  size_t total = 0;
  for (std::string_view s : strings) {
    total += std::min(s.size(), kFsstSampleStringBytes);
  }
  const size_t step = std::max<size_t>(1, total / kFsstSampleBytes);
  std::vector<std::string_view> sample;
  size_t taken = 0;
  for (size_t row = 0; row < strings.size() && taken < kFsstSampleBytes;
       row += step) {
    sample.push_back(strings[row].substr(0, kFsstSampleStringBytes));
    taken += sample.back().size();
  }
  return sample;
}

/// The smaller of plain and RLE or dictionary, compressed with the codec
/// when that shrinks it: every encoding but kFor and kFsst.
ColumnChunk EncodeSequential(const ColumnVector& column,
                             const ColumnarWriteOptions& options) {
  ColumnChunk chunk;
  chunk.type = column.type();
  chunk.num_rows = static_cast<uint32_t>(column.size());

  std::vector<uint8_t> encoded;
  switch (column.physical_type()) {
    case PhysicalType::kInt32: {
      encoded = EncodePlainInts(column.i32());
      chunk.encoding = ColEncoding::kPlain;
      if (options.enable_rle) {
        auto rle = EncodeRleInts(column.i32());
        if (rle.size() < encoded.size()) {
          encoded = std::move(rle);
          chunk.encoding = ColEncoding::kRle;
        }
      }
      if (options.write_stats && !column.i32().empty()) {
        auto [mn, mx] =
            std::minmax_element(column.i32().begin(), column.i32().end());
        chunk.has_stats = true;
        chunk.min_val = *mn;
        chunk.max_val = *mx;
      }
      break;
    }
    case PhysicalType::kInt64: {
      encoded = EncodePlainInts(column.i64());
      chunk.encoding = ColEncoding::kPlain;
      if (options.enable_rle) {
        auto rle = EncodeRleInts(column.i64());
        if (rle.size() < encoded.size()) {
          encoded = std::move(rle);
          chunk.encoding = ColEncoding::kRle;
        }
      }
      if (options.write_stats && !column.i64().empty()) {
        auto [mn, mx] =
            std::minmax_element(column.i64().begin(), column.i64().end());
        chunk.has_stats = true;
        chunk.min_val = *mn;
        chunk.max_val = *mx;
      }
      break;
    }
    case PhysicalType::kFloat64: {
      encoded = EncodePlainInts(column.f64());
      chunk.encoding = ColEncoding::kPlain;
      break;
    }
    case PhysicalType::kString: {
      encoded = EncodePlainStrings(column.str());
      chunk.encoding = ColEncoding::kPlain;
      if (options.enable_dictionary) {
        auto dict = EncodeDictStrings(column.str());
        if (dict.has_value() && dict->size() < encoded.size()) {
          encoded = std::move(*dict);
          chunk.encoding = ColEncoding::kDict;
        }
      }
      break;
    }
  }

  if (options.codec != Codec::kNone) {
    auto compressed = Compress(options.codec, encoded.data(), encoded.size());
    if (compressed.size() < encoded.size()) {
      chunk.codec = options.codec;
      chunk.data = std::move(compressed);
      return chunk;
    }
  }
  chunk.codec = Codec::kNone;
  chunk.data = std::move(encoded);
  return chunk;
}

/// Whether a string column's codes fit kFsst's u32 code count: each byte
/// costs at most two code bytes.
bool FsstFits(const StringColumn& strings) {
  return 2 * uint64_t{strings.bytes()} <= UINT32_MAX;
}

/// The chunk's encoded bytes: in place when uncompressed, else
/// decompressed into `buffer`.
Result<std::string_view> ChunkBytes(const ColumnChunk& chunk,
                                    std::vector<uint8_t>* buffer) {
  if (chunk.codec == Codec::kNone) {
    return std::string_view(reinterpret_cast<const char*>(chunk.data.data()),
                            chunk.data.size());
  }
  HJ_ASSIGN_OR_RETURN(
      *buffer, Decompress(chunk.codec, chunk.data.data(), chunk.data.size()));
  return std::string_view(reinterpret_cast<const char*>(buffer->data()),
                          buffer->size());
}

/// Narrows `sel` (ascending rows of `raw`, an integer chunk of T) to the
/// rows that pass `test`, in the chunk's encoding, and validates the whole
/// chunk as DecodeColumnChunk does whatever survives.
template <typename T>
Status NarrowChunkAs(ColEncoding encoding, std::string_view raw,
                     uint32_t num_rows, const IntCmpTest<T>& test,
                     std::vector<uint32_t>* sel) {
  using U = std::make_unsigned_t<T>;
  switch (encoding) {
    case ColEncoding::kFor: {
      ForView<T> v;
      HJ_RETURN_IF_ERROR(ParseFor(raw, num_rows, &v));
      const IntCmpTest<T> on_deltas = test.Rebased(v.base);
      switch (on_deltas.Decide(v.MaxDelta())) {
        case IntCmpTest<T>::Outcome::kAll:
          return Status::OK();
        case IntCmpTest<T>::Outcome::kNone:
          sel->clear();
          return Status::OK();
        case IntCmpTest<T>::Outcome::kSome:
          break;
      }
      const PackedReader deltas = v.Deltas();
      if (sel->size() == num_rows) {
        // Every row is selected: unpack in order.
        uint32_t* rows = sel->data();
        size_t out = 0;
        deltas.ForEach(num_rows, [&](uint64_t row, uint64_t d) {
          rows[out] = static_cast<uint32_t>(row);
          out += on_deltas(static_cast<U>(d)) ? 1 : 0;
        });
        sel->resize(out);
      } else {
        NarrowSelection(sel, [&](uint32_t r) {
          return on_deltas(static_cast<U>(deltas[r]));
        });
      }
      return Status::OK();
    }
    case ColEncoding::kPlain: {
      if (raw.size() != size_t{num_rows} * sizeof(T)) {
        return Status::IOError("columnar: bad plain chunk size");
      }
      const char* values = raw.data();
      NarrowSelection(sel, [&](uint32_t r) {
        T v;
        std::memcpy(&v, values + size_t{r} * sizeof(T), sizeof(T));
        return test(static_cast<U>(v));
      });
      return Status::OK();
    }
    case ColEncoding::kRle: {
      // Each run is tested once; the selected rows inside it keep or drop
      // together.
      uint32_t* rows = sel->data();
      const size_t n = sel->size();
      size_t at = 0, out = 0;
      BinaryReader r(raw.data(), raw.size());
      for (size_t filled = 0; filled < num_rows;) {
        uint64_t count;
        int64_t value;
        if (!r.ReadVarint(&count) || !r.ReadSignedVarint(&value)) {
          return Status::IOError("columnar: truncated RLE run");
        }
        if (count == 0 || count > num_rows - filled) {
          return Status::IOError("columnar: bad RLE run");
        }
        filled += count;
        const size_t keep = test(static_cast<U>(static_cast<T>(value))) ? 1 : 0;
        for (; at < n && rows[at] < filled; ++at) {
          rows[out] = rows[at];
          out += keep;
        }
      }
      if (!r.AtEnd()) return Status::IOError("columnar: RLE trailing bytes");
      sel->resize(out);
      return Status::OK();
    }
    default:
      return Status::IOError("columnar: bad integer encoding");
  }
}

/// Narrows `sel` to the rows of `chunk`, an integer column of `type`, whose
/// value passes `cmp`; see NarrowChunkAs.
Status NarrowChunk(const ColumnChunk& chunk, DataType type,
                   const ConjunctiveIntCmp& cmp, std::vector<uint32_t>* sel) {
  if (PhysicalTypeOf(type) != PhysicalTypeOf(chunk.type)) {
    return Status::Internal("columnar: chunk type mismatch");
  }
  std::vector<uint8_t> buffer;
  HJ_ASSIGN_OR_RETURN(std::string_view raw, ChunkBytes(chunk, &buffer));
  switch (PhysicalTypeOf(type)) {
    case PhysicalType::kInt32:
      return NarrowChunkAs(chunk.encoding, raw, chunk.num_rows,
                           IntCmpTest<int32_t>::Make(cmp.op, cmp.literal), sel);
    case PhysicalType::kInt64:
      return NarrowChunkAs(chunk.encoding, raw, chunk.num_rows,
                           IntCmpTest<int64_t>::Make(cmp.op, cmp.literal), sel);
    default:
      return Status::InvalidArgument("pushed conjunct on non-integer column '" +
                                     cmp.column + "'");
  }
}

}  // namespace

std::vector<std::string> TrainFsstTable(const StringColumn& strings) {
  const std::vector<std::string_view> sample = FsstSample(strings);
  std::array<bool, 256> seen{};
  for (std::string_view s : sample) {
    for (char c : s) seen[static_cast<uint8_t>(c)] = true;
  }
  FsstScratch& scratch = FsstScratch::ForThisThread();
  // Counts fit 16 bits: the sample is under 2^15 bytes, so under 2^15 units.
  std::array<uint16_t, kFsstUnits> unit_count{};
  std::vector<uint32_t> pairs;  // the pair_count slots in use
  std::vector<FsstSymbol> table;
  for (int round = 0; round < kFsstTrainingRounds; ++round) {
    // Compress the sample with the current table, counting each unit and
    // each pair of consecutive units within a string.
    scratch.matcher.Build(table);
    for (std::string_view s : sample) {
      uint32_t prev = kFsstUnits;
      for (size_t pos = 0; pos < s.size();) {
        const uint16_t m = scratch.matcher.Match(
            LoadPrefix(s.data() + pos, s.size() - pos), s.size() - pos);
        const uint8_t code = FsstMatcher::CodeOf(m);
        const uint32_t unit =
            code == kFsstEscape
                ? kFsstEscapedUnit + static_cast<uint8_t>(s[pos])
                : code;
        ++unit_count[unit];
        if (prev != kFsstUnits) {
          const uint32_t pair = prev * kFsstUnits + unit;
          if (scratch.pair_count[pair]++ == 0) pairs.push_back(pair);
        }
        prev = unit;
        pos += FsstMatcher::LengthOf(m);
      }
    }
    auto symbol_of = [&](uint32_t unit) {
      return unit < kFsstEscapedUnit ? table[unit]
                                     : FsstSymbol{unit - kFsstEscapedUnit, 1};
    };
    // Candidates are the units, every byte of the sample, and the
    // concatenations of counted pairs (cut to 8 bytes); a candidate's gain
    // is the bytes it would have covered.
    CandidateSet& candidates = scratch.candidates;
    for (uint32_t unit = 0; unit < kFsstUnits; ++unit) {
      if (unit_count[unit] == 0) continue;
      const FsstSymbol sym = symbol_of(unit);
      candidates.Add(sym, unit_count[unit] * sym.len);
      unit_count[unit] = 0;
    }
    for (uint32_t byte = 0; byte < 256; ++byte) {
      if (seen[byte]) candidates.Add({byte, 1}, 0);
    }
    for (uint32_t pair : pairs) {
      const FsstSymbol a = symbol_of(pair / kFsstUnits);
      const FsstSymbol b = symbol_of(pair % kFsstUnits);
      const uint32_t count = scratch.pair_count[pair];
      scratch.pair_count[pair] = 0;
      if (a.len == kFsstMaxSymbolBytes) continue;
      const uint32_t len = std::min(a.len + b.len, kFsstMaxSymbolBytes);
      candidates.Add({(a.bytes | b.bytes << (8 * a.len)) & LowBytesMask(len),
                      len},
                     count * len);
    }
    pairs.clear();
    table = candidates.TakeBest(kFsstMaxSymbols);
  }
  std::vector<std::string> out;
  out.reserve(table.size());
  for (const FsstSymbol& s : table) {
    char bytes[8];
    std::memcpy(bytes, &s.bytes, 8);
    out.emplace_back(bytes, s.len);
  }
  return out;
}

ColumnChunk EncodeFsstChunk(const ColumnVector& column,
                            const std::vector<std::string>& table) {
  HJ_CHECK(column.physical_type() == PhysicalType::kString)
      << "kFsst encodes strings";
  const std::vector<FsstSymbol> symbols = ToFsstSymbols(table);
  std::vector<uint8_t> codes;
  std::vector<uint64_t> ends;
  FsstCompress(column.str(), symbols, &FsstScratch::ForThisThread().matcher,
               &codes, &ends);
  HJ_CHECK(codes.size() <= UINT32_MAX) << "FSST chunk too large";
  const uint32_t width =
      static_cast<uint32_t>(std::bit_width(uint64_t{codes.size()}));

  BinaryWriter w(1 + 9 * table.size() + 5 + codes.size() +
                 PackedBytes(ends.size(), width));
  w.PutU8(static_cast<uint8_t>(table.size()));
  for (const std::string& s : table) w.PutU8(static_cast<uint8_t>(s.size()));
  for (const std::string& s : table) w.PutRaw(s.data(), s.size());
  w.PutU8(static_cast<uint8_t>(width));
  w.PutU32(static_cast<uint32_t>(codes.size()));
  w.PutRaw(codes.data(), codes.size());
  std::vector<uint8_t> data = w.Release();
  AppendPacked(ends.size(), width, [&](size_t i) { return ends[i]; }, &data);

  ColumnChunk chunk;
  chunk.type = column.type();
  chunk.encoding = ColEncoding::kFsst;
  chunk.num_rows = static_cast<uint32_t>(column.size());
  chunk.data = std::move(data);
  return chunk;
}

ColumnChunk EncodeForChunk(const ColumnVector& column) {
  ColumnChunk chunk;
  chunk.type = column.type();
  chunk.encoding = ColEncoding::kFor;
  chunk.num_rows = static_cast<uint32_t>(column.size());
  switch (column.physical_type()) {
    case PhysicalType::kInt32:
      chunk.data = EncodeFor(column.i32());
      break;
    case PhysicalType::kInt64:
      chunk.data = EncodeFor(column.i64());
      break;
    default:
      HJ_CHECK(false) << "kFor encodes integer-physical columns";
  }
  return chunk;
}

ColumnChunk EncodeColumnChunk(const ColumnVector& column,
                              const ColumnarWriteOptions& options) {
  ColumnChunk chunk = EncodeSequential(column, options);
  // A random-access encoding replaces that pick only when strictly smaller.
  std::optional<ColumnChunk> random_access;
  switch (column.physical_type()) {
    case PhysicalType::kInt32:
      if (options.enable_rle &&
          ForLayout<int32_t>(column.i32()).Bytes(column.size()) <
              chunk.data.size()) {
        random_access = EncodeForChunk(column);
      }
      break;
    case PhysicalType::kInt64:
      if (options.enable_rle &&
          ForLayout<int64_t>(column.i64()).Bytes(column.size()) <
              chunk.data.size()) {
        random_access = EncodeForChunk(column);
      }
      break;
    case PhysicalType::kString:
      if (options.enable_dictionary && options.codec != Codec::kNone &&
          FsstFits(column.str())) {
        random_access = EncodeFsstChunk(column, TrainFsstTable(column.str()));
      }
      break;
    case PhysicalType::kFloat64:
      break;
  }
  if (random_access.has_value() &&
      random_access->data.size() < chunk.data.size()) {
    chunk.encoding = random_access->encoding;
    chunk.codec = Codec::kNone;
    chunk.data = std::move(random_access->data);
  }
  return chunk;
}

Result<ColumnVector> DecodeColumnChunk(const ColumnChunk& chunk,
                                       DataType type,
                                       const std::vector<uint32_t>* sel) {
  if (PhysicalTypeOf(type) != PhysicalTypeOf(chunk.type)) {
    return Status::Internal("columnar: chunk type mismatch");
  }
  if (sel != nullptr && !sel->empty() &&
      (sel->back() >= chunk.num_rows ||
       std::adjacent_find(sel->begin(), sel->end(),
                          std::greater_equal<uint32_t>()) != sel->end())) {
    return Status::InvalidArgument(
        "columnar: selection must be ascending rows of the chunk");
  }
  std::vector<uint8_t> decompressed;
  HJ_ASSIGN_OR_RETURN(std::string_view raw, ChunkBytes(chunk, &decompressed));

  ColumnVector out(type);
  // Random-access chunks build only the selected rows.
  if (chunk.encoding == ColEncoding::kFor) {
    switch (PhysicalTypeOf(type)) {
      case PhysicalType::kInt32:
        HJ_RETURN_IF_ERROR(
            DecodeFor(raw, chunk.num_rows, sel, &out.mutable_i32()));
        return out;
      case PhysicalType::kInt64:
        HJ_RETURN_IF_ERROR(
            DecodeFor(raw, chunk.num_rows, sel, &out.mutable_i64()));
        return out;
      default:
        return Status::IOError("columnar: FOR chunk of a non-integer type");
    }
  }
  if (chunk.encoding == ColEncoding::kFsst) {
    if (PhysicalTypeOf(type) != PhysicalType::kString) {
      return Status::IOError("columnar: FSST chunk of a non-string type");
    }
    HJ_RETURN_IF_ERROR(
        DecodeFsst(raw, chunk.num_rows, sel, &out.mutable_str()));
    return out;
  }
  switch (PhysicalTypeOf(type)) {
    case PhysicalType::kInt32:
      HJ_RETURN_IF_ERROR(DecodeInts(chunk.encoding, raw, chunk.num_rows,
                                    &out.mutable_i32()));
      break;
    case PhysicalType::kInt64:
      HJ_RETURN_IF_ERROR(DecodeInts(chunk.encoding, raw, chunk.num_rows,
                                    &out.mutable_i64()));
      break;
    case PhysicalType::kFloat64:
      if (chunk.encoding != ColEncoding::kPlain) {
        return Status::IOError("columnar: bad float64 encoding");
      }
      HJ_RETURN_IF_ERROR(DecodePlain(raw, chunk.num_rows, &out.mutable_f64()));
      break;
    case PhysicalType::kString: {
      BinaryReader r(raw.data(), raw.size());
      // A varint length, then that many bytes.
      auto read_string = [](BinaryReader* in, std::string_view* s) {
        uint64_t len;
        return in->ReadVarint(&len) && in->ReadSpan(len, s);
      };
      std::vector<std::string_view> dict;
      if (chunk.encoding == ColEncoding::kDict) {
        uint64_t dict_size;
        if (!r.ReadVarint(&dict_size)) {
          return Status::IOError("columnar: truncated dict size");
        }
        if (dict_size > chunk.num_rows) {
          return Status::IOError("columnar: dict larger than chunk");
        }
        dict.resize(dict_size);
        for (auto& e : dict) {
          if (!read_string(&r, &e)) {
            return Status::IOError("columnar: truncated dict entry");
          }
        }
      } else if (chunk.encoding != ColEncoding::kPlain) {
        return Status::IOError("columnar: bad string encoding");
      }
      // Walks and validates every row, calling fn(value) on the selected
      // ones. The first walk sums their bytes, so the second copies them
      // into a buffer sized once.
      auto for_each_selected = [&](auto&& fn) -> Status {
        BinaryReader in = r;
        const uint32_t* next = sel != nullptr ? sel->data() : nullptr;
        const uint32_t* const sel_end = next + (sel != nullptr ? sel->size() : 0);
        for (uint32_t i = 0; i < chunk.num_rows; ++i) {
          std::string_view s;
          if (chunk.encoding == ColEncoding::kPlain) {
            if (!read_string(&in, &s)) {
              return Status::IOError("columnar: truncated plain string");
            }
          } else {
            uint64_t code;
            if (!in.ReadVarint(&code)) {
              return Status::IOError("columnar: truncated dict code");
            }
            if (code >= dict.size()) {
              return Status::IOError("columnar: dict code out of range");
            }
            s = dict[code];
          }
          if (sel == nullptr) {
            fn(s);
          } else if (next != sel_end && *next == i) {
            ++next;
            fn(s);
          }
        }
        if (!in.AtEnd()) {
          return Status::IOError("columnar: trailing bytes in string chunk");
        }
        return Status::OK();
      };
      size_t total = 0;
      HJ_RETURN_IF_ERROR(
          for_each_selected([&](std::string_view s) { total += s.size(); }));
      // `sel` holds ascending rows of the chunk, so each was visited.
      const size_t rows = sel != nullptr ? sel->size() : chunk.num_rows;
      if (rows == 0) return out;
      StringColumn& v = out.mutable_str();
      v.reserve(rows);
      char* dst = v.BeginWrite(total, 0);
      HJ_RETURN_IF_ERROR(for_each_selected(
          [&](std::string_view s) { dst = v.WriteRow(dst, s); }));
      return out;
    }
  }
  if (out.size() != chunk.num_rows) {
    return Status::IOError("columnar: decoded row count mismatch");
  }
  // Plain and RLE chunks decode whole, then gather.
  if (sel != nullptr) return out.Gather(*sel);
  return out;
}

ColumnarBlock EncodeColumnarBlock(const RecordBatch& batch,
                                  const ColumnarWriteOptions& options) {
  ColumnarBlock block;
  block.num_rows = static_cast<uint32_t>(batch.num_rows());
  block.chunks.reserve(batch.num_columns());
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    block.chunks.push_back(EncodeColumnChunk(batch.column(c), options));
  }
  return block;
}

Result<RecordBatch> DecodeColumnarBlock(
    const ColumnarBlock& block, const SchemaPtr& schema,
    const std::vector<size_t>& projection) {
  if (block.chunks.size() != schema->num_fields()) {
    return Status::Internal("columnar: chunk count != schema fields");
  }
  std::vector<ColumnVector> cols;
  cols.reserve(projection.size());
  for (size_t idx : projection) {
    if (idx >= block.chunks.size()) {
      return Status::InvalidArgument("projection index out of range");
    }
    HJ_ASSIGN_OR_RETURN(
        ColumnVector col,
        DecodeColumnChunk(block.chunks[idx], schema->field(idx).type));
    cols.push_back(std::move(col));
  }
  return RecordBatch(schema->Project(projection), std::move(cols));
}

// ---------------------------------------------------------------------------
// Filtering scan
// ---------------------------------------------------------------------------

Result<RecordBatch> DecodeBlockFiltered(
    const StoredBlock& block, const SchemaPtr& schema,
    const std::vector<ConjunctiveIntCmp>& pushed,
    const std::vector<ScanStage>& stages, std::vector<uint32_t>* sel) {
  // The stages' columns, in order, then the pushed conjuncts' that no stage
  // lists: every chunk the scan reads.
  std::vector<size_t> listed;
  for (const ScanStage& stage : stages) {
    listed.insert(listed.end(), stage.columns.begin(), stage.columns.end());
  }
  const size_t output_width = listed.size();
  std::vector<size_t> pushed_at;  // each conjunct's position in `listed`
  for (const ConjunctiveIntCmp& cmp : pushed) {
    HJ_ASSIGN_OR_RETURN(size_t idx, schema->IndexOf(cmp.column));
    auto it = std::find(listed.begin(), listed.end(), idx);
    if (it == listed.end()) it = listed.insert(listed.end(), idx);
    pushed_at.push_back(static_cast<size_t>(it - listed.begin()));
  }

  if (block.format == HdfsFormat::kText) {
    // Text has no per-column layout: one parse decodes every listed column
    // and the filters narrow the parsed rows.
    HJ_ASSIGN_OR_RETURN(
        RecordBatch batch,
        DecodeText(block.text->data(), block.text->size(), schema, listed));
    sel->resize(batch.num_rows());
    std::iota(sel->begin(), sel->end(), 0u);
    for (size_t i = 0; i < pushed.size(); ++i) {
      HJ_RETURN_IF_ERROR(NarrowIntColumn(batch.column(pushed_at[i]),
                                         pushed[i].op, pushed[i].literal, sel));
    }
    for (const ScanStage& stage : stages) {
      if (stage.filter) HJ_RETURN_IF_ERROR(stage.filter(batch, sel));
    }
    std::vector<size_t> output(output_width);
    std::iota(output.begin(), output.end(), size_t{0});
    return std::move(batch).Project(output).Gather(*sel);
  }

  const ColumnarBlock& columnar = *block.columnar;
  if (columnar.chunks.size() != schema->num_fields()) {
    return Status::Internal("columnar: chunk count != schema fields");
  }
  for (size_t idx : listed) {
    if (idx >= columnar.chunks.size()) {
      return Status::InvalidArgument("projection index out of range");
    }
    if (columnar.chunks[idx].num_rows != columnar.num_rows) {
      return Status::IOError("columnar: chunk row count != block row count");
    }
  }
  sel->resize(columnar.num_rows);
  std::iota(sel->begin(), sel->end(), 0u);
  for (size_t i = 0; i < pushed.size(); ++i) {
    const size_t idx = listed[pushed_at[i]];
    HJ_RETURN_IF_ERROR(NarrowChunk(columnar.chunks[idx],
                                   schema->field(idx).type, pushed[i], sel));
  }

  // Each stage's columns are built at the rows kept so far; a filter's
  // survivors are positions into them, so every column read so far is
  // gathered down to those.
  std::vector<ColumnVector> cols;
  cols.reserve(output_width);
  std::vector<uint32_t> kept;
  size_t read = 0;
  for (const ScanStage& stage : stages) {
    for (size_t idx : stage.columns) {
      HJ_ASSIGN_OR_RETURN(ColumnVector col,
                          DecodeColumnChunk(columnar.chunks[idx],
                                            schema->field(idx).type, sel));
      cols.push_back(std::move(col));
    }
    read += stage.columns.size();
    if (!stage.filter) continue;
    const std::vector<size_t> so_far(listed.begin(), listed.begin() + read);
    RecordBatch batch(schema->Project(so_far), std::move(cols));
    kept.resize(sel->size());
    std::iota(kept.begin(), kept.end(), 0u);
    HJ_RETURN_IF_ERROR(stage.filter(batch, &kept));
    cols.clear();
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      cols.push_back(std::move(batch.mutable_column(c)));
    }
    if (kept.size() == sel->size()) continue;  // every row passed
    for (ColumnVector& col : cols) col = col.Gather(kept);
    for (size_t k = 0; k < kept.size(); ++k) (*sel)[k] = (*sel)[kept[k]];
    sel->resize(kept.size());
  }
  listed.resize(output_width);
  return RecordBatch(schema->Project(listed), std::move(cols));
}

}  // namespace hybridjoin
