// Status: error-handling primitive used across the hybridjoin codebase.
//
// Core code paths never throw; every fallible function returns Status or
// Result<T> (see result.h). This mirrors the convention of production
// database engines (RocksDB, Arrow).

#ifndef HYBRIDJOIN_COMMON_STATUS_H_
#define HYBRIDJOIN_COMMON_STATUS_H_

#include <memory>
#include <ostream>
#include <string>
#include <utility>

namespace hybridjoin {

/// Canonical error categories. Kept intentionally small; detail goes in the
/// message string.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kIOError = 5,
  kInternal = 6,
  kUnimplemented = 7,
  kAborted = 8,
  kResourceExhausted = 9,
  kUnavailable = 10,  ///< transient failure; retrying may succeed
  kTimedOut = 11,     ///< a bounded wait expired (e.g. Network::Recv)
  kCancelled = 12,    ///< cooperatively cancelled (e.g. KILL <query_id>)
};

/// Human-readable name for a StatusCode ("OK", "InvalidArgument", ...).
const char* StatusCodeName(StatusCode code);

/// A success-or-error value. Cheap to pass around: the OK state carries no
/// allocation; errors carry a heap string.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : rep_(code == StatusCode::kOk
                 ? nullptr
                 : std::make_unique<Rep>(code, std::move(message))) {}

  Status(const Status& other)
      : rep_(other.rep_ ? std::make_unique<Rep>(*other.rep_) : nullptr) {}
  Status& operator=(const Status& other) {
    rep_ = other.rep_ ? std::make_unique<Rep>(*other.rep_) : nullptr;
    return *this;
  }
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status TimedOut(std::string msg) {
    return Status(StatusCode::kTimedOut, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }

  bool ok() const { return rep_ == nullptr; }

  /// Keeps the first error: adopts `other` only while this status is OK.
  void Update(const Status& other) {
    if (ok() && !other.ok()) *this = other;
  }
  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }
  const std::string& message() const {
    static const std::string kEmpty;
    return rep_ ? rep_->message : kEmpty;
  }

  bool IsInvalidArgument() const {
    return code() == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsIOError() const { return code() == StatusCode::kIOError; }
  bool IsInternal() const { return code() == StatusCode::kInternal; }
  bool IsUnavailable() const { return code() == StatusCode::kUnavailable; }
  bool IsTimedOut() const { return code() == StatusCode::kTimedOut; }
  bool IsCancelled() const { return code() == StatusCode::kCancelled; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code() == other.code() && message() == other.message();
  }

 private:
  struct Rep {
    Rep(StatusCode c, std::string m) : code(c), message(std::move(m)) {}
    StatusCode code;
    std::string message;
  };
  std::unique_ptr<Rep> rep_;  // nullptr means OK.
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Propagates a non-OK Status to the caller.
#define HJ_RETURN_IF_ERROR(expr)                 \
  do {                                           \
    ::hybridjoin::Status _hj_st = (expr);        \
    if (!_hj_st.ok()) return _hj_st;             \
  } while (0)

#define HJ_CONCAT_IMPL(a, b) a##b
#define HJ_CONCAT(a, b) HJ_CONCAT_IMPL(a, b)

/// Evaluates an expression returning Result<T>; on error propagates the
/// Status, otherwise binds the value to `lhs`.
#define HJ_ASSIGN_OR_RETURN(lhs, rexpr)                       \
  HJ_ASSIGN_OR_RETURN_IMPL(HJ_CONCAT(_hj_res_, __LINE__), lhs, rexpr)

#define HJ_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                             \
  if (!tmp.ok()) return tmp.status();             \
  lhs = std::move(tmp).value();

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_COMMON_STATUS_H_
