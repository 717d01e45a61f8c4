// Result<T>: value-or-Status, the return type of fallible value-producing
// functions (analogous to arrow::Result / absl::StatusOr).

#ifndef HYBRIDJOIN_COMMON_RESULT_H_
#define HYBRIDJOIN_COMMON_RESULT_H_

#include <optional>
#include <utility>

#include "common/check.h"
#include "common/status.h"

namespace hybridjoin {

/// Holds either a T or a non-OK Status. Accessing value() on an error result
/// is a programming error and aborts via HJ_CHECK.
template <typename T>
class Result {
 public:
  /// Implicit from value (success).
  Result(T value) : value_(std::move(value)) {}
  /// Implicit from error Status. Must not be OK.
  Result(Status status) : status_(std::move(status)) {
    HJ_CHECK(!status_.ok()) << "Result constructed from OK Status";
  }

  bool ok() const { return value_.has_value(); }

  /// The error (or OK if this holds a value).
  const Status& status() const& { return status_; }
  Status status() && { return std::move(status_); }

  const T& value() const& {
    HJ_CHECK(ok()) << "Result::value() on error: " << status_.ToString();
    return *value_;
  }
  T& value() & {
    HJ_CHECK(ok()) << "Result::value() on error: " << status_.ToString();
    return *value_;
  }
  T&& value() && {
    HJ_CHECK(ok()) << "Result::value() on error: " << status_.ToString();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` if this holds an error.
  T ValueOr(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

  /// Moves the value out; on error keeps it in `*first_error` (see
  /// Status::Update) and returns `fallback` — for protocol steps that must
  /// carry on after an error.
  T ValueOr(Status* first_error, T fallback = T()) && {
    if (ok()) return std::move(*value_);
    first_error->Update(status_);
    return fallback;
  }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_COMMON_RESULT_H_
