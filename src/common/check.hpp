// Checked preconditions and internal-consistency assertions.
//
// The library reports contract violations by throwing: callers passing
// malformed models or shapes get a diagnosable `dpv::ContractViolation`
// instead of undefined behaviour. Checks stay enabled in release builds.
// The nn kernels (every layer's `forward`, `backward_input` and training
// `forward_batch` / `backward_batch`) check sizes once per call, before
// their loop, then walk raw rows. A check with a string-literal message
// costs one branch when it passes; hot paths whose message formats values
// (`Tensor::reshaped`) build it only on failure.
#pragma once

#include <stdexcept>
#include <string>

namespace dpv {

/// Thrown when a documented precondition of a public API is violated.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what) : std::logic_error(what) {}
};

/// Thrown when an internal invariant fails (a bug in this library).
class InternalError : public std::logic_error {
 public:
  explicit InternalError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn]] void throw_contract_violation(const char* message);
[[noreturn]] void throw_internal_error(const char* message);
}  // namespace detail

/// Throws ContractViolation with `message` when `condition` is false.
void check(bool condition, const std::string& message);

/// As above; the message becomes a std::string only on failure.
inline void check(bool condition, const char* message) {
  if (!condition) detail::throw_contract_violation(message);
}

/// Throws InternalError with `message` when `condition` is false; the
/// message becomes a std::string only on failure.
inline void internal_check(bool condition, const char* message) {
  if (!condition) detail::throw_internal_error(message);
}

}  // namespace dpv
