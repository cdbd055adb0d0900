#include "common/check.hpp"

namespace dpv {

void detail::throw_contract_violation(const char* message) { throw ContractViolation(message); }

void detail::throw_internal_error(const char* message) { throw InternalError(message); }

void check(bool condition, const std::string& message) {
  if (!condition) throw ContractViolation(message);
}

}  // namespace dpv
