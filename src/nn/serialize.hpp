// Text serialization of networks.
//
// A self-contained, human-inspectable format (the reproduction's stand-in
// for the paper's TensorFlow model import). Doubles are written with 17
// significant digits, so save/load round-trips bit-exactly.
#pragma once

#include <iosfwd>
#include <string>

#include "nn/network.hpp"

namespace dpv::nn {

/// Writes `net` to `out` in the dpv-network text format.
void save(const Network& net, std::ostream& out);

/// Reads a network previously written by `save`, consuming `in` to its
/// end. Throws ContractViolation on malformed input, before allocating
/// for any tensor the remaining input cannot hold.
Network load(std::istream& in);

/// Convenience file wrappers.
void save_file(const Network& net, const std::string& path);
Network load_file(const std::string& path);

}  // namespace dpv::nn
