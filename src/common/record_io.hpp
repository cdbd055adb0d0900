// Bit-exact token-stream record I/O.
//
// Shared by core/checkpoint and the verify delta-artifact store: both
// need on-disk state that round-trips *bit-identically*, because the
// contract downstream (resumed campaign tables, reused bound traces)
// is byte equality with the run that wrote the file. Doubles therefore
// go through printf %a (hexfloat) and back through strtod — decimal
// formatting would not round-trip every IEEE-754 double.
//
// The format is a whitespace-separated token stream. Strings are
// length-prefixed (`s<len> <bytes>`) so names with spaces survive.
// Writers build the whole payload in memory and commit it atomically
// (temp file + rename): a fault mid-write leaves the previous file (or
// no file) in place, never a torn one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

namespace dpv::common {

/// Token-stream writer. Doubles go through printf %a (hexfloat): the
/// round-trip back through strtod is bit-exact, which is what makes
/// reloaded state byte-identical — decimal formatting would not be.
class RecordWriter {
 public:
  void tag(const char* t) { out_ << t << ' '; }
  void size_value(std::size_t v) { out_ << v << ' '; }
  void u64(std::uint64_t v) { out_ << v << ' '; }
  void dbl(double v);
  void boolean(bool v) { out_ << (v ? 1 : 0) << ' '; }
  /// Length-prefixed so names with spaces survive: `s<len> <bytes>`.
  void str(const std::string& s) { out_ << 's' << s.size() << ' ' << s << ' '; }
  void newline() { out_ << '\n'; }

  std::string take() { return out_.str(); }

 private:
  std::ostringstream out_;
};

/// Token-stream reader over an in-memory payload. Any malformation
/// (wrong tag, bad number, truncation) throws ContractViolation via
/// fail(), with `context` naming the file for the error message.
class RecordReader {
 public:
  RecordReader(std::string text, std::string context);

  std::string token();
  void expect_tag(const char* t);
  /// A decimal integer of digits only (no sign, no trailing text) that
  /// fits in std::size_t.
  std::size_t size_value();
  std::uint64_t u64() { return static_cast<std::uint64_t>(size_value()); }
  /// An element count about to size a container. Each element takes at
  /// least one separator and one token byte, so a count larger than
  /// half the unread text is rejected here, before any allocation.
  std::size_t count();
  /// Fails unless `n` elements, by the rule of count(), still fit in the
  /// unread text.
  void expect_room(std::size_t n);
  double dbl();
  bool boolean();
  std::string str();

  [[noreturn]] void fail(const std::string& why);

 private:
  void skip_ws();
  /// Value of the digits-only text token[first..]; fails on anything
  /// else or on overflow.
  std::size_t parse_digits(const std::string& token, std::size_t first);

  std::string text_;
  std::size_t pos_ = 0;
  std::string context_;
};

/// Atomic commit: writes `contents` to `path + ".tmp"` then renames.
/// Throws ContractViolation when the path cannot be written. `who`
/// prefixes error messages (e.g. "checkpoint", "delta-artifact").
void write_file_atomic(const std::string& path, const std::string& contents,
                       const char* who);

/// Whole-file read; false when the file does not exist.
bool read_file(const std::string& path, std::string& out);

}  // namespace dpv::common
