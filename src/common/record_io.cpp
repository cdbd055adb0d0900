#include "common/record_io.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <utility>

#include "common/check.hpp"

namespace dpv::common {

void RecordWriter::dbl(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  out_ << buf << ' ';
}

RecordReader::RecordReader(std::string text, std::string context)
    : text_(std::move(text)), context_(std::move(context)) {}

std::string RecordReader::token() {
  skip_ws();
  if (pos_ >= text_.size()) fail("unexpected end of file");
  const std::size_t start = pos_;
  while (pos_ < text_.size() && !std::isspace(static_cast<unsigned char>(text_[pos_])))
    ++pos_;
  return text_.substr(start, pos_ - start);
}

void RecordReader::expect_tag(const char* t) {
  const std::string got = token();
  if (got != t) fail(std::string("expected '") + t + "', got '" + got + "'");
}

std::size_t RecordReader::parse_digits(const std::string& token, std::size_t first) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  if (first >= token.size()) fail("bad integer '" + token + "'");
  std::size_t v = 0;
  for (std::size_t i = first; i < token.size(); ++i) {
    if (token[i] < '0' || token[i] > '9') fail("bad integer '" + token + "'");
    const auto d = static_cast<std::size_t>(token[i] - '0');
    if (v > (kMax - d) / 10) fail("integer out of range '" + token + "'");
    v = v * 10 + d;
  }
  return v;
}

std::size_t RecordReader::size_value() { return parse_digits(token(), 0); }

std::size_t RecordReader::count() {
  const std::size_t n = size_value();
  expect_room(n);
  return n;
}

void RecordReader::expect_room(std::size_t n) {
  if (n > (text_.size() - pos_) / 2) fail("count " + std::to_string(n) + " exceeds the file");
}

double RecordReader::dbl() {
  const std::string t = token();
  char* end = nullptr;
  const double v = std::strtod(t.c_str(), &end);
  if (end == nullptr || *end != '\0' || end == t.c_str())
    fail("bad double '" + t + "'");
  return v;
}

bool RecordReader::boolean() {
  const std::string t = token();
  if (t == "0") return false;
  if (t == "1") return true;
  fail("bad bool '" + t + "'");
}

std::string RecordReader::str() {
  const std::string t = token();
  if (t.empty() || t[0] != 's') fail("bad string token '" + t + "'");
  const std::size_t len = parse_digits(t, 1);
  if (pos_ >= text_.size() || text_[pos_] != ' ') fail("malformed string payload");
  ++pos_;  // the single separator space
  if (len > text_.size() - pos_) fail("truncated string payload");
  std::string s = text_.substr(pos_, len);
  pos_ += len;
  return s;
}

void RecordReader::fail(const std::string& why) {
  check(false, context_ + ": " + why);
  std::abort();  // unreachable; check throws
}

void RecordReader::skip_ws() {
  while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])))
    ++pos_;
}

void write_file_atomic(const std::string& path, const std::string& contents,
                       const char* who) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    check(out.is_open(), std::string(who) + ": cannot open " + tmp + " for writing");
    out << contents;
    out.flush();
    check(out.good(), std::string(who) + ": write to " + tmp + " failed");
  }
  check(std::rename(tmp.c_str(), path.c_str()) == 0,
        std::string(who) + ": cannot rename " + tmp + " to " + path);
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

}  // namespace dpv::common
