#include "log/io_jsonl.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/crc32.h"
#include "common/error.h"
#include "common/text.h"

namespace wflog {
namespace {

void write_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      case '\r':
        out << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void write_json_value(std::ostream& out, const Value& v) {
  switch (v.kind()) {
    case ValueKind::kNull:
      out << "null";
      break;
    case ValueKind::kInt:
      out << v.as_int();
      break;
    case ValueKind::kDouble: {
      const double d = v.as_double();
      if (std::isfinite(d)) {
        char buf[40];
        auto [end, ec] = std::to_chars(buf, buf + sizeof buf, d);
        out.write(buf, end - buf);
        // Preserve double-ness across a round trip.
        std::string_view sv(buf, static_cast<std::size_t>(end - buf));
        if (sv.find('.') == std::string_view::npos &&
            sv.find('e') == std::string_view::npos) {
          out << ".0";
        }
      } else {
        out << "null";  // JSON has no inf/nan
      }
      break;
    }
    case ValueKind::kBool:
      out << (v.as_bool() ? "true" : "false");
      break;
    case ValueKind::kString:
      write_json_string(out, v.as_string());
      break;
  }
}

void write_json_map(std::ostream& out, const AttrMap& map,
                    const Interner& interner) {
  out << '{';
  bool first = true;
  for (const AttrEntry& e : map) {
    if (!first) out << ',';
    first = false;
    write_json_string(out, interner.name(e.attr));
    out << ':';
    write_json_value(out, e.value);
  }
  out << '}';
}

/// Minimal recursive-descent JSON parser covering the subset this codec
/// emits (objects of scalars, nested one level). Positions reported in
/// bytes within the line.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  /// Parses the top-level record object.
  void parse_record(LogRecord& l, Interner& interner) {
    skip_ws();
    expect('{');
    bool first = true;
    while (true) {
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        break;
      }
      if (!first) {
        expect(',');
        skip_ws();
      }
      first = false;
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      if (key == "lsn") {
        l.lsn = static_cast<Lsn>(parse_uint());
      } else if (key == "wid") {
        l.wid = static_cast<Wid>(parse_uint());
      } else if (key == "is_lsn") {
        l.is_lsn = static_cast<IsLsn>(parse_uint());
      } else if (key == "activity") {
        l.activity = interner.intern(parse_string());
      } else if (key == "in") {
        l.in = parse_map(interner);
      } else if (key == "out") {
        l.out = parse_map(interner);
      } else {
        skip_value();  // forward compatibility: ignore unknown keys
      }
    }
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after record object");
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw IoError("JSONL: " + msg + " (byte " + std::to_string(pos_) + ")");
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  std::uint64_t parse_uint() {
    std::uint64_t v = 0;
    auto [p, ec] =
        std::from_chars(text_.data() + pos_, text_.data() + text_.size(), v);
    if (ec != std::errc{}) fail("expected unsigned integer");
    pos_ = static_cast<std::size_t>(p - text_.data());
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        char e = text_[pos_++];
        switch (e) {
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            unsigned code = 0;
            auto [p, ec] = std::from_chars(text_.data() + pos_,
                                           text_.data() + pos_ + 4, code, 16);
            if (ec != std::errc{} || p != text_.data() + pos_ + 4) {
              fail("bad \\u escape");
            }
            pos_ += 4;
            // This codec only emits \u for control chars; decode BMP
            // codepoints to UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            out += e;
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Value parse_value() {
    const char c = peek();
    if (c == '"') return Value{parse_string()};
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return Value{};
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return Value{true};
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return Value{false};
    }
    // number: try int64 first, fall back to double
    std::int64_t i = 0;
    auto [ip, iec] =
        std::from_chars(text_.data() + pos_, text_.data() + text_.size(), i);
    double d = 0;
    auto [dp, dec] =
        std::from_chars(text_.data() + pos_, text_.data() + text_.size(), d);
    if (dec != std::errc{}) fail("expected JSON value");
    if (iec == std::errc{} && ip == dp) {
      pos_ = static_cast<std::size_t>(ip - text_.data());
      return Value{i};
    }
    pos_ = static_cast<std::size_t>(dp - text_.data());
    return Value{d};
  }

  AttrMap parse_map(Interner& interner) {
    // Built in a per-thread scratch map and returned as a copy: the copy
    // is allocated once at its exact size, with no growth slack for a
    // loaded record to keep.
    thread_local AttrMap map;
    map.clear();
    expect('{');
    bool first = true;
    while (true) {
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        break;
      }
      if (!first) {
        expect(',');
        skip_ws();
      }
      first = false;
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      map.set(interner.intern(key), parse_value());
    }
    return map;
  }

  void skip_value() {
    const char c = peek();
    if (c == '{') {
      int depth = 0;
      bool in_str = false;
      for (; pos_ < text_.size(); ++pos_) {
        const char k = text_[pos_];
        if (in_str) {
          if (k == '\\') {
            ++pos_;
          } else if (k == '"') {
            in_str = false;
          }
        } else if (k == '"') {
          in_str = true;
        } else if (k == '{') {
          ++depth;
        } else if (k == '}') {
          if (--depth == 0) {
            ++pos_;
            return;
          }
        }
      }
      fail("unterminated object");
    }
    parse_value();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

void write_jsonl_record(std::ostream& out, const LogRecord& l,
                        const Interner& in) {
  out << "{\"lsn\":" << l.lsn << ",\"wid\":" << l.wid
      << ",\"is_lsn\":" << l.is_lsn << ",\"activity\":";
  write_json_string(out, in.name(l.activity));
  out << ",\"in\":";
  write_json_map(out, l.in, in);
  out << ",\"out\":";
  write_json_map(out, l.out, in);
  out << "}\n";
}

LogRecord parse_jsonl_record(std::string_view line, Interner& interner) {
  LogRecord l;
  JsonParser(line).parse_record(l, interner);
  return l;
}

namespace {

constexpr std::size_t kCrcHexLen = 8;

bool has_crc_prefix(std::string_view line) {
  if (line.size() < kCrcHexLen + 2 || line[kCrcHexLen] != ' ') return false;
  for (std::size_t i = 0; i < kCrcHexLen; ++i) {
    if (std::isxdigit(static_cast<unsigned char>(line[i])) == 0) return false;
  }
  return line[kCrcHexLen + 1] == '{';
}

}  // namespace

std::string to_store_line(const LogRecord& record, const Interner& interner) {
  std::ostringstream body;
  write_jsonl_record(body, record, interner);
  std::string line = std::move(body).str();
  line.pop_back();  // write_jsonl_record's trailing newline; re-added below
  char prefix[kCrcHexLen + 2];
  std::snprintf(prefix, sizeof prefix, "%08x ", crc32(line));
  line.insert(0, prefix, kCrcHexLen + 1);
  line += '\n';
  return line;
}

LogRecord parse_store_line(std::string_view line, Interner& interner) {
  if (!has_crc_prefix(line)) return parse_jsonl_record(line, interner);
  const std::string_view body = line.substr(kCrcHexLen + 1);
  std::uint32_t expected = 0;
  std::from_chars(line.data(), line.data() + kCrcHexLen, expected, 16);
  if (crc32(body) != expected) {
    throw IoError("store record checksum mismatch");
  }
  return parse_jsonl_record(body, interner);
}

void write_jsonl(const Log& log, std::ostream& out) {
  const Interner& in = log.interner();
  for (const LogRecord& l : log) {
    write_jsonl_record(out, l, in);
  }
}

std::string to_jsonl(const Log& log) {
  std::ostringstream os;
  write_jsonl(log, os);
  return os.str();
}

Log read_jsonl(std::istream& in) {
  Interner interner;
  std::vector<LogRecord> records;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (trim(line).empty()) continue;
    LogRecord l;
    try {
      JsonParser(line).parse_record(l, interner);
    } catch (const IoError& e) {
      throw IoError("line " + std::to_string(lineno) + ": " + e.what());
    }
    records.push_back(std::move(l));
  }
  return Log::from_records(std::move(records), std::move(interner));
}

Log jsonl_to_log(const std::string& text) {
  std::istringstream is(text);
  return read_jsonl(is);
}

}  // namespace wflog
