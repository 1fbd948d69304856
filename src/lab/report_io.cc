#include "src/lab/report_io.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>

namespace wdmlat::lab {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";
constexpr std::uint64_t kFractionMask = (std::uint64_t{1} << 52) - 1;

// glibc's "%a" for a double, into `buf` (at most 24 bytes); returns the
// length. Normals print as 0x1.<fraction>p<exp>, subnormals as
// 0x0.<fraction>p-1022, zero as 0x0p+0; the fraction is the 52 stored bits
// in 13 hex digits with trailing zeros dropped (and the point with them).
std::size_t FormatHexDouble(double value, char* buf) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  const int biased = static_cast<int>(bits >> 52 & 0x7ff);
  const std::uint64_t fraction = bits & kFractionMask;
  char* p = buf;
  if (bits >> 63 != 0) {
    *p++ = '-';
  }
  if (biased == 0x7ff) {
    const char* word = fraction != 0 ? "nan" : "inf";
    for (int i = 0; i < 3; ++i) {
      *p++ = word[i];
    }
    return static_cast<std::size_t>(p - buf);
  }
  *p++ = '0';
  *p++ = 'x';
  *p++ = biased == 0 ? '0' : '1';
  int exponent = biased == 0 ? (fraction == 0 ? 0 : -1022) : biased - 1023;
  if (fraction != 0) {
    *p++ = '.';
    const int digits = 13 - std::countr_zero(fraction) / 4;
    for (int i = 0; i < digits; ++i) {
      *p++ = kHexDigits[fraction >> (48 - 4 * i) & 0xf];
    }
  }
  *p++ = 'p';
  *p++ = exponent < 0 ? '-' : '+';
  if (exponent < 0) {
    exponent = -exponent;
  }
  char digits[4];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + exponent % 10);
    exponent /= 10;
  } while (exponent != 0);
  while (n > 0) {
    *p++ = digits[--n];
  }
  return static_cast<std::size_t>(p - buf);
}

// Value of each lowercase hex digit, -1 for every other byte: a table, not
// branches, because the digits of real data are as unpredictable as a
// branch predictor's worst case.
constexpr std::array<std::int8_t, 256> kLowerHexValue = [] {
  std::array<std::int8_t, 256> table{};
  for (int c = 0; c < 256; ++c) {
    table[c] = c >= '0' && c <= '9' ? c - '0' : c >= 'a' && c <= 'f' ? c - 'a' + 10 : -1;
  }
  return table;
}();

// `values` as a JSON array of hexfloat strings, one append per value.
void AppendHexArray(std::string& out, const std::vector<double>& values) {
  out += '[';
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    char* p = buf;
    if (i != 0) {
      *p++ = ',';
      *p++ = ' ';
    }
    *p++ = '"';
    p += FormatHexDouble(values[i], p);
    *p++ = '"';
    out.append(buf, p);
  }
  out += ']';
}

}  // namespace

// Shared with the fleet record serialization — see report_io.h.
namespace report_json {

void AppendU64(std::string& out, std::uint64_t value) {
  char buf[20];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, result.ptr);
}

void AppendInt(std::string& out, int value) {
  char buf[16];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, result.ptr);
}

void AppendHexDouble(std::string& out, double value) {
  char buf[32];
  out.append(buf, FormatHexDouble(value, buf));
}

void AppendEscaped(std::string& out, std::string_view text) {
  // Runs between special bytes are copied whole into `out`, grown up front
  // for the common case (a few escapes) and trimmed at the end.
  std::size_t n = out.size();
  out.resize(n + text.size() + text.size() / 8 + 16);
  const char* p = text.data();
  const char* const end = p + text.size();
  for (;;) {
    const char* const special = obs::FindStringSpecial(p, end);
    const std::size_t run = static_cast<std::size_t>(special - p);
    if (n + run + 6 > out.size()) {
      out.resize(std::max(n + run + 6, 2 * out.size()));
    }
    std::memcpy(out.data() + n, p, run);
    n += run;
    if (special == end) {
      break;
    }
    p = special + 1;
    const unsigned char c = static_cast<unsigned char>(*special);
    char* const escape = out.data() + n;
    escape[0] = '\\';
    switch (c) {
      case '"':
      case '\\':
        escape[1] = static_cast<char>(c);
        break;
      case '\n':
        escape[1] = 'n';
        break;
      case '\r':
        escape[1] = 'r';
        break;
      case '\t':
        escape[1] = 't';
        break;
      default:
        escape[1] = 'u';
        escape[2] = '0';
        escape[3] = '0';
        escape[4] = kHexDigits[c >> 4];
        escape[5] = kHexDigits[c & 0xf];
        n += 4;
    }
    n += 2;
  }
  out.resize(n);
}

std::string Escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  AppendEscaped(out, text);
  return out;
}

bool ParseU64(std::string_view text, std::uint64_t* out) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto result = std::from_chars(text.data(), end, value);
  if (text.empty() || result.ec != std::errc() || result.ptr != end) {
    return false;
  }
  *out = value;
  return true;
}

void AppendHistogram(std::string& out, const char* name,
                     const stats::LatencyHistogram::State& state) {
  out += '"';
  out += name;
  out += "\": {\"buckets\": [";
  bool first = true;
  for (const auto& [index, count] : state.buckets) {
    if (!first) out += ", ";
    first = false;
    out += '[';
    AppendInt(out, index);
    out += ", \"";
    AppendU64(out, count);
    out += "\"]";
  }
  out += "], \"count\": \"";
  AppendU64(out, state.count);
  out += "\", \"underflow\": \"";
  AppendU64(out, state.underflow);
  out += "\", \"sum_us\": \"";
  AppendHexDouble(out, state.sum_us);
  out += "\", \"min_us\": \"";
  AppendHexDouble(out, state.min_us);
  out += "\", \"max_us\": \"";
  AppendHexDouble(out, state.max_us);
  out += "\"}";
}

void AppendSketch(std::string& out, const char* name, const stats::QuantileSketch::State& state) {
  out += '"';
  out += name;
  out += "\": {\"levels\": [";
  for (std::size_t l = 0; l < state.levels.size(); ++l) {
    if (l != 0) out += ", ";
    AppendHexArray(out, state.levels[l]);
  }
  out += "], \"parities\": [";
  for (std::size_t l = 0; l < state.parities.size(); ++l) {
    if (l != 0) out += ", ";
    AppendInt(out, static_cast<int>(state.parities[l]));
  }
  // Tail order (heap or sorted) is exported verbatim so the import is
  // bit-identical.
  out += "], \"tail\": ";
  AppendHexArray(out, state.tail);
  out += ", \"count\": \"";
  AppendU64(out, state.count);
  out += "\", \"sum_ms\": \"";
  AppendHexDouble(out, state.sum_ms);
  out += "\", \"min_ms\": \"";
  AppendHexDouble(out, state.min_ms);
  out += "\", \"max_ms\": \"";
  AppendHexDouble(out, state.max_ms);
  out += "\"}";
}

std::size_t SketchTextBound(const stats::QuantileSketch::State& state) {
  // Per value: a 24-byte hexfloat, its quotes and a separator; per level:
  // brackets, separators and a parity; plus the keys and four scalars.
  std::size_t values = state.tail.size();
  for (const std::vector<double>& level : state.levels) {
    values += level.size();
  }
  return 28 * values + 8 * state.levels.size() + 256;
}

bool ReadU64(obs::JsonCursor& in, const char* field, std::uint64_t* out) {
  in.Peek();  // past any whitespace, so an error points at the string
  const std::size_t at = in.offset();
  std::string_view text;
  if (!in.ReadString(&text)) {
    return false;
  }
  return ParseU64(text, out) ||
         in.FailAt(at, std::string("field \"") + field + "\" is not a decimal u64: " +
                           std::string(text));
}

bool ReadHexDouble(obs::JsonCursor& in, const char* field, double* out) {
  in.Peek();  // past any whitespace, so an error points at the string
  const std::size_t at = in.offset();
  std::string_view text;
  if (!in.ReadString(&text)) {
    return false;
  }
  return ParseHexDouble(text, out) ||
         in.FailAt(at, std::string("field \"") + field + "\" is not a hexfloat: " +
                           std::string(text));
}

bool ReadIndex(obs::JsonCursor& in, const char* field, double limit, std::uint64_t* out) {
  in.Peek();  // past any whitespace, so a range error points at the number
  const std::size_t at = in.offset();
  double value = 0.0;
  if (!in.ReadNumber(&value)) {
    return false;
  }
  if (!(value >= 0.0 && value < limit && value == std::floor(value))) {
    return in.FailAt(at, std::string("field \"") + field + "\" is not an integer in range");
  }
  *out = static_cast<std::uint64_t>(value);
  return true;
}

bool ReadHistogram(obs::JsonCursor& in, const char* name, stats::LatencyHistogram* out) {
  static constexpr const char* kFields[] = {"buckets", "count",  "underflow",
                                            "sum_us",  "min_us", "max_us"};
  stats::LatencyHistogram::State state;
  const bool read = ReadFields(in, kFields, 0x3f, name, [&](std::size_t field) {
    switch (field) {
      case 0:
        return ReadArray(in, [&] {
          std::uint64_t index = 0;
          std::uint64_t count = 0;
          const bool entry = ReadFixedArray(in, 2, "bucket entry", [&](std::size_t i) {
            return i == 0 ? ReadIndex(in, "bucket index", stats::LatencyHistogram::kBucketCount,
                                      &index)
                          : ReadU64(in, "bucket count", &count);
          });
          state.buckets.emplace_back(static_cast<int>(index), count);
          return entry;
        });
      case 1:
        return ReadU64(in, "count", &state.count);
      case 2:
        return ReadU64(in, "underflow", &state.underflow);
      case 3:
        return ReadHexDouble(in, "sum_us", &state.sum_us);
      case 4:
        return ReadHexDouble(in, "min_us", &state.min_us);
      default:
        return ReadHexDouble(in, "max_us", &state.max_us);
    }
  });
  return read && (out->ImportState(state) ||
                  in.Fail(std::string("histogram \"") + name +
                          "\": state rejected (bucket/count conservation)"));
}

bool ReadSketch(obs::JsonCursor& in, const char* name, stats::QuantileSketch* out) {
  static constexpr const char* kFields[] = {"levels", "parities", "tail",  "count",
                                            "sum_ms", "min_ms",   "max_ms"};
  stats::QuantileSketch::State state;
  const auto read_values = [&](const char* field, std::vector<double>* values) {
    return ReadArray(in, [&] {
      double value = 0.0;
      if (!ReadHexDouble(in, field, &value)) {
        return false;
      }
      values->push_back(value);
      return true;
    });
  };
  const bool read = ReadFields(in, kFields, 0x7f, name, [&](std::size_t field) {
    switch (field) {
      case 0:
        return ReadArray(in, [&] {
          state.levels.emplace_back();
          return read_values("level item", &state.levels.back());
        });
      case 1:
        return ReadArray(in, [&] {
          std::uint64_t parity = 0;
          if (!ReadIndex(in, "parity", 2.0, &parity)) {
            return false;
          }
          state.parities.push_back(static_cast<std::uint8_t>(parity));
          return true;
        });
      case 2:
        return read_values("tail item", &state.tail);
      case 3:
        return ReadU64(in, "count", &state.count);
      case 4:
        return ReadHexDouble(in, "sum_ms", &state.sum_ms);
      case 5:
        return ReadHexDouble(in, "min_ms", &state.min_ms);
      default:
        return ReadHexDouble(in, "max_ms", &state.max_ms);
    }
  });
  return read && (out->ImportState(state) ||
                  in.Fail(std::string("sketch \"") + name +
                          "\": state rejected (weight conservation)"));
}

}  // namespace report_json

std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string HexDouble(double value) {
  char buf[32];
  return std::string(buf, FormatHexDouble(value, buf));
}

// The inverse of FormatHexDouble over finite values, and nothing more: any
// other spelling (decimal, uppercase, a '+' sign, whitespace, trailing
// zeros, too many digits, an exponent out of range or with a leading zero)
// is rejected rather than rounded.
bool ParseHexDouble(std::string_view text, double* out) {
  const char* p = text.data();
  const char* const end = p + text.size();
  std::uint64_t sign = 0;
  if (p != end && *p == '-') {
    sign = std::uint64_t{1} << 63;
    ++p;
  }
  if (end - p < 6 || p[0] != '0' || p[1] != 'x' || (p[2] != '0' && p[2] != '1')) {
    return false;
  }
  const bool normal = p[2] == '1';
  p += 3;
  std::uint64_t fraction = 0;
  if (*p == '.') {
    ++p;
    int digits = 0;
    int digit = 0;
    while (p != end && digits < 13 && (digit = kLowerHexValue[static_cast<unsigned char>(*p)]) >= 0) {
      fraction = fraction << 4 | static_cast<std::uint64_t>(digit);
      ++digits;
      ++p;
    }
    if (digits == 0 || (fraction & 0xf) == 0) {
      return false;  // "0x1.p+0", or a trailing zero
    }
    fraction <<= 4 * (13 - digits);
  }
  if (end - p < 3 || p[0] != 'p' || (p[1] != '+' && p[1] != '-')) {
    return false;
  }
  const bool negative_exponent = p[1] == '-';
  p += 2;
  if (end - p > 4 || (*p == '0' && end - p > 1)) {
    return false;  // more than 4 digits, or a leading zero
  }
  int exponent = 0;
  for (; p != end; ++p) {
    if (*p < '0' || *p > '9') {
      return false;
    }
    exponent = exponent * 10 + (*p - '0');
  }
  std::uint64_t bits = 0;
  if (normal) {
    if (negative_exponent ? (exponent == 0 || exponent > 1022) : exponent > 1023) {
      return false;
    }
    const int biased = (negative_exponent ? -exponent : exponent) + 1023;
    bits = static_cast<std::uint64_t>(biased) << 52 | fraction;
  } else if (fraction == 0) {
    if (negative_exponent || exponent != 0) {
      return false;  // zero is only 0x0p+0
    }
  } else {
    if (!negative_exponent || exponent != 1022) {
      return false;  // subnormals are only 0x0.<fraction>p-1022
    }
    bits = fraction;
  }
  *out = std::bit_cast<double>(bits | sign);
  return true;
}

}  // namespace wdmlat::lab
