// The bit-exact record dialect of the fleet's shard records and fleet.json.
//
// A resumed fleet must merge bit-identically to a fresh run, which rules
// out decimal round-tripping sloppiness: every double (histogram sums,
// min/max, sample rates) is serialized as a C99 hexfloat string
// ("0x1.8p+4", spelled exactly as glibc's printf %a spells it) and read back
// bit for bit. 64-bit counters travel as decimal strings because JSON
// numbers are doubles here (exact only to 2^53). The documents are plain
// JSON otherwise, read through obs::JsonCursor — including its
// duplicate-key and non-finite rejection, so a corrupt record fails loudly
// instead of skewing a merge.
//
// Readers accept exactly one spelling per value: the canonical %a spelling
// of a finite double, a u64 as decimal digits only, and integer-valued JSON
// numbers (versions, cohort and bucket indices, parities) as exact
// integers in range. Every writer here emits those spellings.

#ifndef SRC_LAB_REPORT_IO_H_
#define SRC_LAB_REPORT_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/lab/lab.h"
#include "src/obs/json.h"

namespace wdmlat::lab {

// FNV-1a 64-bit over raw bytes: the record checksum and spec fingerprint
// hash. Stable, dependency-free, and plenty against torn writes and bit rot
// (this guards integrity, not adversaries).
std::uint64_t Fnv1a64(std::string_view bytes);

// Exact double <-> string via C99 hexfloat. HexDouble writes glibc's "%a"
// spelling (non-finite values included: "inf", "-nan"); ParseHexDouble
// accepts only the canonical spelling of a finite value, i.e. exactly the
// strings HexDouble returns for finite doubles.
std::string HexDouble(double value);
bool ParseHexDouble(std::string_view text, double* out);

// Building blocks of the fleet's per-cell records and merged report
// (src/lab/fleet.cc): hexfloat doubles, decimal-string u64s,
// histogram/sketch State round trips with conservation validation on
// import.
namespace report_json {

// Writers: append to `out`.
void AppendU64(std::string& out, std::uint64_t value);
void AppendInt(std::string& out, int value);
void AppendHexDouble(std::string& out, double value);
// JSON string-body escaping: quote, backslash and control characters.
void AppendEscaped(std::string& out, std::string_view text);
void AppendHistogram(std::string& out, const char* name,
                     const stats::LatencyHistogram::State& state);
void AppendSketch(std::string& out, const char* name, const stats::QuantileSketch::State& state);
// Bytes AppendSketch writes for `state`, at most (for reserving).
std::size_t SketchTextBound(const stats::QuantileSketch::State& state);

std::string Escape(const std::string& text);
// Decimal digits only (no sign, space or prefix), no overflow.
bool ParseU64(std::string_view text, std::uint64_t* out);

// Readers: consume one value at `in`; on a bad value fail the cursor with a
// message naming `field`.
bool ReadU64(obs::JsonCursor& in, const char* field, std::uint64_t* out);
bool ReadHexDouble(obs::JsonCursor& in, const char* field, double* out);
// A JSON number holding an exact integer in [0, limit).
bool ReadIndex(obs::JsonCursor& in, const char* field, double limit, std::uint64_t* out);
// The histogram / sketch object at `in`, imported with validation.
bool ReadHistogram(obs::JsonCursor& in, const char* name, stats::LatencyHistogram* out);
bool ReadSketch(obs::JsonCursor& in, const char* name, stats::QuantileSketch* out);

// The array at `in`: `item()` consumes each item.
template <typename Item>
bool ReadArray(obs::JsonCursor& in, Item&& item) {
  if (!in.BeginArray()) {
    return false;
  }
  while (in.NextItem()) {
    if (!item()) {
      return false;
    }
  }
  return in.ok();
}

// The array at `in`, which must hold exactly `n` items: `item(i)` consumes
// item i.
template <typename Item>
bool ReadFixedArray(obs::JsonCursor& in, std::size_t n, const char* what, Item&& item) {
  std::size_t i = 0;
  const bool read = ReadArray(in, [&] {
    return i < n ? item(i++) : in.Fail(std::string(what) + " has more than " + std::to_string(n) +
                                       " items");
  });
  return read && (i == n || in.Fail(std::string(what) + " has fewer than " +
                                    std::to_string(n) + " items"));
}

// The object at `in`, in any member order: `member(i)` consumes the value
// of known field `fields[i]`; unknown members are skipped (duplicates were
// already rejected by the strict cursor). Fails naming the first field of
// the `required` bit mask that is absent.
template <std::size_t N, typename Member>
bool ReadFields(obs::JsonCursor& in, const char* const (&fields)[N], unsigned required,
                const char* where, Member&& member) {
  static_assert(N <= 32, "one bit per field");
  if (!in.BeginObject()) {
    return false;
  }
  unsigned seen = 0;
  std::string_view key;
  while (in.NextMember(&key)) {
    std::size_t field = 0;
    while (field < N && key != fields[field]) {
      ++field;
    }
    if (field == N) {
      if (!in.SkipValue()) {
        return false;
      }
      continue;
    }
    seen |= 1u << field;
    if (!member(field)) {
      return false;
    }
  }
  if (!in.ok()) {
    return false;
  }
  for (std::size_t i = 0; i < N; ++i) {
    if ((required >> i & 1u) != 0 && (seen >> i & 1u) == 0) {
      return in.Fail(std::string(where) + ": missing field \"" + fields[i] + "\"");
    }
  }
  return true;
}

}  // namespace report_json

}  // namespace wdmlat::lab

#endif  // SRC_LAB_REPORT_IO_H_
