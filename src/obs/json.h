// The repo's one JSON grammar: a pull cursor, plus a linter and a DOM built
// on it.
//
// The trace and metrics writers emit JSON by hand (no third-party dependency
// is available in this tree), so the schema-validating tests and the
// ci/trace_smoke.sh ctest need an independent parser to confirm the output
// actually parses. JsonCursor is a strict RFC 8259 recursive-descent reader
// that hands out one value at a time; it is the only JSON grammar in the
// tree. LintJson walks a document with it, building nothing, and reports
// the top-level object's keys so callers can assert required members exist.
// ParseJson materialises a JsonValue tree from it — the input side of the
// house (fault plans, bench_to_json's inputs). Streaming readers of a known
// schema (the fleet spec and record decoders) pull values straight from a
// cursor and never build a tree.

#ifndef SRC_OBS_JSON_H_
#define SRC_OBS_JSON_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wdmlat::obs {

// The first byte in [begin, end) that cannot stand unescaped in a JSON
// string body — a quote, a backslash or a control character — or `end`.
// String scanning and escaping run on it, eight bytes per step: in each
// word, a byte equal to '"' or '\\' leaves a zero after the xor, and the
// borrow test below flags the lowest byte that is zero or below 0x20
// exactly (borrows only corrupt the bytes above it).
inline const char* FindStringSpecial(const char* begin, const char* end) {
  static_assert(std::endian::native == std::endian::little, "byte order of the word scan");
  constexpr std::uint64_t kOnes = 0x0101010101010101ull;
  constexpr std::uint64_t kHighs = 0x8080808080808080ull;
  const char* p = begin;
  while (end - p >= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    const std::uint64_t quote = word ^ (kOnes * '"');
    const std::uint64_t backslash = word ^ (kOnes * '\\');
    const std::uint64_t hits = (((quote - kOnes) & ~quote) | ((backslash - kOnes) & ~backslash) |
                                ((word - kOnes * 0x20) & ~word)) &
                               kHighs;
    if (hits != 0) {
      return p + std::countr_zero(hits) / 8;
    }
    p += 8;
  }
  while (p != end && *p != '"' && *p != '\\' && static_cast<unsigned char>(*p) >= 0x20) {
    ++p;
  }
  return p;
}

// Pull reader over one JSON text. A strict cursor (the default) rejects
// duplicate object keys and numbers that overflow double, anywhere in the
// document, skipped values included; a lenient one (LintJson) checks only
// the grammar. Strings come back with every escape decoded: \uXXXX becomes
// UTF-8, surrogate pairs are joined, and a lone surrogate is an error.
//
// Usage: Peek() names the next value's kind; Read*/Begin* consume it. After
// BeginObject, NextMember returns each key in turn (leaving the cursor on
// its value) and false at the closing brace; after BeginArray, NextItem
// returns true while another item follows. Every reader returns false on
// error, and the first error (message plus byte offset) is kept.
class JsonCursor {
 public:
  enum class Kind : std::uint8_t { kError, kObject, kArray, kString, kNumber, kBool, kNull };

  explicit JsonCursor(std::string_view text, bool strict = true);

  // Kind of the next value (whitespace skipped); kError at end of input or
  // past the nesting limit.
  Kind Peek();

  bool BeginObject();
  // The next member's key, or false at '}' (consumed) or on error. The key
  // view stays valid until the next string is read.
  bool NextMember(std::string_view* key);
  bool BeginArray();
  // True while another item follows; false at ']' (consumed) or on error.
  bool NextItem();

  // The decoded string. The view points into the text when the string has
  // no escapes, into the cursor's own buffer otherwise, and stays valid
  // until the next string is read.
  bool ReadString(std::string_view* out);
  // The decoded string, copied into *out (its capacity is reused).
  bool ReadString(std::string* out);
  bool ReadNumber(double* out);
  bool ReadBool(bool* out);
  bool ReadNull();
  // Consume the next value whole, checking it as strictly as a read would.
  bool SkipValue();
  // True when only whitespace remains.
  bool Finish();

  bool ok() const { return error_.empty(); }
  // Record an error at the current offset (or `offset`); only the first
  // error is kept. Always returns false.
  bool Fail(std::string message);
  bool FailAt(std::size_t offset, std::string message);
  std::size_t offset() const { return pos_; }
  const std::string& error() const { return error_; }
  std::size_t error_offset() const { return error_pos_; }
  // 1-based line and column of the first error.
  void ErrorLineColumn(std::size_t* line, std::size_t* column) const;

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  // Peek, failing with "expected <what>" unless the next value is `kind`.
  bool At(Kind kind, const char* what);
  void SkipWhitespace();
  bool Expect(char c, const char* message);
  bool ConsumeLiteral(std::string_view literal);
  bool ScanString(std::string* decoded, std::string_view* out);
  bool DecodeEscape(char* out, std::size_t* written);
  bool ReadHex4(unsigned* out);
  bool ScanNumber(double* out);
  void Open();
  void Close();

  static constexpr int kMaxDepth = 64;

  std::string_view text_;
  bool strict_;
  std::size_t pos_ = 0;
  std::size_t error_pos_ = 0;
  std::string error_;
  // Open containers; `first_` is true right after Begin*, until the first
  // member or item.
  int depth_ = 0;
  bool first_ = false;
  std::string scratch_;  // decoded text of the last escaped string
  // Strict mode's duplicate check: the keys of every open object, flat,
  // with each open container's first index on a stack. Slots are reused.
  std::vector<std::string> keys_;
  std::size_t key_count_ = 0;
  std::vector<std::size_t> key_frames_;
};

struct JsonLintResult {
  bool valid = false;
  // Populated when !valid: position (byte offset plus 1-based line:column)
  // and message of the first error.
  std::size_t error_offset = 0;
  std::size_t error_line = 0;
  std::size_t error_column = 0;
  std::string error;
  // When the document is a valid object: its top-level member names, in
  // document order.
  std::vector<std::string> top_level_keys;

  bool HasTopLevelKey(std::string_view key) const;
};

// Validate that `text` is exactly one well-formed JSON value (plus optional
// surrounding whitespace).
JsonLintResult LintJson(std::string_view text);

// A parsed JSON value. Numbers are stored as double (ample for the plan
// schema: durations, rates, seeds up to 2^53); object members keep document
// order. On hand-built objects Find keeps the last occurrence of a repeated
// key; documents arriving through ParseJson can never contain one (the
// parser rejects duplicates — see below).
class JsonValue {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool(bool fallback = false) const { return is_bool() ? bool_ : fallback; }
  double as_number(double fallback = 0.0) const { return is_number() ? number_ : fallback; }
  const std::string& as_string() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const { return members_; }

  // Object member lookup (last occurrence wins); nullptr when absent or when
  // this value is not an object.
  const JsonValue* Find(std::string_view key) const;
  // Convenience typed lookups with fallbacks for optional schema fields.
  double NumberOr(std::string_view key, double fallback) const;
  bool BoolOr(std::string_view key, bool fallback) const;
  std::string StringOr(std::string_view key, std::string_view fallback) const;

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool value);
  static JsonValue Number(double value);
  static JsonValue String(std::string value);
  static JsonValue Array(std::vector<JsonValue> items);
  static JsonValue Object(std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

struct JsonParseResult {
  bool valid = false;
  JsonValue value;
  // Populated when !valid: byte offset plus 1-based line:column of the
  // first error, so corrupt inputs and fault plans are diagnosable by eye.
  std::size_t error_offset = 0;
  std::size_t error_line = 0;
  std::size_t error_column = 0;
  std::string error;
};

// Parse `text` into a JsonValue tree through a strict JsonCursor: the same
// grammar as LintJson, hardened further for hostile/corrupt input (fault
// plans, benchmark files): duplicate object keys and numbers that overflow
// double (e.g. 1e999) are rejected rather than silently accepted, and
// nesting past the shared depth limit fails cleanly. LintJson validates this repo's own
// exporters and intentionally stays lenient about duplicates.
JsonParseResult ParseJson(std::string_view text);

}  // namespace wdmlat::obs

#endif  // SRC_OBS_JSON_H_
