#include "src/obs/json.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace wdmlat::obs {

namespace {

// 1-based line/column of a byte offset, for human-readable error positions.
void OffsetToLineColumn(std::string_view text, std::size_t offset, std::size_t* line,
                        std::size_t* column) {
  *line = 1;
  std::size_t line_start = 0;
  const std::size_t end = offset < text.size() ? offset : text.size();
  for (std::size_t i = 0; i < end; ++i) {
    if (text[i] == '\n') {
      ++*line;
      line_start = i + 1;
    }
  }
  *column = end - line_start + 1;
}

// `code_point` (at most U+10FFFF) as UTF-8 into `out`; returns the length.
std::size_t EncodeUtf8(unsigned code_point, char* out) {
  if (code_point < 0x80) {
    out[0] = static_cast<char>(code_point);
    return 1;
  }
  if (code_point < 0x800) {
    out[0] = static_cast<char>(0xC0 | (code_point >> 6));
    out[1] = static_cast<char>(0x80 | (code_point & 0x3F));
    return 2;
  }
  if (code_point < 0x10000) {
    out[0] = static_cast<char>(0xE0 | (code_point >> 12));
    out[1] = static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
    out[2] = static_cast<char>(0x80 | (code_point & 0x3F));
    return 3;
  }
  out[0] = static_cast<char>(0xF0 | (code_point >> 18));
  out[1] = static_cast<char>(0x80 | ((code_point >> 12) & 0x3F));
  out[2] = static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
  out[3] = static_cast<char>(0x80 | (code_point & 0x3F));
  return 4;
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

// --- JsonCursor --------------------------------------------------------------

JsonCursor::JsonCursor(std::string_view text, bool strict) : text_(text), strict_(strict) {}

bool JsonCursor::Fail(std::string message) { return FailAt(pos_, std::move(message)); }

bool JsonCursor::FailAt(std::size_t offset, std::string message) {
  // The first (innermost) failure keeps its position and message.
  if (error_.empty()) {
    error_ = std::move(message);
    error_pos_ = offset;
  }
  return false;
}

void JsonCursor::ErrorLineColumn(std::size_t* line, std::size_t* column) const {
  OffsetToLineColumn(text_, error_pos_, line, column);
}

void JsonCursor::SkipWhitespace() {
  while (!AtEnd()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
      return;
    }
    ++pos_;
  }
}

bool JsonCursor::Expect(char c, const char* message) {
  if (AtEnd() || text_[pos_] != c) {
    return Fail(message);
  }
  ++pos_;
  return true;
}

bool JsonCursor::ConsumeLiteral(std::string_view literal) {
  if (text_.substr(pos_, literal.size()) != literal) {
    return Fail("invalid literal");
  }
  pos_ += literal.size();
  return true;
}

JsonCursor::Kind JsonCursor::Peek() {
  if (!ok()) {
    return Kind::kError;
  }
  // A value nested inside kMaxDepth open containers is one too deep.
  if (depth_ >= kMaxDepth) {
    Fail("nesting too deep");
    return Kind::kError;
  }
  SkipWhitespace();
  if (AtEnd()) {
    Fail("unexpected end of input");
    return Kind::kError;
  }
  switch (text_[pos_]) {
    case '{':
      return Kind::kObject;
    case '[':
      return Kind::kArray;
    case '"':
      return Kind::kString;
    case 't':
    case 'f':
      return Kind::kBool;
    case 'n':
      return Kind::kNull;
    default:
      return Kind::kNumber;  // ScanNumber rejects anything else
  }
}

void JsonCursor::Open() {
  ++pos_;
  ++depth_;
  first_ = true;
  key_frames_.push_back(key_count_);
}

void JsonCursor::Close() {
  ++pos_;
  --depth_;
  first_ = false;  // the container was a value: its parent has one now
  key_count_ = key_frames_.back();
  key_frames_.pop_back();
}

bool JsonCursor::At(Kind kind, const char* what) {
  const Kind next = Peek();
  return next == kind || (next != Kind::kError && Fail(std::string("expected ") + what));
}

bool JsonCursor::BeginObject() {
  if (!At(Kind::kObject, "an object")) {
    return false;
  }
  Open();
  return true;
}

bool JsonCursor::BeginArray() {
  if (!At(Kind::kArray, "an array")) {
    return false;
  }
  Open();
  return true;
}

bool JsonCursor::NextMember(std::string_view* key) {
  if (!ok()) {
    return false;
  }
  SkipWhitespace();
  if (first_) {
    first_ = false;
    if (!AtEnd() && text_[pos_] == '}') {
      Close();
      return false;
    }
  } else if (!AtEnd() && text_[pos_] == ',') {
    ++pos_;
    SkipWhitespace();
  } else if (!AtEnd() && text_[pos_] == '}') {
    Close();
    return false;
  } else {
    return Fail("expected ',' or '}' in object");
  }
  const std::size_t key_pos = pos_;
  if (AtEnd() || text_[pos_] != '"' || !ScanString(&scratch_, key)) {
    return Fail("expected string object key");
  }
  if (strict_) {
    // Rejecting duplicates keeps a corrupt (or crafted) document from
    // silently shadowing a field with a second copy.
    for (std::size_t i = key_frames_.back(); i < key_count_; ++i) {
      if (keys_[i] == *key) {
        return FailAt(key_pos, "duplicate object key \"" + std::string(*key) + "\"");
      }
    }
    if (key_count_ == keys_.size()) {
      keys_.emplace_back();
    }
    keys_[key_count_++].assign(key->data(), key->size());
  }
  SkipWhitespace();
  return Expect(':', "expected ':' after object key");
}

bool JsonCursor::NextItem() {
  if (!ok()) {
    return false;
  }
  SkipWhitespace();
  if (first_) {
    first_ = false;
    if (!AtEnd() && text_[pos_] == ']') {
      Close();
      return false;
    }
    return true;
  }
  if (!AtEnd() && text_[pos_] == ',') {
    ++pos_;
    return true;
  }
  if (!AtEnd() && text_[pos_] == ']') {
    Close();
    return false;
  }
  return Fail("expected ',' or ']' in array");
}

bool JsonCursor::ReadString(std::string_view* out) {
  return At(Kind::kString, "a string") && ScanString(&scratch_, out);
}

bool JsonCursor::ReadString(std::string* out) {
  std::string_view view;
  if (!At(Kind::kString, "a string") || !ScanString(out, &view)) {
    return false;
  }
  if (view.data() != out->data()) {
    out->assign(view.data(), view.size());
  }
  return true;
}

// At an opening quote. Plain runs are located a word at a time (and, with
// no escape at all, returned as a view of the text); with escapes, each run
// is copied whole into *decoded, which grows geometrically and is trimmed
// to the decoded length at the closing quote.
bool JsonCursor::ScanString(std::string* decoded, std::string_view* out) {
  const char* const data = text_.data();
  const char* const end = data + text_.size();
  const char* const start = data + ++pos_;
  const char* p = FindStringSpecial(start, end);
  if (p != end && *p == '"') {
    *out = std::string_view(start, static_cast<std::size_t>(p - start));
    pos_ = static_cast<std::size_t>(p - data) + 1;
    return true;
  }
  std::size_t n = 0;  // decoded bytes
  p = start;
  for (;;) {
    const char* const run_end = FindStringSpecial(p, end);
    const std::size_t run = static_cast<std::size_t>(run_end - p);
    // Room for the run and one decoded escape (at most 4 bytes).
    if (n + run + 4 > decoded->size()) {
      decoded->resize(std::max(n + run + 4, 2 * decoded->size()));
    }
    std::memcpy(decoded->data() + n, p, run);
    n += run;
    p = run_end;
    pos_ = static_cast<std::size_t>(p - data);
    if (p == end) {
      return Fail("unterminated string");
    }
    if (*p == '"') {
      break;
    }
    if (*p != '\\') {
      return Fail("unescaped control character in string");
    }
    if (end - p >= 2 && (p[1] == '"' || p[1] == '\\' || p[1] == '/')) {
      (*decoded)[n++] = p[1];  // the common escapes, inline
      p += 2;
      continue;
    }
    std::size_t written = 0;
    if (!DecodeEscape(decoded->data() + n, &written)) {
      return false;
    }
    n += written;
    p = data + pos_;
  }
  decoded->resize(n);
  *out = *decoded;
  ++pos_;
  return true;
}

bool JsonCursor::ReadHex4(unsigned* out) {
  unsigned value = 0;
  for (int i = 0; i < 4; ++i) {
    if (AtEnd()) {
      return Fail("invalid \\u escape");
    }
    const char c = text_[pos_];
    unsigned digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<unsigned>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<unsigned>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<unsigned>(c - 'A' + 10);
    } else {
      return Fail("invalid \\u escape");
    }
    value = value << 4 | digit;
    ++pos_;
  }
  *out = value;
  return true;
}

// At a backslash: decode one escape (a \\u surrogate pair counts as one)
// into `out`, at most 4 bytes.
bool JsonCursor::DecodeEscape(char* out, std::size_t* written) {
  const std::size_t escape_pos = pos_++;
  if (AtEnd()) {
    return Fail("unterminated escape");
  }
  const char escape = text_[pos_++];
  char simple = 0;
  switch (escape) {
    case '"':
    case '\\':
    case '/':
      simple = escape;
      break;
    case 'b':
      simple = '\b';
      break;
    case 'f':
      simple = '\f';
      break;
    case 'n':
      simple = '\n';
      break;
    case 'r':
      simple = '\r';
      break;
    case 't':
      simple = '\t';
      break;
    case 'u':
      break;
    default:
      return Fail("invalid escape character");
  }
  if (escape != 'u') {
    *out = simple;
    *written = 1;
    return true;
  }
  unsigned code_point = 0;
  if (!ReadHex4(&code_point)) {
    return false;
  }
  if (code_point >= 0xDC00 && code_point <= 0xDFFF) {
    return FailAt(escape_pos, "lone surrogate in \\u escape");
  }
  if (code_point >= 0xD800 && code_point <= 0xDBFF) {
    unsigned low = 0;
    if (text_.substr(pos_, 2) != "\\u") {
      return FailAt(escape_pos, "lone surrogate in \\u escape");
    }
    pos_ += 2;
    if (!ReadHex4(&low)) {
      return false;
    }
    if (low < 0xDC00 || low > 0xDFFF) {
      return FailAt(escape_pos, "lone surrogate in \\u escape");
    }
    code_point = 0x10000 + ((code_point - 0xD800) << 10) + (low - 0xDC00);
  }
  *written = EncodeUtf8(code_point, out);
  return true;
}

// The RFC 8259 number grammar. Converts when `out` is non-null, and in
// strict mode always, so a skipped 1e999 fails like a read one.
bool JsonCursor::ScanNumber(double* out) {
  const std::size_t start = pos_;
  bool integral = true;
  if (!AtEnd() && text_[pos_] == '-') {
    ++pos_;
  }
  if (AtEnd() || !IsDigit(text_[pos_])) {
    return Fail("invalid number");
  }
  if (text_[pos_] == '0') {
    ++pos_;
  } else {
    while (!AtEnd() && IsDigit(text_[pos_])) {
      ++pos_;
    }
  }
  if (!AtEnd() && text_[pos_] == '.') {
    integral = false;
    ++pos_;
    if (AtEnd() || !IsDigit(text_[pos_])) {
      return Fail("digit required after decimal point");
    }
    while (!AtEnd() && IsDigit(text_[pos_])) {
      ++pos_;
    }
  }
  if (!AtEnd() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    integral = false;
    ++pos_;
    if (!AtEnd() && (text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (AtEnd() || !IsDigit(text_[pos_])) {
      return Fail("digit required in exponent");
    }
    while (!AtEnd() && IsDigit(text_[pos_])) {
      ++pos_;
    }
  }
  if (out == nullptr && !strict_) {
    return true;
  }
  const std::string_view text = text_.substr(start, pos_ - start);
  const bool negative = text[0] == '-';
  double number = 0.0;
  if (integral && text.size() - (negative ? 1 : 0) <= 15) {
    // Up to 15 digits is below 2^53: exact as an integer, so the same bits
    // strtod would give.
    std::uint64_t magnitude = 0;
    for (std::size_t i = negative ? 1 : 0; i < text.size(); ++i) {
      magnitude = magnitude * 10 + static_cast<std::uint64_t>(text[i] - '0');
    }
    number = static_cast<double>(magnitude);
    if (negative) {
      number = -number;
    }
  } else {
    // The grammar above admits exactly the strtod subset, so conversion
    // cannot fail; the null-terminated copy is required by strtod. It can
    // still overflow double (e.g. 1e999) — rejected instead of
    // materialising an infinity no schema expects.
    const std::string copy(text);
    number = std::strtod(copy.c_str(), nullptr);
    if (!std::isfinite(number)) {
      pos_ = start;
      return Fail("number overflows double: " + copy);
    }
  }
  if (out != nullptr) {
    *out = number;
  }
  return true;
}

bool JsonCursor::ReadNumber(double* out) {
  return At(Kind::kNumber, "a number") && ScanNumber(out);
}

bool JsonCursor::ReadBool(bool* out) {
  if (!At(Kind::kBool, "true or false")) {
    return false;
  }
  *out = text_[pos_] == 't';
  return ConsumeLiteral(*out ? "true" : "false");
}

bool JsonCursor::ReadNull() { return At(Kind::kNull, "null") && ConsumeLiteral("null"); }

bool JsonCursor::SkipValue() {
  switch (Peek()) {
    case Kind::kError:
      return false;
    case Kind::kObject: {
      BeginObject();
      std::string_view key;
      while (NextMember(&key)) {
        if (!SkipValue()) {
          return false;
        }
      }
      return ok();
    }
    case Kind::kArray:
      BeginArray();
      while (NextItem()) {
        if (!SkipValue()) {
          return false;
        }
      }
      return ok();
    case Kind::kString: {
      std::string_view ignored;
      return ScanString(&scratch_, &ignored);
    }
    case Kind::kNumber:
      return ScanNumber(nullptr);
    case Kind::kBool: {
      bool ignored = false;
      return ReadBool(&ignored);
    }
    case Kind::kNull:
      return ReadNull();
  }
  return false;
}

bool JsonCursor::Finish() {
  if (!ok()) {
    return false;
  }
  SkipWhitespace();
  return AtEnd() || Fail("trailing characters after JSON value");
}

namespace {

template <typename Result>
void FillError(const JsonCursor& cursor, Result* result) {
  result->error = cursor.error();
  result->error_offset = cursor.error_offset();
  cursor.ErrorLineColumn(&result->error_line, &result->error_column);
}

bool BuildValue(JsonCursor& cursor, JsonValue* out) {
  switch (cursor.Peek()) {
    case JsonCursor::Kind::kError:
      return false;
    case JsonCursor::Kind::kObject: {
      std::vector<std::pair<std::string, JsonValue>> members;
      cursor.BeginObject();
      std::string_view key;
      while (cursor.NextMember(&key)) {
        std::string name(key);  // the view dies with the next string read
        JsonValue member;
        if (!BuildValue(cursor, &member)) {
          return false;
        }
        members.emplace_back(std::move(name), std::move(member));
      }
      *out = JsonValue::Object(std::move(members));
      return cursor.ok();
    }
    case JsonCursor::Kind::kArray: {
      std::vector<JsonValue> items;
      cursor.BeginArray();
      while (cursor.NextItem()) {
        JsonValue item;
        if (!BuildValue(cursor, &item)) {
          return false;
        }
        items.push_back(std::move(item));
      }
      *out = JsonValue::Array(std::move(items));
      return cursor.ok();
    }
    case JsonCursor::Kind::kString: {
      std::string text;
      if (!cursor.ReadString(&text)) {
        return false;
      }
      *out = JsonValue::String(std::move(text));
      return true;
    }
    case JsonCursor::Kind::kNumber: {
      double number = 0.0;
      if (!cursor.ReadNumber(&number)) {
        return false;
      }
      *out = JsonValue::Number(number);
      return true;
    }
    case JsonCursor::Kind::kBool: {
      bool value = false;
      if (!cursor.ReadBool(&value)) {
        return false;
      }
      *out = JsonValue::Bool(value);
      return true;
    }
    case JsonCursor::Kind::kNull:
      *out = JsonValue::Null();
      return cursor.ReadNull();
  }
  return false;
}

}  // namespace

bool JsonLintResult::HasTopLevelKey(std::string_view key) const {
  for (const std::string& k : top_level_keys) {
    if (k == key) {
      return true;
    }
  }
  return false;
}

JsonLintResult LintJson(std::string_view text) {
  JsonLintResult result;
  JsonCursor cursor(text, /*strict=*/false);
  if (cursor.Peek() == JsonCursor::Kind::kObject) {
    cursor.BeginObject();
    std::string_view key;
    while (cursor.NextMember(&key)) {
      result.top_level_keys.emplace_back(key);
      if (!cursor.SkipValue()) {
        break;
      }
    }
  } else {
    cursor.SkipValue();
  }
  if (!cursor.Finish()) {
    FillError(cursor, &result);
    return result;
  }
  result.valid = true;
  return result;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  const JsonValue* found = nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) {
      found = &value;
    }
  }
  return found;
}

double JsonValue::NumberOr(std::string_view key, double fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_number() ? value->as_number() : fallback;
}

bool JsonValue::BoolOr(std::string_view key, bool fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_bool() ? value->as_bool() : fallback;
}

std::string JsonValue::StringOr(std::string_view key, std::string_view fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_string() ? value->as_string() : std::string(fallback);
}

JsonValue JsonValue::Bool(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::Number(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::String(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::Array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::Object(std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.members_ = std::move(members);
  return v;
}

JsonParseResult ParseJson(std::string_view text) {
  JsonParseResult result;
  JsonCursor cursor(text);
  if (!BuildValue(cursor, &result.value) || !cursor.Finish()) {
    FillError(cursor, &result);
    result.value = JsonValue();
    return result;
  }
  result.valid = true;
  return result;
}

}  // namespace wdmlat::obs
