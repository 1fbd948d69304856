// A seeded mutation engine for JSON inputs, shared by the fuzz tests of the
// repo's strict readers (fleet records, specs, quarantine manifests).
//
// A document is parsed into a mutable tree (JsonNode) and written back in
// the record writers' layout, so an unmutated tree reproduces a canonical
// line byte for byte. Mutations: byte flips, truncation and escape
// injection on the text; key reorder, duplicate and unknown keys, dropped
// keys and leaf respellings on the tree. Every choice is drawn from the
// caller's sim::Rng, so a failing input replays from its seed.

#ifndef TESTS_JSON_MUTATOR_H_
#define TESTS_JSON_MUTATOR_H_

#include <charconv>
#include <cstddef>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "src/lab/report_io.h"
#include "src/obs/json.h"
#include "src/sim/rng.h"

namespace wdmlat::testutil {

struct JsonNode {
  obs::JsonValue::Kind kind = obs::JsonValue::Kind::kNull;
  std::string text;  // string value, or a number/literal's spelling
  bool raw = false;  // `text` is written verbatim (a respelled value)
  std::vector<std::pair<std::string, JsonNode>> members;
  std::vector<JsonNode> items;
};

inline JsonNode JsonNodeFrom(const obs::JsonValue& value) {
  JsonNode node;
  node.kind = value.kind();
  switch (value.kind()) {
    case obs::JsonValue::Kind::kNull:
      node.text = "null";
      break;
    case obs::JsonValue::Kind::kBool:
      node.text = value.as_bool() ? "true" : "false";
      break;
    case obs::JsonValue::Kind::kNumber: {
      char buf[32];
      const auto result = std::to_chars(buf, buf + sizeof(buf), value.as_number());
      node.text.assign(buf, result.ptr);
      break;
    }
    case obs::JsonValue::Kind::kString:
      node.text = value.as_string();
      break;
    case obs::JsonValue::Kind::kArray:
      for (const obs::JsonValue& item : value.items()) {
        node.items.push_back(JsonNodeFrom(item));
      }
      break;
    case obs::JsonValue::Kind::kObject:
      for (const auto& [key, member] : value.members()) {
        node.members.emplace_back(key, JsonNodeFrom(member));
      }
      break;
  }
  return node;
}

// Written in the record writers' layout, so an unmutated tree reproduces
// the line byte for byte.
inline void WriteJson(const JsonNode& node, std::string* out) {
  if (node.raw) {
    *out += node.text;
    return;
  }
  switch (node.kind) {
    case obs::JsonValue::Kind::kString:
      *out += '"';
      lab::report_json::AppendEscaped(*out, node.text);
      *out += '"';
      return;
    case obs::JsonValue::Kind::kArray:
      *out += '[';
      for (std::size_t i = 0; i < node.items.size(); ++i) {
        if (i != 0) *out += ", ";
        WriteJson(node.items[i], out);
      }
      *out += ']';
      return;
    case obs::JsonValue::Kind::kObject:
      *out += '{';
      for (std::size_t i = 0; i < node.members.size(); ++i) {
        if (i != 0) *out += ", ";
        *out += '"';
        lab::report_json::AppendEscaped(*out, node.members[i].first);
        *out += "\": ";
        WriteJson(node.members[i].second, out);
      }
      *out += '}';
      return;
    default:
      *out += node.text;
  }
}

inline std::string SerializeJson(const JsonNode& node) {
  std::string out;
  WriteJson(node, &out);
  return out;
}

inline void CollectJson(JsonNode* node, std::vector<JsonNode*>* objects,
                        std::vector<JsonNode*>* leaves) {
  if (node->kind == obs::JsonValue::Kind::kObject) {
    objects->push_back(node);
    for (auto& member : node->members) CollectJson(&member.second, objects, leaves);
  } else if (node->kind == obs::JsonValue::Kind::kArray) {
    for (JsonNode& item : node->items) CollectJson(&item, objects, leaves);
  } else {
    leaves->push_back(node);
  }
}

// Other spellings of a leaf's value: some equal in value, most not
// canonical.
inline std::vector<std::string> Respellings(const JsonNode& leaf) {
  if (leaf.kind == obs::JsonValue::Kind::kNumber) {
    const std::string& n = leaf.text;
    return {n + ".0", n + "e0", n + ".5", "-" + n, "0" + n, n + "0", "1e300", "-0", "2", "256",
            "\"" + n + "\""};
  }
  if (leaf.kind != obs::JsonValue::Kind::kString) {
    return {"0", "\"\"", "null"};
  }
  const std::string& s = leaf.text;
  std::string upper = s;
  for (char& c : upper) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  std::string quoted_forms[] = {"-" + s, "+" + s, " " + s, s + " ", "0" + s, upper,
                                s + "0", "inf", "nan", "-nan", "-1", "1.5",
                                "0x1p+1024", "0x1.0p+0", "18446744073709551616"};
  std::vector<std::string> out;
  for (const std::string& form : quoted_forms) {
    std::string text = "\"";
    lab::report_json::AppendEscaped(text, form);
    out.push_back(text + "\"");
  }
  out.push_back(s.empty() ? "0" : s);  // unquoted
  return out;
}

enum JsonMutation {
  kByteFlip,
  kTruncate,
  kEscapeInjection,
  kReorder,
  kDuplicate,
  kUnknownKey,
  kDrop,
  kRespell,
  kJsonMutationCount
};

inline const char* const kJsonMutationNames[kJsonMutationCount] = {
    "byte flip", "truncate",    "escape injection", "reorder",
    "duplicate", "unknown key", "drop",             "respell"};

inline const char* const kJsonEscapes[] = {"\\n",     "\\t",     "\\u00e9", "\\ud83d\\ude00",
                                           "\\udc00", "\\ud83d", "\\/",     "\\x",
                                           "\\u12",   "\\u0070", "\\\"",    "\\\\"};

inline std::size_t Pick(sim::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.UniformInt(0, n - 1));
}

// One structural mutation of `root` (reorder, duplicate, unknown, drop or
// respell at a random object or leaf). `root` must hold an object.
inline void MutateTree(JsonNode* root, JsonMutation kind, sim::Rng& rng) {
  std::vector<JsonNode*> objects;
  std::vector<JsonNode*> leaves;
  CollectJson(root, &objects, &leaves);
  JsonNode* object = objects[Pick(rng, objects.size())];
  auto& members = object->members;
  switch (kind) {
    case kReorder:
      for (std::size_t i = members.size(); i > 1; --i) {
        std::swap(members[i - 1], members[Pick(rng, i)]);
      }
      break;
    case kDuplicate:
      if (!members.empty()) {
        members.insert(members.begin() + static_cast<std::ptrdiff_t>(Pick(rng, members.size() + 1)),
                       members[Pick(rng, members.size())]);
      }
      break;
    case kUnknownKey: {
      JsonNode value;
      value.raw = true;
      const char* values[] = {"1", "\"x\"", "[1, {\"y\": null}]", "{\"z\": [true]}", "1e999"};
      value.text = values[Pick(rng, 5)];
      members.emplace(members.begin() + static_cast<std::ptrdiff_t>(Pick(rng, members.size() + 1)),
                      "unknown" + std::to_string(Pick(rng, 3)), value);
      break;
    }
    case kDrop:
      if (!members.empty()) {
        members.erase(members.begin() + static_cast<std::ptrdiff_t>(Pick(rng, members.size())));
      }
      break;
    default: {  // respell
      JsonNode* leaf = leaves[Pick(rng, leaves.size())];
      const std::vector<std::string> forms = Respellings(*leaf);
      leaf->text = forms[Pick(rng, forms.size())];
      leaf->raw = true;
    }
  }
}

// One mutant of `document`: a text mutation, or a tree mutation of the
// parsed document (which must then be a valid JSON object, written back in
// the writers' layout).
inline std::string Mutate(const std::string& document, JsonMutation kind, sim::Rng& rng) {
  std::string out = document;
  switch (kind) {
    case kByteFlip:
      out[Pick(rng, out.size())] ^= static_cast<char>(1 << Pick(rng, 8));
      return out;
    case kTruncate:
      out.resize(Pick(rng, out.size()));
      return out;
    case kEscapeInjection:
      out.insert(Pick(rng, out.size() + 1), kJsonEscapes[Pick(rng, std::size(kJsonEscapes))]);
      return out;
    default: {
      JsonNode root = JsonNodeFrom(obs::ParseJson(document).value);
      MutateTree(&root, kind, rng);
      return SerializeJson(root);
    }
  }
}

}  // namespace wdmlat::testutil

#endif  // TESTS_JSON_MUTATOR_H_
