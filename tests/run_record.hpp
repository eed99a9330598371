// Reads a runner record (api::RunResult::to_json) back through the JSON
// codec, so the tests compare its values with the RunResult's fields
// instead of searching its text.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "util/json.hpp"

namespace lps::testing {

/// The parsed record. The record must be one JSON object on one line;
/// anything else fails the calling test.
inline JsonValue parse_record(const std::string& json) {
  JsonValue record;
  std::string error;
  EXPECT_EQ(json.find('\n'), std::string::npos) << "not one line: " << json;
  EXPECT_TRUE(parse_json(json, record, &error)) << error;
  EXPECT_TRUE(record.is_object()) << json;
  return record;
}

/// object[key]; a missing key fails the calling test and reads as null.
inline const JsonValue& field(const JsonValue& object, std::string_view key) {
  static const JsonValue kMissing;
  const JsonValue* value = object.find(key);
  if (value == nullptr) ADD_FAILURE() << "no field '" << key << "'";
  return value != nullptr ? *value : kMissing;
}

}  // namespace lps::testing
