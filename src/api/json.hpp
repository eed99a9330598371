// The JSON writer's old home. The codec lives in util/json.hpp; these
// aliases stay only because perfbench/solver_bench.cpp includes this
// header and spells the writer api::JsonObject and api::JsonArray. The
// next change to perfbench/ includes util/json.hpp and deletes this file.
#pragma once

#include "util/json.hpp"

namespace lps::api {

using JsonObject = lps::JsonObject;
using JsonArray = lps::JsonArray;

}  // namespace lps::api
