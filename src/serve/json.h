// The serving layer's names for the JSON codec in core/json.h.
#ifndef KT_SERVE_JSON_H_
#define KT_SERVE_JSON_H_

#include "core/json.h"

namespace kt {
namespace serve {

using ::kt::AppendJsonString;
using ::kt::JsonValue;
using ::kt::JsonWriter;
using ::kt::ParseJson;

}  // namespace serve
}  // namespace kt

#endif  // KT_SERVE_JSON_H_
