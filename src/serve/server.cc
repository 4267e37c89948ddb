#include "serve/server.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>

#include <unistd.h>

#include "serve/framing.h"
#include "serve/reactor.h"
#include "serve/shard.h"

namespace kt {
namespace serve {
namespace {

// An id or count on the wire: a JSON number within int64 range, spelled
// without a fraction or an exponent. 7.9 is refused, never truncated to 7.
bool WireInt(const JsonValue& v, int64_t* out) {
  return v.number_is_integral && v.ToInt(out);
}

}  // namespace

bool ParseServeRequest(const JsonValue& json, ServeRequest* out,
                       std::string* error) {
  *out = ServeRequest();
  if (!json.IsObject()) {
    *error = "request must be a JSON object";
    return false;
  }
  const std::string op = json.GetString("op", "");
  if (op == "predict") {
    out->op = Op::kPredict;
  } else if (op == "update") {
    out->op = Op::kUpdate;
  } else if (op == "explain") {
    out->op = Op::kExplain;
  } else if (op == "recourse") {
    out->op = Op::kRecourse;
  } else if (op == "reset") {
    out->op = Op::kReset;
  } else if (op == "stats") {
    out->op = Op::kStats;
  } else {
    *error = op.empty() ? "missing op" : "unknown op '" + op + "'";
    return false;
  }
  out->student = json.GetString("student", "");
  // A missing question, or one that is not a number within int64 range,
  // reads -1, which the engine refuses; a fractional one is refused here.
  out->question = -1;
  if (const JsonValue* question = json.Find("question");
      question != nullptr && question->ToInt(&out->question) &&
      !question->number_is_integral) {
    *error = "'question' must be an integer";
    return false;
  }
  // Clamp just outside the valid {0, 1} range so the engine's validation
  // rejects out-of-range values without an undefined narrowing cast.
  auto clamp_response = [](int64_t value) {
    return value < 0 ? -1 : value > 1 ? 2 : static_cast<int>(value);
  };
  const JsonValue* response = json.Find("response");
  int64_t response_value = 0;
  const bool has_response =
      response != nullptr && response->ToInt(&response_value);
  if (has_response && !response->number_is_integral) {
    *error = "'response' must be an integer";
    return false;
  }
  if (out->op == Op::kUpdate && !has_response) {
    *error = "update needs an integer 'response'";
    return false;
  }
  out->response = clamp_response(response_value);
  if (const JsonValue* concepts = json.Find("concepts")) {
    if (!concepts->IsArray()) {
      *error = "'concepts' must be an array";
      return false;
    }
    out->has_concepts = true;
    out->concepts.reserve(concepts->array.size());
    for (const JsonValue& c : concepts->array) {
      int64_t concept_id = 0;
      if (!WireInt(c, &concept_id)) {
        *error = "'concepts' entries must be integers";
        return false;
      }
      out->concepts.push_back(concept_id);
    }
  }
  if (out->op == Op::kRecourse) {
    // Range-checked ints: an absent field keeps its default; a present
    // field that is not an in-range number is a hard parse error (so
    // "k":1e300 cannot silently fall back to 2).
    if (const JsonValue* k = json.Find("k")) {
      int64_t value = 0;
      if (!WireInt(*k, &value)) {
        *error = "'k' must be an integer";
        return false;
      }
      out->k = static_cast<int>(
          std::max<int64_t>(INT_MIN, std::min<int64_t>(INT_MAX, value)));
    }
    if (const JsonValue* top = json.Find("top")) {
      int64_t value = 0;
      if (!WireInt(*top, &value)) {
        *error = "'top' must be an integer";
        return false;
      }
      out->top = static_cast<int>(
          std::max<int64_t>(INT_MIN, std::min<int64_t>(INT_MAX, value)));
    }
    if (const JsonValue* target = json.Find("target_p")) {
      if (!target->IsNumber()) {
        *error = "'target_p' must be a number";
        return false;
      }
      out->target_p = target->number;
    }
    if (const JsonValue* inserts = json.Find("insert_questions")) {
      if (!inserts->IsArray()) {
        *error = "'insert_questions' must be an array";
        return false;
      }
      out->has_insert_questions = true;
      out->insert_questions.reserve(inserts->array.size());
      for (const JsonValue& q : inserts->array) {
        int64_t question = 0;
        if (!WireInt(q, &question)) {
          *error = "'insert_questions' entries must be integers";
          return false;
        }
        out->insert_questions.push_back(question);
      }
    }
    out->brute = json.GetBool("brute", false);
  }
  return true;
}

std::string SerializeResponse(const ServeResponse& response) {
  JsonWriter w;
  w.BeginObject();
  w.Key("ok").Bool(response.ok);
  if (!response.ok) {
    w.Key("error").String(response.error);
    if (!response.student.empty()) w.Key("student").String(response.student);
    w.EndObject();
    return w.str();
  }
  w.Key("op").String(OpName(response.op));
  switch (response.op) {
    case Op::kPredict:
      w.Key("student").String(response.student);
      w.Key("question").Int(response.question);
      w.Key("p").Float(response.p);
      w.Key("history").Int(response.history);
      break;
    case Op::kUpdate:
      w.Key("student").String(response.student);
      w.Key("question").Int(response.question);
      w.Key("history").Int(response.history);
      break;
    case Op::kExplain: {
      w.Key("student").String(response.student);
      w.Key("question").Int(response.question);
      w.Key("history").Int(response.history);
      w.Key("influence").BeginArray();
      for (const float v : response.influence) w.Float(v);
      w.EndArray();
      w.Key("responses").BeginArray();
      for (const int r : response.responses) w.Int(r);
      w.EndArray();
      w.Key("total_correct").Float(response.total_correct);
      w.Key("total_incorrect").Float(response.total_incorrect);
      w.Key("score").Float(response.score);
      w.Key("predicted_correct").Bool(response.predicted_correct);
      break;
    }
    case Op::kRecourse: {
      w.Key("student").String(response.student);
      w.Key("question").Int(response.question);
      w.Key("history").Int(response.history);
      w.Key("base_p").Float(response.base_p);
      w.Key("evaluated").Int(response.evaluated);
      w.Key("candidates").BeginArray();
      for (const Counterfactual& candidate : response.candidates) {
        w.BeginObject();
        w.Key("p").Float(candidate.p);
        w.Key("lift").Float(candidate.lift);
        w.Key("size").Int(
            static_cast<int64_t>(candidate.interventions.size()));
        w.Key("reaches_target").Bool(candidate.reaches_target);
        w.Key("interventions").BeginArray();
        for (const Intervention& intervention : candidate.interventions) {
          w.BeginObject();
          w.Key("type").String(
              intervention.kind == Intervention::Kind::kFlipResponse
                  ? "flip"
                  : "insert");
          if (intervention.kind == Intervention::Kind::kFlipResponse) {
            w.Key("position").Int(intervention.position);
          }
          w.Key("question").Int(intervention.question);
          w.EndObject();
        }
        w.EndArray();
        w.EndObject();
      }
      w.EndArray();
      break;
    }
    case Op::kReset:
      w.Key("student").String(response.student);
      break;
    case Op::kStats: {
      w.Key("sessions").Int(response.sessions);
      w.Key("state_bytes").Int(response.state_bytes);
      w.Key("history_bytes").Int(response.history_bytes);
      w.Key("evictions").Int(response.evictions);
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(response.model_fingerprint));
      w.Key("model").BeginObject();
      w.Key("fingerprint").String(hex);
      w.Key("weight_version").Int(response.weight_version);
      w.EndObject();
      if (response.has_continual) {
        std::snprintf(
            hex, sizeof(hex), "%016llx",
            static_cast<unsigned long long>(response.continual_reservoir_fnv64));
        w.Key("continual").BeginObject();
        w.Key("events").Int(response.continual_events);
        w.Key("mini_epochs").Int(response.continual_mini_epochs);
        w.Key("promotions").Int(response.continual_promotions);
        w.Key("reservoir_size").Int(response.continual_reservoir_size);
        w.Key("reservoir_fnv64").String(hex);
        w.EndObject();
      }
      break;
    }
  }
  w.EndObject();
  return w.str();
}

std::string SerializeError(const std::string& message) {
  JsonWriter w;
  w.BeginObject().Key("ok").Bool(false).Key("error").String(message)
      .EndObject();
  return w.str();
}

DecodedLine DecodeLine(const std::string& line) {
  DecodedLine out;
  JsonValue json;
  std::string error;
  if (!ParseJson(line, &json, &error)) {
    out.error = "bad json: " + error;
    return out;
  }
  if (json.GetString("op", "") == "shutdown") {
    out.shutdown = true;
    return out;
  }
  out.ok = ParseServeRequest(json, &out.request, &out.error);
  return out;
}

bool BlankLine(const std::string& line) {
  for (const char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

std::string OversizeError(size_t max_line_bytes) {
  return SerializeError("request line exceeds " +
                        std::to_string(max_line_bytes) + " bytes");
}

namespace {

// One request line -> one response line (or a shutdown marker).
std::string HandleLine(ShardSet& shards, const std::string& line,
                       bool* shutdown) {
  const DecodedLine decoded = DecodeLine(line);
  if (decoded.shutdown) {
    *shutdown = true;
    return "{\"ok\":true,\"op\":\"shutdown\"}";
  }
  if (!decoded.ok) return SerializeError(decoded.error);
  return SerializeResponse(shards.SubmitSync(decoded.request));
}

int RunStdioServer(ShardSet& shards, size_t max_line_bytes) {
  LineFramer framer(max_line_bytes);
  std::string line;
  bool shutdown = false;
  bool eof = false;
  char chunk[4096];
  while (!shutdown) {
    const LineFramer::Result r = framer.Next(&line);
    if (r == LineFramer::Result::kLine) {
      if (BlankLine(line)) continue;
      std::cout << HandleLine(shards, line, &shutdown) << "\n" << std::flush;
      continue;
    }
    if (r == LineFramer::Result::kOverflow) {
      // Reject the oversized line but keep serving: stdio has exactly one
      // client, so closing on it (the TCP policy) would end the session.
      std::cout << OversizeError(max_line_bytes) << "\n" << std::flush;
      framer.Resync();
      continue;
    }
    if (eof) break;
    const ssize_t n = ReadRetryEintr(STDIN_FILENO, chunk, sizeof(chunk));
    if (n <= 0) {
      // Terminate an unterminated final line so it is still served.
      eof = true;
      framer.Append("\n", 1);
      continue;
    }
    framer.Append(chunk, static_cast<size_t>(n));
  }
  return 0;
}

}  // namespace

int RunServer(rckt::RCKT& model, const ServerOptions& options,
              const data::Dataset* concept_data, const ServeHooks& hooks) {
  ShardSetOptions shard_options;
  shard_options.shards = options.shards;
  shard_options.initial_weight_version = options.initial_weight_version;
  shard_options.batcher = options.batcher;
  shard_options.engine = options.engine;
  ShardSet shards(model, shard_options, concept_data);
  if (hooks.on_start) hooks.on_start(shards);
  int code = 0;
  if (options.port > 0) {
    ReactorOptions reactor_options;
    reactor_options.port = options.port;
    reactor_options.max_line_bytes = options.max_line_bytes;
    code = RunReactor(shards, reactor_options);
  } else {
    code = RunStdioServer(shards, options.max_line_bytes);
  }
  // Trainer (and other hooks) detach first — while the shards can still
  // take their final checkpoint/stats traffic — then the shards drain.
  if (hooks.on_stop) hooks.on_stop();
  // Graceful shutdown: persist every resident session so a warm restart
  // resumes it without replay (no-op when no cold dir is configured).
  shards.FlushColdSnapshots();
  shards.Stop();
  return code;
}

}  // namespace serve
}  // namespace kt
