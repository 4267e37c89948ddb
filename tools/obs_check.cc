// obs_check — schema validator for the kt::obs artifacts.
//
//   obs_check trace  trace.json   Validate a Chrome trace-event file
//                                 (--trace-out output).
//   obs_check runlog run.jsonl    Validate a per-epoch JSONL run log
//                                 (--run-log output).
//   obs_check scenario report.json [--min-auc A] [--max-p99-us U]
//                                 [--expect-scenario NAME] [--expect-fnv H]
//                                 [--min-weight-version N] [--max-auc-drop E]
//                                 Validate a `kt_loadgen --mode scenario`
//                                 report (schema in src/serve/loadgen.h)
//                                 and optionally gate on a minimum rolling
//                                 AUC, a maximum predict p99 latency, the
//                                 scenario name, and the deterministic
//                                 traffic digest (two runs of the same
//                                 seed must agree on it bit-for-bit). The
//                                 last two gate `serve --continual` runs:
//                                 the final weight_version must reach N
//                                 (>= N promotions landed) and the last
//                                 drift window's AUC may trail the first
//                                 window's by at most E.
//
// Exit status 0 when the file is well-formed and matches the documented
// schema (obs/trace.h, obs/runlog.h, src/serve/loadgen.h), 1 with a
// diagnostic on stderr otherwise. scripts/check_obs.sh runs the first two
// over a short training run; scripts/check_scenarios.sh runs the scenario
// mode over every registered workload.
//
// Files are parsed with kt::ParseJson (core/json.h), the same strict
// RFC 8259 reader the serving wire protocol uses, so hex or non-finite
// numbers, raw control bytes in strings, trailing bytes and truncated
// input all fail. Integer-typed fields must also be written without a
// fraction or exponent.
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/fileio.h"
#include "core/flags.h"
#include "core/json.h"

namespace kt {
namespace {

int FailCheck(const std::string& what, const std::string& why) {
  std::fprintf(stderr, "obs_check: %s: %s\n", what.c_str(), why.c_str());
  return 1;
}

// Chrome trace-event schema (obs/trace.h): a top-level object with a
// "traceEvents" array; every event is an object with string "name"/"ph",
// integer pid/tid; "X" (complete) events carry non-negative numeric ts/dur,
// "M" (metadata) thread_name events carry args.name. At least one X event
// and one thread_name record must be present — an empty trace means the
// instrumentation never fired.
int CheckTrace(const std::string& path) {
  std::string text;
  const Status read = ReadFileToString(path, &text);
  if (!read.ok()) return FailCheck(path, read.ToString());
  JsonValue root;
  std::string error;
  if (!ParseJson(text, &root, &error)) return FailCheck(path, error);
  if (!root.IsObject()) return FailCheck(path, "top level is not an object");
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || !events->IsArray()) {
    return FailCheck(path, "missing \"traceEvents\" array");
  }
  size_t complete_events = 0;
  size_t thread_names = 0;
  for (size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& event = events->array[i];
    const std::string where = "traceEvents[" + std::to_string(i) + "]";
    if (!event.IsObject()) return FailCheck(path, where + " is not an object");
    const JsonValue* name = event.Find("name");
    const JsonValue* ph = event.Find("ph");
    if (name == nullptr || !name->IsString() || name->string_value.empty()) {
      return FailCheck(path, where + " lacks a string \"name\"");
    }
    if (ph == nullptr || !ph->IsString()) {
      return FailCheck(path, where + " lacks a string \"ph\"");
    }
    for (const char* key : {"pid", "tid"}) {
      const JsonValue* v = event.Find(key);
      if (v == nullptr || !v->IsNumber() || !v->number_is_integral) {
        return FailCheck(path,
                         where + " lacks an integer \"" + key + "\"");
      }
    }
    if (ph->string_value == "X") {
      ++complete_events;
      for (const char* key : {"ts", "dur"}) {
        const JsonValue* v = event.Find(key);
        if (v == nullptr || !v->IsNumber() || v->number < 0.0) {
          return FailCheck(
              path, where + " lacks a non-negative numeric \"" + key + "\"");
        }
      }
    } else if (ph->string_value == "M") {
      if (name->string_value == "thread_name") {
        const JsonValue* args = event.Find("args");
        const JsonValue* track =
            args != nullptr && args->IsObject() ? args->Find("name") : nullptr;
        if (track == nullptr || !track->IsString()) {
          return FailCheck(path, where + " thread_name lacks args.name");
        }
        ++thread_names;
      }
    } else {
      return FailCheck(path, where + " has unexpected ph \"" +
                                 ph->string_value + "\"");
    }
  }
  if (complete_events == 0) {
    return FailCheck(path, "no complete (\"ph\":\"X\") events — empty trace");
  }
  if (thread_names == 0) {
    return FailCheck(path, "no thread_name metadata records");
  }
  std::printf("obs_check: %s ok (%zu slices, %zu tracks)\n", path.c_str(),
              complete_events, thread_names);
  return 0;
}

// Run-log schema (obs/runlog.h): one JSON object per line with the fixed
// key set; numbers where numbers are promised, integers where integers are,
// non-negative where negatives are impossible.
int CheckRunLog(const std::string& path) {
  std::string text;
  const Status read = ReadFileToString(path, &text);
  if (!read.ok()) return FailCheck(path, read.ToString());
  size_t records = 0;
  size_t line_start = 0;
  int line_number = 0;
  while (line_start < text.size()) {
    size_t line_end = text.find('\n', line_start);
    if (line_end == std::string::npos) line_end = text.size();
    const std::string line = text.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    ++line_number;
    if (line.empty()) continue;
    const std::string where = "line " + std::to_string(line_number);
    JsonValue entry;
    std::string error;
    if (!ParseJson(line, &entry, &error)) {
      return FailCheck(path, where + ": " + error);
    }
    if (!entry.IsObject()) {
      return FailCheck(path, where + " is not a JSON object");
    }
    const JsonValue* run = entry.Find("run");
    if (run == nullptr || !run->IsString()) {
      return FailCheck(path, where + " lacks a string \"run\"");
    }
    for (const char* key :
         {"epoch", "tokens", "gemm_flops", "rss_bytes", "peak_rss_bytes",
          "minflt", "threads"}) {
      const JsonValue* v = entry.Find(key);
      if (v == nullptr || !v->IsNumber() || !v->number_is_integral ||
          v->number < 0.0) {
        return FailCheck(
            path, where + " lacks a non-negative integer \"" + key + "\"");
      }
    }
    for (const char* key : {"train_loss", "val_auc", "val_acc", "epoch_ms",
                            "tokens_per_sec", "ckpt_ms", "sys_ms"}) {
      const JsonValue* v = entry.Find(key);
      if (v == nullptr || !v->IsNumber()) {
        return FailCheck(path, where + " lacks a numeric \"" + key + "\"");
      }
    }
    if (entry.Find("sys_ms")->number < 0.0) {
      return FailCheck(path, where + " \"sys_ms\" is negative");
    }
    for (const char* key : {"val_auc", "val_acc"}) {
      const double v = entry.Find(key)->number;
      if (v < 0.0 || v > 1.0) {
        return FailCheck(path, where + " \"" + std::string(key) +
                                   "\" outside [0, 1]");
      }
    }
    ++records;
  }
  if (records == 0) return FailCheck(path, "no run-log records");
  std::printf("obs_check: %s ok (%zu epochs)\n", path.c_str(), records);
  return 0;
}

// Scenario-report schema (src/serve/loadgen.h: ScenarioSummaryJson): one
// JSON object with the fixed key set; optional gate flags turn schema
// validation into a regression gate for scripts/check_scenarios.sh.
int CheckScenario(const std::string& path, const FlagParser& flags) {
  std::string text;
  const Status read = ReadFileToString(path, &text);
  if (!read.ok()) return FailCheck(path, read.ToString());
  JsonValue root;
  std::string error;
  if (!ParseJson(text, &root, &error)) return FailCheck(path, error);
  if (!root.IsObject()) return FailCheck(path, "top level is not an object");

  const JsonValue* mode = root.Find("mode");
  if (mode == nullptr || !mode->IsString() ||
      mode->string_value != "scenario") {
    return FailCheck(path, "\"mode\" is not \"scenario\"");
  }
  const JsonValue* scenario = root.Find("scenario");
  if (scenario == nullptr || !scenario->IsString() ||
      scenario->string_value.empty()) {
    return FailCheck(path, "lacks a string \"scenario\"");
  }
  for (const char* key : {"connections", "seed", "students", "interactions",
                          "predictions", "auc_samples", "auc_window"}) {
    const JsonValue* v = root.Find(key);
    if (v == nullptr || !v->IsNumber() || !v->number_is_integral ||
        v->number < 0.0) {
      return FailCheck(path,
                       "lacks a non-negative integer \"" + std::string(key) +
                           "\"");
    }
  }
  for (const char* key :
       {"scale", "elapsed_s", "throughput_rps", "auc", "predict_p50_us",
        "predict_p99_us", "predict_mean_us", "update_p50_us",
        "update_p99_us", "update_mean_us"}) {
    const JsonValue* v = root.Find(key);
    if (v == nullptr || !v->IsNumber() || v->number < 0.0) {
      return FailCheck(
          path, "lacks a non-negative numeric \"" + std::string(key) + "\"");
    }
  }
  const double auc = root.Find("auc")->number;
  if (auc > 1.0) return FailCheck(path, "\"auc\" outside [0, 1]");
  const JsonValue* fnv = root.Find("traffic_fnv64");
  if (fnv == nullptr || !fnv->IsString() || fnv->string_value.size() != 16) {
    return FailCheck(path, "lacks a 16-hex-digit \"traffic_fnv64\"");
  }
  for (char c : fnv->string_value) {
    if (!std::isxdigit(static_cast<unsigned char>(c))) {
      return FailCheck(path, "non-hex digit in \"traffic_fnv64\"");
    }
  }
  // Internal consistency: every interaction fires predict-then-update, and
  // the rolling window can't hold more pairs than were predicted.
  if (root.Find("predictions")->number != root.Find("interactions")->number) {
    return FailCheck(path, "predictions != interactions");
  }
  if (root.Find("auc_samples")->number > root.Find("predictions")->number) {
    return FailCheck(path, "auc_samples exceeds predictions");
  }

  // Model identity relayed from the server's `stats` op. The fingerprint
  // may be empty (stats poll failed) but when present must be 16 hex
  // digits; the weight version is a non-negative integer that only a
  // continual-trainer promotion advances.
  const JsonValue* model_fp = root.Find("model_fingerprint");
  if (model_fp == nullptr || !model_fp->IsString()) {
    return FailCheck(path, "lacks a string \"model_fingerprint\"");
  }
  if (!model_fp->string_value.empty()) {
    if (model_fp->string_value.size() != 16) {
      return FailCheck(path, "\"model_fingerprint\" is not 16 hex digits");
    }
    for (char c : model_fp->string_value) {
      if (!std::isxdigit(static_cast<unsigned char>(c))) {
        return FailCheck(path, "non-hex digit in \"model_fingerprint\"");
      }
    }
  }
  const JsonValue* weight_version = root.Find("weight_version");
  if (weight_version == nullptr || !weight_version->IsNumber() ||
      !weight_version->number_is_integral || weight_version->number < 0.0) {
    return FailCheck(path, "lacks a non-negative integer \"weight_version\"");
  }

  // Drift-phase breakdown (--windows > 1): each entry carries its own AUC
  // plus the post-phase model identity.
  const JsonValue* windows = root.Find("windows");
  if (windows != nullptr) {
    if (!windows->IsArray() || windows->array.empty()) {
      return FailCheck(path, "\"windows\" is not a non-empty array");
    }
    for (size_t i = 0; i < windows->array.size(); ++i) {
      const JsonValue& win = windows->array[i];
      const std::string where = "windows[" + std::to_string(i) + "]";
      if (!win.IsObject()) return FailCheck(path, where + " is not an object");
      for (const char* key :
           {"index", "students", "auc_samples", "weight_version"}) {
        const JsonValue* v = win.Find(key);
        if (v == nullptr || !v->IsNumber() || !v->number_is_integral ||
            v->number < 0.0) {
          return FailCheck(path, where + " lacks a non-negative integer \"" +
                                     std::string(key) + "\"");
        }
      }
      const JsonValue* win_auc = win.Find("auc");
      if (win_auc == nullptr || !win_auc->IsNumber() ||
          win_auc->number < 0.0 || win_auc->number > 1.0) {
        return FailCheck(path, where + " lacks an \"auc\" in [0, 1]");
      }
      const JsonValue* win_fp = win.Find("model_fingerprint");
      if (win_fp == nullptr || !win_fp->IsString()) {
        return FailCheck(path, where + " lacks a string \"model_fingerprint\"");
      }
      if (win.Find("index")->number != static_cast<double>(i)) {
        return FailCheck(path, where + " index out of order");
      }
    }
  }

  // Optional regression gates.
  const double min_auc = flags.GetDouble("min-auc", -1.0);
  if (min_auc >= 0.0 && auc < min_auc) {
    return FailCheck(path, "AUC regression: " + std::to_string(auc) +
                               " < required " + std::to_string(min_auc));
  }
  const double max_p99 = flags.GetDouble("max-p99-us", -1.0);
  const double p99 = root.Find("predict_p99_us")->number;
  if (max_p99 >= 0.0 && p99 > max_p99) {
    return FailCheck(path, "latency regression: predict p99 " +
                               std::to_string(p99) + "us > budget " +
                               std::to_string(max_p99) + "us");
  }
  const std::string expect_scenario = flags.GetString("expect-scenario", "");
  if (!expect_scenario.empty() &&
      scenario->string_value != expect_scenario) {
    return FailCheck(path, "scenario \"" + scenario->string_value +
                               "\" != expected \"" + expect_scenario + "\"");
  }
  const std::string expect_fnv = flags.GetString("expect-fnv", "");
  if (!expect_fnv.empty() && fnv->string_value != expect_fnv) {
    return FailCheck(path, "traffic digest " + fnv->string_value +
                               " != expected " + expect_fnv +
                               " — scenario stream is not deterministic");
  }
  // Continual gates (scripts/check_continual.sh). --min-weight-version
  // requires the serving model to have advanced at least N promotions
  // (version starts at 0 on a fresh `serve --continual`); --max-auc-drop
  // bounds how much the LAST drift window's AUC may fall below the FIRST
  // window's — the "post-swap no worse than pre-swap − ε" acceptance gate.
  const int64_t min_weight_version = flags.GetInt("min-weight-version", -1);
  if (min_weight_version >= 0 &&
      weight_version->number < static_cast<double>(min_weight_version)) {
    return FailCheck(path, "weight_version " +
                               std::to_string(
                                   static_cast<int64_t>(
                                       weight_version->number)) +
                               " < required " +
                               std::to_string(min_weight_version) +
                               " — no model promotion landed");
  }
  const double max_auc_drop = flags.GetDouble("max-auc-drop", -1.0);
  if (max_auc_drop >= 0.0) {
    if (windows == nullptr || windows->array.size() < 2) {
      return FailCheck(path,
                       "--max-auc-drop needs a \"windows\" array with >= 2 "
                       "entries (run kt_loadgen with --windows W)");
    }
    const double first_auc = windows->array.front().Find("auc")->number;
    const double last_auc = windows->array.back().Find("auc")->number;
    if (first_auc - last_auc > max_auc_drop) {
      return FailCheck(path, "drift AUC regression: last window " +
                                 std::to_string(last_auc) +
                                 " < first window " +
                                 std::to_string(first_auc) + " - " +
                                 std::to_string(max_auc_drop));
    }
  }
  std::printf(
      "obs_check: %s ok (%s: auc %.4f, predict p99 %.0fus, fnv %s, "
      "weights v%lld)\n",
      path.c_str(), scenario->string_value.c_str(), auc, p99,
      fnv->string_value.c_str(),
      static_cast<long long>(weight_version->number));
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: obs_check <trace|runlog|scenario> <file> [gates]\n");
    return 2;
  }
  const std::string mode = argv[1];
  if (mode == "trace") return CheckTrace(argv[2]);
  if (mode == "runlog") return CheckRunLog(argv[2]);
  if (mode == "scenario") {
    // Gate flags follow the file argument: parse argv[3..].
    FlagParser flags;
    const Status status = flags.Parse(argc - 2, argv + 2);
    if (!status.ok()) {
      std::fprintf(stderr, "obs_check: %s\n", status.ToString().c_str());
      return 2;
    }
    return CheckScenario(argv[2], flags);
  }
  std::fprintf(stderr, "obs_check: unknown mode '%s'\n", mode.c_str());
  return 2;
}

}  // namespace
}  // namespace kt

int main(int argc, char** argv) { return kt::Main(argc, argv); }
