// End-to-end checks that run the built `obs_check` binary over artifact
// files: one well-formed file per mode is accepted, and each mode refuses
// the malformed inputs a hand-edited or truncated artifact can carry.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "core/fileio.h"
#include "gtest/gtest.h"

extern char** environ;

namespace kt {
namespace {

// Runs `obs_check mode file` with its output discarded and returns the
// exit code (-1 when it did not exit normally).
int RunObsCheck(const std::string& mode, const std::string& path) {
  std::vector<std::string> argv_strings = {KT_OBS_CHECK_PATH, mode, path};
  std::vector<char*> argv;
  for (std::string& arg : argv_strings) argv.push_back(arg.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) return -1;
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

// One artifact per mode. `integer` is an integer-typed field written as
// `"<key>":7`, `real` a field that takes any number, and `text` a quoted
// string value; the cases below rewrite exactly one of them.
struct Artifact {
  std::string mode;
  std::string valid;
  std::string integer;
  std::string real;
  std::string text;
};

std::vector<Artifact> Artifacts() {
  return {
      {"trace",
       R"({"traceEvents":[)"
       R"({"name":"thread_name","ph":"M","pid":1,"tid":7,)"
       R"("args":{"name":"main"}},)"
       R"({"name":"rckt/step","ph":"X","pid":1,"tid":7,"ts":10.5,"dur":3}]})",
       R"("tid":7)", R"("ts":10.5)", R"("rckt/step")"},
      {"runlog",
       R"({"run":"sakt","epoch":7,"tokens":1200,"gemm_flops":90000,)"
       R"("rss_bytes":4096,"peak_rss_bytes":8192,"minflt":12,"threads":1,)"
       R"("train_loss":0.61,"val_auc":0.7,"val_acc":0.68,"epoch_ms":250.5,)"
       R"("tokens_per_sec":4790.4,"ckpt_ms":0,"sys_ms":1.5})"
       "\n",
       R"("epoch":7)", R"("epoch_ms":250.5)", R"("sakt")"},
      {"scenario",
       R"({"mode":"scenario","scenario":"steady","connections":2,"seed":7,)"
       R"("students":10,"interactions":100,"predictions":100,)"
       R"("auc_samples":100,"auc_window":500,"scale":0.1,"elapsed_s":1.5,)"
       R"("throughput_rps":133.3,"auc":0.71,"predict_p50_us":80,)"
       R"("predict_p99_us":400,"predict_mean_us":95.5,"update_p50_us":90,)"
       R"("update_p99_us":500,"update_mean_us":101.25,)"
       R"("traffic_fnv64":"0123456789abcdef","model_fingerprint":"",)"
       R"("weight_version":0})",
       R"("seed":7)", R"("elapsed_s":1.5)", R"("steady")"},
  };
}

std::string Replace(std::string text, const std::string& from,
                    const std::string& to) {
  const size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

// Writes `contents` to a per-process file and validates it in `mode`.
int Check(const std::string& mode, const std::string& contents) {
  const std::string path = std::string(::testing::TempDir()) +
                           "/obs_check_test_" + std::to_string(getpid()) +
                           "_" + mode;
  EXPECT_TRUE(AtomicWriteFile(path, contents).ok());
  return RunObsCheck(mode, path);
}

// `mutate(artifact)` rewrites one artifact's valid text into one that
// every mode must refuse with exit status 1.
template <typename Mutate>
void ExpectEveryModeRejects(Mutate mutate) {
  for (const Artifact& artifact : Artifacts()) {
    SCOPED_TRACE(artifact.mode);
    EXPECT_EQ(Check(artifact.mode, mutate(artifact)), 1);
  }
}

// Rewrites the value of `field` (one of a's `"<key>":<number>` fields).
std::string WithValue(const Artifact& a, const std::string& field,
                      const std::string& value) {
  return Replace(a.valid, field,
                 field.substr(0, field.find(':') + 1) + value);
}

TEST(ObsCheckTest, AcceptsOneValidFilePerMode) {
  for (const Artifact& artifact : Artifacts()) {
    SCOPED_TRACE(artifact.mode);
    EXPECT_EQ(Check(artifact.mode, artifact.valid), 0);
  }
}

TEST(ObsCheckTest, RejectsIntegerFieldWrittenWithAFraction) {
  ExpectEveryModeRejects(
      [](const Artifact& a) { return WithValue(a, a.integer, "1.0"); });
}

TEST(ObsCheckTest, RejectsHexNumber) {
  ExpectEveryModeRejects(
      [](const Artifact& a) { return WithValue(a, a.integer, "0x1"); });
}

TEST(ObsCheckTest, RejectsNumberBeyondDoubleRange) {
  ExpectEveryModeRejects(
      [](const Artifact& a) { return WithValue(a, a.real, "1e999"); });
}

TEST(ObsCheckTest, RejectsRawTabInString) {
  ExpectEveryModeRejects([](const Artifact& a) {
    const std::string tabbed = a.text.substr(0, 2) + '\t' + a.text.substr(2);
    return Replace(a.valid, a.text, tabbed);
  });
}

TEST(ObsCheckTest, RejectsTrailingBytes) {
  ExpectEveryModeRejects([](const Artifact& a) {
    std::string text = a.valid;
    while (!text.empty() && text.back() == '\n') text.pop_back();
    return text + " x\n";
  });
}

TEST(ObsCheckTest, RejectsTruncatedInput) {
  ExpectEveryModeRejects(
      [](const Artifact& a) { return a.valid.substr(0, a.valid.size() / 2); });
}

}  // namespace
}  // namespace kt
