// End-to-end checks that run the built `ktcli` binary as a user would, for
// behaviour only the command line can get wrong: which flags reach the
// model it builds.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "nn/serialize.h"

extern char** environ;

namespace kt {
namespace {

// Per-process names: ctest runs each test case as its own process, in
// parallel.
std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/ktcli_test_" +
         std::to_string(getpid()) + "_" + name;
}

// Runs `ktcli args...` with its output discarded and returns the exit code
// (-1 when it did not exit normally).
int RunKtcli(const std::vector<std::string>& args) {
  std::vector<std::string> argv_strings = {KT_KTCLI_PATH};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
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

class KtcliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ASSERT_EQ(RunKtcli({"simulate", "--preset", "assist09", "--scale", "0.02",
                        "--out", Data()}),
              0);
  }
  static std::string Data() { return TempPath("data.csv"); }

  // `ktcli train` for a SAKT model with `heads` heads and no epochs.
  static int TrainSakt(const std::string& heads, const std::string& save) {
    return RunKtcli({"train", "--threads", "1", "--data", Data(), "--encoder",
                     "sakt", "--heads", heads, "--epochs", "0", "--save",
                     save});
  }
};

TEST_F(KtcliTest, TrainBuildsTheModelTheHeadsFlagNames) {
  const std::string save = TempPath("heads4.ktw");
  ASSERT_EQ(TrainSakt("4", save), 0);
  bool present = false;
  nn::ModelMeta meta;
  ASSERT_TRUE(nn::ReadModuleMeta(save, &present, &meta).ok());
  ASSERT_TRUE(present);
  EXPECT_EQ(meta.num_heads, 4);
  EXPECT_EQ(meta.dim, 32);
}

TEST_F(KtcliTest, TrainRejectsHeadsThatDoNotDivideDim) {
  EXPECT_EQ(TrainSakt("3", TempPath("heads3.ktw")), 1);
}

}  // namespace
}  // namespace kt
