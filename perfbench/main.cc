// kt_perfbench: the repository benchmark's load generator and checker.
//
//   kt_perfbench --workload <serve_c1_light|serve_open_mixed|train_sakt>
//                --seed N --seconds S --trace 0|1 --ktcli PATH
//                --work-dir DIR [--commit ID]
//   kt_perfbench --self-test
//
// Prints one "metric <name> = <value> <unit> (n=<samples>)" line per
// number, the outcome of every output check, and finally
// "RESULT <json>" with correct/attempted/failed, every metric, and the
// environment (nproc, CPU id, build type, commit). perfbench/run.py builds
// this program and turns the RESULT line into the benchmark's output.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "core/cpu.h"
#include "core/parallel.h"
#include "perfbench/perfbench.h"

#ifndef KT_PERFBENCH_BUILD_TYPE
#define KT_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: kt_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --ktcli PATH --work-dir DIR [--commit ID]\n"
               "       kt_perfbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string commit = "unknown";
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--ktcli") {
      options.ktcli = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  if (self_test) return perfbench::SelfTest() == 0 ? 0 : 1;
  if (options.workload.empty() || options.ktcli.empty() ||
      options.work_dir.empty() || options.seconds <= 0) {
    return Usage();
  }

  // In-process replays run single-threaded; the programs under test keep
  // their own defaults.
  kt::SetNumThreads(1);
  options.run_dir = options.work_dir + "/run/" + options.workload + "-" +
                    std::to_string(::getpid());
  options.results_dir = options.work_dir + "/results";
  perfbench::MakeDirs(options.run_dir);
  perfbench::MakeDirs(options.results_dir);

  perfbench::Report report;
  int rc = 2;
  if (options.workload == "serve_c1_light") {
    rc = perfbench::RunServeC1Light(options, &report);
  } else if (options.workload == "serve_open_mixed") {
    rc = perfbench::RunServeOpenMixed(options, &report);
  } else if (options.workload == "train_sakt") {
    rc = perfbench::RunTrainSakt(options, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
  }
  if (rc != 0) {
    std::fprintf(stderr, "workload failed; logs kept in %s\n",
                 options.run_dir.c_str());
    return rc;
  }
  std::error_code ec;
  std::filesystem::remove_all(options.run_dir, ec);

  char environment[512];
  std::snprintf(environment, sizeof(environment),
                "{\"nproc\":%u,\"cpu\":\"%s\",\"build_type\":\"%s\","
                "\"commit\":\"%s\"}",
                std::thread::hardware_concurrency(),
                kt::cpu::IdString().c_str(), KT_PERFBENCH_BUILD_TYPE,
                commit.c_str());
  const std::string result =
      report.Finish(options.workload, options.seed, options.trace, environment);
  std::printf("RESULT %s\n", result.c_str());
  return 0;
}
