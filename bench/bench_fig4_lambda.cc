// Reproduces Fig. 4: effect of the loss balancer lambda on RCKT-DKT and
// RCKT-AKT for ASSIST09 and ASSIST12. lambda sweeps
// {0, 0.01, 0.05, 0.1, 0.2, 0.3}; the paper's shape is an inverted U with
// the peak in [0.01, 0.1].
#include <vector>

#include "bench/bench_common.h"

namespace kt {
namespace bench {
namespace {

constexpr float kLambdas[] = {0.0f, 0.01f, 0.05f, 0.1f, 0.2f, 0.3f};
// Smoke mode sweeps ASSIST09 only (the full paper pair in KT_BENCH_FULL=1).
const std::vector<std::string> kDatasets() {
  if (FullMode()) return {"assist09", "assist12"};
  return {"assist09"};
}
constexpr rckt::EncoderKind kEncoders[] = {rckt::EncoderKind::kDKT,
                                           rckt::EncoderKind::kAKT};

void Run() {
  PrintHeader("Fig. 4: loss balancer lambda sweep",
              "paper: AUC/ACC peak for lambda in [0.01, 0.1] on both "
              "ASSIST datasets and both encoders (inverted-U shape)");

  for (const std::string& dataset_name : kDatasets()) {
    const char* dataset = dataset_name.c_str();
    data::Dataset windows = MakeWindows(dataset);
    for (rckt::EncoderKind encoder : kEncoders) {
      const std::string name =
          std::string("RCKT-") + rckt::EncoderKindName(encoder);
      TablePrinter table({"lambda", "AUC", "ACC"});
      for (float lambda : kLambdas) {
        rckt::RcktFactory factory =
            [&](const data::Dataset& train) -> std::unique_ptr<rckt::RCKT> {
          rckt::RcktConfig config =
              BenchRcktConfig(dataset, encoder, /*seed=*/91);
          config.lambda = lambda;
          // lambda == 0 means no joint training at all.
          config.joint_training = lambda > 0.0f;
          return std::make_unique<rckt::RCKT>(train.num_questions,
                                              train.num_concepts, config);
        };
        // One fold per lambda point (the sweep is about the curve shape).
        const auto cv = rckt::RunRcktCrossValidation(
            windows, 2, factory, RcktBenchOptions(5),
            /*seed=*/11, ValidationFraction(),
            /*folds_to_run=*/FullMode() ? 2 : 1);
        table.AddRow({StrPrintf("%.2f", static_cast<double>(lambda)),
                      Fmt4(cv.auc_mean), Fmt4(cv.acc_mean)});
        std::fprintf(stderr, "[fig4] %s %s lambda=%.2f auc %.4f\n", dataset,
                     name.c_str(), static_cast<double>(lambda), cv.auc_mean);
      }
      std::printf("\n%s on %s:\n", name.c_str(), dataset);
      table.Print(std::cout);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace kt

int main(int argc, char** argv) {
  kt::bench::InitBenchFlags(&argc, argv);
  kt::bench::Run();
  return 0;
}
