// kt::ckpt tests: container-format corruption handling, atomic commit, full
// training-state round trips, and the headline guarantee — train k epochs,
// kill, resume, and the final parameters, logged losses, and influence
// scores are bit-identical to an uninterrupted run at every thread count.
#include "ckpt/ckpt.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/training_state.h"
#include "core/binio.h"
#include "core/check.h"
#include "core/fileio.h"
#include "core/parallel.h"
#include "data/simulator.h"
#include "eval/trainer.h"
#include "models/dkt.h"
#include "nn/linear.h"
#include "rckt/rckt_model.h"
#include "rckt/rckt_trainer.h"
#include "rckt/samples.h"

namespace kt {
namespace ckpt {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string ReadAll(const std::string& path) {
  std::string bytes;
  KT_CHECK(ReadFileToString(path, &bytes).ok());
  return bytes;
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bool BitsEqual(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
}

bool BitsEqual(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!BitsEqual(a[i], b[i])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Container format
// ---------------------------------------------------------------------------

TEST(CkptFormatTest, RoundTripsSections) {
  const std::string path = TempPath("roundtrip.ktc");
  CheckpointWriter writer;
  writer.Section("alpha") = "hello";
  std::string& beta = writer.Section("beta");
  AppendPod(&beta, static_cast<int64_t>(-7));
  ASSERT_TRUE(writer.Commit(path).ok());

  CheckpointReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_TRUE(reader.Has("alpha"));
  EXPECT_TRUE(reader.Has("beta"));
  EXPECT_FALSE(reader.Has("gamma"));
  std::string_view view;
  ASSERT_TRUE(reader.Find("alpha", &view).ok());
  EXPECT_EQ(view, "hello");
  ASSERT_TRUE(reader.Find("beta", &view).ok());
  BinCursor cursor(view.data(), view.size());
  int64_t value = 0;
  ASSERT_TRUE(cursor.Read(&value));
  EXPECT_EQ(value, -7);
  EXPECT_EQ(reader.Find("gamma", &view).code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(CkptFormatTest, RejectsTruncationAtEveryOffset) {
  const std::string path = TempPath("truncate.ktc");
  CheckpointWriter writer;
  writer.Section("data") = "0123456789";
  ASSERT_TRUE(writer.Commit(path).ok());
  const std::string bytes = ReadAll(path);

  const std::string cut = TempPath("truncate_cut.ktc");
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteAll(cut, bytes.substr(0, len));
    CheckpointReader reader;
    EXPECT_FALSE(reader.Open(cut).ok()) << "prefix of " << len << " bytes";
  }
  std::remove(path.c_str());
  std::remove(cut.c_str());
}

TEST(CkptFormatTest, RejectsFlippedByteAtEveryOffset) {
  const std::string path = TempPath("flip.ktc");
  CheckpointWriter writer;
  writer.Section("data") = "0123456789";
  ASSERT_TRUE(writer.Commit(path).ok());
  const std::string bytes = ReadAll(path);

  const std::string bad = TempPath("flip_bad.ktc");
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
    WriteAll(bad, corrupt);
    CheckpointReader reader;
    EXPECT_FALSE(reader.Open(bad).ok()) << "flipped byte at offset " << i;
  }
  std::remove(path.c_str());
  std::remove(bad.c_str());
}

TEST(CkptFormatTest, RejectsTrailingBytes) {
  const std::string path = TempPath("trailing.ktc");
  CheckpointWriter writer;
  writer.Section("data") = "payload";
  ASSERT_TRUE(writer.Commit(path).ok());
  WriteAll(path, ReadAll(path) + "junk");
  CheckpointReader reader;
  EXPECT_FALSE(reader.Open(path).ok());
  std::remove(path.c_str());
}

TEST(CkptFormatTest, RejectsUnknownFormatVersion) {
  const std::string path = TempPath("version.ktc");
  CheckpointWriter writer;
  writer.Section("data") = "payload";
  ASSERT_TRUE(writer.Commit(path).ok());
  std::string bytes = ReadAll(path);
  // The version field sits right after the 4-byte magic.
  bytes[4] = 99;
  WriteAll(path, bytes);
  CheckpointReader reader;
  const Status status = reader.Open(path);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("version"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CkptFormatTest, MissingFileIsNotFound) {
  CheckpointReader reader;
  EXPECT_EQ(reader.Open(TempPath("does_not_exist.ktc")).code(),
            StatusCode::kNotFound);
}

// A crash mid-save must never destroy the previous checkpoint: the commit
// protocol writes "<path>.tmp" and renames. Simulate an interruption at
// every byte offset of the new file and verify the old file stays loadable.
TEST(CkptFormatTest, InterruptedCommitLeavesPreviousCheckpointLoadable) {
  const std::string path = TempPath("atomic.ktc");
  CheckpointWriter old_writer;
  old_writer.Section("data") = "old-contents";
  ASSERT_TRUE(old_writer.Commit(path).ok());

  CheckpointWriter new_writer;
  new_writer.Section("data") = "new-contents-which-are-longer";
  const std::string staging = TempPath("atomic_staging.ktc");
  ASSERT_TRUE(new_writer.Commit(staging).ok());
  const std::string new_bytes = ReadAll(staging);

  for (size_t len = 0; len < new_bytes.size(); ++len) {
    // Crash after writing `len` bytes of the tmp file: the tmp file holds a
    // prefix, the destination is untouched.
    WriteAll(path + ".tmp", new_bytes.substr(0, len));
    CheckpointReader reader;
    ASSERT_TRUE(reader.Open(path).ok()) << "interrupted at offset " << len;
    std::string_view view;
    ASSERT_TRUE(reader.Find("data", &view).ok());
    EXPECT_EQ(view, "old-contents");
  }
  std::remove((path + ".tmp").c_str());
  std::remove(path.c_str());
  std::remove(staging.c_str());
}

// ---------------------------------------------------------------------------
// Training-state round trips
// ---------------------------------------------------------------------------

data::Dataset SmallDataset(uint64_t seed) {
  data::SimulatorConfig config;
  config.num_students = 30;
  config.num_questions = 25;
  config.num_concepts = 4;
  config.min_responses = 10;
  config.max_responses = 20;
  config.seed = seed;
  data::StudentSimulator sim(config);
  return sim.Generate();
}

rckt::RcktConfig SmallRcktConfig(uint64_t seed) {
  rckt::RcktConfig config;
  config.dim = 8;
  config.seed = seed;
  return config;
}

data::Batch SmallPrefixBatch(const data::Dataset& ds) {
  std::vector<rckt::PrefixSample> samples;
  for (const auto& seq : ds.sequences) {
    if (seq.length() > 8) samples.push_back({&seq, 8});
    if (samples.size() == 8) break;
  }
  return rckt::MakePrefixBatch(samples);
}

TEST(TrainingStateTest, RoundTripsFullTrainingState) {
  data::Dataset ds = SmallDataset(21);
  rckt::RCKT model(ds.num_questions, ds.num_concepts, SmallRcktConfig(7));
  data::Batch batch = SmallPrefixBatch(ds);
  for (int step = 0; step < 3; ++step) model.TrainStep(batch);

  Rng shuffle(123);
  shuffle.NextU64();
  TrainerProgress progress;
  progress.next_epoch = 4;
  progress.epochs_run = 4;
  progress.best_val_auc = 0.625;
  progress.best_epoch = 2;
  progress.epochs_since_best = 1;
  progress.val_auc_history = {0.5, 0.6, 0.625, 0.61};
  progress.train_loss_history = {1.2, 1.0, 0.9, 0.85};
  std::vector<Tensor> best_state = model.StateClone();

  TrainingState state;
  state.tag = model.name();
  state.module = &model;
  state.optimizer = model.optimizer();
  state.rngs = {{"shuffle", &shuffle}, {"dropout", model.dropout_rng()}};
  state.progress = &progress;
  state.best_state = &best_state;

  const std::string path = TempPath("training_state.ktc");
  ASSERT_TRUE(SaveTrainingState(state, path).ok());

  // Snapshot the saved values, then perturb everything.
  // Tensor copies share storage, so deep-clone the moment snapshots.
  const std::vector<Tensor> saved_params = model.StateClone();
  std::vector<Tensor> saved_m, saved_v;
  for (const Tensor& t : model.optimizer()->moment1()) {
    saved_m.push_back(t.Clone());
  }
  for (const Tensor& t : model.optimizer()->moment2()) {
    saved_v.push_back(t.Clone());
  }
  const int64_t saved_step = model.optimizer()->step_count();
  const Rng::State saved_shuffle = shuffle.GetState();
  const Rng::State saved_dropout = model.dropout_rng()->GetState();
  const TrainerProgress saved_progress = progress;

  for (int step = 0; step < 2; ++step) model.TrainStep(batch);
  shuffle.NextU64();
  progress = TrainerProgress();
  best_state.clear();

  ASSERT_TRUE(LoadTrainingState(state, path).ok());

  EXPECT_TRUE(BitsEqual(model.StateClone(), saved_params));
  EXPECT_TRUE(BitsEqual(model.optimizer()->moment1(), saved_m));
  EXPECT_TRUE(BitsEqual(model.optimizer()->moment2(), saved_v));
  EXPECT_EQ(model.optimizer()->step_count(), saved_step);
  EXPECT_EQ(std::memcmp(shuffle.GetState().s, saved_shuffle.s,
                        sizeof(saved_shuffle.s)),
            0);
  EXPECT_EQ(std::memcmp(model.dropout_rng()->GetState().s, saved_dropout.s,
                        sizeof(saved_dropout.s)),
            0);
  EXPECT_EQ(progress.next_epoch, saved_progress.next_epoch);
  EXPECT_EQ(progress.epochs_run, saved_progress.epochs_run);
  EXPECT_EQ(progress.best_val_auc, saved_progress.best_val_auc);
  EXPECT_EQ(progress.best_epoch, saved_progress.best_epoch);
  EXPECT_EQ(progress.epochs_since_best, saved_progress.epochs_since_best);
  EXPECT_EQ(progress.val_auc_history, saved_progress.val_auc_history);
  EXPECT_EQ(progress.train_loss_history, saved_progress.train_loss_history);
  EXPECT_TRUE(BitsEqual(best_state, saved_params));
  std::remove(path.c_str());
}

TEST(TrainingStateTest, RejectsTagMismatch) {
  Rng rng(3);
  nn::Linear module(4, 3, rng);
  TrainerProgress progress;
  TrainingState state;
  state.tag = "model-a";
  state.module = &module;
  state.progress = &progress;

  const std::string path = TempPath("tag.ktc");
  ASSERT_TRUE(SaveTrainingState(state, path).ok());

  state.tag = "model-b";
  const Status status = LoadTrainingState(state, path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("tag"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TrainingStateTest, CorruptFileLeavesStateUntouched) {
  data::Dataset ds = SmallDataset(22);
  rckt::RCKT model(ds.num_questions, ds.num_concepts, SmallRcktConfig(9));
  data::Batch batch = SmallPrefixBatch(ds);
  model.TrainStep(batch);

  Rng shuffle(5);
  TrainerProgress progress;
  std::vector<Tensor> best_state;
  TrainingState state;
  state.tag = model.name();
  state.module = &model;
  state.optimizer = model.optimizer();
  state.rngs = {{"shuffle", &shuffle}};
  state.progress = &progress;
  state.best_state = &best_state;

  const std::string path = TempPath("corrupt_state.ktc");
  ASSERT_TRUE(SaveTrainingState(state, path).ok());

  // Move on, then try to load a corrupted file: nothing may change.
  model.TrainStep(batch);
  progress.next_epoch = 2;
  const std::vector<Tensor> params_before = model.StateClone();
  std::vector<Tensor> m_before;  // deep clone: Tensor copies share storage
  for (const Tensor& t : model.optimizer()->moment1()) {
    m_before.push_back(t.Clone());
  }
  const Rng::State shuffle_before = shuffle.GetState();

  std::string bytes = ReadAll(path);
  bytes[bytes.size() / 2] =
      static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  WriteAll(path, bytes);

  EXPECT_FALSE(LoadTrainingState(state, path).ok());
  EXPECT_TRUE(BitsEqual(model.StateClone(), params_before));
  EXPECT_TRUE(BitsEqual(model.optimizer()->moment1(), m_before));
  EXPECT_EQ(std::memcmp(shuffle.GetState().s, shuffle_before.s,
                        sizeof(shuffle_before.s)),
            0);
  EXPECT_EQ(progress.next_epoch, 2);
  std::remove(path.c_str());
}

// A container whose checksums hold but whose adam section is cut short
// gets past the CRC, so it exercises the section parser's own checks.
TEST(TrainingStateTest, TruncatedAdamSectionLeavesStateUntouched) {
  data::Dataset ds = SmallDataset(23);
  rckt::RCKT model(ds.num_questions, ds.num_concepts, SmallRcktConfig(11));
  data::Batch batch = SmallPrefixBatch(ds);
  model.TrainStep(batch);

  Rng shuffle(6);
  TrainerProgress progress;
  std::vector<Tensor> best_state;
  TrainingState state;
  state.tag = model.name();
  state.module = &model;
  state.optimizer = model.optimizer();
  state.rngs = {{"shuffle", &shuffle}, {"dropout", model.dropout_rng()}};
  state.progress = &progress;
  state.best_state = &best_state;

  const std::string path = TempPath("truncated_adam.ktc");
  ASSERT_TRUE(SaveTrainingState(state, path).ok());
  {
    CheckpointReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    CheckpointWriter writer;
    for (const char* name :
         {"meta", "module", "adam", "rng", "progress", "best"}) {
      std::string_view section;
      ASSERT_TRUE(reader.Find(name, &section).ok()) << name;
      if (std::string(name) == "adam") {
        section = section.substr(0, section.size() / 2);
      }
      writer.Section(name).assign(section.data(), section.size());
    }
    ASSERT_TRUE(writer.Commit(path).ok());
  }

  model.TrainStep(batch);
  shuffle.NextU64();
  progress.next_epoch = 3;
  const std::vector<Tensor> params_before = model.StateClone();
  std::vector<Tensor> m_before, v_before;  // deep clones: copies share storage
  for (const Tensor& t : model.optimizer()->moment1()) {
    m_before.push_back(t.Clone());
  }
  for (const Tensor& t : model.optimizer()->moment2()) {
    v_before.push_back(t.Clone());
  }
  const int64_t step_before = model.optimizer()->step_count();
  const Rng::State shuffle_before = shuffle.GetState();
  const Rng::State dropout_before = model.dropout_rng()->GetState();

  const Status status = LoadTrainingState(state, path);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("adam"), std::string::npos)
      << status.message();
  EXPECT_TRUE(BitsEqual(model.StateClone(), params_before));
  EXPECT_TRUE(BitsEqual(model.optimizer()->moment1(), m_before));
  EXPECT_TRUE(BitsEqual(model.optimizer()->moment2(), v_before));
  EXPECT_EQ(model.optimizer()->step_count(), step_before);
  EXPECT_EQ(std::memcmp(shuffle.GetState().s, shuffle_before.s,
                        sizeof(shuffle_before.s)),
            0);
  EXPECT_EQ(std::memcmp(model.dropout_rng()->GetState().s, dropout_before.s,
                        sizeof(dropout_before.s)),
            0);
  EXPECT_EQ(progress.next_epoch, 3);
  std::remove(path.c_str());
}

TEST(TrainingStateTest, RejectsMissingRngStream) {
  Rng rng(3);
  nn::Linear module(4, 3, rng);
  Rng stream_a(1);
  TrainerProgress progress;
  TrainingState state;
  state.tag = "m";
  state.module = &module;
  state.rngs = {{"a", &stream_a}};
  state.progress = &progress;

  const std::string path = TempPath("missing_rng.ktc");
  ASSERT_TRUE(SaveTrainingState(state, path).ok());

  Rng stream_b(2);
  state.rngs.emplace_back("b", &stream_b);
  const Status status = LoadTrainingState(state, path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("'b'"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Kill/resume bit-identity
// ---------------------------------------------------------------------------

struct RcktRunArtifacts {
  rckt::RcktTrainResult result;
  std::vector<Tensor> final_params;
  std::vector<float> influence_scores;
  std::vector<float> explain_influences;
};

RcktRunArtifacts CollectArtifacts(rckt::RCKT& model,
                                  const rckt::RcktTrainResult& result,
                                  const data::Batch& probe) {
  RcktRunArtifacts artifacts;
  artifacts.result = result;
  artifacts.final_params = model.StateClone();
  artifacts.influence_scores = model.ScoreTargets(probe);
  for (const auto& explanation : model.ExplainTargets(probe)) {
    artifacts.explain_influences.insert(artifacts.explain_influences.end(),
                                        explanation.influence.begin(),
                                        explanation.influence.end());
  }
  return artifacts;
}

void ExpectIdenticalRuns(const RcktRunArtifacts& a, const RcktRunArtifacts& b) {
  EXPECT_TRUE(BitsEqual(a.final_params, b.final_params));
  EXPECT_EQ(a.result.train_loss_history, b.result.train_loss_history);
  EXPECT_EQ(a.result.val_auc_history, b.result.val_auc_history);
  EXPECT_EQ(a.result.best_val_auc, b.result.best_val_auc);
  EXPECT_EQ(a.result.best_epoch, b.result.best_epoch);
  EXPECT_EQ(a.result.test.auc, b.result.test.auc);
  EXPECT_EQ(a.result.test.acc, b.result.test.acc);
  EXPECT_EQ(a.influence_scores, b.influence_scores);
  EXPECT_EQ(a.explain_influences, b.explain_influences);
}

// Train k epochs -> kill -> resume must equal an uninterrupted run exactly:
// final parameters, logged losses, AUCs, and influence scores, at
// KT_NUM_THREADS = 1, 2, and 8.
TEST(CkptResumeTest, RcktKillResumeBitIdenticalAcrossThreadCounts) {
  data::Dataset ds = SmallDataset(31);
  Rng fold_rng(5);
  const auto folds =
      data::KFoldAssignment(static_cast<int64_t>(ds.sequences.size()), 5,
                            fold_rng);
  data::FoldSplit split = data::MakeFold(ds, folds, 0, 0.2, fold_rng);
  data::Batch probe = SmallPrefixBatch(ds);

  rckt::RcktTrainOptions options;
  options.max_epochs = 4;
  options.patience = 10;
  options.batch_size = 16;

  const int previous_threads = GetNumThreads();
  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    const std::string path =
        TempPath("resume_t" + std::to_string(threads) + ".ktc");

    // Uninterrupted reference run.
    rckt::RCKT uninterrupted(ds.num_questions, ds.num_concepts,
                             SmallRcktConfig(13));
    const RcktRunArtifacts reference = CollectArtifacts(
        uninterrupted, TrainAndEvaluateRckt(uninterrupted, split, options),
        probe);

    // "Killed" run: checkpoint every epoch, stop after 2 of 4 epochs. The
    // checkpoint on disk is the epoch-2 boundary state.
    {
      rckt::RCKT killed(ds.num_questions, ds.num_concepts,
                        SmallRcktConfig(13));
      rckt::RcktTrainOptions kill_options = options;
      kill_options.max_epochs = 2;
      kill_options.checkpoint_every = 1;
      kill_options.checkpoint_path = path;
      TrainAndEvaluateRckt(killed, split, kill_options);
    }

    // Resumed run. A different init seed proves every relevant bit comes
    // from the checkpoint, not from matching construction.
    rckt::RCKT resumed(ds.num_questions, ds.num_concepts,
                       SmallRcktConfig(99));
    rckt::RcktTrainOptions resume_options = options;
    resume_options.checkpoint_every = 1;
    resume_options.checkpoint_path = path;
    resume_options.resume_path = path;
    const RcktRunArtifacts resumed_artifacts = CollectArtifacts(
        resumed, TrainAndEvaluateRckt(resumed, split, resume_options), probe);

    ExpectIdenticalRuns(reference, resumed_artifacts);
    EXPECT_EQ(resumed_artifacts.result.epochs_run, 4);
    std::remove(path.c_str());
  }
  SetNumThreads(previous_threads);
}

TEST(CkptResumeTest, DktTrainerKillResumeBitIdentical) {
  data::Dataset ds = SmallDataset(41);
  Rng fold_rng(5);
  const auto folds =
      data::KFoldAssignment(static_cast<int64_t>(ds.sequences.size()), 5,
                            fold_rng);
  data::FoldSplit split = data::MakeFold(ds, folds, 0, 0.2, fold_rng);

  models::NeuralConfig nc;
  nc.dim = 8;
  eval::TrainOptions options;
  options.max_epochs = 4;
  options.patience = 10;
  options.batch_size = 16;

  models::DKT uninterrupted(ds.num_questions, ds.num_concepts, nc);
  const eval::TrainResult reference =
      eval::TrainAndEvaluate(uninterrupted, split, options);
  const std::vector<Tensor> reference_params = uninterrupted.StateClone();

  const std::string path = TempPath("dkt_resume.ktc");
  {
    models::DKT killed(ds.num_questions, ds.num_concepts, nc);
    eval::TrainOptions kill_options = options;
    kill_options.max_epochs = 2;
    kill_options.checkpoint_every = 1;
    kill_options.checkpoint_path = path;
    eval::TrainAndEvaluate(killed, split, kill_options);
  }

  models::NeuralConfig other_init = nc;
  other_init.seed = 77;
  models::DKT resumed(ds.num_questions, ds.num_concepts, other_init);
  eval::TrainOptions resume_options = options;
  resume_options.checkpoint_every = 1;
  resume_options.checkpoint_path = path;
  resume_options.resume_path = path;
  const eval::TrainResult resumed_result =
      eval::TrainAndEvaluate(resumed, split, resume_options);

  EXPECT_TRUE(BitsEqual(resumed.StateClone(), reference_params));
  EXPECT_EQ(resumed_result.train_loss_history, reference.train_loss_history);
  EXPECT_EQ(resumed_result.val_auc_history, reference.val_auc_history);
  EXPECT_EQ(resumed_result.best_val_auc, reference.best_val_auc);
  EXPECT_EQ(resumed_result.test.auc, reference.test.auc);
  EXPECT_EQ(resumed_result.test.acc, reference.test.acc);
  EXPECT_EQ(resumed_result.epochs_run, 4);
  std::remove(path.c_str());
}

// A killed 5-fold (here 2-fold) run restarts at the interrupted fold:
// completed folds fast-resume from their final checkpoint without
// retraining, and the cross-validation result matches an uninterrupted run
// exactly.
TEST(CkptResumeTest, CrossValidationResumesInterruptedFold) {
  data::Dataset ds = SmallDataset(51);
  rckt::RcktTrainOptions options;
  options.max_epochs = 3;
  options.patience = 10;
  options.batch_size = 16;

  const rckt::RcktFactory factory = [&](const data::Dataset&) {
    return std::make_unique<rckt::RCKT>(ds.num_questions, ds.num_concepts,
                                        SmallRcktConfig(13));
  };

  const eval::CrossValidationResult reference = rckt::RunRcktCrossValidation(
      ds, 2, factory, options, /*seed=*/11, /*validation_fraction=*/0.2);

  // "Killed after fold 0": only the first fold runs, checkpointing as it
  // goes, so <path>.fold0 holds that fold's final epoch boundary.
  const std::string path = TempPath("cv.ktc");
  rckt::RcktTrainOptions ckpt_options = options;
  ckpt_options.checkpoint_every = 1;
  ckpt_options.checkpoint_path = path;
  rckt::RunRcktCrossValidation(ds, 2, factory, ckpt_options, 11, 0.2,
                               /*folds_to_run=*/1);
  ASSERT_TRUE(FileExists(path + ".fold0"));
  ASSERT_FALSE(FileExists(path + ".fold1"));

  // Restarted run resumes every fold from its own checkpoint; fold 0 skips
  // straight to the final test evaluation, fold 1 trains from scratch.
  rckt::RcktTrainOptions resume_options = ckpt_options;
  resume_options.resume_path = path;
  const eval::CrossValidationResult restarted = rckt::RunRcktCrossValidation(
      ds, 2, factory, resume_options, 11, 0.2);

  ASSERT_EQ(restarted.fold_auc.size(), reference.fold_auc.size());
  for (size_t i = 0; i < reference.fold_auc.size(); ++i) {
    EXPECT_EQ(restarted.fold_auc[i], reference.fold_auc[i]) << "fold " << i;
    EXPECT_EQ(restarted.fold_acc[i], reference.fold_acc[i]) << "fold " << i;
  }
  EXPECT_EQ(restarted.auc_mean, reference.auc_mean);
  std::remove((path + ".fold0").c_str());
  std::remove((path + ".fold1").c_str());
}

}  // namespace
}  // namespace ckpt
}  // namespace kt
