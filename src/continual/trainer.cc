#include "continual/trainer.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <utility>

#include "ckpt/ckpt.h"
#include "ckpt/training_state.h"
#include "core/binio.h"
#include "core/check.h"
#include "core/fileio.h"
#include "core/logging.h"
#include "eval/metrics.h"
#include "nn/serialize.h"
#include "obs/obs.h"
#include "obs/runlog.h"
#include "rckt/samples.h"

namespace kt {
namespace continual {
namespace {

constexpr uint32_t kCheckpointSchemaVersion = 1;

// The candidate is trained with dropout OFF so a mini-epoch over a fixed
// replay set is a pure function of (weights, optimizer, samples) — no RNG
// stream to carry through checkpoints — and with the continual learning
// rate instead of the offline one.
rckt::RcktConfig CandidateConfig(const rckt::RcktConfig& serving,
                                 const TrainerOptions& options) {
  rckt::RcktConfig config = serving;
  config.lr = options.lr;
  config.dropout = 0.0f;
  return config;
}

// Stable sequence storage + prefix samples for a sample list (order
// preserved: row i of the grouped batches maps back through the
// PrefixSample's sequence pointer).
struct MaterializedSet {
  std::vector<data::ResponseSequence> sequences;
  std::vector<rckt::PrefixSample> samples;
};

MaterializedSet Materialize(const std::vector<TrainSample>& set) {
  MaterializedSet out;
  out.sequences.reserve(set.size());
  out.samples.reserve(set.size());
  for (const TrainSample& sample : set) {
    data::ResponseSequence seq;
    seq.student = static_cast<int64_t>(sample.student_fnv);
    seq.interactions.reserve(sample.context.size() + 1);
    seq.interactions.assign(sample.context.begin(), sample.context.end());
    seq.interactions.push_back(sample.target);
    out.sequences.push_back(std::move(seq));
  }
  for (const data::ResponseSequence& seq : out.sequences) {
    out.samples.push_back({&seq, seq.length() - 1});
  }
  return out;
}

// AUC of `model`'s generator predictions (the serving predict path) over a
// held-out sample list. 0.5 when a class is absent, matching ComputeAuc.
double ScoreAuc(rckt::RCKT& model, const std::vector<TrainSample>& holdout,
                int64_t batch_size) {
  MaterializedSet set = Materialize(holdout);
  eval::MetricAccumulator acc;
  for (const auto& group :
       rckt::GroupIntoBatches(set.samples, batch_size, nullptr)) {
    const std::vector<float> probs =
        model.GeneratorScoreTargets(rckt::MakePrefixBatch(group));
    for (size_t i = 0; i < group.size(); ++i) {
      acc.AddOne(probs[i], group[i].sequence->interactions.back().response);
    }
  }
  return acc.Auc();
}

void Bump(const char* name, int64_t n = 1) {
  if (obs::Enabled()) obs::Counter::Get(name)->Add(n);
}

}  // namespace

ContinualTrainer::ContinualTrainer(rckt::RCKT& serving,
                                   const TrainerOptions& options)
    : options_(options),
      serving_(serving),
      collector_([&] {
        CollectorOptions c;
        c.shards = options.shards;
        c.window = options.window;
        c.min_history = options.min_history;
        c.holdout_every = options.holdout_every;
        c.seed = options.seed;
        return c;
      }()),
      reservoir_(options.reservoir_capacity, options.seed) {
  options_.tail_capacity = std::max<int64_t>(0, options.tail_capacity);
  options_.holdout_capacity = std::max<int64_t>(1, options.holdout_capacity);
  options_.batch_size = std::max<int64_t>(1, options.batch_size);
  candidate_ = std::make_unique<rckt::RCKT>(
      serving.num_questions(), serving.num_concepts(),
      CandidateConfig(serving.config(), options_));
  candidate_->SetState(serving.StateClone());
  weight_version_.store(options_.initial_weight_version);
  if (!options_.dir.empty() && !MakeDirs(options_.dir)) {
    KT_LOG(WARNING) << "continual: cannot create directory " << options_.dir;
  }
}

ContinualTrainer::~ContinualTrainer() { Stop(); }

void ContinualTrainer::Record(int shard, const serve::UpdateEvent& event) {
  collector_.Record(shard, event);
}

void ContinualTrainer::DrainNow() {
  std::lock_guard<std::mutex> lock(data_mu_);
  std::vector<TrainSample> new_train;
  std::vector<TrainSample> new_holdout;
  collector_.Drain(&new_train, &new_holdout);
  for (TrainSample& sample : new_train) {
    if (options_.tail_capacity > 0) {
      reservoir_.Offer(sample);
      tail_.push_back(std::move(sample));
    } else {
      reservoir_.Offer(std::move(sample));
    }
  }
  if (static_cast<int64_t>(tail_.size()) > options_.tail_capacity) {
    tail_.erase(tail_.begin(),
                tail_.end() - static_cast<ptrdiff_t>(options_.tail_capacity));
  }
  std::move(new_holdout.begin(), new_holdout.end(),
            std::back_inserter(holdout_));
  if (static_cast<int64_t>(holdout_.size()) > options_.holdout_capacity) {
    holdout_.erase(
        holdout_.begin(),
        holdout_.end() - static_cast<ptrdiff_t>(options_.holdout_capacity));
  }
}

std::vector<TrainSample> ContinualTrainer::SnapshotTrainSet() {
  std::lock_guard<std::mutex> lock(data_mu_);
  std::vector<TrainSample> out;
  out.reserve(static_cast<size_t>(reservoir_.size()) + tail_.size());
  for (const TrainSample* sample : reservoir_.Ordered()) {
    out.push_back(*sample);
  }
  out.insert(out.end(), tail_.begin(), tail_.end());
  return out;
}

bool ContinualTrainer::RunMiniEpoch() {
  const auto start = std::chrono::steady_clock::now();
  DrainNow();
  const std::vector<TrainSample> train_set = SnapshotTrainSet();
  std::vector<TrainSample> holdout;
  int64_t reservoir_size = 0;
  {
    std::lock_guard<std::mutex> lock(data_mu_);
    reservoir_size = reservoir_.size();
    holdout = holdout_;
  }
  if (train_set.empty()) return false;

  // Deterministic mini-epoch: canonical sample order (reservoir order,
  // then the tail ring), unshuffled length-bucketed batches, no dropout.
  MaterializedSet set = Materialize(train_set);
  double loss_sum = 0.0;
  int64_t batches = 0;
  for (const auto& group :
       rckt::GroupIntoBatches(set.samples, options_.batch_size, nullptr)) {
    loss_sum += candidate_->TrainStep(rckt::MakePrefixBatch(group));
    ++batches;
  }
  const double train_loss = batches > 0 ? loss_sum / batches : 0.0;

  // Promotion gate on held-out traffic the candidate never trained on:
  // the candidate must not lose more than gate_eps AUC to the incumbent.
  const int64_t gate_samples = static_cast<int64_t>(holdout.size());
  double candidate_auc = 0.0;
  double incumbent_auc = 0.0;
  bool promoted = false;
  if (gate_samples >= options_.gate_min_samples) {
    candidate_auc = ScoreAuc(*candidate_, holdout, options_.batch_size);
    // Concurrent read-only forward on the shared serving weights — the
    // same contract the shard engines rely on.
    incumbent_auc = ScoreAuc(serving_, holdout, options_.batch_size);
    promoted = candidate_auc >= incumbent_auc - options_.gate_eps;

    std::lock_guard<std::mutex> lock(stats_mu_);
    if (has_baseline_ &&
        incumbent_auc < baseline_auc_ - options_.drift_threshold) {
      ++drift_events_;
      Bump("continual.drift_events");
    }
    baseline_auc_ = has_baseline_
                        ? 0.9 * baseline_auc_ + 0.1 * incumbent_auc
                        : incumbent_auc;
    has_baseline_ = true;
    last_candidate_auc_ = candidate_auc;
    last_incumbent_auc_ = incumbent_auc;
    if (obs::Enabled()) {
      obs::Histogram::Get("continual.incumbent_auc")->Record(incumbent_auc);
      obs::Histogram::Get("continual.candidate_auc")->Record(candidate_auc);
    }
  }

  int64_t version = weight_version_.load(std::memory_order_relaxed);
  if (promoted) {
    ++version;
    const uint64_t fingerprint = nn::FingerprintModule(*candidate_);
    if (!options_.dir.empty()) {
      nn::ModelMeta meta = rckt::ArchitectureMeta(*candidate_);
      meta.weights_fnv64 = fingerprint;
      meta.weight_version = version;
      const Status status = nn::SaveModuleWithMeta(
          *candidate_, meta, options_.dir + "/current.ktw");
      if (!status.ok()) {
        KT_LOG(WARNING) << "continual: publish failed: " << status.message();
      }
    }
    const std::vector<Tensor> state = candidate_->StateClone();
    if (shards_ != nullptr) {
      shards_->SwapWeights(state, fingerprint, version);
    } else {
      serving_.SetState(state);
    }
    weight_version_.store(version, std::memory_order_relaxed);
    Bump("continual.promotions");
  }

  const double epoch_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  int64_t mini_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    mini_epoch = ++mini_epochs_;
    if (promoted) ++promotions_;
  }
  Bump("continual.mini_epochs");
  if (obs::Enabled()) {
    obs::Histogram::Get("continual.mini_epoch_ms")->Record(epoch_ms);
  }
  if (obs::RunLogActive()) {
    obs::ContinualLogEntry entry;
    entry.mini_epoch = mini_epoch;
    entry.events = events_base_ + collector_.TotalEvents();
    entry.reservoir_size = reservoir_size;
    entry.samples = static_cast<int64_t>(train_set.size());
    entry.train_loss = train_loss;
    entry.epoch_ms = epoch_ms;
    entry.candidate_auc = candidate_auc;
    entry.incumbent_auc = incumbent_auc;
    entry.gate_samples = gate_samples;
    entry.promoted = promoted;
    entry.weight_version = version;
    obs::AppendContinualLogEntry(entry);
  }
  if (!options_.dir.empty()) {
    const Status status = SaveCheckpoint();
    if (!status.ok()) {
      KT_LOG(WARNING) << "continual: checkpoint failed: " << status.message();
    }
  }
  return true;
}

void ContinualTrainer::Start(serve::ShardSet* shards) {
  Stop();
  shards_ = shards;
  if (shards_ != nullptr) {
    shards_->set_stats_decorator(
        [this](serve::ServeResponse& response) { DecorateStats(&response); });
  }
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    stop_ = false;
  }
  thread_ = std::thread([this] { Loop(); });
}

void ContinualTrainer::Stop() {
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    stop_ = true;
  }
  loop_cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
    DrainNow();
    if (!options_.dir.empty()) {
      const Status status = SaveCheckpoint();
      if (!status.ok()) {
        KT_LOG(WARNING) << "continual: final checkpoint failed: "
                        << status.message();
      }
    }
  }
  shards_ = nullptr;
}

void ContinualTrainer::Loop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(loop_mu_);
      loop_cv_.wait_for(lock, std::chrono::milliseconds(
                                  std::max<int64_t>(1, options_.poll_ms)),
                        [&] { return stop_; });
      if (stop_) return;
    }
    DrainNow();
    const int64_t events = events_base_ + collector_.TotalEvents();
    if (events - last_epoch_events_ >= options_.train_every) {
      RunMiniEpoch();
      last_epoch_events_ = events;
    }
  }
}

ContinualTrainer::Stats ContinualTrainer::GetStats() {
  DrainNow();
  Stats stats;
  stats.events = events_base_ + collector_.TotalEvents();
  {
    std::lock_guard<std::mutex> lock(data_mu_);
    stats.reservoir_size = reservoir_.size();
    stats.reservoir_fnv64 = reservoir_.Digest();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats.mini_epochs = mini_epochs_;
    stats.promotions = promotions_;
    stats.drift_events = drift_events_;
    stats.last_candidate_auc = last_candidate_auc_;
    stats.last_incumbent_auc = last_incumbent_auc_;
  }
  stats.weight_version = weight_version_.load(std::memory_order_relaxed);
  return stats;
}

void ContinualTrainer::DecorateStats(serve::ServeResponse* response) {
  const Stats stats = GetStats();
  response->has_continual = true;
  response->continual_events = stats.events;
  response->continual_mini_epochs = stats.mini_epochs;
  response->continual_promotions = stats.promotions;
  response->continual_reservoir_size = stats.reservoir_size;
  response->continual_reservoir_fnv64 = stats.reservoir_fnv64;
}

Status ContinualTrainer::SaveCheckpoint() {
  if (options_.dir.empty()) {
    return Status::InvalidArgument("continual trainer has no directory");
  }
  ckpt::CheckpointWriter writer;
  std::string& schema = writer.Section("schema");
  const rckt::RcktConfig& config = candidate_->config();
  AppendPod<uint32_t>(&schema, kCheckpointSchemaVersion);
  AppendPod<int32_t>(&schema, static_cast<int32_t>(config.encoder));
  AppendPod<int64_t>(&schema, config.dim);
  AppendPod<int64_t>(&schema, config.num_layers);
  AppendPod<int64_t>(&schema, candidate_->num_questions());
  AppendPod<int64_t>(&schema, candidate_->num_concepts());
  {
    std::lock_guard<std::mutex> lock(data_mu_);
    reservoir_.Serialize(&writer.Section("reservoir"));
    AppendSamples(tail_, &writer.Section("tail"));
    AppendSamples(holdout_, &writer.Section("holdout"));
  }
  std::string& trainer = writer.Section("trainer");
  AppendPod<int64_t>(&trainer, events_base_ + collector_.TotalEvents());
  AppendPod<int64_t>(&trainer, last_epoch_events_);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    AppendPod<int64_t>(&trainer, mini_epochs_);
    AppendPod<int64_t>(&trainer, promotions_);
    AppendPod<int64_t>(&trainer, drift_events_);
    AppendPod<double>(&trainer, last_candidate_auc_);
    AppendPod<double>(&trainer, last_incumbent_auc_);
    AppendPod<double>(&trainer, baseline_auc_);
    AppendPod<uint8_t>(&trainer, has_baseline_ ? 1 : 0);
  }
  AppendPod<int64_t>(&trainer,
                     weight_version_.load(std::memory_order_relaxed));
  nn::AppendModuleState(*candidate_, &writer.Section("weights"));
  ckpt::AppendAdamState(*candidate_->optimizer(), &writer.Section("adam"));
  return writer.Commit(options_.dir + "/continual.ktc");
}

bool ContinualTrainer::LoadCheckpoint() {
  if (options_.dir.empty()) return false;
  const std::string path = options_.dir + "/continual.ktc";
  ckpt::CheckpointReader reader;
  if (!reader.Open(path).ok()) return false;

  std::string_view schema, reservoir_bytes, tail_bytes, holdout_bytes,
      trainer_bytes, weight_bytes, adam_bytes;
  if (!reader.Find("schema", &schema).ok() ||
      !reader.Find("reservoir", &reservoir_bytes).ok() ||
      !reader.Find("tail", &tail_bytes).ok() ||
      !reader.Find("holdout", &holdout_bytes).ok() ||
      !reader.Find("trainer", &trainer_bytes).ok() ||
      !reader.Find("weights", &weight_bytes).ok() ||
      !reader.Find("adam", &adam_bytes).ok()) {
    KT_LOG(WARNING) << "continual: checkpoint " << path
                    << " is missing sections; starting fresh";
    return false;
  }

  const rckt::RcktConfig& config = candidate_->config();
  {
    BinCursor cursor(schema.data(), schema.size());
    uint32_t version = 0;
    int32_t kind = 0;
    int64_t dim = 0, layers = 0, questions = 0, concepts = 0;
    if (!cursor.Read(&version) || version != kCheckpointSchemaVersion ||
        !cursor.Read(&kind) || !cursor.Read(&dim) || !cursor.Read(&layers) ||
        !cursor.Read(&questions) || !cursor.Read(&concepts)) {
      KT_LOG(WARNING) << "continual: malformed checkpoint schema; "
                      << "starting fresh";
      return false;
    }
    KT_CHECK(kind == static_cast<int32_t>(config.encoder) &&
             dim == config.dim && layers == config.num_layers &&
             questions == candidate_->num_questions() &&
             concepts == candidate_->num_concepts())
        << "continual checkpoint " << path
        << " was written for a different model architecture";
  }

  // Stage the sample state, then apply. Weights and optimizer are staged
  // and applied afterwards.
  Reservoir reservoir(options_.reservoir_capacity, options_.seed);
  std::vector<TrainSample> tail, holdout;
  if (!reservoir.Deserialize(reservoir_bytes.data(), reservoir_bytes.size()) ||
      !ParseSamples(tail_bytes.data(), tail_bytes.size(), &tail) ||
      !ParseSamples(holdout_bytes.data(), holdout_bytes.size(), &holdout)) {
    KT_LOG(WARNING) << "continual: malformed checkpoint samples; "
                    << "starting fresh";
    return false;
  }
  BinCursor trainer(trainer_bytes.data(), trainer_bytes.size());
  int64_t events = 0, last_epoch = 0, mini_epochs = 0, promotions = 0,
          drift = 0, version = 0;
  double cand = 0.0, inc = 0.0, baseline = 0.0;
  uint8_t has_baseline = 0;
  if (!trainer.Read(&events) || !trainer.Read(&last_epoch) ||
      !trainer.Read(&mini_epochs) || !trainer.Read(&promotions) ||
      !trainer.Read(&drift) || !trainer.Read(&cand) || !trainer.Read(&inc) ||
      !trainer.Read(&baseline) || !trainer.Read(&has_baseline) ||
      !trainer.Read(&version) || !trainer.done()) {
    KT_LOG(WARNING) << "continual: malformed trainer section; "
                    << "starting fresh";
    return false;
  }
  // ParseModuleState stages too, so rejected bytes leave the candidate's
  // weights and optimizer as they were.
  std::vector<Shape> expected;
  for (const ag::Variable& param : candidate_->Parameters()) {
    expected.push_back(param.value().shape());
  }
  ckpt::AdamState adam;
  const Status adam_status = ckpt::ParseAdamState(
      adam_bytes.data(), adam_bytes.size(), expected, &adam);
  if (!adam_status.ok()) {
    KT_LOG(WARNING) << "continual: checkpoint optimizer rejected: "
                    << adam_status.message();
    return false;
  }
  const Status weight_status = nn::ParseModuleState(
      weight_bytes.data(), weight_bytes.size(), *candidate_);
  if (!weight_status.ok()) {
    KT_LOG(WARNING) << "continual: checkpoint weights rejected: "
                    << weight_status.message();
    return false;
  }
  candidate_->optimizer()->SetState(adam.m, adam.v, adam.step);

  {
    std::lock_guard<std::mutex> lock(data_mu_);
    reservoir_ = std::move(reservoir);
    tail_ = std::move(tail);
    holdout_ = std::move(holdout);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    events_base_ = events;
    mini_epochs_ = mini_epochs;
    promotions_ = promotions;
    drift_events_ = drift;
    last_candidate_auc_ = cand;
    last_incumbent_auc_ = inc;
    baseline_auc_ = baseline;
    has_baseline_ = has_baseline != 0;
  }
  last_epoch_events_ = last_epoch;
  weight_version_.store(version, std::memory_order_relaxed);
  return true;
}

}  // namespace continual
}  // namespace kt
