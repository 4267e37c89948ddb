// The traced pass (--trace 1): per-layer numbers for one workload, timed
// around calls into each layer's public functions from this file, plus the
// output checks that tie the layers together.
//
// Layers (names follow src/): serve front end (DecodeLine,
// SerializeResponse), transport (LineClient::RoundTrip against a real
// `ktcli serve`), shard (ShardSet::SubmitSync), engine
// (InferenceEngine::Execute / ExecuteBatch), session store, rckt
// (TrainStep, ScoreTargets), tensor (GEMM counters) and data (simulator).
// Spans are kept in memory and written as JSON lines at the end; spans of
// one request share its op index as request id across the phases.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "data/simulator.h"
#include "nn/serialize.h"
#include "obs/obs.h"
#include "perfbench/perfbench.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "serve/shard.h"

namespace perfbench {

namespace serve = kt::serve;
namespace obs = kt::obs;

namespace {

// Runs fn(i) for every op, `threads` callers in parallel; caller k owns the
// students with student % threads == k and issues their ops in order.
template <typename Fn>
void ForEachByStudent(const std::vector<TrafficOp>& ops, int threads, Fn fn) {
  auto worker = [&](int k) {
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].student % threads == k) fn(k, i);
    }
  };
  if (threads == 1) {
    worker(0);
    return;
  }
  std::vector<std::thread> pool;
  for (int k = 0; k < threads; ++k) pool.emplace_back(worker, k);
  for (std::thread& t : pool) t.join();
}

std::vector<double> Select(const std::vector<double>& values,
                           const std::vector<size_t>& indices) {
  std::vector<double> out;
  out.reserve(indices.size());
  for (size_t i : indices) out.push_back(values[i]);
  return out;
}

struct ClientPass {
  std::vector<double> us;
  std::vector<Clock::time_point> start;
  Digest digest;
  int64_t failed = 0;
  double wall_s = 0.0;
};

// Sends every op through `connections` blocking LineClients.
ClientPass DriveServer(int port, const Traffic& traffic,
                       const std::vector<TrafficOp>& ops, int connections) {
  ClientPass pass;
  pass.us.assign(ops.size(), 0.0);
  pass.start.assign(ops.size(), Clock::time_point());
  DigestBuilder digest(traffic.students());
  std::vector<serve::LineClient> clients(static_cast<size_t>(connections));
  std::vector<int64_t> failed(static_cast<size_t>(connections), 0);
  std::vector<bool> up(static_cast<size_t>(connections), false);
  for (int k = 0; k < connections; ++k) {
    std::string err;
    up[static_cast<size_t>(k)] = clients[static_cast<size_t>(k)].Connect(port, &err);
  }
  const Clock::time_point t0 = Clock::now();
  ForEachByStudent(ops, connections, [&](int k, size_t i) {
    const size_t kk = static_cast<size_t>(k);
    if (!up[kk]) {
      ++failed[kk];
      return;
    }
    const std::string line = traffic.RequestLine(ops[i]);
    std::string reply, err;
    pass.start[i] = Clock::now();
    const bool ok = clients[kk].RoundTrip(line, &reply, &err);
    pass.us[i] = MicrosBetween(pass.start[i], Clock::now());
    serve::JsonValue json;
    if (!ok) {
      up[kk] = false;
      ++failed[kk];
    } else if (!serve::ParseJson(reply, &json, &err) ||
               !digest.Add(static_cast<size_t>(ops[i].student), ops[i].op,
                           json)) {
      ++failed[kk];
    }
  });
  pass.wall_s = SecondsSince(t0);
  for (int64_t f : failed) pass.failed += f;
  pass.digest = digest.Finish();
  return pass;
}

serve::EngineOptions EngineOptionsFor(kt::rckt::RCKT& model,
                                      size_t budget_bytes) {
  serve::EngineOptions options;
  options.session_budget_bytes = budget_bytes;
  options.num_questions = model.embedder().question_embedding().num_embeddings();
  options.num_concepts = model.embedder().concept_embedding().num_embeddings();
  options.model_fingerprint = kt::nn::FingerprintModule(model);
  return options;
}

}  // namespace

ReplayResult EngineReplay(kt::rckt::RCKT& model,
                          const kt::data::Dataset& windows,
                          const Traffic& traffic,
                          const std::vector<TrafficOp>& ops,
                          size_t budget_bytes, SpanLog* spans) {
  serve::InferenceEngine engine(model, EngineOptionsFor(model, budget_bytes));
  engine.LoadConceptMap(windows);
  ReplayResult result;
  result.ops.resize(ops.size());
  DigestBuilder digest(traffic.students());
  for (size_t i = 0; i < ops.size(); ++i) {
    OpTiming& t = result.ops[i];
    const std::string line = traffic.RequestLine(ops[i]);
    const Clock::time_point t0 = Clock::now();
    const serve::DecodedLine decoded = serve::DecodeLine(line);
    const Clock::time_point t1 = Clock::now();
    const serve::ServeResponse response = engine.Execute(decoded.request);
    const Clock::time_point t2 = Clock::now();
    const std::string reply = serve::SerializeResponse(response);
    const Clock::time_point t3 = Clock::now();
    t.decode_us = MicrosBetween(t0, t1);
    t.engine_us = MicrosBetween(t1, t2);
    t.serialize_us = MicrosBetween(t2, t3);
    t.history = response.history;
    if (spans != nullptr) {
      const int64_t request = static_cast<int64_t>(i);
      const int64_t parent = spans->Add("replay.op", t0, t3, 0, request);
      spans->Add("serve.decode", t0, t1, parent, request);
      spans->Add("engine.execute", t1, t2, parent, request);
      spans->Add("serve.serialize", t2, t3, parent, request);
    }
    serve::JsonValue json;
    std::string err;
    if (!decoded.ok || !serve::ParseJson(reply, &json, &err) ||
        !digest.Add(static_cast<size_t>(ops[i].student), ops[i].op, json)) {
      ++result.failed;
    }
  }
  result.digest = digest.Finish();
  return result;
}

int RunTracePass(const Options& options, const ProbeSpec& spec,
                 kt::rckt::RCKT& model, const kt::data::Dataset& windows,
                 Traffic& traffic, std::vector<TrafficOp> ops,
                 Report* report) {
  AppendLongProbe(traffic, &ops);
  SpanLog spans;
  const int conns = spec.connections;
  const size_t n = ops.size();

  // ---- data: the simulator behind every dataset of the benchmark ----
  std::vector<double> simulate_s;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t0 = Clock::now();
    const kt::data::StudentSimulator simulator(spec.served.bank);
    const kt::data::Dataset generated = simulator.Generate();
    simulate_s.push_back(SecondsSince(t0));
    spans.Add("data.simulate", t0, Clock::now(), 0, -1);
  }

  // ---- rckt + tensor: replicate the `ktcli train` that made the model ----
  kt::data::Dataset train_windows;
  std::string error;
  if (!LoadWindows(spec.served.data, &train_windows, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const TrainOutcome untraced = TrainLikeKtcli(
      train_windows, spec.served.encoder, spec.served.epochs,
      spec.served.train_seed, false, nullptr);
  obs::SetEnabled(true);
  obs::ResetAllMetrics();
  const TrainOutcome traced = TrainLikeKtcli(
      train_windows, spec.served.encoder, spec.served.epochs,
      spec.served.train_seed, true, &spans);
  const double fanout = static_cast<double>(
      obs::Counter::Get("rckt.fanout_passes")->Value());
  const double gemm_calls =
      static_cast<double>(obs::Counter::Get("gemm.calls")->Value());
  const double gemm_flops =
      static_cast<double>(obs::Counter::Get("gemm.flops")->Value());
  const double gemm_reference = static_cast<double>(
      obs::Counter::Get("gemm.backend.reference.calls")->Value());
  obs::SetEnabled(false);
  CheckAgainstKtcli(traced, spec.served.model, spec.served.train_log, report);
  report->Check(traced.fingerprint == untraced.fingerprint,
                "timed training loop and rckt::TrainAndEvaluateRckt agree");

  // ---- engine: one lone engine, op by op ----
  const size_t shard_budget =
      spec.budget_bytes / static_cast<size_t>(spec.server.shards);
  const ReplayResult lone =
      EngineReplay(model, windows, traffic, ops, shard_budget, &spans);

  // ---- engine: ExecuteBatch over runs of O(1) ops ----
  std::vector<double> batch_us_per_op;
  DigestBuilder batch_digest(traffic.students());
  int64_t batch_failed = 0;
  {
    serve::InferenceEngine engine(model, EngineOptionsFor(model, shard_budget));
    engine.LoadConceptMap(windows);
    auto fold = [&](size_t i, const serve::ServeResponse& response) {
      serve::JsonValue json;
      std::string err;
      if (!serve::ParseJson(serve::SerializeResponse(response), &json, &err) ||
          !batch_digest.Add(static_cast<size_t>(ops[i].student), ops[i].op,
                            json)) {
        ++batch_failed;
      }
    };
    size_t i = 0;
    while (i < n) {
      if (IsHeavy(ops[i].op)) {
        fold(i, engine.Execute(traffic.Request(ops[i])));
        ++i;
        continue;
      }
      std::vector<serve::ServeRequest> requests;
      size_t j = i;
      while (j < n && !IsHeavy(ops[j].op) &&
             requests.size() < static_cast<size_t>(kMaxBatch)) {
        requests.push_back(traffic.Request(ops[j++]));
      }
      const Clock::time_point t0 = Clock::now();
      const std::vector<serve::ServeResponse> responses =
          engine.ExecuteBatch(requests);
      const Clock::time_point t1 = Clock::now();
      spans.Add("engine.execute_batch", t0, t1, 0, static_cast<int64_t>(i));
      batch_us_per_op.push_back(MicrosBetween(t0, t1) /
                                static_cast<double>(requests.size()));
      for (size_t k = 0; k < responses.size(); ++k) fold(i + k, responses[k]);
      i = j;
    }
  }

  // ---- shard: an in-process ShardSet configured like the server ----
  std::vector<double> submit_us(n, 0.0);
  std::vector<Clock::time_point> submit_start(n);
  DigestBuilder shard_digest(traffic.students());
  std::vector<int64_t> shard_failed(static_cast<size_t>(conns), 0);
  double batch_mean = 0.0, hits = 0.0, misses = 0.0;
  int64_t batches = 0;
  double replays = 0.0, evictions = 0.0, state_bytes = 0.0, history_bytes = 0.0;
  {
    serve::ShardSetOptions shard_options;
    shard_options.shards = spec.server.shards;
    shard_options.engine = EngineOptionsFor(model, spec.budget_bytes);
    obs::SetEnabled(true);
    obs::ResetAllMetrics();
    serve::ShardSet shards(model, shard_options, &windows);
    ForEachByStudent(ops, conns, [&](int k, size_t i) {
      const serve::ServeRequest request = traffic.Request(ops[i]);
      submit_start[i] = Clock::now();
      const serve::ServeResponse response = shards.SubmitSync(request);
      submit_us[i] = MicrosBetween(submit_start[i], Clock::now());
      serve::JsonValue json;
      std::string err;
      if (!serve::ParseJson(serve::SerializeResponse(response), &json, &err) ||
          !shard_digest.Add(static_cast<size_t>(ops[i].student), ops[i].op,
                            json)) {
        ++shard_failed[static_cast<size_t>(k)];
      }
    });
    const obs::HistogramSnapshot batch_sizes =
        obs::Histogram::Get("serve.batch_size")->Snapshot();
    batches = batch_sizes.count;
    batch_mean = batch_sizes.Mean();
    hits = static_cast<double>(obs::Counter::Get("serve.cache_hit")->Value());
    misses = static_cast<double>(obs::Counter::Get("serve.cache_miss")->Value());
    obs::SetEnabled(false);
    shards.Stop();
    for (int s = 0; s < shards.shards(); ++s) {
      const serve::InferenceEngine& engine = shards.engine(s);
      replays += static_cast<double>(engine.replays());
      evictions += static_cast<double>(engine.sessions().evictions());
      state_bytes += static_cast<double>(engine.sessions().total_state_bytes());
      history_bytes +=
          static_cast<double>(engine.sessions().total_history_bytes());
    }
  }
  for (size_t i = 0; i < n; ++i) {
    spans.Add("shard.submit", submit_start[i],
              submit_start[i] + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double, std::micro>(
                                        submit_us[i])),
              0, static_cast<int64_t>(i));
  }

  // ---- transport: the real server, without and with tracing ----
  ClientPass plain, with_obs;
  bool servers_ok = true;
  for (int pass = 0; pass < 2; ++pass) {
    ServerConfig config = spec.server;
    if (pass == 1) {
      config.flags.push_back("--obs");
      config.flags.push_back("on");
    }
    Server server;
    if (!server.Start(options.ktcli, config,
                      options.run_dir + "/trace-server" + std::to_string(pass) +
                          ".log",
                      &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    ClientPass result = DriveServer(server.port(), traffic, ops, conns);
    servers_ok = server.Stop(nullptr) && servers_ok;
    (pass == 0 ? plain : with_obs) = std::move(result);
  }
  for (size_t i = 0; i < n; ++i) {
    spans.Add("transport.roundtrip", with_obs.start[i],
              with_obs.start[i] + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double, std::micro>(
                                          with_obs.us[i])),
              0, static_cast<int64_t>(i));
  }

  // ---- checks ----
  int64_t failed = plain.failed + with_obs.failed + lone.failed + batch_failed;
  for (int64_t f : shard_failed) failed += f;
  const Digest want = lone.digest;
  const Digest got_batch = batch_digest.Finish();
  const Digest got_shard = shard_digest.Finish();
  report->Check(servers_ok, "trace servers shut down cleanly");
  report->Check(got_batch.all == want.all,
                "ExecuteBatch replay matches Execute replay " + Hex(want.all));
  report->Check(got_shard.all == want.all,
                "ShardSet replay matches Execute replay " + Hex(want.all));
  report->Check(plain.digest.all == want.all && plain.digest.pred == want.pred,
                "ktcli serve replies (pred_fnv64 " + Hex(plain.digest.pred) +
                    ") match the in-process engine (" + Hex(want.pred) + ")");
  report->Check(with_obs.digest.all == want.all,
                "ktcli serve --obs on replies match the in-process engine");
  report->CountOps(static_cast<int64_t>(4 * n + n), failed);

  // ---- per-layer metrics ----
  std::vector<size_t> predicts, updates, explains, recourses;
  std::vector<size_t> update_short, update_mid, update_long;
  for (size_t i = 0; i < n; ++i) {
    switch (ops[i].op) {
      case serve::Op::kPredict:
        predicts.push_back(i);
        break;
      case serve::Op::kUpdate: {
        updates.push_back(i);
        const int64_t t = lone.ops[i].history;  // session length after it
        (t <= 50 ? update_short : t <= 100 ? update_mid : update_long)
            .push_back(i);
        break;
      }
      case serve::Op::kExplain:
        explains.push_back(i);
        break;
      default:
        recourses.push_back(i);
        break;
    }
  }
  auto column = [&](double OpTiming::*field) {
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = lone.ops[i].*field;
    return v;
  };
  const std::vector<double> decode = column(&OpTiming::decode_us);
  const std::vector<double> engine = column(&OpTiming::engine_us);
  const std::vector<double> serialize = column(&OpTiming::serialize_us);
  std::vector<double> wait(n), residual(n);
  for (size_t i = 0; i < n; ++i) {
    wait[i] = submit_us[i] - engine[i];
    residual[i] = with_obs.us[i] - decode[i] - submit_us[i] - serialize[i];
  }
  const auto np = static_cast<int64_t>(predicts.size());
  const double decode_p50 = Median(Select(decode, predicts));
  const double serialize_p50 = Median(Select(serialize, predicts));
  const double submit_p50 = Median(Select(submit_us, predicts));
  const double roundtrip_p50 = Median(Select(with_obs.us, predicts));
  const double wait_p50 = Median(Select(wait, predicts));
  const double span_sum_ratio =
      (decode_p50 + submit_p50 + serialize_p50) / roundtrip_p50;
  report->Check(span_sum_ratio <= 1.0 + kSpanTolerance,
                "serve spans (decode+submit+serialize) stay within " +
                    std::to_string(kSpanTolerance) + " of the round trip");

  report->Add("serve.decode_us", decode_p50, "us", np);
  report->Add("serve.serialize_us", serialize_p50, "us", np);
  report->Add("transport.roundtrip_us", roundtrip_p50, "us", np);
  report->Add("transport.residual_us", Median(Select(residual, predicts)), "us",
              np);
  report->Add("shard.submit_us", submit_p50, "us", np);
  report->Add("shard.wait_us", wait_p50, "us", np);
  report->Add("shard.wait_share", wait_p50 / roundtrip_p50, "ratio", np);
  report->Add("shard.batch_size_mean", batch_mean, "count", batches);
  report->Add("engine.predict_us", Median(Select(engine, predicts)), "us", np);
  report->Add("engine.update_us", Median(Select(engine, updates)), "us",
              static_cast<int64_t>(updates.size()));
  report->Add("engine.update_t50_us", Median(Select(engine, update_short)),
              "us", static_cast<int64_t>(update_short.size()));
  report->Add("engine.update_t100_us", Median(Select(engine, update_mid)), "us",
              static_cast<int64_t>(update_mid.size()));
  report->Add("engine.update_tlong_us", Median(Select(engine, update_long)),
              "us", static_cast<int64_t>(update_long.size()));
  report->Add("engine.explain_us", Median(Select(engine, explains)), "us",
              static_cast<int64_t>(explains.size()));
  report->Add("engine.recourse_us", Median(Select(engine, recourses)), "us",
              static_cast<int64_t>(recourses.size()));
  report->Add("engine.batch_us_per_op", Median(batch_us_per_op), "us",
              static_cast<int64_t>(batch_us_per_op.size()));
  report->Add("session.cache_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
              static_cast<int64_t>(hits + misses));
  report->Add("session.lookups", hits + misses, "count", 1);
  report->Add("session.evictions", evictions, "count", 1);
  report->Add("session.replays", replays, "count", 1);
  report->Add("session.state_bytes", state_bytes, "bytes", 1);
  report->Add("session.history_bytes", history_bytes, "bytes", 1);
  const auto steps = static_cast<int64_t>(traced.step_us.size());
  double step_total_s = 0.0;
  for (double us : traced.step_us) step_total_s += us * 1e-6;
  report->Add("rckt.train_step_us", Median(traced.step_us), "us", steps);
  report->Add("rckt.score_targets_us", Median(traced.score_us), "us",
              static_cast<int64_t>(traced.score_us.size()));
  report->Add("rckt.fanout_passes_per_step",
              steps > 0 ? fanout / static_cast<double>(steps) : 0.0, "count",
              steps);
  report->Add("tensor.gemm_calls", gemm_calls, "count", 1);
  report->Add("tensor.gemm_flops", gemm_flops, "count", 1);
  report->Add("tensor.gemm_reference_share",
              gemm_calls > 0 ? gemm_reference / gemm_calls : 0.0, "ratio",
              static_cast<int64_t>(gemm_calls));
  report->Add("tensor.gemm_gflops_s", gemm_flops / step_total_s * 1e-9,
              "GFLOP/s", steps);
  report->Add("data.simulate_s", Median(simulate_s), "s",
              static_cast<int64_t>(simulate_s.size()));
  report->Add("trace.serve_overhead_ratio", with_obs.wall_s / plain.wall_s,
              "ratio", static_cast<int64_t>(n));
  report->Add("trace.train_overhead_ratio", traced.wall_s / untraced.wall_s,
              "ratio", 1);
  report->Add("trace.span_sum_ratio", span_sum_ratio, "ratio", np);

  const std::string span_path = options.results_dir + "/" + options.workload +
                                "-seed" + std::to_string(options.seed) +
                                "-spans.jsonl";
  report->Check(spans.Write(span_path), "spans written to " + span_path);
  return 0;
}

}  // namespace perfbench
