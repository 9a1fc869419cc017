// The repository benchmark's driver (see ../README.md).
//
//   infilter_perfbench gen --workload W --seed S --out FILE
//       Generates the run's inputs from the seed and writes them to
//       FILE.0 .. FILE.3 (one per input seed, see kInputsPerRun).
//   infilter_perfbench run --workload W --seed S --input FILE --seconds N
//                          --trace 0|1 [--trace-out FILE]
//       Runs whole rounds (fresh set-up, drive, flush, checks) until N
//       seconds have passed. --trace 0 measures the end-to-end metrics
//       over every input; --trace 1 feeds the first input through each
//       layer's public entry points with spans around every call and
//       reports the per-layer metrics. The last line of output is one
//       JSON object.
//
// Every program thread this process runs: the benchmark thread plus the
// runtime's two shard workers and scan-stage thread -- at most 4, checked
// every round. Traced mode's loopback ingest probe runs one receiver
// thread in a pipeline of its own, after the runtime has stopped.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "alert/idmef.h"
#include "checks.h"
#include "core/traceback.h"
#include "dagflow/allocation.h"
#include "flowtools/udp.h"
#include "ingest/ingest.h"
#include "net/subblocks.h"
#include "obs/export.h"
#include "runtime/runtime.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kThreadBudget = 4;
/// Shard workers: with the producer and the scan stage, 4 busy threads.
constexpr int kShards = 2;
/// Items per submit_batch call: the ingest receiver's default dispatch
/// batch, so the closed loop submits the way the live path does.
constexpr std::size_t kDispatchBatch = 256;
/// The serial replay's batch: sim::run_experiment's replay chunk.
constexpr std::size_t kReplayBatch = 256;
/// Rate and length of the loopback probe that measures the ingest layer
/// on the workload's datagrams in traced mode.
constexpr double kIngestProbeRate = 50000;
constexpr std::size_t kIngestProbeRecords = 25000;
/// Inputs a run measures, each generated from its own seed derived from
/// the run's seed (input_seed). The cost of a record depends on the
/// attack instances a seed draws (churn_storm's varies by up to 10%
/// between seeds), so a run averages over this many draws; the run's
/// time is split evenly between them.
constexpr int kInputsPerRun = 4;
/// Σ layer self time must cover at least this share of the traced serial
/// replay's wall time; the rest is the benchmark's glue and the spans.
constexpr double kLayerSumMin = 0.80;
/// How long the ingest probe waits for its last records after the last send.
constexpr std::uint64_t kDeliveryTimeoutNs = 5'000'000'000ULL;

// ---------------------------------------------------------------- helpers

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// CPU time of the process (every thread) or of the calling thread, in ns.
/// Neither counts time the host's hypervisor takes from the VM (steal),
/// nor time a thread waits for a CPU, so it reads the program's own cost.
std::uint64_t cpu_ns(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<std::uint64_t>(t.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(t.tv_nsec);
}

/// The seed of input `k` of a run with seed `seed`.
std::uint64_t input_seed(std::uint64_t seed, int k) {
  return seed * kInputsPerRun + static_cast<std::uint64_t>(k);
}

std::string input_path(const std::string& base, int k) {
  return base + "." + std::to_string(k);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t index = rank == 0 ? 0 : std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(index), v.end());
  return v[index];
}

/// A "Key:   value kB" line of /proc/self/status, in kB (0 when absent).
std::uint64_t proc_status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::strtoull(line.c_str() + key_len + 1, nullptr, 10);
    }
  }
  return 0;
}

core::EngineConfig engine_config(const Workload& w) {
  // sim::run_experiment's derived engine seed, so verdicts line up with
  // the testbed's.
  core::EngineConfig engine = w.config.engine;
  engine.seed = w.config.seed ^ 0xe191eULL;
  return engine;
}

/// The Table 3 preload: each source's sub-block range at its ingress.
template <typename Add>
void preload(const Workload& w, Add&& add) {
  for (int s = 0; s < w.config.sources; ++s) {
    const auto ingress = static_cast<core::IngressId>(w.config.first_port + s);
    const auto range = dagflow::eia_range(s, w.config.blocks_per_source);
    for (int b = range.first.index(); b <= range.last.index(); ++b) {
      add(ingress, net::SubBlock{b}.prefix());
    }
  }
}

core::IngressId ingress_of(const Workload& w, const Datagram& d) {
  return static_cast<core::IngressId>(w.config.first_port + d.source);
}

// -------------------------------------------------------------- the sink

/// What the node does with an alert: serialize it to IDMEF XML and feed
/// trace-back. The fields the checks need go into storage allocated
/// before set-up.
class NodeSink final : public alert::AlertSink {
 public:
  explicit NodeSink(std::vector<AlertRecord>& store) : store_(store) {}

  void consume(const alert::Alert& a) override {
    {
      ScopedSpan span(spans_, "alert.idmef", batch_);
      xml_ = a.to_idmef_xml();
    }
    {
      ScopedSpan span(spans_, "traceback.consume", batch_);
      traceback_.consume(a);
    }
    if (count_ < store_.size()) store_[count_] = record_of(a);
    ++count_;
  }

  /// Spans around the sink's calls (serial replay only: the recorder is
  /// single-threaded).
  void trace(SpanRecorder* spans, std::uint64_t batch) {
    spans_ = spans;
    batch_ = batch;
  }

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] std::span<const AlertRecord> alerts() const {
    return {store_.data(), std::min(count_, store_.size())};
  }

 private:
  std::vector<AlertRecord>& store_;
  std::size_t count_ = 0;
  core::TracebackEngine traceback_;
  std::string xml_;
  SpanRecorder* spans_ = nullptr;
  std::uint64_t batch_ = 0;
};

// -------------------------------------------------- per-record outputs

/// Written by the VerdictHook (worker and scan-stage threads) and read
/// after the round; indexed by FlowItem::tag. Allocated once, before the
/// resident-set baseline.
struct Outputs {
  explicit Outputs(std::size_t n)
      : verdicts(n), seq(n), calls(n), alerts(n) {}

  void reset() {
    for (auto& c : calls) c.store(0, std::memory_order_relaxed);
    out_of_range.store(0);
  }

  void on_verdict(const runtime::FlowItem& item, const core::Verdict& verdict) {
    if (item.tag >= verdicts.size()) {
      out_of_range.fetch_add(1);
      return;
    }
    const auto i = static_cast<std::size_t>(item.tag);
    verdicts[i] = verdict;
    seq[i] = item.seq;
    calls[i].fetch_add(1, std::memory_order_relaxed);
  }

  std::vector<core::Verdict> verdicts;
  std::vector<std::uint64_t> seq;
  std::vector<std::atomic<std::uint32_t>> calls;
  std::vector<AlertRecord> alerts;
  std::atomic<std::uint64_t> out_of_range{0};
};

// ------------------------------------------------------- the program

/// One round's instance of the program. Members are destroyed in reverse:
/// the runtime, then the sink it feeds.
struct Program {
  std::unique_ptr<NodeSink> sink;
  std::shared_ptr<const core::TrainedClusters> clusters;
  std::unique_ptr<runtime::ShardedRuntime> runtime;
  double setup_s = 0;
  double train_s = 0;
};

Program set_up(const Workload& w, const Input& in, Outputs& out) {
  Program p;
  p.sink = std::make_unique<NodeSink>(out.alerts);
  const std::uint64_t t0 = now_ns();
  p.clusters = std::make_shared<const core::TrainedClusters>(
      in.training, w.config.engine.cluster, w.config.seed);
  p.train_s = seconds_since(t0);
  runtime::RuntimeConfig config;
  config.shards = kShards;
  config.producers = 1;
  config.engine = engine_config(w);
  p.runtime = std::make_unique<runtime::ShardedRuntime>(
      config, p.sink.get(),
      [&out](const runtime::FlowItem& item, const core::Verdict& verdict) {
        out.on_verdict(item, verdict);
      });
  preload(w, [&](core::IngressId ingress, const net::Prefix& prefix) {
    p.runtime->add_expected(ingress, prefix);
  });
  p.runtime->set_clusters(p.clusters);
  p.setup_s = seconds_since(t0);
  const auto threads = proc_status_kb("Threads");
  require(threads <= kThreadBudget, "thread_budget",
          std::to_string(threads) + " threads in the benchmark process");
  return p;
}

// ------------------------------------------------------------- drives

/// Closed loop: decode every datagram in memory with netflow::decode_into
/// and submit its records as producer 0; the run ends when flush()
/// returns. Returns the wall time in ns.
std::uint64_t drive_closed(const Workload& w, const Input& in, Program& p,
                           SpanRecorder* spans) {
  std::vector<runtime::FlowItem> items;
  items.reserve(kDispatchBatch + netflow::kV5MaxRecords);
  std::array<netflow::V5Record, netflow::kV5MaxRecords> records;
  std::uint64_t tag = 0;
  std::uint64_t batch = 0;
  const auto submit = [&] {
    ScopedSpan span(spans, "runtime.submit", batch++);
    require(p.runtime->submit_batch(items, 0) == items.size(), "submit",
            "the runtime refused records");
    items.clear();
  };
  const std::uint64_t start = now_ns();
  for (std::size_t d = 0; d < in.datagrams.size(); ++d) {
    const Datagram& dg = in.datagrams[d];
    netflow::V5Header header;
    std::size_t count = 0;
    const auto status = netflow::decode_into(
        std::span(in.bytes.data() + dg.offset, dg.length), header, records, count);
    require(status == netflow::DecodeStatus::kOk && count == dg.count, "decode",
            "datagram " + std::to_string(d) + " failed to decode");
    const auto ingress = ingress_of(w, dg);
    for (std::size_t r = 0; r < count; ++r) {
      items.push_back(runtime::FlowItem{records[r], ingress, records[r].last, tag++});
    }
    if (items.size() >= kDispatchBatch) submit();
  }
  if (!items.empty()) submit();
  {
    ScopedSpan span(spans, "runtime.flush", batch);
    p.runtime->flush();
  }
  return now_ns() - start;
}

/// Spins until `deadline` (steady-clock ns). Sleeping would let the
/// schedule slip by the timer's and the scheduler's wake-up latency.
void wait_until(std::uint64_t deadline) {
  while (now_ns() < deadline) {
  }
}

/// Open loop: send datagrams [0, count) over loopback on a fixed schedule
/// (`rate` records/s) to ports[source]. `arrived` reports how many records
/// the far side has taken; the call returns once it reaches the records
/// sent. Returns how late each send ran, in µs.
std::vector<double> send_paced(const Input& in, std::size_t count, double rate,
                               const std::vector<std::uint16_t>& ports,
                               const std::function<std::uint64_t()>& arrived) {
  auto sender = flowtools::UdpSender::create();
  require(sender.has_value(), "ingest_probe",
          sender.has_value() ? std::string{} : sender.error().message);
  std::vector<double> lateness_us;
  lateness_us.reserve(count);
  const std::uint64_t start_ns = now_ns() + 2'000'000;
  std::uint64_t records = 0;
  for (std::size_t d = 0; d < count; ++d) {
    const Datagram& dg = in.datagrams[d];
    const std::uint64_t due =
        start_ns + static_cast<std::uint64_t>(static_cast<double>(records) * 1e9 / rate);
    wait_until(due);
    lateness_us.push_back(static_cast<double>(now_ns() - due) / 1e3);
    const auto sent =
        sender->send(ports[dg.source], std::span(in.bytes.data() + dg.offset, dg.length));
    require(sent.has_value(), "ingest_probe",
            sent.has_value() ? std::string{} : sent.error().message);
    records += dg.count;
  }
  const std::uint64_t deadline = now_ns() + kDeliveryTimeoutNs;
  while (arrived() < records) {
    require(now_ns() < deadline, "ingest_probe",
            std::to_string(arrived()) + " of " + std::to_string(records) +
                " records arrived within 5 s of the last send");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return lateness_us;
}

// ------------------------------------------------- serial references

struct Reference {
  std::vector<core::Verdict> verdicts;
  std::vector<alert::Alert> alerts;
  std::vector<AlertRecord> alert_records;
};

/// One InFilterEngine::process_batch() replay of `flows` in order.
Reference serial_replay(const Workload& w,
                        std::shared_ptr<const core::TrainedClusters> clusters,
                        std::span<const core::FlowInput> flows) {
  alert::CollectingSink sink;
  core::InFilterEngine engine(engine_config(w), &sink);
  preload(w, [&](core::IngressId ingress, const net::Prefix& prefix) {
    engine.add_expected(ingress, prefix);
  });
  engine.set_clusters(std::move(clusters));
  Reference ref;
  ref.verdicts.resize(flows.size());
  for (std::size_t begin = 0; begin < flows.size(); begin += kReplayBatch) {
    const std::size_t n = std::min(kReplayBatch, flows.size() - begin);
    engine.process_batch(flows.subspan(begin, n),
                         std::span(ref.verdicts.data() + begin, n));
  }
  ref.alerts = sink.alerts();
  for (const auto& a : ref.alerts) ref.alert_records.push_back(record_of(a));
  return ref;
}

std::vector<core::FlowInput> input_order(const Input& in) {
  std::vector<core::FlowInput> flows;
  flows.reserve(in.flows.size());
  for (const auto& flow : in.flows) {
    flows.push_back(core::FlowInput{flow.record, flow.arrival_port, flow.record.last});
  }
  return flows;
}

// ------------------------------------------------------------ a round

/// What one program pass measured.
struct Pass {
  double setup_s = 0;
  double train_s = 0;
  double wall_s = 0;
  double records_per_s = 0;
  double cpu_ns_per_record = 0;
  std::uint64_t records = 0;
  std::uint64_t alerts = 0;
  std::uint64_t hwm_kb = 0;  ///< VmHWM right after the drive
  // Traced pass only.
  runtime::RuntimeStats stats;
  std::size_t queue_peak_max = 0;
  double snapshot_ms = 0;
  double prometheus_ms = 0;
  double eia_lookup_ns = 0;
  double hopcount_classify_ns = 0;
  double hopcount_entries = 0;
  double eia_bytes = 0;
  double entries_expired = 0;
  double entries_refreshed = 0;
};

class Bench {
 public:
  Bench(Workload w, Input in) : w_(std::move(w)), in_(std::move(in)), out_(in_.flows.size()) {
    if (w_.check_table3) {
      table3_flows_ = table3_flows(w_, in_);
      require(!table3_flows_.empty(), "table3_legal", "no record lies in its ingress's preload");
    }
  }

  [[nodiscard]] std::size_t records() const { return in_.flows.size(); }
  [[nodiscard]] const Workload& workload() const { return w_; }
  [[nodiscard]] const Input& input() const { return in_; }
  /// Hop-count-fusion alerts of the serial reference that
  /// alert::parse_idmef rejects (a known fault; see checks.h).
  [[nodiscard]] std::size_t unparsed_fused() const { return unparsed_fused_; }
  /// sim::Scorer ground truth of the last checked pass.
  [[nodiscard]] const sim::ExperimentResult& truth() const { return truth_; }

  /// One program pass: set-up, drive, flush, then every check. `traced`
  /// adds spans around submit/flush and the post-run layer probes.
  Pass program_pass(bool traced, SpanRecorder* spans);

  /// The serial reference in input order (the realized order), computed
  /// on first use -- after the first pass, so the resident-set reading of
  /// that pass does not include it.
  const Reference& input_reference(std::shared_ptr<const core::TrainedClusters> clusters) {
    if (!input_ref_) {
      const auto flows = input_order(in_);
      input_ref_ = std::make_unique<Reference>(serial_replay(w_, std::move(clusters), flows));
      unparsed_fused_ = check_idmef_roundtrip(input_ref_->alerts);
    }
    return *input_ref_;
  }

 private:
  void layer_probes(Program& p, Pass& pass);
  void check_pass(Program& p, Pass& pass);

  Workload w_;
  Input in_;
  Outputs out_;
  /// Records in their ingress's Table 3 preload (check_table3 only).
  std::vector<std::uint32_t> table3_flows_;
  std::unique_ptr<Reference> input_ref_;
  std::size_t unparsed_fused_ = 0;
  sim::ExperimentResult truth_;
};

Pass Bench::program_pass(bool traced, SpanRecorder* spans) {
  Pass pass;
  out_.reset();
  Program p = set_up(w_, in_, out_);
  pass.setup_s = p.setup_s;
  pass.train_s = p.train_s;
  pass.records = in_.flows.size();
  const std::uint64_t cpu0 = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
  pass.wall_s = static_cast<double>(drive_closed(w_, in_, p, spans)) / 1e9;
  pass.cpu_ns_per_record = static_cast<double>(cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - cpu0) /
                           static_cast<double>(pass.records);
  pass.hwm_kb = proc_status_kb("VmHWM");
  pass.records_per_s = static_cast<double>(pass.records) / pass.wall_s;
  if (traced) layer_probes(p, pass);
  check_pass(p, pass);
  return pass;
}

void Bench::layer_probes(Program& p, Pass& pass) {
  auto& rt = *p.runtime;
  pass.stats = rt.stats();
  const auto peaks = rt.shard_queue_peaks();
  pass.queue_peak_max = peaks.empty() ? 0 : *std::max_element(peaks.begin(), peaks.end());
  std::uint64_t t = now_ns();
  const auto snapshot = rt.snapshot();
  pass.snapshot_ms = static_cast<double>(now_ns() - t) / 1e6;
  t = now_ns();
  const std::string text = obs::to_prometheus(snapshot);
  pass.prometheus_ms = static_cast<double>(now_ns() - t) / 1e6;
  require(!text.empty(), "prometheus", "empty export");
  pass.entries_expired = snapshot.value("infilter_lifecycle_entries_expired_total");
  pass.entries_refreshed = snapshot.value("infilter_lifecycle_entries_refreshed_total");

  // The const EIA lookup and the hop-count classification, over the
  // stream, on each record's shard's table as it stands after the run.
  const std::size_t shards = rt.shard_count();
  std::uint64_t hits = 0;
  t = now_ns();
  for (const auto& flow : in_.flows) {
    const auto& engine = rt.shard_engine(runtime::ShardedRuntime::shard_of(flow.record.src_ip, shards));
    hits += engine.eia().is_expected(flow.arrival_port, flow.record.src_ip) ? 1 : 0;
  }
  pass.eia_lookup_ns = static_cast<double>(now_ns() - t) / static_cast<double>(in_.flows.size());
  std::uint64_t classes = 0;
  t = now_ns();
  for (const auto& flow : in_.flows) {
    const auto& engine = rt.shard_engine(runtime::ShardedRuntime::shard_of(flow.record.src_ip, shards));
    classes += static_cast<std::uint64_t>(engine.hopcount_table().classify(
        flow.arrival_port, flow.record.src_ip, flow.record.ttl, flow.record.last));
  }
  pass.hopcount_classify_ns =
      static_cast<double>(now_ns() - t) / static_cast<double>(in_.flows.size());
  require(hits <= in_.flows.size() && classes <= 8 * in_.flows.size(), "layer_probes",
          "lookup counts out of range");
  for (std::size_t s = 0; s < shards; ++s) {
    pass.eia_bytes += static_cast<double>(rt.shard_engine(s).eia().memory_bytes());
    pass.hopcount_entries += static_cast<double>(rt.shard_engine(s).hopcount_table().size());
  }
}

void Bench::check_pass(Program& p, Pass& pass) {
  const std::size_t n = in_.flows.size();
  const auto stats = p.runtime->stats();
  const auto snapshot = p.runtime->snapshot();
  const auto clusters = p.clusters;
  const std::span<const AlertRecord> alerts = p.sink->alerts();
  pass.alerts = p.sink->count();
  require(p.sink->count() <= out_.alerts.size(), "alerts", "more alerts than records");
  // Stop the program's threads before the checks allocate.
  p.runtime.reset();

  require(out_.out_of_range.load() == 0, "one_verdict_per_record",
          "verdicts for records that were never offered");
  check_one_verdict(out_.calls);
  check_snapshot(snapshot, n);
  require(stats.submitted == n && stats.dispatched == n && stats.dropped == 0, "runtime_stats",
          "submitted " + std::to_string(stats.submitted) + ", dispatched " +
              std::to_string(stats.dispatched) + ", dropped " + std::to_string(stats.dropped) +
              " of " + std::to_string(n));
  // The realized order is ascending dispatch sequence; with one producer
  // it must be the submission order, so record i's tag is i.
  for (std::uint32_t i = 1; i < n; ++i) {
    require(out_.seq[i - 1] < out_.seq[i], "serial_equivalence",
            "dispatch order differs from submission order at record " + std::to_string(i));
  }
  const Reference& ref = input_reference(clusters);
  check_serial_equal(out_.verdicts, ref.verdicts);
  check_alerts(in_.flows, out_.verdicts, alerts, ref.alert_records);
  check_table3(table3_flows_, out_.verdicts);
  truth_ = check_ground_truth(w_, in_, out_.verdicts);
}

// --------------------------------------------------- traced layer passes

struct ReplayPass {
  std::uint64_t wall_ns = 0;
  std::vector<core::SuspectFlow> suspects;
  std::vector<core::Verdict> verdicts;
};

/// The serial split replay: decode each datagram, then per 256-record
/// batch the EIA stage (pre_process_batch) on one engine and the suspect
/// stage (finish_suspect_batch) on another that feeds the node sink --
/// the runtime's split, on one thread. With `spans`, each call is
/// wrapped in a span (root "bench.replay").
ReplayPass split_replay(const Workload& w, const Input& in,
                        std::shared_ptr<const core::TrainedClusters> clusters,
                        std::vector<AlertRecord>& alert_store, SpanRecorder* spans) {
  NodeSink sink(alert_store);
  const core::EngineConfig config = engine_config(w);
  core::InFilterEngine eia_stage(config);
  core::InFilterEngine suspect_stage(config, &sink);
  preload(w, [&](core::IngressId ingress, const net::Prefix& prefix) {
    eia_stage.add_expected(ingress, prefix);
  });
  suspect_stage.set_clusters(std::move(clusters));

  ReplayPass pass;
  pass.verdicts.resize(in.flows.size());
  pass.suspects.reserve(in.flows.size() / 2);
  std::vector<core::FlowInput> inputs;
  inputs.reserve(kReplayBatch + netflow::kV5MaxRecords);
  std::vector<core::SuspectFlow> suspects;
  std::vector<std::uint32_t> positions;
  std::vector<core::Verdict> suspect_verdicts;
  std::array<netflow::V5Record, netflow::kV5MaxRecords> records;
  std::uint64_t batch = 0;
  std::size_t done = 0;
  const auto run_batch = [&] {
    const std::span<core::Verdict> out(pass.verdicts.data() + done, inputs.size());
    suspects.clear();
    positions.clear();
    {
      ScopedSpan span(spans, "core.pre_process", batch);
      eia_stage.pre_process_batch(inputs, out, suspects, positions);
    }
    suspect_verdicts.resize(suspects.size());
    {
      ScopedSpan span(spans, "core.finish_suspect", batch);
      sink.trace(spans, batch);
      suspect_stage.finish_suspect_batch(suspects, suspect_verdicts);
      sink.trace(nullptr, 0);
    }
    for (std::size_t k = 0; k < suspects.size(); ++k) out[positions[k]] = suspect_verdicts[k];
    pass.suspects.insert(pass.suspects.end(), suspects.begin(), suspects.end());
    done += inputs.size();
    inputs.clear();
    ++batch;
  };
  const std::uint64_t start = now_ns();
  {
    ScopedSpan root(spans, "bench.replay", 0);
    for (const auto& dg : in.datagrams) {
      std::size_t count = 0;
      {
        ScopedSpan span(spans, "netflow.decode", batch);
        netflow::V5Header header;
        const auto status = netflow::decode_into(
            std::span(in.bytes.data() + dg.offset, dg.length), header, records, count);
        require(status == netflow::DecodeStatus::kOk, "decode", "datagram failed to decode");
      }
      const auto ingress = ingress_of(w, dg);
      for (std::size_t r = 0; r < count; ++r) {
        inputs.push_back(core::FlowInput{records[r], ingress, records[r].last});
      }
      if (inputs.size() >= kReplayBatch) run_batch();
    }
    if (!inputs.empty()) run_batch();
  }
  pass.wall_ns = now_ns() - start;
  return pass;
}

/// Per-layer figures of one traced round (medians are taken over rounds).
using LayerRound = std::map<std::string, double>;

LayerRound traced_round(Bench& bench, SpanRecorder& spans, std::uint64_t& attempted) {
  const Workload& w = bench.workload();
  const Input& in = bench.input();
  const double n = static_cast<double>(in.flows.size());
  LayerRound m;

  // Untraced program pass: the wall time the scan-stage busy ratio is
  // taken against, and nns.train_s.
  const Pass plain = bench.program_pass(false, nullptr);
  attempted += plain.records;
  // Traced program pass: spans around submit and flush, then the
  // post-run layer probes.
  const Pass traced = bench.program_pass(true, &spans);
  attempted += traced.records;
  {
    const auto totals = spans.totals();
    const auto total_ns = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : static_cast<double>(it->second.total_ns);
    };
    m["runtime.submit_ns_per_record"] = total_ns("runtime.submit") / n;
    m["runtime.flush_ms"] = total_ns("runtime.flush") / 1e6;
  }
  m["runtime.backpressure_waits"] = static_cast<double>(traced.stats.backpressure_waits);
  m["runtime.worker_batch_mean"] =
      traced.stats.batches == 0 ? 0
                                : static_cast<double>(traced.stats.processed) /
                                      static_cast<double>(traced.stats.batches);
  m["runtime.shard_queue_peak_max"] = static_cast<double>(traced.queue_peak_max);
  m["core.eia_lookup_ns"] = traced.eia_lookup_ns;
  m["core.eia_bytes"] = traced.eia_bytes;
  m["hopcount.classify_ns"] = traced.hopcount_classify_ns;
  m["hopcount.entries"] = traced.hopcount_entries;
  m["obs.snapshot_ms"] = traced.snapshot_ms;
  m["obs.prometheus_ms"] = traced.prometheus_ms;
  m["lifecycle.entries_expired"] = traced.entries_expired;
  m["lifecycle.entries_refreshed"] = traced.entries_refreshed;
  m["nns.train_s"] = plain.train_s;
  m["alert.alerts"] = static_cast<double>(plain.alerts);

  // The serial split replay, untraced then traced.
  const auto clusters = std::make_shared<const core::TrainedClusters>(
      in.training, w.config.engine.cluster, w.config.seed);
  std::vector<AlertRecord> alert_store(in.flows.size());
  const ReplayPass untraced = split_replay(w, in, clusters, alert_store, nullptr);
  const std::size_t first_span = spans.spans().size();
  const ReplayPass replay = split_replay(w, in, clusters, alert_store, &spans);
  attempted += 2 * in.flows.size();
  check_serial_equal(replay.verdicts, bench.input_reference(clusters).verdicts);
  const auto totals = spans.totals(first_span);
  const auto self = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  };
  const auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.total_ns);
  };
  const auto count = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const double suspects = static_cast<double>(replay.suspects.size());
  const double alerts = count("alert.idmef");
  m["netflow.decode_ns_per_record"] = self("netflow.decode") / n;
  m["core.pre_process_ns_per_record"] = self("core.pre_process") / n;
  m["core.finish_suspect_ns_per_suspect"] =
      suspects == 0 ? 0 : self("core.finish_suspect") / suspects;
  m["core.suspect_ratio"] = suspects / n;
  m["alert.idmef_ns_per_alert"] = alerts == 0 ? 0 : self("alert.idmef") / alerts;
  m["traceback.consume_ns_per_alert"] = alerts == 0 ? 0 : self("traceback.consume") / alerts;
  m["runtime.scan_stage_busy_ratio"] = total("core.finish_suspect") / 1e9 / plain.wall_s;
  m["runtime.records_per_s"] = plain.records_per_s;
  const double replay_wall = static_cast<double>(replay.wall_ns);
  m["bench.tracing_overhead"] = replay_wall / static_cast<double>(untraced.wall_ns);
  m["bench.layer_sum_ratio"] =
      (self("netflow.decode") + self("core.pre_process") + self("core.finish_suspect") +
       self("alert.idmef") + self("traceback.consume")) /
      replay_wall;
  require(m["bench.layer_sum_ratio"] >= kLayerSumMin && m["bench.layer_sum_ratio"] <= 1.0,
          "layer_sum_ratio",
          "layer self times cover " + std::to_string(m["bench.layer_sum_ratio"]) +
              " of the traced replay, outside [0.80, 1.00]");

  // NNS over the suspects in 256-record batches, and the scan buffer over
  // them on a fresh ScanAnalysis.
  {
    core::TrainedClusters::BatchScratch scratch;
    std::vector<netflow::V5Record> records;
    std::vector<util::Rng> rngs;
    std::vector<core::TrainedClusters::Assessment> out(kReplayBatch);
    std::uint64_t anomalous = 0;
    std::uint64_t elapsed = 0;
    for (std::size_t begin = 0; begin < replay.suspects.size(); begin += kReplayBatch) {
      const std::size_t k = std::min(kReplayBatch, replay.suspects.size() - begin);
      records.clear();
      rngs.clear();
      for (std::size_t i = 0; i < k; ++i) {
        records.push_back(replay.suspects[begin + i].record);
        rngs.emplace_back(w.config.seed + begin + i);
      }
      ScopedSpan span(&spans, "nns.assess_batch", begin / kReplayBatch);
      const std::uint64_t t = now_ns();
      clusters->assess_batch(records, rngs, std::span(out.data(), k), scratch);
      elapsed += now_ns() - t;
      for (std::size_t i = 0; i < k; ++i) anomalous += out[i].anomalous ? 1 : 0;
    }
    require(anomalous <= replay.suspects.size(), "layer_probes", "assessments out of range");
    m["nns.assess_ns_per_query"] =
        suspects == 0 ? 0 : static_cast<double>(elapsed) / suspects;
  }
  {
    core::ScanAnalysis scan(w.config.engine.scan);
    std::uint64_t flagged = 0;
    ScopedSpan span(&spans, "core.scan_observe", 0);
    const std::uint64_t t = now_ns();
    for (const auto& s : replay.suspects) {
      flagged += scan.observe(s.record) == core::ScanVerdict::kClean ? 0 : 1;
    }
    const std::uint64_t elapsed = now_ns() - t;
    require(flagged <= replay.suspects.size(), "layer_probes", "scan counts out of range");
    m["core.scan_observe_ns"] = suspects == 0 ? 0 : static_cast<double>(elapsed) / suspects;
  }

  // The ingest layer: a loopback probe sends a prefix of the same
  // datagrams at a fixed rate to a pipeline whose dispatch only counts.
  {
    std::size_t datagrams = 0;
    std::size_t probe_records = 0;
    while (datagrams < in.datagrams.size() && probe_records < kIngestProbeRecords) {
      probe_records += in.datagrams[datagrams++].count;
    }
    ingest::IngestConfig icfg;
    for (int s = 0; s < w.config.sources; ++s) {
      icfg.ports.push_back(0);
      icfg.ingress_ids.push_back(static_cast<core::IngressId>(w.config.first_port + s));
    }
    icfg.receiver_threads = 1;
    std::atomic<std::uint64_t> taken{0};
    auto created = ingest::IngestPipeline::create(
        icfg, [&taken](std::span<const runtime::FlowItem> items, int) {
          taken.fetch_add(items.size(), std::memory_order_release);
          return items.size();
        });
    require(created.has_value(), "ingest_setup",
            created.has_value() ? std::string{} : created.error().message);
    auto pipeline = std::move(created.value());
    std::vector<double> lateness_us =
        send_paced(in, datagrams, kIngestProbeRate, pipeline->ports(),
                   [&taken] { return taken.load(std::memory_order_acquire); });
    pipeline->stop();
    const auto stats = pipeline->stats();
    require(stats.records_decoded == probe_records && stats.datagrams_malformed == 0,
            "ingest_probe", "the ingest probe lost or mangled records");
    m["ingest.kernel_drops"] = static_cast<double>(stats.kernel_drops);
    m["ingest.sequence_gaps"] = static_cast<double>(stats.sequence_gaps);
    m["bench.send_lateness_p99_us"] = percentile(lateness_us, 0.99);
    attempted += probe_records;
  }
  return m;
}

// ----------------------------------------------------------------- main

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  std::string input;
  std::string out;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: infilter_perfbench gen|run ...");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--input") args.input = value;
    else if (key == "--out") args.out = value;
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = std::stoi(value);
    else if (key == "--trace-out") args.trace_out = value;
    else throw std::invalid_argument("unknown option " + key);
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (args.seconds <= 0 || args.trace < 0 || args.trace > 1) {
    throw std::invalid_argument("--seconds must be > 0 and --trace 0 or 1");
  }
  return args;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};

void print_result(std::uint64_t attempted, const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("%-36s %14.6g %-10s (%llu samples)\n", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": 0, \"metrics\": {",
              static_cast<unsigned long long>(attempted));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_checks(const Bench& bench) {
  const auto& t = bench.truth();
  std::printf("ground truth: %d of %d attack instances detected (floor %.2f), "
              "false-positive rate %.4f (ceiling %.2f), benign suspect rate %.4f\n",
              t.detected_instances, t.attack_instances, bench.workload().detection_floor,
              t.false_positive_rate(), bench.workload().false_positive_ceiling,
              static_cast<double>(t.benign_suspects) /
                  static_cast<double>(std::max<std::uint64_t>(1, t.benign_flows)));
  if (bench.unparsed_fused() > 0) {
    std::printf("known fault: %zu hop-count-fusion alerts of a round do not parse back "
                "from IDMEF (alert::parse_idmef rejects stage 'hopcount-fusion')\n",
                bench.unparsed_fused());
  }
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

Bench load_bench(const Args& args, int k) {
  return Bench(make_workload(args.workload, input_seed(args.seed, k)),
               load(input_path(args.input, k)));
}

/// --trace 0: each input in turn for an equal share of the run, in whole
/// rounds. A per-record cost is the median over an input's rounds,
/// averaged over the inputs.
int run_untraced(const Args& args) {
  const std::uint64_t start = now_ns();
  std::uint64_t attempted = 0;
  int rounds = 0;
  std::vector<double> setup, cpu_cost;
  double rss_growth_mb = 0;
  for (int k = 0; k < kInputsPerRun; ++k) {
    Bench bench = load_bench(args, k);
    const std::uint64_t hwm0 = proc_status_kb("VmHWM");
    const double until = args.seconds * (k + 1) / kInputsPerRun;
    std::vector<double> cpu;
    do {
      const Pass pass = bench.program_pass(false, nullptr);
      if (rounds == 0) {
        rss_growth_mb = static_cast<double>(pass.hwm_kb - hwm0) / 1024.0;
      }
      attempted += pass.records;
      setup.push_back(pass.setup_s);
      cpu.push_back(pass.cpu_ns_per_record);
      ++rounds;
    } while (seconds_since(start) < until);
    cpu_cost.push_back(median(cpu));
    std::printf("workload %s input %d (seed %llu): %zu rounds, %zu records and %zu datagrams "
                "a round; %.6g CPU ns a record\n",
                args.workload.c_str(), k,
                static_cast<unsigned long long>(input_seed(args.seed, k)), cpu.size(),
                bench.records(), bench.input().datagrams.size(), cpu_cost.back());
    print_checks(bench);
  }
  const auto r = static_cast<std::uint64_t>(rounds);
  print_result(attempted, {
                              {"cpu_ns_per_record", mean(cpu_cost), "ns", r},
                              {"setup_s", median(setup), "s", r},
                              {"rss_growth_mb", rss_growth_mb, "MiB", 1},
                          });
  return 0;
}

/// --trace 1: the per-layer figures of the run's first input.
int run_traced(const Args& args) {
  Bench bench = load_bench(args, 0);
  const std::uint64_t start = now_ns();
  std::uint64_t attempted = 0;
  int rounds = 0;
  SpanRecorder spans(1 << 20);
  std::map<std::string, std::vector<double>> per_round;
  do {
    spans.clear();
    for (const auto& [name, value] : traced_round(bench, spans, attempted)) {
      per_round[name].push_back(value);
    }
    if (rounds == 0 && !args.trace_out.empty()) {
      require(write_chrome_trace(args.trace_out, {{"benchmark", &spans}}), "trace_out",
              "cannot write " + args.trace_out);
    }
    ++rounds;
  } while (seconds_since(start) < args.seconds);
  static const std::map<std::string, std::string> kUnits = {
      {"netflow.decode_ns_per_record", "ns"},
      {"runtime.submit_ns_per_record", "ns"},
      {"runtime.backpressure_waits", "count"},
      {"runtime.worker_batch_mean", "records"},
      {"runtime.shard_queue_peak_max", "records"},
      {"runtime.flush_ms", "ms"},
      {"runtime.scan_stage_busy_ratio", "ratio"},
      {"runtime.records_per_s", "records/s"},
      {"core.pre_process_ns_per_record", "ns"},
      {"core.finish_suspect_ns_per_suspect", "ns"},
      {"core.suspect_ratio", "ratio"},
      {"core.eia_lookup_ns", "ns"},
      {"core.scan_observe_ns", "ns"},
      {"core.eia_bytes", "bytes"},
      {"nns.assess_ns_per_query", "ns"},
      {"nns.train_s", "s"},
      {"hopcount.classify_ns", "ns"},
      {"hopcount.entries", "count"},
      {"alert.alerts", "count"},
      {"alert.idmef_ns_per_alert", "ns"},
      {"traceback.consume_ns_per_alert", "ns"},
      {"obs.snapshot_ms", "ms"},
      {"obs.prometheus_ms", "ms"},
      {"lifecycle.entries_expired", "count"},
      {"lifecycle.entries_refreshed", "count"},
      {"ingest.kernel_drops", "count"},
      {"ingest.sequence_gaps", "count"},
      {"bench.send_lateness_p99_us", "us"},
      {"bench.tracing_overhead", "ratio"},
      {"bench.layer_sum_ratio", "ratio"},
  };
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kUnits) {
    const auto it = per_round.find(name);
    require(it != per_round.end(), "per_layer", "metric " + name + " was not measured");
    metrics.push_back({name, median(it->second), unit, it->second.size()});
  }
  std::printf("workload %s input 0 (seed %llu, traced): %d rounds\n", args.workload.c_str(),
              static_cast<unsigned long long>(input_seed(args.seed, 0)), rounds);
  print_checks(bench);
  print_result(attempted, metrics);
  return 0;
}

int gen(const Args& args) {
  require(!args.out.empty(), "usage", "gen needs --out");
  for (int k = 0; k < kInputsPerRun; ++k) {
    save(generate(make_workload(args.workload, input_seed(args.seed, k))),
         input_path(args.out, k));
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const auto args = perfbench::parse_args(argc, argv);
    if (args.mode == "gen") return perfbench::gen(args);
    if (args.mode == "run") {
      return args.trace == 0 ? perfbench::run_untraced(args) : perfbench::run_traced(args);
    }
    std::fprintf(stderr, "unknown mode '%s' (gen | run)\n", args.mode.c_str());
    return 2;
  } catch (const perfbench::CheckFailure& failure) {
    std::fflush(stdout);
    std::fprintf(stderr, "CHECK FAILED %s\n", failure.what());
    return 3;
  } catch (const std::exception& error) {
    std::fflush(stdout);
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}
