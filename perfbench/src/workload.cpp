#include "workload.h"

#include <fstream>
#include <stdexcept>
#include <type_traits>

#include "dagflow/allocation.h"
#include "traffic/normal.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kMagic = 0x31766e69'50465049ULL;  // "IPFPinv1"

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.config.seed = seed;
  if (name == "steady_mix") {
    // Section 6.3.1: 10 peer ASs with Table 3 preloads, the default 1.5%
    // ingress drift, one 12-tool attack set (2% volume) at one ingress.
    w.config.normal_flows_per_source = 20000;
    w.config.attack_volume = 0.02;
    w.config.attacked_ingresses = 1;
    w.detection_floor = 0.66;
    w.false_positive_ceiling = 0.02;
    w.check_table3 = true;
  } else if (name == "churn_storm") {
    // Section 6.3.2 stress (attack sets at all 10 ingresses) with the
    // Section 6.3.3 route change at 10% of blocks, the TTL scenario with
    // hop-count fusion, exact-EIA aging, and a 30% attack volume so that
    // about a third of records fail the EIA check.
    w.config.normal_flows_per_source = 20000;
    w.config.attack_volume = 0.3;
    w.config.attacked_ingresses = w.config.sources;
    w.config.route_change_blocks = 10;
    w.config.ttl_scenario = true;
    w.config.engine.use_hopcount = true;
    w.config.engine.eia.lifecycle.max_idle_ms = 60 * util::kSecond;
    w.detection_floor = 0.60;
    w.false_positive_ceiling = 0.17;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

Input generate(const Workload& workload) {
  const sim::ExperimentConfig& config = workload.config;
  Input input;
  sim::TestbedStream stream = sim::generate_stream(config);
  for (const auto& [ingress, kind] : stream.instances) {
    input.instances.push_back(Instance{ingress, kind});
  }

  // Pack each ingress's records, in export order, into datagrams of up to
  // 30; a datagram leaves when it fills (or at the end of the stream).
  const auto sources = static_cast<std::size_t>(config.sources);
  std::vector<std::vector<std::uint32_t>> pending(sources);
  std::vector<std::uint32_t> sequence(sources, 0);
  std::vector<netflow::V5Record> records;
  const auto emit = [&](std::size_t source) {
    auto& ids = pending[source];
    if (ids.empty()) return;
    records.clear();
    Datagram d;
    d.first_flow = static_cast<std::uint32_t>(input.flows.size());
    d.count = static_cast<std::uint32_t>(ids.size());
    d.source = static_cast<std::uint16_t>(source);
    for (const auto id : ids) {
      input.flows.push_back(stream.flows[id]);
      records.push_back(stream.flows[id].record);
    }
    netflow::V5Header header;
    header.sys_uptime_ms = records.back().last;
    header.unix_secs = 1'100'000'000U + records.back().last / 1000;
    header.flow_sequence = sequence[source];
    sequence[source] += d.count;
    const auto bytes = netflow::encode(header, records);
    d.offset = static_cast<std::uint32_t>(input.bytes.size());
    d.length = static_cast<std::uint32_t>(bytes.size());
    input.bytes.insert(input.bytes.end(), bytes.begin(), bytes.end());
    input.datagrams.push_back(d);
    ids.clear();
  };
  for (std::size_t i = 0; i < stream.flows.size(); ++i) {
    const auto source =
        static_cast<std::size_t>(stream.flows[i].arrival_port - config.first_port);
    if (source >= sources) throw std::logic_error("flow outside the testbed ports");
    pending[source].push_back(static_cast<std::uint32_t>(i));
    if (pending[source].size() == netflow::kV5MaxRecords) emit(source);
  }
  for (std::size_t s = 0; s < sources; ++s) emit(s);

  // sim::train_clusters' training traffic: one Dagflow instance replaying
  // a normal trace over every used block.
  util::Rng rng{config.seed ^ 0x7e51a11ULL};
  traffic::NormalTrafficModel model;
  const traffic::Trace trace = model.generate(config.training_flows, 0, rng);
  std::vector<net::SubBlock> blocks;
  for (int s = 0; s < config.sources; ++s) {
    const auto range = dagflow::eia_range(s, config.blocks_per_source);
    for (int b = range.first.index(); b <= range.last.index(); ++b) blocks.emplace_back(b);
  }
  dagflow::Dagflow replayer(
      dagflow::DagflowConfig{.netflow_port = 8999,
                             .sampling_interval = config.netflow_sampling},
      dagflow::AddressPool::from_subblocks(blocks), config.seed ^ 0xdaf1ULL);
  for (const auto& flow : replayer.replay(trace)) input.training.push_back(flow.record);
  return input;
}

namespace {

template <typename T>
void write_vector(std::ofstream& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::uint64_t n = v.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof n);
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(n * sizeof(T)));
}

template <typename T>
void read_vector(std::ifstream& in, std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof n);
  if (!in || n > (std::uint64_t{1} << 32)) throw std::runtime_error("input file is corrupt");
  v.resize(n);
  in.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(n * sizeof(T)));
  if (!in) throw std::runtime_error("input file is truncated");
}

}  // namespace

void save(const Input& input, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out.write(reinterpret_cast<const char*>(&kMagic), sizeof kMagic);
  write_vector(out, input.flows);
  write_vector(out, input.datagrams);
  write_vector(out, input.bytes);
  write_vector(out, input.instances);
  write_vector(out, input.training);
  if (!out) throw std::runtime_error("write failed: " + path);
}

Input load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  if (!in || magic != kMagic) throw std::runtime_error(path + " is not a perfbench input");
  Input input;
  read_vector(in, input.flows);
  read_vector(in, input.datagrams);
  read_vector(in, input.bytes);
  read_vector(in, input.instances);
  read_vector(in, input.training);
  return input;
}

}  // namespace perfbench
