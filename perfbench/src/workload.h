// Workload definitions and input generation for the repository benchmark.
//
// A workload is a Section 6 testbed configuration (sim::ExperimentConfig)
// plus the checks' paper-derived bounds. Its input is generated from the
// seed alone and written to a file by one process; a second process loads
// it and runs the program, so the resident-set high-water mark read just
// before set-up does not already contain the generator's transient peak.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dagflow/dagflow.h"
#include "netflow/v5.h"
#include "sim/testbed.h"
#include "traffic/attacks.h"

namespace perfbench {

// The benchmark names the program's modules as its layers.
using namespace infilter;

/// Every workload is driven the same way: the benchmark thread decodes
/// the datagrams in memory and submits their records as producer 0 into a
/// ShardedRuntime, and the drive ends when flush() returns.
struct Workload {
  std::string name;
  /// Ground-truth bounds derived from the paper (README "Checks").
  double detection_floor = 0;
  double false_positive_ceiling = 1;
  /// Whether every record whose source lies in its arrival ingress's
  /// Table 3 preload must be legal (true only without TTL fusion, where
  /// an in-EIA flow can still become a suspect).
  bool check_table3 = false;
  sim::ExperimentConfig config;
};

/// The named workload for `seed`; throws std::invalid_argument for an
/// unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed);

/// One NetFlow v5 export datagram of the input, addressed to one ingress.
struct Datagram {
  std::uint32_t offset = 0;      ///< into Input::bytes
  std::uint32_t length = 0;
  std::uint32_t first_flow = 0;  ///< index into Input::flows
  std::uint32_t count = 0;       ///< records carried
  std::uint16_t source = 0;      ///< testbed source index (port - first_port)
};

/// One launched attack instance (sim::TestbedStream::instances), in a
/// trivially copyable form for the input file.
struct Instance {
  std::int32_t ingress = 0;
  traffic::AttackKind kind = traffic::AttackKind::kPuke;
};

struct Input {
  /// Every record, labeled, in datagram order: datagram d carries
  /// flows[first_flow, first_flow + count). This is the submission order.
  std::vector<dagflow::LabeledFlow> flows;
  std::vector<Datagram> datagrams;
  std::vector<std::uint8_t> bytes;
  /// Launched attack instances (sim::TestbedStream::instances).
  std::vector<Instance> instances;
  /// Normal traffic for NNS cluster training (sim::train_clusters' input).
  std::vector<netflow::V5Record> training;
};

/// Generates the workload's input: the testbed stream packed per ingress
/// into export datagrams of up to 30 records, in export order.
[[nodiscard]] Input generate(const Workload& workload);

void save(const Input& input, const std::string& path);
/// Throws std::runtime_error on a missing or malformed file.
[[nodiscard]] Input load(const std::string& path);

}  // namespace perfbench
