#include "checks.h"

#include <algorithm>
#include <functional>
#include <tuple>

#include "alert/idmef_io.h"
#include "dagflow/allocation.h"
#include "net/subblocks.h"

namespace perfbench {

AlertRecord record_of(const alert::Alert& a) {
  return AlertRecord{a.id,
                     a.create_time,
                     a.source_ip.value(),
                     a.target_ip.value(),
                     a.target_port,
                     a.ingress_port,
                     a.proto,
                     a.stage,
                     a.expected_ingress,
                     a.nns_distance,
                     a.nns_threshold,
                     a.detection_latency_ms,
                     std::hash<std::string>{}(a.classification)};
}

void require(bool ok, const char* check, const std::string& detail) {
  if (!ok) throw CheckFailure(check, detail);
}

namespace {

bool same_verdict(const core::Verdict& a, const core::Verdict& b) {
  if (a.attack != b.attack || a.stage != b.stage || a.suspect != b.suspect ||
      a.nns.has_value() != b.nns.has_value()) {
    return false;
  }
  if (!a.nns) return true;
  return a.nns->anomalous == b.nns->anomalous && a.nns->cluster == b.nns->cluster &&
         a.nns->distance == b.nns->distance && a.nns->threshold == b.nns->threshold;
}

}  // namespace

void check_serial_equal(std::span<const core::Verdict> verdicts,
                        std::span<const core::Verdict> reference) {
  require(verdicts.size() == reference.size(), "serial_equivalence",
          "record counts differ: " + std::to_string(verdicts.size()) + " vs " +
              std::to_string(reference.size()));
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    require(same_verdict(verdicts[i], reference[i]), "serial_equivalence",
            "verdict of record " + std::to_string(i) +
                " in realized order differs from the serial replay");
  }
}

void check_one_verdict(std::span<const std::atomic<std::uint32_t>> calls) {
  for (std::size_t i = 0; i < calls.size(); ++i) {
    require(calls[i].load() == 1, "one_verdict_per_record",
            "record " + std::to_string(i) + " drew " + std::to_string(calls[i].load()) +
                " verdicts");
  }
}

void check_alerts(std::span<const dagflow::LabeledFlow> flows,
                  std::span<const core::Verdict> verdicts,
                  std::span<const AlertRecord> alerts,
                  std::span<const AlertRecord> reference) {
  // (source, target, port, protocol, ingress, stage) of each alerted flow.
  using AlertKey = std::tuple<std::uint32_t, std::uint32_t, std::uint16_t, std::uint8_t,
                              std::uint16_t, int>;
  std::vector<AlertKey> expected;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (!verdicts[i].attack) continue;
    const auto& r = flows[i].record;
    expected.emplace_back(r.src_ip.value(), r.dst_ip.value(), r.dst_port, r.proto,
                          static_cast<std::uint16_t>(flows[i].arrival_port),
                          static_cast<int>(verdicts[i].stage));
  }
  std::vector<AlertKey> got;
  got.reserve(alerts.size());
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    const auto& a = alerts[i];
    require(a.id == i + 1, "alerts",
            "alert ids are not dense: position " + std::to_string(i) + " has id " +
                std::to_string(a.id));
    got.emplace_back(a.source, a.target, a.target_port, a.proto, a.ingress_port,
                     static_cast<int>(a.stage));
  }
  require(expected.size() == got.size(), "alerts",
          std::to_string(expected.size()) + " attack verdicts but " +
              std::to_string(got.size()) + " alerts");
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  require(expected == got, "alerts", "alerts do not match the attack verdicts one to one");
  require(alerts.size() == reference.size(), "alerts",
          "alert count differs from the serial replay");
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    require(alerts[i] == reference[i], "alerts",
            "alert " + std::to_string(i + 1) + " differs from the serial replay");
  }
}

std::size_t check_idmef_roundtrip(const std::vector<alert::Alert>& alerts) {
  std::size_t known_fault = 0;
  for (const auto& a : alerts) {
    const auto parsed = alert::parse_idmef(a.to_idmef_xml());
    // Known fault: alert::parse_idmef does not accept the stage name
    // alert::to_idmef_xml writes for kHopCountFusion, so every fused alert
    // fails to parse. Tolerated in exactly that form and counted; any
    // other outcome for a fused alert (including a full round trip once
    // the parser is mended) is checked like every other alert.
    if (!parsed.has_value() && a.stage == alert::DetectionStage::kHopCountFusion &&
        parsed.error().message == "unknown detection stage 'hopcount-fusion'") {
      ++known_fault;
      continue;
    }
    require(parsed.has_value(), "idmef_roundtrip",
            "alert " + std::to_string(a.id) + " does not parse: " +
                (parsed.has_value() ? std::string{} : parsed.error().message));
    const auto& p = *parsed;
    bool ok = p.id == a.id && p.create_time == a.create_time && p.stage == a.stage &&
              p.source_ip == a.source_ip && p.target_ip == a.target_ip &&
              p.target_port == a.target_port && p.ingress_port == a.ingress_port &&
              p.expected_ingress == a.expected_ingress &&
              p.classification == a.classification;
    // IDMEF carries the protocol only with a service port, and the NNS
    // distance only for NNS alerts.
    if (a.target_port != 0) ok = ok && p.proto == a.proto;
    if (a.stage == alert::DetectionStage::kNnsDistance) {
      ok = ok && p.nns_distance == a.nns_distance && p.nns_threshold == a.nns_threshold;
    }
    require(ok, "idmef_roundtrip",
            "alert " + std::to_string(a.id) + " changes across IDMEF serialization");
  }
  return known_fault;
}

void check_snapshot(const obs::RegistrySnapshot& snapshot, std::uint64_t offered) {
  const double flows = snapshot.value("infilter_flows_total", -1);
  require(flows == static_cast<double>(offered), "snapshot_totals",
          "infilter_flows_total " + std::to_string(flows) + " != offered " +
              std::to_string(offered));
  double verdicts = 0;
  for (const auto& metric : snapshot.metrics) {
    const std::string_view name = metric.name;
    if (name.starts_with("infilter_verdict_") && name.ends_with("_total")) {
      verdicts += snapshot.value(name);
    }
  }
  require(verdicts == flows, "snapshot_totals",
          "sum of verdict counters " + std::to_string(verdicts) +
              " != infilter_flows_total " + std::to_string(flows));
}

std::vector<std::uint32_t> table3_flows(const Workload& workload, const Input& input) {
  const auto& config = workload.config;
  std::vector<std::uint32_t> in_preload;
  for (std::uint32_t i = 0; i < input.flows.size(); ++i) {
    const auto& flow = input.flows[i];
    const int source = flow.arrival_port - config.first_port;
    const auto block = net::SubBlock::containing(flow.record.src_ip);
    if (!block) continue;
    const auto range = dagflow::eia_range(source, config.blocks_per_source);
    if (block->index() >= range.first.index() && block->index() <= range.last.index()) {
      in_preload.push_back(i);
    }
  }
  return in_preload;
}

void check_table3(std::span<const std::uint32_t> in_preload,
                  std::span<const core::Verdict> verdicts) {
  for (const std::uint32_t i : in_preload) {
    require(!verdicts[i].suspect && !verdicts[i].attack, "table3_legal",
            "record " + std::to_string(i) +
                " lies in its ingress's Table 3 preload but was not legal");
  }
}

sim::ExperimentResult check_ground_truth(const Workload& workload, const Input& input,
                                         std::span<const core::Verdict> verdicts) {
  sim::TestbedStream launched;
  for (const auto& instance : input.instances) {
    launched.instances.emplace_back(instance.ingress, instance.kind);
  }
  sim::Scorer scorer(workload.config, launched);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    scorer.score(input.flows[i], verdicts[i]);
  }
  const auto result = scorer.finalize();
  require(result.detection_rate() >= workload.detection_floor, "detection_floor",
          "detected " + std::to_string(result.detected_instances) + " of " +
              std::to_string(result.attack_instances) + " attack instances, floor " +
              std::to_string(workload.detection_floor));
  require(result.false_positive_rate() <= workload.false_positive_ceiling,
          "false_positive_ceiling",
          "false-positive rate " + std::to_string(result.false_positive_rate()) +
              " above " + std::to_string(workload.false_positive_ceiling));
  return result;
}

}  // namespace perfbench
