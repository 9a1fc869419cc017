// Correctness checks made in every run, outside the timed interval. A
// failed check throws CheckFailure naming itself; the driver prints it and
// exits non-zero without a result line.

#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "alert/idmef.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "workload.h"

namespace perfbench {

struct CheckFailure : std::runtime_error {
  CheckFailure(std::string check_name, const std::string& detail)
      : std::runtime_error(check_name + ": " + detail), check(std::move(check_name)) {}
  std::string check;
};

/// The fields of one delivered alert that the checks compare, kept in a
/// trivially copyable form so the sink can store alerts into memory
/// allocated before set-up (the resident-set reading then shows the
/// program's growth, not the benchmark's).
struct AlertRecord {
  std::uint64_t id = 0;
  util::TimeMs create_time = 0;
  std::uint32_t source = 0;
  std::uint32_t target = 0;
  std::uint16_t target_port = 0;
  std::uint16_t ingress_port = 0;
  std::uint8_t proto = 0;
  alert::DetectionStage stage = alert::DetectionStage::kEiaMismatch;
  int expected_ingress = -1;
  int nns_distance = 0;
  int nns_threshold = 0;
  double detection_latency_ms = 0;
  std::uint64_t classification_hash = 0;

  friend bool operator==(const AlertRecord&, const AlertRecord&) = default;
};

[[nodiscard]] AlertRecord record_of(const alert::Alert& alert);

/// Throws CheckFailure(check, detail) when `ok` is false.
void require(bool ok, const char* check, const std::string& detail);

/// verdicts[i] == reference[i] for every i ("serial_equivalence").
void check_serial_equal(std::span<const core::Verdict> verdicts,
                        std::span<const core::Verdict> reference);

/// Every offered record drew exactly one VerdictHook call
/// ("one_verdict_per_record").
void check_one_verdict(std::span<const std::atomic<std::uint32_t>> calls);

/// The alert stream: one alert per attack verdict (matched on flow and
/// stage), ids dense from 1, and element-wise equal to the serial
/// reference's alerts ("alerts").
void check_alerts(std::span<const dagflow::LabeledFlow> flows,
                  std::span<const core::Verdict> verdicts,
                  std::span<const AlertRecord> alerts,
                  std::span<const AlertRecord> reference);

/// Every alert parses back from its IDMEF XML with the same fields
/// ("idmef_roundtrip"), except hop-count-fusion alerts that fail with the
/// parser's known unknown-stage error; returns how many of those there were.
std::size_t check_idmef_roundtrip(const std::vector<alert::Alert>& alerts);

/// flows_total == offered and Σ verdict counters == flows_total in the
/// merged snapshot ("snapshot_totals").
void check_snapshot(const obs::RegistrySnapshot& snapshot, std::uint64_t offered);

/// The Input::flows indices of the records whose source lies in their
/// arrival ingress's Table 3 preload, computed here from dagflow::eia_range.
[[nodiscard]] std::vector<std::uint32_t> table3_flows(const Workload& workload,
                                                      const Input& input);

/// Every record table3_flows() names is legal ("table3_legal"); verdicts[i]
/// is the verdict of Input::flows[i].
void check_table3(std::span<const std::uint32_t> in_preload,
                  std::span<const core::Verdict> verdicts);

/// sim::Scorer ground truth against the workload's paper-derived floors
/// ("detection_floor", "false_positive_ceiling"). Returns the result.
sim::ExperimentResult check_ground_truth(const Workload& workload, const Input& input,
                                         std::span<const core::Verdict> verdicts);

}  // namespace perfbench
