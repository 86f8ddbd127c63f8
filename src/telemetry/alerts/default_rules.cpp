#include "telemetry/alerts/default_rules.hpp"

#include <cmath>

#include "telemetry/json.hpp"

namespace probemon::telemetry {

namespace {

/// `name{k="v",...}[Ns]` selector for the rule expression grammar.
std::string selector(const std::string& name, const Labels& labels,
                     double range_s) {
  std::string out = name;
  if (!labels.empty()) {
    out += '{';
    bool first = true;
    for (const auto& [k, v] : labels) {
      if (!first) out += ',';
      first = false;
      out += k;
      out += "=\"";
      out += v;
      out += '"';
    }
    out += '}';
  }
  out += '[';
  out += json_number(range_s);
  out += "s]";
  return out;
}

}  // namespace

std::vector<AlertRule> default_presence_rules(const DefaultRuleParams& params) {
  std::vector<AlertRule> rules;

  AlertRule latency;
  latency.name = "detection_latency_p99";
  latency.expr = "quantile(0.99, " +
                 selector(params.detection_latency_series,
                          params.detection_latency_labels,
                          params.detection_latency_window_s) +
                 ")";
  latency.op = AlertOp::kGt;
  latency.threshold = params.detection_latency_budget_s;
  latency.for_s = params.detection_latency_for_s;
  latency.summary = "p99 departure-to-detection latency over budget";
  rules.push_back(std::move(latency));

  AlertRule false_alarms;
  false_alarms.name = "false_alarm_rate";
  false_alarms.expr =
      "rate(" +
      selector(params.absence_counter_series, params.absence_counter_labels,
               params.false_alarm_window_s) +
      ")";
  false_alarms.op = AlertOp::kGt;
  false_alarms.threshold = params.false_alarm_budget_per_s;
  false_alarms.for_s = params.false_alarm_for_s;
  false_alarms.summary = "absence declarations per second over budget";
  rules.push_back(std::move(false_alarms));

  AlertRule load;
  load.name = "device_load";
  load.expr = "rate(" +
              selector(params.load_series, params.load_labels,
                       params.load_window_s) +
              ")";
  load.op = AlertOp::kGt;
  load.threshold = params.load_beta * params.load_l_nom;
  load.for_s = params.load_for_s;
  load.summary = "device experienced load above beta * L_nom";
  rules.push_back(std::move(load));

  return rules;
}

std::vector<std::pair<std::string, Labels>> default_rule_series(
    const DefaultRuleParams& params) {
  return {
      {params.detection_latency_series, params.detection_latency_labels},
      {params.absence_counter_series, params.absence_counter_labels},
      {params.load_series, params.load_labels},
  };
}

}  // namespace probemon::telemetry
