// hylo_report — run-log analyzer for the JSONL telemetry hylo_train writes
// (DESIGN.md §12). Single-run mode renders a markdown report (per-epoch
// table, switch-decision timeline, health/fault/staleness/alert rollups,
// per-section time breakdown) and optionally a per-epoch CSV; two-run mode
// additionally diffs the run against a baseline log with tolerances and
// exits non-zero on regressions, so BENCH runs can be compared in CI before
// and after a performance change.
//
//   hylo_report RUN.jsonl [BASELINE.jsonl]
//       [--md FILE] [--csv FILE]
//       [--tol-loss X] [--tol-metric X] [--tol-time X]
//
// Exit codes: 0 clean, 1 regressions found (two-run mode), 2 usage or
// malformed input.
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "hylo/obs/json.hpp"

namespace {

using hylo::obs::Json;

double num(const Json& obj, const std::string& key, double def) {
  const Json* v = obj.find(key);
  if (v == nullptr) return def;
  return v->to_double();
}

std::string str(const Json& obj, const std::string& key,
                const std::string& def = "") {
  const Json* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->str() : def;
}

std::string fmt(double v, int prec = 4) {
  if (std::isnan(v)) return "-";
  std::ostringstream oss;
  oss.precision(prec);
  oss << v;
  return oss.str();
}

/// CSV field quoting (RFC 4180: wrap and double embedded quotes).
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    out += c;
  }
  out += '"';
  return out;
}

struct EpochRow {
  double epoch = 0, train_loss = 0, train_metric = 0, test_loss = 0,
         test_metric = 0, wall = 0;
  std::string mode;
  std::optional<Json> switching;
  double stale_refreshes = std::numeric_limits<double>::quiet_NaN();
  std::optional<Json> faults;
};

struct LayerRollup {
  double max_cond = std::numeric_limits<double>::quiet_NaN();
  double min_energy = std::numeric_limits<double>::quiet_NaN();
  double max_staleness = 0;
  double nonfinite = 0;
};

struct RunData {
  std::string path;
  std::optional<Json> run_start;
  std::optional<Json> result;
  std::optional<Json> health_summary;
  std::optional<Json> metrics;
  std::vector<EpochRow> epochs;
  std::vector<Json> alerts;
  std::vector<Json> rollbacks;  ///< "rollback" records, in firing order
  std::optional<Json> recovery_summary;
  std::optional<Json> recovery_exhausted;
  std::map<long, LayerRollup> layers;  ///< per-layer health rollup
  long health_records = 0;
  long records = 0;
};

RunData load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw hylo::Error("cannot open run log: " + path);
  RunData run;
  run.path = path;
  std::string line;
  long line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    Json rec;
    try {
      rec = Json::parse(line);
    } catch (const hylo::Error& e) {
      throw hylo::Error(path + ":" + std::to_string(line_no) + ": " +
                        e.what());
    }
    ++run.records;
    const std::string type = str(rec, "type");
    if (type == "run_start") {
      run.run_start = rec;
    } else if (type == "result") {
      run.result = rec;
    } else if (type == "health_summary") {
      run.health_summary = rec;
    } else if (type == "metrics") {
      run.metrics = rec;
    } else if (type == "alert") {
      run.alerts.push_back(rec);
    } else if (type == "rollback") {
      run.rollbacks.push_back(rec);
    } else if (type == "recovery_summary") {
      run.recovery_summary = rec;
    } else if (type == "recovery_exhausted") {
      run.recovery_exhausted = rec;
    } else if (type == "epoch") {
      EpochRow row;
      row.epoch = num(rec, "epoch", -1);
      row.train_loss = num(rec, "train_loss", 0);
      row.train_metric = num(rec, "train_metric", 0);
      row.test_loss = num(rec, "test_loss", 0);
      row.test_metric = num(rec, "test_metric", 0);
      row.mode = str(rec, "mode");
      if (const Json* t = rec.find("time"); t != nullptr)
        row.wall = num(*t, "wall", 0);
      if (const Json* sw = rec.find("switching"); sw != nullptr)
        row.switching = *sw;
      if (const Json* f = rec.find("faults"); f != nullptr) row.faults = *f;
      if (const Json* s = rec.find("stale_refreshes"); s != nullptr)
        row.stale_refreshes = s->to_double();
      run.epochs.push_back(std::move(row));
    } else if (type == "health") {
      ++run.health_records;
      if (const Json* layers = rec.find("layers"); layers != nullptr) {
        for (const Json& l : layers->items()) {
          const long idx = static_cast<long>(num(l, "layer", -1));
          LayerRollup& roll = run.layers[idx];
          const double cond =
              std::fmax(std::fmax(num(l, "cond", NAN), num(l, "cond_a", NAN)),
                        num(l, "cond_g", NAN));
          if (!std::isnan(cond))
            roll.max_cond = std::isnan(roll.max_cond)
                                ? cond
                                : std::fmax(roll.max_cond, cond);
          const double energy = num(l, "energy_fraction", NAN);
          if (!std::isnan(energy))
            roll.min_energy = std::isnan(roll.min_energy)
                                  ? energy
                                  : std::fmin(roll.min_energy, energy);
          roll.max_staleness =
              std::fmax(roll.max_staleness, num(l, "staleness", 0));
          roll.nonfinite += num(l, "nonfinite", 0);
        }
      }
    }
  }
  return run;
}

// ----------------------------------------------------------- markdown ----

void section_header(std::ostream& os, const RunData& run) {
  os << "# hylo run report\n\n`" << run.path << "` — " << run.records
     << " records";
  if (run.run_start) {
    const Json& rs = *run.run_start;
    os << "\n\n| optimizer | world | epochs | batch | lr | interconnect |"
       << " params |\n|---|---|---|---|---|---|---|\n| " << str(rs, "optimizer")
       << " | " << fmt(num(rs, "world", 0), 6) << " | "
       << fmt(num(rs, "epochs", 0), 6) << " | "
       << fmt(num(rs, "batch_size", 0), 6) << " | " << fmt(num(rs, "lr", 0))
       << " | " << str(rs, "interconnect") << " | "
       << fmt(num(rs, "params", 0), 12) << " |";
    // Which settings came from TrainConfig, HYLO_* or the default; logs
    // written before the field existed have no such line.
    if (rs.find("compute_model") != nullptr)
      os << "\n\nclock: " << str(rs, "comm_mode") << " comm, compute model "
         << str(rs, "compute_model");
    if (const Json* src = rs.find("config_source");
        src != nullptr && src->is_object()) {
      os << "\n\nconfig source:";
      for (const auto& member : src->members())
        os << " " << member.first << "=" << str(*src, member.first);
    }
  }
  os << "\n\n";
}

void section_summary(std::ostream& os, const RunData& run) {
  if (!run.result) return;
  const Json& r = *run.result;
  os << "## Run summary\n\n"
     << "- epochs run: " << fmt(num(r, "epochs_run", 0), 6) << ", iterations: "
     << fmt(num(r, "iterations", 0), 9) << "\n"
     << "- best metric: " << fmt(num(r, "best_metric", NAN)) << "\n";
  if (const Json* measured = r.find("measured_seconds");
      measured != nullptr && measured->is_object()) {
    os << "- modeled wall: " << fmt(num(r, "total_seconds", NAN))
       << "s (critical-path compute " << fmt(num(r, "compute_seconds", NAN))
       << "s, wire " << fmt(num(r, "comm_seconds", NAN)) << "s)\n"
       << "- measured CPU, not in the wall:";
    for (const auto& [stage, seconds] : measured->members())
      os << " " << stage << " " << fmt(num(*measured, stage, NAN)) << "s";
    os << "\n";
  } else {
    // Logs from before the one time base summed measured compute with
    // modeled wire seconds.
    os << "- simulated time (measured compute + modeled comm): "
       << fmt(num(r, "total_seconds", NAN)) << "s ("
       << fmt(num(r, "compute_seconds", NAN)) << " parallel-compute + "
       << fmt(num(r, "replicated_seconds", NAN)) << " replicated + "
       << fmt(num(r, "comm_seconds", NAN)) << " comm)\n";
  }
  os << "- wire: " << fmt(num(r, "total_wire_bytes", 0), 12) << " bytes over "
     << fmt(num(r, "total_messages", 0), 9) << " collectives\n";
  if (r.find("time_to_target") != nullptr)
    os << "- reached target in " << fmt(num(r, "time_to_target", NAN))
       << "s / " << fmt(num(r, "epochs_to_target", 0), 6) << " epochs\n";
  if (r.find("faults_injected") != nullptr)
    os << "- faults: " << fmt(num(r, "faults_injected", 0), 9)
       << " injected, " << fmt(num(r, "stale_refreshes", 0), 9)
       << " stale refreshes, final world "
       << fmt(num(r, "final_world", 0), 6) << "\n";
  os << "\n";
}

void section_epochs(std::ostream& os, const RunData& run) {
  if (run.epochs.empty()) return;
  os << "## Per-epoch\n\n"
     << "| epoch | train loss | train metric | test loss | test metric |"
     << " wall s | mode |\n|---|---|---|---|---|---|---|\n";
  for (const auto& e : run.epochs)
    os << "| " << fmt(e.epoch, 6) << " | " << fmt(e.train_loss) << " | "
       << fmt(e.train_metric) << " | " << fmt(e.test_loss) << " | "
       << fmt(e.test_metric) << " | " << fmt(e.wall) << " | " << e.mode
       << " |\n";
  os << "\n";
}

void section_switching(std::ostream& os, const RunData& run) {
  bool any = false;
  for (const auto& e : run.epochs) any = any || e.switching.has_value();
  if (!any) return;
  os << "## Switch-decision timeline\n\n"
     << "| epoch | mode | R | threshold | exceeded | lr decay | critical |"
     << " reason |\n|---|---|---|---|---|---|---|---|\n";
  for (const auto& e : run.epochs) {
    if (!e.switching) continue;
    const Json& sw = *e.switching;
    const Json* exceeded = sw.find("exceeded");
    const Json* lrd = sw.find("lr_decayed");
    const Json* crit = sw.find("critical");
    os << "| " << fmt(e.epoch, 6) << " | " << e.mode << " | "
       << fmt(num(sw, "R", NAN)) << " | " << fmt(num(sw, "threshold", NAN))
       << " | " << (exceeded != nullptr && exceeded->boolean() ? "yes" : "no")
       << " | " << (lrd != nullptr && lrd->boolean() ? "yes" : "no") << " | "
       << (crit != nullptr && crit->boolean() ? "yes" : "no") << " | "
       << str(sw, "reason") << " |\n";
  }
  os << "\n";
}

void section_health(std::ostream& os, const RunData& run) {
  if (run.health_records == 0 && !run.health_summary) return;
  os << "## Health rollup\n\n" << run.health_records
     << " probe record(s)";
  if (run.health_summary) {
    const Json& hs = *run.health_summary;
    os << "; worst condition estimate " << fmt(num(hs, "worst_cond", NAN))
       << ", " << fmt(num(hs, "total_nonfinite", 0), 9)
       << " non-finite value(s)";
  }
  os << "\n\n";
  if (!run.layers.empty()) {
    os << "| layer | max cond | min energy | max staleness | nonfinite |\n"
       << "|---|---|---|---|---|\n";
    for (const auto& [idx, roll] : run.layers)
      os << "| " << idx << " | " << fmt(roll.max_cond) << " | "
         << fmt(roll.min_energy) << " | " << fmt(roll.max_staleness, 6)
         << " | " << fmt(roll.nonfinite, 9) << " |\n";
    os << "\n";
  }
}

void section_alerts(std::ostream& os, const RunData& run) {
  os << "## Alerts\n\n";
  if (run.alerts.empty()) {
    os << "none fired\n\n";
    return;
  }
  std::map<std::string, long> by_rule;
  os << "| rule | severity | epoch | value | threshold | detail |\n"
     << "|---|---|---|---|---|---|\n";
  for (const Json& a : run.alerts) {
    by_rule[str(a, "rule")] += 1;
    os << "| " << str(a, "rule") << " | " << str(a, "severity") << " | "
       << fmt(num(a, "epoch", -1), 6) << " | " << fmt(num(a, "value", NAN))
       << " | " << fmt(num(a, "threshold", NAN)) << " | " << str(a, "detail")
       << " |\n";
  }
  os << "\nBy rule:";
  for (const auto& [rule, n] : by_rule) os << " " << rule << " x" << n << ";";
  os << "\n\n";
}

void section_recovery(std::ostream& os, const RunData& run) {
  // Rendered only when the run had the recovery engine armed: the trainer
  // writes a "recovery" policy block into run_start and a recovery_summary
  // at the end, and one "rollback" record per trigger in between.
  const Json* policy =
      run.run_start ? run.run_start->find("recovery") : nullptr;
  if (policy == nullptr && run.rollbacks.empty() && !run.recovery_summary &&
      !run.recovery_exhausted)
    return;
  os << "## Recovery\n\n";
  if (policy != nullptr)
    os << "policy: budget " << fmt(num(*policy, "max_rollbacks", 0), 6)
       << " rollback(s), first-order window "
       << fmt(num(*policy, "first_order_iters", 0), 6)
       << " iter(s), lr backoff x" << fmt(num(*policy, "lr_backoff", 1))
       << "\n\n";
  if (run.rollbacks.empty()) {
    os << "no rollbacks triggered\n";
  } else {
    os << "| # | trigger | epoch | iter | rung | first-order | lr cut |"
       << " budget left | target snapshot |\n"
       << "|---|---|---|---|---|---|---|---|---|\n";
    for (const Json& rb : run.rollbacks) {
      const Json* fo = rb.find("first_order");
      const Json* lr = rb.find("reduce_lr");
      os << "| " << fmt(num(rb, "rollbacks", 0), 6) << " | "
         << str(rb, "trigger") << " | " << fmt(num(rb, "epoch", -1), 6)
         << " | " << fmt(num(rb, "iter", -1), 6) << " | "
         << fmt(num(rb, "rung", 0), 6) << " | "
         << (fo != nullptr && fo->boolean() ? "yes" : "no") << " | "
         << (lr != nullptr && lr->boolean() ? "yes" : "no") << " | "
         << fmt(num(rb, "budget_left", 0), 6) << " | `"
         << str(rb, "target") << "` |\n";
    }
  }
  os << "\n";
  if (run.recovery_summary) {
    const Json& rs = *run.recovery_summary;
    os << "summary: " << fmt(num(rs, "rollbacks", 0), 6) << "/"
       << fmt(num(rs, "budget", 0), 6) << " budget consumed, "
       << fmt(num(rs, "rerun_iters", 0), 9) << " re-run iteration(s), "
       << fmt(num(rs, "guard_rejects", 0), 9) << " guard-rejected refresh(es)";
    if (const std::string lg = str(rs, "last_good"); !lg.empty())
      os << ", last verified-good snapshot `" << lg << "`";
    os << "\n\n";
  }
  // Per-method gate rollup from the counter dump: "optim/<m>/guard_rejects"
  // plus the detected/escaped split the gates were defending against.
  if (run.metrics) {
    if (const Json* counters = run.metrics->find("counters");
        counters != nullptr) {
      std::ostringstream by_method;
      for (const auto& [name, value] : counters->members()) {
        const std::string suffix = "/guard_rejects";
        if (name.rfind("optim/", 0) == 0 && name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0 &&
            value.to_double() > 0)
          by_method << " " << name.substr(6, name.size() - 6 - suffix.size())
                    << " x" << fmt(value.to_double(), 9) << ";";
      }
      if (!by_method.str().empty())
        os << "guard rejects by method:" << by_method.str() << "\n\n";
      const double detected = num(*counters, "comm/faults/sdc_detected", 0);
      const double escaped = num(*counters, "comm/faults/sdc_escaped", 0);
      if (detected > 0 || escaped > 0)
        os << "silent corruption: " << fmt(detected, 9)
           << " caught by the payload check, " << fmt(escaped, 9)
           << " escaped into payloads\n\n";
    }
  }
  if (run.recovery_exhausted) {
    const Json& re = *run.recovery_exhausted;
    os << "**recovery budget exhausted**: " << str(re, "trigger")
       << " fired at epoch " << fmt(num(re, "epoch", -1), 6) << " iter "
       << fmt(num(re, "iter", -1), 6) << " with "
       << fmt(num(re, "rollbacks", 0), 6) << "/"
       << fmt(num(re, "budget", 0), 6)
       << " rollback(s) already spent — the run could not self-heal\n\n";
  }
}

void section_time(std::ostream& os, const RunData& run) {
  if (!run.metrics) return;
  const Json* timings = run.metrics->find("timings");
  if (timings == nullptr || timings->size() == 0) return;
  os << "## Time breakdown\n\n| section | seconds | calls |\n|---|---|---|\n";
  for (const auto& [name, entry] : timings->members())
    os << "| " << name << " | " << fmt(num(entry, "seconds", NAN)) << " | "
       << fmt(num(entry, "calls", 0), 9) << " |\n";
  os << "\n";
}

void write_markdown(std::ostream& os, const RunData& run) {
  section_header(os, run);
  section_summary(os, run);
  section_epochs(os, run);
  section_switching(os, run);
  section_health(os, run);
  section_alerts(os, run);
  section_recovery(os, run);
  section_time(os, run);
}

void write_csv(std::ostream& os, const RunData& run) {
  os << "epoch,train_loss,train_metric,test_loss,test_metric,wall_seconds,"
        "mode\n";
  for (const auto& e : run.epochs)
    os << fmt(e.epoch, 6) << ',' << fmt(e.train_loss, 17) << ','
       << fmt(e.train_metric, 17) << ',' << fmt(e.test_loss, 17) << ','
       << fmt(e.test_metric, 17) << ',' << fmt(e.wall, 17) << ','
       << csv_escape(e.mode) << "\n";
}

// ---------------------------------------------------------- regression ----

struct Tolerances {
  double loss = 1e-6;    ///< absolute: train/test loss may rise this much
  double metric = 1e-6;  ///< absolute: test metric may drop this much
  double time = 0.10;    ///< relative: simulated seconds may grow this much
};

int diff_runs(std::ostream& os, const RunData& run, const RunData& base,
              const Tolerances& tol) {
  os << "## Regression diff vs `" << base.path << "`\n\n";
  long regressions = 0;
  const std::size_t n = std::min(run.epochs.size(), base.epochs.size());
  if (run.epochs.size() != base.epochs.size()) {
    os << "- epoch count differs: " << run.epochs.size() << " vs "
       << base.epochs.size() << " (comparing the first " << n << ")\n";
    ++regressions;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const EpochRow& a = run.epochs[i];
    const EpochRow& b = base.epochs[i];
    if (a.train_loss > b.train_loss + tol.loss ||
        a.test_loss > b.test_loss + tol.loss) {
      os << "- epoch " << fmt(a.epoch, 6) << ": loss regressed (train "
         << fmt(b.train_loss) << " -> " << fmt(a.train_loss) << ", test "
         << fmt(b.test_loss) << " -> " << fmt(a.test_loss) << ")\n";
      ++regressions;
    }
    if (a.test_metric < b.test_metric - tol.metric) {
      os << "- epoch " << fmt(a.epoch, 6) << ": test metric regressed ("
         << fmt(b.test_metric) << " -> " << fmt(a.test_metric) << ")\n";
      ++regressions;
    }
  }
  if (run.result && base.result) {
    const double t = num(*run.result, "total_seconds", NAN);
    const double tb = num(*base.result, "total_seconds", NAN);
    if (!std::isnan(t) && !std::isnan(tb) && tb > 0.0 &&
        t > tb * (1.0 + tol.time)) {
      os << "- simulated time regressed: " << fmt(tb) << "s -> " << fmt(t)
         << "s (tolerance " << fmt(tol.time * 100.0, 3) << "%)\n";
      ++regressions;
    }
  }
  const long crit_run = run.alerts.empty() ? 0 : [&] {
    long c = 0;
    for (const Json& a : run.alerts)
      if (str(a, "severity") == "critical") ++c;
    return c;
  }();
  long crit_base = 0;
  for (const Json& a : base.alerts)
    if (str(a, "severity") == "critical") ++crit_base;
  if (crit_run > crit_base) {
    os << "- critical alerts regressed: " << crit_base << " -> " << crit_run
       << "\n";
    ++regressions;
  }
  // Recovery is a last-resort mechanism: a run that needs more rollbacks
  // than its baseline (or newly spends its whole budget) got less healthy
  // even if every epoch it eventually produced looks fine.
  const long rb_run = static_cast<long>(run.rollbacks.size());
  const long rb_base = static_cast<long>(base.rollbacks.size());
  if (rb_run > rb_base) {
    os << "- recovery rollbacks regressed: " << rb_base << " -> " << rb_run
       << "\n";
    ++regressions;
  }
  if (run.recovery_exhausted && !base.recovery_exhausted) {
    os << "- recovery budget newly exhausted ("
       << str(*run.recovery_exhausted, "trigger") << " at epoch "
       << fmt(num(*run.recovery_exhausted, "epoch", -1), 6) << ")\n";
    ++regressions;
  }
  if (regressions == 0) {
    os << "no regressions (loss tol " << fmt(tol.loss, 3) << ", metric tol "
       << fmt(tol.metric, 3) << ", time tol " << fmt(tol.time * 100.0, 3)
       << "%)\n";
  } else {
    os << "\n**" << regressions << " regression(s)**\n";
  }
  os << "\n";
  return regressions == 0 ? 0 : 1;
}

void usage(std::ostream& os) {
  os << "usage: hylo_report RUN.jsonl [BASELINE.jsonl]\n"
        "       [--md FILE] [--csv FILE]\n"
        "       [--tol-loss X] [--tol-metric X] [--tol-time X]\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> logs;
  std::string md_path, csv_path;
  Tolerances tol;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage(std::cerr);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--md") md_path = value();
    else if (arg == "--csv") csv_path = value();
    else if (arg == "--tol-loss") tol.loss = std::stod(value());
    else if (arg == "--tol-metric") tol.metric = std::stod(value());
    else if (arg == "--tol-time") tol.time = std::stod(value());
    else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown option " << arg << "\n";
      usage(std::cerr);
      return 2;
    } else {
      logs.push_back(arg);
    }
  }
  if (logs.empty() || logs.size() > 2) {
    usage(std::cerr);
    return 2;
  }

  try {
    const RunData run = load(logs[0]);
    std::ostringstream report;
    write_markdown(report, run);
    int rc = 0;
    if (logs.size() == 2) {
      const RunData base = load(logs[1]);
      rc = diff_runs(report, run, base, tol);
    }
    if (!md_path.empty()) {
      std::ofstream out(md_path);
      if (!out) throw hylo::Error("cannot write " + md_path);
      out << report.str();
      std::cout << "report written to " << md_path << "\n";
    } else {
      std::cout << report.str();
    }
    if (!csv_path.empty()) {
      std::ofstream out(csv_path);
      if (!out) throw hylo::Error("cannot write " + csv_path);
      write_csv(out, run);
      std::cout << "csv written to " << csv_path << "\n";
    }
    return rc;
  } catch (const hylo::Error& e) {
    std::cerr << "hylo_report: " << e.what() << "\n";
    return 2;
  }
}
