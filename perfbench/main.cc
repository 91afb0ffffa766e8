// perfbench: the store benchmark's measuring program. perfbench/run.py
// builds and runs it; run it directly as
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --out-dir DIR --reference perfbench/exact_counts.txt
//
// It prints one line per metric and, as its last line, one JSON object
// with every end-to-end and per-layer metric, the op counts, the
// correctness verdict and the knobs. With --trace 1 it also writes the
// traced pass's spans to DIR/spans_<workload>.json.
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

extern char** environ;

namespace perfbench {

double sum_rows(const std::vector<fastreg::obs::sample>& rows,
                const std::string& base, const std::string& label) {
  double total = 0;
  for (const auto& r : rows) {
    const auto brace = r.name.find('{');
    if (r.name.substr(0, brace) != base) continue;
    if (!label.empty() && r.name.find(label, brace) == std::string::npos) {
      continue;
    }
    total += r.value;
  }
  return total;
}

double weighted_hist(const std::vector<fastreg::obs::sample>& rows,
                     const std::string& base, const std::string& suffix) {
  double weighted = 0;
  double weight = 0;
  for (const auto& r : rows) {
    const auto brace = r.name.find('{');
    const std::string name = r.name.substr(0, brace);
    if (name != base + suffix) continue;
    const std::string labels =
        brace == std::string::npos ? "" : r.name.substr(brace);
    for (const auto& c : rows) {
      if (c.name == base + "_count" + labels) {
        weighted += c.value * r.value;
        weight += c.value;
      }
    }
  }
  return weight == 0 ? 0 : weighted / weight;
}

void client_metrics(const std::vector<op_sample>& ops, std::uint64_t t0,
                    std::uint64_t t1, run_result& out) {
  const double seconds = static_cast<double>(t1 - t0) / 1e9;
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / k_slice_seconds)));
  // Per slice and op kind (get, put): latencies in microseconds.
  std::vector<std::array<std::vector<double>, 2>> us(n);
  for (const auto& op : ops) {
    if (op.t0 < t0 || op.t0 >= t1) continue;
    us[std::min<std::size_t>(n - 1, (op.t0 - t0) * n / (t1 - t0))][op.put]
        .push_back(static_cast<double>(op.t1 - op.t0) / 1e3);
  }
  std::vector<double> rate;
  std::array<std::vector<double>, 2> p50, p90, p99;
  std::array<std::size_t, 2> samples{0, 0}, least{SIZE_MAX, SIZE_MAX};
  for (auto& slice : us) {
    rate.push_back(static_cast<double>(slice[0].size() + slice[1].size()) *
                   static_cast<double>(n) / seconds);
    for (int k = 0; k < 2; ++k) {
      samples[k] += slice[k].size();
      least[k] = std::min(least[k], slice[k].size());
      p50[k].push_back(percentile(slice[k], 50));
      p90[k].push_back(percentile(slice[k], 90));
      p99[k].push_back(percentile(slice[k], 99));
    }
  }
  out.end_to_end["ops_per_s"] = {median(rate), "1/s"};
  out.notes["slices"] = std::to_string(n);
  for (int k = 0; k < 2; ++k) {
    const std::string name = k == 0 ? "get" : "put";
    out.end_to_end[name + "_p50_us"] = {median(p50[k]), "us"};
    out.notes[name + "_p90_us"] = std::to_string(median(p90[k]));
    out.notes[name + "_p99_us"] = std::to_string(median(p99[k]));
    out.notes[name + "_samples"] = std::to_string(samples[k]) +
                                   " (least per slice " +
                                   std::to_string(least[k]) + ")";
  }
}

bool write_catapult(const std::string& path, const std::vector<span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  bool first = true;
  for (const auto& s : spans) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
                 "\"parent\":%llu,\"op\":%llu}}",
                 first ? "" : ",\n", s.name, s.lane,
                 static_cast<double>(s.t0) / 1e3,
                 static_cast<double>(s.t1 - s.t0) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
    first = false;
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

namespace {

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::map<std::string, metric>& m) {
  std::string o = "{";
  for (const auto& [name, v] : m) {
    if (o.size() > 1) o += ",";
    o += json_str(name) + ":{\"value\":" + json_num(v.value) +
         ",\"unit\":" + json_str(v.unit) + "}";
  }
  return o + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload read_fast|saturate_abd|"
               "durable_mwmr --seed N --seconds S --trace 0|1\n"
               "                 --out-dir DIR --reference FILE "
               "[--git-sha SHA]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Every knob is pinned in code: refuse to run when an environment
  // variable could still change one (batch window, reactors, flush
  // budget, fsync policy, tracing, logging).
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "FASTREG_", 8) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      return 2;
    }
  }

  run_args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else if (k == "--reference") {
      a.reference_path = v;
    } else if (k == "--git-sha") {
      a.git_sha = v;
    } else {
      return usage(("unknown argument " + k).c_str());
    }
  }
  if (argc % 2 != 1) return usage("arguments come in pairs");
  if (!(a.seconds > 0)) return usage("--seconds must be positive");
  if (!is_workload(a.workload)) {
    return usage(("unknown workload '" + a.workload + "'").c_str());
  }

  run_result out;
  std::vector<span> spans;
  try {
    run_workload(a, out, spans);
    exact_count_gate(a, out, spans);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }

  if (a.trace) {
    const std::string path = a.out_dir + "/spans_" + a.workload + ".json";
    if (!write_catapult(path, spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    out.notes["spans_file"] = path;
    out.notes["spans"] = std::to_string(spans.size());
  }
  out.notes["git_sha"] = a.git_sha;
  out.notes["nproc"] = std::to_string(std::thread::hardware_concurrency());
  out.notes["build_type"] = PERFBENCH_BUILD_TYPE;
  out.notes["workload"] = a.workload;
  out.notes["seed"] = std::to_string(a.seed);
  out.notes["seconds"] = json_num(a.seconds);
  out.notes["failed_op_ratio"] = json_num(
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted));

  for (const auto* m : {&out.end_to_end, &out.per_layer}) {
    if (m == &out.per_layer && !a.trace) continue;
    for (const auto& [name, v] : *m) {
      std::printf("%-40s %16.4f %s\n", name.c_str(), v.value, v.unit.c_str());
    }
  }
  for (const auto& [k, v] : out.notes) {
    std::printf("# %s: %s\n", k.c_str(), v.c_str());
  }
  if (!out.correct) std::printf("# INCORRECT: %s\n", out.why.c_str());

  std::string notes = "{";
  for (const auto& [k, v] : out.notes) {
    if (notes.size() > 1) notes += ",";
    notes += json_str(k) + ":" + json_str(v);
  }
  notes += "}";
  std::printf(
      "{\"correct\":%s,\"why\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"end_to_end\":%s,\"per_layer\":%s,\"notes\":%s}\n",
      out.correct ? "true" : "false", json_str(out.why).c_str(),
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed),
      json_metrics(out.end_to_end).c_str(),
      json_metrics(a.trace ? out.per_layer : std::map<std::string, metric>{})
          .c_str(),
      notes.c_str());
  return 0;
}
