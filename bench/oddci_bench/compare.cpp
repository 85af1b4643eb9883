#include "compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "obs/json.hpp"
#include "util/stats.hpp"

namespace oddci_bench {

namespace json = oddci::obs::json;

namespace {

/// End-to-end bounds from BENCHMARK.json, by metric name.
std::map<std::string, double> read_bounds(const std::string& path) {
  const json::Value doc = json::parse(json::read_file(path));
  std::map<std::string, double> bounds;
  for (const json::Value& m :
       json::member(doc.as_object(), "end_to_end").as_array()) {
    const json::Object& obj = m.as_object();
    bounds[json::member(obj, "name").as_string()] =
        json::member(obj, "bound").as_double();
  }
  return bounds;
}

/// One `run --out` file: its seed and (workload, metric) -> value.
struct ResultFile {
  std::uint64_t seed = 0;
  std::map<std::pair<std::string, std::string>, double> values;
};

std::vector<ResultFile> read_set(const std::vector<std::string>& files) {
  std::vector<ResultFile> set;
  for (const std::string& file : files) {
    const json::Value doc = json::parse(json::read_file(file));
    ResultFile r;
    r.seed = json::member(doc.as_object(), "seed").as_u64();
    for (const auto& [workload, entry] :
         json::member(doc.as_object(), "workloads").as_object()) {
      for (const auto& [metric, m] :
           json::member(entry.as_object(), "metrics").as_object()) {
        r.values[{workload, metric}] =
            json::member(m.as_object(), "value").as_double();
      }
    }
    set.push_back(std::move(r));
  }
  return set;
}

double relative(double delta, double base) {
  if (base == 0.0) return delta == 0.0 ? 0.0 : INFINITY;
  return delta / std::fabs(base);
}

struct Row {
  oddci::util::Samples a;
  oddci::util::Samples b;
  double bound = 0.0;
  std::string verdict;
  std::string note;
};

/// Host measurement: the two sets' medians, unpaired. Unresolved when a
/// set's quartile spread is wider than the bound, unless every B run beats
/// every A run.
Row compare_host(const MetricDef& def, const std::vector<ResultFile>& a,
                 const std::vector<ResultFile>& b,
                 const std::pair<std::string, std::string>& key, double bound) {
  Row row;
  row.bound = bound;
  for (const ResultFile& f : a) {
    if (const auto it = f.values.find(key); it != f.values.end()) row.a.add(it->second);
  }
  for (const ResultFile& f : b) {
    if (const auto it = f.values.find(key); it != f.values.end()) row.b.add(it->second);
  }
  if (row.a.empty() || row.b.empty()) return row;
  const double ma = row.a.median();
  const double mb = row.b.median();
  const double sign = def.lower_is_better ? 1.0 : -1.0;
  const auto share = [&def](double delta, double base) {
    return def.absolute ? delta : relative(delta, base);
  };
  const double spread =
      std::max(share(row.a.percentile(75) - row.a.percentile(25), ma),
               share(row.b.percentile(75) - row.b.percentile(25), mb));
  const bool b_beats_every_a = def.lower_is_better ? row.b.max() < row.a.min()
                                                   : row.b.min() > row.a.max();
  if (spread > bound && !b_beats_every_a) {
    row.verdict = "unresolved";
  } else if (share(sign * (mb - ma), ma) > bound) {
    row.verdict = "regressed";
  } else {
    row.verdict = "ok";
  }
  return row;
}

/// Simulated outcome: exact for a seed, so only seeds present in both sets
/// are compared, each against itself. Unresolved when no seed is shared.
Row compare_sim(const MetricDef& def, const std::vector<ResultFile>& a,
                const std::vector<ResultFile>& b,
                const std::pair<std::string, std::string>& key) {
  const auto by_seed = [&key](const std::vector<ResultFile>& set) {
    std::map<std::uint64_t, double> values;
    for (const ResultFile& f : set) {
      if (const auto it = f.values.find(key); it != f.values.end()) {
        values.emplace(f.seed, it->second);
      }
    }
    return values;
  };
  const std::map<std::uint64_t, double> va = by_seed(a);
  const std::map<std::uint64_t, double> vb = by_seed(b);
  Row row;
  row.bound = kSameSeedBound;
  if (va.empty() || vb.empty()) return row;
  std::size_t paired = 0;
  std::size_t differ = 0;
  for (const auto& [seed, value] : va) {
    const auto it = vb.find(seed);
    if (it == vb.end()) continue;
    ++paired;
    row.a.add(value);
    row.b.add(it->second);
    if (it->second != value) ++differ;
  }
  if (paired == 0) {
    for (const auto& [seed, value] : va) row.a.add(value);
    for (const auto& [seed, value] : vb) row.b.add(value);
    row.verdict = "unresolved";
    row.note = "no seed in both sets";
    return row;
  }
  const double sign = def.lower_is_better ? 1.0 : -1.0;
  const double worse =
      relative(sign * (row.b.median() - row.a.median()), row.a.median());
  row.verdict = worse > kSameSeedBound ? "regressed" : "ok";
  row.note = std::to_string(differ) + "/" + std::to_string(paired) +
             " seeds differ";
  return row;
}

void print_row(const std::string& workload, const MetricDef& def, const Row& row) {
  const auto stats = [](const oddci::util::Samples& xs, char* buf, std::size_t n) {
    std::snprintf(buf, n, "%12.6g [%.4g, %.4g] (%zu)", xs.median(),
                  xs.percentile(25), xs.percentile(75), xs.count());
  };
  char a[96];
  char b[96];
  stats(row.a, a, sizeof(a));
  stats(row.b, b, sizeof(b));
  const double delta = row.b.median() - row.a.median();
  const double change = def.absolute ? delta : relative(delta, row.a.median());
  std::string note = row.note;
  if (!def.layer.empty()) {
    if (!note.empty()) note += "; ";
    note += std::string(def.layer) + " -> " + std::string(def.moves);
  }
  std::printf("%-20s %-40s %-38s %-38s %+8.2f%% %5.1f%%  %-10s %s\n",
              workload.c_str(), std::string(def.name).c_str(), a, b,
              100.0 * change, 100.0 * row.bound, row.verdict.c_str(), note.c_str());
}

}  // namespace

int compare_main(int argc, char** argv) {
  std::string bench = "BENCHMARK.json";
  std::vector<std::string> a_files;
  std::vector<std::string> b_files;
  bool second = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bench" && i + 1 < argc) {
      bench = argv[++i];
    } else if (arg == "--") {
      second = true;
    } else {
      (second ? b_files : a_files).push_back(arg);
    }
  }
  if (a_files.empty() || b_files.empty()) {
    std::fprintf(stderr,
                 "usage: oddci_bench compare [--bench BENCHMARK.json] "
                 "A.json... -- B.json...\n");
    return 2;
  }

  const std::map<std::string, double> bounds = read_bounds(bench);
  const std::vector<ResultFile> a = read_set(a_files);
  const std::vector<ResultFile> b = read_set(b_files);
  std::set<std::string> workloads;
  for (const ResultFile& f : a) {
    for (const auto& [key, value] : f.values) workloads.insert(key.first);
  }

  std::printf("%-20s %-40s %-38s %-38s %9s %6s  %-10s %s\n", "workload", "metric",
              "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change",
              "bound", "verdict", "notes");
  int regressed = 0;
  int unresolved = 0;
  const auto judge = [&](const std::string& workload, const MetricDef& def,
                         bool end_to_end) {
    const std::pair<std::string, std::string> key{workload, std::string(def.name)};
    Row row;
    if (def.source == Source::kSim) {
      row = compare_sim(def, a, b, key);
    } else {
      const auto it = bounds.find(key.second);
      const double bound =
          end_to_end && it != bounds.end() ? it->second : kLayerHostBound;
      row = compare_host(def, a, b, key, bound);
    }
    if (row.verdict.empty()) return;  // not measured in both sets
    regressed += row.verdict == "regressed";
    unresolved += row.verdict == "unresolved";
    print_row(workload, def, row);
  };
  for (const std::string& workload : workloads) {
    for (const MetricDef& def : kEndToEnd) judge(workload, def, true);
  }
  for (const std::string& workload : workloads) {
    for (const MetricDef& def : kPerLayer) judge(workload, def, false);
  }
  std::printf("\n%d regressed, %d unresolved\n", regressed, unresolved);
  return regressed > 0 ? 1 : 0;
}

}  // namespace oddci_bench
