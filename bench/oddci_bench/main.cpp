// oddci_bench — end-to-end and per-layer benchmark of the OddCI simulator.
//
//   oddci_bench run [--seed S] [--workload W]... [--seconds T] [--quick]
//                   [--trace] [--trace-dir D] [--out results.json]
//   oddci_bench compare [--bench BENCHMARK.json] A.json... -- B.json...
//
// `run` measures each workload as a closed loop with one client: one
// simulation at a time, each in its own child process (`--one`, below) so
// RSS and allocator state start clean. A run simulates the workload's
// seeded inputs, at least its fixed number of them and more until
// --seconds of wall time have passed, prints every metric as
// `workload metric value unit`, and exits nonzero when a correctness check
// fails. See README.md.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_metrics.hpp"
#include "compare.hpp"
#include "metrics.hpp"
#include "obs/json.hpp"
#include "probes.hpp"
#include "simulate.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

extern char** environ;

namespace oddci_bench {
namespace {

using Clock = std::chrono::steady_clock;
namespace util = oddci::util;

/// Inputs a --trace run simulates again with tracing on.
constexpr std::size_t kTracedInputs = 3;

struct RunOptions {
  std::uint64_t seed = 1;
  std::vector<std::string> workloads;
  double seconds = 0.0;
  /// --quick: the smoke test's 1/100-size workloads, one input each.
  bool quick = false;
  bool trace = false;
  std::string trace_dir = ".";
  std::string out;
};

struct Stat {
  double value = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

Stat summarize(const util::Samples& xs, bool use_mean) {
  return Stat{use_mean ? xs.mean() : xs.median(), xs.percentile(25.0),
              xs.percentile(75.0), xs.count()};
}

/// Run this executable with `args` in a child process, wait for it to end,
/// and return its stdout. Throws when the child fails.
std::string run_child(std::vector<std::string> args) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::string self = "/proc/self/exe";
  std::vector<char*> argv = {self.data()};
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, self.c_str(), &actions, nullptr, argv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    throw std::runtime_error(std::string("posix_spawn: ") + std::strerror(rc));
  }
  std::string output;
  char buf[4096];
  ssize_t got = 0;
  while ((got = read(fds[0], buf, sizeof(buf))) != 0) {
    if (got < 0) {
      if (errno == EINTR) continue;
      break;
    }
    output.append(buf, static_cast<std::size_t>(got));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::string command = "oddci_bench";
    for (const std::string& a : args) command += " " + a;
    throw std::runtime_error("child failed: " + command);
  }
  return output;
}

Sample simulate_in_child(const std::string& name, std::uint64_t seed,
                         bool quick, bool traced, const std::string& trace_dir) {
  std::vector<std::string> args = {"--one", name, "--seed", std::to_string(seed)};
  if (quick) args.emplace_back("--quick");
  if (traced) {
    args.emplace_back("--traced");
    args.emplace_back("--trace-dir");
    args.push_back(trace_dir);
  }
  return sample_from_json(run_child(std::move(args)));
}

/// First simulated outcome where `b` differs from `a`, or "" if none.
std::string first_difference(const Sample& a, const Sample& b) {
  for (const auto& [name, value] : a.sim) {
    const auto it = b.sim.find(name);
    if (it == b.sim.end()) return name + " missing";
    if (it->second != value) {
      return name + ": " + std::to_string(value) + " vs " +
             std::to_string(it->second);
    }
  }
  return a.sim.size() == b.sim.size() ? "" : "metric sets differ";
}

struct WorkloadResult {
  std::string name;
  std::size_t receivers = 0;
  std::size_t inputs = 0;
  std::size_t samples = 0;
  std::map<std::string, Stat> metrics;
  std::vector<std::string> failures;
  double attempted = 0.0;
  double failed = 0.0;
};

WorkloadResult measure(const std::string& name, const RunOptions& opt,
                       const std::vector<std::pair<std::string, double>>& probes) {
  const Workload shape = make_workload(name, 0, opt.quick);
  WorkloadResult r;
  r.name = name;
  r.receivers = shape.config.receivers;
  r.inputs = shape.inputs;

  // Untraced simulations, each of its own input: the workload's fixed
  // inputs, then further ones while the next is expected to end within
  // --seconds. Only the fixed inputs feed the simulated outcomes, which so
  // stay the same whatever the host's speed; every simulation is a sample
  // of the host measurements.
  std::vector<Sample> untraced;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const Clock::time_point sample_start = Clock::now();
    untraced.push_back(simulate_in_child(name, input_seed(name, opt.seed, i),
                                         opt.quick, false, ""));
    const Clock::time_point now = Clock::now();
    if (i + 1 >= r.inputs &&
        std::chrono::duration<double>((now - start) + (now - sample_start))
                .count() > opt.seconds) {
      break;
    }
  }
  r.samples = untraced.size();
  // Traced: the first inputs again, each compared with its untraced run.
  std::vector<Sample> traced;
  if (opt.trace) {
    for (std::size_t i = 0; i < std::min(r.inputs, kTracedInputs); ++i) {
      traced.push_back(simulate_in_child(name, input_seed(name, opt.seed, i),
                                         opt.quick, true,
                                         i == 0 ? opt.trace_dir : ""));
    }
  }

  // Correctness: every check inside each simulation, and traced runs
  // reproducing their untraced run's simulated outcomes exactly.
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    const std::string where = name + " input " + std::to_string(i) + ": ";
    for (const std::string& f : untraced[i].failures) r.failures.push_back(where + f);
    if (i < traced.size()) {
      for (const std::string& f : traced[i].failures) {
        r.failures.push_back(where + "traced: " + f);
      }
      if (const std::string d = first_difference(untraced[i], traced[i]);
          !d.empty()) {
        r.failures.push_back(where + "traced run diverged at " + d);
      }
    }
  }

  // Simulated outcomes: mean over the fixed inputs. Host measurements:
  // median over every untraced simulation, or every traced one for
  // traced-only metrics.
  std::map<std::string, util::Samples> sim;
  std::map<std::string, util::Samples> wall;
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    const Sample& s = untraced[i];
    const double tasks = s.sim.at("tasks");
    const double undone = tasks - s.sim.at("backend.tasks_done");
    if (i < r.inputs) {
      for (const auto& [metric, value] : s.sim) sim[metric].add(value);
      sim["task_fail_frac"].add(undone / tasks);
      sim["wrong_result_frac"].add(s.sim.at("wrong_results") / tasks);
    }
    for (const auto& [metric, value] : s.wall) wall[metric].add(value);
    r.attempted += tasks;
    r.failed += undone + s.sim.at("wrong_results");
  }
  util::Samples overhead;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    for (const auto& [metric, value] : traced[i].wall) {
      if (!untraced[i].wall.contains(metric)) wall[metric].add(value);
    }
    overhead.add(traced[i].wall.at("run_wall_s") / untraced[i].wall.at("run_wall_s") -
                 1.0);
  }
  for (const auto& [metric, xs] : sim) r.metrics[metric] = summarize(xs, true);
  for (const auto& [metric, xs] : wall) r.metrics[metric] = summarize(xs, false);
  if (opt.trace) {
    r.metrics["obs.trace_overhead_frac"] = summarize(overhead, false);
    for (const auto& [metric, ns] : probes) r.metrics[metric] = Stat{ns, ns, ns, 1};
  }
  return r;
}

std::string results_json(const RunOptions& opt,
                         const std::vector<WorkloadResult>& results) {
  using namespace oddci::obs::json;
  bool correct = true;
  double attempted = 0.0;
  double failed = 0.0;
  std::string failures;
  for (const WorkloadResult& r : results) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& f : r.failures) {
      correct = false;
      if (!failures.empty()) failures += ',';
      append_string(failures, f);
    }
  }
  std::string out = "{\"schema\":\"oddci.bench.v1\",\"host\":";
  out += oddci::bench::host_json();
  out += ",\"seed\":";
  append_u64(out, opt.seed);
  out += ",\"quick\":";
  out += opt.quick ? "true" : "false";
  out += ",\"seconds\":";
  append_double(out, opt.seconds);
  out += ",\"trace\":";
  out += opt.trace ? "true" : "false";
  out += ",\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":";
  append_u64(out, static_cast<std::uint64_t>(attempted));
  out += ",\"failed\":";
  append_u64(out, static_cast<std::uint64_t>(failed));
  out += ",\"failures\":[" + failures + "],\"workloads\":{";
  for (std::size_t w = 0; w < results.size(); ++w) {
    const WorkloadResult& r = results[w];
    if (w > 0) out += ',';
    append_string(out, r.name);
    out += ":{\"receivers\":";
    append_u64(out, r.receivers);
    out += ",\"inputs\":";
    append_u64(out, r.inputs);
    out += ",\"samples\":";
    append_u64(out, r.samples);
    out += ",\"metrics\":{";
    bool first = true;
    const auto emit = [&](const MetricDef& def) {
      const auto it = r.metrics.find(std::string(def.name));
      if (it == r.metrics.end()) return;
      if (!first) out += ',';
      first = false;
      append_string(out, def.name);
      out += ":{\"value\":";
      append_double(out, it->second.value);
      out += ",\"unit\":";
      append_string(out, def.unit);
      out += ",\"better\":";
      append_string(out, def.lower_is_better ? "lower" : "higher");
      out += ",\"q1\":";
      append_double(out, it->second.q1);
      out += ",\"q3\":";
      append_double(out, it->second.q3);
      out += ",\"n\":";
      append_u64(out, it->second.n);
      out += '}';
    };
    for (const MetricDef& def : kEndToEnd) emit(def);
    if (opt.trace) {
      for (const MetricDef& def : kPerLayer) emit(def);
    }
    out += "}}";
  }
  out += "}}\n";
  return out;
}

void print_lines(const RunOptions& opt, const WorkloadResult& r) {
  const auto line = [&](const MetricDef& def) {
    const auto it = r.metrics.find(std::string(def.name));
    if (it == r.metrics.end()) {
      throw std::logic_error("metric not measured: " + std::string(def.name));
    }
    std::printf("%s %s %.10g %s\n", r.name.c_str(), std::string(def.name).c_str(),
                it->second.value, std::string(def.unit).c_str());
  };
  for (const MetricDef& def : kEndToEnd) line(def);
  if (opt.trace) {
    for (const MetricDef& def : kPerLayer) line(def);
  }
  std::printf("%s samples %zu count\n", r.name.c_str(), r.samples);
  std::fflush(stdout);
}

[[noreturn]] void usage() {
  std::cerr << "usage: oddci_bench run [--seed S] [--workload W]... "
               "[--seconds T] [--quick] [--trace] "
               "[--trace-dir D] [--out FILE]\n"
               "       oddci_bench compare [--bench BENCHMARK.json] "
               "A.json... -- B.json...\n";
  std::exit(2);
}

int run_main(int argc, char** argv) {
  RunOptions opt;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--workload") {
      opt.workloads.push_back(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--trace-dir") {
      opt.trace_dir = value();
    } else if (arg == "--out") {
      opt.out = value();
    } else {
      usage();
    }
  }
  if (opt.workloads.empty()) opt.workloads = workload_names();
  for (const std::string& name : opt.workloads) {
    (void)make_workload(name, 0, opt.quick);  // reject unknown names early
  }

  if (opt.trace) std::filesystem::create_directories(opt.trace_dir);
  const auto probes = opt.trace ? run_probes()
                                : std::vector<std::pair<std::string, double>>{};
  std::vector<WorkloadResult> results;
  bool correct = true;
  for (const std::string& name : opt.workloads) {
    results.push_back(measure(name, opt, probes));
    print_lines(opt, results.back());
    for (const std::string& f : results.back().failures) {
      correct = false;
      std::cerr << "CHECK FAILED: " << f << "\n";
    }
  }
  if (!opt.out.empty()) {
    oddci::obs::json::write_file(opt.out, results_json(opt, results));
  }
  return correct ? 0 : 1;
}

/// Child mode: one simulation, its Sample as JSON on stdout.
int one_main(int argc, char** argv) {
  std::string name = argv[2];
  std::uint64_t seed = 0;
  bool quick = false;
  bool traced = false;
  std::string trace_dir;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      seed = std::stoull(argv[++i]);
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--traced") {
      traced = true;
    } else if (arg == "--trace-dir" && i + 1 < argc) {
      trace_dir = argv[++i];
    } else {
      usage();
    }
  }
  const Sample sample = simulate(make_workload(name, seed, quick), traced, trace_dir);
  std::cout << to_json(sample) << std::endl;
  return 0;
}

}  // namespace
}  // namespace oddci_bench

int main(int argc, char** argv) {
  using namespace oddci_bench;
  if (argc < 2) usage();
  const std::string command = argv[1];
  try {
    if (command == "run") return run_main(argc, argv);
    if (command == "compare") return compare_main(argc, argv);
    if (command == "--one" && argc >= 3) return one_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "oddci_bench: " << e.what() << "\n";
    return 2;
  }
  usage();
}
