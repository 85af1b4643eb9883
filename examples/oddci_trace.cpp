// oddci_trace: inspector for Chrome-trace exports written by the causal
// flight recorder (obs::write_chrome_trace / quickstart's fifth argument).
//
// Usage:
//   oddci_trace validate <trace.json>
//       Strictly parse the file as an oddci.trace.v1 Chrome trace; print a
//       one-line inventory. Exit 0 iff the file is well formed.
//   oddci_trace summary <trace.json | metrics.json>
//       Event counts per kind and per component, distinct causal chains,
//       covered sim-time range. Given an oddci.metrics.v1 snapshot instead,
//       prints the histograms as quantile summaries (count/mean/p50/p90/
//       p99/max) rather than raw bucket dumps.
//   oddci_trace timeline <trace.json> <trace_id>
//       Chronological hops of one causal chain (as printed by summary or
//       carried in the export's args.trace field).
//   oddci_trace funnel <trace.json>
//       Per-instance join funnel: control receipts -> probability gate ->
//       image acquisitions -> confirmed members (plus drops and resets).
//   oddci_trace slowest <trace.json> [N]
//       The N slowest confirmed wakeups (wakeup.accepted ->
//       member.joined), decomposed into acquire and confirm phases.
//   oddci_trace profile <run.profile.json> [trace.json]
//       Bottleneck report from an oddci.profile.v1 kernel profile: phase
//       wall shares, slowest shard, barrier-stall fraction, window
//       utilization, mailbox depth and each shard's event and timer slab
//       chunks (high-water marks); an optional flight-recorder trace
//       is merged in as a per-component event overlay.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_export.hpp"
#include "util/table.hpp"

namespace {

using oddci::obs::TraceComponent;
using oddci::obs::TraceEvent;
using oddci::obs::TraceEventKind;

double seconds(const TraceEvent& e) {
  return static_cast<double>(e.t_micros) / 1e6;
}

using SpanIndex = std::unordered_map<std::uint64_t, const TraceEvent*>;

SpanIndex index_by_span(const std::vector<TraceEvent>& events) {
  SpanIndex out;
  out.reserve(events.size());
  for (const TraceEvent& e : events) out.emplace(e.span_id, &e);
  return out;
}

/// Nearest ancestor of `e` with the given kind, or nullptr when the chain
/// leaves the retained window (the ring overwrote it) or has no such hop.
const TraceEvent* ancestor_of_kind(const TraceEvent& e, TraceEventKind kind,
                                   const SpanIndex& spans) {
  const TraceEvent* cur = &e;
  // The parent chain is acyclic by construction (span ids are allocated
  // monotonically); the bound guards against corrupted input files.
  for (int depth = 0; depth < 64; ++depth) {
    if (cur->parent_span == 0) return nullptr;
    const auto it = spans.find(cur->parent_span);
    if (it == spans.end()) return nullptr;
    cur = it->second;
    if (cur->kind == kind) return cur;
  }
  return nullptr;
}

int cmd_validate(const std::string& path) {
  const std::vector<TraceEvent> events = oddci::obs::read_chrome_trace(path);
  std::set<std::uint64_t> traces;
  std::int64_t t_min = events.empty() ? 0 : events.front().t_micros;
  std::int64_t t_max = t_min;
  for (const TraceEvent& e : events) {
    traces.insert(e.trace_id);
    t_min = std::min(t_min, e.t_micros);
    t_max = std::max(t_max, e.t_micros);
  }
  std::cout << path << ": valid " << oddci::obs::kTraceSchema << ", "
            << events.size() << " events, " << traces.size()
            << " causal chains";
  if (!events.empty()) {
    std::cout << ", t = [" << static_cast<double>(t_min) / 1e6 << ", "
              << static_cast<double>(t_max) / 1e6 << "] s";
  }
  std::cout << "\n";
  return 0;
}

int cmd_summary(const std::vector<TraceEvent>& events) {
  std::map<TraceEventKind, std::uint64_t> by_kind;
  std::map<TraceComponent, std::uint64_t> by_component;
  std::set<std::uint64_t> traces;
  for (const TraceEvent& e : events) {
    ++by_kind[e.kind];
    ++by_component[e.component];
    traces.insert(e.trace_id);
  }

  oddci::util::Table kinds({"event", "count"});
  for (const auto& [kind, count] : by_kind) {
    kinds.add_row({std::string(to_string(kind)),
                   oddci::util::Table::fmt_int(static_cast<long long>(count))});
  }
  oddci::util::Table components({"component", "count"});
  for (const auto& [component, count] : by_component) {
    components.add_row(
        {std::string(to_string(component)),
         oddci::util::Table::fmt_int(static_cast<long long>(count))});
  }

  std::cout << events.size() << " events across " << traces.size()
            << " causal chains\n\n";
  kinds.print(std::cout);
  std::cout << "\n";
  components.print(std::cout);
  if (!events.empty()) {
    std::cout << "\nsim time covered: " << seconds(events.front()) << " .. "
              << seconds(events.back()) << " s\n";
  }
  return 0;
}

int cmd_timeline(const std::vector<TraceEvent>& events,
                 std::uint64_t trace_id) {
  oddci::util::Table table(
      {"t (s)", "component", "event", "actor", "arg", "span", "parent"});
  for (const TraceEvent& e : events) {
    if (e.trace_id != trace_id) continue;
    table.add_row({oddci::util::Table::fmt(seconds(e), 6),
                   std::string(to_string(e.component)),
                   std::string(to_string(e.kind)), std::to_string(e.actor),
                   std::to_string(e.arg), std::to_string(e.span_id),
                   std::to_string(e.parent_span)});
  }
  if (table.rows() == 0) {
    std::cerr << "no events with trace id " << trace_id << "\n";
    return 1;
  }
  std::cout << "trace " << trace_id << ":\n";
  table.print(std::cout);
  return 0;
}

int cmd_funnel(const std::vector<TraceEvent>& events) {
  struct Funnel {
    std::uint64_t received = 0, accepted = 0, dropped_busy = 0,
                  dropped_probability = 0, rejected = 0, acquired = 0,
                  aborted = 0, joined = 0, pruned = 0, resets = 0;
  };
  // These kinds all carry the instance id in `arg` (see the enum docs).
  std::map<std::uint64_t, Funnel> by_instance;
  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case TraceEventKind::kControlReceived:
        ++by_instance[e.arg].received;
        break;
      case TraceEventKind::kWakeupAccepted:
        ++by_instance[e.arg].accepted;
        break;
      case TraceEventKind::kWakeupDroppedBusy:
        ++by_instance[e.arg].dropped_busy;
        break;
      case TraceEventKind::kWakeupDroppedProbability:
        ++by_instance[e.arg].dropped_probability;
        break;
      case TraceEventKind::kWakeupRejectedRequirements:
        ++by_instance[e.arg].rejected;
        break;
      case TraceEventKind::kImageAcquired:
        ++by_instance[e.arg].acquired;
        break;
      case TraceEventKind::kJoinAborted:
        ++by_instance[e.arg].aborted;
        break;
      case TraceEventKind::kMemberJoined:
        ++by_instance[e.arg].joined;
        break;
      case TraceEventKind::kMemberPruned:
        ++by_instance[e.arg].pruned;
        break;
      case TraceEventKind::kResetApplied:
        ++by_instance[e.arg].resets;
        break;
      default:
        break;
    }
  }
  if (by_instance.empty()) {
    std::cerr << "no join-funnel events in this trace\n";
    return 1;
  }
  oddci::util::Table table({"instance", "received", "p-drop", "busy-drop",
                            "rejected", "accepted", "acquired", "aborted",
                            "joined", "pruned", "resets"});
  const auto fmt = [](std::uint64_t v) {
    return oddci::util::Table::fmt_int(static_cast<long long>(v));
  };
  for (const auto& [instance, f] : by_instance) {
    table.add_row({std::to_string(instance), fmt(f.received),
                   fmt(f.dropped_probability), fmt(f.dropped_busy),
                   fmt(f.rejected), fmt(f.accepted), fmt(f.acquired),
                   fmt(f.aborted), fmt(f.joined), fmt(f.pruned),
                   fmt(f.resets)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_slowest(const std::vector<TraceEvent>& events, std::size_t n) {
  const SpanIndex spans = index_by_span(events);
  struct Wakeup {
    double total, acquire, confirm;
    std::uint64_t pna, instance;
  };
  std::vector<Wakeup> wakeups;
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEventKind::kMemberJoined) continue;
    const TraceEvent* accepted =
        ancestor_of_kind(e, TraceEventKind::kWakeupAccepted, spans);
    if (accepted == nullptr) continue;  // chain left the ring
    const TraceEvent* acquired =
        ancestor_of_kind(e, TraceEventKind::kImageAcquired, spans);
    const double t_accept = seconds(*accepted);
    const double t_acquire =
        acquired != nullptr ? seconds(*acquired) : seconds(e);
    wakeups.push_back({seconds(e) - t_accept, t_acquire - t_accept,
                       seconds(e) - t_acquire, accepted->actor, e.arg});
  }
  if (wakeups.empty()) {
    std::cerr << "no confirmed wakeups (wakeup.accepted -> member.joined) "
                 "in this trace\n";
    return 1;
  }
  std::stable_sort(wakeups.begin(), wakeups.end(),
                   [](const Wakeup& a, const Wakeup& b) {
                     return a.total > b.total;
                   });
  if (wakeups.size() > n) wakeups.resize(n);

  oddci::util::Table table({"pna", "instance", "wakeup (s)", "acquire (s)",
                            "confirm (s)"});
  for (const Wakeup& w : wakeups) {
    table.add_row({std::to_string(w.pna), std::to_string(w.instance),
                   oddci::util::Table::fmt(w.total, 3),
                   oddci::util::Table::fmt(w.acquire, 3),
                   oddci::util::Table::fmt(w.confirm, 3)});
  }
  std::cout << wakeups.size() << " slowest confirmed wakeups:\n";
  table.print(std::cout);
  return 0;
}

/// First bytes of `path`, for schema sniffing (the JSON exports all carry
/// a leading "schema" member).
std::string file_head(const std::string& path) {
  std::ifstream in(path);
  std::string head(256, '\0');
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  head.resize(static_cast<std::size_t>(std::max<std::streamsize>(
      0, in.gcount())));
  return head;
}

int cmd_metrics_summary(const oddci::obs::MetricsSnapshot& snap) {
  using oddci::util::Table;
  std::cout << "metrics snapshot at t = " << snap.taken_at_seconds << " s: "
            << snap.counters.size() << " counters, " << snap.gauges.size()
            << " gauges, " << snap.histograms.size() << " histograms, "
            << snap.series.size() << " series, " << snap.spans.size()
            << " spans\n";
  if (snap.histograms.empty()) return 0;
  Table table({"histogram", "count", "mean", "p50", "p90", "p99", "max"});
  for (const auto& h : snap.histograms) {
    const double mean =
        h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
    table.add_row(
        {h.name, Table::fmt_int(static_cast<long long>(h.count)),
         Table::fmt(mean, 6),
         Table::fmt(oddci::obs::histogram_quantile(h, 0.50), 6),
         Table::fmt(oddci::obs::histogram_quantile(h, 0.90), 6),
         Table::fmt(oddci::obs::histogram_quantile(h, 0.99), 6),
         Table::fmt(h.max, 6)});
  }
  std::cout << "\n";
  table.print(std::cout);
  return 0;
}

int cmd_profile(const std::string& path, const char* trace_path) {
  using oddci::util::Table;
  const oddci::obs::ProfileSnapshot p = oddci::obs::read_profile_json(path);
  const double exec = p.execute_seconds_total();
  const double barrier = p.barrier_seconds_total();
  const double accounted = exec + barrier + p.drain_seconds + p.global_seconds;

  std::cout << path << ": " << p.shards << " shard(s), "
            << p.sim_seconds << " sim-s in " << p.run_wall_seconds
            << " wall-s";
  if (p.run_wall_seconds > 0.0) {
    std::cout << " (" << Table::fmt(p.sim_seconds / p.run_wall_seconds, 1)
              << "x real time)";
  }
  std::cout << " over " << p.runs << " run(s)\n\n";

  // Top phases by wall share (of the phase-accounted total, which spans
  // all shards — at K > 1 it can exceed the coordinator's run wall).
  struct Phase {
    const char* name;
    double seconds;
  };
  std::vector<Phase> phases{{"execute", exec},
                            {"barrier-wait", barrier},
                            {"mailbox-drain", p.drain_seconds},
                            {"global-tasks", p.global_seconds}};
  std::stable_sort(phases.begin(), phases.end(),
                   [](const Phase& a, const Phase& b) {
                     return a.seconds > b.seconds;
                   });
  Table phase_table({"phase", "wall (s)", "share"});
  for (const Phase& ph : phases) {
    phase_table.add_row(
        {ph.name, Table::fmt(ph.seconds, 3),
         accounted > 0.0
             ? Table::fmt(100.0 * ph.seconds / accounted, 1) + "%"
             : "-"});
  }
  phase_table.print(std::cout);

  if (p.windows > 0) {
    const double worker_wall =
        static_cast<double>(p.shards) * p.window_span_seconds;
    std::cout << "\nwindows: " << p.windows << " spanning "
              << Table::fmt(p.window_span_seconds, 3)
              << " wall-s, utilization "
              << Table::fmt(p.utilization_mean, 3) << ", imbalance "
              << Table::fmt(p.imbalance_mean, 2) << " mean / "
              << Table::fmt(p.imbalance_max, 2) << " max\n"
              << "barrier stall: "
              << (worker_wall > 0.0
                      ? Table::fmt(100.0 * barrier / worker_wall, 1) + "%"
                      : std::string("-"))
              << " of worker window time\n"
              << "mailbox: " << p.mail_items << " items over "
              << p.drain_calls << " drains (max " << p.mail_items_max
              << " per drain), " << p.cross_posts << " cross posts, "
              << p.clamped_posts << " clamped\n";
  }

  if (!p.per_shard.empty()) {
    Table shard_table({"shard", "execute (s)", "calls", "barrier (s)",
                       "executed", "pending", "event chunks"});
    std::size_t slowest = 0;
    for (std::size_t s = 0; s < p.per_shard.size(); ++s) {
      const auto& sh = p.per_shard[s];
      if (sh.execute_seconds > p.per_shard[slowest].execute_seconds) {
        slowest = s;
      }
      shard_table.add_row(
          {std::to_string(s), Table::fmt(sh.execute_seconds, 3),
           Table::fmt_int(static_cast<long long>(sh.execute_calls)),
           Table::fmt(sh.barrier_seconds, 3),
           Table::fmt_int(static_cast<long long>(sh.events_executed)),
           Table::fmt_int(static_cast<long long>(sh.events_pending)),
           Table::fmt_int(static_cast<long long>(sh.event_chunks))});
    }
    std::cout << "\n";
    shard_table.print(std::cout);
    if (p.per_shard.size() > 1 && exec > 0.0) {
      std::cout << "slowest shard: " << slowest << " ("
                << Table::fmt(
                       100.0 * p.per_shard[slowest].execute_seconds / exec, 1)
                << "% of execute time)\n";
    }
  }

  if (trace_path != nullptr) {
    // Flight-recorder overlay: what the sim was doing while the kernel
    // burned that wall time.
    const std::vector<TraceEvent> events =
        oddci::obs::read_chrome_trace(trace_path);
    std::map<TraceComponent, std::uint64_t> by_component;
    for (const TraceEvent& e : events) ++by_component[e.component];
    Table overlay({"component", "events"});
    for (const auto& [component, count] : by_component) {
      overlay.add_row({std::string(to_string(component)),
                       Table::fmt_int(static_cast<long long>(count))});
    }
    std::cout << "\ntrace overlay (" << trace_path << ", " << events.size()
              << " events):\n";
    overlay.print(std::cout);
  }
  return 0;
}

int usage() {
  std::cerr
      << "usage: oddci_trace <command> <trace.json> [args]\n"
         "  validate <trace.json>             strict parse, inventory line\n"
         "  summary  <trace.json>             counts per kind/component\n"
         "  timeline <trace.json> <trace_id>  hops of one causal chain\n"
         "  funnel   <trace.json>             per-instance join funnel\n"
         "  slowest  <trace.json> [N]         N slowest wakeups (default "
         "10)\n"
         "  profile  <run.profile.json> [trace.json]\n"
         "                                    kernel bottleneck report\n"
         "\n"
         "summary also accepts an oddci.metrics.v1 snapshot and prints\n"
         "histogram quantile summaries.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const std::string path = argv[2];

  try {
    if (command == "validate") return cmd_validate(path);
    if (command == "profile") {
      return cmd_profile(path, argc > 3 ? argv[3] : nullptr);
    }
    if (command == "summary" &&
        file_head(path).find(oddci::obs::kMetricsSchema) !=
            std::string::npos) {
      return cmd_metrics_summary(oddci::obs::read_json(path));
    }

    const std::vector<TraceEvent> events =
        oddci::obs::read_chrome_trace(path);
    if (command == "summary") return cmd_summary(events);
    if (command == "timeline") {
      if (argc < 4) return usage();
      return cmd_timeline(events, std::strtoull(argv[3], nullptr, 10));
    }
    if (command == "funnel") return cmd_funnel(events);
    if (command == "slowest") {
      const std::size_t n =
          argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 10;
      return cmd_slowest(events, n);
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "oddci_trace: " << path << ": " << e.what() << "\n";
    return 1;
  }
}
