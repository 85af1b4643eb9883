#include "obs/profiler.hpp"

#include <stdexcept>

#include "obs/json.hpp"
#include "sim/sharded.hpp"

namespace oddci::obs {
namespace {

constexpr double kNanosPerSecond = 1e9;

double seconds(std::uint64_t nanos) {
  return static_cast<double>(nanos) / kNanosPerSecond;
}

}  // namespace

double ProfileSnapshot::execute_seconds_total() const {
  double total = 0.0;
  for (const ProfileShard& s : per_shard) total += s.execute_seconds;
  return total;
}

double ProfileSnapshot::barrier_seconds_total() const {
  double total = 0.0;
  for (const ProfileShard& s : per_shard) total += s.barrier_seconds;
  return total;
}

ProfileSnapshot take_profile(const KernelProfiler& profiler) {
  ProfileSnapshot out;
  out.shards = profiler.shard_count();
  out.run_wall_seconds = seconds(profiler.run_wall_nanos());
  out.sim_seconds = static_cast<double>(profiler.sim_micros()) / 1e6;
  out.runs = profiler.runs();
  out.windows = profiler.windows();
  out.window_span_seconds = seconds(profiler.window_span_nanos());
  out.utilization_mean = profiler.utilization_mean();
  out.imbalance_mean = profiler.imbalance_mean();
  out.imbalance_max = profiler.imbalance_max();
  out.drain_seconds = seconds(profiler.drain_nanos());
  out.drain_calls = profiler.drain_calls();
  out.mail_items = profiler.mail_items();
  out.mail_items_max = profiler.mail_items_max();
  out.global_seconds = seconds(profiler.global_nanos());
  out.global_tasks = profiler.global_tasks();
  out.per_shard.resize(profiler.shard_count());
  for (std::size_t i = 0; i < profiler.shard_count(); ++i) {
    ProfileShard& s = out.per_shard[i];
    s.execute_seconds = seconds(profiler.execute_nanos(i));
    s.execute_calls = profiler.execute_calls(i);
    s.barrier_seconds = seconds(profiler.barrier_nanos(i));
  }
  return out;
}

ProfileSnapshot take_profile(const KernelProfiler& profiler,
                             const sim::ShardedSimulation& kernel) {
  ProfileSnapshot out = take_profile(profiler);
  out.cross_posts = kernel.cross_posts();
  out.clamped_posts = kernel.clamped_posts();
  const std::size_t k =
      out.per_shard.size() < kernel.shard_count() ? out.per_shard.size()
                                                  : kernel.shard_count();
  for (std::size_t i = 0; i < k; ++i) {
    const sim::Simulation& shard = kernel.shard(i);
    ProfileShard& s = out.per_shard[i];
    s.events_executed = shard.events_executed();
    s.events_scheduled = shard.events_scheduled();
    s.events_cancelled = shard.events_cancelled();
    s.events_pending = shard.pending_events();
    s.event_chunks = shard.event_chunks();
  }
  return out;
}

std::string to_profile_json(const ProfileSnapshot& snapshot) {
  std::string out;
  out.reserve(1024 + snapshot.per_shard.size() * 256);
  out += "{\"schema\":";
  json::append_string(out, kProfileSchema);
  out += ",\"shards\":";
  json::append_u64(out, snapshot.shards);
  out += ",\"run\":{\"wall_seconds\":";
  json::append_double(out, snapshot.run_wall_seconds);
  out += ",\"sim_seconds\":";
  json::append_double(out, snapshot.sim_seconds);
  out += ",\"runs\":";
  json::append_u64(out, snapshot.runs);
  out += "},\"windows\":{\"count\":";
  json::append_u64(out, snapshot.windows);
  out += ",\"wall_seconds\":";
  json::append_double(out, snapshot.window_span_seconds);
  out += ",\"utilization_mean\":";
  json::append_double(out, snapshot.utilization_mean);
  out += ",\"imbalance_mean\":";
  json::append_double(out, snapshot.imbalance_mean);
  out += ",\"imbalance_max\":";
  json::append_double(out, snapshot.imbalance_max);
  out += "},\"drain\":{\"wall_seconds\":";
  json::append_double(out, snapshot.drain_seconds);
  out += ",\"calls\":";
  json::append_u64(out, snapshot.drain_calls);
  out += ",\"mail_items\":";
  json::append_u64(out, snapshot.mail_items);
  out += ",\"mail_items_max\":";
  json::append_u64(out, snapshot.mail_items_max);
  out += "},\"global\":{\"wall_seconds\":";
  json::append_double(out, snapshot.global_seconds);
  out += ",\"tasks\":";
  json::append_u64(out, snapshot.global_tasks);
  out += "},\"kernel\":{\"cross_posts\":";
  json::append_u64(out, snapshot.cross_posts);
  out += ",\"clamped_posts\":";
  json::append_u64(out, snapshot.clamped_posts);
  out += "},\"per_shard\":[";
  for (std::size_t i = 0; i < snapshot.per_shard.size(); ++i) {
    const ProfileShard& s = snapshot.per_shard[i];
    if (i != 0) out += ',';
    out += "{\"shard\":";
    json::append_u64(out, i);
    out += ",\"execute_seconds\":";
    json::append_double(out, s.execute_seconds);
    out += ",\"execute_calls\":";
    json::append_u64(out, s.execute_calls);
    out += ",\"barrier_seconds\":";
    json::append_double(out, s.barrier_seconds);
    out += ",\"events_executed\":";
    json::append_u64(out, s.events_executed);
    out += ",\"events_scheduled\":";
    json::append_u64(out, s.events_scheduled);
    out += ",\"events_cancelled\":";
    json::append_u64(out, s.events_cancelled);
    out += ",\"events_pending\":";
    json::append_u64(out, s.events_pending);
    out += ",\"event_chunks\":";
    json::append_u64(out, s.event_chunks);
    out += '}';
  }
  out += "]}";
  return out;
}

ProfileSnapshot profile_from_json(std::string_view text) {
  const json::Value doc = json::parse(text);
  const json::Object& root = doc.as_object();
  const std::string& schema = json::member(root, "schema").as_string();
  if (schema != kProfileSchema) {
    throw std::runtime_error("profile_from_json: unsupported schema '" +
                             schema + "'");
  }
  ProfileSnapshot out;
  out.shards = json::member(root, "shards").as_u64();
  const json::Object& run = json::member(root, "run").as_object();
  out.run_wall_seconds = json::member(run, "wall_seconds").as_double();
  out.sim_seconds = json::member(run, "sim_seconds").as_double();
  out.runs = json::member(run, "runs").as_u64();
  const json::Object& windows = json::member(root, "windows").as_object();
  out.windows = json::member(windows, "count").as_u64();
  out.window_span_seconds = json::member(windows, "wall_seconds").as_double();
  out.utilization_mean = json::member(windows, "utilization_mean").as_double();
  out.imbalance_mean = json::member(windows, "imbalance_mean").as_double();
  out.imbalance_max = json::member(windows, "imbalance_max").as_double();
  const json::Object& drain = json::member(root, "drain").as_object();
  out.drain_seconds = json::member(drain, "wall_seconds").as_double();
  out.drain_calls = json::member(drain, "calls").as_u64();
  out.mail_items = json::member(drain, "mail_items").as_u64();
  out.mail_items_max = json::member(drain, "mail_items_max").as_u64();
  const json::Object& global = json::member(root, "global").as_object();
  out.global_seconds = json::member(global, "wall_seconds").as_double();
  out.global_tasks = json::member(global, "tasks").as_u64();
  const json::Object& kernel = json::member(root, "kernel").as_object();
  out.cross_posts = json::member(kernel, "cross_posts").as_u64();
  out.clamped_posts = json::member(kernel, "clamped_posts").as_u64();
  for (const json::Value& entry :
       json::member(root, "per_shard").as_array()) {
    const json::Object& obj = entry.as_object();
    ProfileShard s;
    s.execute_seconds = json::member(obj, "execute_seconds").as_double();
    s.execute_calls = json::member(obj, "execute_calls").as_u64();
    s.barrier_seconds = json::member(obj, "barrier_seconds").as_double();
    s.events_executed = json::member(obj, "events_executed").as_u64();
    s.events_scheduled = json::member(obj, "events_scheduled").as_u64();
    s.events_cancelled = json::member(obj, "events_cancelled").as_u64();
    s.events_pending = json::member(obj, "events_pending").as_u64();
    // Optional: profiles written before the slab chunk count lack it.
    // Older profiles also carry a timer slab's count, which is ignored.
    if (const json::Value* chunks = json::find(obj, "event_chunks")) {
      s.event_chunks = chunks->as_u64();
    }
    out.per_shard.push_back(std::move(s));
  }
  return out;
}

void write_profile_json(const std::string& path,
                        const ProfileSnapshot& snapshot) {
  json::write_file(path, to_profile_json(snapshot));
}

ProfileSnapshot read_profile_json(const std::string& path) {
  return profile_from_json(json::read_file(path));
}

}  // namespace oddci::obs
