#include "broadcast/audience.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"

namespace oddci::broadcast {
namespace {

/// Where `id` sits in a table sorted by id.
template <typename Table>
auto seat(Table& table, ListenerId id) {
  return std::lower_bound(
      table.begin(), table.end(), id,
      [](const auto& entry, ListenerId key) { return entry.id < key; });
}

/// A key's second field: a listener id and one of its ordinals.
std::uint64_t listener_key(ListenerId id, std::uint32_t ordinal) {
  return std::uint64_t{id} << 32 | ordinal;
}

/// Heap order for the reads: the earliest (at, id, ordinal) on top.
bool later(const ModuleRead& a, const ModuleRead& b) { return b < a; }

/// Read capacity a drained shard keeps for the reads between storms.
constexpr std::size_t kKeptReads = 256;

/// Extra full carousel cycles needed to capture every section of `file`
/// under i.i.d. per-section loss `p` in (0, 1), inverted from one uniform
/// sample `u`. Each section needs Geometric(1-p) passes and the file
/// completes when the slowest section lands: P(max passes <= m) =
/// (1 - p^m)^k, so m = ceil( log(1 - u^(1/k)) / log(p) ).
double section_loss_extra_cycles(const CarouselFile& file, double p,
                                 util::Bits section_size, double u) {
  const auto sections = static_cast<double>(
      (file.size.count() + section_size.count() - 1) / section_size.count());
  const double root = std::pow(u, 1.0 / sections);
  double passes = 1.0;
  if (root < 1.0) {
    passes = std::ceil(std::log1p(-root) / std::log(p));
    passes = std::max(passes, 1.0);
  }
  return passes - 1.0;
}

}  // namespace

std::uint64_t module_key(const std::string& name) {
  return util::stream_seed(0, name);
}

std::optional<sim::SimTime> SignallingCapsule::ready_at(
    const std::string& name, sim::SimTime from, double u) const {
  const CarouselFile* file = snapshot.find(name);
  if (file == nullptr) return std::nullopt;
  if (!session_seconds.empty()) {
    const auto i = static_cast<std::size_t>(file - snapshot.files.data());
    return from +
           sim::SimTime::from_seconds(session_seconds[i] * (0.98 + 0.04 * u));
  }
  std::optional<sim::SimTime> ready = snapshot.read_completion_time(name, from);
  if (ready && section_loss > 0.0) {
    const double extra =
        section_loss_extra_cycles(*file, section_loss, section_size, u);
    *ready += sim::SimTime::from_seconds(extra * snapshot.cycle_seconds());
  }
  return ready;
}

double SignallingCapsule::read_draw(ListenerId id,
                                    std::uint32_t ordinal) const {
  return util::keyed_uniform(read_seed, snapshot.generation,
                             listener_key(id, ordinal));
}

Audience::Audience(sim::Simulation& simulation, std::uint64_t seed,
                   sim::SimTime repetition)
    : seed_(util::stream_seed(seed, "broadcast.announce")),
      repetition_(repetition),
      blocks_(1) {
  if (repetition <= sim::SimTime::zero()) {
    throw std::invalid_argument(
        "Audience: announcement repetition must be positive");
  }
  blocks_[0].kernel = &simulation;
}

void Audience::set_sharded(sim::ShardedSimulation& sharded) {
  if (blocks_.size() != 1 || !blocks_[0].table.empty() ||
      blocks_[0].capsule != nullptr) {
    throw std::logic_error(
        "Audience: attach the sharded kernel once, before any tune or "
        "commit");
  }
  sharded_ = &sharded;
  blocks_ = std::vector<Block>(sharded.shard_count());
  for (std::size_t s = 0; s < blocks_.size(); ++s) {
    blocks_[s].kernel = &sharded.shard(s);
  }
}

Audience::Block& Audience::block(std::uint32_t shard) {
  if (shard >= blocks_.size()) {
    throw std::out_of_range("Audience: shard out of range");
  }
  return blocks_[shard];
}

sim::SimTime Audience::phase(std::uint64_t generation, ListenerId id,
                             std::uint32_t ordinal) const {
  const double u =
      util::keyed_uniform(seed_, generation, listener_key(id, ordinal));
  return sim::SimTime::from_micros(static_cast<std::int64_t>(
      u * static_cast<double>(repetition_.micros())));
}

void Audience::tune(ListenerId id, BroadcastListener* listener,
                    std::uint32_t shard) {
  if (listener == nullptr) {
    throw std::invalid_argument("Audience: null listener");
  }
  if (id == 0) {
    throw std::invalid_argument("Audience: listener id must be nonzero");
  }
  Block& b = block(shard);
  auto it = seat(b.table, id);
  if (it == b.table.end() || it->id != id) {
    it = b.table.insert(it, Listener{nullptr, id, 0});
  } else if (it->listener != nullptr) {
    throw std::invalid_argument("Audience: listener id already tuned");
  }
  it->listener = listener;
  const std::uint32_t epoch = ++it->epoch;
  ++b.tuned;
  if (b.capsule == nullptr) return;  // nothing on air yet

  // On air: this tune hears the current generation after its own phase.
  ++b.announcements;
  const Announcement a{
      b.kernel->now() + phase(b.capsule->snapshot.generation, id, epoch), id,
      epoch};
  const auto head = b.queue.begin() + static_cast<std::ptrdiff_t>(b.next);
  const auto pos = std::upper_bound(head, b.queue.end(), a);
  const bool first = pos == head;
  b.queue.insert(pos, a);
  if (first) arm(shard);
}

void Audience::untune(ListenerId id, std::uint32_t shard) {
  Block& b = block(shard);
  const auto it = seat(b.table, id);
  if (it == b.table.end() || it->id != id || it->listener == nullptr) return;
  it->listener = nullptr;
  --b.tuned;
}

void Audience::commit(std::shared_ptr<const SignallingCapsule> capsule) {
  if (capsule == nullptr) {
    throw std::invalid_argument("Audience: a commit needs a capsule");
  }
  const sim::SimTime at = blocks_[0].kernel->now();
  for (std::uint32_t s = 1; s < blocks_.size(); ++s) {
    sharded_->post(0, s, at,
                   [this, s, at, capsule] { announce(s, at, capsule); });
  }
  announce(0, at, std::move(capsule));
}

void Audience::announce(std::uint32_t shard, sim::SimTime at,
                        std::shared_ptr<const SignallingCapsule> capsule) {
  Block& b = blocks_[shard];
  const std::uint64_t generation = capsule->snapshot.generation;
  b.capsule = std::move(capsule);
  b.queue.clear();
  b.next = 0;
  b.queue.reserve(b.tuned);
  for (const Listener& l : b.table) {
    if (l.listener == nullptr) continue;
    b.queue.push_back({at + phase(generation, l.id, l.epoch), l.id, l.epoch});
  }
  b.announcements += b.queue.size();
  std::sort(b.queue.begin(), b.queue.end());
  arm(shard);
}

void Audience::arm(std::uint32_t shard) {
  Block& b = blocks_[shard];
  if (b.pending != sim::kInvalidEvent) {
    b.kernel->cancel(b.pending);
    b.pending = sim::kInvalidEvent;
  }
  if (b.next == b.queue.size()) return;
  const sim::SimTime at = std::max(b.queue[b.next].at, b.kernel->now());
  b.pending = b.kernel->schedule_at(
      at, [this, shard] { deliver_due(shard); },
      sim::EventPriority::kDelivery);
}

void Audience::deliver_due(std::uint32_t shard) {
  Block& b = blocks_[shard];
  b.pending = sim::kInvalidEvent;
  const sim::SimTime now = b.kernel->now();
  // A listener may tune, untune or commit from inside its delivery, so the
  // queue and the table are re-read after every call.
  while (b.next < b.queue.size() && b.queue[b.next].at <= now) {
    const Announcement a = b.queue[b.next++];
    const auto it = seat(b.table, a.id);
    // Untuned, or re-tuned since: that tune has its own announcement.
    if (it == b.table.end() || it->id != a.id || it->listener == nullptr ||
        it->epoch != a.epoch) {
      continue;
    }
    it->listener->on_signalling_capsule(b.capsule);
  }
  if (b.next == b.queue.size()) {
    // Drained: the queue holds memory only while a commit is on its way.
    std::vector<Announcement>().swap(b.queue);
    b.next = 0;
  } else if (b.pending == sim::kInvalidEvent) {
    arm(shard);
  }
}

void Audience::read(std::uint32_t shard, ModuleRead read) {
  Block& b = block(shard);
  const auto it = seat(b.table, read.id);
  if (it == b.table.end() || it->id != read.id || it->listener == nullptr) {
    throw std::logic_error("Audience: a read needs a tuned listener");
  }
  read.epoch = it->epoch;
  const bool head = b.reads.empty() || read < b.reads.front();
  b.reads.push_back(read);
  std::push_heap(b.reads.begin(), b.reads.end(), later);
  if (head) arm_reads(shard);
}

void Audience::arm_reads(std::uint32_t shard) {
  Block& b = blocks_[shard];
  if (b.read_event != sim::kInvalidEvent) {
    b.kernel->cancel(b.read_event);
    b.read_event = sim::kInvalidEvent;
  }
  if (b.reads.empty()) return;
  const sim::SimTime at = std::max(b.reads.front().at, b.kernel->now());
  b.read_event = b.kernel->schedule_at(
      at, [this, shard] { complete_reads(shard); },
      sim::EventPriority::kDefault);
}

void Audience::complete_reads(std::uint32_t shard) {
  Block& b = blocks_[shard];
  b.read_event = sim::kInvalidEvent;
  const sim::SimTime now = b.kernel->now();
  // A reader may queue another read, tune or untune from inside its
  // completion, so the heap and the table are re-read after every call.
  while (!b.reads.empty() && b.reads.front().at <= now) {
    std::pop_heap(b.reads.begin(), b.reads.end(), later);
    const ModuleRead r = b.reads.back();
    b.reads.pop_back();
    const auto it = seat(b.table, r.id);
    // Untuned (power-off, channel change), or re-tuned since.
    if (it == b.table.end() || it->id != r.id || it->listener == nullptr ||
        it->epoch != r.epoch) {
      continue;
    }
    it->listener->on_read_done(r);
  }
  if (b.reads.empty()) {
    // Drained: hand a storm's capacity back.
    if (b.reads.capacity() > kKeptReads) {
      std::vector<ModuleRead> kept;
      kept.reserve(kKeptReads);
      b.reads.swap(kept);
    }
  } else if (b.read_event == sim::kInvalidEvent) {
    arm_reads(shard);
  }
}

std::size_t Audience::tuned_count() const {
  std::size_t n = 0;
  for (const Block& b : blocks_) n += b.tuned;
  return n;
}

std::uint64_t Audience::announcements() const {
  std::uint64_t n = 0;
  for (const Block& b : blocks_) n += b.announcements.value();
  return n;
}

std::size_t Audience::reads_pending() const {
  std::size_t n = 0;
  for (const Block& b : blocks_) n += b.reads.size();
  return n;
}

}  // namespace oddci::broadcast
