#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "broadcast/ait.hpp"
#include "broadcast/carousel.hpp"
#include "obs/metrics.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"
#include "util/quantity.hpp"

/// The commit fan-out and the module reads every broadcast medium shares.
///
/// A broadcast is one transmission: each tuned receiver picks a new
/// generation up after its own table-repetition phase (§3.2, §4 of the
/// paper), then reads the modules it needs off the carousel. The audience
/// keeps, for each kernel shard, a dense table of that shard's tuned
/// listeners, one queue of `(time, listener, tune epoch)` announcements and
/// one queue of module reads, each served by a single kernel event. A
/// listener's phase is a pure function of (medium seed, generation,
/// listener id, tune ordinal), so every shard draws its own listeners'
/// phases: a commit costs the control shard one mail item per other shard,
/// and a listener hears it at the same instant at every shard count (with
/// several shards, an instant inside the commit's own window moves to that
/// window's boundary, where the commit's mail arrives). A read's instant is
/// keyed the same way (SignallingCapsule::ready_at), and reads due at one
/// instant complete in (listener id, read ordinal) order at every K.
namespace oddci::broadcast {

/// A listener's id on a medium: nonzero, unique per medium, and stable for
/// the listener's life (a receiver keeps it across power cycles).
using ListenerId = std::uint32_t;

/// Immutable copy of one generation's on-air signalling, frozen by the
/// medium at every commit and shared by every shard: receivers act only on
/// the capsule they have acquired, never on the live medium. It also holds
/// the medium's acquisition rule, so a read is computed from the capsule
/// alone.
struct SignallingCapsule {
  Ait ait;
  CarouselSnapshot snapshot;
  /// Keys the readers' draws (read_draw).
  std::uint64_t read_seed = 0;
  /// DSM-CC carousel: i.i.d. per-section loss and the section size.
  double section_loss = 0.0;
  util::Bits section_size{};
  /// Multicast sessions: each file's acquisition seconds, parallel to
  /// `snapshot.files`. Empty on a carousel.
  std::vector<double> session_seconds{};

  /// When a reader that starts at `from` holds `name` in full, with `u` in
  /// [0, 1) its draw for this read; nullopt if `name` is not on air. On a
  /// carousel: the rotation wait and full read, plus the whole cycles that
  /// section loss costs (quantile `u`). On multicast sessions: the file's
  /// acquisition seconds times a block-arrival jitter of 0.98 + 0.04 u.
  [[nodiscard]] std::optional<sim::SimTime> ready_at(const std::string& name,
                                                     sim::SimTime from,
                                                     double u) const;
  /// Reader `id`'s draw for its `ordinal`-th read: a pure function of
  /// (medium seed, generation, id, ordinal), in [0, 1).
  [[nodiscard]] double read_draw(ListenerId id, std::uint32_t ordinal) const;
};

/// A module's key in a ModuleRead: a hash of its name.
[[nodiscard]] std::uint64_t module_key(const std::string& name);

/// One module read in flight (40 B), queued on its reader's shard until
/// `at`. The audience orders reads by (at, id, ordinal) and drops one whose
/// reader has untuned or re-tuned since (tune epoch); the module's identity
/// and the reader's own fields ride along for the reader to act on.
struct ModuleRead {
  sim::SimTime at;
  ListenerId id = 0;
  /// The reader's read ordinal: it keys the read's draw and breaks ties.
  std::uint32_t ordinal = 0;
  /// The reader's tune epoch, stamped when the read is queued.
  std::uint32_t epoch = 0;
  /// The module being assembled: its version and module_key(name).
  std::uint32_t version = 0;
  std::uint64_t module = 0;
  /// The reader's: a liveness generation, who asked, and their token.
  std::uint32_t generation = 0;
  std::uint8_t client = 0;
  std::uint16_t token = 0;

  /// Completion order: (at, id, ordinal).
  bool operator<(const ModuleRead& o) const {
    if (at != o.at) return at < o.at;
    if (id != o.id) return id < o.id;
    return ordinal < o.ordinal;
  }
};
static_assert(sizeof(ModuleRead) == 40);

class BroadcastListener {
 public:
  virtual ~BroadcastListener() = default;

  /// New signalling (AIT version and/or carousel generation) acquired, as
  /// the capsule the medium froze at its commit.
  virtual void on_signalling_capsule(
      const std::shared_ptr<const SignallingCapsule>& capsule) = 0;
  /// A read this listener queued (Audience::read) is due, and the listener
  /// has stayed tuned since. Listeners that never read ignore it.
  virtual void on_read_done(const ModuleRead& /*read*/) {}
};

class Audience {
 public:
  /// One shard on `simulation` until set_sharded(). Announcements reach a
  /// listener `repetition * U(key)` after a commit (or after an on-air
  /// tune); `seed` keys the draws. A due listener gets the commit's
  /// capsule.
  Audience(sim::Simulation& simulation, std::uint64_t seed,
           sim::SimTime repetition);

  Audience(const Audience&) = delete;
  Audience& operator=(const Audience&) = delete;

  /// One block per shard of `sharded`. Call before any tune or commit.
  void set_sharded(sim::ShardedSimulation& sharded);

  /// Attach `listener` under `id` on `shard`, from that shard's thread. If
  /// a generation is on air there, the listener is announced it `phase()`
  /// from now. Throws on a null listener, id 0, an id already tuned, or a
  /// shard out of range.
  void tune(ListenerId id, BroadcastListener* listener, std::uint32_t shard);
  /// Detach, from `shard`'s thread; the tune's queued announcement is
  /// dropped. Untuning an id that is not tuned does nothing.
  void untune(ListenerId id, std::uint32_t shard);

  /// Announce `capsule` (required) to every tuned listener, from the
  /// control shard at its current time. The control shard's block is served
  /// at once and every other shard gets one mail item carrying it.
  void commit(std::shared_ptr<const SignallingCapsule> capsule);

  /// Queue `read` on `shard`, from that shard's thread: listener `read.id`,
  /// tuned there, gets it back through on_read_done at `read.at` unless it
  /// untunes or re-tunes first. Stamps the tune epoch; allocates only to
  /// grow the shard's queue. Throws if the listener is not tuned there.
  void read(std::uint32_t shard, ModuleRead read);

  /// The delay after a commit of `generation` (or after the on-air tune)
  /// at which listener `id` on its `ordinal`-th tune hears it: in
  /// [0, repetition).
  [[nodiscard]] sim::SimTime phase(std::uint64_t generation, ListenerId id,
                                   std::uint32_t ordinal) const;

  // Sums over the blocks: read between windows.
  [[nodiscard]] std::size_t tuned_count() const;
  /// One per tuned listener per commit, plus one per on-air tune.
  [[nodiscard]] std::uint64_t announcements() const;
  /// Reads queued and not yet due.
  [[nodiscard]] std::size_t reads_pending() const;

 private:
  /// A table entry; an untuned listener keeps its entry (and epoch) with a
  /// null pointer, so a re-tune finds it in place.
  struct Listener {
    BroadcastListener* listener = nullptr;
    ListenerId id = 0;
    /// Tunes so far: the tune ordinal that keys the listener's phase.
    std::uint32_t epoch = 0;
  };
  struct Announcement {
    sim::SimTime at;
    ListenerId id = 0;
    std::uint32_t epoch = 0;

    bool operator<(const Announcement& o) const {
      if (at != o.at) return at < o.at;
      if (id != o.id) return id < o.id;
      return epoch < o.epoch;
    }
  };
  static_assert(sizeof(Listener) == 16 && sizeof(Announcement) == 16);

  /// Touched only by its shard's thread (and the coordinator between
  /// windows); padded so two shards never share a line.
  struct alignas(64) Block {
    sim::Simulation* kernel = nullptr;
    /// Sorted by id.
    std::vector<Listener> table;
    /// Sorted; entries before `next` were served. Released once drained.
    std::vector<Announcement> queue;
    std::size_t next = 0;
    /// The kernel event armed for the queue head.
    sim::EventId pending = sim::kInvalidEvent;
    /// The capsule on air at this shard (null: none yet).
    std::shared_ptr<const SignallingCapsule> capsule;
    /// Reads in flight: a min-heap on (at, id, ordinal), released once
    /// drained after a storm.
    std::vector<ModuleRead> reads;
    /// The kernel event armed for the reads' head.
    sim::EventId read_event = sim::kInvalidEvent;
    std::size_t tuned = 0;
    obs::Counter announcements;
  };

  Block& block(std::uint32_t shard);
  /// Build `shard`'s batch for a commit of `capsule` at `at`, replacing
  /// whatever an older generation left queued.
  void announce(std::uint32_t shard, sim::SimTime at,
                std::shared_ptr<const SignallingCapsule> capsule);
  /// (Re-)arm `shard`'s event at its queue head, or at now if that is
  /// later.
  void arm(std::uint32_t shard);
  /// The event: deliver every announcement due now, in queue order.
  void deliver_due(std::uint32_t shard);
  /// (Re-)arm `shard`'s read event at its heap head.
  void arm_reads(std::uint32_t shard);
  /// The read event: complete every read due now, in (at, id, ordinal)
  /// order.
  void complete_reads(std::uint32_t shard);

  sim::ShardedSimulation* sharded_ = nullptr;
  std::uint64_t seed_;
  sim::SimTime repetition_;
  std::vector<Block> blocks_;
};

}  // namespace oddci::broadcast
