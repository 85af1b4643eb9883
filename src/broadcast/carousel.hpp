#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/quantity.hpp"

/// DSM-CC object carousel model.
///
/// The carousel cyclically transmits a file system over the broadcast
/// channel's unused capacity beta. We do not simulate individual MPEG-2
/// sections (a 10 MB image at 1 Mbps would be ~450k packets per cycle);
/// instead the cycle layout is kept analytically: each file occupies a
/// contiguous byte range of the cycle, and `read_completion_time` computes
/// when a receiver that starts listening at a given instant has captured a
/// file in full. This reproduces exactly the semantics behind the paper's
/// wakeup-overhead model (best case I/beta, worst case ~2I/beta, mean
/// 1.5·I/beta when the image dominates the cycle).
namespace oddci::broadcast {

struct CarouselFile {
  std::string name;
  util::Bits size;
  std::uint32_t version = 1;
  /// Opaque handle to the file's logical content (e.g. a core::ImageId or a
  /// pointer into a content store); the carousel itself only schedules bits.
  std::uint64_t content_id = 0;
};

/// Immutable view of one carousel generation's contents.
struct CarouselSnapshot {
  std::uint64_t generation = 0;
  sim::SimTime epoch;          ///< when this generation started transmitting
  util::BitRate rate;          ///< beta at generation start
  /// Rotation of the cycle at the epoch: the multiplexer's output is a
  /// continuous stream, so a new generation starts transmitting from an
  /// arbitrary position of its cycle, not from file 0. This is what makes
  /// the mean acquisition latency 1.5 cycles rather than 1.
  std::int64_t phase_bits = 0;
  std::vector<CarouselFile> files;
  /// Bit offset of each file within the cycle (parallel to `files`). Part
  /// of the snapshot so that a receiver holding a retained copy (inside
  /// its signalling capsule) computes read times without the live carousel.
  std::vector<std::int64_t> offsets;

  [[nodiscard]] util::Bits total_size() const;
  [[nodiscard]] double cycle_seconds() const;
  [[nodiscard]] const CarouselFile* find(const std::string& name) const;

  /// Absolute time at which a receiver that begins listening at
  /// `listen_from` (>= the epoch) finishes acquiring `file_name`, or
  /// nullopt if the file is not in this generation. A receiver must
  /// capture a file from its first byte: if it tunes mid-file it waits
  /// for the next cycle.
  [[nodiscard]] std::optional<sim::SimTime> read_completion_time(
      const std::string& file_name, sim::SimTime listen_from) const;
};

class ObjectCarousel {
 public:
  /// `rate` is the capacity available to the carousel (beta).
  explicit ObjectCarousel(util::BitRate rate);

  /// Replace/add a file. Bumps the file version if it already exists.
  /// Takes effect at the next `commit`.
  void put_file(const std::string& name, util::Bits size,
                std::uint64_t content_id);

  /// Remove a file at the next `commit`. Returns false if absent.
  bool remove_file(const std::string& name);

  /// Change the carousel bit-rate from the next commit on (e.g. the
  /// multiplexer reallocated capacity).
  void set_rate(util::BitRate rate);

  /// Atomically start transmitting the staged contents at time `now`,
  /// beginning at cycle rotation `phase_bits` (clamped into the cycle).
  /// Returns the new generation number. Reads of files whose module
  /// changed are invalidated (module-version semantics); unchanged modules
  /// keep assembling.
  std::uint64_t commit(sim::SimTime now, std::int64_t phase_bits = 0);

  [[nodiscard]] const CarouselSnapshot& current() const { return active_; }
  [[nodiscard]] bool has_committed() const { return active_.generation > 0; }

  /// Absolute time at which a receiver that begins listening at `listen_from`
  /// (>= the generation epoch) finishes acquiring `file_name`, or nullopt if
  /// the file is not in the active generation. A receiver must capture a file
  /// from its first byte: if it tunes mid-file it waits for the next cycle.
  [[nodiscard]] std::optional<sim::SimTime> read_completion_time(
      const std::string& file_name, sim::SimTime listen_from) const;

  /// Mean acquisition latency for `file_name` over a uniformly random tune-in
  /// phase (the analytical counterpart of read_completion_time).
  [[nodiscard]] std::optional<double> mean_acquisition_seconds(
      const std::string& file_name) const;

 private:
  util::BitRate staged_rate_;
  std::map<std::string, CarouselFile> staged_;  // ordered => stable layout
  CarouselSnapshot active_;
  std::uint64_t next_generation_ = 1;
};

}  // namespace oddci::broadcast
