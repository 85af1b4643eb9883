#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "broadcast/ait.hpp"
#include "dtv/xlet.hpp"

/// The middleware's application manager: tracks running Xlets, enforces the
/// legal lifecycle transitions, and reacts to AIT updates (AUTOSTART
/// launches, DESTROY/KILL teardowns).
namespace oddci::dtv {

class Receiver;

/// Application name -> Xlet factory (the class loader). One registry serves
/// a population: every ApplicationManager points at it; it outlives them.
class XletRegistry {
 public:
  static constexpr std::uint32_t kNotFound =
      std::numeric_limits<std::uint32_t>::max();

  /// Register the code for an application name (the first one wins).
  void register_factory(const std::string& application_name,
                        XletFactory factory);

  /// Index of `application_name`'s factory, or kNotFound.
  [[nodiscard]] std::uint32_t find(const std::string& application_name) const;
  [[nodiscard]] const XletFactory& factory(std::uint32_t index) const {
    return entries_[index].factory;
  }

 private:
  struct Entry {
    std::string name;
    XletFactory factory;
  };
  std::vector<Entry> entries_;
};

class ApplicationManager {
 public:
  /// Xlets one receiver runs at once; launching beyond it fails.
  static constexpr std::size_t kMaxApps = 2;

  explicit ApplicationManager(Receiver& receiver) : context_(receiver) {}

  ApplicationManager(const ApplicationManager&) = delete;
  ApplicationManager& operator=(const ApplicationManager&) = delete;

  /// Registry launches resolve names against (nullptr: none launch).
  void set_registry(const XletRegistry* registry) { registry_ = registry; }

  /// Process a (new version of the) AIT: destroy applications signalled
  /// DESTROY/KILL, then autostart the trigger applications without a code
  /// base that are not yet running. Called by the Receiver when signalling
  /// is acquired; it launches an entry with a base file itself, once the
  /// file has been read from the carousel.
  void process_ait(const broadcast::Ait& ait);

  /// Explicit lifecycle controls (also used by tests).
  /// Launch = load + initXlet + startXlet. Returns false if no factory is
  /// registered, the app is already running or every slot is taken.
  bool launch(std::uint32_t application_id, const std::string& name);
  bool pause(std::uint32_t application_id);
  bool resume(std::uint32_t application_id);
  bool destroy(std::uint32_t application_id, bool unconditional = true);

  /// Destroy every running Xlet (receiver switched off / channel change).
  void destroy_all();

  [[nodiscard]] XletState state(std::uint32_t application_id) const;
  [[nodiscard]] bool running(std::uint32_t application_id) const;
  [[nodiscard]] std::size_t active_count() const;

  /// Access a live Xlet instance (tests/harness); nullptr if absent.
  [[nodiscard]] Xlet* find(std::uint32_t application_id);

  /// Forward a carousel update to running CarouselAware Xlets.
  void notify_carousel(const broadcast::CarouselSnapshot& snapshot);
  /// The slot hosting `reader`; std::logic_error if none does.
  [[nodiscard]] std::uint8_t slot_of(const CarouselAware& reader) const;
  /// Hand a completed read to the CarouselAware Xlet in `slot`; a null
  /// `file` is a failed read.
  void complete_read(std::uint8_t slot, std::uint16_t token,
                     const broadcast::CarouselFile* file);

  /// The context every hosted Xlet is initialised with.
  [[nodiscard]] XletContext& context() { return context_; }

 private:
  /// One running Xlet; an empty `xlet` marks a free slot.
  struct App {
    std::unique_ptr<Xlet> xlet;
    std::uint32_t id = 0;
    XletState state = XletState::kLoaded;
  };

  [[nodiscard]] App* slot(std::uint32_t application_id);
  [[nodiscard]] const App* slot(std::uint32_t application_id) const;

  XletContext context_;
  const XletRegistry* registry_ = nullptr;
  std::array<App, kMaxApps> apps_;
};

}  // namespace oddci::dtv
