#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "broadcast/carousel.hpp"
#include "net/message.hpp"
#include "sim/simulation.hpp"

/// Xlet application model (JavaTV-style), as used by MHP/ACAP/Ginga.
///
/// The lifecycle follows Figure 4 of the paper:
///
///     Loaded --initXlet--> Paused --startXlet--> Started
///     Started --pauseXlet--> Paused --startXlet--> Started ...
///     any --destroyXlet--> Destroyed (terminal)
///
/// Transitions are driven exclusively by the ApplicationManager; an Xlet
/// never changes its own state field.
namespace oddci::dtv {

class Receiver;  // forward: the hosting set-top box
class CarouselAware;

/// The file a failed carousel read hands back.
inline const broadcast::CarouselFile kNoCarouselFile{};

enum class XletState { kLoaded, kPaused, kStarted, kDestroyed };

[[nodiscard]] const char* to_string(XletState s);

/// Services the middleware exposes to a running Xlet. Mirrors the subset of
/// the JavaTV/DSM-CC APIs the PNA needs: simulated time, carousel file
/// access (with carousel-cycle latency), CPU execution, and the return
/// channel (provided by the Receiver).
///
/// One context lives inside each Receiver, shared by the Xlets it hosts,
/// and carries their liveness generation: a callback that captured
/// `(context, generation())` can tell, without touching the Xlet, whether
/// the Xlet it was issued for still runs (the Receiver outlives it).
class XletContext {
 public:
  explicit XletContext(Receiver& receiver) : receiver_(&receiver) {}

  [[nodiscard]] Receiver& receiver() { return *receiver_; }
  [[nodiscard]] sim::Simulation& simulation();

  /// What the receiver has acquired from the tuned channel (nullptr when
  /// it is unpowered, untuned or has acquired nothing yet). Lets an Xlet
  /// inspect signalling (names, versions, content ids) without paying a
  /// carousel read.
  [[nodiscard]] const broadcast::CarouselSnapshot* current_carousel() const;

  /// Acquire `name` from the tuned carousel for `reader`, a hosted Xlet:
  /// `reader.on_carousel_read(token, ok, file)` runs once it is received
  /// in full, with `ok` false if it is not on air (then at once) or its
  /// module changed meanwhile. The completion is dropped instead once the
  /// generation moves or the receiver powers off, untunes or re-tunes.
  /// Throws std::logic_error if `reader` is not hosted here.
  void read_carousel_file(const std::string& name, CarouselAware& reader,
                          std::uint16_t token);

  /// Bumped when an Xlet is destroyed, crashes or hangs; callbacks captured
  /// under an older value must do nothing.
  [[nodiscard]] std::uint32_t generation() const { return generation_; }
  void bump_generation() { ++generation_; }

 private:
  Receiver* receiver_;
  std::uint32_t generation_ = 0;
};

/// Direct-channel sink an Xlet installs on its Receiver (see
/// Receiver::set_message_handler).
class MessageHandler {
 public:
  virtual ~MessageHandler() = default;
  virtual void on_direct_message(net::NodeId from,
                                 const net::MessagePtr& message) = 0;
};

class Xlet {
 public:
  virtual ~Xlet() = default;

  /// Called once after loading; the Xlet may begin acquiring resources.
  virtual void init_xlet(XletContext& context) = 0;
  /// Enter the Started state: the Xlet provides its service.
  virtual void start_xlet() = 0;
  /// Enter the Paused state: release scarce resources.
  virtual void pause_xlet() = 0;
  /// Terminal: release everything. `unconditional` mirrors JavaTV: when
  /// true the Xlet may not refuse.
  virtual void destroy_xlet(bool unconditional) = 0;
};

/// Optional mixin for Xlets that track carousel updates (new generations of
/// the object carousel and AIT, e.g. fresh OddCI control messages) and read
/// files off the carousel. The Receiver forwards acquired signalling to
/// running Xlets implementing it.
class CarouselAware {
 public:
  virtual ~CarouselAware() = default;
  virtual void on_carousel_update(
      const broadcast::CarouselSnapshot& snapshot) = 0;
  /// A read issued through XletContext::read_carousel_file completed with
  /// the caller's `token`; `file` is valid during the call.
  virtual void on_carousel_read(std::uint16_t token, bool ok,
                                const broadcast::CarouselFile& file) = 0;
};

/// Factory used by the ApplicationManager to instantiate the class named in
/// the AIT once its code base has been read from the carousel, on the
/// receiver that will host it. In a real receiver this is the Java class
/// loader; here the harness registers factories keyed by application name
/// in one XletRegistry shared by the whole population.
using XletFactory = std::function<std::unique_ptr<Xlet>(Receiver& host)>;

}  // namespace oddci::dtv
