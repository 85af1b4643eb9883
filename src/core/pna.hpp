#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/content_store.hpp"
#include "core/dve.hpp"
#include "core/messages.hpp"
#include "dtv/receiver.hpp"
#include "dtv/xlet.hpp"
#include "fault/byzantine.hpp"
#include "net/message_pool.hpp"
#include "obs/metrics.hpp"
#include "sim/cadence.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

/// Processing Node Agent (PNA).
///
/// The PNA is deployed as a trigger Xlet (AUTOSTART in the AIT): every
/// tuned receiver loads and starts it. It listens to the broadcast channel
/// for signed control messages, manages the DVE that runs the user image,
/// sends periodic heartbeats to the Controller over the direct channel, and
/// drives the Backend task-pull loop while busy.
namespace oddci::core {

/// Deployment-wide PNA configuration (what the carousel's configuration
/// file and the agent's build-time defaults provide).
struct PnaEnvironment {
  const ContentStore* content_store = nullptr;
  broadcast::SigningKey trusted_key = 0;
  std::string config_file = "oddci.config";
  /// Retry period for polling the Backend after a NoTask reply.
  sim::SimTime task_poll_interval = sim::SimTime::from_seconds(10);

  /// Counters shared by every agent on one kernel shard (required, as
  /// the content store is). Agents keep no per-agent counters of their
  /// own.
  obs::PnaCounters* counters = nullptr;
  /// Wakeup accept -> image acquired, across the shard's agents
  /// (required).
  obs::LogHistogram* acquire_latency = nullptr;
  /// Causal flight recorder shared by the shard's agents (nullable:
  /// tracing off). Agents emit receipt/decision/heartbeat/task events and carry
  /// contexts onto outgoing messages.
  obs::FlightRecorder* recorder = nullptr;

  /// Heartbeat pacing window (zero = off, the legacy fire-immediately
  /// path). With a window, every beat — periodic or event-driven — is
  /// deferred to this agent's deterministic phase slot within the window
  /// and beats that coalesce while one is pending are absorbed, so a
  /// population-wide wakeup storm spreads over the window instead of
  /// landing on the return channel in one burst.
  sim::SimTime heartbeat_pace_window;
  /// Root of the per-agent pacing phase (a dedicated named RNG stream, so
  /// enabling pacing never perturbs the population's draw sequences).
  std::uint64_t heartbeat_phase_seed = 0;
  /// Root of every agent's keyed draws (wakeup gate, first-heartbeat
  /// phase, result-retry jitter): one named stream for the population.
  std::uint64_t draw_seed = 0;

  /// Shard-shared memoized signature verification (required): with N
  /// agents sharing one cache, a broadcast costs one keyed hash, not N.
  broadcast::VerifyCache* verify_cache = nullptr;
  /// Shard-shared heartbeat recycling pool (required; see
  /// net::MessagePool).
  net::MessagePool<HeartbeatMessage>* heartbeat_pool = nullptr;
  /// Shard-shared periodic heartbeats (required): one same-period cadence
  /// on the shard's kernel, built with PnaXlet::beat as its fire function.
  sim::Cadence* heartbeats = nullptr;

  // --- fault-injection recovery protocol (nullable: with no Recovery block
  // the agent speaks the zero-fault wire protocol, bit for bit) ---------------

  /// Bounded result-upload retry and task-request watchdog parameters,
  /// plus the population-wide recovery.* counters.
  struct Recovery {
    /// Retry attempts before an unacknowledged result is abandoned (the
    /// Backend's timeout sweep then re-dispatches the task).
    int result_retry_limit = 4;
    /// First retry delay; doubles per attempt, with deterministic jitter.
    sim::SimTime result_retry_base = sim::SimTime::from_seconds(2);
    /// A busy agent whose task request went unanswered re-asks after this
    /// (covers lost requests, lost assignments, and a crashed Backend).
    sim::SimTime request_watchdog = sim::SimTime::from_seconds(45);
    obs::Counter result_retries;
    obs::Counter request_retries;
  };
  Recovery* recovery = nullptr;

  // --- Byzantine adversary model (nullable: with no block attached the
  // agent stamps no result digests — the pre-verification wire bytes,
  // bit for bit) -------------------------------------------------------------

  /// Adversarial profile table plus the node-id base mapping node ids back
  /// to receiver indices. Attached when Byzantine profiles or verified
  /// execution are configured; honest agents then stamp the canonical
  /// digest on every result, adversaries follow their profile. A null
  /// `table` (verification on, zero adversaries) means everyone is honest.
  struct Byzantine {
    const fault::ByzantineTable* table = nullptr;
    net::NodeId base = 0;  ///< node id of receiver index 0
  };
  const Byzantine* byzantine = nullptr;
};

/// One agent. State only some runs need lives in cold blocks allocated on
/// first use (trace contexts, the unacknowledged result); counters are the
/// population's (PnaEnvironment::counters).
class PnaXlet final : public dtv::Xlet,
                      public dtv::CarouselAware,
                      public dtv::MessageHandler {
 public:
  /// `environment` is shared by reference across the agents of one kernel
  /// shard and must outlive the Xlet (deployment-wide state: one copy per
  /// shard, not one per agent).
  explicit PnaXlet(const PnaEnvironment& environment);
  ~PnaXlet() override;

  // --- dtv::Xlet ----------------------------------------------------------
  void init_xlet(dtv::XletContext& context) override;
  void start_xlet() override;
  void pause_xlet() override;
  void destroy_xlet(bool unconditional) override;

  // --- dtv::CarouselAware ---------------------------------------------------
  void on_carousel_update(
      const broadcast::CarouselSnapshot& snapshot) override;
  void on_carousel_read(std::uint16_t token, bool ok,
                        const broadcast::CarouselFile& file) override;

  // --- dtv::MessageHandler --------------------------------------------------
  void on_direct_message(net::NodeId from,
                         const net::MessagePtr& message) override;

  // --- introspection ---------------------------------------------------------
  [[nodiscard]] PnaState state() const {
    if (dve_) return PnaState::kBusy;
    if (joining_) return PnaState::kJoining;
    return PnaState::kIdle;
  }
  [[nodiscard]] InstanceId instance() const {
    if (dve_) return dve_->instance();
    if (joining_) return pending_join_;
    return kNoInstance;
  }
  [[nodiscard]] const Dve* dve() const { return dve_.get(); }
  [[nodiscard]] std::uint64_t pna_id() const;

  /// The heartbeat cadence's fire function: `agent` is a PnaXlet.
  static void beat(void* agent);

  // --- fault injection -------------------------------------------------------

  /// Crash the agent process: every outstanding callback and timer dies,
  /// all state (DVE, pending join, pending result, heartbeat) is lost, and
  /// the middleware watchdog relaunches the trigger Xlet, which re-reads
  /// the on-air configuration. A mid-task crash sends no abort — the
  /// Backend's timeout sweep recovers the task. Returns false when the
  /// Xlet is not running.
  bool fault_crash();
  /// Freeze the agent for `duration`: timers and message handling stop
  /// (heartbeats go silent, the Controller prunes it as stale), then the
  /// watchdog kills and relaunches it like fault_crash(). Returns false
  /// when not running or already hung.
  bool fault_hang(sim::SimTime duration);

 private:
  /// Read tokens: the configuration file, or the image of `instance`. Two
  /// instances share a token only 65,535 ids apart, never both in flight.
  static constexpr std::uint16_t kConfigRead = 0;
  [[nodiscard]] static std::uint16_t image_read(InstanceId instance) {
    return static_cast<std::uint16_t>(1 + instance % 65'535);
  }

  void acquire_config();
  void on_config_read(bool ok, const broadcast::CarouselFile& file);
  /// A decoded configuration; `authentic` is its signature check against
  /// the trusted key.
  void handle_control(const ControlMessage& message, bool authentic);
  void handle_wakeup(const ControlMessage& message);
  void handle_reset(const ControlMessage& message);
  void join_instance(const ControlMessage& message);
  void on_image_read(std::uint16_t token, bool ok,
                     const broadcast::CarouselFile& file);
  void leave_instance();
  /// Whether `instance` is the one this agent is in or joining.
  [[nodiscard]] bool member_of(InstanceId instance) const;

  /// Cancel the running execution and hand its task back to the Backend.
  void abort_task();
  /// Bump the host generation; stop the heartbeat and the execution.
  void freeze();

  void ensure_heartbeat(const ControlMessage& message);
  void cancel_heartbeat();
  /// Pacing gate: immediate in the legacy path, deferred to this agent's
  /// phase slot (coalescing) when the environment sets a pace window.
  void send_heartbeat();
  /// Build and transmit the beat (the legacy send_heartbeat body).
  void send_heartbeat_now();

  void request_task();
  void schedule_task_poll();
  void start_task(const TaskAssignMessage& assign);
  void finish_task(std::uint64_t task_index, util::Bits result_size,
                   InstanceId instance, std::uint64_t digest,
                   std::uint32_t replica, obs::TraceContext parent);

  /// One-shot kernel event running `fn` only while the generation holds.
  template <typename F>
  void schedule_guarded(sim::SimTime delay, F fn);
  /// Schedule the next bounded-backoff retry of pending_result_.
  void arm_result_retry();
  /// Schedule the unanswered-task-request watchdog.
  void arm_request_watchdog();

  /// The agent's next draw in [0, 1): a pure function of (the
  /// environment's draw seed, pna id, host generation, draw ordinal). The
  /// generation outlives the Xlet and moves with every destroy, crash and
  /// hang, so a relaunched agent never replays a previous life's draws.
  double draw();

  /// Emit a trace event (no-op returning {} when no recorder is attached).
  obs::TraceContext trace_emit(obs::TraceEventKind kind,
                               obs::TraceContext parent, std::uint64_t arg);

  /// Trace contexts threading the causal chain: the last verified control
  /// message, the join in progress, and the task currently executing.
  /// Allocated when a valid context is first stored (tracing on).
  struct TraceState {
    obs::TraceContext control;
    obs::TraceContext join;
    obs::TraceContext running_task;
  };
  [[nodiscard]] obs::TraceContext ctx(
      obs::TraceContext TraceState::*field) const {
    return trace_ ? (*trace_).*field : obs::TraceContext{};
  }
  void set_ctx(obs::TraceContext TraceState::*field, obs::TraceContext ctx);

  /// A result sent but not yet acknowledged (recovery protocol only; see
  /// PnaEnvironment::Recovery). Retried with exponential backoff until
  /// acked, superseded, or the attempt limit is hit.
  struct PendingResult {
    InstanceId instance = kNoInstance;
    std::uint64_t task_index = 0;
    util::Bits result_size;
    obs::TraceContext trace;
    int attempts = 0;
    std::uint64_t digest = 0;    ///< result digest the retry re-sends
    std::uint32_t replica = 0;   ///< replica slot the retry re-sends
  };

  // The fields a heartbeat reads lead the object, right behind the three
  // vtable pointers: a beat touches one or two of its cache lines.

  /// Deployment-wide environment, shared (not copied) population-wide: at
  /// 1M agents an embedded copy is ~100 MB of identical bytes.
  const PnaEnvironment* env_;
  dtv::XletContext* context_ = nullptr;

  std::unique_ptr<Dve> dve_;
  std::unique_ptr<TraceState> trace_;

  /// Where heartbeats go: the Controller itself, or this agent's shard
  /// aggregator when the control message configured an aggregation tier.
  net::NodeId heartbeat_target_ = net::kInvalidNode;

  bool started_ = false;
  bool joining_ = false;
  /// A paced beat is already scheduled for this agent's next phase slot;
  /// further beats coalesce into it (the slot sends the *current* state).
  bool pace_pending_ = false;
  /// Frozen by fault_hang(): message handling and config reads are inert
  /// until the watchdog kills and relaunches the Xlet.
  bool hung_ = false;

  /// This agent's arming in env_->heartbeats (its period is the interval).
  sim::Cadence::Handle heartbeat_ = sim::Cadence::kNone;
  net::NodeId backend_node_ = net::kInvalidNode;

  std::unique_ptr<PendingResult> pending_result_;

  /// Instance of an accepted wakeup whose image is still being read (valid
  /// while joining_); a reset or a competing wakeup cancels it.
  InstanceId pending_join_ = kNoInstance;
  /// Task executing while task_running_ (aborts name it).
  std::uint64_t running_task_ = 0;
  /// The execution of the running task (0 = none).
  dtv::Receiver::ExecToken running_exec_ = 0;
  /// When the pending join's image read started (acquire latency).
  sim::SimTime join_started_at_;
  /// Content ids of the last configuration handled and of the read in
  /// flight: the same broadcast generation announced twice (launch
  /// signalling) is acquired and processed once.
  std::uint64_t last_handled_content_ = 0;
  std::uint64_t pending_read_content_ = 0;

  /// Replica slot of the running task (echoed on results and aborts).
  std::uint32_t running_replica_ = 0;
  /// Generation guards invalidating in-flight retry/watchdog timers (the
  /// agent keeps no event id to cancel; a stale firing sees a bumped
  /// generation and does nothing).
  std::uint32_t result_gen_ = 0;
  std::uint32_t request_gen_ = 0;
  /// Draws taken so far: the ordinal that keys the next draw().
  std::uint32_t draws_ = 0;

  bool task_running_ = false;
};

}  // namespace oddci::core
