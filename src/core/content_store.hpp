#pragma once

#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "core/messages.hpp"
#include "core/wire.hpp"
#include "obs/metrics.hpp"

/// Logical contents of carousel files.
///
/// The broadcast layer schedules *bits*; the payloads live here, keyed by
/// the carousel file's content id — stored as the actual wire encoding
/// (core/wire.hpp), exactly the bytes a real carousel module would carry.
/// The Controller writes, PNAs read-and-decode once the carousel says the
/// file has been acquired.
namespace oddci::core {

class ContentStore {
 public:
  /// Sharded kernel: the Controller (control shard) writes while PNAs on
  /// worker shards read, inside the same window. Turn on reader/writer
  /// locking. Single-shard runs never touch the mutex.
  void set_concurrent(bool on) { concurrent_ = on; }

  /// Encode and store a control message, and decode it once for
  /// get_control_shared; returns its content id.
  std::uint64_t put_control(const ControlMessage& message);

  /// Fetch and decode by content id; nullopt if absent or (defensively)
  /// if the stored bytes fail to parse.
  [[nodiscard]] std::optional<ControlMessage> get_control(
      std::uint64_t id) const;

  /// Shared decode: every reader of a content id gets the same immutable
  /// `PreparedControl` (decode + canonicalization + digest paid once, at
  /// put time). This is what lets a broadcast to N receivers decode once
  /// instead of N times. Returns nullptr if absent or unparsable.
  [[nodiscard]] PreparedControlPtr get_control_shared(std::uint64_t id) const;

  /// Raw stored bytes (diagnostics/tests); nullptr if absent.
  [[nodiscard]] const std::string* get_bytes(std::uint64_t id) const;

  /// Drop a superseded payload (it left the carousel). Returns false if
  /// the id was unknown.
  bool remove(std::uint64_t id);

  [[nodiscard]] std::size_t size() const { return blobs_.size(); }

  /// Times the shared encode buffer was reused with warm capacity
  /// (i.e. put_control calls after the first).
  [[nodiscard]] const obs::Counter& writer_reuses() const {
    return writer_reuses_;
  }

 private:
  std::unordered_map<std::uint64_t, std::string> blobs_;
  /// Decode memo for get_control_shared; entries die with their blob
  /// (remove()) so a re-used id can never serve stale bytes.
  std::unordered_map<std::uint64_t, PreparedControlPtr> prepared_;
  /// Encode buffer reused across put_control calls (capacity persists).
  wire::Writer writer_;
  bool writer_used_ = false;
  obs::Counter writer_reuses_;
  std::uint64_t next_id_ = 1;
  bool concurrent_ = false;
  mutable std::shared_mutex mutex_;
};

}  // namespace oddci::core
