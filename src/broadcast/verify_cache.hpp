#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "broadcast/signature.hpp"
#include "obs/metrics.hpp"

/// Memoized signature verification for broadcast fan-out.
///
/// One control message reaches every tuned receiver at once; without
/// memoization each of N PNAs independently re-hashes the identical
/// payload to check the identical signature — N keyed hashes for one
/// broadcast. A population shares one VerifyCache: the first agent pays
/// the full `broadcast::verify`, every later agent resolves the same
/// (payload, key, signature) triple with a table lookup plus a byte
/// compare, so a broadcast performs exactly one signature hash per
/// distinct (message, key).
///
/// Security contract:
///  * The 64-bit digest is only an index. A hit additionally compares the
///    stored payload bytes against the queried bytes, so a tampered copy
///    that happens to collide on the digest misses the fast path and goes
///    through full verification (where it fails).
///  * The signing key and the claimed signature are part of the match: a
///    rotated key or a re-signed payload never reuses a stale verdict.
///  * Negative verdicts are cached too — a forged broadcast also costs
///    one hash for the whole population, not N.
///  * Capacity is a hard bound with FIFO eviction: a flood of unique
///    messages recycles slots instead of growing the table.
namespace oddci::broadcast {

class VerifyCache {
 public:
  /// A handful of slots suffice: at any instant the carousel carries one
  /// configuration file per channel plus, transiently, its predecessor.
  explicit VerifyCache(std::size_t capacity = 16);

  VerifyCache(const VerifyCache&) = delete;
  VerifyCache& operator=(const VerifyCache&) = delete;

  /// Verify `signature` over `canonical` under `key`, memoized by
  /// (`digest`, key, signature). `digest` must be
  /// `content_digest(canonical)` — typically precomputed once when the
  /// shared payload was decoded.
  [[nodiscard]] bool verify(std::string_view canonical, std::uint64_t digest,
                            SigningKey key, Signature signature);

  /// Convenience overload that digests `canonical` itself (tests, callers
  /// without a precomputed digest).
  [[nodiscard]] bool verify(std::string_view canonical, SigningKey key,
                            Signature signature) {
    return verify(canonical, content_digest(canonical), key, signature);
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  [[nodiscard]] const obs::Counter& hits() const { return hits_; }
  [[nodiscard]] const obs::Counter& misses() const { return misses_; }

 private:
  struct Entry {
    std::uint64_t digest = 0;
    SigningKey key = 0;
    Signature signature = 0;
    bool verdict = false;
    std::string canonical;  ///< identity check against digest collisions
  };

  std::size_t capacity_;
  std::size_t next_evict_ = 0;  ///< FIFO cursor once full
  std::vector<Entry> entries_;
  obs::Counter hits_;
  obs::Counter misses_;
};

}  // namespace oddci::broadcast
