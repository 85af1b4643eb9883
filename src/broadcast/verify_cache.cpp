#include "broadcast/verify_cache.hpp"

namespace oddci::broadcast {

VerifyCache::VerifyCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  entries_.reserve(capacity_);
}

bool VerifyCache::verify(std::string_view canonical, std::uint64_t digest,
                         SigningKey key, Signature signature) {
  for (const Entry& e : entries_) {
    if (e.digest == digest && e.key == key && e.signature == signature &&
        e.canonical == canonical) {
      hits_.inc();
      return e.verdict;
    }
  }
  misses_.inc();
  const bool verdict = broadcast::verify(key, canonical, signature);
  if (entries_.size() < capacity_) {
    entries_.push_back(
        Entry{digest, key, signature, verdict, std::string(canonical)});
  } else {
    Entry& slot = entries_[next_evict_];
    next_evict_ = (next_evict_ + 1) % capacity_;
    slot.digest = digest;
    slot.key = key;
    slot.signature = signature;
    slot.verdict = verdict;
    slot.canonical.assign(canonical.data(), canonical.size());
  }
  return verdict;
}

}  // namespace oddci::broadcast
