// Snapshot<T>: a copy-on-write publication point for immutable state.
//
// Readers take the current std::shared_ptr<const T> and use it with no
// further locking; writers build a new T and publish it with store().
// Both hold one mutex only long enough to copy (or swap) the pointer --
// a reference-count bump, off any per-row path -- and the state a store
// replaces is released after the lock is dropped, so freeing a large
// snapshot never stalls a reader.
//
// This stands in for std::atomic<std::shared_ptr<T>>: libstdc++ 12
// implements that with an internal lock ThreadSanitizer cannot see, so
// TSan reports races on it that a plain mutex does not have.
#pragma once

#include <memory>
#include <mutex>
#include <utility>

namespace radix {

template <class T>
class Snapshot {
 public:
  std::shared_ptr<const T> load() const {
    std::scoped_lock lock(mutex_);
    return current_;
  }

  void store(std::shared_ptr<const T> next) {
    {
      std::scoped_lock lock(mutex_);
      current_.swap(next);
    }
    // `next` now holds the replaced snapshot; released here, unlocked.
  }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const T> current_;
};

}  // namespace radix
