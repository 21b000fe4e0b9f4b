#ifndef DSKG_COMMON_EPOCH_H_
#define DSKG_COMMON_EPOCH_H_

/// \file epoch.h
/// Epoch-based read/write coordination for the online-update subsystem.
///
/// The protocol (KVell-style epoch reclamation, adapted to DSKG's
/// read-mostly dual store):
///
///   * Readers *pin* the current epoch for the duration of one query by
///     publishing it in a private slot — a handful of atomic operations,
///     no lock, no waiting on the writer. DSKG's read units are coarse
///     (one whole query), so pin overhead is noise.
///   * The single writer thread publishes a new store state (an atomic
///     pointer/index swap done by the caller), *advances* the epoch, and
///     then *waits for the old epoch to drain*: once no reader slot holds
///     an epoch at or below the pre-advance value, every in-flight reader
///     that could have observed the retired state has finished, and the
///     retired state may be reclaimed or mutated.
///
/// Memory ordering: all epoch traffic is sequentially consistent. The one
/// subtle reader obligation is the re-validation loop in `Pin` — a reader
/// must never end up published under an epoch older than the one the
/// writer is draining while reading the *new* state's predecessor. With
/// seq_cst, a reader whose slot holds epoch `e` observed every publication
/// the writer made before advancing to `e`, which is exactly the guarantee
/// `WaitUntilDrained` hands to the writer.
///
/// Slots: a fixed array of cache-line-aligned atomics. A pin claims the
/// first free slot with a CAS scan (readers outnumbering slots spin-wait;
/// with 64 slots and query-granular pins that is effectively never).

#include <atomic>
#include <cassert>
#include <cstdint>
#include <thread>

namespace dskg {

/// Coordinates one writer with many pinned readers.
class EpochManager {
 public:
  static constexpr size_t kMaxReaders = 64;
  static constexpr uint64_t kIdle = 0;  ///< slot value: not pinned

  EpochManager() = default;
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// RAII pin: holds a reader slot published at the pin-time epoch.
  /// Movable so guards can be returned; not copyable.
  class Pin {
   public:
    Pin() = default;
    Pin(EpochManager* mgr, size_t slot) : mgr_(mgr), slot_(slot) {}
    Pin(Pin&& other) noexcept : mgr_(other.mgr_), slot_(other.slot_) {
      other.mgr_ = nullptr;
    }
    Pin& operator=(Pin&& other) noexcept {
      if (this != &other) {
        Release();
        mgr_ = other.mgr_;
        slot_ = other.slot_;
        other.mgr_ = nullptr;
      }
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { Release(); }

    bool pinned() const { return mgr_ != nullptr; }

    /// The epoch this pin published (for tests/diagnostics).
    uint64_t epoch() const {
      assert(pinned());
      return mgr_->slots_[slot_].epoch.load(std::memory_order_seq_cst);
    }

   private:
    void Release() {
      if (mgr_ != nullptr) {
        mgr_->slots_[slot_].epoch.store(kIdle, std::memory_order_seq_cst);
        mgr_ = nullptr;
      }
    }
    EpochManager* mgr_ = nullptr;
    size_t slot_ = 0;
  };

  /// Pins the current epoch: claims a slot, publishes the epoch in it,
  /// and re-validates that the epoch did not advance mid-publish (if it
  /// did, republishes the newer value — the writer only ever waits on
  /// strictly older pins, so a pin at the *newer* epoch never blocks a
  /// drain it should not). Wait-free against the writer; spins only if
  /// all `kMaxReaders` slots are simultaneously claimed.
  Pin Enter() {
    for (;;) {
      for (size_t i = 0; i < kMaxReaders; ++i) {
        uint64_t expected = kIdle;
        uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
        if (!slots_[i].epoch.compare_exchange_strong(
                expected, e, std::memory_order_seq_cst)) {
          continue;  // slot taken
        }
        // Re-validate: if the writer advanced between our epoch load and
        // slot publish, move the pin forward so the writer never drains
        // around a stale-but-invisible pin.
        for (;;) {
          const uint64_t now = global_epoch_.load(std::memory_order_seq_cst);
          if (now == e) break;
          slots_[i].epoch.store(now, std::memory_order_seq_cst);
          e = now;
        }
        return Pin(this, i);
      }
      std::this_thread::yield();  // all slots busy: rare at query grain
    }
  }

  /// Current epoch value (starts at 1; `kIdle` is reserved).
  uint64_t current_epoch() const {
    return global_epoch_.load(std::memory_order_seq_cst);
  }

  /// Writer: advances the epoch and returns the *previous* value — the
  /// epoch whose readers must drain before retired state is touched.
  uint64_t Advance() {
    return global_epoch_.fetch_add(1, std::memory_order_seq_cst);
  }

  /// Writer: blocks until no reader slot holds an epoch <= `epoch`.
  /// After it returns, any state published strictly before the matching
  /// `Advance` has no remaining observers and is safe to reclaim/mutate.
  void WaitUntilDrained(uint64_t epoch) const {
    for (size_t i = 0; i < kMaxReaders; ++i) {
      for (;;) {
        const uint64_t e = slots_[i].epoch.load(std::memory_order_seq_cst);
        if (e == kIdle || e > epoch) break;
        std::this_thread::yield();
      }
    }
  }

  /// Number of currently pinned slots (diagnostics; racy by nature).
  size_t ActivePins() const {
    size_t n = 0;
    for (size_t i = 0; i < kMaxReaders; ++i) {
      if (slots_[i].epoch.load(std::memory_order_seq_cst) != kIdle) ++n;
    }
    return n;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{kIdle};
  };

  std::atomic<uint64_t> global_epoch_{1};
  Slot slots_[kMaxReaders];
};

}  // namespace dskg

#endif  // DSKG_COMMON_EPOCH_H_
