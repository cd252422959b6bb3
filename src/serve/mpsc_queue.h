// Bounded lock-free MPMC ring buffer (Dmitry Vyukov's sequence-stamped
// design), used as the admission service's ingest queue: any number of
// producer threads enqueue mutation events, the single writer thread drains
// them in FIFO order per producer.
//
// Each cell carries a sequence stamp: `seq == index` means free for the
// producer that claims ticket `index`; `seq == index + 1` means occupied and
// ready for the consumer holding that ticket. Claiming a ticket is one
// fetch-less CAS on the head/tail counter; publication is a release store of
// the stamp, so the consumer's acquire load of the stamp is the only
// synchronization on the hot path — no mutex, no condition variable, no
// allocation after construction. Full/empty are reported, not blocked on;
// callers decide whether to wait or drop (the admission service parks the
// writer on an empty ring and a producer on a full one; see
// serve/admission.h).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace rejecto::serve {

template <typename T>
class MpscQueue {
 public:
  // The largest capacity accepted: 2^20 cells. Rounding up past 2^63 would
  // wrap to 0, and a ring this deep already holds far more than an epoch.
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 20;

  // Capacity is rounded up to a power of two (at least 2). Throws
  // std::invalid_argument past kMaxCapacity, before allocating.
  explicit MpscQueue(std::size_t capacity) {
    if (capacity > kMaxCapacity) {
      throw std::invalid_argument("MpscQueue: capacity " +
                                  std::to_string(capacity) + " exceeds " +
                                  std::to_string(kMaxCapacity));
    }
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
    head_.store(0, std::memory_order_relaxed);
    tail_.store(0, std::memory_order_relaxed);
  }

  std::size_t Capacity() const noexcept { return mask_ + 1; }

  // Multi-producer enqueue; returns false when the ring is full.
  bool TryPush(T value) {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.value = std::move(value);
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded `pos`; retry against the new ticket.
      } else if (dif < 0) {
        return false;  // cell still occupied by a lap-old element: full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  // Consumer dequeue; returns false when the ring is empty. Safe for
  // multiple consumers, though the admission service uses exactly one.
  bool TryPop(T& out) {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos + 1);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          out = std::move(cell.value);
          cell.seq.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // producer has not published this cell yet: empty
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  // Racy size estimate for stats/backpressure heuristics only.
  std::size_t ApproxSize() const noexcept {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_relaxed);
    return tail >= head ? tail - head : 0;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq;
    T value;
  };

  // Head and tail on separate cache lines so producers and the consumer do
  // not false-share.
  alignas(64) std::atomic<std::size_t> head_;
  alignas(64) std::atomic<std::size_t> tail_;
  alignas(64) std::size_t mask_ = 0;
  std::unique_ptr<Cell[]> cells_;
};

}  // namespace rejecto::serve
