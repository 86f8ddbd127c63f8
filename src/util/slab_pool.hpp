// Slab allocator with stable 32-bit indices and a LIFO free list.
//
// The DES scheduler and the simulated network keep one pooled object per
// in-flight event/message. Requirements that rule out std::vector and
// node-based containers alike:
//   * stable addresses (events hold intrusive links into each other),
//   * index-addressable (an EventId packs a 32-bit slot index),
//   * O(1) acquire/release with zero steady-state allocation — slabs are
//     only ever added, never freed, so a population that plateaus stops
//     allocating entirely,
//   * deterministic reuse order (LIFO), so runs are reproducible.
//
// A slab is raw storage: nothing is constructed when it is allocated.
// acquire() hands out released slots LIFO first and otherwise the lowest
// never-used index, value-initialising T there the first time that index
// is handed out. From then on the object is *reused* across
// acquire/release cycles; callers reset whatever fields matter on
// acquire. (That is the point: the expensive member — an
// InlineFunction's captured state — is overwritten, not reallocated.)
// A pool that only ever holds a handful of objects therefore pays for a
// handful of constructions, not for a slab of them. Only indices below
// handed_out() hold an object; the destructor destroys exactly those.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "check/contract.hpp"

namespace probemon::util {

template <class T, std::size_t SlabBits = 8>
class SlabPool {
 public:
  static constexpr std::uint32_t kSlabSize = 1u << SlabBits;
  static constexpr std::uint32_t kSlabMask = kSlabSize - 1;

  SlabPool() = default;
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;
  ~SlabPool() {
    for (std::uint32_t i = 0; i < fresh_; ++i) (*this)[i].~T();
  }

  /// Take a slot: the most recently released one, else the lowest index
  /// never handed out (constructing its T; grows by one slab when every
  /// allocated slot has been handed out).
  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t index = free_.back();
      free_.pop_back();
      return index;
    }
    if (fresh_ == capacity()) grow();
    const std::uint32_t index = fresh_;
    ::new (static_cast<void*>(slot(index))) T();
    ++fresh_;  // only once T exists, so the destructor never sees a hole
    return index;
  }

  /// Return a slot to the free list. The caller must not use the index
  /// again until re-acquired.
  void release(std::uint32_t index) { free_.push_back(index); }

  T& operator[](std::uint32_t index) noexcept {
    PROBEMON_CONTRACT(index < fresh_, "slab slot " << index
                                          << " was never handed out");
    return *std::launder(reinterpret_cast<T*>(slot(index)));
  }
  const T& operator[](std::uint32_t index) const noexcept {
    PROBEMON_CONTRACT(index < fresh_, "slab slot " << index
                                          << " was never handed out");
    return *std::launder(reinterpret_cast<const T*>(slot(index)));
  }

  /// Total slots ever allocated (monotone; a capacity-planning signal).
  std::size_t capacity() const noexcept { return slabs_.size() * kSlabSize; }
  /// Slots ever handed out, i.e. holding a constructed T (monotone).
  /// Indices at or past it hold no object: bounds-check handles here.
  std::size_t handed_out() const noexcept { return fresh_; }
  std::size_t free_count() const noexcept { return capacity() - in_use(); }
  std::size_t in_use() const noexcept { return fresh_ - free_.size(); }

 private:
  struct alignas(T) Storage {
    std::byte bytes[sizeof(T)];
  };

  Storage* slot(std::uint32_t index) const noexcept {
    return &slabs_[index >> SlabBits][index & kSlabMask];
  }

  void grow() {
    // Default-initialised, so the slab's pages are not even written.
    slabs_.push_back(std::make_unique_for_overwrite<Storage[]>(kSlabSize));
  }

  std::vector<std::unique_ptr<Storage[]>> slabs_;
  std::vector<std::uint32_t> free_;  ///< released slots, LIFO
  std::uint32_t fresh_ = 0;          ///< next never-handed-out index
};

}  // namespace probemon::util
