// Arena: bump allocation from 64 KiB blocks, all freed together when the
// arena dies (LevelDB's util/arena). The memtable allocates its nodes, keys
// and values here, so a Put allocates nothing per record and a flush frees a
// few blocks instead of every node.

#ifndef SRC_LSM_ARENA_H_
#define SRC_LSM_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace cache_ext::lsm {

class Arena {
 public:
  static constexpr size_t kBlockBytes = 64 << 10;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // `bytes` with no alignment guarantee.
  char* Allocate(size_t bytes) {
    if (bytes <= remaining_) {
      char* result = ptr_;
      ptr_ += bytes;
      remaining_ -= bytes;
      return result;
    }
    return AllocateFallback(bytes);
  }

  // `bytes` aligned for pointers.
  char* AllocateAligned(size_t bytes) {
    const size_t slop =
        (0 - reinterpret_cast<uintptr_t>(ptr_)) & (alignof(void*) - 1);
    if (bytes + slop <= remaining_) {
      ptr_ += slop;
      remaining_ -= slop;
      return Allocate(bytes);
    }
    return AllocateFallback(bytes);  // new blocks are malloc-aligned
  }

  // Bytes of all blocks held.
  size_t MemoryUsage() const { return memory_usage_; }

 private:
  char* AllocateFallback(size_t bytes) {
    // A large allocation gets a block of its own, so the current block
    // keeps its tail and at most a quarter block is ever wasted.
    if (bytes > kBlockBytes / 4) {
      return NewBlock(bytes);
    }
    ptr_ = NewBlock(kBlockBytes);
    remaining_ = kBlockBytes;
    return Allocate(bytes);
  }

  char* NewBlock(size_t bytes) {
    blocks_.push_back(std::make_unique_for_overwrite<char[]>(bytes));
    memory_usage_ += bytes;
    return blocks_.back().get();
  }

  char* ptr_ = nullptr;
  size_t remaining_ = 0;
  size_t memory_usage_ = 0;
  std::vector<std::unique_ptr<char[]>> blocks_;
};

}  // namespace cache_ext::lsm

#endif  // SRC_LSM_ARENA_H_
