// Skiplist: the memtable's ordered index (LevelDB-style).
//
// Single-writer/multi-reader is all the DB needs (writes are serialized by
// the DB mutex); we keep it simple and require external synchronization.
// Nodes, keys and values live in an Arena: a node holds its key bytes inline
// after its links, so a compare never leaves the node, and the list is freed
// block by block when it dies. Values carry a tombstone flag so deletes
// shadow older SSTable entries.

#ifndef SRC_LSM_SKIPLIST_H_
#define SRC_LSM_SKIPLIST_H_

#include <cstdint>
#include <cstring>
#include <new>
#include <string_view>
#include <type_traits>

#include "src/lsm/arena.h"
#include "src/util/rng.h"

namespace cache_ext::lsm {

// A key's current value. `value` views bytes in the list's arena: it stays
// valid while the list lives, until the same key is written again.
struct MemEntry {
  std::string_view value;
  bool tombstone = false;
};

class SkipList {
 private:
  struct Node;

 public:
  static constexpr int kMaxHeight = 12;

  SkipList() : rng_(0xdecafbadULL) { head_ = NewNode("", kMaxHeight); }
  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  // Insert or overwrite. An overwrite reuses the old value's bytes when the
  // new value fits in them, so fixed-size updates do not grow the arena.
  void Put(std::string_view key, std::string_view value, bool tombstone) {
    Node* prev[kMaxHeight];
    Node* node = FindGreaterOrEqual(key, prev);
    if (node != nullptr && node->key() == key) {
      SetValue(node, value, tombstone);
      return;
    }
    const int height = RandomHeight();
    Node* fresh = NewNode(key, height);
    SetValue(fresh, value, tombstone);
    for (int level = 0; level < height; ++level) {
      fresh->next[level] = prev[level]->next[level];
      prev[level]->next[level] = fresh;
    }
    ++size_;
    bytes_ += key.size() + value.size() + 32;
  }

  // Returns the entry for key, or nullptr.
  const MemEntry* Get(std::string_view key) const {
    Node* node = FindGreaterOrEqual(key, nullptr);
    if (node != nullptr && node->key() == key) {
      return &node->entry;
    }
    return nullptr;
  }

  size_t size() const { return size_; }
  // The flush trigger's measure: key + value + 32 per distinct key, as
  // first inserted.
  uint64_t ApproximateBytes() const { return bytes_; }
  bool empty() const { return size_ == 0; }
  // Bytes of arena blocks held.
  size_t MemoryUsage() const { return arena_.MemoryUsage(); }

  // Ordered iteration. key() and entry() view the arena.
  class Iterator {
   public:
    explicit Iterator(const SkipList* list)
        : node_(list->head_->next[0]) {}

    bool Valid() const { return node_ != nullptr; }
    std::string_view key() const { return node_->key(); }
    const MemEntry& entry() const { return node_->entry; }
    void Next() { node_ = node_->next[0]; }

    // Position at the first key >= target.
    void Seek(const SkipList* list, std::string_view target) {
      node_ = list->FindGreaterOrEqual(target, nullptr);
    }

   private:
    friend class SkipList;
    Node* node_;
  };

  Iterator NewIterator() const { return Iterator(this); }

 private:
  struct Node {  // definition of the forward-declared nested type
    MemEntry entry;
    uint32_t value_capacity;  // arena bytes owned at entry.value.data()
    uint32_t key_size;
    uint32_t height;
    // Over-allocated flexible next array of `height` links, followed by
    // the key bytes.
    Node* next[1];

    std::string_view key() const {
      return {reinterpret_cast<const char*>(next + height), key_size};
    }
  };
  static_assert(std::is_trivially_destructible_v<Node>);

  Node* NewNode(std::string_view key, int height) {
    const size_t links = sizeof(Node*) * static_cast<size_t>(height);
    char* mem =
        arena_.AllocateAligned(sizeof(Node) - sizeof(Node*) + links + key.size());
    Node* node = new (mem) Node{MemEntry{}, 0, static_cast<uint32_t>(key.size()),
                                static_cast<uint32_t>(height), {nullptr}};
    for (int i = 0; i < height; ++i) {
      node->next[i] = nullptr;
    }
    if (!key.empty()) {
      std::memcpy(node->next + height, key.data(), key.size());
    }
    return node;
  }

  void SetValue(Node* node, std::string_view value, bool tombstone) {
    char* bytes = const_cast<char*>(node->entry.value.data());
    if (value.size() > node->value_capacity) {
      bytes = arena_.Allocate(value.size());
      node->value_capacity = static_cast<uint32_t>(value.size());
    }
    if (!value.empty()) {
      std::memcpy(bytes, value.data(), value.size());
    }
    node->entry.value = std::string_view(bytes, value.size());
    node->entry.tombstone = tombstone;
  }

  int RandomHeight() {
    int height = 1;
    while (height < kMaxHeight && rng_.NextU64Below(4) == 0) {
      ++height;
    }
    return height;
  }

  Node* FindGreaterOrEqual(std::string_view key, Node** prev) const {
    Node* node = head_;
    int level = kMaxHeight - 1;
    while (true) {
      Node* next = node->next[level];
      if (next != nullptr && next->key() < key) {
        node = next;
        continue;
      }
      if (prev != nullptr) {
        prev[level] = node;
      }
      if (level == 0) {
        return next;
      }
      --level;
    }
  }

  Arena arena_;
  Node* head_;
  size_t size_ = 0;
  uint64_t bytes_ = 0;
  Rng rng_;
};

}  // namespace cache_ext::lsm

#endif  // SRC_LSM_SKIPLIST_H_
