// MemTable: skiplist wrapper tracking approximate memory use. Entries and
// keys it hands out view the skiplist's arena and die with Reset().

#ifndef SRC_LSM_MEMTABLE_H_
#define SRC_LSM_MEMTABLE_H_

#include <memory>
#include <string_view>

#include "src/lsm/skiplist.h"

namespace cache_ext::lsm {

class MemTable {
 public:
  MemTable() : list_(std::make_unique<SkipList>()) {}

  void Put(std::string_view key, std::string_view value) {
    list_->Put(key, value, /*tombstone=*/false);
  }
  void Delete(std::string_view key) {
    list_->Put(key, "", /*tombstone=*/true);
  }
  const MemEntry* Get(std::string_view key) const { return list_->Get(key); }

  uint64_t ApproximateBytes() const { return list_->ApproximateBytes(); }
  size_t size() const { return list_->size(); }
  bool empty() const { return list_->empty(); }

  SkipList::Iterator NewIterator() const { return list_->NewIterator(); }
  const SkipList* list() const { return list_.get(); }

  void Reset() { list_ = std::make_unique<SkipList>(); }

 private:
  std::unique_ptr<SkipList> list_;
};

}  // namespace cache_ext::lsm

#endif  // SRC_LSM_MEMTABLE_H_
