#include "src/sim/sim_disk.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <shared_mutex>

#include "src/fault/fault_injector.h"

namespace cache_ext {

Expected<FileId> SimDisk::Create(std::string_view name) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::string key(name);
  if (by_name_.count(key) != 0) {
    return AlreadyExists("file exists: " + key);
  }
  const FileId id = next_id_++;
  files_[id] = File{key, {}};
  by_name_[key] = id;
  return id;
}

Expected<FileId> SimDisk::Open(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) {
    return NotFound("no such file: " + std::string(name));
  }
  return it->second;
}

Status SimDisk::Delete(std::string_view name) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) {
    return NotFound("no such file: " + std::string(name));
  }
  files_.erase(it->second);
  by_name_.erase(it);
  return OkStatus();
}

bool SimDisk::Exists(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return by_name_.count(std::string(name)) != 0;
}

const SimDisk::File* SimDisk::FindFile(FileId id) const {
  auto it = files_.find(id);
  return it == files_.end() ? nullptr : &it->second;
}

SimDisk::File* SimDisk::FindFile(FileId id) {
  auto it = files_.find(id);
  return it == files_.end() ? nullptr : &it->second;
}

uint64_t SimDisk::SizeOf(FileId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const File* f = FindFile(id);
  return f == nullptr ? 0 : f->data.size();
}

Status SimDisk::ReadAt(FileId id, uint64_t offset,
                       std::span<uint8_t> out) const {
  if (fault::InjectFault(fault::points::kDiskRead)) {
    return IoError("injected disk read error (media failure)");
  }
  std::shared_lock<std::shared_mutex> lock(mu_);
  const File* f = FindFile(id);
  if (f == nullptr) {
    return NotFound("bad file id");
  }
  const uint64_t size = f->data.size();
  uint64_t copied = 0;
  if (offset < size) {
    copied = std::min<uint64_t>(out.size(), size - offset);
    std::memcpy(out.data(), f->data.data() + offset, copied);
  }
  // Reads past the written extent see zeroes (page-granular convenience).
  if (copied < out.size()) {
    std::memset(out.data() + copied, 0, out.size() - copied);
  }
  return OkStatus();
}

Status SimDisk::WriteAt(FileId id, uint64_t offset,
                        std::span<const uint8_t> data) {
  if (fault::InjectFault(fault::points::kDiskWrite)) {
    return IoError("injected disk write error (media failure)");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  File* f = FindFile(id);
  if (f == nullptr) {
    return NotFound("bad file id");
  }
  // Overwrite the part of the file that exists and append the rest; only a
  // gap before `offset` is zero-filled.
  if (f->data.size() < offset) {
    f->data.resize(offset, 0);
  }
  const size_t overlap =
      std::min<uint64_t>(data.size(), f->data.size() - offset);
  if (overlap > 0) {
    std::memcpy(f->data.data() + offset, data.data(), overlap);
  }
  f->data.insert(f->data.end(), data.begin() + overlap, data.end());
  return OkStatus();
}

Status SimDisk::Truncate(FileId id, uint64_t size) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  File* f = FindFile(id);
  if (f == nullptr) {
    return NotFound("bad file id");
  }
  if (f->data.size() < size) {
    f->data.resize(size, 0);
  }
  return OkStatus();
}

std::vector<std::string> SimDisk::ListFiles() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(by_name_.size());
  for (const auto& [name, id] : by_name_) {
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

uint64_t SimDisk::TotalBytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [id, f] : files_) {
    total += f.data.size();
  }
  return total;
}

}  // namespace cache_ext
