#include "src/sim/sim_disk.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>

#include "src/fault/fault_injector.h"

namespace cache_ext {

namespace {

const DiskRun* PageAt(const std::vector<const DiskRun*>& pages, uint64_t page) {
  return page < pages.size() ? pages[page] : nullptr;
}

}  // namespace

SimDisk::~SimDisk() {
  for (auto& [id, f] : files_) {
    for (const DiskRun* run : f.pages) {
      DiskRun::Unref(run);
    }
  }
}

Expected<FileId> SimDisk::Create(std::string_view name) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::string key(name);
  if (by_name_.count(key) != 0) {
    return AlreadyExists("file exists: " + key);
  }
  const FileId id = next_id_++;
  files_[id] = File{key, 0, {}};
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
  std::vector<const DiskRun*> pages;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = by_name_.find(std::string(name));
    if (it == by_name_.end()) {
      return NotFound("no such file: " + std::string(name));
    }
    pages = std::move(files_[it->second].pages);
    files_.erase(it->second);
    by_name_.erase(it);
  }
  for (const DiskRun* run : pages) {
    DiskRun::Unref(run);
  }
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
  return f == nullptr ? 0 : f->size;
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
  // A run never holds bytes past the file's size, so pages past EOF and
  // the tail of the last page read as zeroes.
  size_t done = 0;
  while (done < out.size()) {
    const uint64_t pos = offset + done;
    const uint64_t page = pos / kDiskPageSize;
    const uint64_t in_page = pos % kDiskPageSize;
    const size_t n =
        std::min<uint64_t>(out.size() - done, kDiskPageSize - in_page);
    DiskRun::CopyOut(PageAt(f->pages, page), page, in_page,
                     out.subspan(done, n));
    done += n;
  }
  return OkStatus();
}

Status SimDisk::WriteAt(FileId id, uint64_t offset,
                        std::span<const uint8_t> data) {
  if (data.empty()) {
    if (fault::InjectFault(fault::points::kDiskWrite)) {
      return IoError("injected disk write error (media failure)");
    }
    // Nothing to publish; the file still grows to `offset` (zero fill).
    std::unique_lock<std::shared_mutex> lock(mu_);
    File* f = FindFile(id);
    if (f == nullptr) {
      return NotFound("bad file id");
    }
    f->size = std::max(f->size, offset);
    return OkStatus();
  }
  // The one copy, before the lock: room for the first page's old bytes
  // before `offset` (filled by Publish) and for a whole last page, so the
  // merge of its old bytes never reallocates.
  const uint64_t head = offset % kDiskPageSize;
  const uint64_t end = offset + data.size();
  std::string bytes;
  bytes.reserve(head + data.size() + kDiskPageSize - 1 -
                (end - 1) % kDiskPageSize);
  bytes.resize(head);
  bytes.append(reinterpret_cast<const char*>(data.data()), data.size());
  return Publish(id, offset - head, head, std::move(bytes));
}

Status SimDisk::WriteAt(FileId id, uint64_t offset, std::string&& bytes) {
  if (offset % kDiskPageSize != 0 || bytes.empty()) {
    return WriteAt(id, offset,
                   std::span<const uint8_t>(
                       reinterpret_cast<const uint8_t*>(bytes.data()),
                       bytes.size()));
  }
  return Publish(id, offset, 0, std::move(bytes));
}

Status SimDisk::Publish(FileId id, uint64_t start, uint64_t head,
                        std::string&& bytes) {
  if (fault::InjectFault(fault::points::kDiskWrite)) {
    return IoError("injected disk write error (media failure)");
  }
  const uint64_t first_page = start / kDiskPageSize;
  const uint64_t end = start + bytes.size();
  const uint64_t last_page = (end - 1) / kDiskPageSize;
  const uint64_t page_end = (last_page + 1) * kDiskPageSize;
  std::vector<const DiskRun*> dropped;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    File* f = FindFile(id);
    if (f == nullptr) {
      return NotFound("bad file id");
    }
    uint8_t* data = reinterpret_cast<uint8_t*>(bytes.data());
    if (head > 0) {
      DiskRun::CopyOut(PageAt(f->pages, first_page), first_page, 0,
                       std::span<uint8_t>(data, head));
    }
    if (end < f->size && end < page_end) {
      // Old bytes survive after the write in its last page: merge them in
      // (for a gift, this is the copy it was meant to avoid).
      const uint64_t keep = std::min(page_end, f->size) - end;
      const size_t at = bytes.size();
      bytes.resize(at + keep);
      DiskRun::CopyOut(
          PageAt(f->pages, last_page), last_page, end % kDiskPageSize,
          std::span<uint8_t>(reinterpret_cast<uint8_t*>(bytes.data()) + at,
                             keep));
    }
    const uint64_t nr_pages = last_page - first_page + 1;
    const DiskRun* run =
        new DiskRun(std::move(bytes), first_page, nr_pages);
    if (f->pages.size() < last_page + 1) {
      f->pages.resize(last_page + 1, nullptr);
    }
    for (uint64_t p = first_page; p <= last_page; ++p) {
      if (f->pages[p] != nullptr) {
        dropped.push_back(f->pages[p]);
      }
      f->pages[p] = run;
    }
    f->size = std::max(f->size, end);
  }
  // Device-side readers hold the lock, so these can go at once; a cached
  // folio holds its own reference.
  for (const DiskRun* run : dropped) {
    DiskRun::Unref(run);
  }
  return OkStatus();
}

Status SimDisk::Truncate(FileId id, uint64_t size) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  File* f = FindFile(id);
  if (f == nullptr) {
    return NotFound("bad file id");
  }
  f->size = std::max(f->size, size);  // the new pages have no run: zeroes
  return OkStatus();
}

void SimDisk::RefPages(FileId id, uint64_t first_page,
                       std::span<const DiskRun*> out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const File* f = FindFile(id);
  for (size_t i = 0; i < out.size(); ++i) {
    const DiskRun* run =
        f == nullptr ? nullptr : PageAt(f->pages, first_page + i);
    if (run != nullptr) {
      run->Ref();
    }
    out[i] = run;
  }
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
    total += f.size;
  }
  return total;
}

}  // namespace cache_ext
