#include "sim/filesystem.hpp"

#include <algorithm>
#include <cstring>

namespace nol::sim {

void
SimFileSystem::putFile(const std::string &path, std::string contents)
{
    files_[path] = std::move(contents);
}

const std::string &
SimFileSystem::contents(const std::string &path) const
{
    auto it = files_.find(path);
    return it == files_.end() ? empty_ : it->second;
}

uint64_t
SimFileSystem::open(const std::string &path, const std::string &mode)
{
    bool writable = mode.find('w') != std::string::npos ||
                    mode.find('a') != std::string::npos ||
                    mode.find('+') != std::string::npos;
    bool truncate = mode.find('w') != std::string::npos;
    if (!writable && files_.count(path) == 0)
        return 0;
    if (truncate)
        files_[path].clear();
    else if (writable)
        files_[path]; // ensure presence

    OpenFile of;
    of.path = path;
    of.writable = writable;
    of.open = true;
    if (mode.find('a') != std::string::npos)
        of.pos = files_[path].size();
    uint64_t handle = next_handle_++;
    handles_[handle] = of;
    return handle;
}

OpenFile *
SimFileSystem::handleFor(uint64_t handle)
{
    auto it = handles_.find(handle);
    return it == handles_.end() || !it->second.open ? nullptr : &it->second;
}

const OpenFile *
SimFileSystem::handleFor(uint64_t handle) const
{
    auto it = handles_.find(handle);
    return it == handles_.end() || !it->second.open ? nullptr : &it->second;
}

bool
SimFileSystem::close(uint64_t handle)
{
    OpenFile *of = handleFor(handle);
    if (of == nullptr)
        return false;
    of->open = false;
    return true;
}

uint64_t
SimFileSystem::read(uint64_t handle, uint8_t *out, uint64_t size)
{
    OpenFile *of = handleFor(handle);
    if (of == nullptr)
        return 0;
    const std::string &data = files_[of->path];
    if (of->pos >= data.size())
        return 0;
    uint64_t avail = data.size() - of->pos;
    uint64_t chunk = std::min(size, avail);
    std::memcpy(out, data.data() + of->pos, chunk);
    of->pos += chunk;
    return chunk;
}

uint64_t
SimFileSystem::write(uint64_t handle, const uint8_t *src, uint64_t size)
{
    OpenFile *of = handleFor(handle);
    if (of == nullptr || !of->writable)
        return 0;
    std::string &data = files_[of->path];
    if (of->pos + size > data.size())
        data.resize(of->pos + size);
    std::memcpy(data.data() + of->pos, src, size);
    of->pos += size;
    return size;
}

int
SimFileSystem::getc(uint64_t handle)
{
    uint8_t c;
    return read(handle, &c, 1) == 1 ? c : -1;
}

int
SimFileSystem::putc(uint64_t handle, int c)
{
    uint8_t byte = static_cast<uint8_t>(c);
    return write(handle, &byte, 1) == 1 ? byte : -1;
}

bool
SimFileSystem::eof(uint64_t handle) const
{
    const OpenFile *of = handleFor(handle);
    if (of == nullptr)
        return true;
    auto it = files_.find(of->path);
    return it == files_.end() || of->pos >= it->second.size();
}

int
SimFileSystem::seek(uint64_t handle, int64_t offset, int whence)
{
    OpenFile *of = handleFor(handle);
    if (of == nullptr)
        return -1;
    const std::string &data = files_[of->path];
    int64_t base = 0;
    switch (whence) {
      case 0: base = 0; break;
      case 1: base = static_cast<int64_t>(of->pos); break;
      case 2: base = static_cast<int64_t>(data.size()); break;
      default: return -1;
    }
    int64_t target = base + offset;
    if (target < 0)
        return -1;
    of->pos = static_cast<uint64_t>(target);
    return 0;
}

int64_t
SimFileSystem::tell(uint64_t handle) const
{
    const OpenFile *of = handleFor(handle);
    return of == nullptr ? -1 : static_cast<int64_t>(of->pos);
}

} // namespace nol::sim
