/**
 * @file
 * In-memory file system of the mobile device. Workloads read inputs
 * (play records, cell files, video frames) through fopen/fread/fgetc;
 * when a task runs offloaded, these calls become *remote* I/O that the
 * server forwards to the mobile device (paper Sec. 3.4), which is what
 * makes programs like 445.gobmk and 464.h264ref I/O-bound remotely.
 */
#ifndef NOL_SIM_FILESYSTEM_HPP
#define NOL_SIM_FILESYSTEM_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nol::sim {

/** One open stream. */
struct OpenFile {
    std::string path;
    uint64_t pos = 0;
    bool writable = false;
    bool open = false;
};

/** A trivially simple in-memory filesystem with FILE-handle semantics. */
class SimFileSystem
{
  public:
    /** Create/overwrite a file with @p contents. */
    void putFile(const std::string &path, std::string contents);

    /** Contents of @p path (empty if absent). */
    const std::string &contents(const std::string &path) const;

    /**
     * Open @p path with a C mode string ("r", "w", "a", "rb", ...).
     * Returns a nonzero handle, or 0 on failure (missing file in read
     * mode).
     */
    uint64_t open(const std::string &path, const std::string &mode);

    /** Close a handle; returns false if the handle was invalid. */
    bool close(uint64_t handle);

    /** Read up to @p size bytes; returns bytes read (0 at EOF). */
    uint64_t read(uint64_t handle, uint8_t *out, uint64_t size);

    /** Write @p size bytes; returns bytes written. */
    uint64_t write(uint64_t handle, const uint8_t *src, uint64_t size);

    /** One character, or -1 at EOF / bad handle. */
    int getc(uint64_t handle);

    /** Append one character; returns the character or -1. */
    int putc(uint64_t handle, int c);

    /** True at end-of-file. */
    bool eof(uint64_t handle) const;

    /** fseek with SEEK_SET(0)/SEEK_CUR(1)/SEEK_END(2); 0 on success. */
    int seek(uint64_t handle, int64_t offset, int whence);

    /** Current position, or -1. */
    int64_t tell(uint64_t handle) const;

  private:
    OpenFile *handleFor(uint64_t handle);
    const OpenFile *handleFor(uint64_t handle) const;

    std::map<std::string, std::string> files_;
    std::map<uint64_t, OpenFile> handles_;
    uint64_t next_handle_ = 1;
    std::string empty_;
};

} // namespace nol::sim

#endif // NOL_SIM_FILESYSTEM_HPP
