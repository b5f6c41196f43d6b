#include "codegen/artifact.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <dlfcn.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "support/logging.hpp"

extern char **environ;

namespace nol::codegen {

namespace {

/** Flags are part of the cache key: changing them must recompile. */
const char *kCompileFlags =
    "-O1 -fPIC -shared -fexceptions -fno-strict-aliasing "
    "-ffp-contract=off -w";

/** At most this many cc children run at once; never input-derived. */
const size_t kMaxPending =
    std::max(1u, std::thread::hardware_concurrency());

std::vector<std::string>
splitWords(const std::string &text)
{
    std::istringstream in(text);
    std::vector<std::string> words;
    for (std::string word; in >> word;)
        words.push_back(word);
    return words;
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

bool
writeFileAtomic(const std::string &path, const std::string &content)
{
    std::string tmp =
        path + "." + std::to_string(static_cast<long>(::getpid())) + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out.write(content.data(),
                  static_cast<std::streamsize>(content.size()));
        if (!out)
            return false;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return false;
    }
    return true;
}

/**
 * Spawn `cc <flags> -o out src` with stderr on /dev/null; no shell
 * runs. The child leads a process group of its own, so killing the
 * group reaches cc1, as and ld as well. It inherits no descriptor past
 * stderr, so a pipe the caller holds sees EOF without waiting for cc.
 * Returns its pid, or -1.
 */
pid_t
spawnCompile(const std::vector<std::string> &cc, const std::string &src,
             const std::string &out)
{
    std::vector<std::string> args = cc;
    for (std::string &flag : splitWords(kCompileFlags))
        args.push_back(std::move(flag));
    args.insert(args.end(), {"-o", out, src});
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    ::posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                       O_WRONLY, 0);
    ::posix_spawn_file_actions_addclosefrom_np(&actions, STDERR_FILENO + 1);
    posix_spawnattr_t attr;
    ::posix_spawnattr_init(&attr);
    ::posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
    ::posix_spawnattr_setpgroup(&attr, 0);
    pid_t pid = -1;
    int rc = ::posix_spawnp(&pid, argv[0], &actions, &attr, argv.data(),
                            environ);
    ::posix_spawnattr_destroy(&attr);
    ::posix_spawn_file_actions_destroy(&actions);
    return rc == 0 ? pid : -1;
}

/** Wait for child @p pid: its wait status, or -1 if there is none. */
int
waitChild(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            return -1;
    }
    return status;
}

bool
exitedCleanly(int status)
{
    return status != -1 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string
describeStatus(int status)
{
    if (status != -1 && WIFEXITED(status))
        return "exit status " + std::to_string(WEXITSTATUS(status));
    if (status != -1 && WIFSIGNALED(status))
        return "killed by signal " + std::to_string(WTERMSIG(status));
    return "no exit status";
}

/**
 * Pick the host compiler once by actually building a probe shared
 * object with the real flag set ($NOL_CC / $CC override the search).
 * Empty when none works.
 */
const std::vector<std::string> &
hostCompiler()
{
    static const std::vector<std::string> cc = [] {
        std::vector<std::string> cands;
        if (const char *env = std::getenv("NOL_CC"))
            cands.push_back(env);
        if (const char *env = std::getenv("CC"))
            cands.push_back(env);
        cands.push_back("cc");
        cands.push_back("gcc");
        cands.push_back("clang");

        std::string dir = artifactCacheDir();
        ::mkdir(dir.c_str(), 0777); // EEXIST is fine
        std::string probe_c = dir + "/probe." +
                              std::to_string(static_cast<long>(::getpid())) +
                              ".c";
        std::string probe_so = probe_c + ".so";
        if (!writeFileAtomic(probe_c, "int nol_probe(void){return 0;}\n"))
            return std::vector<std::string>();
        std::vector<std::string> found;
        for (const std::string &cand : cands) {
            std::vector<std::string> words = splitWords(cand);
            if (words.empty())
                continue;
            pid_t pid = spawnCompile(words, probe_c, probe_so);
            if (pid > 0 && exitedCleanly(waitChild(pid))) {
                found = std::move(words);
                break;
            }
        }
        ::unlink(probe_c.c_str());
        ::unlink(probe_so.c_str());
        return found;
    }();
    return cc;
}

} // namespace

/**
 * The process's artifacts and its compiles in flight, under one mutex.
 * A caller may hold the mutex while it waits for a child: the other
 * children keep compiling meanwhile.
 */
class ArtifactRegistry
{
  public:
    ArtifactRegistry() = default;
    ~ArtifactRegistry();

    ArtifactRegistry(const ArtifactRegistry &) = delete;
    ArtifactRegistry &operator=(const ArtifactRegistry &) = delete;

    bool
    start(const LoweredModule &lowered)
    {
        std::string key = artifactKey(lowered);
        std::lock_guard<std::mutex> lock(mutex_);
        return toolchainAvailable() && startLocked(key, lowered.source);
    }

    std::shared_ptr<const NativeArtifact>
    get(const LoweredModule &lowered)
    {
        std::string key = artifactKey(lowered);
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = artifacts_.find(key);
        if (it != artifacts_.end())
            return it->second;
        if (!toolchainAvailable())
            return nullptr;
        startLocked(key, lowered.source);
        auto job = findPending(key);
        if (job == pending_.end()) // already on disk
            return load(key, cachePath(key, ".so"));
        Pending mine = std::move(*job);
        pending_.erase(job);
        return finish(mine);
    }

  private:
    /** A cc child writing one digest's private temporary .so. */
    struct Pending {
        std::string key;
        std::string cPath;
        std::string soPath;
        pid_t pid = -1;
        pid_t parent = -1; ///< the process that spawned it

        std::string
        tmpSo() const
        {
            return soPath + "." + std::to_string(static_cast<long>(parent)) +
                   ".tmp";
        }
    };

    static std::string
    artifactKey(const LoweredModule &lowered)
    {
        return contentDigest(lowered.digest + "|" + kCompileFlags);
    }

    static std::string
    cachePath(const std::string &key, const char *ext)
    {
        return artifactCacheDir() + "/nol_" + key + ext;
    }

    std::deque<Pending>::iterator
    findPending(const std::string &key)
    {
        return std::find_if(pending_.begin(), pending_.end(),
                            [&](const Pending &p) { return p.key == key; });
    }

    bool startLocked(const std::string &key, const std::string &source);
    std::shared_ptr<const NativeArtifact> finish(const Pending &job);
    std::shared_ptr<const NativeArtifact> load(const std::string &key,
                                               const std::string &so_path);

    std::mutex mutex_;
    std::map<std::string, std::shared_ptr<const NativeArtifact>> artifacts_;
    std::deque<Pending> pending_; ///< oldest first
};

bool
ArtifactRegistry::startLocked(const std::string &key,
                              const std::string &source)
{
    if (artifacts_.count(key) != 0 || findPending(key) != pending_.end())
        return false;
    std::string dir = artifactCacheDir();
    ::mkdir(dir.c_str(), 0777); // EEXIST is fine
    std::string so_path = cachePath(key, ".so");
    if (fileExists(so_path))
        return false;
    if (pending_.size() >= kMaxPending) {
        Pending oldest = std::move(pending_.front());
        pending_.pop_front();
        finish(oldest);
    }

    Pending job;
    job.key = key;
    job.cPath = cachePath(key, ".c");
    job.soPath = so_path;
    job.parent = ::getpid();
    if (!writeFileAtomic(job.cPath, source))
        panic("cannot write %s", job.cPath.c_str());
    // Compile to a private name, then rename: concurrent processes
    // racing on the same digest each publish a complete .so.
    job.pid = spawnCompile(hostCompiler(), job.cPath, job.tmpSo());
    if (job.pid < 0)
        panic("cannot start the host C compiler on %s", job.cPath.c_str());
    pending_.push_back(std::move(job));
    return true;
}

std::shared_ptr<const NativeArtifact>
ArtifactRegistry::finish(const Pending &job)
{
    int status = waitChild(job.pid);
    std::string tmp_so = job.tmpSo();
    if (!exitedCleanly(status)) {
        ::unlink(tmp_so.c_str());
        panic("host cc failed on artifact %s (%s): %s", job.key.c_str(),
              job.cPath.c_str(), describeStatus(status).c_str());
    }
    if (::rename(tmp_so.c_str(), job.soPath.c_str()) != 0) {
        int err = errno;
        ::unlink(tmp_so.c_str());
        panic("cannot publish %s: %s", job.soPath.c_str(),
              std::strerror(err));
    }
    return load(job.key, job.soPath);
}

std::shared_ptr<const NativeArtifact>
ArtifactRegistry::load(const std::string &key, const std::string &so_path)
{
    void *handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle == nullptr) {
        const char *why = ::dlerror();
        panic("cannot load %s: %s", so_path.c_str(), why ? why : "?");
    }
    auto *fns = reinterpret_cast<const NolFn *>(
        ::dlsym(handle, "nol_fn_table"));
    auto *count =
        reinterpret_cast<const uint32_t *>(::dlsym(handle, "nol_fn_count"));
    if (fns == nullptr || count == nullptr) {
        ::dlclose(handle);
        panic("%s has no generated function table", so_path.c_str());
    }

    auto artifact = std::shared_ptr<NativeArtifact>(new NativeArtifact());
    artifact->handle_ = handle;
    artifact->fns_ = fns;
    artifact->count_ = *count;
    artifacts_[key] = artifact;
    return artifact;
}

/** No child outlives the process to write into the cache. */
ArtifactRegistry::~ArtifactRegistry()
{
    for (const Pending &job : pending_) {
        if (job.parent != ::getpid())
            continue; // inherited across fork(): not this process's child
        ::kill(-job.pid, SIGKILL);
        waitChild(job.pid);
        ::unlink(job.tmpSo().c_str());
    }
}

namespace {

ArtifactRegistry g_registry;

} // namespace

std::string
artifactCacheDir()
{
    if (const char *env = std::getenv("NOL_CODEGEN_DIR"))
        return env;
    return ".nol-codegen";
}

bool
toolchainAvailable()
{
    return !hostCompiler().empty();
}

NativeArtifact::~NativeArtifact()
{
    if (handle_ != nullptr)
        ::dlclose(handle_);
}

bool
startCompile(const LoweredModule &lowered)
{
    return g_registry.start(lowered);
}

std::shared_ptr<const NativeArtifact>
getOrCompile(const LoweredModule &lowered)
{
    return g_registry.get(lowered);
}

} // namespace nol::codegen
