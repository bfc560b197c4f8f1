#include "trace/corpus.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/telemetry.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace occsim {

namespace {

constexpr char kMagic[4] = {'O', 'C', 'P', 'C'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kHeaderBytes = 64;
constexpr const char *kEntrySuffix = ".opc";
/** Refuse absurd name fields before allocating for them. */
constexpr std::uint32_t kMaxNameLen = 4096;
/** A file whose ctime is younger than this, measured against a clock
 *  reading taken before its hash, is re-hashed on every open: coarse
 *  filesystem timestamps (one jiffy up to 2 s) could hide an in-place
 *  write that landed in the same tick as the verified state. */
constexpr std::int64_t kRacyNs = 2'000'000'000;

/** Fixed-layout file header; all fields little-endian. */
struct FileHeader
{
    char magic[4];
    std::uint32_t version;
    std::uint64_t recordCount;
    std::uint64_t contentHash;
    std::uint32_t wordSize;
    std::uint32_t dataOffset;
    std::uint32_t nameLen;
    char pad[kHeaderBytes - 36];
};

static_assert(sizeof(FileHeader) == kHeaderBytes,
              "OCPC header must be exactly 64 bytes");

void setError(std::string *error, std::string message)
{
    if (error)
        *error = std::move(message);
}

std::uint32_t alignUp64(std::uint32_t n)
{
    return (n + 63u) & ~63u;
}

/**
 * Validate @p header against the file's byte size. Returns "" when
 * the header is coherent, else a one-line reason.
 */
std::string checkHeader(const FileHeader &header, std::uint64_t file_size)
{
    if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0)
        return "bad magic (not an OCPC corpus file)";
    if (header.version != kVersion)
        return strfmt("unsupported OCPC version %u (want %u)",
                      header.version, kVersion);
    if (header.nameLen > kMaxNameLen)
        return strfmt("implausible name length %u", header.nameLen);
    if (header.dataOffset < kHeaderBytes + header.nameLen ||
        header.dataOffset % alignof(PackedRecord) != 0)
        return strfmt("bad data offset %u", header.dataOffset);
    const std::uint64_t need =
        header.dataOffset + header.recordCount * sizeof(PackedRecord);
    if (file_size < need)
        return strfmt("truncated: %llu bytes on disk, header promises "
                      "%llu",
                      static_cast<unsigned long long>(file_size),
                      static_cast<unsigned long long>(need));
    return "";
}

/** Read @p header from @p path. Returns "" or a reason. */
std::string readHeader(const std::string &path, FileHeader *header,
                       std::uint64_t *file_size)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return strfmt("open failed: %s", std::strerror(errno));
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        return strfmt("fstat failed: %s", std::strerror(err));
    }
    if (static_cast<std::uint64_t>(st.st_size) < kHeaderBytes) {
        ::close(fd);
        return strfmt("file too small for a header (%lld bytes)",
                      static_cast<long long>(st.st_size));
    }
    const ssize_t got = ::pread(fd, header, sizeof(*header), 0);
    ::close(fd);
    if (got != static_cast<ssize_t>(sizeof(*header)))
        return "short header read";
    *file_size = static_cast<std::uint64_t>(st.st_size);
    return checkHeader(*header, *file_size);
}

/** Holds one read-only file mapping; unmapped on destruction. */
struct Mapping
{
    void *base = MAP_FAILED;
    std::size_t bytes = 0;

    ~Mapping()
    {
        if (base != MAP_FAILED)
            ::munmap(base, bytes);
    }
};

/** An OCPC file mapped read-only with its header checked; its
 *  records are not yet checked against the content hash. */
struct MappedFile
{
    std::shared_ptr<Mapping> mapping;
    struct stat st{};  ///< fstat of the mapped file, taken before hashing
    FileHeader header{};

    const PackedRecord *records() const
    {
        return reinterpret_cast<const PackedRecord *>(
            static_cast<const char *>(mapping->base) +
            header.dataOffset);
    }
};

/**
 * Open, fstat and map @p path, then check its header (magic, version,
 * size vs record count). @return false with @p error set on failure.
 */
bool
mapChecked(const std::string &path, MappedFile &file, std::string *error)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        setError(error, strfmt("cannot open %s: %s", path.c_str(),
                               std::strerror(errno)));
        return false;
    }
    if (::fstat(fd, &file.st) != 0) {
        setError(error, strfmt("fstat %s failed: %s", path.c_str(),
                               std::strerror(errno)));
        ::close(fd);
        return false;
    }
    const std::uint64_t file_size =
        static_cast<std::uint64_t>(file.st.st_size);
    if (file_size < kHeaderBytes) {
        setError(error,
                 strfmt("%s: file too small for a header (%llu bytes)",
                        path.c_str(),
                        static_cast<unsigned long long>(file_size)));
        ::close(fd);
        return false;
    }

    file.mapping = std::make_shared<Mapping>();
    file.mapping->bytes = static_cast<std::size_t>(file_size);
    file.mapping->base = ::mmap(nullptr, file.mapping->bytes, PROT_READ,
                                MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping keeps the file referenced
    if (file.mapping->base == MAP_FAILED) {
        setError(error, strfmt("mmap %s failed: %s", path.c_str(),
                               std::strerror(errno)));
        return false;
    }

    std::memcpy(&file.header, file.mapping->base, sizeof(file.header));
    const std::string reason = checkHeader(file.header, file_size);
    if (!reason.empty()) {
        setError(error, strfmt("%s: %s", path.c_str(), reason.c_str()));
        return false;
    }
    return true;
}

/** Recompute the content hash over @p file's records. @return false
 *  with @p error set when it does not match the header. */
bool
verifyRecords(const std::string &path, const MappedFile &file,
              std::string *error)
{
    // Flipped record bits are refused here, not discovered as a
    // silently wrong miss ratio later.
    const std::uint64_t hash = packedContentHash(
        file.records(), static_cast<std::size_t>(file.header.recordCount));
    if (hash == file.header.contentHash)
        return true;
    setError(error,
             strfmt("%s: content hash mismatch (stored %s, computed %s) "
                    "— corrupted records",
                    path.c_str(),
                    contentHashHex(file.header.contentHash).c_str(),
                    contentHashHex(hash).c_str()));
    return false;
}

/** Wrap a checked @p file as a PackedTrace view over its mapping. */
std::shared_ptr<const PackedTrace>
wrapTrace(MappedFile &file, std::uint32_t *word_size)
{
    std::string name(
        static_cast<const char *>(file.mapping->base) + kHeaderBytes,
        file.header.nameLen);
    if (word_size)
        *word_size = file.header.wordSize;
    OCCSIM_TELEM_COUNT("corpus.map.refs", file.header.recordCount);
    const PackedRecord *records = file.records();
    return std::make_shared<const PackedTrace>(
        std::move(name), records,
        static_cast<std::size_t>(file.header.recordCount),
        std::move(file.mapping));
}

std::int64_t
toNs(const struct timespec &t)
{
    return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 +
           t.tv_nsec;
}

bool writeAll(int fd, const void *data, std::size_t bytes)
{
    const char *p = static_cast<const char *>(data);
    while (bytes > 0) {
        const ssize_t put = ::write(fd, p, bytes);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += put;
        bytes -= static_cast<std::size_t>(put);
    }
    return true;
}

} // namespace

std::uint64_t
packedContentHash(const PackedRecord *records, std::size_t count)
{
    // FNV-1a 64 over the raw record bytes. Not cryptographic — the
    // corpus defends against corruption and accidental collision, not
    // adversarial traces.
    std::uint64_t hash = 1469598103934665603ull;
    const unsigned char *bytes =
        reinterpret_cast<const unsigned char *>(records);
    const std::size_t total = count * sizeof(PackedRecord);
    for (std::size_t i = 0; i < total; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

std::string contentHashHex(std::uint64_t hash)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

bool
writePackedTraceFile(const std::string &path, const PackedTrace &trace,
                     std::uint32_t word_size, std::string *error)
{
    FileHeader header;
    std::memset(&header, 0, sizeof(header));
    std::memcpy(header.magic, kMagic, sizeof(kMagic));
    header.version = kVersion;
    header.recordCount = trace.size();
    header.contentHash = packedContentHash(trace.data(), trace.size());
    header.wordSize = word_size;
    header.nameLen = static_cast<std::uint32_t>(
        std::min<std::size_t>(trace.name().size(), kMaxNameLen));
    header.dataOffset = alignUp64(kHeaderBytes + header.nameLen);

    // Write through a unique temp name next to the target and rename
    // into place: a crash mid write can strand a temp file but never
    // a half-written entry under the final name, and concurrent
    // writers of one entry never truncate each other's file.
    std::string tmp = path + ".tmp.XXXXXX";
    const int fd = ::mkstemp(tmp.data());
    if (fd < 0) {
        setError(error, strfmt("cannot create %s: %s", tmp.c_str(),
                               std::strerror(errno)));
        return false;
    }
    if (::fchmod(fd, 0644) != 0) {
        const int err = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        setError(error, strfmt("chmod %s failed: %s", tmp.c_str(),
                               std::strerror(err)));
        return false;
    }

    const std::vector<char> gap(header.dataOffset - kHeaderBytes -
                                    header.nameLen,
                                '\0');
    bool ok = writeAll(fd, &header, sizeof(header)) &&
              writeAll(fd, trace.name().data(), header.nameLen) &&
              (gap.empty() || writeAll(fd, gap.data(), gap.size())) &&
              (trace.empty() ||
               writeAll(fd, trace.data(),
                        trace.size() * sizeof(PackedRecord)));
    if (ok && ::fsync(fd) != 0)
        ok = false;
    const int write_err = errno;
    ::close(fd);

    if (!ok) {
        ::unlink(tmp.c_str());
        setError(error, strfmt("write to %s failed: %s", tmp.c_str(),
                               std::strerror(write_err)));
        return false;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        ::unlink(tmp.c_str());
        setError(error, strfmt("rename to %s failed: %s", path.c_str(),
                               std::strerror(err)));
        return false;
    }
    return true;
}

std::shared_ptr<const PackedTrace>
mapPackedTraceFile(const std::string &path, std::uint32_t *word_size,
                   std::string *error)
{
    MappedFile file;
    if (!mapChecked(path, file, error) ||
        !verifyRecords(path, file, error))
        return nullptr;
    return wrapTrace(file, word_size);
}

TraceCorpus::TraceCorpus(std::string dir) : dir_(std::move(dir))
{
    occsim_assert(!dir_.empty(), "empty corpus directory");
    if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST)
        fatal("cannot create corpus directory %s: %s", dir_.c_str(),
              std::strerror(errno));
}

std::string
TraceCorpus::entryPath(const std::string &hash) const
{
    return dir_ + "/" + hash + kEntrySuffix;
}

std::string
TraceCorpus::ingest(const VectorTrace &trace, std::string *error)
{
    const PackedTrace packed(trace);
    // Every reference in a trace moves one data-path word, so the
    // first record's size field is the trace's word size.
    const std::uint32_t word_size = trace.empty() ? 0 : trace[0].size;
    return ingestPacked(packed, word_size, error);
}

std::string
TraceCorpus::ingestPacked(const PackedTrace &packed,
                          std::uint32_t word_size, std::string *error)
{
    const std::uint64_t hash =
        packedContentHash(packed.data(), packed.size());
    const std::string hex = contentHashHex(hash);
    const std::string path = entryPath(hex);

    std::lock_guard<std::mutex> lock(mutex_);

    // Dedup: if a valid entry with this content hash already exists,
    // the bytes are already on disk — skip the write entirely.
    FileHeader header;
    std::uint64_t file_size = 0;
    if (readHeader(path, &header, &file_size).empty() &&
        header.contentHash == hash &&
        header.recordCount == packed.size()) {
        OCCSIM_TELEM_COUNT("corpus.ingest.dedup", 1);
        wordSize_[hex] = header.wordSize;
        return hex;
    }

    OCCSIM_TELEM_STAGE("corpus.ingest");
    if (!writePackedTraceFile(path, packed, word_size, error))
        return "";
    OCCSIM_TELEM_COUNT("corpus.ingest.refs", packed.size());
    wordSize_[hex] = word_size;
    return hex;
}

std::shared_ptr<const PackedTrace>
TraceCorpus::open(const std::string &hash, std::string *error)
{
    std::lock_guard<std::mutex> lock(mutex_);

    const auto it = mapped_.find(hash);
    if (it != mapped_.end()) {
        if (auto trace = it->second.lock())
            return trace;
    }

    const std::string path = entryPath(hash);
    MappedFile file;
    if (!mapChecked(path, file, error))
        return nullptr;
    maps_.fetch_add(1, std::memory_order_relaxed);

    // The identity comes from the fstat taken before hashing, so a
    // write that races the hash changes the ctime after it and the
    // next open re-verifies.
    const FileIdentity identity{
        static_cast<std::uint64_t>(file.st.st_dev),
        static_cast<std::uint64_t>(file.st.st_ino),
        static_cast<std::int64_t>(file.st.st_size),
        toNs(file.st.st_mtim), toNs(file.st.st_ctim)};
    const auto known = verified_.find(hash);
    if (known == verified_.end() || known->second != identity) {
        if (known != verified_.end())
            verified_.erase(known);
        struct timespec now{};
        ::clock_gettime(CLOCK_REALTIME, &now);
        bool intact = false;
        {
            OCCSIM_TELEM_STAGE("corpus.verify");
            verifies_.fetch_add(1, std::memory_order_relaxed);
            intact = verifyRecords(path, file, error);
        }
        if (!intact)
            return nullptr;
        // The racy-file rule: remember only a file whose last change
        // is safely older than the hash.
        if (identity.ctimeNs <= toNs(now) - kRacyNs)
            verified_.emplace(hash, identity);
    }

    std::uint32_t word_size = 0;
    auto trace = wrapTrace(file, &word_size);
    mapped_[hash] = trace;
    wordSize_[hash] = word_size;

    // Sweep dead mappings so a long-lived server's map stays bounded
    // by the live set, not by history.
    if (mapped_.size() >= 64) {
        for (auto e = mapped_.begin(); e != mapped_.end();) {
            if (e->second.expired())
                e = mapped_.erase(e);
            else
                ++e;
        }
    }
    return trace;
}

std::uint32_t
TraceCorpus::wordSize(const std::string &hash)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = wordSize_.find(hash);
    return it == wordSize_.end() ? 0 : it->second;
}

std::vector<CorpusEntry>
TraceCorpus::entries(std::string *error)
{
    std::vector<CorpusEntry> result;
    DIR *dir = ::opendir(dir_.c_str());
    if (!dir) {
        setError(error, strfmt("cannot list %s: %s", dir_.c_str(),
                               std::strerror(errno)));
        return result;
    }
    while (const struct dirent *ent = ::readdir(dir)) {
        const std::string file = ent->d_name;
        const std::size_t suffix_len = std::strlen(kEntrySuffix);
        if (file.size() <= suffix_len ||
            file.compare(file.size() - suffix_len, suffix_len,
                         kEntrySuffix) != 0)
            continue;

        const std::string path = dir_ + "/" + file;
        FileHeader header;
        std::uint64_t file_size = 0;
        const std::string reason =
            readHeader(path, &header, &file_size);
        if (!reason.empty()) {
            warn("corpus: skipping %s: %s", path.c_str(),
                 reason.c_str());
            continue;
        }

        CorpusEntry entry;
        entry.hash = contentHashHex(header.contentHash);
        entry.refs = header.recordCount;
        entry.wordSize = header.wordSize;
        if (header.nameLen > 0) {
            entry.name.resize(header.nameLen);
            const int fd = ::open(path.c_str(), O_RDONLY);
            if (fd >= 0) {
                const ssize_t got =
                    ::pread(fd, entry.name.data(), header.nameLen,
                            kHeaderBytes);
                ::close(fd);
                if (got != static_cast<ssize_t>(header.nameLen))
                    entry.name.clear();
            }
        }
        result.push_back(std::move(entry));
    }
    ::closedir(dir);

    std::sort(result.begin(), result.end(),
              [](const CorpusEntry &a, const CorpusEntry &b) {
                  return a.hash < b.hash;
              });
    std::lock_guard<std::mutex> lock(mutex_);
    for (const CorpusEntry &entry : result)
        wordSize_[entry.hash] = entry.wordSize;
    return result;
}

std::string
TraceCorpus::resolve(const std::string &ref, std::string *error)
{
    // A canonical hash resolves directly when the entry exists.
    if (ref.size() == 16 &&
        ref.find_first_not_of("0123456789abcdef") == std::string::npos) {
        struct stat st;
        if (::stat(entryPath(ref).c_str(), &st) == 0)
            return ref;
    }

    std::string list_error;
    const std::vector<CorpusEntry> all = entries(&list_error);
    if (!list_error.empty()) {
        setError(error, list_error);
        return "";
    }

    std::string match;
    for (const CorpusEntry &entry : all) {
        if (entry.name != ref)
            continue;
        if (!match.empty()) {
            setError(error,
                     strfmt("trace name '%s' is ambiguous (%s and %s "
                            "both match); use the hash",
                            ref.c_str(), match.c_str(),
                            entry.hash.c_str()));
            return "";
        }
        match = entry.hash;
    }
    if (match.empty())
        setError(error, strfmt("no corpus entry named '%s' in %s",
                               ref.c_str(), dir_.c_str()));
    return match;
}

} // namespace occsim
