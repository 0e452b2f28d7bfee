#include "io/prefetch_backend.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "io/syscall_injection.h"
#include "util/format.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/sys_info.h"
#include "util/thread_pool.h"

#if defined(M3_HAVE_IOURING)
#if __has_include(<linux/io_uring.h>)
#include <linux/io_uring.h>
#elif __has_include(<liburing/io_uring.h>)
#include <liburing/io_uring.h>
#else
#undef M3_HAVE_IOURING
#endif
#endif

#if defined(M3_HAVE_IOURING)
#include <sys/mman.h>
#include <sys/syscall.h>
#endif

namespace m3::io {

using util::Result;
using util::Status;

std::string_view PrefetchBackendKindToString(PrefetchBackendKind kind) {
  switch (kind) {
    case PrefetchBackendKind::kAuto:
      return "auto";
    case PrefetchBackendKind::kMadvise:
      return "madvise";
    case PrefetchBackendKind::kPread:
      return "pread";
    case PrefetchBackendKind::kUring:
      return "uring";
  }
  return "unknown";
}

Result<PrefetchBackendKind> ParsePrefetchBackendKind(std::string_view name) {
  if (name == "auto") {
    return PrefetchBackendKind::kAuto;
  }
  if (name == "madvise") {
    return PrefetchBackendKind::kMadvise;
  }
  if (name == "pread") {
    return PrefetchBackendKind::kPread;
  }
  if (name == "uring" || name == "io_uring") {
    return PrefetchBackendKind::kUring;
  }
  return Status::InvalidArgument("unknown prefetch backend '" +
                                 std::string(name) +
                                 "' (want auto|madvise|pread|uring)");
}

PrefetchOutcome& PrefetchOutcome::operator+=(const PrefetchOutcome& rhs) {
  submits += rhs.submits;
  completions += rhs.completions;
  fallbacks += rhs.fallbacks;
  return *this;
}

PrefetchBackend::~PrefetchBackend() = default;

Result<PrefetchOutcome> PrefetchBackend::Prefetch(
    const MemoryMappedFile& mapping, uint64_t offset, uint64_t length) {
  if (!mapping.is_mapped()) {
    return Status::FailedPrecondition("prefetch on unmapped region");
  }
  if (offset >= mapping.size() || length == 0) {
    return PrefetchOutcome();  // nothing to bring in
  }
  M3_ASSIGN_OR_RETURN(PrefetchOutcome outcome,
                      DoPrefetch(mapping, offset, length));
  std::lock_guard<std::mutex> lock(mu_);
  totals_ += outcome;
  return outcome;
}

PrefetchOutcome PrefetchBackend::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

namespace {

/// Faults [offset, offset+length) of the mapping in by reading one byte
/// per page. Returns a checksum so the reads cannot be elided.
uint64_t TouchRange(const MemoryMappedFile& mapping, uint64_t offset,
                    uint64_t length) {
  const uint64_t page = util::PageSize();
  const volatile char* bytes = static_cast<const char*>(mapping.data());
  const uint64_t end = std::min(offset + length, mapping.size());
  uint64_t checksum = 0;
  for (uint64_t off = offset; off < end; off += page) {
    checksum += static_cast<uint64_t>(bytes[off]);
  }
  return checksum;
}

// ---------------------------------------------------------------------------
// MadviseBackend
// ---------------------------------------------------------------------------

class MadviseBackend : public PrefetchBackend {
 public:
  PrefetchBackendKind kind() const override {
    return PrefetchBackendKind::kMadvise;
  }
  std::string_view name() const override { return "madvise"; }

 protected:
  Result<PrefetchOutcome> DoPrefetch(const MemoryMappedFile& mapping,
                                     uint64_t offset,
                                     uint64_t length) override {
    PrefetchOutcome outcome;
    outcome.submits = 1;
    // Best effort: a failed WILLNEED only loses overlap, never data.
    if (mapping.Prefetch(offset, length).ok()) {
      outcome.completions = 1;
    }
    return outcome;
  }
};

// ---------------------------------------------------------------------------
// PreadBackend
// ---------------------------------------------------------------------------

class PreadBackend : public PrefetchBackend {
 public:
  explicit PreadBackend(const PrefetchBackendOptions& options)
      : options_(options) {
    if (options_.block_bytes == 0) {
      options_.block_bytes = 1 << 20;
    }
    if (options_.pread_threads >= 2) {
      pool_ = std::make_unique<util::ThreadPool>(options_.pread_threads);
    }
  }

  PrefetchBackendKind kind() const override {
    return PrefetchBackendKind::kPread;
  }
  std::string_view name() const override { return "pread"; }

 protected:
  Result<PrefetchOutcome> DoPrefetch(const MemoryMappedFile& mapping,
                                     uint64_t offset,
                                     uint64_t length) override {
    PrefetchOutcome outcome;
    const uint64_t end = std::min(offset + length, mapping.size());
    if (!mapping.file_backed()) {
      // No descriptor to read from: fault the pages in directly. For
      // anonymous regions this is zero-fill, effectively free.
      TouchRange(mapping, offset, end - offset);
      outcome.submits = outcome.completions = outcome.fallbacks = 1;
      return outcome;
    }
    const int fd = mapping.backing_file().fd();
    std::vector<std::pair<uint64_t, uint64_t>> blocks;  // (offset, length)
    for (uint64_t off = offset; off < end; off += options_.block_bytes) {
      blocks.emplace_back(off, std::min<uint64_t>(options_.block_bytes,
                                                  end - off));
    }
    outcome.submits = blocks.size();
    if (pool_ != nullptr && blocks.size() > 1) {
      std::vector<std::future<void>> pending;
      std::atomic<uint64_t> completed{0};
      pending.reserve(blocks.size());
      // Relaxed: completed is a pure counter; future.get() below is the
      // synchronization point before it is read.
      for (const auto& [off, len] : blocks) {
        pending.push_back(pool_->Submit([fd, off = off, len = len,
                                         &completed] {
          if (ReadBlock(fd, off, len)) {
            completed.fetch_add(1, std::memory_order_relaxed);
          }
        }));
      }
      for (auto& future : pending) {
        future.get();
      }
      // Relaxed: every writer was joined via future.get() above.
      outcome.completions = completed.load(std::memory_order_relaxed);
    } else {
      for (const auto& [off, len] : blocks) {
        if (ReadBlock(fd, off, len)) {
          ++outcome.completions;
        }
      }
    }
    return outcome;
  }

 private:
  /// One block-sized page-cache-warming read; true when fully read.
  static bool ReadBlock(int fd, uint64_t offset, uint64_t length) {
    // The data is discarded — the read's only job is to leave the pages in
    // the page cache so the mapping's later faults are minor. A modest
    // scratch keeps the working set cache-friendly.
    constexpr size_t kScratchBytes = 256 << 10;
    char scratch[8 << 10];
    std::vector<char> heap;
    char* buffer = scratch;
    size_t buffer_bytes = sizeof(scratch);
    if (length > sizeof(scratch)) {
      heap.resize(std::min<uint64_t>(length, kScratchBytes));
      buffer = heap.data();
      buffer_bytes = heap.size();
    }
    uint64_t done = 0;
    while (done < length) {
      const size_t want =
          static_cast<size_t>(std::min<uint64_t>(buffer_bytes, length - done));
      const ssize_t got = internal::Pread(fd, buffer, want,
                                          static_cast<off_t>(offset + done));
      if (got < 0) {
        if (errno == EINTR) {
          continue;  // interrupted before transferring anything: retry
        }
        return false;
      }
      if (got == 0) {
        return false;  // EOF mid-block
      }
      done += static_cast<uint64_t>(got);
    }
    return true;
  }

  PrefetchBackendOptions options_;
  std::unique_ptr<util::ThreadPool> pool_;
};

// ---------------------------------------------------------------------------
// UringBackend (raw io_uring syscalls; no liburing link dependency)
// ---------------------------------------------------------------------------

#if defined(M3_HAVE_IOURING)

int SysIoUringSetup(unsigned entries, io_uring_params* params) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, params));
}

int SysIoUringEnter(int ring_fd, unsigned to_submit, unsigned min_complete,
                    unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, ring_fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

/// A minimal single-issuer io_uring: SQ/CQ rings mapped once, submissions
/// in waves of at most `entries`, every wave fully reaped before the next.
class UringQueue {
 public:
  struct ReadRequest {
    int fd = -1;
    uint64_t offset = 0;
    void* buffer = nullptr;
    unsigned length = 0;
  };

  static std::unique_ptr<UringQueue> Create(unsigned entries) {
    io_uring_params params;
    std::memset(&params, 0, sizeof(params));
    const int ring_fd = SysIoUringSetup(entries, &params);
    if (ring_fd < 0) {
      return nullptr;  // ENOSYS/EPERM: kernel too old or uring disabled
    }
    auto queue = std::unique_ptr<UringQueue>(new UringQueue);
    queue->ring_fd_ = ring_fd;
    queue->sq_entries_ = params.sq_entries;
    size_t sq_bytes = params.sq_off.array + params.sq_entries * sizeof(unsigned);
    size_t cq_bytes =
        params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
    const bool single_mmap = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
    if (single_mmap) {
      sq_bytes = cq_bytes = std::max(sq_bytes, cq_bytes);
    }
    void* sq_ring = ::mmap(nullptr, sq_bytes, PROT_READ | PROT_WRITE,
                           MAP_SHARED | MAP_POPULATE, ring_fd,
                           IORING_OFF_SQ_RING);
    if (sq_ring == MAP_FAILED) {
      return nullptr;
    }
    queue->sq_ring_ptr_ = sq_ring;
    queue->sq_ring_bytes_ = sq_bytes;
    void* cq_ring = sq_ring;
    if (!single_mmap) {
      cq_ring = ::mmap(nullptr, cq_bytes, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_CQ_RING);
      if (cq_ring == MAP_FAILED) {
        return nullptr;
      }
      queue->cq_ring_ptr_ = cq_ring;
      queue->cq_ring_bytes_ = cq_bytes;
    }
    const size_t sqe_bytes = params.sq_entries * sizeof(io_uring_sqe);
    void* sqe_mem = ::mmap(nullptr, sqe_bytes, PROT_READ | PROT_WRITE,
                           MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_SQES);
    if (sqe_mem == MAP_FAILED) {
      return nullptr;
    }
    queue->sqe_ptr_ = sqe_mem;
    queue->sqe_bytes_ = sqe_bytes;
    char* sq = static_cast<char*>(sq_ring);
    queue->sq_head_ = reinterpret_cast<unsigned*>(sq + params.sq_off.head);
    queue->sq_tail_ = reinterpret_cast<unsigned*>(sq + params.sq_off.tail);
    queue->sq_mask_ = reinterpret_cast<unsigned*>(sq + params.sq_off.ring_mask);
    queue->sq_array_ = reinterpret_cast<unsigned*>(sq + params.sq_off.array);
    char* cq = static_cast<char*>(cq_ring);
    queue->cq_head_ = reinterpret_cast<unsigned*>(cq + params.cq_off.head);
    queue->cq_tail_ = reinterpret_cast<unsigned*>(cq + params.cq_off.tail);
    queue->cq_mask_ = reinterpret_cast<unsigned*>(cq + params.cq_off.ring_mask);
    queue->cqes_ =
        reinterpret_cast<io_uring_cqe*>(cq + params.cq_off.cqes);
    queue->sqes_ = static_cast<io_uring_sqe*>(sqe_mem);
    return queue;
  }

  ~UringQueue() {
    if (sqe_ptr_ != nullptr) {
      ::munmap(sqe_ptr_, sqe_bytes_);
    }
    if (cq_ring_ptr_ != nullptr) {
      ::munmap(cq_ring_ptr_, cq_ring_bytes_);
    }
    if (sq_ring_ptr_ != nullptr) {
      ::munmap(sq_ring_ptr_, sq_ring_bytes_);
    }
    if (ring_fd_ >= 0) {
      ::close(ring_fd_);
    }
  }

  UringQueue(const UringQueue&) = delete;
  UringQueue& operator=(const UringQueue&) = delete;

  unsigned entries() const { return sq_entries_; }

  /// Submits `count` (<= entries()) READ SQEs and waits for all their
  /// CQEs. Returns the number of successful completions (res >= 0);
  /// `errno_out` receives the first per-request error, 0 if none, and a
  /// negative syscall failure aborts the wave with 0 completions.
  uint64_t SubmitAndWait(const ReadRequest* reads, unsigned count,
                         int* errno_out) {
    *errno_out = 0;
    unsigned tail = *sq_tail_;  // single issuer: plain read is safe
    const unsigned mask = *sq_mask_;
    for (unsigned i = 0; i < count; ++i) {
      const unsigned index = tail & mask;
      io_uring_sqe* sqe = &sqes_[index];
      std::memset(sqe, 0, sizeof(*sqe));
      sqe->opcode = IORING_OP_READ;
      sqe->fd = reads[i].fd;
      sqe->addr = reinterpret_cast<uint64_t>(reads[i].buffer);
      sqe->len = reads[i].length;
      sqe->off = reads[i].offset;
      sqe->user_data = i;
      sq_array_[index] = index;
      ++tail;
    }
    __atomic_store_n(sq_tail_, tail, __ATOMIC_RELEASE);
    unsigned reaped = 0;
    uint64_t completed = 0;
    // One enter usually suffices (GETEVENTS waits for the wave), but the
    // kernel may deliver fewer than min_complete on interrupt.
    while (reaped < count) {
      const int rc = SysIoUringEnter(ring_fd_, reaped == 0 ? count : 0,
                                     count - reaped, IORING_ENTER_GETEVENTS);
      if (rc < 0) {
        if (errno == EINTR) {
          continue;
        }
        *errno_out = errno;
        return completed;
      }
      unsigned head = *cq_head_;
      const unsigned cq_mask = *cq_mask_;
      while (head != __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE)) {
        const io_uring_cqe& cqe = cqes_[head & cq_mask];
        if (cqe.res >= 0) {
          ++completed;
        } else if (*errno_out == 0) {
          *errno_out = -cqe.res;
        }
        ++head;
        ++reaped;
      }
      __atomic_store_n(cq_head_, head, __ATOMIC_RELEASE);
    }
    return completed;
  }

 private:
  UringQueue() = default;

  int ring_fd_ = -1;
  unsigned sq_entries_ = 0;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned* sq_mask_ = nullptr;
  unsigned* sq_array_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned* cq_mask_ = nullptr;
  io_uring_sqe* sqes_ = nullptr;
  io_uring_cqe* cqes_ = nullptr;
  void* sq_ring_ptr_ = nullptr;
  size_t sq_ring_bytes_ = 0;
  void* cq_ring_ptr_ = nullptr;
  size_t cq_ring_bytes_ = 0;
  void* sqe_ptr_ = nullptr;
  size_t sqe_bytes_ = 0;
};

#endif  // M3_HAVE_IOURING

/// io_uring readahead with graceful degradation: when the ring cannot be
/// created (compiled out, kernel probe fails, sysctl-disabled) or a wave
/// fails outright, every subsequent range is served by an internal
/// PreadBackend and counted as a fallback.
class UringBackend : public PrefetchBackend {
 public:
  explicit UringBackend(const PrefetchBackendOptions& options)
      : options_(options) {
    if (options_.block_bytes == 0) {
      options_.block_bytes = 1 << 20;
    }
    options_.uring_queue_depth = std::max<size_t>(1, options_.uring_queue_depth);
#if defined(M3_HAVE_IOURING)
    if (!options_.force_uring_unavailable) {
      queue_ = UringQueue::Create(
          static_cast<unsigned>(options_.uring_queue_depth));
    }
    if (queue_ != nullptr) {
      const uint64_t page = util::PageSize();
      const size_t block =
          (options_.block_bytes + page - 1) / page * page;  // O_DIRECT-safe
      options_.block_bytes = block;
      buffers_.resize(std::min<size_t>(options_.uring_queue_depth,
                                       queue_->entries()));
      for (auto& buffer : buffers_) {
        void* mem = nullptr;
        if (::posix_memalign(&mem, page, block) != 0) {
          queue_.reset();  // allocation failure: degrade to pread
          buffers_.clear();
          break;
        }
        buffer.reset(static_cast<char*>(mem));
      }
    }
#endif
  }

  ~UringBackend() override {
#if defined(M3_HAVE_IOURING)
    if (direct_fd_ >= 0) {
      ::close(direct_fd_);
    }
#endif
  }

  PrefetchBackendKind kind() const override {
    return PrefetchBackendKind::kUring;
  }
  std::string_view name() const override { return "uring"; }
  bool using_fallback() const override {
#if defined(M3_HAVE_IOURING)
    return queue_ == nullptr;
#else
    return true;
#endif
  }

 protected:
  Result<PrefetchOutcome> DoPrefetch(const MemoryMappedFile& mapping,
                                     uint64_t offset,
                                     uint64_t length) override {
#if defined(M3_HAVE_IOURING)
    if (queue_ != nullptr && mapping.file_backed()) {
      return UringPrefetch(mapping, offset, length);
    }
#endif
    return Fallback(mapping, offset, length);
  }

 private:
  Result<PrefetchOutcome> Fallback(const MemoryMappedFile& mapping,
                                   uint64_t offset, uint64_t length) {
    if (delegate_ == nullptr) {
      // Lazy: the delegate carries a thread pool, which the native uring
      // path never needs.
      delegate_ = std::make_unique<PreadBackend>(options_);
    }
    M3_ASSIGN_OR_RETURN(PrefetchOutcome outcome,
                        delegate_->Prefetch(mapping, offset, length));
    // Every submit of this call was served by the degraded path. Assign,
    // don't add: the delegate's own touch-fallback for anonymous regions
    // already set fallbacks, and double-counting would push fallbacks
    // above submits.
    outcome.fallbacks = outcome.submits;
    return outcome;
  }

#if defined(M3_HAVE_IOURING)
  Result<PrefetchOutcome> UringPrefetch(const MemoryMappedFile& mapping,
                                        uint64_t offset, uint64_t length) {
    PrefetchOutcome outcome;
    uint64_t end = std::min(offset + length, mapping.size());
    int fd = mapping.backing_file().fd();
    if (options_.use_o_direct) {
      const int direct = DirectFdFor(mapping);
      if (direct >= 0) {
        fd = direct;
        // O_DIRECT requires sector-aligned offsets, lengths, and buffers;
        // the buffers are page-aligned already, so align the range too.
        // The rounded-up end may reach past EOF — deliberately NOT clamped
        // back to mapping.size(), which would leave the tail read with an
        // unaligned length (EINVAL, misread as a dead ring). A short read
        // at EOF is legal and counts as a completion.
        const uint64_t page = util::PageSize();
        offset = offset / page * page;
        end = (end + page - 1) / page * page;
      }
    }
    std::vector<UringQueue::ReadRequest> wave;
    wave.reserve(buffers_.size());
    uint64_t next = offset;
    while (next < end) {
      wave.clear();
      for (size_t slot = 0; slot < buffers_.size() && next < end; ++slot) {
        UringQueue::ReadRequest read;
        read.fd = fd;
        read.offset = next;
        read.buffer = buffers_[slot].get();
        read.length = static_cast<unsigned>(
            std::min<uint64_t>(options_.block_bytes, end - next));
        wave.push_back(read);
        next += read.length;
      }
      int error = 0;
      const uint64_t completed = queue_->SubmitAndWait(
          wave.data(), static_cast<unsigned>(wave.size()), &error);
      outcome.submits += wave.size();
      outcome.completions += completed;
      if (completed == 0 && error != 0) {
        // The ring is not doing reads on this kernel/file (e.g. EINVAL for
        // an unsupported opcode, EBADF after a race): degrade permanently
        // and finish the range — and all future ranges — via pread.
        queue_.reset();
        buffers_.clear();
        const uint64_t resume = wave.front().offset;
        M3_ASSIGN_OR_RETURN(PrefetchOutcome rest,
                            Fallback(mapping, resume, end - resume));
        outcome += rest;
        return outcome;
      }
    }
    return outcome;
  }

  /// Opens (and caches) an O_DIRECT descriptor for the mapping's file.
  /// Returns -1 when the filesystem refuses O_DIRECT.
  int DirectFdFor(const MemoryMappedFile& mapping) {
    const std::string& path = mapping.path();
    if (direct_fd_ >= 0 && direct_path_ == path) {
      return direct_fd_;
    }
    if (direct_fd_ >= 0) {
      ::close(direct_fd_);
      direct_fd_ = -1;
    }
    do {
      direct_fd_ = ::open(path.c_str(), O_RDONLY | O_DIRECT | O_CLOEXEC);
    } while (direct_fd_ < 0 && errno == EINTR);
    direct_path_ = direct_fd_ >= 0 ? path : std::string();
    return direct_fd_;
  }

  std::unique_ptr<UringQueue> queue_;
  struct FreeDeleter {
    void operator()(char* p) const { std::free(p); }
  };
  std::vector<std::unique_ptr<char, FreeDeleter>> buffers_;
  int direct_fd_ = -1;
  std::string direct_path_;
#endif  // M3_HAVE_IOURING

  PrefetchBackendOptions options_;
  /// Created on first Fallback() call (single-threaded driver, see the
  /// interface's thread model); null while the native path serves.
  std::unique_ptr<PreadBackend> delegate_;
};

// ---------------------------------------------------------------------------
// Probe + auto resolution
// ---------------------------------------------------------------------------

std::mutex& ProbeMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::optional<PrefetchProbeResult>& ProbeCache() {
  static std::optional<PrefetchProbeResult>* cache =
      new std::optional<PrefetchProbeResult>;
  return *cache;
}

}  // namespace

bool UringCompiledIn() {
#if defined(M3_HAVE_IOURING)
  return true;
#else
  return false;
#endif
}

bool UringAvailable() {
#if defined(M3_HAVE_IOURING)
  static const bool available = [] {
    io_uring_params params;
    std::memset(&params, 0, sizeof(params));
    const int fd = SysIoUringSetup(2, &params);
    if (fd < 0) {
      return false;
    }
    ::close(fd);
    return true;
  }();
  return available;
#else
  return false;
#endif
}

std::unique_ptr<PrefetchBackend> MakePrefetchBackend(
    PrefetchBackendKind kind, PrefetchBackendOptions options,
    const MemoryMappedFile* probe_mapping) {
  if (kind == PrefetchBackendKind::kAuto) {
    kind = ResolveAutoPrefetchBackend(probe_mapping);
  }
  switch (kind) {
    case PrefetchBackendKind::kMadvise:
      return std::make_unique<MadviseBackend>();
    case PrefetchBackendKind::kPread:
      return std::make_unique<PreadBackend>(options);
    case PrefetchBackendKind::kUring:
      return std::make_unique<UringBackend>(options);
    case PrefetchBackendKind::kAuto:
      break;  // unreachable: resolved above
  }
  return std::make_unique<MadviseBackend>();
}

std::string PrefetchProbeResult::ToString() const {
  return util::StrFormat(
      "willneed %s (advised read %.1f ms vs cold %.1f ms) -> %s",
      willneed_effective ? "effective" : "NO-OP",
      advised_read_seconds * 1e3, cold_read_seconds * 1e3,
      std::string(PrefetchBackendKindToString(recommended)).c_str());
}

PrefetchProbeResult ProbePrefetchEfficacy(const MemoryMappedFile& mapping) {
  {
    std::lock_guard<std::mutex> lock(ProbeMutex());
    if (ProbeCache().has_value()) {
      return *ProbeCache();
    }
  }
  PrefetchProbeResult result;
  if (mapping.is_mapped() && mapping.file_backed() && mapping.size() > 0) {
    const uint64_t page = util::PageSize();
    const uint64_t window =
        std::max(page, std::min<uint64_t>(mapping.size(), 8ull << 20)) / page *
        page;
    // Cold reference: evict, then time the faulting read with readahead
    // suppressed so each page fault is honest.
    M3_IGNORE_STATUS(mapping.Advise(Advice::kRandom), "advisory madvise");
    M3_IGNORE_STATUS(mapping.Evict(0, window), "best-effort evict");
    util::Stopwatch cold;
    TouchRange(mapping, 0, window);
    result.cold_read_seconds = cold.ElapsedSeconds();
    // Advised: evict again, issue WILLNEED, give the kernel a moment to
    // start I/O, then time the same faulting read. If WILLNEED works the
    // pages arrive before (or while) the read walks them.
    M3_IGNORE_STATUS(mapping.Evict(0, window), "best-effort evict");
    M3_IGNORE_STATUS(mapping.Prefetch(0, window), "probe warm-up only");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    uint64_t resident = 0;
    if (auto count = mapping.CountResidentPages(0, window); count.ok()) {
      resident = count.value();
    }
    util::Stopwatch advised;
    TouchRange(mapping, 0, window);
    result.advised_read_seconds = advised.ElapsedSeconds();
    M3_IGNORE_STATUS(mapping.Advise(Advice::kNormal), "advisory madvise");
    // Two independent signals: pages visibly resident after the advise, or
    // the advised read measurably outrunning the cold one. Either proves
    // WILLNEED moved bytes. (When eviction itself is a no-op — some
    // sandboxes — both reads are warm and the ratio test reports
    // "effective": correct, since prefetch cost is then irrelevant.)
    const uint64_t window_pages = window / page;
    const bool visibly_resident = resident >= window_pages / 2;
    const bool measurably_faster =
        result.cold_read_seconds > 0 &&
        result.advised_read_seconds < 0.6 * result.cold_read_seconds;
    result.willneed_effective = visibly_resident || measurably_faster;
  } else {
    // Nothing meaningful to probe (anonymous or unmapped region): WILLNEED
    // on anonymous memory has no disk to overlap, keep the default.
    result.willneed_effective = true;
  }
  result.recommended = result.willneed_effective
                           ? PrefetchBackendKind::kMadvise
                           : (UringAvailable() ? PrefetchBackendKind::kUring
                                               : PrefetchBackendKind::kPread);
  std::lock_guard<std::mutex> lock(ProbeMutex());
  if (!ProbeCache().has_value()) {
    ProbeCache() = result;
  }
  return *ProbeCache();
}

PrefetchBackendKind ResolveAutoPrefetchBackend(
    const MemoryMappedFile* mapping) {
  {
    std::lock_guard<std::mutex> lock(ProbeMutex());
    if (ProbeCache().has_value()) {
      return ProbeCache()->recommended;
    }
  }
  if (mapping == nullptr) {
    return PrefetchBackendKind::kMadvise;  // nothing to probe against
  }
  return ProbePrefetchEfficacy(*mapping).recommended;
}

void ResetPrefetchProbeCacheForTesting() {
  std::lock_guard<std::mutex> lock(ProbeMutex());
  ProbeCache().reset();
}

}  // namespace m3::io
