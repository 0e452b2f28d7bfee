#ifndef M3_IO_PREFETCH_BACKEND_H_
#define M3_IO_PREFETCH_BACKEND_H_

/// \file
/// \brief Pluggable prefetch backends for the execution engine.
///
/// The engine's prefetch stage (exec::ChunkPipeline) asks one of these
/// backends to bring a byte range of a mapping toward RAM before compute
/// reaches it. Three strategies exist because no single one works
/// everywhere:
///
///   - MadviseBackend: MADV_WILLNEED — the paper's mechanism and the
///     default. Asynchronous and cheap, but a silent no-op on several
///     container/overlay filesystems, which stalls the whole pipeline on
///     exactly the hardware where overlap matters most.
///   - PreadBackend: a pool of pread(2) reads into scratch buffers. The
///     reads land in the page cache, so the mapping's later faults are
///     minor. Blocking, but works on every POSIX filesystem.
///   - UringBackend: batched io_uring READ submissions (raw syscalls, no
///     liburing link dependency), optionally through O_DIRECT staging
///     buffers. Compiled in only when the kernel headers are present
///     (CMake option M3_WITH_IOURING) and probed at runtime — construction
///     falls back to the pread path when io_uring_setup is unavailable
///     (ENOSYS, or sysctl kernel.io_uring_disabled in containers).
///
/// Thread model: the pipeline calls Prefetch() from its single background
/// I/O thread, one call at a time; a backend shared between pipelines
/// (cluster simulator) is still only driven by one pass at a time.
/// Prefetch() may block — it runs on the I/O thread precisely so that the
/// compute stage never waits on it. counters() is safe from any thread.
///
/// Selection is wired through M3Options::prefetch_backend /
/// cluster::ClusterExecOptions::prefetch_backend / exec::PipelineOptions.
/// `kAuto` resolves via ProbePrefetchEfficacy(): detect a no-op WILLNEED
/// by timing a faulting read after advising, then pick the fastest
/// working path. Backends move bytes, never values: results of any scan
/// are bitwise identical under every backend (the retire order is fixed
/// by the engine, and no backend touches mapped data).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "io/mmap_file.h"
#include "util/result.h"
#include "util/status.h"

namespace m3::io {

/// \brief Which prefetch implementation a pipeline should use.
enum class PrefetchBackendKind {
  kAuto,     ///< probe WILLNEED efficacy once, then pick for this process
  kMadvise,  ///< MADV_WILLNEED (the default; the paper's mechanism)
  kPread,    ///< pread(2) page-cache warming (works everywhere)
  kUring,    ///< io_uring readahead; falls back to pread when unavailable
};

/// \brief Short lowercase name ("auto", "madvise", "pread", "uring").
std::string_view PrefetchBackendKindToString(PrefetchBackendKind kind);

/// \brief Parses a backend name as printed by PrefetchBackendKindToString.
util::Result<PrefetchBackendKind> ParsePrefetchBackendKind(
    std::string_view name);

/// \brief True when this binary was compiled with io_uring support
/// (M3_WITH_IOURING and the kernel headers were available).
bool UringCompiledIn();

/// \brief True when io_uring_setup(2) succeeds on this kernel (probed once
/// per process, cached). Always false when !UringCompiledIn().
bool UringAvailable();

/// \brief What one Prefetch() call (or a backend lifetime) did.
///
/// `submits` counts I/O requests handed to the kernel (one madvise range,
/// one pread block, one SQE); `completions` counts requests confirmed
/// done. For the synchronous backends the two advance together; for
/// io_uring a submit without a completion means a dropped or failed CQE.
/// `fallbacks` counts requests served by a backend's degraded path (uring
/// -> pread after a probe/submission failure, pread -> mapping touch for
/// anonymous regions).
struct PrefetchOutcome {
  uint64_t submits = 0;
  uint64_t completions = 0;
  uint64_t fallbacks = 0;

  PrefetchOutcome& operator+=(const PrefetchOutcome& rhs);
};

/// \brief Construction-time knobs shared by all backends.
struct PrefetchBackendOptions {
  PrefetchBackendOptions() {}  // NOLINT: so `= PrefetchBackendOptions()` works

  /// Request granularity: ranges are split into blocks of at most this
  /// many bytes (pread and uring; madvise advises the whole range at once).
  size_t block_bytes = 1 << 20;

  /// PreadBackend: reads fan out over this many internal threads (<= 1
  /// reads on the calling I/O thread).
  size_t pread_threads = 2;

  /// UringBackend: submission-queue depth (SQEs in flight per wave).
  size_t uring_queue_depth = 8;

  /// UringBackend: read through a separate O_DIRECT descriptor into
  /// aligned staging buffers. This bypasses the page cache, so it does NOT
  /// warm the mapping — it exists for measured raw-device-bandwidth
  /// experiments and for a future direct-read compute path, not for
  /// accelerating mmap faults. Leave off for pipeline prefetching.
  bool use_o_direct = false;

  /// Test hook: pretend io_uring_setup failed so the fallback path is
  /// exercised deterministically even on kernels where it works.
  bool force_uring_unavailable = false;
};

/// \brief Interface the engine's prefetch stage drives.
///
/// Implementations are stateless with respect to the mapping (the same
/// backend serves many pipelines/mappings) but may cache per-file
/// resources (descriptors, staging buffers) across calls.
class PrefetchBackend {
 public:
  virtual ~PrefetchBackend();

  PrefetchBackend(const PrefetchBackend&) = delete;
  PrefetchBackend& operator=(const PrefetchBackend&) = delete;

  /// The kind this backend was constructed as (kUring even when degraded
  /// to its pread fallback; see using_fallback()).
  virtual PrefetchBackendKind kind() const = 0;

  /// Human-readable name for tables/logs ("madvise", "pread", "uring").
  virtual std::string_view name() const = 0;

  /// Brings mapping[offset, offset+length) toward RAM. Called on the
  /// pipeline's I/O thread; may block. Best effort: an error loses
  /// overlap, never data. Returns what was submitted/completed so the
  /// pipeline can fold the outcome into its PipelineStats.
  util::Result<PrefetchOutcome> Prefetch(const MemoryMappedFile& mapping,
                                         uint64_t offset, uint64_t length);

  /// True when the backend permanently degraded to a fallback path (e.g.
  /// uring -> pread after a failed runtime probe).
  virtual bool using_fallback() const { return false; }

  /// Lifetime totals across all Prefetch() calls (thread-safe).
  PrefetchOutcome counters() const;

 protected:
  PrefetchBackend() = default;

  /// Backend-specific implementation; Record() is applied by Prefetch().
  virtual util::Result<PrefetchOutcome> DoPrefetch(
      const MemoryMappedFile& mapping, uint64_t offset, uint64_t length) = 0;

 private:
  mutable std::mutex mu_;
  PrefetchOutcome totals_;
};

/// \brief Constructs the backend for `kind`.
///
/// kUring degrades gracefully: when io_uring is compiled out or the
/// runtime probe fails, the returned backend reports kind() == kUring but
/// serves every call through the pread path (using_fallback() == true,
/// fallbacks counted). kAuto resolves via ResolveAutoPrefetchBackend()
/// against `probe_mapping` (or the process-cached probe verdict when
/// null).
std::unique_ptr<PrefetchBackend> MakePrefetchBackend(
    PrefetchBackendKind kind,
    PrefetchBackendOptions options = PrefetchBackendOptions(),
    const MemoryMappedFile* probe_mapping = nullptr);

/// \brief Verdict of the WILLNEED-efficacy probe.
struct PrefetchProbeResult {
  /// MADV_WILLNEED measurably populated evicted pages before the timed
  /// faulting read reached them.
  bool willneed_effective = false;
  /// Wall seconds of a faulting read over the probe window after advising
  /// WILLNEED and yielding, vs. reading it stone cold.
  double advised_read_seconds = 0;
  double cold_read_seconds = 0;
  /// The backend kAuto should use on this filesystem/kernel.
  PrefetchBackendKind recommended = PrefetchBackendKind::kMadvise;

  std::string ToString() const;
};

/// \brief Detects no-op MADV_WILLNEED by experiment (the startup probe
/// behind `prefetch_backend = auto`).
///
/// Evicts a small window of `mapping`, advises WILLNEED, yields briefly,
/// then times a faulting read; compares against reading the same window
/// cold. If the advised read is not measurably faster (and the window is
/// not resident), WILLNEED is a no-op here — `recommended` then prefers
/// uring (when available) over pread. The probe calls the mapping
/// directly, never through a pipeline, so its evictions and reads land in
/// no PipelineStats. The first probed mapping's verdict is cached for the
/// process (probing is per-filesystem in principle, per-process in
/// practice — M3 runs scan one dataset).
PrefetchProbeResult ProbePrefetchEfficacy(const MemoryMappedFile& mapping);

/// \brief The kind kAuto resolves to: the cached probe verdict, probing
/// `mapping` first when no verdict is cached yet. A null `mapping` with no
/// cached verdict conservatively returns kMadvise.
PrefetchBackendKind ResolveAutoPrefetchBackend(
    const MemoryMappedFile* mapping);

/// \brief Test hook: forgets the cached probe verdict.
void ResetPrefetchProbeCacheForTesting();

}  // namespace m3::io

#endif  // M3_IO_PREFETCH_BACKEND_H_
