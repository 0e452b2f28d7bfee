// m3perf: the measuring half of the M3 training benchmark (run.py is the
// judging half).
//
// Trains the paper's two models through the library's public entry points
// (MappedDataset::Open, TrainLogisticRegression, TrainKMeans,
// MappedSparseDataset::Open, SparseLogisticRegression::Train) and times
// them from outside. Every operation prints one JSON record on stdout:
//
//   {"record": "workload", ...}         model and cache state judged by
//   {"record": "env", ...}              host, platform, disk probe
//   {"record": "dataset", ...}          the generated (or reused) input
//   {"record": "setup", ...}            one Open from the cache state
//   {"record": "dataset_options", ...}  budget and prefetch backend
//   {"record": "train", ...}            one training run, layer counters
//                                       (the first, a warm-up, is unmeasured)
//   {"record": "host", ...}             steal over the training runs
//   {"record": "probe", ...}            one per-layer probe (traced runs)
//
// The program reports facts (statuses, residency before each timed region,
// the trained objective and an independent recomputation of it); run.py
// decides which operations failed and aggregates the medians.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/m3.h"
#include "core/sparse_mapped_dataset.h"
#include "data/dataset.h"
#include "data/infimnist.h"
#include "data/sparse_dataset.h"
#include "exec/pipeline_stats.h"
#include "io/disk_probe.h"
#include "io/file.h"
#include "io/io_stats.h"
#include "io/platform.h"
#include "io/prefetch_backend.h"
#include "la/blas.h"
#include "la/sparse.h"
#include "ml/kmeans.h"
#include "ml/logistic_regression.h"
#include "ml/sparse_logistic_regression.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/sys_info.h"
#include "util/thread_pool.h"

namespace {

namespace fs = std::filesystem;
using m3::util::Result;
using m3::util::Status;
using m3::util::Stopwatch;

struct Workload {
  const char* name;
  bool sparse;
  bool kmeans;
  bool out_of_core;
  // Opens timed per run. A sparse Open validates O(nnz) entries, read from
  // disk out of core (~9 ms); a dense one reads a cached header (~0.01 ms).
  uint64_t setup_reps;
};

// Why these four: docs in run.py and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"lr-dense-ooc", false, false, true, 101},
    {"lr-dense-warm", false, false, false, 101},
    {"lr-sparse-ooc", true, false, true, 21},
    {"kmeans-dense-warm", false, true, false, 101},
};

// Measured training runs per process at least, however short --seconds.
constexpr int kMinTrainReps = 3;

// The shape defaults are the benchmark's inputs: 32768 rows x 784 doubles =
// 196 MiB of dense features; 50000 sparse rows x ~32 nonzeros x 12 bytes =
// ~19 MiB of CSR payload over 2^20 columns. Tests shrink them.
struct Args {
  std::string workload;
  int64_t seed = 1;
  double seconds = 10;
  int64_t trace = 0;
  std::string data_dir;
  uint64_t dense_rows = 32768;
  uint64_t sparse_rows = 50000;
  uint64_t sparse_cols = uint64_t{1} << 20;
  uint64_t sparse_nnz_per_row = 32;
};

// ---------------------------------------------------------------------------
// Output: one JSON object per line, numbers with all their digits.
// ---------------------------------------------------------------------------

class JsonLine {
 public:
  explicit JsonLine(const char* record) { Str("record", record); }

  JsonLine& Num(const char* key, double value) {
    return Raw(key, FormatNumber(value));
  }
  JsonLine& Int(const char* key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonLine& Bool(const char* key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonLine& Str(const char* key, const std::string& value) {
    return Raw(key, "\"" + m3::util::JsonEscape(value) + "\"");
  }
  JsonLine& Nums(const char* key, const std::vector<double>& values) {
    std::string text = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      text += (i > 0 ? "," : "") + FormatNumber(values[i]);
    }
    return Raw(key, text + "]");
  }
  void Print() const {
    std::printf("{%s}\n", body_.c_str());
    std::fflush(stdout);
  }

 private:
  JsonLine& Raw(const char* key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ");
    body_ += "\"" + m3::util::JsonEscape(key) + "\": " + json;
    return *this;
  }

  // A value the host could not produce (NaN, infinity) prints as null so
  // the judge sees it as absent, never as a number.
  static std::string FormatNumber(double value) {
    if (!std::isfinite(value)) {
      return "null";
    }
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
  }

  std::string body_;
};

std::string StatusText(const Status& status) {
  return status.ok() ? "OK" : status.ToString();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return NAN;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Process resident set in MiB, from /proc/self/statm.
double RssMb() {
  std::FILE* file = std::fopen("/proc/self/statm", "r");
  if (file == nullptr) {
    return NAN;
  }
  unsigned long long size_pages = 0;
  unsigned long long resident_pages = 0;
  const int fields = std::fscanf(file, "%llu %llu", &size_pages,
                                 &resident_pages);
  std::fclose(file);
  if (fields != 2) {
    return NAN;
  }
  return static_cast<double>(resident_pages * m3::util::PageSize()) /
         (1 << 20);
}

/// Cumulative CPU time of the machine, and the part the hypervisor gave to
/// other guests (steal), from the first line of /proc/stat.
struct CpuTimes {
  double steal = NAN;
  double total = NAN;
};

CpuTimes ReadCpuTimes() {
  std::FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) {
    return CpuTimes();
  }
  unsigned long long t[8] = {};
  const int fields =
      std::fscanf(file, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &t[0],
                  &t[1], &t[2], &t[3], &t[4], &t[5], &t[6], &t[7]);
  std::fclose(file);
  if (fields != 8) {
    return CpuTimes();
  }
  CpuTimes times;
  times.steal = static_cast<double>(t[7]);
  times.total = 0;
  for (const unsigned long long field : t) {
    times.total += static_cast<double>(field);
  }
  return times;
}

double ResidentFraction(const m3::io::MemoryMappedFile& mapping) {
  auto fraction = mapping.ResidentFraction();
  return fraction.ok() ? fraction.value() : NAN;
}

double ResidentMb(const m3::io::MemoryMappedFile& mapping) {
  auto pages = mapping.CountResidentPages(0, mapping.size());
  return pages.ok() ? static_cast<double>(pages.value() *
                                          m3::util::PageSize()) /
                          (1 << 20)
                    : NAN;
}

// ---------------------------------------------------------------------------
// Inputs: one file per (generator, seed, shape), reused after a shape check.
// ---------------------------------------------------------------------------

/// Removes earlier files of the same generator so the data directory holds
/// one dataset per kind, however many seeds a series of runs uses.
void RemoveOtherSeeds(const std::string& dir, const std::string& prefix,
                      const std::string& keep) {
  std::error_code error;
  for (const auto& entry : fs::directory_iterator(dir, error)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && entry.path().string() != keep) {
      fs::remove(entry.path(), error);
    }
  }
}

/// Generates into a temporary name and renames, so an interrupted
/// generation never leaves a file that passes the shape check. The file is
/// synced first, so its write-back never runs inside a timed region.
Status GenerateAtomically(const std::string& path,
                          const std::function<Status(const std::string&)>&
                              generate) {
  const std::string partial = path + ".partial";
  M3_RETURN_IF_ERROR(generate(partial));
  M3_ASSIGN_OR_RETURN(m3::io::File file, m3::io::File::OpenReadOnly(partial));
  M3_RETURN_IF_ERROR(file.Sync());
  std::error_code error;
  fs::rename(partial, path, error);
  if (error) {
    return Status::IoError("rename " + partial + ": " + error.message());
  }
  return Status::OK();
}

Result<std::string> EnsureDenseDataset(const Args& args, bool* generated) {
  const std::string prefix = "dense-infimnist-";
  const std::string path =
      args.data_dir + "/" + prefix + "seed" + std::to_string(args.seed) +
      "-rows" + std::to_string(args.dense_rows) + ".m3";
  auto meta = m3::data::ReadDatasetMeta(path);
  *generated = !(meta.ok() && meta.value().rows == args.dense_rows &&
                 meta.value().cols == m3::data::kImageFeatures &&
                 meta.value().num_classes == 2);
  if (*generated) {
    RemoveOtherSeeds(args.data_dir, prefix, path);
    M3_RETURN_IF_ERROR(GenerateAtomically(path, [&](const std::string& out) {
      return m3::data::GenerateInfimnistDataset(
          out, args.dense_rows, static_cast<uint64_t>(args.seed),
          /*binary_labels=*/true);
    }));
  }
  return path;
}

/// Stored entries of the sparse file at `path` when its shape matches the
/// requested one, else 0.
uint64_t SparseNnzIfShaped(const std::string& path, const Args& args) {
  auto meta = m3::data::ReadSparseDatasetMeta(path);
  const bool shaped = meta.ok() && meta.value().rows == args.sparse_rows &&
                      meta.value().cols == args.sparse_cols &&
                      meta.value().num_classes == 2;
  return shaped ? meta.value().nnz : 0;
}

Status WritePermutedRows(const m3::MappedSparseDataset& problem,
                         uint64_t seed, const std::string& path) {
  std::vector<size_t> order(problem.rows());
  for (size_t r = 0; r < order.size(); ++r) {
    order[r] = r;
  }
  m3::util::Rng(seed).Shuffle(&order);
  M3_ASSIGN_OR_RETURN(m3::data::SparseDatasetWriter writer,
                      m3::data::SparseDatasetWriter::Create(path,
                                                            problem.cols()));
  const m3::la::CsrView csr = problem.csr();
  const m3::la::ConstVectorView labels = problem.labels();
  for (const size_t r : order) {
    const m3::la::SparseRowView row = csr.Row(r);
    M3_RETURN_IF_ERROR(
        writer.AppendRow(row.cols, row.values, row.nnz, labels[r]));
  }
  return writer.Finalize(problem.num_classes());
}

// The sparse learning problem (planted hyperplane and rows) comes from one
// fixed generator seed, and --seed permutes its rows. With a new hyperplane
// per seed, the paper's 10 L-BFGS iterations take 21 or 22 evaluations
// depending on the line search and the final loss moves by up to 30%
// between seeds; a permutation keeps the loss comparable while the chunk
// boundaries, the page layout and the I/O still change with the seed.
constexpr uint64_t kSparseProblemSeed = 2016;

Result<std::string> EnsureSparseDataset(const Args& args, bool* generated) {
  const std::string shape =
      "-rows" + std::to_string(args.sparse_rows) + "-cols" +
      std::to_string(args.sparse_cols) + "-nnz" +
      std::to_string(args.sparse_nnz_per_row) + ".m3sp";
  const std::string problem_path = args.data_dir + "/sparse-problem" + shape;
  const std::string prefix = "sparse-seed";
  const std::string path =
      args.data_dir + "/" + prefix + std::to_string(args.seed) + shape;
  if (SparseNnzIfShaped(problem_path, args) == 0) {
    M3_RETURN_IF_ERROR(
        GenerateAtomically(problem_path, [&](const std::string& out) {
          m3::data::SparseSyntheticOptions options;
          options.rows = args.sparse_rows;
          options.cols = args.sparse_cols;
          options.nnz_per_row = args.sparse_nnz_per_row;
          options.seed = kSparseProblemSeed;
          options.binary_labels = true;
          return m3::data::GenerateSparseDataset(out, options);
        }));
  }
  // A permutation keeps the entry count, so the count ties the per-seed
  // file to the problem it was permuted from.
  const uint64_t problem_nnz = SparseNnzIfShaped(problem_path, args);
  *generated = problem_nnz == 0 ||
               SparseNnzIfShaped(path, args) != problem_nnz;
  if (!*generated) {
    return path;
  }
  RemoveOtherSeeds(args.data_dir, prefix, path);
  M3_ASSIGN_OR_RETURN(m3::MappedSparseDataset problem,
                      m3::MappedSparseDataset::Open(problem_path));
  M3_RETURN_IF_ERROR(GenerateAtomically(path, [&](const std::string& out) {
    return WritePermutedRows(problem, static_cast<uint64_t>(args.seed), out);
  }));
  return path;
}

// ---------------------------------------------------------------------------
// Cache state: set outside every timed region, checked with mincore.
// ---------------------------------------------------------------------------

/// Out-of-core workloads start with the file evicted from this mapping and
/// from the page cache, all but the header page; warm ones with every page
/// touched. The header is the one read a dense Open makes: evicted, that
/// read was a single disk round trip whose latency (45 or 90-110 us on a
/// 4-vCPU VM) followed the host's state from minute to minute, so setup_s
/// measured the host rather than the library. Work an Open does on the
/// data itself still reads it from disk.
Status SetCacheState(const Workload& workload,
                     const m3::io::MemoryMappedFile& mapping) {
  if (workload.out_of_core) {
    M3_RETURN_IF_ERROR(mapping.Evict(0, mapping.size()));
    // The header is read back through a descriptor of its own with
    // readahead off, so its page alone returns to the page cache.
    M3_ASSIGN_OR_RETURN(m3::io::File file, m3::io::File::OpenReadOnly(
                                               mapping.backing_file().path()));
    M3_RETURN_IF_ERROR(file.AdviseRandom());
    std::vector<char> header(m3::util::PageSize());
    return file.ReadExactAt(0, header.data(), header.size());
  }
  static volatile uint64_t sink = 0;
  sink = sink + mapping.TouchAllPages();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// One measured training run.
// ---------------------------------------------------------------------------

/// What the wrapped scan hooks observe during one training run.
struct PassProbe {
  explicit PassProbe(const m3::io::MemoryMappedFile* mapping, bool trace)
      : mapping(mapping), trace(trace) {}

  void AtPassBoundary() {
    stamps.push_back(clock.ElapsedSeconds());
    Sample();
  }
  /// Called right after the train call returns, before any checking.
  double Finish() {
    const double seconds = clock.ElapsedSeconds();
    end_sample = m3::io::ResourceSample::Now();
    Sample();
    return seconds;
  }
  void Sample() {
    rss_peak_mb = std::max(rss_peak_mb, RssMb());
    if (trace) {
      resident_peak_mb = std::max(resident_peak_mb, ResidentMb(*mapping));
    }
  }

  const m3::io::MemoryMappedFile* mapping;
  bool trace;
  Stopwatch clock;
  std::vector<double> stamps;
  double rss_peak_mb = 0;
  double resident_peak_mb = 0;
  double evict_hook_seconds = 0;
  m3::io::ResourceSample end_sample;
};

/// Wraps the dataset's own hooks: before_pass timestamps the pass and
/// samples memory; after_chunk times the eviction the hooks perform.
m3::ml::ScanHooks WrapHooks(m3::ml::ScanHooks inner, PassProbe* probe,
                            bool stamp_passes) {
  m3::ml::ScanHooks hooks;
  hooks.before_pass = [inner, probe, stamp_passes](size_t pass) {
    if (stamp_passes) {
      probe->AtPassBoundary();
    } else {
      probe->Sample();
    }
    if (inner.before_pass) {
      inner.before_pass(pass);
    }
  };
  if (inner.after_chunk) {
    hooks.after_chunk = [inner, probe](size_t begin, size_t end) {
      Stopwatch watch;
      inner.after_chunk(begin, end);
      probe->evict_hook_seconds += watch.ElapsedSeconds();
    };
  }
  return hooks;
}

/// The model-independent outcome of one training call.
struct TrainOutcome {
  Status status;
  double train_s = NAN;
  double objective = NAN;
  double recheck = NAN;
  uint64_t passes = 0;
};

double LogisticObjectiveAt(m3::ml::ChunkedObjective* objective,
                           const m3::ml::LogisticRegressionModel& model) {
  const size_t d = model.weights.size();
  m3::la::Vector w(d + 1);
  m3::la::Copy(model.weights, w.View().Slice(0, d));
  w[d] = model.intercept;
  m3::la::Vector grad(d + 1);
  return objective->EvaluateWithGradient(w, grad);
}

TrainOutcome TrainDenseLr(m3::MappedDataset& ds, PassProbe* probe) {
  m3::ml::LogisticRegressionOptions options;
  options.lbfgs = m3::PaperLbfgsOptions();
  options.hooks = WrapHooks(ds.MakeScanHooks(), probe, true);
  m3::ml::OptimizationResult stats;
  TrainOutcome out;
  probe->clock.Restart();
  auto model = m3::TrainLogisticRegression(ds, options, &stats);
  out.train_s = probe->Finish();
  out.status = model.status();
  if (!model.ok()) {
    return out;
  }
  out.objective = stats.objective;
  out.passes = stats.function_evaluations;
  // Independent of the training path: no pipeline, no hooks.
  m3::ml::LogisticRegressionObjective check(ds.features(), ds.labels(),
                                            options.l2, ds.chunk_rows());
  out.recheck = LogisticObjectiveAt(&check, model.value());
  return out;
}

TrainOutcome TrainSparseLr(m3::MappedSparseDataset& ds, PassProbe* probe) {
  m3::ml::SparseLogisticRegressionOptions options;
  options.lbfgs = m3::PaperLbfgsOptions();
  options.pipeline = &ds.pipeline();
  options.hooks = WrapHooks(m3::ml::ScanHooks(), probe, true);
  m3::ml::OptimizationResult stats;
  TrainOutcome out;
  probe->clock.Restart();
  auto model =
      m3::ml::SparseLogisticRegression(options).Train(ds.csr(), ds.labels(),
                                                      &stats);
  out.train_s = probe->Finish();
  out.status = model.status();
  if (!model.ok()) {
    return out;
  }
  out.objective = stats.objective;
  out.passes = stats.function_evaluations;
  m3::ml::SparseLogisticRegressionObjective check(
      ds.csr(), ds.labels(), options.l2, options.chunk_rows,
      options.chunk_nnz_bytes);
  out.recheck = LogisticObjectiveAt(&check, model.value());
  return out;
}

/// Inertia of `x` against `centers`, recomputed from KMeans::Assign.
double InertiaFromAssign(m3::la::ConstMatrixView x,
                         const m3::la::Matrix& centers) {
  const std::vector<uint32_t> assignment = m3::ml::KMeans::Assign(x, centers);
  double inertia = 0;
  for (size_t r = 0; r < x.rows(); ++r) {
    inertia += m3::la::SquaredDistance(x.Row(r), centers.Row(assignment[r]));
  }
  return inertia;
}

TrainOutcome TrainDenseKMeans(m3::MappedDataset& ds, PassProbe* probe) {
  m3::ml::KMeansOptions options = m3::PaperKMeansOptions();
  options.hooks = WrapHooks(ds.MakeScanHooks(), probe, false);
  options.iteration_callback = [probe](size_t, double) {
    probe->AtPassBoundary();
  };
  TrainOutcome out;
  probe->clock.Restart();
  auto result = m3::TrainKMeans(ds, options);
  out.train_s = probe->Finish();
  out.status = result.status();
  if (!result.ok()) {
    return out;
  }
  const double rows = static_cast<double>(ds.rows());
  out.objective = result.value().inertia / rows;
  out.passes = result.value().iterations;
  // The reported inertia is measured against the centers the last pass
  // assigned to; the returned centers are one Lloyd update later, so the
  // recomputation agrees only within the last update's improvement.
  out.recheck = InertiaFromAssign(ds.features(), result.value().centers) /
                rows;
  return out;
}

/// Emits one "train" record: the outcome plus every layer counter the run
/// produced (pipeline stats, faults, CPU, eviction, residency).
void EmitTrain(const Workload& workload, int rep, bool warmup,
               double resident_before,
               const TrainOutcome& out, const PassProbe& probe,
               const m3::exec::PipelineStats& exec,
               const m3::io::ResourceSample& resources,
               uint64_t emulator_bytes_evicted) {
  std::vector<double> pass_s;
  for (size_t i = 1; i < probe.stamps.size(); ++i) {
    pass_s.push_back(probe.stamps[i] - probe.stamps[i - 1]);
  }
  const size_t cpus = m3::util::NumCpus();
  JsonLine line("train");
  line.Str("workload", workload.name)
      .Int("rep", static_cast<uint64_t>(rep))
      .Bool("warmup", warmup)
      .Bool("ok", out.status.ok())
      .Str("status", StatusText(out.status))
      .Num("resident_before", resident_before)
      .Num("train_s", out.train_s)
      .Nums("pass_s", pass_s)
      .Num("objective", out.objective)
      .Num("recheck", out.recheck)
      .Num("peak_rss_mb", probe.rss_peak_mb)
      .Int("ml.passes", out.passes)
      .Num("ml.optimizer_s", out.train_s - exec.drive_seconds)
      .Num("exec.drive_s", exec.drive_seconds)
      .Num("exec.compute_s", exec.compute_seconds)
      // The RamBudgetEmulator evicts from inside the retire stage; that
      // time is eviction, so it moves from retire_s to evict_s and the
      // stage seconds still sum to the work done.
      .Num("exec.retire_s", exec.retire_seconds - probe.evict_hook_seconds)
      .Num("exec.evict_s", exec.evict_seconds + probe.evict_hook_seconds)
      .Num("exec.compute_chunk_p50_s",
           exec.compute_duration.count() > 0
               ? exec.compute_duration.Percentile(50)
               : NAN)
      .Int("exec.prefetch_hits", exec.prefetch_hits)
      .Int("exec.stalls", exec.stalls)
      .Num("exec.stall_chunk_p95_s", exec.stall_duration.count() > 0
                                         ? exec.stall_duration.Percentile(95)
                                         : NAN)
      .Int("core.bytes_evicted", exec.bytes_evicted + emulator_bytes_evicted)
      .Num("core.resident_peak_mb",
           probe.trace ? probe.resident_peak_mb : NAN)
      .Int("io.major_faults", static_cast<uint64_t>(resources.faults.major))
      .Int("io.minor_faults", static_cast<uint64_t>(resources.faults.minor))
      .Num("io.cpu_util", resources.CpuUtilization(cpus))
      .Print();
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced runs only).
// ---------------------------------------------------------------------------

void EmitProbe(const char* name, double value, const std::string& absent) {
  JsonLine line("probe");
  line.Str("name", name).Num("value", value);
  if (!absent.empty()) {
    line.Str("absent", absent);
  }
  line.Print();
}

/// Median seconds of `reps` calls of `fn`, each preceded by `prepare`.
double TimeMedian(int reps, const std::function<void()>& prepare,
                  const std::function<void()>& fn) {
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    prepare();
    Stopwatch watch;
    fn();
    seconds.push_back(watch.ElapsedSeconds());
  }
  return Median(seconds);
}

/// GB/s of a kernel that moves `bytes_per_call` per call, timed over
/// enough calls to fill ~50 ms, median of 3.
double KernelGbps(double bytes_per_call, const std::function<double()>& fn) {
  static volatile double sink = 0;
  size_t calls = 1;
  for (;;) {
    Stopwatch watch;
    for (size_t i = 0; i < calls; ++i) {
      sink = sink + fn();
    }
    if (watch.ElapsedSeconds() > 0.01 || calls > (size_t{1} << 30)) {
      break;
    }
    calls *= 2;
  }
  calls *= 5;
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch watch;
    for (size_t i = 0; i < calls; ++i) {
      sink = sink + fn();
    }
    rates.push_back(bytes_per_call * static_cast<double>(calls) /
                    watch.ElapsedSeconds() / 1e9);
  }
  return Median(rates);
}

/// The la kernels on heap vectors of the workload's width `d`; the sparse
/// ones on 4096 rows of ~`nnz` sorted random columns.
void ProbeKernels(size_t d, size_t nnz, uint64_t seed) {
  m3::util::Rng rng(seed);
  m3::la::Vector x(d);
  m3::la::Vector y(d);
  for (size_t i = 0; i < d; ++i) {
    x[i] = rng.Uniform(-1.0, 1.0);
    y[i] = rng.Uniform(-1.0, 1.0);
  }
  const double dense_bytes = static_cast<double>(d * sizeof(double));
  EmitProbe("la.dot_gbps",
            KernelGbps(2 * dense_bytes, [&] { return m3::la::Dot(x, y); }),
            "");
  EmitProbe("la.axpy_gbps", KernelGbps(3 * dense_bytes, [&] {
              m3::la::Axpy(1e-9, x, y.View());
              return y[0];
            }),
            "");
  EmitProbe("la.sqdist_gbps", KernelGbps(2 * dense_bytes, [&] {
              return m3::la::SquaredDistance(x, y);
            }),
            "");

  const size_t rows = 4096;
  const size_t row_nnz = std::min(nnz, d);
  std::vector<uint64_t> row_ptr(rows + 1, 0);
  std::vector<uint32_t> cols;
  std::vector<double> values;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<uint32_t> row;
    while (row.size() < row_nnz) {
      const auto c = static_cast<uint32_t>(rng.UniformInt(uint64_t{d}));
      if (std::find(row.begin(), row.end(), c) == row.end()) {
        row.push_back(c);
      }
    }
    std::sort(row.begin(), row.end());
    for (const uint32_t c : row) {
      cols.push_back(c);
      values.push_back(rng.Uniform(-1.0, 1.0));
    }
    row_ptr[r + 1] = cols.size();
  }
  const m3::la::CsrView csr(row_ptr.data(), cols.data(), values.data(), rows,
                            d);
  const double entries = static_cast<double>(cols.size());
  // Per stored entry: index + value read, plus the gathered (dot) or
  // read-modify-written (axpy) dense element.
  EmitProbe("la.sparse_dot_gbps", KernelGbps(entries * 20, [&] {
              double total = 0;
              for (size_t r = 0; r < rows; ++r) {
                total += m3::la::SparseDot(csr.Row(r), x);
              }
              return total;
            }),
            "");
  EmitProbe("la.sparse_axpy_gbps", KernelGbps(entries * 28, [&] {
              for (size_t r = 0; r < rows; ++r) {
                m3::la::SparseAxpy(1e-9, csr.Row(r), y.View());
              }
              return y[0];
            }),
            "");
}

/// Touches one byte per page of every span in `spans`.
uint64_t TouchSpans(const m3::io::MemoryMappedFile& mapping,
                    const std::vector<m3::exec::ByteSpan>& spans) {
  const uint64_t page = m3::util::PageSize();
  const volatile char* bytes = mapping.As<const char>();
  uint64_t sum = 0;
  for (const auto& span : spans) {
    for (uint64_t off = span.offset; off < span.offset + span.length;
         off += page) {
      sum += static_cast<uint64_t>(bytes[off]);
    }
  }
  return sum;
}

void ProbeLayers(const Workload& workload, m3::MappedDataset& ds, int reps) {
  static volatile uint64_t sink = 0;
  auto prepare = [&] {
    if (!SetCacheState(workload, ds.mapping()).ok()) {
      sink = sink + 1;
    }
  };
  const uint64_t page = m3::util::PageSize();
  const uint64_t row_bytes = ds.cols() * sizeof(double);
  const char* features =
      ds.mapping().As<const char>() + ds.meta().features_offset;
  EmitProbe("exec.scan_s", TimeMedian(reps, prepare, [&] {
              ds.ForEachChunk([&](size_t, size_t begin, size_t end) {
                uint64_t sum = 0;
                for (uint64_t off = begin * row_bytes; off < end * row_bytes;
                     off += page) {
                  sum += static_cast<uint64_t>(
                      static_cast<const volatile char*>(features)[off]);
                }
                sink = sink + sum;
              });
            }),
            "");
  if (workload.kmeans) {
    m3::ml::KMeansOptions options = m3::PaperKMeansOptions();
    auto centers = m3::ml::KMeans::SeedCenters(ds.features(), options);
    EmitProbe("ml.kmeans_seed_s", TimeMedian(reps, prepare, [&] {
                auto seeded =
                    m3::ml::KMeans::SeedCenters(ds.features(), options);
                sink = sink + (seeded.ok() ? 0 : 1);
              }),
              "");
    // One Lloyd pass from fixed centers: k-means' per-pass objective.
    if (centers.ok()) {
      options.initial_centers = &centers.value();
      options.max_iterations = 1;
      EmitProbe("ml.grad_pass_s", TimeMedian(reps, prepare, [&] {
                  auto pass = m3::TrainKMeans(ds, options);
                  sink = sink + (pass.ok() ? 0 : 1);
                }),
                "");
    } else {
      EmitProbe("ml.grad_pass_s", NAN,
                "SeedCenters failed: " + centers.status().ToString());
    }
    return;
  }
  EmitProbe("ml.kmeans_seed_s", NAN, "workload does not train k-means");
  m3::ml::LogisticRegressionObjective objective(
      ds.features(), ds.labels(), m3::ml::LogisticRegressionOptions().l2,
      ds.chunk_rows(), ds.MakeScanHooks());
  objective.set_pipeline(&ds.pipeline());
  m3::la::Vector w(objective.Dimension());
  m3::la::Vector grad(objective.Dimension());
  EmitProbe("ml.grad_pass_s", TimeMedian(reps, prepare, [&] {
              sink = sink + static_cast<uint64_t>(
                                objective.EvaluateWithGradient(w, grad) > 0);
            }),
            "");
}

void ProbeLayers(const Workload& workload, m3::MappedSparseDataset& ds,
                 int reps) {
  static volatile uint64_t sink = 0;
  auto prepare = [&] {
    if (!SetCacheState(workload, ds.mapping()).ok()) {
      sink = sink + 1;
    }
  };
  const m3::la::SparseChunker chunker = ds.MakeChunker();
  EmitProbe("exec.scan_s", TimeMedian(reps, prepare, [&] {
              ds.pipeline().Run(chunker, [&](size_t, size_t begin,
                                             size_t end) {
                std::vector<m3::exec::ByteSpan> spans;
                ds.byte_map().AppendSpans(begin, end, &spans);
                sink = sink + TouchSpans(ds.mapping(), spans);
              });
            }),
            "");
  EmitProbe("ml.kmeans_seed_s", NAN, "workload does not train k-means");
  m3::ml::SparseLogisticRegressionObjective objective(
      ds.csr(), ds.labels(), m3::ml::SparseLogisticRegressionOptions().l2);
  objective.set_pipeline(&ds.pipeline());
  m3::la::Vector w(objective.Dimension());
  m3::la::Vector grad(objective.Dimension());
  EmitProbe("ml.grad_pass_s", TimeMedian(reps, prepare, [&] {
              sink = sink + static_cast<uint64_t>(
                                objective.EvaluateWithGradient(w, grad) > 0);
            }),
            "");
}

// ---------------------------------------------------------------------------
// The run: setup reps, then training reps until the time is up.
// ---------------------------------------------------------------------------

/// Bytes one training pass scans, the base of the out-of-core RAM budget.
uint64_t ScanBytes(const m3::MappedDataset& ds) { return ds.feature_bytes(); }
uint64_t ScanBytes(const m3::MappedSparseDataset& ds) {
  return ds.payload_bytes();
}

/// Bytes the dense RamBudgetEmulator has evicted; sparse scans evict in the
/// engine, whose stats count them.
uint64_t EmulatorBytesEvicted(m3::MappedDataset& ds) {
  return ds.ram_budget() != nullptr ? ds.ram_budget()->bytes_evicted() : 0;
}
uint64_t EmulatorBytesEvicted(m3::MappedSparseDataset&) { return 0; }

TrainOutcome Train(const Workload& workload, m3::MappedDataset& ds,
                   PassProbe* probe) {
  return workload.kmeans ? TrainDenseKMeans(ds, probe) : TrainDenseLr(ds, probe);
}
TrainOutcome Train(const Workload&, m3::MappedSparseDataset& ds,
                   PassProbe* probe) {
  return TrainSparseLr(ds, probe);
}

/// Times `reps` Opens, each from the workload's starting cache state, and
/// returns the bytes a pass scans (0 when no Open succeeded).
template <typename Dataset>
uint64_t TimeSetups(const Workload& workload, const std::string& path,
                    uint64_t reps) {
  // A second mapping of the file sets and checks the cache state before
  // each Open; it is unmapped before training so it never adds to the
  // resident set measured there.
  auto control = m3::io::MemoryMappedFile::Map(path);
  if (!control.ok()) {
    JsonLine("setup")
        .Bool("ok", false)
        .Str("status", StatusText(control.status()))
        .Print();
    return 0;
  }
  uint64_t scan_bytes = 0;
  Status state;
  for (uint64_t rep = 0; rep < reps; ++rep) {
    // A warm file stays resident once touched; touching it again before
    // every Open would only flush the CPU caches the Open then runs in.
    if (workload.out_of_core || rep == 0) {
      state = SetCacheState(workload, control.value());
    }
    const double resident_before = ResidentFraction(control.value());
    Stopwatch watch;
    auto ds = Dataset::Open(path, m3::M3Options());
    const double setup_s = watch.ElapsedSeconds();
    const Status status = state.ok() ? ds.status() : state;
    if (ds.ok()) {
      scan_bytes = ScanBytes(ds.value());
    }
    JsonLine("setup")
        .Bool("ok", status.ok())
        .Str("status", StatusText(status))
        .Num("resident_before", resident_before)
        .Num("setup_s", setup_s)
        .Print();
  }
  return scan_bytes;
}

template <typename Dataset>
void RunWorkload(const Workload& workload, const Args& args,
                 const std::string& path) {
  // Set-up is timed in two halves, before and after training, so its
  // median does not hang on the host's state in one moment of the run.
  const uint64_t scan_bytes =
      TimeSetups<Dataset>(workload, path, (workload.setup_reps + 1) / 2);
  m3::M3Options options;
  if (workload.out_of_core) {
    options.ram_budget_bytes = scan_bytes / 4;
  }
  {
    auto opened = Dataset::Open(path, options);
    if (!opened.ok()) {
      JsonLine("train").Bool("ok", false).Str("status",
                                              StatusText(opened.status()))
          .Print();
      return;
    }
    Dataset& ds = opened.value();
    const m3::io::PrefetchBackend* backend = ds.pipeline().prefetch_backend();
    JsonLine("dataset_options")
        .Int("ram_budget_bytes", options.ram_budget_bytes)
        .Int("scan_bytes", scan_bytes)
        .Str("prefetch_backend",
             backend != nullptr
                 ? std::string(m3::io::PrefetchBackendKindToString(
                       backend->kind()))
                 : std::string("none"))
        .Print();

    auto train_once = [&](int rep, bool warmup) {
      const Status state = SetCacheState(workload, ds.mapping());
      const double resident_before = ResidentFraction(ds.mapping());
      ds.pipeline().ConsumeStats();  // the stats below are this run's alone
      const uint64_t evicted_before = EmulatorBytesEvicted(ds);
      PassProbe probe(&ds.mapping(), args.trace != 0);
      const m3::io::ResourceSample before = m3::io::ResourceSample::Now();
      TrainOutcome out = Train(workload, ds, &probe);
      if (!state.ok()) {
        out.status = state;
      }
      // The objective check runs without the pipeline, so the stage stats
      // are the training run's alone; faults and CPU are read at its end.
      EmitTrain(workload, rep, warmup, resident_before, out, probe,
                ds.pipeline().ConsumeStats(), probe.end_sample - before,
                EmulatorBytesEvicted(ds) - evicted_before);
    };
    // The first run of a process pays one-time costs a long-lived process
    // does not: the thread pool's first fan-out and the heap's growth to
    // its working size. The warm-up run is checked like every run but not
    // measured.
    train_once(0, /*warmup=*/true);

    // Steal over the training loop says how much the host's other guests
    // took from this run; it explains spread, it is no metric.
    const CpuTimes cpu_before = ReadCpuTimes();
    Stopwatch run_clock;
    for (int rep = 0; rep < 1000; ++rep) {
      if (rep >= kMinTrainReps && run_clock.ElapsedSeconds() >= args.seconds) {
        break;
      }
      train_once(rep, /*warmup=*/false);
    }
    const CpuTimes cpu_after = ReadCpuTimes();
    JsonLine("host")
        .Num("steal_fraction", (cpu_after.steal - cpu_before.steal) /
                                   (cpu_after.total - cpu_before.total))
        .Print();

    if (args.trace != 0) {
      ProbeLayers(workload, ds, /*reps=*/3);
      ProbeKernels(ds.cols(), args.sparse_nnz_per_row,
                   static_cast<uint64_t>(args.seed));
      auto disk = m3::io::ProbeDisk(args.data_dir, 32ull << 20);
      EmitProbe("io.disk_read_gbps",
                disk.ok() ? disk.value().sequential_read_bytes_per_sec / 1e9
                          : NAN,
                disk.ok() ? "" : disk.status().ToString());
    }
  }
  TimeSetups<Dataset>(workload, path, workload.setup_reps / 2);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  m3::util::FlagParser flags(
      "m3perf: times M3 training workloads; prints JSON records");
  flags.AddString("workload", &args.workload,
                  "lr-dense-ooc | lr-dense-warm | lr-sparse-ooc | "
                  "kmeans-dense-warm");
  flags.AddInt64("seed", &args.seed, "dataset seed");
  flags.AddDouble("seconds", &args.seconds, "training time budget");
  flags.AddInt64("trace", &args.trace, "1 = also run the per-layer probes");
  flags.AddString("data_dir", &args.data_dir, "where datasets are cached");
  flags.AddSize("dense_rows", &args.dense_rows, "dense dataset rows");
  flags.AddSize("sparse_rows", &args.sparse_rows, "sparse dataset rows");
  flags.AddSize("sparse_cols", &args.sparse_cols, "sparse dataset columns");
  flags.AddSize("sparse_nnz_per_row", &args.sparse_nnz_per_row,
                "mean stored entries per sparse row");
  const Status parsed = flags.Parse(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      workload = &w;
    }
  }
  if (!parsed.ok() || flags.help_requested() || workload == nullptr ||
      args.data_dir.empty() || args.seed < 0 || args.seconds <= 0 ||
      args.dense_rows == 0 || args.sparse_rows == 0 ||
      args.sparse_cols == 0 || args.sparse_nnz_per_row == 0) {
    std::fprintf(stderr, "%s\n%s", StatusText(parsed).c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  // The sparse trainer allocates and zeroes one 2^20-double partial (8 MiB)
  // per thread range per chunk. Left to its defaults, glibc takes these
  // from fresh zero-filled mappings or from reused heap depending on the
  // process's history (the mmap threshold adapts at the first large free,
  // and trimming hands freed heap back), so one process's trains took
  // from 167k to 741k minor faults and 2.9 to 5.2 s on a 4-vCPU VM, and
  // two sets of runs with fresh mappings every time differed by 34%. The
  // harness fixes the steady state a long-lived process can reach instead:
  // blocks up to 32 MiB come from the heap and freed heap is kept, so the
  // partials cost their zeroing and folding but no page faults.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  JsonLine("workload")
      .Str("name", workload->name)
      .Str("model", workload->kmeans ? "kmeans" : "lr")
      .Bool("out_of_core", workload->out_of_core)
      .Print();
  std::error_code error;
  fs::create_directories(args.data_dir, error);

  const m3::io::PlatformCapabilities& caps = m3::io::GetPlatformCapabilities();
  auto disk = m3::io::ProbeDisk(args.data_dir, 32ull << 20);
  JsonLine env("env");
  env.Str("sys_info", m3::util::SysInfoString())
      .Str("platform", caps.ToString())
      .Bool("mincore_tracks_eviction", caps.mincore_tracks_eviction)
      .Bool("rusage_tracks_faults", caps.rusage_tracks_faults)
      .Bool("proc_io_counters_live", caps.proc_io_counters_live)
      .Int("thread_pool_threads", m3::util::GlobalThreadPool().num_threads())
      .Int("cpus", m3::util::NumCpus());
  if (disk.ok()) {
    env.Num("disk_seq_read_gbps",
            disk.value().sequential_read_bytes_per_sec / 1e9)
        .Num("disk_seq_write_gbps",
             disk.value().sequential_write_bytes_per_sec / 1e9)
        .Num("disk_random_read_latency_s",
             disk.value().random_read_latency_sec);
  } else {
    env.Str("disk_probe_absent", disk.status().ToString());
  }
  env.Print();

  bool generated = false;
  Stopwatch generation;
  auto path = workload->sparse ? EnsureSparseDataset(args, &generated)
                               : EnsureDenseDataset(args, &generated);
  JsonLine dataset("dataset");
  dataset.Bool("ok", path.ok())
      .Str("status", StatusText(path.status()))
      .Bool("generated", generated)
      .Num("generate_s", generation.ElapsedSeconds());
  if (path.ok()) {
    dataset.Str("path", path.value());
  }
  dataset.Print();
  if (!path.ok()) {
    return 0;
  }
  if (workload->sparse) {
    RunWorkload<m3::MappedSparseDataset>(*workload, args, path.value());
  } else {
    RunWorkload<m3::MappedDataset>(*workload, args, path.value());
  }
  return 0;
}
