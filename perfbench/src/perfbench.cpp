// perfbench — the measurement program behind perfbench/run.py.
//
//   perfbench setup <workload> --dir D --seed N --seconds T
//   perfbench run   <workload> --dir D --seconds T [--trace] [--windowed]
//                   [--socket PATH]
//
// `setup` generates the workload's inputs from the seed into D (for
// cpwd_mixed it also warms the daemon's cache directory and computes the
// reference digest of every scheduled request with a direct run_batch).
// `run` measures the workload's main path for about T seconds; with
// --trace it also times each layer from outside, around calls into the
// modules' public functions. Both print one JSON object of raw
// measurements on stdout; run.py turns them into the benchmark's metrics
// and checks them.
//
// Workloads: ingest_large, coplot_wide, cpwd_mixed, stream_drift (see
// perfbench/README.md for why each exists and what it stresses).

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cpw/analysis/batch.hpp"
#include "cpw/analysis/digest.hpp"
#include "cpw/cache/cache.hpp"
#include "cpw/coplot/coplot.hpp"
#include "cpw/mds/ssa.hpp"
#include "cpw/models/model.hpp"
#include "cpw/obs/export.hpp"
#include "cpw/obs/metrics.hpp"
#include "cpw/online/characterizer.hpp"
#include "cpw/online/trajectory.hpp"
#include "cpw/selfsim/hurst.hpp"
#include "cpw/serve/client.hpp"
#include "cpw/simd/simd.hpp"
#include "cpw/swf/reader.hpp"
#include "cpw/swf/stream.hpp"
#include "cpw/util/fingerprint.hpp"
#include "cpw/util/rng.hpp"
#include "cpw/util/thread_pool.hpp"
#include "cpw/workload/characterize.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

namespace fs = std::filesystem;
using namespace cpw;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ sizing

// ingest_large: one ~50 MB log per core.
constexpr std::size_t kIngestLogs = 4;
constexpr std::size_t kIngestJobs = 500000;
// coplot_wide: many small logs, so the Co-plot map dominates. SSA's
// convergence depends on the data, so each run rotates over several
// independent corpora to keep one seed's luck from setting the figures.
constexpr std::size_t kWideCorpora = 4;
constexpr std::size_t kWideLogs = 128;  ///< per corpus
constexpr std::size_t kWideMinJobs = 300;
constexpr std::size_t kWideJobSpread = 200;
// cpwd_mixed: Poisson arrivals at a fixed rate well under capacity.
constexpr std::size_t kCpwdWarmFiles = 48;
constexpr std::size_t kCpwdMinJobs = 400;
constexpr std::size_t kCpwdJobSpread = 800;
constexpr double kCpwdRate = 80.0;  // requests per second
constexpr double kCpwdMissShare = 0.25;
constexpr std::int64_t kCpwdMaxFiles = 8;
constexpr std::size_t kCpwdTenants = 4;  ///< generator connections
constexpr double kCpwdWaitSeconds = 60.0;
constexpr std::uint64_t kCacheStores = 32;  ///< traced store timings
// stream_drift: model 0 switches to model 2 at job 100 000.
constexpr std::size_t kStreamJobs = 200000;
constexpr std::size_t kStreamSwitch = 100000;
constexpr std::size_t kWindowJobs = 1000;
constexpr std::size_t kSwitchWindow = kStreamSwitch / kWindowJobs;
// Setup is repeated this many times per run; run.py reports the median.
constexpr int kDecodeRepeats = 3;

// ------------------------------------------------------------ helpers

[[noreturn]] void usage(const std::string& detail) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench setup <workload> --dir D --seed N "
               "--seconds T\n"
               "       perfbench run <workload> --dir D --seconds T "
               "[--trace] [--windowed] [--socket PATH]\n",
               detail.c_str());
  std::exit(2);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string hex64(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016" PRIx64, value);
  return text;
}

/// Builds one flat JSON object; run.py is the only reader.
class JsonObject {
 public:
  void num(const std::string& key, double value) {
    field(key) += number(value);
  }
  void str(const std::string& key, const std::string& value) {
    std::string& out = field(key);
    out += '"';
    for (char c : value) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
        continue;
      }
      out += c;
    }
    out += '"';
  }
  void list(const std::string& key, const std::vector<double>& values) {
    std::string& out = field(key);
    out += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ',';
      out += number(values[i]);
    }
    out += ']';
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  static std::string number(double value) {
    if (!std::isfinite(value)) return "null";
    char text[32];
    std::snprintf(text, sizeof(text), "%.17g", value);
    return text;
  }
  std::string& field(const std::string& key) {
    if (!body_.empty()) body_ += ',';
    body_ += '"' + key + "\":";
    return body_;
  }
  std::string body_;
};

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

swf::Log generate(std::size_t model, std::size_t jobs, std::uint64_t seed) {
  const auto models = models::all_models(128);
  return models[model % models.size()]->generate(jobs, seed);
}

/// One generated input file.
struct InputFile {
  std::string path;
  std::size_t jobs = 0;
  std::uint64_t bytes = 0;
};

InputFile write_log(const std::string& path, const swf::Log& log) {
  const std::string text = swf::format_swf(log);
  write_file(path, text);
  return {path, log.size(), text.size()};
}

/// manifest.txt: one "jobs bytes path" line per input file, in order.
void write_manifest(const std::string& dir,
                    const std::vector<InputFile>& files) {
  std::string text;
  for (const InputFile& file : files) {
    text += std::to_string(file.jobs) + " " + std::to_string(file.bytes) +
            " " + file.path + "\n";
  }
  write_file(dir + "/manifest.txt", text);
}

std::vector<InputFile> read_manifest(const std::string& dir) {
  std::ifstream in(dir + "/manifest.txt");
  if (!in) throw std::runtime_error("no manifest in " + dir);
  std::vector<InputFile> files;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    InputFile file;
    fields >> file.jobs >> file.bytes;
    std::getline(fields >> std::ws, file.path);
    files.push_back(std::move(file));
  }
  return files;
}

std::vector<std::string> paths_of(const std::vector<InputFile>& files) {
  std::vector<std::string> paths;
  for (const InputFile& file : files) paths.push_back(file.path);
  return paths;
}

/// Generates `count` logs on the global pool, log i from model i mod 5 with
/// `jobs_of(i)` jobs and seed derive_seed(seed, i).
std::vector<InputFile> generate_logs(
    const std::string& dir, const std::string& prefix, std::size_t count,
    std::uint64_t seed, const std::function<std::size_t(std::size_t)>& jobs_of) {
  std::vector<InputFile> files(count);
  parallel_for(
      count,
      [&](std::size_t i) {
        char name[32];
        std::snprintf(name, sizeof(name), "%s-%05zu.swf", prefix.c_str(), i);
        files[i] = write_log(dir + "/" + name,
                             generate(i, jobs_of(i), derive_seed(seed, i)));
      },
      1);
  return files;
}

std::string simd_path() {
  (void)simd::active();  // resolves the dispatch and publishes the gauge
  const obs::Snapshot snapshot = obs::registry().snapshot();
  for (const obs::MetricSample& sample : snapshot.samples) {
    if (sample.name != "cpw_simd_dispatch" || sample.value != 1.0) continue;
    for (const auto& [key, value] : sample.labels) {
      if (key == "path") return value;
    }
  }
  return "unknown";
}

/// Writes this process's metrics registry (cpw_stage_seconds among them) in
/// Prometheus text format; run.py takes deltas between two such files.
void write_registry(const std::string& path) {
  write_file(path, obs::to_prometheus(obs::registry().snapshot()));
}

double peak_rss_mb() {
  return static_cast<double>(obs::record_peak_rss()) / (1024.0 * 1024.0);
}

/// The workload's files as equal corpora, analyzed round-robin: call i runs
/// run_batch over corpus i mod size(). Each call's digest must equal the
/// corpus's reference digest from set-up, or else the first one seen.
struct Corpora {
  std::vector<std::vector<std::string>> paths;
  std::vector<std::uint64_t> digests;  ///< 0 until the corpus's first call
  std::size_t next = 0;
};

Corpora split_corpora(const std::vector<InputFile>& files, std::size_t count) {
  Corpora corpora;
  corpora.paths.resize(count);
  corpora.digests.assign(count, 0);
  const std::size_t size = files.size() / count;
  for (std::size_t i = 0; i < files.size(); ++i) {
    corpora.paths[std::min(i / size, count - 1)].push_back(files[i].path);
  }
  return corpora;
}

std::uint64_t digest_fp(const analysis::BatchResult& result) {
  return fingerprint_bytes(analysis::digest(result));
}

// ------------------------------------------------------------ setup

std::vector<InputFile> setup_ingest(const std::string& dir,
                                    std::uint64_t seed) {
  return generate_logs(dir, "ingest", kIngestLogs, seed,
                       [](std::size_t) { return kIngestJobs; });
}

/// Generates the corpora and the reference digest of each, from a serial
/// run_batch (parallel = false) per corpus; the measured parallel calls must
/// reproduce it bit for bit.
std::vector<InputFile> setup_wide(const std::string& dir, std::uint64_t seed) {
  std::vector<InputFile> files =
      generate_logs(dir, "wide", kWideCorpora * kWideLogs, seed,
                    [](std::size_t i) {
                      return kWideMinJobs +
                             (i % kWideLogs * kWideJobSpread) / kWideLogs;
                    });
  const Corpora corpora = split_corpora(files, kWideCorpora);
  analysis::BatchOptions serial;
  serial.parallel = false;
  std::vector<std::uint64_t> digests(kWideCorpora);
  parallel_for(
      kWideCorpora,
      [&](std::size_t c) {
        digests[c] = digest_fp(analysis::run_batch(
            std::span<const std::string>(corpora.paths[c]), serial));
      },
      1);
  std::string text;
  for (std::uint64_t digest : digests) text += hex64(digest) + "\n";
  write_file(dir + "/reference.txt", text);
  return files;
}

/// The two-regime log: model 0 for the first kStreamSwitch jobs, then model
/// 2 (its own seed) with submit times shifted to continue after the first
/// regime's last arrival.
std::vector<InputFile> setup_stream(const std::string& dir,
                                    std::uint64_t seed) {
  swf::Log head = generate(0, kStreamSwitch, derive_seed(seed, 0));
  const swf::Log tail =
      generate(2, kStreamJobs - kStreamSwitch, derive_seed(seed, 1));
  swf::JobList jobs = head.jobs();
  const double shift = jobs.back().submit_time - tail.jobs().front().submit_time;
  for (swf::Job job : tail.jobs()) {
    job.submit_time += shift;
    jobs.push_back(job);
  }
  swf::Log spliced("stream", std::move(jobs));
  for (const auto& [key, value] : head.header()) spliced.set_header(key, value);
  return {write_log(dir + "/stream.swf", spliced)};
}

/// One scheduled cpwd_mixed request.
struct Request {
  double due = 0.0;          ///< seconds after the run starts
  std::uint64_t ref_fp = 0;  ///< fingerprint of the direct run_batch digest
  std::size_t jobs = 0;      ///< jobs across the named files
  bool miss = false;         ///< names one file the daemon has not cached
  std::vector<std::size_t> files;  ///< manifest indices
};

void write_requests(const std::string& dir,
                    const std::vector<Request>& requests) {
  std::string text;
  for (const Request& request : requests) {
    char head[96];
    std::snprintf(head, sizeof(head), "%.9f %s %zu %d %zu", request.due,
                  hex64(request.ref_fp).c_str(), request.jobs,
                  request.miss ? 1 : 0, request.files.size());
    text += head;
    for (std::size_t file : request.files) {
      text += ' ';
      text += std::to_string(file);
    }
    text += '\n';
  }
  write_file(dir + "/requests.txt", text);
}

std::vector<Request> read_requests(const std::string& dir) {
  std::ifstream in(dir + "/requests.txt");
  if (!in) throw std::runtime_error("no requests in " + dir);
  std::vector<Request> requests;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    Request request;
    std::string fp;
    int miss = 0;
    std::size_t count = 0;
    fields >> request.due >> fp >> request.jobs >> miss >> count;
    request.ref_fp = std::stoull(fp, nullptr, 16);
    request.miss = miss != 0;
    request.files.resize(count);
    for (std::size_t& file : request.files) fields >> file;
    requests.push_back(std::move(request));
  }
  return requests;
}


/// Corpus = kCpwdWarmFiles warm files (analyzed into <dir>/cache here, so
/// the daemon finds them cached) followed by one fresh file per miss
/// request. Reference digests come from a direct run_batch per request,
/// over a separate cache so each file is analyzed cold exactly once.
std::vector<InputFile> setup_cpwd(const std::string& dir, std::uint64_t seed,
                                  double seconds) {
  Rng rng(derive_seed(seed, 0xC9D));
  const auto count = static_cast<std::size_t>(std::ceil(kCpwdRate * seconds));
  std::vector<Request> requests(count);
  std::size_t misses = 0;
  double due = 0.0;
  for (Request& request : requests) {
    due += -std::log(1.0 - rng.uniform()) / kCpwdRate;
    request.due = due;
    request.miss = rng.uniform() < kCpwdMissShare;
    const auto wanted = static_cast<std::size_t>(rng.uniform_int(1, kCpwdMaxFiles));
    if (request.miss) request.files.push_back(kCpwdWarmFiles + misses++);
    while (request.files.size() < wanted) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kCpwdWarmFiles) - 1));
      if (std::find(request.files.begin(), request.files.end(), pick) ==
          request.files.end()) {
        request.files.push_back(pick);
      }
    }
  }

  const std::size_t total = kCpwdWarmFiles + misses;
  const std::vector<InputFile> files =
      generate_logs(dir, "corpus", total, derive_seed(seed, 0xF11E),
                    [total](std::size_t i) {
                      return kCpwdMinJobs + (i * 7919 % total) * kCpwdJobSpread / total;
                    });
  const std::vector<std::string> paths = paths_of(files);

  analysis::BatchOptions warm;
  warm.cache_dir = dir + "/cache";
  const std::vector<std::string> warm_paths(paths.begin(),
                                            paths.begin() + kCpwdWarmFiles);
  (void)analysis::run_batch(std::span<const std::string>(warm_paths), warm);

  // Requests are independent batch runs, as in the daemon's executors;
  // serial ones are bit-identical and leave the pool to fan them out.
  analysis::BatchOptions reference;
  reference.cache_dir = dir + "/refcache";
  reference.parallel = false;
  parallel_for(
      requests.size(),
      [&](std::size_t i) {
        Request& request = requests[i];
        std::vector<std::string> named;
        for (std::size_t file : request.files) {
          named.push_back(paths[file]);
          request.jobs += files[file].jobs;
        }
        request.ref_fp = digest_fp(analysis::run_batch(
            std::span<const std::string>(named), reference));
      },
      1);
  write_requests(dir, requests);
  return files;
}

// ------------------------------------------------------------ batch runs

struct CallOutcome {
  double seconds = 0.0;
  std::uint64_t digest = 0;
  bool ok = false;
};

/// One timed run_batch call. A call fails when any log has no usable
/// analysis or a Co-plot over >= 3 logs did not run.
CallOutcome timed_call(const std::vector<std::string>& paths,
                       const analysis::BatchOptions& options) {
  const auto start = Clock::now();
  const analysis::BatchResult result =
      analysis::run_batch(std::span<const std::string>(paths), options);
  CallOutcome outcome;
  outcome.seconds = seconds_since(start);
  outcome.ok = result.logs.size() < 3 || result.coplot_run;
  for (const auto& log : result.diagnostics.logs) {
    if (!log.usable()) outcome.ok = false;
  }
  outcome.digest = digest_fp(result);
  return outcome;
}

struct CallSeries {
  std::vector<double> seconds;
  std::size_t failed = 0;
  std::size_t mismatched = 0;
};

/// Calls run_batch until `budget` seconds have passed, at least once per
/// corpus.
void call_until(Corpora& corpora, const analysis::BatchOptions& options,
                double budget, CallSeries& series) {
  const auto start = Clock::now();
  std::size_t calls = 0;
  while (calls < corpora.paths.size() || seconds_since(start) < budget) {
    const std::size_t corpus = corpora.next++ % corpora.paths.size();
    const CallOutcome outcome = timed_call(corpora.paths[corpus], options);
    std::uint64_t& first = corpora.digests[corpus];
    if (first == 0) first = outcome.digest;
    series.seconds.push_back(outcome.seconds);
    if (!outcome.ok) ++series.failed;
    if (outcome.digest != first) ++series.mismatched;
    ++calls;
  }
}

/// Serial replay of the batch pipeline's stages over `paths`, each stage
/// timed around its public entry point. Readers decode serially and SSA
/// restarts run serially, so the spans add up to the work a single core
/// would do. Totals accumulate over every spanned replay.
struct LayerTimes {
  double decode_s = 0.0;
  double decode_bytes = 0.0;
  double stream_s = 0.0;
  double characterize_s = 0.0;
  double series_s = 0.0;
  double rs_s = 0.0;
  double vt_s = 0.0;
  double pgram_s = 0.0;
  double wavelet_s = 0.0;
  double prepare_s = 0.0;
  double ssa_s = 0.0;
  double ssa_iterations = 0.0;
  double analyze_s = 0.0;
  double checksum = 0.0;  ///< keeps every result observable

  [[nodiscard]] double serial_sum() const {
    return decode_s + characterize_s + series_s + rs_s + vt_s + pgram_s +
           wavelet_s + analyze_s;
  }
};

/// Runs `body`; with spans on, also adds its wall time to `total`. A replay
/// with spans off makes the same calls and reads no clock, which is what
/// trace.overhead_ratio compares against.
template <typename F>
auto timed(bool spans, double& total, F&& body) {
  if (!spans) return body();
  const auto start = Clock::now();
  auto value = body();
  total += seconds_since(start);
  return value;
}

void replay_layers(const std::vector<InputFile>& files, bool stream_pass,
                   bool spans, LayerTimes& t) {
  swf::ReaderOptions reader;
  reader.parallel = false;
  const selfsim::HurstOptions hurst;
  std::vector<workload::WorkloadStats> stats;
  for (const InputFile& file : files) {
    const swf::Log log =
        timed(spans, t.decode_s, [&] { return swf::load_swf_fast(file.path, reader); });
    t.decode_bytes += static_cast<double>(file.bytes);
    if (stream_pass) {
      swf::StreamOptions options;
      options.reader.parallel = false;
      const swf::StreamResult streamed = timed(spans, t.stream_s, [&] {
        return swf::stream_swf(file.path, options, [](const swf::StreamWindow&) {});
      });
      t.checksum += static_cast<double>(streamed.total_jobs);
    }
    stats.push_back(
        timed(spans, t.characterize_s, [&] { return workload::characterize(log); }));
    for (workload::Attribute attribute : workload::all_attributes()) {
      std::vector<double> series;
      const selfsim::SeriesPrefix prefix = timed(spans, t.series_s, [&] {
        series = workload::attribute_series(log, attribute);
        return selfsim::SeriesPrefix(series);
      });
      if (series.size() < selfsim::kMinHurstLength) continue;
      t.checksum +=
          timed(spans, t.rs_s, [&] { return selfsim::hurst_rs(series, prefix, hurst); }).hurst;
      t.checksum += timed(spans, t.vt_s, [&] {
                      return selfsim::hurst_variance_time(series, prefix, hurst);
                    }).hurst;
      t.checksum += timed(spans, t.pgram_s, [&] {
                      return selfsim::hurst_periodogram(series, hurst);
                    }).hurst;
      t.checksum += timed(spans, t.wavelet_s, [&] {
                      return selfsim::hurst_wavelet(series, hurst);
                    }).hurst;
    }
  }

  const coplot::Dataset dataset =
      workload::make_dataset(stats, workload::WorkloadStats::all_codes());
  const Matrix dissimilarity = timed(spans, t.prepare_s, [&] {
    return coplot::city_block_with_missing(
        coplot::normalize_columns(dataset.values));
  });
  coplot::Options options;
  options.ssa.parallel_restarts = false;
  const mds::Embedding embedding =
      timed(spans, t.ssa_s, [&] { return mds::ssa(dissimilarity, options.ssa); });
  t.ssa_iterations += embedding.iterations;
  t.checksum += timed(spans, t.analyze_s, [&] {
                  return coplot::analyze(dataset, options);
                }).alienation;
}

/// The layer totals of `replays` spanned replays, per replay.
void put_layers(JsonObject& out, const LayerTimes& t, double replays) {
  const auto per = [&](const char* key, double total) {
    out.num(key, total / replays);
  };
  per("swf.decode_s", t.decode_s);
  per("swf.decode_bytes", t.decode_bytes);
  per("swf.stream_s", t.stream_s);
  per("workload.characterize_s", t.characterize_s);
  per("workload.attribute_series_s", t.series_s);
  per("selfsim.hurst_rs_s", t.rs_s);
  per("selfsim.hurst_vt_s", t.vt_s);
  per("selfsim.hurst_pgram_s", t.pgram_s);
  per("selfsim.hurst_wavelet_s", t.wavelet_s);
  per("coplot.prepare_s", t.prepare_s);
  per("mds.ssa_s", t.ssa_s);
  per("mds.ssa_iterations", t.ssa_iterations);
  per("coplot.analyze_s", t.analyze_s);
  per("analysis.serial_sum_s", t.serial_sum());
}

/// ingest_large and coplot_wide: repeated run_batch calls over the
/// workload's corpora. Traced runs spend half the budget on those calls,
/// between two dumps of the metrics registry (the program's own
/// cpw_stage_seconds deltas), and the other half on serial replays of the
/// first corpus in pairs, one replay with spans and one without, alternating
/// which goes first; at least one pair runs.
JsonObject run_batch_workload(const std::string& dir, std::size_t corpus_count,
                              double seconds, bool trace, bool windowed) {
  const std::vector<InputFile> files = read_manifest(dir);
  Corpora corpora = split_corpora(files, corpus_count);
  if (std::ifstream reference{dir + "/reference.txt"}) {
    std::string line;
    for (std::uint64_t& digest : corpora.digests) {
      if (std::getline(reference, line)) digest = std::stoull(line, nullptr, 16);
    }
  }
  analysis::BatchOptions options;
  if (windowed) options.ingest = analysis::IngestMode::kWindowed;

  JsonObject out;
  double jobs = 0.0;
  for (const InputFile& file : files) jobs += static_cast<double>(file.jobs);
  out.num("jobs_per_call", jobs / static_cast<double>(corpus_count));
  out.num("corpora", static_cast<double>(corpus_count));

  CallSeries calls;
  if (trace) write_registry(dir + "/metrics-before.prom");
  call_until(corpora, options, trace ? seconds / 2.0 : seconds, calls);
  if (trace) write_registry(dir + "/metrics-after.prom");
  out.list("op_s", calls.seconds);

  if (trace && !windowed) {
    const std::vector<InputFile> first(files.begin(),
                                       files.begin() + files.size() / corpus_count);
    LayerTimes spanned, bare;
    std::vector<double> bare_s, spanned_s;
    const auto start = Clock::now();
    do {
      const bool spans_first = spanned_s.size() % 2 == 1;
      for (const bool spans : {spans_first, !spans_first}) {
        const auto replay_start = Clock::now();
        replay_layers(first, /*stream_pass=*/true, spans, spans ? spanned : bare);
        (spans ? spanned_s : bare_s).push_back(seconds_since(replay_start));
      }
    } while (seconds_since(start) < seconds / 2.0);
    out.list("replay_s", bare_s);
    out.list("spanned_replay_s", spanned_s);
    put_layers(out, spanned, static_cast<double>(spanned_s.size()));
    out.num("replay_checksum", spanned.checksum + bare.checksum);
  }
  std::string digests;
  for (std::uint64_t digest : corpora.digests) {
    digests += (digests.empty() ? "" : ",") + hex64(digest);
  }
  out.num("calls", static_cast<double>(calls.seconds.size()));
  out.num("failed", static_cast<double>(calls.failed));
  out.num("mismatched", static_cast<double>(calls.mismatched));
  out.str("digest", digests);
  out.num("peak_rss_mb", peak_rss_mb());
  return out;
}

// ------------------------------------------------------------ cpwd_mixed

/// Client-side record of one request, seconds after the schedule start.
struct Outcome {
  double sent = -1.0;  ///< submit began
  double rtt = -1.0;   ///< submit_paths round trip, spanned requests only
  double done = -1.0;  ///< result digest in hand (or failure seen)
  int status = 0;      ///< 0 ok, 1 wrong digest, 2 failed, 3 refused
};

/// Open-loop schedule: a scheduler releases request i at its due time onto
/// a queue drained by one worker per tenant connection; each worker submits
/// and blocks in Client::wait, so a request that finds every connection
/// busy waits in the generator and that wait counts against it (latency
/// is timed from the due time). With `trace`, every odd request also times
/// its submit_paths round trip, so spanned and bare requests share the run.
std::vector<Outcome> drive(std::vector<serve::Client>& clients,
                           const std::vector<Request>& requests,
                           const std::vector<std::string>& paths, bool trace) {
  std::vector<Outcome> outcomes(requests.size());
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<std::size_t> due;  // guarded by mutex
  bool closed = false;          // guarded by mutex
  const auto start = Clock::now();

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < clients.size(); ++t) {
    workers.emplace_back([&, t] {
      serve::Client& client = clients[t];
      const std::string tenant = "tenant-" + std::to_string(t);
      for (;;) {
        std::size_t index = 0;
        {
          std::unique_lock<std::mutex> lock(mutex);
          ready.wait(lock, [&] { return closed || !due.empty(); });
          if (due.empty()) return;
          index = due.front();
          due.pop_front();
        }
        const Request& request = requests[index];
        Outcome& outcome = outcomes[index];
        std::vector<std::string> named;
        for (std::size_t file : request.files) named.push_back(paths[file]);
        outcome.sent = seconds_since(start);
        std::uint64_t id = 0;
        try {
          if (trace && index % 2 == 1) {
            const auto submit_start = Clock::now();
            id = client.submit_paths(tenant, named).id;
            outcome.rtt = seconds_since(submit_start);
          } else {
            id = client.submit_paths(tenant, named).id;
          }
        } catch (const std::exception&) {
          outcome.status = 3;
          outcome.done = seconds_since(start);
          continue;
        }
        try {
          const serve::RequestReport report = client.wait(id, kCpwdWaitSeconds);
          outcome.done = seconds_since(start);
          if (report.status != serve::RequestStatus::kDone) {
            outcome.status = 2;
          } else if (fingerprint_bytes(report.digest) != request.ref_fp) {
            outcome.status = 1;
          }
        } catch (const std::exception&) {
          outcome.status = 2;
          outcome.done = seconds_since(start);
        }
      }
    });
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(requests[i].due)));
    {
      const std::lock_guard<std::mutex> lock(mutex);
      due.push_back(i);
    }
    ready.notify_one();
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    closed = true;
  }
  ready.notify_all();
  for (std::thread& worker : workers) worker.join();
  return outcomes;
}

void put_outcomes(JsonObject& out, const std::vector<Request>& requests,
                  const std::vector<Outcome>& outcomes) {
  std::vector<double> due, sent, rtt, done, status, jobs, miss;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Request& request = requests[i];
    due.push_back(request.due);
    sent.push_back(outcomes[i].sent);
    rtt.push_back(outcomes[i].rtt);
    done.push_back(outcomes[i].done);
    status.push_back(outcomes[i].status);
    jobs.push_back(static_cast<double>(request.jobs));
    miss.push_back(request.miss ? 1.0 : 0.0);
  }
  out.list("due", due);
  out.list("sent", sent);
  out.list("rtt", rtt);
  out.list("done", done);
  out.list("status", status);
  out.list("jobs", jobs);
  out.list("miss", miss);
}

/// Times AnalysisCache lookups of every entry the daemon left behind, and
/// stores of fresh keys, against the directory at its end-of-run size.
void time_cache(const std::string& dir, JsonObject& out) {
  std::vector<cache::CacheKey> keys;
  for (const auto& entry : fs::directory_iterator(dir)) {
    cache::CacheKey key;
    if (std::sscanf(entry.path().filename().c_str(), "%16" SCNx64 "-%16" SCNx64,
                    &key.content, &key.options) == 2) {
      keys.push_back(key);
    }
  }
  cache::CacheOptions options;
  options.dir = dir;
  cache::AnalysisCache cache(options);
  std::vector<double> lookups, stores;
  std::optional<cache::CachedAnalysis> sample;
  for (const cache::CacheKey& key : keys) {
    const auto start = Clock::now();
    auto hit = cache.lookup(key);
    lookups.push_back(seconds_since(start));
    if (hit && !sample) sample = std::move(hit);
  }
  if (sample) {
    for (std::uint64_t i = 0; i < kCacheStores; ++i) {
      const cache::CacheKey key{fingerprint_bytes("perfbench-store-" +
                                                  std::to_string(i)),
                                keys.front().options};
      const auto start = Clock::now();
      cache.store(key, *sample);
      stores.push_back(seconds_since(start));
    }
  }
  out.num("cache_entries", static_cast<double>(keys.size()));
  out.list("cache_lookup_s", lookups);
  out.list("cache_store_s", stores);
}

JsonObject run_cpwd(const std::string& dir, const std::string& socket,
                    bool trace) {
  const std::vector<std::string> paths = paths_of(read_manifest(dir));
  const std::vector<Request> requests = read_requests(dir);
  std::vector<serve::Client> clients;
  for (std::size_t t = 0; t < kCpwdTenants; ++t) {
    clients.push_back(serve::Client::connect_unix(socket));
  }
  JsonObject out;
  out.num("tenants", static_cast<double>(kCpwdTenants));
  out.num("rate", kCpwdRate);
  // Traced runs scrape the daemon's /metrics registry before and after the
  // schedule.
  if (trace) write_file(dir + "/metrics-before.prom", clients[0].metrics());
  put_outcomes(out, requests, drive(clients, requests, paths, trace));
  if (trace) {
    write_file(dir + "/metrics-after.prom", clients[0].metrics());
    time_cache(dir + "/cache", out);
  }
  return out;
}

// ------------------------------------------------------------ stream_drift

struct PassResult {
  double wall = 0.0;
  std::vector<std::pair<std::uint64_t, std::string>> events;
};

/// Feeds every job through a fresh OnlineCharacterizer (1000-job tumbling
/// windows) and each closed window into a fresh TrajectoryTracker. The
/// verdict latency of a window runs from feeding its last job until
/// TrajectoryTracker::add returns. Traced passes also keep its two parts
/// (window close, tracker add) and time the adds that close no window in
/// blocks, so clocks are read only at window boundaries.
struct StreamTimes {
  std::vector<double> verdict_s;
  std::vector<double> window_s;  ///< one whole window: its adds + verdict
  std::vector<double> close_s;
  std::vector<double> trajectory_s;
  double block_add_s = 0.0;
  double block_jobs = 0.0;
};

PassResult stream_pass(const swf::Log& log, bool traced, StreamTimes& times) {
  online::OnlineOptions options;
  options.window_jobs = kWindowJobs;
  const double machine = static_cast<double>(log.max_processors());
  if (machine > 0.0) options.stats.machine_processors = machine;
  online::OnlineCharacterizer characterizer(log.name(), options);
  online::TrajectoryTracker tracker;
  PassResult pass;

  const auto start = Clock::now();
  auto window_start = start;
  std::size_t fed = 0;
  for (const swf::Job& job : log.jobs()) {
    // Tumbling windows close on exactly every kWindowJobs-th job.
    if (++fed % kWindowJobs != 0) {
      characterizer.add(job);
      continue;
    }
    const auto close_start = Clock::now();
    characterizer.add(job);
    const std::optional<online::WindowStats> window = characterizer.poll();
    const auto closed = traced ? Clock::now() : close_start;
    if (window) {
      for (const online::DriftEvent& event :
           tracker.add(log.name(), window->index, window->window)) {
        pass.events.emplace_back(event.window, event.kind);
      }
    }
    const auto added = Clock::now();
    times.verdict_s.push_back(
        std::chrono::duration<double>(added - close_start).count());
    times.window_s.push_back(
        std::chrono::duration<double>(added - window_start).count());
    if (traced) {
      times.block_add_s +=
          std::chrono::duration<double>(close_start - window_start).count();
      times.block_jobs += static_cast<double>(kWindowJobs - 1);
      times.close_s.push_back(
          std::chrono::duration<double>(closed - close_start).count());
      times.trajectory_s.push_back(
          std::chrono::duration<double>(added - closed).count());
    }
    window_start = added;
  }
  pass.wall = seconds_since(start);
  return pass;
}

JsonObject run_stream(const std::string& dir, double seconds, bool trace) {
  const std::vector<InputFile> files = read_manifest(dir);
  // The decode belongs to set-up; repeated so run.py can take a median.
  std::vector<double> decode_s;
  std::optional<swf::Log> log;
  for (int i = 0; i < kDecodeRepeats; ++i) {
    const auto start = Clock::now();
    log.emplace(swf::load_swf_fast(files.front().path));
    decode_s.push_back(seconds_since(start));
  }

  JsonObject out;
  out.list("setup_decode_s", decode_s);
  // Traced runs alternate bare and spanned passes, between two dumps of the
  // metrics registry; at least one of each runs.
  std::vector<PassResult> passes;
  StreamTimes bare, spanned;
  if (trace) write_registry(dir + "/metrics-before.prom");
  const auto start = Clock::now();
  do {
    const bool traced_pass = trace && passes.size() % 2 == 1;
    passes.push_back(stream_pass(*log, traced_pass, traced_pass ? spanned : bare));
  } while (seconds_since(start) + passes.back().wall <= seconds ||
           (trace && passes.size() < 2));
  if (trace) {
    write_registry(dir + "/metrics-after.prom");
    out.list("traced_window_s", spanned.window_s);
    out.list("traced_close_s", spanned.close_s);
    out.list("traced_trajectory_s", spanned.trajectory_s);
    out.num("traced_add_ns_per_job", spanned.block_add_s * 1e9 / spanned.block_jobs);
  }

  // Correctness: every pass raises its first jump in the switch window,
  // none before it, and the same event sequence as the first pass.
  std::size_t failed = 0, pre_switch_jumps = 0;
  for (const PassResult& pass : passes) {
    bool switch_jump = false;
    std::size_t early = 0;
    for (const auto& [window, kind] : pass.events) {
      if (kind != "jump") continue;
      if (window == kSwitchWindow) switch_jump = true;
      if (window < kSwitchWindow) ++early;
    }
    if (&pass == &passes.front()) pre_switch_jumps = early;
    if (!switch_jump || early > 0 || pass.events != passes.front().events) {
      ++failed;
    }
  }
  std::vector<double> event_windows;
  for (const auto& event : passes.front().events) {
    event_windows.push_back(static_cast<double>(event.first));
  }
  out.list("verdict_s", bare.verdict_s);
  out.list("window_s", bare.window_s);
  out.num("window_jobs", static_cast<double>(kWindowJobs));
  out.num("passes", static_cast<double>(passes.size()));
  out.num("failed_passes", static_cast<double>(failed));
  out.num("drift_events", static_cast<double>(passes.front().events.size()));
  out.list("event_windows", event_windows);
  out.num("pre_switch_jumps", static_cast<double>(pre_switch_jumps));
  out.num("switch_window", static_cast<double>(kSwitchWindow));
  out.num("peak_rss_mb", peak_rss_mb());
  return out;
}

// ------------------------------------------------------------ main

struct Args {
  std::string command;
  std::string workload;
  std::string dir;
  std::string socket;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool windowed = false;
};

Args parse_args(int argc, char** argv) {
  if (argc < 3) usage("missing command or workload");
  Args args;
  args.command = argv[1];
  args.workload = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--dir") {
      args.dir = value();
    } else if (arg == "--seed") {
      args.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      args.seconds = std::stod(value());
    } else if (arg == "--socket") {
      args.socket = value();
    } else if (arg == "--trace") {
      args.trace = true;
    } else if (arg == "--windowed") {
      args.windowed = true;
    } else {
      usage("unknown flag " + arg);
    }
  }
  if (args.dir.empty()) usage("--dir is required");
  args.dir = fs::absolute(args.dir).string();
  return args;
}

JsonObject setup(const Args& args) {
  fs::create_directories(args.dir);
  std::vector<InputFile> files;
  if (args.workload == "ingest_large") {
    files = setup_ingest(args.dir, args.seed);
  } else if (args.workload == "coplot_wide") {
    files = setup_wide(args.dir, args.seed);
  } else if (args.workload == "cpwd_mixed") {
    files = setup_cpwd(args.dir, args.seed, args.seconds);
  } else if (args.workload == "stream_drift") {
    files = setup_stream(args.dir, args.seed);
  } else {
    usage("unknown workload " + args.workload);
  }
  write_manifest(args.dir, files);
  JsonObject out;
  double jobs = 0.0, bytes = 0.0;
  for (const InputFile& file : files) {
    jobs += static_cast<double>(file.jobs);
    bytes += static_cast<double>(file.bytes);
  }
  out.num("files", static_cast<double>(files.size()));
  out.num("jobs", jobs);
  out.num("bytes", bytes);
  return out;
}

JsonObject run(const Args& args) {
  JsonObject out;
  if (args.workload == "ingest_large" || args.workload == "coplot_wide") {
    const std::size_t corpora = args.workload == "coplot_wide" ? kWideCorpora : 1;
    out = run_batch_workload(args.dir, corpora, args.seconds, args.trace,
                             args.windowed);
  } else if (args.workload == "cpwd_mixed") {
    if (args.socket.empty()) usage("cpwd_mixed needs --socket");
    out = run_cpwd(args.dir, args.socket, args.trace);
  } else if (args.workload == "stream_drift") {
    out = run_stream(args.dir, args.seconds, args.trace);
  } else {
    usage("unknown workload " + args.workload);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    JsonObject out;
    if (args.command == "setup") {
      out = setup(args);
    } else if (args.command == "run") {
      out = run(args);
    } else {
      usage("unknown command " + args.command);
    }
    out.str("simd", simd_path());
    out.num("nproc", static_cast<double>(std::thread::hardware_concurrency()));
    out.str("build_type", PERFBENCH_BUILD_TYPE);
    std::printf("%s\n", out.text().c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
