// common.hpp — clocks, raw-sample percentiles, spans and the result report
// shared by the end-to-end workloads.
//
// Everything here lives outside the library on purpose: spans are recorded
// around calls INTO the library's public functions, so the library itself
// carries no benchmark instrumentation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/perf_counters.hpp"

namespace e2e {

/// Monotonic clock in nanoseconds (std::chrono::steady_clock).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// CPU time of this process, all threads, in nanoseconds
/// (CLOCK_PROCESS_CPUTIME_ID). With paravirtual steal accounting, as on a
/// KVM guest, time the hypervisor steals from a running thread is not
/// charged to it.
[[nodiscard]] std::uint64_t cpu_ns() noexcept;

/// The host's current speed: a fixed reference loop (xorshift fill and
/// sort of 16Ki integers, 60 rounds; no library code) run on `threads`
/// threads at once, returning the median per-thread CPU seconds. On a
/// shared host, CPU time per unit of work still moves with what the
/// neighbours do (shared cores, caches, clock); scaling a measured rate by
/// calibrate() / kCalibrationRefS cancels much of that drift on the sweeps
/// and part of it on serving (see README.md, Measurements).
[[nodiscard]] double calibrate(std::size_t threads);
/// calibrate(4) on the reference host: a 4-vCPU KVM guest on an Intel Xeon
/// at 2.1 GHz, median over a quiet period.
inline constexpr double kCalibrationRefS = 0.085;

/// Wall and process CPU time of one timed step.
struct Timing {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Command-line settings of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Child mode of a traced sweep: the same sweep on a one-thread pool.
  bool serial_child = false;
  /// Print the generated inputs (family or trace) and exit.
  bool emit_inputs = false;
  /// Scratch directory for checkpoints, sinks and span dumps.
  std::string run_dir;
  std::size_t threads = 1;
};

/// A percentile taken from raw samples by nearest rank. When fewer than ten
/// samples lie beyond the requested rank, the highest rank that still has
/// ten beyond it is used instead and `rank` says which one that was.
struct Percentile {
  double value = 0.0;
  double rank = 0.0;  ///< the percentile actually reported, in [0, 1]
  std::size_t count = 0;
};
[[nodiscard]] Percentile percentile(std::vector<double> samples, double p);
[[nodiscard]] double median(std::vector<double> samples);
[[nodiscard]] double mean(const std::vector<double>& samples);
/// (third quartile − first quartile) / median, Python statistics.quantiles
/// "exclusive" method; 0 for fewer than two samples.
[[nodiscard]] double iqr_share(std::vector<double> samples);

/// Drop every process-wide library cache, so each repetition starts from
/// the state a fresh tool process has.
void clear_library_caches();

/// Host CPU time stolen from this virtual machine (hypervisor steal) as a
/// share of all CPU time since `since`, from /proc/stat; the first call
/// returns the counters to pass back. Context for run-to-run noise only.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};
[[nodiscard]] CpuTicks cpu_ticks();
[[nodiscard]] double steal_share(const CpuTicks& since);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// FNV-1a over a byte string (input and output digests).
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t hash = 1469598103934665603ULL);
[[nodiscard]] std::string hex64(std::uint64_t value);

/// Single-thread span recorder for the feeder thread. Spans carry a name,
/// start, end and parent; they are kept in memory and written out once at
/// the end of the run. Disabled recorders cost one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_;
  };

  [[nodiscard]] Scope span(const char* name) { return Scope(*this, name); }

  /// Drop every span recorded after mark(); call with no span open.
  [[nodiscard]] std::size_t mark() const { return spans_.size(); }
  void rollback(std::size_t mark) { spans_.resize(mark); }

  /// One row of the self-time table.
  struct SelfRow {
    std::string name;
    double self_ms = 0.0;
    std::size_t count = 0;
  };
  /// Self time per span name (span minus its children). Root spans'
  /// own self time is reported as "other", so the rows sum to the wall
  /// time covered by root spans.
  [[nodiscard]] std::vector<SelfRow> self_times() const;
  /// Mean duration (inclusive) of the spans with this name, in ms.
  [[nodiscard]] double mean_ms(std::string_view name) const;
  /// Write every span as one JSON line.
  void write_jsonl(const std::string& path) const;

 private:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
  struct Span {
    const char* name;
    std::size_t parent;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

class Report;
/// Add the self-time table of `tracer` to the report's notes: one row per
/// span name, plus "other" = `wall_ms` (measured independently of the
/// spans) minus every named self time, flagged above a 5% tolerance.
/// Returns other / wall.
double self_time_table(const Tracer& tracer, double wall_ms, Report& report);

/// Counter activity between two snapshots, as the per-task ratios the
/// per-layer report uses. `tasks` is the number of canonical solves.
struct CounterRatios {
  double pieces_per_task = 0.0;
  double sig_probes_per_task = 0.0;
  double dinkelbach_iters_per_task = 0.0;
  double ring_kernel_evals_per_task = 0.0;
  double warm_hit_ratio = 0.0;
  double bigint_fast_ratio = 0.0;
  double slow_ops_per_task = 0.0;
  double filter_hit_ratio = 0.0;
  double steal_share = 0.0;
};
[[nodiscard]] CounterRatios counter_ratios(
    const ringshare::util::PerfSnapshot& delta, double tasks);

/// The metrics one run reports, plus notes for the human-readable table.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  void note(const std::string& line) { notes_.push_back(line); }
  void fail(const std::string& why);
  void attempted(std::size_t n) { attempted_ += n; }
  void failed(std::size_t n) { failed_ += n; }
  [[nodiscard]] bool correct() const { return failed_ == 0 && !broken_; }

  /// Human-readable table and notes on stderr.
  void print_table(const std::string& title) const;
  /// The one-line JSON result on stdout, restricted to `keys` (every key
  /// must have been set).
  void print_result(const std::vector<std::string>& keys) const;

 private:
  struct Value {
    double value;
    std::string unit;
    std::string note;
  };
  std::map<std::string, Value> values_;
  std::vector<std::string> order_;
  std::vector<std::string> notes_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool broken_ = false;
};

/// The metric names BENCHMARK.json declares, in declaration order.
[[nodiscard]] const std::vector<std::string>& end_to_end_keys();
[[nodiscard]] const std::vector<std::string>& per_layer_keys();

int run_sweep(const Options& options);
int run_serve(const Options& options);

}  // namespace e2e
