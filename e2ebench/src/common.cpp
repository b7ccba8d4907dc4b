#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <thread>

#include "bd/memo.hpp"
#include "game/piece_solver.hpp"

namespace e2e {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t cpu_ns() noexcept {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<std::uint64_t>(t.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(t.tv_nsec);
}

double calibrate(std::size_t threads) {
  std::vector<double> cpu(threads, 0.0);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t)
    workers.emplace_back([&cpu, t] {
      timespec begin{}, end{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &begin);
      std::uint64_t x = 88172645463325252ULL + t;
      std::vector<std::uint32_t> v(16384);
      std::uint64_t checksum = 0;
      for (int round = 0; round < 60; ++round) {
        for (std::uint32_t& e : v) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          e = static_cast<std::uint32_t>(x);
        }
        std::sort(v.begin(), v.end());
        checksum += v[v.size() / 2];
      }
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &end);
      // The checksum keeps the loop from being optimised away.
      cpu[t] = static_cast<double>(end.tv_sec - begin.tv_sec) +
               static_cast<double>(end.tv_nsec - begin.tv_nsec) / 1e9 +
               static_cast<double>(checksum & 1) * 1e-12;
    });
  for (std::thread& w : workers) w.join();
  return median(cpu);
}

Percentile percentile(std::vector<double> samples, double p) {
  Percentile out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Nearest rank: the smallest sample with at least p·n samples at or
  // below it.
  std::size_t index = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n)));
  index = index == 0 ? 0 : index - 1;
  // At least ten samples must lie beyond the reported one.
  if (n >= 11 && n - 1 - index < 10) index = n - 11;
  if (n < 11) index = std::min(index, n / 2);
  out.value = samples[index];
  out.rank = static_cast<double>(index + 1) / static_cast<double>(n);
  return out;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double iqr_share(std::vector<double> samples) {
  const std::size_t n = samples.size();
  if (n < 2) return 0.0;
  std::sort(samples.begin(), samples.end());
  // statistics.quantiles(n=4, method="exclusive"): position j·(n+1)/4.
  auto quantile = [&](int j) {
    const double pos = j * static_cast<double>(n + 1) / 4.0;
    const double clamped = std::clamp(pos, 1.0, static_cast<double>(n));
    const std::size_t lo = static_cast<std::size_t>(std::floor(clamped));
    const double frac = clamped - static_cast<double>(lo);
    const double a = samples[lo - 1];
    const double b = samples[std::min(lo, n - 1)];
    return a + (b - a) * frac;
  };
  const double m = median(samples);
  return m == 0.0 ? 0.0 : (quantile(3) - quantile(1)) / m;
}

void clear_library_caches() {
  ringshare::bd::BottleneckCache::instance().clear();
  ringshare::bd::DecompositionCache::instance().clear();
  ringshare::game::PartitionMemo::instance().clear();
}

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks ticks;
  double value = 0.0;
  for (int field = 0; field < 8 && in >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double steal_share(const CpuTicks& since) {
  const CpuTicks now = cpu_ticks();
  const double total = now.total - since.total;
  return total > 0 ? (now.steal - since.steal) / total : 0.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

// ---------------------------------------------------------------- Tracer

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(&tracer), index_(kNoParent) {
  if (!tracer.enabled_) return;
  index_ = tracer.spans_.size();
  const std::size_t parent =
      tracer.open_.empty() ? kNoParent : tracer.open_.back();
  tracer.spans_.push_back(Span{name, parent, now_ns(), 0});
  tracer.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ == kNoParent) return;
  tracer_->spans_[index_].end_ns = now_ns();
  tracer_->open_.pop_back();
}

std::vector<Tracer::SelfRow> Tracer::self_times() const {
  // Children of one parent run one after another on this thread, so the
  // part of a span its children cover is the sum of their durations.
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_)
    if (span.parent != kNoParent)
      child_ns[span.parent] += static_cast<double>(span.end_ns - span.start_ns);
  std::map<std::string, SelfRow> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double self =
        static_cast<double>(span.end_ns - span.start_ns) - child_ns[i];
    SelfRow& row = rows[span.parent == kNoParent ? "other" : span.name];
    row.name = span.parent == kNoParent ? "other" : span.name;
    row.self_ms += self / 1e6;
    ++row.count;
  }
  std::vector<SelfRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  return out;
}

double Tracer::mean_ms(std::string_view name) const {
  std::vector<double> durations;
  for (const Span& span : spans_)
    if (name == span.name)
      durations.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
  return mean(durations);
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\": " << i << ", \"parent\": "
        << (span.parent == kNoParent ? std::string("null")
                                     : std::to_string(span.parent))
        << ", \"name\": \"" << span.name << "\", \"start_ns\": "
        << span.start_ns << ", \"end_ns\": " << span.end_ns << "}\n";
  }
}

double self_time_table(const Tracer& tracer, double wall_ms, Report& report) {
  constexpr double kOtherTolerance = 0.05;
  char line[160];
  std::snprintf(line, sizeof line, "self time over %.3f ms of traced wall:",
                wall_ms);
  report.note(line);
  double named = 0.0;
  for (const Tracer::SelfRow& row : tracer.self_times()) {
    if (row.name == "other") continue;
    named += row.self_ms;
    std::snprintf(line, sizeof line, "  %-24s %12.3f ms %7.2f%%  (%zu spans)",
                  row.name.c_str(), row.self_ms, 100.0 * row.self_ms / wall_ms,
                  row.count);
    report.note(line);
  }
  const double other = wall_ms - named;
  std::snprintf(line, sizeof line, "  %-24s %12.3f ms %7.2f%%  (tolerance %.0f%%)",
                "other", other, 100.0 * other / wall_ms, 100.0 * kOtherTolerance);
  report.note(line);
  if (other / wall_ms > kOtherTolerance)
    report.note("WARNING: named spans leave more than the tolerance of wall "
                "time unattributed");
  return other / wall_ms;
}

// -------------------------------------------------------------- counters

CounterRatios counter_ratios(const ringshare::util::PerfSnapshot& d,
                             double tasks) {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  CounterRatios r;
  r.pieces_per_task = ratio(u(d.piece_solver_pieces), tasks);
  r.sig_probes_per_task =
      ratio(u(d.sig_oracle_hits + d.sig_oracle_fallbacks), tasks);
  r.dinkelbach_iters_per_task = ratio(u(d.dinkelbach_iterations), tasks);
  r.ring_kernel_evals_per_task = ratio(u(d.ring_kernel_evals), tasks);
  r.warm_hit_ratio = ratio(u(d.dinkelbach_warm_hits),
                           u(d.dinkelbach_warm_hits + d.dinkelbach_warm_restarts));
  r.bigint_fast_ratio = d.bigint_fast_ratio();
  r.slow_ops_per_task = ratio(u(d.bigint_slow_ops), tasks);
  r.filter_hit_ratio =
      ratio(u(d.filter_hits), u(d.filter_hits + d.filter_fallbacks));
  r.steal_share = ratio(u(d.pool_tasks_stolen),
                        u(d.pool_tasks_stolen + d.pool_tasks_local));
  return r;
}

// ---------------------------------------------------------------- Report

void Report::set(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  if (!values_.count(name)) order_.push_back(name);
  values_[name] = Value{value, unit, note};
}

void Report::fail(const std::string& why) {
  broken_ = true;
  notes_.push_back("FAILED: " + why);
}

void Report::print_table(const std::string& title) const {
  std::fprintf(stderr, "== %s\n", title.c_str());
  for (const std::string& name : order_) {
    const Value& v = values_.at(name);
    std::fprintf(stderr, "  %-36s %14.6g %-6s %s\n", name.c_str(), v.value,
                 v.unit.c_str(), v.note.c_str());
  }
  for (const std::string& line : notes_)
    std::fprintf(stderr, "  %s\n", line.c_str());
  const double failed_share =
      attempted_ ? static_cast<double>(failed_) / attempted_ : 0.0;
  std::fprintf(stderr, "  %-36s %14.6g %-6s (%zu of %zu outputs)\n",
               "failed_share", failed_share, "share", failed_, attempted_);
}

void Report::print_result(const std::vector<std::string>& keys) const {
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::size_t>(attempted_, 1));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const std::string& key : keys) {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "internal error: metric %s not set\n", key.c_str());
      std::exit(3);
    }
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", it->second.value);
    json += (first ? "\"" : ", \"") + key + "\": {\"value\": " + number +
            ", \"unit\": \"" + it->second.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

const std::vector<std::string>& end_to_end_keys() {
  static const std::vector<std::string> keys = {
      "ops_per_ref_cpu_s", "setup_s", "peak_rss_mb"};
  return keys;
}

const std::vector<std::string>& per_layer_keys() {
  static const std::vector<std::string> keys = {
      "engine.seq_hold_ms.p50",
      "engine.seq_hold_ms.p99",
      "engine.seq_hold_share.tail",
      "engine.submit_us.p50",
      "engine.submit_us.p99",
      "engine.ready_ms.p50",
      "engine.ready_ms.p99",
      "engine.queue_wait_ms",
      "engine.solve_ms",
      "engine.canonicalize_us",
      "engine.parse_us",
      "engine.update_us",
      "engine.cache_share",
      "engine.dedup_share",
      "engine.solve_share",
      "engine.shard_imbalance",
      "engine.backlog_max",
      "gen.late_ms.max",
      "exp.coalesced_share",
      "exp.serial_ops_per_s",
      "util.parallel_efficiency",
      "util.steal_share",
      "wall.ops_per_s",
      "wall.latency_p50_ms",
      "wall.latency_p99_ms",
      "host.steal_share",
      "game.partition_self_ms",
      "game.piece_self_ms",
      "game.pieces_per_task",
      "game.breakpoints_bracketed_per_task",
      "game.sig_probes_per_task",
      "bd.dinkelbach_iters_per_task",
      "bd.ring_kernel_evals_per_task",
      "bd.warm_hit_ratio",
      "numeric.bigint_fast_ratio",
      "numeric.slow_ops_per_task",
      "numeric.filter_hit_ratio",
      "trace.other_share",
      "trace.overhead_share",
  };
  return keys;
}

}  // namespace e2e
