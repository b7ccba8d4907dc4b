// sweep.cpp — the certification-sweep workloads (sweep_small, sweep_wide).
//
// Drives exp::run_sweep_driver, the call ringshare_sweep makes, over a
// seeded random ring family with every deviation kind. The driver streams
// its JSONL checkpoint into a FIFO that this file reads on its own thread,
// stamping each record as it arrives: that arrival time is the "time to a
// checkpointed result" a sweep user sees, and the records themselves are
// checked byte for byte against untimed engine::DeviationEngine::solve
// calls. Each repetition clears the library caches first, so it starts
// from the state a fresh ringshare_sweep process has.
#include <fcntl.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "engine/deviation_engine.hpp"
#include "engine/wire.hpp"
#include "exp/sweep_driver.hpp"
#include "replica.hpp"
#include "util/parallel.hpp"
#include "util/threadpool.hpp"

extern char** environ;

namespace e2e {

namespace rs = ringshare;
using rs::game::DeviationKind;
using rs::graph::Graph;

namespace {

constexpr std::size_t kInstances = 200;
constexpr std::size_t kRingSize = 8;
constexpr int kSetupsPerRep = 10;
constexpr int kMinReps = 5;
/// The traced replica runs the tasks of the family's first rings only (the
/// family is random, so this is a seeded sample) to stay within the run.
constexpr std::size_t kReplicaInstances = 16;

const std::vector<DeviationKind> kKinds = {
    DeviationKind::kSybil, DeviationKind::kMisreport, DeviationKind::kCollusion};

rs::exp::FamilySpec family_spec(const Options& options, std::uint64_t seed) {
  rs::exp::FamilySpec spec;
  spec.family = "random";
  spec.count = kInstances;
  spec.n = kRingSize;
  spec.seed = seed;
  // sweep_small keeps every product in the int64 fast tier; sweep_wide's
  // weights push most of them into the BigInt slow tier.
  spec.max_weight = options.workload == "sweep_wide" ? 1'000'000'000 : 10;
  return spec;
}

std::string family_text(const std::vector<Graph>& rings) {
  std::string text;
  for (const Graph& ring : rings) {
    for (rs::graph::Vertex v = 0; v < ring.vertex_count(); ++v)
      text += (v ? " " : "") + ring.weight(v).to_string();
    text += '\n';
  }
  return text;
}

/// Every task of the sweep, in the driver's enumeration order, with the
/// checkpoint line an untimed direct solve gives for it.
struct Reference {
  struct Task {
    std::size_t instance = 0;
    rs::game::DeviationTask task;
    std::string line;
  };
  std::vector<Task> tasks;
  std::unordered_map<std::string, std::size_t> by_key;
  rs::num::Rational worst_sybil;
  std::uint64_t digest = 0;  ///< over the sorted lines
};

std::uint64_t sorted_digest(std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end());
  std::uint64_t hash = fnv1a("");
  for (const std::string& line : lines) hash = fnv1a(line + "\n", hash);
  return hash;
}

Reference make_reference(const std::vector<Graph>& rings) {
  Reference ref;
  for (std::size_t i = 0; i < rings.size(); ++i)
    for (const DeviationKind kind : kKinds)
      for (const rs::game::DeviationTask& task :
           rs::game::deviation_tasks(rings[i], kind)) {
        ref.by_key.emplace(rs::engine::format_task_key(i, task),
                           ref.tasks.size());
        ref.tasks.push_back(Reference::Task{i, task, {}});
      }
  std::vector<rs::num::Rational> ratios(ref.tasks.size());
  const rs::engine::DeviationEngine engine;
  rs::util::parallel_for(
      0, ref.tasks.size(),
      [&](std::size_t k) {
        Reference::Task& t = ref.tasks[k];
        const rs::game::DeviationOptimum opt =
            engine.solve(rings[t.instance], t.task);
        t.line = "{" + rs::engine::format_record_fields(t.instance, opt) + "}";
        ratios[k] = opt.ratio;
      },
      1, nullptr, 1);
  std::vector<std::string> lines;
  for (std::size_t k = 0; k < ref.tasks.size(); ++k) {
    lines.push_back(ref.tasks[k].line);
    if (ref.tasks[k].task.kind == DeviationKind::kSybil &&
        ref.worst_sybil < ratios[k])
      ref.worst_sybil = ratios[k];
  }
  ref.digest = sorted_digest(std::move(lines));
  return ref;
}

/// Reads a FIFO on its own thread and stamps every line on arrival. A
/// second write end is held open until finish(), so the reader sees end of
/// file only after the sweep driver has closed its checkpoint.
class CheckpointTap {
 public:
  struct Arrival {
    std::uint64_t ns;
    std::string line;
  };

  explicit CheckpointTap(std::string path) : path_(std::move(path)) {
    ::unlink(path_.c_str());
    if (::mkfifo(path_.c_str(), 0600) != 0)
      throw std::runtime_error("cannot create FIFO " + path_);
    read_fd_ = ::open(path_.c_str(), O_RDONLY | O_NONBLOCK);
    if (read_fd_ < 0) throw std::runtime_error("cannot open FIFO " + path_);
    ::fcntl(read_fd_, F_SETFL, ::fcntl(read_fd_, F_GETFL) & ~O_NONBLOCK);
    keep_fd_ = ::open(path_.c_str(), O_WRONLY);
    if (keep_fd_ < 0) {
      ::close(read_fd_);
      throw std::runtime_error("cannot open FIFO " + path_);
    }
    reader_ = std::thread([this] { read_loop(); });
  }

  ~CheckpointTap() {
    close_writer();
    if (reader_.joinable()) reader_.join();
    ::close(read_fd_);
    ::unlink(path_.c_str());
  }

  CheckpointTap(const CheckpointTap&) = delete;
  CheckpointTap& operator=(const CheckpointTap&) = delete;

  /// Wait for end of file and hand over every stamped line.
  std::vector<Arrival> finish() {
    close_writer();
    reader_.join();
    if (failed_) throw std::runtime_error("checkpoint reader failed");
    return std::move(arrivals_);
  }

 private:
  void close_writer() {
    if (keep_fd_ >= 0) ::close(keep_fd_);
    keep_fd_ = -1;
  }

  /// Reads to end of file. After a failure it keeps draining, so the
  /// writer never blocks on a full pipe, and finish() reports it.
  void read_loop() {
    char buffer[1 << 16];
    std::string partial;
    for (;;) {
      const ssize_t got = ::read(read_fd_, buffer, sizeof buffer);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      if (failed_) continue;
      try {
        const std::uint64_t stamp = now_ns();
        partial.append(buffer, static_cast<std::size_t>(got));
        std::size_t begin = 0;
        for (std::size_t end = partial.find('\n'); end != std::string::npos;
             end = partial.find('\n', begin)) {
          arrivals_.push_back(
              Arrival{stamp, partial.substr(begin, end - begin)});
          begin = end + 1;
        }
        partial.erase(0, begin);
      } catch (const std::exception&) {
        failed_ = true;
      }
    }
  }

  std::string path_;
  int read_fd_ = -1;
  int keep_fd_ = -1;
  std::vector<Arrival> arrivals_;
  bool failed_ = false;  ///< written by the reader, read after join()
  std::thread reader_;
};

/// Failures among one repetition's checkpoint lines: wrong, duplicated or
/// missing records.
std::size_t check_lines(const Reference& ref,
                        const std::vector<std::string>& lines) {
  std::vector<char> seen(ref.tasks.size(), 0);
  std::size_t failed = 0;
  for (const std::string& line : lines) {
    const auto key = rs::engine::json_string_field(line, "task");
    const auto it = key ? ref.by_key.find(*key) : ref.by_key.end();
    if (it == ref.by_key.end() || seen[it->second] ||
        line != ref.tasks[it->second].line) {
      ++failed;
      continue;
    }
    seen[it->second] = 1;
  }
  return failed + static_cast<std::size_t>(
                      std::count(seen.begin(), seen.end(), 0));
}

/// Set-up as a fresh ringshare_sweep process pays it: expand the family
/// spec and start a pool of the configured size (warmed with one task per
/// worker). The global pool cannot be restarted, so a fresh pool of the
/// same size stands in for it.
Timing setup_seconds(const rs::exp::FamilySpec& spec, std::size_t threads) {
  const std::uint64_t cpu_start = cpu_ns();
  const std::uint64_t start = now_ns();
  const std::vector<Graph> rings = spec.build();
  rs::util::ThreadPool pool(threads);
  std::vector<std::future<void>> warm;
  for (std::size_t k = 0; k < threads; ++k) warm.push_back(pool.submit([] {}));
  for (std::future<void>& f : warm) f.get();
  Timing t;
  t.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  t.cpu_s = static_cast<double>(cpu_ns() - cpu_start) / 1e9;
  if (rings.size() != spec.count) throw std::logic_error("family size");
  return t;
}

struct DriverRep {
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  std::vector<double> latency_ms;  ///< per task: start → checkpointed
  std::size_t failed = 0;
  rs::exp::SweepDriverReport report;
};

DriverRep run_driver_rep(const std::vector<Graph>& rings, const Reference& ref,
                         const std::string& fifo) {
  clear_library_caches();
  CheckpointTap tap(fifo);
  rs::exp::SweepDriverOptions driver;
  driver.kinds = kKinds;
  driver.output_path = fifo;
  driver.resume = false;

  DriverRep rep;
  const std::uint64_t cpu_start = cpu_ns();
  const std::uint64_t start = now_ns();
  rep.report = rs::exp::run_sweep_driver(rings, driver);
  const std::uint64_t end = now_ns();
  rep.cpu_seconds = static_cast<double>(cpu_ns() - cpu_start) / 1e9;
  std::vector<CheckpointTap::Arrival> arrivals = tap.finish();

  rep.seconds = static_cast<double>(end - start) / 1e9;
  std::vector<std::string> lines;
  for (CheckpointTap::Arrival& a : arrivals) {
    rep.latency_ms.push_back(static_cast<double>(a.ns - start) / 1e6);
    lines.push_back(std::move(a.line));
  }
  rep.failed = check_lines(ref, lines);
  const auto& sybil = rep.report.by_kind[static_cast<int>(DeviationKind::kSybil)];
  if (sybil.any && rs::num::Rational(2) < sybil.max_ratio) ++rep.failed;
  return rep;
}

struct ReplicaRun {
  double wall_ms = 0.0;
  std::size_t tasks = 0;
  std::size_t failed = 0;
  std::size_t probes = 0;
  std::size_t bracketed = 0;
};

/// The sweep done task by task on this thread through the layer calls
/// (single-flight included), each record written and flushed as the driver
/// does. With `probe`, a separate partition call per canonical solve.
ReplicaRun run_replica(Tracer& tracer, const std::vector<Graph>& rings,
                       const Reference& ref, bool probe,
                       const std::string& path) {
  clear_library_caches();
  const rs::game::DeviationOptions solver;
  std::unordered_map<std::string, rs::game::DeviationOptimum> solved;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) throw std::runtime_error("cannot open " + path);
  ReplicaRun run;
  const std::uint64_t start = now_ns();
  for (const Reference::Task& t : ref.tasks) {
    if (t.instance >= kReplicaInstances) continue;
    ++run.tasks;
    const Tracer::Scope task_span = tracer.span("exp.task");
    const rs::engine::CanonicalTask canon = [&] {
      const Tracer::Scope span = tracer.span("engine.canonicalize");
      return rs::engine::canonicalize_task(rings[t.instance], t.task);
    }();
    auto it = solved.find(canon.key);
    if (it == solved.end()) {
      it = solved.emplace(canon.key, replica_solve(tracer, canon, solver)).first;
      if (probe) {
        run.bracketed += partition_probe(tracer, canon, solver);
        ++run.probes;
      }
    }
    const rs::game::DeviationOptimum opt = [&] {
      const Tracer::Scope span = tracer.span("engine.translate");
      return rs::engine::translate_optimum(rings[t.instance], t.task, canon,
                                           it->second);
    }();
    const Tracer::Scope span = tracer.span("exp.emit");
    const std::string line =
        "{" + rs::engine::format_record_fields(t.instance, opt) + "}";
    std::fputs(line.c_str(), out);
    std::fputc('\n', out);
    std::fflush(out);
    if (line != t.line) ++run.failed;
  }
  run.wall_ms = static_cast<double>(now_ns() - start) / 1e6;
  std::fclose(out);
  std::remove(path.c_str());
  return run;
}

/// Run this benchmark again as a child on a one-thread pool (the plain
/// single-threaded run of the same tasks). Returns its stdout.
std::string run_serial_child(const Options& options, double seconds) {
  int fds[2];
  if (::pipe(fds) != 0) return "";
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  const std::string seed = std::to_string(options.seed);
  const std::string secs = std::to_string(seconds);
  std::vector<std::string> args = {"/proc/self/exe", "--workload",
                                   options.workload, "--seed", seed,
                                   "--seconds", secs, "--trace", "0",
                                   "--serial-child", "--run-dir",
                                   options.run_dir};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string output;
  char buffer[4096];
  for (ssize_t got; spawned == 0 &&
                    (got = ::read(fds[0], buffer, sizeof buffer)) != 0;) {
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) break;
    output.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fds[0]);
  if (spawned != 0) return "";
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? output : "";
}

/// Child mode: the same driver sweeps on a one-thread pool; prints
/// "<ops_per_s> <digest of the sorted records>".
int serial_child(const Options& options, const std::vector<Graph>& rings) {
  const std::string path =
      options.run_dir + "/serial-" + std::to_string(::getpid()) + ".jsonl";
  std::vector<double> ops;
  std::uint64_t digest = 0;
  const std::uint64_t start = now_ns();
  while (ops.empty() ||
         static_cast<double>(now_ns() - start) / 1e9 < options.seconds) {
    clear_library_caches();
    std::remove(path.c_str());
    rs::exp::SweepDriverOptions driver;
    driver.kinds = kKinds;
    driver.output_path = path;
    driver.resume = false;
    const std::uint64_t t0 = now_ns();
    const rs::exp::SweepDriverReport report =
        rs::exp::run_sweep_driver(rings, driver);
    ops.push_back(static_cast<double>(report.tasks_run) * 1e9 /
                  static_cast<double>(now_ns() - t0));
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    digest = sorted_digest(std::move(lines));
  }
  std::remove(path.c_str());
  std::printf("%.17g %s\n", median(ops), hex64(digest).c_str());
  return 0;
}

}  // namespace

int run_sweep(const Options& options) {
  const rs::exp::FamilySpec spec = family_spec(options, options.seed);
  const std::vector<Graph> rings = spec.build();
  const std::string inputs = family_text(rings);
  if (options.emit_inputs) {
    std::fputs(inputs.c_str(), stdout);
    return 0;
  }
  if (options.serial_child) return serial_child(options, rings);

  Report report;
  // Generator self-check: the same seed rebuilds byte-identical inputs and
  // the next seed builds different ones.
  if (family_text(spec.build()) != inputs ||
      family_text(family_spec(options, options.seed + 1).build()) == inputs)
    report.fail("family generator is not a function of the seed");
  report.note("inputs: " + std::to_string(rings.size()) + " rings of n=" +
              std::to_string(kRingSize) + ", digest " +
              hex64(fnv1a(inputs)));

  const Reference ref = make_reference(rings);
  report.note("reference: " + std::to_string(ref.tasks.size()) +
              " tasks solved directly; worst Sybil ratio " +
              std::to_string(ref.worst_sybil.to_double()));
  if (rs::num::Rational(2) < ref.worst_sybil)
    report.fail("Theorem 8: a Sybil ratio exceeds 2");

  const std::string fifo =
      options.run_dir + "/checkpoint-" + std::to_string(::getpid()) + ".fifo";
  std::vector<double> setups, setups_wall, ops, cpu_ops, ref_ops, p50s, p99s;
  Percentile last_p99;
  rs::util::PerfSnapshot counters{};
  std::size_t tasks_run = 0, coalesced = 0;
  const CpuTicks ticks = cpu_ticks();
  auto driver_reps = [&](double seconds) {
    const std::uint64_t start = now_ns();
    std::uint64_t last = 0;
    int reps = 0;
    // Stop before a repetition that would end past `seconds`.
    while (reps < (options.trace ? 2 : kMinReps) ||
           static_cast<double>(now_ns() - start + last) / 1e9 <= seconds) {
      const std::uint64_t rep_start = now_ns();
      for (int k = 0; k < kSetupsPerRep; ++k) {
        const Timing setup = setup_seconds(spec, options.threads);
        setups.push_back(setup.cpu_s);
        setups_wall.push_back(setup.wall_s);
      }
      const double cal_before = calibrate(options.threads);
      const rs::util::PerfSnapshot before = rs::util::PerfCounters::snapshot();
      DriverRep rep = run_driver_rep(rings, ref, fifo);
      const rs::util::PerfSnapshot delta =
          rs::util::PerfCounters::snapshot().minus(before);
      const double cal_s = 0.5 * (cal_before + calibrate(options.threads));
#define E2E_ADD(name) counters.name += delta.name;
      RINGSHARE_PERF_COUNTER_FIELDS(E2E_ADD)
#undef E2E_ADD
      const double tasks = static_cast<double>(rep.report.tasks_run);
      ops.push_back(tasks / rep.seconds);
      cpu_ops.push_back(tasks / rep.cpu_seconds);
      ref_ops.push_back(tasks / rep.cpu_seconds * cal_s / kCalibrationRefS);
      p50s.push_back(percentile(rep.latency_ms, 0.50).value);
      last_p99 = percentile(rep.latency_ms, 0.99);
      p99s.push_back(last_p99.value);
      tasks_run += rep.report.tasks_run;
      coalesced += rep.report.tasks_coalesced;
      report.attempted(ref.tasks.size());
      report.failed(rep.failed);
      ++reps;
      last = now_ns() - rep_start;
    }
    report.note("driver repetitions: " + std::to_string(reps) + ", " +
                std::to_string(ref.tasks.size()) + " tasks each; IQR/median "
                "ops_per_ref_cpu_s " + std::to_string(iqr_share(ref_ops)) +
                ", unscaled " + std::to_string(iqr_share(cpu_ops)) +
                ", wall ops_per_s " + std::to_string(iqr_share(ops)));
  };
  const auto per_rep = [&] {
    return "median over " + std::to_string(p50s.size()) + " sweeps of " +
           std::to_string(last_p99.count) + " tasks";
  };

  if (!options.trace) {
    driver_reps(options.seconds);
    report.set("ops_per_ref_cpu_s", median(ref_ops), "1/s",
               "median per sweep of tasks per CPU-second of the process, "
               "scaled to the reference host speed");
    report.set("setup_s", median(setups), "s",
               "process CPU time, median of " + std::to_string(setups.size()));
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.note("not bounded: unscaled ops per CPU-second " +
                std::to_string(median(cpu_ops)) + ", set-up wall s " +
                std::to_string(median(setups_wall)) + ", wall ops_per_s " +
                std::to_string(median(ops)) + ", wall latency p50 " +
                std::to_string(median(p50s)) + " ms, p99 " +
                std::to_string(median(p99s)) + " ms (" + per_rep() +
                "); host steal " + std::to_string(steal_share(ticks)));
    report.print_table(options.workload);
    report.print_result(end_to_end_keys());
    return report.correct() ? 0 : 1;
  }

  // Traced run: untraced driver sweeps for the counters, the replica twice
  // (untraced, traced, untraced again: the untraced mean brackets the
  // traced pass against host drift) for the self times and the tracing
  // overhead, and a one-thread child for the serial baseline.
  driver_reps(0.35 * options.seconds);
  const std::string emit_path =
      options.run_dir + "/replica-" + std::to_string(::getpid()) + ".jsonl";
  Tracer off(false);
  const ReplicaRun before = run_replica(off, rings, ref, false, emit_path);
  Tracer tracer(true);
  const ReplicaRun traced = run_replica(tracer, rings, ref, true, emit_path);
  const ReplicaRun after = run_replica(off, rings, ref, false, emit_path);
  const double untraced_ms = 0.5 * (before.wall_ms + after.wall_ms);
  report.attempted(before.tasks + traced.tasks + after.tasks);
  report.failed(before.failed + traced.failed + after.failed);

  const std::string child = run_serial_child(options, 0.3 * options.seconds);
  double serial_ops = 0.0;
  char digest[64] = {};
  if (std::sscanf(child.c_str(), "%lf %63s", &serial_ops, digest) != 2)
    report.fail("serial child run failed");
  else if (hex64(ref.digest) != digest)
    report.fail("serial child records differ from the reference");
  report.attempted(1);

  const double solves = static_cast<double>(tasks_run - coalesced);
  const CounterRatios r = counter_ratios(counters, solves);
  const std::string none = "no serving layer on this path";
  for (const char* name :
       {"engine.seq_hold_ms.p50", "engine.seq_hold_ms.p99",
        "engine.ready_ms.p50", "engine.ready_ms.p99", "engine.queue_wait_ms",
        "gen.late_ms.max"})
    report.set(name, 0.0, "ms", none);
  for (const char* name : {"engine.submit_us.p50", "engine.submit_us.p99",
                           "engine.parse_us", "engine.update_us"})
    report.set(name, 0.0, "us", none);
  for (const char* name : {"engine.seq_hold_share.tail", "engine.cache_share",
                           "engine.dedup_share", "engine.solve_share"})
    report.set(name, 0.0, "share", none);
  report.set("engine.shard_imbalance", 0.0, "ratio", none);
  report.set("engine.backlog_max", 0.0, "count", none);

  const double solve_ms = tracer.mean_ms("engine.solve");
  const double partition_ms = tracer.mean_ms("game.partition_probe");
  report.set("engine.solve_ms", solve_ms, "ms", "replica, per canonical solve");
  report.set("engine.canonicalize_us",
             1e3 * tracer.mean_ms("engine.canonicalize"), "us");
  report.set("exp.coalesced_share",
             tasks_run ? static_cast<double>(coalesced) / tasks_run : 0.0,
             "share");
  report.set("exp.serial_ops_per_s", serial_ops, "1/s", "one-thread pool");
  report.set("util.parallel_efficiency",
             serial_ops > 0 ? median(ops) / (serial_ops * options.threads)
                            : 0.0,
             "share",
             "ops_per_s " + std::to_string(median(ops)) + " over " +
                 std::to_string(options.threads) + " threads");
  report.set("util.steal_share", r.steal_share, "share");
  report.set("wall.ops_per_s", median(ops), "1/s",
             "median tasks per wall second, per sweep");
  report.set("wall.latency_p50_ms", median(p50s), "ms",
             "sweep start -> checkpointed record, " + per_rep());
  report.set("wall.latency_p99_ms", median(p99s), "ms",
             "rank " + std::to_string(last_p99.rank) + ", " + per_rep());
  report.set("host.steal_share", steal_share(ticks), "share",
             "hypervisor steal over the run, /proc/stat");
  report.set("game.partition_self_ms", partition_ms, "ms",
             "estimated: separate partition call per solve");
  report.set("game.piece_self_ms",
             tracer.mean_ms("game.optimize") - partition_ms, "ms",
             "estimated: optimize - partition");
  report.set("game.pieces_per_task", r.pieces_per_task, "count");
  report.set("game.breakpoints_bracketed_per_task",
             traced.probes ? static_cast<double>(traced.bracketed) /
                                 static_cast<double>(traced.probes)
                           : 0.0,
             "count");
  report.set("game.sig_probes_per_task", r.sig_probes_per_task, "count");
  report.set("bd.dinkelbach_iters_per_task", r.dinkelbach_iters_per_task,
             "count");
  report.set("bd.ring_kernel_evals_per_task", r.ring_kernel_evals_per_task,
             "count");
  report.set("bd.warm_hit_ratio", r.warm_hit_ratio, "share");
  report.set("numeric.bigint_fast_ratio", r.bigint_fast_ratio, "share");
  report.set("numeric.slow_ops_per_task", r.slow_ops_per_task, "count");
  report.set("numeric.filter_hit_ratio", r.filter_hit_ratio, "share");

  const double probe_ms = partition_ms * static_cast<double>(traced.probes);
  report.note("replica over the first " + std::to_string(kReplicaInstances) +
              " rings (" + std::to_string(traced.tasks) + " tasks): traced wall " +
              std::to_string(traced.wall_ms) + " ms, of which partition probes " +
              std::to_string(probe_ms) + " ms; untraced " +
              std::to_string(before.wall_ms) + " and " +
              std::to_string(after.wall_ms) + " ms");
  report.set("trace.other_share", self_time_table(tracer, traced.wall_ms, report),
             "share", "tolerance 0.05");
  report.set("trace.overhead_share",
             (traced.wall_ms - probe_ms) / untraced_ms - 1.0, "share",
             "traced replica without its probes vs untraced mean");
  tracer.write_jsonl(options.run_dir + "/spans-" + options.workload + ".jsonl");
  report.print_table(options.workload + " (traced)");
  report.print_result(per_layer_keys());
  return report.correct() ? 0 : 1;
}

}  // namespace e2e
