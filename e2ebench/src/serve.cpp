// serve.cpp — the serving workload (serve_mixed).
//
// A seeded JSONL trace goes through engine::parse_request_line and then
// engine::BatchServer register_instance / submit / update_weight, the loop
// ringshare_serve runs, with a sink that writes and flushes every response
// line as the tool does. Each pass builds a fresh server after clearing the
// library caches. Offline passes submit the whole trace at once and time it
// to drain(); they make the untraced run. The traced run adds an open-loop
// pass, which sends each line at a fixed absolute rate and times every
// query from its due time. Every response is checked, in order, against
// direct solves that replay the trace's updates.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "engine/batch_server.hpp"
#include "engine/deviation_engine.hpp"
#include "engine/wire.hpp"
#include "graph/builders.hpp"
#include "replica.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace rs = ringshare;
using rs::game::DeviationKind;
using rs::graph::Graph;

namespace {

// Trace shape. 120 base rings, 30 of each size n = 5..8 (a seeded random
// size mix made the work per trace differ by 15% between seeds), each
// registered as 3 rotated, reflected or scaled copies, so symmetric copies
// share canonical solves; the counts are sized so that about a third of
// the queries are cache hits.
constexpr std::size_t kBaseRings = 120;
constexpr std::size_t kCopies = 3;
constexpr std::size_t kRequests = 4000;
constexpr std::int64_t kMaxWeight = 12;
constexpr int kUpdatePercent = 5;
constexpr int kTaggedPercent = 10;
/// Open-loop send rate, request lines per second: a fixed absolute rate.
/// Offline throughput on a 4-vCPU x86-64 host measured 1100-4000 lines/s
/// depending on hypervisor steal; at 400 lines/s even the slowest of those
/// leaves the server short of saturation, so the latencies measure service
/// and blocking rather than runaway queueing.
constexpr double kOpenLoopRate = 400.0;
/// The generator itself fell behind, and the pass is invalid, when its
/// median lateness in the pass exceeds this, or its last line was sent
/// more than kLateLimitLastMs after it was due. Isolated stalls stay valid:
/// latency is timed from due time, so they are charged to the requests.
constexpr double kLateLimitP50Ms = 1.0;
constexpr double kLateLimitLastMs = 1000.0;
/// Open-loop passes tried before a traced run is declared invalid.
constexpr int kOpenLoopAttempts = 3;
/// Untraced offline passes at least, and server set-ups timed per pass.
constexpr std::size_t kMinPasses = 3;
constexpr int kSetupsPerPass = 4;
/// Canonical keys re-solved alone in the traced run.
constexpr std::size_t kSoloSample = 300;

struct Trace {
  std::vector<std::string> registrations;
  std::vector<std::string> requests;  ///< line k carries "req": k + 1
};

std::string ring_line(std::size_t id, const std::vector<std::int64_t>& w) {
  std::string line = "{\"instance\": " + std::to_string(id) + ", \"ring\": [";
  for (std::size_t i = 0; i < w.size(); ++i)
    line += (i ? ", \"" : "\"") + std::to_string(w[i]) + "\"";
  return line + "]}";
}

Trace make_trace(std::uint64_t seed) {
  rs::util::Xoshiro256 rng(seed ^ 0x5e77e5eedULL);
  Trace trace;
  std::vector<std::size_t> sizes;
  for (std::size_t b = 0; b < kBaseRings; ++b) {
    const std::size_t n = 5 + b % 4;
    std::vector<std::int64_t> base(n);
    for (std::int64_t& w : base) w = rng.uniform_int(1, kMaxWeight);
    for (std::size_t c = 0; c < kCopies; ++c) {
      std::vector<std::int64_t> copy = base;
      if (c > 0) {
        switch (rng.uniform_int(0, 2)) {
          case 0:
            std::rotate(copy.begin(),
                        copy.begin() + rng.uniform_int(1, std::int64_t(n) - 1),
                        copy.end());
            break;
          case 1:
            std::reverse(copy.begin(), copy.end());
            std::rotate(copy.begin(),
                        copy.begin() + rng.uniform_int(0, std::int64_t(n) - 1),
                        copy.end());
            break;
          default: {
            const std::int64_t k = rng.uniform_int(2, 5);
            for (std::int64_t& w : copy) w *= k;
          }
        }
      }
      trace.registrations.push_back(ring_line(sizes.size(), copy));
      sizes.push_back(n);
    }
  }
  for (std::size_t r = 1; r <= kRequests; ++r) {
    const auto id =
        static_cast<std::size_t>(rng.uniform_int(0, std::int64_t(sizes.size()) - 1));
    const std::int64_t n = static_cast<std::int64_t>(sizes[id]);
    const std::string head = "{\"req\": " + std::to_string(r) + ", ";
    const std::string inst = "i" + std::to_string(id) + ".";
    if (rng.uniform_int(0, 99) < kUpdatePercent) {
      trace.requests.push_back(
          head + "\"update\": \"" + inst + "u" +
          std::to_string(rng.uniform_int(0, n - 1)) + "\", \"weight\": \"" +
          std::to_string(rng.uniform_int(1, kMaxWeight)) + "\"}");
      continue;
    }
    const std::int64_t v = rng.uniform_int(0, n - 1);
    std::string task;
    switch (rng.uniform_int(0, 2)) {
      case 0:
        task = "v" + std::to_string(v);
        break;
      case 1:
        task = "m" + std::to_string(v);
        break;
      default: {
        const std::int64_t p = (v + 1) % n;
        task = "c" + std::to_string(std::min(v, p)) + "-" +
               std::to_string(std::max(v, p));
      }
    }
    if (rng.uniform_int(0, 99) < kTaggedPercent)
      task += rng.uniform_int(0, 1) ? "@prop" : "@karma";
    trace.requests.push_back(head + "\"task\": \"" + inst + task + "\"}");
  }
  return trace;
}

std::string trace_text(const Trace& trace) {
  std::string text;
  for (const std::string& line : trace.registrations) text += line + "\n";
  for (const std::string& line : trace.requests) text += line + "\n";
  return text;
}

/// What each response line must start with, from direct solves replaying
/// the trace's updates in order.
struct Expected {
  bool update = false;
  std::string prefix;
  std::string canonical_key;  ///< queries only
};

/// One canonical task of the trace, for the solo re-solves.
struct SoloTask {
  Graph ring;
  rs::game::DeviationTask task;
  std::string fields;  ///< expected record fields under instance 0
};

struct ServeReference {
  std::vector<Expected> expected;
  std::size_t queries = 0;
  std::unordered_map<std::string, std::size_t> solo_index;  ///< by canon key
  std::vector<SoloTask> solo;
};

rs::engine::WireRequest parse_or_throw(const std::string& line) {
  std::string error;
  std::optional<rs::engine::WireRequest> request =
      rs::engine::parse_request_line(line, &error);
  if (!request) throw std::runtime_error("generated line rejected: " + error);
  return std::move(*request);
}

ServeReference make_reference(const Trace& trace) {
  std::unordered_map<std::size_t, Graph> state;
  for (const std::string& line : trace.registrations) {
    rs::engine::WireRequest r = parse_or_throw(line);
    state[*r.instance] = rs::graph::make_ring(std::move(*r.ring));
  }
  struct Job {
    Graph ring;
    rs::game::DeviationTask task;
    rs::game::DeviationOptimum optimum;
  };
  std::vector<Job> jobs;
  std::unordered_map<std::string, std::size_t> job_by_key;
  std::vector<std::size_t> job_of(trace.requests.size(), 0);
  std::vector<std::size_t> instance_of(trace.requests.size(), 0);

  ServeReference ref;
  ref.expected.resize(trace.requests.size());
  for (std::size_t k = 0; k < trace.requests.size(); ++k) {
    rs::engine::WireRequest r = parse_or_throw(trace.requests[k]);
    const std::string head = "{\"req\": " + std::to_string(*r.req) + ", ";
    Expected& e = ref.expected[k];
    if (!r.update.empty()) {
      const auto parts = rs::engine::parse_update_key(r.update);
      if (!parts) throw std::runtime_error("generated update key rejected");
      state.at(parts->instance).set_weight(parts->vertex, *r.weight);
      e.update = true;
      e.prefix = head + "\"update\": \"" + r.update + "\", \"instance\": " +
                 std::to_string(parts->instance) + ", \"vertex\": " +
                 std::to_string(parts->vertex) +
                 ", \"applied\": true, \"invalidated\": ";
      continue;
    }
    ++ref.queries;
    const auto parts = rs::engine::parse_task_key(r.task);
    if (!parts) throw std::runtime_error("generated task key rejected");
    const Graph& ring = state.at(parts->instance);
    std::string memo;
    for (rs::graph::Vertex v = 0; v < ring.vertex_count(); ++v)
      memo += ring.weight(v).to_string() + ",";
    memo += rs::engine::format_task_key(0, parts->task);
    const auto [it, inserted] = job_by_key.emplace(memo, jobs.size());
    if (inserted) jobs.push_back(Job{ring, parts->task, {}});
    job_of[k] = it->second;
    instance_of[k] = parts->instance;
    e.prefix = head;
    e.canonical_key = rs::engine::canonicalize_task(ring, parts->task).key;
  }

  const rs::engine::DeviationEngine engine;
  rs::util::parallel_for(
      0, jobs.size(),
      [&](std::size_t j) { jobs[j].optimum = engine.solve(jobs[j].ring, jobs[j].task); },
      1, nullptr, 1);
  for (std::size_t k = 0; k < trace.requests.size(); ++k) {
    Expected& e = ref.expected[k];
    if (e.update) continue;
    const Job& job = jobs[job_of[k]];
    e.prefix += rs::engine::format_record_fields(instance_of[k], job.optimum) +
                ", \"shard\": ";
    if (ref.solo_index.emplace(e.canonical_key, ref.solo.size()).second)
      ref.solo.push_back(SoloTask{
          job.ring, job.task,
          rs::engine::format_record_fields(0, job.optimum)});
  }
  return ref;
}

/// The response sink: writes and flushes each line as ringshare_serve
/// does, and stamps it. The server calls it under its sequencer lock, one
/// call at a time.
class StampingSink {
 public:
  struct Line {
    std::uint64_t ns;
    std::string text;
  };

  StampingSink(std::string path, std::size_t expected)
      : path_(std::move(path)), file_(std::fopen(path_.c_str(), "w")) {
    if (!file_) throw std::runtime_error("cannot open " + path_);
    lines_.reserve(expected);
  }
  ~StampingSink() {
    std::fclose(file_);
    std::remove(path_.c_str());
  }
  StampingSink(const StampingSink&) = delete;
  StampingSink& operator=(const StampingSink&) = delete;

  void write(const std::string& line) {
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
    std::fflush(file_);
    lines_.push_back(Line{now_ns(), line});
    emitted_.fetch_add(1, std::memory_order_release);
  }
  [[nodiscard]] std::size_t emitted() const {
    return emitted_.load(std::memory_order_acquire);
  }
  /// Read only after the server has drained.
  [[nodiscard]] const std::vector<Line>& lines() const { return lines_; }

 private:
  std::string path_;
  std::FILE* file_;
  std::vector<Line> lines_;
  std::atomic<std::size_t> emitted_{0};
};

/// One checked query response.
struct Answer {
  double latency_ms = 0.0;  ///< from due (open loop) or submit (offline)
  double ready_ms = 0.0;    ///< the response's own latency_us
  double hold_ms = 0.0;     ///< sink − submit − latency_us
  double submit_us = 0.0;   ///< duration of the submit call
  std::string served;
  std::size_t shard = 0;
  std::size_t request = 0;  ///< index into the trace
};

struct Pass {
  double seconds = 0.0;  ///< first line to drain()
  double cpu_seconds = 0.0;
  double wall_ms = 0.0;  ///< the whole pass after set-up, lead time included
  Timing setup;
  std::vector<Answer> answers;
  std::size_t failed = 0;
  std::size_t shards = 0;
  std::size_t backlog_max = 0;
  std::size_t backlog_end = 0;
  double late_max_ms = 0.0;
  std::vector<double> late_ms;
};

/// Set-up as a fresh ringshare_serve process pays it: construct the server
/// and register every instance of the trace.
std::unique_ptr<rs::engine::BatchServer> make_server(
    const Trace& trace, rs::engine::BatchServer::Sink sink, Timing& timing) {
  const std::uint64_t cpu_start = cpu_ns();
  const std::uint64_t start = now_ns();
  auto server = std::make_unique<rs::engine::BatchServer>(
      rs::engine::BatchServerConfig{}, std::move(sink));
  for (const std::string& line : trace.registrations) {
    rs::engine::WireRequest r = parse_or_throw(line);
    server->register_instance(*r.instance, rs::graph::make_ring(std::move(*r.ring)));
  }
  timing.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  timing.cpu_s = static_cast<double>(cpu_ns() - cpu_start) / 1e9;
  return server;
}

Pass run_pass(const Trace& trace, const ServeReference& ref,
              const Options& options, Tracer& tracer, bool open_loop) {
  clear_library_caches();
  const std::size_t n = trace.requests.size();
  StampingSink sink(
      options.run_dir + "/responses-" + std::to_string(::getpid()) + ".jsonl",
      n);
  std::vector<std::uint64_t> due(n), begin(n), end(n);
  Pass pass;

  auto server = make_server(
      trace, [&sink](const std::string& line) { sink.write(line); },
      pass.setup);
  pass.shards = server->shard_count();

  const std::uint64_t wall_start = now_ns();
  const std::uint64_t cpu_start = cpu_ns();
  {
    const Tracer::Scope root =
        tracer.span(open_loop ? "serve.open_loop" : "serve.offline");
    const std::uint64_t start = now_ns() + (open_loop ? 2'000'000 : 0);
    const double step_ns = 1e9 / kOpenLoopRate;
    for (std::size_t k = 0; k < n; ++k) {
      if (open_loop) {
        due[k] = start + static_cast<std::uint64_t>(step_ns * k);
        if (now_ns() < due[k]) {
          const Tracer::Scope span = tracer.span("gen.wait");
          std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
              std::chrono::nanoseconds(due[k])));
        }
        pass.backlog_max = std::max(pass.backlog_max, k - sink.emitted());
        pass.late_ms.push_back(static_cast<double>(now_ns() - due[k]) / 1e6);
      }
      rs::engine::WireRequest r = [&] {
        const Tracer::Scope span = tracer.span("engine.parse");
        return parse_or_throw(trace.requests[k]);
      }();
      begin[k] = now_ns();
      if (!open_loop) due[k] = begin[k];
      if (!r.update.empty()) {
        const Tracer::Scope span = tracer.span("engine.update");
        server->update_weight(*r.req, r.update, std::move(*r.weight));
      } else {
        const Tracer::Scope span = tracer.span("engine.submit");
        server->submit(*r.req, r.task);
      }
      end[k] = now_ns();
    }
    if (open_loop) pass.backlog_end = n - sink.emitted();
    {
      const Tracer::Scope span = tracer.span("engine.drain");
      server->drain();
    }
    pass.seconds = static_cast<double>(now_ns() - start) / 1e9;
  }
  pass.cpu_seconds = static_cast<double>(cpu_ns() - cpu_start) / 1e9;
  pass.wall_ms = static_cast<double>(now_ns() - wall_start) / 1e6;
  server.reset();

  const std::vector<StampingSink::Line>& lines = sink.lines();
  pass.failed = lines.size() == n ? 0 : n - std::min(n, lines.size());
  for (std::size_t k = 0; k < std::min(n, lines.size()); ++k) {
    const Expected& e = ref.expected[k];
    const std::string& line = lines[k].text;
    if (line.compare(0, e.prefix.size(), e.prefix) != 0) {
      ++pass.failed;
      continue;
    }
    if (e.update) continue;
    const auto latency_us = rs::engine::json_uint_field(line, "latency_us");
    const auto shard = rs::engine::json_uint_field(line, "shard");
    const auto served = rs::engine::json_string_field(line, "served");
    if (!latency_us || !shard || !served) {
      ++pass.failed;
      continue;
    }
    Answer a;
    a.latency_ms = static_cast<double>(lines[k].ns - due[k]) / 1e6;
    a.ready_ms = static_cast<double>(*latency_us) / 1e3;
    a.hold_ms =
        static_cast<double>(lines[k].ns - begin[k]) / 1e6 - a.ready_ms;
    a.submit_us = static_cast<double>(end[k] - begin[k]) / 1e3;
    a.served = *served;
    a.shard = *shard;
    a.request = k;
    pass.answers.push_back(std::move(a));
  }
  for (const double late : pass.late_ms)
    pass.late_max_ms = std::max(pass.late_max_ms, late);
  return pass;
}

std::vector<double> field(const std::vector<Answer>& answers,
                          double Answer::*member) {
  std::vector<double> out;
  for (const Answer& a : answers) out.push_back(a.*member);
  return out;
}

}  // namespace

int run_serve(const Options& options) {
  const Trace trace = make_trace(options.seed);
  const std::string inputs = trace_text(trace);
  if (options.emit_inputs) {
    std::fputs(inputs.c_str(), stdout);
    return 0;
  }

  Report report;
  if (trace_text(make_trace(options.seed)) != inputs ||
      trace_text(make_trace(options.seed + 1)) == inputs)
    report.fail("trace generator is not a function of the seed");
  const ServeReference ref = make_reference(trace);
  report.note("inputs: " + std::to_string(trace.registrations.size()) +
              " instances, " + std::to_string(trace.requests.size()) +
              " request lines (" + std::to_string(ref.queries) +
              " queries), " + std::to_string(ref.solo.size()) +
              " canonical tasks, digest " + hex64(fnv1a(inputs)));

  std::vector<double> setups, setups_wall, ops, cpu_ops, ref_ops;
  const CpuTicks ticks = cpu_ticks();
  auto account = [&](const Pass& pass) {
    setups.push_back(pass.setup.cpu_s);
    setups_wall.push_back(pass.setup.wall_s);
    report.attempted(trace.requests.size());
    report.failed(pass.failed);
  };
  // One untraced offline pass, scaled by the calibrations around it.
  Tracer off(false);
  auto offline_pass = [&] {
    const double cal_before = calibrate(options.threads);
    Pass pass = run_pass(trace, ref, options, off, false);
    const double cal_s = 0.5 * (cal_before + calibrate(options.threads));
    account(pass);
    const double lines = static_cast<double>(trace.requests.size());
    ops.push_back(lines / pass.seconds);
    cpu_ops.push_back(lines / pass.cpu_seconds);
    ref_ops.push_back(lines / pass.cpu_seconds * cal_s / kCalibrationRefS);
    return pass;
  };

  if (!options.trace) {
    // Offline passes back to back for the whole run, each after further
    // set-ups of a server that then serves nothing; stop before a pass
    // that would end past the run, judged by the last one.
    const std::uint64_t start = now_ns();
    std::uint64_t last = 0;
    for (std::size_t done = 0;
         done < kMinPasses ||
         static_cast<double>(now_ns() - start + last) / 1e9 <= options.seconds;
         ++done) {
      const std::uint64_t pass_start = now_ns();
      for (int k = 1; k < kSetupsPerPass; ++k) {
        Timing setup;
        make_server(trace, [](const std::string&) {}, setup);
        setups.push_back(setup.cpu_s);
        setups_wall.push_back(setup.wall_s);
      }
      offline_pass();
      last = now_ns() - pass_start;
    }
    report.note(std::to_string(cpu_ops.size()) + " offline passes; "
                "IQR/median ops_per_ref_cpu_s " + std::to_string(iqr_share(ref_ops)) +
                ", unscaled " + std::to_string(iqr_share(cpu_ops)) +
                ", wall ops_per_s " + std::to_string(iqr_share(ops)));
    report.set("ops_per_ref_cpu_s", median(ref_ops), "1/s",
               "median per offline pass of request lines per CPU-second of "
               "the process, scaled to the reference host speed");
    report.set("setup_s", median(setups), "s",
               "process CPU time, median of " + std::to_string(setups.size()));
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.note("not bounded: unscaled ops per CPU-second " +
                std::to_string(median(cpu_ops)) + ", set-up wall s " +
                std::to_string(median(setups_wall)) + ", wall ops_per_s " +
                std::to_string(median(ops)) + "; host steal " +
                std::to_string(steal_share(ticks)));
    report.print_table(options.workload);
    report.print_result(end_to_end_keys());
    return report.correct() ? 0 : 1;
  }

  // Traced run: a traced offline pass between two untraced ones (the
  // tracing overhead, bracketed against host drift), one traced open-loop
  // pass (per-request split), then solo re-solves of a seeded sample of the
  // trace's canonical tasks.
  const Pass plain_before = offline_pass();
  Tracer tracer(true);
  const rs::util::PerfSnapshot before = rs::util::PerfCounters::snapshot();
  const Pass offline = run_pass(trace, ref, options, tracer, false);
  const rs::util::PerfSnapshot delta =
      rs::util::PerfCounters::snapshot().minus(before);
  account(offline);
  const Pass plain_after = offline_pass();

  // An open-loop pass whose generator fell behind is invalid: its spans are
  // dropped and it is run again, at most kOpenLoopAttempts times in all.
  Pass open;
  bool valid = false;
  for (int attempt = 1; attempt <= kOpenLoopAttempts && !valid; ++attempt) {
    const std::size_t mark = tracer.mark();
    open = run_pass(trace, ref, options, tracer, true);
    account(open);
    valid = percentile(open.late_ms, 0.5).value <= kLateLimitP50Ms &&
            open.late_ms.back() <= kLateLimitLastMs;
    if (!valid) {
      tracer.rollback(mark);
      report.note("open-loop attempt " + std::to_string(attempt) +
                  " discarded: the generator fell behind");
    }
  }
  report.note("open-loop generator at " + std::to_string(kOpenLoopRate) +
              " lines/s: lateness p50 " +
              std::to_string(percentile(open.late_ms, 0.5).value) +
              " ms, max " + std::to_string(open.late_max_ms) +
              " ms (limits: p50 " + std::to_string(kLateLimitP50Ms) +
              " ms, last line " + std::to_string(kLateLimitLastMs) +
              " ms); end-of-schedule backlog " +
              std::to_string(open.backlog_end) + " lines");
  if (!valid) {
    report.print_table("serve_mixed INVALID: the generator fell behind");
    return 2;
  }

  // Solo phase.
  std::vector<std::size_t> sample(ref.solo.size());
  for (std::size_t k = 0; k < sample.size(); ++k) sample[k] = k;
  rs::util::Xoshiro256 rng(options.seed);
  for (std::size_t k = sample.size(); k > 1; --k)
    std::swap(sample[k - 1],
              sample[static_cast<std::size_t>(rng.uniform_int(0, std::int64_t(k) - 1))]);
  sample.resize(std::min(sample.size(), kSoloSample));
  clear_library_caches();
  const rs::game::DeviationOptions solver;
  std::vector<double> solo_ms(ref.solo.size(), -1.0);
  std::size_t bracketed = 0, probes = 0, solo_failed = 0;
  const std::uint64_t solo_start = now_ns();
  for (const std::size_t index : sample) {
    const SoloTask& t = ref.solo[index];
    const Tracer::Scope root = tracer.span("solo");
    const rs::engine::CanonicalTask canon = [&] {
      const Tracer::Scope span = tracer.span("engine.canonicalize");
      return rs::engine::canonicalize_task(t.ring, t.task);
    }();
    const std::uint64_t t0 = now_ns();
    const rs::game::DeviationOptimum copt = replica_solve(tracer, canon, solver);
    solo_ms[index] = static_cast<double>(now_ns() - t0) / 1e6;
    if (t.task.mechanism == rs::game::kBdMechanismId) {
      bracketed += partition_probe(tracer, canon, solver);
      ++probes;
    }
    const rs::game::DeviationOptimum opt =
        rs::engine::translate_optimum(t.ring, t.task, canon, copt);
    if (rs::engine::format_record_fields(0, opt) != t.fields) ++solo_failed;
  }
  const double solo_wall_ms = static_cast<double>(now_ns() - solo_start) / 1e6;
  report.attempted(sample.size());
  report.failed(solo_failed);

  // Per-request figures from the traced open-loop pass.
  const std::vector<Answer>& answers = open.answers;
  const double queries = static_cast<double>(answers.size());
  std::size_t cache = 0, dedup = 0, solves = 0;
  std::vector<double> shard_solves(open.shards, 0.0), queue_wait;
  for (const Answer& a : answers) {
    if (a.served == "cache") ++cache;
    if (a.served == "dedup") ++dedup;
    if (a.served != "solve") continue;
    ++solves;
    shard_solves[a.shard] += 1.0;
    const auto it = ref.solo_index.find(ref.expected[a.request].canonical_key);
    if (it != ref.solo_index.end() && solo_ms[it->second] >= 0.0)
      queue_wait.push_back(a.ready_ms - solo_ms[it->second]);
  }
  const Percentile lat99 = percentile(field(answers, &Answer::latency_ms), 0.99);
  const Percentile hold99 = percentile(field(answers, &Answer::hold_ms), 0.99);
  std::vector<double> tail_hold_share;
  for (const Answer& a : answers)
    if (a.latency_ms >= lat99.value && a.latency_ms > 0)
      tail_hold_share.push_back(a.hold_ms / a.latency_ms);
  report.note("traced open loop: wall.latency_p99_ms " + std::to_string(lat99.value) +
              " beside engine.seq_hold_ms.p99 " + std::to_string(hold99.value) +
              " (n=" + std::to_string(lat99.count) + ")");

  report.set("engine.seq_hold_ms.p50",
             percentile(field(answers, &Answer::hold_ms), 0.5).value, "ms",
             "sink - submit - latency_us");
  report.set("engine.seq_hold_ms.p99", hold99.value, "ms",
             "rank " + std::to_string(hold99.rank));
  report.set("engine.seq_hold_share.tail", mean(tail_hold_share), "share",
             "mean hold/latency at or beyond latency p99");
  report.set("engine.submit_us.p50",
             percentile(field(answers, &Answer::submit_us), 0.5).value, "us");
  report.set("engine.submit_us.p99",
             percentile(field(answers, &Answer::submit_us), 0.99).value, "us");
  report.set("engine.ready_ms.p50",
             percentile(field(answers, &Answer::ready_ms), 0.5).value, "ms");
  report.set("engine.ready_ms.p99",
             percentile(field(answers, &Answer::ready_ms), 0.99).value, "ms");
  report.set("engine.queue_wait_ms", median(queue_wait), "ms",
             "estimated: ready - solo solve, " +
                 std::to_string(queue_wait.size()) + " leaders");
  report.set("engine.solve_ms", tracer.mean_ms("engine.solve"), "ms",
             "solo, " + std::to_string(sample.size()) + " canonical keys");
  report.set("engine.canonicalize_us",
             1e3 * tracer.mean_ms("engine.canonicalize"), "us");
  report.set("engine.parse_us", 1e3 * tracer.mean_ms("engine.parse"), "us");
  report.set("engine.update_us", 1e3 * tracer.mean_ms("engine.update"), "us");
  report.set("engine.cache_share", cache / queries, "share");
  report.set("engine.dedup_share", dedup / queries, "share");
  report.set("engine.solve_share", solves / queries, "share");
  report.set("engine.shard_imbalance",
             solves ? *std::max_element(shard_solves.begin(), shard_solves.end()) /
                          (static_cast<double>(solves) / open.shards)
                    : 0.0,
             "ratio", std::to_string(open.shards) + " shards");
  report.set("engine.backlog_max", static_cast<double>(open.backlog_max),
             "count");
  report.set("gen.late_ms.max", open.late_max_ms, "ms");
  const std::string sweeps_only = "sweep driver only";
  report.set("exp.coalesced_share", 0.0, "share", sweeps_only);
  report.set("exp.serial_ops_per_s", 0.0, "1/s", sweeps_only);
  report.set("util.parallel_efficiency", 0.0, "share", sweeps_only);

  const double offline_solves = static_cast<double>(
      std::count_if(offline.answers.begin(), offline.answers.end(),
                    [](const Answer& a) { return a.served == "solve"; }));
  const CounterRatios r = counter_ratios(delta, offline_solves);
  const double partition_ms = tracer.mean_ms("game.partition_probe");
  report.set("util.steal_share", r.steal_share, "share");
  const Percentile lat50 = percentile(field(answers, &Answer::latency_ms), 0.5);
  report.set("wall.ops_per_s",
             mean({ops.front(), ops.back()}), "1/s",
             "request lines per wall second, mean of the two untraced "
             "offline passes");
  report.set("wall.latency_p50_ms", lat50.value, "ms",
             "traced open loop, from due time, n=" + std::to_string(lat50.count));
  report.set("wall.latency_p99_ms", lat99.value, "ms",
             "rank " + std::to_string(lat99.rank) + ", n=" +
                 std::to_string(lat99.count));
  report.set("host.steal_share", steal_share(ticks), "share",
             "hypervisor steal over the run, /proc/stat");
  report.set("game.partition_self_ms", partition_ms, "ms",
             "estimated: separate partition call, BD keys");
  report.set("game.piece_self_ms",
             tracer.mean_ms("game.optimize") - partition_ms, "ms",
             "estimated: optimize - partition");
  report.set("game.pieces_per_task", r.pieces_per_task, "count");
  report.set("game.breakpoints_bracketed_per_task",
             probes ? static_cast<double>(bracketed) / probes : 0.0, "count");
  report.set("game.sig_probes_per_task", r.sig_probes_per_task, "count");
  report.set("bd.dinkelbach_iters_per_task", r.dinkelbach_iters_per_task,
             "count");
  report.set("bd.ring_kernel_evals_per_task", r.ring_kernel_evals_per_task,
             "count");
  report.set("bd.warm_hit_ratio", r.warm_hit_ratio, "share");
  report.set("numeric.bigint_fast_ratio", r.bigint_fast_ratio, "share");
  report.set("numeric.slow_ops_per_task", r.slow_ops_per_task, "count");
  report.set("numeric.filter_hit_ratio", r.filter_hit_ratio, "share");

  const double wall_ms = offline.wall_ms + open.wall_ms + solo_wall_ms;
  report.set("trace.other_share", self_time_table(tracer, wall_ms, report),
             "share", "tolerance 0.05");
  report.set("trace.overhead_share",
             offline.seconds / (0.5 * (plain_before.seconds + plain_after.seconds)) -
                 1.0,
             "share", "traced vs mean untraced offline pass");
  tracer.write_jsonl(options.run_dir + "/spans-" + options.workload + ".jsonl");
  report.print_table(options.workload + " (traced)");
  report.print_result(per_layer_keys());
  return report.correct() ? 0 : 1;
}

}  // namespace e2e
