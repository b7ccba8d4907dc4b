// ringshare_e2e — the end-to-end benchmark of ringshare's two user paths.
//
//   ringshare_e2e --workload sweep_small|sweep_wide|serve_mixed --seed N
//                 --seconds S --trace 0|1 --run-dir DIR [--emit-inputs]
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
// per-layer metrics of a separate traced run. The last line on stdout is
// one JSON object {"correct", "attempted", "failed", "metrics"}; the
// human-readable report goes to stderr. Exits 1 when any output is wrong.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ringshare_e2e: %s\nusage: ringshare_e2e --workload "
               "sweep_small|sweep_wide|serve_mixed --seed N --seconds S "
               "--trace 0|1 --run-dir DIR [--emit-inputs]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--run-dir") {
      options.run_dir = value();
    } else if (arg == "--serial-child") {
      options.serial_child = true;
    } else if (arg == "--emit-inputs") {
      options.emit_inputs = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.run_dir.empty()) usage("--run-dir is required");
  if (!(options.seconds > 0)) usage("--seconds must be positive");

  // At most four pool threads, and never more than the machine has; set
  // before the library first touches its shared pool.
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  options.threads = options.serial_child ? 1 : std::min(4u, hardware);
  setenv("RINGSHARE_THREADS", std::to_string(options.threads).c_str(), 1);

  try {
    if (options.workload == "sweep_small" || options.workload == "sweep_wide")
      return e2e::run_sweep(options);
    if (options.workload == "serve_mixed") return e2e::run_serve(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ringshare_e2e: %s\n", error.what());
    return 1;
  }
  usage(("unknown workload '" + options.workload + "'").c_str());
}
