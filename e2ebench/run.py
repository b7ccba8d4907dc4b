#!/usr/bin/env python3
"""Build and run the ringshare end-to-end benchmark.

    python3 e2ebench/run.py --workload sweep_small --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 30

Run it from the root of a checkout. It builds the library and the benchmark
from source into $CARGO_TARGET_DIR (default .bench_build), then runs one
workload; the last line on stdout is the JSON result. `--workload all` runs
every workload untraced and traced and prints each metric by name and unit.
The exit code is nonzero when the build fails or any output is wrong.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["sweep_small", "sweep_wide", "serve_mixed"]
RUN_TIMEOUT_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(root: Path, build_dir: Path) -> Path:
    """Configure (once) and build; returns the benchmark binary."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        log("run.py: no library sources at", root / "src")
        sys.exit(2)
    out = build_dir / "e2e"
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(root / "e2ebench"), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit(2)
    return out / "ringshare_e2e"


def run_one(binary: Path, run_dir: Path, workload: str, seed: str,
            seconds: str, trace: str, extra=(), capture=False):
    cmd = [str(binary), "--workload", workload, "--seed", seed,
           "--seconds", seconds, "--trace", trace, "--run-dir", str(run_dir),
           *extra]
    # Its own process group, so a timeout also stops the one-thread child a
    # traced sweep starts.
    proc = subprocess.Popen(cmd, text=True, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s")
        sys.exit(3)
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--emit-inputs", action="store_true",
                        help="print the generated inputs and exit")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    binary = build(root, build_dir)
    run_dir = build_dir / "run"
    run_dir.mkdir(parents=True, exist_ok=True)

    if args.workload != "all":
        extra = ["--emit-inputs"] if args.emit_inputs else []
        return run_one(binary, run_dir, args.workload, args.seed,
                       args.seconds, args.trace, extra).returncode

    status = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            result = run_one(binary, run_dir, workload, args.seed,
                             args.seconds, trace, capture=True)
            lines = result.stdout.strip().splitlines()
            report = json.loads(lines[-1]) if lines else None
            if result.returncode != 0 or not report or not report["correct"]:
                status = 1
            if not report:
                print(f"{workload} trace={trace}: no result "
                      f"(exit {result.returncode})")
                continue
            print(f"{workload} trace={trace}: correct={report['correct']} "
                  f"attempted={report['attempted']} "
                  f"failed={report['failed']} failed_share="
                  f"{report['failed'] / report['attempted']:.6g}")
            for name, metric in report["metrics"].items():
                print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
