#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root. Builds perfbench/ (the cpw libraries, the
cpwd daemon and the perfbench program) into .bench_build, generates the
workload's inputs from the seed, measures the workload's main path for about
T seconds and checks every output. The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
The line before it is the full record: seed, nproc, SIMD path, revision,
build type, every metric with its sample count, the checks, and the
program's own stage timings. Exits non-zero on any correctness miss.

Self-tests of the metric arithmetic:
    python3 -m unittest discover -s perfbench/tests
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import aggregate  # noqa: E402
from aggregate import median, percentile  # noqa: E402

# Set-up repeats per run (setup_s is their median); more for the cheapest
# set-up, whose timing jitters most.
SETUP_REPEATS = {"ingest_large": 3, "coplot_wide": 3, "cpwd_mixed": 3,
                 "stream_drift": 5}
CHILD_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840


def declared_metrics(section):
    """{name: unit} of one metric section of BENCHMARK.json, which names
    every metric the benchmark prints."""
    with open("BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


# Sources the benchmark builds; their digest decides whether to rebuild and
# stands in for the revision when the checkout is not a git repository.
SOURCE_ROOTS = ("src", os.path.join("tools", "cpwd"), "perfbench")


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ------------------------------------------------------------------ build

def source_digest():
    digest = hashlib.sha256()
    for root in SOURCE_ROOTS:
        for directory, dirs, files in os.walk(root):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(directory, name)
                digest.update(path.encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def build(build_dir):
    """Configures and builds perfbench + cpwd; skipped when the sources are
    unchanged since the last successful build."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise BenchError("run from the repository root (no src/CMakeLists.txt)")
    digest = source_digest()
    stamp = os.path.join(build_dir, "perfbench.stamp")
    binaries = {
        "perfbench": os.path.join(build_dir, "perfbench"),
        "cpwd": os.path.join(build_dir, "cpwd", "cpwd"),
    }
    if (os.path.isfile(stamp) and open(stamp).read() == digest and
            all(os.access(path, os.X_OK) for path in binaries.values())):
        return binaries, digest
    log("building into " + build_dir)
    jobs = str(max(1, os.cpu_count() or 1))
    for command in (
            ["cmake", "-S", "perfbench", "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "-j", jobs,
             "--target", "perfbench", "cpwd"]):
        result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            raise BenchError("build step failed: " + " ".join(command))
    with open(stamp, "w") as handle:
        handle.write(digest)
    return binaries, digest


def revision(digest):
    """The git commit, marked with the source digest when the built sources
    differ from it; the source digest alone outside git."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        changed = subprocess.run(["git", "status", "--porcelain", "--", *SOURCE_ROOTS],
                                 capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and changed.returncode == 0:
            if changed.stdout.strip():
                return head.stdout.strip() + "+dirty.source-sha256:" + digest
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "source-sha256:" + digest


# ------------------------------------------------------------ processes

def perfbench(binaries, *args):
    """Runs the perfbench program and returns its JSON object."""
    command = [binaries["perfbench"], *[str(a) for a in args]]
    result = subprocess.run(command, capture_output=True, text=True,
                            timeout=CHILD_TIMEOUT_S)
    if result.stderr:
        sys.stderr.write(result.stderr)
    if result.returncode != 0:
        raise BenchError("perfbench %s exited %d" % (" ".join(map(str, args)),
                                                     result.returncode))
    return json.loads(result.stdout.strip().splitlines()[-1])


class Daemon:
    """A `cpwd serve` process, started and stopped around one setup."""

    def __init__(self, binaries, cache_dir, socket_path):
        read_fd, write_fd = os.pipe()
        self.socket_path = socket_path
        self.process = subprocess.Popen(
            [binaries["cpwd"], "serve", "--cache", cache_dir,
             "--socket", socket_path, "--executors", str(os.cpu_count() or 1),
             "--ready-fd", str(write_fd)],
            pass_fds=(write_fd,), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        os.close(write_fd)
        try:
            ready = os.read(read_fd, 1)
        finally:
            os.close(read_fd)
        if ready != b"1":
            self.stop()
            raise BenchError("cpwd did not come up")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.process.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for cpwd")

    def stop(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)


# ------------------------------------------------------------ workloads

def registry_snapshots(directory):
    """The measurement process's metrics registry as it wrote it before and
    after its measured phase (metrics-before.prom, metrics-after.prom)."""
    def load(name):
        with open(os.path.join(directory, name)) as handle:
            return aggregate.parse_prometheus(handle.read())
    return load("metrics-before.prom"), load("metrics-after.prom")


class Run:
    """Collects one invocation's metrics, checks and reference data."""

    def __init__(self, trace):
        self.trace = trace
        self.metrics = {}
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.checks = {}
        self.detail = {}

    def put(self, name, value, samples=1):
        self.metrics[name] = float(value)
        self.samples[name] = int(samples)

    def attempt(self, attempted, failed):
        self.attempted += int(attempted)
        self.failed += int(failed)

    def check(self, name, passed, detail=None):
        self.checks[name] = {"passed": bool(passed), "detail": detail}
        if not passed:
            log("check failed: %s %s" % (name, detail or ""))


def timed_setups(binaries, work, workload, seed, seconds, extra=None):
    """Runs the workload's set-up SETUP_REPEATS[workload] times, each into a fresh
    directory; returns the per-repeat seconds and the last directory (the
    earlier ones are deleted). `extra(directory)` runs inside the timing
    and its return value is kept for the last repeat only."""
    times, kept = [], None
    repeats = SETUP_REPEATS[workload]
    for repeat in range(repeats):
        directory = os.path.join(work, "setup-%d" % repeat)
        start = time.perf_counter()
        info = perfbench(binaries, "setup", workload, "--dir", directory,
                         "--seed", seed, "--seconds", seconds)
        handle = extra(directory) if extra else None
        times.append(time.perf_counter() - start)
        if repeat + 1 < repeats:
            if handle is not None:
                handle.stop()
            shutil.rmtree(directory)
        else:
            kept = (directory, info, handle)
    return times, kept


def batch_metrics(run, child):
    op_s = child["op_s"]
    run.put("op_p50_ms", median(op_s) * 1e3, len(op_s))
    run.detail["op_p99_ms"] = percentile(op_s, 0.99) * 1e3
    run.put("jobs_per_s", child["jobs_per_call"] * len(op_s) / sum(op_s), len(op_s))
    run.put("peak_rss_mb", child["peak_rss_mb"])
    run.detail["analysis_s_p50"] = median(op_s)


def batch_checks(run, child, label):
    run.attempt(child["calls"], child["failed"] + child["mismatched"])
    run.check(label + "_calls_clean", child["failed"] == 0,
              "%d of %d calls had an unusable log" % (child["failed"], child["calls"]))
    run.check(label + "_digest_stable", child["mismatched"] == 0,
              "%d of %d calls differ from the reference or first digest"
              % (child["mismatched"], child["calls"]))


def batch_layers(run, child, directory):
    for name in ("swf.decode_s", "swf.stream_s", "workload.characterize_s",
                 "workload.attribute_series_s", "selfsim.hurst_rs_s",
                 "selfsim.hurst_vt_s", "selfsim.hurst_pgram_s",
                 "selfsim.hurst_wavelet_s", "coplot.prepare_s", "mds.ssa_s",
                 "mds.ssa_iterations", "coplot.analyze_s",
                 "analysis.serial_sum_s"):
        run.put(name, child[name])
    run.put("swf.decode_mb_per_s", child["swf.decode_bytes"] / 1e6 / child["swf.decode_s"])
    # The replay covers the first corpus; op_s rotates over the corpora
    # starting with it.
    wall = median(child["op_s"][::int(child["corpora"])])
    run.put("analysis.pool_efficiency",
            aggregate.pool_efficiency(child["analysis.serial_sum_s"], wall, child["nproc"]))
    # The same serial replay with and without its spans, run in pairs.
    spanned, bare = child["spanned_replay_s"], child["replay_s"]
    run.put("trace.overhead_ratio", median(spanned) / median(bare), len(spanned))
    run.detail["replay_s"] = bare
    run.detail["spanned_replay_s"] = spanned
    stages = aggregate.stage_deltas(*registry_snapshots(directory))
    waves = sum(stage["sum_s"] for name, stage in stages.items()
                if name.startswith("batch_") and name.endswith("_wave"))
    run.detail["program_stages"] = stages
    run.detail["unattributed_s"] = sum(child["op_s"]) - waves


def run_ingest_large(run, binaries, work, seed, seconds):
    times, (directory, info, _) = timed_setups(binaries, work, "ingest_large",
                                               seed, seconds)
    run.put("setup_s", median(times), len(times))
    run.detail["inputs"] = info
    main_share = 0.75 if run.trace else 0.6
    mat = perfbench(binaries, "run", "ingest_large", "--dir", directory,
                    "--seconds", seconds * main_share,
                    *(["--trace"] if run.trace else []))
    win = perfbench(binaries, "run", "ingest_large", "--dir", directory,
                    "--seconds", seconds * (1.0 - main_share), "--windowed")
    batch_checks(run, mat, "materialized")
    batch_checks(run, win, "windowed")
    same = win["digest"] == mat["digest"]
    run.check("windowed_equals_materialized", same,
              "windowed %s vs materialized %s" % (win["digest"], mat["digest"]))
    if not same:
        run.attempt(0, win["calls"])
    run.detail["windowed_s_p50"] = median(win["op_s"])
    run.detail["windowed_peak_rss_mb"] = win["peak_rss_mb"]
    if run.trace:
        batch_layers(run, mat, directory)
        run.put("analysis.windowed_s_p50", median(win["op_s"]), len(win["op_s"]))
        run.put("analysis.windowed_peak_rss_mb", win["peak_rss_mb"])
    else:
        batch_metrics(run, mat)
    return mat


def run_coplot_wide(run, binaries, work, seed, seconds):
    times, (directory, info, _) = timed_setups(binaries, work, "coplot_wide",
                                               seed, seconds)
    run.put("setup_s", median(times), len(times))
    run.detail["inputs"] = info
    child = perfbench(binaries, "run", "coplot_wide", "--dir", directory,
                      "--seconds", seconds, *(["--trace"] if run.trace else []))
    batch_checks(run, child, "coplot")
    if run.trace:
        batch_layers(run, child, directory)
    else:
        batch_metrics(run, child)
    return child


def run_cpwd_mixed(run, binaries, work, seed, seconds):
    # A relative socket path keeps it under the sun_path limit wherever the
    # checkout lives; the daemon and the generator share this working dir.
    socket_path = os.path.relpath(os.path.join(work, "cpwd.sock"))

    def start_daemon(directory):
        return Daemon(binaries, os.path.join(directory, "cache"), socket_path)

    times, (directory, info, daemon) = timed_setups(
        binaries, work, "cpwd_mixed", seed, seconds, extra=start_daemon)
    try:
        run.put("setup_s", median(times), len(times))
        run.detail["inputs"] = info
        child = perfbench(binaries, "run", "cpwd_mixed", "--dir", directory,
                          "--socket", socket_path, "--seconds", seconds,
                          *(["--trace"] if run.trace else []))
        peak_rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    latencies, lags = aggregate.open_loop(child["due"], child["sent"], child["done"])
    statuses = [int(s) for s in child["status"]]
    attempted, failed, ratio = aggregate.fail_ratio(statuses)
    run.attempt(attempted, failed)
    counts = {name: statuses.count(code) for name, code in (
        ("wrong_digest", aggregate.WRONG_DIGEST), ("failed", aggregate.FAILED),
        ("refused", aggregate.REFUSED))}
    run.check("served_digests_match_direct_run_batch", failed == 0, counts)
    ok_jobs = sum(j for j, s in zip(child["jobs"], child["status"]) if s == aggregate.OK)
    span = max(child["done"])
    run.detail.update({
        "fail_ratio": ratio, "requests": len(child["due"]),
        "rate_per_s": child["rate"], "tenants": child["tenants"],
        "miss_share": sum(child["miss"]) / len(child["miss"]),
        "req_p50_s": median(latencies), "req_p99_s": percentile(latencies, 0.99),
        "req_done_per_s": statuses.count(aggregate.OK) / span,
        "send_lag_p99_s": percentile(lags, 0.99),
    })
    if not run.trace:
        run.put("op_p50_ms", median(latencies) * 1e3, len(latencies))
        run.put("jobs_per_s", ok_jobs / span, len(latencies))
        run.put("peak_rss_mb", peak_rss)
        return child

    before, after = registry_snapshots(directory)
    completed = sum(1 for s in statuses if s in (aggregate.OK, aggregate.WRONG_DIGEST))
    hits = aggregate.delta(before, after, "cpw_cache_hits_total")
    misses = aggregate.delta(before, after, "cpw_cache_misses_total")
    run.put("cache.hit_ratio", hits / (hits + misses), hits + misses)
    run.put("cache.lookup_s", median(child["cache_lookup_s"]), len(child["cache_lookup_s"]))
    run.put("cache.store_s", median(child["cache_store_s"]), len(child["cache_store_s"]))
    # Odd requests carried the submit_paths span (rtt >= 0), even ones none.
    rtts = [rtt for rtt in child["rtt"] if rtt >= 0.0]
    spanned = [lat for lat, rtt in zip(latencies, child["rtt"]) if rtt >= 0.0]
    bare = [lat for lat, rtt in zip(latencies, child["rtt"]) if rtt < 0.0]
    run.put("serve.submit_rtt_s", median(rtts), len(rtts))
    run.put("serve.polls_per_req",
            aggregate.delta(before, after, "cpwd_frames_total", type="2") / completed,
            completed)
    buckets = aggregate.histogram_delta(before, after, "cpwd_request_seconds",
                                        status="done")
    run.put("serve.server_request_s_p50", aggregate.histogram_quantile(0.5, buckets),
            completed)
    run.put("serve.rejected", aggregate.delta(before, after, "cpwd_rejected_total"))
    run.put("harness.send_lag_p99_s", percentile(lags, 0.99), len(lags))
    run.put("trace.overhead_ratio", median(spanned) / median(bare), len(spanned))
    server_s = aggregate.delta(before, after, "cpwd_request_seconds_sum")
    run.detail["program_stages"] = aggregate.stage_deltas(before, after)
    run.detail["cpwd_request_seconds_sum"] = server_s
    run.detail["unattributed_s"] = sum(latencies) - server_s
    run.detail["cache_entries"] = child["cache_entries"]
    return child


def run_stream_drift(run, binaries, work, seed, seconds):
    times, (directory, info, _) = timed_setups(binaries, work, "stream_drift",
                                               seed, seconds)
    run.detail["inputs"] = info
    child = perfbench(binaries, "run", "stream_drift", "--dir", directory,
                      "--seconds", seconds, *(["--trace"] if run.trace else []))
    # Decoding the log is set-up too; the measurement process repeats it.
    run.put("setup_s", median(times) + median(child["setup_decode_s"]), len(times))
    passes = int(child["passes"])
    run.attempt(passes, child["failed_passes"])
    run.check("first_jump_at_switch_window", child["failed_passes"] == 0,
              "%d of %d passes raised a jump before window %d, none at it, or "
              "other events than the first pass (first pass: %d jumps before it)"
              % (child["failed_passes"], passes, child["switch_window"],
                 child["pre_switch_jumps"]))
    run.detail.update({
        "drift_event_windows": child["event_windows"],
        "pre_switch_jumps": child["pre_switch_jumps"],
        "passes": passes,
    })
    verdicts = child["verdict_s"]
    # Throughput from the median window, not the pass totals: the host's
    # speed drifts within a run, and a median over hundreds of windows
    # shrugs off a slow stretch that would drag a mean.
    window_s = median(child["window_s"])
    run.detail["verdict_p50_ms"] = median(verdicts) * 1e3
    run.detail["verdict_p99_ms"] = percentile(verdicts, 0.99) * 1e3
    if not run.trace:
        run.put("op_p50_ms", median(verdicts) * 1e3, len(verdicts))
        run.put("jobs_per_s", child["window_jobs"] / window_s, len(child["window_s"]))
        run.put("peak_rss_mb", child["peak_rss_mb"])
        return child
    run.put("online.add_ns_per_job", child["traced_add_ns_per_job"])
    run.put("online.window_close_ms", median(child["traced_close_s"]) * 1e3,
            len(child["traced_close_s"]))
    run.put("online.trajectory_add_ms", median(child["traced_trajectory_s"]) * 1e3,
            len(child["traced_trajectory_s"]))
    run.put("online.drift_events", child["drift_events"], passes)
    # Bare and spanned passes alternate within the run.
    run.put("trace.overhead_ratio", median(child["traced_window_s"]) / window_s,
            len(child["traced_window_s"]))
    stages = aggregate.stage_deltas(*registry_snapshots(directory))
    run.detail["program_stages"] = stages
    stage_sum = sum(stage["sum_s"] for stage in stages.values())
    run.detail["unattributed_s"] = (sum(child["traced_window_s"]) + sum(child["window_s"])
                                    - stage_sum)
    return child


RUNNERS = {
    "ingest_large": run_ingest_large,
    "coplot_wide": run_coplot_wide,
    "cpwd_mixed": run_cpwd_mixed,
    "stream_drift": run_stream_drift,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    end_to_end = declared_metrics("end_to_end")
    per_layer = declared_metrics("per_layer")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    work = os.path.join(".bench_work", "%s-%d-%d" % (args.workload, args.seed,
                                                     os.getpid()))
    run = Run(bool(args.trace))
    try:
        binaries, digest = build(build_dir)
        os.makedirs(work)
        child = RUNNERS[args.workload](run, binaries, work, args.seed, args.seconds)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log("error: %s" % error)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it

    wanted = per_layer if run.trace else end_to_end
    missing = [name for name in wanted if name not in run.metrics]
    if missing and not run.trace:
        log("error: no value for " + ", ".join(missing))
        return 1
    for name in missing:
        # Layers this workload's path never enters read zero.
        run.put(name, 0.0, 0)
    correct = run.failed == 0 and all(c["passed"] for c in run.checks.values())
    record = {
        "schema": "cpw-perfbench-v1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": child["nproc"],
        "simd": child["simd"],
        "revision": revision(digest),
        "build_type": child["build_type"],
        "metrics": {name: {"value": run.metrics[name], "unit": unit,
                           "samples": run.samples[name]}
                    for name, unit in {**end_to_end, **per_layer}.items()
                    if name in run.metrics},
        "checks": run.checks,
        "detail": run.detail,
    }
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": run.metrics[name], "unit": unit}
                    for name, unit in wanted.items()},
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
