#!/usr/bin/env python3
"""End-to-end benchmark of the shipped `cobra` binary (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark builds `cobra`, the
traced replay `cobra_replay` and the launcher `perfbench_spawn` from source
(CMake, build directory $CARGO_TARGET_DIR or .bench_build), then:

  --trace 0  sets the workload up several times (timed), then repeats the
             measured `cobra run` for S seconds, checking every run's
             archive, and reports the end-to-end metrics (medians);
  --trace 1  sets up once, runs once untraced, then runs the traced replay
             and reports the per-layer metrics, after asserting that the
             replay's summary rows equal the untraced run's CSV rows.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. `--record-reference` rewrites perfbench/reference.json from the
program as built.
"""
import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# --seed N starts the measuring window at program seed (cobra run --seed)
# 20170724 + N mod 4, and each further sample takes the next one; every
# program seed has stored reference rows. The medians use whole cycles of
# the 4 program seeds only, so every run reports on the same inputs, in
# another order: theorem12-spectral draws new graphs per program seed, and
# their spectral solves differ in cost by up to 2x.
PROGRAM_SEED_BASE = 20170724
PROGRAM_SEEDS = 4
# Random-regular rows may legitimately change when the generator is
# re-drawn; their mean must stay within this share of the reference mean.
RANDOM_MEAN_TOLERANCE = 0.10
COMMAND_TIMEOUT_S = 150

# name -> how the workload runs. "bake" lists the graphs the set-up step
# pre-bakes with `cobra graph gen`; workloads that bake nothing set up with
# a `--list` dry run of the measured command (flag validation and cell
# enumeration). Every sample sets up afresh, then runs, so set-up samples
# spread over the window like run samples do. threads x lanes never
# exceeds the CPUs the benchmark needs.
WORKLOADS = {
    "expander-prebaked": dict(
        experiment="workload", bake=["regular_65536_r8", "complete_2048"],
        scale=1, threads=1, lanes=4, expect_exit=0),
    "small-graphs-lanes": dict(
        experiment="workload", graphs=["cycle_512", "hypercube_10",
                                       "torus_32_d2"],
        scale=4, threads=2, lanes=2, expect_exit=0),
    "theorem12-spectral": dict(
        experiment="regular_bound", max_cells=4, scale=8, threads=4,
        lanes=1, expect_exit=3),
}

# experiment -> (CSV table id, per-cell default replicate base, rows/cell)
EXPERIMENTS = {
    "workload": ("exp_workload", 16, 2),
    "regular_bound": ("exp_regular_bound", 24, 1),
}


def log(text):
    print(text, flush=True)


class Failure(Exception):
    """A command or output check that failed; counted, reported, not fatal."""


# --------------------------------------------------------------- building

def build(build_dir):
    """Configures once, then (re)builds the three targets. Returns paths."""
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "cobra",
                  "cobra_replay", "perfbench_spawn", "-j",
                  str(len(os.sched_getaffinity(0)))])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(build_log) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed (%s)" % build_log)
    return dict(cobra=os.path.join(build_dir, "cobra", "bench", "cobra"),
                replay=os.path.join(build_dir, "cobra_replay"),
                spawn=os.path.join(build_dir, "perfbench_spawn"))


# ---------------------------------------------------------------- running

def launch(bins, argv, cwd, stdout_path):
    """Runs argv under perfbench_spawn; returns (exit, wall_s, rss_mb)."""
    report = stdout_path + ".spawn"
    with open(stdout_path, "w") as out:
        proc = subprocess.Popen([bins["spawn"], report, "--"] + argv, cwd=cwd,
                                stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise Failure("timed out after %ds: %s" % (COMMAND_TIMEOUT_S,
                                                       " ".join(argv)))
    if proc.returncode != 0 or not os.path.isfile(report):
        raise Failure("launcher failed (%s): %s" % (proc.returncode,
                                                    " ".join(argv)))
    with open(report) as f:
        code, wall, rss_kb = f.read().split()
    return int(code), float(wall), int(rss_kb) / 1024.0


def program_seed(seed):
    return PROGRAM_SEED_BASE + seed % PROGRAM_SEEDS


def graph_list(w):
    if "bake" in w:
        return ["file:graphs/%s.cgr" % spec for spec in w["bake"]]
    return w["graphs"]


def run_argv(bins, w, seed, out_dir):
    argv = [bins["cobra"], "run", w["experiment"], "--scale", str(w["scale"]),
            "--seed", str(program_seed(seed)), "--threads", str(w["threads"]),
            "--kernel-threads", str(w["lanes"]), "--out-dir", out_dir]
    if w["experiment"] == "workload":
        argv += ["--graphs", ",".join(graph_list(w))]
    if "max_cells" in w:
        argv += ["--max-cells", str(w["max_cells"])]
    return argv


def setup_commands(bins, w, seed):
    if "bake" in w:
        return [[bins["cobra"], "graph", "gen", spec, "-o",
                 "graphs/%s.cgr" % spec] for spec in w["bake"]]
    return [run_argv(bins, w, seed, "listed") + ["--list"]]


def set_up(bins, w, seed, work):
    """One set-up pass in `work`: (wall_s, peak_rss_mb)."""
    shutil.rmtree(os.path.join(work, "graphs"), ignore_errors=True)
    os.makedirs(os.path.join(work, "graphs"))
    wall = rss = 0.0
    commands = setup_commands(bins, w, seed)
    for i, argv in enumerate(commands):
        code, t, r = launch(bins, argv, work,
                            os.path.join(work, "setup%d.out" % i))
        wall += t
        rss = max(rss, r)
        if code != 0:
            raise Failure("set-up exited %d: %s" % (code, " ".join(argv)))
    if "bake" not in w:
        with open(os.path.join(work, "setup0.out")) as f:
            listed = sum(1 for line in f if line.startswith("  ["))
        if listed < expected_cells(w):
            raise Failure("set-up listed %d cells, expected at least %d"
                          % (listed, expected_cells(w)))
    return wall, rss


def expected_cells(w):
    return w.get("max_cells") or len(graph_list(w))


# --------------------------------------------------------------- checking

def is_random_family(label):
    return label.startswith("regular_") or label.startswith("random_regular")


def read_archive(w, out):
    """The run's CSV rows and per-cell journal wall times (µs)."""
    table, _, rows_per_cell = EXPERIMENTS[w["experiment"]]
    with open(os.path.join(out, table + ".csv"), newline="") as f:
        rows = list(csv.reader(f))
    journal = os.path.join(out, "%s.1of1.journal" % w["experiment"])
    walls = []
    with open(journal) as f:
        for line in f:
            fields = line.rstrip("\n").split("\t")
            if fields[0] == "cell" and fields[-1] == "ok":
                walls.append(int(fields[3]))
    if len(walls) != expected_cells(w):
        raise Failure("journal has %d cells, expected %d"
                      % (len(walls), expected_cells(w)))
    if len(rows) - 1 != rows_per_cell * expected_cells(w):
        raise Failure("CSV has %d rows, expected %d"
                      % (len(rows) - 1, rows_per_cell * expected_cells(w)))
    return rows, walls


def check_rows(w, rows, stdout_text, reference):
    """Deterministic rows must equal the reference; random-regular rows
    must match it on every column but the Monte-Carlo ones, with the mean
    within RANDOM_MEAN_TOLERANCE."""
    header, body = rows[0], rows[1:]
    if reference is None:
        raise Failure("no reference rows for this seed")
    if header != reference[0] or len(body) != len(reference) - 1:
        raise Failure("CSV shape differs from the reference")
    mean = header.index("mean")
    exact = [header.index(c) for c in ("graph", "n")]
    exact += [header.index(c) for c in ("m", "process", "timeouts", "r")
              if c in header]
    for got, ref in zip(body, reference[1:]):
        if not is_random_family(ref[0]):
            if got != ref:
                raise Failure("row differs from the reference: %s vs %s"
                              % (got, ref))
            continue
        if [got[i] for i in exact] != [ref[i] for i in exact]:
            raise Failure("row differs from the reference: %s vs %s"
                          % (got, ref))
        if abs(float(got[mean]) - float(ref[mean])) > \
                RANDOM_MEAN_TOLERANCE * float(ref[mean]):
            raise Failure("%s mean %s is not within %.0f%% of %s"
                          % (got[0], got[mean], 100 * RANDOM_MEAN_TOLERANCE,
                             ref[mean]))
    if "timeouts" in header:
        if any(row[header.index("timeouts")] != "0" for row in body):
            raise Failure("replicates timed out")
    elif "timeouts!" in stdout_text:
        raise Failure("replicates timed out")


def simulated_rounds(w, rows):
    """Σ over rows of mean x completed replicates."""
    _, base, _ = EXPERIMENTS[w["experiment"]]
    reps = max(4, int(base * w["scale"]))
    header = rows[0]
    total = 0.0
    for row in rows[1:]:
        timeouts = int(row[header.index("timeouts")]) \
            if "timeouts" in header else 0
        total += float(row[header.index("mean")]) * (reps - timeouts)
    return total


def measured_run(bins, w, seed, work, index, reference):
    """One measured `cobra run` at program seed program_seed(seed), its
    archive checked against `reference` (program seed -> rows)."""
    out = "out%d" % index
    stdout_path = os.path.join(work, out + ".log")
    code, wall, rss = launch(bins, run_argv(bins, w, seed, out), work,
                             stdout_path)
    if code != w["expect_exit"]:
        raise Failure("cobra run exited %d, expected %d"
                      % (code, w["expect_exit"]))
    out_path = os.path.join(work, out)
    rows, walls = read_archive(w, out_path)
    with open(stdout_path) as f:
        check_rows(w, rows, f.read(),
                   reference.get(str(program_seed(seed))))
    return dict(run_s=wall, run_rss_mb=rss, rows=rows,
                rounds=simulated_rounds(w, rows),
                cell_max_s=max(walls) * 1e-6, cell_sum_s=sum(walls) * 1e-6,
                archive_bytes=sum(
                    os.path.getsize(os.path.join(out_path, name))
                    for name in os.listdir(out_path)))


# ---------------------------------------------------------------- context

def source_digest():
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def run_context(bins, w, seed):
    def first(path, prefix):
        try:
            with open(path) as f:
                for line in f:
                    if line.startswith(prefix):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    l3 = "unknown"
    cache = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache):
        for index in sorted(os.listdir(cache)):
            try:
                with open(os.path.join(cache, index, "level")) as f:
                    if f.read().strip() == "3":
                        with open(os.path.join(cache, index, "size")) as g:
                            l3 = g.read().strip()
            except OSError:
                continue
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    built = json.loads(subprocess.run([bins["replay"], "context"],
                                      capture_output=True, text=True,
                                      check=True).stdout)
    argv = run_argv(bins, w, seed, "out")
    argv[0] = "cobra"
    return dict(nproc=len(os.sched_getaffinity(0)),
                cpu=first("/proc/cpuinfo", "model name"), l3=l3,
                compiler=built["compiler"],
                build_type=built["build_type"], avx2=built["avx2"],
                commit=commit, sources=source_digest(),
                threads_x_lanes="%dx%d" % (w["threads"], w["lanes"]),
                argv=" ".join(argv))


# ---------------------------------------------------------------- metrics

def report(name, values, unit):
    """Logs the median and, with at least 25 samples, the highest
    percentile that has ten samples beyond it; returns the median."""
    ordered = sorted(values)
    n = len(ordered)
    median = statistics.median(ordered)
    tail = "p%d %.6g" % (100 * (n - 10) // n, ordered[n - 11]) if n >= 25 \
        else "no tail percentile (fewer than 25 samples)"
    log("  %-16s %12.6g %-9s median of n=%d; %s"
        % (name, median, unit, n, tail))
    return {"value": median, "unit": unit}


def end_to_end(bins, w, args, work, reference):
    """Samples (set-up pass, measured run) for args.seconds; an operation
    is one sample, failed when any of its commands or checks fails."""
    failed = 0
    samples = []
    deadline = time.monotonic() + args.seconds
    index = 0
    while index < PROGRAM_SEEDS or time.monotonic() < deadline:
        seed = args.seed + index
        try:
            setup_s, setup_rss_mb = set_up(bins, w, seed, work)
            sample = measured_run(bins, w, seed, work, index, reference)
            sample.update(index=index, setup_s=setup_s,
                          setup_rss_mb=setup_rss_mb)
            samples.append(sample)
        except Failure as e:
            failed += 1
            log("FAIL sample %d: %s" % (index, e))
        shutil.rmtree(os.path.join(work, "out%d" % index), ignore_errors=True)
        index += 1
    used = index - index % PROGRAM_SEEDS
    samples = [s for s in samples if s["index"] < used]
    if not samples:
        return index, failed, {}
    log("end-to-end (tracing off): %d samples, the first %d (whole cycles of "
        "%d program seeds) used; %d failed (failed_frac %.4f):"
        % (index, used, PROGRAM_SEEDS, failed, failed / index))
    metrics = {
        "setup_s": report("setup_s", [s["setup_s"] for s in samples], "s"),
        "run_s": report("run_s", [s["run_s"] for s in samples], "s"),
        "rounds_per_s": report("rounds_per_s",
                               [s["rounds"] / s["run_s"] for s in samples],
                               "rounds/s"),
        "cell_max_s": report("cell_max_s",
                             [s["cell_max_s"] for s in samples], "s"),
        "setup_rss_mb": report("setup_rss_mb",
                               [s["setup_rss_mb"] for s in samples], "MB"),
        "run_rss_mb": report("run_rss_mb",
                             [s["run_rss_mb"] for s in samples], "MB"),
    }
    return index, failed, metrics


def replay_argv(bins, w, seed, trace_out):
    argv = [bins["replay"], w["experiment"], "--scale", str(w["scale"]),
            "--seed", str(program_seed(seed)), "--threads", str(w["threads"]),
            "--kernel-threads", str(w["lanes"]), "--trace-out", trace_out]
    if w["experiment"] == "workload":
        graphs = graph_list(w)
        if "bake" in w:
            graphs = [g.replace("graphs/", "replayed/") for g in graphs]
            argv += ["--bake", ",".join(w["bake"]), "--bake-dir", "replayed"]
        argv += ["--graphs", ",".join(graphs)]
    else:
        argv += ["--cells", str(w["max_cells"])]
    return argv


def traced(bins, w, args, work, reference):
    """One untraced sample, then the traced replay -> per-layer metrics.
    Two operations: the sample and the replay."""
    attempted, failed = 1, 0
    os.makedirs(os.path.join(work, "replayed"))
    trace_out = os.path.join(WORK_ROOT, "%s.trace.json" % args.workload)
    replay_out = os.path.join(work, "replay.out")
    try:
        bake_s, _ = set_up(bins, w, args.seed, work)
        if "bake" not in w:
            bake_s = 0.0
        sample = measured_run(bins, w, args.seed, work, 0, reference)
        attempted += 1
        code, replay_wall, _ = launch(
            bins, replay_argv(bins, w, args.seed, trace_out), work,
            replay_out)
        if code != 0:
            raise Failure("cobra_replay exited %d" % code)
    except Failure as e:
        log("FAIL: %s" % e)
        return attempted, failed + 1, {}
    with open(replay_out) as f:
        replay = json.loads(f.read().strip().splitlines()[-1])
    if replay["rows"] != sample["rows"][1:]:
        failed += 1
        log("FAIL: replay rows differ from the untraced CSV rows:")
        for got, want in zip(replay["rows"], sample["rows"][1:]):
            log("  replay %s\n  csv    %s" % (got, want))
    else:
        log("replay equivalence: %d summary rows equal the untraced CSV rows"
            % len(replay["rows"]))
    metrics = dict(replay["metrics"])
    metrics["runner.overhead_s"] = sample["run_s"] - sample["cell_sum_s"]
    metrics["runner.archive_bytes"] = sample["archive_bytes"]
    metrics["trace.overhead_s"] = replay_wall - (bake_s + sample["run_s"])
    log("layer self time (s), traced replay; largest: %s"
        % replay["largest_layer"])
    for name, value in sorted(replay["layer_self_s"].items(),
                              key=lambda kv: -kv[1]):
        log("  %-22s %10.6f" % (name, value))
    log("findings: pre-bake %.3f s vs run %.3f s; kernel.lane_speedup %.3f; "
        "spans written to %s" % (bake_s, sample["run_s"],
                                 metrics["kernel.lane_speedup"],
                                 os.path.relpath(trace_out, ROOT)))
    units = {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}
    out = {}
    for name, unit in units.items():
        if name not in metrics:
            failed += 1
            log("FAIL: per-layer metric %s missing" % name)
            continue
        out[name] = {"value": metrics[name], "unit": unit}
        log("  %-30s %14.6g %s" % (name, metrics[name], unit))
    return attempted, failed, out


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ------------------------------------------------------------------- main

def record_reference(bins):
    """Rewrites reference.json: one CSV per workload and program seed."""
    reference = {}
    work = os.path.join(WORK_ROOT, "record-%d" % os.getpid())
    try:
        for name, w in WORKLOADS.items():
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            set_up(bins, w, 0, work)
            reference[name] = {}
            for seed in range(PROGRAM_SEEDS):
                code, _, _ = launch(bins, run_argv(bins, w, seed, "ref"), work,
                                    os.path.join(work, "ref.log"))
                if code != w["expect_exit"]:
                    sys.exit("perfbench: %s seed %d exited %d"
                             % (name, seed, code))
                rows, _ = read_archive(w, os.path.join(work, "ref"))
                reference[name][str(program_seed(seed))] = rows
                shutil.rmtree(os.path.join(work, "ref"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")
    log("wrote %s" % os.path.relpath(REFERENCE, ROOT))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if not args.workload and not args.record_reference:
        parser.error("--workload is required")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: %s holds no COBRA sources (CMakeLists.txt, src/);"
                 " run from the root of a source checkout" % ROOT)

    nproc = len(os.sched_getaffinity(0))
    if args.workload:
        w = WORKLOADS[args.workload]
        if w["threads"] * w["lanes"] > nproc:
            sys.exit("perfbench: %s needs %d x %d threads but only %d CPUs "
                     "are available" % (args.workload, w["threads"],
                                        w["lanes"], nproc))
    bins = build(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                              or ".bench_build"))
    if args.record_reference:
        record_reference(bins)
        return

    with open(REFERENCE) as f:
        reference = json.load(f)[args.workload]
    log("context: " + json.dumps(run_context(bins, w, args.seed)))
    work = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        measure = traced if args.trace else end_to_end
        attempted, failed, metrics = measure(bins, w, args, work, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
