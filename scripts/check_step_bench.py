#!/usr/bin/env python3
"""Regression-threshold checks for the committed benchmark baselines.

Suites, selected with --suite (default: step). step, bips and graph_io
each guard one fast-vs-slow pair that encodes the suite's headline claim;
the others are described with their semantics:

  step      bench_results/BENCH_step.json, produced by micro_cobra. The
            guarded pair is dense vs sparse for the steady-state COBRA
            round on the largest b = 2 random-regular graph
            (BM_CobraStep, regular_262144_r8).
  bips      bench_results/BENCH_bips.json, produced by micro_bips. The
            guarded pair is dense vs sparse for the
            full-infection-trajectory BIPS round (BM_BipsRound,
            regular_65536_r8).
  graph_io  bench_results/BENCH_graph_io.json, produced by
            micro_graphgen. The guarded pair is mmap_open vs generate for
            regular_262144_r8 (BM_GraphIo*): opening a pre-baked .cgr
            must beat regenerating the graph in-process, the point of the
            out-of-core format.
  metrics   bench_results/BENCH_metrics.json, produced by micro_metrics.
            Inverted (overhead) semantics: the off-mode dense step
            (BM_MetricsStep, regular_262144_r8/dense/off) must stay
            within --max-overhead (default 0.02 = +2%) of the
            BM_CobraStep dense entry in the step baseline passed via
            --step-baseline — compiled-in telemetry behind a null check
            must be free when the mode is off. Both files must have been
            generated on the same machine (regenerate them together).
  step_threads / bips_threads
            The in-round lane-scaling axes (BM_CobraStepThreads /
            BM_BipsRoundThreads, dense engine on the largest graph). Two
            claims: (a) the lane machinery at kernel_threads = 1 adds at
            most --max-overhead (default 0.02 = +2%) over the plain
            serial dense entry in the same file, always enforced; (b)
            threads_4 is at least --min-speedup times faster than
            threads_1 — enforced only when the file's context.num_cpus
            shows the generating machine had >= 4 CPUs, and loudly
            SKIPPED otherwise (a 1-CPU box cannot measure scaling; the
            overhead ceiling is the portable half of the gate).
  spectral  bench_results/BENCH_spectral.json, produced by micro_spectral.
            Every BM_Lanczos entry must have converged (its lambda_err
            counter <= 1e-8, the solver's residual tolerance), and its
            time per Lanczos step (real_time / steps) must stay within 8x
            of BM_NormalizedMatvec on the same graph. Both sides of that
            ratio come from one file, so it holds across machines; a
            re-orthogonalisation against the whole basis, O(k n) per step,
            would cost >= 50x at k ~ 200. Runs in both modes (the second
            file, if given, is ignored); CI checks the committed file and
            a fresh run with the same bound.

Two modes:

  check_step_bench.py [--suite S] BASELINE.json
      Validates the committed baseline: the suite's fast variant must be
      at least --min-speedup (default 2.0) times faster than its slow
      variant on the guarded pair (runs in ctest as the
      `bench_*_baseline_check` tests).

  check_step_bench.py [--suite S] BASELINE.json FRESH.json [--tolerance 0.30]
      Compares a fresh benchmark JSON against the baseline: any shared
      benchmark (matched by family and label, see regression_key) whose
      per-iteration real_time regressed by more than the tolerance fails
      the check. Only meaningful on hardware comparable to the baseline's; CI uses the single-file mode with a reduced
      --min-speedup instead, so heterogeneous runners compare engine
      ratios measured on the same box.

Regenerate the baselines with:
  ./build/bench/micro_cobra --benchmark_out=bench_results/BENCH_step.json \
      --benchmark_out_format=json
  ./build/bench/micro_bips --benchmark_out=bench_results/BENCH_bips.json \
      --benchmark_out_format=json
  ./build/bench/micro_graphgen \
      --benchmark_filter='BM_GraphIo|BM_GenRandomRegular/65536|BM_GenComplete/(2048|4096)' \
      --benchmark_out=bench_results/BENCH_graph_io.json \
      --benchmark_out_format=json
  ./build/bench/micro_metrics \
      --benchmark_out=bench_results/BENCH_metrics.json \
      --benchmark_out_format=json
  ./build/bench/micro_spectral \
      --benchmark_out=bench_results/BENCH_spectral.json \
      --benchmark_out_format=json
"""

import argparse
import json
import sys

# The guarded (bench prefix, graph label, slow/fast variant) per suite;
# the micro_* binaries keep these labels stable. Guarded pairs must share
# one time unit — the comparison uses real_time verbatim.
SUITES = {
    "step": {"prefix": "BM_CobraStep/", "graph": "regular_262144_r8",
             "slow": "sparse", "fast": "dense"},
    "bips": {"prefix": "BM_BipsRound/", "graph": "regular_65536_r8",
             "slow": "sparse", "fast": "dense"},
    "graph_io": {"prefix": "BM_GraphIo", "graph": "regular_262144_r8",
                 "slow": "generate", "fast": "mmap_open"},
    # The metrics suite is handled by check_metrics_overhead (inverted
    # semantics: an upper bound on a ratio, not a lower bound).
    "metrics": {"prefix": "BM_MetricsStep/", "graph": "regular_262144_r8"},
    # The *_threads suites are handled by check_thread_scaling: an
    # overhead ceiling against the serial entry plus a CPU-gated
    # threads_4-vs-threads_1 speedup floor.
    "step_threads": {"prefix": "BM_CobraStepThreads/",
                     "graph": "regular_262144_r8",
                     "serial_prefix": "BM_CobraStep/",
                     "serial_label": "regular_262144_r8/dense"},
    "bips_threads": {"prefix": "BM_BipsRoundThreads/",
                     "graph": "regular_65536_r8",
                     "serial_prefix": "BM_BipsRound/",
                     "serial_label": "regular_65536_r8/dense"},
    # Handled by check_spectral: per-entry convergence and a same-file
    # step-cost ratio, no slow/fast pair.
    "spectral": {"prefix": "BM_Lanczos/",
                 "matvec_prefix": "BM_NormalizedMatvec/"},
}

THREAD_SUITES = ("step_threads", "bips_threads")
SPECTRAL_RESIDUAL_TOL = 1e-8  # spectral::kLambdaResidualTol
SPECTRAL_MAX_STEP_RATIO = 8.0  # Lanczos step / matvec, same graph

# Google Benchmark time units, in nanoseconds.
TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def real_time_ns(bench):
    return bench["real_time"] * TIME_UNIT_NS[bench.get("time_unit", "ns")]


def check_spectral(benches):
    """Every Lanczos solve converged, and a step costs a few matvecs."""
    s = SUITES["spectral"]
    lanczos = [b for b in benches if b["name"].startswith(s["prefix"])]
    if not lanczos:
        sys.exit(f"missing {s['prefix']}* entries")
    failures = []
    for b in lanczos:
        label = b.get("label", "")
        matvec = step_time_ns(benches, s["matvec_prefix"], label)
        err, steps = b.get("lambda_err"), b.get("steps")
        if err is None or steps is None or steps <= 0:
            sys.exit(f"{b['name']} [{label}]: missing lambda_err/steps "
                     f"counters")
        ratio = real_time_ns(b) / steps / matvec
        print(f"[spectral] {label}: {steps:.0f} steps, lambda_err "
              f"{err:.2e} (allowed <= {SPECTRAL_RESIDUAL_TOL:.0e}), step "
              f"{real_time_ns(b) / steps / 1e3:.1f} us = {ratio:.2f}x matvec "
              f"{matvec / 1e3:.1f} us (allowed <= "
              f"{SPECTRAL_MAX_STEP_RATIO:.0f}x)")
        if err > SPECTRAL_RESIDUAL_TOL:
            failures.append(f"{label}: lambda_err {err:.2e} > "
                            f"{SPECTRAL_RESIDUAL_TOL:.0e} (not converged)")
        if ratio > SPECTRAL_MAX_STEP_RATIO:
            failures.append(f"{label}: Lanczos step {ratio:.2f}x matvec > "
                            f"{SPECTRAL_MAX_STEP_RATIO:.0f}x")
    if failures:
        sys.exit("FAIL: " + "; ".join(failures))
    print("OK")
SCALING_THREADS = 4  # the gated lane count of the *_threads suites


def check_thread_scaling(benches, context, suite, min_speedup,
                         max_overhead):
    """Lane machinery must be free at 1 lane and scale when CPUs exist."""
    s = SUITES[suite]
    serial = step_time(benches, s["serial_prefix"], s["serial_label"])
    t1 = step_time(benches, s["prefix"], f"{s['graph']}/dense/threads_1")
    overhead = t1 / serial - 1.0
    print(
        f"[{suite}] {s['graph']} dense: serial {serial:.0f}, "
        f"threads_1 {t1:.0f}, overhead {overhead:+.1%} "
        f"(allowed <= +{max_overhead:.0%})"
    )
    for threads in (2, SCALING_THREADS, 8):
        label = f"{s['graph']}/dense/threads_{threads}"
        for b in benches:
            if b["name"].startswith(s["prefix"]) and b.get("label") == label:
                print(f"[{suite}]   threads_{threads}: "
                      f"{b['real_time']:.0f} "
                      f"({t1 / b['real_time']:.2f}x threads_1)")
    if overhead > max_overhead:
        sys.exit(f"FAIL: single-thread lane overhead {overhead:+.1%} "
                 f"> +{max_overhead:.0%}")
    num_cpus = context.get("num_cpus", 0)
    if num_cpus < SCALING_THREADS:
        print(f"[{suite}] SKIPPED scaling floor: generating machine had "
              f"{num_cpus} CPU(s) < {SCALING_THREADS} — a box that cannot "
              f"run {SCALING_THREADS} lanes in parallel cannot measure "
              f"their speedup (the overhead ceiling above still holds)")
        print("OK")
        return
    tN = step_time(benches, s["prefix"],
                   f"{s['graph']}/dense/threads_{SCALING_THREADS}")
    speedup = t1 / tN
    print(
        f"[{suite}] threads_{SCALING_THREADS} speedup over threads_1: "
        f"{speedup:.2f}x (required >= {min_speedup:.2f}x, "
        f"num_cpus {num_cpus})"
    )
    if speedup < min_speedup:
        sys.exit(f"FAIL: {SCALING_THREADS}-lane speedup {speedup:.2f}x "
                 f"< {min_speedup}x")
    print("OK")


def check_metrics_overhead(benches, step_benches, max_overhead):
    """Off-mode telemetry must be free on the dense steady-state step."""
    off = step_time(benches, "BM_MetricsStep/",
                    "regular_262144_r8/dense/off")
    base = step_time(step_benches, "BM_CobraStep/",
                     "regular_262144_r8/dense")
    overhead = off / base - 1.0
    print(
        f"[metrics] regular_262144_r8 dense step: off-mode {off:.0f}, "
        f"step baseline {base:.0f}, overhead {overhead:+.1%} "
        f"(allowed <= +{max_overhead:.0%})"
    )
    for mode in ("summary", "rounds"):
        t = step_time(benches, "BM_MetricsStep/",
                      f"regular_262144_r8/dense/{mode}")
        print(f"[metrics]   {mode} mode: {t:.0f} ({t / off:.2f}x off)")
    if overhead > max_overhead:
        sys.exit(f"FAIL: disabled-mode telemetry overhead {overhead:+.1%} "
                 f"> +{max_overhead:.0%}")
    print("OK")


def load_doc(path):
    """Returns (iteration benchmarks, context dict) of a benchmark JSON."""
    with open(path) as f:
        doc = json.load(f)
    benches = [
        b
        for b in doc.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"
    ]
    if not benches:
        sys.exit(f"{path}: no benchmark entries found")
    return benches, doc.get("context", {})


def load(path):
    return load_doc(path)[0]


def find_bench(benches, prefix, label):
    for b in benches:
        if b["name"].startswith(prefix) and b.get("label") == label:
            return b
    sys.exit(f"missing {prefix}* entry labelled {label!r}")


def step_time(benches, prefix, label):
    return find_bench(benches, prefix, label)["real_time"]


def step_time_ns(benches, prefix, label):
    return real_time_ns(find_bench(benches, prefix, label))


def check_baseline(benches, suite, min_speedup):
    s = SUITES[suite]
    slow = step_time(benches, s["prefix"], f"{s['graph']}/{s['slow']}")
    fast = step_time(benches, s["prefix"], f"{s['graph']}/{s['fast']}")
    speedup = slow / fast
    print(
        f"[{suite}] {s['graph']}: {s['slow']} {slow:.0f}, "
        f"{s['fast']} {fast:.0f}, speedup {speedup:.2f}x "
        f"(required >= {min_speedup:.2f}x)"
    )
    if speedup < min_speedup:
        sys.exit(f"FAIL: {s['fast']} speedup over {s['slow']} "
                 f"{speedup:.2f}x < {min_speedup}x")
    print("OK")


def regression_key(bench):
    """A labelled entry is identified by its benchmark family and label,
    not by its argument indices: the labels name the graph and engine and
    stay stable when an index range changes (BENCH_step.json and
    BENCH_bips.json still number engines from a retired 0 = reference)."""
    label = bench.get("label", "")
    if label:
        return (bench["name"].split("/")[0], label)
    return (bench["name"], "")


def check_regression(baseline, fresh, tolerance):
    base_by_key = {regression_key(b): b for b in baseline}
    failures = []
    compared = 0
    for b in fresh:
        key = regression_key(b)
        if key not in base_by_key:
            continue
        compared += 1
        base_time = base_by_key[key]["real_time"]
        ratio = b["real_time"] / base_time
        if ratio > 1.0 + tolerance:
            failures.append(f"{b['name']} [{b.get('label', '')}]: "
                            f"{ratio:.2f}x baseline")
    print(f"compared {compared} benchmarks against baseline "
          f"(tolerance +{tolerance:.0%})")
    if compared == 0:
        sys.exit("FAIL: no overlapping benchmarks between the two files")
    if failures:
        print("\n".join("REGRESSED: " + f for f in failures))
        sys.exit(f"FAIL: {len(failures)} benchmark(s) regressed")
    print("OK")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_*.json")
    parser.add_argument("fresh", nargs="?",
                        help="fresh benchmark JSON to compare (optional)")
    parser.add_argument("--suite", choices=sorted(SUITES), default="step",
                        help="which guarded pair to validate (default step)")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required fast/slow speedup (default 2.0)")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed per-benchmark slowdown vs baseline "
                             "(default 0.30 = +30%%)")
    parser.add_argument("--step-baseline",
                        help="BENCH_step.json to compare against "
                             "(metrics suite only)")
    parser.add_argument("--max-overhead", type=float, default=0.02,
                        help="allowed off-mode overhead over the step "
                             "baseline (metrics suite; default 0.02 = +2%%)")
    args = parser.parse_args()

    baseline, context = load_doc(args.baseline)
    if args.suite == "metrics":
        if args.step_baseline is None:
            sys.exit("--suite metrics requires --step-baseline "
                     "BENCH_step.json")
        check_metrics_overhead(baseline, load(args.step_baseline),
                               args.max_overhead)
    elif args.suite == "spectral":
        check_spectral(baseline)
    elif args.suite in THREAD_SUITES:
        check_thread_scaling(baseline, context, args.suite,
                             args.min_speedup, args.max_overhead)
    elif args.fresh is None:
        check_baseline(baseline, args.suite, args.min_speedup)
    else:
        check_regression(baseline, load(args.fresh), args.tolerance)


if __name__ == "__main__":
    main()
