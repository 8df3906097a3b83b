"""adiaspec benchmark.

    python3 perfbench/run.py --workload verify|spectrum|cocycle --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  The seed generates the
workload's inputs (workloads.py); the program is then driven only from
outside, through generated INI files and CLI argv, with one fresh
interpreter per CLI invocation (invoke.py).  A pass is the workload's
sequence of invocations; passes repeat while another one fits in S
seconds (at least one runs).  Every pass's outputs are checked and must
be byte-identical to the first pass's.

Times are nominal: measured with the clock of gauge.py, which runs at the
speed of an idle core of the reference host however busy the host is.

--trace 0 prints the end-to-end metrics, each the median over passes:
  nominal_wall_s  summed main() time of the pass's invocations, set-up
                  excluded
  setup_s         import adiaspec.cli + load_config of one interpreter
                  (median over at least MIN_SETUP_SAMPLES interpreters),
                  times the number of interpreters in a pass
  peak_rss_mib    largest peak resident memory among the pass's processes
--trace 1 runs one untraced pass, then traced passes, and prints the
per-layer metrics of metrics.PER_LAYER (times as medians over traced
passes, counts from the first traced pass; counts must repeat exactly).
``cli.wall_s`` is the raw wall time of the untraced pass's main() calls,
and ``gauge.speed`` its nominal time over that.

The last line of standard output is one JSON object with the keys
correct, attempted, failed (invocations that exited non-zero or failed a
check) and metrics.  Inputs, results and spans are kept under
.bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import metrics
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_SETUP_SAMPLES = 5
RUN_LIMIT_S = 150.0  # never start a pass that could end after this
INVOCATION_TIMEOUT_S = 170.0


def _invoke(mode: str, args: list[str], cwd: str, report: str, env: dict) -> dict:
    """One fresh interpreter; returns its report (rc -1 if it wrote none)."""
    cmd = [sys.executable, os.path.join(HERE, "invoke.py"), report, mode, "--", *args]
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=INVOCATION_TIMEOUT_S)
        log = proc.stdout + proc.stderr
    except subprocess.TimeoutExpired as exc:
        log = f"timed out after {exc.timeout} s"
    with open(report + ".log", "w") as fh:
        fh.write(log)
    try:
        with open(report) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {"rc": -1, "log": log[-2000:]}


def _wall(rep: dict) -> float:
    """Nominal main() time of one invocation, less load_config."""
    return rep.get("main_s", 0.0) - rep.get("load_config_s", 0.0)


def _setup(rep: dict) -> float:
    """Nominal import + load_config time of one interpreter."""
    return rep["import_s"] + rep["load_config_s"]


def _owner(filename: str) -> str:
    """The CLI command that writes an output file."""
    return "geometry" if filename.startswith("branch_") else filename.split(".")[0]


class Run:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.work = os.path.join(ROOT, ".bench_work",
                                 f"{workload}-seed{seed}-trace{int(trace)}")
        shutil.rmtree(self.work, ignore_errors=True)
        self.inputs_dir = os.path.join(self.work, "inputs")
        os.makedirs(self.inputs_dir)
        self.spec = workloads.generate(workload, seed)
        self.ini = dict(self.spec["ini"])
        for name, text in self.ini.items():
            self._write_input(name, text)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        self.passes: list[dict] = []
        self.answers: dict[str, float] = {}
        self.errors: list[str] = []

    def _write_input(self, name: str, text: str) -> None:
        with open(os.path.join(self.inputs_dir, name), "w") as fh:
            fh.write(text)

    def _config(self, name: str, pass_out: str) -> str:
        if name == "{stokes}":
            name = "stokes.ini"
            if name not in self.ini:
                self.ini[name] = workloads.stokes_ini(
                    self.ini["spectrum.ini"],
                    os.path.join(pass_out, "geometry.json"), self.seed)
                self._write_input(name, self.ini[name])
        return name

    def run_pass(self, traced: bool) -> dict:
        index = len(self.passes)
        pdir = os.path.join(self.work, f"pass{index}")
        out = os.path.join(pdir, "out")
        os.makedirs(out)
        invocations = []
        for i, argv in enumerate(self.spec["argv"]):
            command, config = argv[0], self._config(argv[2], out)
            args = [command, "--config", os.path.join("..", "inputs", config),
                    "--out", "out", *argv[3:]]
            rep = _invoke("trace" if traced else "run", args, pdir,
                          os.path.join(pdir, f"report{i}.json"), self.env)
            if rep["rc"] == 0:
                errors, answers, wrapped = workloads.check(command, out,
                                                           self.ini[config])
            else:
                errors, answers, wrapped = [f"{command}: exit code {rep['rc']}"], {}, 0
            rep.update(command=command, errors=errors, nonstrict_csv_fields=wrapped)
            self.answers.update({f"{command}.{k}": v for k, v in answers.items()})
            invocations.append(rep)
            if errors:
                break  # later commands may depend on this one's output
        digests = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        if self.passes:
            first = self.passes[0]["digests"]
            for rep in invocations:
                mine = {n: d for n, d in digests.items() if _owner(n) == rep["command"]}
                theirs = {n: d for n, d in first.items() if _owner(n) == rep["command"]}
                if mine != theirs:
                    rep["errors"].append(f"{rep['command']}: outputs differ from pass 0")
        record = {
            "traced": traced,
            "invocations": invocations,
            "digests": digests,
            "output_bytes": sum(os.path.getsize(os.path.join(out, n)) for n in digests),
            "nominal_wall_s": sum(_wall(r) for r in invocations),
            "raw_wall_s": sum(r.get("raw_main_s", 0.0) for r in invocations),
            "peak_rss_mib": max(r.get("peak_rss_mib", 0.0) for r in invocations),
        }
        self.passes.append(record)
        return record

    def failed(self) -> int:
        return sum(1 for p in self.passes for r in p["invocations"] if r["errors"])

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            begin = time.perf_counter()
            traced = self.trace and bool(self.passes)
            self.run_pass(traced)
            took = time.perf_counter() - begin
            elapsed = time.perf_counter() - start
            if self.failed():
                return
            if self.trace and not any(p["traced"] for p in self.passes):
                continue
            if elapsed + took > min(seconds, RUN_LIMIT_S):
                return

    def setup_samples(self) -> list[float]:
        samples = [_setup(r) for p in self.passes for r in p["invocations"]
                   if "import_s" in r]
        probe_dir = os.path.join(self.work, "setup")
        os.makedirs(probe_dir, exist_ok=True)
        config = os.path.join("..", "inputs", next(iter(self.spec["ini"])))
        while len(samples) < MIN_SETUP_SAMPLES:
            rep = _invoke("setup", [config], probe_dir,
                          os.path.join(probe_dir, f"report{len(samples)}.json"),
                          self.env)
            if rep["rc"] != 0:
                self.errors.append("set-up probe failed")
                break
            samples.append(_setup(rep))
        return samples

    def end_to_end(self) -> dict[str, float]:
        plain = [p for p in self.passes if not p["traced"]]
        return {
            "nominal_wall_s": statistics.median(p["nominal_wall_s"] for p in plain),
            "setup_s": statistics.median(self.setup_samples()) * len(self.spec["argv"]),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
        }

    def per_layer(self) -> dict[str, float]:
        traced = [p for p in self.passes if p["traced"]]
        rows = []
        for p in traced:
            row = metrics.layer_metrics(p["invocations"])
            row["cli.output_bytes"] = float(p["output_bytes"])
            row["cli.nonstrict_csv_fields"] = float(
                sum(r["nonstrict_csv_fields"] for r in p["invocations"]))
            row["cocycle.direct_lyapunov.theta_rel_err"] = float(
                self.answers.get("verify.theta_rel_err", 0.0))
            first = self.passes[0]
            row["trace.overhead_s"] = p["nominal_wall_s"] - first["nominal_wall_s"]
            row["cli.wall_s"] = first["raw_wall_s"]
            row["gauge.speed"] = (first["nominal_wall_s"] / first["raw_wall_s"]
                                  if first["raw_wall_s"] else 0.0)
            rows.append(row)
        if not rows:  # the untraced pass failed; report zeros
            rows = [{name: 0.0 for name, _, _ in metrics.PER_LAYER}]
        result = {}
        for name, unit, _ in metrics.PER_LAYER:
            values = [row[name] for row in rows]
            if unit in metrics.EXACT_UNITS:
                if len(set(values)) > 1:
                    self.errors.append(f"{name} differs between traced passes: {values}")
                result[name] = values[0]
            else:
                result[name] = statistics.median(values)
        return result

    def save(self, result: dict) -> None:
        with gzip.open(os.path.join(self.work, "spans.jsonl.gz"), "wt") as fh:
            for k, p in enumerate(self.passes):
                for i, rep in enumerate(p["invocations"]):
                    for span in rep.pop("spans", []):
                        fh.write(json.dumps([k, i, *span]) + "\n")
        doc = {"workload": self.workload, "seed": self.seed, "trace": self.trace,
               "inputs": {"ini": self.ini, "argv": self.spec["argv"]},
               "passes": self.passes, "answers": self.answers,
               "errors": self.errors, "result": result}
        with open(os.path.join(self.work, "results.json"), "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        for k in range(1, len(self.passes)):
            shutil.rmtree(os.path.join(self.work, f"pass{k}"), ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "adiaspec", "cli.py")):
        print(f"error: no adiaspec sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, bool(args.trace))
    run.measure(args.seconds)
    attempted = sum(len(p["invocations"]) for p in run.passes)
    failed = run.failed()
    if failed == 0 and args.seed == workloads.DEFAULT_SEED:
        tol_ini = next(iter(run.spec["ini"].values()))
        run.errors += workloads.compare_reference(args.workload, run.answers, tol_ini)
    values = run.per_layer() if run.trace else run.end_to_end()
    units = {name: unit for name, unit, *_ in metrics.END_TO_END + metrics.PER_LAYER}
    result = {
        "correct": failed == 0 and not run.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    run.save(result)
    for p in run.passes:
        for rep in p["invocations"]:
            for err in rep["errors"]:
                print(err, file=sys.stderr)
    for err in run.errors:
        print(err, file=sys.stderr)
    wrapped = sum(r["nonstrict_csv_fields"] for r in run.passes[0]["invocations"])
    if wrapped:
        print(f"known defect: {wrapped} CSV fields per pass written as np.float64(...)",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
