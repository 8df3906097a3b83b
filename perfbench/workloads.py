"""Seeded inputs and seed-independent output checks for each workload.

Every workload starts from ``reference.ini``, a verbatim copy of the
shipped reference experiment, and changes only the keys named below.
The default seed keeps the reference values of every seeded key.

* verify   -- ``adiaspec verify --threads 1``; the seed sets the phase z.
              The trajectory is shortened to VERIFY_PERIODS periods per
              epsilon cell (400 in the reference), so that a pass takes
              ~15 s instead of ~53 s.
* spectrum -- ``geometry``, ``actions``, ``stokes`` on an 11-point energy
              grid inside [4.1, 4.7]; the seed sets the grid ends and the
              offsets of the Stokes start points below the branch points.
* cocycle  -- ``adiaspec cocycle`` on the reference Herman family with
              N = COCYCLE_N; the seed sets the Herman perturbation seed
              and z0.

Each check returns ``(errors, answers, wrapped)``: a list of problems, a
dict of named numbers that, on the default seed, are compared with the
values in ``reference.json`` within the tolerances the config declares,
and the number of CSV fields written as ``np.float64(<number>)``.

Known defect at the commit that added this benchmark: the branch and
Stokes CSVs write numpy scalars through ``repr``, which numpy >= 2 renders
as ``np.float64(0.38...)``.  Such fields are still read as numbers, so the
other checks can run, and their count is reported as the per-layer metric
``cli.nonstrict_csv_fields``; any other non-numeric field is an error.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import re

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 0
VERIFY_PERIODS = 100
SPECTRUM_ENERGIES = 11
COCYCLE_N = 40000
HERMAN_C = 2.0  # constant of the Herman lower bound, as in criterion 7
WORKLOADS = ("verify", "spectrum", "cocycle")

# answer name prefix -> [tolerances] key used to compare it with the record
_TOLERANCE_OF = {"energy": "edge", "zeta": "edge", "S": "quadrature",
                 "theta_asym": "quadrature", "theta_num": "ode",
                 "theta": "ode"}


def reference_text() -> str:
    with open(os.path.join(HERE, "reference.ini")) as fh:
        return fh.read()


def _set(text: str, key: str, value) -> str:
    pattern = re.compile(rf"^{re.escape(key)} = .*$", re.M)
    if len(pattern.findall(text)) != 1:
        raise ValueError(f"key {key!r} is not unique in reference.ini")
    return pattern.sub(f"{key} = {value}", text)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def generate(workload: str, seed: int) -> dict:
    """INI files (name -> text) and CLI argv lists for one pass.

    ``{stokes}`` in an argv list names the Stokes config, which is written
    from the pass's geometry output by ``stokes_ini``.
    """
    ref = reference_text()
    rng = _rng(workload, seed)
    default = seed == DEFAULT_SEED
    if workload == "verify":
        z = 0.0 if default else round(rng.random(), 6)
        ini = _set(_set(ref, "periods", VERIFY_PERIODS), "z", z)
        return {"ini": {"verify.ini": ini},
                "argv": [["verify", "--config", "verify.ini", "--threads", "1"]]}
    if workload == "spectrum":
        lo, hi = (4.1, 4.7) if default else (round(4.1 + 0.1 * rng.random(), 6),
                                             round(4.7 - 0.1 * rng.random(), 6))
        ini = _set(ref, "energy", f"auto\nenergy_grid = {lo} {hi} {SPECTRUM_ENERGIES}")
        return {"ini": {"spectrum.ini": ini},
                "argv": [["geometry", "--config", "spectrum.ini"],
                         ["actions", "--config", "spectrum.ini"],
                         ["stokes", "--config", "{stokes}"]]}
    if workload == "cocycle":
        hseed, z = (7151, 0.0) if default else (rng.randrange(1, 2**31),
                                                round(rng.random(), 6))
        ini = _set(_set(_set(ref, "N", COCYCLE_N), "seed", hseed), "z", z)
        return {"ini": {"cocycle.ini": ini},
                "argv": [["cocycle", "--config", "cocycle.ini"]]}
    raise ValueError(f"unknown workload {workload!r}")


def stokes_ini(spectrum_ini: str, geometry_json: str, seed: int) -> str:
    """The spectrum config plus one Stokes start below each left branch point.

    The default seed starts 0.02 below each point, where the program puts
    its own default starts; other seeds move the start by up to 0.01 along
    the real axis and 0.01 to 0.03 below it.
    """
    with open(geometry_json) as fh:
        geom = json.load(fh)["result"]["geometry"]
    rng = _rng("stokes", seed)
    lines = []
    for bp in geom["branch_points"]:
        if bp["side"] != "-":
            continue
        if seed == DEFAULT_SEED:
            dre, dim = 0.0, 0.02
        else:
            dre, dim = 0.02 * rng.random() - 0.01, 0.01 + 0.02 * rng.random()
        lines.append(f"    {bp['zeta'] + dre!r} {-dim!r}")
    return spectrum_ini + "\n[stokes]\nstarts =\n" + "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reading outputs strictly


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=_reject_constant)["result"]


_WRAPPED = re.compile(r"np\.float64\((.*)\)")


def read_csv(path: str, text_columns=()) -> tuple[list[dict], int]:
    """Rows of a CSV written by the program, after its '# ' header lines,
    with every field outside ``text_columns`` read as a float; also the
    number of fields written as ``np.float64(...)``."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("# ")]
    rows = list(csv.reader(lines))
    header, body = rows[0], rows[1:]
    out, wrapped = [], 0
    for row in body:
        if len(row) != len(header):
            raise ValueError(f"{path}: row of {len(row)} fields, header has {len(header)}")
        values = {}
        for key, field in zip(header, row):
            if key not in text_columns:
                match = _WRAPPED.fullmatch(field)
                if match:
                    wrapped += 1
                    field = match.group(1)
                field = float(field)
            values[key] = field
        out.append(values)
    return out, wrapped


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


# ---------------------------------------------------------------------------
# checks, one per CLI invocation


def check(command: str, out: str, ini_text: str) -> tuple[list[str], dict, int]:
    try:
        return _CHECKS[command](out, ini_text)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{command}: unreadable output: {type(exc).__name__}: {exc}"], {}, 0


def _check_verify(out, ini_text):
    doc = read_json(os.path.join(out, "verify.json"))
    rows, wrapped = read_csv(os.path.join(out, "verify.csv"))
    errors = []
    cells = doc["cells"]
    rel = [c["rel_error"] for c in cells]
    if doc["verdict"] != "PASS":
        errors.append(f"verify: verdict {doc['verdict']}")
    if not all(_finite(c["theta_num"]) and c["theta_num"] > 0 for c in cells):
        errors.append("verify: a direct exponent is not positive")
    if any(b > a * (1 + 1e-12) for a, b in zip(rel, rel[1:])):
        errors.append(f"verify: rel errors increase: {rel}")
    if not rel[-1] <= 0.20:
        errors.append(f"verify: final rel error {rel[-1]} > 0.20")
    if len(rows) != len(cells):
        errors.append("verify: CSV and JSON disagree on the cell count")
    answers = {"energy": doc["energy"], "theta_asym": doc["theta_asym"],
               "theta_rel_err": rel[-1]}
    for c in cells:
        answers[f"theta_num[{c['epsilon']!r}]"] = c["theta_num"]
    return errors, answers, wrapped


def _check_geometry(out, ini_text):
    doc = read_json(os.path.join(out, "geometry.json"))
    errors, wrapped = [], 0
    if not doc["window_report"]["all_ok"]:
        errors.append("geometry: window report not all ok")
        return errors, {}, 0
    geom = doc["geometry"]
    zetas = {(bp["edge"], bp["side"]): bp["zeta"] for bp in geom["branch_points"]}
    for band in geom["pre_bands"]:
        label = band["label"]  # "z<j><side>"
        j, side = int(label[1:-1]), label[-1]
        name = label.replace("+", "p").replace("-", "m")
        rows, n = read_csv(os.path.join(out, f"branch_{name}.csv"))
        wrapped += n
        ends = (rows[0]["zeta"], rows[-1]["zeta"])
        if ends != (zetas[(2 * j - 1, side)], zetas[(2 * j, side)]):
            errors.append(f"geometry: branch {label} endpoints {ends} "
                          f"differ from its branch points")
    answers = {"energy": geom["energy"]}
    for (edge, side), z in sorted(zetas.items()):
        answers[f"zeta[{edge}{side}]"] = z
    return errors, answers, wrapped


def _check_actions(out, ini_text):
    rows, wrapped = read_csv(os.path.join(out, "actions.csv"),
                             text_columns=("gap_label",))
    errors = []
    if not rows:
        errors.append("actions: no rows")
    answers = {}
    for row in rows:
        s, theta = row["S"], row["theta_asym"]
        if not (math.isfinite(s) and s > 0 and math.isfinite(theta) and theta > 0):
            errors.append(f"actions: non-positive S or theta_asym in {row}")
        answers[f"S[{row['E']!r},{row['gap_label']}]"] = s
        answers[f"theta_asym[{row['E']!r}]"] = theta
    return errors, answers, wrapped


def _check_stokes(out, ini_text):
    doc = read_json(os.path.join(out, "stokes.json"))
    rows, wrapped = read_csv(os.path.join(out, "stokes.csv"))
    errors = []
    starts = ini_text.split("starts =\n", 1)[1].strip().splitlines()
    if len(doc["traces"]) != len(starts):
        errors.append("stokes: trace count differs from start count")
    for tr in doc["traces"]:
        if not _finite(tr["level_drift"]):
            errors.append(f"stokes: trace {tr['trace']} level drift not finite")
    if not rows:
        errors.append("stokes: no trace nodes")
    return errors, {"energy": doc["energy"]}, wrapped


def _check_cocycle(out, ini_text):
    doc = read_json(os.path.join(out, "cocycle.json"))
    params = doc["parameters"]
    lam = complex(*params["lam"])
    lower = math.log(abs(lam)) - HERMAN_C * params["m_amp"]
    errors = []
    if not (_finite(doc["theta"]) and doc["theta"] > lower):
        errors.append(f"cocycle: theta {doc['theta']} not above Herman's bound {lower}")
    return errors, {"theta": doc["theta"]}, 0


_CHECKS = {"verify": _check_verify, "geometry": _check_geometry,
           "actions": _check_actions, "stokes": _check_stokes,
           "cocycle": _check_cocycle}


def tolerances(ini_text: str) -> dict:
    return {key: float(re.search(rf"^{key} = (.*)$", ini_text, re.M).group(1))
            for key in ("edge", "quadrature", "ode")}


def compare_reference(workload: str, answers: dict, ini_text: str) -> list[str]:
    """Differences from the answers recorded for the default seed.

    ``answers`` maps "command.name" to a number, as collected by run.py.
    """
    with open(os.path.join(HERE, "reference.json")) as fh:
        recorded = json.load(fh)[workload]
    tol = tolerances(ini_text)
    errors = []
    if set(recorded) != set(answers):
        errors.append(f"{workload}: answers {sorted(set(recorded) ^ set(answers))} "
                      f"missing or unexpected")
    for name in sorted(set(recorded) & set(answers)):
        kind = _TOLERANCE_OF.get(name.split(".", 1)[1].split("[")[0])
        if kind is None:
            continue
        ref, got = recorded[name], answers[name]
        if not abs(got - ref) <= tol[kind] * max(1.0, abs(ref)):
            errors.append(f"{workload}: {name} = {got!r}, recorded {ref!r} "
                          f"(tolerance {kind} {tol[kind]})")
    return errors
