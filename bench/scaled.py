"""Seeded scaled family of ninebus3: k tied copies of the main system.

Each copy keeps its three white-box regions, so a k-copy case has 12k
buses, 3k regions and 6k coordination unknowns.  Copy 0 keeps the slack;
in every later copy B1 turns PV and dispatches 1.12 pu (ninebus3's slack
output is 1.116 pu), so each area covers its own load and the ties carry
little power.  A tie r=0.01, x=0.1 joins B7 of copy c-1 to B4 of copy c.
The seed scales each load, main-side and region-side, by U(0.95, 1.05).

Known failure, deliberately not generated here: an unbalanced chain, where
the later copies dispatch nothing at B1 and draw their output from the one
slack through the ties.  With k=4 and p_set 0 the monolithic power flow
still converges, with a 138 degree angle spread, but `jfng_solve` fails: its
unguarded Newton step takes the main-system power flow out of its basin
(ResidualEvaluationError).  That input belongs to the solver's robustness
tests, not to this speed workload.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

SLACK_OUTPUT_PU = 1.12
TIE_R = 0.01
TIE_X = 0.1


def _scale_loads(buses: list[dict], rng: random.Random) -> None:
    for b in buses:
        if b.get("p_load", 0.0) or b.get("q_load", 0.0):
            f = rng.uniform(0.95, 1.05)
            b["p_load"] = b.get("p_load", 0.0) * f
            b["q_load"] = b.get("q_load", 0.0) * f


def scaled_case_doc(base: dict, k: int, seed: int) -> dict:
    """Case document of k tied copies of `base` (the ninebus3 document)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    rng = random.Random(seed)
    buses, branches, machines, grbcs = [], [], [], []
    for c in range(k):
        pre = f"c{c}_"
        part = copy.deepcopy(base)
        for b in part["buses"]:
            b["id"] = pre + b["id"]
            if c > 0 and b["kind"] == "Slack":
                b["kind"] = "PV"
        for br in part["branches"]:
            br["from"], br["to"] = pre + br["from"], pre + br["to"]
        for m in part.get("machines", []):
            if c > 0 and m["bus"] == "B1":
                m["p_set"] = SLACK_OUTPUT_PU
            m["bus"] = pre + m["bus"]
        for g in part.get("grbcs", []):
            g["name"] = pre + g["name"]
            g["boundary_bus"] = pre + g["boundary_bus"]
            net = g["payload"]
            for b in net.get("buses", []):
                b["id"] = pre + b["id"]
            for br in net.get("branches", []):
                br["from"], br["to"] = pre + br["from"], pre + br["to"]
            for m in net.get("machines", []):
                m["bus"] = pre + m["bus"]
            _scale_loads(net.get("buses", []), rng)
        _scale_loads(part["buses"], rng)
        buses += part["buses"]
        branches += part["branches"]
        machines += part.get("machines", [])
        grbcs += part.get("grbcs", [])
        if c > 0:
            branches.append({"from": f"c{c - 1}_B7", "to": f"{pre}B4",
                             "r": TIE_R, "x": TIE_X})
    return {"base_mva": base["base_mva"], "frequency_hz": base["frequency_hz"],
            "buses": buses, "branches": branches, "machines": machines,
            "grbcs": grbcs}


def write_scaled_case(base_path: Path, out_path: Path, k: int, seed: int) -> Path:
    base = json.loads(Path(base_path).read_text())
    doc = scaled_case_doc(base, k, seed)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return out_path
