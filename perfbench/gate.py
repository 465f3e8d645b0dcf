"""Correctness gate: a run's outputs must equal the recorded references.

Reports are byte-stable for a given config, so every observable is compared
exactly; a one-ulp change in ``y0`` fails the gate. The body hash covers every
other number in the report body.
"""

import hashlib
import json


def body_hash(body):
    """sha256 of the report body in canonical JSON (sorted keys)."""
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def observe(exit_code, body):
    """The observables the gate compares, from one report body."""
    obs = {"exit_code": exit_code, "body_sha256": body_hash(body)}
    command = body["command"]
    if command == "ladder":
        levels = body["ladder"]["levels"]
        obs["y0"] = levels[-1]["y0"]
        obs["levels"] = [[lev["n"], lev["y0"], lev["converged"]]
                         for lev in levels]
        obs["cauchy"] = body["ladder"]["cauchy"]
    else:
        obs["y0"] = body["y0"]
    if command == "solve":
        obs["converged"] = body["converged"]
    if command == "verify":
        obs["all_passed"] = body["all_passed"]
        obs["zv_implied_constant"] = body["zv_estimate"]["implied_constant"]
        obs["full_implied_constant"] = body["full_estimate"]["implied_constant"]
        obs["uniqueness_passed"] = body["uniqueness"]["passed"]
    return obs


def check(observed, reference):
    """Mismatch messages (empty when the run passes the gate)."""
    if reference is None:
        return ["no reference recorded for this workload and seed"]
    out = []
    for key in sorted(set(reference) | set(observed)):
        want, got = reference.get(key), observed.get(key)
        if want != got:
            out.append(f"{key}: expected {want!r}, got {got!r}")
    return out


def load_references(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
