"""Regression gate for the checked-in benchmark artifacts.

Two layers, both stdlib-only so CI can run this before installing
anything beyond the benchmarks themselves:

1. **Invariant checks** — structural and semantic assertions that must
   hold for *any* artifact of a given name, checked-in baseline or
   fresh smoke run alike: bit-identity flags are true, speedups clear
   their floors, decomposition phase fractions sum to one, correlation
   fields exist.  Wall-clock-derived numbers get loose floors only
   (CI machines are noisy); simulated-time numbers get exact ones.
2. **Drift comparison** (``--fresh``) — a freshly generated artifact is
   compared against the checked-in baseline of the same name.  Sections
   declared ``exact`` (the ``smoke`` grid of ``BENCH_sweep.json``,
   whose rows are purely simulated time and therefore
   platform-independent) must match the baseline *exactly*; any other
   overlap is compared only when the two artifacts declare the same
   ``config`` (a ``--smoke`` run at reduced scale is not comparable to
   a full-scale baseline and is skipped with a note).

Usage::

    PYTHONPATH=src python benchmarks/bench_check.py             # baselines only
    PYTHONPATH=src python benchmarks/bench_check.py --fresh DIR # + drift vs baselines
"""

import argparse
import json
import math
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


# ----------------------------------------------------------------------
# Dotted-path resolution ('*' fans out over dict values / list items)
# ----------------------------------------------------------------------
def resolve(data, path):
    """All values at a dotted path; [] when the path is absent."""
    nodes = [data]
    for segment in path.split("."):
        found = []
        for node in nodes:
            if segment == "*":
                if isinstance(node, dict):
                    found.extend(node.values())
                elif isinstance(node, list):
                    found.extend(node)
            elif isinstance(node, dict) and segment in node:
                found.append(node[segment])
            elif isinstance(node, list):
                try:
                    found.append(node[int(segment)])
                except (ValueError, IndexError):
                    pass
        nodes = found
    return nodes


def _check_one(artifact, path, op, arg):
    values = resolve(artifact, path)
    if not values:
        return f"path '{path}' is missing"
    for value in values:
        if op == "exists":
            continue
        if op == "true":
            if value is not True:
                return f"'{path}' must be true, got {value!r}"
        elif op == "eq":
            if value != arg:
                return f"'{path}' must equal {arg!r}, got {value!r}"
        elif op == "ge":
            if not isinstance(value, (int, float)) or value < arg:
                return f"'{path}' must be >= {arg}, got {value!r}"
        elif op == "le":
            if not isinstance(value, (int, float)) or value > arg:
                return f"'{path}' must be <= {arg}, got {value!r}"
        elif op == "lt":
            if not isinstance(value, (int, float)) or value >= arg:
                return f"'{path}' must be < {arg}, got {value!r}"
        elif op == "close":
            target, tolerance = arg
            if not isinstance(value, (int, float)) or not math.isclose(
                value, target, rel_tol=tolerance, abs_tol=tolerance
            ):
                return f"'{path}' must be within {tolerance} of {target}, got {value!r}"
        else:  # pragma: no cover - registry typo guard
            return f"unknown check op {op!r}"
    return None


def _sweep_phase_fractions(artifact):
    """Custom check: every sweep row's phase fractions sum to one."""
    failures = []
    for section in ("smoke", "staleness_study", "pressure_study"):
        if section not in artifact:
            continue
        for row in artifact[section]["rows"]:
            decomposition = row["decomposition"]
            if decomposition["total_residence"] == 0:
                continue
            total = sum(decomposition["phase_fractions"].values())
            if abs(total - 1.0) > 1e-9:
                failures.append(
                    f"{section} cell {row['cell']}: phase fractions sum to {total}"
                )
    return failures


#: name -> list of (dotted path, op, arg).  Invariants hold for full
#: baselines AND --smoke artifacts of the same benchmark.
INVARIANTS = {
    "BENCH_plan.json": [
        ("plan_build_seconds", "ge", 0.0),
        ("stepping.compiled", "exists"),
        # Exact MAC counts: conv GEMMs multiply only the active depth.
        ("gemm_macs.issued", "ge", 1),
        ("gemm_macs.ratio", "lt", 1.0),
        # Exact: warm, cold and batched ladders give bit-equal logits
        # and byte-identical aux buffers (``aux_equal``).
        ("equivalence.*", "true"),
    ],
    "BENCH_batching.json": [
        ("runs.1", "exists"),
        ("bit_equal_to_none.*", "true"),
        ("speedup_vs_none.*", "ge", 0.9),
    ],
    "BENCH_continuous.json": [
        ("bit_equal_to_none.*", "true"),
        ("speedup_vs_none.*", "ge", 0.9),
        ("runs.continuous", "exists"),
        ("dispatch_index.*", "exists"),
    ],
    "BENCH_memory.json": [
        ("unbounded.reuse_fraction", "ge", 0.0),
        ("sweep.*.completed", "ge", 1),
        # Eviction and replay must never change an answer.
        ("sweep.*.bit_equal_to_unbounded", "true"),
        ("policies_at_tightest.*.bit_equal_to_unbounded", "true"),
        ("policies_at_tightest.lru", "exists"),
        ("policies_at_tightest.largest-first", "exists"),
        ("policies_at_tightest.lowest-progress", "exists"),
    ],
    "BENCH_faults.json": [
        ("degradation.*.completed", "ge", 1),
        ("chaos_config.completed", "ge", 1),
        ("chaos_config.deadline_miss_rate", "le", 1.0),
    ],
    "BENCH_serving.json": [
        ("summary.completed", "ge", 1),
        ("summary.deadline_miss_rate", "le", 1.0),
        ("observability_overhead.reports_bit_identical", "true"),
    ],
    "BENCH_observe.json": [
        ("observability_overhead.reports_bit_identical", "true"),
        ("chrome_trace.num_flows", "ge", 1),
        ("staleness.num_samples", "ge", 1),
        ("num_events", "ge", 1),
    ],
    "BENCH_sweep.json": [
        ("smoke.num_cells", "eq", 4),
        ("smoke.ok", "true"),
        ("smoke.rows.*.metrics.completed", "ge", 1),
        ("smoke.rows.*.scorecard.ok", "true"),
    ],
    "BENCH_steal.json": [
        ("smoke.control.metrics.steals", "eq", 0),
        ("smoke.rebalance.metrics.steals", "ge", 1),
        ("smoke.rebalance_p2c.metrics.steals", "ge", 1),
        ("smoke.*.metrics.lost", "eq", 0),
        ("smoke.bit_equal_to_solo", "true"),
        ("smoke.macs_exact", "true"),
        ("sharding.gathered_complete", "true"),
        ("sharding.bit_equal_to_solo", "true"),
        ("sharding.shards", "ge", 2),
    ],
}

def _steal_improves_imbalance(artifact):
    """Custom check: stealing strictly beats the no-rebalance control."""
    failures = []
    control = artifact["smoke"]["control"]["metrics"]["load_imbalance"]
    for arm in ("rebalance", "rebalance_p2c"):
        stolen = artifact["smoke"][arm]["metrics"]["load_imbalance"]
        if not stolen < control:
            failures.append(
                f"smoke.{arm}: load imbalance {stolen} must be strictly "
                f"below the no-rebalance control's {control}"
            )
    sharded = artifact["sharding"]["peak_context_bytes"]
    if not sharded["sharded"] < sharded["whole"]:
        failures.append(
            "sharding: the sharded fleet's peak per-node context "
            f"({sharded['sharded']}) must undercut the whole-batch run's "
            f"({sharded['whole']})"
        )
    return failures


def _memory_within_budget(artifact):
    """Custom check: no bounded run's resident peak exceeds its budget."""
    failures = []
    for section in ("sweep", "policies_at_tightest"):
        for key, row in artifact.get(section, {}).items():
            budget = row["memory_budget_bytes"]
            if budget is not None and row["peak_resident_bytes"] > budget:
                failures.append(
                    f"{section}.{key}: peak resident bytes {row['peak_resident_bytes']} "
                    f"exceed the budget of {budget}"
                )
    return failures


#: Custom (whole-artifact) invariant callables per name.
CUSTOM_INVARIANTS = {
    "BENCH_memory.json": [_memory_within_budget],
    "BENCH_sweep.json": [_sweep_phase_fractions],
    "BENCH_steal.json": [_steal_improves_imbalance],
}

#: Sections compared *exactly* between a fresh artifact and its
#: baseline: deterministic simulated-time payloads only.
EXACT_SECTIONS = {
    "BENCH_sweep.json": ["smoke"],
    "BENCH_steal.json": ["smoke", "sharding"],
}


def check_invariants(name, artifact):
    failures = []
    for check in INVARIANTS.get(name, ()):
        path, op = check[0], check[1]
        arg = check[2] if len(check) > 2 else None
        failure = _check_one(artifact, path, op, arg)
        if failure:
            failures.append(failure)
    for custom in CUSTOM_INVARIANTS.get(name, ()):
        failures.extend(custom(artifact))
    return failures


def check_drift(name, fresh, baseline):
    """Fresh-vs-baseline comparison; returns (failures, notes)."""
    failures, notes = [], []
    for section in EXACT_SECTIONS.get(name, ()):
        if section not in fresh or section not in baseline:
            failures.append(f"exact section '{section}' missing from fresh or baseline")
            continue
        fresh_text = json.dumps(fresh[section], sort_keys=True)
        base_text = json.dumps(baseline[section], sort_keys=True)
        if fresh_text != base_text:
            failures.append(
                f"section '{section}' drifted from the checked-in baseline "
                f"(deterministic simulated rows must match exactly; regenerate "
                f"the baseline if the change is intended)"
            )
    if fresh.get("config") != baseline.get("config"):
        notes.append("config differs from baseline (smoke scale?); non-exact drift skipped")
    return failures, notes


def _collect_fresh(paths):
    """BENCH_*.json files under the given files/directories, by name."""
    found = {}
    for raw in paths:
        path = Path(raw)
        candidates = (
            sorted(path.rglob("BENCH_*.json")) if path.is_dir() else [path]
        )
        for candidate in candidates:
            found[candidate.name] = candidate
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--results",
        type=Path,
        default=RESULTS_DIR,
        help="directory of checked-in baselines (default: benchmarks/results)",
    )
    parser.add_argument(
        "--fresh",
        nargs="+",
        default=(),
        help="freshly generated BENCH_*.json files or directories to drift-check",
    )
    args = parser.parse_args()

    failures = 0
    baselines = {}
    for name in sorted(INVARIANTS):
        path = args.results / name
        if not path.exists():
            print(f"FAIL {name}: baseline missing from {args.results}")
            failures += 1
            continue
        artifact = json.loads(path.read_text())
        baselines[name] = artifact
        problems = check_invariants(name, artifact)
        for problem in problems:
            print(f"FAIL {name} (baseline): {problem}")
        failures += len(problems)
        if not problems:
            print(f"ok   {name} (baseline invariants)")

    for name, path in sorted(_collect_fresh(args.fresh).items()):
        if name not in INVARIANTS:
            print(f"note {name}: no invariants registered, skipping")
            continue
        artifact = json.loads(path.read_text())
        problems = check_invariants(name, artifact)
        for problem in problems:
            print(f"FAIL {name} (fresh): {problem}")
        failures += len(problems)
        if name in baselines:
            drift, notes = check_drift(name, artifact, baselines[name])
            for problem in drift:
                print(f"FAIL {name} (drift): {problem}")
            for note in notes:
                print(f"note {name}: {note}")
            failures += len(drift)
        if not problems:
            print(f"ok   {name} (fresh)")

    print(f"{'FAILED' if failures else 'PASSED'}: {failures} problem(s)")
    return 1 if failures else 0


# ----------------------------------------------------------------------
# Pytest face: the checked-in baselines must satisfy their invariants
# ----------------------------------------------------------------------
def test_checked_in_baselines_pass_invariants():
    for name in sorted(INVARIANTS):
        path = RESULTS_DIR / name
        assert path.exists(), f"baseline {name} is not checked in"
        assert check_invariants(name, json.loads(path.read_text())) == []


def test_resolve_wildcards():
    data = {"a": {"x": 1, "y": 2}, "b": [{"v": 3}, {"v": 4}]}
    assert sorted(resolve(data, "a.*")) == [1, 2]
    assert sorted(resolve(data, "b.*.v")) == [3, 4]
    assert resolve(data, "b.1.v") == [4]
    assert resolve(data, "missing.path") == []


if __name__ == "__main__":
    sys.exit(main())
