#!/usr/bin/env python3
"""Checks a traced perfbench result against the counters pinned for its workload.

Usage:

    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload astar_lifts --seed 1 --seconds 1 --trace 1 | tail -n 1 > astar.json
    python3 ci/perfbench_pins.py astar_lifts astar.json

The result file holds perfbench's last output line, one JSON object. The
script prints every pin that does not hold (or that they all hold) and exits
1 if any fails, 2 on bad arguments. Counts must match exactly; a ratio is
compared to a tolerance.
"""

import json
import sys

# Per workload, `(metric, pinned value, tolerance)`; a tolerance of `None`
# means exact equality. `correct` is the result line's own flag.
PINS = {
    # The exhaustive search's attempt count is the number of assignments the
    # literal loop would try before the minimal successful one; the
    # checkpointed kernel must report exactly it.
    "derand_lifts": [
        ("correct", True, None),
        ("core.search_attempts", 84276, None),
        ("cache.misses", 8, None),
        ("cache.hits", 312, None),
    ],
    # Stage 1's rounds and bits, the seeded search's attempts and the cache
    # misses pin what the 2-hop coloring and the MIS runs did; the cache and
    # store byte counts pin BitString's byte encoding through both tiers,
    # and the encoded bytes the s(G_*) keys.
    "pipeline_random": [
        ("correct", True, None),
        ("runtime.coloring_rounds", 1784, None),
        ("runtime.bits_drawn", 604892, None),
        ("core.search_attempts", 104, None),
        ("cache.misses", 104, None),
        ("cache.bytes", 2217420, None),
        ("store.disk_bytes", 2582748, None),
        ("graph.encode_bytes", 2061022, None),
    ],
    # The phase and equivalent-round counts pin what the literal A_* did on
    # every lift: which candidates Update-Graph selected, and when each
    # node's output settled. The pool hit rate pins which pools were built
    # and how often (21,554 hits, 886 misses per pass). It is a ratio of
    # counts averaged over the traced passes, so it is compared to 1e-12:
    # the mean of three equal ratios can be one ulp off, while one more miss
    # per pass moves it by about 4e-5.
    "astar_lifts": [
        ("correct", True, None),
        ("astar.phases", 485, None),
        ("astar.equivalent_rounds", 1415, None),
        ("astar.pool_hit_rate", 0.960516934046346, 1e-12),
    ],
}


def failures(workload, result):
    """The pins of `workload` that `result` breaks, as messages."""
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    bad = []
    for name, want, tolerance in PINS[workload]:
        got = result["correct"] if name == "correct" else metrics.get(name)
        if tolerance is None:
            ok = got == want
        else:
            ok = got is not None and abs(got - want) <= tolerance
        if not ok:
            bad.append(f"{name} = {got!r}, want {want!r}")
    return bad


def main(argv):
    if len(argv) != 3 or argv[1] not in PINS:
        print(f"usage: {argv[0]} {{{','.join(PINS)}}} RESULT_JSON", file=sys.stderr)
        return 2
    workload, path = argv[1], argv[2]
    with open(path) as f:
        result = json.load(f)
    bad = failures(workload, result)
    print("\n".join(bad) or f"{workload} trace counters as pinned")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
