"""Regenerate the request pools of `checks` and `crosscheck`.

Usage (from the repository root):  python3 perfbench/make_pools.py

- checks_pool.json: one `coxsph check` request per entry, a Cartan type, a
  random reduced word (digits, one letter each) and a random subset I of the
  word's left descent set, followed by the verdict pinned from the commit
  that made the pool: a short digest of the element label, and whether w
  is I-spherical.
- crosscheck_pool.json: every `key-expand --cross-check` request in range,
  written as "alpha:D" digit strings.

Each pool is sorted by the time its requests took when the pool was made,
cheapest first. `workloads.stratified` draws one request from each run of
consecutive entries, so every seed gets the same number of requests from
each cost band and a job's total time hardly depends on the seed.

The pools are made once and committed, so the requests a run sends do not
depend on the program under test. Making them again changes the workloads;
do it only in a change that redefines the benchmark. It takes a few minutes.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent

# No type A: the staircase check on S_10 and beyond exhausts memory.
CHECK_GROUPS = ("E6", "E7", "E8", "B5", "D5", "F4", "I2(60)")
CHECKS_PER_GROUP = 300
CHECK_MAX_LENGTH = 36
POOL_SEED = 20070923

# Compositions with n <= 5 parts of at most 3, D containing their descents,
# blocks of at most two variables. Larger blocks make single requests take
# seconds (36 s for (2,3,3,3,3) with D empty), longer than a run can hold.
CROSSCHECK_MAX_N = 5
CROSSCHECK_MAX_PART = 3
CROSSCHECK_MAX_BLOCK = 2
TIMINGS = 3


def best_time(fn):
    times = []
    for _ in range(TIMINGS):
        start = perf_counter()
        out = fn()
        times.append(perf_counter() - start)
    return min(times), out


def random_reduced_word(system, length, rng):
    w, word = system.identity, []
    while len(word) < length:
        i = rng.randint(1, system.rank)
        wi = system.multiply(w, system.generator(i))
        if wi.length > w.length:
            w, word = wi, word + [i]
    return w, word


def checks_pool(cx, label_digest):
    rng = random.Random(POOL_SEED)
    timed = []
    for type_string in CHECK_GROUPS:
        system = cx.coxeter.coxeter_system(type_string)
        top = min(system.longest_element().length, CHECK_MAX_LENGTH)
        for _ in range(CHECKS_PER_GROUP):
            w, word = random_reduced_word(system, rng.randint(1, top), rng)
            I = [j for j in sorted(system.left_descents(w)) if rng.random() < 0.5]
            text = cx.words.format_word(word)
            seconds, report = best_time(lambda: cx.harness.run_check(type_string, text, I))
            entry = [type_string, "".join(map(str, word)), I,
                     label_digest(report.element), report.spherical]
            timed.append((seconds, entry))
    return timed


def blocks(n, D):
    cuts = (0,) + tuple(D) + (n,)
    return tuple(cuts[i + 1] - cuts[i] for i in range(len(cuts) - 1))


def crosscheck_pool(cx):
    timed = []
    for n in range(2, CROSSCHECK_MAX_N + 1):
        for alpha in itertools.product(range(CROSSCHECK_MAX_PART + 1), repeat=n):
            desc = {i + 1 for i in range(n - 1) if alpha[i] > alpha[i + 1]}
            for r in range(n):
                for D in itertools.combinations(range(1, n), r):
                    if not desc <= set(D) or max(blocks(n, D)) > CROSSCHECK_MAX_BLOCK:
                        continue
                    seconds, _ = best_time(
                        lambda: cx.harness.run_key_expand(alpha, D, cross_check=True)
                    )
                    entry = "".join(map(str, alpha)) + ":" + "".join(map(str, D))
                    timed.append((seconds, entry))
    return timed


def write_pool(path, timed):
    timed.sort(key=lambda t: (t[0], json.dumps(t[1])))
    with open(path, "w") as fh:
        fh.write('{"seed": %d, "entries": [\n' % POOL_SEED)
        fh.write(",\n".join(json.dumps(e, separators=(",", ":")) for _, e in timed))
        fh.write("\n]}\n")
    print(f"wrote {len(timed)} entries to {path} ({sum(t for t, _ in timed):.1f}s of requests)")


def main():
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import coxsph
    import coxsph.harness  # noqa: F401
    from workloads import label_digest

    write_pool(HERE / "checks_pool.json", checks_pool(coxsph, label_digest))
    write_pool(HERE / "crosscheck_pool.json", crosscheck_pool(coxsph))


if __name__ == "__main__":
    main()
