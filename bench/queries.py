"""The seeded query stream of the `queries` workload, and its properties.

The stream is a sequence of blocks, and run.py runs each block in a fresh
interpreter, so every block starts with the program's caches empty.  A
block holds six rounds.  Every round holds the same mix, in a seeded order:

- `unit-group` on two small (size < 64) and two medium (64 <= size < 256)
  catalog algebras.  In each size class one draw is fresh: the next
  target of a seeded walk through the whole class, which goes on from
  block to block.  The other repeats a target the class has drawn earlier
  in the same block, with Zipf popularity over recency (the most recent
  first).  So in every block, and so in every process, half the
  unit-group queries repeat a target, whichever block of a run it is and
  however many blocks a run gets to; and every seed's mix covers each
  class evenly and costs about the same.  Larger algebras are left to the
  catalog workload: one of them costs up to 1.6 s.
- `decompose` on three abelian catalog algebras, drawn uniformly.
- `coset-count` on one presentation of each family below.  The order is
  known by construction.  A block visits each family's size grid once, in
  a seeded order, with each size jittered by up to +-2; every size the
  stream can draw stays under the default coset cap.

The generator reads the target lists from golden.json and needs nothing
from the program, so a stream can be built and checked without it.
"""

from __future__ import annotations

import random

import golden

GROUP_ORDER = {"C1": 1, "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6, "C7": 7,
               "C8": 8, "C9": 9, "C2xC2": 4, "C4xC2": 8, "C2^3": 8,
               "C3xC3": 9, "D6": 6, "D8": 8, "Q8": 8}
SIZE_CLASSES = (("small", 0, 64), ("medium", 64, 256))
ROUND_UNIT_GROUP = (("small", "fresh"), ("small", "repeat"),
                    ("medium", "fresh"), ("medium", "repeat"))
ROUNDS_PER_BLOCK = 6
ROUND_DECOMPOSE = 3
ZIPF_EXPONENT = 1.1
JITTER = 2

# family -> (size grid, presentation, order, relator lengths), each a
# function of the size parameter n.
FAMILIES = {
    "cyclic": ((4, 12, 40, 150, 500, 1500),
               lambda n: f"a | a^{n}", lambda n: n, lambda n: (n,)),
    "dihedral": ((4, 10, 36, 120, 400, 1000),
                 lambda n: f"r, s | r^{n}, s^2, (s*r)^2", lambda n: 2 * n,
                 lambda n: (n, 2, 4)),
    "dicyclic": ((3, 6, 20, 64, 200, 500),
                 lambda n: f"a, x | a^{2 * n}, x^2 = a^{n}, x^-1*a*x = a^-1",
                 lambda n: 4 * n, lambda n: (2 * n, n + 2, 4)),
    "abelian": ((3, 6, 13, 30, 60, 90),
                lambda n: f"a, b | a^{n}, b^{n + 4}, a*b = b*a",
                lambda n: n * (n + 4), lambda n: (n, n + 4, 4)),
}


def load_targets() -> tuple[list[str], list[str]]:
    """(unit-group targets, decompose targets): every algebra golden.json covers."""
    entries = golden.load()
    return sorted(entries["unit-group"]), sorted(entries["decompose"])


def algebra_size(target: str) -> int:
    field, group = target.split()
    return int(field[1:]) ** GROUP_ORDER[group]


def family_sizes(family: str) -> list[int]:
    """Every size parameter the stream can draw for a family."""
    grid = FAMILIES[family][0]
    return sorted({g + d for g in grid for d in range(-JITTER, JITTER + 1)})


def coset_query(family: str, n: int) -> dict:
    _, text, order, lengths = FAMILIES[family]
    return {"kind": "coset-count", "family": family, "n": n,
            "argv": ["coset-count", text(n), "--format", "json"],
            "order": order(n), "relator_lengths": list(lengths(n))}


class QueryStream:
    """Blocks of queries drawn from one seed; the same seed, the same stream."""

    def __init__(self, seed: int, unit_targets: list[str], decompose_targets: list[str]):
        self.rng = random.Random(seed)
        self.decompose_targets = list(decompose_targets)
        self.classes = {name: [t for t in unit_targets if lo <= algebra_size(t) < hi]
                        for name, lo, hi in SIZE_CLASSES}
        self.walks: dict[str, list[str]] = {name: [] for name in self.classes}
        self.recent: dict[str, list[str]] = {name: [] for name in self.classes}

    def _unit_group(self, size_class: str, draw: str) -> dict:
        recent, walk = self.recent[size_class], self.walks[size_class]
        if draw == "repeat" and recent:
            weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(recent))]
            target = self.rng.choices(recent, weights)[0]
            recent.remove(target)
        else:
            if not walk:
                walk.extend(self.classes[size_class])
                self.rng.shuffle(walk)
            target = walk.pop()
            if target in recent:
                recent.remove(target)
        recent.insert(0, target)
        return {"kind": "unit-group", "target": target, "size_class": size_class,
                "argv": ["unit-group", *target.split(), "--format", "json"]}

    def _decompose(self) -> dict:
        target = self.rng.choice(self.decompose_targets)
        return {"kind": "decompose", "target": target,
                "argv": ["decompose", *target.split(), "--format", "json"]}

    def next_block(self) -> list[dict]:
        """ROUNDS_PER_BLOCK rounds, each shuffled on its own."""
        for recent in self.recent.values():
            recent.clear()  # a block repeats only its own targets
        walks = {}
        for family, (grid, *_) in FAMILIES.items():
            walks[family] = list(grid)
            self.rng.shuffle(walks[family])
        block = []
        for r in range(ROUNDS_PER_BLOCK):
            batch = [self._unit_group(c, draw) for c, draw in ROUND_UNIT_GROUP]
            batch += [self._decompose() for _ in range(ROUND_DECOMPOSE)]
            batch += [coset_query(f, walks[f][r] + self.rng.randint(-JITTER, JITTER))
                      for f in FAMILIES]
            self.rng.shuffle(batch)
            block += batch
        return block


def blocks(seed: int, count: int) -> list[list[dict]]:
    """The first `count` blocks of the seed's stream."""
    stream = QueryStream(seed, *load_targets())
    return [stream.next_block() for _ in range(count)]


def properties(block_list: list[list[dict]]) -> dict:
    """What a cache or coset-enumeration claim needs to cite about a stream.

    A unit-group target counts as repeated when its block has drawn it
    before: each block runs in a process of its own.
    """
    queries = [q for block in block_list for q in block]
    kinds: dict[str, int] = {}
    for q in queries:
        kinds[q["kind"]] = kinds.get(q["kind"], 0) + 1
    repeats = 0
    for block in block_list:
        seen: set[str] = set()
        for q in block:
            if q["kind"] == "unit-group":
                repeats += q["target"] in seen
                seen.add(q["target"])
    unit = [q["target"] for q in queries if q["kind"] == "unit-group"]
    lengths = sorted(max(q["relator_lengths"]) for q in queries
                     if q["kind"] == "coset-count")
    buckets: dict[str, int] = {}
    for length in lengths:
        edge = 10
        while length >= edge:
            edge *= 10
        key = f"<{edge}"
        buckets[key] = buckets.get(key, 0) + 1
    return {
        "blocks": len(block_list),
        "queries": len(queries),
        "per_kind": kinds,
        "unit_group_targets_distinct": len(set(unit)),
        "unit_group_repeat_share": repeats / len(unit) if unit else 0.0,
        "relator_length_max": {
            "min": lengths[0] if lengths else 0,
            "median": lengths[len(lengths) // 2] if lengths else 0,
            "max": lengths[-1] if lengths else 0,
            "buckets": dict(sorted(buckets.items(), key=lambda kv: len(kv[0]))),
        },
    }
