"""Seeded benchmark inputs: lattices, meet-semilattices and sliced base spaces.

Lattices are intersection-closed set families that contain the full ground
set, ordered by inclusion; meet-semilattices are the same families with the
top removed.  Draws are rejected until they hit the exact element count a job
names, so a seed changes the shape of an input but never its size: the 2^m
filter scans and the O(k^3) gate constructions turn any size drift into
timing drift.

Everything here uses its own set-family representation, so the expectations
it derives (gate counts, filter counts, truncated filter counts) are
independent of the library being measured.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


@dataclass(frozen=True)
class Family:
    """A set family over ``ground`` bits; ``masks[i]`` is element ``i``."""

    name: str
    ground: int
    masks: tuple[int, ...]

    @property
    def is_lattice(self) -> bool:
        return (1 << self.ground) - 1 in self.masks

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f"s{m:0{self.ground}b}" for m in self.masks)

    def covers(self) -> list[tuple[int, int]]:
        out = []
        for i, a in enumerate(self.masks):
            for j, b in enumerate(self.masks):
                if a == b or a & ~b:
                    continue
                if any(
                    c not in (a, b) and not a & ~c and not c & ~b
                    for c in self.masks
                ):
                    continue
                out.append((i, j))
        return out

    def to_json(self) -> str:
        lab = self.labels
        return json.dumps(
            {
                "elements": list(lab),
                "covers": [[lab[i], lab[j]] for i, j in self.covers()],
            },
            sort_keys=True,
        )

    def up_set(self, i: int) -> frozenset[str]:
        a = self.masks[i]
        return frozenset(
            lbl for lbl, b in zip(self.labels, self.masks) if not a & ~b
        )

    def full_gate_count(self) -> int:
        """Ordered non-top triples (a, b, c) with a ^ b <= c; meet is intersection."""
        top = max(self.masks, key=lambda m: bin(m).count("1"))
        lm = [m for m in self.masks if m != top]
        return sum(1 for a in lm for b in lm for c in lm if not a & b & ~c)

    def y0_enumeration(self) -> list[int]:
        """The rail order ``latcirc y0`` uses: bottom first, then index order."""
        bottom = min(range(len(self.masks)), key=lambda i: bin(self.masks[i]).count("1"))
        return [bottom] + [i for i in range(len(self.masks)) if i != bottom]

    def truncated_filter_count(self, k: int) -> int:
        """Distinct restrictions to the first k rails of every filter.

        In a finite meet-semilattice every nonempty filter is principal (it
        holds the meet of its members), so the filters are the up-sets plus
        the empty set.
        """
        rails = self.y0_enumeration()[:k]
        seen = {frozenset()}
        for a in self.masks:
            seen.add(frozenset(r for r in rails if not a & ~self.masks[r]))
        return len(seen)


def _intersection_close(masks: set[int], new: int) -> set[int]:
    out = set(masks)
    frontier = [new]
    while frontier:
        x = frontier.pop()
        if x in out:
            continue
        out.add(x)
        frontier.extend(x & y for y in list(out))
    return out


def draw_family(rng: random.Random, ground: int, size: int, name: str) -> Family:
    """An intersection-closed family with the full set and exactly ``size`` members.

    Random subsets are added one at a time; an attempt that overshoots the
    size restarts, so every returned family has exactly the requested size.
    """
    full = (1 << ground) - 1
    if not 1 <= size <= 1 << ground:
        raise ValueError(f"cannot draw {size} sets over {ground} points")
    while True:
        fam = {full}
        while len(fam) < size:
            fam = _intersection_close(fam, rng.randrange(full))
        if len(fam) == size:
            masks = sorted(fam, key=lambda m: (bin(m).count("1"), m))
            return Family(name, ground, tuple(masks))


def drop_top(f: Family) -> Family:
    """The meet-semilattice obtained by removing the full set."""
    full = (1 << f.ground) - 1
    return Family(f.name, f.ground, tuple(m for m in f.masks if m != full))


def family_from_covers(name: str, elements, covers) -> Family:
    """The down-set family of a finite lattice given by its cover pairs.

    Element x becomes the set of elements below it, so inclusion is the
    order, intersection is the meet and the top becomes the full set.
    """
    idx = {e: i for i, e in enumerate(elements)}
    down = [1 << i for i in range(len(elements))]
    changed = True
    while changed:
        changed = False
        for a, b in covers:
            new = down[idx[b]] | down[idx[a]]
            if new != down[idx[b]]:
                down[idx[b]] = new
                changed = True
    return Family(name, len(elements), tuple(down))


def fixed_lattices() -> list[Family]:
    """Every lattice with at most five elements, one per isomorphism class.

    Counts per size are 1, 1, 1, 2, 5 (OEIS A006966).  Written out by hand so
    the corpus check does not rest on the generator it checks.
    """
    spec = [
        ("l1", "0", ""),
        ("l2_chain", "01", "01"),
        ("l3_chain", "0a1", "0a a1"),
        ("l4_chain", "0ab1", "0a ab b1"),
        ("l4_b2", "0ab1", "0a 0b a1 b1"),
        ("l5_chain", "0abc1", "0a ab bc c1"),
        ("l5_m3", "0pqr1", "0p 0q 0r p1 q1 r1"),
        ("l5_n5", "0abc1", "0a a1 0b bc c1"),
        ("l5_b2_low", "0tab1", "0t ta tb a1 b1"),
        ("l5_b2_high", "0abt1", "0a 0b at bt t1"),
    ]
    return [
        family_from_covers(name, list(elems), [tuple(c) for c in covers.split()])
        for name, elems, covers in spec
    ]


# Minimum gate counts of exact minimal presentations of the fixed lattices,
# as computed by the seed implementation; a smaller count is impossible and a
# larger one is not minimal.
MINIMAL_GATES = {
    "l2_chain": 0,
    "l3_chain": 1,
    "l4_chain": 2,
    "l4_b2": 3,
    "l5_chain": 3,
    "l5_m3": 5,
    "l5_n5": 4,
    "l5_b2_low": 4,
    "l5_b2_high": 5,
}


def draw_sliced_base(rng: random.Random, cells: int, top_slice: int):
    """A discrete-topology base with integer slices 0..top_slice.

    Every slice gets at least one cell; within a slice each pair sits at
    1/2, 3/4 or 1, so the triangle inequality holds for every draw.  Returns
    plain (slices, distances) data that the jobs turn into a library space.
    """
    if cells < top_slice + 1:
        raise ValueError("need a cell per slice")
    slices = list(range(top_slice + 1)) + [
        rng.randint(0, top_slice) for _ in range(cells - top_slice - 1)
    ]
    slices.sort()
    choices = [Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    dist = {}
    for a in range(cells):
        for b in range(a + 1, cells):
            if slices[a] == slices[b]:
                d = rng.choice(choices)
                if d < 1:
                    dist[(a, b)] = d
    return slices, dist


@dataclass
class Inputs:
    """Generated inputs of one workload, written under ``workdir``."""

    workdir: Path
    files: dict  # name -> path of a JSON input read by the CLI
    families: dict  # name -> Family (lattices and meet-semilattices)
    bases: dict  # name -> (slices, dist) for sliced base spaces
    digest: str = ""


def write_inputs(inp: Inputs, texts: dict) -> None:
    inp.workdir.mkdir(parents=True, exist_ok=True)
    h = hashlib.sha256()
    for name in sorted(texts):
        path = inp.workdir / f"{name}.json"
        path.write_text(texts[name], encoding="utf-8")
        inp.files[name] = str(path)
        h.update(name.encode() + b"\0" + texts[name].encode() + b"\0")
    for name in sorted(inp.bases):
        slices, dist = inp.bases[name]
        h.update(repr((name, slices, sorted(dist.items()))).encode())
    inp.digest = h.hexdigest()
