"""Benchmark inputs: criteria with an independent membership oracle, and
the programs each workload runs on.

Every criterion carries its regex text (what the program parses) and a
Python ``re`` pattern of the same text, so the checks can enumerate a
criterion's access paths and decide inclusion between criteria without
going through the program's own automata.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "corpus"
HO_CORPUS = CORPUS / "ho"

# The criteria pool of the test suite, as regex text.
POOL = ["eps", "eps + 0", "eps + 1", "eps + 0 + 1", "eps + 1 + 11 + 110",
        "eps + 0 + 00", "0*", "1*", "(0+1)*", "0*1*"]
EVERYTHING = "(0+1)*"
# Infinite prefix-closed criteria and the infinite criteria that contain
# them, worked out by hand. Finite criteria are checked string by string.
INFINITE = {
    "(0+1)*": (),
    "0*1*": ("(0+1)*",),
    "1*0*": ("(0+1)*",),
    "1*(eps + 0)": ("1*0*", "(0+1)*"),
    "0*": ("0*1*", "1*0*", "(0+1)*"),
    "1*": ("0*1*", "1*0*", "1*(eps + 0)", "(0+1)*"),
}
PATH_LEN = 6  # residuals are compared on every criterion path up to this
RANDOM_MAXLEN = 5  # longest string of a random finite criterion


@dataclass(frozen=True)
class Criterion:
    text: str
    strings: frozenset | None  # the finite language, or None if infinite

    @property
    def pattern(self) -> re.Pattern:
        return re.compile(self.text.replace(" ", "").replace("eps", "")
                          .replace("+", "|"))

    def paths(self) -> list[tuple[int, ...]]:
        pat = self.pattern
        return [tuple(int(c) for c in s)
                for n in range(PATH_LEN + 1)
                for s in map("".join, itertools.product("01", repeat=n))
                if pat.fullmatch(s)]

    def within(self, other: "Criterion") -> bool:
        """Whether self ⊆ other."""
        if self.strings is not None:
            pat = other.pattern
            return all(pat.fullmatch(s) for s in self.strings)
        if other.strings is not None:
            return False
        return self.text == other.text or other.text in INFINITE[self.text]


def criterion(text: str) -> Criterion:
    if "*" in text:
        return Criterion(text, None)
    return Criterion(text, frozenset("" if w == "eps" else w
                                     for w in text.split(" + ")))


def random_finite(rng: Random) -> Criterion:
    """A random prefix-closed finite criterion: the prefixes of one to four
    strings of up to ``RANDOM_MAXLEN`` symbols."""
    strings = {""}
    for _ in range(rng.randint(1, 4)):
        s = "".join(rng.choice("01")
                    for _ in range(rng.randint(0, RANDOM_MAXLEN)))
        strings.update(s[:i] for i in range(len(s) + 1))
    words = sorted(strings, key=lambda s: (len(s), s))
    return criterion(" + ".join(w or "eps" for w in words))


def stream(seed: int):
    """Seeded endless criteria: the pool, random finite sets and infinite
    criteria in equal shares, starting with everything."""
    rng = Random(seed)
    yield criterion(EVERYTHING)
    while True:
        kind = rng.randrange(3)
        if kind == 0:
            yield criterion(rng.choice(POOL))
        elif kind == 1:
            yield random_finite(rng)
        else:
            yield criterion(rng.choice(sorted(INFINITE)))


# Synthetic programs come from fixed generator seeds, one per size. Between
# generator seeds of equal size, precompute time differs by up to 2.8x
# (2.05 s to 5.67 s at about 680 points), which would swamp every bound;
# the benchmark seed varies the criteria and the queried points instead.
GEN_SEED = 0
SYNTH = {"synth700": 170, "synth1200": 330, "synth1800": 500}  # bindings


def synth_source(name: str, bindings: dict[str, int]) -> str:
    from fslice import gen
    return gen.generate_source(bindings[name], GEN_SEED)


def corpus_paths() -> list[Path]:
    return sorted(CORPUS.glob("*.fsl"))


def ho_paths() -> list[Path]:
    return sorted(HO_CORPUS.glob("*.fsl"))
