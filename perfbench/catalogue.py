"""Inputs of the three workloads.  ``cli-mix`` and ``scale`` draw theirs from
a seeded ``random.Random``; ``battery`` repeats one request.

A CLI entry is written as the command line a user would type after
``tangentia``, with any ``TANGENTIA_FORMAT=...`` setting in front; that text
is also the entry's key in ``golden.json``.
"""
from __future__ import annotations

import itertools
import random
import shlex

# Every README example in every format it supports, plus a light form of
# every subcommand except verify-all.  Each one is dominated by interpreter
# start-up and import, not by the library's arithmetic.
CLI_GOOD = (
    "mcover --w 3 --d 4",
    "mcover --w 3 --d 4 --json",
    "mcover --w 3 --d 4 --format json",
    "TANGENTIA_FORMAT=json mcover --w 3 --d 4",
    "TANGENTIA_FORMAT=json mcover --w 3 --d 4 --format text",
    "mcover --w 6 --d 2",
    "mcover --w 1 --d 3",
    "instantons --w 3 --dmax 6",
    "instantons --w 3 --dmax 6 --json",
    "TANGENTIA_FORMAT=json instantons --w 3 --dmax 6",
    "instantons --w 6 --dmax 4",
    "integrality --wmax 8 --dmax 8",
    "integrality --wmax 8 --dmax 8 --json",
    "integrality --wmax 8 --dmax 8 --csv",
    "TANGENTIA_FORMAT=csv integrality --wmax 8 --dmax 8",
    "integrality --wmax 3 --dmax 5 --format csv",
    "torsion --strata",
    "torsion --strata --json",
    "TANGENTIA_FORMAT=json torsion --strata",
    'torsion --solve --class "2H-E1-E2"',
    'torsion --solve --class "2H-E1-E2" --json',
    'TANGENTIA_FORMAT=json torsion --solve --class "2H-E1-E2"',
    'torsion --solve --class "4H-E1-E2-2E3" --m 3',
    "classes --degree 4 --csv",
    "classes --degree 4",
    "classes --degree 4 --json",
    "TANGENTIA_FORMAT=csv classes --degree 4",
    "classes --degree 3",
    "census --aggregate",
    "census --aggregate --json",
    "TANGENTIA_FORMAT=json census --aggregate",
    "census --degree 4 --stratum T1",
    "census --degree 4 --stratum T1 --json",
    "census --degree 3 --stratum NF9",
    "census --degree 3 --stratum T1 --special-cubic",
    "census --degree 2 --stratum T2 --json",
    "check-gw --degree 4",
    "check-gw --degree 4 --json",
    "TANGENTIA_FORMAT=json check-gw --degree 4",
    "check-gw --degree 1",
    "check-gw --degree 3",
    "graphs --n 2 --r 3 --weights 1,2,3",
    "graphs --n 2 --r 3 --weights 1,2,3 --json",
    "TANGENTIA_FORMAT=json graphs --n 2 --r 3 --weights 1,2,3",
    "graphs --n 1 --r 2",
)

# Bad input: each must exit 1 with its fixed message on stderr.
CLI_BAD = (
    "census --degree 5 --stratum T1",
    "census --degree 4 --stratum T1 --special-cubic",
    "census --degree 2",
    "torsion --solve",
    "torsion --solve --class 2H-Q",
    "mcover --w 0 --d 1",
    "mcover --w 3 --d 4 --csv",
    "TANGENTIA_FORMAT=csv mcover --w 3 --d 4",
    "TANGENTIA_FORMAT=xml classes --degree 4",
    "instantons --w 3",
    "graphs --n 2 --r 3 --weights 1,x",
    "check-gw --degree 5",
)

# One deck holds every good entry once and this many bad ones, so about a
# tenth of the ops are bad input and every seed sees the same mix.
BAD_PER_DECK = 5

BATTERY = "verify-all --json"


def split_entry(entry: str) -> tuple[list[str], dict[str, str]]:
    """Command-line arguments and environment settings of a CLI entry."""
    words = shlex.split(entry)
    env = {}
    while words and "=" in words[0] and not words[0].startswith("-"):
        name, value = words.pop(0).split("=", 1)
        env[name] = value
    return words, env


def cli_mix(rng: random.Random):
    """Endless stream of cli-mix entries, one shuffled deck after another."""
    while True:
        deck = list(CLI_GOOD) + rng.sample(CLI_BAD, BAD_PER_DECK)
        rng.shuffle(deck)
        yield from deck


def battery():
    """Endless stream of battery entries, all the same request."""
    return itertools.repeat(BATTERY)


# scale: one pass makes one call from each slot, in a shuffled order.  The
# candidates of a slot cost about the same, so the seed changes inputs and
# order but hardly the cost of a pass.  No input repeats within a pass.
CLASS_DEGREES = range(10, 17)
TYPE_SHAPES = ((4, 6), (5, 6), (3, 6))
STRATIFY_ORDERS = (24, 28, 30, 32, 36)
DIVISION_ORDERS = (12, 16, 20, 24)
INSTANTON_DMAX = (200, 300, 400)
INSTANTON_W = range(3, 13)
INTEGRALITY_BOX = (12, 40)
WEIGHTED_SHAPE = (3, 4)
WEIGHT_RANGE = 5

SCALE_SLOTS: list[list[list]] = (
    [[["classes", d]] for d in CLASS_DEGREES]
    + [[["types", n, r]] for n, r in TYPE_SHAPES]
    + [[["stratify", m]] for m in STRATIFY_ORDERS]
    # c = (i/3, j/3) is a 3-torsion point, as every restriction class is
    + [[["solve", i, j, m] for i in range(3) for j in range(3)] for m in DIVISION_ORDERS]
    + [[["instantons", w, d] for w in INSTANTON_W] for d in INSTANTON_DMAX]
    + [[["integrality", *INTEGRALITY_BOX]], [["weights", *WEIGHTED_SHAPE, WEIGHT_RANGE]]]
)


def scale_pass(rng: random.Random) -> list[list]:
    """One pass of scale calls, as JSON-ready lists ``[kind, *args]``."""
    calls = [rng.choice(slot) for slot in SCALE_SLOTS]
    rng.shuffle(calls)
    return calls


def every_scale_call() -> list[list]:
    """Every call a scale pass can draw; golden.py records each one."""
    return [call for slot in SCALE_SLOTS for call in slot]


def call_key(call: list) -> str:
    return " ".join(str(x) for x in call)
