"""Bundled example games.

Payoffs are entered exactly as printed in the source tables; `gamma2c` is
generated parametrically from its two cost parameters at load time.
"""

from __future__ import annotations

import numpy as np

from .game import Game, GameFormatError


def gamma1():
    """2x2 game with a strict equilibrium and an all-zero corner."""
    payoffs = np.array(
        [
            [[1, 1], [0, 0]],
            [[0, 0], [0, 0]],
        ],
        dtype=float,
    )
    return Game(["P1", "P2"], {"P1": ["a1", "a2"], "P2": ["b1", "b2"]}, payoffs)


def psi():
    """2x2 game whose Nash set is a continuum supported on one column."""
    payoffs = np.array(
        [
            [[2, 2], [2, 1]],
            [[2, 3], [0, 0]],
        ],
        dtype=float,
    )
    return Game(["P1", "P2"], {"P1": ["a1", "a2"], "P2": ["b1", "b2"]}, payoffs)


def gamma2c(c1, c2):
    """3x3 family with costly mistake cells scaled by (c1, c2), both > 0."""
    c1 = float(c1)
    c2 = float(c2)
    if not (c1 > 0 and c2 > 0):
        raise GameFormatError("gamma2c requires c1 > 0 and c2 > 0")
    payoffs = np.array(
        [
            [[1, 1], [0, 0], [-7 - c1, -7 - c2]],
            [[0, 0], [0, 0], [-7, -7]],
            [[-7 - c1, -7 - c2], [-7, -7], [-7, -7]],
        ],
        dtype=float,
    )
    return Game(
        ["P1", "P2"],
        {"P1": ["a1", "a2", "a3"], "P2": ["b1", "b2", "b3"]},
        payoffs,
    )


def phi():
    """Stylized pie-division game: Underdog vs Top Dog bidding 10/15/20."""
    payoffs = np.array(
        [
            [[10, 30], [15, 25], [20, 20]],
            [[5, 15], [15, 25], [20, 20]],
            [[0, 20], [0, 20], [20, 20]],
        ],
        dtype=float,
    )
    return Game(["U", "T"], {"U": ["10", "15", "20"], "T": ["10", "15", "20"]}, payoffs)


NAMES = ("gamma1", "psi", "gamma2c", "phi")


def get(name, c1=None, c2=None):
    """Look a bundled game up by name; gamma2c needs both cost parameters,
    and no other game takes them."""
    name = str(name).lower()
    if name not in NAMES:
        raise GameFormatError(f"unknown corpus game {name!r}; choices: {', '.join(NAMES)}")
    if name != "gamma2c" and (c1 is not None or c2 is not None):
        raise GameFormatError(f"--c1 and --c2 apply to gamma2c only, not {name}")
    if name == "gamma1":
        return gamma1()
    if name == "psi":
        return psi()
    if name == "gamma2c":
        if c1 is None or c2 is None:
            raise GameFormatError("gamma2c requires --c1 and --c2")
        return gamma2c(c1, c2)
    return phi()
