"""Seeded weight generation owned by the benchmark.

The generators live here, not in ``prefixcodes.bench``, so that editing the
package cannot silently change what a workload solves.  Every draw comes
from a ``random.Random`` seeded with a string, which Python hashes with
SHA-512: the same seed gives the same weights on every platform and under
every ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random

DISTRIBUTIONS = ("uniform", "zipf", "geometric")

_SCALE = 10**6


def rng_for(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def weights(n: int, distribution: str, rng: random.Random) -> list[int]:
    """``n`` positive integer weights in shuffled order.

    * ``uniform``: independent draws from [1, 10**6];
    * ``zipf``: about 10**6 / k for rank k, each jittered by +-10%;
    * ``geometric``: about 10**6 / 2**k for rank k, jittered by +-10%, floored
      at 1, so the tail is a long run of equal weights (deep optimal trees).
    """
    if distribution == "uniform":
        out = [rng.randint(1, _SCALE) for _ in range(n)]
    elif distribution == "zipf":
        out = [max(1, _SCALE * rng.randint(90, 110) // (100 * k)) for k in range(1, n + 1)]
    elif distribution == "geometric":
        out = [max(1, (_SCALE * rng.randint(90, 110) // 100) >> k) for k in range(n)]
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    rng.shuffle(out)
    return out
