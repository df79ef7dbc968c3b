"""Workload seeds: one integer selects every guest program's input.

Each MiniC guest synthesises its input with the xorshift32 generator in
:data:`repro.workloads.base.RNG_SNIPPET`.  A seed rewrites that generator's
initial ``rng_state``; the simulator only ever sees the rewritten source.

``rng_state = RNG_DEFAULT_STATE ^ fmix32(seed)``.  ``fmix32`` is a bijection
on 32-bit words with ``fmix32(0) == 0``, so seed 0 reproduces the committed
programs exactly and every other seed gives a distinct state.  Xorshift is
stuck at state 0, so the one seed that maps there is rejected.
"""

from __future__ import annotations

from dataclasses import replace

from repro.workloads import Workload

MASK32 = 0xFFFF_FFFF

#: The generator state every workload source is written with.
RNG_DEFAULT_STATE = 2463534242
RNG_DECL = f"int rng_state = {RNG_DEFAULT_STATE};"

#: Seed 0 keeps the committed guest inputs, the ones results/ was made with.
DEFAULT_SEED = 0


def fmix32(value: int) -> int:
    """MurmurHash3's 32-bit finaliser (bijective, 0 -> 0)."""
    value &= MASK32
    value ^= value >> 16
    value = (value * 0x85EB_CA6B) & MASK32
    value ^= value >> 13
    value = (value * 0xC2B2_AE35) & MASK32
    value ^= value >> 16
    return value


def rng_state(seed: int) -> int:
    """The xorshift state a seed selects; raises for unusable seeds."""
    if not 0 <= seed <= MASK32:
        raise ValueError(f"seed must be in [0, 2**32), got {seed}")
    state = RNG_DEFAULT_STATE ^ fmix32(seed)
    if state == 0:
        raise ValueError(
            f"seed {seed} maps to xorshift state 0, where the generator "
            f"never leaves 0; pick another seed"
        )
    return state


def reseed(workload: Workload, seed: int) -> Workload:
    """The workload with its generator started from ``rng_state(seed)``.

    Workloads without the generator (the hand-written assembly scenarios)
    come back unchanged.
    """
    state = rng_state(seed)
    if workload.language != "minic" or RNG_DECL not in workload.source:
        return workload
    if workload.source.count(RNG_DECL) != 1:
        raise ValueError(f"{workload.name}: expected one {RNG_DECL!r}")
    return replace(
        workload,
        source=workload.source.replace(RNG_DECL, f"int rng_state = {state};"),
    )
