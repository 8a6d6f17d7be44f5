"""Probabilistic prime generation (Miller–Rabin) for RSA key material."""

from __future__ import annotations

import random

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
]


def is_probable_prime(candidate, rounds=24, rng=None):
    """Miller–Rabin primality test with trial division pre-filter."""
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate == prime:
            return True
        if candidate % prime == 0:
            return False
    rng = rng or random
    # Write candidate-1 as d * 2^r with d odd.
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for __ in range(rounds):
        a = rng.randrange(2, candidate - 1)
        x = pow(a, d, candidate)
        if x in (1, candidate - 1):
            continue
        for __ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def generate_prime(bits, rng=None):
    """Generate a probable prime of exactly *bits* bits.

    The two top bits are forced, so the prime lies in [1.5·2^(bits−1),
    2^bits) — inside FIPS 186-4 §B.3.3's [√2·2^(bits−1), 2^bits) — and the
    product of an *a*-bit and a *b*-bit prime has exactly *a + b* bits.
    """
    if bits < 8:
        raise ValueError("prime size too small to be useful")
    rng = rng or random
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (3 << (bits - 2)) | 1  # force two top bits and oddness
        if is_probable_prime(candidate, rng=rng):
            return candidate
