"""Diffie-Hellman key exchange, from scratch (Section 6, Part 1).

The group-key protocol initialises f-AME with the messages of a one-round
key-exchange protocol; the paper names Diffie-Hellman [12].  We implement
textbook DH over the quadratic-residue subgroup of a safe prime ``p = 2q+1``
(prime-order ``q`` subgroup, so small-subgroup attacks are structurally
impossible once the public value passes the subgroup check).

Groups provided:

* :data:`MODP_GROUP_14` — the 2048-bit group 14 of RFC 3526 (generator 2),
  the standard deployment choice;
* :data:`TEST_GROUP_64` / :data:`TEST_GROUP_128` / :data:`TEST_GROUP_256` —
  small safe-prime groups for fast simulation (generator 4, a quadratic
  residue, hence a generator of the order-``q`` subgroup).  They are *not*
  secure against a real discrete-log adversary; the simulated adversary
  never attempts discrete logs, so the protocol logic is exercised
  faithfully at a fraction of the modexp cost.

Primality is checked with deterministic-base Miller-Rabin for small inputs
and 40 random rounds above that, so test suites can verify the constants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import CryptoError
from .hashes import derive_key

# Deterministic Miller-Rabin bases valid for all n < 3.317e24.
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981


def is_probable_prime(n: int, *, rounds: int = 40, rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test.

    Deterministic (no false positives) below ``3.3e24``; above that, 40
    random rounds give error probability below ``4^-40``.
    """
    if n < 2:
        return False
    for p in _DETERMINISTIC_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witness(a: int) -> bool:
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    if n < _DETERMINISTIC_LIMIT:
        return not any(witness(a) for a in _DETERMINISTIC_BASES)
    # repro-lint: disable=DET001 -- fixed-constant Miller-Rabin witness
    # stream: verdicts are deterministic, no protocol coins consumed
    rng = rng or random.Random(0xD1F5)
    return not any(
        witness(rng.randrange(2, n - 1)) for _ in range(rounds)
    )


@dataclass(frozen=True)
class DhGroup:
    """A safe-prime Diffie-Hellman group ``(p, g)`` with ``p = 2q + 1``.

    ``g`` must generate (a subgroup of) the order-``q`` quadratic-residue
    subgroup; key exchange happens entirely inside that subgroup.
    """

    p: int
    g: int
    name: str = ""

    @property
    def q(self) -> int:
        """The subgroup order ``(p - 1) / 2``."""
        return (self.p - 1) // 2

    def validate(self) -> "DhGroup":
        """Check group structure, primality of ``p`` and ``q`` included;
        returns ``self`` for chaining."""
        if self.p < 23:
            raise CryptoError("modulus too small to be a safe prime group")
        if self.p % 2 == 0:
            raise CryptoError("modulus must be odd")
        if not 2 <= self.g <= self.p - 2:
            raise CryptoError("generator out of range")
        if not is_probable_prime(self.p):
            raise CryptoError(f"{self.name or 'group'}: p is not prime")
        if not is_probable_prime(self.q):
            raise CryptoError(
                f"{self.name or 'group'}: p is not a safe prime "
                "((p-1)/2 is composite)"
            )
        return self

    # ------------------------------------------------------------------

    def is_valid_public(self, value: int) -> bool:
        """Subgroup membership check for a received public value.

        Rejects the degenerate values (0, 1, p-1) and anything outside the
        order-``q`` subgroup, the standard defence against key-forcing.
        """
        if not 2 <= value <= self.p - 2:
            return False
        return pow(value, self.q, self.p) == 1

    def keypair(self, rng: random.Random) -> "DhKeyPair":
        """Sample a fresh private exponent and its public value."""
        x = rng.randrange(2, self.q - 1)
        return DhKeyPair(group=self, private=x, public=pow(self.g, x, self.p))

    def shared_secret(self, private: int, other_public: int) -> int:
        """The raw DH shared value ``other_public ** private mod p``."""
        if not self.is_valid_public(other_public):
            raise CryptoError("invalid peer public value")
        return pow(other_public, private, self.p)


@dataclass(frozen=True)
class DhKeyPair:
    """A private exponent with its public value, bound to a group."""

    group: DhGroup
    private: int
    public: int

    def shared_key(self, other_public: int, *context: object) -> bytes:
        """Complete the exchange: a 32-byte symmetric key.

        ``context`` binds the key to its use (e.g. the sorted pair of node
        ids), so the same DH value never keys two different relationships.
        """
        secret = self.group.shared_secret(self.private, other_public)
        return derive_key(secret, "dh", *context)


def pairwise_context(a: int, b: int) -> tuple[str, int, int]:
    """Canonical key-derivation context for a node pair (order-free)."""
    lo, hi = (a, b) if a <= b else (b, a)
    return ("pair", lo, hi)


# ---------------------------------------------------------------------------
# Named groups.
# ---------------------------------------------------------------------------

_RFC3526_14_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)

MODP_GROUP_14 = DhGroup(p=_RFC3526_14_P, g=2, name="modp-2048 (RFC 3526 group 14)")
"""The 2048-bit MODP group of RFC 3526 — the production choice."""

TEST_GROUP_64 = DhGroup(p=0xA82EE0BC09437BCB, g=4, name="test-64")
"""A 64-bit safe-prime group for fast simulations (NOT secure)."""

TEST_GROUP_128 = DhGroup(
    p=0xA27FFFF8B5E81D5B3E8A65A0CEE2D6C3, g=4, name="test-128"
)
"""A 128-bit safe-prime group for fast simulations (NOT secure)."""

TEST_GROUP_256 = DhGroup(
    p=0x9444144BEEC2B257693E9C274E6ABC66226E5A08667A7834DF5CFAB3B5FEFF7F,
    g=4,
    name="test-256",
)
"""A 256-bit safe-prime group for fast simulations (NOT secure)."""

DEFAULT_GROUP = TEST_GROUP_128
"""The group protocols use unless told otherwise: fast and structurally
identical to the production group."""
