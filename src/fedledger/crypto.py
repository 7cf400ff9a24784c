"""Hashing, account addresses, signatures, and canonical wire encoding.

Digests are raw 32-byte SHA-256 values, addresses are 20-byte account
identifiers derived from a public-key digest. The signature scheme is a
pluggable abstraction; the default is a deterministic registry-backed
scheme that satisfies the sign/verify contract (verification fails for
any altered byte or wrong signer) without the cost of real asymmetric
crypto. It is simulation-grade, not a real signature scheme.

Canonical encoding rules, used everywhere a structure is hashed or
signed: fields are concatenated in declaration order, integers are
big-endian fixed width, variable-length byte strings carry a 4-byte
big-endian length prefix, fixed-width values (digests, addresses) are
written raw. See docs/serialization.md for the byte-by-byte layout of
every structure.
"""

from __future__ import annotations

import hashlib

DIGEST_LEN = 32
ADDRESS_LEN = 20
SIG_LEN = 32

ZERO_DIGEST = bytes(DIGEST_LEN)
ZERO_ADDRESS = bytes(ADDRESS_LEN)


def sha256(data: bytes) -> bytes:
    """SHA-256 digest of ``data`` (always 32 bytes, deterministic)."""
    return hashlib.sha256(data).digest()


# -- canonical encoding helpers ------------------------------------------

def enc_u8(v: int) -> bytes:
    return v.to_bytes(1, "big")


def enc_u32(v: int) -> bytes:
    return v.to_bytes(4, "big")


def enc_u64(v: int) -> bytes:
    return v.to_bytes(8, "big")


def enc_u256(v: int) -> bytes:
    return v.to_bytes(32, "big")


def enc_blob(b: bytes) -> bytes:
    """Length-prefixed variable-size byte string."""
    return len(b).to_bytes(4, "big") + b


def enc_digest(d: bytes) -> bytes:
    if len(d) != DIGEST_LEN:
        raise ValueError(f"digest must be {DIGEST_LEN} bytes, got {len(d)}")
    return d


def enc_address(a: bytes) -> bytes:
    if len(a) != ADDRESS_LEN:
        raise ValueError(f"address must be {ADDRESS_LEN} bytes, got {len(a)}")
    return a


class Reader:
    """Cursor for decoding canonical encodings."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated encoding")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def u256(self) -> int:
        return int.from_bytes(self.take(32), "big")

    def blob(self) -> bytes:
        return self.take(self.u32())

    def digest(self) -> bytes:
        return self.take(DIGEST_LEN)

    def address(self) -> bytes:
        return self.take(ADDRESS_LEN)

    def done(self) -> bool:
        return self.pos == len(self.data)


# -- signature scheme ------------------------------------------------------

class SigningKey:
    """Secret key handle bound to one address."""

    __slots__ = ("secret", "address")

    def __init__(self, secret: bytes, address: bytes):
        self.secret = secret
        self.address = address


class Keyring:
    """Deterministic registry-backed signature scheme.

    Accounts are derived from a seeded RNG so a simulation run always
    produces the same addresses. ``verify`` looks the signer up by
    address; unknown addresses verify as False, never raise.
    """

    def __init__(self, rng):
        self._rng = rng
        self._secrets: dict[bytes, bytes] = {}

    def new_account(self) -> SigningKey:
        secret = self._rng.getrandbits(256).to_bytes(32, "big")
        pub = sha256(b"pub:" + secret)
        address = sha256(b"addr:" + pub)[:ADDRESS_LEN]
        self._secrets[address] = secret
        return SigningKey(secret, address)

    @staticmethod
    def sign(key: SigningKey, data: bytes) -> bytes:
        return sha256(key.secret + sha256(data))

    def verify(self, address: bytes, data: bytes, sig: bytes) -> bool:
        secret = self._secrets.get(address)
        if secret is None:
            return False
        return sig == sha256(secret + sha256(data))

    def verify_signed(self, obj) -> bool:
        """Check a frozen signed object (``sender``, ``signing_bytes()``, ``signature``).

        A broadcast hands the same object to every receiver, so a success
        is remembered on the object itself, for this keyring only; the
        next call with the same keyring skips the hashing. A failure is
        never remembered.
        """
        if obj.__dict__.get("_verified_by") is self:
            return True
        if not self.verify(obj.sender, obj.signing_bytes(), obj.signature):
            return False
        object.__setattr__(obj, "_verified_by", self)
        return True
